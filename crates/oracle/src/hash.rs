//! The original hash-based incremental evaluator, kept as a correctness
//! reference for the flat-arena engine.
//!
//! Every marginal-revenue evaluation goes through a
//! `HashMap<(u32, u32), Vec<Entry>>` group lookup, a `HashSet<(u32, u32)>`
//! capacity set, and repeated `powf` calls — exactly the overhead the
//! flat-arena [`revmax_core::IncrementalRevenue`] removes. Tests plug it
//! into the generic drivers (`revmax_algorithms::plan_with`) to cross-check
//! the flat engine.

use revmax_core::{
    CandidateId, CapacityLedger, ClassId, Instance, RevenueEngine, Strategy, TimeStep, Triple,
    UserId,
};
use std::collections::{HashMap, HashSet};

/// One selected triple inside a (user, class) group of the incremental state.
#[derive(Debug, Clone, Copy)]
struct Entry {
    t: u32,
    item: u32,
    q_prim: f64,
    /// Current dynamic adoption probability under the strategy built so far.
    q_dyn: f64,
    price: f64,
    /// Saturation factor used for incremental updates (1.0 when the evaluator
    /// is configured to ignore saturation, as in the GlobalNo baseline).
    beta: f64,
}

/// The pre-refactor incremental evaluator (hash-based group index).
///
/// Semantically identical to [`revmax_core::IncrementalRevenue`]; slower on the hot
/// path. See the module docs.
#[derive(Debug, Clone)]
pub struct HashIncrementalRevenue<'a> {
    inst: &'a Instance,
    groups: HashMap<(u32, u32), Vec<Entry>>,
    revenue: f64,
    strategy: Strategy,
    /// Per (user, time) number of recommendations, for the display constraint.
    display_count: Vec<u16>,
    /// Per item, the distinct users reached so far against the capacity.
    ledger: CapacityLedger,
    /// (item, user) pairs already counted in the ledger.
    item_user_seen: HashSet<(u32, u32)>,
    /// When true, selection values treat every saturation factor as 1
    /// (the `GlobalNo` ablation).
    ignore_saturation: bool,
}

impl<'a> HashIncrementalRevenue<'a> {
    /// Creates an empty evaluator for an instance.
    pub fn new(inst: &'a Instance) -> Self {
        Self::with_options(inst, false)
    }

    /// Creates an evaluator that optionally ignores saturation when computing
    /// selection values (used by the GlobalNo baseline of §6.1).
    pub fn with_options(inst: &'a Instance, ignore_saturation: bool) -> Self {
        HashIncrementalRevenue {
            inst,
            groups: HashMap::new(),
            revenue: 0.0,
            strategy: Strategy::new(),
            display_count: vec![0; inst.num_users() as usize * inst.horizon() as usize],
            ledger: CapacityLedger::new(inst),
            item_user_seen: HashSet::new(),
            ignore_saturation,
        }
    }

    /// The instance this evaluator is bound to.
    pub fn instance(&self) -> &'a Instance {
        self.inst
    }

    /// Expected revenue of the strategy built so far (under the evaluator's
    /// saturation setting).
    pub fn revenue(&self) -> f64 {
        self.revenue
    }

    /// The strategy built so far.
    pub fn strategy(&self) -> &Strategy {
        &self.strategy
    }

    /// Number of triples selected so far.
    pub fn len(&self) -> usize {
        self.strategy.len()
    }

    /// Whether no triple has been selected yet.
    pub fn is_empty(&self) -> bool {
        self.strategy.is_empty()
    }

    /// Size of the (user, class) group of a triple — the quantity the
    /// lazy-forward flags of G-Greedy are compared against (`|set(u, C(i))|`).
    pub fn group_size(&self, user: UserId, class: ClassId) -> usize {
        self.groups.get(&(user.0, class.0)).map_or(0, |g| g.len())
    }

    /// Whether adding the triple would violate the display or capacity constraint.
    pub fn would_violate(&self, z: Triple) -> bool {
        let k = self.inst.display_limit();
        let slot = z.user.index() * self.inst.horizon() as usize + z.t.index();
        if self.display_count[slot] as u32 >= k {
            return true;
        }
        if !self.item_user_seen.contains(&(z.item.0, z.user.0))
            && self.ledger.is_full_for(z.item, z.user)
        {
            return true;
        }
        false
    }

    /// Whether adding the triple would violate only the display constraint
    /// (validity notion of the relaxed problem R-REVMAX).
    pub fn would_violate_display(&self, z: Triple) -> bool {
        let k = self.inst.display_limit();
        let slot = z.user.index() * self.inst.horizon() as usize + z.t.index();
        self.display_count[slot] as u32 >= k
    }

    /// Marginal revenue `Rev(S ∪ {z}) − Rev(S)` of a triple not yet selected.
    ///
    /// Returns 0 for triples already in the strategy.
    pub fn marginal_revenue(&self, z: Triple) -> f64 {
        if self.strategy.contains(z) {
            return 0.0;
        }
        let (gain, loss) = self.gain_and_loss(z);
        gain + loss
    }

    /// The dynamic adoption probability the triple would obtain if added now.
    pub fn prospective_probability(&self, z: Triple) -> f64 {
        self.prospective(z).0
    }

    /// Current dynamic adoption probability of a triple already in the strategy.
    pub fn dynamic_probability(&self, z: Triple) -> Option<f64> {
        let class = self.inst.class_of(z.item);
        let group = self.groups.get(&(z.user.0, class.0))?;
        group
            .iter()
            .find(|e| e.t == z.t.value() && e.item == z.item.0)
            .map(|e| e.q_dyn)
    }

    /// Adds a triple to the strategy and returns its realised marginal revenue.
    ///
    /// The caller is responsible for constraint checks (see
    /// [`HashIncrementalRevenue::would_violate`]); this method only updates state.
    pub fn insert(&mut self, z: Triple) -> f64 {
        if self.strategy.contains(z) {
            return 0.0;
        }
        let (gain, loss) = self.gain_and_loss(z);
        let q_prim = self.inst.prob_of(z);
        let q_new = self.prospective(z).0;
        let class = self.inst.class_of(z.item);
        let group = self.groups.entry((z.user.0, class.0)).or_default();
        // Discount existing same-class entries at the same or later times.
        for e in group.iter_mut() {
            if e.t > z.t.value() {
                let factor = (1.0 - q_prim) * e.beta.powf(1.0 / (e.t - z.t.value()) as f64);
                e.q_dyn *= factor;
            } else if e.t == z.t.value() {
                e.q_dyn *= 1.0 - q_prim;
            }
        }
        let beta = if self.ignore_saturation {
            1.0
        } else {
            self.inst.beta(z.item)
        };
        group.push(Entry {
            t: z.t.value(),
            item: z.item.0,
            q_prim,
            q_dyn: q_new,
            price: self.inst.price(z.item, z.t),
            beta,
        });
        self.revenue += gain + loss;
        // Constraint bookkeeping.
        let slot = z.user.index() * self.inst.horizon() as usize + z.t.index();
        self.display_count[slot] += 1;
        if self.item_user_seen.insert((z.item.0, z.user.0)) {
            self.ledger.charge(z.item, z.user);
        }
        self.strategy.insert(z);
        gain + loss
    }

    /// (prospective dynamic probability of z, memory of z) given the current strategy.
    fn prospective(&self, z: Triple) -> (f64, f64) {
        let q_prim = self.inst.prob_of(z);
        let beta = if self.ignore_saturation {
            1.0
        } else {
            self.inst.beta(z.item)
        };
        let class = self.inst.class_of(z.item);
        let mut memory = 0.0_f64;
        let mut comp = 1.0_f64;
        if let Some(group) = self.groups.get(&(z.user.0, class.0)) {
            for e in group {
                if e.t < z.t.value() {
                    memory += 1.0 / (z.t.value() - e.t) as f64;
                    comp *= 1.0 - e.q_prim;
                } else if e.t == z.t.value() && e.item != z.item.0 {
                    comp *= 1.0 - e.q_prim;
                }
            }
        }
        (q_prim * beta.powf(memory) * comp, memory)
    }

    /// Gain (revenue of z itself) and loss (revenue change on already selected
    /// same-class triples of the same user at the same or later times).
    fn gain_and_loss(&self, z: Triple) -> (f64, f64) {
        let q_prim = self.inst.prob_of(z);
        let (q_new, _memory) = self.prospective(z);
        let gain = self.inst.price(z.item, z.t) * q_new;
        let class = self.inst.class_of(z.item);
        let mut loss = 0.0_f64;
        if let Some(group) = self.groups.get(&(z.user.0, class.0)) {
            for e in group {
                if e.t > z.t.value() {
                    let factor = (1.0 - q_prim) * e.beta.powf(1.0 / (e.t - z.t.value()) as f64);
                    loss += e.price * e.q_dyn * (factor - 1.0);
                } else if e.t == z.t.value() && e.item != z.item.0 {
                    loss += e.price * e.q_dyn * (-q_prim);
                }
            }
        }
        (gain, loss)
    }
}

impl<'a> RevenueEngine<'a> for HashIncrementalRevenue<'a> {
    fn with_options(inst: &'a Instance, ignore_saturation: bool) -> Self {
        HashIncrementalRevenue::with_options(inst, ignore_saturation)
    }

    fn instance(&self) -> &'a Instance {
        self.inst
    }

    fn revenue(&self) -> f64 {
        self.revenue
    }

    fn len(&self) -> usize {
        self.strategy.len()
    }

    fn group_size_cand(&self, cand: CandidateId) -> usize {
        let user = self.inst.candidate_user(cand);
        self.group_size(user, self.inst.candidate_class(cand))
    }

    fn would_violate_cand(&self, cand: CandidateId, t: TimeStep) -> bool {
        let user = self.inst.candidate_user(cand);
        let item = self.inst.candidate_item(cand);
        self.would_violate(Triple { user, item, t })
    }

    fn would_violate_display_cand(&self, cand: CandidateId, t: TimeStep) -> bool {
        let user = self.inst.candidate_user(cand);
        let item = self.inst.candidate_item(cand);
        self.would_violate_display(Triple { user, item, t })
    }

    fn marginal_revenue_cand(&self, cand: CandidateId, t: TimeStep) -> f64 {
        let user = self.inst.candidate_user(cand);
        let item = self.inst.candidate_item(cand);
        self.marginal_revenue(Triple { user, item, t })
    }

    fn insert_cand(&mut self, cand: CandidateId, t: TimeStep) -> f64 {
        let user = self.inst.candidate_user(cand);
        let item = self.inst.candidate_item(cand);
        self.insert(Triple { user, item, t })
    }
}
