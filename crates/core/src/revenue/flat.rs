//! The flat-arena incremental revenue engine.
//!
//! This is the [`IncrementalRevenue`] evaluator behind every greedy
//! algorithm. It re-implements the (user, class) group bookkeeping of the
//! original hash-based evaluator (kept as a test-only reference in the
//! `revmax-oracle` crate) with dense,
//! index-based structures so the hot path performs **zero hashing and zero
//! transcendental calls beyond a single `exp`**:
//!
//! * groups are numbered densely up front: candidates are CSR-sorted by user,
//!   so one stamped scan assigns every candidate its (user, class) group slot
//!   (`cand_group`), replacing the `HashMap<(u32, u32), Vec<Entry>>` lookup;
//! * group entries live in contiguous per-group slabs inside one arena `Vec`
//!   (`group_start` / `group_len` / `group_cap`, doubling by relocation), so
//!   the hot walks are plain slice scans with no per-group allocation and no
//!   pointer chasing;
//! * capacity tracking uses a per-candidate `Vec<bool>` — every legal
//!   (user, item) pair *is* a `CandidateId`, so the `HashSet<(u32, u32)>` of
//!   the original evaluator is unnecessary;
//! * saturation powers are table-driven: `ln β_i` per item turns
//!   `β^M` into one `exp`, and a per-item table of `β_i^{1/d}` for
//!   `d ∈ 1..T` turns the per-entry discount `β^{1/(t−τ)}` into a lookup;
//! * selection membership is a flat bitmap over (candidate, time) slots, and
//!   the engine keeps no `Strategy` at all: it counts its picks, and the
//!   greedy drivers build the plan's strategy from their own insertions.
//!
//! Non-candidate triples (probability 0 everywhere) are accepted through the
//! triple-based compatibility API and handled on a cold path so the engine
//! stays exactly equivalent to the from-scratch evaluator for any strategy.
//!
//! # One marginal path
//!
//! Every marginal query — [`IncrementalRevenue::marginal_revenue_cand`], the
//! lane walk of [`IncrementalRevenue::marginal_revenue_batch`] and the fused
//! walk of [`IncrementalRevenue::insert_cand`] — walks the probed group's slab
//! once, folding the memory `Σ_{τ < t} 1/(t − τ)`, the competition product
//! `Π (1 − q_e)` and the loss on later same-class selections with each
//! entry's own `β_e^{1/(τ − t)}` row. β belongs to the item (Definition 1),
//! so no class-level shortcut is taken: a uniform-β class walks exactly like
//! a mixed one.

use super::engine::RevenueEngine;
use super::ledger::CapacityLedger;
use super::warm::{EngineSnapshot, FlatBuffers, ResidualDelta, SatTables};
use crate::ids::{CandidateId, ClassId, TimeStep, Triple, UserId};
use crate::instance::{Instance, UserShard};
use std::sync::Arc;

const NONE: u32 = u32::MAX;

/// One selected triple stored in the group arena.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ArenaEntry {
    t: u32,
    item: u32,
    /// Row of the saturation tables (0 = saturation-free).
    pow_row: u32,
    q_prim: f64,
    /// Current dynamic adoption probability under the strategy built so far.
    q_dyn: f64,
    price: f64,
}

/// Incremental evaluator of the revenue function and the REVMAX constraints.
///
/// Greedy algorithms grow a strategy one triple at a time; this structure
/// maintains, per (user, class) group, the selected triples and their current
/// dynamic adoption probabilities so that marginal revenues and insertions
/// cost `O(|set(u, C(i))|)` — with no hashing, no allocation, and table-driven
/// saturation powers (see the module docs).
#[derive(Debug, Clone)]
pub struct IncrementalRevenue<'a> {
    inst: &'a Instance,
    /// The user/candidate range this evaluator's dynamic state covers. The
    /// default constructors use the full range; shard views localise every
    /// per-candidate and per-user vector to the shard, so memory per shard
    /// worker is `O(shard)` rather than `O(instance)`.
    shard: UserShard,
    /// When true, selection values treat every saturation factor as 1
    /// (the `GlobalNo` ablation). The *reported* revenue then over-estimates
    /// the true value; re-evaluate the final strategy with [`super::revenue`].
    ignore_saturation: bool,

    // --- static tables, built once per evaluator (or recycled across the
    // --- residual replans of one session, see `super::warm`) ---
    /// Saturation power tables (`ln β`, `β^{1/d}`, `1/d`). Shared behind an
    /// `Arc` so a warm-started engine reuses the previous replan's tables;
    /// bit-identical to a fresh build, so warm vs cold never changes a plan.
    tables: Arc<SatTables>,
    /// Dense (user, class) group slot per candidate (shard-local index).
    cand_group: Vec<u32>,
    /// Warm-start pool to return the recycled buffers to on
    /// [`IncrementalRevenue::release`] (`None` for cold engines).
    recycle: Option<EngineSnapshot>,

    // --- dynamic state ---
    /// Start of each group's contiguous slab in `arena`, or `NONE` if the
    /// group has never been touched.
    group_start: Vec<u32>,
    /// Number of entries per group.
    group_len: Vec<u32>,
    /// Reserved slab capacity per group (doubled by relocation when full).
    group_cap: Vec<u32>,
    /// Slab pool: every group owns the contiguous range
    /// `group_start..group_start + group_cap`; at most half the pool is dead
    /// (abandoned by relocation), so memory stays `O(|S|)`.
    arena: Vec<ArenaEntry>,
    /// Selection bitmap over `local_cand * horizon + (t − 1)` slots.
    selected: Vec<bool>,
    revenue: f64,
    /// Number of triples selected so far.
    picks: usize,
    /// Per (shard-local user, time) number of recommendations, for the
    /// display constraint.
    display_count: Vec<u16>,
    /// Per item, the distinct users reached so far against the capacity
    /// `q_i`. For shard views this counts only the shard's own claims; the
    /// shard-partitioned planners arbitrate the *global* capacity through a
    /// [`super::ledger::SharedCapacityLedger`] instead of this field.
    ledger: CapacityLedger,
    /// Per shard-local candidate: whether its (item, user) pair was counted
    /// in the ledger.
    cand_counted: Vec<bool>,
    /// Per shard-local candidate: compiled exempt-capacity bit. Empty unless
    /// the instance carries exemptions; when populated, the hot capacity
    /// check is two flat loads instead of a binary search per query.
    cand_exempt: Vec<bool>,
    /// Inserted *non-candidate* triples (cold path, linear-scanned; the
    /// selection bitmap covers candidate triples only).
    extra_triples: Vec<Triple>,
    /// Groups created on demand for non-candidate (user, class) pairs the
    /// static numbering has no slot for (cold path, linear-scanned).
    extra_groups: Vec<(u32, u32, u32)>,
}

impl<'a> IncrementalRevenue<'a> {
    /// Creates an empty evaluator for an instance.
    pub fn new(inst: &'a Instance) -> Self {
        Self::with_options(inst, false)
    }

    /// Creates an evaluator that optionally ignores saturation when computing
    /// selection values (used by the GlobalNo baseline of §6.1).
    pub fn with_options(inst: &'a Instance, ignore_saturation: bool) -> Self {
        Self::for_user_shard(inst, ignore_saturation, inst.full_shard())
    }

    /// Creates an evaluator whose dynamic state covers only the users (and
    /// CSR-contiguous candidates) of `shard`.
    ///
    /// Candidate and user ids stay *global* — the shard view translates them
    /// internally — so greedy drivers can address a shard engine with the
    /// same ids they would pass to a full one. Feeding a triple or candidate
    /// outside the shard is a logic error (checked by `debug_assert`).
    pub fn for_user_shard(inst: &'a Instance, ignore_saturation: bool, shard: UserShard) -> Self {
        Self::with_parts(
            inst,
            ignore_saturation,
            shard,
            Arc::new(SatTables::build(inst)),
            FlatBuffers::default(),
            None,
        )
    }

    /// Warm-started construction for a residual replan: reuses the
    /// saturation tables and buffer sets pooled in `residual`'s
    /// [`EngineSnapshot`] instead of rebuilding them (one `powf` per item
    /// per time distance saved, zero fresh allocation when the pool is
    /// primed). Recycled state holds bit-identical table values and cleared
    /// buffers, so a warm engine is indistinguishable from a cold one.
    ///
    /// Falls back to a cold table build — publishing the result for the next
    /// replan — when the pool is empty or was taken from a different item
    /// universe.
    pub fn warm_start_shard(
        inst: &'a Instance,
        ignore_saturation: bool,
        shard: UserShard,
        residual: &ResidualDelta,
    ) -> Self {
        let snapshot = residual.snapshot();
        let tables = snapshot.tables_for(inst).unwrap_or_else(|| {
            let tables = Arc::new(SatTables::build(inst));
            snapshot.publish_tables(&tables);
            tables
        });
        Self::with_parts(
            inst,
            ignore_saturation,
            shard,
            tables,
            snapshot.take_buffers_for(shard.user_start()),
            Some(snapshot.clone()),
        )
    }

    fn with_parts(
        inst: &'a Instance,
        ignore_saturation: bool,
        shard: UserShard,
        tables: Arc<SatTables>,
        buffers: FlatBuffers,
        recycle: Option<EngineSnapshot>,
    ) -> Self {
        let horizon = inst.horizon() as usize;
        let num_cand = shard.num_candidates();
        let FlatBuffers {
            mut cand_group,
            mut group_start,
            mut group_len,
            mut group_cap,
            mut arena,
            mut selected,
            mut display_count,
            mut cand_counted,
            mut cand_exempt,
        } = buffers;

        // Group numbering: candidates are CSR-contiguous per user, so one
        // stamped scan over each shard user's candidates assigns dense group
        // slots without hashing. Stamps avoid clearing the per-class scratch
        // rows. Every shard candidate is assigned, so the recycled buffer
        // needs resizing only, not clearing.
        let num_classes = inst.num_classes() as usize;
        let mut class_stamp = vec![NONE; num_classes];
        let mut class_group = vec![0u32; num_classes];
        cand_group.resize(num_cand, 0);
        let mut num_groups: u32 = 0;
        for user in shard.user_start()..shard.user_end() {
            for cand in inst.candidates_of_user(UserId(user)) {
                let class = inst.candidate_class(cand).index();
                if class_stamp[class] != user {
                    class_stamp[class] = user;
                    class_group[class] = num_groups;
                    num_groups += 1;
                }
                cand_group[(cand.0 - shard.cand_start()) as usize] = class_group[class];
            }
        }

        // Compiled exempt-capacity bits: populated only when the instance
        // carries exemptions (residual replans), so ordinary instances pay
        // nothing.
        cand_exempt.clear();
        if inst.has_exemptions() {
            cand_exempt.resize(num_cand, false);
            for (local, slot) in cand_exempt.iter_mut().enumerate() {
                let cand = CandidateId(shard.cand_start() + local as u32);
                *slot = inst.is_exempt(inst.candidate_item(cand), inst.candidate_user(cand));
            }
        }

        group_start.clear();
        group_start.resize(num_groups as usize, NONE);
        group_len.clear();
        group_len.resize(num_groups as usize, 0);
        group_cap.clear();
        group_cap.resize(num_groups as usize, 0);
        arena.clear();
        selected.clear();
        selected.resize(num_cand * horizon, false);
        display_count.clear();
        display_count.resize(shard.num_users() * horizon, 0);
        cand_counted.clear();
        cand_counted.resize(num_cand, false);

        IncrementalRevenue {
            inst,
            shard,
            ignore_saturation,
            tables,
            cand_group,
            recycle,
            group_start,
            group_len,
            group_cap,
            arena,
            selected,
            revenue: 0.0,
            picks: 0,
            display_count,
            ledger: CapacityLedger::new(inst),
            cand_counted,
            extra_triples: Vec::new(),
            extra_groups: Vec::new(),
            cand_exempt,
        }
    }

    /// The user/candidate range this evaluator covers.
    pub fn shard(&self) -> UserShard {
        self.shard
    }

    /// Shard-local index of a (global) candidate id.
    #[inline]
    fn local_cand(&self, cand: CandidateId) -> usize {
        debug_assert!(
            self.shard.contains_cand(cand),
            "candidate {cand:?} outside shard view"
        );
        (cand.0 - self.shard.cand_start()) as usize
    }

    /// Shard-local index of a (global) user id.
    #[inline]
    fn local_user(&self, user: UserId) -> usize {
        debug_assert!(
            self.shard.contains_user(user),
            "user {user:?} outside shard view"
        );
        (user.0 - self.shard.user_start()) as usize
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

    /// Consumes the evaluator. Warm-started engines return their buffers
    /// to the session's [`EngineSnapshot`] pool here — keyed by the shard
    /// that grew them — so the next replan of the same shard can recycle
    /// them at matching capacity; cold engines are simply dropped.
    pub fn release(mut self) {
        if let Some(pool) = self.recycle.take() {
            pool.return_buffers(
                self.shard.user_start(),
                FlatBuffers {
                    cand_group: std::mem::take(&mut self.cand_group),
                    group_start: std::mem::take(&mut self.group_start),
                    group_len: std::mem::take(&mut self.group_len),
                    group_cap: std::mem::take(&mut self.group_cap),
                    arena: std::mem::take(&mut self.arena),
                    selected: std::mem::take(&mut self.selected),
                    display_count: std::mem::take(&mut self.display_count),
                    cand_counted: std::mem::take(&mut self.cand_counted),
                    cand_exempt: std::mem::take(&mut self.cand_exempt),
                },
            );
        }
    }

    /// Number of triples selected so far.
    pub fn len(&self) -> usize {
        self.picks
    }

    /// Whether no triple has been selected yet.
    pub fn is_empty(&self) -> bool {
        self.picks == 0
    }

    /// Whether a non-candidate triple of the same (item, user) pair as `z`
    /// was inserted, i.e. the pair was already charged to the ledger.
    fn extra_pair_seen(&self, z: Triple) -> bool {
        self.extra_triples
            .iter()
            .any(|e| e.item == z.item && e.user == z.user)
    }

    /// The saturation-table row of an item under the evaluator's settings.
    #[inline]
    fn pow_row(&self, item: u32) -> u32 {
        if self.ignore_saturation {
            0
        } else {
            item + 1
        }
    }

    /// `β^memory` via the precomputed `ln β` table: one `exp` instead of a
    /// `powf`, with the `β ∈ {0, 1}` edge cases handled explicitly (the
    /// `memory · ln β` product would be `NaN` for `β = 0, memory = 0`).
    #[inline]
    fn pow_memory(&self, row: u32, memory: f64) -> f64 {
        if memory == 0.0 {
            return 1.0;
        }
        let ln_b = self.tables.ln_beta[row as usize];
        if ln_b == 0.0 {
            1.0
        } else if ln_b == f64::NEG_INFINITY {
            0.0
        } else {
            (memory * ln_b).exp()
        }
    }

    /// `β_e^{1/d}` for an entry's pow row and a time distance `d ≥ 1`.
    #[inline]
    fn root_discount(&self, row: u32, dist: u32) -> f64 {
        self.tables.beta_root[row as usize * self.tables.stride + (dist - 1) as usize]
    }

    /// The contiguous slab of a group's entries (empty for untouched groups).
    #[inline]
    fn group_entries(&self, group: usize) -> &[ArenaEntry] {
        let start = self.group_start[group];
        if start == NONE {
            return &[];
        }
        &self.arena[start as usize..start as usize + self.group_len[group] as usize]
    }

    /// Appends an entry to a group's slab, reserving or doubling (by
    /// relocation to the end of the pool) when the slab is full. Relocation
    /// copies at most `len` entries, so pushes stay amortised O(1) and at most
    /// half the pool is ever dead.
    fn slab_push(&mut self, group: usize, entry: ArenaEntry) {
        let len = self.group_len[group] as usize;
        let cap = self.group_cap[group] as usize;
        if self.group_start[group] == NONE {
            let cap = 4usize;
            self.group_start[group] = self.arena.len() as u32;
            self.group_cap[group] = cap as u32;
            self.arena
                .resize(self.arena.len() + cap, ArenaEntry::default());
        } else if len == cap {
            let new_cap = cap * 2;
            let old_start = self.group_start[group] as usize;
            let new_start = self.arena.len();
            self.group_start[group] = new_start as u32;
            self.group_cap[group] = new_cap as u32;
            self.arena.extend_from_within(old_start..old_start + len);
            self.arena
                .resize(new_start + new_cap, ArenaEntry::default());
        }
        let start = self.group_start[group] as usize;
        self.arena[start + len] = entry;
        self.group_len[group] += 1;
    }

    /// Size of the (user, class) group of a triple — the quantity the
    /// lazy-forward flags of G-Greedy are compared against (`|set(u, C(i))|`).
    pub fn group_size(&self, user: UserId, class: ClassId) -> usize {
        match self.group_for(user, class) {
            Some(g) => self.group_len[g as usize] as usize,
            None => 0,
        }
    }

    /// The group slot of a (user, class) pair: the statically numbered group
    /// when the user has a candidate of the class, otherwise a dynamically
    /// created one (non-candidate inserts, cold path).
    fn group_for(&self, user: UserId, class: ClassId) -> Option<u32> {
        self.inst
            .candidates_of_user(user)
            .find(|&c| self.inst.candidate_class(c) == class)
            .map(|c| self.cand_group[self.local_cand(c)])
            .or_else(|| {
                self.extra_groups
                    .iter()
                    .find(|&&(u, c, _)| u == user.0 && c == class.0)
                    .map(|&(_, _, g)| g)
            })
    }

    /// [`IncrementalRevenue::group_for`], creating a fresh group slot when the
    /// (user, class) pair has none — keeps non-candidate inserts queryable
    /// through [`IncrementalRevenue::dynamic_probability`] / group sizes, in
    /// lockstep with the hash engine.
    fn group_for_or_create(&mut self, user: UserId, class: ClassId) -> u32 {
        if let Some(g) = self.group_for(user, class) {
            return g;
        }
        let g = self.group_start.len() as u32;
        self.group_start.push(NONE);
        self.group_len.push(0);
        self.group_cap.push(0);
        self.extra_groups.push((user.0, class.0, g));
        g
    }

    /// Whether adding the triple would violate the display or capacity
    /// constraint.
    pub fn would_violate(&self, z: Triple) -> bool {
        if self.would_violate_display(z) {
            return true;
        }
        match self.inst.candidate_for(z.user, z.item) {
            Some(cand) => self.capacity_violated_cand(cand, z.item.0),
            None => !self.extra_pair_seen(z) && self.ledger.is_full_for(z.item, z.user),
        }
    }

    /// Whether adding the triple would violate only the display constraint
    /// (validity notion of the relaxed problem R-REVMAX).
    pub fn would_violate_display(&self, z: Triple) -> bool {
        let slot = self.local_user(z.user) * self.inst.horizon() as usize + z.t.index();
        self.display_count[slot] as u32 >= self.inst.display_limit()
    }

    #[inline]
    fn capacity_violated_cand(&self, cand: CandidateId, item: u32) -> bool {
        let local = self.local_cand(cand);
        // The exempt bit was compiled per candidate at construction (empty
        // unless the instance carries exemptions), so the hot path never
        // binary-searches an exempt-user set.
        let exempt = !self.cand_exempt.is_empty() && self.cand_exempt[local];
        !self.cand_counted[local] && !exempt && self.ledger.is_full(crate::ids::ItemId(item))
    }

    /// Marginal revenue `Rev(S ∪ {z}) − Rev(S)` of a triple not yet selected.
    ///
    /// Returns 0 for triples already in the strategy. Prefer
    /// [`IncrementalRevenue::marginal_revenue_cand`] in hot loops.
    pub fn marginal_revenue(&self, z: Triple) -> f64 {
        match self.inst.candidate_for(z.user, z.item) {
            Some(cand) => self.marginal_revenue_cand(cand, z.t),
            None => {
                if self.extra_triples.contains(&z) {
                    0.0
                } else {
                    self.marginal_noncandidate(z)
                }
            }
        }
    }

    /// Marginal revenue of a candidate triple, addressed by candidate id.
    #[inline]
    pub fn marginal_revenue_cand(&self, cand: CandidateId, t: TimeStep) -> f64 {
        let horizon = self.inst.horizon() as usize;
        if self.selected[self.local_cand(cand) * horizon + t.index()] {
            return 0.0;
        }
        let (gain, loss) = self.gain_and_loss_cand(cand, t);
        gain + loss
    }

    /// The dynamic adoption probability the triple would obtain if added now.
    pub fn prospective_probability(&self, z: Triple) -> f64 {
        let q_prim = self.inst.prob_of(z);
        let item = z.item.0;
        let class = self.inst.class_of(z.item);
        let group = self.group_for(z.user, class);
        let (memory, comp) = self.memory_and_competition(group, z.t.value(), item);
        q_prim * self.pow_memory(self.pow_row(item), memory) * comp
    }

    /// Current dynamic adoption probability of a triple already in the
    /// strategy.
    pub fn dynamic_probability(&self, z: Triple) -> Option<f64> {
        let group = self.group_for(z.user, self.inst.class_of(z.item))?;
        self.group_entries(group as usize)
            .iter()
            .find(|e| e.t == z.t.value() && e.item == z.item.0)
            .map(|e| e.q_dyn)
    }

    /// Adds a triple to the strategy and returns its realised marginal revenue.
    ///
    /// The caller is responsible for constraint checks (see
    /// [`IncrementalRevenue::would_violate`]); this method only updates state.
    pub fn insert(&mut self, z: Triple) -> f64 {
        match self.inst.candidate_for(z.user, z.item) {
            Some(cand) => self.insert_cand(cand, z.t),
            None => {
                if self.extra_triples.contains(&z) {
                    return 0.0;
                }
                self.insert_noncandidate(z)
            }
        }
    }

    /// Adds a candidate triple, addressed by candidate id, and returns its
    /// realised marginal revenue.
    pub fn insert_cand(&mut self, cand: CandidateId, t: TimeStep) -> f64 {
        let horizon = self.inst.horizon() as usize;
        let local = self.local_cand(cand);
        let slot = local * horizon + t.index();
        if self.selected[slot] {
            return 0.0;
        }
        let item = self.inst.candidate_item(cand);
        let user = self.inst.candidate_user(cand);
        let q_prim = self.inst.candidate_prob(cand, t);
        let row = self.pow_row(item.0);
        let group = self.cand_group[local] as usize;
        let tv = t.value();

        // One fused walk over the group's contiguous slab: apply the discount
        // to entries at the same or later times, accumulating the loss, and
        // in the same pass the memory / competition of earlier and same-time
        // entries (the inputs of the new entry's dynamic probability).
        // Field-level borrows keep the lookup tables readable while the arena
        // is mutated.
        let mut memory = 0.0_f64;
        let mut comp = 1.0_f64;
        let mut loss = 0.0_f64;
        if self.group_start[group] != NONE {
            let start = self.group_start[group] as usize;
            let len = self.group_len[group] as usize;
            let inv_dist = &self.tables.inv_dist;
            let beta_root = &self.tables.beta_root;
            let max_dist = self.tables.stride;
            for e in &mut self.arena[start..start + len] {
                if e.t < tv {
                    memory += inv_dist[(tv - e.t) as usize];
                    comp *= 1.0 - e.q_prim;
                } else if e.t > tv {
                    let factor = (1.0 - q_prim)
                        * beta_root[e.pow_row as usize * max_dist + (e.t - tv - 1) as usize];
                    loss += e.price * e.q_dyn * (factor - 1.0);
                    e.q_dyn *= factor;
                } else if e.item != item.0 {
                    comp *= 1.0 - e.q_prim;
                    loss += e.price * e.q_dyn * (-q_prim);
                    e.q_dyn *= 1.0 - q_prim;
                }
            }
        }
        let price = self.inst.price(item, t);
        let q_new = q_prim * self.pow_memory(row, memory) * comp;
        let gain = price * q_new;

        self.slab_push(
            group,
            ArenaEntry {
                t: tv,
                item: item.0,
                pow_row: row,
                q_prim,
                q_dyn: q_new,
                price,
            },
        );

        self.revenue += gain + loss;
        self.selected[slot] = true;
        let dslot = self.local_user(user) * horizon + t.index();
        self.display_count[dslot] += 1;
        if !self.cand_counted[local] {
            self.cand_counted[local] = true;
            self.ledger.charge(item, user);
        }
        self.picks += 1;
        gain + loss
    }

    /// (memory, competition product) a new triple at `(t, item)` would see in
    /// a group.
    fn memory_and_competition(&self, group: Option<u32>, tv: u32, item: u32) -> (f64, f64) {
        let mut memory = 0.0_f64;
        let mut comp = 1.0_f64;
        let Some(group) = group else {
            return (memory, comp);
        };
        for e in self.group_entries(group as usize) {
            if e.t < tv {
                memory += self.tables.inv_dist[(tv - e.t) as usize];
                comp *= 1.0 - e.q_prim;
            } else if e.t == tv && e.item != item {
                comp *= 1.0 - e.q_prim;
            }
        }
        (memory, comp)
    }

    /// Gain (revenue of the new triple) and loss (revenue change on already
    /// selected same-class triples at the same or later times), in one walk.
    #[inline]
    fn gain_and_loss_cand(&self, cand: CandidateId, t: TimeStep) -> (f64, f64) {
        let item = self.inst.candidate_item(cand).0;
        let q_prim = self.inst.candidate_prob(cand, t);
        let row = self.pow_row(item);
        let group = self.cand_group[self.local_cand(cand)] as usize;
        let tv = t.value();

        let mut memory = 0.0_f64;
        let mut comp = 1.0_f64;
        let mut loss = 0.0_f64;
        let inv_dist = &self.tables.inv_dist;
        let beta_root = &self.tables.beta_root;
        let stride = self.tables.stride;
        for e in self.group_entries(group) {
            if e.t < tv {
                memory += inv_dist[(tv - e.t) as usize];
                comp *= 1.0 - e.q_prim;
            } else if e.t > tv {
                let factor = (1.0 - q_prim)
                    * beta_root[e.pow_row as usize * stride + (e.t - tv - 1) as usize];
                loss += e.price * e.q_dyn * (factor - 1.0);
            } else if e.item != item {
                comp *= 1.0 - e.q_prim;
                loss += e.price * e.q_dyn * (-q_prim);
            }
        }
        let q_new = q_prim * self.pow_memory(row, memory) * comp;
        let gain = self.inst.price(crate::ids::ItemId(item), t) * q_new;
        (gain, loss)
    }

    /// Fused batch evaluation: recomputes the marginal revenue of every time
    /// slot selected by `live_mask` with a single walk over the group slab
    /// (the per-slot path walks it once per slot). Arithmetic per slot is
    /// identical to [`IncrementalRevenue::marginal_revenue_cand`], in the same
    /// order, so results are bit-identical.
    pub fn marginal_revenue_batch(
        &self,
        cand: CandidateId,
        live_mask: u64,
        out: &mut [f64],
    ) -> u32 {
        let horizon = self.inst.horizon() as usize;
        debug_assert!(horizon <= 64, "batch evaluation requires horizon <= 64");
        let item = self.inst.candidate_item(cand).0;
        let row = self.pow_row(item);
        let group = self.cand_group[self.local_cand(cand)] as usize;
        let probs = self.inst.candidate_probs(cand);
        let prices = self.inst.price_series(crate::ids::ItemId(item));

        // Compact lanes: one slot of fixed-size scratch per live time index.
        // The greedy hot path evaluates only a handful of live slots, so the
        // scratch stays in registers / L1.
        const MAX_LANES: usize = 16;
        let lanes = live_mask.count_ones() as usize;
        if lanes > MAX_LANES {
            // Rare wide masks fall back to the per-slot path.
            let mut evaluated = 0;
            let mut mask = live_mask;
            while mask != 0 {
                let t_idx = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                if t_idx >= horizon {
                    break;
                }
                out[t_idx] = self.marginal_revenue_cand(cand, TimeStep::from_index(t_idx));
                evaluated += 1;
            }
            return evaluated;
        }
        let mut lane_t = [0usize; MAX_LANES];
        let lanes = {
            let mut mask = live_mask;
            let mut li = 0;
            while mask != 0 {
                let t_idx = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                if t_idx >= horizon {
                    break;
                }
                lane_t[li] = t_idx;
                li += 1;
            }
            li
        };
        let mut memory = [0.0_f64; MAX_LANES];
        let mut comp = [1.0_f64; MAX_LANES];
        let mut loss = [0.0_f64; MAX_LANES];
        let inv_dist = &self.tables.inv_dist;
        let beta_root = &self.tables.beta_root;
        let stride = self.tables.stride;
        for e in self.group_entries(group) {
            let et = e.t as usize;
            let one_minus_q = 1.0 - e.q_prim;
            let weighted = e.price * e.q_dyn;
            for li in 0..lanes {
                let t_idx = lane_t[li];
                let tv = t_idx + 1;
                if et < tv {
                    memory[li] += inv_dist[tv - et];
                    comp[li] *= one_minus_q;
                } else if et > tv {
                    let factor = (1.0 - probs[t_idx])
                        * beta_root[e.pow_row as usize * stride + (et - tv - 1)];
                    loss[li] += weighted * (factor - 1.0);
                } else if e.item != item {
                    comp[li] *= one_minus_q;
                    loss[li] += weighted * (-probs[t_idx]);
                }
            }
        }
        let base = self.local_cand(cand) * horizon;
        for li in 0..lanes {
            let t_idx = lane_t[li];
            out[t_idx] = if self.selected[base + t_idx] {
                0.0
            } else {
                let q_new = probs[t_idx] * self.pow_memory(row, memory[li]) * comp[li];
                prices[t_idx] * q_new + loss[li]
            };
        }
        lanes as u32
    }

    /// Marginal revenue of a non-candidate triple (`q ≡ 0`): the gain is zero,
    /// but its presence still saturates later same-class selections.
    fn marginal_noncandidate(&self, z: Triple) -> f64 {
        let class = self.inst.class_of(z.item);
        let Some(group) = self.group_for(z.user, class) else {
            return 0.0;
        };
        let tv = z.t.value();
        let mut loss = 0.0_f64;
        for e in self.group_entries(group as usize) {
            if e.t > tv {
                // q_prim = 0 ⇒ the competition part of the factor is 1.
                let factor = self.root_discount(e.pow_row, e.t - tv);
                loss += e.price * e.q_dyn * (factor - 1.0);
            }
        }
        loss
    }

    /// Inserts a non-candidate triple (cold path; zero gain, possible loss).
    fn insert_noncandidate(&mut self, z: Triple) -> f64 {
        let class = self.inst.class_of(z.item);
        let tv = z.t.value();
        let mut loss = 0.0_f64;
        // The entry is stored even when the user has no candidate of this
        // class (a group is created on demand): it carries zero probability,
        // but storing it keeps `dynamic_probability` / group sizes consistent
        // with the hash engine.
        let group = self.group_for_or_create(z.user, class) as usize;
        if self.group_start[group] != NONE {
            let start = self.group_start[group] as usize;
            let len = self.group_len[group] as usize;
            let beta_root = &self.tables.beta_root;
            let max_dist = self.tables.stride;
            for e in &mut self.arena[start..start + len] {
                if e.t > tv {
                    let factor = beta_root[e.pow_row as usize * max_dist + (e.t - tv - 1) as usize];
                    loss += e.price * e.q_dyn * (factor - 1.0);
                    e.q_dyn *= factor;
                }
            }
        }
        self.slab_push(
            group,
            ArenaEntry {
                t: tv,
                item: z.item.0,
                pow_row: self.pow_row(z.item.0),
                q_prim: 0.0,
                q_dyn: 0.0,
                price: self.inst.price(z.item, z.t),
            },
        );
        self.revenue += loss;
        let dslot = self.local_user(z.user) * self.inst.horizon() as usize + z.t.index();
        self.display_count[dslot] += 1;
        if !self.extra_pair_seen(z) {
            self.ledger.charge(z.item, z.user);
        }
        self.extra_triples.push(z);
        self.picks += 1;
        loss
    }
}

impl<'a> RevenueEngine<'a> for IncrementalRevenue<'a> {
    fn with_options(inst: &'a Instance, ignore_saturation: bool) -> Self {
        IncrementalRevenue::with_options(inst, ignore_saturation)
    }

    fn for_shard(inst: &'a Instance, ignore_saturation: bool, shard: UserShard) -> Self {
        IncrementalRevenue::for_user_shard(inst, ignore_saturation, shard)
    }

    fn warm_start(
        inst: &'a Instance,
        ignore_saturation: bool,
        shard: UserShard,
        residual: &ResidualDelta,
    ) -> Self {
        IncrementalRevenue::warm_start_shard(inst, ignore_saturation, shard, residual)
    }

    fn instance(&self) -> &'a Instance {
        self.inst
    }

    fn revenue(&self) -> f64 {
        self.revenue
    }

    fn len(&self) -> usize {
        self.picks
    }

    fn group_size_cand(&self, cand: CandidateId) -> usize {
        self.group_len[self.cand_group[self.local_cand(cand)] as usize] as usize
    }

    fn would_violate_cand(&self, cand: CandidateId, t: TimeStep) -> bool {
        let user = self.inst.candidate_user(cand);
        let slot = self.local_user(user) * self.inst.horizon() as usize + t.index();
        if self.display_count[slot] as u32 >= self.inst.display_limit() {
            return true;
        }
        self.capacity_violated_cand(cand, self.inst.candidate_item(cand).0)
    }

    fn would_violate_display_cand(&self, cand: CandidateId, t: TimeStep) -> bool {
        let user = self.inst.candidate_user(cand);
        let slot = self.local_user(user) * self.inst.horizon() as usize + t.index();
        self.display_count[slot] as u32 >= self.inst.display_limit()
    }

    fn marginal_revenue_cand(&self, cand: CandidateId, t: TimeStep) -> f64 {
        IncrementalRevenue::marginal_revenue_cand(self, cand, t)
    }

    fn marginal_revenue_batch(&self, cand: CandidateId, live_mask: u64, out: &mut [f64]) -> u32 {
        IncrementalRevenue::marginal_revenue_batch(self, cand, live_mask, out)
    }

    fn insert_cand(&mut self, cand: CandidateId, t: TimeStep) -> f64 {
        IncrementalRevenue::insert_cand(self, cand, t)
    }

    fn release(self) {
        IncrementalRevenue::release(self)
    }
}
