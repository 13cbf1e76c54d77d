//! The REVMAX problem instance: users, items, classes, horizon, prices,
//! capacities, saturation factors, and the sparse set of candidate
//! (user, item) pairs with their primitive adoption probabilities.
//!
//! Following §6 of the paper, only (user, item, time) triples with a positive
//! primitive adoption probability are materialised ("the number of such triples
//! is the true input size"). We store them in a CSR-like layout: per user a
//! contiguous range of candidate (user, item) pairs, each carrying a row of `T`
//! probabilities.

use crate::error::BuildError;
use crate::ids::{CandidateId, ClassId, ItemId, TimeStep, Triple, UserId};
use std::sync::Arc;

/// Per-item exempt-user sets: users whose displays of an item do **not**
/// consume the item's capacity `q_i`.
///
/// Exemptions exist for residual instances: when a prefix display of item
/// `i` to user `u` already consumed a capacity unit of the *original*
/// instance, the residual instance pre-charges that unit — and marks
/// `(i, u)` exempt so a re-display is not double-charged (see
/// [`mod@crate::events`]). Ordinary instances have no exemptions
/// and pay a single `bool` check on the capacity fast path.
///
/// Shared behind an `Arc` so engines and ledgers can carry the sets without
/// copying them on every (re)plan.
#[derive(Debug, Default)]
pub(crate) struct ExemptSets {
    /// Sorted, deduplicated exempt users per item (indexed by item id).
    pub(crate) per_item: Vec<Vec<UserId>>,
    /// Fast path: whether any item has a non-empty exempt set.
    pub(crate) any: bool,
}

impl ExemptSets {
    /// Whether `(item, user)` is exempt from capacity accounting.
    #[inline]
    pub(crate) fn contains(&self, item: ItemId, user: UserId) -> bool {
        if !self.any {
            return false;
        }
        self.per_item[item.index()].binary_search(&user).is_ok()
    }
}

/// An immutable REVMAX problem instance (Problem 1 of the paper).
#[derive(Debug, Clone)]
pub struct Instance {
    num_users: u32,
    num_items: u32,
    num_classes: u32,
    horizon: u32,
    display_limit: u32,
    item_class: Vec<ClassId>,
    class_items: Vec<Vec<ItemId>>,
    capacity: Vec<u32>,
    /// Users whose displays of an item are exempt from its capacity.
    exempt: Arc<ExemptSets>,
    beta: Vec<f64>,
    /// Item-major price matrix: `prices[item * T + (t - 1)]`.
    prices: Vec<f64>,
    /// CSR row starts per user (length `num_users + 1`).
    user_cand_start: Vec<u32>,
    cand_item: Vec<ItemId>,
    cand_user: Vec<UserId>,
    /// Candidate-major probability matrix: `cand_prob[cand * T + (t - 1)]`.
    cand_prob: Vec<f64>,
    /// Predicted rating of the candidate pair (used by the TopRA baseline).
    cand_rating: Vec<f64>,
}

impl Instance {
    /// Number of users `|U|`.
    #[inline]
    pub fn num_users(&self) -> u32 {
        self.num_users
    }

    /// Number of items `|I|`.
    #[inline]
    pub fn num_items(&self) -> u32 {
        self.num_items
    }

    /// Number of item classes.
    #[inline]
    pub fn num_classes(&self) -> u32 {
        self.num_classes
    }

    /// The time horizon `T`.
    #[inline]
    pub fn horizon(&self) -> u32 {
        self.horizon
    }

    /// The display limit `k`: at most `k` items per user per time step.
    #[inline]
    pub fn display_limit(&self) -> u32 {
        self.display_limit
    }

    /// Iterator over all time steps `1..=T`.
    pub fn time_steps(&self) -> impl Iterator<Item = TimeStep> {
        (1..=self.horizon).map(TimeStep)
    }

    /// The class `C(i)` of an item.
    #[inline]
    pub fn class_of(&self, item: ItemId) -> ClassId {
        self.item_class[item.index()]
    }

    /// All items belonging to a class.
    #[inline]
    pub fn items_in_class(&self, class: ClassId) -> &[ItemId] {
        &self.class_items[class.index()]
    }

    /// The capacity `q_i` of an item: maximum number of distinct users it may
    /// be recommended to across the horizon.
    #[inline]
    pub fn capacity(&self, item: ItemId) -> u32 {
        self.capacity[item.index()]
    }

    /// Whether displaying `item` to `user` is exempt from the capacity
    /// constraint (the pair was already charged by the prefix a residual
    /// instance was conditioned on). Always `false` on ordinary instances.
    #[inline]
    pub fn is_exempt(&self, item: ItemId, user: UserId) -> bool {
        self.exempt.contains(item, user)
    }

    /// The sorted exempt users of an item (empty on ordinary instances).
    #[inline]
    pub fn exempt_users(&self, item: ItemId) -> &[UserId] {
        if !self.exempt.any {
            return &[];
        }
        &self.exempt.per_item[item.index()]
    }

    /// Whether any item carries a non-empty exempt-user set.
    #[inline]
    pub fn has_exemptions(&self) -> bool {
        self.exempt.any
    }

    /// The shared exempt-set handle (for ledgers; cheap `Arc` clone).
    #[inline]
    pub(crate) fn exempt_sets(&self) -> Arc<ExemptSets> {
        Arc::clone(&self.exempt)
    }

    /// The saturation factor `β_i ∈ [0, 1]` of an item (1 = no saturation).
    #[inline]
    pub fn beta(&self, item: ItemId) -> f64 {
        self.beta[item.index()]
    }

    /// The exogenous price `p(i, t)`.
    #[inline]
    pub fn price(&self, item: ItemId, t: TimeStep) -> f64 {
        self.prices[item.index() * self.horizon as usize + t.index()]
    }

    /// The full price series of an item over the horizon.
    #[inline]
    pub fn price_series(&self, item: ItemId) -> &[f64] {
        let t = self.horizon as usize;
        &self.prices[item.index() * t..(item.index() + 1) * t]
    }

    /// Total number of (user, item) candidate pairs.
    #[inline]
    pub fn num_candidates(&self) -> usize {
        self.cand_item.len()
    }

    /// Number of candidate triples with strictly positive primitive adoption
    /// probability — the "true input size" reported in Table 1 of the paper.
    pub fn num_candidate_triples(&self) -> usize {
        self.cand_prob.iter().filter(|&&p| p > 0.0).count()
    }

    /// The total number of recommendation slots `k · T · |U|` (the hard upper
    /// bound on the size of a valid strategy).
    #[inline]
    pub fn total_slots(&self) -> u64 {
        self.display_limit as u64 * self.horizon as u64 * self.num_users as u64
    }

    /// The candidate ids belonging to a user.
    #[inline]
    pub fn candidates_of_user(&self, user: UserId) -> impl Iterator<Item = CandidateId> {
        let start = self.user_cand_start[user.index()];
        let end = self.user_cand_start[user.index() + 1];
        (start..end).map(CandidateId)
    }

    /// All candidate ids in the instance.
    #[inline]
    pub fn candidates(&self) -> impl Iterator<Item = CandidateId> {
        (0..self.cand_item.len() as u32).map(CandidateId)
    }

    /// The CSR row-start offsets of the per-user candidate ranges (length
    /// `num_users + 1`; user `u` owns candidates `offsets[u]..offsets[u + 1]`).
    ///
    /// Exposed so algorithms can cut the candidate axis at user boundaries for
    /// per-user parallel decomposition.
    #[inline]
    pub fn user_cand_offsets(&self) -> &[u32] {
        &self.user_cand_start
    }

    /// The user of a candidate pair.
    #[inline]
    pub fn candidate_user(&self, cand: CandidateId) -> UserId {
        self.cand_user[cand.index()]
    }

    /// The item of a candidate pair.
    #[inline]
    pub fn candidate_item(&self, cand: CandidateId) -> ItemId {
        self.cand_item[cand.index()]
    }

    /// The class of a candidate pair's item.
    #[inline]
    pub fn candidate_class(&self, cand: CandidateId) -> ClassId {
        self.item_class[self.cand_item[cand.index()].index()]
    }

    /// The predicted rating `r̂_ui` of a candidate pair (0 if not supplied).
    #[inline]
    pub fn candidate_rating(&self, cand: CandidateId) -> f64 {
        self.cand_rating[cand.index()]
    }

    /// Primitive adoption probabilities `q(u, i, ·)` of a candidate over the horizon.
    #[inline]
    pub fn candidate_probs(&self, cand: CandidateId) -> &[f64] {
        let t = self.horizon as usize;
        &self.cand_prob[cand.index() * t..(cand.index() + 1) * t]
    }

    /// Primitive adoption probability `q(u, i, t)` of a candidate at one time step.
    #[inline]
    pub fn candidate_prob(&self, cand: CandidateId, t: TimeStep) -> f64 {
        self.cand_prob[cand.index() * self.horizon as usize + t.index()]
    }

    /// Looks up the candidate id of a (user, item) pair, if it exists.
    pub fn candidate_for(&self, user: UserId, item: ItemId) -> Option<CandidateId> {
        let start = self.user_cand_start[user.index()] as usize;
        let end = self.user_cand_start[user.index() + 1] as usize;
        let slice = &self.cand_item[start..end];
        slice
            .binary_search(&item)
            .ok()
            .map(|off| CandidateId((start + off) as u32))
    }

    /// The primitive adoption probability `q(u, i, t)` of an arbitrary triple
    /// (0 if the pair is not a candidate).
    pub fn prob_of(&self, triple: Triple) -> f64 {
        match self.candidate_for(triple.user, triple.item) {
            Some(c) => self.candidate_prob(c, triple.t),
            None => 0.0,
        }
    }

    /// Whether a triple lies inside the instance universe (user, item, and time
    /// in range). Candidacy is a separate, stricter notion: see [`Instance::prob_of`].
    pub fn in_range(&self, triple: Triple) -> bool {
        triple.user.0 < self.num_users
            && triple.item.0 < self.num_items
            && triple.t.0 >= 1
            && triple.t.0 <= self.horizon
    }

    /// Returns a copy of this instance with every saturation factor forced to 1
    /// (no saturation). Used by the `GlobalNo` ablation baseline.
    pub fn without_saturation(&self) -> Instance {
        let mut copy = self.clone();
        for b in &mut copy.beta {
            *b = 1.0;
        }
        copy
    }

    /// Expected revenue of a single isolated triple: `p(i, t) · q(u, i, t)`.
    ///
    /// This ignores competition and saturation and is what the static `TopRE`
    /// baseline ranks by.
    pub fn isolated_revenue(&self, triple: Triple) -> f64 {
        self.price(triple.item, triple.t) * self.prob_of(triple)
    }
}

/// A contiguous range of users together with its CSR-aligned candidate range.
///
/// The candidate pairs of the instance are stored CSR-sorted by user, so a
/// contiguous user range `[user_start, user_end)` owns exactly the contiguous
/// candidate range `[cand_start, cand_end)` — the natural shard boundary of
/// the shard-partitioned planners. Construct through
/// [`Instance::user_shard`] / [`Instance::full_shard`] so the candidate range
/// is always CSR-consistent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UserShard {
    user_start: u32,
    user_end: u32,
    cand_start: u32,
    cand_end: u32,
}

impl UserShard {
    /// First user (inclusive) of the shard.
    #[inline]
    pub fn user_start(&self) -> u32 {
        self.user_start
    }

    /// One past the last user of the shard.
    #[inline]
    pub fn user_end(&self) -> u32 {
        self.user_end
    }

    /// First candidate id (inclusive) of the shard.
    #[inline]
    pub fn cand_start(&self) -> u32 {
        self.cand_start
    }

    /// One past the last candidate id of the shard.
    #[inline]
    pub fn cand_end(&self) -> u32 {
        self.cand_end
    }

    /// Number of users in the shard.
    #[inline]
    pub fn num_users(&self) -> usize {
        (self.user_end - self.user_start) as usize
    }

    /// Number of candidate pairs in the shard.
    #[inline]
    pub fn num_candidates(&self) -> usize {
        (self.cand_end - self.cand_start) as usize
    }

    /// Whether a user belongs to this shard.
    #[inline]
    pub fn contains_user(&self, user: UserId) -> bool {
        (self.user_start..self.user_end).contains(&user.0)
    }

    /// Whether a candidate id belongs to this shard.
    #[inline]
    pub fn contains_cand(&self, cand: CandidateId) -> bool {
        (self.cand_start..self.cand_end).contains(&cand.0)
    }

    /// The candidate ids of the shard.
    #[inline]
    pub fn candidates(&self) -> impl Iterator<Item = CandidateId> {
        (self.cand_start..self.cand_end).map(CandidateId)
    }

    /// The users of the shard.
    #[inline]
    pub fn users(&self) -> impl Iterator<Item = UserId> {
        (self.user_start..self.user_end).map(UserId)
    }
}

impl Instance {
    /// Direct assembly of a residual instance from pre-validated parts —
    /// the fast path behind `events::residual_advance`.
    ///
    /// Skips the [`InstanceBuilder`] entirely: every input descends from an
    /// already-validated instance (candidate rows are shifts or
    /// re-discounts of validated rows, prices are shifted copies, classes /
    /// betas are unchanged), so re-validation, per-candidate allocation,
    /// and candidate sorting would be pure overhead. `cand_*` must be
    /// (user, item)-sorted with `cand_prob` holding `horizon` entries per
    /// candidate — exactly the order an in-order walk of a previous
    /// residual's CSR produces.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_residual_parts(
        original: &Instance,
        now: u32,
        horizon: u32,
        capacity: Vec<u32>,
        exempt: ExemptSets,
        cand_user: Vec<UserId>,
        cand_item: Vec<ItemId>,
        cand_prob: Vec<f64>,
        cand_rating: Vec<f64>,
    ) -> Instance {
        debug_assert_eq!(cand_user.len(), cand_item.len());
        debug_assert_eq!(cand_user.len(), cand_rating.len());
        debug_assert_eq!(cand_prob.len(), cand_user.len() * horizon as usize);
        debug_assert!(cand_user.windows(2).all(|w| w[0] <= w[1]));
        let t = horizon as usize;
        let num_items = original.num_items as usize;
        let mut prices = vec![0.0; num_items * t];
        for item in 0..num_items {
            let src = &original.price_series(ItemId(item as u32))[now as usize..];
            prices[item * t..(item + 1) * t].copy_from_slice(src);
        }
        let mut user_cand_start = vec![0u32; original.num_users as usize + 1];
        for user in &cand_user {
            user_cand_start[user.index() + 1] += 1;
        }
        for u in 0..original.num_users as usize {
            user_cand_start[u + 1] += user_cand_start[u];
        }
        Instance {
            num_users: original.num_users,
            num_items: original.num_items,
            num_classes: original.num_classes,
            horizon,
            display_limit: original.display_limit,
            item_class: original.item_class.clone(),
            class_items: original.class_items.clone(),
            capacity,
            exempt: Arc::new(exempt),
            beta: original.beta.clone(),
            prices,
            user_cand_start,
            cand_item,
            cand_user,
            cand_prob,
            cand_rating,
        }
    }

    /// The shard covering every user (what the non-sharded evaluators use).
    pub fn full_shard(&self) -> UserShard {
        self.user_shard(0, self.num_users)
    }

    /// The shard for the user range `[user_start, user_end)`, with the
    /// candidate range derived from the CSR offsets.
    ///
    /// # Panics
    /// Panics when the range is empty-inverted or out of bounds.
    pub fn user_shard(&self, user_start: u32, user_end: u32) -> UserShard {
        assert!(
            user_start <= user_end && user_end <= self.num_users,
            "invalid user shard [{user_start}, {user_end}) for {} users",
            self.num_users
        );
        UserShard {
            user_start,
            user_end,
            cand_start: self.user_cand_start[user_start as usize],
            cand_end: self.user_cand_start[user_end as usize],
        }
    }
}

/// Mutable builder for [`Instance`].
///
/// Defaults: every item is its own class, capacity `|U|` (unconstrained),
/// saturation factor 1 (no saturation), display limit 1. Prices must be set for
/// every item that appears in a candidate pair.
#[derive(Debug, Clone)]
pub struct InstanceBuilder {
    num_users: u32,
    num_items: u32,
    horizon: u32,
    display_limit: u32,
    item_class: Vec<u32>,
    capacity: Vec<u32>,
    beta: Vec<f64>,
    prices: Vec<Option<Vec<f64>>>,
    candidates: Vec<(u32, u32, Vec<f64>, f64)>,
    exempt: Vec<(u32, u32)>,
}

impl InstanceBuilder {
    /// Starts a builder for `num_users` users, `num_items` items and horizon `T`.
    pub fn new(num_users: u32, num_items: u32, horizon: u32) -> Self {
        InstanceBuilder {
            num_users,
            num_items,
            horizon,
            display_limit: 1,
            item_class: (0..num_items).collect(),
            capacity: vec![num_users.max(1); num_items as usize],
            beta: vec![1.0; num_items as usize],
            prices: vec![None; num_items as usize],
            candidates: Vec::new(),
            exempt: Vec::new(),
        }
    }

    /// Sets the display limit `k`.
    pub fn display_limit(&mut self, k: u32) -> &mut Self {
        self.display_limit = k;
        self
    }

    /// Assigns an item to a class.
    pub fn item_class(&mut self, item: u32, class: u32) -> &mut Self {
        if let Some(slot) = self.item_class.get_mut(item as usize) {
            *slot = class;
        }
        self
    }

    /// Sets the capacity `q_i` of an item.
    pub fn capacity(&mut self, item: u32, q: u32) -> &mut Self {
        if let Some(slot) = self.capacity.get_mut(item as usize) {
            *slot = q;
        }
        self
    }

    /// Marks `(item, user)` exempt from the capacity constraint: displays of
    /// the item to that user consume none of its capacity `q_i`. Used by the
    /// residual construction for prefix pairs whose capacity unit was already
    /// charged (see [`mod@crate::events`]). Duplicates are
    /// deduplicated at build time.
    pub fn exempt_user(&mut self, item: u32, user: u32) -> &mut Self {
        self.exempt.push((item, user));
        self
    }

    /// Marks several users exempt for an item (see
    /// [`InstanceBuilder::exempt_user`]).
    pub fn exempt_users(&mut self, item: u32, users: &[u32]) -> &mut Self {
        for &user in users {
            self.exempt.push((item, user));
        }
        self
    }

    /// Sets the saturation factor `β_i` of an item.
    pub fn beta(&mut self, item: u32, beta: f64) -> &mut Self {
        if let Some(slot) = self.beta.get_mut(item as usize) {
            *slot = beta;
        }
        self
    }

    /// Sets the full price series of an item (length must equal the horizon).
    pub fn prices(&mut self, item: u32, series: &[f64]) -> &mut Self {
        if let Some(slot) = self.prices.get_mut(item as usize) {
            *slot = Some(series.to_vec());
        }
        self
    }

    /// Sets a constant price for an item across the whole horizon.
    pub fn constant_price(&mut self, item: u32, price: f64) -> &mut Self {
        let series = vec![price; self.horizon as usize];
        self.prices(item, &series)
    }

    /// Adds a candidate (user, item) pair with its per-time-step primitive
    /// adoption probabilities and (optionally meaningful) predicted rating.
    pub fn candidate(&mut self, user: u32, item: u32, probs: &[f64], rating: f64) -> &mut Self {
        self.candidates.push((user, item, probs.to_vec(), rating));
        self
    }

    /// Validates and assembles the immutable [`Instance`].
    pub fn build(&self) -> Result<Instance, BuildError> {
        if self.horizon == 0 {
            return Err(BuildError::EmptyHorizon);
        }
        if self.num_users == 0 || self.num_items == 0 {
            return Err(BuildError::EmptyUniverse);
        }
        if self.display_limit == 0 {
            return Err(BuildError::ZeroDisplayLimit);
        }
        let t_len = self.horizon as usize;

        for (item, &b) in self.beta.iter().enumerate() {
            if !(0.0..=1.0).contains(&b) || !b.is_finite() {
                return Err(BuildError::InvalidBeta {
                    item: item as u32,
                    beta: b,
                });
            }
        }

        // Which items actually need a price series (those appearing in candidates).
        let mut item_used = vec![false; self.num_items as usize];
        for &(user, item, ref probs, _) in &self.candidates {
            if user >= self.num_users {
                return Err(BuildError::UserOutOfRange {
                    user,
                    num_users: self.num_users,
                });
            }
            if item >= self.num_items {
                return Err(BuildError::ItemOutOfRange {
                    item,
                    num_items: self.num_items,
                });
            }
            if probs.len() != t_len {
                return Err(BuildError::ProbabilitySeriesLength {
                    user,
                    item,
                    expected: t_len,
                    got: probs.len(),
                });
            }
            for (idx, &p) in probs.iter().enumerate() {
                if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                    return Err(BuildError::InvalidProbability {
                        user,
                        item,
                        t: idx as u32 + 1,
                        prob: p,
                    });
                }
            }
            item_used[item as usize] = true;
        }

        let mut prices = vec![0.0; self.num_items as usize * t_len];
        for item in 0..self.num_items as usize {
            match &self.prices[item] {
                Some(series) => {
                    if series.len() != t_len {
                        return Err(BuildError::PriceSeriesLength {
                            item: item as u32,
                            expected: t_len,
                            got: series.len(),
                        });
                    }
                    for (idx, &p) in series.iter().enumerate() {
                        if !p.is_finite() || p < 0.0 {
                            return Err(BuildError::InvalidPrice {
                                item: item as u32,
                                t: idx as u32 + 1,
                                price: p,
                            });
                        }
                        prices[item * t_len + idx] = p;
                    }
                }
                None => {
                    if item_used[item] {
                        return Err(BuildError::MissingPrices { item: item as u32 });
                    }
                }
            }
        }

        // Exempt pairs: validate ranges, then sort + dedup per item.
        let mut exempt_per_item = vec![Vec::new(); self.num_items as usize];
        for &(item, user) in &self.exempt {
            if item >= self.num_items {
                return Err(BuildError::ItemOutOfRange {
                    item,
                    num_items: self.num_items,
                });
            }
            if user >= self.num_users {
                return Err(BuildError::UserOutOfRange {
                    user,
                    num_users: self.num_users,
                });
            }
            exempt_per_item[item as usize].push(UserId(user));
        }
        let mut any_exempt = false;
        for users in &mut exempt_per_item {
            users.sort_unstable();
            users.dedup();
            any_exempt |= !users.is_empty();
        }

        // Sort candidates by (user, item) and detect duplicates.
        let mut order: Vec<usize> = (0..self.candidates.len()).collect();
        order.sort_by_key(|&idx| (self.candidates[idx].0, self.candidates[idx].1));
        for w in order.windows(2) {
            let a = &self.candidates[w[0]];
            let b = &self.candidates[w[1]];
            if a.0 == b.0 && a.1 == b.1 {
                return Err(BuildError::DuplicateCandidate {
                    user: a.0,
                    item: a.1,
                });
            }
        }

        let n_cand = order.len();
        let mut user_cand_start = vec![0u32; self.num_users as usize + 1];
        let mut cand_item = Vec::with_capacity(n_cand);
        let mut cand_user = Vec::with_capacity(n_cand);
        let mut cand_prob = Vec::with_capacity(n_cand * t_len);
        let mut cand_rating = Vec::with_capacity(n_cand);
        for &idx in &order {
            let (user, item, ref probs, rating) = self.candidates[idx];
            user_cand_start[user as usize + 1] += 1;
            cand_user.push(UserId(user));
            cand_item.push(ItemId(item));
            cand_prob.extend_from_slice(probs);
            cand_rating.push(rating);
        }
        for u in 0..self.num_users as usize {
            user_cand_start[u + 1] += user_cand_start[u];
        }

        // Class bookkeeping: remap raw class labels to a dense 0..num_classes range.
        let mut class_remap = std::collections::BTreeMap::new();
        for &c in &self.item_class {
            let next = class_remap.len() as u32;
            class_remap.entry(c).or_insert(next);
        }
        let num_classes = class_remap.len() as u32;
        let item_class: Vec<ClassId> = self
            .item_class
            .iter()
            .map(|c| ClassId(class_remap[c]))
            .collect();
        let mut class_items = vec![Vec::new(); num_classes as usize];
        for (item, class) in item_class.iter().enumerate() {
            class_items[class.index()].push(ItemId(item as u32));
        }

        Ok(Instance {
            num_users: self.num_users,
            num_items: self.num_items,
            num_classes,
            horizon: self.horizon,
            display_limit: self.display_limit,
            item_class,
            class_items,
            capacity: self.capacity.clone(),
            exempt: Arc::new(ExemptSets {
                per_item: exempt_per_item,
                any: any_exempt,
            }),
            beta: self.beta.clone(),
            prices,
            user_cand_start,
            cand_item,
            cand_user,
            cand_prob,
            cand_rating,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_builder() -> InstanceBuilder {
        let mut b = InstanceBuilder::new(2, 3, 2);
        b.display_limit(1)
            .item_class(0, 10)
            .item_class(1, 10)
            .item_class(2, 20)
            .capacity(0, 1)
            .beta(0, 0.5)
            .prices(0, &[10.0, 8.0])
            .prices(1, &[5.0, 5.0])
            .prices(2, &[3.0, 4.0])
            .candidate(0, 0, &[0.5, 0.6], 4.5)
            .candidate(0, 1, &[0.2, 0.1], 3.0)
            .candidate(1, 2, &[0.9, 0.0], 5.0);
        b
    }

    #[test]
    fn build_and_query_roundtrip() {
        let inst = small_builder().build().unwrap();
        assert_eq!(inst.num_users(), 2);
        assert_eq!(inst.num_items(), 3);
        assert_eq!(inst.horizon(), 2);
        assert_eq!(inst.display_limit(), 1);
        assert_eq!(inst.num_classes(), 2);
        assert_eq!(inst.class_of(ItemId(0)), inst.class_of(ItemId(1)));
        assert_ne!(inst.class_of(ItemId(0)), inst.class_of(ItemId(2)));
        assert_eq!(inst.capacity(ItemId(0)), 1);
        assert_eq!(inst.capacity(ItemId(1)), 2); // default = num_users
        assert!((inst.beta(ItemId(0)) - 0.5).abs() < 1e-12);
        assert!((inst.price(ItemId(0), TimeStep(2)) - 8.0).abs() < 1e-12);
        assert_eq!(inst.price_series(ItemId(2)), &[3.0, 4.0]);
        assert_eq!(inst.num_candidates(), 3);
        assert_eq!(inst.num_candidate_triples(), 5); // one prob is exactly 0
        assert_eq!(inst.total_slots(), 2 * 2);
    }

    #[test]
    fn candidate_lookup() {
        let inst = small_builder().build().unwrap();
        let c = inst.candidate_for(UserId(0), ItemId(1)).unwrap();
        assert_eq!(inst.candidate_user(c), UserId(0));
        assert_eq!(inst.candidate_item(c), ItemId(1));
        assert_eq!(inst.candidate_probs(c), &[0.2, 0.1]);
        assert!((inst.candidate_rating(c) - 3.0).abs() < 1e-12);
        assert!(inst.candidate_for(UserId(1), ItemId(0)).is_none());
        assert!((inst.prob_of(Triple::new(0, 0, 2)) - 0.6).abs() < 1e-12);
        assert_eq!(inst.prob_of(Triple::new(1, 0, 1)), 0.0);
    }

    #[test]
    fn candidates_of_user_ranges() {
        let inst = small_builder().build().unwrap();
        let u0: Vec<_> = inst.candidates_of_user(UserId(0)).collect();
        let u1: Vec<_> = inst.candidates_of_user(UserId(1)).collect();
        assert_eq!(u0.len(), 2);
        assert_eq!(u1.len(), 1);
        assert_eq!(inst.candidates().count(), 3);
    }

    #[test]
    fn isolated_revenue_is_price_times_prob() {
        let inst = small_builder().build().unwrap();
        let r = inst.isolated_revenue(Triple::new(0, 0, 1));
        assert!((r - 10.0 * 0.5).abs() < 1e-12);
    }

    #[test]
    fn without_saturation_sets_all_betas_to_one() {
        let inst = small_builder().build().unwrap();
        let no_sat = inst.without_saturation();
        for i in 0..inst.num_items() {
            assert_eq!(no_sat.beta(ItemId(i)), 1.0);
        }
        // Original untouched.
        assert!((inst.beta(ItemId(0)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn in_range_checks_bounds() {
        let inst = small_builder().build().unwrap();
        assert!(inst.in_range(Triple::new(1, 2, 2)));
        assert!(!inst.in_range(Triple::new(2, 0, 1)));
        assert!(!inst.in_range(Triple::new(0, 3, 1)));
        assert!(!inst.in_range(Triple::new(0, 0, 0)));
        assert!(!inst.in_range(Triple::new(0, 0, 3)));
    }

    #[test]
    fn build_rejects_bad_inputs() {
        assert_eq!(
            InstanceBuilder::new(1, 1, 0).build().unwrap_err(),
            BuildError::EmptyHorizon
        );
        assert_eq!(
            InstanceBuilder::new(0, 1, 1).build().unwrap_err(),
            BuildError::EmptyUniverse
        );
        let mut b = InstanceBuilder::new(1, 1, 1);
        b.display_limit(0);
        assert_eq!(b.build().unwrap_err(), BuildError::ZeroDisplayLimit);

        let mut b = InstanceBuilder::new(1, 1, 1);
        b.beta(0, 1.5);
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::InvalidBeta { .. }
        ));

        let mut b = InstanceBuilder::new(1, 1, 1);
        b.constant_price(0, 1.0).candidate(0, 0, &[1.5], 0.0);
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::InvalidProbability { .. }
        ));

        let mut b = InstanceBuilder::new(1, 1, 1);
        b.candidate(0, 0, &[0.5], 0.0);
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::MissingPrices { .. }
        ));

        let mut b = InstanceBuilder::new(1, 1, 2);
        b.prices(0, &[1.0]).candidate(0, 0, &[0.5, 0.5], 0.0);
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::PriceSeriesLength { .. }
        ));

        let mut b = InstanceBuilder::new(1, 1, 2);
        b.constant_price(0, 1.0).candidate(0, 0, &[0.5], 0.0);
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::ProbabilitySeriesLength { .. }
        ));

        let mut b = InstanceBuilder::new(1, 1, 1);
        b.constant_price(0, 1.0)
            .candidate(0, 0, &[0.5], 0.0)
            .candidate(0, 0, &[0.6], 0.0);
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::DuplicateCandidate { .. }
        ));

        let mut b = InstanceBuilder::new(1, 2, 1);
        b.constant_price(0, 1.0).candidate(0, 1, &[0.5], 0.0);
        // item 1 has candidates but no prices
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::MissingPrices { item: 1 }
        ));

        let mut b = InstanceBuilder::new(1, 1, 1);
        b.candidate(0, 5, &[0.5], 0.0);
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::ItemOutOfRange { .. }
        ));

        let mut b = InstanceBuilder::new(1, 1, 1);
        b.candidate(7, 0, &[0.5], 0.0);
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::UserOutOfRange { .. }
        ));

        let mut b = InstanceBuilder::new(1, 1, 1);
        b.prices(0, &[f64::NAN]).candidate(0, 0, &[0.5], 0.0);
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::InvalidPrice { .. }
        ));
    }

    #[test]
    fn exempt_users_are_deduped_and_queryable() {
        let inst = small_builder().build().unwrap();
        assert!(!inst.has_exemptions());
        assert!(!inst.is_exempt(ItemId(0), UserId(0)));
        assert!(inst.exempt_users(ItemId(0)).is_empty());

        let mut b = small_builder();
        b.exempt_user(0, 1)
            .exempt_users(0, &[1, 0])
            .exempt_user(2, 1);
        let inst = b.build().unwrap();
        assert!(inst.has_exemptions());
        assert_eq!(inst.exempt_users(ItemId(0)), &[UserId(0), UserId(1)]);
        assert!(inst.is_exempt(ItemId(0), UserId(1)));
        assert!(inst.is_exempt(ItemId(2), UserId(1)));
        assert!(!inst.is_exempt(ItemId(1), UserId(0)));
        assert!(!inst.is_exempt(ItemId(2), UserId(0)));

        let mut b = small_builder();
        b.exempt_user(9, 0);
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::ItemOutOfRange { item: 9, .. }
        ));
        let mut b = small_builder();
        b.exempt_user(0, 9);
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::UserOutOfRange { user: 9, .. }
        ));
    }

    #[test]
    fn without_saturation_sets_every_beta_to_one() {
        let inst = small_builder().build().unwrap();
        assert_eq!(inst.beta(ItemId(0)), 0.5);
        let no_sat = inst.without_saturation();
        for item in 0..no_sat.num_items() {
            assert_eq!(no_sat.beta(ItemId(item)), 1.0);
        }
    }

    #[test]
    fn class_labels_are_densified() {
        let mut b = InstanceBuilder::new(1, 3, 1);
        b.item_class(0, 100).item_class(1, 7).item_class(2, 100);
        let inst = b.build().unwrap();
        assert_eq!(inst.num_classes(), 2);
        assert_eq!(inst.class_of(ItemId(0)), inst.class_of(ItemId(2)));
        let class = inst.class_of(ItemId(0));
        assert_eq!(inst.items_in_class(class), &[ItemId(0), ItemId(2)]);
    }
}
