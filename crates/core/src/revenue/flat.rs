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
//! * selection membership is a flat bitmap over (candidate, time) slots, so
//!   the hot path never touches the `Strategy`'s hash index.
//!
//! Non-candidate triples (probability 0 everywhere) are accepted through the
//! triple-based compatibility API and handled on a cold path so the engine
//! stays exactly equivalent to the from-scratch evaluator for any strategy.
//!
//! # The saturation-aggregate fast path (uniform-β classes)
//!
//! A marginal evaluation needs three quantities from the (user, class) group
//! of the probed triple `(u, i, t)`:
//!
//! * the memory `Σ_{τ < t} count(τ) / (t − τ)`,
//! * the competition product `Π_{τ ≤ t} Π_{e at τ} (1 − q_e)`, and
//! * the loss on later selections `Σ_{τ > t} (Σ_{e at τ} p_e · q_dyn(e)) ·
//!   ((1 − q) · β_e^{1/(τ − t)} − 1)` (plus the same-time `−q` term).
//!
//! The first two depend only on per-time-step *aggregates* of the group. The
//! third mixes a per-entry factor `β_e^{1/(τ − t)}` into the sum — but when
//! every item of the class shares one `β` (detected at build time as
//! [`BetaProfile::Uniform`](crate::instance::BetaProfile), bit-exact
//! equality), that factor is common per `τ` and factors out. Two per-(group,
//! τ) accumulators then close under insertion:
//!
//! > `pros(τ) = β^{M(τ)} · Π_{e at τ' ≤ τ} (1 − q_e)` — the *prospective
//! > potential*: an insertion at `τ0` multiplies `pros(τ)` by
//! > `(1 − q) · β^{1/(τ − τ0)}` for `τ > τ0` and by `(1 − q)` at `τ0` — the
//! > memory growth `β^{1/d}` is a **table lookup**, so queries need no `exp`;
//! >
//! > `wsum(τ) = Σ_{e at τ} p_e · q_dyn(e)` — updated by the *same* factors
//! > the slab walk applies to each entry's `q_dyn`, so it tracks the sum to
//! > the ulp.
//!
//! Both live in a lazily allocated per-group block of `2 · T` floats. A
//! marginal at `t` is then `price · q_prim · pros(t)` plus a loss fold over
//! the `wsum` suffix — `O(T − t)` table-driven flops, **no walk over the
//! selected triples and no transcendental calls** (the slab walk pays one
//! `exp` whenever the group has earlier same-class entries, plus one fused
//! pass over all of them). Classes with mixed betas, and engines with
//! aggregates disabled ([`IncrementalRevenue::set_aggregate_mode`] with
//! [`AggregateMode::Off`]), keep the exact slab walk; the parity suites assert both paths agree to 1e-9 (the
//! arithmetic differs only in association order — `β^{Σ 1/d}` becomes
//! `Π β^{1/d}`). The slab itself stays authoritative either way — insertions
//! still update every entry's `q_dyn`, so `dynamic_probability` and the
//! revenue fold are identical in both modes.

use super::engine::RevenueEngine;
use super::kernels::{effective_kernel, AggregateMode, ClassShape, KernelId};
use super::ledger::CapacityLedger;
use super::warm::{EngineSnapshot, FlatBuffers, ResidualDelta, SatTables};
use crate::ids::{CandidateId, ClassId, TimeStep, Triple, UserId};
use crate::instance::{Instance, UserShard};
use crate::strategy::Strategy;
use std::sync::Arc;

const NONE: u32 = u32::MAX;

/// `agg_start` sentinel: the group's class qualifies for the aggregate fast
/// path but no block has been allocated yet (the group is empty).
const AGG_UNALLOCATED: u32 = u32::MAX;
/// `agg_start` sentinel: the group's class has mixed betas — the group always
/// uses the exact slab walk.
const AGG_INELIGIBLE: u32 = u32::MAX - 1;

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
    /// [`IncrementalRevenue::into_strategy`] (`None` for cold engines).
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
    strategy: Strategy,
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
    /// (item, user) pairs of inserted *non-candidate* triples (cold path).
    extra_seen: Vec<(u32, u32)>,
    /// Groups created on demand for non-candidate (user, class) pairs the
    /// static numbering has no slot for (cold path, linear-scanned).
    extra_groups: Vec<(u32, u32, u32)>,

    // --- compiled kernels + saturation-aggregate fast path (see the module
    // --- docs and `super::kernels`) ---
    /// Aggregate-engagement mode ([`AggregateMode::Auto`] unless set through
    /// [`IncrementalRevenue::set_aggregate_mode`]); changing it recompiles the per-group kernels while the strategy is
    /// empty, and mid-run only the one-way fallback to the walks is honoured.
    mode: AggregateMode,
    /// Whether aggregate blocks are maintained on insertion (false once the
    /// mode drops to [`AggregateMode::Off`]).
    agg_enabled: bool,
    /// Per group: the compiled [`KernelId`] byte the marginal hot path
    /// dispatches on — classification happens at construction and on
    /// [`IncrementalRevenue::set_aggregate_mode`], never per query.
    kernel: Vec<u8>,
    /// Per group: the [`ClassShape`] byte of its class (kernel recompilation
    /// input).
    group_shape: Vec<u8>,
    /// Per group: number of candidates addressing it (depth signal of the
    /// `Auto` gate).
    group_cands: Vec<u32>,
    /// Per shard-local candidate: compiled exempt-capacity bit. Empty unless
    /// the instance carries exemptions; when populated, the hot capacity
    /// check is two flat loads instead of a binary search per query.
    cand_exempt: Vec<bool>,
    /// Per group: start of its `2 · T` aggregate block in `agg`, or one of
    /// the [`AGG_UNALLOCATED`] / [`AGG_INELIGIBLE`] sentinels.
    agg_start: Vec<u32>,
    /// Aggregate block arena: per allocated group `T` prospective potentials
    /// (`β^M · Π (1 − q)`) and `T` sums of `p · q_dyn`, indexed by time.
    agg: Vec<f64>,
    /// Per group: one past the largest occupied time index (0 = empty).
    /// Bounds the loss fold — `wsum` is identically 0 beyond it, so queries
    /// probing at or past the group's last selection skip the fold entirely
    /// (the chronological SL-Greedy scans always do).
    agg_hi: Vec<u32>,
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
            mut agg_start,
            mut agg,
            mut agg_hi,
            mut kernel,
            mut group_shape,
            mut group_cands,
            mut cand_exempt,
        } = buffers;

        // Group numbering: candidates are CSR-contiguous per user, so one
        // stamped scan over each shard user's candidates assigns dense group
        // slots without hashing. Stamps avoid clearing the per-class scratch
        // rows. Every shard candidate is assigned, so the recycled buffer
        // needs resizing only, not clearing. The same pass records each
        // group's class shape and candidate count — the inputs of the kernel
        // compilation pass (see `super::kernels`) run right after.
        let num_classes = inst.num_classes() as usize;
        let class_shape: Vec<ClassShape> = (0..num_classes)
            .map(|c| {
                ClassShape::of(
                    inst.beta_profile(crate::ids::ClassId(c as u32)),
                    ignore_saturation,
                )
            })
            .collect();
        let mut class_stamp = vec![NONE; num_classes];
        let mut class_group = vec![0u32; num_classes];
        cand_group.resize(num_cand, 0);
        agg_start.clear();
        agg_hi.clear();
        kernel.clear();
        group_shape.clear();
        group_cands.clear();
        let mut num_groups: u32 = 0;
        for user in shard.user_start()..shard.user_end() {
            for cand in inst.candidates_of_user(UserId(user)) {
                let class = inst.candidate_class(cand).index();
                if class_stamp[class] != user {
                    class_stamp[class] = user;
                    class_group[class] = num_groups;
                    num_groups += 1;
                    group_shape.push(class_shape[class].as_u8());
                    group_cands.push(0);
                    kernel.push(KernelId::MixedWalk.as_u8());
                    agg_start.push(AGG_INELIGIBLE);
                    agg_hi.push(0);
                }
                let g = class_group[class];
                group_cands[g as usize] += 1;
                cand_group[(cand.0 - shard.cand_start()) as usize] = g;
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
        agg.clear();

        let mut this = IncrementalRevenue {
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
            strategy: Strategy::new(),
            display_count,
            ledger: CapacityLedger::new(inst),
            cand_counted,
            extra_seen: Vec::new(),
            extra_groups: Vec::new(),
            mode: AggregateMode::default(),
            agg_enabled: AggregateMode::default().allows_aggregates(),
            kernel,
            group_shape,
            group_cands,
            cand_exempt,
            agg_start,
            agg,
            agg_hi,
        };
        this.recompile_kernels();
        this
    }

    /// The kernel compilation pass: derives every group's effective
    /// [`KernelId`] from its class shape, the aggregate mode, and the `Auto`
    /// depth gate, and resets the aggregate sentinels accordingly. Only legal
    /// while the strategy is empty (sentinel resets discard block state).
    fn recompile_kernels(&mut self) {
        debug_assert!(self.strategy.is_empty());
        let horizon = self.inst.horizon();
        for g in 0..self.kernel.len() {
            let shape = ClassShape::from_u8(self.group_shape[g]);
            let k = effective_kernel(shape, self.mode, horizon, self.group_cands[g]);
            self.kernel[g] = k.as_u8();
            self.agg_start[g] = if self.agg_enabled && k.uses_aggregates() {
                AGG_UNALLOCATED
            } else {
                AGG_INELIGIBLE
            };
        }
    }

    /// Sets the aggregate-engagement mode and recompiles the per-group
    /// kernels (see `super::kernels`). Purely a performance knob: every mode
    /// selects among paths that agree to 1e-9 (asserted by the kernel-parity
    /// suites).
    ///
    /// Normally configured once, before the first insertion: the planner
    /// keeps the construction-time `Auto`, and the parity suites' walk-only
    /// reference engine sets `Off`. Mid-run changes are safe
    /// but one-way: dropping to [`AggregateMode::Off`] downgrades every
    /// group to its walk kernel for all later queries, while any other
    /// mid-run change is ignored — blocks that missed inserts while a walk
    /// kernel was active must never be read again.
    pub fn set_aggregate_mode(&mut self, mode: AggregateMode) {
        if self.strategy.is_empty() {
            self.mode = mode;
            self.agg_enabled = mode.allows_aggregates();
            self.recompile_kernels();
            return;
        }
        if !mode.allows_aggregates() {
            self.mode = mode;
            self.agg_enabled = false;
            for (k, &shape) in self.kernel.iter_mut().zip(&self.group_shape) {
                if ClassShape::from_u8(shape) != ClassShape::Mixed {
                    *k = KernelId::UniformWalk.as_u8();
                }
            }
        }
    }

    /// Whether the aggregate fast path can engage for at least one of this
    /// evaluator's groups (probe for benches and tests).
    pub fn aggregates_active(&self) -> bool {
        self.agg_enabled
            && self
                .kernel
                .iter()
                .any(|&k| KernelId::from_u8(k).uses_aggregates())
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

    /// The strategy built so far.
    pub fn strategy(&self) -> &Strategy {
        &self.strategy
    }

    /// Consumes the evaluator and returns the built strategy. Warm-started
    /// engines return their buffers to the session's [`EngineSnapshot`] pool
    /// here — keyed by the shard that grew them — so the next replan of the
    /// same shard can recycle them at matching capacity.
    pub fn into_strategy(mut self) -> Strategy {
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
                    agg_start: std::mem::take(&mut self.agg_start),
                    agg: std::mem::take(&mut self.agg),
                    agg_hi: std::mem::take(&mut self.agg_hi),
                    kernel: std::mem::take(&mut self.kernel),
                    group_shape: std::mem::take(&mut self.group_shape),
                    group_cands: std::mem::take(&mut self.group_cands),
                    cand_exempt: std::mem::take(&mut self.cand_exempt),
                },
            );
        }
        self.strategy
    }

    /// Number of triples selected so far.
    pub fn len(&self) -> usize {
        self.strategy.len()
    }

    /// Whether no triple has been selected yet.
    pub fn is_empty(&self) -> bool {
        self.strategy.is_empty()
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
        let shape = ClassShape::of(self.inst.beta_profile(class), self.ignore_saturation);
        let k = effective_kernel(shape, self.mode, self.inst.horizon(), 0);
        self.group_shape.push(shape.as_u8());
        self.group_cands.push(0);
        self.kernel.push(k.as_u8());
        self.agg_start
            .push(if self.agg_enabled && k.uses_aggregates() {
                AGG_UNALLOCATED
            } else {
                AGG_INELIGIBLE
            });
        self.agg_hi.push(0);
        self.extra_groups.push((user.0, class.0, g));
        g
    }

    /// Start of a group's aggregate block, when one is allocated and the
    /// fast path is enabled (disabling mid-run leaves allocated blocks
    /// behind that stopped receiving inserts — they must not be read).
    #[inline]
    fn agg_block(&self, group: usize) -> Option<usize> {
        let s = self.agg_start[group];
        if self.agg_enabled && s < AGG_INELIGIBLE {
            Some(s as usize)
        } else {
            None
        }
    }

    /// Allocates a group's aggregate block (`T` prospective potentials at 1,
    /// `T` weighted sums at 0) and returns its start.
    fn agg_alloc(&mut self, group: usize) -> usize {
        let horizon = self.inst.horizon() as usize;
        let start = self.agg.len();
        debug_assert!(start + 2 * horizon < AGG_INELIGIBLE as usize);
        self.agg.extend(std::iter::repeat_n(1.0, horizon));
        self.agg.extend(std::iter::repeat_n(0.0, horizon));
        self.agg_start[group] = start as u32;
        start
    }

    /// Gain and loss of inserting `(item, t)` with primitive probability
    /// `q_prim`, answered from a group's aggregate block in `O(T − t)` — the
    /// closed form of the slab walk in
    /// [`IncrementalRevenue::gain_and_loss_cand`] for uniform-β groups (the
    /// per-entry discount `β_e^{1/d}` is common per time step there, so the
    /// candidate's own power-table row substitutes bit-exactly for every
    /// entry's). The prospective potential already folds memory and
    /// competition, so — unlike the walk — no `exp` is ever evaluated.
    fn gain_and_loss_agg(
        &self,
        kernel: KernelId,
        astart: usize,
        hi: usize,
        item: u32,
        q_prim: f64,
        t: TimeStep,
    ) -> (f64, f64) {
        let horizon = self.inst.horizon() as usize;
        let tv = t.index();
        let (pros, wsum) = self.agg[astart..astart + 2 * horizon].split_at(horizon);

        // Same-time entries all compete (an entry of the probed item at the
        // probed time would mean the triple is already selected, which the
        // callers short-circuit before dispatching here), so `pros[tv]` is
        // exactly the potential a fresh triple at `tv` would see.
        let q_new = q_prim * pros[tv];
        let mut loss = wsum[tv] * (-q_prim);
        // `wsum` is identically 0 past the group's last occupied step, so the
        // fold stops at `hi` — probes at or beyond it (every probe of a
        // chronologically filled group) skip it entirely. The degenerate
        // kernels run the same fold with their constant factor — their β-root
        // rows hold exactly 1.0 / 0.0, so skipping the loads is bit-neutral.
        let fold = &wsum[tv + 1..hi.max(tv + 1)];
        match kernel {
            KernelId::UnitAgg => {
                let factor = 1.0 - q_prim;
                for &w in fold {
                    loss += w * (factor - 1.0);
                }
            }
            KernelId::ZeroAgg => {
                for &w in fold {
                    loss -= w;
                }
            }
            _ => {
                let row = self.pow_row(item) as usize;
                let beta_root = &self.tables.beta_root[row * self.tables.stride..];
                for (d, &w) in fold.iter().enumerate() {
                    let factor = (1.0 - q_prim) * beta_root[d];
                    loss += w * (factor - 1.0);
                }
            }
        }
        (self.inst.price(crate::ids::ItemId(item), t) * q_new, loss)
    }

    /// Folds one insertion into a group's aggregate block: the insertion step
    /// updates in `O(1)`, later steps each absorb one multiplicative factor
    /// `(1 − q) · β^{1/d}` — the same factor the slab walk applies to each
    /// entry's `q_dyn` (so `Σ p · q_dyn` stays exact to the ulp) and the
    /// closed-form growth of the prospective potential. `q_new` is the
    /// inserted entry's realised dynamic probability (0 for non-candidate
    /// inserts).
    fn agg_apply_insert(
        &mut self,
        astart: usize,
        t_idx: usize,
        item: u32,
        q_prim: f64,
        price: f64,
        q_new: f64,
    ) {
        let horizon = self.inst.horizon() as usize;
        let row = self.pow_row(item) as usize;
        let stride = self.tables.stride;
        let one_minus_q = 1.0 - q_prim;
        self.agg[astart + t_idx] *= one_minus_q;
        let wbase = astart + horizon;
        self.agg[wbase + t_idx] = self.agg[wbase + t_idx] * one_minus_q + price * q_new;
        let beta_root = &self.tables.beta_root;
        let (pros_tail, rest) = self.agg[astart + t_idx + 1..].split_at_mut(horizon - t_idx - 1);
        let wsum_tail = &mut rest[t_idx + 1..horizon];
        for (d, (p, w)) in pros_tail.iter_mut().zip(wsum_tail).enumerate() {
            let factor = one_minus_q * beta_root[row * stride + d];
            *p *= factor;
            *w *= factor;
        }
    }

    /// Whether adding the triple would violate the display or capacity
    /// constraint.
    pub fn would_violate(&self, z: Triple) -> bool {
        if self.would_violate_display(z) {
            return true;
        }
        match self.inst.candidate_for(z.user, z.item) {
            Some(cand) => self.capacity_violated_cand(cand, z.item.0),
            None => {
                !self.extra_seen.contains(&(z.item.0, z.user.0))
                    && self.ledger.is_full_for(z.item, z.user)
            }
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
                if self.strategy.contains(z) {
                    0.0
                } else {
                    self.marginal_noncandidate(z)
                }
            }
        }
    }

    /// Marginal revenue of a candidate triple, addressed by candidate id.
    ///
    /// Dispatches through the group's compiled kernel byte (see
    /// `super::kernels`): one flat `match`, no per-query profile or knob
    /// branching. Aggregate kernels answer from the group's `pros`/`wsum`
    /// block in `O(T − t)`; walk kernels run the exact slab walk.
    #[inline]
    pub fn marginal_revenue_cand(&self, cand: CandidateId, t: TimeStep) -> f64 {
        let local = self.local_cand(cand);
        let horizon = self.inst.horizon() as usize;
        if self.selected[local * horizon + t.index()] {
            return 0.0;
        }
        let group = self.cand_group[local] as usize;
        let kernel = KernelId::from_u8(self.kernel[group]);
        let (gain, loss) = if kernel.uses_aggregates() {
            let s = self.agg_start[group];
            if s == AGG_UNALLOCATED {
                // Empty group: unit potential, no competition, no loss —
                // bit-identical to walking the empty slab.
                let q_prim = self.inst.candidate_prob(cand, t);
                (
                    self.inst.price(self.inst.candidate_item(cand), t) * q_prim,
                    0.0,
                )
            } else {
                self.gain_and_loss_agg(
                    kernel,
                    s as usize,
                    self.agg_hi[group] as usize,
                    self.inst.candidate_item(cand).0,
                    self.inst.candidate_prob(cand, t),
                    t,
                )
            }
        } else {
            self.gain_and_loss_cand(cand, t)
        };
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
                if self.strategy.contains(z) {
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
        let kernel = KernelId::from_u8(self.kernel[group]);

        // One fused walk over the group's contiguous slab: apply the discount
        // to entries at the same or later times, accumulating the loss. For
        // walk kernels the same pass accumulates memory / competition (the
        // inputs of the new entry's dynamic probability); aggregate kernels
        // read that potential straight from the group's `pros` block instead
        // — earlier entries need no visit and the per-insert `exp`
        // disappears. Field-level borrows keep the lookup tables readable
        // while the arena is mutated.
        let use_agg = self.agg_enabled && kernel.uses_aggregates();
        let mut memory = 0.0_f64;
        let mut comp = 1.0_f64;
        let mut loss = 0.0_f64;
        if self.group_start[group] != NONE {
            let start = self.group_start[group] as usize;
            let len = self.group_len[group] as usize;
            let inv_dist = &self.tables.inv_dist;
            let beta_root = &self.tables.beta_root;
            let max_dist = self.tables.stride;
            if use_agg {
                for e in &mut self.arena[start..start + len] {
                    if e.t > tv {
                        let factor = (1.0 - q_prim)
                            * beta_root[e.pow_row as usize * max_dist + (e.t - tv - 1) as usize];
                        loss += e.price * e.q_dyn * (factor - 1.0);
                        e.q_dyn *= factor;
                    } else if e.t == tv && e.item != item.0 {
                        loss += e.price * e.q_dyn * (-q_prim);
                        e.q_dyn *= 1.0 - q_prim;
                    }
                }
            } else {
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
        }
        let price = self.inst.price(item, t);
        let (q_new, gain);
        if use_agg {
            let astart = match self.agg_block(group) {
                Some(s) => s,
                None => self.agg_alloc(group),
            };
            // The prospective potential is read before the block absorbs the
            // insertion — it is exactly `β^memory · Π (1 − q)` of the walk.
            q_new = q_prim * self.agg[astart + t.index()];
            gain = price * q_new;
            self.agg_apply_insert(astart, t.index(), item.0, q_prim, price, q_new);
            self.agg_hi[group] = self.agg_hi[group].max(t.index() as u32 + 1);
        } else {
            q_new = q_prim * self.pow_memory(row, memory) * comp;
            gain = price * q_new;
        }

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
        self.strategy.insert(Triple { user, item, t });
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

        let kernel = KernelId::from_u8(self.kernel[group]);
        if kernel.uses_aggregates() && self.agg_start[group] < AGG_INELIGIBLE {
            // Aggregate fast path: one O(T − t) closed-form evaluation per
            // live slot. The arithmetic per slot is identical to
            // [`IncrementalRevenue::gain_and_loss_agg`] (`prices[t]` is the
            // same f64 `price(item, t)` loads; the degenerate kernels' β-root
            // rows hold exactly 1.0 / 0.0, so the shared row-based loop is
            // bit-neutral for them), so batch and per-slot results stay
            // bit-identical.
            let astart = self.agg_start[group] as usize;
            let hi = self.agg_hi[group] as usize;
            let base = self.local_cand(cand) * horizon;
            let (pros, wsum) = self.agg[astart..astart + 2 * horizon].split_at(horizon);
            let beta_root = &self.tables.beta_root[row as usize * self.tables.stride..];
            let mut evaluated = 0;
            let mut mask = live_mask;
            while mask != 0 {
                let t_idx = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                if t_idx >= horizon {
                    break;
                }
                out[t_idx] = if self.selected[base + t_idx] {
                    0.0
                } else {
                    let q_prim = probs[t_idx];
                    let q_new = q_prim * pros[t_idx];
                    let mut loss = wsum[t_idx] * (-q_prim);
                    for (d, &w) in wsum[t_idx + 1..hi.max(t_idx + 1)].iter().enumerate() {
                        let factor = (1.0 - q_prim) * beta_root[d];
                        loss += w * (factor - 1.0);
                    }
                    prices[t_idx] * q_new + loss
                };
                evaluated += 1;
            }
            return evaluated;
        }

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
        if self.agg_enabled && self.agg_start[group] != AGG_INELIGIBLE {
            let astart = match self.agg_block(group) {
                Some(s) => s,
                None => self.agg_alloc(group),
            };
            // q_prim = q_dyn = 0: the entry still counts towards memory and
            // still saturates later selections by its β root factor.
            self.agg_apply_insert(astart, z.t.index(), z.item.0, 0.0, 0.0, 0.0);
            self.agg_hi[group] = self.agg_hi[group].max(z.t.index() as u32 + 1);
        }
        self.revenue += loss;
        let dslot = self.local_user(z.user) * self.inst.horizon() as usize + z.t.index();
        self.display_count[dslot] += 1;
        if !self.extra_seen.contains(&(z.item.0, z.user.0)) {
            self.extra_seen.push((z.item.0, z.user.0));
            self.ledger.charge(z.item, z.user);
        }
        self.strategy.insert(z);
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
        self.strategy.len()
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

    fn into_strategy(self) -> Strategy {
        IncrementalRevenue::into_strategy(self)
    }
}
