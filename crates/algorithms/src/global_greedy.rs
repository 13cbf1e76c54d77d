//! The Global Greedy algorithm (Algorithm 1 of the paper) and its
//! saturation-oblivious ablation `GlobalNo`.
//!
//! G-Greedy operates on the entire ground set `U × I × [T]` at once: it
//! repeatedly adds the candidate triple with the largest positive marginal
//! revenue that does not violate the display or capacity constraint. Two
//! implementation-level optimisations from §5.1 are reproduced:
//!
//! * the **two-level heap** structure: one small "lower heap" per (user, item)
//!   candidate pair holding its `T` triples (here a linear scan over a
//!   struct-of-arrays block, since `T ≤ 7` in all experiments), and one upper
//!   heap over candidate pairs keyed by the root of their lower heap;
//! * **lazy forward**: a triple's cached marginal revenue carries a flag equal
//!   to `|set(u, C(i))|` at computation time; when the triple reaches the root
//!   of the upper heap, it is re-evaluated only if the flag is stale. The
//!   paper justifies this via submodularity (Theorem 2); the exact objective
//!   implemented here is not submodular in all corners (see the notes in
//!   `crates/core/tests/properties.rs`), so lazy forward is treated as a
//!   heuristic and the lazy == eager equivalence is asserted empirically.
//!
//! The drivers are generic over [`RevenueEngine`]: the default is the
//! flat-arena [`IncrementalRevenue`]; [`EngineKind::Hash`] selects the
//! pre-refactor [`HashIncrementalRevenue`] so benches can measure the
//! refactor's speedup on identical selection sequences.
//!
//! Per-candidate cached state is stored struct-of-arrays: flat `values` and
//! `flags` vectors indexed by `cand * T + t` (blocked slots are encoded as
//! `NEG_INFINITY` values), replacing the per-candidate triple-`Vec`
//! allocations of the original implementation. The
//! initial value pass (`q(u,i,t) · p(i,t)`, embarrassingly parallel over
//! candidates) is filled by scoped threads cut at user boundaries.

use crate::config::PlannerConfig;
use crate::heap::LazyMaxHeap;
use crate::par;
use revmax_core::{
    revenue, CandidateId, HashIncrementalRevenue, IncrementalRevenue, Instance, ResidualDelta,
    RevenueEngine, Strategy, TimeStep,
};

/// Which incremental revenue engine backs a greedy run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// The flat-arena engine (default): dense group index, no hashing.
    #[default]
    Flat,
    /// The pre-refactor hash-based engine, kept as a measured baseline.
    Hash,
}

/// The result of a greedy run.
#[derive(Debug, Clone)]
pub struct GreedyOutcome {
    /// The selected strategy (always valid for REVMAX).
    pub strategy: Strategy,
    /// True expected revenue of the strategy under the instance's saturation
    /// factors (Definition 2).
    pub revenue: f64,
    /// The objective value the selection process itself tracked (differs from
    /// `revenue` only for `GlobalNo`, which selects pretending `β = 1`).
    pub selection_objective: f64,
    /// Selection-objective value after each insertion, if tracing was enabled.
    pub trace: Vec<f64>,
    /// Number of marginal-revenue evaluations performed (lazy-forward ablation metric).
    pub marginal_evaluations: u64,
    /// Concurrent shard-executor statistics; all zero for sequential runs.
    pub concurrency: ConcurrencyStats,
}

/// Statistics of the concurrent shard executor (two or more
/// `PlannerConfig::shard_threads`): how many capacity-committing moves took
/// the lock-free abundant fast path versus the coordinator's scarce-window
/// arbitration. Sequential drivers leave the struct zeroed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConcurrencyStats {
    /// Moves committed lock-free because the item was outside the scarcity
    /// window (includes exempt and repeat-display commits).
    pub fast_path_moves: u64,
    /// Scarce-window proposals sequenced by the coordinator (admitted plus
    /// rejected).
    pub arbitrated_moves: u64,
    /// Arbitrated proposals the coordinator rejected (the speculative claim
    /// was rolled back or denied).
    pub rejected_moves: u64,
    /// Worker threads the executor ran with (`0` for sequential runs).
    pub worker_threads: u32,
}

impl ConcurrencyStats {
    /// Fraction of committing moves that needed arbitration (`0.0` when no
    /// move committed, or for sequential runs).
    pub fn scarce_occupancy(&self) -> f64 {
        let total = self.fast_path_moves + self.arbitrated_moves;
        if total == 0 {
            0.0
        } else {
            self.arbitrated_moves as f64 / total as f64
        }
    }
}

/// Runs G-Greedy with the default configuration.
pub fn global_greedy(inst: &Instance) -> GreedyOutcome {
    dispatch(inst, &PlannerConfig::default(), None)
}

/// Runs the `GlobalNo` ablation: saturation is ignored during selection, the
/// returned revenue is evaluated with the true saturation factors.
pub fn global_no_saturation(inst: &Instance) -> GreedyOutcome {
    dispatch(
        inst,
        &PlannerConfig::default().with_algorithm(crate::config::PlanAlgorithm::GlobalNoSaturation),
        None,
    )
}

/// Constructs the engine for a driver: warm-started from the delta's
/// snapshot when the configuration asks for it, cold otherwise, with the
/// saturation-aggregate knob applied before the first insertion.
pub(crate) fn make_engine<'a, E: RevenueEngine<'a>>(
    inst: &'a Instance,
    ignore_saturation: bool,
    shard: revmax_core::UserShard,
    cfg: &PlannerConfig,
    delta: Option<&ResidualDelta>,
) -> E {
    let mut engine = match delta {
        Some(delta) if cfg.warm_start => E::warm_start(inst, ignore_saturation, shard, delta),
        _ => E::for_shard(inst, ignore_saturation, shard),
    };
    engine.set_aggregate_mode(cfg.aggregates.mode());
    engine
}

/// The G-Greedy driver dispatch: shard count, then engine. `delta` is the
/// warm-start handle of a residual replan (`None` for one-shot plans).
pub(crate) fn dispatch(
    inst: &Instance,
    cfg: &PlannerConfig,
    delta: Option<&ResidualDelta>,
) -> GreedyOutcome {
    if cfg.shards > 1 {
        return crate::sharded::sharded_plan_residual(inst, cfg, cfg.shards as usize, delta);
    }
    match cfg.engine {
        EngineKind::Flat => two_level_greedy::<IncrementalRevenue<'_>>(inst, cfg, delta),
        EngineKind::Hash => two_level_greedy::<HashIncrementalRevenue<'_>>(inst, cfg, delta),
    }
}

/// Struct-of-arrays per-candidate cached state: slot `local_cand * T + t`
/// holds the cached (possibly stale) marginal revenue and the lazy-forward
/// flag it was computed under. A blocked (dead) slot is encoded as
/// `NEG_INFINITY` in `values`, so the per-candidate "lower heap" is a single
/// contiguous max scan over `T` floats.
///
/// The table covers a contiguous candidate range (the whole instance for the
/// sequential drivers, one user shard for the shard-partitioned core) and is
/// addressed by *local* candidate indices relative to the range start.
pub(crate) struct CandidateTable {
    horizon: usize,
    pub(crate) values: Vec<f64>,
    pub(crate) flags: Vec<u32>,
}

impl CandidateTable {
    fn new(inst: &Instance, parallel: bool) -> Self {
        Self::for_range(inst, 0, inst.num_candidates() as u32, parallel)
    }

    /// Builds the initial value table (`q(u,i,t) · p(i,t)`) for the candidate
    /// range `[cand_start, cand_end)`.
    pub(crate) fn for_range(
        inst: &Instance,
        cand_start: u32,
        cand_end: u32,
        parallel: bool,
    ) -> Self {
        let horizon = inst.horizon() as usize;
        let n = (cand_end - cand_start) as usize * horizon;
        let mut values = vec![f64::NEG_INFINITY; n];
        let fill = |slot: usize| {
            let cand = CandidateId(cand_start + (slot / horizon) as u32);
            let t = TimeStep::from_index(slot % horizon);
            inst.candidate_prob(cand, t) * inst.price(inst.candidate_item(cand), t)
        };
        if parallel && n >= 1 << 14 {
            par::parallel_fill(&mut values, fill);
        } else {
            for (slot, v) in values.iter_mut().enumerate() {
                *v = fill(slot);
            }
        }
        CandidateTable {
            horizon,
            values,
            flags: vec![0; n],
        }
    }

    /// Re-evaluates every live slot of the local candidate `local` (engine
    /// calls address the global `cand`), stamping the flags; returns the
    /// number of marginal evaluations performed.
    pub(crate) fn reevaluate<'a, E: RevenueEngine<'a>>(
        &mut self,
        inc: &E,
        local: u32,
        cand: CandidateId,
        stamp: u32,
    ) -> u64 {
        let horizon = self.horizon;
        let base = local as usize * horizon;
        if horizon <= 64 {
            let mut mask = 0u64;
            for t_idx in 0..horizon {
                if !self.is_blocked(local, t_idx) {
                    mask |= 1 << t_idx;
                    self.flags[base + t_idx] = stamp;
                }
            }
            inc.marginal_revenue_batch(cand, mask, &mut self.values[base..base + horizon]) as u64
        } else {
            let mut evals = 0;
            for t_idx in 0..horizon {
                if self.is_blocked(local, t_idx) {
                    continue;
                }
                self.values[base + t_idx] =
                    inc.marginal_revenue_cand(cand, TimeStep::from_index(t_idx));
                self.flags[base + t_idx] = stamp;
                evals += 1;
            }
            evals
        }
    }

    /// Best live slot of a candidate: `(t index, value)`; `None` when every
    /// slot is blocked.
    #[inline]
    pub(crate) fn best(&self, cand: u32) -> Option<(usize, f64)> {
        let base = cand as usize * self.horizon;
        let mut best_t = 0usize;
        let mut best_v = f64::NEG_INFINITY;
        for (t, &v) in self.values[base..base + self.horizon].iter().enumerate() {
            if v > best_v {
                best_v = v;
                best_t = t;
            }
        }
        if best_v == f64::NEG_INFINITY {
            None
        } else {
            Some((best_t, best_v))
        }
    }

    /// Marks a slot dead (already selected, or its display slot is full).
    #[inline]
    pub(crate) fn block(&mut self, cand: u32, t: usize) {
        self.values[cand as usize * self.horizon + t] = f64::NEG_INFINITY;
    }

    #[inline]
    pub(crate) fn is_blocked(&self, cand: u32, t: usize) -> bool {
        self.values[cand as usize * self.horizon + t] == f64::NEG_INFINITY
    }

    #[inline]
    pub(crate) fn slot(&self, cand: u32, t: usize) -> usize {
        cand as usize * self.horizon + t
    }
}

/// One member of a batched heap-refresh burst: the compiled kernel id of the
/// candidate's group, the candidate's local heap index, and the lazy-forward
/// stamp its refresh must be computed against.
pub(crate) type StaleMember = (u8, u32, u32);

/// Collects the run of **stale** tops of `heap` into `run`, stopping at the
/// first top that is fresh, non-positive, or constraint-blocked at its best
/// slot (the main loop drains those), or when `cap` members are gathered.
/// Tops whose every slot is already blocked are retired from the heap in
/// place — they can never revive, so early retirement commutes with
/// everything. Collected members are popped out of the heap; pass them to
/// [`refresh_stale_run`] before touching the heap again.
///
/// Refreshing a stale candidate early — rather than when it individually
/// surfaces — is plan-preserving: no insertion happens inside a burst, a
/// marginal depends only on the candidate's own (user, class) group state,
/// and the lazy-forward stamp is the group size, so the values a burst
/// refresh writes are bit-identical to the values the pop-per-iteration loop
/// writes when the same candidate surfaces stale under the same group state.
/// (Like lazy forward itself this is asserted empirically — the kernel
/// parity suite pins batched == scalar plans across batch widths.)
#[allow(clippy::too_many_arguments)]
pub(crate) fn collect_stale_run<'a, E: RevenueEngine<'a>>(
    inc: &E,
    table: &mut CandidateTable,
    heap: &mut LazyMaxHeap,
    cand_start: u32,
    lazy_forward: bool,
    violates: impl Fn(&E, CandidateId, TimeStep) -> bool,
    run: &mut Vec<StaleMember>,
    cap: usize,
) {
    while run.len() < cap {
        let Some((next, next_v)) = heap.peek() else {
            break;
        };
        if next_v <= 0.0 {
            break;
        }
        let cand = CandidateId(cand_start + next);
        let Some((bt, _)) = table.best(next) else {
            heap.remove(next);
            continue;
        };
        let t = TimeStep::from_index(bt);
        if violates(inc, cand, t) {
            break;
        }
        let stamp = if lazy_forward {
            inc.group_size_cand(cand) as u32
        } else {
            inc.len() as u32
        };
        if table.flags[table.slot(next, bt)] == stamp {
            break;
        }
        heap.pop();
        run.push((inc.kernel_id_cand(cand), next, stamp));
    }
}

/// Refreshes every member of a collected stale run and re-queues it at its
/// new root value. Members are evaluated grouped by compiled kernel id
/// (sorted, ties to the smaller index for determinism) so each group of the
/// burst runs one kernel's inner loop back to back, branch-predictably;
/// since no insertion happens inside a burst, the evaluation order cannot
/// change any computed value. Returns the number of marginal evaluations.
pub(crate) fn refresh_stale_run<'a, E: RevenueEngine<'a>>(
    inc: &E,
    table: &mut CandidateTable,
    heap: &mut LazyMaxHeap,
    cand_start: u32,
    run: &mut [StaleMember],
) -> u64 {
    if run.len() > 1 {
        run.sort_unstable_by_key(|&(k, idx, _)| (k, idx));
    }
    let mut evals = 0;
    for &(_, idx, stamp) in run.iter() {
        evals += table.reevaluate(inc, idx, CandidateId(cand_start + idx), stamp);
        match table.best(idx) {
            Some((_, v)) => heap.update(idx, v),
            None => heap.remove(idx),
        }
    }
    evals
}

fn finish<'a, E: RevenueEngine<'a>>(
    inst: &'a Instance,
    inc: E,
    cfg: &PlannerConfig,
    trace: Vec<f64>,
    marginal_evaluations: u64,
) -> GreedyOutcome {
    let selection_objective = inc.revenue();
    let strategy = inc.into_strategy();
    let true_revenue = if cfg.ignores_saturation() {
        revenue(inst, &strategy)
    } else {
        selection_objective
    };
    GreedyOutcome {
        strategy,
        revenue: true_revenue,
        selection_objective,
        trace,
        marginal_evaluations,
        concurrency: Default::default(),
    }
}

/// Minimum candidate count for the tournament driver. Below this the
/// scalar lazy-heap loop wins: the tree build plus the eager column-block
/// scans cost a fixed overhead that only amortises once the selection
/// stream is long enough (measured crossover ~4–6k candidates on the
/// amazon-shaped benches; at 2.4k candidates the tournament loses ~10%,
/// at 38k it wins 1.2–1.4×).
const TOURNAMENT_MIN_CANDIDATES: usize = 4096;

fn two_level_greedy<'a, E: RevenueEngine<'a>>(
    inst: &'a Instance,
    cfg: &PlannerConfig,
    delta: Option<&ResidualDelta>,
) -> GreedyOutcome {
    if cfg.kernel_batch == 0 || inst.num_candidates() < TOURNAMENT_MIN_CANDIDATES {
        two_level_greedy_scalar::<E>(inst, cfg, delta)
    } else {
        two_level_greedy_batched::<E>(inst, cfg, delta)
    }
}

/// A loser-free tournament tree over the candidate root values, with the
/// same total order as [`LazyMaxHeap`]: larger value first, ties towards
/// the smaller candidate id. The kernel-compiled driver keys selection off
/// this tree instead of a binary heap: re-keying a candidate is a fix of
/// the leaf-to-root path — `log₂ candidates` branchless winner recomputes
/// with no swaps, no position index, and an early exit as soon as a node is
/// unchanged — where a lazy heap pays a full pop/push round trip (sift plus
/// stale-entry drain) per surfaced candidate.
struct CandTournament {
    /// Leaf count, `num_candidates` rounded up to a power of two.
    size: usize,
    /// Implicit tree: node `i`'s children are `2i` / `2i + 1`, leaves at
    /// `size + c`, root at 1. Each node holds the winning `(value, cand)`.
    tree: Vec<(f64, u32)>,
}

impl CandTournament {
    fn new(roots: &[f64]) -> Self {
        let size = roots.len().next_power_of_two().max(1);
        let mut tree = vec![(f64::NEG_INFINITY, u32::MAX); 2 * size];
        for (c, &v) in roots.iter().enumerate() {
            tree[size + c] = (v, c as u32);
        }
        for i in (1..size).rev() {
            tree[i] = Self::winner(tree[2 * i], tree[2 * i + 1]);
        }
        CandTournament { size, tree }
    }

    /// The heap ordering: maximum value, ties to the smaller candidate id —
    /// exactly the (value desc, id asc) total order [`LazyMaxHeap`] pops
    /// in, so the tournament selects the scalar driver's sequence.
    #[inline]
    fn winner(a: (f64, u32), b: (f64, u32)) -> (f64, u32) {
        if a.0 > b.0 || (a.0 == b.0 && a.1 < b.1) {
            a
        } else {
            b
        }
    }

    /// Re-keys candidate `c` and fixes the path to the root, stopping at the
    /// first unchanged node (its ancestors cannot change either).
    #[inline]
    fn update(&mut self, c: u32, value: f64) {
        let mut i = self.size + c as usize;
        self.tree[i] = (value, c);
        while i > 1 {
            i /= 2;
            let w = Self::winner(self.tree[2 * i], self.tree[2 * i + 1]);
            if w == self.tree[i] {
                break;
            }
            self.tree[i] = w;
        }
    }

    /// The current best `(value, candidate)`.
    #[inline]
    fn root(&self) -> (f64, u32) {
        self.tree[1]
    }
}

/// The kernel-compiled two-level driver (`kernel_batch ≥ 1`, the default).
///
/// Replaces the scalar driver's lazy binary heap with a [`CandTournament`]
/// over the candidate roots plus a cached argmax time per candidate, so
/// selection is O(1) and every constraint block, stale refresh, or
/// insertion costs one leaf path fix. Display fills block the filled
/// `(user, t)` column across the user's contiguous candidate range eagerly
/// (display counts never decrease, so this is the same bookkeeping the
/// scalar drain loop does lazily, minus the surface-and-requeue round
/// trips), and capacity exhaustion retires the whole candidate row. A stale
/// root is re-evaluated over all its live time slots in one fused kernel
/// pass; the stale *run* a lazy heap has to collect explicitly
/// ([`collect_stale_run`], still used by the sharded and SLG drivers) is
/// implicit here — after the path fix, the next stale member of the run is
/// back at the tree root in O(1).
///
/// Produces the identical plan to [`two_level_greedy_scalar`]: cached root
/// values evolve identically (marginals depend only on the candidate's own
/// (user, class) group state, refreshed under the same lazy-forward
/// stamps), and both selection orders are (value desc, candidate id asc)
/// over those cached values. Like lazy forward itself, the equivalence is
/// asserted empirically — the kernel parity suite pins batched == scalar
/// across batch widths, engines, shard counts, and warm/cold construction.
fn two_level_greedy_batched<'a, E: RevenueEngine<'a>>(
    inst: &'a Instance,
    cfg: &PlannerConfig,
    delta: Option<&ResidualDelta>,
) -> GreedyOutcome {
    let num_cand = inst.num_candidates();
    let horizon = inst.horizon() as usize;
    let mut inc: E = make_engine(
        inst,
        cfg.ignores_saturation(),
        inst.full_shard(),
        cfg,
        delta,
    );
    let mut trace = Vec::new();
    let mut evals: u64 = 0;

    let mut table = CandidateTable::new(inst, cfg.parallel_init());
    // Cached argmax time per candidate; the matching value lives in the
    // tournament leaf. Together they mirror `table.best` exactly.
    let mut cand_best_t = vec![0u32; num_cand];
    let mut roots = vec![f64::NEG_INFINITY; num_cand];
    for c in 0..num_cand {
        if let Some((t, v)) = table.best(c as u32) {
            roots[c] = v;
            cand_best_t[c] = t as u32;
        }
    }
    let mut tour = CandTournament::new(&roots);
    drop(roots);
    let user_offsets = inst.user_cand_offsets();
    let total_slots = inst.total_slots();

    while (inc.len() as u64) < total_slots {
        let (root_v, cand_idx) = tour.root();
        if root_v <= 0.0 {
            break;
        }
        let cand = CandidateId(cand_idx);
        let best_t = cand_best_t[cand_idx as usize] as usize;
        let t = TimeStep::from_index(best_t);

        if inc.would_violate_cand(cand, t) {
            if inc.would_violate_display_cand(cand, t) {
                // The (user, t) slot is full: dead for this candidate, other
                // time steps may still be fine. (Only pre-filled warm-start
                // displays reach this branch — fills during the run block
                // eagerly below.)
                table.block(cand_idx, best_t);
                refresh_leaf(&table, cand_idx, &mut cand_best_t, &mut tour);
            } else {
                // Capacity exhausted by other users: the whole candidate
                // dies (exempt users never violate capacity, so this is
                // permanent). Wipe the table row too — otherwise a later
                // eager column block would treat it as live.
                for tt in 0..horizon {
                    let s = table.slot(cand_idx, tt);
                    table.values[s] = f64::NEG_INFINITY;
                }
                tour.update(cand_idx, f64::NEG_INFINITY);
            }
            continue;
        }

        let stamp = if cfg.lazy_forward {
            inc.group_size_cand(cand) as u32
        } else {
            inc.len() as u32
        };
        if table.flags[table.slot(cand_idx, best_t)] == stamp {
            inc.insert_cand(cand, t);
            table.block(cand_idx, best_t);
            if cfg.track_trace {
                trace.push(inc.revenue());
            }
            if inc.would_violate_display_cand(cand, t) {
                // This insertion filled the (user, t) display slot: block
                // the t column across the user's candidate range now. A
                // candidate whose cached argmax sat elsewhere keeps its
                // root (blocking a non-argmax slot cannot change the
                // forward-scan argmax), so only argmax hits pay a path fix.
                let user = inst.candidate_user(cand).index();
                let (lo, hi) = (user_offsets[user] as usize, user_offsets[user + 1] as usize);
                for c in lo..hi {
                    let s = table.slot(c as u32, best_t);
                    if table.values[s] != f64::NEG_INFINITY {
                        table.values[s] = f64::NEG_INFINITY;
                        if cand_best_t[c] as usize == best_t {
                            refresh_leaf(&table, c as u32, &mut cand_best_t, &mut tour);
                        }
                    }
                }
            }
            refresh_leaf(&table, cand_idx, &mut cand_best_t, &mut tour);
        } else {
            // Stale root: re-evaluate this candidate's live slots in one
            // fused kernel pass, then fix its path.
            evals += table.reevaluate(&inc, cand_idx, cand, stamp);
            refresh_leaf(&table, cand_idx, &mut cand_best_t, &mut tour);
        }
    }

    finish(inst, inc, cfg, trace, evals)
}

/// Re-derives one candidate's root `(value, argmax t)` from its table row
/// after the row changed, and re-keys its tournament leaf.
#[inline]
fn refresh_leaf(
    table: &CandidateTable,
    c: u32,
    cand_best_t: &mut [u32],
    tour: &mut CandTournament,
) {
    match table.best(c) {
        Some((t, v)) => {
            cand_best_t[c as usize] = t as u32;
            tour.update(c, v);
        }
        None => tour.update(c, f64::NEG_INFINITY),
    }
}

/// The legacy pop-per-iteration two-level driver (`kernel_batch == 0`): one
/// heap round trip per examined candidate, scalar refreshes. Kept reachable
/// as the measured "generic" baseline of the kernel-vs-generic bench rows.
fn two_level_greedy_scalar<'a, E: RevenueEngine<'a>>(
    inst: &'a Instance,
    cfg: &PlannerConfig,
    delta: Option<&ResidualDelta>,
) -> GreedyOutcome {
    let num_cand = inst.num_candidates();
    let mut inc: E = make_engine(
        inst,
        cfg.ignores_saturation(),
        inst.full_shard(),
        cfg,
        delta,
    );
    let mut trace = Vec::new();
    let mut evals: u64 = 0;

    let mut table = CandidateTable::new(inst, cfg.parallel_init());
    let mut roots = vec![f64::NEG_INFINITY; num_cand];
    for cand in 0..num_cand as u32 {
        roots[cand as usize] = table.best(cand).map_or(f64::NEG_INFINITY, |(_, v)| v);
    }
    let mut heap = LazyMaxHeap::new(&roots);
    let total_slots = inst.total_slots();

    'outer: while (inc.len() as u64) < total_slots {
        let Some((cand_idx, root_value)) = heap.pop() else {
            break;
        };
        if root_value <= 0.0 {
            break;
        }
        let cand = CandidateId(cand_idx);

        // Drain display-dead slots of this candidate in one pop instead of one
        // heap round-trip each — blocking is value-neutral bookkeeping on this
        // candidate's own slots and display violations are monotone, so the
        // eager batching commutes with other candidates' operations. If
        // anything was blocked, the candidate is re-queued at its new best
        // (never processed immediately, even on an exact value tie), which
        // keeps the selection sequence identical to the seed driver's
        // one-block-per-pop behaviour under the heap's id tie-breaking.
        let mut blocked_any = false;
        let (best_t, best_v) = loop {
            let Some((best_t, best_v)) = table.best(cand_idx) else {
                heap.remove(cand_idx);
                continue 'outer;
            };
            let t = TimeStep::from_index(best_t);
            if !inc.would_violate_cand(cand, t) {
                break (best_t, best_v);
            }
            if inc.would_violate_display_cand(cand, t) {
                // The (user, t) slot is full: this time step is dead for this
                // candidate, other time steps may still be fine.
                table.block(cand_idx, best_t);
                blocked_any = true;
            } else {
                // Capacity exhausted by other users: the whole candidate dies.
                heap.remove(cand_idx);
                continue 'outer;
            }
        };
        if blocked_any {
            debug_assert!(best_v <= root_value);
            heap.update(cand_idx, best_v);
            continue;
        }
        let t = TimeStep::from_index(best_t);

        // Lazy forward compares the flag against |set(u, C(i))|; the eager
        // ablation compares against the global selection count, forcing a
        // re-evaluation whenever anything was inserted since the last one.
        let stamp = if cfg.lazy_forward {
            inc.group_size_cand(cand) as u32
        } else {
            inc.len() as u32
        };
        let slot = table.slot(cand_idx, best_t);
        if table.flags[slot] == stamp {
            inc.insert_cand(cand, t);
            table.block(cand_idx, best_t);
            if cfg.track_trace {
                trace.push(inc.revenue());
            }
            match table.best(cand_idx) {
                Some((_, v)) => heap.update(cand_idx, v),
                None => heap.remove(cand_idx),
            }
        } else {
            // Re-evaluate every live triple of this candidate, then re-queue.
            evals += table.reevaluate(&inc, cand_idx, cand, stamp);
            match table.best(cand_idx) {
                Some((_, v)) => heap.update(cand_idx, v),
                None => heap.remove(cand_idx),
            }
        }
    }

    finish(inst, inc, cfg, trace, evals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use revmax_core::{marginal_revenue, InstanceBuilder, Triple};

    /// Small instance with one class of two items, price drops, and saturation.
    fn small_instance() -> Instance {
        let mut b = InstanceBuilder::new(2, 3, 3);
        b.display_limit(1)
            .item_class(0, 0)
            .item_class(1, 0)
            .item_class(2, 1)
            .beta(0, 0.4)
            .beta(1, 0.7)
            .beta(2, 0.9)
            .capacity(0, 1)
            .capacity(1, 2)
            .capacity(2, 2)
            .prices(0, &[30.0, 24.0, 27.0])
            .prices(1, &[10.0, 12.0, 9.0])
            .prices(2, &[15.0, 15.0, 14.0])
            .candidate(0, 0, &[0.4, 0.6, 0.5], 4.5)
            .candidate(0, 1, &[0.7, 0.5, 0.8], 3.5)
            .candidate(0, 2, &[0.3, 0.3, 0.4], 4.0)
            .candidate(1, 0, &[0.5, 0.55, 0.45], 4.8)
            .candidate(1, 2, &[0.6, 0.2, 0.3], 2.5);
        b.build().unwrap()
    }

    #[test]
    fn greedy_output_is_valid_and_profitable() {
        let inst = small_instance();
        let out = global_greedy(&inst);
        assert!(out.strategy.validate(&inst).is_ok());
        assert!(out.revenue > 0.0);
        assert!((out.revenue - revenue(&inst, &out.strategy)).abs() < 1e-9);
        assert!(!out.strategy.is_empty());
    }

    #[test]
    fn example4_greedy_avoids_the_trap() {
        // On the non-monotone Example-4 instance the optimal strategy is the
        // single day-2 recommendation; greedy must find it and stop.
        let mut b = InstanceBuilder::new(1, 1, 2);
        b.display_limit(1)
            .capacity(0, 2)
            .beta(0, 0.1)
            .prices(0, &[1.0, 0.95])
            .candidate(0, 0, &[0.5, 0.6], 0.0);
        let inst = b.build().unwrap();
        let out = global_greedy(&inst);
        assert_eq!(out.strategy.len(), 1);
        assert!(out.strategy.contains(Triple::new(0, 0, 2)));
        assert!((out.revenue - 0.57).abs() < 1e-9);
    }

    #[test]
    fn never_selects_negative_marginals() {
        let inst = small_instance();
        let out = dispatch(
            &inst,
            &PlannerConfig::default().with_track_trace(true),
            None,
        );
        // The traced objective must be non-decreasing (every accepted marginal > 0).
        for w in out.trace.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "objective decreased: {:?}", w);
        }
    }

    #[test]
    fn greedy_matches_manual_hill_climbing() {
        // Cross-check against a brute-force greedy that re-evaluates every
        // candidate triple from scratch at every step.
        let inst = small_instance();
        let fast = global_greedy(&inst);

        let mut s = Strategy::new();
        let mut inc = IncrementalRevenue::new(&inst);
        loop {
            let mut best: Option<(Triple, f64)> = None;
            for c in inst.candidates() {
                let user = inst.candidate_user(c);
                let item = inst.candidate_item(c);
                for t in inst.time_steps() {
                    let z = Triple { user, item, t };
                    if s.contains(z) || inc.would_violate(z) {
                        continue;
                    }
                    let m = marginal_revenue(&inst, &s, z);
                    if m > 0.0 && best.is_none_or(|(_, bv)| m > bv) {
                        best = Some((z, m));
                    }
                }
            }
            match best {
                Some((z, _)) => {
                    inc.insert(z);
                    s.insert(z);
                }
                None => break,
            }
        }
        let slow_revenue = revenue(&inst, &s);
        assert!(
            (fast.revenue - slow_revenue).abs() < 1e-9,
            "two-level greedy {} vs reference greedy {}",
            fast.revenue,
            slow_revenue
        );
        assert_eq!(fast.strategy.len(), s.len());
    }

    #[test]
    fn flat_and_hash_engines_agree_exactly() {
        let inst = small_instance();
        let flat = dispatch(&inst, &PlannerConfig::default(), None);
        let hash = dispatch(
            &inst,
            &PlannerConfig::default().with_engine(EngineKind::Hash),
            None,
        );
        assert!((flat.revenue - hash.revenue).abs() < 1e-9);
        assert_eq!(flat.strategy.len(), hash.strategy.len());
        for z in flat.strategy.iter() {
            assert!(hash.strategy.contains(z), "strategies diverged at {z}");
        }
    }

    #[test]
    fn lazy_forward_does_not_change_the_result_but_saves_evaluations() {
        let inst = small_instance();
        let lazy = dispatch(&inst, &PlannerConfig::default(), None);
        let eager = dispatch(
            &inst,
            &PlannerConfig::default().with_lazy_forward(false),
            None,
        );
        assert!((lazy.revenue - eager.revenue).abs() < 1e-9);
        assert!(lazy.marginal_evaluations <= eager.marginal_evaluations);
    }

    #[test]
    fn global_no_reports_true_revenue() {
        let inst = small_instance();
        let no_sat = global_no_saturation(&inst);
        assert!(no_sat.strategy.validate(&inst).is_ok());
        // The true revenue of the GlobalNo strategy never exceeds its own
        // optimistic selection objective.
        assert!(no_sat.revenue <= no_sat.selection_objective + 1e-9);
        // And G-Greedy (saturation-aware) is at least as good in expectation here.
        let aware = global_greedy(&inst);
        assert!(aware.revenue + 1e-9 >= no_sat.revenue);
    }

    #[test]
    fn respects_display_and_capacity_limits() {
        let mut b = InstanceBuilder::new(3, 1, 2);
        b.display_limit(1).capacity(0, 2).constant_price(0, 10.0);
        for u in 0..3 {
            b.candidate(u, 0, &[0.9, 0.9], 0.0);
        }
        let inst = b.build().unwrap();
        let out = global_greedy(&inst);
        assert!(out.strategy.validate(&inst).is_ok());
        // Capacity 2 on the only item: at most 2 distinct users can receive it.
        let users: std::collections::HashSet<_> = out.strategy.iter().map(|z| z.user).collect();
        assert!(users.len() <= 2);
    }
}
