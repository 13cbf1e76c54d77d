//! The Global Greedy algorithm (Algorithm 1 of the paper) and its
//! saturation-oblivious ablation `GlobalNo`.
//!
//! G-Greedy operates on the entire ground set `U × I × [T]` at once: it
//! repeatedly adds the candidate triple with the largest positive marginal
//! revenue that does not violate the display or capacity constraint. Two
//! implementation-level optimisations from §5.1 are reproduced:
//!
//! * the **two-level** structure: one small "lower heap" per (user, item)
//!   candidate pair holding its `T` triples (here a linear scan over a
//!   struct-of-arrays block, since `T ≤ 7` in all experiments), and one
//!   upper level over candidate pairs keyed by the root of their lower heap
//!   (here a blocked tournament, `CandTournament`: one leaf value per
//!   candidate, 16-candidate leaf blocks, and a small winner tree over the
//!   block winners);
//! * **lazy forward**: a triple's cached marginal revenue carries a flag equal
//!   to `|set(u, C(i))|` at computation time; when the triple reaches the
//!   root of the upper level, it is re-evaluated only if the flag is stale.
//!   The paper justifies this via submodularity (Theorem 2); the exact
//!   objective implemented here is not submodular in all corners (see the
//!   notes in `crates/core/tests/properties.rs`), so lazy forward is treated
//!   as a heuristic and the lazy == eager equivalence is asserted
//!   empirically (eager re-evaluation is the test-only `revmax_oracle::Eager`
//!   engine wrapper, plugged in through [`crate::plan_with`]).
//!
//! Every greedy plan runs on one selection core, `ShardCore`: an engine
//! view, a `CandidateTable`, a `CandTournament` and a cached argmax per
//! candidate, over one user shard and one time window. The one selection
//! loop, `ShardCore::run`, steps the core with capacity read from the
//! engine's own counters. G-Greedy's window is the whole horizon;
//! SL-Greedy and RL-Greedy ([`crate::local_greedy`]) run the loop over
//! every user one time step at a time (`run_window`), and the staged
//! variants ([`crate::staged`]) one sub-horizon at a time, each window on
//! the engine the previous one left. [`crate::sharded`] runs several cores
//! on a pool of worker threads, coupled through a shared capacity ledger;
//! the only thing that differs is where capacity lives (`Capacity`).
//!
//! Engines keep no record of the plan. Every driver builds its outcome's
//! strategy once, from the insertions the loop hands it.
//!
//! # Users plan one at a time when no item is scarce
//!
//! Item capacity is the only thing that couples users. When no item is
//! scarce before any claim (every item's non-exempt candidate demand fits
//! its capacity, `sharded::any_item_scarce`), no capacity gate can close,
//! so each user's steps are the whole-instance run's steps restricted to
//! that user (Keerthi & Tomlin's per-user slate decomposition). G-Greedy
//! then runs the core over one user's candidates at a time, on any host
//! and with `parallel` on or off (`per_user_plan`), and puts the
//! insertions back into the whole-instance order: each CPU shard sorts its
//! own by floor (`sort_by_floor`), and the caller merges the shards'
//! sorted runs (`merge_by_floor`). A user's table and tournament are a few
//! kilobytes, so they stay in cache and are refilled in place for the next
//! user. `parallel` only decides whether the users are cut into one CPU
//! shard per core, each with its own engine and thread (`plan_shards`).
//! The outcome is the whole-instance outcome bit for bit: strategy order,
//! revenue, trace and evaluation count. An instance with a scarce item runs
//! the whole-instance loop (`whole_instance_plan`).
//!
//! The drivers are generic over [`RevenueEngine`]: the planner runs the
//! flat-arena [`revmax_core::IncrementalRevenue`], and the parity suites
//! run the same drivers on their reference engines through
//! [`crate::plan_with`].
//!
//! Per-candidate cached state is stored struct-of-arrays: flat `values` and
//! `flags` vectors indexed by `cand * T + t` (blocked slots, and slots
//! outside the window, are encoded as `NEG_INFINITY` values). A cold fill
//! (no selection of the shard's users yet) writes `q · p` a row at a time
//! on the calling thread; an evaluated fill is embarrassingly parallel over
//! slots and may be filled by scoped threads.

use crate::config::PlannerConfig;
use crate::{par, sharded};
use revmax_core::{
    revenue, CandidateId, Instance, ResidualDelta, RevenueEngine, Strategy, TimeStep, Triple,
    UserShard,
};
use std::ops::RangeInclusive;

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
    /// Number of marginal-revenue evaluations performed — the work lazy
    /// forward saves.
    pub marginal_evaluations: u64,
    /// Concurrent shard-executor statistics; all zero for one-shard plans.
    pub concurrency: ConcurrencyStats,
}

/// Statistics of the concurrent shard executor (two or more
/// `PlannerConfig::shard_threads`): how many capacity-committing moves took
/// the lock-free abundant fast path versus the coordinator's scarce-window
/// arbitration. One-shard plans leave the struct zeroed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConcurrencyStats {
    /// Moves committed lock-free because the item was outside the scarcity
    /// window (includes exempt and repeat-display commits).
    pub fast_path_moves: u64,
    /// Scarce-window proposals sequenced by the coordinator (admitted plus
    /// rejected).
    pub arbitrated_moves: u64,
    /// Arbitrated proposals the coordinator rejected (its claim at
    /// admission found the item full).
    pub rejected_moves: u64,
    /// Worker threads the executor ran with (`0` for one-shard plans).
    pub worker_threads: u32,
}

impl ConcurrencyStats {
    /// Fraction of committing moves that needed arbitration (`0.0` when no
    /// move committed, or for one-shard plans).
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
    crate::plan(inst, &PlannerConfig::default())
}

/// Runs the `GlobalNo` ablation: saturation is ignored during selection, the
/// returned revenue is evaluated with the true saturation factors.
pub fn global_no_saturation(inst: &Instance) -> GreedyOutcome {
    crate::plan(
        inst,
        &PlannerConfig::default().with_algorithm(crate::config::PlanAlgorithm::GlobalNoSaturation),
    )
}

/// Constructs the engine for a driver: warm-started from the delta's
/// snapshot when the configuration asks for it, cold otherwise.
pub(crate) fn make_engine<'a, E: RevenueEngine<'a>>(
    inst: &'a Instance,
    ignore_saturation: bool,
    shard: revmax_core::UserShard,
    cfg: &PlannerConfig,
    delta: Option<&ResidualDelta>,
) -> E {
    match delta {
        Some(delta) if cfg.warm_start => E::warm_start(inst, ignore_saturation, shard, delta),
        _ => E::for_shard(inst, ignore_saturation, shard),
    }
}

/// Live slots (candidates × time steps in the window) from which a
/// window's table fill forks threads, and from which a per-user G-Greedy
/// plan cuts its users into one CPU shard per core.
const FORK_SLOTS: usize = 1 << 14;

/// Struct-of-arrays per-candidate cached state: slot `local_cand * T + t`
/// holds the cached (possibly stale) marginal revenue and the lazy-forward
/// flag it was computed under. A blocked (dead) slot is encoded as
/// `NEG_INFINITY` in `values`, so the per-candidate "lower heap" is a single
/// contiguous max scan over `T` floats.
///
/// The table covers one shard's contiguous candidate range (the whole
/// instance for a whole-instance plan, one user for a per-user run) and is
/// addressed by *local* candidate indices relative to the range start.
#[derive(Default)]
struct CandidateTable {
    horizon: usize,
    values: Vec<f64>,
    flags: Vec<u32>,
}

impl CandidateTable {
    /// Refills the table, in place, for the shard's candidates over the
    /// time steps in `window`; every slot outside it is dead. A `cold` fill
    /// writes `q(u,i,t) · p(i,t)` at stamp 0, which costs no evaluation: the
    /// caller vouches that `inc` holds no selection of the shard's users,
    /// so that is every slot's marginal. It writes a row at a time on the
    /// calling thread, for any window and any `parallel`: a product per
    /// slot costs less than a fork. Any other fill evaluates the window's
    /// slots, stamped with their group sizes, and adds the evaluations to
    /// `evals`; with `parallel`, one of at least [`FORK_SLOTS`] live slots
    /// is filled on scoped threads.
    fn fill<'a, E: RevenueEngine<'a>>(
        &mut self,
        inc: &E,
        shard: UserShard,
        window: &RangeInclusive<u32>,
        cold: bool,
        parallel: bool,
        evals: &mut u64,
    ) {
        let inst = inc.instance();
        let horizon = inst.horizon() as usize;
        let n = shard.num_candidates() * horizon;
        let slot_of = |slot: usize| {
            let cand = CandidateId(shard.cand_start() + (slot / horizon) as u32);
            (cand, TimeStep::from_index(slot % horizon))
        };
        self.horizon = horizon;
        self.values.clear();
        if cold {
            // `q · p` a row at a time, then dead outside the window's time
            // indices `lo..hi`.
            let lo = (*window.start() as usize).saturating_sub(1).min(horizon);
            let hi = (*window.end() as usize).clamp(lo, horizon);
            for cand in shard.candidates() {
                let prices = inst.price_series(inst.candidate_item(cand));
                let row = inst.candidate_probs(cand).iter().zip(prices);
                let start = self.values.len();
                self.values.extend(row.map(|(q, p)| q * p));
                let row = &mut self.values[start..];
                row[..lo].fill(f64::NEG_INFINITY);
                row[hi..].fill(f64::NEG_INFINITY);
            }
        } else {
            let value = |slot: usize| {
                let (cand, t) = slot_of(slot);
                if window.contains(&t.value()) {
                    inc.marginal_revenue_cand(cand, t)
                } else {
                    f64::NEG_INFINITY
                }
            };
            let live = shard.num_candidates() * window.clone().count();
            if parallel && live >= FORK_SLOTS {
                self.values.resize(n, f64::NEG_INFINITY);
                par::parallel_fill(&mut self.values, value);
            } else {
                self.values.extend((0..n).map(value));
            }
        }
        self.flags.clear();
        self.flags.resize(n, 0);
        if !cold {
            for (slot, flag) in self.flags.iter_mut().enumerate() {
                let (cand, t) = slot_of(slot);
                if window.contains(&t.value()) {
                    *flag = inc.group_size_cand(cand) as u32;
                    *evals += 1;
                }
            }
        }
    }

    /// Re-evaluates every live slot of the local candidate `local` (engine
    /// calls address the global `cand`), stamping the flags; returns the
    /// number of marginal evaluations performed.
    fn reevaluate<'a, E: RevenueEngine<'a>>(
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
    fn best(&self, cand: u32) -> Option<(usize, f64)> {
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
    /// Returns whether the slot was live.
    #[inline]
    fn block(&mut self, cand: u32, t: usize) -> bool {
        let slot = &mut self.values[cand as usize * self.horizon + t];
        let live = *slot != f64::NEG_INFINITY;
        *slot = f64::NEG_INFINITY;
        live
    }

    /// Marks every slot of a candidate dead.
    #[inline]
    fn retire(&mut self, cand: u32) {
        let base = cand as usize * self.horizon;
        self.values[base..base + self.horizon].fill(f64::NEG_INFINITY);
    }

    #[inline]
    fn is_blocked(&self, cand: u32, t: usize) -> bool {
        self.values[cand as usize * self.horizon + t] == f64::NEG_INFINITY
    }

    #[inline]
    fn slot(&self, cand: u32, t: usize) -> usize {
        cand as usize * self.horizon + t
    }
}

/// Candidates per leaf block of [`CandTournament`]: a block is 128 bytes
/// of leaves, and a rescan is a 16-float forward scan.
const BLOCK: usize = 16;

/// Whether move `(value, candidate id)` `a` precedes `b` in the selection
/// order: larger value first, ties towards the smaller id. The tournament
/// selects in it inside a shard, and the executor's coordinator across
/// shards.
#[inline]
pub(crate) fn precedes(a: (f64, u32), b: (f64, u32)) -> bool {
    a.0 > b.0 || (a.0 == b.0 && a.1 < b.1)
}

/// A blocked tournament over the candidate root values, in the
/// [`precedes`] order that the shard arbitration and the parity suites'
/// argmax oracles share. The leaves are one `f64` per candidate; each run of
/// [`BLOCK`] contiguous candidates is summarised by its winner, and a
/// loser-free winner tree over the block winners yields the root. Blocks
/// keep path fixes cache resident: at 150k candidates the tree is 512 KB,
/// where one tree leaf per candidate would take 8 MB.
///
/// Re-keying a candidate writes its leaf, touches its block only when the
/// block's winner changes (a rescan when the winner itself did not
/// improve), and then fixes the block's path — branchless winner
/// recomputes with no swaps, no position index, and an early exit as soon
/// as a node is unchanged — where a lazy heap pays a full pop/push round
/// trip (sift plus stale-entry drain) per surfaced candidate. Leaves may
/// also be written in a batch ([`CandTournament::write`]) and the blocks
/// they touch re-summarised once ([`CandTournament::refix`]).
struct CandTournament {
    /// One value per local candidate.
    leaves: Vec<f64>,
    /// Block-winner count, `⌈candidates / BLOCK⌉` rounded up to a power of
    /// two.
    size: usize,
    /// Implicit winner tree: node `i`'s children are `2i` / `2i + 1`, block
    /// `b`'s winner at `size + b`, root at 1. Each node holds the winning
    /// `(value, cand)`.
    tree: Vec<(f64, u32)>,
}

impl CandTournament {
    fn new(leaves: Vec<f64>) -> Self {
        let mut tour = CandTournament {
            leaves,
            size: 0,
            tree: Vec::new(),
        };
        tour.rebuild();
        tour
    }

    /// Derives the whole tree from the leaves, reusing its buffer: after
    /// the leaves were rewritten wholesale for another shard.
    fn rebuild(&mut self) {
        let blocks = self.leaves.len().div_ceil(BLOCK);
        self.size = blocks.next_power_of_two().max(1);
        self.tree.clear();
        self.tree
            .resize(2 * self.size, (f64::NEG_INFINITY, u32::MAX));
        for b in 0..blocks {
            self.tree[self.size + b] = self.scan(b);
        }
        for i in (1..self.size).rev() {
            self.tree[i] = Self::winner(self.tree[2 * i], self.tree[2 * i + 1]);
        }
    }

    /// The selection order: maximum value, ties to the smaller candidate id.
    #[inline]
    fn winner(a: (f64, u32), b: (f64, u32)) -> (f64, u32) {
        if precedes(a, b) {
            a
        } else {
            b
        }
    }

    /// Block `b`'s winner: a forward scan with strict `>` keeps the smallest
    /// id among ties.
    #[inline]
    fn scan(&self, b: usize) -> (f64, u32) {
        let lo = b * BLOCK;
        let hi = (lo + BLOCK).min(self.leaves.len());
        let mut best = (self.leaves[lo], lo as u32);
        for c in lo + 1..hi {
            if self.leaves[c] > best.0 {
                best = (self.leaves[c], c as u32);
            }
        }
        best
    }

    /// Fixes the path above tree node `i`, stopping at the first unchanged
    /// node (its ancestors cannot change either).
    #[inline]
    fn fix_up(&mut self, mut i: usize) {
        while i > 1 {
            i /= 2;
            let w = Self::winner(self.tree[2 * i], self.tree[2 * i + 1]);
            if w == self.tree[i] {
                break;
            }
            self.tree[i] = w;
        }
    }

    /// Re-keys candidate `c`. The block's winner changes only when `c` now
    /// beats it, or when `c` was the winner (then the block is rescanned);
    /// otherwise nothing above the leaf moves.
    #[inline]
    fn update(&mut self, c: u32, value: f64) {
        self.leaves[c as usize] = value;
        let i = self.size + c as usize / BLOCK;
        let w = self.tree[i];
        if precedes((value, c), w) {
            self.tree[i] = (value, c);
        } else if w.1 == c {
            self.tree[i] = self.scan(c as usize / BLOCK);
        } else {
            return;
        }
        self.fix_up(i);
    }

    /// Writes candidate `c`'s leaf without touching the tree; the caller
    /// must [`CandTournament::refix`] a range covering `c` before the next
    /// [`CandTournament::root`] or [`CandTournament::update`].
    #[inline]
    fn write(&mut self, c: u32, value: f64) {
        self.leaves[c as usize] = value;
    }

    /// Re-summarises every block overlapping the non-empty candidate range
    /// `[lo, hi)` once and fixes its path.
    fn refix(&mut self, lo: u32, hi: u32) {
        for b in lo as usize / BLOCK..=(hi as usize - 1) / BLOCK {
            let w = self.scan(b);
            let i = self.size + b;
            if w != self.tree[i] {
                self.tree[i] = w;
                self.fix_up(i);
            }
        }
    }

    /// The current best `(value, candidate)`.
    #[inline]
    fn root(&self) -> (f64, u32) {
        self.tree[1]
    }
}

/// What one selection step did.
pub(crate) enum Step {
    /// A triple was committed; `marginal` is its realised marginal revenue.
    Inserted { z: Triple, marginal: f64 },
    /// Bookkeeping only (slot blocked, candidate retired, or re-evaluated).
    Continue,
    /// The root move reached a commit point its [`Capacity`] cannot decide
    /// alone (the concurrent executor's scarce window). The shard is
    /// untouched — the move stays at the tree root, the engine is not
    /// mutated — until [`ShardCore::admit`] or [`ShardCore::reject`];
    /// `t_idx` is the commit's time index.
    Park { t_idx: usize },
}

/// What a [`Capacity`] decided at a fresh root move's commit point.
pub(crate) enum Commit {
    /// The capacity side is settled: insert the move.
    Insert,
    /// Park the move for arbitration (see [`Step::Park`]).
    Park,
}

/// Where a shard's capacity lives — the one thing that differs between the
/// one-shard driver (the engine's own counters, [`EngineCapacity`]) and the
/// concurrent executor's shards (the shared ledger under the scarcity
/// window, through `crate::protocol`).
pub(crate) trait Capacity {
    /// Whether the capacity gate retires `cand`, whose slot `t` is
    /// display-feasible. `counted` is whether the candidate's (user, item)
    /// pair has already claimed in a shared ledger.
    fn blocked<'a, E: RevenueEngine<'a>>(
        &self,
        inc: &E,
        counted: bool,
        cand: CandidateId,
        t: TimeStep,
    ) -> bool;

    /// The capacity side of committing a fresh root move of `cand`.
    fn commit(&self, counted: &mut bool, cand: CandidateId) -> Commit;

    /// `cand` died without a claim: retired by the capacity gate, or left
    /// with no live slot by display fills.
    #[inline]
    fn retired(&self, counted: bool, cand: CandidateId) {
        let _ = (counted, cand);
    }
}

/// A one-shard plan's capacity: the engine's own counters, which see every
/// user.
pub(crate) struct EngineCapacity;

impl Capacity for EngineCapacity {
    #[inline]
    fn blocked<'a, E: RevenueEngine<'a>>(
        &self,
        inc: &E,
        _counted: bool,
        cand: CandidateId,
        t: TimeStep,
    ) -> bool {
        inc.would_violate_cand(cand, t)
    }

    #[inline]
    fn commit(&self, _counted: &mut bool, _cand: CandidateId) -> Commit {
        Commit::Insert
    }
}

/// One user shard's selection state over one time window: an engine view
/// over the shard, its [`CandidateTable`], a [`CandTournament`] over the
/// candidate roots, and a cached argmax time per candidate (the matching
/// value lives in the tournament leaf; together they mirror `table.best`
/// exactly).
///
/// Selection is O(1) at the tree root, and every constraint block, stale
/// refresh or insertion re-keys one leaf (at most a 16-leaf block rescan
/// plus a path fix in the small block-winner tree). A display fill blocks
/// the filled `(user, t)` column across the user's contiguous candidate
/// range at once — users never straddle shards, and display counts never
/// decrease, so the block is final — rewriting the leaves it hits and then
/// re-summarising each leaf block under the range once; capacity
/// exhaustion retires the whole candidate row. A stale root is re-evaluated
/// over all its live time slots in one fused kernel pass; after the re-key
/// the next stale candidate is back at the root in O(1).
///
/// The core selects the sequence of a naive lazy-forward loop exactly: take
/// the argmax of the cached values, in (value desc, candidate id asc)
/// order, and drop, refresh or commit it. Cached values evolve identically
/// (marginals depend only on the candidate's own (user, class) group
/// state, refreshed under the same lazy-forward stamps). Like lazy forward
/// itself, the equivalence is asserted empirically: the kernel parity
/// suite pins every plan bit for bit against such loops, kept as test
/// oracles for G-Greedy and for SL-Greedy.
pub(crate) struct ShardCore<'a, E> {
    inst: &'a Instance,
    /// First global candidate id of the shard; local index `c` is global
    /// candidate `start + c`.
    start: u32,
    pub(crate) inc: E,
    table: CandidateTable,
    tour: CandTournament,
    /// Cached argmax time index per local candidate.
    best_t: Vec<u32>,
    /// Per local candidate: the (user, item) pair already claimed in a
    /// shared ledger (unused by [`EngineCapacity`]).
    counted: Vec<bool>,
}

impl<'a, E: RevenueEngine<'a>> ShardCore<'a, E> {
    /// Starts selecting over the time steps in `window` from `inc`, which
    /// may already hold selections; `cold` says that it holds none of the
    /// shard's users' (see [`CandidateTable::fill`]). The fill's marginal
    /// evaluations are added to `evals`.
    pub(crate) fn new(
        inst: &'a Instance,
        inc: E,
        shard: UserShard,
        window: RangeInclusive<u32>,
        cold: bool,
        parallel: bool,
        evals: &mut u64,
    ) -> Self {
        let mut core = ShardCore {
            inst,
            start: shard.cand_start(),
            inc,
            table: CandidateTable::default(),
            tour: CandTournament::new(Vec::new()),
            best_t: Vec::new(),
            counted: Vec::new(),
        };
        core.reset(shard, &window, cold, parallel, evals);
        core
    }

    /// Points the core at another shard of its engine, as
    /// [`ShardCore::new`] would start it, but refilling the table, the
    /// tournament and the per-candidate state in place: a run over many
    /// small shards allocates nothing once the buffers have grown.
    pub(crate) fn reset(
        &mut self,
        shard: UserShard,
        window: &RangeInclusive<u32>,
        cold: bool,
        parallel: bool,
        evals: &mut u64,
    ) {
        self.start = shard.cand_start();
        self.table
            .fill(&self.inc, shard, window, cold, parallel, evals);
        let n = shard.num_candidates();
        self.best_t.clear();
        self.best_t.resize(n, 0);
        self.tour.leaves.clear();
        for c in 0..n {
            let root = match self.table.best(c as u32) {
                Some((t, v)) => {
                    self.best_t[c] = t as u32;
                    v
                }
                None => f64::NEG_INFINITY,
            };
            self.tour.leaves.push(root);
        }
        self.tour.rebuild();
        self.counted.clear();
        self.counted.resize(n, false);
    }

    /// The selection loop: resolves root moves until no candidate has a
    /// positive value left or every display slot of the instance is
    /// taken, with capacity read from the engine's own counters. Marginal
    /// evaluations are added to `evals`, and `on_insert` sees the engine
    /// after each insertion, with the insertion's record.
    pub(crate) fn run(&mut self, evals: &mut u64, mut on_insert: impl FnMut(&E, Insertion)) {
        let total_slots = self.inst.total_slots();
        let mut floor = (f64::INFINITY, 0);
        while (self.inc.len() as u64) < total_slots {
            let Some(root) = self.lead() else { break };
            if precedes(floor, root) {
                floor = root;
            }
            if let Step::Inserted { z, marginal } = self.step(&EngineCapacity, evals) {
                on_insert(&self.inc, Insertion { z, marginal, floor });
            }
        }
    }

    /// The shard's pending move as `(value, global candidate id)`, or `None`
    /// when no candidate has a positive value left.
    #[inline]
    pub(crate) fn lead(&self) -> Option<(f64, u32)> {
        let (v, local) = self.tour.root();
        if v > 0.0 {
            Some((v, self.start + local))
        } else {
            None
        }
    }

    /// Resolves the root move one step: block its display-full slot, retire
    /// it on capacity, re-evaluate it when stale, or commit it. The caller
    /// must have checked [`ShardCore::lead`] (and, across shards, that this
    /// shard leads).
    pub(crate) fn step<C: Capacity>(&mut self, cap: &C, evals: &mut u64) -> Step {
        let (value, local) = self.tour.root();
        let t_idx = self.best_t[local as usize] as usize;
        let cand = CandidateId(self.start + local);
        let t = TimeStep::from_index(t_idx);
        // A root out of step with its row would be selected (or refreshed)
        // forever; fail loudly instead.
        debug_assert_eq!(
            value,
            self.table.values[self.table.slot(local, t_idx)],
            "tournament root {local} disagrees with its table row"
        );

        if self.inc.would_violate_display_cand(cand, t) {
            // The (user, t) slot is full: dead for this candidate, other
            // time steps may still be fine. (Only displays filled before
            // the window started reach this branch — fills during the run
            // block eagerly in `insert`.)
            self.table.block(local, t_idx);
            self.refresh_leaf(local, cap);
            return Step::Continue;
        }
        let counted = self.counted[local as usize];
        if cap.blocked(&self.inc, counted, cand, t) {
            // Capacity exhausted by other users: the whole candidate dies
            // (exempt users never violate capacity, so this is permanent).
            self.retire(local);
            cap.retired(counted, cand);
            return Step::Continue;
        }

        // Lazy forward: the cached value is fresh while the flag matches
        // |set(u, C(i))|.
        let stamp = self.inc.group_size_cand(cand) as u32;
        if self.table.flags[self.table.slot(local, t_idx)] != stamp {
            // Stale root: re-evaluate this candidate's live slots in one
            // fused kernel pass, then fix its path.
            *evals += self.table.reevaluate(&self.inc, local, cand, stamp);
            self.refresh_leaf(local, cap);
            return Step::Continue;
        }
        match cap.commit(&mut self.counted[local as usize], cand) {
            Commit::Park => Step::Park { t_idx },
            Commit::Insert => {
                let (z, marginal) = self.insert(cap, local, t_idx);
                Step::Inserted { z, marginal }
            }
        }
    }

    /// Commits a parked root move whose claim the coordinator admitted (the
    /// ledger side is settled): exactly the insertion `step` would have
    /// made, since nothing in the shard moved while it was parked.
    pub(crate) fn admit<C: Capacity>(&mut self, cap: &C, t_idx: usize) -> (Triple, f64) {
        let local = self.tour.root().1;
        self.counted[local as usize] = true;
        self.insert(cap, local, t_idx)
    }

    /// Retires a parked root move whose claim the coordinator rejected (the
    /// item is full for its pair; the coordinator retired the demand).
    pub(crate) fn reject(&mut self) {
        self.retire(self.tour.root().1);
    }

    /// Kills a candidate: its leaf, and its table row too — otherwise a
    /// later column block would treat the row as live.
    fn retire(&mut self, local: u32) {
        self.table.retire(local);
        self.tour.update(local, f64::NEG_INFINITY);
    }

    fn insert<C: Capacity>(&mut self, cap: &C, local: u32, t_idx: usize) -> (Triple, f64) {
        let cand = CandidateId(self.start + local);
        let t = TimeStep::from_index(t_idx);
        let marginal = self.inc.insert_cand(cand, t);
        self.table.block(local, t_idx);
        let user = self.inst.candidate_user(cand);
        if self.inc.would_violate_display_cand(cand, t) {
            // This insertion filled the (user, t) display slot: block the t
            // column across the user's candidate range now. A candidate
            // whose cached argmax sat elsewhere keeps its root (blocking a
            // non-argmax slot cannot change the forward-scan argmax), so
            // only argmax hits rewrite their leaf; the blocks under the
            // user's range are then re-summarised once, together with the
            // inserted candidate's own leaf.
            let offsets = self.inst.user_cand_offsets();
            let lo = offsets[user.index()] - self.start;
            let hi = offsets[user.index() + 1] - self.start;
            for c in lo..hi {
                if self.table.block(c, t_idx) && self.best_t[c as usize] as usize == t_idx {
                    let v = self.row_root(c, cap);
                    self.tour.write(c, v);
                }
            }
            let v = self.row_root(local, cap);
            self.tour.write(local, v);
            self.tour.refix(lo, hi);
        } else {
            self.refresh_leaf(local, cap);
        }
        let item = self.inst.candidate_item(cand);
        (Triple { user, item, t }, marginal)
    }

    /// Re-keys one candidate's tournament leaf after its table row changed.
    #[inline]
    fn refresh_leaf<C: Capacity>(&mut self, c: u32, cap: &C) {
        let v = self.row_root(c, cap);
        self.tour.update(c, v);
    }

    /// Re-derives one candidate's root `(value, argmax t)` from its table
    /// row, caching the argmax and returning the leaf value. A row left with
    /// no live slot retires the candidate.
    #[inline]
    fn row_root<C: Capacity>(&mut self, c: u32, cap: &C) -> f64 {
        match self.table.best(c) {
            Some((t, v)) => {
                self.best_t[c as usize] = t as u32;
                v
            }
            None => {
                cap.retired(self.counted[c as usize], CandidateId(self.start + c));
                f64::NEG_INFINITY
            }
        }
    }
}

/// One insertion of a selection run: the triple, its realised marginal,
/// and the run's floor when it was made — the [`precedes`]-minimum of every
/// root key the run had stepped on so far.
pub(crate) struct Insertion {
    pub(crate) z: Triple,
    pub(crate) marginal: f64,
    floor: (f64, u32),
}

/// Greedily extends the selections `inc` holds with triples of the shard's
/// users whose time step lies in `window` ([`ShardCore::run`]), and returns
/// the extended engine. The fill is cold when `inc` is empty. Marginal
/// evaluations are added to `evals`, and `on_insert` sees the engine after
/// each insertion.
pub(crate) fn run_window<'a, E: RevenueEngine<'a>>(
    inst: &'a Instance,
    inc: E,
    shard: UserShard,
    window: RangeInclusive<u32>,
    parallel: bool,
    evals: &mut u64,
    on_insert: impl FnMut(&E, Insertion),
) -> E {
    let cold = inc.is_empty();
    let mut core = ShardCore::new(inst, inc, shard, window, cold, parallel, evals);
    core.run(evals, on_insert);
    core.inc
}

/// A G-Greedy outcome under construction: the strategy, the objective
/// folded from 0.0 and, when traced, the objective after each insertion,
/// all in plan order.
struct PlanLog {
    strategy: Strategy,
    objective: f64,
    trace: Option<Vec<f64>>,
}

impl PlanLog {
    fn new(cfg: &PlannerConfig, capacity: usize) -> Self {
        PlanLog {
            strategy: Strategy::with_capacity(capacity),
            objective: 0.0,
            trace: cfg.track_trace.then(|| Vec::with_capacity(capacity)),
        }
    }

    fn push(&mut self, ins: &Insertion) {
        self.objective += ins.marginal;
        if let Some(trace) = self.trace.as_mut() {
            trace.push(self.objective);
        }
        self.strategy.insert(ins.z);
    }

    fn finish(self, inst: &Instance, ignore_saturation: bool, evals: u64) -> GreedyOutcome {
        let trace = self.trace.unwrap_or_default();
        outcome(
            inst,
            ignore_saturation,
            self.strategy,
            self.objective,
            trace,
            evals,
        )
    }
}

/// The one-shard G-Greedy plan: user by user ([`per_user_plan`]) when no
/// item is scarce before any claim ([`sharded::any_item_scarce`]), the
/// whole-instance loop ([`whole_instance_plan`]) otherwise. Both are the
/// whole-instance outcome bit for bit.
pub(crate) fn one_shard_plan<'a, E: RevenueEngine<'a>>(
    inst: &'a Instance,
    cfg: &PlannerConfig,
    delta: Option<&ResidualDelta>,
) -> GreedyOutcome {
    if sharded::any_item_scarce(inst) {
        whole_instance_plan::<E>(inst, cfg, delta)
    } else {
        per_user_plan::<E>(inst, cfg, delta, &plan_shards(inst, cfg))
    }
}

/// The whole-instance G-Greedy loop: one window over the whole horizon and
/// every user, on one engine whose own counters hold capacity. With
/// `parallel`, its table fill may fork.
fn whole_instance_plan<'a, E: RevenueEngine<'a>>(
    inst: &'a Instance,
    cfg: &PlannerConfig,
    delta: Option<&ResidualDelta>,
) -> GreedyOutcome {
    let ignore_saturation = cfg.ignores_saturation();
    let shard = inst.full_shard();
    let inc: E = make_engine(inst, ignore_saturation, shard, cfg, delta);
    let mut evals = 0u64;
    let mut log = PlanLog::new(cfg, 0);
    let window = 1..=inst.horizon();
    let parallel = cfg.parallel_init();
    let inc = run_window(inst, inc, shard, window, parallel, &mut evals, |_, ins| {
        log.push(&ins)
    });
    inc.release();
    log.finish(inst, ignore_saturation, evals)
}

/// The CPU shards of a per-user plan: one per CPU when `parallel` is on,
/// the host has two or more CPUs and the plan holds at least
/// [`FORK_SLOTS`] live slots; one shard of every user otherwise.
fn plan_shards(inst: &Instance, cfg: &PlannerConfig) -> Vec<UserShard> {
    let slots = inst.num_candidates() * inst.horizon() as usize;
    let workers = if cfg.parallel_init() && slots >= FORK_SLOTS {
        par::worker_count(inst.num_users() as usize)
    } else {
        1
    };
    sharded::shard_users(inst, workers)
}

/// G-Greedy one user at a time, for an instance in which no item is
/// scarce. Each of the CPU `shards` builds one engine over its users — the
/// first on the calling thread, the rest on a scoped pool — and runs the
/// selection core over each user's candidates in turn, refilling one set of
/// table and tournament buffers ([`ShardCore::reset`]). A user's fill is
/// cold: the engine holds other users' picks but none of this user's, so
/// `q · p` at stamp 0 is every slot's marginal, exactly as on the
/// whole-instance loop's empty engine, and costs no evaluation.
///
/// No capacity gate can close, so each user's steps are the
/// whole-instance run's steps restricted to that user, and the runs'
/// insertions sorted by floor are the whole-instance order: each CPU shard
/// sorts its own ([`sort_by_floor`]) on its thread, and the calling thread
/// merges the shards' sorted runs ([`merge_by_floor`]). The strategy and
/// trace follow that order, the revenue is folded from 0.0 in it, and the
/// evaluation counts are summed: the outcome is the whole-instance outcome
/// bit for bit. (Under eager re-evaluation only the evaluation count can
/// differ; see [`crate::sharded`].)
fn per_user_plan<'a, E: RevenueEngine<'a>>(
    inst: &'a Instance,
    cfg: &PlannerConfig,
    delta: Option<&ResidualDelta>,
    shards: &[UserShard],
) -> GreedyOutcome {
    let ignore_saturation = cfg.ignores_saturation();
    let window = 1..=inst.horizon();
    let run = |shard: UserShard| {
        let inc: E = make_engine(inst, ignore_saturation, shard, cfg, delta);
        let mut evals = 0u64;
        let no_users = inst.user_shard(shard.user_start(), shard.user_start());
        let mut core = ShardCore::new(inst, inc, no_users, window.clone(), true, false, &mut evals);
        let mut insertions = Vec::new();
        for user in shard.user_start()..shard.user_end() {
            let one = inst.user_shard(user, user + 1);
            if one.num_candidates() > 0 {
                core.reset(one, &window, true, false, &mut evals);
                core.run(&mut evals, |_, ins| insertions.push(ins));
            }
        }
        let order = sort_by_floor(&insertions);
        (core.inc, insertions, order, evals)
    };
    let (first, rest) = shards
        .split_first()
        .expect("a plan covers one shard or more");
    let (others, own) = par::scoped_pool(rest.len(), |tid| run(rest[tid]), || run(*first));

    let mut insertions = Vec::new();
    let mut orders = Vec::with_capacity(shards.len());
    let mut evals = 0;
    for (inc, shard_insertions, mut order, shard_evals) in std::iter::once(own).chain(others) {
        // Engines are released on the calling thread, in shard order, so
        // warm-started ones return their buffers to the session pool in a
        // fixed order.
        inc.release();
        // Index bits now address the concatenation of the shards'
        // insertions.
        let offset = insertions.len() as u128;
        order.iter_mut().for_each(|key| *key += offset);
        insertions.extend(shard_insertions);
        orders.push(order);
        evals += shard_evals;
    }
    let mut log = PlanLog::new(cfg, insertions.len());
    for key in merge_by_floor(orders) {
        log.push(&insertions[key as u32 as usize]);
    }
    log.finish(inst, ignore_saturation, evals)
}

/// Puts user runs' insertions, concatenated run by run, into the order in
/// which one run over all their users makes them. That run's root is the
/// [`precedes`]-maximum of the user roots, so it steps the users in turn,
/// each time the one whose root leads. When a user's step sets its floor
/// `f`, that user leads every other root; its next steps keep keys not
/// below `f` until one sets a lower floor, and the other roots stay put
/// meanwhile. So every step runs while the other users' roots, and with
/// them all their later floors, lie below its own floor: the one run
/// orders steps by floor, greatest first. Floors never rise within a run
/// and never tie across runs (each is the key of a candidate of its
/// user), so a stable sort by floor, greatest first, keeps each run's own
/// order and reproduces the one run's.
///
/// The sort runs on one integer key per insertion: a floor's value is
/// positive (only a positive root is stepped on), so its bit pattern
/// orders like the value, and the key packs the complemented bits, the
/// candidate id and the insertion's index (which keeps the sort stable).
/// Returns the keys in that order; a key's low 32 bits are its index.
fn sort_by_floor(insertions: &[Insertion]) -> Vec<u128> {
    let mut keys: Vec<u128> = insertions
        .iter()
        .enumerate()
        .map(|(i, ins)| {
            let (value, cand) = ins.floor;
            debug_assert!(value > 0.0, "a floor is a positive root key");
            (u128::from(!value.to_bits()) << 64) | (u128::from(cand) << 32) | i as u128
        })
        .collect();
    keys.sort_unstable();
    keys
}

/// Merges the CPU shards' keys, each shard's sorted by [`sort_by_floor`]
/// (index bits pointing into the concatenation of the shards'
/// insertions), into the order of one run over all their users, two runs
/// at a time: `O(n log k)` for `k` shards. A floor is the key of a
/// candidate of the shard's own users, so two shards' keys always differ
/// above their index bits, and the merge is the sort of all shards'
/// insertions together.
fn merge_by_floor(mut runs: Vec<Vec<u128>>) -> Vec<u128> {
    while runs.len() > 1 {
        let mut merged = Vec::with_capacity(runs.len().div_ceil(2));
        let mut pairs = runs.into_iter();
        while let Some(a) = pairs.next() {
            merged.push(match pairs.next() {
                Some(b) => merge_two(&a, &b),
                None => a,
            });
        }
        runs = merged;
    }
    runs.pop().unwrap_or_default()
}

/// Merges two sorted runs of distinct keys.
fn merge_two(a: &[u128], b: &[u128]) -> Vec<u128> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let take_a = a[i] < b[j];
        out.push(if take_a { a[i] } else { b[j] });
        i += usize::from(take_a);
        j += usize::from(!take_a);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Assembles a greedy outcome; `GlobalNo` plans report the true revenue of
/// the strategy, not the saturation-blind objective they selected by.
pub(crate) fn outcome(
    inst: &Instance,
    ignore_saturation: bool,
    strategy: Strategy,
    selection_objective: f64,
    trace: Vec<f64>,
    marginal_evaluations: u64,
) -> GreedyOutcome {
    let revenue = if ignore_saturation {
        revenue(inst, &strategy)
    } else {
        selection_objective
    };
    GreedyOutcome {
        strategy,
        revenue,
        selection_objective,
        trace,
        marginal_evaluations,
        concurrency: Default::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use revmax_core::{
        marginal_revenue, residual_of_validated, AdoptionEvent, EngineSnapshot, IncrementalRevenue,
        InstanceBuilder,
    };
    use revmax_oracle::{Eager, HashIncrementalRevenue};

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

    /// The blocked tournament against an O(n) argmax over its leaves, on
    /// sizes around the block width and one with a ragged last block: a
    /// seeded stream mixes single re-keys with batched leaf writes plus a
    /// refix over ranges that cross block boundaries. Values come from a
    /// small set, so ties are common, plus `NEG_INFINITY`. After every op
    /// the root is the [`precedes`]-maximal leaf whenever some leaf is
    /// finite, and `NEG_INFINITY` otherwise.
    #[test]
    fn tournament_op_stream_matches_the_naive_argmax() {
        const VALUES: [f64; 7] = [f64::NEG_INFINITY, -1.0, 0.0, 0.25, 0.5, 1.0, 2.0];
        for n in [0u32, 1, 15, 16, 17, 1003] {
            let mut x = 0x243F_6A88_85A3_08D3u64 ^ u64::from(n);
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let draw = |next: &mut dyn FnMut() -> u64| VALUES[(next() % 7) as usize];
            let mut leaves: Vec<f64> = (0..n).map(|_| draw(&mut next)).collect();
            let mut tour = CandTournament::new(leaves.clone());
            for step in 0..3000 {
                let best = leaves
                    .iter()
                    .enumerate()
                    .map(|(c, &v)| (v, c as u32))
                    .filter(|&(v, _)| v.is_finite())
                    .fold(None, |best, e| match best {
                        Some(b) if precedes(b, e) => Some(b),
                        _ => Some(e),
                    });
                match best {
                    Some(best) => assert_eq!(tour.root(), best, "n {n} step {step}"),
                    None => assert_eq!(tour.root().0, f64::NEG_INFINITY, "n {n} step {step}"),
                }
                if n == 0 {
                    break;
                }
                if next() % 3 < 2 {
                    let c = (next() % u64::from(n)) as u32;
                    let v = draw(&mut next);
                    leaves[c as usize] = v;
                    tour.update(c, v);
                } else {
                    let lo = (next() % u64::from(n)) as u32;
                    let hi = (lo + 1 + (next() % (3 * BLOCK as u64)) as u32).min(n);
                    for c in lo..hi {
                        if next() % 2 == 0 {
                            let v = draw(&mut next);
                            leaves[c as usize] = v;
                            tour.write(c, v);
                        }
                    }
                    tour.refix(lo, hi);
                }
            }
        }
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
        let out = crate::plan(&inst, &PlannerConfig::default().with_track_trace(true));
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
        let flat = crate::plan(&inst, &PlannerConfig::default());
        let hash =
            crate::plan_with::<HashIncrementalRevenue<'_>>(&inst, &PlannerConfig::default(), None);
        assert!((flat.revenue - hash.revenue).abs() < 1e-9);
        assert_eq!(flat.strategy.len(), hash.strategy.len());
        for z in flat.strategy.iter() {
            assert!(hash.strategy.contains(z), "strategies diverged at {z}");
        }
    }

    #[test]
    fn lazy_forward_does_not_change_the_result_but_saves_evaluations() {
        let ds = revmax_data::generate(&revmax_data::DatasetConfig::tiny());
        let cfg = PlannerConfig::default();
        let lazy = crate::plan(&ds.instance, &cfg);
        let eager = crate::plan_with::<Eager<IncrementalRevenue<'_>>>(&ds.instance, &cfg, None);
        assert!((lazy.revenue - eager.revenue).abs() < 1e-9);
        assert_eq!(lazy.strategy.len(), eager.strategy.len());
        assert!(
            lazy.marginal_evaluations < eager.marginal_evaluations,
            "lazy {} vs eager {} evaluations",
            lazy.marginal_evaluations,
            eager.marginal_evaluations
        );
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

    /// A small instance in which no item is scarce: 5–8 users, so that five
    /// CPU shards can be cut; 3–6 items; horizons 2–5; each class
    /// uniform-β, mixed-β, β = 1 or β = 0. Candidate counts are uneven:
    /// each user keeps an item with probability 0.3, 0.7 or 1, and about
    /// one user in six after user 0 has no candidate at all. Each item's
    /// capacity lies between its candidate demand and the user count. With
    /// `twins`, every user with candidates has user 0's candidate rows, so
    /// marginals tie across users and candidate ids decide.
    fn abundant_instance(rng: &mut StdRng, twins: bool) -> Instance {
        let users = rng.gen_range(5u32..=8);
        let items = rng.gen_range(3u32..=6);
        let horizon = rng.gen_range(2u32..=5);
        let classes: Vec<Option<f64>> = (0..rng.gen_range(2..=3))
            .map(|_| {
                [Some(rng.gen_range(0.2..=0.95)), None, Some(1.0), Some(0.0)][rng.gen_range(0..4)]
            })
            .collect();
        let mut b = InstanceBuilder::new(users, items, horizon);
        b.display_limit(rng.gen_range(1u32..=2));
        let mut demand = vec![0u32; items as usize];
        let mut first_rows: Vec<Option<Vec<f64>>> = Vec::new();
        for user in 0..users {
            let keep = if user > 0 && rng.gen_bool(1.0 / 6.0) {
                0.0
            } else {
                [0.3, 0.7, 1.0][rng.gen_range(0..3)]
            };
            for item in 0..items {
                let row = if keep == 0.0 {
                    None
                } else if twins && user > 0 {
                    first_rows[item as usize].clone()
                } else {
                    rng.gen_bool(keep)
                        .then(|| (0..horizon).map(|_| rng.gen_range(0.05..0.8)).collect())
                };
                if let Some(probs) = &row {
                    b.candidate(user, item, probs, probs[0] * 5.0);
                    demand[item as usize] += 1;
                }
                if user == 0 {
                    first_rows.push(row);
                }
            }
        }
        for item in 0..items {
            let class = rng.gen_range(0..classes.len());
            let beta = classes[class].unwrap_or_else(|| rng.gen_range(0.1..=1.0));
            let prices: Vec<f64> = (0..horizon).map(|_| rng.gen_range(5.0..50.0)).collect();
            b.item_class(item, class as u32)
                .beta(item, beta)
                .capacity(item, rng.gen_range(demand[item as usize]..=users))
                .prices(item, &prices);
        }
        b.build().unwrap()
    }

    /// A display prefix up to `now`: each user sees up to the display limit
    /// of distinct random items per step, and adopts about a third.
    fn random_events(rng: &mut StdRng, inst: &Instance, now: u32) -> Vec<AdoptionEvent> {
        let mut events = Vec::new();
        for t in 1..=now {
            for user in 0..inst.num_users() {
                let mut shown: Vec<u32> = Vec::new();
                for _ in 0..inst.display_limit() {
                    let item = rng.gen_range(0..inst.num_items());
                    if !shown.contains(&item) {
                        shown.push(item);
                        events.push(if rng.gen_bool(0.3) {
                            AdoptionEvent::adopted(user, item, t)
                        } else {
                            AdoptionEvent::rejected(user, item, t)
                        });
                    }
                }
            }
        }
        events
    }

    /// The per-user G-Greedy plan of `inst` on engine `E`, on 1, 2, 3 and 5
    /// CPU shards, against the whole-instance loop: the revenue bits, the
    /// strategy in insertion order and the trace bits, and with `counted`
    /// the marginal evaluation count. Returns the number of per-user plans
    /// compared.
    fn per_user_vs_whole_instance<'a, E: RevenueEngine<'a>>(
        label: &str,
        inst: &'a Instance,
        cfg: &PlannerConfig,
        delta: Option<&ResidualDelta>,
        counted: bool,
    ) -> u32 {
        let whole = whole_instance_plan::<E>(inst, cfg, delta);
        let mut plans = 0;
        for pieces in [1, 2, 3, 5] {
            let shards = sharded::shard_users(inst, pieces);
            let per_user = per_user_plan::<E>(inst, cfg, delta, &shards);
            plans += 1;
            let label = format!("{label}, {} CPU shards", shards.len());
            assert_eq!(
                per_user.revenue.to_bits(),
                whole.revenue.to_bits(),
                "{label}: revenue"
            );
            assert_eq!(
                per_user.strategy.as_slice(),
                whole.strategy.as_slice(),
                "{label}: strategy"
            );
            let bits = |o: &GreedyOutcome| o.trace.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&per_user), bits(&whole), "{label}: trace");
            assert!(
                !whole.trace.is_empty() || whole.strategy.is_empty(),
                "{label}: untraced"
            );
            if counted {
                assert_eq!(
                    per_user.marginal_evaluations, whole.marginal_evaluations,
                    "{label}: marginal evaluations"
                );
            }
            assert_eq!(
                per_user.concurrency,
                ConcurrencyStats::default(),
                "{label}: executor statistics"
            );
        }
        plans
    }

    /// The per-user path is exact wherever no item is scarce: on abundant
    /// instances (a quarter with twin users, all with uneven candidate
    /// counts and some users without candidates), G-Greedy and GG-No,
    /// traced, cold and on warm residuals with exempt pairs, per-user plans
    /// on 1, 2, 3 and 5 CPU shards equal the whole-instance loop on the flat
    /// and hash engines, evaluation count included. Under eager
    /// re-evaluation, whose stamps count an engine's selections of every
    /// user it holds, the plan is equal and only the count may differ. A
    /// floor differs from the root key of its step only after a
    /// re-evaluation raised a cached marginal (the non-submodular corner of
    /// docs/submodularity.md); sorting by the raw root key instead first
    /// fails case 49 (strategy order), concatenating the user runs case 0
    /// (strategy order), and counting a per-user cold fill as evaluations
    /// case 0 (evaluation count).
    #[test]
    fn split_plans_are_the_one_shard_plan() {
        let mut rng = StdRng::seed_from_u64(0x5711_7a11);
        // Per-user plans compared, cold and on warm residuals.
        let mut per_user = [0u32; 2];
        for case in 0..1000u32 {
            let inst = abundant_instance(&mut rng, case % 4 == 3);
            assert!(!sharded::any_item_scarce(&inst), "case {case}: scarce item");
            let now = rng.gen_range(1..inst.horizon());
            let events = random_events(&mut rng, &inst, now);
            let residual = residual_of_validated(&inst, &events, now);
            assert!(residual.has_exemptions(), "case {case}: no exempt pair");
            let delta = ResidualDelta::initial(EngineSnapshot::new());
            for algorithm in [
                crate::PlanAlgorithm::GlobalGreedy,
                crate::PlanAlgorithm::GlobalNoSaturation,
            ] {
                let cfg = PlannerConfig::default()
                    .with_algorithm(algorithm)
                    .with_track_trace(true);
                let mut phases = vec![(0, &inst, cfg, None)];
                // Displays to users without the item's candidate can leave
                // a residual item scarce; the per-user path never plans
                // those.
                if !sharded::any_item_scarce(&residual) {
                    phases.push((1, &residual, cfg.with_warm_start(true), Some(&delta)));
                }
                for (phase, target, cfg, delta) in phases {
                    let label =
                        |engine| format!("case {case} {algorithm:?} phase {phase} {engine}");
                    type Flat<'a> = IncrementalRevenue<'a>;
                    type Hash<'a> = HashIncrementalRevenue<'a>;
                    per_user[phase] += per_user_vs_whole_instance::<Flat<'_>>(
                        &label("flat"),
                        target,
                        &cfg,
                        delta,
                        true,
                    );
                    per_user_vs_whole_instance::<Hash<'_>>(
                        &label("hash"),
                        target,
                        &cfg,
                        delta,
                        true,
                    );
                    per_user_vs_whole_instance::<Eager<Flat<'_>>>(
                        &label("eager"),
                        target,
                        &cfg,
                        delta,
                        false,
                    );
                }
            }
        }
        assert_eq!(per_user[0], 8000, "cold per-user plans");
        assert!(
            per_user[1] >= 5000,
            "only {} warm per-user plans",
            per_user[1]
        );
    }

    /// The scarcity rule at its boundary: demand equal to capacity is
    /// abundant, one candidate more is scarce, and an exempt pair's
    /// candidate is not demand.
    #[test]
    fn scarcity_rule_counts_non_exempt_demand_against_capacity() {
        let instance = |capacity: u32, exempt: bool| {
            let mut b = InstanceBuilder::new(3, 2, 1);
            b.capacity(0, capacity)
                .capacity(1, 3)
                .constant_price(0, 1.0)
                .constant_price(1, 1.0);
            for user in 0..3 {
                b.candidate(user, 0, &[0.5], 0.0)
                    .candidate(user, 1, &[0.5], 0.0);
            }
            if exempt {
                b.exempt_user(0, 2);
            }
            b.build().unwrap()
        };
        assert!(
            !sharded::any_item_scarce(&instance(3, false)),
            "demand = capacity"
        );
        assert!(
            sharded::any_item_scarce(&instance(2, false)),
            "demand = capacity + 1"
        );
        assert!(
            !sharded::any_item_scarce(&instance(2, true)),
            "exempt pair counted"
        );
        assert!(sharded::any_item_scarce(&instance(1, true)));
    }
}
