//! The shard-partitioned planning core.
//!
//! The REVMAX objective decomposes per user — memory, saturation, and
//! competition all act inside one user's (user, class) groups — and the
//! display constraint is per (user, time). The *only* cross-user coupling is
//! item capacity. This module partitions the users into CSR-aligned shards
//! ([`shard_users`]), gives each shard its own engine view
//! ([`revmax_core::RevenueEngine::for_shard`]), candidate table, and heap,
//! and couples the shards exclusively through a [`SharedCapacityLedger`].
//!
//! # Determinism: value-ordered claim arbitration
//!
//! Capacity claims are *order-sensitive*: the sequential greedy grants an
//! item's last capacity unit to whichever candidate surfaces first, i.e. in
//! descending marginal-revenue order. A free-running optimistic shard race
//! would grant claims in scheduler order — nondeterministic and generally
//! different from the sequential plan. (Empirically this matters: on
//! `amazon_like().scaled(0.02)` the sequential G-Greedy plan ends with
//! roughly half of all items exactly at capacity.)
//!
//! The coordinator therefore performs a *deterministic reconciliation* of
//! the shard frontiers. Every shard keeps its best pending move **pre-popped
//! out of its heap** in a held slot, so the coordinator's arbitration is a
//! scan over plain `(value, candidate id)` pairs: it repeatedly advances the
//! shard whose held move is globally maximal (ties towards the smaller
//! candidate id — the same total order as the sequential heap), and that
//! shard then refreshes its held move with exactly one heap
//! update-or-remove plus one pop — the identical heap traffic the
//! sequential driver pays per step. Capacity is claimed through the shared
//! ledger at the moment a move is committed, so claims are granted in
//! exactly the order the sequential run grants them, independent of thread
//! scheduling.
//!
//! The sharded plan is consequently not merely "close": the selection
//! sequence is identical triple for triple, and the reported revenue is the
//! same fold of the same realised marginals (engine marginals are
//! bit-identical because each user's group state only depends on that
//! user's own picks). The engine-parity suite asserts agreement with the
//! sequential flat plan to `1e-9` at 1, 2, and 7 shards, for both engines.
//!
//! What the shards buy, given the arbitration itself is sequential:
//!
//! * **near-free coordination** — the held-move rotation keeps per-step heap
//!   work identical to the sequential driver, with per-shard heaps
//!   `shards`× smaller;
//! * **construction parallelism** — shard engines and tables are built
//!   concurrently by scoped workers when hardware parallelism is available
//!   (bit-identical to the sequential build, which the tests assert);
//! * **bounded per-worker memory** — every per-candidate structure is
//!   `O(shard)`, the flat engine's shard view included;
//! * **a serving boundary** — `revmax-serve` keeps shard workers alive
//!   across requests and plans batches of instances over the same pool.
//!
//! The eager (`lazy_forward: false`) ablation stamps flags with the shard's
//! own selection count rather than the global one; a cross-shard insertion
//! cannot change another shard's marginals, so re-evaluations that the
//! sequential eager run performs and a shard skips return the value already
//! cached — the selected plan is identical, only `marginal_evaluations`
//! differs.

use crate::config::PlannerConfig;
use crate::global_greedy::{
    collect_stale_run, make_engine, refresh_stale_run, CandidateTable, ConcurrencyStats,
    EngineKind, GreedyOutcome, StaleMember,
};
use crate::heap::{precedes, refresh_held, LazyMaxHeap};
use crate::par;
use crate::protocol;
use revmax_core::{
    revenue, CandidateId, HashIncrementalRevenue, IncrementalRevenue, Instance, ItemId,
    ResidualDelta, RevenueEngine, SharedCapacityLedger, Strategy, TimeStep, Triple, UserId,
    UserShard,
};
use std::sync::{Condvar, Mutex};

/// Cuts the instance into at most `pieces` user shards whose candidate ranges
/// are balanced (boundaries drawn from the CSR offsets, see
/// [`par::balanced_cuts`]). Always covers every user; trailing users without
/// candidates land in the last shard.
pub fn shard_users(inst: &Instance, pieces: usize) -> Vec<UserShard> {
    let offsets = inst.user_cand_offsets();
    let cuts = par::balanced_cuts(offsets, pieces.max(1));
    let mut user_bounds = vec![0u32];
    for &c in &cuts[1..cuts.len().saturating_sub(1)] {
        let u = offsets.partition_point(|&o| (o as usize) < c) as u32;
        user_bounds.push(u);
    }
    user_bounds.push(inst.num_users());
    user_bounds.dedup();
    user_bounds
        .windows(2)
        .map(|w| inst.user_shard(w[0], w[1]))
        .collect()
}

/// What one arbitration step did.
enum Step {
    /// A triple was committed; `marginal` is its realised marginal revenue.
    Inserted { z: Triple, marginal: f64 },
    /// Bookkeeping only (slot blocked, candidate retired, or re-evaluated).
    Continue,
}

/// What one free-running concurrent step did.
enum CStep {
    /// A triple was committed lock-free; `marginal` is its realised marginal.
    Inserted { z: Triple, marginal: f64 },
    /// Bookkeeping only (slot blocked, candidate retired, or re-evaluated).
    Continue,
    /// The held move reached a scarce-window commit point and parked as a
    /// proposal for the coordinator. The shard's state is untouched (the
    /// held move stays held, the engine is not mutated); `t_idx` is the
    /// commit's time-step index and `granted` whether the speculative claim
    /// won a capacity unit.
    Park { t_idx: usize, granted: bool },
}

/// One shard's planning state for the two-level G-Greedy.
///
/// The shard's best pending move lives *outside* the heap, pre-popped into
/// `held`; see the module docs for why this makes arbitration free.
struct GreedyShard<'a, E> {
    shard: UserShard,
    inc: E,
    table: CandidateTable,
    heap: LazyMaxHeap,
    /// The shard's best pending move `(local candidate, root value)`,
    /// popped out of `heap`; `None` when the shard is exhausted.
    held: Option<(u32, f64)>,
    /// Shard-local per-candidate flag: (user, item) pair already claimed in
    /// the shared ledger.
    counted: Vec<bool>,
    /// Scratch for batched refresh bursts (`PlannerConfig::kernel_batch`).
    run: Vec<StaleMember>,
    _inst: std::marker::PhantomData<&'a ()>,
}

impl<'a, E: RevenueEngine<'a>> GreedyShard<'a, E> {
    fn new(
        inst: &'a Instance,
        cfg: &PlannerConfig,
        shard: UserShard,
        parallel: bool,
        delta: Option<&ResidualDelta>,
    ) -> Self {
        let inc: E = make_engine(inst, cfg.ignores_saturation(), shard, cfg, delta);
        let table = CandidateTable::for_range(inst, shard.cand_start(), shard.cand_end(), parallel);
        let n = shard.num_candidates();
        let mut roots = vec![f64::NEG_INFINITY; n];
        for local in 0..n as u32 {
            roots[local as usize] = table.best(local).map_or(f64::NEG_INFINITY, |(_, v)| v);
        }
        let mut heap = LazyMaxHeap::new(&roots);
        let held = heap.pop();
        GreedyShard {
            shard,
            inc,
            table,
            heap,
            held,
            counted: vec![false; n],
            run: Vec::with_capacity(cfg.kernel_batch as usize),
            _inst: std::marker::PhantomData,
        }
    }

    /// The shard's best pending move as `(global candidate id, value)` —
    /// a plain field read, no heap access.
    #[inline]
    fn root(&self) -> Option<(u32, f64)> {
        self.held
            .map(|(local, v)| (self.shard.cand_start() + local, v))
    }

    /// Executes one pop-to-resolution of the two-level greedy on the held
    /// move: the exact body the sequential driver runs, with capacity read
    /// from (and claimed against) the shared ledger instead of the engine.
    /// Ends by refreshing the held move (one heap update-or-remove plus one
    /// pop — the same heap traffic as a sequential step).
    ///
    /// The caller must have verified that the held move leads globally.
    fn step(
        &mut self,
        inst: &'a Instance,
        cfg: &PlannerConfig,
        ledger: &SharedCapacityLedger,
        evals: &mut u64,
    ) -> Step {
        let (local_idx, _) = self.held.expect("step requires a held move");
        let cand = CandidateId(self.shard.cand_start() + local_idx);
        let item = inst.candidate_item(cand);
        let user = inst.candidate_user(cand);

        // Drain display-dead slots in one visit (see the sequential driver
        // for why this commutes); capacity exhaustion retires the candidate.
        let mut outcome = Step::Continue;
        let mut requeue: Option<f64> = None;
        let mut blocked_any = false;
        // Loop ends with `requeue == None` when the candidate is fully dead
        // or retired by capacity.
        while let Some((best_t, best_v)) = self.table.best(local_idx) {
            let t = TimeStep::from_index(best_t);
            let display_bad = self.inc.would_violate_display_cand(cand, t);
            let capacity_bad =
                protocol::claim_blocked(ledger, self.counted[local_idx as usize], item, user);
            if display_bad {
                // The (user, t) slot is full: this time step is dead for
                // this candidate, other time steps may still be fine.
                self.table.block(local_idx, best_t);
                blocked_any = true;
                continue;
            }
            if capacity_bad {
                break; // retired: capacity exhausted by other users
            }
            if blocked_any {
                // Something was blocked: re-queue at the new best, never
                // process immediately (matches the sequential driver's
                // one-block-per-pop-equivalent behaviour).
                requeue = Some(best_v);
                break;
            }

            let stamp = if cfg.lazy_forward {
                self.inc.group_size_cand(cand) as u32
            } else {
                self.inc.len() as u32
            };
            let slot = self.table.slot(local_idx, best_t);
            if self.table.flags[slot] == stamp {
                let marginal = self.inc.insert_cand(cand, t);
                let granted = protocol::commit_claim(
                    ledger,
                    &mut self.counted[local_idx as usize],
                    item,
                    user,
                );
                debug_assert!(granted, "arbitrated claim must never be denied");
                self.table.block(local_idx, best_t);
                outcome = Step::Inserted {
                    z: Triple { user, item, t },
                    marginal,
                };
            } else {
                *evals += self.table.reevaluate(&self.inc, local_idx, cand, stamp);
                if cfg.kernel_batch >= 2 {
                    // Batched refresh: the run of stale tops of this shard's
                    // own heap is refreshed in the same kernel-grouped burst
                    // (the held move keeps its scalar refresh above — the
                    // extras ride along). Burst refreshes are value-neutral
                    // bookkeeping on the members' own groups, so arbitration
                    // — which only reads held moves — is unaffected.
                    let start = self.shard.cand_start();
                    let counted = &self.counted;
                    self.run.clear();
                    collect_stale_run(
                        &self.inc,
                        &mut self.table,
                        &mut self.heap,
                        start,
                        cfg.lazy_forward,
                        |inc: &E, c, tt| {
                            inc.would_violate_display_cand(c, tt)
                                || protocol::claim_blocked(
                                    ledger,
                                    counted[(c.0 - start) as usize],
                                    inst.candidate_item(c),
                                    inst.candidate_user(c),
                                )
                        },
                        &mut self.run,
                        cfg.kernel_batch as usize - 1,
                    );
                    *evals += refresh_stale_run(
                        &self.inc,
                        &mut self.table,
                        &mut self.heap,
                        start,
                        &mut self.run,
                    );
                }
            }
            requeue = self.table.best(local_idx).map(|(_, v)| v);
            break;
        }

        self.held = refresh_held(&mut self.heap, local_idx, requeue);
        outcome
    }

    /// The concurrent-executor counterpart of [`GreedyShard::step`]: the
    /// same pop-to-resolution body, with three differences mandated by the
    /// scarcity-window protocol (`docs/concurrency.md`, "The capacity
    /// window"):
    ///
    /// * capacity gates read the **committed** count
    ///   ([`protocol::claim_blocked_committed`]) — a speculative unit held
    ///   by a parked proposal may still be stolen by a sequentially earlier
    ///   claim, so retiring a candidate against the raw count would be
    ///   premature;
    /// * commits are routed by the window: counted, exempt, and abundant
    ///   moves commit lock-free ([`protocol::fast_commit_claim`]);
    ///   scarce-window moves claim speculatively and **park** — the method
    ///   returns [`CStep::Park`] with the shard untouched, and the caller
    ///   resumes via [`GreedyShard::apply_admit`] /
    ///   [`GreedyShard::apply_reject`] once the coordinator rules;
    /// * a candidate dying without a claim retires its demand so the
    ///   window can shrink behind it.
    fn step_concurrent(
        &mut self,
        inst: &'a Instance,
        cfg: &PlannerConfig,
        ledger: &SharedCapacityLedger,
        evals: &mut u64,
    ) -> CStep {
        let (local_idx, _) = self.held.expect("step requires a held move");
        let cand = CandidateId(self.shard.cand_start() + local_idx);
        let item = inst.candidate_item(cand);
        let user = inst.candidate_user(cand);

        let mut outcome = CStep::Continue;
        let mut requeue: Option<f64> = None;
        let mut blocked_any = false;
        while let Some((best_t, best_v)) = self.table.best(local_idx) {
            let t = TimeStep::from_index(best_t);
            let display_bad = self.inc.would_violate_display_cand(cand, t);
            let capacity_bad = protocol::claim_blocked_committed(
                ledger,
                self.counted[local_idx as usize],
                item,
                user,
            );
            if display_bad {
                self.table.block(local_idx, best_t);
                blocked_any = true;
                continue;
            }
            if capacity_bad {
                break; // retired: capacity committed-exhausted by other users
            }
            if blocked_any {
                requeue = Some(best_v);
                break;
            }

            let stamp = if cfg.lazy_forward {
                self.inc.group_size_cand(cand) as u32
            } else {
                self.inc.len() as u32
            };
            let slot = self.table.slot(local_idx, best_t);
            if self.table.flags[slot] == stamp {
                // Commit point: route by the capacity window.
                let counted = self.counted[local_idx as usize];
                if !counted && !ledger.is_exempt(item, user) && ledger.is_scarce(item) {
                    let granted = protocol::speculative_claim(ledger, item, user);
                    return CStep::Park {
                        t_idx: best_t,
                        granted,
                    };
                }
                if protocol::fast_commit_claim(
                    ledger,
                    &mut self.counted[local_idx as usize],
                    item,
                    user,
                ) {
                    let marginal = self.inc.insert_cand(cand, t);
                    self.table.block(local_idx, best_t);
                    outcome = CStep::Inserted {
                        z: Triple { user, item, t },
                        marginal,
                    };
                } else {
                    // The abundance check raced a `charge`: the item
                    // migrated into the window between the check and the
                    // claim. Park ungranted — no free-running thread can
                    // release a unit (releases are barrier-quiescent), so
                    // retrying the claim here could never succeed.
                    return CStep::Park {
                        t_idx: best_t,
                        granted: false,
                    };
                }
            } else {
                *evals += self.table.reevaluate(&self.inc, local_idx, cand, stamp);
                if cfg.kernel_batch >= 2 {
                    let start = self.shard.cand_start();
                    let counted = &self.counted;
                    self.run.clear();
                    collect_stale_run(
                        &self.inc,
                        &mut self.table,
                        &mut self.heap,
                        start,
                        cfg.lazy_forward,
                        |inc: &E, c, tt| {
                            inc.would_violate_display_cand(c, tt)
                                || protocol::claim_blocked_committed(
                                    ledger,
                                    counted[(c.0 - start) as usize],
                                    inst.candidate_item(c),
                                    inst.candidate_user(c),
                                )
                        },
                        &mut self.run,
                        cfg.kernel_batch as usize - 1,
                    );
                    *evals += refresh_stale_run(
                        &self.inc,
                        &mut self.table,
                        &mut self.heap,
                        start,
                        &mut self.run,
                    );
                }
            }
            requeue = self.table.best(local_idx).map(|(_, v)| v);
            break;
        }

        // Window bookkeeping: a candidate dying without a claim (capacity
        // retirement or display-drain exhaustion) retires its demand.
        if requeue.is_none() && !self.counted[local_idx as usize] && !ledger.is_exempt(item, user) {
            protocol::retire_candidate(ledger, item, user);
        }
        self.held = refresh_held(&mut self.heap, local_idx, requeue);
        outcome
    }

    /// Applies an `Admitted` verdict to the parked held move: exactly the
    /// insertion the sequential commit would have performed — the shard's
    /// state did not move between park and verdict (the drain loop stopped
    /// at this commit point with fresh flags, and nothing shard-local
    /// changes while parked), so the table still reports the parked slot as
    /// best. The ledger side (claim, demand) was already settled by the
    /// coordinator.
    fn apply_admit(&mut self, inst: &'a Instance, t_idx: usize) -> (Triple, f64) {
        let (local_idx, _) = self.held.expect("verdict requires a held move");
        let cand = CandidateId(self.shard.cand_start() + local_idx);
        let item = inst.candidate_item(cand);
        let user = inst.candidate_user(cand);
        let t = TimeStep::from_index(t_idx);
        let marginal = self.inc.insert_cand(cand, t);
        self.counted[local_idx as usize] = true;
        self.table.block(local_idx, t_idx);
        let requeue = self.table.best(local_idx).map(|(_, v)| v);
        self.held = refresh_held(&mut self.heap, local_idx, requeue);
        (Triple { user, item, t }, marginal)
    }

    /// Applies a `Rejected` verdict: the item is committed-full for this
    /// pair, so the candidate is retired exactly as a sequential capacity
    /// gate would retire it (the coordinator already rolled back the
    /// speculative claim and retired the demand).
    fn apply_reject(&mut self) {
        let (local_idx, _) = self.held.expect("verdict requires a held move");
        self.held = refresh_held(&mut self.heap, local_idx, None);
    }
}

/// Runs G-Greedy on the shard-partitioned core with `pieces` user shards —
/// the explicit-piece-count entry behind `plan` with `shards ≥ 2`.
///
/// Produces the same plan as the sequential driver (see the module docs);
/// `cfg.shards` is ignored in favour of the explicit `pieces`. The returned
/// strategy's insertion order is the coordinator order, i.e. the sequential
/// selection order.
pub fn sharded_plan(inst: &Instance, cfg: &PlannerConfig, pieces: usize) -> GreedyOutcome {
    sharded_plan_residual(inst, cfg, pieces, None)
}

/// [`sharded_plan`] for a residual replan: `delta` (with
/// `cfg.warm_start`) warm-starts each shard engine from the session's
/// snapshot pool. `None` is a one-shot (cold) plan.
pub fn sharded_plan_residual(
    inst: &Instance,
    cfg: &PlannerConfig,
    pieces: usize,
    delta: Option<&ResidualDelta>,
) -> GreedyOutcome {
    match cfg.engine {
        EngineKind::Flat => {
            sharded_global_greedy_impl::<IncrementalRevenue<'_>>(inst, cfg, pieces, delta)
        }
        EngineKind::Hash => {
            sharded_global_greedy_impl::<HashIncrementalRevenue<'_>>(inst, cfg, pieces, delta)
        }
    }
}

fn sharded_global_greedy_impl<'a, E: RevenueEngine<'a>>(
    inst: &'a Instance,
    cfg: &PlannerConfig,
    pieces: usize,
    delta: Option<&ResidualDelta>,
) -> GreedyOutcome {
    let shards = shard_users(inst, pieces);
    let threads = cfg.effective_shard_threads(shards.len());
    if threads >= 2 {
        return sharded_concurrent_impl::<E>(inst, cfg, shards, delta, threads);
    }
    let single = shards.len() == 1;
    let ledger = SharedCapacityLedger::new(inst);
    let mut workers: Vec<GreedyShard<'a, E>> = par::scoped_map(
        shards,
        |shard| GreedyShard::new(inst, cfg, shard, single && cfg.parallel_init(), delta),
        cfg.parallel_init(),
    );

    let total_slots = inst.total_slots();
    let mut selected: u64 = 0;
    let mut running_revenue = 0.0f64;
    // Selections in coordinator (= sequential) order; folded into a Strategy
    // after the loop so the hot path pays a plain push, not a hash insert.
    let mut picks: Vec<Triple> = Vec::new();
    let mut trace = Vec::new();
    let mut evals: u64 = 0;

    'arbitrate: while selected < total_slots {
        // Deterministic arbitration over the held moves: advance the shard
        // whose move is globally maximal (ties to the smaller candidate id).
        let mut best: Option<(usize, f64, u32)> = None;
        let mut runner_up: Option<(f64, u32)> = None;
        for (wi, w) in workers.iter().enumerate() {
            if let Some((cand, v)) = w.root() {
                if best.is_none_or(|(_, bv, bc)| precedes((v, cand), (bv, bc))) {
                    runner_up = best.map(|(_, bv, bc)| (bv, bc));
                    best = Some((wi, v, cand));
                } else if runner_up.is_none_or(|ru| precedes((v, cand), ru)) {
                    runner_up = Some((v, cand));
                }
            }
        }
        let Some((wi, value, _)) = best else {
            break;
        };
        if value <= 0.0 {
            break;
        }
        // Advance the leading shard for as long as its held move stays the
        // global leader: its steps only change its own held move, so
        // consecutive selections from one shard replay the sequential order
        // exactly while the leadership re-check is two register compares.
        loop {
            if let Step::Inserted { z, marginal } = workers[wi].step(inst, cfg, &ledger, &mut evals)
            {
                running_revenue += marginal;
                picks.push(z);
                selected += 1;
                if cfg.track_trace {
                    trace.push(running_revenue);
                }
                if selected >= total_slots {
                    break 'arbitrate;
                }
            }
            let Some((cand, v)) = workers[wi].root() else {
                continue 'arbitrate;
            };
            if v <= 0.0 {
                continue 'arbitrate;
            }
            if !runner_up.is_none_or(|ru| precedes((v, cand), ru)) {
                continue 'arbitrate;
            }
        }
    }

    // Release the shard engines through into_strategy so warm-started ones
    // return their recycled buffers to the session's snapshot pool.
    for w in workers {
        let _ = w.inc.into_strategy();
    }

    let mut strategy = Strategy::with_capacity(picks.len());
    for z in picks {
        strategy.insert(z);
    }
    let selection_objective = running_revenue;
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
        marginal_evaluations: evals,
        concurrency: Default::default(),
    }
}

/// A scarce-window move parked for coordinator arbitration.
#[derive(Clone, Copy)]
struct Proposal {
    /// The held root value at the commit point (fresh — the drain loop only
    /// parks when the flags stamp matches).
    value: f64,
    /// Global candidate id (the arbitration tie-break, identical to the
    /// sequential heap order).
    cand: u32,
    item: ItemId,
    user: UserId,
    /// Time-step index of the parked commit.
    t_idx: usize,
    /// Whether the speculative claim won a unit (may be stolen while
    /// parked).
    granted: bool,
}

/// Where one shard stands in the park/verdict cycle.
#[derive(Clone, Copy)]
enum Phase {
    /// Free-running on its worker (or having a verdict applied).
    Running,
    /// Parked at a scarce-window commit, awaiting the coordinator.
    Parked(Proposal),
    /// The coordinator ruled; the owning worker picks this up, applies it,
    /// and resumes the shard.
    Verdict { t_idx: usize, admitted: bool },
    /// The shard drained (no pending move with positive value).
    Done,
}

/// The coordinator/worker shared state: one [`Phase`] per shard, guarded by
/// a mutex with two condvars (`to_coord` fires on park/done transitions,
/// `to_workers` on verdicts). All cross-thread synchronisation of the
/// executor flows through this lock and the ledger — no further atomics.
struct CoordState {
    phases: Vec<Phase>,
}

/// Per-shard results accumulated by the owning worker.
struct ShardRun {
    picks: Vec<Triple>,
    revenue: f64,
    evals: u64,
    fast: u64,
    arbitrated: u64,
    rejected: u64,
}

/// The concurrent shard executor: shards free-run on a persistent scoped
/// worker pool ([`par::scoped_pool`]), committing abundant claims lock-free
/// and parking scarce-window moves as proposals; the coordinator (the
/// calling thread) waits for the full barrier — every shard parked or done
/// — then resolves the globally maximal proposal by [`precedes`], exactly
/// the sequential arbitration order. See the module docs and
/// `docs/concurrency.md` ("The capacity window") for the parity argument;
/// the plan is identical to the sequential driver's, and the reported
/// revenue agrees to float re-association (the parity suite asserts 1e-9).
///
/// Differences from the sequential loop that are plan-neutral:
///
/// * the `total_slots` early-stop is not taken — once every (user, time)
///   slot is filled, every remaining candidate is display-blocked and
///   drains to retirement without committing;
/// * the trace is not recorded (`track_trace` forces the sequential path);
/// * revenue is folded per shard in shard-index order rather than in
///   selection order (same addend multiset).
fn sharded_concurrent_impl<'a, E: RevenueEngine<'a>>(
    inst: &'a Instance,
    cfg: &PlannerConfig,
    shards: Vec<UserShard>,
    delta: Option<&ResidualDelta>,
    threads: usize,
) -> GreedyOutcome {
    let nshards = shards.len();
    let ledger = SharedCapacityLedger::new(inst);
    let state = Mutex::new(CoordState {
        phases: vec![Phase::Running; nshards],
    });
    let to_coord = Condvar::new();
    let to_workers = Condvar::new();
    let shard_descs = &shards;

    let worker = |tid: usize| -> Vec<(usize, GreedyShard<'a, E>, ShardRun)> {
        // Worker `tid` owns shards `i` with `i % threads == tid`; it builds
        // them (construction parallelism rides on the pool itself) and
        // free-runs each to its next park or to exhaustion.
        let mut owned: Vec<(usize, GreedyShard<'a, E>, ShardRun)> = (0..nshards)
            .filter(|i| i % threads == tid)
            .map(|i| {
                (
                    i,
                    GreedyShard::new(inst, cfg, shard_descs[i], false, delta),
                    ShardRun {
                        picks: Vec::new(),
                        revenue: 0.0,
                        evals: 0,
                        fast: 0,
                        arbitrated: 0,
                        rejected: 0,
                    },
                )
            })
            .collect();

        const READY: u8 = 0;
        const WAITING: u8 = 1;
        const FINISHED: u8 = 2;
        let mut status = vec![READY; owned.len()];
        let mut verdicts: Vec<(usize, usize, bool)> = Vec::new();
        loop {
            for k in 0..owned.len() {
                if status[k] != READY {
                    continue;
                }
                let (si, sh, run) = &mut owned[k];
                loop {
                    let exhausted = match sh.root() {
                        None => true,
                        Some((_, v)) => v <= 0.0,
                    };
                    if exhausted {
                        status[k] = FINISHED;
                        state.lock().expect("executor state mutex poisoned").phases[*si] =
                            Phase::Done;
                        to_coord.notify_one();
                        break;
                    }
                    match sh.step_concurrent(inst, cfg, &ledger, &mut run.evals) {
                        CStep::Inserted { z, marginal } => {
                            run.revenue += marginal;
                            run.picks.push(z);
                            run.fast += 1;
                        }
                        CStep::Continue => {}
                        CStep::Park { t_idx, granted } => {
                            let (cand, value) = sh.root().expect("parked move is held");
                            let cid = CandidateId(cand);
                            status[k] = WAITING;
                            state.lock().expect("executor state mutex poisoned").phases[*si] =
                                Phase::Parked(Proposal {
                                    value,
                                    cand,
                                    item: inst.candidate_item(cid),
                                    user: inst.candidate_user(cid),
                                    t_idx,
                                    granted,
                                });
                            to_coord.notify_one();
                            break;
                        }
                    }
                }
            }
            if status.iter().all(|&s| s == FINISHED) {
                break;
            }
            // All owned shards parked (or finished): sleep until the
            // coordinator rules on at least one of ours. Marking the phase
            // `Running` under the same lock keeps the coordinator's barrier
            // predicate exact.
            let mut st = state.lock().expect("executor state mutex poisoned");
            loop {
                for (k, (si, _, _)) in owned.iter().enumerate() {
                    if status[k] == WAITING {
                        if let Phase::Verdict { t_idx, admitted } = st.phases[*si] {
                            st.phases[*si] = Phase::Running;
                            status[k] = READY;
                            verdicts.push((k, t_idx, admitted));
                        }
                    }
                }
                if !verdicts.is_empty() {
                    break;
                }
                st = to_workers.wait(st).expect("executor state mutex poisoned");
            }
            drop(st);
            for (k, t_idx, admitted) in verdicts.drain(..) {
                let (_, sh, run) = &mut owned[k];
                run.arbitrated += 1;
                if admitted {
                    let (z, marginal) = sh.apply_admit(inst, t_idx);
                    run.revenue += marginal;
                    run.picks.push(z);
                } else {
                    sh.apply_reject();
                    run.rejected += 1;
                }
            }
        }
        owned
    };

    let coordinator = || {
        let mut st = state.lock().expect("executor state mutex poisoned");
        loop {
            // Full barrier: wait until every shard is parked or done.
            while st
                .phases
                .iter()
                .any(|p| matches!(p, Phase::Running | Phase::Verdict { .. }))
            {
                st = to_coord.wait(st).expect("executor state mutex poisoned");
            }
            // Admit the globally maximal proposal — the sequential next
            // scarce commit (each park is its owner's maximal pending move,
            // and fast-path commits are order-insensitive).
            let mut best: Option<(usize, f64, u32)> = None;
            for (i, p) in st.phases.iter().enumerate() {
                if let Phase::Parked(pr) = p {
                    if best.is_none_or(|(_, bv, bc)| precedes((pr.value, pr.cand), (bv, bc))) {
                        best = Some((i, pr.value, pr.cand));
                    }
                }
            }
            let Some((wi, _, _)) = best else {
                break; // every shard Done
            };
            let Phase::Parked(pr) = st.phases[wi] else {
                unreachable!("best proposal is parked");
            };
            let admitted = if pr.granted {
                // A granted proposal is always admissible: its own unit is
                // excluded from the committed count.
                protocol::admit_granted(&ledger, pr.item, pr.user);
                true
            } else {
                loop {
                    if protocol::admit_claim(&ledger, pr.item, pr.user) {
                        break true;
                    }
                    // Raw count full: steal from the sequentially *last*
                    // granted victim on the same item, then retry (the
                    // barrier guarantees quiescence for the release).
                    let mut victim: Option<(usize, f64, u32)> = None;
                    for (j, q) in st.phases.iter().enumerate() {
                        if j == wi {
                            continue;
                        }
                        if let Phase::Parked(qp) = q {
                            if qp.granted
                                && qp.item == pr.item
                                && victim.is_none_or(|(_, vv, vc)| {
                                    precedes((vv, vc), (qp.value, qp.cand))
                                })
                            {
                                victim = Some((j, qp.value, qp.cand));
                            }
                        }
                    }
                    match victim {
                        Some((j, _, _)) => {
                            protocol::steal_speculative(&ledger, pr.item);
                            if let Phase::Parked(ref mut qp) = st.phases[j] {
                                qp.granted = false;
                            }
                        }
                        None => {
                            // Committed-full with no speculative unit left
                            // to steal: the sequential run would gate this
                            // candidate here.
                            protocol::reject_claim(&ledger, pr.item, pr.user);
                            break false;
                        }
                    }
                }
            };
            st.phases[wi] = Phase::Verdict {
                t_idx: pr.t_idx,
                admitted,
            };
            to_workers.notify_all();
        }
    };

    let (worker_outs, ()) = par::scoped_pool(threads, worker, coordinator);

    // Reassemble in shard-index order so the outcome is deterministic for a
    // fixed configuration regardless of scheduling.
    let mut per_shard: Vec<Option<(GreedyShard<'a, E>, ShardRun)>> =
        (0..nshards).map(|_| None).collect();
    for out in worker_outs {
        for (si, sh, run) in out {
            per_shard[si] = Some((sh, run));
        }
    }
    let mut picks: Vec<Triple> = Vec::new();
    let mut running_revenue = 0.0f64;
    let mut evals: u64 = 0;
    let mut stats = ConcurrencyStats {
        worker_threads: threads as u32,
        ..Default::default()
    };
    for slot in per_shard {
        let (sh, run) = slot.expect("every shard owned by exactly one worker");
        running_revenue += run.revenue;
        evals += run.evals;
        stats.fast_path_moves += run.fast;
        stats.arbitrated_moves += run.arbitrated;
        stats.rejected_moves += run.rejected;
        picks.extend(run.picks);
        // Release through into_strategy on the calling thread so
        // warm-started engines return their buffers to the session pool
        // without concurrent pool access.
        let _ = sh.inc.into_strategy();
    }

    let mut strategy = Strategy::with_capacity(picks.len());
    for z in picks {
        strategy.insert(z);
    }
    let selection_objective = running_revenue;
    let true_revenue = if cfg.ignores_saturation() {
        revenue(inst, &strategy)
    } else {
        selection_objective
    };
    GreedyOutcome {
        strategy,
        revenue: true_revenue,
        selection_objective,
        trace: Vec::new(),
        marginal_evaluations: evals,
        concurrency: stats,
    }
}

/// One shard's planning state for a single local-greedy time step.
struct LocalShard<'a, E> {
    shard: UserShard,
    inc: E,
    counted: Vec<bool>,
    _inst: std::marker::PhantomData<&'a ()>,
}

/// One shard's per-time-step frontier: heap over the shard's candidates,
/// lazy-forward flags, and the held (pre-popped) best move.
struct LocalFrontier {
    heap: LazyMaxHeap,
    flags: Vec<u32>,
    held: Option<(u32, f64)>,
}

/// Runs the per-time-step local greedy (SL-Greedy order, or any explicit
/// order) on the shard-partitioned core with `pieces` user shards. Same plan
/// as the sequential driver, same arbitration scheme as [`sharded_plan`].
pub fn sharded_plan_order(
    inst: &Instance,
    order: &[u32],
    cfg: &PlannerConfig,
    pieces: usize,
) -> GreedyOutcome {
    sharded_plan_order_residual(inst, order, cfg, pieces, None)
}

/// [`sharded_plan_order`] for a residual replan (see
/// [`sharded_plan_residual`]).
pub fn sharded_plan_order_residual(
    inst: &Instance,
    order: &[u32],
    cfg: &PlannerConfig,
    pieces: usize,
    delta: Option<&ResidualDelta>,
) -> GreedyOutcome {
    match cfg.engine {
        EngineKind::Flat => {
            sharded_local_greedy_impl::<IncrementalRevenue<'_>>(inst, order, cfg, pieces, delta)
        }
        EngineKind::Hash => {
            sharded_local_greedy_impl::<HashIncrementalRevenue<'_>>(inst, order, cfg, pieces, delta)
        }
    }
}

fn sharded_local_greedy_impl<'a, E: RevenueEngine<'a>>(
    inst: &'a Instance,
    order: &[u32],
    cfg: &PlannerConfig,
    pieces: usize,
    delta: Option<&ResidualDelta>,
) -> GreedyOutcome {
    let shards = shard_users(inst, pieces);
    let ledger = SharedCapacityLedger::new(inst);
    // Same auto-enable contract as the sequential driver: `None` goes
    // parallel only on large instances.
    let parallel = cfg
        .parallel
        .unwrap_or(inst.num_candidates() >= crate::local_greedy::PARALLEL_SCAN_THRESHOLD);
    let mut workers: Vec<LocalShard<'a, E>> = par::scoped_map(
        shards,
        |shard| LocalShard {
            inc: make_engine(inst, false, shard, cfg, delta),
            counted: vec![false; shard.num_candidates()],
            shard,
            _inst: std::marker::PhantomData,
        },
        parallel,
    );

    let mut running_revenue = 0.0f64;
    let mut picks: Vec<Triple> = Vec::new();
    let mut trace = Vec::new();
    let mut evals: u64 = 0;

    for &tv in order {
        let t = TimeStep(tv);
        // Per-shard initial scan (read-only, deterministic, runs on scoped
        // workers when hardware parallelism is available), then the same
        // held-move arbitration as the global driver, per time step.
        let mut frontiers: Vec<LocalFrontier> = par::scoped_map(
            workers.iter().collect::<Vec<_>>(),
            |w| {
                let n = w.shard.num_candidates();
                let mut values = vec![f64::NEG_INFINITY; n];
                let mut flags = vec![0u32; n];
                for local in 0..n {
                    let cand = CandidateId(w.shard.cand_start() + local as u32);
                    values[local] = w.inc.marginal_revenue_cand(cand, t);
                    flags[local] = w.inc.group_size_cand(cand) as u32;
                }
                let mut heap = LazyMaxHeap::new(&values);
                let held = heap.pop();
                LocalFrontier { heap, flags, held }
            },
            parallel,
        );
        evals += inst.num_candidates() as u64;

        'arbitrate: loop {
            let mut best: Option<(usize, f64, u32)> = None;
            let mut runner_up: Option<(f64, u32)> = None;
            for (wi, frontier) in frontiers.iter().enumerate() {
                if let Some((local, v)) = frontier.held {
                    let cand = workers[wi].shard.cand_start() + local;
                    if best.is_none_or(|(_, bv, bc)| precedes((v, cand), (bv, bc))) {
                        runner_up = best.map(|(_, bv, bc)| (bv, bc));
                        best = Some((wi, v, cand));
                    } else if runner_up.is_none_or(|ru| precedes((v, cand), ru)) {
                        runner_up = Some((v, cand));
                    }
                }
            }
            let Some((wi, value, _)) = best else {
                break;
            };
            if value <= 0.0 {
                break;
            }
            // Run the leading shard until its held move stops leading.
            let w = &mut workers[wi];
            let frontier = &mut frontiers[wi];
            loop {
                let (local_idx, _) = frontier.held.expect("leader holds a move");
                let cand = CandidateId(w.shard.cand_start() + local_idx);
                let item = inst.candidate_item(cand);
                let user = inst.candidate_user(cand);
                let display_bad = w.inc.would_violate_display_cand(cand, t);
                let capacity_bad =
                    protocol::claim_blocked(&ledger, w.counted[local_idx as usize], item, user);
                let requeue = if display_bad || capacity_bad {
                    None
                } else {
                    let group_size = w.inc.group_size_cand(cand) as u32;
                    if frontier.flags[local_idx as usize] == group_size {
                        let marginal = w.inc.insert_cand(cand, t);
                        let granted = protocol::commit_claim(
                            &ledger,
                            &mut w.counted[local_idx as usize],
                            item,
                            user,
                        );
                        debug_assert!(granted, "arbitrated claim must never be denied");
                        running_revenue += marginal;
                        picks.push(Triple { user, item, t });
                        trace.push(running_revenue);
                        None
                    } else {
                        let fresh = w.inc.marginal_revenue_cand(cand, t);
                        evals += 1;
                        frontier.flags[local_idx as usize] = group_size;
                        Some(fresh)
                    }
                };
                frontier.held = refresh_held(&mut frontier.heap, local_idx, requeue);

                let Some((local, v)) = frontier.held else {
                    continue 'arbitrate;
                };
                if v <= 0.0 {
                    continue 'arbitrate;
                }
                let cand = w.shard.cand_start() + local;
                if !runner_up.is_none_or(|ru| precedes((v, cand), ru)) {
                    continue 'arbitrate;
                }
            }
        }
    }

    // Release the shard engines (returns warm buffers to the pool).
    for w in workers {
        let _ = w.inc.into_strategy();
    }

    let mut strategy = Strategy::with_capacity(picks.len());
    for z in picks {
        strategy.insert(z);
    }
    GreedyOutcome {
        revenue: running_revenue,
        selection_objective: running_revenue,
        strategy,
        trace,
        marginal_evaluations: evals,
        concurrency: Default::default(),
    }
}
