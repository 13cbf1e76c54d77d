//! The shard-partitioned planning core.
//!
//! The REVMAX objective decomposes per user — memory, saturation, and
//! competition all act inside one user's (user, class) groups — and the
//! display constraint is per (user, time). The *only* cross-user coupling is
//! item capacity. This module partitions the users into CSR-aligned shards
//! ([`shard_users`]), runs the G-Greedy selection core
//! (`global_greedy::ShardCore`: engine view, candidate table,
//! tournament tree) on each, and couples the shards exclusively through a
//! [`SharedCapacityLedger`]. One shard is the sequential driver, with
//! capacity read from its own engine.
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
//! the shard frontiers. Every shard's best pending move is its tournament
//! root, so the coordinator's arbitration is a scan over plain `(value,
//! candidate id)` pairs: it repeatedly advances the shard whose root is
//! globally maximal (ties towards the smaller candidate id — the same total
//! order the tree uses inside a shard), and that shard's step re-keys its
//! own leaves. Capacity is claimed through the shared ledger at the moment
//! a move is committed, so claims are granted in exactly the order the
//! one-shard run grants them, independent of thread scheduling.
//!
//! The sharded plan is consequently not merely "close": the selection
//! sequence is identical triple for triple, and the reported revenue is the
//! same fold of the same realised marginals (engine marginals are
//! bit-identical because each user's group state only depends on that
//! user's own picks). The kernel parity suite asserts bit-identical plans
//! at 1 and 2 shards, for both engines, cold and warm.
//!
//! What the shards buy, given the arbitration itself is sequential:
//!
//! * **near-free coordination** — reading a shard's root is a field read,
//!   and per-step tree work is the same as one shard's, on trees
//!   `shards`× smaller;
//! * **construction parallelism** — shard engines and tables are built
//!   concurrently by scoped workers when hardware parallelism is available
//!   (bit-identical to the sequential build, which the tests assert);
//! * **bounded per-worker memory** — every per-candidate structure is
//!   `O(shard)`, the flat engine's shard view included;
//! * **a serving boundary** — `revmax-serve` keeps shard workers alive
//!   across requests and plans batches of instances over the same pool.
//!
//! Under eager re-evaluation (the parity suites' `revmax_oracle::Eager`
//! engine) flags are stamped with the shard's own selection count rather
//! than the global one; a cross-shard insertion cannot change another
//! shard's marginals, so re-evaluations that the sequential eager run
//! performs and a shard skips return the value already cached — the
//! selected plan is identical, only `marginal_evaluations` differs.
//!
//! SL-Greedy and RL-Greedy always plan on one shard; `PlannerConfig::shards`
//! applies to G-Greedy only.

use crate::config::PlannerConfig;
use crate::global_greedy::{
    one_shard_plan, outcome, Capacity, Commit, ConcurrencyStats, GreedyOutcome, ShardCore, Step,
};
use crate::heap::precedes;
use crate::par;
use crate::protocol;
use revmax_core::{
    CandidateId, Instance, ItemId, ResidualDelta, RevenueEngine, SharedCapacityLedger, Strategy,
    TimeStep, Triple, UserId, UserShard,
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

/// The `(item, user)` pair a candidate claims capacity for.
#[inline]
fn pair(inst: &Instance, cand: CandidateId) -> (ItemId, UserId) {
    (inst.candidate_item(cand), inst.candidate_user(cand))
}

/// Sequential arbitration's capacity: the shared ledger's gate and claim
/// ([`protocol::claim_blocked`] / [`protocol::commit_claim`]).
struct Arbitrated<'l> {
    inst: &'l Instance,
    ledger: &'l SharedCapacityLedger,
}

impl Capacity for Arbitrated<'_> {
    #[inline]
    fn blocked<'a, E: RevenueEngine<'a>>(
        &self,
        _inc: &E,
        counted: bool,
        cand: CandidateId,
        _t: TimeStep,
    ) -> bool {
        let (item, user) = pair(self.inst, cand);
        protocol::claim_blocked(self.ledger, counted, item, user)
    }

    #[inline]
    fn commit(&self, counted: &mut bool, cand: CandidateId) -> Commit {
        let (item, user) = pair(self.inst, cand);
        let granted = protocol::commit_claim(self.ledger, counted, item, user);
        debug_assert!(granted, "arbitrated claim must never be denied");
        Commit::Insert
    }
}

/// The concurrent executor's capacity, under the scarcity-window protocol
/// (`docs/concurrency.md`, "The capacity window"):
///
/// * gates read the **committed** count
///   ([`protocol::claim_blocked_committed`]) — a speculative unit held by a
///   parked proposal may still be stolen by a sequentially earlier claim,
///   so retiring a candidate against the raw count would be premature;
/// * commits are routed by the window: counted, exempt, and abundant moves
///   commit lock-free ([`protocol::fast_commit_claim`]); scarce-window
///   moves claim speculatively and park for the coordinator;
/// * a candidate dying without a claim retires its demand, so the window
///   can shrink behind it.
struct Window<'l> {
    inst: &'l Instance,
    ledger: &'l SharedCapacityLedger,
}

impl Capacity for Window<'_> {
    #[inline]
    fn blocked<'a, E: RevenueEngine<'a>>(
        &self,
        _inc: &E,
        counted: bool,
        cand: CandidateId,
        _t: TimeStep,
    ) -> bool {
        let (item, user) = pair(self.inst, cand);
        protocol::claim_blocked_committed(self.ledger, counted, item, user)
    }

    fn commit(&self, counted: &mut bool, cand: CandidateId) -> Commit {
        let (item, user) = pair(self.inst, cand);
        if !*counted && !self.ledger.is_exempt(item, user) && self.ledger.is_scarce(item) {
            let granted = protocol::speculative_claim(self.ledger, item, user);
            return Commit::Park { granted };
        }
        if protocol::fast_commit_claim(self.ledger, counted, item, user) {
            Commit::Insert
        } else {
            // The abundance check raced a `charge`: the item migrated into
            // the window between the check and the claim. Park ungranted —
            // no free-running thread can release a unit (releases are
            // barrier-quiescent), so retrying the claim here could never
            // succeed.
            Commit::Park { granted: false }
        }
    }

    #[inline]
    fn retired(&self, counted: bool, cand: CandidateId) {
        let (item, user) = pair(self.inst, cand);
        if !counted && !self.ledger.is_exempt(item, user) {
            protocol::retire_candidate(self.ledger, item, user);
        }
    }
}

/// Runs G-Greedy on engine `E` with `pieces` user shards — the G-Greedy
/// dispatch behind [`crate::plan_with`]. `delta` (with `cfg.warm_start`)
/// warm-starts each shard engine from the session's snapshot pool; `None`
/// is a one-shot (cold) plan.
///
/// Every piece count produces the same plan as one shard (see the module
/// docs). The returned strategy's insertion order is the coordinator order,
/// i.e. the sequential selection order.
pub(crate) fn sharded_plan_residual<'a, E: RevenueEngine<'a>>(
    inst: &'a Instance,
    cfg: &PlannerConfig,
    pieces: usize,
    delta: Option<&ResidualDelta>,
) -> GreedyOutcome {
    let shards = shard_users(inst, pieces);
    if shards.len() <= 1 {
        return one_shard_plan::<E>(inst, cfg, delta);
    }
    let threads = cfg.effective_shard_threads(shards.len());
    if threads >= 2 {
        return sharded_concurrent_impl::<E>(inst, cfg, shards, delta, threads);
    }
    let ledger = SharedCapacityLedger::new(inst);
    let cap = Arbitrated {
        inst,
        ledger: &ledger,
    };
    let mut workers: Vec<ShardCore<'a, E>> = par::scoped_map(
        shards,
        |shard| ShardCore::new(inst, cfg, shard, false, delta),
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
        // Deterministic arbitration over the shard roots: advance the shard
        // whose move is globally maximal (ties to the smaller candidate id).
        let mut best: Option<(usize, (f64, u32))> = None;
        let mut runner_up: Option<(f64, u32)> = None;
        for (wi, w) in workers.iter().enumerate() {
            let Some(lead) = w.lead() else {
                continue;
            };
            if best.is_none_or(|(_, b)| precedes(lead, b)) {
                runner_up = best.map(|(_, b)| b);
                best = Some((wi, lead));
            } else if runner_up.is_none_or(|ru| precedes(lead, ru)) {
                runner_up = Some(lead);
            }
        }
        let Some((wi, _)) = best else {
            break;
        };
        // Advance the leading shard for as long as its root stays the
        // global leader: its steps only change its own leaves, so
        // consecutive selections from one shard replay the sequential order
        // exactly while the leadership re-check is two register compares.
        loop {
            if let Step::Inserted { z, marginal } = workers[wi].step(&cap, &mut evals) {
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
            match workers[wi].lead() {
                Some(lead) if runner_up.is_none_or(|ru| precedes(lead, ru)) => {}
                _ => continue 'arbitrate,
            }
        }
    }

    // Release the shard engines through into_strategy so warm-started ones
    // return their recycled buffers to the session's snapshot pool.
    for w in workers {
        let _ = w.inc.into_strategy();
    }
    outcome(inst, cfg, strategy_of(picks), running_revenue, trace, evals)
}

fn strategy_of(picks: Vec<Triple>) -> Strategy {
    let mut strategy = Strategy::with_capacity(picks.len());
    for z in picks {
        strategy.insert(z);
    }
    strategy
}

/// A scarce-window move parked for coordinator arbitration.
#[derive(Clone, Copy)]
struct Proposal {
    /// The root value at the commit point (fresh — a shard only parks when
    /// the flags stamp matches).
    value: f64,
    /// Global candidate id (the arbitration tie-break, identical to the
    /// sequential order).
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
#[derive(Default)]
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
///   retires without committing;
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
    let window = Window {
        inst,
        ledger: &ledger,
    };
    let state = Mutex::new(CoordState {
        phases: vec![Phase::Running; nshards],
    });
    let to_coord = Condvar::new();
    let to_workers = Condvar::new();
    let shard_descs = &shards;

    let worker = |tid: usize| -> Vec<(usize, ShardCore<'a, E>, ShardRun)> {
        // Worker `tid` owns shards `i` with `i % threads == tid`; it builds
        // them (construction parallelism rides on the pool itself) and
        // free-runs each to its next park or to exhaustion.
        let mut owned: Vec<(usize, ShardCore<'a, E>, ShardRun)> = (0..nshards)
            .filter(|i| i % threads == tid)
            .map(|i| {
                (
                    i,
                    ShardCore::new(inst, cfg, shard_descs[i], false, delta),
                    ShardRun::default(),
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
                    let Some((value, cand)) = sh.lead() else {
                        status[k] = FINISHED;
                        state.lock().expect("executor state mutex poisoned").phases[*si] =
                            Phase::Done;
                        to_coord.notify_one();
                        break;
                    };
                    match sh.step(&window, &mut run.evals) {
                        Step::Inserted { z, marginal } => {
                            run.revenue += marginal;
                            run.picks.push(z);
                            run.fast += 1;
                        }
                        Step::Continue => {}
                        Step::Park { t_idx, granted } => {
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
                    let (z, marginal) = sh.admit(&window, t_idx);
                    run.revenue += marginal;
                    run.picks.push(z);
                } else {
                    sh.reject();
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
    let mut per_shard: Vec<Option<(ShardCore<'a, E>, ShardRun)>> =
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

    GreedyOutcome {
        concurrency: stats,
        ..outcome(
            inst,
            cfg,
            strategy_of(picks),
            running_revenue,
            Vec::new(),
            evals,
        )
    }
}
