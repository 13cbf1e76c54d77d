//! The shard-partitioned planning core.
//!
//! The REVMAX objective decomposes per user — memory, saturation, and
//! competition all act inside one user's (user, class) groups — and the
//! display constraint is per (user, time). The *only* cross-user coupling is
//! item capacity. This module partitions the users into CSR-aligned shards
//! ([`shard_users`]), runs the G-Greedy selection core
//! (`global_greedy::ShardCore`: engine view, candidate table,
//! tournament tree) on each, on a pool of worker threads, and couples the
//! shards exclusively through a [`SharedCapacityLedger`].
//!
//! # One worker means one shard
//!
//! Shards exist to plan in parallel. A plan that resolves fewer than two
//! worker threads (`PlannerConfig::shard_threads` at its default of 1, auto
//! mode on a one-CPU host, or `track_trace`, whose per-selection trace the
//! executor does not record) plans one shard: the selection core over
//! every user, with capacity read from its own engine, or one user at a
//! time when no item is scarce (see below). Such a plan is the one-shard
//! outcome itself, whatever the shard count.
//!
//! # Determinism: scarce claims are admitted in selection order
//!
//! Capacity claims are *order-sensitive*: the one-shard greedy grants an
//! item's last capacity unit to whichever candidate surfaces first, i.e. in
//! descending marginal-revenue order. A free-running optimistic shard race
//! would grant claims in scheduler order — nondeterministic and generally
//! different from the one-shard plan. (Empirically this matters: on
//! `amazon_like().scaled(0.02)` the one-shard G-Greedy plan ends with
//! roughly half of all items exactly at capacity.)
//!
//! The executor therefore splits commits by the ledger's scarcity window
//! (`docs/concurrency.md`, "The capacity window"). A claim on an item whose
//! remaining candidate demand fits its remaining capacity cannot be refused
//! in any order, so it commits lock-free; a move inside the window parks
//! as a proposal, without claiming. Once every shard is parked or drained,
//! the coordinator takes the globally maximal proposal by
//! `global_greedy::precedes` (value descending, ties towards the smaller
//! candidate id — the total order the tournament uses inside a shard): that
//! is the one-shard run's next scarce commit. It claims for it then, so the
//! claim succeeds exactly when the one-shard run would find capacity left:
//! a granted claim admits the proposal, a denied one rejects it. The plan
//! is therefore the one-shard plan triple for triple, whatever the thread
//! schedule; the strategy lists it in shard order, and the revenue folds
//! the same marginals per shard, so it agrees to float re-association (the
//! parity suites assert 1e-9).
//!
//! What the shards buy:
//!
//! * **parallel selection** — shards free-run between arbitrations, and
//!   abundant claims never wait for the coordinator;
//! * **construction parallelism** — each worker builds the engines and
//!   tables of the shards it owns;
//! * **bounded per-worker memory** — every per-candidate structure is
//!   `O(shard)`, the flat engine's shard view included.
//!
//! Where no item is scarce before any claim (`any_item_scarce`, a plain
//! count of non-exempt candidate demand against capacity), the one-shard
//! plan buys them without this executor or a ledger. It selects one user
//! at a time, each user's table and tournament a few kilobytes, and sorts
//! the insertions into the one-shard order (`global_greedy`, "Users plan
//! one at a time when no item is scarce"). With `PlannerConfig::parallel`
//! on it also cuts the users into one CPU shard per core with
//! [`shard_users`], each building its own engine and selecting on its own
//! thread. Its outcome is the one-shard outcome bit for bit, where this
//! executor's agrees to 1e-9.
//!
//! Under eager re-evaluation (the parity suites' `revmax_oracle::Eager`
//! engine) flags are stamped with the engine's selection count, which
//! counts every selection the engine holds: a shard engine's own, or,
//! on the per-user path, those of every user its CPU shard planned so far.
//! Another user's insertion cannot change a user's marginals, so the plan
//! is the same, in the executor and on the per-user path alike; only
//! `marginal_evaluations` can differ from one shard's.
//!
//! SL-Greedy and RL-Greedy always plan on one shard; `PlannerConfig::shards`
//! applies to G-Greedy only.

use crate::config::PlannerConfig;
use crate::global_greedy::{
    make_engine, one_shard_plan, outcome, precedes, Capacity, Commit, ConcurrencyStats,
    GreedyOutcome, ShardCore, Step,
};
use crate::par;
use crate::protocol;
use revmax_core::{
    CandidateId, Instance, ItemId, ResidualDelta, RevenueEngine, SharedCapacityLedger, Strategy,
    TimeStep, Triple, UserId, UserShard,
};
use std::sync::{Condvar, Mutex, PoisonError};

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

/// Whether some item is in the scarcity window before any claim: its
/// non-exempt candidate demand exceeds its capacity
/// ([`SharedCapacityLedger::is_scarce`] at zero claims). The demand is a
/// plain count: an item's candidates, less its exempt users who are among
/// them. When no item is scarce, no capacity gate can close in a G-Greedy
/// plan, and users plan independently.
pub(crate) fn any_item_scarce(inst: &Instance) -> bool {
    let mut demand = vec![0u32; inst.num_items() as usize];
    for cand in inst.candidates() {
        demand[inst.candidate_item(cand).index()] += 1;
    }
    (0..inst.num_items()).map(ItemId).any(|item| {
        let exempt_candidates = inst
            .exempt_users(item)
            .iter()
            .filter(|&&user| inst.candidate_for(user, item).is_some())
            .count();
        demand[item.index()] - exempt_candidates as u32 > inst.capacity(item)
    })
}

/// The `(item, user)` pair a candidate claims capacity for.
#[inline]
fn pair(inst: &Instance, cand: CandidateId) -> (ItemId, UserId) {
    (inst.candidate_item(cand), inst.candidate_user(cand))
}

/// The concurrent executor's capacity, under the scarcity-window protocol
/// (`docs/concurrency.md`, "The capacity window"):
///
/// * gates read the claim count ([`protocol::claim_blocked`]); a full item
///   stays full, so retiring a candidate against it is final;
/// * commits are routed by the window: counted, exempt, and abundant moves
///   commit lock-free ([`protocol::fast_commit_claim`]); scarce-window
///   moves park, unclaimed, for the coordinator's claim;
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
        protocol::claim_blocked(self.ledger, counted, item, user)
    }

    fn commit(&self, counted: &mut bool, cand: CandidateId) -> Commit {
        let (item, user) = pair(self.inst, cand);
        let scarce = !*counted && !self.ledger.is_exempt(item, user) && self.ledger.is_scarce(item);
        // Abundance is sticky, so the fast claim is not denied in a plan;
        // if it ever were, parking leaves the verdict to the coordinator's
        // claim, which is exact.
        if scarce || !protocol::fast_commit_claim(self.ledger, counted, item, user) {
            Commit::Park
        } else {
            Commit::Insert
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
/// A plan that resolves fewer than two worker threads
/// (`PlannerConfig::effective_shard_threads`) plans one shard; any other
/// runs the shards on the concurrent executor. Either way the plan is the
/// one-shard plan (see the module docs).
pub(crate) fn sharded_plan_residual<'a, E: RevenueEngine<'a>>(
    inst: &'a Instance,
    cfg: &PlannerConfig,
    pieces: usize,
    delta: Option<&ResidualDelta>,
) -> GreedyOutcome {
    let shards = shard_users(inst, pieces);
    let threads = cfg.effective_shard_threads(shards.len());
    if threads < 2 {
        return one_shard_plan::<E>(inst, cfg, delta);
    }
    sharded_concurrent_impl::<E>(inst, cfg, shards, delta, threads)
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

/// Marks worker `tid`'s shards [`Phase::Done`] if the worker unwinds, so
/// the coordinator's barrier still completes and the pool's join can
/// re-raise the panic instead of hanging.
struct DoneOnUnwind<'s> {
    state: &'s Mutex<CoordState>,
    to_coord: &'s Condvar,
    tid: usize,
    threads: usize,
}

impl Drop for DoneOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            for phase in st.phases.iter_mut().skip(self.tid).step_by(self.threads) {
                *phase = Phase::Done;
            }
            self.to_coord.notify_one();
        }
    }
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
/// the one-shard selection order. See the module docs and
/// `docs/concurrency.md` ("The capacity window") for the parity argument;
/// the plan has the one-shard plan's triples, and the reported revenue
/// agrees to float re-association (the parity suites assert 1e-9).
///
/// Differences from the one-shard loop that are plan-neutral:
///
/// * the `total_slots` early-stop is not taken — once every (user, time)
///   slot is filled, every remaining candidate is display-blocked and
///   retires without committing;
/// * the trace is not recorded (`track_trace` plans one shard);
/// * the strategy lists each shard's picks in shard-index order, and
///   revenue is folded per shard in that order (same addend multiset).
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
        let _unwind = DoneOnUnwind {
            state: &state,
            to_coord: &to_coord,
            tid,
            threads,
        };
        let mut owned: Vec<(usize, ShardCore<'a, E>, ShardRun)> = (0..nshards)
            .filter(|i| i % threads == tid)
            .map(|i| {
                let shard = shard_descs[i];
                let inc: E = make_engine(inst, cfg.ignores_saturation(), shard, cfg, delta);
                let mut run = ShardRun::default();
                let window = 1..=inst.horizon();
                let cold = inc.is_empty();
                let core = ShardCore::new(inst, inc, shard, window, cold, false, &mut run.evals);
                (i, core, run)
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
                        Step::Park { t_idx } => {
                            let cid = CandidateId(cand);
                            status[k] = WAITING;
                            state.lock().expect("executor state mutex poisoned").phases[*si] =
                                Phase::Parked(Proposal {
                                    value,
                                    cand,
                                    item: inst.candidate_item(cid),
                                    user: inst.candidate_user(cid),
                                    t_idx,
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
            // Claim at admission: the claim succeeds exactly when the item
            // has capacity left, which is the one-shard verdict here. A
            // denied claim rejects the proposal, and its pair dies.
            let admitted = protocol::admit_claim(&ledger, pr.item, pr.user);
            if !admitted {
                protocol::retire_candidate(&ledger, pr.item, pr.user);
            }
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
        // Release on the calling thread so warm-started engines return
        // their buffers to the session pool without concurrent pool access.
        sh.inc.release();
    }

    GreedyOutcome {
        concurrency: stats,
        ..outcome(
            inst,
            cfg.ignores_saturation(),
            strategy_of(picks),
            running_revenue,
            Vec::new(),
            evals,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use revmax_core::InstanceBuilder;

    /// The plain demand count is the shared ledger's scarcity window at
    /// zero claims: on random instances with exempt pairs (on candidates
    /// and off them) and capacities drawn just around each item's demand,
    /// `any_item_scarce` holds exactly when a fresh ledger reads some item
    /// scarce.
    #[test]
    fn scarcity_count_matches_the_ledger_at_zero_claims() {
        let mut rng = StdRng::seed_from_u64(0x5ca7_c17e);
        let mut verdicts = [0u32; 2];
        for case in 0..2000u32 {
            let users = rng.gen_range(1u32..=8);
            let items = rng.gen_range(1u32..=4);
            let mut b = InstanceBuilder::new(users, items, 1);
            let mut demand = vec![0u32; items as usize];
            for user in 0..users {
                for item in 0..items {
                    if rng.gen_bool(0.6) {
                        b.candidate(user, item, &[0.5], 0.0);
                        demand[item as usize] += 1;
                    }
                    if rng.gen_bool(0.2) {
                        b.exempt_user(item, user);
                    }
                }
            }
            for item in 0..items {
                let demand = demand[item as usize];
                let capacity = rng.gen_range(demand.saturating_sub(2)..=demand + 1);
                b.constant_price(item, 1.0).capacity(item, capacity);
            }
            let inst = b.build().unwrap();
            let ledger = SharedCapacityLedger::new(&inst);
            let scarce = (0..items).any(|i| ledger.is_scarce(ItemId(i)));
            assert_eq!(any_item_scarce(&inst), scarce, "case {case}");
            verdicts[usize::from(scarce)] += 1;
        }
        assert!(
            verdicts.iter().all(|&n| n >= 400),
            "abundant and scarce verdicts: {verdicts:?}"
        );
    }
}
