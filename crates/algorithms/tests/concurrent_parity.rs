//! Parity oracle for the concurrent shard executor
//! (`PlannerConfig::shard_threads >= 2`): every configuration of engine
//! (the flat engine and the hash reference, through `plan_with`) × shard
//! count × worker-thread count must reproduce the one-shard plan — same
//! strategy triple set, same revenue to 1e-9 — plus directed tests for
//! the rejection path, the scarcity-window boundary, and a worker panic.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use revmax_algorithms::{plan, plan_with, PlanAlgorithm, PlannerConfig};
use revmax_core::{
    env, CandidateId, IncrementalRevenue as Flat, Instance, InstanceBuilder, RevenueEngine,
    TimeStep, UserShard,
};
use revmax_oracle::HashIncrementalRevenue as Hash;
use std::time::Duration;

/// Worker-thread counts under test: {1, 2, 4} plus any `REVMAX_SHARD_THREADS`
/// override — the CI multi-core matrix leg re-runs the oracle with its
/// per-leg thread count folded in.
fn thread_counts() -> Vec<u32> {
    let mut counts = vec![1u32, 2, 4];
    if let Some(t) = env::var_with("REVMAX_SHARD_THREADS", |s| {
        s.parse::<u32>().ok().filter(|&t| t > 0)
    }) {
        if !counts.contains(&t) {
            counts.push(t);
        }
    }
    counts
}

/// Draws a random instance sized to make item capacity actually contended
/// (users ≥ items, capacities small), so scarce-window arbitration runs on
/// a meaningful fraction of cases rather than only the fast path.
fn random_contended_instance(rng: &mut StdRng) -> Instance {
    let num_users = rng.gen_range(3u32..=8);
    let num_items = rng.gen_range(2u32..=5);
    let horizon = rng.gen_range(1u32..=3);
    let mut b = InstanceBuilder::new(num_users, num_items, horizon);
    b.display_limit(rng.gen_range(1u32..=2));
    for item in 0..num_items {
        b.item_class(item, rng.gen_range(0u32..2));
        b.beta(item, rng.gen_range(0.0..=1.0));
        b.capacity(item, rng.gen_range(1u32..=3));
        let prices: Vec<f64> = (0..horizon).map(|_| rng.gen_range(1.0..30.0)).collect();
        b.prices(item, &prices);
    }
    for user in 0..num_users {
        for item in 0..num_items {
            if rng.gen_bool(0.8) {
                let probs: Vec<f64> = (0..horizon).map(|_| rng.gen_range(0.0..=1.0)).collect();
                if probs.iter().any(|&p| p > 0.0) {
                    b.candidate(user, item, &probs, probs[0] * 5.0);
                }
            }
        }
    }
    b.build().expect("random instance must build")
}

fn assert_same_plan(
    case: &str,
    seq: &revmax_algorithms::GreedyOutcome,
    conc: &revmax_algorithms::GreedyOutcome,
) {
    assert!(
        (seq.revenue - conc.revenue).abs() < 1e-9,
        "{case}: revenue {} vs sequential {}",
        conc.revenue,
        seq.revenue
    );
    assert!(
        (seq.selection_objective - conc.selection_objective).abs() < 1e-9,
        "{case}: objective {} vs sequential {}",
        conc.selection_objective,
        seq.selection_objective
    );
    assert_eq!(
        seq.strategy.len(),
        conc.strategy.len(),
        "{case}: strategy sizes diverged"
    );
    for z in seq.strategy.iter() {
        assert!(
            conc.strategy.contains(z),
            "{case}: {z} missing from concurrent plan"
        );
    }
}

/// Every shard × thread configuration on engine `E` against the sequential
/// one-shard plan on `E`.
fn configurations_vs_sequential<'a, E: RevenueEngine<'a>>(
    label: &str,
    inst: &'a Instance,
    thread_counts: &[u32],
) {
    let seq = plan_with::<E>(inst, &PlannerConfig::default(), None);
    for shards in [1u32, 2, 4, 8] {
        for &threads in thread_counts {
            let cfg = PlannerConfig::default()
                .with_shards(shards)
                .with_shard_threads(threads);
            let conc = plan_with::<E>(inst, &cfg, None);
            let label = format!("{label}: {shards} shards, {threads} threads");
            assert_same_plan(&label, &seq, &conc);
        }
    }
}

/// The randomized oracle: ≥120 contended instances across engines × shards
/// {1, 2, 4, 8} × threads {1, 2, 4}. Thread counts above the shard count
/// are capped at it, and single-shard / single-thread configurations
/// resolve to one shard — those rows pin the no-regression contract; the
/// rest exercise the concurrent executor proper.
#[test]
fn concurrent_executor_matches_sequential_plans() {
    let mut rng = StdRng::seed_from_u64(0xC0CC);
    let thread_counts = thread_counts();
    for case in 0..120 {
        let inst = random_contended_instance(&mut rng);
        let label = |engine| format!("case {case} {engine}");
        configurations_vs_sequential::<Flat<'_>>(&label("flat"), &inst, &thread_counts);
        configurations_vs_sequential::<Hash<'_>>(&label("hash"), &inst, &thread_counts);
    }
}

/// An adversarial rejection instance: one hot item with capacity 1 that
/// every user values most. Every shard's first proposal targets the hot
/// item and parks; the coordinator claims for the sequentially leading one
/// and admits it, and its claim for every other shard's proposal finds the
/// item full and rejects it.
#[test]
fn every_losing_shards_first_proposal_is_rejected() {
    let users = 4u32;
    let mut b = InstanceBuilder::new(users, 2, 1);
    b.display_limit(1);
    // Hot item: capacity 1, top value for everyone.
    b.capacity(0, 1).constant_price(0, 100.0);
    // Filler item: abundant, lower value.
    b.capacity(1, users).constant_price(1, 10.0);
    for user in 0..users {
        b.candidate(user, 0, &[0.9], 0.0);
        b.candidate(user, 1, &[0.5], 0.0);
    }
    let inst = b.build().unwrap();

    let seq = plan(&inst, &PlannerConfig::default());
    let cfg = PlannerConfig::default()
        .with_shards(users)
        .with_shard_threads(users);
    let conc = plan(&inst, &cfg);
    assert_same_plan("rejection", &seq, &conc);

    let stats = &conc.concurrency;
    assert!(
        stats.worker_threads >= 2,
        "executor must actually run concurrent"
    );
    assert_eq!(
        stats.rejected_moves,
        (users - 1) as u64,
        "every shard but the winner is rejected on the hot item"
    );
    assert!(
        stats.arbitrated_moves >= users as u64,
        "each shard's hot-item proposal goes through arbitration"
    );
    assert!(
        stats.fast_path_moves > 0,
        "the filler item commits through the abundant fast path"
    );
}

/// Scarcity-window boundary: capacity exactly equal to demand is abundant
/// (`demand <= cap - used` holds with equality at the start), so no move
/// needs arbitration and the whole plan commits lock-free.
#[test]
fn capacity_equal_to_demand_stays_on_the_fast_path() {
    let users = 4u32;
    let mut b = InstanceBuilder::new(users, 1, 1);
    b.display_limit(1);
    b.capacity(0, users).constant_price(0, 10.0);
    for user in 0..users {
        b.candidate(user, 0, &[0.7], 0.0);
    }
    let inst = b.build().unwrap();

    let seq = plan(&inst, &PlannerConfig::default());
    let cfg = PlannerConfig::default()
        .with_shards(users)
        .with_shard_threads(2);
    let conc = plan(&inst, &cfg);
    assert_same_plan("boundary", &seq, &conc);

    let stats = &conc.concurrency;
    assert_eq!(
        stats.arbitrated_moves, 0,
        "capacity == demand never enters the scarce window"
    );
    assert_eq!(stats.fast_path_moves, users as u64);
    assert!((conc.concurrency.scarce_occupancy() - 0.0).abs() < 1e-12);
}

/// The flat engine, except that inserting a candidate of the instance's
/// last user panics.
struct PanicsOnLastUser<'a>(Flat<'a>);

impl<'a> RevenueEngine<'a> for PanicsOnLastUser<'a> {
    fn with_options(inst: &'a Instance, ignore_saturation: bool) -> Self {
        PanicsOnLastUser(Flat::with_options(inst, ignore_saturation))
    }

    fn for_shard(inst: &'a Instance, ignore_saturation: bool, shard: UserShard) -> Self {
        PanicsOnLastUser(Flat::for_shard(inst, ignore_saturation, shard))
    }

    fn group_size_cand(&self, cand: CandidateId) -> usize {
        self.0.group_size_cand(cand)
    }

    fn instance(&self) -> &'a Instance {
        self.0.instance()
    }

    fn revenue(&self) -> f64 {
        self.0.revenue()
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn would_violate_cand(&self, cand: CandidateId, t: TimeStep) -> bool {
        self.0.would_violate_cand(cand, t)
    }

    fn would_violate_display_cand(&self, cand: CandidateId, t: TimeStep) -> bool {
        self.0.would_violate_display_cand(cand, t)
    }

    fn marginal_revenue_cand(&self, cand: CandidateId, t: TimeStep) -> f64 {
        self.0.marginal_revenue_cand(cand, t)
    }

    fn marginal_revenue_batch(&self, cand: CandidateId, live_mask: u64, out: &mut [f64]) -> u32 {
        self.0.marginal_revenue_batch(cand, live_mask, out)
    }

    fn insert_cand(&mut self, cand: CandidateId, t: TimeStep) -> f64 {
        let inst = self.0.instance();
        assert!(
            inst.candidate_user(cand).0 + 1 < inst.num_users(),
            "injected panic for the last user"
        );
        self.0.insert_cand(cand, t)
    }

    fn release(self) {
        self.0.release()
    }
}

/// A panic in a planner's worker thread reaches the caller with its own
/// message. In the concurrent executor the worker's shards leave the
/// coordinator's barrier as it unwinds, and the pool re-raises the panic,
/// instead of the barrier waiting forever for them; RL-Greedy re-raises
/// the panic of the thread that ran its orders; and the default G-Greedy
/// plan of an abundant instance of 18,000 live slots runs one user at a
/// time, which a multi-core host does on one CPU shard per core: the
/// panic comes from the last user's per-user run, on the pool thread that
/// planned the last CPU shard, and the pool re-raises it.
#[test]
fn worker_panic_reaches_the_caller() {
    for (cfg, users) in [
        (
            PlannerConfig::default()
                .with_shards(2)
                .with_shard_threads(2),
            4u32,
        ),
        (
            PlannerConfig::default()
                .with_algorithm(PlanAlgorithm::RandomizedLocalGreedy { permutations: 4 }),
            4,
        ),
        (PlannerConfig::default(), 3_000),
    ] {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut b = InstanceBuilder::new(users, 2, 3);
            b.display_limit(1);
            b.capacity(0, users).constant_price(0, 10.0);
            b.capacity(1, users).constant_price(1, 5.0);
            for user in 0..users {
                b.candidate(user, 0, &[0.5, 0.4, 0.3], 0.0);
                b.candidate(user, 1, &[0.5, 0.4, 0.3], 0.0);
            }
            let inst = b.build().unwrap();
            let planned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                plan_with::<PanicsOnLastUser<'_>>(&inst, &cfg, None)
            }));
            let message = planned.err().map(|panic| {
                panic
                    .downcast_ref::<&str>()
                    .map(|m| m.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_default()
            });
            let _ = tx.send(message);
        });
        let message = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the planner hung after a worker panic");
        assert_eq!(
            message.as_deref(),
            Some("injected panic for the last user"),
            "{:?} with {users} users: the worker's panic must reach the caller",
            cfg.algorithm
        );
    }
}
