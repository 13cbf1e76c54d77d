//! Randomized engine-parity suite.
//!
//! Every greedy plan runs on the tournament-tree selection core: G-Greedy
//! over the whole horizon on one shard or several, SL-Greedy and RL-Greedy
//! one time step at a time, all over the flat engine's slab walk. None of
//! that may change a single plan. On random instances whose classes are
//! shaped uniform-β, mixed-β, β = 1 or β = 0, this suite asserts:
//!
//! * **Flat == hash engine.** Plans produced by the flat engine match the
//!   hash engine run through [`plan_with`] to 1e-9 in revenue with
//!   identically sized, valid strategies — across GG and SLG, at 1 shard
//!   and at 2 shards on 2 worker threads.
//! * **The tree == the argmax oracles.** Every one-shard G-Greedy plan, on
//!   both engines, lazy and `Eager`, cold and warm, has the revenue bits
//!   and the strategy (in insertion order) of the naive argmax loop in
//!   `oracle/mod.rs` on the same engine type. The concurrent executor (2 or
//!   more shards on 2 or more worker threads), which folds revenue per
//!   shard and lists the strategy in shard order, matches it to 1e-9 with
//!   the same triple set. Every SL-Greedy and RL-Greedy plan — on the flat,
//!   hash and `Eager` engines, under full, reversed and partial orders,
//!   with parallel fills off and on, cold and warm — has the revenue bits,
//!   strategy order and trace of the step-by-step SL-Greedy oracle, and its
//!   evaluation count less the first step's scan, which an empty engine
//!   does not need. One case has ~21.6k candidates, so that every window
//!   fill that evaluates marginals (every one but a cold first) forks
//!   threads with parallel fills on, on a multi-core host.
//! * **One stage is G-Greedy.** Staged G-Greedy with one stage covering
//!   the horizon has G-Greedy's revenue bits, strategy order, trace and
//!   evaluation count.
//! * **One worker means one shard.** A multi-shard configuration that
//!   resolves fewer than two worker threads — one thread, or a traced plan
//!   — returns the one-shard outcome exactly: revenue, strategy order,
//!   trace and evaluation count.
//! * **Per-user plans are the argmax oracle's.** Where no item is scarce,
//!   G-Greedy runs one user at a time with `parallel` on and off, and a
//!   plan that reaches the fork threshold with it on also cuts its users
//!   into one CPU shard per core; on an instance of ~4.8k candidates, cold
//!   and as a warm residual, both plans have the argmax oracle's revenue
//!   bits, strategy order and trace, and each other's evaluation count.
//! * **Warm == cold.** Residual replans through the snapshot pool
//!   ([`plan_residual`] with `warm_start`) reproduce the cold plans exactly,
//!   and still seed/return the pooled buffers.
//!
//! The generator shapes each class independently as uniform-β, mixed-β,
//! β = 1 (memoryless) or β = 0 (full saturation), over horizons 2–6. In a
//! quarter of the tree suite's cases every user has the same candidate
//! rows, so marginals tie across users and the tie-break of the selection
//! order (the smaller candidate id) decides the plans.

mod oracle;

use oracle::{argmax_greedy, rl_greedy, sl_greedy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use revmax_algorithms::{
    global_greedy_staged, plan, plan_order, plan_residual, plan_with, ConcurrencyStats,
    GreedyOutcome, PlanAlgorithm, PlannerConfig,
};
use revmax_core::{
    residual_of_validated, validate_events, AdoptionEvent, EngineSnapshot,
    IncrementalRevenue as Flat, Instance, InstanceBuilder, ItemId, ResidualDelta, RevenueEngine,
    SharedCapacityLedger, Triple,
};
use revmax_oracle::{Eager, HashIncrementalRevenue as Hash};
use std::ops::RangeInclusive;

/// Per-class β shape the generator aimed for (used for coverage
/// accounting).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Shape {
    Uniform,
    Mixed,
    Unit,
    Zero,
}

/// A small instance mixing every class shape: 2–4 classes, each drawn as
/// uniform-β, per-item mixed-β, β = 1 or β = 0; horizons 2–6; tight
/// capacities so saturation and capacity retirement both fire. With
/// `twins`, every user has user 0's candidate rows, so marginals tie across
/// users and the selection order's tie-break decides which user an item
/// goes to.
fn random_parity_instance(rng: &mut StdRng, twins: bool) -> (Instance, Vec<Shape>) {
    let num_users = rng.gen_range(2u32..=5);
    let num_items = rng.gen_range(3u32..=6);
    let horizon = rng.gen_range(2u32..=6);
    let num_classes = rng.gen_range(2u32..=4);
    let shapes: Vec<Shape> = (0..num_classes)
        .map(|_| match rng.gen_range(0u8..=3) {
            0 => Shape::Uniform,
            1 => Shape::Mixed,
            2 => Shape::Unit,
            _ => Shape::Zero,
        })
        .collect();
    let uniform_betas: Vec<f64> = (0..num_classes)
        .map(|_| rng.gen_range(0.2..=0.95))
        .collect();
    let mut b = InstanceBuilder::new(num_users, num_items, horizon);
    b.display_limit(rng.gen_range(1u32..=2));
    for item in 0..num_items {
        let class = rng.gen_range(0..num_classes);
        b.item_class(item, class);
        b.beta(
            item,
            match shapes[class as usize] {
                Shape::Uniform => uniform_betas[class as usize],
                Shape::Mixed => rng.gen_range(0.1..=1.0),
                Shape::Unit => 1.0,
                Shape::Zero => 0.0,
            },
        );
        b.capacity(item, rng.gen_range(1u32..=3));
        let prices: Vec<f64> = (0..horizon).map(|_| rng.gen_range(5.0..50.0)).collect();
        b.prices(item, &prices);
    }
    let mut first_rows: Vec<Option<Vec<f64>>> = Vec::new();
    for user in 0..num_users {
        for item in 0..num_items {
            let row = if twins && user > 0 {
                first_rows[item as usize].clone()
            } else {
                rng.gen_bool(0.8)
                    .then(|| (0..horizon).map(|_| rng.gen_range(0.05..0.8)).collect())
            };
            if user == 0 {
                first_rows.push(row.clone());
            }
            if let Some(probs) = row {
                b.candidate(user, item, &probs, probs[0] * 5.0);
            }
        }
    }
    (b.build().expect("parity instance must build"), shapes)
}

/// Valid random event prefix up to `now` (same scheme as the residual suite).
fn random_events(rng: &mut StdRng, inst: &Instance, now: u32) -> Vec<AdoptionEvent> {
    let mut events = Vec::new();
    for t in 1..=now {
        for user in 0..inst.num_users() {
            let mut shown: Vec<u32> = Vec::new();
            for _slot in 0..inst.display_limit() {
                if !rng.gen_bool(0.7) {
                    continue;
                }
                let item = rng.gen_range(0..inst.num_items());
                if shown.contains(&item) {
                    continue;
                }
                shown.push(item);
                let adopted = rng.gen_bool(0.3);
                events.push(if adopted {
                    AdoptionEvent::adopted(user, item, t)
                } else {
                    AdoptionEvent::rejected(user, item, t)
                });
            }
        }
    }
    assert!(validate_events(inst, &events, now).is_ok());
    events
}

const ALGORITHMS: [PlanAlgorithm; 2] = [
    PlanAlgorithm::GlobalGreedy,
    PlanAlgorithm::SequentialLocalGreedy,
];

/// Asserts that `other` is `reference`'s plan bit for bit: the same revenue
/// bits and the same strategy in the same insertion order.
fn assert_bit_identical(label: &str, reference: &GreedyOutcome, other: &GreedyOutcome) {
    assert_eq!(
        reference.revenue.to_bits(),
        other.revenue.to_bits(),
        "{label}: revenue {} vs reference {}",
        other.revenue,
        reference.revenue
    );
    assert_eq!(
        reference.strategy.as_slice(),
        other.strategy.as_slice(),
        "{label}: strategy diverged"
    );
}

/// The concurrent executor's contract (`concurrent_parity.rs`): revenue to
/// 1e-9 — it folds revenue per shard — and the same triple set.
fn assert_same_plan(label: &str, reference: &GreedyOutcome, other: &GreedyOutcome) {
    assert!(
        (reference.revenue - other.revenue).abs() < 1e-9,
        "{label}: revenue {} vs reference {}",
        other.revenue,
        reference.revenue
    );
    let sorted = |o: &GreedyOutcome| {
        let mut triples: Vec<Triple> = o.strategy.iter().collect();
        triples.sort_unstable();
        triples
    };
    assert_eq!(
        sorted(reference),
        sorted(other),
        "{label}: triple sets diverged"
    );
}

/// Asserts that `out` is the argmax oracle's G-Greedy plan on engine `E`:
/// bit for bit on one shard, and as [`assert_same_plan`] from the
/// concurrent executor.
fn assert_oracle_plan<'a, E: RevenueEngine<'a>>(
    label: &str,
    inst: &'a Instance,
    cfg: &PlannerConfig,
    out: &GreedyOutcome,
) {
    let reference = argmax_greedy::<E>(inst, cfg, None);
    let label = format!("{label} vs argmax oracle");
    if out.concurrency.worker_threads >= 2 {
        assert_same_plan(&label, &reference, out);
    } else {
        assert_bit_identical(&label, &reference, out);
    }
}

#[test]
fn flat_plans_match_the_hash_engine_and_the_heap_oracle() {
    let mut rng = StdRng::seed_from_u64(0x4b45_524e);
    let mut degenerate_cases = 0u32;
    for case in 0..120u32 {
        let (inst, shapes) = random_parity_instance(&mut rng, false);
        if shapes.contains(&Shape::Unit) || shapes.contains(&Shape::Zero) {
            degenerate_cases += 1;
        }

        for algorithm in ALGORITHMS {
            for shards in [1u32, 2] {
                let base = PlannerConfig::default()
                    .with_algorithm(algorithm)
                    .with_shards(shards)
                    .with_shard_threads(2);
                let flat = plan(&inst, &base);
                let hash = plan_with::<Hash<'_>>(&inst, &base, None);
                assert!(
                    (flat.revenue - hash.revenue).abs() <= 1e-9 * flat.revenue.abs().max(1.0),
                    "case {case} {algorithm:?} shards {shards}: flat {} vs hash {}",
                    flat.revenue,
                    hash.revenue
                );
                assert_eq!(
                    flat.strategy.len(),
                    hash.strategy.len(),
                    "case {case} {algorithm:?} shards {shards}: hash strategy size"
                );
                assert!(
                    flat.strategy.validate(&inst).is_ok(),
                    "case {case} {algorithm:?} shards {shards}: flat plan invalid"
                );
                if algorithm == PlanAlgorithm::GlobalGreedy {
                    let label = |engine| format!("case {case} shards {shards} {engine}");
                    assert_oracle_plan::<Flat<'_>>(&label("flat"), &inst, &base, &flat);
                    assert_oracle_plan::<Hash<'_>>(&label("hash"), &inst, &base, &hash);
                }
            }
        }
    }
    // The suite must exercise the degenerate β classes, not vacuously pass
    // without them.
    assert!(
        degenerate_cases >= 15,
        "only {degenerate_cases} of 120 cases had β ∈ {{0, 1}} classes"
    );
}

/// Asserts that `other` records `reference`'s trace bit for bit.
fn assert_same_trace(label: &str, reference: &GreedyOutcome, other: &GreedyOutcome) {
    let bits = |o: &GreedyOutcome| o.trace.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(reference), bits(other), "{label}: trace diverged");
}

/// Asserts that `out`, a plan of `inst` under `order` started from an
/// empty engine, is `reference`, the SL-Greedy oracle's plan of it: the
/// revenue bits, the strategy in insertion order and the trace bits. The
/// oracle scans every candidate at the start of each step; the core reads a
/// step that starts on an empty engine (every step up to the first
/// insertion) off the instance for free, so the oracle counts one
/// evaluation per candidate more for each such step.
fn assert_sl_plan(
    label: &str,
    inst: &Instance,
    order: &[u32],
    reference: &GreedyOutcome,
    out: &GreedyOutcome,
) {
    let label = format!("{label} vs SL-Greedy oracle");
    assert_bit_identical(&label, reference, out);
    assert_same_trace(&label, reference, out);
    let empty_steps = match reference.strategy.as_slice().first() {
        Some(z) => order
            .iter()
            .position(|&t| t == z.t.value())
            .map_or(0, |p| p + 1),
        None => order.len(),
    };
    assert_eq!(
        out.marginal_evaluations + (empty_steps * inst.num_candidates()) as u64,
        reference.marginal_evaluations,
        "{label}: marginal evaluations"
    );
}

/// SL-Greedy and RL-Greedy (4 permutations) on engine `E`, with parallel
/// fills off and on, against the SL-Greedy oracle on the same engine type.
fn local_vs_oracle<'a, E: RevenueEngine<'a>>(label: &str, inst: &'a Instance) {
    let base = PlannerConfig::default();
    let chronological: Vec<u32> = (1..=inst.horizon()).collect();
    let sl_reference = sl_greedy::<E>(inst, &chronological, &base, None);
    let (rl_order, rl_reference) = rl_greedy::<E>(inst, 4, &base, None);
    for parallel in [false, true] {
        let cfg = base.with_parallel(Some(parallel));
        for (algorithm, order, reference) in [
            (
                PlanAlgorithm::SequentialLocalGreedy,
                &chronological,
                &sl_reference,
            ),
            (
                PlanAlgorithm::RandomizedLocalGreedy { permutations: 4 },
                &rl_order,
                &rl_reference,
            ),
        ] {
            let out = plan_with::<E>(inst, &cfg.with_algorithm(algorithm), None);
            let label = format!("{label} {algorithm:?}, parallel {parallel}");
            assert_sl_plan(&label, inst, order, reference, &out);
        }
    }
}

/// [`plan_order`] under reversed and partial orders, with parallel fills
/// off and on, against the SL-Greedy oracle on the flat engine.
fn orders_vs_oracle(label: &str, inst: &Instance) {
    let horizon = inst.horizon();
    for order in [
        (1..=horizon).rev().collect::<Vec<u32>>(),
        (1..=horizon).rev().step_by(2).collect(),
    ] {
        let reference = sl_greedy::<Flat<'_>>(inst, &order, &PlannerConfig::default(), None);
        for parallel in [false, true] {
            let cfg = PlannerConfig::default().with_parallel(Some(parallel));
            let out = plan_order(inst, &order, &cfg);
            let label = format!("{label} order {order:?}, parallel {parallel}");
            assert_sl_plan(&label, inst, &order, &reference, &out);
        }
    }
}

/// Asserts that `other` is `one_shard`'s outcome exactly: the plan bit for
/// bit, the trace bits, the evaluation count, and zeroed executor
/// statistics.
fn assert_one_shard_outcome(label: &str, one_shard: &GreedyOutcome, other: &GreedyOutcome) {
    assert_bit_identical(label, one_shard, other);
    assert_same_trace(label, one_shard, other);
    assert_eq!(
        one_shard.marginal_evaluations, other.marginal_evaluations,
        "{label}: marginal evaluations diverged"
    );
    assert_eq!(
        other.concurrency,
        ConcurrencyStats::default(),
        "{label}: executor statistics of a one-shard plan"
    );
}

/// The tree on engine `E` against the argmax oracle on the same engine type,
/// with `base` traced: the one-shard plan matches revenue, strategy and
/// trace bit for bit. Every multi-shard configuration that resolves fewer
/// than two worker threads — 2 and 4 shards on one thread, and the traced
/// plan at 2 shards × 2 threads — returns the one-shard outcome exactly,
/// and 2 shards × 2 threads untraced runs the concurrent executor, which
/// matches the oracle's plan.
fn tree_vs_oracle<'a, E: RevenueEngine<'a>>(label: &str, inst: &'a Instance, base: &PlannerConfig) {
    let reference = argmax_greedy::<E>(inst, base, None);
    let one_shard = plan_with::<E>(inst, base, None);
    let one_label = format!("{label} one shard");
    assert_bit_identical(&one_label, &reference, &one_shard);
    assert_same_trace(&one_label, &reference, &one_shard);

    let untraced = base.with_track_trace(false);
    let one_shard_untraced = plan_with::<E>(inst, &untraced, None);
    for (cfg, one) in [
        (
            untraced.with_shards(2).with_shard_threads(1),
            &one_shard_untraced,
        ),
        (
            untraced.with_shards(4).with_shard_threads(1),
            &one_shard_untraced,
        ),
        (base.with_shards(2).with_shard_threads(2), &one_shard),
    ] {
        let out = plan_with::<E>(inst, &cfg, None);
        let label = format!(
            "{label} {} shards x {} threads, traced {}",
            cfg.shards, cfg.shard_threads, cfg.track_trace
        );
        assert_one_shard_outcome(&label, one, &out);
    }

    let concurrent = plan_with::<E>(inst, &untraced.with_shards(2).with_shard_threads(2), None);
    assert_same_plan(
        &format!("{label} 2 shards x 2 threads vs argmax oracle"),
        &reference,
        &concurrent,
    );
}

#[test]
fn tree_plans_are_bit_identical_to_the_heap_oracle() {
    let mut rng = StdRng::seed_from_u64(0x0ba7_c4ed);
    for case in 0..80u32 {
        let (inst, _) = random_parity_instance(&mut rng, case >= 60);
        for algorithm in [
            PlanAlgorithm::GlobalGreedy,
            PlanAlgorithm::GlobalNoSaturation,
        ] {
            let base = PlannerConfig::default()
                .with_algorithm(algorithm)
                .with_track_trace(true);
            let label = |engine| format!("case {case} {algorithm:?} {engine}");
            tree_vs_oracle::<Flat<'_>>(&label("flat lazy"), &inst, &base);
            tree_vs_oracle::<Hash<'_>>(&label("hash lazy"), &inst, &base);
            tree_vs_oracle::<Eager<Flat<'_>>>(&label("flat eager"), &inst, &base);
            tree_vs_oracle::<Eager<Hash<'_>>>(&label("hash eager"), &inst, &base);
        }
        let label = |engine| format!("case {case} {engine}");
        local_vs_oracle::<Flat<'_>>(&label("flat lazy"), &inst);
        local_vs_oracle::<Hash<'_>>(&label("hash lazy"), &inst);
        local_vs_oracle::<Eager<Flat<'_>>>(&label("flat eager"), &inst);
        orders_vs_oracle(&label("flat lazy"), &inst);
    }
}

/// An instance of `num_users` users × 60 items at 90% density, with
/// horizon drawn from `horizons` and item capacities of 3–8 times
/// `capacity_scale`. At 90 users (~4.8k candidates, where the small
/// generator stays under a hundred) the selection core and the concurrent
/// executor get parity coverage at a size where a shard's tournament spans
/// 75–300 leaf blocks of 16 candidates under a winner tree seven to nine
/// levels deep, and a column block re-summarises the four or five leaf
/// blocks under one user's ~54 candidates at once. At 400 users (~21.6k
/// candidates) every one-step window holds more than the 16,384 live slots
/// from which a parallel fill forks threads.
fn large_parity_instance(
    rng: &mut StdRng,
    num_users: u32,
    horizons: RangeInclusive<u32>,
    capacity_scale: u32,
) -> Instance {
    let num_items = 60;
    let horizon = rng.gen_range(horizons);
    let num_classes = 5;
    let uniform_betas: Vec<f64> = (0..num_classes)
        .map(|_| rng.gen_range(0.2..=0.95))
        .collect();
    let mut b = InstanceBuilder::new(num_users, num_items, horizon);
    b.display_limit(2);
    for item in 0..num_items {
        let class = rng.gen_range(0..num_classes);
        b.item_class(item, class);
        // Half the classes uniform-β, half mixed, so both class shapes run
        // under the tree.
        b.beta(
            item,
            if class % 2 == 0 {
                uniform_betas[class as usize]
            } else {
                rng.gen_range(0.1..=1.0)
            },
        );
        b.capacity(item, rng.gen_range(3u32..=8) * capacity_scale);
        let prices: Vec<f64> = (0..horizon).map(|_| rng.gen_range(5.0..50.0)).collect();
        b.prices(item, &prices);
    }
    for user in 0..num_users {
        for item in 0..num_items {
            if rng.gen_bool(0.9) {
                let probs: Vec<f64> = (0..horizon).map(|_| rng.gen_range(0.05..0.8)).collect();
                b.candidate(user, item, &probs, probs[0] * 5.0);
            }
        }
    }
    b.build().expect("large parity instance must build")
}

/// SL-Greedy on `target` (cold, or a warm residual replan with `delta`),
/// with parallel fills off and on, against the SL-Greedy oracle on the flat
/// engine.
fn large_sl_vs_oracle(
    label: &str,
    target: &Instance,
    cfg: &PlannerConfig,
    delta: Option<&ResidualDelta>,
) {
    let chronological: Vec<u32> = (1..=target.horizon()).collect();
    let reference = sl_greedy::<Flat<'_>>(target, &chronological, cfg, delta);
    for parallel in [false, true] {
        let cfg = cfg
            .with_algorithm(PlanAlgorithm::SequentialLocalGreedy)
            .with_parallel(Some(parallel));
        let sl = plan_residual(target, &cfg, delta);
        let label = format!("{label}: SL-Greedy, parallel {parallel}");
        assert_sl_plan(&label, target, &chronological, &reference, &sl);
    }
}

#[test]
fn tree_matches_the_heap_oracle_at_scale() {
    let mut rng = StdRng::seed_from_u64(0x0070_4a4e);
    for case in 0..3u32 {
        let inst = large_parity_instance(&mut rng, 90, 4..=6, 1);
        let now = rng.gen_range(1..inst.horizon());
        let events = random_events(&mut rng, &inst, now);
        let residual = residual_of_validated(&inst, &events, now);
        let base = PlannerConfig::default();
        let warm = base.with_warm_start(true);
        let snapshot = EngineSnapshot::new();
        let delta = ResidualDelta::initial(snapshot.clone());

        for (phase, target, cfg, delta) in [
            ("cold", &inst, &base, None),
            ("warm residual", &residual, &warm, Some(&delta)),
        ] {
            let reference = argmax_greedy::<Flat<'_>>(target, cfg, delta);
            assert!(reference.strategy.validate(target).is_ok());
            for (shards, threads) in [(1u32, 1u32), (2, 2), (4, 2)] {
                let cfg = cfg.with_shards(shards).with_shard_threads(threads);
                let tree = plan_residual(target, &cfg, delta);
                let label =
                    format!("case {case} {phase}: {shards} shards, {threads} shard threads");
                if threads >= 2 {
                    assert_eq!(tree.concurrency.worker_threads, threads, "{label}");
                    assert_same_plan(&label, &reference, &tree);
                } else {
                    assert_bit_identical(&label, &reference, &tree);
                }
            }
            large_sl_vs_oracle(&format!("case {case} {phase}"), target, cfg, delta);
        }
        let hash = plan_with::<Hash<'_>>(&inst, &base, None);
        let flat = plan(&inst, &base);
        assert!(
            (flat.revenue - hash.revenue).abs() <= 1e-9 * hash.revenue.abs().max(1.0),
            "case {case}: flat {} vs hash oracle {}",
            flat.revenue,
            hash.revenue
        );
    }

    // SL-Greedy where every one-step window, cold and on the warm residual,
    // exceeds the fork threshold: with parallel fills on, each window fill
    // that evaluates marginals forks threads on a multi-core host (a cold
    // fill never forks). A window after the first insertion is
    // engine-valued; the residual at `now = 1` keeps two steps so that its
    // second window is one.
    let inst = large_parity_instance(&mut rng, 400, 3..=3, 20);
    let now = 1;
    let events = random_events(&mut rng, &inst, now);
    let residual = residual_of_validated(&inst, &events, now);
    for target in [&inst, &residual] {
        assert!(
            target.num_candidates() >= 1 << 14,
            "{} candidates: a one-step window would not fork",
            target.num_candidates()
        );
    }
    let delta = ResidualDelta::initial(EngineSnapshot::new());
    let base = PlannerConfig::default();
    large_sl_vs_oracle("wide cold", &inst, &base, None);
    large_sl_vs_oracle(
        "wide warm residual",
        &residual,
        &base.with_warm_start(true),
        Some(&delta),
    );
}

/// The default G-Greedy plan where no item can bind: on
/// `large_parity_instance(rng, 90, T..=T, 30)` every item's capacity is at
/// least the 90 users, so no item is scarce, cold or on a warm residual,
/// and the ~19–29k live slots of horizons 4–6 reach the fork threshold (a
/// residual at `now = 1` does from horizon 5). Such a plan runs one user
/// at a time with `parallel` off and on; with it on, a multi-core host
/// also cuts the users into one CPU shard per core, each on its own
/// thread. Both plans must be the argmax oracle's (revenue bits, strategy
/// order and trace), and each other's evaluation count too, for G-Greedy
/// and GG-No, traced and untraced. (The oracle drops a display-full slot
/// only when it surfaces, so its refreshes evaluate more slots.)
#[test]
fn abundant_plans_split_across_cpus_as_the_one_shard_plan() {
    let mut rng = StdRng::seed_from_u64(0x5b17);
    for horizon in 4..=6 {
        let inst = large_parity_instance(&mut rng, 90, horizon..=horizon, 30);
        let events = random_events(&mut rng, &inst, 1);
        let residual = residual_of_validated(&inst, &events, 1);
        let delta = ResidualDelta::initial(EngineSnapshot::new());
        let mut phases = vec![("cold", &inst, false, None)];
        if horizon >= 5 {
            phases.push(("warm residual", &residual, true, Some(&delta)));
        }
        for (phase, target, warm, delta) in phases {
            let case = format!("horizon {horizon}");
            let ledger = SharedCapacityLedger::new(target);
            assert!(
                (0..target.num_items()).all(|i| !ledger.is_scarce(ItemId(i))),
                "case {case} {phase}: an item is scarce"
            );
            let slots = target.num_candidates() * target.horizon() as usize;
            assert!(slots >= 1 << 14, "case {case} {phase}: {slots} live slots");
            for algorithm in [
                PlanAlgorithm::GlobalGreedy,
                PlanAlgorithm::GlobalNoSaturation,
            ] {
                for traced in [false, true] {
                    let cfg = PlannerConfig::default()
                        .with_algorithm(algorithm)
                        .with_track_trace(traced)
                        .with_warm_start(warm);
                    let reference = argmax_greedy::<Flat<'_>>(target, &cfg, delta);
                    let sequential = plan_residual(target, &cfg.with_parallel(Some(false)), delta);
                    let parallel = plan_residual(target, &cfg, delta);
                    let label = format!("case {case} {phase} {algorithm:?}, traced {traced}");
                    for (name, out) in [("parallel off", &sequential), ("parallel on", &parallel)] {
                        let label = format!("{label}, {name} vs argmax oracle");
                        assert_bit_identical(&label, &reference, out);
                        assert_same_trace(&label, &reference, out);
                    }
                    assert_one_shard_outcome(&label, &sequential, &parallel);
                }
            }
        }
    }
}

/// One stage covering the horizon is G-Greedy itself: staged G-Greedy with
/// the single cut `T` has traced G-Greedy's revenue bits, strategy in
/// insertion order, trace and marginal evaluation count.
#[test]
fn one_stage_is_g_greedy() {
    let mut rng = StdRng::seed_from_u64(0x5747);
    let traced = PlannerConfig::default().with_track_trace(true);
    for case in 0..3000u32 {
        let (inst, _) = random_parity_instance(&mut rng, case % 4 == 3);
        let holistic = plan(&inst, &traced);
        let staged = global_greedy_staged(&inst, &[inst.horizon()]);
        let label = format!("case {case}: one stage vs G-Greedy");
        assert_bit_identical(&label, &holistic, &staged);
        assert_same_trace(&label, &holistic, &staged);
        assert_eq!(
            holistic.marginal_evaluations, staged.marginal_evaluations,
            "{label}: marginal evaluations"
        );
    }
}

/// Cold and warm residual replans on engine `E` at 1 shard and at 2 shards
/// on 2 worker threads: warm equals cold bit for bit, G-Greedy equals the
/// argmax oracle on `E` ([`assert_oracle_plan`]), and SL-Greedy the
/// SL-Greedy oracle on `E` ([`assert_sl_plan`]).
fn warm_vs_cold<'a, E: RevenueEngine<'a>>(
    label: &str,
    residual: &'a Instance,
    base: &PlannerConfig,
    delta: &ResidualDelta,
) {
    for shards in [1u32, 2] {
        let cfg = base.with_shards(shards).with_shard_threads(2);
        let cold = plan_with::<E>(residual, &cfg, None);
        let warm = plan_with::<E>(residual, &cfg.with_warm_start(true), Some(delta));
        let label = format!("{label} shards {shards}");
        assert_bit_identical(&format!("{label} warm vs cold"), &cold, &warm);
        if base.algorithm == PlanAlgorithm::GlobalGreedy {
            assert_oracle_plan::<E>(&label, residual, base, &cold);
        } else {
            let chronological: Vec<u32> = (1..=residual.horizon()).collect();
            let reference = sl_greedy::<E>(residual, &chronological, base, None);
            assert_sl_plan(&label, residual, &chronological, &reference, &cold);
        }
        assert!(cold.strategy.validate(residual).is_ok());
    }
}

#[test]
fn warm_replans_match_cold_and_the_heap_oracle() {
    let mut rng = StdRng::seed_from_u64(0x3a64_77a8);
    for case in 0..60u32 {
        let (inst, _) = random_parity_instance(&mut rng, false);
        let now = rng.gen_range(1..inst.horizon());
        let events = random_events(&mut rng, &inst, now);
        let residual = residual_of_validated(&inst, &events, now);

        let snapshot = EngineSnapshot::new();
        let delta = ResidualDelta::initial(snapshot.clone());
        for algorithm in ALGORITHMS {
            let base = PlannerConfig::default().with_algorithm(algorithm);
            let label = |engine| format!("case {case} {algorithm:?} {engine}");
            warm_vs_cold::<Flat<'_>>(&label("flat"), &residual, &base, &delta);
            warm_vs_cold::<Hash<'_>>(&label("hash"), &residual, &base, &delta);
        }
        assert!(
            snapshot.has_tables(),
            "case {case}: warm replans must seed the snapshot pool"
        );
        assert!(
            snapshot.pooled_buffers() > 0,
            "case {case}: warm engines must return their buffers"
        );
    }
}
