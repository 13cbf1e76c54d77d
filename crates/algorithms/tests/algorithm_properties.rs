//! Seeded randomized property and integration tests for the algorithm suite:
//! greedy validity and quality against the exact optimum on tiny instances,
//! engine (flat vs the `revmax_oracle` references: hash, eager) and
//! parallelism equivalence, the Max-DCS upper bound
//! for `T = 1`, the local-search guarantee, and end-to-end runs on generated
//! datasets.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use revmax_algorithms::{
    exact_optimum, global_greedy, local_search_r_revmax, plan, plan_with, randomized_local_greedy,
    run, sequential_local_greedy, solve_t1_exact, top_rating, top_revenue, Algorithm,
    PlanAlgorithm, PlannerConfig,
};
use revmax_core::{revenue, IncrementalRevenue as Flat, Instance, InstanceBuilder, RevenueEngine};
use revmax_data::{generate, DatasetConfig};
use revmax_oracle::{Eager, HashIncrementalRevenue as Hash};

/// Draws a random small instance (2–3 users, 2–4 items, horizon 1–3).
fn random_small_instance(rng: &mut StdRng) -> Instance {
    let num_users = rng.gen_range(2u32..=3);
    let num_items = rng.gen_range(2u32..=4);
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
            let probs: Vec<f64> = (0..horizon).map(|_| rng.gen_range(0.0..=1.0)).collect();
            if probs.iter().any(|&p| p > 0.0) {
                b.candidate(user, item, &probs, probs[0] * 5.0);
            }
        }
    }
    b.build().expect("random instance must build")
}

/// Every greedy algorithm emits a valid strategy whose reported revenue
/// matches an independent re-evaluation, and G-Greedy's revenue at least
/// matches the best isolated triple (its first pick).
#[test]
fn greedy_outputs_are_valid_and_consistent() {
    let mut rng = StdRng::seed_from_u64(41);
    for case in 0..48 {
        let inst = random_small_instance(&mut rng);
        let best_single = revmax_algorithms::candidate_triples(&inst)
            .into_iter()
            .map(|z| inst.isolated_revenue(z))
            .fold(0.0, f64::max);
        for (is_global, out) in [
            (true, global_greedy(&inst)),
            (false, sequential_local_greedy(&inst)),
            (false, randomized_local_greedy(&inst, 3, 1)),
        ] {
            assert!(out.strategy.validate(&inst).is_ok(), "case {case}");
            assert!(
                (out.revenue - revenue(&inst, &out.strategy)).abs() < 1e-9,
                "case {case}: reported {} vs re-evaluated {}",
                out.revenue,
                revenue(&inst, &out.strategy)
            );
            assert!(out.revenue >= 0.0, "case {case}");
            // Only G-Greedy picks the globally best isolated triple first and
            // then never decreases the objective; the local greedy algorithms
            // can be trapped by the chronological order (Example 4).
            if is_global {
                assert!(
                    out.revenue + 1e-9 >= best_single,
                    "case {case}: greedy revenue {} below best isolated triple {best_single}",
                    out.revenue
                );
            }
        }
    }
}

/// Greedy never exceeds the exact optimum, and eager re-evaluation and the
/// hash engine do not change the greedy result.
#[test]
fn greedy_below_optimum_and_invariant_to_internals() {
    let mut rng = StdRng::seed_from_u64(43);
    let mut checked = 0;
    for case in 0..60 {
        let inst = random_small_instance(&mut rng);
        if revmax_algorithms::candidate_triples(&inst).len() > 18 {
            continue;
        }
        checked += 1;
        let opt = exact_optimum(&inst, 18);
        let base = global_greedy(&inst);
        assert!(
            base.revenue <= opt.revenue + 1e-9,
            "case {case}: greedy beat the optimum"
        );
        let cfg = PlannerConfig::default();
        let eager = plan_with::<Eager<Flat<'_>>>(&inst, &cfg, None);
        let hash = plan_with::<Hash<'_>>(&inst, &cfg, None);
        assert!(
            (base.revenue - eager.revenue).abs() < 1e-9,
            "case {case}: lazy != eager"
        );
        assert!(
            (base.revenue - hash.revenue).abs() < 1e-9,
            "case {case}: flat != hash engine"
        );
        assert!(
            base.marginal_evaluations <= eager.marginal_evaluations,
            "case {case}"
        );
    }
    assert!(
        checked >= 10,
        "generator produced too few small instances ({checked})"
    );
}

/// SL-Greedy on engine `E` with the per-user scan forced parallel and
/// forced sequential: bit-identical revenue and strategy.
fn parallel_vs_sequential_scan<'a, E: RevenueEngine<'a>>(label: &str, inst: &'a Instance) {
    let cfg = PlannerConfig::default().with_algorithm(PlanAlgorithm::SequentialLocalGreedy);
    let seq = plan_with::<E>(inst, &cfg.with_parallel(Some(false)), None);
    let par = plan_with::<E>(inst, &cfg.with_parallel(Some(true)), None);
    assert_eq!(
        seq.revenue.to_bits(),
        par.revenue.to_bits(),
        "{label}: parallel scan changed the revenue"
    );
    assert_eq!(
        seq.strategy.as_slice(),
        par.strategy.as_slice(),
        "{label}: parallel scan changed the strategy"
    );
}

/// The parallel per-user scan and the sequential scan of local greedy produce
/// bit-identical revenues and identical strategies, for both engines.
#[test]
fn parallel_local_greedy_equals_sequential() {
    let mut rng = StdRng::seed_from_u64(47);
    for case in 0..30 {
        let inst = random_small_instance(&mut rng);
        parallel_vs_sequential_scan::<Flat<'_>>(&format!("case {case} (flat)"), &inst);
        parallel_vs_sequential_scan::<Hash<'_>>(&format!("case {case} (hash)"), &inst);
    }
}

/// For T = 1 the Max-DCS solver is exact: no heuristic beats it, and its
/// weight equals the dynamic revenue of its strategy when k = 1.
#[test]
fn t1_max_dcs_upper_bounds_greedy() {
    let mut rng = StdRng::seed_from_u64(53);
    let mut checked = 0;
    for case in 0..80 {
        let inst = random_small_instance(&mut rng);
        if inst.horizon() != 1 {
            continue;
        }
        checked += 1;
        let exact = solve_t1_exact(&inst);
        let gg = global_greedy(&inst);
        assert!(
            gg.revenue <= exact.weight + 1e-6,
            "case {case}: greedy {} beat exact {}",
            gg.revenue,
            exact.weight
        );
        if inst.display_limit() == 1 {
            assert!(
                (exact.weight - revenue(&inst, &exact.strategy)).abs() < 1e-6,
                "case {case}"
            );
        }
    }
    assert!(
        checked >= 10,
        "generator produced too few T=1 instances ({checked})"
    );
}

/// Local search on R-REVMAX satisfies its 1/(4+ε) guarantee against the
/// exact R-REVMAX optimum.
#[test]
fn local_search_guarantee_holds() {
    let mut rng = StdRng::seed_from_u64(59);
    let mut checked = 0;
    for case in 0..60 {
        let inst = random_small_instance(&mut rng);
        let ground = revmax_algorithms::candidate_triples(&inst).len();
        if ground == 0 || ground > 12 {
            continue;
        }
        checked += 1;
        let ls = local_search_r_revmax(&inst, 1.0, 12);
        let (_, opt) = revmax_algorithms::exact_r_revmax_optimum(&inst, 12);
        assert!(
            ls.objective >= opt / 5.0 - 1e-9,
            "case {case}: local search {} below 1/5 of optimum {opt}",
            ls.objective
        );
        assert!(ls.objective <= opt + 1e-9, "case {case}");
    }
    assert!(
        checked >= 5,
        "generator produced too few tiny instances ({checked})"
    );
}

#[test]
fn generated_dataset_end_to_end_ranking() {
    // A deterministic end-to-end run on a generated dataset: the revenue-aware
    // dynamic algorithms must beat the static baselines, reproducing the
    // qualitative ranking of Figures 1–3.
    let mut config = DatasetConfig::tiny();
    config.num_users = 40;
    config.num_items = 25;
    config.candidates_per_user = 10;
    // Keep capacities loose relative to the user base, like the paper's setup
    // (5000 for 23K users): the baselines ignore capacity when selecting, so a
    // tightly capacity-bound instance would compare them unfairly against the
    // constraint-respecting algorithms.
    config.capacity = revmax_data::CapacityDistribution::Gaussian {
        mean: 30.0,
        std: 4.0,
    };
    let ds = generate(&config);
    let inst = &ds.instance;

    let gg = global_greedy(inst);
    let slg = sequential_local_greedy(inst);
    let rlg = randomized_local_greedy(inst, 8, 3);
    let rat = top_rating(inst);
    let rev_baseline = top_revenue(inst);

    assert!(gg.strategy.validate(inst).is_ok());
    assert!(slg.strategy.validate(inst).is_ok());
    assert!(rlg.strategy.validate(inst).is_ok());

    assert!(gg.revenue > 0.0);
    // GG and RLG are both near-optimal on such datasets; on individual
    // instances either can edge out the other by a hair, so compare with a 2%
    // band rather than strictly (the strict claims below are the qualitative
    // ranking of the paper: dynamic algorithms beat static baselines).
    assert!(
        gg.revenue >= rlg.revenue * 0.98 && rlg.revenue + 1e-9 >= slg.revenue * 0.999,
        "expected GG ≈≥ RLG ≥ SLG, got {} / {} / {}",
        gg.revenue,
        rlg.revenue,
        slg.revenue
    );
    assert!(
        gg.revenue > rev_baseline.revenue,
        "GG ({}) should beat TopRev ({})",
        gg.revenue,
        rev_baseline.revenue
    );
    assert!(
        gg.revenue > rat.revenue,
        "GG ({}) should beat TopRat ({})",
        gg.revenue,
        rat.revenue
    );
    assert!(
        rev_baseline.revenue > rat.revenue,
        "price-aware TopRev ({}) should beat TopRat ({})",
        rev_baseline.revenue,
        rat.revenue
    );
}

#[test]
fn runner_reports_are_consistent_with_direct_calls() {
    let mut config = DatasetConfig::tiny();
    config.num_users = 20;
    config.candidates_per_user = 6;
    let ds = generate(&config);
    let inst = &ds.instance;
    let report = run(inst, &Algorithm::GlobalGreedy, 0);
    let direct = global_greedy(inst);
    assert!((report.revenue - direct.revenue).abs() < 1e-9);
    assert_eq!(report.strategy_size, direct.strategy.len());
    assert_eq!(report.algorithm, "GG");
    assert!(report.elapsed.as_nanos() > 0);
}

#[test]
fn saturation_ablation_loses_revenue_on_saturated_datasets() {
    // With strong saturation (β = 0.1), ignoring it during selection should
    // cost revenue relative to the saturation-aware greedy (the point of the
    // GlobalNo comparison in Figure 2).
    let mut config = DatasetConfig::tiny();
    config.beta = revmax_data::BetaSetting::Fixed(0.1);
    config.num_users = 40;
    config.candidates_per_user = 8;
    let ds = generate(&config);
    let inst = &ds.instance;
    let aware = global_greedy(inst);
    let oblivious = revmax_algorithms::global_no_saturation(inst);
    assert!(
        aware.revenue + 1e-9 >= oblivious.revenue,
        "saturation-aware {} vs oblivious {}",
        aware.revenue,
        oblivious.revenue
    );
}

/// The shard-partitioned core on engine `E` at 1, 2 and 7 shards against
/// the sequential flat plan: identical strategies and revenue to 1e-9.
fn shards_vs_sequential<'a, E: RevenueEngine<'a>>(
    label: &str,
    inst: &'a Instance,
    sequential: &revmax_algorithms::GreedyOutcome,
) {
    for shards in [1u32, 2, 7] {
        let cfg = PlannerConfig::default().with_shards(shards);
        let sharded = plan_with::<E>(inst, &cfg, None);
        assert!(
            (sharded.revenue - sequential.revenue).abs() < 1e-9,
            "{label} ({shards} shards): sharded {} vs sequential {}",
            sharded.revenue,
            sequential.revenue
        );
        assert_eq!(
            sharded.strategy.len(),
            sequential.strategy.len(),
            "{label} ({shards} shards): strategy sizes diverged"
        );
        for z in sequential.strategy.iter() {
            assert!(
                sharded.strategy.contains(z),
                "{label} ({shards} shards): {z} missing from sharded plan"
            );
        }
        assert!(sharded.strategy.validate(inst).is_ok(), "{label}");
    }
}

/// Engine-parity for the shard-partitioned core: every randomized instance
/// also runs the sharded path with 1, 2, and 7 shards, for both engines,
/// and must match the sequential flat plan to 1e-9 — identical strategies
/// and revenue (the coordinator replays the sequential selection order
/// exactly; see `revmax_algorithms::sharded`).
#[test]
fn sharded_global_greedy_matches_sequential_at_1_2_7_shards() {
    let mut rng = StdRng::seed_from_u64(0x5AAD);
    for case in 0..40 {
        let inst = random_small_instance(&mut rng);
        let sequential = global_greedy(&inst);
        shards_vs_sequential::<Flat<'_>>(&format!("case {case} flat"), &inst, &sequential);
        shards_vs_sequential::<Hash<'_>>(&format!("case {case} hash"), &inst, &sequential);
    }
}

/// Sharding through the unified front-end (`PlannerConfig::shards`) leaves
/// the G-Greedy plan unchanged, and SL-Greedy, which always plans on one
/// shard, is unchanged by it.
#[test]
fn shards_option_routes_through_public_apis() {
    let mut rng = StdRng::seed_from_u64(0x5AAF);
    let inst = random_small_instance(&mut rng);
    let base = global_greedy(&inst);
    let via_cfg = plan(&inst, &PlannerConfig::default().with_shards(3));
    assert!((base.revenue - via_cfg.revenue).abs() < 1e-9);
    assert_eq!(base.strategy.len(), via_cfg.strategy.len());

    let slg = sequential_local_greedy(&inst);
    let slg_sharded = plan(
        &inst,
        &PlannerConfig::default()
            .with_algorithm(PlanAlgorithm::SequentialLocalGreedy)
            .with_shards(3),
    );
    assert!((slg.revenue - slg_sharded.revenue).abs() < 1e-9);
}

/// Sharded parity on a generated dataset with binding capacities: the
/// acceptance-shaped check (a scaled-down analogue of
/// `amazon_like().scaled(0.02)`, where ~half the items end at capacity).
#[test]
fn sharded_matches_sequential_on_capacity_bound_dataset() {
    let mut config = DatasetConfig::tiny();
    config.num_users = 60;
    config.num_items = 20;
    config.candidates_per_user = 10;
    config.capacity = revmax_data::CapacityDistribution::Gaussian {
        mean: 12.0,
        std: 3.0,
    };
    let ds = generate(&config);
    let sequential = global_greedy(&ds.instance);
    for shards in [2u32, 4] {
        let sharded = plan(&ds.instance, &PlannerConfig::default().with_shards(shards));
        assert!(
            (sharded.revenue - sequential.revenue).abs()
                <= 1e-9 * sequential.revenue.abs().max(1.0),
            "{shards} shards: {} vs {}",
            sharded.revenue,
            sequential.revenue
        );
        assert_eq!(sharded.strategy.len(), sequential.strategy.len());
        for z in sequential.strategy.iter() {
            assert!(sharded.strategy.contains(z));
        }
    }
}

/// Every algorithm on a mid-size generated dataset: the flat and hash
/// engines must report the same revenue (relative 1e-9) and strategy size,
/// and G-Greedy must pick the same triples (the engine changes speed, not
/// behaviour).
#[test]
fn engines_agree_on_generated_dataset() {
    let mut config = DatasetConfig::tiny();
    config.num_users = 50;
    config.num_items = 30;
    config.candidates_per_user = 12;
    let ds = generate(&config);
    for algorithm in [
        PlanAlgorithm::GlobalGreedy,
        PlanAlgorithm::GlobalNoSaturation,
        PlanAlgorithm::SequentialLocalGreedy,
        PlanAlgorithm::RandomizedLocalGreedy { permutations: 4 },
    ] {
        let cfg = PlannerConfig::default().with_algorithm(algorithm);
        let flat = plan(&ds.instance, &cfg);
        let hash = plan_with::<Hash<'_>>(&ds.instance, &cfg, None);
        assert!(
            (flat.revenue - hash.revenue).abs() <= 1e-9 * flat.revenue.abs().max(1.0),
            "{algorithm:?}: flat {} vs hash {}",
            flat.revenue,
            hash.revenue
        );
        assert_eq!(
            flat.strategy.len(),
            hash.strategy.len(),
            "{algorithm:?}: strategy sizes diverged"
        );
        if algorithm == PlanAlgorithm::GlobalGreedy {
            for z in flat.strategy.iter() {
                assert!(hash.strategy.contains(z), "strategies diverged at {z}");
            }
        }
    }
}

/// `PlannerConfig::from_env` reads the shared environment knobs; this also
/// pins the layered `env_overlay` behaviour. Runs in one test to avoid
/// racing on process-global state.
#[test]
fn env_layering_reads_the_shared_knobs() {
    std::env::set_var("REVMAX_ALGORITHM", "slg");
    std::env::set_var("REVMAX_SHARDS", "3");
    std::env::set_var("REVMAX_SEED", "99");

    let cfg = PlannerConfig::from_env();
    assert_eq!(cfg.algorithm, PlanAlgorithm::SequentialLocalGreedy);
    assert_eq!(cfg.shards, 3);
    assert_eq!(cfg.seed, 99);

    // Layering: the overlay only replaces knobs that are actually set.
    std::env::remove_var("REVMAX_ALGORITHM");
    let layered = PlannerConfig::default()
        .with_algorithm(PlanAlgorithm::SequentialLocalGreedy)
        .with_track_trace(true)
        .env_overlay();
    assert_eq!(
        layered.algorithm,
        PlanAlgorithm::SequentialLocalGreedy,
        "unset knob preserved"
    );
    assert_eq!(layered.shards, 3, "set knob overlaid");
    assert!(layered.track_trace, "non-env knob untouched");

    std::env::remove_var("REVMAX_SHARDS");
    std::env::remove_var("REVMAX_SEED");
}

/// `plan` dispatches every algorithm variant to the same implementation as
/// the dedicated convenience functions.
#[test]
fn unified_plan_matches_dedicated_entry_points() {
    let mut rng = StdRng::seed_from_u64(0xD15);
    for _ in 0..10 {
        let inst = random_small_instance(&mut rng);
        let gg = plan(&inst, &PlannerConfig::default());
        assert_eq!(gg.revenue.to_bits(), global_greedy(&inst).revenue.to_bits());
        let slg = plan(
            &inst,
            &PlannerConfig::default().with_algorithm(PlanAlgorithm::SequentialLocalGreedy),
        );
        assert_eq!(
            slg.revenue.to_bits(),
            sequential_local_greedy(&inst).revenue.to_bits()
        );
        let rlg = plan(
            &inst,
            &PlannerConfig::default()
                .with_algorithm(PlanAlgorithm::RandomizedLocalGreedy { permutations: 3 })
                .with_seed(7),
        );
        assert_eq!(
            rlg.revenue.to_bits(),
            randomized_local_greedy(&inst, 3, 7).revenue.to_bits()
        );
        let no_sat = plan(
            &inst,
            &PlannerConfig::default().with_algorithm(PlanAlgorithm::GlobalNoSaturation),
        );
        let no_sat_direct = revmax_algorithms::global_no_saturation(&inst);
        assert_eq!(no_sat.revenue.to_bits(), no_sat_direct.revenue.to_bits());
        assert_eq!(
            no_sat.strategy.as_slice(),
            no_sat_direct.strategy.as_slice()
        );
    }
}
