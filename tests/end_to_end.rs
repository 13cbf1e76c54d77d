//! Workspace-level integration tests: the full pipeline from dataset
//! generation through optimization, exercised via the `revmax` facade exactly
//! the way a downstream user would.

use revmax::prelude::*;

fn small_marketplace() -> GeneratedDataset {
    let mut config = DatasetConfig::tiny();
    config.num_users = 50;
    config.num_items = 30;
    config.candidates_per_user = 10;
    config.horizon = 5;
    config.capacity = CapacityDistribution::Gaussian {
        mean: 40.0,
        std: 4.0,
    };
    generate(&config)
}

#[test]
fn full_pipeline_produces_profitable_valid_plans() {
    let ds = small_marketplace();
    let inst = &ds.instance;
    assert!(ds.positive_triples() > 500);
    assert!(ds.mf_rmse.is_finite() && ds.mf_rmse < 2.0);

    let gg = global_greedy(inst);
    assert!(gg.strategy.validate(inst).is_ok());
    assert!(gg.revenue > 0.0);
    // The reported revenue is reproducible from the strategy alone.
    assert!((gg.revenue - revenue(inst, &gg.strategy)).abs() < 1e-9);
}

#[test]
fn paper_ranking_holds_end_to_end() {
    let ds = small_marketplace();
    let inst = &ds.instance;
    let gg = global_greedy(inst);
    let slg = sequential_local_greedy(inst);
    let rlg = randomized_local_greedy(inst, 6, 9);
    let top_re = top_revenue(inst);
    let top_ra = top_rating(inst);

    // The qualitative ordering the paper reports in Figures 1–3:
    // GG ≥ RLG ≥ (roughly) SLG, and all greedy variants beat the baselines.
    assert!(gg.revenue + 1e-9 >= rlg.revenue);
    assert!(rlg.revenue + 1e-9 >= slg.revenue);
    assert!(gg.revenue > top_re.revenue);
    assert!(gg.revenue > top_ra.revenue);
    assert!(top_re.revenue > top_ra.revenue);
}

#[test]
fn runner_covers_staged_price_information() {
    let ds = small_marketplace();
    let inst = &ds.instance;
    let holistic = run(inst, &Algorithm::GlobalGreedy, 1);
    let staged = run(
        inst,
        &Algorithm::StagedGlobalGreedy {
            stage_ends: vec![2],
        },
        1,
    );
    assert!(staged.outcome.strategy.validate(inst).is_ok());
    // The reported revenue is the revenue of the staged plan.
    assert!((staged.revenue - revenue(inst, &staged.outcome.strategy)).abs() < 1e-9);
    // It still vastly outperforms the static rating baseline.
    let top_ra = run(inst, &Algorithm::TopRating, 1);
    assert!(staged.revenue > top_ra.revenue);
    // Greedy is not monotone in foresight: some Figure 7 rows plan more
    // revenue staged than holistically (docs/submodularity.md), so nothing
    // orders the two. This instance's revenues are pinned bit for bit.
    assert_eq!(holistic.revenue.to_bits(), 3708.355964820072f64.to_bits());
    assert_eq!(staged.revenue.to_bits(), 3594.7963256898383f64.to_bits());
}

#[test]
fn t1_special_case_agrees_with_exact_solver() {
    // Build a single-day instance through the generator and check the greedy
    // against the exact Max-DCS optimum.
    let mut config = DatasetConfig::tiny();
    config.horizon = 1;
    config.num_users = 25;
    config.num_items = 15;
    config.candidates_per_user = 8;
    let ds = generate(&config);
    let exact = solve_t1_exact(&ds.instance);
    let greedy = global_greedy(&ds.instance);
    assert!(greedy.revenue <= exact.weight + 1e-6);
    assert!(greedy.revenue >= 0.85 * exact.weight);
}

#[test]
fn saturation_strength_shifts_repeat_behaviour() {
    // Figure 5's qualitative claim: with weak saturation (β = 0.9) G-Greedy
    // repeats recommendations more than with strong saturation (β = 0.1).
    // Give every user clearly more candidate items than recommendation slots,
    // so the greedy is never *forced* to repeat and the effect of β is visible.
    let repeats_for = |beta: f64| {
        let mut config = DatasetConfig::tiny();
        config.num_users = 60;
        config.num_items = 40;
        config.candidates_per_user = 15;
        config.horizon = 5;
        config.display_limit = 2;
        config.beta = BetaSetting::Fixed(beta);
        let ds = generate(&config);
        let gg = global_greedy(&ds.instance);
        let hist = gg.strategy.repeat_histogram();
        let total: u32 = hist.values().sum();
        total as f64 / hist.len().max(1) as f64 // mean repeats per (user, item) pair
    };
    let strong = repeats_for(0.1);
    let weak = repeats_for(0.9);
    assert!(
        weak + 1e-9 >= strong,
        "weak saturation should allow at least as many repeats on average ({weak} vs {strong})"
    );
}
