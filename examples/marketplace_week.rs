//! Marketplace week: the end-to-end pipeline the paper evaluates.
//!
//! Generates an Amazon-like marketplace (ratings → matrix factorization →
//! valuations → adoption probabilities → prices over a 7-day horizon), then
//! compares all algorithms of §6 on expected revenue and running time.
//!
//! Run with: `cargo run --release --example marketplace_week`

use revmax::prelude::*;

fn main() {
    // ~1 % of the paper's Amazon crawl; bump the factor for a heavier run.
    let mut config = DatasetConfig::amazon_like().scaled(0.01);
    config.candidates_per_user = 40;
    println!("generating dataset `{}` …", config.name);
    let dataset = generate(&config);
    let stats = Table1Stats::from_dataset(&dataset);
    println!("{}", Table1Stats::header());
    println!("{stats}");
    println!(
        "hold-out RMSE of the MF substrate: {:.3}\n",
        dataset.mf_rmse
    );

    let lineup = vec![
        Algorithm::GlobalGreedy,
        Algorithm::GlobalNoSaturation,
        Algorithm::RandomizedLocalGreedy { permutations: 10 },
        Algorithm::SequentialLocalGreedy,
        Algorithm::TopRevenue,
        Algorithm::TopRating,
    ];
    println!(
        "{:<8} {:>16} {:>10} {:>12} {:>16}",
        "alg", "exp. revenue", "size", "seconds", "marginal evals"
    );
    let mut best: Option<RunReport> = None;
    for alg in &lineup {
        let report = run(&dataset.instance, alg, 42);
        println!(
            "{:<8} {:>16.2} {:>10} {:>12.3} {:>16}",
            report.algorithm,
            report.revenue,
            report.strategy_size,
            report.elapsed.as_secs_f64(),
            report.marginal_evaluations
        );
        if best.as_ref().is_none_or(|b| report.revenue > b.revenue) {
            best = Some(report);
        }
    }
    let best = best.expect("at least one algorithm ran");
    println!(
        "\nbest plan: {} with expected revenue {:.2} over {} recommendation slots",
        best.algorithm, best.revenue, best.strategy_size
    );

    // How often does the winning plan repeat an item to the same user?
    let repeats = best.outcome.strategy.repeat_histogram();
    let repeated_pairs = repeats.values().filter(|&&c| c > 1).count();
    println!(
        "{repeated_pairs} of {} (user, item) pairs receive the item more than once — \
         repetition is used, but sparingly (saturation-aware).",
        repeats.len()
    );
}
