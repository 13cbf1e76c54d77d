//! One function per table / figure of the paper's evaluation (§6) plus the
//! random-price extension of §7. Every function returns plain-text [`Table`]s
//! so binaries, tests, and EXPERIMENTS.md can consume the same output.

use crate::datasets::{
    build_dataset, build_scalability_dataset, capacity_mean, figure1_capacity_distributions,
    gaussian_and_exponential, DatasetKind,
};
use crate::report::{format_number, Table};
use crate::scale::Scale;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use revmax_algorithms::{plan, run, Algorithm, PlannerConfig};
use revmax_core::Instance;
use revmax_data::{BetaSetting, Table1Stats};
use revmax_pricing::{
    rand_rev_mean_price, rand_rev_monte_carlo, rand_rev_taylor, CovarianceMatrix,
    GaussianValuation, RandomPriceTriple,
};

/// The six-algorithm lineup of Figures 1–3, with RL-Greedy's permutation count
/// taken from the scale settings.
fn lineup(scale: &Scale) -> Vec<Algorithm> {
    vec![
        Algorithm::GlobalGreedy,
        Algorithm::GlobalNoSaturation,
        Algorithm::RandomizedLocalGreedy {
            permutations: scale.rl_permutations,
        },
        Algorithm::SequentialLocalGreedy,
        Algorithm::TopRevenue,
        Algorithm::TopRating,
    ]
}

fn lineup_headers(scale: &Scale) -> Vec<String> {
    let mut headers = vec!["config".to_string()];
    headers.extend(lineup(scale).iter().map(|a| a.name()));
    headers
}

fn run_lineup(inst: &Instance, scale: &Scale) -> Vec<f64> {
    lineup(scale)
        .iter()
        .map(|alg| run(inst, alg, scale.seed).revenue)
        .collect()
}

/// **Table 1** — dataset statistics of the Amazon-like, Epinions-like, and
/// (smallest) synthetic scalability datasets.
pub fn table1(scale: &Scale) -> Table {
    let mut table = Table::new(
        "Table 1: data statistics (generated stand-ins)",
        Table1Stats::header()
            .split_whitespace()
            .map(str::to_string)
            .collect(),
    );
    for kind in DatasetKind::both() {
        let ds = build_dataset(
            kind,
            scale,
            BetaSetting::UniformRandom,
            figure1_capacity_distributions(capacity_mean(kind, scale))[0].1,
            false,
        );
        let stats = Table1Stats::from_dataset(&ds);
        table.push_row(
            stats
                .to_string()
                .split_whitespace()
                .map(str::to_string)
                .collect(),
        );
    }
    let smallest = *scale.scalability_users.first().unwrap_or(&1000);
    let ds = build_scalability_dataset(smallest, scale);
    let stats = Table1Stats::from_dataset(&ds);
    table.push_row(
        stats
            .to_string()
            .split_whitespace()
            .map(str::to_string)
            .collect(),
    );
    table
}

/// **Figure 1** — expected total revenue with β ~ U[0, 1] under three item
/// capacity distributions, for item classes as generated (a, b) and for
/// every item in its own class (c, d).
pub fn figure1(scale: &Scale) -> Vec<Table> {
    let mut tables = Vec::new();
    for class_size_one in [false, true] {
        for kind in DatasetKind::both() {
            let suffix = if class_size_one { ", class size 1" } else { "" };
            let mut table = Table::new(
                format!(
                    "Figure 1: {}{} — revenue vs capacity distribution",
                    kind.name(),
                    suffix
                ),
                lineup_headers(scale),
            );
            for (label, capacity) in figure1_capacity_distributions(capacity_mean(kind, scale)) {
                let ds = build_dataset(
                    kind,
                    scale,
                    BetaSetting::UniformRandom,
                    capacity,
                    class_size_one,
                );
                let revenues = run_lineup(&ds.instance, scale);
                table.push_numeric_row(label, &revenues);
            }
            tables.push(table);
        }
    }
    tables
}

/// Shared implementation of Figures 2 and 3 (revenue vs uniform saturation
/// strength, Gaussian and exponential capacities).
fn beta_sweep(scale: &Scale, class_size_one: bool, figure: &str) -> Vec<Table> {
    let mut tables = Vec::new();
    for kind in DatasetKind::both() {
        for (cap_label, capacity) in gaussian_and_exponential(capacity_mean(kind, scale)) {
            let mut table = Table::new(
                format!(
                    "{figure}: {} ({cap_label} capacities){} — revenue vs beta",
                    kind.name(),
                    if class_size_one { ", class size 1" } else { "" }
                ),
                lineup_headers(scale),
            );
            for beta in [0.1, 0.5, 0.9] {
                let ds = build_dataset(
                    kind,
                    scale,
                    BetaSetting::Fixed(beta),
                    capacity,
                    class_size_one,
                );
                let revenues = run_lineup(&ds.instance, scale);
                table.push_numeric_row(format!("beta={beta}"), &revenues);
            }
            tables.push(table);
        }
    }
    tables
}

/// **Figure 2** — revenue vs saturation strength β ∈ {0.1, 0.5, 0.9}, item
/// classes as generated.
pub fn figure2(scale: &Scale) -> Vec<Table> {
    beta_sweep(scale, false, "Figure 2")
}

/// **Figure 3** — as Figure 2 but with every item in its own class.
pub fn figure3(scale: &Scale) -> Vec<Table> {
    beta_sweep(scale, true, "Figure 3")
}

/// **Figure 4** — revenue growth as the greedy algorithms enlarge the
/// strategy set (the empirical illustration of submodularity).
pub fn figure4(scale: &Scale) -> Vec<Table> {
    let mut tables = Vec::new();
    for kind in DatasetKind::both() {
        let capacity = figure1_capacity_distributions(capacity_mean(kind, scale))[0].1;
        let ds = build_dataset(kind, scale, BetaSetting::UniformRandom, capacity, false);
        let inst = &ds.instance;

        let gg = plan(inst, &PlannerConfig::default().with_track_trace(true));
        let rlg =
            revmax_algorithms::randomized_local_greedy(inst, scale.rl_permutations, scale.seed);
        let slg = revmax_algorithms::sequential_local_greedy(inst);

        let mut table = Table::new(
            format!("Figure 4: {} — revenue vs strategy size", kind.name()),
            vec!["|S|".into(), "GG".into(), "RLG".into(), "SLG".into()],
        );
        let longest = gg.trace.len().max(rlg.trace.len()).max(slg.trace.len());
        let points = 10usize.min(longest.max(1));
        for p in 1..=points {
            let idx = (p * longest / points).max(1) - 1;
            let sample = |trace: &[f64]| -> f64 {
                if trace.is_empty() {
                    0.0
                } else {
                    trace[idx.min(trace.len() - 1)]
                }
            };
            table.push_row(vec![
                format!("{}", idx + 1),
                format_number(sample(&gg.trace)),
                format_number(sample(&rlg.trace)),
                format_number(sample(&slg.trace)),
            ]);
        }
        tables.push(table);
    }
    tables
}

/// **Figure 5** — histogram of the number of repeated recommendations per
/// (user, item) pair made by G-Greedy, for β ∈ {0.1, 0.5, 0.9}.
pub fn figure5(scale: &Scale) -> Vec<Table> {
    let mut tables = Vec::new();
    for kind in DatasetKind::both() {
        let mut table = Table::new(
            format!(
                "Figure 5: {} — repeat-recommendation histogram of G-Greedy",
                kind.name()
            ),
            vec![
                "beta".into(),
                "1".into(),
                "2".into(),
                "3".into(),
                "4".into(),
                "5".into(),
                "6".into(),
                "7".into(),
            ],
        );
        for beta in [0.1, 0.5, 0.9] {
            let capacity = figure1_capacity_distributions(capacity_mean(kind, scale))[0].1;
            let ds = build_dataset(kind, scale, BetaSetting::Fixed(beta), capacity, false);
            let gg = revmax_algorithms::global_greedy(&ds.instance);
            let hist = gg.strategy.repeat_histogram();
            let mut buckets = [0u64; 7];
            for &count in hist.values() {
                let idx = (count as usize).clamp(1, 7) - 1;
                buckets[idx] += 1;
            }
            let total: u64 = buckets.iter().sum::<u64>().max(1);
            let mut row = vec![format!("beta={beta}")];
            row.extend(
                buckets
                    .iter()
                    .map(|&b| format!("{:.3}", b as f64 / total as f64)),
            );
            table.push_row(row);
        }
        tables.push(table);
    }
    tables
}

/// **Table 2** — running time of the five algorithms on both datasets
/// (uniform-random β, Gaussian capacities).
pub fn table2(scale: &Scale) -> Table {
    let mut table = Table::new(
        "Table 2: running time (seconds)",
        vec![
            "dataset".into(),
            "GG".into(),
            "RLG".into(),
            "SLG".into(),
            "TopRev".into(),
            "TopRat".into(),
        ],
    );
    let algorithms = vec![
        Algorithm::GlobalGreedy,
        Algorithm::RandomizedLocalGreedy {
            permutations: scale.rl_permutations,
        },
        Algorithm::SequentialLocalGreedy,
        Algorithm::TopRevenue,
        Algorithm::TopRating,
    ];
    for kind in DatasetKind::both() {
        let capacity = figure1_capacity_distributions(capacity_mean(kind, scale))[0].1;
        let ds = build_dataset(kind, scale, BetaSetting::UniformRandom, capacity, false);
        let mut row = vec![kind.name().to_string()];
        for alg in &algorithms {
            let report = run(&ds.instance, alg, scale.seed);
            row.push(format!("{:.3}", report.elapsed.as_secs_f64()));
        }
        table.push_row(row);
    }
    table
}

/// **Figure 6** — running time of G-Greedy on synthetic datasets of growing
/// size (the scalability study). No item of these datasets is scarce, so
/// the default plan runs one user at a time, on one CPU shard per core of
/// the host (see `revmax_algorithms::PlannerConfig::parallel`), and the
/// seconds are wall-clock time on all of them.
pub fn figure6(scale: &Scale) -> Table {
    let mut table = Table::new(
        "Figure 6: G-Greedy scalability on synthetic data (GG seconds use every core when no item is scarce)",
        vec![
            "#users".into(),
            "#candidate triples".into(),
            "GG seconds".into(),
            "revenue".into(),
        ],
    );
    for &users in &scale.scalability_users {
        let ds = build_scalability_dataset(users, scale);
        let report = run(&ds.instance, &Algorithm::GlobalGreedy, scale.seed);
        table.push_row(vec![
            users.to_string(),
            ds.positive_triples().to_string(),
            format!("{:.3}", report.elapsed.as_secs_f64()),
            format_number(report.revenue),
        ]);
    }
    table
}

/// **Figure 7** — revenue under incomplete price information: G-Greedy and
/// RL-Greedy restricted to sub-horizons with cut-off at 2, 4, and 5 (β = 0.5,
/// Gaussian and power-law capacities), compared with their holistic versions
/// and SL-Greedy.
pub fn figure7(scale: &Scale) -> Vec<Table> {
    let mut tables = Vec::new();
    for kind in DatasetKind::both() {
        let mean = capacity_mean(kind, scale);
        let capacities = vec![
            (
                "Gaussian",
                revmax_data::CapacityDistribution::Gaussian {
                    mean,
                    std: mean * 0.06,
                },
            ),
            (
                "power-law",
                revmax_data::CapacityDistribution::PowerLaw {
                    min: mean * 0.4,
                    alpha: 2.2,
                },
            ),
        ];
        for (cap_label, capacity) in capacities {
            let ds = build_dataset(kind, scale, BetaSetting::Fixed(0.5), capacity, false);
            let inst = &ds.instance;
            let mut algorithms: Vec<Algorithm> = vec![Algorithm::GlobalGreedy];
            for cut in [2u32, 4, 5] {
                algorithms.push(Algorithm::StagedGlobalGreedy {
                    stage_ends: vec![cut],
                });
            }
            algorithms.push(Algorithm::SequentialLocalGreedy);
            algorithms.push(Algorithm::RandomizedLocalGreedy {
                permutations: scale.rl_permutations,
            });
            for cut in [2u32, 4, 5] {
                algorithms.push(Algorithm::StagedRandomizedLocalGreedy {
                    stage_ends: vec![cut],
                    permutations: scale.rl_permutations,
                });
            }
            let mut table = Table::new(
                format!(
                    "Figure 7: {} ({cap_label} capacities), beta = 0.5",
                    kind.name()
                ),
                vec!["algorithm".into(), "revenue".into()],
            );
            for alg in &algorithms {
                let report = run(inst, alg, scale.seed);
                table.push_row(vec![
                    report.algorithm.clone(),
                    format_number(report.revenue),
                ]);
            }
            tables.push(table);
        }
    }
    tables
}

/// **§7 extension** — random prices: compares the mean-price heuristic, the
/// second-order Taylor approximation, and a Monte-Carlo ground truth on
/// synthetic strategies whose prices are only known in distribution.
pub fn random_prices(scale: &Scale) -> Table {
    let mut table = Table::new(
        "Random prices (§7): expected revenue estimators vs Monte-Carlo ground truth",
        vec![
            "price std / mean".into(),
            "MeanPrice".into(),
            "Taylor".into(),
            "MonteCarlo".into(),
            "MeanPrice err %".into(),
            "Taylor err %".into(),
        ],
    );
    let mut rng = StdRng::seed_from_u64(scale.seed);
    for rel_std in [0.05, 0.15, 0.3] {
        // Build a batch of user/class chains: each chain has 1–3 same-class
        // recommendations whose prices are random variables.
        let mut triples = Vec::new();
        let mut means = Vec::new();
        let mut variances = Vec::new();
        for _ in 0..40 {
            let chain_len = rng.gen_range(1..=3usize);
            let mut competitor_vars = Vec::new();
            let mut competitor_valuations = Vec::new();
            let mut competitor_rating_factors = Vec::new();
            for pos in 0..chain_len {
                let mean_price = rng.gen_range(20.0..200.0);
                let var = (rel_std * mean_price) * (rel_std * mean_price);
                means.push(mean_price);
                variances.push(var);
                let var_index = means.len() - 1;
                let valuation = GaussianValuation {
                    mean: mean_price * rng.gen_range(0.9..1.2),
                    std: mean_price * rng.gen_range(0.15..0.35),
                };
                let rating_factor = rng.gen_range(0.4..1.0);
                if pos + 1 == chain_len {
                    triples.push(RandomPriceTriple {
                        own_var: var_index,
                        competitor_vars: competitor_vars.clone(),
                        rating_factor,
                        competitor_rating_factors: competitor_rating_factors.clone(),
                        valuation,
                        competitor_valuations: competitor_valuations.clone(),
                        saturation_discount: rng.gen_range(0.5..1.0),
                    });
                } else {
                    competitor_vars.push(var_index);
                    competitor_valuations.push(valuation);
                    competitor_rating_factors.push(rating_factor);
                }
            }
        }
        let cov = CovarianceMatrix::diagonal(&variances);
        let naive = rand_rev_mean_price(&triples, &means);
        let taylor = rand_rev_taylor(&triples, &means, &cov);
        let truth = rand_rev_monte_carlo(&triples, &means, &cov, 20_000, scale.seed)
            .expect("diagonal covariance is always PSD");
        let err = |x: f64| 100.0 * (x - truth).abs() / truth.abs().max(1e-9);
        table.push_row(vec![
            format!("{rel_std:.2}"),
            format_number(naive),
            format_number(taylor),
            format_number(truth),
            format!("{:.2}", err(naive)),
            format!("{:.2}", err(taylor)),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scale() -> Scale {
        Scale::test_scale()
    }

    #[test]
    fn table1_has_three_rows() {
        let t = table1(&scale());
        assert_eq!(t.rows.len(), 3);
        assert!(t.to_string().contains("amazon-like"));
        assert!(t.to_string().contains("epinions-like"));
        assert!(t.to_string().contains("synthetic"));
    }

    #[test]
    fn figure1_produces_four_tables_with_three_capacity_rows() {
        let tables = figure1(&scale());
        assert_eq!(tables.len(), 4);
        for t in &tables {
            assert_eq!(t.rows.len(), 3);
            // GG beats the static TopRat baseline in every configuration.
            for label in ["normal", "power", "uniform"] {
                let gg = t.numeric_cell(label, "GG").unwrap();
                let rat = t.numeric_cell(label, "TopRat").unwrap();
                assert!(gg >= rat, "GG {gg} below TopRat {rat} in {}", t.title);
            }
        }
    }

    #[test]
    fn figure2_and_3_sweep_beta() {
        let tables = figure2(&scale());
        assert_eq!(tables.len(), 4);
        for t in &tables {
            assert_eq!(t.rows.len(), 3);
            assert!(t.numeric_cell("beta=0.1", "GG").is_some());
        }
        let tables3 = figure3(&scale());
        assert_eq!(tables3.len(), 4);
        assert!(tables3[0].title.contains("class size 1"));
    }

    #[test]
    fn figure4_traces_are_monotone_per_algorithm() {
        let tables = figure4(&scale());
        assert_eq!(tables.len(), 2);
        for t in &tables {
            let mut prev = 0.0;
            for row in &t.rows {
                let gg: f64 = row[1].replace(',', "").parse().unwrap();
                assert!(gg + 1e-9 >= prev);
                prev = gg;
            }
        }
    }

    #[test]
    fn figure5_rows_are_probability_distributions() {
        let tables = figure5(&scale());
        for t in &tables {
            for row in &t.rows {
                let total: f64 = row[1..].iter().map(|c| c.parse::<f64>().unwrap()).sum();
                assert!((total - 1.0).abs() < 0.02, "histogram row sums to {total}");
            }
        }
    }

    #[test]
    fn table2_and_figure6_report_positive_times() {
        let t2 = table2(&scale());
        assert_eq!(t2.rows.len(), 2);
        for row in &t2.rows {
            for cell in &row[1..] {
                assert!(cell.parse::<f64>().unwrap() >= 0.0);
            }
        }
        let f6 = figure6(&scale());
        assert_eq!(f6.rows.len(), scale().scalability_users.len());
    }

    #[test]
    fn figure7_contains_staged_variants() {
        let tables = figure7(&scale());
        assert_eq!(tables.len(), 4);
        let rendered = tables[0].to_string();
        for label in ["GG", "GG_2", "GG_4", "GG_5", "SLG", "RLG", "RLG_2"] {
            assert!(rendered.contains(label), "missing {label} in {rendered}");
        }
    }

    #[test]
    fn random_prices_taylor_beats_naive_for_large_variance() {
        let t = random_prices(&scale());
        assert_eq!(t.rows.len(), 3);
        // For the largest price variance the Taylor correction should be at
        // least as accurate as plugging in the mean price.
        let last = t.rows.last().unwrap();
        let naive_err: f64 = last[4].parse().unwrap();
        let taylor_err: f64 = last[5].parse().unwrap();
        assert!(
            taylor_err <= naive_err + 0.5,
            "taylor {taylor_err}% vs naive {naive_err}%"
        );
    }
}
