//! A thin uniform front-end over all algorithms, used by the experiment
//! harness and the examples: pick an [`Algorithm`], get back a timed
//! [`RunReport`].

use crate::baselines::{top_rating, top_revenue};
use crate::global_greedy::{global_greedy, global_no_saturation, GreedyOutcome};
use crate::local_greedy::{randomized_local_greedy, sequential_local_greedy};
use crate::staged::{global_greedy_staged, randomized_local_greedy_staged};
use revmax_core::Instance;
use std::time::{Duration, Instant};

/// The algorithms evaluated in the paper's experiments (§6), plus the staged
/// variants of §6.3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Algorithm {
    /// G-Greedy (Algorithm 1), the paper's best performer.
    GlobalGreedy,
    /// G-Greedy selecting as if no saturation existed (ablation "GG-No").
    GlobalNoSaturation,
    /// SL-Greedy (Algorithm 2), chronological per-time-step greedy.
    SequentialLocalGreedy,
    /// RL-Greedy with `permutations` sampled orderings of the horizon.
    RandomizedLocalGreedy {
        /// Number of sampled permutations (the paper uses `N = 20`).
        permutations: usize,
    },
    /// TopRA baseline: top-k items by predicted rating, repeated every day.
    TopRating,
    /// TopRE baseline: top-k items by isolated expected revenue per day.
    TopRevenue,
    /// G-Greedy with prices revealed per sub-horizon (e.g. `GG_2` with cut 2).
    StagedGlobalGreedy {
        /// End of each sub-horizon (cumulative cut points).
        stage_ends: Vec<u32>,
    },
    /// RL-Greedy with prices revealed per sub-horizon.
    StagedRandomizedLocalGreedy {
        /// End of each sub-horizon (cumulative cut points).
        stage_ends: Vec<u32>,
        /// Number of sampled permutations per stage.
        permutations: usize,
    },
}

impl Algorithm {
    /// Short display name matching the paper's figures (GG, GG-No, SLG, RLG,
    /// TopRat, TopRev, GG_c, RLG_c).
    pub fn name(&self) -> String {
        match self {
            Algorithm::GlobalGreedy => "GG".to_string(),
            Algorithm::GlobalNoSaturation => "GG-No".to_string(),
            Algorithm::SequentialLocalGreedy => "SLG".to_string(),
            Algorithm::RandomizedLocalGreedy { .. } => "RLG".to_string(),
            Algorithm::TopRating => "TopRat".to_string(),
            Algorithm::TopRevenue => "TopRev".to_string(),
            Algorithm::StagedGlobalGreedy { stage_ends } => {
                format!("GG_{}", stage_ends.first().copied().unwrap_or(0))
            }
            Algorithm::StagedRandomizedLocalGreedy { stage_ends, .. } => {
                format!("RLG_{}", stage_ends.first().copied().unwrap_or(0))
            }
        }
    }

    /// The six algorithms compared in Figures 1–3 of the paper.
    pub fn paper_lineup() -> Vec<Algorithm> {
        vec![
            Algorithm::GlobalGreedy,
            Algorithm::GlobalNoSaturation,
            Algorithm::RandomizedLocalGreedy { permutations: 20 },
            Algorithm::SequentialLocalGreedy,
            Algorithm::TopRevenue,
            Algorithm::TopRating,
        ]
    }
}

/// Timing + quality report of one algorithm run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Algorithm display name.
    pub algorithm: String,
    /// Expected total revenue of the produced strategy (true objective).
    pub revenue: f64,
    /// Number of selected triples.
    pub strategy_size: usize,
    /// Wall-clock running time.
    pub elapsed: Duration,
    /// Marginal-revenue evaluations (0 for the baselines).
    pub marginal_evaluations: u64,
    /// The full algorithm outcome, including the strategy.
    pub outcome: GreedyOutcome,
}

/// Runs an algorithm on an instance and reports revenue and running time.
pub fn run(inst: &Instance, algorithm: &Algorithm, seed: u64) -> RunReport {
    let start = Instant::now();
    let outcome = match algorithm {
        Algorithm::GlobalGreedy => global_greedy(inst),
        Algorithm::GlobalNoSaturation => global_no_saturation(inst),
        Algorithm::SequentialLocalGreedy => sequential_local_greedy(inst),
        Algorithm::RandomizedLocalGreedy { permutations } => {
            randomized_local_greedy(inst, *permutations, seed)
        }
        Algorithm::TopRating => top_rating(inst),
        Algorithm::TopRevenue => top_revenue(inst),
        Algorithm::StagedGlobalGreedy { stage_ends } => global_greedy_staged(inst, stage_ends),
        Algorithm::StagedRandomizedLocalGreedy {
            stage_ends,
            permutations,
        } => randomized_local_greedy_staged(inst, stage_ends, *permutations, seed),
    };
    let elapsed = start.elapsed();
    RunReport {
        algorithm: algorithm.name(),
        revenue: outcome.revenue,
        strategy_size: outcome.strategy.len(),
        elapsed,
        marginal_evaluations: outcome.marginal_evaluations,
        outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revmax_core::InstanceBuilder;

    fn instance() -> Instance {
        let mut b = InstanceBuilder::new(3, 3, 3);
        b.display_limit(1)
            .item_class(0, 0)
            .item_class(1, 0)
            .item_class(2, 1)
            .beta(0, 0.5)
            .beta(1, 0.5)
            .beta(2, 0.5)
            .prices(0, &[30.0, 25.0, 28.0])
            .prices(1, &[10.0, 12.0, 9.0])
            .prices(2, &[18.0, 17.0, 19.0]);
        for u in 0..3 {
            b.candidate(u, 0, &[0.4, 0.5, 0.45], 4.0);
            b.candidate(u, 1, &[0.6, 0.5, 0.65], 3.5);
            b.candidate(u, 2, &[0.3, 0.35, 0.3], 4.2);
        }
        b.build().unwrap()
    }

    #[test]
    fn every_algorithm_runs_and_produces_valid_output() {
        let inst = instance();
        let mut algorithms = Algorithm::paper_lineup();
        algorithms.push(Algorithm::StagedGlobalGreedy {
            stage_ends: vec![2],
        });
        algorithms.push(Algorithm::StagedRandomizedLocalGreedy {
            stage_ends: vec![2],
            permutations: 4,
        });
        for alg in algorithms {
            let report = run(&inst, &alg, 11);
            assert!(
                report.revenue >= 0.0,
                "{} produced negative revenue",
                report.algorithm
            );
            assert_eq!(report.strategy_size, report.outcome.strategy.len());
            assert!(report.outcome.strategy.satisfies_display(&inst));
            if !matches!(alg, Algorithm::TopRating | Algorithm::TopRevenue) {
                assert!(report.outcome.strategy.validate(&inst).is_ok());
            }
        }
    }

    #[test]
    fn names_match_paper_labels() {
        assert_eq!(Algorithm::GlobalGreedy.name(), "GG");
        assert_eq!(Algorithm::GlobalNoSaturation.name(), "GG-No");
        assert_eq!(Algorithm::SequentialLocalGreedy.name(), "SLG");
        assert_eq!(
            Algorithm::RandomizedLocalGreedy { permutations: 20 }.name(),
            "RLG"
        );
        assert_eq!(Algorithm::TopRating.name(), "TopRat");
        assert_eq!(Algorithm::TopRevenue.name(), "TopRev");
        assert_eq!(
            Algorithm::StagedGlobalGreedy {
                stage_ends: vec![4]
            }
            .name(),
            "GG_4"
        );
        assert_eq!(
            Algorithm::StagedRandomizedLocalGreedy {
                stage_ends: vec![2],
                permutations: 5
            }
            .name(),
            "RLG_2"
        );
        assert_eq!(Algorithm::paper_lineup().len(), 6);
    }

    #[test]
    fn global_greedy_wins_the_lineup_on_this_instance() {
        let inst = instance();
        let reports: Vec<RunReport> = Algorithm::paper_lineup()
            .iter()
            .map(|a| run(&inst, a, 5))
            .collect();
        let gg = reports.iter().find(|r| r.algorithm == "GG").unwrap();
        for r in &reports {
            assert!(
                gg.revenue + 1e-9 >= r.revenue,
                "GG ({}) was beaten by {} ({})",
                gg.revenue,
                r.algorithm,
                r.revenue
            );
        }
    }
}
