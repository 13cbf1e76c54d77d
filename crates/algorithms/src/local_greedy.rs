//! The two "local" greedy algorithms of §5.2: Sequential Local Greedy
//! (SL-Greedy, Algorithm 2) and Randomized Local Greedy (RL-Greedy).
//!
//! Both finalise all recommendations for one time step before moving to the
//! next. SL-Greedy processes time steps chronologically; RL-Greedy samples `N`
//! random permutations of `[T]`, runs the per-step greedy under each, and
//! keeps the most profitable strategy (Example 4 of the paper shows why the
//! chronological order can be suboptimal).
//!
//! A time step's greedy is G-Greedy's selection core restricted to a
//! one-step window (`global_greedy::run_window`) on the engine the earlier
//! steps left: lines 5–15 of Algorithm 2 are lazy-forward climbing over
//! one time slot per candidate. The window's initial marginals are read
//! from the engine (scoped threads may fill them, bit-identically), except
//! on an empty engine, where they are `q · p` and cost no evaluation.

use crate::config::{PlanAlgorithm, PlannerConfig};
use crate::global_greedy::{make_engine, outcome, run_window, GreedyOutcome, Insertion};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use revmax_core::{IncrementalRevenue, Instance, ResidualDelta, RevenueEngine, Strategy};
use std::collections::HashSet;

/// Runs SL-Greedy: per-time-step greedy in chronological order `1, 2, …, T`.
pub fn sequential_local_greedy(inst: &Instance) -> GreedyOutcome {
    crate::plan(
        inst,
        &PlannerConfig::default().with_algorithm(PlanAlgorithm::SequentialLocalGreedy),
    )
}

/// The per-time-step driver on engine `E` under an explicit ordering of time
/// steps (a permutation of `1..=T`, or a subset — only those steps receive
/// recommendations). `delta` is the warm-start handle of a residual replan
/// (`None` for one-shot plans). The local greedies always plan on one shard:
/// `cfg.shards` does not apply.
pub(crate) fn run_order<'a, E: RevenueEngine<'a>>(
    inst: &'a Instance,
    order: &[u32],
    cfg: &PlannerConfig,
    delta: Option<&ResidualDelta>,
) -> GreedyOutcome {
    let shard = inst.full_shard();
    let mut inc: E = make_engine(inst, false, shard, cfg, delta);
    let parallel = cfg.parallel_init();
    let mut evals = 0u64;
    let mut trace = Vec::new();
    let mut strategy = Strategy::new();
    for &t in order {
        let on_insert = |inc: &E, ins: Insertion| {
            trace.push(inc.revenue());
            strategy.insert(ins.z);
        };
        inc = run_window(inst, inc, shard, t..=t, parallel, &mut evals, on_insert);
    }
    let revenue = inc.revenue();
    inc.release();
    outcome(inst, false, strategy, revenue, trace, evals)
}

/// Generates up to `n` distinct permutations of `1..=horizon` (always including
/// the chronological one first, as a safe fallback).
pub fn sample_permutations(horizon: u32, n: usize, seed: u64) -> Vec<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let base: Vec<u32> = (1..=horizon).collect();
    let mut seen: HashSet<Vec<u32>> = HashSet::new();
    let mut out = Vec::new();
    seen.insert(base.clone());
    out.push(base.clone());
    // Only min(n, T!) distinct orderings can be drawn. T! can be tiny (e.g.
    // T = 2), and it overflows from T = 21 on, so the product stops as soon
    // as it reaches n.
    let wanted = n.max(1);
    let target = (2..=horizon as usize)
        .try_fold(1usize, |factorial, k| {
            factorial.checked_mul(k).filter(|&f| f < wanted)
        })
        .unwrap_or(wanted);
    let mut attempts = 0;
    while out.len() < target && attempts < 50 * target {
        attempts += 1;
        let mut p = base.clone();
        p.shuffle(&mut rng);
        if seen.insert(p.clone()) {
            out.push(p);
        }
    }
    out
}

/// Runs RL-Greedy: `permutations` random orderings of `[T]`, per-step greedy
/// under each, best strategy returned. Independent orders run on scoped
/// threads; only then is each run's window fill forced sequential (to avoid
/// oversubscription) — a single-order or single-core run keeps the default
/// parallel fill.
pub fn randomized_local_greedy(inst: &Instance, permutations: usize, seed: u64) -> GreedyOutcome {
    randomized_with::<IncrementalRevenue<'_>>(
        inst,
        &PlannerConfig::default().with_seed(seed),
        permutations,
        None,
    )
}

/// RL-Greedy on engine `E` over an explicit configuration (seed,
/// parallelism).
pub(crate) fn randomized_with<'a, E: RevenueEngine<'a>>(
    inst: &'a Instance,
    cfg: &PlannerConfig,
    permutations: usize,
    delta: Option<&ResidualDelta>,
) -> GreedyOutcome {
    let orders = sample_permutations(inst.horizon(), permutations, cfg.seed);
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(orders.len())
        .max(1);
    let concurrent_orders = threads > 1 && orders.len() > 1;
    let inner = PlannerConfig {
        algorithm: PlanAlgorithm::SequentialLocalGreedy,
        parallel: if concurrent_orders {
            Some(false)
        } else {
            cfg.parallel
        },
        ..*cfg
    };
    let results: Vec<GreedyOutcome> = if !concurrent_orders {
        orders
            .iter()
            .map(|o| run_order::<E>(inst, o, &inner, delta))
            .collect()
    } else {
        let chunks: Vec<&[Vec<u32>]> = orders.chunks(orders.len().div_ceil(threads)).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .iter()
                .map(|chunk| {
                    scope.spawn(move || {
                        chunk
                            .iter()
                            .map(|o| run_order::<E>(inst, o, &inner, delta))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| {
                    h.join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect()
        })
    };
    results
        .into_iter()
        .max_by(|a, b| a.revenue.partial_cmp(&b.revenue).expect("finite revenues"))
        .expect("at least one permutation is always evaluated")
}

#[cfg(test)]
mod tests {
    use super::*;
    use revmax_core::{revenue, InstanceBuilder};
    use revmax_oracle::HashIncrementalRevenue;

    fn example4_instance() -> Instance {
        let mut b = InstanceBuilder::new(1, 1, 2);
        b.display_limit(1)
            .capacity(0, 2)
            .beta(0, 0.1)
            .prices(0, &[1.0, 0.95])
            .candidate(0, 0, &[0.5, 0.6], 0.0);
        b.build().unwrap()
    }

    fn medium_instance() -> Instance {
        medium_instance_for(1)
    }

    /// The medium instance's users and capacities, both repeated `copies`
    /// times.
    fn medium_instance_for(copies: u32) -> Instance {
        let mut b = InstanceBuilder::new(3 * copies, 4, 3);
        b.display_limit(1)
            .item_class(0, 0)
            .item_class(1, 0)
            .item_class(2, 1)
            .item_class(3, 1)
            .beta(0, 0.3)
            .beta(1, 0.8)
            .beta(2, 0.5)
            .beta(3, 0.9)
            .capacity(0, 2 * copies)
            .capacity(1, 2 * copies)
            .capacity(2, 3 * copies)
            .capacity(3, copies)
            .prices(0, &[20.0, 15.0, 18.0])
            .prices(1, &[8.0, 9.0, 7.0])
            .prices(2, &[12.0, 12.0, 11.0])
            .prices(3, &[30.0, 25.0, 35.0]);
        for u in 0..3 * copies {
            b.candidate(u, 0, &[0.4, 0.6, 0.5], 4.0);
            b.candidate(u, 1, &[0.7, 0.5, 0.6], 3.0);
            b.candidate(u, 2, &[0.3, 0.2, 0.4], 3.5);
            b.candidate(u, 3, &[0.2, 0.25, 0.15], 4.5);
        }
        b.build().unwrap()
    }

    #[test]
    fn example4_sl_greedy_falls_into_the_chronological_trap() {
        // SL-Greedy processes t=1 first and picks the (positive-marginal)
        // day-1 recommendation, ending with the inferior strategy of Example 4.
        let inst = example4_instance();
        let sl = sequential_local_greedy(&inst);
        assert!((sl.revenue - 0.5285).abs() < 1e-9);
        // RL-Greedy tries the reversed order too and escapes.
        let rl = randomized_local_greedy(&inst, 2, 1);
        assert!((rl.revenue - 0.57).abs() < 1e-9);
        assert!(rl.revenue > sl.revenue);
    }

    #[test]
    fn outputs_are_valid_strategies() {
        let inst = medium_instance();
        for out in [
            sequential_local_greedy(&inst),
            randomized_local_greedy(&inst, 4, 7),
        ] {
            assert!(out.strategy.validate(&inst).is_ok());
            assert!(out.revenue > 0.0);
            assert!((out.revenue - revenue(&inst, &out.strategy)).abs() < 1e-9);
        }
    }

    #[test]
    fn rl_greedy_is_at_least_as_good_as_sl_greedy() {
        let inst = medium_instance();
        let sl = sequential_local_greedy(&inst);
        let rl = randomized_local_greedy(&inst, 6, 3);
        // RL always evaluates the chronological order too.
        assert!(rl.revenue + 1e-9 >= sl.revenue);
    }

    /// 16,392 candidates: every one-step window is large enough for the
    /// parallel fill to fork threads on a multi-core host (every window
    /// after the first: a cold fill never forks).
    #[test]
    fn parallel_and_sequential_scans_are_identical() {
        let inst = medium_instance_for(1366);
        let order: Vec<u32> = (1..=inst.horizon()).rev().collect();
        let seq = crate::plan_order(
            &inst,
            &order,
            &PlannerConfig::default().with_parallel(Some(false)),
        );
        let par = crate::plan_order(
            &inst,
            &order,
            &PlannerConfig::default().with_parallel(Some(true)),
        );
        assert_eq!(seq.revenue.to_bits(), par.revenue.to_bits());
        assert_eq!(seq.strategy.as_slice(), par.strategy.as_slice());
    }

    #[test]
    fn hash_engine_reproduces_flat_engine_results() {
        let inst = medium_instance();
        let cfg = PlannerConfig::default().with_algorithm(PlanAlgorithm::SequentialLocalGreedy);
        let flat = sequential_local_greedy(&inst);
        let hash = crate::plan_with::<HashIncrementalRevenue<'_>>(&inst, &cfg, None);
        assert!((flat.revenue - hash.revenue).abs() < 1e-9);
        assert_eq!(flat.strategy.len(), hash.strategy.len());
    }

    #[test]
    fn permutation_sampling_is_distinct_and_bounded() {
        let perms = sample_permutations(3, 10, 1);
        assert!(perms.len() <= 6);
        let unique: HashSet<_> = perms.iter().cloned().collect();
        assert_eq!(unique.len(), perms.len());
        assert_eq!(perms[0], vec![1, 2, 3]);
        for p in &perms {
            let mut sorted = p.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![1, 2, 3]);
        }
        // Degenerate horizon.
        assert_eq!(sample_permutations(1, 5, 0), vec![vec![1]]);
    }

    #[test]
    fn permutation_sampling_survives_horizons_whose_factorial_overflows() {
        // 21! overflows u64 and 66! wraps the product to 0; both horizons
        // still have far more than 20 orderings.
        for horizon in [21u32, 66] {
            let perms = sample_permutations(horizon, 20, 1);
            let unique: HashSet<_> = perms.iter().cloned().collect();
            assert_eq!(perms.len(), 20, "horizon {horizon}");
            assert_eq!(unique.len(), 20, "horizon {horizon}");
        }
    }

    #[test]
    fn partial_order_restricts_time_steps() {
        let inst = medium_instance();
        let out = crate::plan_order(&inst, &[2], &PlannerConfig::default());
        assert!(out.strategy.iter().all(|z| z.t.value() == 2));
        assert!(!out.strategy.is_empty());
    }

    #[test]
    fn trace_is_monotone_within_runs() {
        let inst = medium_instance();
        let out = sequential_local_greedy(&inst);
        for w in out.trace.windows(2) {
            assert!(w[1] >= w[0] - 1e-9);
        }
    }
}
