//! The two "local" greedy algorithms of §5.2: Sequential Local Greedy
//! (SL-Greedy, Algorithm 2) and Randomized Local Greedy (RL-Greedy).
//!
//! Both finalise all recommendations for one time step before moving to the
//! next. SL-Greedy processes time steps chronologically; RL-Greedy samples `N`
//! random permutations of `[T]`, runs the per-step greedy under each, and
//! keeps the most profitable strategy (Example 4 of the paper shows why the
//! chronological order can be suboptimal).
//!
//! The per-time-step initial scan (one marginal-revenue evaluation per
//! candidate) decomposes per user — each user's candidates are CSR-contiguous
//! and the evaluations are read-only — so it can be filled by scoped threads
//! cut at user boundaries (see [`crate::par`]). The parallel and sequential
//! scans are bit-identical, which the equivalence tests assert.

use crate::config::{PlanAlgorithm, PlannerConfig};
use crate::global_greedy::{EngineKind, GreedyOutcome};
use crate::heap::LazyMaxHeap;
use crate::par;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use revmax_core::{
    CandidateId, HashIncrementalRevenue, IncrementalRevenue, Instance, ResidualDelta,
    RevenueEngine, TimeStep,
};
use std::collections::HashSet;

/// Candidate count above which the per-step scan defaults to parallel.
pub(crate) const PARALLEL_SCAN_THRESHOLD: usize = 1 << 13;

/// Runs SL-Greedy: per-time-step greedy in chronological order `1, 2, …, T`.
pub fn sequential_local_greedy(inst: &Instance) -> GreedyOutcome {
    let order: Vec<u32> = (1..=inst.horizon()).collect();
    local_greedy_with_order(inst, &order)
}

/// Runs the per-time-step greedy under an explicit ordering of time steps and
/// returns the resulting strategy.
///
/// The ordering must be a permutation of `1..=T`; a subset is also accepted
/// (only those time steps receive recommendations), which the incomplete-price
/// experiments use.
pub fn local_greedy_with_order(inst: &Instance, order: &[u32]) -> GreedyOutcome {
    dispatch_order(inst, order, &PlannerConfig::default(), None)
}

/// The per-time-step driver dispatch: shard count, then engine. `delta` is
/// the warm-start handle of a residual replan (`None` for one-shot plans).
pub(crate) fn dispatch_order(
    inst: &Instance,
    order: &[u32],
    cfg: &PlannerConfig,
    delta: Option<&ResidualDelta>,
) -> GreedyOutcome {
    if cfg.shards > 1 {
        return crate::sharded::sharded_plan_order_residual(
            inst,
            order,
            cfg,
            cfg.shards as usize,
            delta,
        );
    }
    match cfg.engine {
        EngineKind::Flat => run_order::<IncrementalRevenue<'_>>(inst, order, cfg, delta),
        EngineKind::Hash => run_order::<HashIncrementalRevenue<'_>>(inst, order, cfg, delta),
    }
}

fn run_order<'a, E: RevenueEngine<'a>>(
    inst: &'a Instance,
    order: &[u32],
    cfg: &PlannerConfig,
    delta: Option<&ResidualDelta>,
) -> GreedyOutcome {
    let mut inc: E = crate::global_greedy::make_engine(inst, false, inst.full_shard(), cfg, delta);
    let mut evals = 0u64;
    let mut trace = Vec::new();
    let parallel = cfg
        .parallel
        .unwrap_or(inst.num_candidates() >= PARALLEL_SCAN_THRESHOLD);
    for &t in order {
        run_time_step(
            inst,
            &mut inc,
            TimeStep(t),
            parallel,
            cfg.kernel_batch,
            &mut evals,
            &mut trace,
        );
    }
    let revenue = inc.revenue();
    GreedyOutcome {
        revenue,
        selection_objective: revenue,
        strategy: inc.into_strategy(),
        trace,
        marginal_evaluations: evals,
        concurrency: Default::default(),
    }
}

/// Greedily fills the recommendation slots of a single time step given the
/// strategy accumulated so far (lines 5–15 of Algorithm 2, with lazy
/// forward). `kernel_batch ≥ 1` selects the batched selection loop: stale
/// heap tops are refreshed in kernel-grouped bursts of up to `kernel_batch`
/// candidates (see `crate::global_greedy::collect_stale_run` for the
/// plan-preservation argument); `0` runs the legacy scalar loop. Both
/// produce identical plans (asserted by the kernel parity suite).
pub(crate) fn run_time_step<'a, E: RevenueEngine<'a>>(
    inst: &'a Instance,
    inc: &mut E,
    t: TimeStep,
    parallel_scan: bool,
    kernel_batch: u32,
    evals: &mut u64,
    trace: &mut Vec<f64>,
) {
    let num_cand = inst.num_candidates();
    if num_cand == 0 {
        return;
    }
    // Initial scan: one read-only marginal evaluation per candidate. This is
    // the per-user decomposition — candidates are CSR-contiguous per user, so
    // cutting at user boundaries gives each worker disjoint users.
    let mut values = vec![f64::NEG_INFINITY; num_cand];
    let scan = |c: usize| inc.marginal_revenue_cand(CandidateId(c as u32), t);
    if parallel_scan {
        let cuts = par::balanced_cuts(inst.user_cand_offsets(), par::worker_count(num_cand));
        par::fill_by_cuts(&mut values, &cuts, scan);
    } else {
        for (c, v) in values.iter_mut().enumerate() {
            *v = scan(c);
        }
    }
    *evals += num_cand as u64;
    let mut flags = vec![0u32; num_cand];
    for (c, f) in flags.iter_mut().enumerate() {
        *f = inc.group_size_cand(CandidateId(c as u32)) as u32;
    }

    let mut heap = LazyMaxHeap::new(&values);
    if kernel_batch == 0 {
        // Legacy scalar loop: one heap round trip per examined candidate.
        while let Some((cand_idx, value)) = heap.pop() {
            if value <= 0.0 {
                break;
            }
            let cand = CandidateId(cand_idx);
            if inc.would_violate_cand(cand, t) {
                heap.remove(cand_idx);
                continue;
            }
            let group_size = inc.group_size_cand(cand) as u32;
            if flags[cand_idx as usize] == group_size {
                inc.insert_cand(cand, t);
                heap.remove(cand_idx);
                trace.push(inc.revenue());
            } else {
                let fresh = inc.marginal_revenue_cand(cand, t);
                *evals += 1;
                flags[cand_idx as usize] = group_size;
                heap.update(cand_idx, fresh);
            }
        }
        return;
    }

    // Batched loop: a stale top starts a kernel-grouped refresh burst over
    // the run of stale tops below it. Single-time-step variant of the
    // two-level burst — staleness is per candidate (one slot per candidate
    // here), and no insertion happens inside a burst, so burst refreshes
    // write the same values the scalar loop writes at surfacing time.
    let batch_cap = kernel_batch as usize;
    let mut run: Vec<(u8, u32, u32)> = Vec::with_capacity(batch_cap);
    let mut held = heap.pop();
    while let Some((cand_idx, value)) = held {
        if value <= 0.0 {
            break;
        }
        let cand = CandidateId(cand_idx);
        if inc.would_violate_cand(cand, t) {
            heap.remove(cand_idx);
            held = heap.pop();
            continue;
        }
        let group_size = inc.group_size_cand(cand) as u32;
        if flags[cand_idx as usize] == group_size {
            inc.insert_cand(cand, t);
            trace.push(inc.revenue());
            heap.remove(cand_idx);
            held = heap.pop();
        } else {
            run.clear();
            run.push((inc.kernel_id_cand(cand), cand_idx, group_size));
            while run.len() < batch_cap {
                let Some((next, next_v)) = heap.peek() else {
                    break;
                };
                if next_v <= 0.0 {
                    break;
                }
                let next_cand = CandidateId(next);
                if inc.would_violate_cand(next_cand, t) {
                    break;
                }
                let gs = inc.group_size_cand(next_cand) as u32;
                if flags[next as usize] == gs {
                    break;
                }
                heap.pop();
                run.push((inc.kernel_id_cand(next_cand), next, gs));
            }
            if run.len() > 1 {
                run.sort_unstable_by_key(|&(k, idx, _)| (k, idx));
            }
            for &(_, idx, gs) in &run {
                let fresh = inc.marginal_revenue_cand(CandidateId(idx), t);
                *evals += 1;
                flags[idx as usize] = gs;
                heap.update(idx, fresh);
            }
            held = heap.pop();
        }
    }
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
    // T! can be tiny (e.g. T = 2); stop once all permutations are exhausted.
    let factorial: u64 = (1..=horizon as u64).product::<u64>().max(1);
    let target = n.max(1).min(factorial as usize);
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
/// threads; only then is each run's inner scan forced sequential (to avoid
/// oversubscription) — a single-order or single-core run keeps the default
/// per-user parallel scan.
pub fn randomized_local_greedy(inst: &Instance, permutations: usize, seed: u64) -> GreedyOutcome {
    randomized_with(
        inst,
        &PlannerConfig::default().with_seed(seed),
        permutations,
        None,
    )
}

/// RL-Greedy over an explicit configuration (engine, shards, seed).
pub(crate) fn randomized_with(
    inst: &Instance,
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
            .map(|o| dispatch_order(inst, o, &inner, delta))
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
                            .map(|o| dispatch_order(inst, o, &inner, delta))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("worker panicked"))
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
        let mut b = InstanceBuilder::new(3, 4, 3);
        b.display_limit(1)
            .item_class(0, 0)
            .item_class(1, 0)
            .item_class(2, 1)
            .item_class(3, 1)
            .beta(0, 0.3)
            .beta(1, 0.8)
            .beta(2, 0.5)
            .beta(3, 0.9)
            .capacity(0, 2)
            .capacity(1, 2)
            .capacity(2, 3)
            .capacity(3, 1)
            .prices(0, &[20.0, 15.0, 18.0])
            .prices(1, &[8.0, 9.0, 7.0])
            .prices(2, &[12.0, 12.0, 11.0])
            .prices(3, &[30.0, 25.0, 35.0]);
        for u in 0..3 {
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

    #[test]
    fn parallel_and_sequential_scans_are_identical() {
        let inst = medium_instance();
        let order: Vec<u32> = (1..=inst.horizon()).collect();
        let seq = dispatch_order(
            &inst,
            &order,
            &PlannerConfig::default().with_parallel(Some(false)),
            None,
        );
        let par = dispatch_order(
            &inst,
            &order,
            &PlannerConfig::default().with_parallel(Some(true)),
            None,
        );
        assert_eq!(seq.revenue.to_bits(), par.revenue.to_bits());
        assert_eq!(seq.strategy.as_slice(), par.strategy.as_slice());
    }

    #[test]
    fn hash_engine_reproduces_flat_engine_results() {
        let inst = medium_instance();
        let order: Vec<u32> = (1..=inst.horizon()).collect();
        let flat = local_greedy_with_order(&inst, &order);
        let hash = dispatch_order(
            &inst,
            &order,
            &PlannerConfig::default().with_engine(EngineKind::Hash),
            None,
        );
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
    fn partial_order_restricts_time_steps() {
        let inst = medium_instance();
        let out = local_greedy_with_order(&inst, &[2]);
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
