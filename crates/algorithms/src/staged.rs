//! Incomplete price information (§6.3 / Figure 7): prices become available in
//! sub-horizon batches, so the global algorithms can only optimise one
//! sub-horizon at a time, carrying the already-committed recommendations
//! forward.
//!
//! With cut-off `c`, the first sub-horizon is `1..=c` and the second is
//! `c+1..=T`. SL-Greedy is unaffected (it is already chronological), G-Greedy
//! and RL-Greedy lose the ability to plan holistically across the cut.

use crate::global_greedy::GreedyOutcome;
use crate::heap::LazyMaxHeap;
use crate::local_greedy::{run_time_step, sample_permutations};
use revmax_core::{CandidateId, IncrementalRevenue, Instance, RevenueEngine as _, TimeStep};

/// Expands stage end points (e.g. `[2, 7]`) into inclusive time ranges
/// (`[(1,2), (3,7)]`). The last stage is extended to the horizon if needed.
pub fn stages_from_ends(horizon: u32, stage_ends: &[u32]) -> Vec<(u32, u32)> {
    let mut stages = Vec::new();
    let mut lo = 1u32;
    for &end in stage_ends {
        let hi = end.min(horizon);
        if hi >= lo {
            stages.push((lo, hi));
            lo = hi + 1;
        }
    }
    if lo <= horizon {
        stages.push((lo, horizon));
    }
    stages
}

/// G-Greedy restricted to price information arriving per sub-horizon: the
/// greedy is run stage by stage, each stage only selecting triples whose time
/// step lies inside the stage, on top of the selections of earlier stages.
pub fn global_greedy_staged(inst: &Instance, stage_ends: &[u32]) -> GreedyOutcome {
    let stages = stages_from_ends(inst.horizon(), stage_ends);
    let horizon = inst.horizon() as usize;
    let mut inc = IncrementalRevenue::new(inst);
    let mut evals = 0u64;
    let mut trace = Vec::new();

    for (lo, hi) in stages {
        // Ground set of this stage: candidate triples with t in [lo, hi].
        let num_elements = inst.num_candidates() * horizon;
        let mut values = vec![f64::NEG_INFINITY; num_elements];
        let mut flags = vec![0u32; num_elements];
        for cand in inst.candidates() {
            for t in lo..=hi {
                let element = cand.index() * horizon + (t as usize - 1);
                values[element] = inc.marginal_revenue_cand(cand, TimeStep(t));
                flags[element] = inc.group_size_cand(cand) as u32;
                evals += 1;
            }
        }
        let mut heap = LazyMaxHeap::new(&values);
        while let Some((element, value)) = heap.pop() {
            if value <= 0.0 {
                break;
            }
            let cand = CandidateId(element / horizon as u32);
            let t = TimeStep::from_index((element as usize) % horizon);
            if inc.would_violate_cand(cand, t) {
                heap.remove(element);
                continue;
            }
            let group_size = inc.group_size_cand(cand) as u32;
            if flags[element as usize] == group_size {
                inc.insert_cand(cand, t);
                heap.remove(element);
                trace.push(inc.revenue());
            } else {
                let fresh = inc.marginal_revenue_cand(cand, t);
                evals += 1;
                flags[element as usize] = group_size;
                heap.update(element, fresh);
            }
        }
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

/// RL-Greedy under staged price availability: within each stage, `permutations`
/// random orderings of that stage's time steps are tried on top of the
/// committed prefix, and the best continuation is kept.
pub fn randomized_local_greedy_staged(
    inst: &Instance,
    stage_ends: &[u32],
    permutations: usize,
    seed: u64,
) -> GreedyOutcome {
    let stages = stages_from_ends(inst.horizon(), stage_ends);
    let mut inc = IncrementalRevenue::new(inst);
    let mut evals = 0u64;
    let mut trace = Vec::new();

    for (stage_idx, (lo, hi)) in stages.iter().enumerate() {
        let width = hi - lo + 1;
        let orders = sample_permutations(width, permutations, seed.wrapping_add(stage_idx as u64));
        let mut best: Option<(IncrementalRevenue<'_>, u64, Vec<f64>)> = None;
        for order in &orders {
            let mut candidate_inc = inc.clone();
            let mut candidate_evals = 0u64;
            let mut candidate_trace = Vec::new();
            for &offset in order {
                let t = TimeStep(lo + offset - 1);
                run_time_step(
                    inst,
                    &mut candidate_inc,
                    t,
                    false,
                    crate::config::PlannerConfig::default().kernel_batch,
                    &mut candidate_evals,
                    &mut candidate_trace,
                );
            }
            if best
                .as_ref()
                .is_none_or(|(b, _, _)| candidate_inc.revenue() > b.revenue())
            {
                best = Some((candidate_inc, candidate_evals, candidate_trace));
            }
            evals += candidate_evals;
        }
        let (best_inc, _, best_trace) = best.expect("at least one ordering per stage");
        inc = best_inc;
        trace.extend(best_trace);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global_greedy::global_greedy;
    use crate::local_greedy::randomized_local_greedy;
    use revmax_core::{revenue, InstanceBuilder};

    fn instance() -> Instance {
        let mut b = InstanceBuilder::new(3, 3, 4);
        b.display_limit(1)
            .item_class(0, 0)
            .item_class(1, 0)
            .item_class(2, 1)
            .beta(0, 0.4)
            .beta(1, 0.6)
            .beta(2, 0.8)
            .capacity(0, 2)
            .capacity(1, 2)
            .capacity(2, 3)
            .prices(0, &[25.0, 20.0, 35.0, 15.0])
            .prices(1, &[9.0, 12.0, 8.0, 10.0])
            .prices(2, &[14.0, 13.0, 16.0, 12.0]);
        for u in 0..3 {
            b.candidate(u, 0, &[0.5, 0.6, 0.3, 0.7], 4.0);
            b.candidate(u, 1, &[0.6, 0.4, 0.7, 0.5], 3.0);
            b.candidate(u, 2, &[0.3, 0.35, 0.25, 0.4], 3.5);
        }
        b.build().unwrap()
    }

    #[test]
    fn stage_expansion_covers_the_horizon() {
        assert_eq!(stages_from_ends(7, &[2]), vec![(1, 2), (3, 7)]);
        assert_eq!(stages_from_ends(7, &[4]), vec![(1, 4), (5, 7)]);
        assert_eq!(stages_from_ends(7, &[7]), vec![(1, 7)]);
        assert_eq!(stages_from_ends(5, &[2, 4]), vec![(1, 2), (3, 4), (5, 5)]);
        assert_eq!(stages_from_ends(3, &[9]), vec![(1, 3)]);
    }

    #[test]
    fn staged_greedy_is_valid_and_no_better_than_holistic() {
        let inst = instance();
        let full = global_greedy(&inst);
        for cut in [1, 2, 3] {
            let staged = global_greedy_staged(&inst, &[cut]);
            assert!(staged.strategy.validate(&inst).is_ok());
            assert!((staged.revenue - revenue(&inst, &staged.strategy)).abs() < 1e-9);
            assert!(
                staged.revenue <= full.revenue + 1e-9,
                "cut {cut}: staged {} exceeded holistic {}",
                staged.revenue,
                full.revenue
            );
        }
    }

    #[test]
    fn staged_with_full_horizon_matches_unstaged() {
        let inst = instance();
        let full = global_greedy(&inst);
        let staged = global_greedy_staged(&inst, &[inst.horizon()]);
        assert!((staged.revenue - full.revenue).abs() < 1e-9);
    }

    #[test]
    fn staged_rl_greedy_is_valid_and_bounded_by_unstaged() {
        let inst = instance();
        let full = randomized_local_greedy(&inst, 8, 3);
        let staged = randomized_local_greedy_staged(&inst, &[2], 8, 3);
        assert!(staged.strategy.validate(&inst).is_ok());
        assert!((staged.revenue - revenue(&inst, &staged.strategy)).abs() < 1e-9);
        assert!(staged.revenue <= full.revenue + 1e-9);
        assert!(staged.revenue > 0.0);
    }
}
