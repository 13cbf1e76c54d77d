//! Incomplete price information (§6.3 / Figure 7): prices become available in
//! sub-horizon batches, so the global algorithms can only optimise one
//! sub-horizon at a time, carrying the already-committed recommendations
//! forward.
//!
//! With cut-off `c`, the first sub-horizon is `1..=c` and the second is
//! `c+1..=T`. SL-Greedy is unaffected (it is already chronological), G-Greedy
//! and RL-Greedy lose the ability to plan holistically across the cut. Each
//! stage is a window of G-Greedy's selection core
//! (`global_greedy::run_window`) on the engine the earlier stages left, so
//! one stage covering the horizon is G-Greedy itself.

use crate::config::PlannerConfig;
use crate::global_greedy::{outcome, run_window, GreedyOutcome, Insertion};
use crate::local_greedy::sample_permutations;
use revmax_core::{IncrementalRevenue, Instance, Strategy, Triple};

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
    let parallel = PlannerConfig::default().parallel_init();
    let mut inc = IncrementalRevenue::new(inst);
    let mut evals = 0u64;
    let mut trace = Vec::new();
    let mut strategy = Strategy::new();
    let shard = inst.full_shard();
    for (lo, hi) in stages_from_ends(inst.horizon(), stage_ends) {
        let on_insert = |inc: &IncrementalRevenue<'_>, ins: Insertion| {
            trace.push(inc.revenue());
            strategy.insert(ins.z);
        };
        inc = run_window(inst, inc, shard, lo..=hi, parallel, &mut evals, on_insert);
    }
    let revenue = inc.revenue();
    outcome(inst, false, strategy, revenue, trace, evals)
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
    let parallel = PlannerConfig::default().parallel_init();
    let mut inc = IncrementalRevenue::new(inst);
    let mut evals = 0u64;
    let mut trace = Vec::new();
    let mut strategy = Strategy::new();

    for (stage_idx, (lo, hi)) in stages.iter().enumerate() {
        let width = hi - lo + 1;
        let orders = sample_permutations(width, permutations, seed.wrapping_add(stage_idx as u64));
        let mut best: Option<(IncrementalRevenue<'_>, Vec<f64>, Vec<Triple>)> = None;
        for order in &orders {
            let mut candidate_inc = inc.clone();
            let mut candidate_trace = Vec::new();
            let mut candidate_picks = Vec::new();
            for &offset in order {
                let t = lo + offset - 1;
                candidate_inc = run_window(
                    inst,
                    candidate_inc,
                    inst.full_shard(),
                    t..=t,
                    parallel,
                    &mut evals,
                    |inc, ins| {
                        candidate_trace.push(inc.revenue());
                        candidate_picks.push(ins.z);
                    },
                );
            }
            if best
                .as_ref()
                .is_none_or(|(b, _, _)| candidate_inc.revenue() > b.revenue())
            {
                best = Some((candidate_inc, candidate_trace, candidate_picks));
            }
        }
        let (best_inc, best_trace, best_picks) = best.expect("at least one ordering per stage");
        inc = best_inc;
        trace.extend(best_trace);
        for z in best_picks {
            strategy.insert(z);
        }
    }

    let revenue = inc.revenue();
    outcome(inst, false, strategy, revenue, trace, evals)
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

    /// Staged G-Greedy at every cut plans validly, reports its plan's
    /// revenue and beats TopRat. Less foresight can earn more (four Figure 7
    /// rows do), so nothing orders staged against holistic revenue; this
    /// instance's revenues are pinned bit for bit instead.
    #[test]
    fn staged_greedy_is_valid_and_its_revenues_are_pinned() {
        let inst = instance();
        let top_rating = crate::baselines::top_rating(&inst).revenue;
        let holistic = global_greedy(&inst).revenue;
        assert_eq!(holistic.to_bits(), 60.79771813321373f64.to_bits());
        for (cut, pinned) in [
            (1, 60.79771813321373f64),
            (2, 60.47217552216546),
            (3, 60.48341159113288),
        ] {
            let staged = global_greedy_staged(&inst, &[cut]);
            assert!(staged.strategy.validate(&inst).is_ok());
            assert!((staged.revenue - revenue(&inst, &staged.strategy)).abs() < 1e-9);
            assert!(staged.revenue > top_rating, "cut {cut}: below TopRat");
            assert_eq!(staged.revenue.to_bits(), pinned.to_bits(), "cut {cut}");
        }
    }

    /// Staged RL-Greedy plans validly, reports its plan's revenue and beats
    /// TopRat; its revenue and unstaged RL-Greedy's on this instance are
    /// pinned bit for bit.
    #[test]
    fn staged_rl_greedy_is_valid_and_its_revenues_are_pinned() {
        let inst = instance();
        let unstaged = randomized_local_greedy(&inst, 8, 3).revenue;
        let staged = randomized_local_greedy_staged(&inst, &[2], 8, 3);
        assert!(staged.strategy.validate(&inst).is_ok());
        assert!((staged.revenue - revenue(&inst, &staged.strategy)).abs() < 1e-9);
        assert!(staged.revenue > crate::baselines::top_rating(&inst).revenue);
        assert_eq!(unstaged.to_bits(), 60.47217552216546f64.to_bits());
        assert_eq!(staged.revenue.to_bits(), 60.47217552216546f64.to_bits());
    }
}
