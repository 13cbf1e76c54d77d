//! A frozen copy of the seed's (pre-refactor) G-Greedy implementation, kept
//! verbatim so the perf trajectory in `BENCH_greedy.json` measures the new
//! engine + driver against the code this PR replaced:
//!
//! * the hash-based [`HashIncrementalRevenue`] evaluator, addressed through
//!   the triple-based API (one binary search per marginal evaluation);
//! * per-candidate `CandidateState` with three `Vec`s allocated per candidate;
//! * one heap round-trip per display-blocked slot (no endgame drain);
//! * per-slot re-evaluation bursts (no batched group walk).
//!
//! Do not "fix" or optimise this module — its whole value is staying slow in
//! exactly the ways the seed was.

use revmax_algorithms::{GreedyOutcome, LazyMaxHeap};
use revmax_core::{CandidateId, Instance, TimeStep, Triple};
use revmax_oracle::HashIncrementalRevenue;

/// Per-candidate cached state of the seed implementation: one slot per time
/// step, three `Vec`s per candidate.
struct CandidateState {
    values: Vec<f64>,
    flags: Vec<u32>,
    blocked: Vec<bool>,
}

impl CandidateState {
    fn best(&self) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (t, (&v, &b)) in self.values.iter().zip(&self.blocked).enumerate() {
            if b {
                continue;
            }
            if best.is_none_or(|(_, bv)| v > bv) {
                best = Some((t, v));
            }
        }
        best
    }
}

fn initial_values(inst: &Instance, cand: CandidateId) -> Vec<f64> {
    let item = inst.candidate_item(cand);
    inst.candidate_probs(cand)
        .iter()
        .enumerate()
        .map(|(t_idx, &q)| q * inst.price(item, TimeStep::from_index(t_idx)))
        .collect()
}

/// The seed's two-level-heap G-Greedy, verbatim (lazy forward on, saturation
/// respected). Returns the same outcome shape as the current implementation.
pub fn seed_global_greedy(inst: &Instance) -> GreedyOutcome {
    let horizon = inst.horizon() as usize;
    let num_cand = inst.num_candidates();
    let mut inc = HashIncrementalRevenue::new(inst);
    let mut evals: u64 = 0;

    let mut states: Vec<CandidateState> = Vec::with_capacity(num_cand);
    let mut roots = vec![f64::NEG_INFINITY; num_cand];
    for cand in inst.candidates() {
        let values = initial_values(inst, cand);
        let state = CandidateState {
            values,
            flags: vec![0; horizon],
            blocked: vec![false; horizon],
        };
        roots[cand.index()] = state.best().map_or(f64::NEG_INFINITY, |(_, v)| v);
        states.push(state);
    }
    let mut heap = LazyMaxHeap::new(&roots);
    let total_slots = inst.total_slots();

    while (inc.len() as u64) < total_slots {
        let Some((cand_idx, root_value)) = heap.pop() else {
            break;
        };
        if root_value <= 0.0 {
            break;
        }
        let cand = CandidateId(cand_idx);
        let user = inst.candidate_user(cand);
        let item = inst.candidate_item(cand);
        let class = inst.class_of(item);
        let state = &mut states[cand_idx as usize];
        let Some((best_t, _)) = state.best() else {
            heap.remove(cand_idx);
            continue;
        };
        let z = Triple {
            user,
            item,
            t: TimeStep::from_index(best_t),
        };

        if inc.would_violate(z) {
            if inc.would_violate_display(z) {
                state.blocked[best_t] = true;
                match state.best() {
                    Some((_, v)) => heap.update(cand_idx, v),
                    None => heap.remove(cand_idx),
                }
            } else {
                heap.remove(cand_idx);
            }
            continue;
        }

        let stamp = inc.group_size(user, class) as u32;
        let up_to_date = state.flags[best_t] == stamp;
        if up_to_date {
            inc.insert(z);
            state.blocked[best_t] = true;
            match state.best() {
                Some((_, v)) => heap.update(cand_idx, v),
                None => heap.remove(cand_idx),
            }
        } else {
            for t_idx in 0..horizon {
                if state.blocked[t_idx] {
                    continue;
                }
                let triple = Triple {
                    user,
                    item,
                    t: TimeStep::from_index(t_idx),
                };
                state.values[t_idx] = inc.marginal_revenue(triple);
                state.flags[t_idx] = stamp;
                evals += 1;
            }
            match state.best() {
                Some((_, v)) => heap.update(cand_idx, v),
                None => heap.remove(cand_idx),
            }
        }
    }

    // As in the seed's `finish`: with saturation respected, the selection
    // objective IS the reported revenue (no scratch re-evaluation).
    let selection_objective = inc.revenue();
    let strategy = inc.into_strategy();
    GreedyOutcome {
        strategy,
        revenue: selection_objective,
        selection_objective,
        trace: Vec::new(),
        marginal_evaluations: evals,
        concurrency: Default::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revmax_algorithms::global_greedy;
    use revmax_core::InstanceBuilder;

    #[test]
    fn seed_implementation_matches_current_greedy() {
        let mut b = InstanceBuilder::new(3, 3, 3);
        b.display_limit(1)
            .item_class(0, 0)
            .item_class(1, 0)
            .item_class(2, 1)
            .beta(0, 0.4)
            .beta(1, 0.7)
            .beta(2, 0.9)
            .capacity(0, 2)
            .capacity(1, 2)
            .capacity(2, 3)
            .prices(0, &[30.0, 24.0, 27.0])
            .prices(1, &[10.0, 12.0, 9.0])
            .prices(2, &[15.0, 15.0, 14.0]);
        for u in 0..3 {
            b.candidate(u, 0, &[0.4, 0.6, 0.5], 4.5);
            b.candidate(u, 1, &[0.7, 0.5, 0.8], 3.5);
            b.candidate(u, 2, &[0.3, 0.3, 0.4], 4.0);
        }
        let inst = b.build().unwrap();
        let seed = seed_global_greedy(&inst);
        let current = global_greedy(&inst);
        assert!((seed.revenue - current.revenue).abs() < 1e-9);
        assert_eq!(seed.strategy.len(), current.strategy.len());
        for z in current.strategy.iter() {
            assert!(seed.strategy.contains(z));
        }
    }
}
