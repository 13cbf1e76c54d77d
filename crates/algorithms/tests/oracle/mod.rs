//! The parity suites' G-Greedy reference: the pop-per-iteration lazy-heap
//! loop, written against the public `RevenueEngine` and `LazyMaxHeap` API.
//!
//! Every G-Greedy plan runs on the tournament-tree selection core. This loop
//! is the independent statement of what that core must select: one
//! `LazyMaxHeap` round trip per examined candidate, display-full slots
//! drained when their candidate surfaces (and the candidate re-queued rather
//! than processed on the spot), capacity retirement on surfacing, and stale
//! candidates re-evaluated through the same `marginal_revenue_batch` call
//! the core uses — so cached values, and therefore plans and revenues, must
//! agree bit for bit.
//!
//! Like the drivers, the loop is generic over the engine: the parity suites
//! run it on the same engine type they pass to `plan_with` (the flat engine
//! or a `revmax_oracle` reference).

use revmax_algorithms::{GreedyOutcome, LazyMaxHeap, PlanAlgorithm, PlannerConfig};
use revmax_core::{revenue, CandidateId, Instance, ResidualDelta, RevenueEngine, TimeStep};

/// Best live slot of a candidate's row: `(t index, value)`, first maximum
/// on ties; `None` when every slot is blocked (`NEG_INFINITY`).
fn best(row: &[f64]) -> Option<(usize, f64)> {
    let mut best = None;
    let mut best_v = f64::NEG_INFINITY;
    for (t, &v) in row.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = Some((t, v));
        }
    }
    best
}

/// Plans G-Greedy (or `GlobalNo`, per `cfg.algorithm`) on one shard of
/// engine `E` with the heap loop. Honours `track_trace` and `warm_start`
/// (with `delta`); every other knob only changes speed.
pub fn heap_greedy<'a, E: RevenueEngine<'a>>(
    inst: &'a Instance,
    cfg: &PlannerConfig,
    delta: Option<&ResidualDelta>,
) -> GreedyOutcome {
    let ignore_saturation = cfg.algorithm == PlanAlgorithm::GlobalNoSaturation;
    let shard = inst.full_shard();
    let mut inc = match delta {
        Some(delta) if cfg.warm_start => E::warm_start(inst, ignore_saturation, shard, delta),
        _ => E::for_shard(inst, ignore_saturation, shard),
    };

    let horizon = inst.horizon() as usize;
    let num_cand = inst.num_candidates();
    let mut values: Vec<f64> = (0..num_cand * horizon)
        .map(|slot| {
            let cand = CandidateId((slot / horizon) as u32);
            let t = TimeStep::from_index(slot % horizon);
            inst.candidate_prob(cand, t) * inst.price(inst.candidate_item(cand), t)
        })
        .collect();
    let mut flags = vec![0u32; num_cand * horizon];
    let row = |c: u32| c as usize * horizon..(c as usize + 1) * horizon;
    let roots: Vec<f64> = (0..num_cand as u32)
        .map(|c| best(&values[row(c)]).map_or(f64::NEG_INFINITY, |(_, v)| v))
        .collect();
    let mut heap = LazyMaxHeap::new(&roots);
    let mut trace = Vec::new();
    let mut evals = 0u64;

    'outer: while (inc.len() as u64) < inst.total_slots() {
        let Some((c, root_value)) = heap.pop() else {
            break;
        };
        if root_value <= 0.0 {
            break;
        }
        let cand = CandidateId(c);
        let base = c as usize * horizon;

        // Drain the candidate's display-full slots; if any was blocked,
        // re-queue it at its new best instead of processing it now.
        let mut blocked_any = false;
        let t_idx = loop {
            let Some((t_idx, _)) = best(&values[row(c)]) else {
                heap.remove(c);
                continue 'outer;
            };
            let t = TimeStep::from_index(t_idx);
            if !inc.would_violate_cand(cand, t) {
                break t_idx;
            }
            if inc.would_violate_display_cand(cand, t) {
                values[base + t_idx] = f64::NEG_INFINITY;
                blocked_any = true;
            } else {
                // Capacity exhausted by other users: the candidate dies.
                heap.remove(c);
                continue 'outer;
            }
        };
        if blocked_any {
            heap.update(c, values[base + t_idx]);
            continue;
        }

        let stamp = inc.group_size_cand(cand) as u32;
        if flags[base + t_idx] == stamp {
            inc.insert_cand(cand, TimeStep::from_index(t_idx));
            values[base + t_idx] = f64::NEG_INFINITY;
            if cfg.track_trace {
                trace.push(inc.revenue());
            }
        } else if horizon <= 64 {
            let mut mask = 0u64;
            for t in 0..horizon {
                if values[base + t] != f64::NEG_INFINITY {
                    mask |= 1 << t;
                    flags[base + t] = stamp;
                }
            }
            evals += inc.marginal_revenue_batch(cand, mask, &mut values[row(c)]) as u64;
        } else {
            for t in 0..horizon {
                if values[base + t] != f64::NEG_INFINITY {
                    values[base + t] = inc.marginal_revenue_cand(cand, TimeStep::from_index(t));
                    flags[base + t] = stamp;
                    evals += 1;
                }
            }
        }
        match best(&values[row(c)]) {
            Some((_, v)) => heap.update(c, v),
            None => heap.remove(c),
        }
    }

    let selection_objective = inc.revenue();
    let strategy = inc.into_strategy();
    let true_revenue = if ignore_saturation {
        revenue(inst, &strategy)
    } else {
        selection_objective
    };
    GreedyOutcome {
        strategy,
        revenue: true_revenue,
        selection_objective,
        trace,
        marginal_evaluations: evals,
        concurrency: Default::default(),
    }
}
