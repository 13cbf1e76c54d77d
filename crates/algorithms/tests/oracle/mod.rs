//! The parity suites' references: naive lazy-forward greedy loops, written
//! against the public `RevenueEngine` API, that select with a plain argmax
//! over cached values (the largest value, ties to the smaller candidate id).
//!
//! Every greedy plan runs on the tournament-tree selection core. These
//! loops are the independent statement of what that core must select:
//!
//! * [`argmax_greedy`] is G-Greedy (Algorithm 1 with §5.1's lazy forward):
//!   each step takes the best cached slot of the best candidate, drops a
//!   display-full slot, retires a candidate whose item is full, refreshes a
//!   stale candidate through the same `marginal_revenue_batch` call the core
//!   uses, and commits a fresh one;
//! * [`sl_greedy`] is SL-Greedy (Algorithm 2) step by step: per time step,
//!   a scan of every candidate's marginal, then the same climb over one
//!   slot per candidate, refreshing through `marginal_revenue_cand`;
//!   [`rl_greedy`] keeps the best of its runs under RL-Greedy's orders.
//!
//! Cached values, and therefore plans and revenues, must agree with the
//! core bit for bit. Like the drivers, the loops are generic over the
//! engine: the parity suites run them on the same engine type they pass to
//! `plan_with` (the flat engine or a `revmax_oracle` reference).

use revmax_algorithms::{sample_permutations, GreedyOutcome, PlanAlgorithm, PlannerConfig};
use revmax_core::{
    revenue, CandidateId, Instance, ResidualDelta, RevenueEngine, Strategy, TimeStep, Triple,
};

/// The first index holding the largest value, with that value; `None` when
/// every value is `NEG_INFINITY` (dead). An index loop, because the suites
/// run it over thousands of candidates per step in unoptimised builds too.
fn argmax(values: &[f64]) -> Option<(usize, f64)> {
    let mut best = None;
    let mut best_v = f64::NEG_INFINITY;
    let mut i = 0;
    while i < values.len() {
        if values[i] > best_v {
            best_v = values[i];
            best = Some((i, best_v));
        }
        i += 1;
    }
    best
}

/// The engine a plan starts from: warm-started from `delta` when `cfg`
/// asks for it, cold otherwise.
fn engine<'a, E: RevenueEngine<'a>>(
    inst: &'a Instance,
    ignore_saturation: bool,
    cfg: &PlannerConfig,
    delta: Option<&ResidualDelta>,
) -> E {
    let shard = inst.full_shard();
    match delta {
        Some(delta) if cfg.warm_start => E::warm_start(inst, ignore_saturation, shard, delta),
        _ => E::for_shard(inst, ignore_saturation, shard),
    }
}

/// Inserts `(cand, t)` into the engine and records the triple in the
/// strategy the loop keeps (engines keep none).
fn insert<'a, E: RevenueEngine<'a>>(
    inc: &mut E,
    strategy: &mut Strategy,
    cand: CandidateId,
    t: TimeStep,
) {
    let inst = inc.instance();
    let (user, item) = (inst.candidate_user(cand), inst.candidate_item(cand));
    inc.insert_cand(cand, t);
    strategy.insert(Triple { user, item, t });
}

/// The outcome of the plan `inc` holds, whose triples `strategy` lists in
/// insertion order; a saturation-blind plan reports the true revenue of
/// its strategy.
fn outcome<'a, E: RevenueEngine<'a>>(
    inst: &Instance,
    ignore_saturation: bool,
    inc: E,
    strategy: Strategy,
    trace: Vec<f64>,
    marginal_evaluations: u64,
) -> GreedyOutcome {
    let selection_objective = inc.revenue();
    GreedyOutcome {
        revenue: if ignore_saturation {
            revenue(inst, &strategy)
        } else {
            selection_objective
        },
        strategy,
        selection_objective,
        trace,
        marginal_evaluations,
        concurrency: Default::default(),
    }
}

/// Plans G-Greedy (or `GlobalNo`, per `cfg.algorithm`) on one shard of
/// engine `E`. Honours `track_trace` and `warm_start` (with `delta`); every
/// other knob only changes speed.
pub fn argmax_greedy<'a, E: RevenueEngine<'a>>(
    inst: &'a Instance,
    cfg: &PlannerConfig,
    delta: Option<&ResidualDelta>,
) -> GreedyOutcome {
    let ignore_saturation = cfg.algorithm == PlanAlgorithm::GlobalNoSaturation;
    let mut inc: E = engine(inst, ignore_saturation, cfg, delta);
    let horizon = inst.horizon() as usize;
    assert!(
        horizon <= 64,
        "the oracle refreshes whole rows in one batch"
    );
    let num_cand = inst.num_candidates();
    // One row of cached marginals per candidate, `q · p` at stamp 0 to start.
    let mut values: Vec<f64> = (0..num_cand * horizon)
        .map(|slot| {
            let cand = CandidateId((slot / horizon) as u32);
            let t = TimeStep::from_index(slot % horizon);
            inst.candidate_prob(cand, t) * inst.price(inst.candidate_item(cand), t)
        })
        .collect();
    let mut flags = vec![0u32; num_cand * horizon];
    let row = |c: usize| c * horizon..(c + 1) * horizon;
    let root =
        |values: &[f64], c: usize| argmax(&values[row(c)]).map_or(f64::NEG_INFINITY, |b| b.1);
    let mut roots: Vec<f64> = (0..num_cand).map(|c| root(&values, c)).collect();
    let mut trace = Vec::new();
    let mut strategy = Strategy::new();
    let mut evals = 0u64;

    while (inc.len() as u64) < inst.total_slots() {
        let Some((c, value)) = argmax(&roots) else {
            break;
        };
        if value <= 0.0 {
            break;
        }
        let (t_idx, _) = argmax(&values[row(c)]).expect("a live root has a live slot");
        let cand = CandidateId(c as u32);
        let t = TimeStep::from_index(t_idx);
        let slot = c * horizon + t_idx;
        let stamp = inc.group_size_cand(cand) as u32;
        if inc.would_violate_display_cand(cand, t) {
            values[slot] = f64::NEG_INFINITY;
        } else if inc.would_violate_cand(cand, t) {
            // Capacity exhausted by other users: the candidate dies.
            values[row(c)].fill(f64::NEG_INFINITY);
        } else if flags[slot] == stamp {
            insert(&mut inc, &mut strategy, cand, t);
            values[slot] = f64::NEG_INFINITY;
            if cfg.track_trace {
                trace.push(inc.revenue());
            }
        } else {
            let mut mask = 0u64;
            for (i, s) in row(c).enumerate() {
                if values[s] != f64::NEG_INFINITY {
                    mask |= 1 << i;
                    flags[s] = stamp;
                }
            }
            evals += inc.marginal_revenue_batch(cand, mask, &mut values[row(c)]) as u64;
        }
        roots[c] = root(&values, c);
    }
    outcome(inst, ignore_saturation, inc, strategy, trace, evals)
}

/// Plans SL-Greedy (Algorithm 2) on engine `E` under `order`, a sequence of
/// time steps. Honours `warm_start` (with `delta`); the objective after
/// every insertion is recorded, as SL-Greedy always does.
pub fn sl_greedy<'a, E: RevenueEngine<'a>>(
    inst: &'a Instance,
    order: &[u32],
    cfg: &PlannerConfig,
    delta: Option<&ResidualDelta>,
) -> GreedyOutcome {
    let mut inc: E = engine(inst, false, cfg, delta);
    let cands: Vec<CandidateId> = inst.candidates().collect();
    let mut trace = Vec::new();
    let mut strategy = Strategy::new();
    let mut evals = 0u64;
    for &t in order {
        let t = TimeStep(t);
        // Every candidate's marginal at t, flagged with its group size.
        let mut values: Vec<f64> = cands
            .iter()
            .map(|&c| inc.marginal_revenue_cand(c, t))
            .collect();
        let mut flags: Vec<usize> = cands.iter().map(|&c| inc.group_size_cand(c)).collect();
        evals += cands.len() as u64;
        while let Some((c, value)) = argmax(&values) {
            if value <= 0.0 {
                break;
            }
            let cand = cands[c];
            let stamp = inc.group_size_cand(cand);
            if inc.would_violate_display_cand(cand, t) {
                // The user's display at t is full: none of their candidates
                // fits any more.
                for other in inst.candidates_of_user(inst.candidate_user(cand)) {
                    values[other.index()] = f64::NEG_INFINITY;
                }
            } else if inc.would_violate_cand(cand, t) {
                values[c] = f64::NEG_INFINITY;
            } else if flags[c] == stamp {
                insert(&mut inc, &mut strategy, cand, t);
                values[c] = f64::NEG_INFINITY;
                trace.push(inc.revenue());
            } else {
                values[c] = inc.marginal_revenue_cand(cand, t);
                flags[c] = stamp;
                evals += 1;
            }
        }
    }
    outcome(inst, false, inc, strategy, trace, evals)
}

/// Plans RL-Greedy on engine `E`: [`sl_greedy`] under each of the orders
/// RL-Greedy samples for `cfg.seed`, keeping the most profitable (the last
/// among equals). Returns the winning order with its plan.
pub fn rl_greedy<'a, E: RevenueEngine<'a>>(
    inst: &'a Instance,
    permutations: usize,
    cfg: &PlannerConfig,
    delta: Option<&ResidualDelta>,
) -> (Vec<u32>, GreedyOutcome) {
    sample_permutations(inst.horizon(), permutations, cfg.seed)
        .into_iter()
        .map(|order| {
            let plan = sl_greedy::<E>(inst, &order, cfg, delta);
            (order, plan)
        })
        .max_by(|a, b| a.1.revenue.total_cmp(&b.1.revenue))
        .expect("at least one order")
}
