//! # revmax-algorithms
//!
//! Optimization algorithms for REVMAX, the revenue-maximizing dynamic
//! recommendation problem:
//!
//! * [`mod@global_greedy`] — G-Greedy (Algorithm 1): hill climbing over the entire
//!   `U × I × [T]` ground set with the two-level heap layout and the
//!   lazy-forward optimisation of §5.1, plus the `GlobalNo` ablation
//!   ([`global_no_saturation`]) that ignores saturation during selection;
//! * [`sequential_local_greedy`] / [`randomized_local_greedy`] — the per-time-
//!   step SL-Greedy and RL-Greedy algorithms of §5.2;
//! * [`top_rating`] / [`top_revenue`] — the TopRA and TopRE baselines of §6.1;
//! * [`global_greedy_staged`] / [`randomized_local_greedy_staged`] — the
//!   incomplete-price variants of §6.3 (Figure 7);
//! * [`local_search_r_revmax`] — the `1/(4+ε)` local-search approximation for
//!   the relaxed problem R-REVMAX (§4.2), practical only on small instances;
//! * [`solve_t1_exact`] — the exact Max-DCS solver for the PTIME `T = 1`
//!   special case (§3.2), via min-cost flow;
//! * [`exact_optimum`] — brute-force optimum for tiny instances (testing);
//! * [`MonteCarloOracle`] — Monte-Carlo capacity oracle for the effective
//!   adoption probabilities of Definition 4;
//! * [`run`] / [`Algorithm`] — a uniform timed front-end used by the
//!   experiment harness.
//!
//! All of the above are configured through one [`PlannerConfig`] (algorithm,
//! engine, shard count, seed — builder methods plus a layered
//! [`PlannerConfig::from_env`]) and driven through the single entry point
//! [`plan`] (or [`plan_order`] for an explicit time-step ordering).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baselines;
pub mod capacity_oracle;
pub mod config;
pub mod exhaustive;
pub mod global_greedy;
pub mod heap;
pub mod local_greedy;
pub mod local_search;
pub mod max_dcs;
pub mod par;
pub mod protocol;
pub mod runner;
pub mod sharded;
pub mod staged;

pub use baselines::{top_rating, top_revenue};
pub use capacity_oracle::MonteCarloOracle;
pub use config::{plan, plan_order, plan_residual, Aggregates, PlanAlgorithm, PlannerConfig};
pub use exhaustive::{candidate_triples, exact_optimum, ExactOutcome};
pub use global_greedy::{
    global_greedy, global_no_saturation, ConcurrencyStats, EngineKind, GreedyOutcome,
};
pub use heap::LazyMaxHeap;
pub use local_greedy::{
    local_greedy_with_order, randomized_local_greedy, sample_permutations, sequential_local_greedy,
};
pub use local_search::{
    exact_r_revmax_optimum, is_display_independent, local_search_r_revmax, slot_occupancy,
    LocalSearchOutcome,
};
pub use max_dcs::{solve_t1_exact, MaxDcsOutcome};
pub use runner::{run, Algorithm, RunReport};
pub use sharded::{
    shard_users, sharded_plan, sharded_plan_order, sharded_plan_order_residual,
    sharded_plan_residual,
};
pub use staged::{global_greedy_staged, randomized_local_greedy_staged, stages_from_ends};
