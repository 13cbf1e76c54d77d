//! The unified planner configuration and the single planning entry point.
//!
//! [`PlannerConfig`] is the one configuration surface of every planner:
//! pick an algorithm, a shard count, and a seed, then call [`plan`].
//!
//! ```
//! use revmax_algorithms::{plan, PlannerConfig};
//! use revmax_core::InstanceBuilder;
//!
//! let mut b = InstanceBuilder::new(2, 1, 2);
//! b.display_limit(1)
//!     .constant_price(0, 10.0)
//!     .candidate(0, 0, &[0.4, 0.5], 0.0)
//!     .candidate(1, 0, &[0.3, 0.2], 0.0);
//! let inst = b.build().unwrap();
//!
//! let outcome = plan(&inst, &PlannerConfig::default());
//! assert!(outcome.revenue > 0.0);
//! ```
//!
//! Every knob is a **performance knob, never a behaviour knob**: for a fixed
//! [`PlanAlgorithm`], any combination of shard count, shard threads,
//! parallelism and warm starts produces the same strategy (asserted to 1e-9
//! by the parity suites). The seed only matters for
//! [`PlanAlgorithm::RandomizedLocalGreedy`].
//!
//! The planner runs one engine, the flat-arena
//! [`revmax_core::IncrementalRevenue`]. [`plan_with`] runs the same drivers
//! on any [`RevenueEngine`]: that is how the parity suites plug in their
//! reference engines (the hash engine, eager re-evaluation), which are
//! types, not configuration.

use crate::global_greedy::GreedyOutcome;
use revmax_core::{env, IncrementalRevenue, Instance, ResidualDelta, RevenueEngine};

/// Which planning algorithm a [`PlannerConfig`] selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanAlgorithm {
    /// G-Greedy (Algorithm 1) — the paper's best performer and the default.
    #[default]
    GlobalGreedy,
    /// G-Greedy selecting as if no saturation existed (the `GlobalNo`
    /// ablation); the reported revenue is always the true revenue.
    GlobalNoSaturation,
    /// SL-Greedy (Algorithm 2) — chronological per-time-step greedy.
    SequentialLocalGreedy,
    /// RL-Greedy — per-time-step greedy under sampled horizon orderings,
    /// best strategy kept. Uses [`PlannerConfig::seed`].
    RandomizedLocalGreedy {
        /// Number of sampled permutations (the paper uses 20).
        permutations: u32,
    },
}

/// The unified configuration for every REVMAX planner.
///
/// Construct with [`PlannerConfig::default`] plus the `with_*` builder
/// methods, with a struct literal, or from the environment with
/// [`PlannerConfig::from_env`] / [`PlannerConfig::env_overlay`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannerConfig {
    /// The algorithm to run.
    pub algorithm: PlanAlgorithm,
    /// Number of user shards G-Greedy plans on (`0`/`1` = one shard, `n ≥ 2`
    /// = `n` shards coupled through a shared capacity ledger, see
    /// [`crate::sharded`]). Shards run on the concurrent executor's worker
    /// threads, so `n ≥ 2` takes effect only when
    /// [`PlannerConfig::shard_threads`] resolves to two or more workers;
    /// otherwise the plan runs on one shard. Every shard runs the same
    /// selection core, and every shard count produces the same plan.
    /// SL-Greedy and RL-Greedy ignore it: they always plan on one shard.
    pub shards: u32,
    /// Seed for the randomized algorithms (RL-Greedy permutation sampling).
    pub seed: u64,
    /// Record the objective value after every selection (Figure 4 traces).
    pub track_trace: bool,
    /// Thread parallelism of one-shard plans: `None` (default) and
    /// `Some(true)` evaluate a time window's table fill of at least 16,384
    /// live slots (candidates × time steps in the window) on scoped
    /// threads, and cut the users of a G-Greedy plan of that size in which
    /// no item is scarce (every item's non-exempt candidate demand fits its
    /// capacity) into one CPU shard per core, each on its own thread.
    /// `Some(false)` does neither. Only an evaluated fill forks (a window
    /// over an engine that already holds selections of its users); a cold
    /// fill writes `q · p` on the calling thread either way, which costs
    /// less than a fork. A plan with no scarce item selects one user at a
    /// time on any host, with `parallel` on or off; this knob only decides
    /// whether its CPU shards use threads. Both settings are exact:
    /// parallel and sequential fills are bit-identical, and a per-user plan
    /// is the whole-instance outcome bit for bit (revenue, strategy order,
    /// trace and evaluation count) at every CPU shard count. On a one-CPU
    /// host nothing forks.
    pub parallel: Option<bool>,
    /// Warm-start residual replans (off by default): when a replan comes
    /// with a [`ResidualDelta`] (see [`plan_residual`]), engines recycle the
    /// previous replan's saturation tables and arena buffers instead of
    /// rebuilding them. It recycles engine state only: a
    /// `revmax_serve::PlanSession` builds every residual instance
    /// incrementally (`revmax_core::residual_advance`) either way. Like
    /// every other knob this is purely a performance switch — warm and cold
    /// replans produce identical plans (asserted to 1e-9 at shard counts 1
    /// and 2).
    pub warm_start: bool,
    /// Worker threads for the **concurrent shard executor** of the sharded
    /// G-Greedy core (default `1`). The count resolves to
    /// `min(shard_threads, shards)`, with `0` = auto:
    /// `min(shards, available_parallelism)`. With two or more workers,
    /// shards free-run on a persistent scoped worker pool, committing
    /// scarcity-window-abundant claims lock-free and parking only
    /// scarce-window moves for the coordinator (see `docs/concurrency.md`,
    /// "The capacity window"). With fewer — the default, auto mode on a
    /// one-CPU host, `shards <= 1`, or `track_trace`, since the trace
    /// records the global selection order the executor does not
    /// materialise move-by-move — G-Greedy plans one shard. Like every knob
    /// this is purely a performance switch — every thread count reproduces
    /// the one-shard plan (parity asserted to 1e-9).
    pub shard_threads: u32,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            algorithm: PlanAlgorithm::default(),
            shards: 1,
            seed: 0,
            track_trace: false,
            parallel: None,
            warm_start: false,
            shard_threads: 1,
        }
    }
}

impl PlannerConfig {
    /// The default configuration (G-Greedy, 1 shard).
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the algorithm.
    pub fn with_algorithm(mut self, algorithm: PlanAlgorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Selects the user-shard count (`0` is normalised to `1`).
    pub fn with_shards(mut self, shards: u32) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Selects the seed for the randomized algorithms.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Switches per-selection objective tracing.
    pub fn with_track_trace(mut self, track_trace: bool) -> Self {
        self.track_trace = track_trace;
        self
    }

    /// Sets the table-fill parallelism (see [`PlannerConfig::parallel`]).
    pub fn with_parallel(mut self, parallel: Option<bool>) -> Self {
        self.parallel = parallel;
        self
    }

    /// Switches warm-started residual replans (see
    /// [`PlannerConfig::warm_start`]).
    pub fn with_warm_start(mut self, warm_start: bool) -> Self {
        self.warm_start = warm_start;
        self
    }

    /// Selects the concurrent shard executor's worker-thread count (see
    /// [`PlannerConfig::shard_threads`]; `1` = one shard, `0` = auto).
    pub fn with_shard_threads(mut self, shard_threads: u32) -> Self {
        self.shard_threads = shard_threads;
        self
    }

    /// Default configuration with the environment knobs layered on top —
    /// shorthand for `PlannerConfig::default().env_overlay()`.
    pub fn from_env() -> Self {
        Self::default().env_overlay()
    }

    /// Layers the `REVMAX_*` environment knobs over this configuration, so
    /// binaries and examples expose runtime selection without recompiling:
    ///
    /// * `REVMAX_ALGORITHM` — `gg` (default), `gg-no`, `slg`, or `rlg`
    ///   (RL-Greedy with the paper's 20 permutations);
    /// * `REVMAX_SHARDS` — G-Greedy shard count (`≥ 2` couples the shards
    ///   through the shared capacity ledger, and takes effect only with
    ///   two or more shard threads);
    /// * `REVMAX_SEED` — seed for the randomized algorithms;
    /// * `REVMAX_WARM_START` — `1` enables warm-started residual replans;
    /// * `REVMAX_SHARD_THREADS` — worker threads for the concurrent shard
    ///   executor (default 1 = one shard, `0` = auto).
    ///
    /// Unset or unparsable values keep the receiver's setting — selection
    /// must never change results (only speed), so a typo degrades
    /// gracefully. Parsing goes through the shared [`revmax_core::env`]
    /// module.
    pub fn env_overlay(mut self) -> Self {
        if let Some(algorithm) = env::var_with("REVMAX_ALGORITHM", parse_algorithm) {
            self.algorithm = algorithm;
        }
        if let Some(shards) = env::var::<u32>("REVMAX_SHARDS") {
            self.shards = shards.max(1);
        }
        if let Some(seed) = env::var::<u64>("REVMAX_SEED") {
            self.seed = seed;
        }
        if let Some(warm) = env::var::<u32>("REVMAX_WARM_START") {
            self.warm_start = warm != 0;
        }
        if let Some(shard_threads) = env::var::<u32>("REVMAX_SHARD_THREADS") {
            self.shard_threads = shard_threads;
        }
        self
    }

    /// Whether selection pretends `β_i = 1` (the `GlobalNo` ablation).
    pub(crate) fn ignores_saturation(&self) -> bool {
        matches!(self.algorithm, PlanAlgorithm::GlobalNoSaturation)
    }

    /// One-shard parallelism (on unless switched off; the forked evaluated
    /// fill and the per-user path's CPU shards are additionally gated by the
    /// live slot count).
    pub(crate) fn parallel_init(&self) -> bool {
        self.parallel.unwrap_or(true)
    }

    /// Resolves [`PlannerConfig::shard_threads`] to the worker count the
    /// sharded G-Greedy core actually uses: `0` auto-sizes to
    /// `min(shards, available_parallelism)`, explicit values are capped at
    /// the shard count, and single-shard or traced runs always resolve to
    /// `1`. Fewer than two workers plan one shard.
    pub(crate) fn effective_shard_threads(&self, shards: usize) -> usize {
        if shards <= 1 || self.track_trace {
            return 1;
        }
        let requested = if self.shard_threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.shard_threads as usize
        };
        requested.min(shards).max(1)
    }
}

fn parse_algorithm(s: &str) -> Option<PlanAlgorithm> {
    match s {
        "gg" | "global" | "global_greedy" => Some(PlanAlgorithm::GlobalGreedy),
        "gg-no" | "gg_no" | "no_saturation" => Some(PlanAlgorithm::GlobalNoSaturation),
        "slg" | "local" | "sequential_local" => Some(PlanAlgorithm::SequentialLocalGreedy),
        "rlg" | "randomized_local" => {
            Some(PlanAlgorithm::RandomizedLocalGreedy { permutations: 20 })
        }
        _ => None,
    }
}

/// Plans an instance with the configured algorithm — the single entry point
/// the service layer, examples, and experiments are built on.
pub fn plan(inst: &Instance, config: &PlannerConfig) -> GreedyOutcome {
    plan_residual(inst, config, None)
}

/// [`plan`] for a **residual replan**: when `delta` is present and
/// `config.warm_start` is set, the engines are constructed through
/// [`revmax_core::RevenueEngine::warm_start`], recycling the saturation
/// tables and buffers pooled in the delta's
/// [`revmax_core::EngineSnapshot`]. Warm and cold runs produce identical
/// plans; the delta is purely a performance handle.
pub fn plan_residual(
    inst: &Instance,
    config: &PlannerConfig,
    delta: Option<&ResidualDelta>,
) -> GreedyOutcome {
    plan_with::<IncrementalRevenue<'_>>(inst, config, delta)
}

/// [`plan_residual`] on an explicit engine type `E`: the one generic entry
/// behind every planner. The product plans with
/// [`revmax_core::IncrementalRevenue`]; the parity suites instantiate `E`
/// with their reference engines and compare the plans.
pub fn plan_with<'a, E: RevenueEngine<'a>>(
    inst: &'a Instance,
    config: &PlannerConfig,
    delta: Option<&ResidualDelta>,
) -> GreedyOutcome {
    match config.algorithm {
        PlanAlgorithm::GlobalGreedy | PlanAlgorithm::GlobalNoSaturation => {
            crate::sharded::sharded_plan_residual::<E>(inst, config, config.shards as usize, delta)
        }
        PlanAlgorithm::SequentialLocalGreedy => {
            let order: Vec<u32> = (1..=inst.horizon()).collect();
            crate::local_greedy::run_order::<E>(inst, &order, config, delta)
        }
        PlanAlgorithm::RandomizedLocalGreedy { permutations } => {
            crate::local_greedy::randomized_with::<E>(inst, config, permutations as usize, delta)
        }
    }
}

/// Runs the per-time-step greedy under an explicit ordering of time steps
/// (a permutation of `1..=T`, or a subset — only those steps receive
/// recommendations). The configured algorithm field is ignored; shards do
/// not apply, parallelism does.
pub fn plan_order(inst: &Instance, order: &[u32], config: &PlannerConfig) -> GreedyOutcome {
    crate::local_greedy::run_order::<IncrementalRevenue<'_>>(inst, order, config, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_methods_compose() {
        let cfg = PlannerConfig::new()
            .with_algorithm(PlanAlgorithm::SequentialLocalGreedy)
            .with_shards(0)
            .with_seed(7)
            .with_track_trace(true)
            .with_parallel(Some(false))
            .with_warm_start(true)
            .with_shard_threads(3);
        assert_eq!(cfg.algorithm, PlanAlgorithm::SequentialLocalGreedy);
        assert_eq!(cfg.shards, 1, "0 shards normalises to 1");
        assert_eq!(cfg.seed, 7);
        assert!(cfg.track_trace);
        assert_eq!(cfg.parallel, Some(false));
        assert!(cfg.warm_start);
        assert_eq!(cfg.shard_threads, 3);
    }

    #[test]
    fn shard_threads_resolve_one_shard_unless_concurrent_applies() {
        let cfg = PlannerConfig::default();
        assert_eq!(cfg.shard_threads, 1, "one shard is the default");
        assert_eq!(cfg.effective_shard_threads(1), 1, "one shard never pools");
        assert_eq!(cfg.effective_shard_threads(4), 1);

        let cfg = cfg.with_shard_threads(4);
        assert_eq!(cfg.effective_shard_threads(4), 4);
        assert_eq!(cfg.effective_shard_threads(2), 2, "capped at shard count");
        assert_eq!(cfg.effective_shard_threads(1), 1);
        assert_eq!(
            cfg.with_track_trace(true).effective_shard_threads(4),
            1,
            "traces record the one-shard selection order"
        );

        // Auto mode never exceeds the shard count either.
        let auto = PlannerConfig::default().with_shard_threads(0);
        assert!(auto.effective_shard_threads(2) <= 2);
        assert!(auto.effective_shard_threads(8) >= 1);

        std::env::set_var("REVMAX_SHARD_THREADS", "3");
        assert_eq!(PlannerConfig::default().env_overlay().shard_threads, 3);
        std::env::remove_var("REVMAX_SHARD_THREADS");
        assert_eq!(PlannerConfig::default().env_overlay().shard_threads, 1);
    }

    #[test]
    fn knob_parsers_accept_the_documented_values() {
        assert_eq!(parse_algorithm("gg"), Some(PlanAlgorithm::GlobalGreedy));
        assert_eq!(
            parse_algorithm("gg-no"),
            Some(PlanAlgorithm::GlobalNoSaturation)
        );
        assert_eq!(
            parse_algorithm("slg"),
            Some(PlanAlgorithm::SequentialLocalGreedy)
        );
        assert_eq!(
            parse_algorithm("rlg"),
            Some(PlanAlgorithm::RandomizedLocalGreedy { permutations: 20 })
        );
        assert_eq!(parse_algorithm("brute_force"), None);
    }
}
