//! The unified planner configuration and the single planning entry point.
//!
//! [`PlannerConfig`] is the one configuration surface of every planner:
//! pick an algorithm, an engine, a shard count, and a seed, then call
//! [`plan`].
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
//! [`PlanAlgorithm`], any combination of engine, shard count, and
//! parallelism produces the same strategy (asserted to 1e-9 by the engine
//! parity suites). The seed only matters for
//! [`PlanAlgorithm::RandomizedLocalGreedy`].

use crate::global_greedy::{EngineKind, GreedyOutcome};
use revmax_core::{env, AggregateMode, Instance, ResidualDelta};

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

/// How the flat engine's saturation-aggregate fast path is selected.
///
/// When every item of a class shares one saturation factor `β` (detected at
/// `Instance` build time, see `revmax_core::BetaProfile`), the flat engine
/// answers marginals from per-(group, time) closed-form accumulators in
/// `O(T)` instead of walking the group's selected triples. Mixed-β classes
/// always fall back to the exact slab walk, so both modes are safe on every
/// instance; like all planner knobs this changes speed, never results
/// (parity asserted to 1e-9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Aggregates {
    /// Let the engine's kernel compiler decide per (user, class) group using
    /// a measured depth crossover: groups with a short residual horizon or
    /// trivially few candidates compile to the plain slab walk (on shallow
    /// warm-residual groups the aggregate block costs more to maintain than
    /// it saves), deeper groups compile to the aggregate kernel. The default.
    #[default]
    Auto,
    /// Never engage the fast path; every group uses the slab walk — the
    /// reference the kernel parity suites plan against and the ablation the
    /// aggregate-vs-walk bench rows measure.
    Off,
}

impl Aggregates {
    /// The engine-side kernel-selection mode this knob maps to.
    pub fn mode(&self) -> AggregateMode {
        match self {
            Aggregates::Auto => AggregateMode::Auto,
            Aggregates::Off => AggregateMode::Off,
        }
    }
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
    /// Incremental revenue engine backing the run.
    pub engine: EngineKind,
    /// Number of user shards (`0`/`1` = the sequential driver, `n ≥ 2` = the
    /// shard-partitioned core of [`crate::sharded`]).
    pub shards: u32,
    /// Seed for the randomized algorithms (RL-Greedy permutation sampling).
    pub seed: u64,
    /// Use the lazy-forward optimisation (on by default); turning it off is
    /// the eager re-evaluation ablation.
    pub lazy_forward: bool,
    /// Record the objective value after every selection (Figure 4 traces).
    pub track_trace: bool,
    /// Thread parallelism for the deterministic fill/scan phases: `None`
    /// (default) lets each driver auto-decide by instance size, `Some(x)`
    /// forces it on or off. Parallel and sequential fills are bit-identical.
    pub parallel: Option<bool>,
    /// Warm-start residual replans (off by default): when a replan comes
    /// with a [`ResidualDelta`] (see [`plan_residual`]), engines recycle the
    /// previous replan's saturation tables and arena buffers instead of
    /// rebuilding them, and `revmax_serve::PlanSession` builds each residual
    /// instance incrementally (`revmax_core::residual_advance`). Like every
    /// other knob this is purely a performance switch — warm and cold
    /// replans produce identical plans (asserted to 1e-9 for both engines at
    /// shard counts 1 and 2).
    pub warm_start: bool,
    /// Saturation-aggregate fast path selection (default
    /// [`Aggregates::Auto`]): uniform-β classes answer marginals from `O(T)`
    /// closed-form accumulators, mixed-β classes keep the exact slab walk.
    pub aggregates: Aggregates,
    /// Selects the kernel-compiled drivers and, where they still run on
    /// lazy heaps, the width of their batched refresh bursts (default 8).
    /// `0` runs the legacy pop/refresh/push loop everywhere — the
    /// "generic" baseline the kernel-vs-generic bench rows measure. Any
    /// value `≥ 1` switches the sequential G-Greedy core onto the
    /// tournament-tree driver (selection over candidate roots with O(1)
    /// pops and swap-free path fixes; the value itself is ignored there —
    /// stale runs refresh implicitly through the tree) on instances of
    /// ~4k candidates or more — below that size gate the tree build and
    /// eager blocking don't amortise and the scalar loop is kept — while
    /// the sharded
    /// and SLG heap drivers collect up to `kernel_batch` stale tops per
    /// pop and refresh the run in one pass grouped by compiled kernel id
    /// (`RevenueEngine::kernel_id_cand`). Purely a performance knob: all
    /// widths produce bit-identical plans (a refreshed marginal depends
    /// only on the candidate's own group, so refreshing it earlier or
    /// later in a burst cannot change its value).
    pub kernel_batch: u32,
    /// Worker threads for the **concurrent shard executor** of the sharded
    /// G-Greedy core (default `1` = the sequential value-ordered
    /// arbitration, unchanged from previous releases). With `≥ 2`, shards
    /// free-run on a persistent scoped worker pool, committing
    /// scarcity-window-abundant claims lock-free and parking only
    /// scarce-window moves for the coordinator (see `docs/concurrency.md`,
    /// "The capacity window"). `0` = auto: `min(shards,
    /// available_parallelism)`. Like every knob this is purely a
    /// performance switch — every thread count reproduces the sequential
    /// plan (parity asserted to 1e-9). Ignored (forced sequential) when
    /// `shards <= 1` or when `track_trace` is set, since the trace records
    /// the global selection order the concurrent executor does not
    /// materialise move-by-move.
    pub shard_threads: u32,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            algorithm: PlanAlgorithm::default(),
            engine: EngineKind::default(),
            shards: 1,
            seed: 0,
            lazy_forward: true,
            track_trace: false,
            parallel: None,
            warm_start: false,
            aggregates: Aggregates::default(),
            kernel_batch: 8,
            shard_threads: 1,
        }
    }
}

impl PlannerConfig {
    /// The default configuration (G-Greedy, flat engine, 1 shard).
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the algorithm.
    pub fn with_algorithm(mut self, algorithm: PlanAlgorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Selects the incremental revenue engine.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
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

    /// Switches the lazy-forward optimisation.
    pub fn with_lazy_forward(mut self, lazy_forward: bool) -> Self {
        self.lazy_forward = lazy_forward;
        self
    }

    /// Switches per-selection objective tracing.
    pub fn with_track_trace(mut self, track_trace: bool) -> Self {
        self.track_trace = track_trace;
        self
    }

    /// Forces the deterministic fill/scan parallelism on or off
    /// (`None` = auto by instance size).
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

    /// Selects the saturation-aggregate fast-path mode (see
    /// [`PlannerConfig::aggregates`]).
    pub fn with_aggregates(mut self, aggregates: Aggregates) -> Self {
        self.aggregates = aggregates;
        self
    }

    /// Selects the batched heap-refresh width (see
    /// [`PlannerConfig::kernel_batch`]; `0` selects the legacy scalar loop).
    pub fn with_kernel_batch(mut self, kernel_batch: u32) -> Self {
        self.kernel_batch = kernel_batch;
        self
    }

    /// Selects the concurrent shard executor's worker-thread count (see
    /// [`PlannerConfig::shard_threads`]; `1` = sequential arbitration,
    /// `0` = auto).
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
    /// * `REVMAX_ENGINE` — `flat` (default) or `hash`;
    /// * `REVMAX_SHARDS` — shard count (`≥ 2` engages the sharded core);
    /// * `REVMAX_SEED` — seed for the randomized algorithms;
    /// * `REVMAX_WARM_START` — `1` enables warm-started residual replans;
    /// * `REVMAX_KERNEL_BATCH` — batched heap-refresh width (default 8,
    ///   `0` = the legacy scalar refresh loop);
    /// * `REVMAX_SHARD_THREADS` — worker threads for the concurrent shard
    ///   executor (default 1 = sequential arbitration, `0` = auto).
    ///
    /// Unset or unparsable values keep the receiver's setting — selection
    /// must never change results (only speed), so a typo degrades
    /// gracefully. Parsing goes through the shared [`revmax_core::env`]
    /// module.
    pub fn env_overlay(mut self) -> Self {
        if let Some(algorithm) = env::var_with("REVMAX_ALGORITHM", parse_algorithm) {
            self.algorithm = algorithm;
        }
        if let Some(engine) = env::var_with("REVMAX_ENGINE", parse_engine) {
            self.engine = engine;
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
        if let Some(kernel_batch) = env::var::<u32>("REVMAX_KERNEL_BATCH") {
            self.kernel_batch = kernel_batch;
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

    /// Greedy init-fill parallelism (the historical default was on; the
    /// fill itself is additionally gated by instance size).
    pub(crate) fn parallel_init(&self) -> bool {
        self.parallel.unwrap_or(true)
    }

    /// Resolves [`PlannerConfig::shard_threads`] to the worker count the
    /// sharded G-Greedy core actually uses: `0` auto-sizes to
    /// `min(shards, available_parallelism)`, explicit values are capped at
    /// the shard count, and single-shard or traced runs always resolve to
    /// `1` (the sequential arbitration loop).
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

fn parse_engine(s: &str) -> Option<EngineKind> {
    match s {
        "flat" => Some(EngineKind::Flat),
        "hash" => Some(EngineKind::Hash),
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
    match config.algorithm {
        PlanAlgorithm::GlobalGreedy | PlanAlgorithm::GlobalNoSaturation => {
            crate::global_greedy::dispatch(inst, config, delta)
        }
        PlanAlgorithm::SequentialLocalGreedy => {
            let order: Vec<u32> = (1..=inst.horizon()).collect();
            crate::local_greedy::dispatch_order(inst, &order, config, delta)
        }
        PlanAlgorithm::RandomizedLocalGreedy { permutations } => {
            crate::local_greedy::randomized_with(inst, config, permutations as usize, delta)
        }
    }
}

/// Runs the per-time-step greedy under an explicit ordering of time steps
/// (a permutation of `1..=T`, or a subset — only those steps receive
/// recommendations). The configured algorithm field is ignored; engine,
/// shards, and parallelism apply.
pub fn plan_order(inst: &Instance, order: &[u32], config: &PlannerConfig) -> GreedyOutcome {
    crate::local_greedy::dispatch_order(inst, order, config, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_methods_compose() {
        let cfg = PlannerConfig::new()
            .with_algorithm(PlanAlgorithm::SequentialLocalGreedy)
            .with_engine(EngineKind::Hash)
            .with_shards(0)
            .with_seed(7)
            .with_lazy_forward(false)
            .with_track_trace(true)
            .with_parallel(Some(false))
            .with_aggregates(Aggregates::Off)
            .with_kernel_batch(0);
        assert_eq!(cfg.algorithm, PlanAlgorithm::SequentialLocalGreedy);
        assert_eq!(cfg.engine, EngineKind::Hash);
        assert_eq!(cfg.shards, 1, "0 shards normalises to 1");
        assert_eq!(cfg.seed, 7);
        assert!(!cfg.lazy_forward);
        assert!(cfg.track_trace);
        assert_eq!(cfg.parallel, Some(false));
        assert_eq!(cfg.aggregates, Aggregates::Off);
        assert_eq!(PlannerConfig::default().aggregates, Aggregates::Auto);
        assert_eq!(cfg.kernel_batch, 0);
        assert_eq!(
            PlannerConfig::default().kernel_batch,
            8,
            "batched refresh is the default driver"
        );
    }

    #[test]
    fn aggregates_map_onto_the_engine_modes() {
        assert_eq!(Aggregates::Auto.mode(), AggregateMode::Auto);
        assert_eq!(Aggregates::Off.mode(), AggregateMode::Off);
        assert_eq!(Aggregates::default().mode(), AggregateMode::default());
    }

    #[test]
    fn kernel_batch_env_knob_overlays_and_degrades_gracefully() {
        // `env_overlay` reads through `revmax_core::env`, which trims and
        // rejects unparsable values, keeping the receiver's setting.
        let base = PlannerConfig::default().with_kernel_batch(3);
        std::env::set_var("REVMAX_KERNEL_BATCH", "16");
        assert_eq!(base.env_overlay().kernel_batch, 16);
        std::env::set_var("REVMAX_KERNEL_BATCH", " 0 ");
        assert_eq!(base.env_overlay().kernel_batch, 0, "0 = legacy scalar loop");
        std::env::set_var("REVMAX_KERNEL_BATCH", "not-a-number");
        assert_eq!(base.env_overlay().kernel_batch, 3, "typo keeps the setting");
        std::env::remove_var("REVMAX_KERNEL_BATCH");
        assert_eq!(base.env_overlay().kernel_batch, 3);
    }

    #[test]
    fn shard_threads_resolve_sequential_unless_concurrent_applies() {
        let cfg = PlannerConfig::default();
        assert_eq!(
            cfg.shard_threads, 1,
            "sequential arbitration is the default"
        );
        assert_eq!(cfg.effective_shard_threads(1), 1, "one shard never pools");
        assert_eq!(cfg.effective_shard_threads(4), 1);

        let cfg = cfg.with_shard_threads(4);
        assert_eq!(cfg.effective_shard_threads(4), 4);
        assert_eq!(cfg.effective_shard_threads(2), 2, "capped at shard count");
        assert_eq!(cfg.effective_shard_threads(1), 1);
        assert_eq!(
            cfg.with_track_trace(true).effective_shard_threads(4),
            1,
            "traces record the sequential selection order"
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
        assert_eq!(parse_engine("flat"), Some(EngineKind::Flat));
        assert_eq!(parse_engine("hash"), Some(EngineKind::Hash));
        assert_eq!(parse_engine("typo"), None);
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
