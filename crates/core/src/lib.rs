//! # revmax-core
//!
//! Core model of **REVMAX** — the revenue-maximizing dynamic recommendation
//! framework of *"Show Me the Money: Dynamic Recommendations for Revenue
//! Maximization"* (Lu, Chen, Li, Lakshmanan; PVLDB 7(14), 2014).
//!
//! This crate contains everything the optimization problem is defined over:
//!
//! * [`Instance`] — users, items, item classes, the time horizon, exogenous
//!   prices `p(i, t)`, capacities `q_i`, saturation factors `β_i`, and the
//!   sparse primitive adoption probabilities `q(u, i, t)`;
//! * [`Strategy`] — a set of (user, item, time) [`Triple`]s together with
//!   validation of the display and capacity constraints;
//! * [`mod@revenue`] — the dynamic revenue model: memory, saturation and
//!   competition effects (Definition 1), the expected revenue `Rev(S)`
//!   (Definition 2), marginal revenue (Definition 3), and the incremental
//!   evaluator ([`IncrementalRevenue`]) that the greedy algorithms in
//!   `revmax-algorithms` are built on;
//! * [`effective`] — the relaxed objective of R-REVMAX with the capacity
//!   constraint pushed into the *effective* dynamic adoption probability
//!   (Definition 4), plus an exact Poisson-binomial capacity oracle;
//! * [`reductions`] — the executable form of the NP-hardness reduction from
//!   Restricted Timetable Design (Theorem 1), used in tests;
//! * [`events`] — realized [`AdoptionEvent`]s and the residual-instance
//!   construction ([`residual_instance`]) that conditions an instance on a
//!   realized prefix, the model layer behind dynamic replanning
//!   (`revmax_serve::PlanSession`);
//! * [`mod@env`] — the shared `REVMAX_*` environment-knob parsing used by every
//!   `from_env` constructor and bench emitter in the workspace;
//! * [`mod@json`] / [`wire`] — the dependency-free JSON reader/writer
//!   (extracted from the original [`Strategy`] codec) and the wire codecs
//!   for [`Instance`], [`Strategy`], and [`AdoptionEvent`] behind the
//!   `revmax-http` protocol surface.
//!
//! The optimization algorithms themselves (Global/Sequential/Randomized
//! greedy, the baselines, the local-search approximation, the Max-DCS special
//! case) live in the `revmax-algorithms` crate; data generation and the
//! substrate recommender/pricing models live in `revmax-data`,
//! `revmax-recsys`, and `revmax-pricing`.
//!
//! ## Quick example
//!
//! ```
//! use revmax_core::{InstanceBuilder, IncrementalRevenue, Triple};
//!
//! // One user, one item, two days; the price drops on day 2.
//! let mut b = InstanceBuilder::new(1, 1, 2);
//! b.display_limit(1)
//!     .beta(0, 0.1)
//!     .prices(0, &[1.0, 0.95])
//!     .candidate(0, 0, &[0.5, 0.6], 0.0);
//! let inst = b.build().unwrap();
//!
//! let mut eval = IncrementalRevenue::new(&inst);
//! let day2 = Triple::new(0, 0, 2);
//! assert!(eval.marginal_revenue(day2) > 0.0);
//! eval.insert(day2);
//! // Recommending again on day 1 would now *lose* revenue (saturation +
//! // competition with the day-2 recommendation) — the objective is
//! // non-monotone.
//! assert!(eval.marginal_revenue(Triple::new(0, 0, 1)) < 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod effective;
pub mod env;
pub mod error;
pub mod events;
pub mod ids;
pub mod instance;
pub mod json;
pub mod reductions;
pub mod revenue;
pub mod strategy;
pub mod wire;

pub use effective::{
    effective_probabilities, effective_revenue, CapacityOracle, ExactPoissonBinomial,
};
pub use error::{BuildError, ConstraintViolation, StrategyParseError};
pub use events::{
    realized_revenue, residual_advance, residual_instance, residual_of_validated, shift_strategy,
    validate_events, AdoptionEvent, AdoptionOutcome, EventError,
};
pub use ids::{CandidateId, ClassId, ItemId, TimeStep, Triple, UserId};
pub use instance::{Instance, InstanceBuilder, UserShard};
pub use json::{JsonError, JsonValue};
pub use revenue::{
    dynamic_probabilities, dynamic_probability_of, marginal_revenue, revenue, AtomicCell,
    CapacityLedger, EngineSnapshot, IncrementalRevenue, LedgerCell, ResidualDelta, RevenueEngine,
    SharedCapacityLedger, SharedCapacityLedgerIn,
};
pub use strategy::Strategy;
pub use wire::WireError;
