//! # revmax
//!
//! Facade crate for the REVMAX workspace — a from-scratch Rust reproduction of
//! *"Show Me the Money: Dynamic Recommendations for Revenue Maximization"*
//! (Lu, Chen, Li, Lakshmanan; PVLDB 7(14), 2014).
//!
//! The individual crates can be used directly; this facade re-exports them
//! under stable module names and provides a small [`prelude`] so examples and
//! downstream users can get going with a single `use revmax::prelude::*`.
//!
//! **Start here for orientation:** `ARCHITECTURE.md` in the repository root
//! maps the crates, the
//! `Instance → PlannerConfig → plan/plan_residual → PlanService/PlanSession`
//! data flow, and the engine / ledger / sharding extension points;
//! `docs/submodularity.md` explains why the exact marginal implemented here
//! is not submodular (~13% of random instances violate the Theorem-2
//! inequality) and how lazy-forward correctness is therefore validated
//! empirically.
//!
//! * [`core`] — the revenue model: instances, strategies, dynamic adoption
//!   probabilities, marginal revenue, constraints, adoption events and
//!   residual instances, R-REVMAX.
//! * [`algorithms`] — G-Greedy, SL/RL-Greedy, baselines, local search,
//!   Max-DCS, and the timed runner, all configured by one
//!   [`PlannerConfig`](crate::algorithms::PlannerConfig) and driven through
//!   [`plan`](crate::algorithms::plan).
//! * [`serve`] — the serving layer: the asynchronous
//!   [`PlanService`](crate::serve::PlanService) (submit → ticket →
//!   wait/wait_timeout/poll/cancel) and adoption-driven
//!   [`PlanSession`](crate::serve::PlanSession) replanning — inline, or
//!   attached to a shared service (ticketed replans, stale ones cancelled),
//!   with optional warm-started residual replans
//!   (`PlannerConfig::warm_start`).
//! * [`recsys`] — the matrix-factorization substrate.
//! * [`pricing`] — KDE, valuations, and the random-price Taylor extension.
//! * [`data`] — synthetic dataset generators shaped like the paper's crawls.
//!
//! ## Quickstart: one-shot planning
//!
//! ```
//! use revmax::prelude::*;
//!
//! // A seller with two users, two competing items, and a two-day horizon.
//! let mut b = InstanceBuilder::new(2, 2, 2);
//! b.display_limit(1)
//!     .item_class(0, 0)
//!     .item_class(1, 0)
//!     .beta(0, 0.5)
//!     .beta(1, 0.5)
//!     .prices(0, &[99.0, 79.0]) // item 0 goes on sale on day 2
//!     .prices(1, &[49.0, 49.0])
//!     .candidate(0, 0, &[0.3, 0.6], 4.5)
//!     .candidate(0, 1, &[0.7, 0.7], 3.9)
//!     .candidate(1, 0, &[0.5, 0.8], 4.8)
//!     .candidate(1, 1, &[0.4, 0.4], 3.2);
//! let instance = b.build().unwrap();
//!
//! let outcome = plan(&instance, &PlannerConfig::default());
//! assert!(outcome.revenue > 0.0);
//! assert!(outcome.strategy.validate(&instance).is_ok());
//! ```
//!
//! ## Dynamic sessions: react to adoptions
//!
//! ```
//! # use revmax::prelude::*;
//! # let mut b = InstanceBuilder::new(2, 2, 3);
//! # b.display_limit(1).item_class(0, 0).item_class(1, 0).beta(0, 0.5).beta(1, 0.5)
//! #     .prices(0, &[99.0, 79.0, 59.0]).prices(1, &[49.0, 49.0, 49.0])
//! #     .candidate(0, 0, &[0.3, 0.6, 0.5], 4.5).candidate(0, 1, &[0.7, 0.7, 0.6], 3.9)
//! #     .candidate(1, 0, &[0.5, 0.8, 0.7], 4.8).candidate(1, 1, &[0.4, 0.4, 0.3], 3.2);
//! # let instance = b.build().unwrap();
//! // warm_start recycles engine state between replans (identical plans).
//! let config = PlannerConfig::default().with_warm_start(true);
//! let mut session = PlanSession::new(instance, config);
//! let today = session.upcoming(); // what to display on day 1
//! // … the storefront reports what actually happened …
//! let events: Vec<AdoptionEvent> = today
//!     .iter()
//!     .map(|z| AdoptionEvent::rejected(z.user.0, z.item.0, z.t.value()))
//!     .collect();
//! let report = session.advance(&events).unwrap(); // replans days 2..=T
//! assert!(report.expected_remaining_revenue >= 0.0);
//!
//! // Or multiplex many sessions over one service: ticketed replans,
//! // stale in-flight replans cancelled by newer event batches.
//! # use std::sync::Arc;
//! let service = Arc::new(PlanService::new(2));
//! session.attach(&service);
//! let report = session.advance(&[]).unwrap();
//! assert!(report.pending);
//! session.sync().expect("collects the replanned suffix");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use revmax_algorithms as algorithms;
pub use revmax_core as core;
pub use revmax_data as data;
pub use revmax_pricing as pricing;
pub use revmax_recsys as recsys;
pub use revmax_serve as serve;

/// The most commonly used items across the workspace, re-exported flat.
pub mod prelude {
    pub use revmax_algorithms::{
        global_greedy, global_no_saturation, plan, plan_order, plan_residual,
        randomized_local_greedy, run, sequential_local_greedy, solve_t1_exact, top_rating,
        top_revenue, Algorithm, GreedyOutcome, PlanAlgorithm, PlannerConfig, RunReport,
    };
    pub use revmax_core::{
        realized_revenue, residual_advance, residual_instance, revenue, shift_strategy,
        validate_events, AdoptionEvent, AdoptionOutcome, EngineSnapshot, EventError,
        IncrementalRevenue, Instance, InstanceBuilder, ItemId, ResidualDelta, Strategy, TimeStep,
        Triple, UserId,
    };
    pub use revmax_data::{
        generate, generate_scalability, BetaSetting, CapacityDistribution, DatasetConfig,
        GeneratedDataset, Table1Stats,
    };
    pub use revmax_pricing::{adoption_probability, GaussianKde, GaussianValuation, Valuation};
    pub use revmax_recsys::{MatrixFactorization, MfConfig, RatingSet};
    pub use revmax_serve::{
        plan_batch, PlanService, PlanSession, PlanTicket, ReplanReport, TicketStatus, WaitOutcome,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work_together() {
        let config = DatasetConfig::tiny();
        let ds = generate(&config);
        let out = plan(&ds.instance, &PlannerConfig::default());
        assert!(out.revenue >= 0.0);
        assert!(out.strategy.validate(&ds.instance).is_ok());
        // The convenience entry and the unified entry agree.
        let direct = global_greedy(&ds.instance);
        assert_eq!(out.revenue.to_bits(), direct.revenue.to_bits());
    }

    #[test]
    fn facade_session_and_service_roundtrip() {
        let config = DatasetConfig::tiny();
        let ds = generate(&config);

        let service = PlanService::new(1);
        let ticket = service.submit(ds.instance.clone(), PlannerConfig::default());
        let report = ticket.wait().expect("not cancelled");

        let mut session = PlanSession::new(ds.instance.clone(), PlannerConfig::default());
        assert_eq!(
            session.planned_suffix().len(),
            report.outcome.strategy.len()
        );
        if !session.is_exhausted() {
            let events: Vec<AdoptionEvent> = session
                .upcoming()
                .iter()
                .map(|z| AdoptionEvent::adopted(z.user.0, z.item.0, z.t.value()))
                .collect();
            session.advance(&events).expect("advance");
            assert!(session.expected_total_revenue() >= session.realized_revenue());
        }
    }
}
