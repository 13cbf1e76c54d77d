//! # revmax-serve
//!
//! The serving layer over the REVMAX planners: an **asynchronous plan
//! service** and **adoption-driven replan sessions**, both configured by the
//! single [`PlannerConfig`] from `revmax-algorithms`.
//!
//! * [`PlanService`] — a persistent pool of planning workers.
//!   [`PlanService::submit`] enqueues one instance and returns a
//!   [`PlanTicket`] immediately; the ticket supports [`PlanTicket::wait`],
//!   [`PlanTicket::wait_timeout`] (bounded, non-consuming),
//!   [`PlanTicket::try_poll`], and [`PlanTicket::cancel`]. The front-end is
//!   runtime-free (channel + condvar over the worker pool — no async
//!   runtime), and the synchronous [`PlanService::plan_batch`] /
//!   [`plan_batch`] APIs are submit-all-then-wait over the same machinery.
//! * [`PlanSession`] — owns the planning state for one instance across its
//!   horizon: report realized [`revmax_core::AdoptionEvent`]s
//!   ([`PlanSession::advance`]), and the session fixes the prefix, builds
//!   the residual instance (`revmax_core::residual_instance` — with exact,
//!   exempt-aware capacity: re-displays to prefix users are never
//!   double-charged), and replans only the remaining horizon. The
//!   replanned suffix equals a from-scratch plan of the residual instance
//!   to 1e-9 for every shard configuration — warm-started or not, inline
//!   or attached.
//! * [`Registry`] — id-addressed plans and sessions over one shared
//!   service, with backpressure bounds, LRU/TTL eviction, occupancy stats,
//!   and a drainable shutdown path ([`RegistryConfig`]); this is the state
//!   the `revmax-http` front end serves from.
//!
//! # Sessions over the service
//!
//! [`PlanSession::attach`] routes a session's replans through a shared
//! service: `advance` validates and applies the events, submits the replan
//! as a ticketed job, and returns immediately with
//! [`ReplanReport::pending`] set; [`PlanSession::sync`] (blocking) or
//! [`PlanSession::try_sync`] (non-blocking) collect it. Many concurrent
//! sessions multiplex one worker pool this way, and a newer event batch
//! **cancels** the stale in-flight replan ([`PlanTicket::cancel`]) before
//! submitting its own — late results are never applied.
//!
//! # Incremental residuals and warm-started replans
//!
//! Every session advance builds the residual instance incrementally from
//! the previous one (`revmax_core::residual_advance`: untouched candidate
//! rows are a pure shift, only the (user, class) groups with new events are
//! rebuilt, and the instance is assembled without re-validation) and
//! validates only the new batch. `PlannerConfig::warm_start` only lets the
//! engines recycle the previous replan's saturation tables and arena
//! buffers (`revmax_core::EngineSnapshot`); warm and cold replans produce
//! identical plans.
//!
//! ```
//! use revmax_serve::{PlanService, PlanSession};
//! use revmax_algorithms::PlannerConfig;
//! use revmax_core::InstanceBuilder;
//! use std::sync::Arc;
//!
//! let mut b = InstanceBuilder::new(2, 1, 2);
//! b.display_limit(1)
//!     .constant_price(0, 10.0)
//!     .candidate(0, 0, &[0.4, 0.5], 0.0)
//!     .candidate(1, 0, &[0.3, 0.2], 0.0);
//! let inst = b.build().unwrap();
//!
//! let service = Arc::new(PlanService::new(2));
//! let ticket = service.submit(inst.clone(), PlannerConfig::default()); // returns immediately
//! let report = ticket.wait().expect("not cancelled");
//! assert!(!report.outcome.strategy.is_empty());
//!
//! // Batch = submit-all-then-wait:
//! let plans = service.plan_batch(vec![inst.clone(), inst.clone()], PlannerConfig::default());
//! assert_eq!(plans.len(), 2);
//!
//! // Session over the service, with warm-started replans:
//! let mut session = PlanSession::new(inst, PlannerConfig::default().with_warm_start(true));
//! session.attach(&service);
//! let report = session.advance(&[]).unwrap(); // ticketed replan, returns immediately
//! assert!(report.pending);
//! let report = session.sync().expect("collects the replanned suffix");
//! assert!(!report.pending);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod registry;
mod service;
mod session;

pub use registry::{PlanView, Registry, RegistryConfig, RegistryError, RegistryStats, SessionView};
pub use revmax_algorithms::{PlanAlgorithm, PlannerConfig};
pub use service::{plan_batch, PlanReport, PlanService, PlanTicket, TicketStatus, WaitOutcome};
pub use session::{PlanSession, ReplanReport, SessionError};
