//! # revmax-oracle
//!
//! Test-only references for the REVMAX parity suites. The planner keeps one
//! engine (the flat-arena [`revmax_core::IncrementalRevenue`]) and one
//! selection rule (lazy forward); the engines it is checked against are
//! engine *types* that tests plug into the generic drivers
//! (`revmax_algorithms::plan_with::<E>`):
//!
//! * [`HashIncrementalRevenue`] — the original hash-based evaluator, an
//!   independent implementation of the revenue model;
//! * [`Eager`] — any engine with every lazy-forward flag stale, i.e. the
//!   eager re-evaluation ablation of §5.1.
//!
//! The residual instances it plans are checked against
//! [`residual_by_builder`], the from-scratch, builder-based construction
//! that every chain of `revmax_core::residual_advance` calls must match bit
//! for bit; its [`ResidualMode::Conservative`] is the capacity accounting
//! the exemption suites compare against.
//!
//! Every reference must reproduce the product's results (the parity suites
//! assert it), so none of them is a planner choice. No product crate
//! depends on this one; `cargo xtask lint` confines the `revmax_oracle`
//! path to test code.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod hash;
mod residual;

pub use hash::HashIncrementalRevenue;
pub use residual::{residual_by_builder, ResidualMode};

use revmax_core::{CandidateId, Instance, ResidualDelta, RevenueEngine, TimeStep, UserShard};

/// Eager re-evaluation over any engine: every group reports the engine's
/// total selection count as its size.
///
/// The drivers stamp a cached marginal with `|set(u, C(i))|` and re-evaluate
/// a surfacing candidate only when its group grew since (lazy forward).
/// Under `Eager` the stamp is the selection count instead, so a candidate is
/// re-evaluated whenever anything at all was inserted since its last
/// evaluation. Plans must not change; `marginal_evaluations` rises.
pub struct Eager<E>(E);

impl<'a, E: RevenueEngine<'a>> RevenueEngine<'a> for Eager<E> {
    fn with_options(inst: &'a Instance, ignore_saturation: bool) -> Self {
        Eager(E::with_options(inst, ignore_saturation))
    }

    fn for_shard(inst: &'a Instance, ignore_saturation: bool, shard: UserShard) -> Self {
        Eager(E::for_shard(inst, ignore_saturation, shard))
    }

    fn warm_start(
        inst: &'a Instance,
        ignore_saturation: bool,
        shard: UserShard,
        residual: &ResidualDelta,
    ) -> Self {
        Eager(E::warm_start(inst, ignore_saturation, shard, residual))
    }

    fn group_size_cand(&self, _cand: CandidateId) -> usize {
        self.0.len()
    }

    fn instance(&self) -> &'a Instance {
        self.0.instance()
    }

    fn revenue(&self) -> f64 {
        self.0.revenue()
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn would_violate_cand(&self, cand: CandidateId, t: TimeStep) -> bool {
        self.0.would_violate_cand(cand, t)
    }

    fn would_violate_display_cand(&self, cand: CandidateId, t: TimeStep) -> bool {
        self.0.would_violate_display_cand(cand, t)
    }

    fn marginal_revenue_cand(&self, cand: CandidateId, t: TimeStep) -> f64 {
        self.0.marginal_revenue_cand(cand, t)
    }

    fn marginal_revenue_batch(&self, cand: CandidateId, live_mask: u64, out: &mut [f64]) -> u32 {
        self.0.marginal_revenue_batch(cand, live_mask, out)
    }

    fn insert_cand(&mut self, cand: CandidateId, t: TimeStep) -> f64 {
        self.0.insert_cand(cand, t)
    }

    fn release(self) {
        self.0.release()
    }
}
