//! # revmax-oracle
//!
//! Test-only reference engines for the REVMAX parity suites. The planner
//! keeps one engine (the flat-arena [`revmax_core::IncrementalRevenue`] with
//! its compiled kernels) and one selection rule (lazy forward); the
//! references it is checked against are engine *types* that tests plug into
//! the generic drivers (`revmax_algorithms::plan_with::<E>`):
//!
//! * [`HashIncrementalRevenue`] — the original hash-based evaluator, an
//!   independent implementation of the revenue model;
//! * [`Eager`] — any engine with every lazy-forward flag stale, i.e. the
//!   eager re-evaluation ablation of §5.1;
//! * [`Walk`] — the flat engine with its saturation-aggregate kernels off,
//!   every group on the exact slab walk.
//!
//! Every reference must reproduce the product's plans (the parity suites
//! assert it), so none of them is a planner choice. No product crate
//! depends on this one; `cargo xtask lint` confines the `revmax_oracle`
//! path to test code and the bench emitters.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod hash;

pub use hash::HashIncrementalRevenue;

use revmax_core::{
    AggregateMode, CandidateId, IncrementalRevenue, Instance, ResidualDelta, RevenueEngine,
    Strategy, TimeStep, UserShard,
};

/// Forwards the [`RevenueEngine`] methods a wrapper leaves unchanged to its
/// inner engine (`self.0`).
macro_rules! forward_engine {
    () => {
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

        fn marginal_revenue_batch(
            &self,
            cand: CandidateId,
            live_mask: u64,
            out: &mut [f64],
        ) -> u32 {
            self.0.marginal_revenue_batch(cand, live_mask, out)
        }

        fn insert_cand(&mut self, cand: CandidateId, t: TimeStep) -> f64 {
            self.0.insert_cand(cand, t)
        }

        fn into_strategy(self) -> Strategy {
            self.0.into_strategy()
        }
    };
}

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

    forward_engine!();
}

/// The flat engine with [`AggregateMode::Off`] set right after construction:
/// every (user, class) group compiles to its exact slab-walk kernel, the
/// reference the compiled aggregate kernels are checked against.
pub struct Walk<'a>(IncrementalRevenue<'a>);

impl<'a> Walk<'a> {
    fn off(mut inner: IncrementalRevenue<'a>) -> Self {
        inner.set_aggregate_mode(AggregateMode::Off);
        Walk(inner)
    }
}

impl<'a> RevenueEngine<'a> for Walk<'a> {
    fn with_options(inst: &'a Instance, ignore_saturation: bool) -> Self {
        Walk::off(RevenueEngine::with_options(inst, ignore_saturation))
    }

    fn for_shard(inst: &'a Instance, ignore_saturation: bool, shard: UserShard) -> Self {
        Walk::off(RevenueEngine::for_shard(inst, ignore_saturation, shard))
    }

    fn warm_start(
        inst: &'a Instance,
        ignore_saturation: bool,
        shard: UserShard,
        residual: &ResidualDelta,
    ) -> Self {
        Walk::off(RevenueEngine::warm_start(
            inst,
            ignore_saturation,
            shard,
            residual,
        ))
    }

    fn group_size_cand(&self, cand: CandidateId) -> usize {
        self.0.group_size_cand(cand)
    }

    forward_engine!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use revmax_core::InstanceBuilder;

    /// `Eager` is checked where it matters, by the algorithms crate's
    /// lazy-vs-eager evaluation count; `Walk` must really walk, which no
    /// plan comparison can tell.
    #[test]
    fn walk_turns_the_aggregate_kernels_off() {
        // One uniform-β class over a horizon of 4: deep enough for the flat
        // engine's `Auto` gate to compile aggregate kernels.
        let mut b = InstanceBuilder::new(1, 2, 4);
        b.item_class(0, 0)
            .item_class(1, 0)
            .beta(0, 0.5)
            .beta(1, 0.5);
        b.constant_price(0, 10.0).constant_price(1, 6.0);
        b.candidate(0, 0, &[0.4; 4], 0.0)
            .candidate(0, 1, &[0.3; 4], 0.0);
        let inst = b.build().unwrap();
        assert!(IncrementalRevenue::with_options(&inst, false).aggregates_active());
        assert!(!Walk::with_options(&inst, false).0.aggregates_active());
        let shard = Walk::for_shard(&inst, false, inst.full_shard());
        assert!(!shard.0.aggregates_active());
    }
}
