//! The engine abstraction the greedy algorithms are generic over.
//!
//! The planner runs one implementation, the flat-arena
//! [`super::IncrementalRevenue`] (zero hashing on the hot path). The
//! test-only `revmax-oracle` crate holds the others — the original
//! hash-based engine and a wrapper for eager re-evaluation — which the
//! parity suites plug into the same generic drivers.

use super::warm::ResidualDelta;
use crate::ids::{CandidateId, TimeStep};
use crate::instance::{Instance, UserShard};

/// Incremental evaluation of the REVMAX objective and constraints, addressed
/// by candidate id — the representation the greedy hot loops already hold.
///
/// Implementations must agree with the from-scratch [`super::revenue`] /
/// [`super::marginal_revenue`] functions to within floating-point noise; the
/// randomized property tests in `crates/core/tests/properties.rs` enforce
/// agreement to `1e-9`.
pub trait RevenueEngine<'a>: Sized + Sync + Send {
    /// Creates an empty evaluator; `ignore_saturation` selects the `GlobalNo`
    /// ablation behaviour (all saturation factors treated as 1 during
    /// selection).
    fn with_options(inst: &'a Instance, ignore_saturation: bool) -> Self;

    /// Creates an evaluator for a disjoint user shard of the instance.
    ///
    /// The shard view must behave exactly like a full evaluator restricted to
    /// the shard's users: identical marginals, identical display tracking,
    /// and capacity counts over the shard's own claims only. The *global*
    /// capacity constraint couples shards and is arbitrated outside the
    /// engine, through a [`super::ledger::SharedCapacityLedger`]; shard
    /// drivers therefore must not rely on
    /// [`RevenueEngine::would_violate_cand`] for capacity.
    ///
    /// The default implementation returns a full evaluator (semantically a
    /// valid — if memory-oversized — shard view, since sparse engines only
    /// ever touch state belonging to the candidates they are fed). The
    /// flat-arena engine overrides it with storage localised to the shard.
    fn for_shard(inst: &'a Instance, ignore_saturation: bool, shard: UserShard) -> Self {
        let _ = shard;
        Self::with_options(inst, ignore_saturation)
    }

    /// Creates an evaluator for a **residual replan**, warm-started from the
    /// state the previous replan of the same session left behind.
    ///
    /// `residual` describes the advance that produced `inst` (the frontier
    /// shift, the prefix-adjacent users whose groups were rebuilt) and
    /// carries the session's [`super::warm::EngineSnapshot`] pool. The
    /// constructor shape — rather than a `&mut self` method — is forced by
    /// the engine's borrowed-instance lifetime: the previous engine is bound
    /// to the *previous* residual instance, so reusable state crosses
    /// replans as owned data in the snapshot, not as a rebound engine.
    ///
    /// Warm starting is strictly a performance surface: implementations must
    /// produce an engine indistinguishable from
    /// [`RevenueEngine::for_shard`] (the warm-start parity suites assert
    /// identical plans to 1e-9 for both engines at shard counts 1 and 2).
    /// The default implementation ignores the delta and constructs cold —
    /// correct for engines with nothing worth recycling (the hash engine);
    /// the flat-arena engine overrides it to reuse its saturation tables and
    /// arena buffers.
    fn warm_start(
        inst: &'a Instance,
        ignore_saturation: bool,
        shard: UserShard,
        residual: &ResidualDelta,
    ) -> Self {
        let _ = residual;
        Self::for_shard(inst, ignore_saturation, shard)
    }

    /// The instance this evaluator is bound to.
    fn instance(&self) -> &'a Instance;

    /// Expected revenue of the strategy built so far (under the evaluator's
    /// saturation setting).
    fn revenue(&self) -> f64;

    /// Number of triples selected so far.
    fn len(&self) -> usize;

    /// Whether no triple has been selected yet.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of the (user, class) group the candidate belongs to — the quantity
    /// the lazy-forward flags are compared against (`|set(u, C(i))|`).
    fn group_size_cand(&self, cand: CandidateId) -> usize;

    /// Whether selecting `(cand, t)` would violate the display or capacity
    /// constraint.
    fn would_violate_cand(&self, cand: CandidateId, t: TimeStep) -> bool;

    /// Whether selecting `(cand, t)` would violate only the display constraint.
    fn would_violate_display_cand(&self, cand: CandidateId, t: TimeStep) -> bool;

    /// Marginal revenue `Rev(S ∪ {z}) − Rev(S)` of the candidate triple
    /// `(cand, t)`; 0 if it is already selected.
    fn marginal_revenue_cand(&self, cand: CandidateId, t: TimeStep) -> f64;

    /// Recomputes the marginal revenue of every live time slot of a candidate
    /// in one call: bit `i` of `live_mask` selects time index `i`, and the
    /// result is written to `out[i]`. Returns the number of slots evaluated.
    ///
    /// The default implementation evaluates slot by slot; engines may override
    /// it with a fused walk (the flat-arena engine walks its group slab once
    /// for all slots). Only meaningful for horizons of at most 64 steps;
    /// callers must fall back to [`RevenueEngine::marginal_revenue_cand`]
    /// beyond that.
    fn marginal_revenue_batch(&self, cand: CandidateId, live_mask: u64, out: &mut [f64]) -> u32 {
        let mut evaluated = 0;
        for (t_idx, slot) in out.iter_mut().enumerate().take(64) {
            if live_mask & (1 << t_idx) != 0 {
                *slot = self.marginal_revenue_cand(cand, TimeStep::from_index(t_idx));
                evaluated += 1;
            }
        }
        evaluated
    }

    /// Adds the candidate triple to the strategy and returns its realised
    /// marginal revenue. The caller is responsible for constraint checks.
    fn insert_cand(&mut self, cand: CandidateId, t: TimeStep) -> f64;

    /// Consumes the evaluator, returning whatever it can recycle: a
    /// warm-started engine hands its buffers back to the session's
    /// [`super::warm::EngineSnapshot`] pool. Engines keep no record of the
    /// plan they hold; every driver builds its outcome's strategy once,
    /// from the insertions it made. The default just drops the engine.
    fn release(self) {}
}
