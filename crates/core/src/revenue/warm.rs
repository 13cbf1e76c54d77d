//! Warm-start state shared between successive residual replans.
//!
//! A dynamic replan session (`revmax_serve::PlanSession`) plans a chain of
//! residual instances of one original instance: same items, same saturation
//! factors, a horizon that shrinks by one per advance, and candidate rows
//! that change only in the (user, class) groups new adoption events touch. A
//! from-scratch engine construction per replan rebuilds state that is
//! invariant along that chain — most expensively the saturation power tables
//! (`ln β` and `β^{1/d}`, one `powf` per item per time distance) — and
//! re-allocates every per-candidate buffer.
//!
//! This module is the owned, instance-independent handoff for that state:
//!
//! * `SatTables` (crate-private) — the flat engine's saturation tables, valid for **any**
//!   residual of the instance they were built from (the table stride stays
//!   at the build horizon, shorter horizons index a prefix of each row);
//! * [`EngineSnapshot`] — a shareable pool holding the tables plus recycled
//!   per-shard buffer sets; engines take buffers at construction and return
//!   them from [`super::flat::IncrementalRevenue::release`] (the engine's
//!   [`super::RevenueEngine::release`]), which the drivers call once the
//!   plan is recorded;
//! * [`ResidualDelta`] — what one session advance changed: the new frontier,
//!   the shift, the users with new events, and the snapshot.
//!   `residual_advance` (in [`crate::events`]) uses the frontier and the
//!   shift to tell the batch from the history and rebuilds only the
//!   (user, class) groups the batch touched, and
//!   [`super::RevenueEngine::warm_start`] uses the snapshot.
//!
//! Warm state is a **performance** handle, never a behaviour one: recycled
//! tables hold bit-identical values to freshly built ones (same `powf`
//! inputs), and recycled buffers are cleared before reuse, so a warm-started
//! plan is identical to a cold one — asserted to 1e-9 by the warm-start
//! parity suites for both engines at shard counts 1 and 2.

use crate::events::AdoptionEvent;
use crate::ids::{ItemId, UserId};
use crate::instance::Instance;
use std::sync::{Arc, Mutex};

/// Saturation power tables of the flat-arena engine, reusable across every
/// residual of the instance they were built from.
#[derive(Debug)]
pub(crate) struct SatTables {
    /// `ln β` per pow row; row 0 is the saturation-free row (`β = 1`),
    /// row `i + 1` belongs to item `i`.
    pub(crate) ln_beta: Vec<f64>,
    /// `β^{1/d}` for `d ∈ 1..=stride`, row-major by pow row.
    pub(crate) beta_root: Vec<f64>,
    /// Number of columns of `beta_root` (build horizon − 1). Residuals with
    /// smaller horizons index a prefix of each row.
    pub(crate) stride: usize,
    /// `1 / d` for `d ∈ 0..=build horizon` (index by time distance).
    pub(crate) inv_dist: Vec<f64>,
    /// The horizon the tables were built for; valid for any horizon ≤ this.
    horizon: usize,
    /// Bit-exact betas the tables were derived from (validity check).
    betas: Vec<u64>,
}

impl SatTables {
    /// Builds the tables for an instance (the cold-construction path).
    pub(crate) fn build(inst: &Instance) -> SatTables {
        let horizon = inst.horizon() as usize;
        let num_items = inst.num_items() as usize;
        let stride = horizon.saturating_sub(1);
        let mut ln_beta = Vec::with_capacity(num_items + 1);
        let mut beta_root = Vec::with_capacity((num_items + 1) * stride);
        let mut betas = Vec::with_capacity(num_items);
        ln_beta.push(0.0);
        beta_root.extend(std::iter::repeat_n(1.0, stride));
        for item in 0..num_items {
            let beta = inst.beta(ItemId(item as u32));
            betas.push(beta.to_bits());
            ln_beta.push(beta.ln());
            for d in 1..=stride {
                beta_root.push(beta.powf(1.0 / d as f64));
            }
        }
        let inv_dist: Vec<f64> = (0..=horizon)
            .map(|d| if d == 0 { 0.0 } else { 1.0 / d as f64 })
            .collect();
        SatTables {
            ln_beta,
            beta_root,
            stride,
            inv_dist,
            horizon,
            betas,
        }
    }

    /// Whether the tables are valid for `inst`: same items with bit-identical
    /// betas, and a horizon no longer than the build horizon.
    pub(crate) fn valid_for(&self, inst: &Instance) -> bool {
        self.betas.len() == inst.num_items() as usize
            && inst.horizon() as usize <= self.horizon
            && (0..inst.num_items() as usize)
                .all(|i| self.betas[i] == inst.beta(ItemId(i as u32)).to_bits())
    }
}

/// One recycled buffer set of the flat engine (cleared before reuse).
#[derive(Debug, Default)]
pub(crate) struct FlatBuffers {
    pub(crate) cand_group: Vec<u32>,
    pub(crate) group_start: Vec<u32>,
    pub(crate) group_len: Vec<u32>,
    pub(crate) group_cap: Vec<u32>,
    pub(crate) arena: Vec<super::flat::ArenaEntry>,
    pub(crate) selected: Vec<bool>,
    pub(crate) display_count: Vec<u16>,
    pub(crate) cand_counted: Vec<bool>,
    pub(crate) cand_exempt: Vec<bool>,
}

#[derive(Debug, Default)]
struct SnapshotInner {
    tables: Mutex<Option<Arc<SatTables>>>,
    /// Recycled buffer sets, keyed by the first user of the shard that
    /// returned them. Buffer capacities track shard size, so handing a
    /// set back to the shard that grew it keeps every replan allocation-
    /// free; an untagged LIFO pool would shuffle sets across shards and
    /// re-grow them each round.
    buffers: Mutex<Vec<(u32, FlatBuffers)>>,
}

/// Shareable warm-start pool for one replanning session: the flat engine's
/// saturation tables plus recycled per-shard buffer sets.
///
/// Cloning is an `Arc` bump — every clone is a handle to the same pool, so a
/// session can keep one handle while shipping another through an async plan
/// job. The pool starts empty ([`EngineSnapshot::default`]); the first
/// warm-started engine builds and publishes the tables, later ones reuse
/// them. All methods are internally synchronised (engines for different
/// shards may be constructed on scoped threads).
#[derive(Debug, Default, Clone)]
pub struct EngineSnapshot {
    inner: Arc<SnapshotInner>,
}

impl EngineSnapshot {
    /// An empty pool (identical to `EngineSnapshot::default()`).
    pub fn new() -> Self {
        Self::default()
    }

    /// The published tables if they are valid for `inst`.
    pub(crate) fn tables_for(&self, inst: &Instance) -> Option<Arc<SatTables>> {
        let guard = self.inner.tables.lock().expect("snapshot poisoned");
        guard.as_ref().filter(|t| t.valid_for(inst)).map(Arc::clone)
    }

    /// Publishes freshly built tables for later warm starts.
    pub(crate) fn publish_tables(&self, tables: &Arc<SatTables>) {
        let mut guard = self.inner.tables.lock().expect("snapshot poisoned");
        *guard = Some(Arc::clone(tables));
    }

    /// Takes one recycled buffer set for the shard starting at user `key`:
    /// the set this shard returned last replan when one is pooled (its
    /// capacities already fit), any other set when the shard layout
    /// changed, empty defaults when the pool is dry. Purely a reuse
    /// policy — every buffer is cleared before use either way.
    pub(crate) fn take_buffers_for(&self, key: u32) -> FlatBuffers {
        let mut guard = self.inner.buffers.lock().expect("snapshot poisoned");
        let idx = guard
            .iter()
            .position(|(k, _)| *k == key)
            .unwrap_or(guard.len().saturating_sub(1));
        if idx < guard.len() {
            guard.swap_remove(idx).1
        } else {
            FlatBuffers::default()
        }
    }

    /// Returns a buffer set to the pool for the next replan of the shard
    /// starting at user `key`.
    pub(crate) fn return_buffers(&self, key: u32, buffers: FlatBuffers) {
        let mut guard = self.inner.buffers.lock().expect("snapshot poisoned");
        guard.push((key, buffers));
    }

    /// Whether tables have been published yet (used by tests to verify
    /// that warm starts actually engage).
    pub fn has_tables(&self) -> bool {
        self.inner
            .tables
            .lock()
            .expect("snapshot poisoned")
            .is_some()
    }

    /// Number of recycled buffer sets currently pooled.
    pub fn pooled_buffers(&self) -> usize {
        self.inner.buffers.lock().expect("snapshot poisoned").len()
    }
}

/// What one session advance changed relative to the previous residual
/// instance — the handle a warm-started replan works from.
///
/// Carries the new frontier, the shift against the previous residual
/// timeline, the users with new events, and the session's
/// [`EngineSnapshot`]. Built by [`ResidualDelta::new`] from the advance's
/// event batch. Every session advance builds one to advance its residual
/// ([`crate::events::residual_advance`]); a planner sees it only when warm
/// starts are on.
#[derive(Debug, Clone)]
pub struct ResidualDelta {
    now: u32,
    step: u32,
    touched_users: Vec<UserId>,
    snapshot: EngineSnapshot,
}

impl ResidualDelta {
    /// Describes an advance from frontier `prev_now` to `now` applying
    /// `events` (the new batch only, not the cumulative history).
    ///
    /// # Panics
    /// Panics when `now <= prev_now`.
    pub fn new(
        prev_now: u32,
        now: u32,
        events: &[AdoptionEvent],
        snapshot: EngineSnapshot,
    ) -> Self {
        assert!(now > prev_now, "a residual delta must advance the frontier");
        let mut touched_users: Vec<UserId> = events.iter().map(|e| e.user).collect();
        touched_users.sort_unstable();
        touched_users.dedup();
        ResidualDelta {
            now,
            step: now - prev_now,
            touched_users,
            snapshot,
        }
    }

    /// A delta for a session's **initial** full-horizon plan: no frontier
    /// move, nothing touched. Exists so the first plan can already seed the
    /// snapshot pool (its tables are valid for every later residual, whose
    /// horizons only shrink). Never pass an initial delta to
    /// [`crate::events::residual_advance`] — there is no previous residual.
    pub fn initial(snapshot: EngineSnapshot) -> Self {
        ResidualDelta {
            now: 0,
            step: 0,
            touched_users: Vec::new(),
            snapshot,
        }
    }

    /// The new realization frontier.
    pub fn now(&self) -> u32 {
        self.now
    }

    /// How many time steps the frontier advanced (shift between the previous
    /// and the new residual timeline).
    pub fn step(&self) -> u32 {
        self.step
    }

    /// Users with events in the advance (sorted, deduplicated). Only their
    /// (user, class) groups with a batch event are rebuilt; their other
    /// groups shift like everyone else's.
    pub fn touched_users(&self) -> &[UserId] {
        &self.touched_users
    }

    /// The session's warm-start pool.
    pub fn snapshot(&self) -> &EngineSnapshot {
        &self.snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pool prefers the set its shard returned (matching capacities),
    /// falls back to any set when the layout changed, and hands out
    /// defaults when dry.
    #[test]
    fn buffer_pool_is_shard_keyed() {
        let pool = EngineSnapshot::new();
        let small = FlatBuffers {
            cand_group: vec![1],
            ..Default::default()
        };
        let big = FlatBuffers {
            cand_group: vec![2, 2],
            ..Default::default()
        };
        pool.return_buffers(0, small);
        pool.return_buffers(7, big);
        assert_eq!(pool.pooled_buffers(), 2);

        // Each shard gets its own set back regardless of return order.
        assert_eq!(pool.take_buffers_for(7).cand_group, vec![2, 2]);
        assert_eq!(pool.take_buffers_for(0).cand_group, vec![1]);

        // Dry pool: defaults.
        assert!(pool.take_buffers_for(0).cand_group.is_empty());

        // Layout changed (no set under the new key): any set is reused
        // rather than allocating fresh.
        pool.return_buffers(
            4,
            FlatBuffers {
                cand_group: vec![3],
                ..Default::default()
            },
        );
        assert_eq!(pool.take_buffers_for(9).cand_group, vec![3]);
        assert_eq!(pool.pooled_buffers(), 0);
    }
}
