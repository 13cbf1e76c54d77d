//! Display-capacity ledgers: the only cross-user coupling in REVMAX.
//!
//! The revenue objective decomposes per user (memory, saturation, and
//! competition all act within one user's (user, class) groups), and the
//! display constraint is per (user, time). The capacity constraint `q_i` —
//! at most `q_i` *distinct users* may receive item `i` across the horizon —
//! is the single piece of state shared between users. This module makes that
//! state a first-class object instead of a field inside one evaluator:
//!
//! * [`CapacityLedger`] — the sequential ledger used inside the incremental
//!   revenue engines: plain per-item counters, `&mut` charges;
//! * [`SharedCapacityLedger`] — the sharded ledger used by the concurrent
//!   shard executor: per-item atomic counters with `&self` claims, safe to
//!   share across shard workers.
//!
//! Both ledgers count *claims*, one per distinct (item, user) pair; the
//! caller is responsible for claiming at most once per pair (the engines
//! dedup via their per-candidate `counted` bitmaps, the sharded drivers via
//! shard-local bitmaps — user shards are disjoint, so the dedup never needs
//! to be shared).
//!
//! Both ledgers carry the instance's per-item **exempt-user sets** (see
//! [`Instance::is_exempt`]): an exempt `(item, user)` pair neither consumes
//! capacity when charged nor blocks on a full item. Residual instances use
//! this to stop double-charging re-displays to prefix users; ordinary
//! instances have empty sets and pay one `bool` check.
//!
//! # Memory-ordering contract
//!
//! This module is the **only** place in the workspace where atomics (and
//! `std::sync::atomic::Ordering` tokens) are allowed — `cargo xtask lint`
//! enforces the confinement mechanically. Every ordering choice below is
//! justified in [`docs/concurrency.md`] (the ledger memory-ordering
//! contract), and the shared ledger's claim/retire protocol is
//! exhaustively schedule-checked by `cargo xtask check-ledger`, which
//! substitutes an instrumented [`LedgerCell`] for [`AtomicCell`] and
//! explores thread interleavings under an acquire/release-aware memory
//! model. The contract in one line: **RMWs publish with `AcqRel` and count
//! loads observe with `Acquire`, so any thread that observes an item's
//! count also observes every ledger update that happened-before the RMW
//! that produced it.**
//!
//! [`docs/concurrency.md`]: https://example.invalid/revmax/docs/concurrency.md

use crate::ids::{ItemId, UserId};
use crate::instance::{ExemptSets, Instance};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// One shared counter cell of a [`SharedCapacityLedgerIn`].
///
/// The production ledger uses [`AtomicCell`], a zero-cost `AtomicU32`
/// newtype. The analysis toolchain (`cargo xtask check-ledger`) substitutes
/// an instrumented cell that records every load/RMW **with its requested
/// [`Ordering`]** into a schedule controller, then explores thread
/// interleavings of the real ledger code under an acquire/release-aware
/// memory model. Keeping the trait surface to exactly the operations the
/// ledger performs (load, `fetch_sub`, `compare_exchange`) is what makes
/// that exploration sound: every shared-memory transition of the protocol
/// is one trait call.
///
/// Implementations outside the model checker must be genuinely atomic;
/// the `Ordering` arguments follow the contract in `docs/concurrency.md`.
pub trait LedgerCell {
    /// A cell holding `value`.
    fn new(value: u32) -> Self;
    /// Atomic load with the requested ordering.
    fn load(&self, order: Ordering) -> u32;
    /// Atomic subtract; returns the previous value.
    fn fetch_sub(&self, delta: u32, order: Ordering) -> u32;
    /// Atomic compare-exchange (strong): store `new` iff the cell holds
    /// `current`. `Ok(previous)` on success, `Err(actual)` on failure.
    fn compare_exchange(
        &self,
        current: u32,
        new: u32,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u32, u32>;
}

/// The production [`LedgerCell`]: a `repr(transparent)` `AtomicU32` newtype.
///
/// Every method forwards directly, so the generic ledger instantiated at
/// `AtomicCell` compiles to the same code as hand-written atomics — the
/// sharded parity suites (1e-9 agreement with the sequential plan at every
/// shard count) pin the behaviour.
#[derive(Debug, Default)]
#[repr(transparent)]
pub struct AtomicCell(AtomicU32);

impl LedgerCell for AtomicCell {
    #[inline(always)]
    fn new(value: u32) -> Self {
        AtomicCell(AtomicU32::new(value))
    }

    #[inline(always)]
    fn load(&self, order: Ordering) -> u32 {
        self.0.load(order)
    }

    #[inline(always)]
    fn fetch_sub(&self, delta: u32, order: Ordering) -> u32 {
        self.0.fetch_sub(delta, order)
    }

    #[inline(always)]
    fn compare_exchange(
        &self,
        current: u32,
        new: u32,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u32, u32> {
        self.0.compare_exchange(current, new, success, failure)
    }
}

/// Sequential display-capacity ledger: per-item distinct-user counts against
/// the instance capacities `q_i`.
///
/// This is the state the incremental revenue engines mutate on every first
/// recommendation of an item to a new user. It was previously a private
/// `item_distinct_users` vector inside each engine; it is standalone so the
/// shard-partitioned planners can substitute the shared variant.
#[derive(Debug, Clone)]
pub struct CapacityLedger {
    used: Vec<u32>,
    cap: Vec<u32>,
    exempt: Arc<ExemptSets>,
}

impl CapacityLedger {
    /// Creates an empty ledger for an instance (no capacity consumed).
    pub fn new(inst: &Instance) -> Self {
        let items = inst.num_items() as usize;
        CapacityLedger {
            used: vec![0; items],
            cap: (0..inst.num_items())
                .map(|i| inst.capacity(ItemId(i)))
                .collect(),
            exempt: inst.exempt_sets(),
        }
    }

    /// Whether `(item, user)` is exempt from capacity accounting.
    #[inline]
    pub fn is_exempt(&self, item: ItemId, user: UserId) -> bool {
        self.exempt.contains(item, user)
    }

    /// Whether the item has no capacity left for *this* user: full **and**
    /// the `(item, user)` pair is not exempt. This is the check selection
    /// loops should make before granting a display.
    #[inline]
    pub fn is_full_for(&self, item: ItemId, user: UserId) -> bool {
        self.is_full(item) && !self.is_exempt(item, user)
    }

    /// Records the first display of `item` to `user`: claims one capacity
    /// unit unless the pair is exempt. The caller dedups pairs (call once
    /// per distinct `(item, user)`), exactly as for
    /// [`CapacityLedger::claim_unchecked`].
    #[inline]
    pub fn charge(&mut self, item: ItemId, user: UserId) {
        if !self.is_exempt(item, user) {
            self.claim_unchecked(item);
        }
    }

    /// Number of distinct users the item has been claimed for so far.
    #[inline]
    pub fn used(&self, item: ItemId) -> u32 {
        self.used[item.index()]
    }

    /// The capacity `q_i` of the item.
    #[inline]
    pub fn capacity(&self, item: ItemId) -> u32 {
        self.cap[item.index()]
    }

    /// Whether the item has no capacity left for a *new* user.
    #[inline]
    pub fn is_full(&self, item: ItemId) -> bool {
        self.used[item.index()] >= self.cap[item.index()]
    }

    /// Records a claim without checking the capacity.
    ///
    /// The incremental engines accept *any* strategy through their insert
    /// APIs (the caller owns constraint checking), so their bookkeeping must
    /// keep counting past the capacity; [`CapacityLedger::is_full`] still
    /// reports the constraint correctly.
    #[inline]
    pub fn claim_unchecked(&mut self, item: ItemId) {
        self.used[item.index()] += 1;
    }
}

/// Shard-safe display-capacity ledger: per-item atomic claim counts.
///
/// Shard workers plan disjoint user ranges concurrently and claim item
/// capacity through one shared ledger; claims are lock-free CAS loops, so the
/// ledger never blocks a worker. Determinism of the *plan* is not the
/// ledger's job — the shard coordinator admits scarce-window claims in
/// descending marginal-revenue order (see `revmax-algorithms::sharded`),
/// which makes the sharded plan reproduce the one-shard plan regardless of
/// thread scheduling.
///
/// Every cell is monotone while shards plan: `used` only grows (claims are
/// the only writes to it) and `demand` only shrinks
/// ([`SharedCapacityLedgerIn::retire_demand`]). The capacity-window
/// argument in `docs/concurrency.md` rests on exactly that.
///
/// The ledger is generic over its counter cell so `cargo xtask check-ledger`
/// can run **this exact code** under an instrumented [`LedgerCell`] and
/// exhaustively explore thread interleavings; production code uses the
/// [`SharedCapacityLedger`] alias (cells are [`AtomicCell`]). The ordering
/// arguments passed to the cells are the contract documented in
/// `docs/concurrency.md`.
#[derive(Debug)]
pub struct SharedCapacityLedgerIn<C: LedgerCell> {
    used: Vec<C>,
    /// Capacity-window state, per item: remaining non-exempt candidate
    /// `(item, user)` pairs that could still claim. Initialised from the
    /// instance's candidate lists; decremented by
    /// [`SharedCapacityLedgerIn::retire_demand`] when a pair commits or
    /// dies. Decrements may lag the actual deaths (the cell is a
    /// conservative upper bound), which only keeps an item scarce longer —
    /// never the reverse.
    demand: Vec<C>,
    cap: Vec<u32>,
    exempt: Arc<ExemptSets>,
}

/// The production shared ledger: [`SharedCapacityLedgerIn`] over
/// [`AtomicCell`] cells.
pub type SharedCapacityLedger = SharedCapacityLedgerIn<AtomicCell>;

impl<C: LedgerCell> SharedCapacityLedgerIn<C> {
    /// Creates an empty shared ledger for an instance.
    ///
    /// Each item's `demand` starts at its non-exempt candidate pairs, so on
    /// the fresh ledger [`SharedCapacityLedgerIn::is_scarce`] reads
    /// `demand > cap`. The G-Greedy planner counts exactly that demand
    /// before every plan, without a ledger: when no item is scarce, no
    /// capacity gate can close, and the plan runs one user at a time.
    ///
    /// Cell construction order is part of the analysis-toolchain contract:
    /// the `used` cells are registered first (cell ids `0..items` under the
    /// instrumented cell, which is what `cargo xtask check-ledger` keys its
    /// per-item capacity invariants on), then `demand`.
    pub fn new(inst: &Instance) -> Self {
        let items = inst.num_items() as usize;
        let exempt = inst.exempt_sets();
        let mut demand_init = vec![0u32; items];
        for cand in inst.candidates() {
            let item = inst.candidate_item(cand);
            if !exempt.contains(item, inst.candidate_user(cand)) {
                demand_init[item.index()] += 1;
            }
        }
        SharedCapacityLedgerIn {
            used: (0..items).map(|_| C::new(0)).collect(),
            demand: demand_init.iter().map(|&d| C::new(d)).collect(),
            cap: (0..inst.num_items())
                .map(|i| inst.capacity(ItemId(i)))
                .collect(),
            exempt,
        }
    }

    /// Whether `(item, user)` is exempt from capacity accounting.
    #[inline]
    pub fn is_exempt(&self, item: ItemId, user: UserId) -> bool {
        self.exempt.contains(item, user)
    }

    /// [`SharedCapacityLedger::try_claim`] for a specific user: exempt pairs
    /// succeed without consuming capacity.
    pub fn try_claim_for(&self, item: ItemId, user: UserId) -> bool {
        if self.is_exempt(item, user) {
            return true;
        }
        self.try_claim(item)
    }

    /// Number of distinct users the item has been claimed for so far.
    ///
    /// `Acquire`: pairs with the `AcqRel` claim CAS so an observed count
    /// carries every ledger update that happened-before the RMW that
    /// produced it (contract in `docs/concurrency.md`).
    #[inline]
    pub fn used(&self, item: ItemId) -> u32 {
        self.used[item.index()].load(Ordering::Acquire)
    }

    /// The capacity `q_i` of the item.
    #[inline]
    pub fn capacity(&self, item: ItemId) -> u32 {
        self.cap[item.index()]
    }

    /// Whether the item has no capacity left for a new user.
    #[inline]
    pub fn is_full(&self, item: ItemId) -> bool {
        self.used(item) >= self.cap[item.index()]
    }

    /// Whether the item has no capacity left for *this* user: full **and**
    /// the `(item, user)` pair is not exempt — the shared counterpart of
    /// [`CapacityLedger::is_full_for`]. A `true` answer is final while
    /// shards plan, because `used` only grows.
    #[inline]
    pub fn is_full_for(&self, item: ItemId, user: UserId) -> bool {
        self.is_full(item) && !self.is_exempt(item, user)
    }

    /// Atomically claims one unit of the item's capacity. Returns `false`
    /// (and changes nothing) if the item is already full.
    ///
    /// The CAS loop is written against the [`LedgerCell`] surface (one load,
    /// then compare-exchange until settled) so the model checker sees each
    /// shared-memory transition. `AcqRel` on success publishes the claim and
    /// acquires the claims it was stacked on; `Acquire` on the load/failure
    /// paths keeps retries and the full-item early-out synchronised
    /// (`docs/concurrency.md`).
    pub fn try_claim(&self, item: ItemId) -> bool {
        let cap = self.cap[item.index()];
        let cell = &self.used[item.index()];
        let mut cur = cell.load(Ordering::Acquire);
        loop {
            if cur >= cap {
                return false;
            }
            match cell.compare_exchange(cur, cur + 1, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return true,
                Err(actual) => cur = actual,
            }
        }
    }

    // -----------------------------------------------------------------------
    // Capacity-window analysis (the scarcity window)
    //
    // An item whose remaining candidate demand can never exceed its
    // remaining capacity can never bind: every future claim against it is
    // guaranteed to succeed, so claims are order-insensitive and shard
    // workers may commit them lock-free without arbitration. The window
    // state is one extra cell per item (`demand`); the ordering rationale
    // for every operation below is in `docs/concurrency.md`.
    // -----------------------------------------------------------------------

    /// Remaining non-exempt candidate demand for the item — an upper bound
    /// on the number of future capacity claims.
    ///
    /// `Acquire`: pairs with the `AcqRel` [`SharedCapacityLedgerIn::retire_demand`]
    /// decrements, so an observed demand carries the retirement history that
    /// produced it (`docs/concurrency.md`).
    #[inline]
    pub fn demand(&self, item: ItemId) -> u32 {
        self.demand[item.index()].load(Ordering::Acquire)
    }

    /// Whether the item is inside the **scarcity window**: its remaining
    /// candidate demand exceeds its remaining capacity, so claim order can
    /// decide who gets the last units and commits must be arbitrated.
    ///
    /// A `false` answer is *sticky* during planning: demand only shrinks
    /// and every claim retires one unit of demand with the unit of capacity
    /// it takes, so `demand - (cap - used)` never grows, an item observed
    /// abundant stays abundant, and every later claim against it succeeds.
    /// Read order is load-bearing for exactly that argument: `demand` is
    /// loaded **before** `used` (both `Acquire`), so a racing commit can
    /// only make the pair read *more* scarce than reality, never less
    /// (`docs/concurrency.md`).
    #[inline]
    pub fn is_scarce(&self, item: ItemId) -> bool {
        let demand = self.demand[item.index()].load(Ordering::Acquire);
        let used = self.used[item.index()].load(Ordering::Acquire);
        demand > self.cap[item.index()].saturating_sub(used)
    }

    /// Retires one unit of the item's candidate demand: the `(item, user)`
    /// pair has either committed its claim or died without one, and can
    /// never claim again. Exempt pairs were never counted and are a no-op.
    /// The caller retires each pair at most once (same dedup discipline as
    /// claims).
    ///
    /// `AcqRel`: the decrement publishes the retirement (a thread observing
    /// the shrunken demand — e.g. through
    /// [`SharedCapacityLedgerIn::is_scarce`] turning abundant — also
    /// observes the commit or death that caused it) and joins the release
    /// sequence of prior window updates (`docs/concurrency.md`).
    pub fn retire_demand(&self, item: ItemId, user: UserId) {
        if !self.is_exempt(item, user) {
            let prev = self.demand[item.index()].fetch_sub(1, Ordering::AcqRel);
            debug_assert!(prev > 0, "retire_demand without remaining demand");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;

    fn two_item_instance() -> Instance {
        let mut b = InstanceBuilder::new(4, 2, 1);
        b.display_limit(1)
            .capacity(0, 2)
            .capacity(1, 1)
            .constant_price(0, 1.0)
            .constant_price(1, 1.0)
            .candidate(0, 0, &[0.5], 0.0)
            .candidate(1, 1, &[0.5], 0.0);
        b.build().unwrap()
    }

    #[test]
    fn sequential_ledger_enforces_capacity() {
        let inst = two_item_instance();
        let mut ledger = CapacityLedger::new(&inst);
        assert_eq!(ledger.capacity(ItemId(0)), 2);
        ledger.charge(ItemId(0), UserId(0));
        assert!(!ledger.is_full(ItemId(0)));
        ledger.charge(ItemId(0), UserId(1));
        assert!(ledger.is_full(ItemId(0)));
        assert_eq!(ledger.used(ItemId(0)), 2);
        // Charges are unchecked bookkeeping: they keep counting past the
        // capacity, and the item stays full.
        ledger.charge(ItemId(0), UserId(2));
        assert_eq!(ledger.used(ItemId(0)), 3);
        assert!(ledger.is_full(ItemId(0)));
        assert!(!ledger.is_full(ItemId(1)));
    }

    #[test]
    fn shared_ledger_claims_match_sequential_semantics() {
        let inst = two_item_instance();
        let shared = SharedCapacityLedger::new(&inst);
        assert!(shared.try_claim(ItemId(1)));
        assert!(!shared.try_claim(ItemId(1)));
        assert!(shared.is_full(ItemId(1)));
    }

    #[test]
    fn exempt_pairs_neither_block_nor_consume() {
        let mut b = InstanceBuilder::new(3, 1, 1);
        b.capacity(0, 1)
            .constant_price(0, 1.0)
            .candidate(0, 0, &[0.5], 0.0)
            .exempt_user(0, 2);
        let inst = b.build().unwrap();

        let mut ledger = CapacityLedger::new(&inst);
        assert!(ledger.is_exempt(ItemId(0), UserId(2)));
        ledger.charge(ItemId(0), UserId(2)); // exempt: no unit consumed
        assert_eq!(ledger.used(ItemId(0)), 0);
        ledger.charge(ItemId(0), UserId(0));
        assert_eq!(ledger.used(ItemId(0)), 1);
        assert!(ledger.is_full(ItemId(0)));
        assert!(ledger.is_full_for(ItemId(0), UserId(1)));
        assert!(!ledger.is_full_for(ItemId(0), UserId(2)));

        let shared = SharedCapacityLedger::new(&inst);
        assert!(shared.try_claim_for(ItemId(0), UserId(2)));
        assert_eq!(shared.used(ItemId(0)), 0);
        assert!(shared.try_claim_for(ItemId(0), UserId(0)));
        assert!(shared.is_full(ItemId(0)));
        assert!(shared.is_full_for(ItemId(0), UserId(1)));
        assert!(!shared.is_full_for(ItemId(0), UserId(2)));
        assert!(shared.try_claim_for(ItemId(0), UserId(2)));
        assert!(!shared.try_claim_for(ItemId(0), UserId(1)));
    }

    #[test]
    fn shared_ledger_never_oversubscribes_under_contention() {
        let mut b = InstanceBuilder::new(64, 1, 1);
        b.capacity(0, 17)
            .constant_price(0, 1.0)
            .candidate(0, 0, &[0.5], 0.0);
        let inst = b.build().unwrap();
        let ledger = SharedCapacityLedger::new(&inst);
        let granted: u32 = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        let mut wins = 0;
                        for _ in 0..8 {
                            if ledger.try_claim(ItemId(0)) {
                                wins += 1;
                            }
                        }
                        wins
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(granted, 17, "exactly the capacity must be granted");
        assert_eq!(ledger.used(ItemId(0)), 17);
    }

    /// Demand counts non-exempt candidate pairs per item; exempt candidates
    /// are excluded from the window entirely.
    #[test]
    fn window_demand_counts_non_exempt_candidates() {
        let mut b = InstanceBuilder::new(4, 2, 1);
        b.display_limit(1)
            .capacity(0, 1)
            .capacity(1, 8)
            .constant_price(0, 1.0)
            .constant_price(1, 1.0)
            .candidate(0, 0, &[0.5], 0.0)
            .candidate(1, 0, &[0.5], 0.0)
            .candidate(2, 0, &[0.5], 0.0)
            .candidate(3, 1, &[0.5], 0.0)
            .exempt_user(0, 2);
        let inst = b.build().unwrap();
        let shared = SharedCapacityLedger::new(&inst);
        // Item 0: three candidates, one exempt -> demand 2 against cap 1.
        assert_eq!(shared.demand(ItemId(0)), 2);
        assert!(shared.is_scarce(ItemId(0)));
        // Item 1: demand 1 against cap 8 -> abundant.
        assert_eq!(shared.demand(ItemId(1)), 1);
        assert!(!shared.is_scarce(ItemId(1)));

        // A commit consumes a unit AND a demand: the deficit is unchanged.
        assert!(shared.try_claim_for(ItemId(0), UserId(0)));
        shared.retire_demand(ItemId(0), UserId(0));
        assert!(shared.is_scarce(ItemId(0)));
        // A death without a claim shrinks the deficit: item migrates out.
        shared.retire_demand(ItemId(0), UserId(1));
        assert!(!shared.is_scarce(ItemId(0)));
        // Exempt retirement is a no-op.
        shared.retire_demand(ItemId(0), UserId(2));
        assert_eq!(shared.demand(ItemId(0)), 0);
    }
}
