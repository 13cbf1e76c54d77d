//! The concurrent shard executor's capacity protocol, as code.
//!
//! The executor of `crate::sharded` couples its shards through a
//! [`SharedCapacityLedgerIn`] and splits the capacity discipline by the
//! ledger's capacity-window analysis (`SharedCapacityLedgerIn::is_scarce`):
//!
//! * claims against *abundant* items are order-insensitive and commit
//!   lock-free through [`fast_commit_claim`];
//! * claims against scarce-window items park as proposals for the
//!   coordinator, which sequences them in the one-shard selection order at
//!   a barrier where every shard is parked or done, and claims for each in
//!   turn ([`admit_claim`]): a granted claim admits the proposal, a denied
//!   one rejects it;
//! * free-running gates read the claim count ([`claim_blocked`]), and a
//!   candidate that dies without a claim retires its demand
//!   ([`retire_candidate`]).
//!
//! No unit is ever held for a parked proposal, so every ledger cell is
//! monotone while shards plan: `used` only grows, `demand` only shrinks.
//!
//! This module is the *instrumentation seam* for the analysis toolchain:
//! the functions are generic over [`LedgerCell`], so `cargo xtask
//! check-ledger` executes the **identical code** the executor runs — only
//! the cell type changes, from `AtomicCell` to an instrumented cell whose
//! every load/RMW is routed through a schedule controller. The
//! model-checker scenarios (claim-gated publication of shared state, the
//! capacity window) call straight into these functions; see
//! `docs/concurrency.md` for the protocol's memory-ordering contract and
//! `ARCHITECTURE.md` § "Analysis toolchain" for the toolchain itself.
//!
//! Keep these functions in sync with nothing: they *are* the protocol; the
//! executor calls them.

use revmax_core::{ItemId, LedgerCell, SharedCapacityLedgerIn, UserId};

/// The capacity gate for free-running shard workers: a candidate whose
/// `(item, user)` pair has not claimed yet (`counted == false`) is dead
/// when the item is full for that user (exempt pairs are never blocked).
/// A `true` answer is final — claimed units are never released, so an item
/// full now is full at every later (in particular, at the move's
/// sequential) position, and retiring the candidate immediately is exact.
#[inline]
pub fn claim_blocked<C: LedgerCell>(
    ledger: &SharedCapacityLedgerIn<C>,
    counted: bool,
    item: ItemId,
    user: UserId,
) -> bool {
    !counted && ledger.is_full_for(item, user)
}

/// The lock-free commit for moves outside the scarcity window (counted or
/// exempt pairs, or abundant items). On the pair's first commit, claims one
/// unit, marks the pair counted and retires its demand. A denied claim
/// leaves `counted` **unset** and the demand in place, so the caller can
/// park the move and let the coordinator's claim decide it. Abundance is
/// sticky while shards plan (see `SharedCapacityLedgerIn::is_scarce`), so a
/// plan never sees the denial; parking keeps the verdict exact if one ever
/// came.
#[inline]
pub fn fast_commit_claim<C: LedgerCell>(
    ledger: &SharedCapacityLedgerIn<C>,
    counted: &mut bool,
    item: ItemId,
    user: UserId,
) -> bool {
    if *counted {
        return true;
    }
    if ledger.try_claim_for(item, user) {
        *counted = true;
        ledger.retire_demand(item, user);
        true
    } else {
        false
    }
}

/// Coordinator resolution at the barrier: claims for the parked proposal
/// that leads the one-shard selection order. `true` admits it (the unit is
/// claimed and the pair's demand retires); `false` means the item is full,
/// the one-shard run would have gated the candidate here, and the caller
/// rejects the proposal through [`retire_candidate`].
#[inline]
pub fn admit_claim<C: LedgerCell>(
    ledger: &SharedCapacityLedgerIn<C>,
    item: ItemId,
    user: UserId,
) -> bool {
    if ledger.try_claim_for(item, user) {
        ledger.retire_demand(item, user);
        true
    } else {
        false
    }
}

/// Retires a candidate pair that dies without a claim — during a shard's
/// free run (capacity gate, display exhaustion, or value decay) or at the
/// barrier, when the coordinator's claim for its proposal is denied — so
/// the scarcity window can shrink behind it. Demand retirement is a window
/// *optimisation*: a missed retirement only keeps an item scarce longer.
#[inline]
pub fn retire_candidate<C: LedgerCell>(
    ledger: &SharedCapacityLedgerIn<C>,
    item: ItemId,
    user: UserId,
) {
    ledger.retire_demand(item, user);
}

#[cfg(test)]
mod tests {
    use super::*;
    use revmax_core::{InstanceBuilder, SharedCapacityLedger};

    #[test]
    fn window_protocol_admits_in_order_and_rejects() {
        // One item, capacity 2, three non-exempt candidates -> scarce from
        // the start (demand 3 > cap 2).
        let mut b = InstanceBuilder::new(3, 1, 1);
        b.capacity(0, 2).constant_price(0, 1.0);
        for u in 0..3 {
            b.candidate(u, 0, &[0.5], 0.0);
        }
        let inst = b.build().unwrap();
        let ledger = SharedCapacityLedger::new(&inst);
        let item = ItemId(0);
        assert!(ledger.is_scarce(item));
        assert!(!claim_blocked(&ledger, false, item, UserId(2)));

        // Three proposals park; the coordinator admits them in order. The
        // first two claims are granted and retire their demand.
        assert!(admit_claim(&ledger, item, UserId(0)));
        let mut counted = true;
        assert!(fast_commit_claim(&ledger, &mut counted, item, UserId(0)));
        assert!(admit_claim(&ledger, item, UserId(1)));
        assert_eq!((ledger.used(item), ledger.demand(item)), (2, 1));
        assert!(ledger.is_scarce(item));

        // The third finds the item full: the gate now blocks it, the claim
        // is denied and changes nothing, and the rejection retires the last
        // demand, closing the window.
        assert!(claim_blocked(&ledger, false, item, UserId(2)));
        assert!(!admit_claim(&ledger, item, UserId(2)));
        assert_eq!((ledger.used(item), ledger.demand(item)), (2, 1));
        retire_candidate(&ledger, item, UserId(2));
        assert_eq!(ledger.demand(item), 0);
        assert!(!ledger.is_scarce(item));
    }

    #[test]
    fn fast_commit_denial_leaves_pair_uncounted() {
        // Item abundant by the window (demand 1 <= cap 1), but a claim for
        // a user with no candidate takes the unit out of band -> the fast
        // path's claim is denied and must NOT mark the pair counted or
        // retire its demand, so the coordinator's claim can decide it.
        let mut b = InstanceBuilder::new(2, 1, 1);
        b.capacity(0, 1)
            .constant_price(0, 1.0)
            .candidate(0, 0, &[0.5], 0.0);
        let inst = b.build().unwrap();
        let ledger = SharedCapacityLedger::new(&inst);
        let item = ItemId(0);
        assert!(!ledger.is_scarce(item));

        assert!(ledger.try_claim_for(item, UserId(1)));
        assert!(ledger.is_scarce(item)); // pushed into the window

        let mut counted = false;
        assert!(!fast_commit_claim(&ledger, &mut counted, item, UserId(0)));
        assert!(!counted, "denied fast commit must stay uncounted");
        assert_eq!(ledger.demand(item), 1, "demand retires only on a grant");
        assert!(!admit_claim(&ledger, item, UserId(0)));
    }
}
