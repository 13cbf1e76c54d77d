//! The concurrent shard executor's capacity protocol, as code.
//!
//! The executor of `crate::sharded` couples its shards through a
//! [`SharedCapacityLedgerIn`] and splits the capacity discipline by the
//! ledger's capacity-window analysis (`SharedCapacityLedgerIn::is_scarce`):
//!
//! * claims against *abundant* items are order-insensitive and commit
//!   lock-free through [`fast_commit_claim`];
//! * claims against scarce-window items become speculative proposals
//!   ([`speculative_claim`]) that park for the coordinator, which sequences
//!   them in the one-shard selection order and resolves each through
//!   exactly one of [`admit_granted`] / [`admit_claim`] /
//!   [`steal_speculative`] / [`reject_claim`];
//! * free-running gates read the *committed* count
//!   ([`claim_blocked_committed`]) because speculative units may still be
//!   stolen by a sequentially earlier claim, and a candidate that dies
//!   without a claim retires its demand ([`retire_candidate`]).
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

/// The committed-basis capacity gate for free-running shard workers: a
/// candidate whose `(item, user)` pair has not claimed yet (`counted ==
/// false`) is dead when the item is committed-full for that user (exempt
/// pairs are never blocked). Blind to speculative units held by parked
/// proposals. A `true` answer is final — committed units are never
/// released, so an item committed-full now is committed-full at every
/// later (in particular, at the move's sequential) position, and retiring
/// the candidate immediately is exact, not speculative.
#[inline]
pub fn claim_blocked_committed<C: LedgerCell>(
    ledger: &SharedCapacityLedgerIn<C>,
    counted: bool,
    item: ItemId,
    user: UserId,
) -> bool {
    !counted && ledger.is_full_committed_for(item, user)
}

/// The lock-free commit for moves outside the scarcity window (counted or
/// exempt pairs, or abundant items). On the pair's first commit, claims one
/// unit, marks the pair counted and retires its demand. A denied claim
/// leaves `counted` **unset**: denial means the item migrated into
/// the window after the caller's abundance check (see
/// `SharedCapacityLedgerIn::is_scarce` — only an engine-side `charge` can
/// cause this), and the caller must re-route the move through arbitration
/// rather than treat the pair as claimed. Skipping that re-check is the
/// seeded-defect mutant of the `cargo xtask check-ledger` migration
/// scenario.
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

/// Claims capacity speculatively for a scarce-window proposal that is
/// about to park. Returns whether a unit was granted; either way the
/// proposal parks and the coordinator decides its fate. The caller only
/// proposes uncounted, non-exempt pairs (counted and exempt moves take
/// [`fast_commit_claim`]).
#[inline]
pub fn speculative_claim<C: LedgerCell>(
    ledger: &SharedCapacityLedgerIn<C>,
    item: ItemId,
    user: UserId,
) -> bool {
    debug_assert!(
        !ledger.is_exempt(item, user),
        "exempt pairs never enter the scarce window"
    );
    ledger.try_claim_spec(item)
}

/// Coordinator resolution: admits a parked proposal that **holds** a
/// speculative unit — the unit converts to a committed claim and the
/// pair's demand retires. A granted proposal is always admissible: its own
/// unit is excluded from the committed count, so the committed-full test
/// that rejects claims can never fire against it.
#[inline]
pub fn admit_granted<C: LedgerCell>(
    ledger: &SharedCapacityLedgerIn<C>,
    item: ItemId,
    user: UserId,
) {
    ledger.commit_spec(item);
    ledger.retire_demand(item, user);
}

/// Coordinator resolution: admits a parked proposal that holds **no**
/// speculative unit by claiming directly. `false` means the raw count is
/// full — either the item is committed-full (reject the proposal) or a
/// speculative unit of a sequentially *later* proposal holds the last
/// slot (steal it with [`steal_speculative`] and retry).
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

/// Coordinator resolution: steals a speculative unit from a parked victim
/// proposal on behalf of a sequentially earlier claim — the
/// claim-then-release-on-reject rollback path. The victim's proposal
/// stays parked (now ungranted) and is re-judged at its own turn.
/// Barrier-quiescent, like every `release_spec` call.
#[inline]
pub fn steal_speculative<C: LedgerCell>(ledger: &SharedCapacityLedgerIn<C>, item: ItemId) {
    ledger.release_spec(item);
}

/// Coordinator resolution: rejects a parked (ungranted) proposal — the
/// item is committed-full, the sequential run would have gated the
/// candidate, and the pair dies without a claim.
#[inline]
pub fn reject_claim<C: LedgerCell>(ledger: &SharedCapacityLedgerIn<C>, item: ItemId, user: UserId) {
    ledger.retire_demand(item, user);
}

/// Retires a candidate pair that died during a shard's free run (capacity
/// gate, display exhaustion, or value decay) so the scarcity window can
/// shrink behind it. Demand retirement is a window *optimisation*: a
/// missed retirement only keeps an item scarce longer.
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
    fn window_protocol_admits_steals_and_rejects() {
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

        // A scarce item never takes the fast path uncounted; but once a
        // pair is counted, fast_commit_claim is a free repeat.
        let mut counted = false;
        assert!(!claim_blocked_committed(&ledger, counted, item, UserId(0)));

        // Two proposals park with granted speculative units; a third is
        // denied but still parks.
        assert!(speculative_claim(&ledger, item, UserId(0)));
        assert!(speculative_claim(&ledger, item, UserId(1)));
        assert!(!speculative_claim(&ledger, item, UserId(2)));
        assert_eq!(ledger.used(item), 2);
        assert_eq!(ledger.committed_used(item), 0);

        // Coordinator: admit the granted leader -> one committed unit.
        admit_granted(&ledger, item, UserId(0));
        counted = true;
        assert!(fast_commit_claim(&ledger, &mut counted, item, UserId(0)));
        assert_eq!(ledger.committed_used(item), 1);

        // The ungranted proposal is sequentially earlier than the second
        // granted one: direct claim fails (raw count full), so it steals
        // the victim's unit and retries successfully.
        assert!(!admit_claim(&ledger, item, UserId(2)));
        steal_speculative(&ledger, item);
        assert!(admit_claim(&ledger, item, UserId(2)));
        assert_eq!(ledger.committed_used(item), 2);

        // The stolen-from victim is now committed-blocked and rejected;
        // rejection retires the last demand, closing the window.
        assert!(claim_blocked_committed(&ledger, false, item, UserId(1)));
        reject_claim(&ledger, item, UserId(1));
        assert_eq!(ledger.demand(item), 0);
        assert!(!ledger.is_scarce(item));
        assert_eq!(ledger.speculative(item), 0);
    }

    #[test]
    fn fast_commit_denial_leaves_pair_uncounted() {
        // Item abundant by the window (demand 1 <= cap 1) but an
        // engine-side charge consumes the unit out of band -> the fast
        // path's claim is denied and must NOT mark the pair counted.
        let mut b = InstanceBuilder::new(2, 1, 1);
        b.capacity(0, 1)
            .constant_price(0, 1.0)
            .candidate(0, 0, &[0.5], 0.0);
        let inst = b.build().unwrap();
        let ledger = SharedCapacityLedger::new(&inst);
        let item = ItemId(0);
        assert!(!ledger.is_scarce(item));

        ledger.charge(item, UserId(1));
        assert!(ledger.is_scarce(item)); // migrated into the window

        let mut counted = false;
        assert!(!fast_commit_claim(&ledger, &mut counted, item, UserId(0)));
        assert!(!counted, "denied fast commit must stay uncounted");
        assert_eq!(ledger.demand(item), 1, "demand retires only on a grant");
    }
}
