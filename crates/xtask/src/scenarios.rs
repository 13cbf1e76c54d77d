//! The `cargo xtask check-ledger` scenario suite.
//!
//! Every scenario instantiates the **production** ledger type
//! (`SharedCapacityLedgerIn`) at the instrumented cell and runs real ledger
//! / `revmax_algorithms::protocol` code under the schedule explorer:
//!
//! * **pass scenarios** assert a safety invariant over *every* schedule
//!   (DFS to exhaustion) or a large seeded sample (random mode);
//! * **violation scenarios** are detector-sanity checks: a deliberately
//!   broken protocol (unsynchronised held-slot publication, release
//!   without claim) that the checker must flag — if it cannot, the gate
//!   fails, because a detector that cannot detect proves nothing;
//! * **mutant scenarios** re-run the ordering-sensitive pass scenarios with
//!   every `Ordering` demoted to `Relaxed` (the seeded mutant of the
//!   sensitivity regression): the checker must flag the weakened ledger,
//!   proving the acquire/release reasoning in `docs/concurrency.md` is
//!   load-bearing rather than decorative.

use crate::cell::{run_threads, with_ambient, InstrCell, PlainVar};
use crate::model::{explore_dfs, explore_random, Controller, Exploration};
use revmax_algorithms::protocol;
use revmax_core::{Instance, InstanceBuilder, ItemId, SharedCapacityLedgerIn, UserId};
use std::sync::{Arc, Mutex};

/// DFS execution budget per scenario; pass scenarios must exhaust their
/// schedule space strictly below it.
const DFS_BUDGET: usize = 500_000;
/// Random-schedule iterations for the fuzz scenario.
const FUZZ_ITERATIONS: usize = 400;

type Ledger = SharedCapacityLedgerIn<InstrCell>;

/// A tiny instance with the given per-item capacities; `exempt` lists
/// `(item, user)` pairs exempt from capacity accounting.
fn make_instance(caps: &[u32], exempt: &[(u32, u32)]) -> Instance {
    let users = 8;
    let mut b = InstanceBuilder::new(users, caps.len() as u32, 1);
    b.display_limit(1);
    for (i, &cap) in caps.iter().enumerate() {
        b.capacity(i as u32, cap)
            .constant_price(i as u32, 1.0)
            .candidate(i as u32 % users, i as u32, &[0.5], 0.0);
    }
    for &(item, user) in exempt {
        b.exempt_user(item, user);
    }
    b.build().expect("scenario instance is valid")
}

/// Builds the instrumented ledger and registers per-item capacities with
/// the controller (cells are registered in item order).
fn make_ledger(ctrl: &Arc<Controller>, inst: &Instance) -> Ledger {
    let ledger: Ledger = SharedCapacityLedgerIn::new(inst);
    for i in 0..inst.num_items() {
        ctrl.set_cap(i as usize, inst.capacity(ItemId(i)));
    }
    ledger
}

/// A tiny instance with explicit per-item candidate lists: `items[i] =
/// (capacity, candidate users)` — the scarcity-window scenarios need items
/// whose demand exceeds capacity, which [`make_instance`]'s one-candidate-
/// per-item shape cannot express.
fn make_window_instance(items: &[(u32, &[u32])]) -> Instance {
    let users = 8;
    let mut b = InstanceBuilder::new(users, items.len() as u32, 1);
    b.display_limit(1);
    for (i, &(cap, cands)) in items.iter().enumerate() {
        b.capacity(i as u32, cap).constant_price(i as u32, 1.0);
        for &user in cands {
            b.candidate(user, i as u32, &[0.5], 0.0);
        }
    }
    b.build().expect("scenario instance is valid")
}

// ---------------------------------------------------------------------------
// Scenario bodies
// ---------------------------------------------------------------------------

/// Two threads race one capacity unit; exactly one claim is ever granted.
fn claim_contention(ctrl: &Arc<Controller>) {
    with_ambient(ctrl, None, || {
        let inst = make_instance(&[1], &[]);
        let ledger = make_ledger(ctrl, &inst);
        let results = run_threads(
            ctrl,
            vec![
                Box::new(|| ledger.try_claim_for(ItemId(0), UserId(0)) as u64),
                Box::new(|| ledger.try_claim_for(ItemId(0), UserId(1)) as u64),
            ],
        );
        let granted: u64 = results.iter().sum();
        let used = ledger.used(ItemId(0));
        if granted != 1 || used != 1 {
            ctrl.flag(format!(
                "claim contention: {granted} grants, used {used} (expected exactly 1)"
            ));
        }
    });
}

/// Three threads race two capacity units; exactly two claims are granted.
fn claim_contention_3t(ctrl: &Arc<Controller>) {
    with_ambient(ctrl, None, || {
        let inst = make_instance(&[2], &[]);
        let ledger = make_ledger(ctrl, &inst);
        let results = run_threads(
            ctrl,
            vec![
                Box::new(|| ledger.try_claim_for(ItemId(0), UserId(0)) as u64),
                Box::new(|| ledger.try_claim_for(ItemId(0), UserId(1)) as u64),
                Box::new(|| ledger.try_claim_for(ItemId(0), UserId(2)) as u64),
            ],
        );
        let granted: u64 = results.iter().sum();
        let used = ledger.used(ItemId(0));
        if granted != 2 || used != 2 {
            ctrl.flag(format!(
                "3-thread claim contention: {granted} grants, used {used} (expected exactly 2)"
            ));
        }
    });
}

/// Claim-then-release cycles settle back to zero and never underflow
/// (underflow is flagged by the model itself).
fn claim_release(ctrl: &Arc<Controller>) {
    with_ambient(ctrl, None, || {
        let inst = make_instance(&[1], &[]);
        let ledger = make_ledger(ctrl, &inst);
        let body = |user: u32| {
            let ledger = &ledger;
            move || {
                if ledger.try_claim_for(ItemId(0), UserId(user)) {
                    ledger.release(ItemId(0));
                    1u64
                } else {
                    0
                }
            }
        };
        run_threads(ctrl, vec![Box::new(body(0)), Box::new(body(1))]);
        let used = ledger.used(ItemId(0));
        if used != 0 {
            ctrl.flag(format!("claim/release cycle left used = {used}"));
        }
    });
}

/// Exempt pairs are always granted, never consume capacity, and never
/// block the one real capacity unit.
fn exempt_claims(ctrl: &Arc<Controller>) {
    with_ambient(ctrl, None, || {
        let inst = make_instance(&[1], &[(0, 7)]);
        let ledger = make_ledger(ctrl, &inst);
        let results = run_threads(
            ctrl,
            vec![
                Box::new(|| ledger.try_claim_for(ItemId(0), UserId(0)) as u64),
                Box::new(|| {
                    let exempt_granted = ledger.try_claim_for(ItemId(0), UserId(7));
                    let regular_granted = ledger.try_claim_for(ItemId(0), UserId(1));
                    (exempt_granted as u64) << 1 | regular_granted as u64
                }),
            ],
        );
        if results[1] & 2 == 0 {
            ctrl.flag("exempt claim was denied".into());
        }
        let regular = results[0] + (results[1] & 1);
        let used = ledger.used(ItemId(0));
        if regular != 1 || used != 1 {
            ctrl.flag(format!(
                "exempt mix: {regular} non-exempt grants, used {used} (expected exactly 1)"
            ));
        }
    });
}

/// Message-passing visibility: a thread that observes item B full must also
/// observe the charge of item A that happened-before it. Passes with the
/// real orderings; the `Relaxed` mutant must be flagged here.
fn visibility_chain(ctrl: &Arc<Controller>) {
    with_ambient(ctrl, None, || {
        let inst = make_instance(&[1, 1], &[]);
        let ledger = make_ledger(ctrl, &inst);
        let results = run_threads(
            ctrl,
            vec![
                Box::new(|| {
                    ledger.charge(ItemId(0), UserId(0));
                    ledger.charge(ItemId(1), UserId(0));
                    0u64
                }),
                Box::new(|| {
                    if ledger.is_full(ItemId(1)) {
                        2 | (ledger.used(ItemId(0)) >= 1) as u64
                    } else {
                        0
                    }
                }),
            ],
        );
        if results[1] == 2 {
            ctrl.flag("visibility chain: item 1 observed full but the charge of item 0 that happened-before it is not visible".into());
        }
    });
}

/// Claim-gated publication: a plain held-slot written only by the winner of
/// the item's single capacity unit is race-free, and the published value is
/// the winner's.
fn held_slot_gated(ctrl: &Arc<Controller>) {
    with_ambient(ctrl, None, || {
        let inst = make_instance(&[1], &[]);
        let ledger = make_ledger(ctrl, &inst);
        let slot = PlainVar::new(0);
        let body = |user: u32| {
            let ledger = &ledger;
            let slot = &slot;
            move || {
                if ledger.try_claim_for(ItemId(0), UserId(user)) {
                    slot.write(user + 1);
                    1u64
                } else {
                    0
                }
            }
        };
        let results = run_threads(ctrl, vec![Box::new(body(0)), Box::new(body(1))]);
        let winners: u64 = results.iter().sum();
        let published = slot.read();
        if winners != 1 || published == 0 || published > 2 {
            ctrl.flag(format!(
                "gated held-slot: {winners} winners, published {published}"
            ));
        }
    });
}

/// Publication through the ledger: data plain-written before a charge is
/// visible (and race-free) to a thread that observed the charge. Passes
/// with the real orderings; the `Relaxed` mutant must be flagged here.
fn publication_gate(ctrl: &Arc<Controller>) {
    with_ambient(ctrl, None, || {
        let inst = make_instance(&[1], &[]);
        let ledger = make_ledger(ctrl, &inst);
        let data = PlainVar::new(0);
        let results = run_threads(
            ctrl,
            vec![
                Box::new(|| {
                    data.write(42);
                    ledger.charge(ItemId(0), UserId(0));
                    0u64
                }),
                Box::new(|| {
                    if ledger.used(ItemId(0)) >= 1 {
                        data.read() as u64
                    } else {
                        42 // did not observe the charge: vacuously fine
                    }
                }),
            ],
        );
        if results[1] != 42 {
            ctrl.flag(format!(
                "publication gate: observed charge but read data {}",
                results[1]
            ));
        }
    });
}

/// Scarcity window: a speculative grant on a scarce item being admitted by
/// the coordinator races an abundant-item fast commit on another shard.
/// The fast path is non-binding on the admission (different cells), and
/// `commit_spec` only ever moves `committed_used` toward its final value —
/// so every schedule ends with the admitted unit committed, the fast
/// commit granted, and both demands retired.
fn window_commit_races_scarce_admit(ctrl: &Arc<Controller>) {
    with_ambient(ctrl, None, || {
        // item 0: cap 2, demand 3 — scarce. item 1: cap 1, demand 1 — abundant.
        let inst = make_window_instance(&[(2, &[0, 1, 2]), (1, &[3])]);
        let ledger = make_ledger(ctrl, &inst);
        // Setup (pre-schedule): shard 0's proposal for (item 0, user 0)
        // claimed speculatively and parked. Capacity is untouched, so the
        // grant is certain.
        if !protocol::speculative_claim(&ledger, ItemId(0), UserId(0)) {
            ctrl.flag("setup speculative claim denied on an empty item".into());
        }
        let results = run_threads(
            ctrl,
            vec![
                // Shard 1 free-runs its abundant-item move concurrently.
                Box::new(|| {
                    let mut counted = false;
                    if protocol::claim_blocked_committed(&ledger, counted, ItemId(1), UserId(3)) {
                        return 9; // committed-full on an empty item: impossible
                    }
                    if ledger.is_scarce(ItemId(1)) {
                        return 8; // demand 1 <= cap 1: abundant by construction
                    }
                    protocol::fast_commit_claim(&ledger, &mut counted, ItemId(1), UserId(3)) as u64
                }),
                // The coordinator admits the parked proposal.
                Box::new(|| {
                    protocol::admit_granted(&ledger, ItemId(0), UserId(0));
                    0u64
                }),
            ],
        );
        if results[0] != 1 {
            ctrl.flag(format!(
                "abundant fast commit returned {} racing a scarce admit (expected grant)",
                results[0]
            ));
        }
        let (cu0, spec0, d0) = (
            ledger.committed_used(ItemId(0)),
            ledger.speculative(ItemId(0)),
            ledger.demand(ItemId(0)),
        );
        let (used1, d1) = (ledger.used(ItemId(1)), ledger.demand(ItemId(1)));
        if cu0 != 1 || spec0 != 0 || d0 != 2 || used1 != 1 || d1 != 0 {
            ctrl.flag(format!(
                "post-admit state: item0 committed {cu0}/spec {spec0}/demand {d0}, \
                 item1 used {used1}/demand {d1}"
            ));
        }
    });
}

/// Scarcity window: two shards race one speculative unit of a scarce item;
/// exactly one claim is granted. The barrier-quiescent coordinator (ambient
/// after join) then admits in sequential order — when the sequentially
/// earlier proposal lost the race, the rollback path runs: steal the later
/// shard's speculative unit (claim, then release on reject), re-claim for
/// the winner, reject the loser.
fn speculative_claim_rollback(ctrl: &Arc<Controller>) {
    with_ambient(ctrl, None, || {
        // One item, cap 1, demand 2 — scarce from the start.
        let inst = make_window_instance(&[(1, &[1, 2])]);
        let ledger = make_ledger(ctrl, &inst);
        let results = run_threads(
            ctrl,
            vec![
                Box::new(|| protocol::speculative_claim(&ledger, ItemId(0), UserId(1)) as u64),
                Box::new(|| protocol::speculative_claim(&ledger, ItemId(0), UserId(2)) as u64),
            ],
        );
        let (g1, g2) = (results[0] == 1, results[1] == 1);
        if g1 as u32 + g2 as u32 != 1 {
            ctrl.flag(format!(
                "speculative race: grants ({g1}, {g2}), expected exactly one"
            ));
            return;
        }
        // Coordinator resolution at the barrier. User 1's proposal is
        // sequentially first (same value, smaller candidate id).
        if g1 {
            protocol::admit_granted(&ledger, ItemId(0), UserId(1));
            // User 2 parked ungranted: no unit, no victim left — reject.
            if protocol::admit_claim(&ledger, ItemId(0), UserId(2)) {
                ctrl.flag("rejected proposal re-claimed a full item".into());
            } else {
                protocol::reject_claim(&ledger, ItemId(0), UserId(2));
            }
        } else {
            // The later shard holds the unit: steal it back for user 1.
            if protocol::admit_claim(&ledger, ItemId(0), UserId(1)) {
                ctrl.flag("admit_claim granted while a speculative unit held the capacity".into());
            } else {
                protocol::steal_speculative(&ledger, ItemId(0));
                if !protocol::admit_claim(&ledger, ItemId(0), UserId(1)) {
                    ctrl.flag("admit_claim denied after stealing the speculative unit".into());
                }
            }
            protocol::reject_claim(&ledger, ItemId(0), UserId(2));
        }
        let (cu, spec, d) = (
            ledger.committed_used(ItemId(0)),
            ledger.speculative(ItemId(0)),
            ledger.demand(ItemId(0)),
        );
        if cu != 1 || spec != 0 || d != 0 {
            ctrl.flag(format!(
                "rollback settle: committed {cu}, speculative {spec}, demand {d} \
                 (expected 1/0/0)"
            ));
        }
    });
}

/// Scarcity window: an item crosses into the scarce window (a concurrent
/// charge consumes its slack) while a shard holds an uncommitted fast-path
/// intent. The shard's denied fast commit must observe the migration — the
/// re-check sees the item scarce, the pair stays uncounted, and the move
/// parks for arbitration instead of committing.
///
/// No capacity is registered with the controller: in the schedules where
/// the fast commit wins *before* the charge lands, `used` legitimately
/// exceeds the planner-facing capacity (charges model ambient
/// consumption, not planner claims), and a registered cap would
/// false-flag them.
fn window_migration_visibility(ctrl: &Arc<Controller>) {
    with_ambient(ctrl, None, || {
        // One item, cap 1, one candidate — abundant until the charge lands.
        let inst = make_window_instance(&[(1, &[0])]);
        let ledger: Ledger = SharedCapacityLedgerIn::new(&inst);
        let results = run_threads(
            ctrl,
            vec![
                // The shard: abundance check, then the fast-path commit.
                Box::new(|| {
                    let mut counted = false;
                    if ledger.is_scarce(ItemId(0)) {
                        return 3; // migrated before the check: shard parks, nothing to verify
                    }
                    if protocol::fast_commit_claim(&ledger, &mut counted, ItemId(0), UserId(0)) {
                        return 0; // committed before the charge consumed the slack
                    }
                    // Denied: the charge landed between check and commit.
                    if counted {
                        return 6; // a denied commit must leave the pair uncounted
                    }
                    if !ledger.is_scarce(ItemId(0)) {
                        return 7; // the re-check failed to observe the migration
                    }
                    // Correct re-route: claim speculatively and park. The
                    // unit is gone, so the park is ungranted.
                    protocol::speculative_claim(&ledger, ItemId(0), UserId(0)) as u64 + 1
                }),
                // Ambient consumption migrates the item into the window.
                Box::new(|| {
                    ledger.charge(ItemId(0), UserId(5));
                    0u64
                }),
            ],
        );
        match results[0] {
            0 => {
                // Fast commit won the race; the charge landed afterwards.
                let (used, d) = (ledger.used(ItemId(0)), ledger.demand(ItemId(0)));
                if used != 2 || d != 0 {
                    ctrl.flag(format!("fast-commit-first: used {used}, demand {d}"));
                }
            }
            1 => {
                // Parked ungranted. Coordinator: no unit to admit, no
                // speculative victim — reject.
                if protocol::admit_claim(&ledger, ItemId(0), UserId(0)) {
                    ctrl.flag("admit_claim granted a unit the charge consumed".into());
                } else {
                    protocol::reject_claim(&ledger, ItemId(0), UserId(0));
                }
                let (used, spec, d) = (
                    ledger.used(ItemId(0)),
                    ledger.speculative(ItemId(0)),
                    ledger.demand(ItemId(0)),
                );
                if used != 1 || spec != 0 || d != 0 {
                    ctrl.flag(format!(
                        "post-reject: used {used}, speculative {spec}, demand {d}"
                    ));
                }
            }
            2 => {
                // A speculative grant after a denial is impossible here:
                // the denial proves used == cap, and nothing releases.
                ctrl.flag("speculative claim granted after the capacity was exhausted".into());
            }
            3 => {
                let used = ledger.used(ItemId(0));
                if used != 1 {
                    ctrl.flag(format!("scarce-before-check: used {used}, expected 1"));
                }
            }
            r => ctrl.flag(format!("migration visibility: shard invariant {r} broken")),
        }
    });
}

/// DETECTOR SANITY (expected violation): the seeded window-migration
/// mutant. The buggy shard skips the window re-check after its fast
/// commit is denied and parks the move as *granted* — claiming a
/// speculative unit it never obtained. The coordinator's `admit_granted`
/// then decrements a zero `spec` cell, which the model flags as an
/// underflow (and the debug assertion inside the ledger panics, which the
/// harness also flags).
fn window_migration_defect(ctrl: &Arc<Controller>) {
    with_ambient(ctrl, None, || {
        // Item 0 as in the visibility scenario; item 1 is the park
        // mailbox the buggy shard publishes through (a charge as a ready
        // flag, the speculative executor's publication pattern). No
        // controller caps, as above.
        let inst = make_window_instance(&[(1, &[0]), (2, &[1])]);
        let ledger: Ledger = SharedCapacityLedgerIn::new(&inst);
        run_threads(
            ctrl,
            vec![
                // The buggy shard.
                Box::new(|| {
                    let mut counted = false;
                    if ledger.is_scarce(ItemId(0)) {
                        return 3;
                    }
                    if protocol::fast_commit_claim(&ledger, &mut counted, ItemId(0), UserId(0)) {
                        return 0;
                    }
                    // BUG: no re-check, no speculative claim — park the
                    // denied move as if its unit were granted.
                    ledger.charge(ItemId(1), UserId(1));
                    1
                }),
                // Ambient consumption migrates item 0 into the window.
                Box::new(|| {
                    ledger.charge(ItemId(0), UserId(5));
                    0u64
                }),
                // The coordinator: admits any parked-granted proposal.
                Box::new(|| {
                    if ledger.used(ItemId(1)) >= 1 {
                        protocol::admit_granted(&ledger, ItemId(0), UserId(0));
                    }
                    0u64
                }),
            ],
        );
    });
}

/// DETECTOR SANITY (expected violation): both shards publish their held
/// move into the same plain slot without arbitration — a data race the
/// checker must find.
fn held_slot_racy(ctrl: &Arc<Controller>) {
    with_ambient(ctrl, None, || {
        let inst = make_instance(&[2], &[]);
        let ledger = make_ledger(ctrl, &inst);
        let slot = PlainVar::new(0);
        let body = |user: u32| {
            let ledger = &ledger;
            let slot = &slot;
            move || {
                slot.write(user + 1);
                ledger.charge(ItemId(0), UserId(user));
                0u64
            }
        };
        run_threads(ctrl, vec![Box::new(body(0)), Box::new(body(1))]);
    });
}

/// DETECTOR SANITY (expected violation): a release without a claim
/// underflows the counter; the model must flag it.
fn release_underflow(ctrl: &Arc<Controller>) {
    with_ambient(ctrl, None, || {
        let inst = make_instance(&[1], &[]);
        let ledger = make_ledger(ctrl, &inst);
        run_threads(
            ctrl,
            vec![
                Box::new(|| {
                    ledger.release(ItemId(0));
                    0u64
                }),
                Box::new(|| ledger.try_claim_for(ItemId(0), UserId(1)) as u64),
            ],
        );
    });
}

/// Random-schedule fuzz over larger thread/item counts: mixed
/// claim/charge/release-own programs; final counts must match the
/// exemption-aware tally of what each thread actually did.
fn fuzz_mixed(ctrl: &Arc<Controller>, program_seed: u64) {
    with_ambient(ctrl, None, || {
        let caps = [1u32, 2, 3];
        let inst = make_instance(&caps, &[(1, 7)]);
        let ledger = make_ledger(ctrl, &inst);
        // tallies[item] = (claims granted, charges by non-exempt, releases)
        let tallies: Mutex<[[u64; 3]; 3]> = Mutex::new([[0; 3]; 3]);
        let mut bodies: Vec<Box<dyn FnOnce() -> u64 + Send + '_>> = Vec::new();
        for tid in 0..4u64 {
            let ledger = &ledger;
            let tallies = &tallies;
            bodies.push(Box::new(move || {
                let mut rng = program_seed ^ (tid.wrapping_mul(0xA076_1D64_78BD_642F));
                let mut step = move || {
                    rng = rng
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (rng >> 33) as u32
                };
                let mut owned = [0u32; 3];
                let mut local = [[0u64; 3]; 3];
                for _ in 0..5 {
                    let item = (step() % 3) as usize;
                    // User 7 is exempt on item 1; everyone else is regular.
                    let user = if step() % 4 == 0 { 7 } else { tid as u32 };
                    match step() % 3 {
                        0 => {
                            if ledger.try_claim_for(ItemId(item as u32), UserId(user)) {
                                let exempt = item == 1 && user == 7;
                                if !exempt {
                                    owned[item] += 1;
                                    local[item][0] += 1;
                                }
                            }
                        }
                        1 => {
                            ledger.charge(ItemId(item as u32), UserId(user));
                            let exempt = item == 1 && user == 7;
                            if !exempt {
                                local[item][1] += 1;
                            }
                        }
                        _ => {
                            if owned[item] > 0 {
                                owned[item] -= 1;
                                local[item][2] += 1;
                                ledger.release(ItemId(item as u32));
                            }
                        }
                    }
                }
                let mut t = tallies.lock().unwrap_or_else(|e| e.into_inner());
                for i in 0..3 {
                    for k in 0..3 {
                        t[i][k] += local[i][k];
                    }
                }
                0u64
            }));
        }
        run_threads(ctrl, bodies);
        let t = tallies.lock().unwrap_or_else(|e| e.into_inner());
        for (i, row) in t.iter().enumerate() {
            let expected = row[0] + row[1] - row[2];
            let used = ledger.used(ItemId(i as u32)) as u64;
            if used != expected {
                ctrl.flag(format!(
                    "fuzz tally mismatch on item {i}: used {used}, expected {expected} \
                     (claims {}, charges {}, releases {})",
                    row[0], row[1], row[2]
                ));
            }
        }
    });
}

// ---------------------------------------------------------------------------
// The suite
// ---------------------------------------------------------------------------

/// What the explorer is expected to conclude about a scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Expect {
    /// Every explored schedule upholds the invariants.
    Pass,
    /// At least one schedule violates them (detector sanity).
    Violation,
}

/// One entry of the check-ledger suite.
pub struct Scenario {
    /// Display name.
    pub name: &'static str,
    /// Scheduled thread count.
    pub threads: usize,
    /// Expected verdict.
    pub expect: Expect,
    /// Run with every ordering demoted to `Relaxed` (the seeded mutant);
    /// such scenarios must be flagged, proving detector sensitivity.
    pub demote: bool,
    /// The body (one full execution under the prepared controller).
    pub body: &'static (dyn Fn(&Arc<Controller>) + Sync),
}

/// The full DFS suite, including the mutant sensitivity runs.
pub fn dfs_suite() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "claim_contention",
            threads: 2,
            expect: Expect::Pass,
            demote: false,
            body: &claim_contention,
        },
        Scenario {
            name: "claim_contention_3t",
            threads: 3,
            expect: Expect::Pass,
            demote: false,
            body: &claim_contention_3t,
        },
        Scenario {
            name: "claim_release",
            threads: 2,
            expect: Expect::Pass,
            demote: false,
            body: &claim_release,
        },
        Scenario {
            name: "exempt_claims",
            threads: 2,
            expect: Expect::Pass,
            demote: false,
            body: &exempt_claims,
        },
        Scenario {
            name: "visibility_chain",
            threads: 2,
            expect: Expect::Pass,
            demote: false,
            body: &visibility_chain,
        },
        Scenario {
            name: "publication_gate",
            threads: 2,
            expect: Expect::Pass,
            demote: false,
            body: &publication_gate,
        },
        Scenario {
            name: "held_slot_gated",
            threads: 2,
            expect: Expect::Pass,
            demote: false,
            body: &held_slot_gated,
        },
        Scenario {
            name: "window_commit_races_scarce_admit",
            threads: 2,
            expect: Expect::Pass,
            demote: false,
            body: &window_commit_races_scarce_admit,
        },
        Scenario {
            name: "speculative_claim_rollback",
            threads: 2,
            expect: Expect::Pass,
            demote: false,
            body: &speculative_claim_rollback,
        },
        Scenario {
            name: "window_migration_visibility",
            threads: 2,
            expect: Expect::Pass,
            demote: false,
            body: &window_migration_visibility,
        },
        Scenario {
            name: "window_migration_defect (detector sanity)",
            threads: 3,
            expect: Expect::Violation,
            demote: false,
            body: &window_migration_defect,
        },
        Scenario {
            name: "held_slot_racy (detector sanity)",
            threads: 2,
            expect: Expect::Violation,
            demote: false,
            body: &held_slot_racy,
        },
        Scenario {
            name: "release_underflow (detector sanity)",
            threads: 2,
            expect: Expect::Violation,
            demote: false,
            body: &release_underflow,
        },
        Scenario {
            name: "visibility_chain [Relaxed mutant]",
            threads: 2,
            expect: Expect::Violation,
            demote: true,
            body: &visibility_chain,
        },
        Scenario {
            name: "publication_gate [Relaxed mutant]",
            threads: 2,
            expect: Expect::Violation,
            demote: true,
            body: &publication_gate,
        },
    ]
}

/// Runs one scenario to its verdict. Returns `Err(report)` on gate failure.
pub fn run_scenario(s: &Scenario) -> Result<Exploration, String> {
    let exploration = explore_dfs(s.threads, s.demote, DFS_BUDGET, s.body);
    match (s.expect, &exploration.violation) {
        (Expect::Pass, None) if exploration.exhaustive => Ok(exploration),
        (Expect::Pass, None) => Err(format!(
            "{}: schedule space not exhausted within {} executions — shrink the scenario",
            s.name, exploration.executions
        )),
        (Expect::Pass, Some((violations, trace))) => Err(format!(
            "{}: violated after {} executions:\n  {}\n  schedule:\n    {}",
            s.name,
            exploration.executions,
            violations.join("\n  "),
            trace.join("\n    ")
        )),
        (Expect::Violation, Some(_)) => Ok(exploration),
        (Expect::Violation, None) => Err(format!(
            "{}: detector failed to flag the seeded defect in {} executions{}",
            s.name,
            exploration.executions,
            if exploration.exhaustive {
                " (exhaustive)"
            } else {
                ""
            }
        )),
    }
}

/// Runs the seeded random-schedule fuzz stage. Returns `Err` on violation.
pub fn run_fuzz(seed: u64) -> Result<usize, String> {
    let mut total = 0;
    for program in 0..8u64 {
        let program_seed = seed.wrapping_add(program.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let body = move |ctrl: &Arc<Controller>| fuzz_mixed(ctrl, program_seed);
        let exploration = explore_random(4, false, seed ^ program, FUZZ_ITERATIONS, &body);
        total += exploration.executions;
        if let Some((violations, trace)) = exploration.violation {
            return Err(format!(
                "fuzz program {program}: violated:\n  {}\n  schedule:\n    {}",
                violations.join("\n  "),
                trace.join("\n    ")
            ));
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sensitivity regression: demoting every ledger ordering to
    /// `Relaxed` must be flagged by the checker. A detector that accepts
    /// the weakened ledger proves nothing about the real one.
    #[test]
    fn relaxed_mutant_is_flagged() {
        for body in [
            &visibility_chain as &(dyn Fn(&Arc<Controller>) + Sync),
            &publication_gate,
        ] {
            let exploration = explore_dfs(2, true, DFS_BUDGET, body);
            assert!(
                exploration.violation.is_some(),
                "the Relaxed-demoted ledger must be flagged"
            );
        }
    }

    /// The real orderings pass the same scenarios exhaustively.
    #[test]
    fn real_orderings_pass_exhaustively() {
        for body in [
            &visibility_chain as &(dyn Fn(&Arc<Controller>) + Sync),
            &publication_gate,
            &claim_contention,
            &claim_release,
            &window_commit_races_scarce_admit,
            &speculative_claim_rollback,
            &window_migration_visibility,
        ] {
            let exploration = explore_dfs(2, false, DFS_BUDGET, body);
            assert!(exploration.violation.is_none(), "real orderings must pass");
            assert!(exploration.exhaustive, "2-thread scenarios must exhaust");
        }
    }

    /// Detector sanity: seeded defects (race, underflow) are found.
    #[test]
    fn seeded_defects_are_found() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let found = [
            (&held_slot_racy as &(dyn Fn(&Arc<Controller>) + Sync), 2),
            (&release_underflow, 2),
            (&window_migration_defect, 3),
        ]
        .map(|(body, threads)| {
            explore_dfs(threads, false, DFS_BUDGET, body)
                .violation
                .is_some()
        });
        std::panic::set_hook(prev);
        assert_eq!(found, [true, true, true], "seeded defect not found");
    }

    /// The full gating suite agrees with `cargo xtask check-ledger`.
    #[test]
    fn dfs_suite_passes() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let failures: Vec<String> = dfs_suite()
            .iter()
            .filter_map(|s| run_scenario(s).err())
            .collect();
        std::panic::set_hook(prev);
        assert!(failures.is_empty(), "{}", failures.join("\n"));
    }
}
