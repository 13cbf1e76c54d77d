//! The `cargo xtask check-ledger` scenario suite.
//!
//! Every scenario instantiates the **production** ledger type
//! (`SharedCapacityLedgerIn`) at the instrumented cell and runs real ledger
//! / `revmax_algorithms::protocol` code under the schedule explorer:
//!
//! * **pass scenarios** assert a safety invariant over *every* schedule
//!   (DFS to exhaustion) or a large seeded sample (random mode);
//! * **violation scenarios** are detector-sanity checks: a deliberately
//!   broken protocol (unsynchronised held-slot publication, a demand
//!   retired twice, an abundance check that reads its cells in the wrong
//!   order) that the checker must flag — if it cannot, the gate fails,
//!   because a detector that cannot detect proves nothing;
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

/// A tiny instance with explicit per-item candidate lists: `items[i] =
/// (capacity, candidate users)`, so an item's initial demand is its
/// non-exempt candidate count. `exempt` lists `(item, user)` pairs exempt
/// from capacity accounting.
fn make_instance(items: &[(u32, &[u32])], exempt: &[(u32, u32)]) -> Instance {
    let users = 8;
    let mut b = InstanceBuilder::new(users, items.len() as u32, 1);
    b.display_limit(1);
    for (i, &(cap, cands)) in items.iter().enumerate() {
        b.capacity(i as u32, cap).constant_price(i as u32, 1.0);
        for &user in cands {
            b.candidate(user, i as u32, &[0.5], 0.0);
        }
    }
    for &(item, user) in exempt {
        b.exempt_user(item, user);
    }
    b.build().expect("scenario instance is valid")
}

/// Builds the instrumented ledger and registers per-item capacities with
/// the controller (the `used` cells are registered first, in item order).
fn make_ledger(ctrl: &Arc<Controller>, inst: &Instance) -> Ledger {
    let ledger: Ledger = SharedCapacityLedgerIn::new(inst);
    for i in 0..inst.num_items() {
        ctrl.set_cap(i as usize, inst.capacity(ItemId(i)));
    }
    ledger
}

// ---------------------------------------------------------------------------
// Scenario bodies
// ---------------------------------------------------------------------------

/// Two threads race one capacity unit; exactly one claim is ever granted.
fn claim_contention(ctrl: &Arc<Controller>) {
    with_ambient(ctrl, None, || {
        let inst = make_instance(&[(1, &[0, 1])], &[]);
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
        let inst = make_instance(&[(2, &[0, 1, 2])], &[]);
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

/// Exempt pairs are always granted, never consume capacity, and never
/// block the one real capacity unit.
fn exempt_claims(ctrl: &Arc<Controller>) {
    with_ambient(ctrl, None, || {
        let inst = make_instance(&[(1, &[0, 1])], &[(0, 7)]);
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
/// observe the claim of item A that happened-before it. Passes with the
/// real orderings; the `Relaxed` mutant must be flagged here.
fn visibility_chain(ctrl: &Arc<Controller>) {
    with_ambient(ctrl, None, || {
        let inst = make_instance(&[(1, &[0]), (1, &[0])], &[]);
        let ledger = make_ledger(ctrl, &inst);
        let results = run_threads(
            ctrl,
            vec![
                Box::new(|| {
                    ledger.try_claim_for(ItemId(0), UserId(0));
                    ledger.try_claim_for(ItemId(1), UserId(0));
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
            ctrl.flag("visibility chain: item 1 observed full but the claim of item 0 that happened-before it is not visible".into());
        }
    });
}

/// Claim-gated publication: a plain held-slot written only by the winner of
/// the item's single capacity unit is race-free, and the published value is
/// the winner's.
fn held_slot_gated(ctrl: &Arc<Controller>) {
    with_ambient(ctrl, None, || {
        let inst = make_instance(&[(1, &[0, 1])], &[]);
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

/// Publication through the ledger: data plain-written before a claim is
/// visible (and race-free) to a thread that observed the claim. Passes
/// with the real orderings; the `Relaxed` mutant must be flagged here.
fn publication_gate(ctrl: &Arc<Controller>) {
    with_ambient(ctrl, None, || {
        let inst = make_instance(&[(1, &[0])], &[]);
        let ledger = make_ledger(ctrl, &inst);
        let data = PlainVar::new(0);
        let results = run_threads(
            ctrl,
            vec![
                Box::new(|| {
                    data.write(42);
                    ledger.try_claim_for(ItemId(0), UserId(0));
                    0u64
                }),
                Box::new(|| {
                    if ledger.used(ItemId(0)) >= 1 {
                        data.read() as u64
                    } else {
                        42 // did not observe the claim: vacuously fine
                    }
                }),
            ],
        );
        if results[1] != 42 {
            ctrl.flag(format!(
                "publication gate: observed claim but read data {}",
                results[1]
            ));
        }
    });
}

/// Scarcity window: the coordinator admits a scarce-window proposal by a
/// plain claim while another shard fast-commits an abundant item. The two
/// touch different cells, so every schedule ends with the admission
/// granted, the fast commit granted, and both demands retired.
fn window_commit_races_scarce_admit(ctrl: &Arc<Controller>) {
    with_ambient(ctrl, None, || {
        // item 0: cap 2, demand 3 — scarce. item 1: cap 1, demand 1 — abundant.
        let inst = make_instance(&[(2, &[0, 1, 2]), (1, &[3])], &[]);
        let ledger = make_ledger(ctrl, &inst);
        let results = run_threads(
            ctrl,
            vec![
                // A shard free-runs its abundant-item move.
                Box::new(|| {
                    let mut counted = false;
                    if protocol::claim_blocked(&ledger, counted, ItemId(1), UserId(3)) {
                        return 9; // full on an empty item: impossible
                    }
                    if ledger.is_scarce(ItemId(1)) {
                        return 8; // demand 1 <= cap 1: abundant by construction
                    }
                    protocol::fast_commit_claim(&ledger, &mut counted, ItemId(1), UserId(3)) as u64
                }),
                // The coordinator admits the parked proposal of user 0.
                Box::new(|| protocol::admit_claim(&ledger, ItemId(0), UserId(0)) as u64),
            ],
        );
        if results != [1, 1] {
            ctrl.flag(format!(
                "fast commit and scarce admission returned {results:?} (expected both granted)"
            ));
        }
        let (used0, d0) = (ledger.used(ItemId(0)), ledger.demand(ItemId(0)));
        let (used1, d1) = (ledger.used(ItemId(1)), ledger.demand(ItemId(1)));
        if used0 != 1 || d0 != 2 || used1 != 1 || d1 != 0 {
            ctrl.flag(format!(
                "post-admit state: item0 used {used0}/demand {d0}, item1 used {used1}/demand {d1}"
            ));
        }
    });
}

/// Scarcity window, fact 1 of `docs/concurrency.md`: abundance is sticky.
/// Item 0 has cap 2 and three candidate users, so it starts scarce. One
/// thread retires user 2's demand (the pair dies), which turns the item
/// abundant; two shards, for users 0 and 1, each test `is_scarce` and,
/// when the item is abundant, fast-commit. An abundant verdict followed by
/// a denied claim is a violation. A shard that saw the item scarce parks,
/// and the coordinator admits it at the barrier (after the join), which
/// must be granted too: the two live pairs fit the capacity.
fn abundant_claims_never_fail(ctrl: &Arc<Controller>) {
    with_ambient(ctrl, None, || {
        let inst = make_instance(&[(2, &[0, 1, 2])], &[]);
        let ledger = make_ledger(ctrl, &inst);
        let shard = |user: u32| {
            let ledger = &ledger;
            move || {
                if ledger.is_scarce(ItemId(0)) {
                    return 0u64; // parks for the coordinator
                }
                let mut counted = false;
                if protocol::fast_commit_claim(ledger, &mut counted, ItemId(0), UserId(user)) {
                    1
                } else {
                    2
                }
            }
        };
        let results = run_threads(
            ctrl,
            vec![
                Box::new(shard(0)),
                Box::new(shard(1)),
                Box::new(|| {
                    protocol::retire_candidate(&ledger, ItemId(0), UserId(2));
                    0u64
                }),
            ],
        );
        for (user, &r) in results[..2].iter().enumerate() {
            if r == 2 {
                ctrl.flag(format!(
                    "user {user}: abundant verdict followed by a denied fast claim"
                ));
            }
            if r == 0 && !protocol::admit_claim(&ledger, ItemId(0), UserId(user as u32)) {
                ctrl.flag(format!("user {user}: barrier admission denied"));
            }
        }
        let (used, demand) = (ledger.used(ItemId(0)), ledger.demand(ItemId(0)));
        if used != 2 || demand != 0 {
            ctrl.flag(format!(
                "abundance settle: used {used}, demand {demand} (expected 2/0)"
            ));
        }
    });
}

/// Scarcity window: the read order of `is_scarce` under a racing commit.
/// Item 0 has cap 1 and two candidate users, so it is scarce by exactly one
/// unit; the coordinator admits user 1 (claim, then retire) while the
/// shard of user 0 checks for abundance and, if it sees it, fast-commits.
/// `is_scarce` reads `demand` before `used`, so it never sees abundance
/// here. With `reversed`, the check reads `used` first: it can pair the
/// count from before the claim with the demand from after the retirement,
/// see abundance that never held, and have its fast claim denied.
fn scarce_check_race(ctrl: &Arc<Controller>, reversed: bool) {
    with_ambient(ctrl, None, || {
        let inst = make_instance(&[(1, &[0, 1])], &[]);
        let ledger = make_ledger(ctrl, &inst);
        let results = run_threads(
            ctrl,
            vec![
                Box::new(|| {
                    let scarce = if reversed {
                        let used = ledger.used(ItemId(0));
                        ledger.demand(ItemId(0)) > ledger.capacity(ItemId(0)).saturating_sub(used)
                    } else {
                        ledger.is_scarce(ItemId(0))
                    };
                    if scarce {
                        return 0u64; // parks
                    }
                    let mut counted = false;
                    protocol::fast_commit_claim(&ledger, &mut counted, ItemId(0), UserId(0)) as u64
                        + 1
                }),
                Box::new(|| protocol::admit_claim(&ledger, ItemId(0), UserId(1)) as u64),
            ],
        );
        if results[0] == 1 {
            ctrl.flag("abundant verdict followed by a denied fast claim".into());
        }
    });
}

/// [`scarce_check_race`] with `is_scarce` itself.
fn scarce_check_races_admit(ctrl: &Arc<Controller>) {
    scarce_check_race(ctrl, false);
}

/// DETECTOR SANITY (expected violation): [`scarce_check_race`] with the
/// abundance check's reads reversed.
fn reversed_scarce_check(ctrl: &Arc<Controller>) {
    scarce_check_race(ctrl, true);
}

/// DETECTOR SANITY (expected violation): both shards publish their held
/// move into the same plain slot without arbitration — a data race the
/// checker must find.
fn held_slot_racy(ctrl: &Arc<Controller>) {
    with_ambient(ctrl, None, || {
        let inst = make_instance(&[(2, &[0, 1])], &[]);
        let ledger = make_ledger(ctrl, &inst);
        let slot = PlainVar::new(0);
        let body = |user: u32| {
            let ledger = &ledger;
            let slot = &slot;
            move || {
                slot.write(user + 1);
                ledger.try_claim_for(ItemId(0), UserId(user));
                0u64
            }
        };
        run_threads(ctrl, vec![Box::new(body(0)), Box::new(body(1))]);
    });
}

/// DETECTOR SANITY (expected violation): a pair that commits and then also
/// dies retires its demand twice; the second retirement underflows the
/// item's one unit of demand, and the model must flag it.
fn demand_retired_twice(ctrl: &Arc<Controller>) {
    with_ambient(ctrl, None, || {
        let inst = make_instance(&[(1, &[0])], &[]);
        let ledger = make_ledger(ctrl, &inst);
        run_threads(
            ctrl,
            vec![
                Box::new(|| {
                    let mut counted = false;
                    protocol::fast_commit_claim(&ledger, &mut counted, ItemId(0), UserId(0)) as u64
                }),
                Box::new(|| {
                    protocol::retire_candidate(&ledger, ItemId(0), UserId(0));
                    0u64
                }),
            ],
        );
    });
}

/// Random-schedule fuzz over larger thread/item counts: mixed claim and
/// demand-retirement programs; final `used` and `demand` must match the
/// exemption-aware tally of what each thread actually did.
fn fuzz_mixed(ctrl: &Arc<Controller>, program_seed: u64) {
    with_ambient(ctrl, None, || {
        // Three items with caps 1, 2, 3; users 0..4 are candidates of
        // every item, and user 7 is exempt on item 1.
        let users: &[u32] = &[0, 1, 2, 3];
        let inst = make_instance(&[(1, users), (2, users), (3, users)], &[(1, 7)]);
        let ledger = make_ledger(ctrl, &inst);
        // tallies[item] = (non-exempt claims granted, demands retired)
        let tallies: Mutex<[[u64; 2]; 3]> = Mutex::new([[0; 2]; 3]);
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
                let mut retired = [false; 3];
                let mut local = [[0u64; 2]; 3];
                for _ in 0..5 {
                    let item = (step() % 3) as usize;
                    if step() % 2 == 0 {
                        // User 7 is exempt on item 1; everyone else is regular.
                        let user = if step() % 4 == 0 { 7 } else { tid as u32 };
                        let exempt = item == 1 && user == 7;
                        if ledger.try_claim_for(ItemId(item as u32), UserId(user)) && !exempt {
                            local[item][0] += 1;
                        }
                    } else if !retired[item] {
                        // Each thread retires its own pair at most once.
                        retired[item] = true;
                        local[item][1] += 1;
                        ledger.retire_demand(ItemId(item as u32), UserId(tid as u32));
                    }
                }
                let mut t = tallies.lock().unwrap_or_else(|e| e.into_inner());
                for i in 0..3 {
                    for k in 0..2 {
                        t[i][k] += local[i][k];
                    }
                }
                0u64
            }));
        }
        run_threads(ctrl, bodies);
        let t = tallies.lock().unwrap_or_else(|e| e.into_inner());
        for (i, row) in t.iter().enumerate() {
            let used = ledger.used(ItemId(i as u32)) as u64;
            let demand = ledger.demand(ItemId(i as u32)) as u64;
            if used != row[0] || demand != users.len() as u64 - row[1] {
                ctrl.flag(format!(
                    "fuzz tally mismatch on item {i}: used {used}, demand {demand} \
                     (claims {}, retirements {})",
                    row[0], row[1]
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
    let pass = |name, threads, body| Scenario {
        name,
        threads,
        expect: Expect::Pass,
        demote: false,
        body,
    };
    // Detector sanity (a seeded defect) and `Relaxed` mutants run on two
    // threads and must be flagged.
    let flagged = |name, demote, body| Scenario {
        name,
        threads: 2,
        expect: Expect::Violation,
        demote,
        body,
    };
    let (sanity, mutant) = (false, true);
    vec![
        pass("claim_contention", 2, &claim_contention),
        pass("claim_contention_3t", 3, &claim_contention_3t),
        pass("exempt_claims", 2, &exempt_claims),
        pass("visibility_chain", 2, &visibility_chain),
        pass("publication_gate", 2, &publication_gate),
        pass("held_slot_gated", 2, &held_slot_gated),
        pass(
            "window_commit_races_scarce_admit",
            2,
            &window_commit_races_scarce_admit,
        ),
        pass("abundant_claims_never_fail", 3, &abundant_claims_never_fail),
        pass("scarce_check_races_admit", 2, &scarce_check_races_admit),
        flagged(
            "reversed_scarce_check (detector sanity)",
            sanity,
            &reversed_scarce_check,
        ),
        flagged("held_slot_racy (detector sanity)", sanity, &held_slot_racy),
        flagged(
            "demand_retired_twice (detector sanity)",
            sanity,
            &demand_retired_twice,
        ),
        flagged(
            "visibility_chain [Relaxed mutant]",
            mutant,
            &visibility_chain,
        ),
        flagged(
            "publication_gate [Relaxed mutant]",
            mutant,
            &publication_gate,
        ),
        flagged(
            "scarce_check_races_admit [Relaxed mutant]",
            mutant,
            &scarce_check_races_admit,
        ),
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
            &scarce_check_races_admit,
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
            &window_commit_races_scarce_admit,
            &scarce_check_races_admit,
        ] {
            let exploration = explore_dfs(2, false, DFS_BUDGET, body);
            assert!(exploration.violation.is_none(), "real orderings must pass");
            assert!(exploration.exhaustive, "2-thread scenarios must exhaust");
        }
    }

    /// Detector sanity: seeded defects (race, underflow, read order) are
    /// found.
    #[test]
    fn seeded_defects_are_found() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let found = [
            &held_slot_racy as &(dyn Fn(&Arc<Controller>) + Sync),
            &demand_retired_twice,
            &reversed_scarce_check,
        ]
        .map(|body| explore_dfs(2, false, DFS_BUDGET, body).violation.is_some());
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
