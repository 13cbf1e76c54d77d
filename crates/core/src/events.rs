//! Realized adoption events and residual-instance construction — the model
//! layer behind *dynamic* replanning.
//!
//! The paper's premise is that recommendation strategies should react as the
//! horizon unfolds: users adopt some of the displayed items and ignore the
//! rest, and the remaining plan should be re-optimised against what actually
//! happened instead of the original expectation. This module defines the
//! vocabulary for that feedback loop:
//!
//! * an [`AdoptionEvent`] records that item `i` was **displayed** to user `u`
//!   at time `τ` and whether the user adopted it ([`AdoptionOutcome`]);
//! * [`residual_instance`] conditions an instance on a realized prefix of
//!   events up to a frontier time `now`, producing a *new, smaller instance*
//!   over the remaining horizon `now+1 ..= T` that any planner can solve
//!   from scratch — or incrementally, as `revmax_serve::PlanSession` does.
//!
//! # Conditional semantics
//!
//! The residual instance folds the realized prefix into its primitive
//! probabilities and capacities so that the *standard* revenue model
//! (Definition 1/2, see [`mod@crate::revenue`]) evaluated on the residual
//! instance is exactly the original model conditioned on the observed
//! events:
//!
//! * **Adoptions close classes.** In Definition 1 a recommendation's
//!   competition factor `Π (1 − q)` over earlier same-class displays is the
//!   probability that the user adopted *none* of them — the model lets each
//!   user adopt at most one item per class. Conditioning on an observed
//!   adoption therefore zeroes every future same-class probability for that
//!   user; such candidate pairs are dropped from the residual instance.
//! * **Rejections lift the discount.** A rejected display contributes factor
//!   `1` instead of the expectation `1 − q` — we *know* the user did not
//!   adopt it — so no residual competition factor remains from the prefix.
//! * **Memory persists.** Displays decay but never vanish: a future triple
//!   `(u, i, t)` keeps the saturation factor
//!   `β_i^{Σ_τ 1/(t − τ)}` over the prefix display times `τ` of the class,
//!   regardless of outcome. Because the prefix factor depends on `t`, it is
//!   folded into the residual primitive probability per time step.
//! * **Within-suffix interactions need no translation.** Memory depends only
//!   on time *differences* and the residual time axis `t' = t − now`
//!   preserves them, so the residual instance's own memory/competition terms
//!   are already correct.
//! * **Capacity is pre-charged, prefix pairs are exempt.** Each item's
//!   residual capacity is its original capacity minus the distinct users it
//!   was already displayed to, and every displayed `(item, user)` pair is
//!   registered as an **exempt pair** on the residual instance
//!   ([`Instance::is_exempt`]): re-displaying the item to such a user
//!   consumed its single unit of *original* capacity already, so it is not
//!   charged a residual unit again. Pairs the original instance already
//!   exempts stay exempt and are never charged — their displays never
//!   counted against capacity. Residual capacity semantics are therefore
//!   **exact**, with or without original exemptions: a residual-valid plan
//!   is valid, and a valid continuation of the original plan is
//!   residual-valid.
//!
//! Prices simply shift: `p'(i, t') = p(i, now + t')`.
//!
//! # Incremental residual construction
//!
//! [`residual_advance`] builds the residual at frontier `now` from the
//! residual at the previous frontier, and is the only construction: a
//! from-scratch residual ([`residual_of_validated`]) is an advance from the
//! original instance at frontier 0. Only the **touched** (user, class)
//! groups — those with an event in the advance's batch — are rebuilt from
//! the original instance; every other candidate row is a pure left-shift
//! of the previous residual's row (memory depends only on absolute display
//! times, so the shifted values are bit-identical to a recomputation).
//! Capacities and exempt sets are the previous residual's, charged with the
//! batch alone. The property suites assert that every chain of advances
//! matches an independent builder-based construction bit for bit.

use crate::ids::{CandidateId, ClassId, ItemId, TimeStep, Triple, UserId};
use crate::instance::{ExemptSets, Instance};
use crate::revenue::ResidualDelta;
use crate::strategy::Strategy;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// What the user did with a displayed recommendation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdoptionOutcome {
    /// The user adopted (purchased) the item — revenue `p(i, τ)` realized.
    Adopted,
    /// The user saw the recommendation and did not adopt it.
    Rejected,
}

/// One realized display: item `i` was shown to user `u` at time `τ`, with the
/// observed [`AdoptionOutcome`].
///
/// Events are the authoritative record of what the storefront actually did —
/// a display that deviated from the plan is as valid an event as a planned
/// one (its memory and adoption consequences are identical).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdoptionEvent {
    /// The user the item was displayed to.
    pub user: UserId,
    /// The displayed item.
    pub item: ItemId,
    /// The (1-based) time step of the display.
    pub t: TimeStep,
    /// What the user did.
    pub outcome: AdoptionOutcome,
}

impl AdoptionEvent {
    /// An adoption event from raw indices (time is 1-based).
    pub fn adopted(user: u32, item: u32, t: u32) -> Self {
        AdoptionEvent {
            user: UserId(user),
            item: ItemId(item),
            t: TimeStep(t),
            outcome: AdoptionOutcome::Adopted,
        }
    }

    /// A rejection event from raw indices (time is 1-based).
    pub fn rejected(user: u32, item: u32, t: u32) -> Self {
        AdoptionEvent {
            user: UserId(user),
            item: ItemId(item),
            t: TimeStep(t),
            outcome: AdoptionOutcome::Rejected,
        }
    }

    /// The (user, item, time) display triple of this event.
    pub fn triple(&self) -> Triple {
        Triple {
            user: self.user,
            item: self.item,
            t: self.t,
        }
    }

    /// Whether the user adopted the item.
    pub fn is_adoption(&self) -> bool {
        self.outcome == AdoptionOutcome::Adopted
    }
}

impl fmt::Display for AdoptionEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self.outcome {
            AdoptionOutcome::Adopted => "adopted",
            AdoptionOutcome::Rejected => "rejected",
        };
        write!(f, "{} {} {} at {}", self.user, what, self.item, self.t)
    }
}

/// Why a batch of adoption events was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventError {
    /// User, item, or time lies outside the instance universe.
    OutOfRange {
        /// The offending display triple.
        event: Triple,
    },
    /// The event's time step lies after the realization frontier.
    AfterFrontier {
        /// The offending display triple.
        event: Triple,
        /// The frontier the events were validated against.
        frontier: u32,
    },
    /// The same (user, item, time) display was reported twice.
    DuplicateDisplay {
        /// The offending display triple.
        event: Triple,
    },
    /// More events share a (user, time) slot than the display limit allows.
    DisplayLimitExceeded {
        /// The user whose slot overflowed.
        user: UserId,
        /// The overflowing time step.
        t: TimeStep,
        /// The instance's display limit `k`.
        limit: u32,
    },
    /// A residual instance was requested at or past the end of the horizon.
    ExhaustedHorizon {
        /// The instance horizon `T`.
        horizon: u32,
    },
}

impl fmt::Display for EventError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventError::OutOfRange { event } => {
                write!(f, "event {event} lies outside the instance universe")
            }
            EventError::AfterFrontier { event, frontier } => {
                write!(f, "event {event} lies after the frontier t = {frontier}")
            }
            EventError::DuplicateDisplay { event } => {
                write!(f, "display {event} was reported twice")
            }
            EventError::DisplayLimitExceeded { user, t, limit } => {
                write!(f, "more than {limit} displays for {user} at {t}")
            }
            EventError::ExhaustedHorizon { horizon } => {
                write!(f, "no residual horizon remains past t = {horizon}")
            }
        }
    }
}

impl std::error::Error for EventError {}

/// Validates a batch of events against an instance and a realization
/// frontier: every event must lie inside the universe, at `t ≤ frontier`, be
/// reported once, and respect the display limit per (user, time) slot.
pub fn validate_events(
    inst: &Instance,
    events: &[AdoptionEvent],
    frontier: u32,
) -> Result<(), EventError> {
    let mut seen: HashSet<Triple> = HashSet::with_capacity(events.len());
    let mut per_slot: HashMap<(UserId, TimeStep), u32> = HashMap::new();
    for e in events {
        let z = e.triple();
        if !inst.in_range(z) {
            return Err(EventError::OutOfRange { event: z });
        }
        if z.t.value() > frontier {
            return Err(EventError::AfterFrontier { event: z, frontier });
        }
        if !seen.insert(z) {
            return Err(EventError::DuplicateDisplay { event: z });
        }
        let count = per_slot.entry((z.user, z.t)).or_insert(0);
        *count += 1;
        if *count > inst.display_limit() {
            return Err(EventError::DisplayLimitExceeded {
                user: z.user,
                t: z.t,
                limit: inst.display_limit(),
            });
        }
    }
    Ok(())
}

/// The revenue actually earned from a batch of events: `Σ p(i, τ)` over the
/// adopted displays.
pub fn realized_revenue(inst: &Instance, events: &[AdoptionEvent]) -> f64 {
    events
        .iter()
        .filter(|e| e.is_adoption())
        .map(|e| inst.price(e.item, e.t))
        .sum()
}

/// Shifts every triple of a residual-timeline strategy back to the original
/// timeline (`t' ↦ t' + offset`).
pub fn shift_strategy(strategy: &Strategy, offset: u32) -> Strategy {
    let mut shifted = Strategy::with_capacity(strategy.len());
    for z in strategy.iter() {
        shifted.insert(Triple {
            user: z.user,
            item: z.item,
            t: TimeStep(z.t.value() + offset),
        });
    }
    shifted
}

/// Conditions an instance on a realized prefix of events, producing the
/// residual instance over the remaining horizon `now+1 ..= T` (re-indexed to
/// `1 ..= T − now`), with exact capacity semantics. See the module docs.
///
/// `events` must all lie at `t ≤ now` and `now` must leave at least one
/// remaining time step (`now < T`). Candidate pairs whose future is entirely
/// dead — the user adopted an item of the class, or every remaining primitive
/// probability is zero — are dropped, so the residual instance shrinks as the
/// session progresses.
pub fn residual_instance(
    inst: &Instance,
    events: &[AdoptionEvent],
    now: u32,
) -> Result<Instance, EventError> {
    if now >= inst.horizon() {
        return Err(EventError::ExhaustedHorizon {
            horizon: inst.horizon(),
        });
    }
    validate_events(inst, events, now)?;
    Ok(residual_of_validated(inst, events, now))
}

/// [`residual_instance`] for callers that have already run
/// [`validate_events`] against `now < T`. Skips the `O(events)`
/// re-validation; the preconditions are checked only in debug builds.
///
/// This is the advance from the original instance at frontier 0, whose
/// batch is the whole history: see [`residual_advance`].
pub fn residual_of_validated(inst: &Instance, events: &[AdoptionEvent], now: u32) -> Instance {
    advance(inst, inst, events, now, now)
}

/// Fills `probs` with the residual primitive probabilities of `cand` (a
/// candidate of the **original** instance) at frontier `now`, where
/// `memory[idx]` is the prefix memory of the class at `t = now + idx + 1`.
/// Returns whether any entry is positive.
fn fill_residual_row(
    inst: &Instance,
    cand: CandidateId,
    now: u32,
    memory: &[f64],
    probs: &mut [f64],
) -> bool {
    let beta = inst.beta(inst.candidate_item(cand));
    let original = &inst.candidate_probs(cand)[now as usize..];
    let mut any_positive = false;
    for ((slot, &q), &m) in probs.iter_mut().zip(original).zip(memory) {
        if q == 0.0 {
            *slot = q; // a shifted row keeps the sign of a −0.0 too
            continue;
        }
        *slot = q * beta.powf(m);
        any_positive |= *slot > 0.0;
    }
    any_positive
}

/// Builds the residual instance at frontier `delta.now()` from `prev`, the
/// residual at the previous frontier `delta.now() − delta.step()`, in work
/// proportional to the advance's batch (the events at `t > delta.now() −
/// delta.step()`) rather than to the instance.
///
/// * Rows of the **touched** (user, class) groups — those with a batch
///   event — are rebuilt from the original instance, with each group's
///   adoption flag and saturation memory gathered in one hashing-free pass
///   over `events`.
/// * Every other row is `prev`'s row shifted left by [`ResidualDelta::step`]:
///   memory factors depend only on absolute display times, so a shifted row
///   equals a recomputed one bit for bit.
/// * Capacities and exempt sets are `prev`'s, charged with the batch's new
///   (item, user) pairs only.
///
/// The instance is assembled directly from these parts, without
/// [`crate::InstanceBuilder`] re-validation or sorting: `prev`'s CSR walk is
/// already in candidate order. Every chain of advances produces the same
/// instance, bit for bit, whatever its steps.
///
/// Preconditions (checked in debug builds): `events` is the cumulative
/// validated history at `delta.now() < T`, and `prev` is the residual of
/// `inst` at the previous frontier under the history without the batch —
/// or `inst` itself when that frontier is 0.
pub fn residual_advance(
    inst: &Instance,
    prev: &Instance,
    events: &[AdoptionEvent],
    delta: &ResidualDelta,
) -> Instance {
    advance(inst, prev, events, delta.now(), delta.step())
}

/// Per-class stamp of a class no touched group of the current user owns.
const UNTOUCHED: u32 = u32::MAX;

/// [`residual_advance`] on raw frontiers: from `prev` at `now − step` to
/// `now`.
fn advance(
    inst: &Instance,
    prev: &Instance,
    events: &[AdoptionEvent],
    now: u32,
    step: u32,
) -> Instance {
    let frontier = now - step;
    debug_assert!(now < inst.horizon(), "residual requires now < T");
    debug_assert!(validate_events(inst, events, now).is_ok());
    debug_assert_eq!(
        prev.horizon(),
        inst.horizon() - frontier,
        "prev is not the residual at frontier now - step"
    );
    let remaining = (inst.horizon() - now) as usize;
    let num_users = inst.num_users() as usize;
    // History before the frontier lies at t <= frontier (the precondition).
    let batch = events.iter().filter(|e| e.t.value() > frontier);

    // Touched groups, (user, class)-sorted; user `u` owns the groups
    // `group_start[u]..group_start[u + 1]`.
    let mut groups: Vec<(UserId, ClassId)> = batch
        .clone()
        .map(|e| (e.user, inst.class_of(e.item)))
        .collect();
    groups.sort_unstable();
    groups.dedup();
    let mut group_start = vec![0usize; num_users + 1];
    for (user, _) in &groups {
        group_start[user.index() + 1] += 1;
    }
    for u in 0..num_users {
        group_start[u + 1] += group_start[u];
    }
    let group_of = |user: UserId, class: ClassId| {
        let first = group_start[user.index()];
        groups[first..group_start[user.index() + 1]]
            .iter()
            .position(|&(_, c)| c == class)
            .map(|off| first + off)
    };

    // Prefix state of the touched groups, in one pass over the history:
    // whether the user adopted in the class, and the memory `Σ_τ 1/(t − τ)`
    // the class's display times `τ` leave at each remaining step `t`. The
    // terms are added in event order from zero, as summing one row's terms
    // does, so every bit of a rebuilt row is the same.
    let mut adopted = vec![false; groups.len()];
    let mut memory = vec![0.0f64; groups.len() * remaining];
    for e in events {
        if let Some(group) = group_of(e.user, inst.class_of(e.item)) {
            adopted[group] |= e.is_adoption();
            let tau = e.t.value();
            let steps = memory[group * remaining..][..remaining].iter_mut();
            for (t, m) in (now + 1..).zip(steps) {
                *m += 1.0 / (t - tau) as f64;
            }
        }
    }

    // Capacities and exempt sets: `prev`'s, charged with the batch. A pair
    // `prev` exempts (displayed before, or exempt in the original instance)
    // costs nothing; a new pair spends the unit of original capacity its
    // first display consumed and becomes exempt, so a re-display is never
    // charged again.
    let mut capacity: Vec<u32> = (0..inst.num_items())
        .map(|i| prev.capacity(ItemId(i)))
        .collect();
    let mut exempt: Vec<Vec<UserId>> = (0..inst.num_items())
        .map(|i| prev.exempt_users(ItemId(i)).to_vec())
        .collect();
    let mut any_exempt = prev.has_exemptions();
    for e in batch {
        let users = &mut exempt[e.item.index()];
        if let Err(pos) = users.binary_search(&e.user) {
            users.insert(pos, e.user);
            capacity[e.item.index()] = capacity[e.item.index()].saturating_sub(1);
            any_exempt = true;
        }
    }

    // Candidate rows, user by user in `prev`'s CSR order.
    let upper = prev.num_candidates();
    let mut cand_user: Vec<UserId> = Vec::with_capacity(upper);
    let mut cand_item: Vec<ItemId> = Vec::with_capacity(upper);
    let mut cand_rating: Vec<f64> = Vec::with_capacity(upper);
    let mut cand_prob: Vec<f64> = Vec::with_capacity(upper * remaining);
    let mut class_group = vec![UNTOUCHED; inst.num_classes() as usize];
    let prev_rows = prev.user_cand_offsets();
    let orig_rows = inst.user_cand_offsets();
    for u in 0..num_users {
        let user = UserId(u as u32);
        let touched = group_start[u]..group_start[u + 1];
        for g in touched.clone() {
            class_group[groups[g].1.index()] = g as u32;
        }
        let mut orig = orig_rows[u];
        for c in prev_rows[u]..prev_rows[u + 1] {
            let prev_cand = CandidateId(c);
            let item = prev.candidate_item(prev_cand);
            let group = if touched.is_empty() {
                UNTOUCHED
            } else {
                class_group[inst.class_of(item).index()]
            };
            let start = cand_prob.len();
            let live = if group == UNTOUCHED {
                // Memory depends only on absolute display times, so the
                // shifted row is bit-identical to a rebuilt one.
                let row = &prev.candidate_probs(prev_cand)[step as usize..];
                cand_prob.extend_from_slice(row);
                row.iter().any(|&q| q > 0.0)
            } else if adopted[group as usize] {
                continue; // the class is closed for this user
            } else {
                // `prev`'s candidates are a subsequence of the original's
                // item-sorted ones, so this walk only moves forward.
                while inst.candidate_item(CandidateId(orig)) < item {
                    orig += 1;
                }
                assert_eq!(
                    inst.candidate_item(CandidateId(orig)),
                    item,
                    "prev residual candidates descend from the original instance"
                );
                let g = group as usize;
                cand_prob.resize(start + remaining, 0.0);
                fill_residual_row(
                    inst,
                    CandidateId(orig),
                    now,
                    &memory[g * remaining..][..remaining],
                    &mut cand_prob[start..],
                )
            };
            if live {
                cand_user.push(user);
                cand_item.push(item);
                cand_rating.push(prev.candidate_rating(prev_cand));
            } else {
                cand_prob.truncate(start); // entirely dead: drop the pair
            }
        }
        for g in touched {
            class_group[groups[g].1.index()] = UNTOUCHED;
        }
    }

    Instance::from_residual_parts(
        inst,
        now,
        remaining as u32,
        capacity,
        ExemptSets {
            per_item: exempt,
            any: any_exempt,
        },
        cand_user,
        cand_item,
        cand_prob,
        cand_rating,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use crate::revenue::{dynamic_probabilities, revenue};
    use std::collections::HashMap;

    /// Two users, three items (0 and 1 share a class), horizon 3.
    fn instance() -> Instance {
        let mut b = InstanceBuilder::new(2, 3, 3);
        b.display_limit(1)
            .item_class(0, 0)
            .item_class(1, 0)
            .item_class(2, 1)
            .beta(0, 0.4)
            .beta(1, 0.7)
            .beta(2, 0.9)
            .capacity(0, 1)
            .capacity(1, 2)
            .capacity(2, 2)
            .prices(0, &[30.0, 24.0, 27.0])
            .prices(1, &[10.0, 12.0, 9.0])
            .prices(2, &[15.0, 15.0, 14.0])
            .candidate(0, 0, &[0.4, 0.6, 0.5], 4.5)
            .candidate(0, 1, &[0.7, 0.5, 0.8], 3.5)
            .candidate(0, 2, &[0.3, 0.3, 0.4], 4.0)
            .candidate(1, 0, &[0.5, 0.55, 0.45], 4.8)
            .candidate(1, 2, &[0.6, 0.2, 0.3], 2.5);
        b.build().unwrap()
    }

    #[test]
    fn validation_catches_bad_batches() {
        let inst = instance();
        let ok = [
            AdoptionEvent::adopted(0, 0, 1),
            AdoptionEvent::rejected(1, 2, 1),
        ];
        assert!(validate_events(&inst, &ok, 1).is_ok());

        let out_of_range = [AdoptionEvent::adopted(5, 0, 1)];
        assert!(matches!(
            validate_events(&inst, &out_of_range, 1),
            Err(EventError::OutOfRange { .. })
        ));

        let late = [AdoptionEvent::adopted(0, 0, 2)];
        assert!(matches!(
            validate_events(&inst, &late, 1),
            Err(EventError::AfterFrontier { frontier: 1, .. })
        ));

        let dup = [
            AdoptionEvent::adopted(0, 0, 1),
            AdoptionEvent::rejected(0, 0, 1),
        ];
        assert!(matches!(
            validate_events(&inst, &dup, 1),
            Err(EventError::DuplicateDisplay { .. })
        ));

        let overfull = [
            AdoptionEvent::rejected(0, 0, 1),
            AdoptionEvent::rejected(0, 2, 1),
        ];
        assert!(matches!(
            validate_events(&inst, &overfull, 1),
            Err(EventError::DisplayLimitExceeded { limit: 1, .. })
        ));
    }

    #[test]
    fn realized_revenue_sums_adopted_prices() {
        let inst = instance();
        let events = [
            AdoptionEvent::adopted(0, 0, 1),  // 30.0
            AdoptionEvent::rejected(1, 2, 1), // rejected: nothing
            AdoptionEvent::adopted(1, 0, 2),  // 24.0
        ];
        assert!((realized_revenue(&inst, &events) - 54.0).abs() < 1e-12);
        assert!(realized_revenue(&inst, &[]).abs() < 1e-12);
    }

    #[test]
    fn residual_shifts_prices_and_horizon() {
        let inst = instance();
        let residual = residual_instance(&inst, &[], 1).unwrap();
        assert_eq!(residual.horizon(), 2);
        assert_eq!(residual.num_users(), 2);
        assert_eq!(residual.price_series(ItemId(0)), &[24.0, 27.0]);
        assert_eq!(residual.price_series(ItemId(1)), &[12.0, 9.0]);
        // No events: probabilities are just the tail of the original rows.
        let c = residual.candidate_for(UserId(0), ItemId(0)).unwrap();
        assert_eq!(residual.candidate_probs(c), &[0.6, 0.5]);
    }

    #[test]
    fn adoption_closes_the_class_for_the_user_only() {
        let inst = instance();
        let events = [AdoptionEvent::adopted(0, 0, 1)];
        let residual = residual_instance(&inst, &events, 1).unwrap();
        // User 0 adopted class {0, 1}: both same-class pairs are gone …
        assert!(residual.candidate_for(UserId(0), ItemId(0)).is_none());
        assert!(residual.candidate_for(UserId(0), ItemId(1)).is_none());
        // … the other class and the other user are untouched.
        assert!(residual.candidate_for(UserId(0), ItemId(2)).is_some());
        assert!(residual.candidate_for(UserId(1), ItemId(0)).is_some());
    }

    #[test]
    fn rejection_keeps_the_pair_with_memory_discount() {
        let inst = instance();
        let events = [AdoptionEvent::rejected(0, 0, 1)];
        let residual = residual_instance(&inst, &events, 1).unwrap();
        // Residual t' = 1 is original t = 2: memory 1/(2-1) = 1 on class 0.
        let c00 = residual.candidate_for(UserId(0), ItemId(0)).unwrap();
        let beta0 = 0.4f64;
        assert!((residual.candidate_prob(c00, TimeStep(1)) - 0.6 * beta0.powf(1.0)).abs() < 1e-12);
        // Residual t' = 2 is original t = 3: memory 1/(3-1) = 0.5.
        assert!((residual.candidate_prob(c00, TimeStep(2)) - 0.5 * beta0.powf(0.5)).abs() < 1e-12);
        // Same-class sibling item 1 carries the memory with its own beta.
        let c01 = residual.candidate_for(UserId(0), ItemId(1)).unwrap();
        let beta1 = 0.7f64;
        assert!((residual.candidate_prob(c01, TimeStep(1)) - 0.5 * beta1.powf(1.0)).abs() < 1e-12);
        // The other class has no memory from the display.
        let c02 = residual.candidate_for(UserId(0), ItemId(2)).unwrap();
        assert_eq!(residual.candidate_probs(c02), &[0.3, 0.4]);
    }

    #[test]
    fn capacity_is_pre_charged_per_distinct_user() {
        let inst = instance();
        let events = [
            AdoptionEvent::rejected(0, 0, 1),
            AdoptionEvent::rejected(1, 2, 1),
            AdoptionEvent::rejected(1, 0, 2), // second distinct user of item 0
        ];
        let residual = residual_instance(&inst, &events, 2).unwrap();
        // Item 0 had capacity 1 and two distinct users displayed: floor at 0.
        assert_eq!(residual.capacity(ItemId(0)), 0);
        // Item 2 had capacity 2 and one user displayed.
        assert_eq!(residual.capacity(ItemId(2)), 1);
        // Item 1 untouched.
        assert_eq!(residual.capacity(ItemId(1)), 2);
    }

    #[test]
    fn residual_model_matches_hand_conditioning() {
        // One user, one item, beta saturation, horizon 3. Display at t = 1,
        // rejected. The conditional probability of adopting at t = 3 given a
        // plan that also displays at t = 2 must come out of the residual
        // instance's *standard* dynamic-probability machinery.
        let mut b = InstanceBuilder::new(1, 1, 3);
        let beta = 0.5f64;
        b.display_limit(1)
            .capacity(0, 1)
            .beta(0, beta)
            .prices(0, &[1.0, 1.0, 1.0])
            .candidate(0, 0, &[0.5, 0.4, 0.3], 0.0);
        let inst = b.build().unwrap();
        let events = [AdoptionEvent::rejected(0, 0, 1)];
        let residual = residual_instance(&inst, &events, 1).unwrap();

        // Residual primitive probabilities fold the prefix memory:
        // q'(1) = 0.4 · β^{1/(2−1)}, q'(2) = 0.3 · β^{1/(3−1)}.
        let c = residual.candidate_for(UserId(0), ItemId(0)).unwrap();
        let q1 = 0.4 * beta.powf(1.0);
        let q2 = 0.3 * beta.powf(0.5);
        assert!((residual.candidate_prob(c, TimeStep(1)) - q1).abs() < 1e-12);
        assert!((residual.candidate_prob(c, TimeStep(2)) - q2).abs() < 1e-12);

        // Plan both remaining displays: the later one picks up the residual
        // memory 1/(2'−1') = 1 and the competition factor (1 − q'(1)).
        let s: Strategy = vec![Triple::new(0, 0, 1), Triple::new(0, 0, 2)]
            .into_iter()
            .collect();
        let probs: HashMap<Triple, f64> =
            dynamic_probabilities(&residual, &s).into_iter().collect();
        assert!((probs[&Triple::new(0, 0, 1)] - q1).abs() < 1e-12);
        let expected_t2 = q2 * beta.powf(1.0) * (1.0 - q1);
        assert!((probs[&Triple::new(0, 0, 2)] - expected_t2).abs() < 1e-12);
        assert!((revenue(&residual, &s) - (q1 + expected_t2)).abs() < 1e-12);
    }

    #[test]
    fn residual_registers_prefix_pairs_as_exempt() {
        let inst = instance();
        let events = [
            AdoptionEvent::rejected(0, 0, 1),
            AdoptionEvent::rejected(1, 2, 1),
            AdoptionEvent::rejected(1, 0, 2),
        ];
        let exact = residual_instance(&inst, &events, 2).unwrap();
        // Pre-charged capacities …
        assert_eq!(exact.capacity(ItemId(0)), 0);
        assert_eq!(exact.capacity(ItemId(2)), 1);
        // … and the displayed pairs are exempt, so re-displays are free.
        assert!(exact.has_exemptions());
        assert!(exact.is_exempt(ItemId(0), UserId(0)));
        assert!(exact.is_exempt(ItemId(0), UserId(1)));
        assert!(exact.is_exempt(ItemId(2), UserId(1)));
        assert!(!exact.is_exempt(ItemId(2), UserId(0)));
        assert!(!exact.is_exempt(ItemId(1), UserId(0)));
    }

    #[test]
    fn exempt_residual_accepts_re_displays_at_capacity() {
        // Item 0 has capacity 1 and was displayed to user 0: the residual
        // sits at capacity 0, yet a re-display to user 0 must validate.
        let inst = instance();
        let events = [AdoptionEvent::rejected(0, 0, 1)];
        let residual = residual_instance(&inst, &events, 1).unwrap();
        assert_eq!(residual.capacity(ItemId(0)), 0);
        let redisplay: Strategy = vec![Triple::new(0, 0, 1)].into_iter().collect();
        assert!(redisplay.validate(&residual).is_ok());
        // A *new* user is still blocked.
        let fresh: Strategy = vec![Triple::new(1, 0, 1)].into_iter().collect();
        assert!(fresh.validate(&residual).is_err());
    }

    #[test]
    fn original_exemptions_survive_the_residual() {
        // One item of capacity 1, two users, user 0 exempt on the item.
        let mut b = InstanceBuilder::new(2, 1, 3);
        b.capacity(0, 1)
            .exempt_user(0, 0)
            .constant_price(0, 5.0)
            .candidate(0, 0, &[0.5, 0.5, 0.5], 0.0)
            .candidate(1, 0, &[0.5, 0.5, 0.5], 0.0);
        let inst = b.build().unwrap();

        // No events: the exemption carries over, capacity is untouched.
        let quiet = residual_of_validated(&inst, &[], 1);
        assert_eq!(quiet.exempt_users(ItemId(0)), &[UserId(0)]);
        assert_eq!(quiet.capacity(ItemId(0)), 1);

        // User 0's display never counted against capacity, so user 1 still
        // fits after it.
        let shown = residual_of_validated(&inst, &[AdoptionEvent::rejected(0, 0, 1)], 1);
        assert_eq!(shown.exempt_users(ItemId(0)), &[UserId(0)]);
        assert_eq!(shown.capacity(ItemId(0)), 1);
        let both: Strategy = vec![Triple::new(0, 0, 1), Triple::new(1, 0, 1)]
            .into_iter()
            .collect();
        assert!(both.validate(&shown).is_ok());

        // A non-exempt display is charged and becomes exempt.
        let charged = residual_of_validated(&inst, &[AdoptionEvent::rejected(1, 0, 1)], 1);
        assert_eq!(charged.exempt_users(ItemId(0)), &[UserId(0), UserId(1)]);
        assert_eq!(charged.capacity(ItemId(0)), 0);
    }

    #[test]
    fn all_zero_pairs_are_dropped() {
        let mut b = InstanceBuilder::new(1, 2, 2);
        b.display_limit(1)
            .constant_price(0, 5.0)
            .constant_price(1, 5.0)
            .candidate(0, 0, &[0.5, 0.0], 0.0) // dead after t = 1
            .candidate(0, 1, &[0.2, 0.3], 0.0);
        let inst = b.build().unwrap();
        let residual = residual_instance(&inst, &[], 1).unwrap();
        assert!(residual.candidate_for(UserId(0), ItemId(0)).is_none());
        assert!(residual.candidate_for(UserId(0), ItemId(1)).is_some());
    }

    #[test]
    fn exhausted_horizon_is_rejected() {
        let inst = instance();
        assert!(matches!(
            residual_instance(&inst, &[], 3),
            Err(EventError::ExhaustedHorizon { horizon: 3 })
        ));
        assert!(matches!(
            residual_instance(&inst, &[], 7),
            Err(EventError::ExhaustedHorizon { .. })
        ));
    }

    #[test]
    fn shift_strategy_moves_every_triple() {
        let s: Strategy = vec![Triple::new(0, 1, 1), Triple::new(1, 2, 2)]
            .into_iter()
            .collect();
        let shifted = shift_strategy(&s, 3);
        assert_eq!(shifted.len(), 2);
        assert!(shifted.contains(Triple::new(0, 1, 4)));
        assert!(shifted.contains(Triple::new(1, 2, 5)));
    }

    #[test]
    fn event_display_formats() {
        assert_eq!(
            AdoptionEvent::adopted(1, 2, 3).to_string(),
            "u1 adopted i2 at t3"
        );
        assert_eq!(
            AdoptionEvent::rejected(0, 0, 1).to_string(),
            "u0 rejected i0 at t1"
        );
    }
}
