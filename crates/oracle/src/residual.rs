//! The builder-based residual construction: the reference that every chain
//! of `revmax_core::residual_advance` calls must match bit for bit.
//!
//! It conditions the original instance on the whole history at once,
//! hashing the prefix state per (user, class) group and feeding every
//! surviving row through [`InstanceBuilder`] (validation, sorting, class
//! densification), so it shares nothing with the product's advance beyond
//! the instance type. Its row fill repeats the product's expression in the
//! same order: bit-identical rows are the claim under test.

use revmax_core::{
    validate_events, AdoptionEvent, CandidateId, ClassId, Instance, InstanceBuilder, ItemId, UserId,
};
use std::collections::{HashMap, HashSet};

/// How the reference accounts the capacity the prefix consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResidualMode {
    /// The product's exact semantics: each displayed `(item, user)` pair the
    /// original does not exempt is charged one capacity unit and becomes
    /// exempt, so a re-display is never charged again; the original's
    /// exemptions carry over.
    #[default]
    Exempt,
    /// The historical conservative semantics: capacity is charged as under
    /// [`ResidualMode::Exempt`], but no prefix pair becomes exempt, so a
    /// re-display to a prefix user is charged again (and blocked once the
    /// item sits at capacity). The original's exemptions carry over, so
    /// every conservative-valid plan is exempt-valid.
    Conservative,
}

/// The residual of `inst` at frontier `now` under the history `events`,
/// built from scratch through [`InstanceBuilder`].
///
/// # Panics
/// Panics when `now >= T` or when `events` fail
/// [`revmax_core::validate_events`] at `now`.
pub fn residual_by_builder(
    inst: &Instance,
    events: &[AdoptionEvent],
    now: u32,
    mode: ResidualMode,
) -> Instance {
    assert!(now < inst.horizon(), "a residual requires now < T");
    assert!(
        validate_events(inst, events, now).is_ok(),
        "the history must validate at the frontier"
    );
    let remaining = inst.horizon() - now;

    // Per (user, class) prefix state: did the user adopt in the class, and at
    // which times was the class displayed (for the residual memory factor).
    let mut adopted: HashSet<(UserId, ClassId)> = HashSet::new();
    let mut displays: HashMap<(UserId, ClassId), Vec<u32>> = HashMap::new();
    // Distinct displayed pairs the original does not exempt: the capacity
    // the prefix consumed.
    let mut charged: HashSet<(ItemId, UserId)> = HashSet::new();
    for e in events {
        let class = inst.class_of(e.item);
        displays
            .entry((e.user, class))
            .or_default()
            .push(e.t.value());
        if e.is_adoption() {
            adopted.insert((e.user, class));
        }
        if !inst.is_exempt(e.item, e.user) {
            charged.insert((e.item, e.user));
        }
    }

    let mut b = InstanceBuilder::new(inst.num_users(), inst.num_items(), remaining);
    b.display_limit(inst.display_limit());
    let mut capacity: Vec<u32> = (0..inst.num_items())
        .map(|i| inst.capacity(ItemId(i)))
        .collect();
    for &(item, user) in &charged {
        capacity[item.index()] = capacity[item.index()].saturating_sub(1);
        if mode == ResidualMode::Exempt {
            b.exempt_user(item.0, user.0);
        }
    }
    for i in 0..inst.num_items() {
        let item = ItemId(i);
        let exempt: Vec<u32> = inst.exempt_users(item).iter().map(|u| u.0).collect();
        // Class labels are already dense and in first-appearance order, so
        // the builder's densification reproduces them exactly.
        b.exempt_users(i, &exempt)
            .item_class(i, inst.class_of(item).0)
            .beta(i, inst.beta(item))
            .capacity(i, capacity[item.index()])
            .prices(i, &inst.price_series(item)[now as usize..]);
    }

    let mut probs = vec![0.0f64; remaining as usize];
    for cand in inst.candidates() {
        let user = inst.candidate_user(cand);
        let class = inst.candidate_class(cand);
        if adopted.contains(&(user, class)) {
            continue; // the class is closed for this user
        }
        let prefix_times = displays.get(&(user, class)).map_or(&[][..], Vec::as_slice);
        if fill_row(inst, cand, now, prefix_times, &mut probs) {
            b.candidate(
                user.0,
                inst.candidate_item(cand).0,
                &probs,
                inst.candidate_rating(cand),
            );
        }
    }
    b.build()
        .expect("a residual of a valid instance is a valid instance")
}

/// The residual primitive probabilities of `cand` at frontier `now`; the
/// same expression, in the same order, as the product's row fill. Returns
/// whether any entry is positive.
fn fill_row(
    inst: &Instance,
    cand: CandidateId,
    now: u32,
    prefix_times: &[u32],
    probs: &mut [f64],
) -> bool {
    let beta = inst.beta(inst.candidate_item(cand));
    let original = inst.candidate_probs(cand);
    let mut any_positive = false;
    for (idx, slot) in probs.iter_mut().enumerate() {
        let t = now + idx as u32 + 1;
        let q = original[(t - 1) as usize];
        if q == 0.0 {
            *slot = q;
            continue;
        }
        let memory: f64 = prefix_times.iter().map(|&tau| 1.0 / (t - tau) as f64).sum();
        *slot = q * beta.powf(memory);
        any_positive |= *slot > 0.0;
    }
    any_positive
}

#[cfg(test)]
mod tests {
    use super::*;
    use revmax_core::{residual_of_validated, Strategy, Triple};

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
    fn conservative_mode_registers_no_prefix_pairs() {
        let inst = instance();
        let events = [
            AdoptionEvent::rejected(0, 0, 1),
            AdoptionEvent::rejected(1, 2, 1),
            AdoptionEvent::rejected(1, 0, 2),
        ];
        let exact = residual_by_builder(&inst, &events, 2, ResidualMode::Exempt);
        assert!(exact.is_exempt(ItemId(0), UserId(0)));
        let conservative = residual_by_builder(&inst, &events, 2, ResidualMode::Conservative);
        assert!(!conservative.has_exemptions());
        // Same pre-charged capacities and probabilities in both modes.
        for i in 0..inst.num_items() {
            assert_eq!(exact.capacity(ItemId(i)), conservative.capacity(ItemId(i)));
        }
        assert_eq!(conservative.capacity(ItemId(0)), 0);
        for cand in exact.candidates() {
            let user = exact.candidate_user(cand);
            let item = exact.candidate_item(cand);
            let other = conservative.candidate_for(user, item).unwrap();
            assert_eq!(
                exact.candidate_probs(cand),
                conservative.candidate_probs(other)
            );
        }
    }

    #[test]
    fn conservative_mode_blocks_re_displays_at_capacity() {
        // Item 0 has capacity 1 and was displayed to user 0: the exact
        // residual accepts a re-display to user 0, the conservative one
        // charges it again and blocks it.
        let inst = instance();
        let events = [AdoptionEvent::rejected(0, 0, 1)];
        let redisplay: Strategy = vec![Triple::new(0, 0, 1)].into_iter().collect();
        let exact = residual_by_builder(&inst, &events, 1, ResidualMode::Exempt);
        assert!(redisplay.validate(&exact).is_ok());
        let conservative = residual_by_builder(&inst, &events, 1, ResidualMode::Conservative);
        assert_eq!(conservative.capacity(ItemId(0)), 0);
        assert!(redisplay.validate(&conservative).is_err());
    }

    #[test]
    fn original_exemptions_carry_over_in_both_modes() {
        // One item of capacity 1, two users, user 0 exempt on the item: the
        // exempt user's display is never charged.
        let mut b = InstanceBuilder::new(2, 1, 3);
        b.capacity(0, 1)
            .exempt_user(0, 0)
            .constant_price(0, 5.0)
            .candidate(0, 0, &[0.5, 0.5, 0.5], 0.0)
            .candidate(1, 0, &[0.5, 0.5, 0.5], 0.0);
        let inst = b.build().unwrap();
        let events = [AdoptionEvent::rejected(0, 0, 1)];
        for mode in [ResidualMode::Exempt, ResidualMode::Conservative] {
            let residual = residual_by_builder(&inst, &events, 1, mode);
            assert_eq!(residual.exempt_users(ItemId(0)), &[UserId(0)]);
            assert_eq!(residual.capacity(ItemId(0)), 1);
        }
        let product = residual_of_validated(&inst, &events, 1);
        assert_eq!(product.exempt_users(ItemId(0)), &[UserId(0)]);
        assert_eq!(product.capacity(ItemId(0)), 1);
    }
}
