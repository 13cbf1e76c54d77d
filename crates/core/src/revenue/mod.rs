//! The dynamic revenue model of the paper: memory, saturation, competition,
//! dynamic adoption probabilities (Definition 1), the revenue function
//! `Rev(S)` (Definition 2), marginal revenue (Definition 3), and an
//! incremental evaluator used by all greedy algorithms.
//!
//! # Model recap
//!
//! For a strategy `S` and a triple `(u, i, t) ∈ S`:
//!
//! * the *memory* of user `u` on item `i` at time `t` is
//!   `M_S(u, i, t) = Σ_{j ∈ C(i)} Σ_{τ < t} X_S(u, j, τ) / (t − τ)` (Eq. 1);
//! * the *dynamic adoption probability* is
//!   `q_S(u, i, t) = q(u, i, t) · β_i^{M_S(u,i,t)} · Π_{(u,j,t) ∈ S, j ≠ i, C(j)=C(i)} (1 − q(u,j,t))
//!    · Π_{(u,j,τ) ∈ S, τ < t, C(j)=C(i)} (1 − q(u,j,τ))` (Eq. 2);
//! * the expected revenue is `Rev(S) = Σ_{(u,i,t) ∈ S} p(i, t) · q_S(u, i, t)` (Eq. 3).
//!
//! The marginal revenue of a triple `z = (u, i, t)` w.r.t. `S` (Definition 3)
//! is the gain `p(i,t) · q_{S∪{z}}(z)` minus the revenue lost on triples of the
//! same user and class at later times (their memory grows and they pick up an
//! extra `(1 − q(z))` competition factor). We additionally account for the
//! symmetric competition discount on same-class triples at the *same* time
//! step, which Definition 1 induces but Definition 3 elides; this keeps
//! `Rev(S ∪ {z}) − Rev(S)` exactly equal to the value the greedy algorithms
//! optimise.
//!
//! # Submodularity caveat (Theorem 2)
//!
//! The paper's Theorem 2 claims the revenue function is submodular —
//! `Rev(S ∪ {z}) − Rev(S) ≥ Rev(S′ ∪ {z}) − Rev(S′)` for `S ⊆ S′` — and uses
//! it to justify the lazy-forward optimisation of §5.1 (a cached marginal is
//! an upper bound on the current one, so a fresh-flagged heap root is safe to
//! take). The *exact* marginal implemented here violates that inequality on
//! roughly **13% of random instances** (measured over the seeded generators in
//! `crates/core/tests/properties.rs`, for smooth betas and display limit 1
//! alike). The mechanism: the loss side of the marginal re-discounts already
//! selected same-class triples at later times, and those triples are *already
//! more discounted* under the larger strategy `S′` — so the absolute loss can
//! shrink as the strategy grows, making the later marginal larger. The gain
//! side (the prospective probability `q_{S∪{z}}(z)`) *is* monotonically
//! non-increasing, which is the piece of Theorem 2 that does hold and the
//! invariant the property suite asserts (`prospective_probability_is_non_increasing`).
//!
//! Consequences for the algorithms:
//!
//! * lazy forward is treated as a **heuristic**, validated empirically: the
//!   `lazy == eager` equivalence tests in `crates/algorithms` assert that
//!   both settings select identical strategies on every tested instance;
//! * the `1 − 1/e` style greedy guarantee does not follow from theory for
//!   the exact objective; the experiments reproduce the paper's *empirical*
//!   quality ranking instead;
//! * anything that replays selection order (the tournament tree, the
//!   sharded planners) must reproduce the sequential pop order bit-for-bit
//!   rather than re-derive it from submodularity arguments.
//!
//! The consolidated write-up — exact marginal definition, the measured
//! violation rate, how lazy-forward is validated, and the related PR-4
//! greedy-non-monotonicity caveat under capacity exemptions — lives in
//! `docs/submodularity.md` at the repository root.

use crate::ids::{ClassId, Triple, UserId};
use crate::instance::Instance;
use crate::strategy::Strategy;
use std::collections::BTreeMap;

pub mod engine;
pub mod flat;
pub mod ledger;
pub mod warm;

pub use engine::RevenueEngine;
pub use flat::IncrementalRevenue;
pub use ledger::{
    AtomicCell, CapacityLedger, LedgerCell, SharedCapacityLedger, SharedCapacityLedgerIn,
};
pub use warm::{EngineSnapshot, ResidualDelta};

/// Computes the expected total revenue `Rev(S)` of a strategy from scratch.
///
/// This is the reference implementation used to cross-check the incremental
/// evaluators; it runs in `O(Σ_g |g|²)` over the (user, class) groups `g` of `S`.
pub fn revenue(inst: &Instance, strategy: &Strategy) -> f64 {
    dynamic_probabilities(inst, strategy)
        .into_iter()
        .map(|(triple, q)| inst.price(triple.item, triple.t) * q)
        .sum()
}

/// Computes the dynamic adoption probability `q_S(u, i, t)` of every triple in
/// the strategy, from scratch.
///
/// The output order is a function of the strategy's contents alone — groups
/// by (user, class), triples by (time, item) within a group — so [`revenue`]
/// folds the same terms in the same order on every call and is bit-for-bit
/// reproducible.
pub fn dynamic_probabilities(inst: &Instance, strategy: &Strategy) -> Vec<(Triple, f64)> {
    let mut groups: BTreeMap<(UserId, ClassId), Vec<Triple>> = BTreeMap::new();
    for triple in strategy.iter() {
        let class = inst.class_of(triple.item);
        groups.entry((triple.user, class)).or_default().push(triple);
    }
    let mut out = Vec::with_capacity(strategy.len());
    for ((_user, _class), mut triples) in groups {
        triples.sort_by_key(|z| (z.t, z.item));
        for (idx, &z) in triples.iter().enumerate() {
            let q_prim = inst.prob_of(z);
            let beta = inst.beta(z.item);
            let mut memory = 0.0_f64;
            let mut comp = 1.0_f64;
            for (jdx, &other) in triples.iter().enumerate() {
                if jdx == idx {
                    continue;
                }
                if other.t.value() < z.t.value() {
                    memory += 1.0 / (z.t.value() - other.t.value()) as f64;
                    comp *= 1.0 - inst.prob_of(other);
                } else if other.t.value() == z.t.value() && other.item != z.item {
                    comp *= 1.0 - inst.prob_of(other);
                }
            }
            let q_dyn = q_prim * beta.powf(memory) * comp;
            out.push((z, q_dyn));
        }
    }
    out
}

/// The dynamic adoption probability of a single triple `z ∈ S` (0 if `z ∉ S`),
/// computed from scratch. Convenience wrapper over [`dynamic_probabilities`].
pub fn dynamic_probability_of(inst: &Instance, strategy: &Strategy, z: Triple) -> f64 {
    if !strategy.contains(z) {
        return 0.0;
    }
    dynamic_probabilities(inst, strategy)
        .into_iter()
        .find(|(t, _)| *t == z)
        .map(|(_, q)| q)
        .unwrap_or(0.0)
}

/// Marginal revenue `Rev(S ∪ {z}) − Rev(S)` computed from scratch.
///
/// Prefer [`IncrementalRevenue::marginal_revenue`] inside algorithms; this
/// function exists for tests and small-instance exact methods.
pub fn marginal_revenue(inst: &Instance, strategy: &Strategy, z: Triple) -> f64 {
    if strategy.contains(z) {
        return 0.0;
    }
    let mut with = strategy.clone();
    with.insert(z);
    revenue(inst, &with) - revenue(inst, strategy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use std::collections::HashMap;

    #[test]
    fn revenue_is_bit_reproducible_across_calls() {
        // Many (user, class) groups whose terms span several magnitudes, so
        // any call-to-call change in summation order shows in the low bits.
        let (users, items, horizon) = (40u32, 6u32, 3u32);
        let mut b = InstanceBuilder::new(users, items, horizon);
        b.display_limit(2);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut unit = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        for i in 0..items {
            b.item_class(i, i % 3)
                .beta(i, 0.2 + 0.7 * unit())
                .capacity(i, users)
                .prices(i, &[1.0 + 1e3 * unit(), 0.01 + unit(), 1e2 * unit()]);
        }
        for u in 0..users {
            for i in 0..items {
                b.candidate(u, i, &[unit(), unit(), unit()], 0.0);
            }
        }
        let inst = b.build().unwrap();
        let mut s = Strategy::new();
        for u in 0..users {
            for t in 1..=horizon {
                s.insert(Triple::new(u, (u + t) % items, t));
                s.insert(Triple::new(u, (u + 2 * t + 1) % items, t));
            }
        }
        let first = revenue(&inst, &s).to_bits();
        for call in 0..50 {
            assert_eq!(revenue(&inst, &s).to_bits(), first, "call {call}");
        }
    }

    /// The non-monotonicity instance from the proof of Theorem 2 / Example 4.
    fn example4_instance() -> Instance {
        let mut b = InstanceBuilder::new(1, 1, 2);
        b.display_limit(1)
            .capacity(0, 2)
            .beta(0, 0.1)
            .prices(0, &[1.0, 0.95])
            .candidate(0, 0, &[0.5, 0.6], 0.0);
        b.build().unwrap()
    }

    #[test]
    fn example4_revenue_values_match_paper() {
        let inst = example4_instance();
        let s_late: Strategy = vec![Triple::new(0, 0, 2)].into_iter().collect();
        let s_both: Strategy = vec![Triple::new(0, 0, 1), Triple::new(0, 0, 2)]
            .into_iter()
            .collect();
        assert!((revenue(&inst, &s_late) - 0.57).abs() < 1e-12);
        assert!((revenue(&inst, &s_both) - 0.5285).abs() < 1e-12);
        // Non-monotone: the larger strategy earns less.
        assert!(revenue(&inst, &s_both) < revenue(&inst, &s_late));
    }

    #[test]
    fn example1_dynamic_probabilities_match_paper() {
        // S = {(u,i,1),(u,j,2),(u,i,3)}, C(i)=C(j), all primitive probs a, beta shared.
        let a = 0.3;
        let beta = 0.7;
        let mut b = InstanceBuilder::new(1, 2, 3);
        b.display_limit(1)
            .item_class(0, 0)
            .item_class(1, 0)
            .beta(0, beta)
            .beta(1, beta)
            .constant_price(0, 1.0)
            .constant_price(1, 1.0)
            .candidate(0, 0, &[a, a, a], 0.0)
            .candidate(0, 1, &[a, a, a], 0.0);
        let inst = b.build().unwrap();
        let s: Strategy = vec![
            Triple::new(0, 0, 1),
            Triple::new(0, 1, 2),
            Triple::new(0, 0, 3),
        ]
        .into_iter()
        .collect();
        let probs: HashMap<Triple, f64> = dynamic_probabilities(&inst, &s).into_iter().collect();
        assert!((probs[&Triple::new(0, 0, 1)] - a).abs() < 1e-12);
        let expected_t2 = (1.0 - a) * a * beta.powf(1.0);
        assert!((probs[&Triple::new(0, 1, 2)] - expected_t2).abs() < 1e-12);
        let expected_t3 = (1.0 - a) * (1.0 - a) * a * beta.powf(1.0 + 0.5);
        assert!((probs[&Triple::new(0, 0, 3)] - expected_t3).abs() < 1e-12);
    }

    #[test]
    fn same_time_competition_discounts_both_items() {
        // Two items of the same class recommended at the same time step: each
        // gets a (1 - q_other) factor.
        let mut b = InstanceBuilder::new(1, 2, 1);
        b.display_limit(2)
            .item_class(0, 0)
            .item_class(1, 0)
            .constant_price(0, 10.0)
            .constant_price(1, 10.0)
            .candidate(0, 0, &[0.5], 0.0)
            .candidate(0, 1, &[0.4], 0.0);
        let inst = b.build().unwrap();
        let s: Strategy = vec![Triple::new(0, 0, 1), Triple::new(0, 1, 1)]
            .into_iter()
            .collect();
        let probs: HashMap<Triple, f64> = dynamic_probabilities(&inst, &s).into_iter().collect();
        assert!((probs[&Triple::new(0, 0, 1)] - 0.5 * 0.6).abs() < 1e-12);
        assert!((probs[&Triple::new(0, 1, 1)] - 0.4 * 0.5).abs() < 1e-12);
    }

    #[test]
    fn different_classes_do_not_interact() {
        let mut b = InstanceBuilder::new(1, 2, 2);
        b.display_limit(2)
            .item_class(0, 0)
            .item_class(1, 1)
            .beta(0, 0.2)
            .beta(1, 0.2)
            .constant_price(0, 10.0)
            .constant_price(1, 10.0)
            .candidate(0, 0, &[0.5, 0.5], 0.0)
            .candidate(0, 1, &[0.4, 0.4], 0.0);
        let inst = b.build().unwrap();
        let s: Strategy = vec![Triple::new(0, 0, 1), Triple::new(0, 1, 2)]
            .into_iter()
            .collect();
        let probs: HashMap<Triple, f64> = dynamic_probabilities(&inst, &s).into_iter().collect();
        // No cross-class memory or competition.
        assert!((probs[&Triple::new(0, 0, 1)] - 0.5).abs() < 1e-12);
        assert!((probs[&Triple::new(0, 1, 2)] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn incremental_matches_scratch_on_example4() {
        let inst = example4_instance();
        let mut inc = IncrementalRevenue::new(&inst);
        let m1 = inc.insert(Triple::new(0, 0, 2));
        assert!((m1 - 0.57).abs() < 1e-12);
        let z = Triple::new(0, 0, 1);
        let m2 = inc.marginal_revenue(z);
        // Adding the early recommendation *loses* money: 0.5285 - 0.57 < 0.
        assert!((m2 - (0.5285 - 0.57)).abs() < 1e-12);
        inc.insert(z);
        assert!((inc.revenue() - 0.5285).abs() < 1e-12);
        let s: Strategy = [Triple::new(0, 0, 2), z].into_iter().collect();
        assert!((inc.revenue() - revenue(&inst, &s)).abs() < 1e-12);
    }

    #[test]
    fn incremental_constraint_tracking() {
        let mut b = InstanceBuilder::new(2, 2, 2);
        b.display_limit(1)
            .capacity(0, 1)
            .constant_price(0, 5.0)
            .constant_price(1, 5.0);
        for u in 0..2 {
            b.candidate(u, 0, &[0.5, 0.5], 0.0);
            b.candidate(u, 1, &[0.5, 0.5], 0.0);
        }
        let inst = b.build().unwrap();
        let mut inc = IncrementalRevenue::new(&inst);
        let z = Triple::new(0, 0, 1);
        assert!(!inc.would_violate(z));
        inc.insert(z);
        // Display: user 0 already has an item at t1.
        assert!(inc.would_violate(Triple::new(0, 1, 1)));
        assert!(!inc.would_violate_display(Triple::new(0, 1, 2)));
        // Capacity: item 0 has capacity 1, user 1 would be a second distinct user.
        assert!(inc.would_violate(Triple::new(1, 0, 1)));
        // Repeat to the same user does not consume extra capacity.
        assert!(!inc.would_violate(Triple::new(0, 0, 2)));
    }

    #[test]
    fn ignore_saturation_option_behaves_like_beta_one() {
        let inst = example4_instance();
        let no_sat_inst = inst.without_saturation();
        let mut inc_ignore = IncrementalRevenue::with_options(&inst, true);
        let mut inc_beta1 = IncrementalRevenue::new(&no_sat_inst);
        let picks = [Triple::new(0, 0, 2), Triple::new(0, 0, 1)];
        for z in picks {
            let a = inc_ignore.insert(z);
            let b = inc_beta1.insert(z);
            assert!((a - b).abs() < 1e-12);
        }
        assert!((inc_ignore.revenue() - inc_beta1.revenue()).abs() < 1e-12);
        // And the true revenue of the same strategy is lower (saturation bites).
        let true_rev = revenue(&inst, &picks.into_iter().collect());
        assert!(true_rev < inc_ignore.revenue());
    }

    #[test]
    fn marginal_revenue_scratch_agrees_with_incremental() {
        let mut b = InstanceBuilder::new(2, 3, 3);
        b.display_limit(2)
            .item_class(0, 0)
            .item_class(1, 0)
            .item_class(2, 1)
            .beta(0, 0.3)
            .beta(1, 0.6)
            .beta(2, 0.9)
            .prices(0, &[10.0, 9.0, 8.0])
            .prices(1, &[4.0, 5.0, 6.0])
            .prices(2, &[7.0, 7.0, 7.0])
            .candidate(0, 0, &[0.2, 0.3, 0.4], 0.0)
            .candidate(0, 1, &[0.5, 0.1, 0.2], 0.0)
            .candidate(0, 2, &[0.3, 0.3, 0.3], 0.0)
            .candidate(1, 0, &[0.6, 0.5, 0.4], 0.0)
            .candidate(1, 2, &[0.2, 0.2, 0.9], 0.0);
        let inst = b.build().unwrap();
        let picks = vec![
            Triple::new(0, 0, 2),
            Triple::new(0, 1, 1),
            Triple::new(1, 2, 3),
            Triple::new(0, 1, 3),
            Triple::new(1, 0, 1),
            Triple::new(0, 2, 2),
            Triple::new(0, 0, 3),
        ];
        let mut inc = IncrementalRevenue::new(&inst);
        let mut s = Strategy::new();
        for z in picks {
            let scratch = marginal_revenue(&inst, &s, z);
            let incr = inc.marginal_revenue(z);
            assert!(
                (scratch - incr).abs() < 1e-10,
                "marginal mismatch for {z}: scratch={scratch} incremental={incr}"
            );
            let realised = inc.insert(z);
            assert!((realised - scratch).abs() < 1e-10);
            s.insert(z);
            assert!((inc.revenue() - revenue(&inst, &s)).abs() < 1e-10);
            assert!(
                inc.dynamic_probability(z).is_some(),
                "inserted triple must be queryable"
            );
        }
        assert_eq!(
            inc.group_size(UserId(0), inst.class_of(crate::ids::ItemId(0))),
            4
        );
    }

    #[test]
    fn dynamic_probability_of_missing_triple_is_zero() {
        let inst = example4_instance();
        let s = Strategy::new();
        assert_eq!(dynamic_probability_of(&inst, &s, Triple::new(0, 0, 1)), 0.0);
    }

    #[test]
    fn zero_beta_kills_repeats_entirely() {
        let mut b = InstanceBuilder::new(1, 1, 2);
        b.display_limit(1)
            .capacity(0, 1)
            .beta(0, 0.0)
            .constant_price(0, 10.0)
            .candidate(0, 0, &[0.5, 0.5], 0.0);
        let inst = b.build().unwrap();
        let s: Strategy = vec![Triple::new(0, 0, 1), Triple::new(0, 0, 2)]
            .into_iter()
            .collect();
        let probs: HashMap<Triple, f64> = dynamic_probabilities(&inst, &s).into_iter().collect();
        // Full saturation: the repeat has zero probability (0^positive memory).
        assert_eq!(probs[&Triple::new(0, 0, 2)], 0.0);
        // The first recommendation is unaffected (0^0 = 1).
        assert!((probs[&Triple::new(0, 0, 1)] - 0.5).abs() < 1e-12);
    }
}
