//! Seeded randomized suite for exempt-aware residual capacity (PR 4).
//!
//! For ≥ 100 random instances with realized event prefixes it asserts:
//!
//! * **Exempt ≥ conservative.** The exact residual semantics
//!   ([`ResidualMode::Exempt`]) strictly enlarge the feasible set — every
//!   conservative-valid plan is exempt-valid (asserted per case) — so the
//!   exempt **optimum** dominates the conservative optimum; the
//!   `exact_optimum_dominates` test asserts that per case on tiny
//!   residuals. The *greedy* planner converts the extra freedom into at
//!   least as much revenue on almost every tested instance; like the
//!   Theorem-2 lazy-forward caveat, greedy is not theoretically monotone
//!   under constraint loosening and a small measured fraction of cases
//!   (≈ 1% here, bounded below) trade up to ~1% of revenue — the suite
//!   pins both the frequency and the magnitude so a real regression
//!   (systematic loss) still fails loudly.
//! * **Flat == hash on residual instances.** Both engines agree to 1e-9
//!   (identical suffixes) on exempt-mode residuals, i.e. the exemption
//!   checks are engine-invariant.
//! * **Incremental == from-scratch.** `residual_advance` reproduces
//!   `residual_of_validated` bit for bit (probabilities, capacities, exempt
//!   sets) across random two-batch histories.
//! * **Validity both ways.** Every planned suffix validates against its own
//!   residual instance.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use revmax_algorithms::{plan, plan_with, PlannerConfig};
use revmax_core::{
    residual_advance, residual_of_validated, residual_of_validated_with, validate_events,
    AdoptionEvent, EngineSnapshot, Instance, InstanceBuilder, ItemId, ResidualDelta, ResidualMode,
};
use revmax_oracle::HashIncrementalRevenue as Hash;

/// A storefront-shaped instance with tight capacities (1–3 over 3–5 users),
/// so prefix displays regularly pin items at residual capacity 0 and the
/// exempt-vs-conservative distinction actually binds.
fn random_instance(rng: &mut StdRng) -> Instance {
    let num_users = rng.gen_range(3u32..=5);
    let num_items = rng.gen_range(3u32..=6);
    let horizon = rng.gen_range(3u32..=5);
    let num_classes = rng.gen_range(2u32..=3);
    let mut b = InstanceBuilder::new(num_users, num_items, horizon);
    b.display_limit(rng.gen_range(1u32..=2));
    for item in 0..num_items {
        b.item_class(item, rng.gen_range(0..num_classes));
        b.beta(item, rng.gen_range(0.2..=1.0));
        b.capacity(item, rng.gen_range(1u32..=3));
        let prices: Vec<f64> = (0..horizon).map(|_| rng.gen_range(5.0..50.0)).collect();
        b.prices(item, &prices);
    }
    for user in 0..num_users {
        for item in 0..num_items {
            if rng.gen_bool(0.75) {
                let probs: Vec<f64> = (0..horizon).map(|_| rng.gen_range(0.05..0.8)).collect();
                b.candidate(user, item, &probs, probs[0] * 5.0);
            }
        }
    }
    b.build().expect("random instance must build")
}

/// Draws a valid random event prefix up to `now`: per (user, t) slot at most
/// `display_limit` distinct items, random adoption outcomes.
fn random_events(rng: &mut StdRng, inst: &Instance, now: u32) -> Vec<AdoptionEvent> {
    let mut events = Vec::new();
    for t in 1..=now {
        for user in 0..inst.num_users() {
            let mut shown: Vec<u32> = Vec::new();
            for _slot in 0..inst.display_limit() {
                if !rng.gen_bool(0.7) {
                    continue;
                }
                let item = rng.gen_range(0..inst.num_items());
                if shown.contains(&item) {
                    continue;
                }
                shown.push(item);
                let adopted = rng.gen_bool(0.3);
                events.push(if adopted {
                    AdoptionEvent::adopted(user, item, t)
                } else {
                    AdoptionEvent::rejected(user, item, t)
                });
            }
        }
    }
    assert!(validate_events(inst, &events, now).is_ok());
    events
}

#[test]
fn exempt_mode_dominates_conservative_and_engines_agree() {
    let mut rng = StdRng::seed_from_u64(0x5eed_2024);
    let mut binding_cases = 0u32;
    let mut greedy_losses: Vec<(u32, f64)> = Vec::new();
    let mut exempt_total = 0.0f64;
    let mut conservative_total = 0.0f64;
    for case in 0..120u32 {
        let inst = random_instance(&mut rng);
        let now = rng.gen_range(1..inst.horizon());
        let events = random_events(&mut rng, &inst, now);

        let exempt = residual_of_validated(&inst, &events, now);
        let conservative =
            residual_of_validated_with(&inst, &events, now, ResidualMode::Conservative);
        if exempt.has_exemptions() {
            binding_cases += 1;
        }

        let flat_cfg = PlannerConfig::default();
        let exempt_flat = plan(&exempt, &flat_cfg);
        let conservative_flat = plan(&conservative, &flat_cfg);
        assert!(
            exempt_flat.strategy.validate(&exempt).is_ok(),
            "case {case}: exempt plan invalid"
        );
        assert!(
            conservative_flat.strategy.validate(&conservative).is_ok(),
            "case {case}: conservative plan invalid"
        );
        // The sound containment, asserted unconditionally: every
        // conservative-valid plan is exempt-valid (exemptions only relax
        // the capacity constraint), so the exempt optimum dominates.
        assert!(
            conservative_flat.strategy.validate(&exempt).is_ok(),
            "case {case}: conservative plan must stay exempt-valid"
        );
        // Greedy dominance: near-universal, bounded below. A violation is
        // greedy non-monotonicity under constraint loosening (cousin of
        // the Theorem-2 caveat), not an accounting bug — but it must stay
        // rare and small, and never dominate in aggregate.
        exempt_total += exempt_flat.revenue;
        conservative_total += conservative_flat.revenue;
        if exempt_flat.revenue < conservative_flat.revenue - 1e-9 {
            let relative =
                (conservative_flat.revenue - exempt_flat.revenue) / conservative_flat.revenue;
            greedy_losses.push((case, relative));
        }

        // Engine parity on the exempt residual.
        let exempt_hash = plan_with::<Hash<'_>>(&exempt, &flat_cfg, None);
        assert!(
            (exempt_flat.revenue - exempt_hash.revenue).abs() < 1e-9,
            "case {case}: flat {} vs hash {} on the exempt residual",
            exempt_flat.revenue,
            exempt_hash.revenue
        );
        assert_eq!(
            exempt_flat.strategy.as_slice(),
            exempt_hash.strategy.as_slice(),
            "case {case}: flat and hash suffixes diverged"
        );
    }
    // The suite must actually exercise the distinction, not vacuously pass.
    assert!(
        binding_cases >= 100,
        "only {binding_cases} of 120 cases produced exempt pairs"
    );
    assert!(
        greedy_losses.len() <= 3,
        "greedy lost revenue under exempt semantics in {} of 120 cases: {greedy_losses:?}",
        greedy_losses.len()
    );
    assert!(
        greedy_losses.iter().all(|&(_, rel)| rel < 0.02),
        "a greedy loss exceeded 2% relative: {greedy_losses:?}"
    );
    assert!(
        exempt_total >= conservative_total,
        "exempt semantics lost revenue in aggregate: {exempt_total} vs {conservative_total}"
    );
}

/// The sound form of the dominance claim, asserted per case: on residuals
/// small enough to enumerate, the **optimal** exempt-mode revenue is at
/// least the optimal conservative-mode revenue (the feasible set only
/// grows), and strictly exceeds it on a healthy fraction of cases — the
/// revenue the conservative double-charge was provably leaving on the
/// table.
#[test]
fn exact_optimum_dominates_conservative_per_case() {
    let mut rng = StdRng::seed_from_u64(0xd0_2024);
    let mut strict = 0u32;
    for case in 0..60u32 {
        // Tiny universe so the 2^n enumeration stays cheap: the residual's
        // ground set is at most 2 users × 3 items × 2 remaining steps.
        let mut b = InstanceBuilder::new(2, 3, 3);
        b.display_limit(1);
        for item in 0..3u32 {
            b.item_class(item, item % 2)
                .beta(item, rng.gen_range(0.3..=1.0))
                .capacity(item, 1);
            let prices: Vec<f64> = (0..3).map(|_| rng.gen_range(5.0..30.0)).collect();
            b.prices(item, &prices);
        }
        for user in 0..2u32 {
            for item in 0..3u32 {
                if rng.gen_bool(0.8) {
                    let probs: Vec<f64> = (0..3).map(|_| rng.gen_range(0.1..0.8)).collect();
                    b.candidate(user, item, &probs, 0.0);
                }
            }
        }
        let inst = b.build().unwrap();
        let events = random_events(&mut rng, &inst, 1);
        let exempt = residual_of_validated(&inst, &events, 1);
        let conservative =
            residual_of_validated_with(&inst, &events, 1, ResidualMode::Conservative);

        let best_exempt = revmax_algorithms::exact_optimum(&exempt, 16);
        let best_conservative = revmax_algorithms::exact_optimum(&conservative, 16);
        assert!(
            best_exempt.revenue >= best_conservative.revenue - 1e-9,
            "case {case}: exempt optimum {} below conservative optimum {}",
            best_exempt.revenue,
            best_conservative.revenue
        );
        if best_exempt.revenue > best_conservative.revenue + 1e-9 {
            strict += 1;
        }
    }
    assert!(
        strict >= 10,
        "exemptions never strictly helped ({strict} of 60): the suite is vacuous"
    );
}

#[test]
fn incremental_residuals_match_from_scratch_across_random_histories() {
    let mut rng = StdRng::seed_from_u64(0xacc_2024);
    for case in 0..100 {
        let inst = random_instance(&mut rng);
        if inst.horizon() < 3 {
            continue;
        }
        let first = rng.gen_range(1..inst.horizon() - 1);
        let second = rng.gen_range(first + 1..inst.horizon());
        let batch1 = random_events(&mut rng, &inst, first);
        let mut batch2 = random_events(&mut rng, &inst, second);
        batch2.retain(|e| e.t.value() > first);

        let prev = residual_of_validated(&inst, &batch1, first);
        let mut all = batch1.clone();
        all.extend_from_slice(&batch2);
        let delta = ResidualDelta::new(first, second, &batch2, EngineSnapshot::new());
        let incremental = residual_advance(&inst, &prev, &all, &delta);
        let scratch = residual_of_validated(&inst, &all, second);

        assert_eq!(
            incremental.num_candidates(),
            scratch.num_candidates(),
            "case {case}: candidate sets diverged"
        );
        for i in 0..inst.num_items() {
            let item = ItemId(i);
            assert_eq!(incremental.capacity(item), scratch.capacity(item));
            assert_eq!(incremental.exempt_users(item), scratch.exempt_users(item));
            assert_eq!(incremental.price_series(item), scratch.price_series(item));
        }
        for cand in scratch.candidates() {
            let user = scratch.candidate_user(cand);
            let item = scratch.candidate_item(cand);
            let inc = incremental
                .candidate_for(user, item)
                .unwrap_or_else(|| panic!("case {case}: {user} {item} missing incrementally"));
            for (a, b) in scratch
                .candidate_probs(cand)
                .iter()
                .zip(incremental.candidate_probs(inc))
            {
                assert_eq!(a.to_bits(), b.to_bits(), "case {case}: row bits diverged");
            }
        }

        // And the plans over the two constructions are exactly equal.
        let a = plan(&incremental, &PlannerConfig::default());
        let b = plan(&scratch, &PlannerConfig::default());
        assert_eq!(a.strategy.as_slice(), b.strategy.as_slice());
        assert_eq!(a.revenue.to_bits(), b.revenue.to_bits());
    }
}

/// Exempt-user residuals of uniform-β instances (one β per class) replan
/// identically: plans match the hash engine to 1e-9, warm and cold, and the
/// warm path still hands its recycled buffers back through the snapshot
/// pool.
#[test]
fn exempt_residuals_replan_identically_on_uniform_beta_instances() {
    use revmax_algorithms::plan_residual;

    let mut rng = StdRng::seed_from_u64(0xA66E);
    let mut binding_cases = 0u32;
    for case in 0..60u32 {
        // Uniform-β variant of the storefront-shaped generator: one β per
        // class.
        let num_users = rng.gen_range(3u32..=5);
        let num_items = rng.gen_range(3u32..=6);
        let horizon = rng.gen_range(3u32..=5);
        let num_classes = rng.gen_range(2u32..=3);
        let class_betas: Vec<f64> = (0..num_classes).map(|_| rng.gen_range(0.2..=1.0)).collect();
        let mut b = InstanceBuilder::new(num_users, num_items, horizon);
        b.display_limit(rng.gen_range(1u32..=2));
        for item in 0..num_items {
            let class = rng.gen_range(0..num_classes);
            b.item_class(item, class);
            b.beta(item, class_betas[class as usize]);
            b.capacity(item, rng.gen_range(1u32..=3));
            let prices: Vec<f64> = (0..horizon).map(|_| rng.gen_range(5.0..50.0)).collect();
            b.prices(item, &prices);
        }
        for user in 0..num_users {
            for item in 0..num_items {
                if rng.gen_bool(0.75) {
                    let probs: Vec<f64> = (0..horizon).map(|_| rng.gen_range(0.05..0.8)).collect();
                    b.candidate(user, item, &probs, probs[0] * 5.0);
                }
            }
        }
        let inst = b.build().expect("uniform-beta instance must build");

        let now = rng.gen_range(1..inst.horizon());
        let events = random_events(&mut rng, &inst, now);
        let residual = residual_of_validated(&inst, &events, now);
        if residual.has_exemptions() {
            binding_cases += 1;
        }

        let snapshot = EngineSnapshot::new();
        let delta = ResidualDelta::initial(snapshot.clone());
        for shards in [1u32, 2] {
            let base = PlannerConfig::default().with_shards(shards);
            let cold = plan(&residual, &base);
            let hash_cold = plan_with::<Hash<'_>>(&residual, &base, None);
            let warm = plan_residual(&residual, &base.with_warm_start(true), Some(&delta));
            for (label, other) in [("hash", &hash_cold), ("warm", &warm)] {
                assert!(
                    (cold.revenue - other.revenue).abs() <= 1e-9 * cold.revenue.abs().max(1.0),
                    "case {case} shards {shards}: flat {} vs {label} {}",
                    cold.revenue,
                    other.revenue
                );
                assert_eq!(
                    cold.strategy.len(),
                    other.strategy.len(),
                    "case {case} shards {shards}: {label} size"
                );
            }
            assert!(cold.strategy.validate(&residual).is_ok());
        }
        assert!(
            snapshot.has_tables(),
            "case {case}: warm replans must seed the snapshot pool"
        );
        assert!(
            snapshot.pooled_buffers() > 0,
            "case {case}: warm engines must return their buffers"
        );
    }
    assert!(
        binding_cases >= 30,
        "only {binding_cases} of 60 cases produced exempt pairs"
    );
}
