//! Seeded randomized suite for exempt-aware residual capacity (PR 4).
//!
//! For ≥ 100 random instances with realized event prefixes it asserts:
//!
//! * **Exempt ≥ conservative.** The exact residual semantics strictly
//!   enlarge the feasible set over the conservative accounting of the
//!   oracle's builder ([`ResidualMode::Conservative`]) — every
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
//! * **Chained advances == the builder.** Every residual of a chain of
//!   `residual_advance` calls from frontier 0 to `T − 1` — multi-step
//!   advances, empty batches, adoptions that close groups, instances with
//!   and without original exemptions — equals the oracle's builder-based
//!   construction bit for bit (probabilities, ratings, capacities, exempt
//!   sets, prices).
//! * **Validity both ways.** Every planned suffix validates against its own
//!   residual instance.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use revmax_algorithms::{plan, plan_with, PlannerConfig};
use revmax_core::{
    residual_advance, residual_of_validated, validate_events, AdoptionEvent, EngineSnapshot,
    Instance, InstanceBuilder, ItemId, ResidualDelta,
};
use revmax_oracle::{residual_by_builder, HashIncrementalRevenue as Hash, ResidualMode};
use std::ops::RangeInclusive;

/// A storefront-shaped instance with tight capacities (1–3 over 3–5 users),
/// so prefix displays regularly pin items at residual capacity 0 and the
/// exempt-vs-conservative distinction actually binds.
fn random_instance(rng: &mut StdRng) -> Instance {
    random_instance_over(rng, 3..=5, false, false)
}

/// [`random_instance`] over a range of horizons, optionally with exempt
/// (item, user) pairs on the original instance itself and with zero
/// entries in the candidate rows (so whole rows die as the horizon shrinks).
fn random_instance_over(
    rng: &mut StdRng,
    horizons: RangeInclusive<u32>,
    original_exemptions: bool,
    sparse: bool,
) -> Instance {
    let num_users = rng.gen_range(3u32..=5);
    let num_items = rng.gen_range(3u32..=6);
    let horizon = rng.gen_range(horizons);
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
                let probs: Vec<f64> = (0..horizon)
                    .map(|_| {
                        if sparse && rng.gen_bool(0.4) {
                            0.0
                        } else {
                            rng.gen_range(0.05..0.8)
                        }
                    })
                    .collect();
                b.candidate(user, item, &probs, probs[0] * 5.0);
            }
        }
    }
    if original_exemptions {
        for item in 0..num_items {
            for user in 0..num_users {
                if rng.gen_bool(0.2) {
                    b.exempt_user(item, user);
                }
            }
        }
    }
    b.build().expect("random instance must build")
}

/// Draws a valid random event prefix up to `now`: per (user, t) slot at most
/// `display_limit` distinct items, random adoption outcomes.
fn random_events(rng: &mut StdRng, inst: &Instance, now: u32) -> Vec<AdoptionEvent> {
    let events = random_batch(rng, inst, 0, now);
    assert!(validate_events(inst, &events, now).is_ok());
    events
}

/// Draws random events for the steps `from + 1 ..= to`, as
/// [`random_events`] does for a whole prefix.
fn random_batch(rng: &mut StdRng, inst: &Instance, from: u32, to: u32) -> Vec<AdoptionEvent> {
    let mut events = Vec::new();
    for t in from + 1..=to {
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
        let conservative = residual_by_builder(&inst, &events, now, ResidualMode::Conservative);
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
        let conservative = residual_by_builder(&inst, &events, 1, ResidualMode::Conservative);

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

/// Asserts that two residual instances are the same, bit for bit: shape,
/// items (classes, betas, prices, capacities, exempt sets) and candidate
/// rows in CSR order (users, items, probabilities, ratings).
fn assert_same_residual(product: &Instance, reference: &Instance, label: &str) {
    assert_eq!(product.horizon(), reference.horizon(), "{label}: horizon");
    assert_eq!(product.num_users(), reference.num_users(), "{label}: users");
    assert_eq!(
        product.num_classes(),
        reference.num_classes(),
        "{label}: classes"
    );
    assert_eq!(
        product.display_limit(),
        reference.display_limit(),
        "{label}: display limit"
    );
    assert_eq!(
        product.has_exemptions(),
        reference.has_exemptions(),
        "{label}: exemption flag"
    );
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    assert_eq!(product.num_items(), reference.num_items(), "{label}: items");
    for i in 0..reference.num_items() {
        let item = ItemId(i);
        assert_eq!(
            product.class_of(item),
            reference.class_of(item),
            "{label}: class of {item}"
        );
        assert_eq!(
            product.beta(item).to_bits(),
            reference.beta(item).to_bits(),
            "{label}: β of {item}"
        );
        assert_eq!(
            product.capacity(item),
            reference.capacity(item),
            "{label}: capacity of {item}"
        );
        assert_eq!(
            product.exempt_users(item),
            reference.exempt_users(item),
            "{label}: exempt users of {item}"
        );
        assert_eq!(
            bits(product.price_series(item)),
            bits(reference.price_series(item)),
            "{label}: prices of {item}"
        );
    }
    assert_eq!(
        product.user_cand_offsets(),
        reference.user_cand_offsets(),
        "{label}: candidate rows per user"
    );
    for cand in reference.candidates() {
        let (user, item) = (
            reference.candidate_user(cand),
            reference.candidate_item(cand),
        );
        assert_eq!(
            product.candidate_item(cand),
            item,
            "{label}: candidate {} item",
            cand.0
        );
        assert_eq!(
            bits(product.candidate_probs(cand)),
            bits(reference.candidate_probs(cand)),
            "{label}: row bits of {user} {item}"
        );
        assert_eq!(
            product.candidate_rating(cand).to_bits(),
            reference.candidate_rating(cand).to_bits(),
            "{label}: rating of {user} {item}"
        );
    }
}

/// Chains `residual_advance` from the original instance (frontier 0) to
/// `T − 1` in random steps of 1–3, with empty batches and adoptions that
/// close groups, on instances with and without original exemptions and
/// zero entries; every
/// residual of the chain equals the oracle's builder bit for bit, and so
/// does the one-shot `residual_of_validated` on the same history.
#[test]
fn chained_advances_match_the_builder_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0xc4a1_2026);
    let (mut advances, mut multi_step, mut empty, mut closing, mut exempt_displays) =
        (0u32, 0u32, 0u32, 0u32, 0u32);
    for case in 0..120u32 {
        let inst = random_instance_over(&mut rng, 3..=8, case % 2 == 1, case % 4 < 2);
        // Frontier 0 is the instance itself, minus rows with no positive entry.
        assert_same_residual(
            &residual_of_validated(&inst, &[], 0),
            &residual_by_builder(&inst, &[], 0, ResidualMode::Exempt),
            &format!("case {case} at frontier 0"),
        );
        let mut history: Vec<AdoptionEvent> = Vec::new();
        let mut prev: Option<Instance> = None;
        let mut frontier = 0;
        while frontier + 1 < inst.horizon() {
            let now = rng.gen_range(frontier + 1..=(frontier + 3).min(inst.horizon() - 1));
            let batch = if rng.gen_bool(0.2) {
                Vec::new()
            } else {
                random_batch(&mut rng, &inst, frontier, now)
            };
            history.extend_from_slice(&batch);
            advances += 1;
            multi_step += u32::from(now - frontier > 1);
            empty += u32::from(batch.is_empty());
            closing += batch.iter().filter(|e| e.is_adoption()).count() as u32;
            exempt_displays += batch
                .iter()
                .filter(|e| inst.is_exempt(e.item, e.user))
                .count() as u32;

            let delta = ResidualDelta::new(frontier, now, &batch, EngineSnapshot::new());
            let residual =
                residual_advance(&inst, prev.as_ref().unwrap_or(&inst), &history, &delta);
            let reference = residual_by_builder(&inst, &history, now, ResidualMode::Exempt);
            let label = format!("case {case} advance {frontier} -> {now}");
            assert_same_residual(&residual, &reference, &label);
            assert_same_residual(
                &residual_of_validated(&inst, &history, now),
                &reference,
                &format!("{label} (one shot)"),
            );
            prev = Some(residual);
            frontier = now;
        }
    }
    // The suite must reach every path it claims to cover.
    assert!(advances >= 300, "only {advances} advances");
    assert!(multi_step >= 50, "only {multi_step} multi-step advances");
    assert!(empty >= 30, "only {empty} empty batches");
    assert!(closing >= 100, "only {closing} adoptions");
    assert!(
        exempt_displays >= 50,
        "only {exempt_displays} originally exempt displays"
    );
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
            let base = PlannerConfig::default()
                .with_shards(shards)
                .with_shard_threads(2);
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
