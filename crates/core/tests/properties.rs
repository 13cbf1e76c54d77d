//! Seeded randomized property tests of the revenue model invariants: Lemma 1
//! (dynamic adoption probabilities are non-increasing in the strategy),
//! consistency between the from-scratch evaluator and BOTH incremental
//! engines (the flat-arena default and the hash-based reference from
//! `revmax-oracle`), batch / per-slot bit-identity, and basic sanity of the
//! effective (R-REVMAX) objective. (See `prospective_probability_is_non_increasing` for why the
//! paper's Theorem-2 submodularity claim is not asserted verbatim.)
//!
//! The generators are driven by an explicit seeded RNG, so every failure is
//! reproducible from the case index printed in the assertion message.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use revmax_core::{
    dynamic_probability_of, effective_revenue, marginal_revenue, revenue, CandidateId,
    ExactPoissonBinomial, IncrementalRevenue, Instance, InstanceBuilder, RevenueEngine, Strategy,
    TimeStep, Triple,
};
use revmax_oracle::HashIncrementalRevenue;

/// Draws a random small instance: 2–5 users, 2–6 items, horizon 1–5,
/// display limit 1–2, random classes, betas (including the β ∈ {0, 1} edge
/// cases), capacities, prices, and sparse probabilities.
fn random_instance(rng: &mut StdRng) -> Instance {
    let num_users = rng.gen_range(2u32..=5);
    let num_items = rng.gen_range(2u32..=6);
    let horizon = rng.gen_range(1u32..=5);
    let display_limit = rng.gen_range(1u32..=2);
    let mut b = InstanceBuilder::new(num_users, num_items, horizon);
    b.display_limit(display_limit);
    for item in 0..num_items {
        b.item_class(item, rng.gen_range(0u32..3));
        // Mix smooth betas with the exact 0 and 1 edge cases.
        let beta = match rng.gen_range(0u32..8) {
            0 => 0.0,
            1 => 1.0,
            _ => rng.gen_range(0.0..=1.0),
        };
        b.beta(item, beta);
        b.capacity(item, rng.gen_range(1u32..=3));
        let prices: Vec<f64> = (0..horizon).map(|_| rng.gen_range(0.5..50.0)).collect();
        b.prices(item, &prices);
    }
    for user in 0..num_users {
        for item in 0..num_items {
            // ~25% of pairs are non-candidates; candidate pairs may still have
            // zero-probability time steps.
            if rng.gen_bool(0.25) {
                continue;
            }
            let probs: Vec<f64> = (0..horizon)
                .map(|_| {
                    if rng.gen_bool(0.2) {
                        0.0
                    } else {
                        rng.gen_range(0.0..=1.0)
                    }
                })
                .collect();
            if probs.iter().any(|&p| p > 0.0) {
                b.candidate(user, item, &probs, 0.0);
            }
        }
    }
    b.build().expect("random instance must build")
}

/// Like [`random_instance`], but betas are drawn **per class**, so every
/// item of a class shares one β. Class betas include the exact 0 and 1 edge
/// cases, and display limits reach 3 so (user, class) groups grow deeper.
fn random_uniform_beta_instance(rng: &mut StdRng) -> Instance {
    let num_users = rng.gen_range(2u32..=5);
    let num_items = rng.gen_range(2u32..=6);
    let horizon = rng.gen_range(1u32..=5);
    let display_limit = rng.gen_range(1u32..=3);
    let class_betas: Vec<f64> = (0..3)
        .map(|_| match rng.gen_range(0u32..6) {
            0 => 0.0,
            1 => 1.0,
            _ => rng.gen_range(0.0..=1.0),
        })
        .collect();
    let mut b = InstanceBuilder::new(num_users, num_items, horizon);
    b.display_limit(display_limit);
    for item in 0..num_items {
        let class = rng.gen_range(0u32..3);
        b.item_class(item, class);
        b.beta(item, class_betas[class as usize]);
        b.capacity(item, rng.gen_range(1u32..=3));
        let prices: Vec<f64> = (0..horizon).map(|_| rng.gen_range(0.5..50.0)).collect();
        b.prices(item, &prices);
    }
    for user in 0..num_users {
        for item in 0..num_items {
            if rng.gen_bool(0.2) {
                continue;
            }
            let probs: Vec<f64> = (0..horizon)
                .map(|_| {
                    if rng.gen_bool(0.15) {
                        0.0
                    } else {
                        rng.gen_range(0.0..=1.0)
                    }
                })
                .collect();
            if probs.iter().any(|&p| p > 0.0) {
                b.candidate(user, item, &probs, 0.0);
            }
        }
    }
    b.build().expect("uniform-beta instance must build")
}

/// All candidate triples of an instance, shuffled.
fn shuffled_candidate_triples(inst: &Instance, rng: &mut StdRng) -> Vec<Triple> {
    let mut out = Vec::new();
    for cand in inst.candidates() {
        let user = inst.candidate_user(cand);
        let item = inst.candidate_item(cand);
        for t in inst.time_steps() {
            if inst.candidate_prob(cand, t) > 0.0 {
                out.push(Triple { user, item, t });
            }
        }
    }
    out.shuffle(rng);
    out
}

/// The tentpole acceptance property: across ≥100 random instances from each
/// of two generators, the flat-arena engine agrees with the from-scratch
/// `revenue()` / `marginal_revenue()` evaluator to 1e-9 at every step of a
/// random insertion sequence — and so does the hash-based reference engine.
/// The second generator draws one β per class (β ∈ {0, 1} classes, deeper
/// groups) and mixes in non-candidate triples.
#[test]
fn incremental_engines_match_scratch_on_100_random_instances() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for case in 0..120 {
        let inst = random_instance(&mut rng);
        let mut triples = shuffled_candidate_triples(&inst, &mut rng);
        triples.truncate(14);
        assert_engines_match_scratch(&inst, triples, &format!("case {case}"));
    }
    let mut rng = StdRng::seed_from_u64(0xA66);
    for case in 0..120 {
        let inst = random_uniform_beta_instance(&mut rng);
        let mut triples = shuffled_candidate_triples(&inst, &mut rng);
        triples.truncate(16);
        // A couple of non-candidate triples: memory and saturation without
        // gain.
        for _ in 0..2 {
            let z = Triple::new(
                rng.gen_range(0..inst.num_users()),
                rng.gen_range(0..inst.num_items()),
                rng.gen_range(1..=inst.horizon()),
            );
            if inst.prob_of(z) == 0.0 {
                triples.push(z);
            }
        }
        assert_engines_match_scratch(&inst, triples, &format!("uniform-β case {case}"));
    }
}

/// Inserts `triples` in order into both incremental engines, checking every
/// marginal, realised gain and running total against the scratch evaluator.
fn assert_engines_match_scratch(inst: &Instance, triples: Vec<Triple>, case: &str) {
    let mut flat = IncrementalRevenue::new(inst);
    let mut hash = HashIncrementalRevenue::new(inst);
    let mut s = Strategy::new();
    for z in triples {
        let scratch = marginal_revenue(inst, &s, z);
        let flat_m = flat.marginal_revenue(z);
        let hash_m = hash.marginal_revenue(z);
        assert!(
            (scratch - flat_m).abs() < 1e-9,
            "{case}: flat marginal {flat_m} vs scratch {scratch} for {z}"
        );
        assert!(
            (scratch - hash_m).abs() < 1e-9,
            "{case}: hash marginal {hash_m} vs scratch {scratch} for {z}"
        );
        let realised_flat = flat.insert(z);
        let realised_hash = hash.insert(z);
        assert!((realised_flat - scratch).abs() < 1e-9, "{case}: insert {z}");
        assert!((realised_hash - scratch).abs() < 1e-9, "{case}: insert {z}");
        s.insert(z);
        let total = revenue(inst, &s);
        assert!(
            (flat.revenue() - total).abs() < 1e-9,
            "{case}: flat total {} vs scratch {total}",
            flat.revenue()
        );
        assert!(
            (hash.revenue() - total).abs() < 1e-9,
            "{case}: hash total {} vs scratch {total}",
            hash.revenue()
        );
    }
}

/// The candidate-addressed fast path must agree with the triple-addressed
/// compatibility API on every (candidate, time) slot.
#[test]
fn candidate_addressed_api_matches_triple_api() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for case in 0..40 {
        let inst = random_instance(&mut rng);
        let mut inc = IncrementalRevenue::new(&inst);
        let picks = shuffled_candidate_triples(&inst, &mut rng);
        for (step, &z) in picks.iter().enumerate().take(10) {
            for cand in inst.candidates() {
                let user = inst.candidate_user(cand);
                let item = inst.candidate_item(cand);
                for t in inst.time_steps() {
                    let triple = Triple { user, item, t };
                    let by_cand = inc.marginal_revenue_cand(cand, t);
                    let by_triple = inc.marginal_revenue(triple);
                    assert!(
                        (by_cand - by_triple).abs() < 1e-12,
                        "case {case} step {step}: cand API {by_cand} vs triple API {by_triple}"
                    );
                    assert_eq!(
                        RevenueEngine::would_violate_cand(&inc, cand, t),
                        inc.would_violate(triple),
                        "case {case} step {step}: constraint mismatch at {triple}"
                    );
                }
            }
            if !inc.would_violate(z) {
                let cand = inst
                    .candidate_for(z.user, z.item)
                    .expect("candidate triple");
                inc.insert_cand(cand, z.t);
            }
        }
    }
}

/// The fused batch evaluation must be bit-identical to the per-slot path on
/// every (candidate, live-mask) combination.
#[test]
fn batch_marginals_are_bit_identical_to_per_slot() {
    let mut rng = StdRng::seed_from_u64(0xBA7C);
    for case in 0..40 {
        let inst = random_instance(&mut rng);
        let horizon = inst.horizon() as usize;
        let mut inc = IncrementalRevenue::new(&inst);
        for (step, z) in shuffled_candidate_triples(&inst, &mut rng)
            .into_iter()
            .take(8)
            .enumerate()
        {
            for cand in inst.candidates() {
                let full_mask = (1u64 << horizon) - 1;
                let mask = full_mask & rng.gen_range(1u64..=full_mask);
                let mut batch = vec![f64::NAN; horizon];
                inc.marginal_revenue_batch(cand, mask, &mut batch);
                for (t_idx, &b) in batch.iter().enumerate() {
                    if mask & (1 << t_idx) == 0 {
                        continue;
                    }
                    let scalar = inc.marginal_revenue_cand(cand, TimeStep::from_index(t_idx));
                    assert_eq!(
                        scalar.to_bits(),
                        b.to_bits(),
                        "case {case} step {step}: batch diverged at cand {cand:?} t {t_idx}: \
                         {scalar} vs {b}"
                    );
                }
            }
            inc.insert(z);
        }
    }
}

/// Lemma 1: the dynamic adoption probability of a fixed triple never increases
/// when the strategy grows.
#[test]
fn dynamic_probability_is_non_increasing() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for case in 0..60 {
        let inst = random_instance(&mut rng);
        let triples = shuffled_candidate_triples(&inst, &mut rng);
        let Some((&tracked, rest)) = triples.split_first() else {
            continue;
        };
        let mut s = Strategy::new();
        s.insert(tracked);
        let mut prev = dynamic_probability_of(&inst, &s, tracked);
        for &z in rest.iter().take(10) {
            s.insert(z);
            let cur = dynamic_probability_of(&inst, &s, tracked);
            assert!(
                cur <= prev + 1e-12,
                "case {case}: probability increased from {prev} to {cur} after adding {z}"
            );
            prev = cur;
        }
    }
}

/// The prospective adoption probability `q_{S∪{z}}(z)` of a fixed triple is
/// non-increasing as the strategy grows (the Lemma-1 mechanism applied to the
/// incremental engine's fast path).
///
/// Note: the *exact* marginal `Rev(S∪{z}) − Rev(S)` computed by this repo is
/// NOT submodular in general — the loss terms shrink in magnitude as the
/// strategy grows (existing entries are already discounted), which can make
/// the marginal w.r.t. a superset larger. Empirically ~13% of random
/// (instance, chain, z) cases violate the Theorem-2 inequality, for smooth
/// betas and display limit 1 alike. The greedy algorithms therefore treat
/// lazy-forward as a heuristic; the lazy == eager end-result equivalence is
/// asserted separately in `crates/algorithms`.
#[test]
fn prospective_probability_is_non_increasing() {
    let mut rng = StdRng::seed_from_u64(0xAB1E);
    for case in 0..60 {
        let inst = random_instance(&mut rng);
        let triples = shuffled_candidate_triples(&inst, &mut rng);
        if triples.len() < 2 {
            continue;
        }
        let z = *triples.last().unwrap();
        let mut inc = IncrementalRevenue::new(&inst);
        let mut prev = inc.prospective_probability(z);
        for &w in triples[..triples.len() - 1].iter().take(10) {
            inc.insert(w);
            let cur = inc.prospective_probability(z);
            assert!(
                cur <= prev + 1e-12,
                "case {case}: prospective probability rose from {prev} to {cur} after {w}"
            );
            prev = cur;
        }
    }
}

/// Revenue is always non-negative and zero for the empty strategy.
#[test]
fn revenue_is_nonnegative() {
    let mut rng = StdRng::seed_from_u64(0xF00D);
    for _ in 0..40 {
        let inst = random_instance(&mut rng);
        assert_eq!(revenue(&inst, &Strategy::new()), 0.0);
        let s: Strategy = shuffled_candidate_triples(&inst, &mut rng)
            .into_iter()
            .take(15)
            .collect();
        assert!(revenue(&inst, &s) >= 0.0);
    }
}

/// The R-REVMAX objective (capacity pushed into the probabilities) never
/// exceeds the unconstrained revenue and is itself non-negative.
#[test]
fn effective_revenue_bounded_by_plain() {
    let mut rng = StdRng::seed_from_u64(0xCAFE);
    for case in 0..40 {
        let inst = random_instance(&mut rng);
        let s: Strategy = shuffled_candidate_triples(&inst, &mut rng)
            .into_iter()
            .take(15)
            .collect();
        let oracle = ExactPoissonBinomial;
        let eff = effective_revenue(&inst, &s, &oracle);
        let plain = revenue(&inst, &s);
        assert!(
            eff >= -1e-12,
            "case {case}: negative effective revenue {eff}"
        );
        assert!(
            eff <= plain + 1e-9,
            "case {case}: effective {eff} exceeds plain {plain}"
        );
    }
}

/// Per-triple dynamic probabilities always stay within [0, q(u,i,t)].
#[test]
fn dynamic_probabilities_bounded_by_primitive() {
    let mut rng = StdRng::seed_from_u64(0xD1CE);
    for case in 0..40 {
        let inst = random_instance(&mut rng);
        let s: Strategy = shuffled_candidate_triples(&inst, &mut rng)
            .into_iter()
            .take(15)
            .collect();
        for (z, q) in revmax_core::dynamic_probabilities(&inst, &s) {
            let prim = inst.prob_of(z);
            assert!(
                q >= -1e-12 && q <= prim + 1e-12,
                "case {case}: dynamic probability {q} outside [0, {prim}] for {z}"
            );
        }
    }
}

/// The engines agree with scratch even when non-candidate (zero-probability)
/// triples are mixed into the strategy: their presence still saturates later
/// same-class selections.
#[test]
fn noncandidate_triples_keep_engines_consistent() {
    let mut rng = StdRng::seed_from_u64(0x0DD);
    for case in 0..40 {
        let inst = random_instance(&mut rng);
        let mut picks = shuffled_candidate_triples(&inst, &mut rng);
        // Mix in in-range non-candidate triples.
        for _ in 0..4 {
            let user = rng.gen_range(0..inst.num_users());
            let item = rng.gen_range(0..inst.num_items());
            let t = rng.gen_range(1..=inst.horizon());
            picks.push(Triple::new(user, item, t));
        }
        picks.shuffle(&mut rng);
        picks.truncate(12);
        let mut flat = IncrementalRevenue::new(&inst);
        let mut hash = HashIncrementalRevenue::new(&inst);
        let mut s = Strategy::new();
        for z in picks {
            let scratch = marginal_revenue(&inst, &s, z);
            let flat_m = flat.marginal_revenue(z);
            assert!(
                (scratch - flat_m).abs() < 1e-9,
                "case {case}: marginal {flat_m} vs scratch {scratch} for {z}"
            );
            flat.insert(z);
            hash.insert(z);
            s.insert(z);
            let total = revenue(&inst, &s);
            assert!(
                (flat.revenue() - total).abs() < 1e-9,
                "case {case}: total {} vs scratch {total} after {z}",
                flat.revenue()
            );
            // Inserted triples — candidate or not — must stay queryable, and
            // both engines must report them identically.
            let fp = flat.dynamic_probability(z);
            let hp = hash.dynamic_probability(z);
            assert_eq!(
                fp.is_some(),
                hp.is_some(),
                "case {case}: dynamic_probability presence diverged for {z}"
            );
            if let (Some(fp), Some(hp)) = (fp, hp) {
                assert!((fp - hp).abs() < 1e-9, "case {case}: {fp} vs {hp} for {z}");
            }
            let class = inst.class_of(z.item);
            assert_eq!(
                flat.group_size(z.user, class),
                hash.group_size(z.user, class),
                "case {case}: group size diverged for {z}"
            );
        }
    }
}

/// Group sizes reported by both engines agree on every candidate.
#[test]
fn group_sizes_agree_between_engines() {
    let mut rng = StdRng::seed_from_u64(0x9999);
    for _ in 0..25 {
        let inst = random_instance(&mut rng);
        let mut flat = IncrementalRevenue::new(&inst);
        let mut hash = HashIncrementalRevenue::new(&inst);
        for z in shuffled_candidate_triples(&inst, &mut rng)
            .into_iter()
            .take(10)
        {
            flat.insert(z);
            hash.insert(z);
            for c in 0..inst.num_candidates() {
                let cand = CandidateId(c as u32);
                assert_eq!(
                    RevenueEngine::group_size_cand(&flat, cand),
                    RevenueEngine::group_size_cand(&hash, cand),
                );
            }
        }
    }
}

/// A flat shard view must behave exactly like a full engine restricted to
/// the shard's users: bit-identical marginals and realised inserts, matching
/// display tracking, and the shard revenues must sum to the full revenue.
#[test]
fn shard_views_match_full_engine_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0x51AD);
    for case in 0..40 {
        let inst = random_instance(&mut rng);
        let mid = inst.num_users() / 2;
        let shards = [
            inst.user_shard(0, mid),
            inst.user_shard(mid, inst.num_users()),
        ];
        let mut full = IncrementalRevenue::new(&inst);
        let mut views: Vec<IncrementalRevenue<'_>> = shards
            .iter()
            .map(|&s| RevenueEngine::for_shard(&inst, false, s))
            .collect();
        let picks = shuffled_candidate_triples(&inst, &mut rng);
        for z in picks.into_iter().take(12) {
            let cand = inst.candidate_for(z.user, z.item).expect("candidate");
            let view = views
                .iter_mut()
                .find(|v| v.shard().contains_user(z.user))
                .expect("user covered by a shard");
            let m_full = full.marginal_revenue_cand(cand, z.t);
            let m_view = view.marginal_revenue_cand(cand, z.t);
            assert_eq!(
                m_full.to_bits(),
                m_view.to_bits(),
                "case {case}: shard marginal {m_view} vs full {m_full} for {z}"
            );
            assert_eq!(
                RevenueEngine::would_violate_display_cand(&full, cand, z.t),
                RevenueEngine::would_violate_display_cand(&*view, cand, z.t),
                "case {case}: display tracking diverged for {z}"
            );
            assert_eq!(
                RevenueEngine::group_size_cand(&full, cand),
                RevenueEngine::group_size_cand(&*view, cand),
                "case {case}: group size diverged for {z}"
            );
            let r_full = full.insert_cand(cand, z.t);
            let r_view = view.insert_cand(cand, z.t);
            assert_eq!(
                r_full.to_bits(),
                r_view.to_bits(),
                "case {case}: insert {z}"
            );
        }
        let sum: f64 = views.iter().map(|v| v.revenue()).sum();
        assert!(
            (sum - full.revenue()).abs() < 1e-9,
            "case {case}: shard revenues {sum} vs full {}",
            full.revenue()
        );
        let merged: usize = views.iter().map(|v| v.len()).sum();
        assert_eq!(merged, full.len(), "case {case}");
    }
}

/// The shared atomic ledger's claim is the sequential ledger's gate plus
/// charge: on random pairs, `try_claim_for` succeeds exactly when the
/// sequential ledger is not full for the pair, and both count the same
/// units.
#[test]
fn shared_and_sequential_ledgers_agree() {
    let mut rng = StdRng::seed_from_u64(0x1ED6);
    for _ in 0..20 {
        let inst = random_instance(&mut rng);
        let mut seq = revmax_core::CapacityLedger::new(&inst);
        let shared = revmax_core::SharedCapacityLedger::new(&inst);
        for _ in 0..40 {
            let item = revmax_core::ItemId(rng.gen_range(0..inst.num_items()));
            let user = revmax_core::UserId(rng.gen_range(0..inst.num_users()));
            assert_eq!(seq.is_full_for(item, user), shared.is_full_for(item, user));
            let free = !seq.is_full_for(item, user);
            if free {
                seq.charge(item, user);
            }
            assert_eq!(shared.try_claim_for(item, user), free);
            assert_eq!(seq.used(item), shared.used(item));
            assert_eq!(seq.is_full(item), shared.is_full(item));
        }
    }
}

/// Sanity for the TimeStep helper used throughout the engines.
#[test]
fn timestep_index_round_trip() {
    for idx in 0..10 {
        assert_eq!(TimeStep::from_index(idx).index(), idx);
    }
}
