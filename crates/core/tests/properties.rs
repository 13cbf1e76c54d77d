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
    dynamic_probability_of, effective_revenue, marginal_revenue, revenue, AggregateMode,
    CandidateId, ExactPoissonBinomial, IncrementalRevenue, Instance, InstanceBuilder,
    RevenueEngine, Strategy, TimeStep, Triple,
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

/// The tentpole acceptance property: across ≥100 random instances, the
/// flat-arena engine agrees with the from-scratch `revenue()` /
/// `marginal_revenue()` evaluator to 1e-9 at every step of a random insertion
/// sequence — and so does the hash-based reference engine.
#[test]
fn incremental_engines_match_scratch_on_100_random_instances() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for case in 0..120 {
        let inst = random_instance(&mut rng);
        let mut triples = shuffled_candidate_triples(&inst, &mut rng);
        triples.truncate(14);
        let mut flat = IncrementalRevenue::new(&inst);
        let mut hash = HashIncrementalRevenue::new(&inst);
        let mut s = Strategy::new();
        for z in triples {
            let scratch = marginal_revenue(&inst, &s, z);
            let flat_m = flat.marginal_revenue(z);
            let hash_m = hash.marginal_revenue(z);
            assert!(
                (scratch - flat_m).abs() < 1e-9,
                "case {case}: flat marginal {flat_m} vs scratch {scratch} for {z}"
            );
            assert!(
                (scratch - hash_m).abs() < 1e-9,
                "case {case}: hash marginal {hash_m} vs scratch {scratch} for {z}"
            );
            let realised_flat = flat.insert(z);
            let realised_hash = hash.insert(z);
            assert!(
                (realised_flat - scratch).abs() < 1e-9,
                "case {case}: insert {z}"
            );
            assert!(
                (realised_hash - scratch).abs() < 1e-9,
                "case {case}: insert {z}"
            );
            s.insert(z);
            let total = revenue(&inst, &s);
            assert!(
                (flat.revenue() - total).abs() < 1e-9,
                "case {case}: flat total {} vs scratch {total}",
                flat.revenue()
            );
            assert!(
                (hash.revenue() - total).abs() < 1e-9,
                "case {case}: hash total {} vs scratch {total}",
                hash.revenue()
            );
        }
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

/// The shared atomic ledger and the sequential ledger grant identical claim
/// sequences.
#[test]
fn shared_and_sequential_ledgers_agree() {
    let mut rng = StdRng::seed_from_u64(0x1ED6);
    for _ in 0..20 {
        let inst = random_instance(&mut rng);
        let mut seq = revmax_core::CapacityLedger::new(&inst);
        let shared = revmax_core::SharedCapacityLedger::new(&inst);
        for _ in 0..40 {
            let item = revmax_core::ItemId(rng.gen_range(0..inst.num_items()));
            assert_eq!(seq.is_full(item), shared.is_full(item));
            assert_eq!(seq.claim(item), shared.try_claim(item));
            assert_eq!(seq.used(item), shared.used(item));
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

/// Like [`random_instance`], but betas are drawn **per class** so every class
/// is `BetaProfile::Uniform` and the flat engine's saturation-aggregate fast
/// path covers every group. Class betas include the exact 0 and 1 edge cases.
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

/// The saturation-aggregate fast path (engaged on every group of a uniform-β
/// instance) agrees with the slab walk and the from-scratch evaluator to
/// 1e-9, across random insertion sequences that include non-candidate
/// triples, deeper groups (display limit up to 3), and β ∈ {0, 1} classes.
#[test]
fn aggregate_fast_path_matches_walk_on_uniform_beta_instances() {
    let mut rng = StdRng::seed_from_u64(0xA66);
    for case in 0..120 {
        let inst = random_uniform_beta_instance(&mut rng);
        assert!(inst.all_beta_uniform(), "case {case}: generator broken");
        let mut triples = shuffled_candidate_triples(&inst, &mut rng);
        triples.truncate(16);
        // A couple of non-candidate triples exercise the cold-path aggregate
        // bookkeeping (memory + saturation without gain).
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
        // Explicit opt-in: these instances are small enough that the default
        // depth-gated `Auto` mode would compile some groups to walk kernels.
        let mut agg = IncrementalRevenue::new(&inst);
        agg.set_aggregate_mode(AggregateMode::On);
        let mut walk = IncrementalRevenue::new(&inst);
        walk.set_aggregate_mode(AggregateMode::Off);
        assert!(
            agg.aggregates_active(),
            "case {case}: fast path must engage"
        );
        assert!(!walk.aggregates_active());
        let mut s = Strategy::new();
        for z in triples {
            let scratch = marginal_revenue(&inst, &s, z);
            let m_agg = agg.marginal_revenue(z);
            let m_walk = walk.marginal_revenue(z);
            assert!(
                (m_agg - m_walk).abs() < 1e-9,
                "case {case}: aggregate {m_agg} vs walk {m_walk} for {z}"
            );
            assert!(
                (m_agg - scratch).abs() < 1e-9,
                "case {case}: aggregate {m_agg} vs scratch {scratch} for {z}"
            );
            agg.insert(z);
            walk.insert(z);
            s.insert(z);
            assert!(
                (agg.revenue() - revenue(&inst, &s)).abs() < 1e-9,
                "case {case}: total after {z}"
            );
        }
    }
}

/// Batch and per-slot evaluation stay bit-identical on the aggregate path.
#[test]
fn aggregate_batch_is_bit_identical_to_scalar() {
    let mut rng = StdRng::seed_from_u64(0xA66B);
    for case in 0..40 {
        let inst = random_uniform_beta_instance(&mut rng);
        let mut inc = IncrementalRevenue::new(&inst);
        inc.set_aggregate_mode(AggregateMode::On);
        let mut triples = shuffled_candidate_triples(&inst, &mut rng);
        triples.truncate(10);
        for z in triples {
            inc.insert(z);
        }
        let horizon = inst.horizon() as usize;
        let mask = (1u64 << horizon) - 1;
        let mut out = vec![0.0; horizon];
        for cand in inst.candidates() {
            inc.marginal_revenue_batch(cand, mask, &mut out);
            for (t_idx, &batched) in out.iter().enumerate() {
                let scalar =
                    RevenueEngine::marginal_revenue_cand(&inc, cand, TimeStep::from_index(t_idx));
                assert_eq!(
                    batched.to_bits(),
                    scalar.to_bits(),
                    "case {case}: cand {cand:?} t {t_idx}"
                );
            }
        }
    }
}

/// Aggregate-eligibility edges: single-item classes are trivially uniform,
/// mixed-β classes fall back to the walk (per group, within one engine), and
/// an all-mixed instance reports the fast path inactive.
#[test]
fn aggregate_eligibility_edges() {
    // Item 0 and 1 share a class with different betas (mixed), item 2 is a
    // single-item class (uniform by definition).
    let mut b = InstanceBuilder::new(2, 3, 3);
    b.display_limit(2)
        .item_class(0, 0)
        .item_class(1, 0)
        .item_class(2, 1)
        .beta(0, 0.3)
        .beta(1, 0.7)
        .beta(2, 0.5)
        .constant_price(0, 10.0)
        .constant_price(1, 8.0)
        .constant_price(2, 6.0)
        .candidate(0, 0, &[0.5, 0.4, 0.3], 0.0)
        .candidate(0, 1, &[0.2, 0.6, 0.1], 0.0)
        .candidate(0, 2, &[0.3, 0.3, 0.3], 0.0)
        .candidate(1, 2, &[0.9, 0.1, 0.2], 0.0);
    let inst = b.build().unwrap();
    let mut inc = IncrementalRevenue::new(&inst);
    // Forced engagement (`On`): the default `Auto` mode would depth-gate
    // this tiny instance's groups to walk kernels.
    inc.set_aggregate_mode(AggregateMode::On);
    // The single-item class keeps the engine's fast path engageable.
    assert!(inc.aggregates_active());
    let mut walk = IncrementalRevenue::new(&inst);
    walk.set_aggregate_mode(AggregateMode::Off);
    let picks = [
        Triple::new(0, 0, 1),
        Triple::new(0, 2, 1),
        Triple::new(0, 1, 2),
        Triple::new(1, 2, 2),
        Triple::new(0, 2, 3),
        Triple::new(0, 0, 3),
    ];
    let mut s = Strategy::new();
    for z in picks {
        let scratch = marginal_revenue(&inst, &s, z);
        assert!((inc.marginal_revenue(z) - scratch).abs() < 1e-10, "{z}");
        assert!((walk.marginal_revenue(z) - scratch).abs() < 1e-10, "{z}");
        inc.insert(z);
        walk.insert(z);
        s.insert(z);
    }
    assert!((inc.revenue() - revenue(&inst, &s)).abs() < 1e-10);
    assert!((inc.revenue() - walk.revenue()).abs() < 1e-10);

    // All-mixed instance: the probe reports the fast path inactive.
    let mut b = InstanceBuilder::new(1, 2, 2);
    b.item_class(0, 0)
        .item_class(1, 0)
        .beta(0, 0.2)
        .beta(1, 0.9)
        .constant_price(0, 5.0)
        .constant_price(1, 5.0)
        .candidate(0, 0, &[0.5, 0.5], 0.0)
        .candidate(0, 1, &[0.4, 0.4], 0.0);
    let mixed = b.build().unwrap();
    let mut forced = IncrementalRevenue::new(&mixed);
    forced.set_aggregate_mode(AggregateMode::On);
    assert!(!forced.aggregates_active());
    // `ignore_saturation` treats every class as uniform (all factors are 1).
    let mut sat_free = IncrementalRevenue::with_options(&mixed, true);
    sat_free.set_aggregate_mode(AggregateMode::On);
    assert!(sat_free.aggregates_active());
}

/// Shard views keep aggregate parity: a sharded evaluator with aggregates on
/// matches the full walk evaluator on shard-restricted insertions.
#[test]
fn aggregate_shard_views_match_full_walk() {
    let mut rng = StdRng::seed_from_u64(0xA665);
    for case in 0..30 {
        let inst = random_uniform_beta_instance(&mut rng);
        if inst.num_users() < 2 {
            continue;
        }
        let cut = inst.num_users() / 2;
        let shards = [
            inst.user_shard(0, cut),
            inst.user_shard(cut, inst.num_users()),
        ];
        let mut full = IncrementalRevenue::new(&inst);
        full.set_aggregate_mode(AggregateMode::Off);
        let mut views: Vec<IncrementalRevenue<'_>> = shards
            .iter()
            .map(|&s| IncrementalRevenue::for_user_shard(&inst, false, s))
            .collect();
        let mut triples = shuffled_candidate_triples(&inst, &mut rng);
        triples.truncate(12);
        for z in triples {
            let cand = inst.candidate_for(z.user, z.item).unwrap();
            let view = views
                .iter_mut()
                .find(|v| v.shard().contains_user(z.user))
                .unwrap();
            let m_full = RevenueEngine::marginal_revenue_cand(&full, cand, z.t);
            let m_view = RevenueEngine::marginal_revenue_cand(&*view, cand, z.t);
            assert!(
                (m_full - m_view).abs() < 1e-9,
                "case {case}: shard {m_view} vs full {m_full} for {z}"
            );
            full.insert_cand(cand, z.t);
            view.insert_cand(cand, z.t);
        }
        let sum: f64 = views.iter().map(|v| v.revenue()).sum();
        assert!(
            (sum - full.revenue()).abs() < 1e-9,
            "case {case}: {sum} vs {}",
            full.revenue()
        );
    }
}

/// Disabling aggregates after insertions must not leave stale blocks behind:
/// queries fall back to the (always-correct) slab walk, and re-enabling
/// mid-run stays on the walk rather than reading blocks that missed inserts.
#[test]
fn aggregate_toggle_mid_run_never_reads_stale_blocks() {
    let mut rng = StdRng::seed_from_u64(0xA668);
    for case in 0..20 {
        let inst = random_uniform_beta_instance(&mut rng);
        let mut triples = shuffled_candidate_triples(&inst, &mut rng);
        triples.truncate(10);
        if triples.len() < 4 {
            continue;
        }
        let mut toggled = IncrementalRevenue::new(&inst);
        let mut s = Strategy::new();
        for (idx, &z) in triples.iter().enumerate() {
            if idx == 2 {
                // Allocated blocks exist by now; they must be ignored below.
                toggled.set_aggregate_mode(AggregateMode::Off);
            }
            if idx == 4 {
                // Re-enabling mid-run must not resurrect the stale blocks.
                toggled.set_aggregate_mode(AggregateMode::On);
            }
            let scratch = marginal_revenue(&inst, &s, z);
            let m = toggled.marginal_revenue(z);
            assert!(
                (m - scratch).abs() < 1e-9,
                "case {case}: toggled {m} vs scratch {scratch} for {z}"
            );
            toggled.insert(z);
            s.insert(z);
            assert!(
                (toggled.revenue() - revenue(&inst, &s)).abs() < 1e-9,
                "case {case}: total after {z}"
            );
        }
    }
}
