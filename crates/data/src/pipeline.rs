//! End-to-end dataset construction: from configuration to a ready-to-optimize
//! [`revmax_core::Instance`].
//!
//! Two pipelines are provided, mirroring §6.1 of the paper:
//!
//! * [`generate`] — the real-data pipeline: generate ratings, train matrix
//!   factorization, keep the top-N predicted items per user, derive per-item
//!   valuation distributions from (reported) price samples, and convert
//!   predicted ratings + prices into primitive adoption probabilities;
//! * [`generate_scalability`] — the synthetic pipeline used for the
//!   scalability study (Figure 6): adoption probabilities are sampled directly
//!   and matched to prices so that anti-monotonicity holds, skipping MF.
//!
//! # Where generation time goes
//!
//! The synthetic pipeline is dominated by its per-user Fisher–Yates shuffle
//! of the whole item pool: 1,500 users over 20,000 items (perfbench's
//! `plan_scale` instance) make 30 M bounded draws, and a paper-scale Figure 6
//! sweep (100k–500k users) makes 3 × 10^10. On a 2-vCPU Xeon that instance
//! took about 290 ms when every draw paid two 64-bit divisions, two thirds of
//! it in the shuffles. The shim's zone skip halves the shuffles, and one
//! [`rand::seq::Shuffler`] table shared by every user replaces the remaining
//! division with multiplications; the instance now generates in about 165 ms,
//! about half of it in the shuffles and most of the rest in drawing,
//! sorting and matching the 750k adoption probabilities and in
//! [`InstanceBuilder`]. Both fast paths are bit-identical to the division
//! rule, and `tests/fingerprints.rs` pins every generated instance. The MF
//! pipeline spends its time in training: `amazon_like().scaled(0.02)` takes
//! about 11 ms.

use crate::classes::assign_classes;
use crate::config::DatasetConfig;
use crate::prices::{amazon_style_series, base_price, reported_price_samples, synthetic_series};
use crate::ratings_gen::{generate_ratings, GroundTruthPreferences};
use rand::rngs::StdRng;
use rand::seq::Shuffler;
use rand::{Rng, SeedableRng};
use revmax_core::{Instance, InstanceBuilder};
use revmax_pricing::{adoption_series, GaussianValuation};
use revmax_recsys::{MatrixFactorization, RatingSet};

/// A generated dataset: the optimization instance plus provenance information.
#[derive(Debug, Clone)]
pub struct GeneratedDataset {
    /// The configuration the dataset was generated from.
    pub config: DatasetConfig,
    /// The REVMAX instance ready to be optimized.
    pub instance: Instance,
    /// Number of observed ratings fed to the recommender substrate.
    pub num_ratings: u64,
    /// Hold-out RMSE of the trained MF model (NaN for the scalability pipeline,
    /// which skips MF entirely).
    pub mf_rmse: f64,
}

impl GeneratedDataset {
    /// Number of candidate triples with positive adoption probability — the
    /// "true input size" of Table 1.
    pub fn positive_triples(&self) -> usize {
        self.instance.num_candidate_triples()
    }
}

/// Runs the full real-data-style pipeline for the given configuration.
pub fn generate(config: &DatasetConfig) -> GeneratedDataset {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let classes = assign_classes(
        config.num_items,
        config.num_classes,
        config.class_skew,
        &mut rng,
    );

    // 1. Ratings from a ground-truth low-rank preference model.
    let prefs = GroundTruthPreferences::generate(
        config.num_users,
        config.num_items,
        config.latent_factors,
        &mut rng,
    );
    let ratings = generate_ratings(&prefs, config.num_ratings, config.rating_noise, &mut rng);

    // 2. Matrix factorization on a train split, RMSE on the hold-out.
    let (train, test) = ratings.split(0.1, &mut rng);
    let model = MatrixFactorization::train(&train, &config.mf);
    let mf_rmse = model.evaluate_rmse(&test);

    // 3. Prices and valuations per item.
    let mut price_series = Vec::with_capacity(config.num_items as usize);
    let mut valuations = Vec::with_capacity(config.num_items as usize);
    for _item in 0..config.num_items {
        let base = base_price(config.price_range, &mut rng);
        let series = amazon_style_series(
            base,
            config.horizon,
            config.daily_price_noise,
            config.sale_probability,
            config.sale_depth,
            &mut rng,
        );
        // Reported price samples play the role of the Epinions price reports:
        // they determine the valuation distribution of the item's buyers.
        let reported = reported_price_samples(base, 25, 0.12, &mut rng);
        valuations.push(GaussianValuation::from_samples(&reported));
        price_series.push(series);
    }

    build_instance(
        config,
        &classes,
        &price_series,
        &valuations,
        &model,
        &ratings,
        mf_rmse,
        &mut rng,
    )
}

#[allow(clippy::too_many_arguments)]
fn build_instance(
    config: &DatasetConfig,
    classes: &[u32],
    price_series: &[Vec<f64>],
    valuations: &[GaussianValuation],
    model: &MatrixFactorization,
    ratings: &RatingSet,
    mf_rmse: f64,
    rng: &mut StdRng,
) -> GeneratedDataset {
    let mut builder = InstanceBuilder::new(config.num_users, config.num_items, config.horizon);
    builder.display_limit(config.display_limit);
    for item in 0..config.num_items {
        builder.item_class(item, classes[item as usize]);
        builder.beta(item, config.beta.sample(rng));
        builder.capacity(item, config.capacity.sample(rng));
        builder.prices(item, &price_series[item as usize]);
    }

    let max_rating = if model.max_rating().is_finite() {
        model.max_rating()
    } else {
        5.0
    };
    for user in 0..config.num_users {
        let top = model.top_n_for_user(user, config.candidates_per_user as usize);
        for (item, predicted) in top {
            let probs = adoption_series(
                &valuations[item as usize],
                predicted,
                max_rating,
                &price_series[item as usize],
            );
            if probs.iter().any(|&p| p > 0.0) {
                builder.candidate(user, item, &probs, predicted);
            }
        }
    }

    let instance = builder
        .build()
        .expect("generated dataset must be a valid instance");
    GeneratedDataset {
        config: config.clone(),
        instance,
        num_ratings: ratings.len() as u64,
        mf_rmse,
    }
}

/// Runs the scalability pipeline of §6.1 (used for Figure 6): adoption
/// probabilities are drawn directly and matched to prices so that cheaper days
/// have higher adoption probability.
pub fn generate_scalability(config: &DatasetConfig) -> GeneratedDataset {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let classes = assign_classes(
        config.num_items,
        config.num_classes,
        config.class_skew,
        &mut rng,
    );

    let mut builder = InstanceBuilder::new(config.num_users, config.num_items, config.horizon);
    builder.display_limit(config.display_limit);
    let mut price_series = Vec::with_capacity(config.num_items as usize);
    let mut attractiveness = Vec::with_capacity(config.num_items as usize);
    for item in 0..config.num_items {
        builder.item_class(item, classes[item as usize]);
        builder.beta(item, config.beta.sample(&mut rng));
        builder.capacity(item, config.capacity.sample(&mut rng));
        let series = synthetic_series(config.price_range, config.horizon, &mut rng);
        builder.prices(item, &series);
        price_series.push(series);
        attractiveness.push(rng.gen_range(0.0..1.0_f64));
    }

    let t = config.horizon as usize;
    let mut item_pool: Vec<u32> = (0..config.num_items).collect();
    // Every user shuffles the whole pool, so one reciprocal table serves all
    // of them (bit-identical to `SliceRandom::shuffle`).
    let shuffler = Shuffler::new(item_pool.len());
    let mut probs: Vec<f64> = Vec::with_capacity(t);
    let mut price_order: Vec<usize> = Vec::with_capacity(t);
    let mut matched = vec![0.0; t];
    for user in 0..config.num_users {
        shuffler.shuffle(&mut item_pool, &mut rng);
        for &item in item_pool.iter().take(config.candidates_per_user as usize) {
            let y = attractiveness[item as usize];
            // T adoption probability draws around the item attractiveness.
            probs.clear();
            probs.extend((0..t).map(|_| {
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                (y + 0.1_f64.sqrt() * z).clamp(0.0, 1.0)
            }));
            // Match probabilities to prices so anti-monotonicity holds:
            // the cheapest day gets the largest probability. Every day is
            // written, so `matched` needs no reset.
            let prices = &price_series[item as usize];
            price_order.clear();
            price_order.extend(0..t);
            price_order.sort_by(|&a, &b| prices[a].partial_cmp(&prices[b]).unwrap());
            probs.sort_by(|a, b| b.partial_cmp(a).unwrap());
            for (rank, &day) in price_order.iter().enumerate() {
                matched[day] = probs[rank];
            }
            if matched.iter().any(|&p| p > 0.0) {
                builder.candidate(user, item, &matched, y * 5.0);
            }
        }
    }

    let instance = builder
        .build()
        .expect("scalability dataset must be a valid instance");
    GeneratedDataset {
        config: config.clone(),
        instance,
        num_ratings: 0,
        mf_rmse: f64::NAN,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BetaSetting, CapacityDistribution};
    use revmax_core::{ItemId, TimeStep, UserId};

    #[test]
    fn tiny_pipeline_produces_consistent_instance() {
        let config = DatasetConfig::tiny();
        let ds = generate(&config);
        let inst = &ds.instance;
        assert_eq!(inst.num_users(), config.num_users);
        assert_eq!(inst.num_items(), config.num_items);
        assert_eq!(inst.horizon(), config.horizon);
        assert_eq!(inst.display_limit(), config.display_limit);
        assert!(inst.num_classes() <= config.num_classes);
        assert!(ds.num_ratings > 0);
        assert!(ds.mf_rmse.is_finite());
        assert!(ds.positive_triples() > 0);
        // Every user got at most `candidates_per_user` candidates.
        for u in 0..config.num_users {
            let count = inst.candidates_of_user(UserId(u)).count();
            assert!(count <= config.candidates_per_user as usize);
        }
        // Probabilities and prices are sane.
        for c in inst.candidates() {
            for &p in inst.candidate_probs(c) {
                assert!((0.0..=1.0).contains(&p));
            }
        }
        for i in 0..config.num_items {
            assert!(inst.price_series(ItemId(i)).iter().all(|&p| p > 0.0));
            assert!((0.0..=1.0).contains(&inst.beta(ItemId(i))));
            assert!(inst.capacity(ItemId(i)) >= 1);
        }
    }

    #[test]
    fn pipeline_is_deterministic_for_a_seed() {
        let config = DatasetConfig::tiny();
        let a = generate(&config);
        let b = generate(&config);
        assert_eq!(a.positive_triples(), b.positive_triples());
        assert_eq!(a.num_ratings, b.num_ratings);
        let ca = a.instance.candidates().count();
        let cb = b.instance.candidates().count();
        assert_eq!(ca, cb);
    }

    #[test]
    fn adoption_probability_is_anti_monotone_in_price_on_average() {
        // Cheaper days should on average have higher adoption probability
        // because q is driven by Pr[val ≥ price].
        let mut config = DatasetConfig::tiny();
        config.daily_price_noise = 0.25;
        config.sale_probability = 0.3;
        let ds = generate(&config);
        let inst = &ds.instance;
        let mut agree = 0u32;
        let mut total = 0u32;
        for c in inst.candidates() {
            let item = inst.candidate_item(c);
            let probs = inst.candidate_probs(c);
            for t1 in 0..inst.horizon() as usize {
                for t2 in (t1 + 1)..inst.horizon() as usize {
                    let p1 = inst.price(item, TimeStep::from_index(t1));
                    let p2 = inst.price(item, TimeStep::from_index(t2));
                    if (p1 - p2).abs() < 1e-9 {
                        continue;
                    }
                    total += 1;
                    let cheaper_has_higher_q =
                        (p1 < p2 && probs[t1] >= probs[t2]) || (p2 < p1 && probs[t2] >= probs[t1]);
                    if cheaper_has_higher_q {
                        agree += 1;
                    }
                }
            }
        }
        assert!(total > 0);
        assert!(
            agree as f64 / total as f64 > 0.95,
            "anti-monotonicity violated too often: {agree}/{total}"
        );
    }

    #[test]
    fn scalability_pipeline_shapes() {
        let mut config = DatasetConfig::synthetic_scalability(200);
        config.num_items = 100;
        config.num_classes = 10;
        config.candidates_per_user = 20;
        let ds = generate_scalability(&config);
        let inst = &ds.instance;
        assert_eq!(inst.num_users(), 200);
        assert_eq!(inst.horizon(), 5);
        assert!(ds.mf_rmse.is_nan());
        // Input size ≈ candidates_per_user × T × |U| (some triples may be 0).
        let expected = 200 * 20 * 5;
        assert!(ds.positive_triples() as u64 <= expected);
        assert!(ds.positive_triples() as u64 > expected / 2);
        // Anti-monotonicity holds exactly by construction.
        for c in inst.candidates().take(500) {
            let item = inst.candidate_item(c);
            let probs = inst.candidate_probs(c);
            for t1 in 0..5usize {
                for t2 in 0..5usize {
                    let p1 = inst.price(item, TimeStep::from_index(t1));
                    let p2 = inst.price(item, TimeStep::from_index(t2));
                    if p1 < p2 {
                        assert!(probs[t1] >= probs[t2] - 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn beta_and_capacity_settings_are_respected() {
        let mut config = DatasetConfig::tiny();
        config.beta = BetaSetting::Fixed(0.5);
        config.capacity = CapacityDistribution::Uniform { min: 3.0, max: 6.0 };
        let ds = generate(&config);
        for i in 0..config.num_items {
            assert_eq!(ds.instance.beta(ItemId(i)), 0.5);
            let c = ds.instance.capacity(ItemId(i));
            assert!((3..=6).contains(&c));
        }
    }
}
