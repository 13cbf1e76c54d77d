//! Configuration of the synthetic dataset generators.
//!
//! The paper evaluates on two crawled datasets (Amazon Electronics and
//! Epinions) plus a family of large synthetic datasets. We cannot redistribute
//! the crawls, so the generators in this crate produce datasets with the same
//! *shape*: the user/item/rating counts and class-size profile of Table 1, a
//! per-day price series over a one-week horizon, and adoption probabilities
//! derived exactly as in §6.1 (matrix factorization → top-N per user →
//! valuation-based adoption probability). See DESIGN.md for the substitution
//! rationale.

use rand::Rng;

/// How the per-item saturation factors `β_i` are chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BetaSetting {
    /// A single value shared by every item (the paper tests 0.1, 0.5, 0.9).
    Fixed(f64),
    /// Independent uniform draws from `[0, 1]` (the paper's "unknown β" case).
    UniformRandom,
}

impl BetaSetting {
    /// Samples a saturation factor for one item.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        match self {
            BetaSetting::Fixed(b) => b.clamp(0.0, 1.0),
            BetaSetting::UniformRandom => rng.gen_range(0.0..=1.0),
        }
    }
}

/// Distribution from which per-item capacities `q_i` are sampled (§6.1 tests
/// Gaussian, exponential, power-law, and uniform item-capacity profiles).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CapacityDistribution {
    /// Normal with the given mean and standard deviation.
    Gaussian {
        /// Mean capacity.
        mean: f64,
        /// Standard deviation of the capacity.
        std: f64,
    },
    /// Exponential with the given mean (inverse rate).
    Exponential {
        /// Mean capacity.
        mean: f64,
    },
    /// Pareto / power-law with minimum value and shape `alpha`.
    PowerLaw {
        /// Minimum capacity.
        min: f64,
        /// Tail exponent (larger = lighter tail).
        alpha: f64,
    },
    /// Uniform over `[min, max]`.
    Uniform {
        /// Lower bound.
        min: f64,
        /// Upper bound.
        max: f64,
    },
}

impl CapacityDistribution {
    /// Samples one capacity value (at least 1).
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u32 {
        let value = match *self {
            CapacityDistribution::Gaussian { mean, std } => {
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                mean + std * z
            }
            CapacityDistribution::Exponential { mean } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                -mean * u.ln()
            }
            CapacityDistribution::PowerLaw { min, alpha } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                min * u.powf(-1.0 / alpha)
            }
            CapacityDistribution::Uniform { min, max } => rng.gen_range(min..=max),
        };
        value.round().max(1.0) as u32
    }
}

/// Full configuration of a generated dataset.
#[derive(Debug, Clone)]
pub struct DatasetConfig {
    /// Human-readable name (used in experiment output).
    pub name: String,
    /// Number of users `|U|`.
    pub num_users: u32,
    /// Number of items `|I|`.
    pub num_items: u32,
    /// Number of item classes.
    pub num_classes: u32,
    /// Skew of the class-size distribution (1.0 ≈ Zipf; 0.0 = uniform).
    pub class_skew: f64,
    /// Target number of observed ratings.
    pub num_ratings: u64,
    /// Time horizon `T` (days).
    pub horizon: u32,
    /// Display limit `k` (items per user per day).
    pub display_limit: u32,
    /// Number of top-rated items per user that become candidates
    /// (the paper uses 100).
    pub candidates_per_user: u32,
    /// Range of item base prices (log-uniform).
    pub price_range: (f64, f64),
    /// Per-day multiplicative price noise (e.g. 0.05 = ±5 %).
    pub daily_price_noise: f64,
    /// Probability that an item runs a sale on a given day.
    pub sale_probability: f64,
    /// Relative depth of a sale (e.g. 0.3 = 30 % off).
    pub sale_depth: f64,
    /// Number of latent factors of the ground-truth preference model.
    pub latent_factors: usize,
    /// Observation noise of generated ratings.
    pub rating_noise: f64,
    /// Saturation-factor setting.
    pub beta: BetaSetting,
    /// Capacity distribution.
    pub capacity: CapacityDistribution,
    /// Matrix-factorization training configuration used in the pipeline.
    pub mf: revmax_recsys::MfConfig,
    /// Master RNG seed.
    pub seed: u64,
}

impl DatasetConfig {
    /// A dataset shaped like the paper's Amazon Electronics crawl (Table 1):
    /// 23.0K users, 4.2K items, 681K ratings, 94 classes, T = 7.
    pub fn amazon_like() -> Self {
        DatasetConfig {
            name: "amazon-like".to_string(),
            num_users: 23_000,
            num_items: 4_200,
            num_classes: 94,
            class_skew: 1.05,
            num_ratings: 681_000,
            horizon: 7,
            display_limit: 3,
            candidates_per_user: 100,
            price_range: (15.0, 600.0),
            daily_price_noise: 0.04,
            sale_probability: 0.1,
            sale_depth: 0.3,
            latent_factors: 8,
            rating_noise: 0.4,
            beta: BetaSetting::UniformRandom,
            capacity: CapacityDistribution::Gaussian {
                mean: 5000.0,
                std: 300.0,
            },
            mf: revmax_recsys::MfConfig {
                factors: 16,
                epochs: 15,
                ..Default::default()
            },
            seed: 20140814,
        }
    }

    /// A dataset shaped like the paper's Epinions crawl (Table 1): 21.3K users,
    /// 1.1K items, 32.9K ratings (ultra sparse), 43 classes, T = 7.
    pub fn epinions_like() -> Self {
        DatasetConfig {
            name: "epinions-like".to_string(),
            num_users: 21_300,
            num_items: 1_100,
            num_classes: 43,
            class_skew: 0.35,
            num_ratings: 32_900,
            horizon: 7,
            display_limit: 3,
            candidates_per_user: 100,
            price_range: (10.0, 400.0),
            daily_price_noise: 0.06,
            sale_probability: 0.08,
            sale_depth: 0.25,
            latent_factors: 8,
            rating_noise: 0.7,
            beta: BetaSetting::UniformRandom,
            capacity: CapacityDistribution::Gaussian {
                mean: 5000.0,
                std: 200.0,
            },
            mf: revmax_recsys::MfConfig {
                factors: 16,
                epochs: 20,
                ..Default::default()
            },
            seed: 20140815,
        }
    }

    /// Scales users, items, classes, and ratings by `factor` (used to run the
    /// full experiment suite at laptop scale while preserving the shape).
    pub fn scaled(&self, factor: f64) -> Self {
        let f = factor.max(1e-3);
        let mut scaled = self.clone();
        scaled.name = format!("{}-x{:.2}", self.name, f);
        scaled.num_users = ((self.num_users as f64 * f).round() as u32).max(10);
        scaled.num_items = ((self.num_items as f64 * f).round() as u32).max(10);
        scaled.num_classes =
            ((self.num_classes as f64 * f.sqrt()).round() as u32).clamp(2, scaled.num_items);
        scaled.num_ratings = ((self.num_ratings as f64 * f * f).round() as u64).max(100);
        scaled.candidates_per_user = self.candidates_per_user.min(scaled.num_items).max(1);
        // Capacities scale with the user base so constraints stay comparable.
        scaled.capacity = match self.capacity {
            CapacityDistribution::Gaussian { mean, std } => CapacityDistribution::Gaussian {
                mean: (mean * f).max(2.0),
                std: (std * f).max(1.0),
            },
            CapacityDistribution::Exponential { mean } => CapacityDistribution::Exponential {
                mean: (mean * f).max(2.0),
            },
            CapacityDistribution::PowerLaw { min, alpha } => CapacityDistribution::PowerLaw {
                min: (min * f).max(1.0),
                alpha,
            },
            CapacityDistribution::Uniform { min, max } => CapacityDistribution::Uniform {
                min: (min * f).max(1.0),
                max: (max * f).max(2.0),
            },
        };
        scaled
    }

    /// The scalability synthetic dataset of §6.1: `num_users` users, 20K items,
    /// 500 classes, 100 candidate items per user, `T = 5`, adoption
    /// probabilities sampled directly (no MF pipeline).
    pub fn synthetic_scalability(num_users: u32) -> Self {
        DatasetConfig {
            name: format!("synthetic-{}k", num_users / 1000),
            num_users,
            num_items: 20_000,
            num_classes: 500,
            class_skew: 0.2,
            num_ratings: 0,
            horizon: 5,
            display_limit: 3,
            candidates_per_user: 100,
            price_range: (10.0, 500.0),
            daily_price_noise: 0.0,
            sale_probability: 0.0,
            sale_depth: 0.0,
            latent_factors: 0,
            rating_noise: 0.0,
            beta: BetaSetting::UniformRandom,
            capacity: CapacityDistribution::Gaussian {
                mean: 5000.0,
                std: 300.0,
            },
            mf: revmax_recsys::MfConfig::default(),
            seed: 20140816,
        }
    }

    /// A tiny configuration suitable for unit tests and doc examples.
    pub fn tiny() -> Self {
        DatasetConfig {
            name: "tiny".to_string(),
            num_users: 30,
            num_items: 20,
            num_classes: 5,
            class_skew: 0.8,
            num_ratings: 400,
            horizon: 4,
            display_limit: 2,
            candidates_per_user: 8,
            price_range: (10.0, 100.0),
            daily_price_noise: 0.05,
            sale_probability: 0.2,
            sale_depth: 0.3,
            latent_factors: 4,
            rating_noise: 0.3,
            beta: BetaSetting::UniformRandom,
            capacity: CapacityDistribution::Gaussian {
                mean: 15.0,
                std: 3.0,
            },
            mf: revmax_recsys::MfConfig {
                factors: 4,
                epochs: 10,
                ..Default::default()
            },
            seed: 7,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn beta_setting_samples_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let b = BetaSetting::UniformRandom.sample(&mut rng);
            assert!((0.0..=1.0).contains(&b));
        }
        assert_eq!(BetaSetting::Fixed(0.5).sample(&mut rng), 0.5);
        assert_eq!(BetaSetting::Fixed(2.0).sample(&mut rng), 1.0);
    }

    #[test]
    fn capacity_distributions_sample_positive_integers() {
        let mut rng = StdRng::seed_from_u64(2);
        let dists = [
            CapacityDistribution::Gaussian {
                mean: 50.0,
                std: 10.0,
            },
            CapacityDistribution::Exponential { mean: 50.0 },
            CapacityDistribution::PowerLaw {
                min: 5.0,
                alpha: 2.0,
            },
            CapacityDistribution::Uniform {
                min: 1.0,
                max: 100.0,
            },
        ];
        for d in dists {
            let samples: Vec<u32> = (0..500).map(|_| d.sample(&mut rng)).collect();
            assert!(samples.iter().all(|&c| c >= 1));
            let mean = samples.iter().map(|&c| c as f64).sum::<f64>() / samples.len() as f64;
            assert!(mean > 1.0, "mean capacity for {d:?} suspiciously small");
        }
    }

    #[test]
    fn gaussian_capacity_mean_is_close() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = CapacityDistribution::Gaussian {
            mean: 5000.0,
            std: 300.0,
        };
        let samples: Vec<u32> = (0..2000).map(|_| d.sample(&mut rng)).collect();
        let mean = samples.iter().map(|&c| c as f64).sum::<f64>() / samples.len() as f64;
        assert!((mean - 5000.0).abs() < 50.0);
    }

    #[test]
    fn presets_match_table1_shapes() {
        let amazon = DatasetConfig::amazon_like();
        assert_eq!(amazon.num_users, 23_000);
        assert_eq!(amazon.num_items, 4_200);
        assert_eq!(amazon.num_classes, 94);
        assert_eq!(amazon.horizon, 7);
        let epinions = DatasetConfig::epinions_like();
        assert_eq!(epinions.num_users, 21_300);
        assert_eq!(epinions.num_items, 1_100);
        assert_eq!(epinions.num_classes, 43);
        let synth = DatasetConfig::synthetic_scalability(100_000);
        assert_eq!(synth.num_items, 20_000);
        assert_eq!(synth.num_classes, 500);
        assert_eq!(synth.horizon, 5);
    }

    #[test]
    fn scaled_preserves_shape_and_shrinks_counts() {
        let base = DatasetConfig::amazon_like();
        let small = base.scaled(0.01);
        assert!(small.num_users < base.num_users);
        assert!(small.num_items < base.num_items);
        assert!(small.num_classes >= 2);
        assert!(small.candidates_per_user <= small.num_items);
        assert!(small.name.contains("amazon"));
        match small.capacity {
            CapacityDistribution::Gaussian { mean, .. } => assert!(mean < 5000.0),
            _ => panic!("capacity family should be preserved"),
        }
    }
}
