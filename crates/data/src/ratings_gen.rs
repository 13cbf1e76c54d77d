//! Synthetic rating generation from a low-rank ground-truth preference model.
//!
//! The crawled datasets provide real ratings; our substitute generates them
//! from latent user/item factors (so that matrix factorization — the substrate
//! the paper trains — can actually recover structure), with item popularity
//! skew and observation noise controlling sparsity and difficulty.

use rand::seq::SliceRandom;
use rand::Rng;
use revmax_recsys::RatingSet;
use std::collections::HashSet;

/// A dense low-rank ground-truth preference model.
#[derive(Debug, Clone)]
pub struct GroundTruthPreferences {
    factors: usize,
    user_latent: Vec<f64>,
    item_latent: Vec<f64>,
    num_users: u32,
    num_items: u32,
}

impl GroundTruthPreferences {
    /// Samples a ground-truth model with the given number of latent factors.
    pub fn generate<R: Rng>(num_users: u32, num_items: u32, factors: usize, rng: &mut R) -> Self {
        let f = factors.max(1);
        let scale = (1.0 / f as f64).sqrt();
        let user_latent = (0..num_users as usize * f)
            .map(|_| rng.gen_range(-1.0..1.0) * scale * 2.0)
            .collect();
        let item_latent = (0..num_items as usize * f)
            .map(|_| rng.gen_range(-1.0..1.0) * scale * 2.0)
            .collect();
        GroundTruthPreferences {
            factors: f,
            user_latent,
            item_latent,
            num_users,
            num_items,
        }
    }

    /// The noiseless rating a user would give an item, on a 1–5 scale.
    pub fn true_rating(&self, user: u32, item: u32) -> f64 {
        let f = self.factors;
        let u = user as usize;
        let i = item as usize;
        let mut dot = 0.0;
        for k in 0..f {
            dot += self.user_latent[u * f + k] * self.item_latent[i * f + k];
        }
        (3.0 + 1.8 * dot).clamp(1.0, 5.0)
    }

    /// Number of users in the model.
    pub fn num_users(&self) -> u32 {
        self.num_users
    }

    /// Number of items in the model.
    pub fn num_items(&self) -> u32 {
        self.num_items
    }
}

/// Generates roughly `num_ratings` observed ratings: items are picked with a
/// Zipf-ish popularity skew, users uniformly, duplicates are skipped, and the
/// true rating is perturbed with `noise` and rounded to half stars.
pub fn generate_ratings<R: Rng>(
    prefs: &GroundTruthPreferences,
    num_ratings: u64,
    noise: f64,
    rng: &mut R,
) -> RatingSet {
    let num_users = prefs.num_users();
    let num_items = prefs.num_items();
    let mut ratings = RatingSet::new(num_users, num_items);
    if num_users == 0 || num_items == 0 {
        return ratings;
    }
    // Popularity weights ∝ 1 / rank^0.8, assigned to a random permutation of items.
    let mut item_order: Vec<u32> = (0..num_items).collect();
    item_order.shuffle(rng);
    let weights: Vec<f64> = (1..=num_items as usize)
        .map(|r| 1.0 / (r as f64).powf(0.8))
        .collect();
    let cumulative: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w;
            Some(*acc)
        })
        .collect();
    let total_weight = *cumulative.last().unwrap();

    let mut seen: HashSet<(u32, u32)> = HashSet::new();
    let max_attempts = num_ratings.saturating_mul(4).max(16);
    let mut attempts = 0u64;
    while (ratings.len() as u64) < num_ratings && attempts < max_attempts {
        attempts += 1;
        let user = rng.gen_range(0..num_users);
        let draw = rng.gen_range(0.0..total_weight);
        let rank = cumulative
            .partition_point(|&c| c < draw)
            .min(num_items as usize - 1);
        let item = item_order[rank];
        if !seen.insert((user, item)) {
            continue;
        }
        let value = prefs.true_rating(user, item) + rng.gen_range(-noise..=noise);
        let value = (value * 2.0).round() / 2.0; // half-star granularity
        ratings.push(user, item, value.clamp(1.0, 5.0));
    }
    ratings
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn true_ratings_stay_on_the_scale() {
        let mut rng = StdRng::seed_from_u64(1);
        let prefs = GroundTruthPreferences::generate(50, 30, 6, &mut rng);
        for u in 0..50 {
            for i in 0..30 {
                let r = prefs.true_rating(u, i);
                assert!((1.0..=5.0).contains(&r));
            }
        }
    }

    #[test]
    fn generated_ratings_hit_the_target_count() {
        let mut rng = StdRng::seed_from_u64(2);
        let prefs = GroundTruthPreferences::generate(100, 60, 4, &mut rng);
        let ratings = generate_ratings(&prefs, 1500, 0.3, &mut rng);
        assert!(ratings.len() >= 1400, "only generated {}", ratings.len());
        assert!(ratings
            .ratings()
            .iter()
            .all(|r| (1.0..=5.0).contains(&r.value)));
    }

    #[test]
    fn ratings_have_popularity_skew() {
        let mut rng = StdRng::seed_from_u64(3);
        let prefs = GroundTruthPreferences::generate(300, 100, 4, &mut rng);
        let ratings = generate_ratings(&prefs, 4000, 0.3, &mut rng);
        let mut counts = ratings.item_rating_counts();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u32 = counts.iter().take(10).sum();
        let bottom50: u32 = counts.iter().rev().take(50).sum();
        assert!(
            top10 > bottom50,
            "popular items ({top10}) should gather more ratings than the tail ({bottom50})"
        );
    }

    #[test]
    fn no_duplicate_user_item_pairs() {
        let mut rng = StdRng::seed_from_u64(4);
        let prefs = GroundTruthPreferences::generate(20, 15, 4, &mut rng);
        let ratings = generate_ratings(&prefs, 200, 0.2, &mut rng);
        let mut seen = HashSet::new();
        for r in ratings.ratings() {
            assert!(
                seen.insert((r.user, r.item)),
                "duplicate pair ({}, {})",
                r.user,
                r.item
            );
        }
    }

    #[test]
    fn degenerate_universe_yields_empty_set() {
        let mut rng = StdRng::seed_from_u64(5);
        let prefs = GroundTruthPreferences::generate(0, 0, 4, &mut rng);
        let ratings = generate_ratings(&prefs, 100, 0.2, &mut rng);
        assert!(ratings.is_empty());
    }
}
