//! Quantiles that carry their sample count and refuse to exist without
//! enough samples beyond them.

/// A percentile needs at least this many samples strictly above its rank.
pub const MIN_BEYOND: usize = 10;

/// One reported quantile: its value and the sample count it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    pub value: f64,
    pub n: usize,
}

/// Nearest-rank percentile `p` (in `(0, 1)`) of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond the rank: a p90 needs 100
/// samples, a median 20.
pub fn percentile(samples: &[f64], p: f64) -> Option<Quantile> {
    assert!(p > 0.0 && p < 1.0, "percentile rank must lie in (0, 1)");
    let n = samples.len();
    // The nearest-rank index: the smallest sample with at least `p * n`
    // samples at or below it.
    let rank = ((p * n as f64).ceil() as usize).max(1);
    if n == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Quantile {
        value: sorted[rank - 1],
        n,
    })
}

/// The median of a small sample with no honesty floor — for set-up times
/// and per-layer medians, which report their count alongside.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(
            percentile(&samples, 0.5),
            Some(Quantile {
                value: 50.0,
                n: 100
            })
        );
        assert_eq!(
            percentile(&samples, 0.9),
            Some(Quantile {
                value: 90.0,
                n: 100
            })
        );
        // Order of the input does not matter.
        let reversed: Vec<f64> = samples.iter().rev().copied().collect();
        assert_eq!(percentile(&reversed, 0.9), percentile(&samples, 0.9));
    }

    #[test]
    fn refuses_quantiles_without_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=99).map(f64::from).collect();
        // p90 of 99 samples has only 9 beyond its rank.
        assert_eq!(percentile(&samples, 0.9), None);
        assert!(percentile(&samples, 0.5).is_some());
        assert_eq!(percentile(&samples[..19], 0.5), None);
        assert_eq!(
            percentile(&samples[..20], 0.5),
            Some(Quantile { value: 10.0, n: 20 })
        );
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
