//! Order statistics: nearest-rank percentiles, the ten-samples-beyond rule,
//! quartiles as the driver computes them, and the median of a few values.

/// Nearest-rank percentile of an ascending slice: the smallest value with at
/// least `p` of the samples at or below it. `p` in `(0, 1]`.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A percentile is reported only when at least ten samples lie beyond it.
pub fn supported(samples: usize, p: f64) -> bool {
    let rank = (p * samples as f64).ceil() as usize;
    samples >= rank + 10
}

/// Sort in place and return the nearest-rank percentile.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    nearest_rank(values, p)
}

/// The median as `statistics.median` gives it (mean of the middle two for an
/// even count) — used across repeats and start-ups, where there are few
/// values.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Distance between the first and third quartile as a share of the median,
/// with quartiles as Python's `statistics.quantiles(values, n=4)` (exclusive
/// method) gives them. `None` below two values or at a zero median.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quantile = |k: usize| {
        let m = v.len() + 1;
        let j = (k * m / 4).clamp(1, v.len() - 1);
        let delta = (k * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    let med = median(&v);
    (med != 0.0).then(|| (quantile(3) - quantile(1)).abs() / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_observed_value() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), 50.0);
        assert_eq!(nearest_rank(&v, 0.99), 99.0);
        assert_eq!(nearest_rank(&v, 1.0), 100.0);
        assert_eq!(nearest_rank(&v, 0.001), 1.0);
        assert_eq!(nearest_rank(&[7.0], 0.99), 7.0);
        // 5 samples: p50 is the 3rd, p99 the 5th.
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(nearest_rank(&v, 0.5), 3.0);
        assert_eq!(nearest_rank(&v, 0.99), 5.0);
    }

    #[test]
    fn ten_samples_must_lie_beyond_a_reported_percentile() {
        // p99 of 1000 samples is rank 990: exactly ten beyond.
        assert!(supported(1000, 0.99));
        assert!(!supported(999, 0.99));
        assert!(supported(20, 0.5));
        assert!(!supported(19, 0.5));
        assert!(!supported(0, 0.5));
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let share = iqr_share(&v).unwrap();
        assert!((share - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{share}");
        assert_eq!(iqr_share(&[1.0]), None);
        assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), None);
    }
}
