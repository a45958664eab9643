//! Medians and percentiles, with the sample-count rule the metrics guide
//! asks for: a percentile is only reported when at least ten samples lie
//! beyond it.

/// Samples that must lie beyond a reported percentile.
pub const SAMPLES_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller has at least one repetition.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `p`-th percentile (nearest rank) of ascending `sorted`, or `None`
/// when fewer than [`SAMPLES_BEYOND`] samples lie beyond it — a tail read
/// off a handful of samples is noise, not a measurement.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let rank = rank.min(n);
    if n - rank < SAMPLES_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Percentile of samples observed on a grid of width `quantum` (a value
/// `v` stands for a true value in `(v - quantum, v]`): the grouped-data
/// estimate, interpolating inside the bucket the rank falls in. Used where
/// the benchmark can only observe completions at its polling instants.
pub fn percentile_grouped(sorted: &[u64], p: f64, quantum: u64) -> Option<f64> {
    let v = percentile(sorted, p)?;
    let n = sorted.len() as f64;
    let below = sorted.partition_point(|&x| x < v) as f64;
    let within = sorted.partition_point(|&x| x <= v) as f64 - below;
    let frac = ((p / 100.0) * n - below) / within;
    Some(v as f64 - quantum as f64 * (1.0 - frac.clamp(0.0, 1.0)))
}

/// Relative difference of `b` against `a` (`a` is the base).
pub fn rel_diff(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else if a == 0.0 {
        f64::INFINITY
    } else {
        (b - a) / a.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 50.0), Some(500));
        assert_eq!(percentile(&v, 99.0), Some(990));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // 1000 samples: exactly 10 beyond p99 — allowed.
        let v: Vec<u64> = (1..=1000).collect();
        assert!(percentile(&v, 99.0).is_some());
        // 999 samples: rank 990 leaves 9 beyond — refused.
        let v: Vec<u64> = (1..=999).collect();
        assert_eq!(percentile(&v, 99.0), None);
        // The median of 19 samples has 9 beyond; of 21 it has 10.
        let v: Vec<u64> = (1..=19).collect();
        assert_eq!(percentile(&v, 50.0), None);
        let v: Vec<u64> = (1..=21).collect();
        assert_eq!(percentile(&v, 50.0), Some(11));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn grouped_percentile_interpolates_inside_the_bucket() {
        // 100 samples at 10, 100 at 20 (grid 10): p50 is the top of the
        // first bucket, p75 the middle of the second.
        let mut v = vec![10u64; 100];
        v.extend(vec![20u64; 100]);
        assert_eq!(percentile_grouped(&v, 50.0, 10), Some(10.0));
        assert_eq!(percentile_grouped(&v, 75.0, 10), Some(15.0));
    }

    #[test]
    fn rel_diff_uses_first_as_base() {
        assert_eq!(rel_diff(100.0, 112.0), 0.12);
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
        assert!(rel_diff(0.0, 1.0).is_infinite());
    }
}
