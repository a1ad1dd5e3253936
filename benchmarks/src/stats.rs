//! Order statistics for the benchmark's samples.
//!
//! Two conventions are deliberately kept apart: in-run percentiles
//! interpolate linearly between order statistics, while the run-to-run
//! quartiles of `agree` reproduce Python's `statistics.quantiles(values,
//! n=4)` exactly, because that is what the driver computes spreads with.

/// Smallest number of samples that must lie beyond a reported percentile.
pub const MIN_SAMPLES_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `p`-th percentile (0–100) by linear interpolation between order
/// statistics; `NaN` for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    let Some(last) = v.len().checked_sub(1) else {
        return f64::NAN;
    };
    let rank = (p / 100.0).clamp(0.0, 1.0) * last as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The median (`percentile(values, 50)`).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// How many of `n` samples lie beyond the `p`-th percentile, on the side
/// of the nearer extreme (above a p75, below a p25).
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let tail = p.min(100.0 - p) / 100.0;
    ((n as f64) * tail + 1e-9).floor() as usize
}

/// Whether `n` samples support reporting the `p`-th percentile: at least
/// [`MIN_SAMPLES_BEYOND`] of them lie beyond it.
pub fn supports_percentile(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_SAMPLES_BEYOND
}

/// Quartiles `(q1, q2, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default *exclusive* method)
/// returns them. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let m = v.len();
    match m {
        0 => return (f64::NAN, f64::NAN, f64::NAN),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Geometric mean; 1.0 for an empty sample.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-300).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 75.0), 3.25);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // 40 samples: exactly ten lie beyond p75 (and below p25), only four
        // beyond p90.
        assert_eq!(samples_beyond(40, 75.0), 10);
        assert_eq!(samples_beyond(40, 25.0), 10);
        assert_eq!(samples_beyond(40, 90.0), 4);
        assert!(supports_percentile(40, 75.0));
        assert!(supports_percentile(40, 25.0));
        assert!(!supports_percentile(39, 75.0));
        assert!(!supports_percentile(40, 90.0));
        assert!(supports_percentile(100, 90.0));
        assert!(!supports_percentile(999, 99.0));
        assert!(supports_percentile(1000, 99.0));
        // Even a median needs twenty samples.
        assert!(!supports_percentile(19, 50.0));
        assert!(supports_percentile(20, 50.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([10.0, 12.0, 11.0], n=4) == [10.0, 11.0, 12.0]
        assert_eq!(quartiles(&[10.0, 12.0, 11.0]), (10.0, 11.0, 12.0));
        // statistics.quantiles([1.0, 3.0], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 2.0, 3.5));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0, 5.0));
    }

    #[test]
    fn geomean_is_the_exponential_of_the_mean_log() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
    }
}
