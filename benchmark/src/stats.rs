//! Order statistics used for every reported number.
//!
//! Percentiles are nearest-rank (the value at rank `ceil(p·n)`), so a
//! reported percentile is always a sample that was measured. Quartiles
//! follow Python's `statistics.quantiles(values, n=4)` (the "exclusive"
//! method), because that is what the driver computes spreads with.

/// Nearest-rank percentile of an ascending-sorted slice; `p` in `(0, 1]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 1.0, "percentile rank out of range: {p}");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank position of percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// A percentile is reportable when at least ten samples lie beyond it.
pub fn supports_percentile(n: usize, p: f64) -> bool {
    n > 0 && samples_beyond(n, p) >= 10
}

/// Sort a sample ascending (latencies are never NaN).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    values
}

/// Median with the midpoint convention for even counts; 0 when empty, so
/// a layer that saw no work reports 0 instead of aborting the run.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let s = sorted(values.to_vec());
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an unsorted sample; 0 when empty.
pub fn percentile_of(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    percentile(&sorted(values.to_vec()), p)
}

/// `(q1, q2, q3)` as `statistics.quantiles(values, n=4)` gives them.
/// Needs at least two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let s = sorted(values.to_vec());
    let n = s.len();
    let at = |i: usize| {
        // Position i·(n+1)/4, 1-based, interpolated and clamped to the
        // sample like CPython's exclusive method.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(2), at(3))
}

/// Interquartile distance as a share of the median — the driver's spread.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        return 0.0;
    }
    (q3 - q1) / q2.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_returns_measured_samples() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 5.0);
        assert_eq!(percentile(&s, 0.95), 10.0);
        assert_eq!(percentile(&s, 0.1), 1.0);
        assert_eq!(percentile(&s, 1.0), 10.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p95 of 200 samples sits at rank 190: exactly ten lie beyond.
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert!(supports_percentile(200, 0.95));
        assert!(!supports_percentile(199, 0.95));
        // The old harness's "p99 from 96 samples" has nothing beyond it.
        assert_eq!(samples_beyond(96, 0.99), 0);
        assert!(!supports_percentile(96, 0.99));
        assert!(supports_percentile(1000, 0.99));
        assert!(!supports_percentile(0, 0.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn median_handles_even_odd_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile_of(&[], 0.5), 0.0);
    }
}
