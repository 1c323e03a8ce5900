//! Order statistics shared by the workloads, the layer probes and
//! `compare`: medians, quartiles and the tail-percentile selection rule.

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: a metric with no samples is a benchmark bug.
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

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(values,
/// n=4)` (the default *exclusive* method) computes them — the driver that
/// judges this benchmark uses that function, so `compare` must agree with
/// it digit for digit. A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median — the run-to-run spread
/// the driver bounds. Zero when the median is zero.
pub fn spread_share(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        ((q3 - q1) / med).abs()
    }
}

/// Nearest-rank percentile `p` (0–100) of an ascending-sorted slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentile ladder the tail rule picks from.
pub const TAIL_LADDER: [u32; 4] = [95, 90, 75, 50];

/// The tail percentile `n` samples support: the highest ladder step with
/// at least ten samples beyond it (p95 needs 200 samples, p90 100, p75
/// 40); with fewer than 40 samples only the median is defensible.
///
/// A workload applies the rule once, to the samples per window it is
/// *sized* for (a constant), not to the count a run happened to reach: a
/// faster or slower host, or commit, must not move the metric from one
/// percentile to another between two runs.
pub fn tail_percentile(n: usize) -> f64 {
    // Whole numbers: n·(100 − p)/100 ≥ 10 without a rounding error at
    // exactly 100 or 200 samples.
    let pct = TAIL_LADDER
        .into_iter()
        .find(|p| n as u64 * u64::from(100 - p) >= 1000)
        .unwrap_or(50);
    f64::from(pct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(99), 75.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(39), 50.0);
        assert_eq!(tail_percentile(3), 50.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 100.0);
        assert_eq!(percentile_sorted(&v, 95.0), 190.0);
        assert_eq!(percentile_sorted(&v, 100.0), 200.0);
        assert_eq!(percentile_sorted(&v, tail_percentile(v.len())), 190.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread_share(&v) - 1.0).abs() < 1e-12);
    }
}
