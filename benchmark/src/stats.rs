//! Order statistics over small sample sets.

use std::time::Instant;

/// Nanoseconds since `t`.
pub fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Median of `values` (mean of the middle pair for even counts).
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The fastest of a run's repeated timings — what every reported time is.
///
/// The sandbox this benchmark has to be steady on shares its two vCPUs
/// with other tenants: interference arrives in bursts of seconds, during
/// which an operation takes up to 1.5× as long. Over 40 operations of one
/// run the median swung between 204 and 302 ms on an unchanged tree while
/// the minimum stayed within 192–196 ms. A process has a hard floor and
/// no way to be lucky, so the minimum estimates the program's own cost and
/// the median estimates the neighbours' load.
pub fn fastest(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "fastest of no samples");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The three quartile cut points, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (its default "exclusive"
/// method), because that is what the acceptance driver uses for spreads.
/// Needs at least two samples.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    assert!(len >= 2, "quartiles need two samples");
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in (1..4usize).enumerate() {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        out[slot] = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Nearest-rank percentile (`p` in 0..=100) — diagnostics only.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    assert!(!v.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
