//! Order statistics used by the driver and by `perf compare`.

/// Samples a percentile must leave beyond itself before it is reported
/// as supported (choosing-metrics: "the highest percentile that has at
/// least ten samples beyond it").
pub const TAIL_SUPPORT: usize = 10;

/// 1-based nearest rank of the `p`-th percentile (`0 < p <= 100`) among
/// `n` samples.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice; `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    sorted
        .get(nearest_rank(sorted.len(), p).checked_sub(1)?)
        .copied()
}

/// Samples strictly beyond the `p`-th percentile's rank.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(nearest_rank(n, p))
}

/// Whether the `p`-th percentile of `n` samples has [`TAIL_SUPPORT`]
/// samples beyond it.
pub fn tail_supported(n: usize, p: f64) -> bool {
    n > 0 && samples_beyond(n, p) >= TAIL_SUPPORT
}

/// Ascending copy (total order, so NaN cannot panic the sort).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    v
}

/// Median with the midpoint rule for even counts; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    let hi = *v.get(n / 2)?;
    Some(if n % 2 == 1 {
        hi
    } else {
        (v.get(n / 2 - 1).copied().unwrap_or(hi) + hi) / 2.0
    })
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted (a ratio of two zero counts
/// reads as "none", not NaN, in the result document).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them —
/// the acceptance driver computes spreads with that function.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        let (lo, hi) = (data.get(j - 1).copied()?, data.get(j).copied()?);
        Some((lo * (4.0 - delta) + hi * delta) / 4.0)
    };
    Some((cut(1)?, cut(3)?))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v[..1], 99.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        // nearest rank rounds up: the median of four samples is the 2nd
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), Some(2.0));
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 of 1000 samples is rank 990: exactly ten beyond
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert!(tail_supported(1000, 99.0));
        assert!(!tail_supported(999, 99.0));
        // p90 needs 100 samples, p50 twenty
        assert!(tail_supported(100, 90.0));
        assert!(!tail_supported(99, 90.0));
        assert!(tail_supported(20, 50.0));
        assert!(!tail_supported(19, 50.0));
        assert!(!tail_supported(0, 50.0));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some((1.5, 12.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        let s = spread(&v).expect("spread");
        assert!((s - 1.0).abs() < 1e-12, "(8.25 - 2.75) / 5.5 = 1, got {s}");
    }
}
