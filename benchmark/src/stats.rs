//! Order statistics over timing samples: median, quartiles, and the tail
//! percentile rule of the choosing-metrics guide.

/// Sort samples ascending (timings are never NaN; `total_cmp` keeps the
/// sort total anyway).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile `q` in `[0, 1]` of ascending samples
/// (0 for an empty slice).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let (Some(&first), Some(&last)) = (sorted.first(), sorted.last()) else {
        return 0.0;
    };
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = sorted.get(pos.floor() as usize).copied().unwrap_or(first);
    let hi = sorted.get(pos.ceil() as usize).copied().unwrap_or(last);
    lo + (hi - lo) * (pos - pos.floor())
}

/// Percentile `p` in `[0, 100]` of unsorted samples.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    quantile(&sorted(v.to_vec()), p / 100.0)
}

/// Median of unsorted samples.
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// First quartile, median, third quartile of unsorted samples.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    let s = sorted(v.to_vec());
    [quantile(&s, 0.25), quantile(&s, 0.5), quantile(&s, 0.75)]
}

/// The percentiles a tail may be reported at, highest first, each with
/// the share of samples beyond it in parts per thousand (whole numbers,
/// so the ten-sample rule is exact).
const TAIL_LADDER: [(f64, usize); 6] = [
    (99.9, 1),
    (99.0, 10),
    (95.0, 50),
    (90.0, 100),
    (75.0, 250),
    (50.0, 500),
];

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten
/// samples beyond it — p99 from 1 000 samples, p95 from 200 — and never
/// lower than the median. A tail read off fewer samples than that is one
/// outlier's value, not a property of the system.
pub fn tail_percentile(samples: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|(_, beyond)| samples * beyond >= 10 * 1000)
        .map_or(50.0, |(p, _)| p)
}

/// The tail of unsorted samples, read at [`tail_percentile`] of their
/// count.
pub fn tail(v: &[f64]) -> f64 {
    percentile(v, tail_percentile(v.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(9_999), 99.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(39), 50.0);
        // Too few samples for any tail: fall back to the median, never
        // below it.
        assert_eq!(tail_percentile(11), 50.0);
        assert_eq!(tail_percentile(1), 50.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quartiles(&v), [1.75, 2.5, 3.25]);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_reads_the_stated_percentile() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let value = tail(&v);
        assert!((value - 990.01).abs() < 1e-9, "{value}");
    }
}
