//! Small statistics toolkit: empirical CDFs (the paper's figures are
//! nearly all CDFs), quantiles and summary statistics.

/// An empirical cumulative distribution over `f64` samples.
#[derive(Debug, Clone, Default)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build from samples (NaNs are dropped).
    pub fn new(mut samples: Vec<f64>) -> Ecdf {
        samples.retain(|x| !x.is_nan());
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(core::cmp::Ordering::Equal));
        Ecdf { sorted: samples }
    }

    /// Number of samples.
    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// True if there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The q-quantile (0 ≤ q ≤ 1) by the nearest-rank convention: the
    /// smallest sample whose cumulative fraction is ≥ q, i.e. rank
    /// `ceil(q·n)` (1-based). `q = 0.0` maps exactly to the minimum and
    /// `q = 1.0` exactly to the maximum; no interpolation is performed, so
    /// every returned value is an observed sample. (The previous
    /// `round((n-1)·q)` scheme biased small-n quantiles — at n ≤ 10 it
    /// collapsed q = 0.95 onto the max.) None when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let n = self.sorted.len();
        let rank = (q * n as f64).ceil() as usize;
        let idx = rank.max(1).min(n) - 1;
        self.sorted.get(idx).copied()
    }

    /// Median.
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Fraction of samples ≤ x.
    pub fn fraction_le(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Smallest and largest samples.
    pub fn range(&self) -> Option<(f64, f64)> {
        Some((*self.sorted.first()?, *self.sorted.last()?))
    }

    /// Mean.
    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            None
        } else {
            Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
        }
    }

    /// Sample points for plotting: `count` evenly spaced quantiles,
    /// as (value, cumulative fraction) pairs.
    pub fn plot_points(&self, count: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || count == 0 {
            return Vec::new();
        }
        (0..=count)
            .map(|i| {
                let q = i as f64 / count as f64;
                (self.quantile(q).unwrap_or_default(), q)
            })
            .collect()
    }
}

/// Five-number-plus-mean summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Minimum.
    pub min: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub p75: f64,
    /// Maximum.
    pub max: f64,
    /// Mean.
    pub mean: f64,
}

impl Summary {
    /// Summarize samples; None when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let e = Ecdf::new(samples.to_vec());
        Some(Summary {
            min: e.quantile(0.0)?,
            p25: e.quantile(0.25)?,
            median: e.quantile(0.5)?,
            p75: e.quantile(0.75)?,
            max: e.quantile(1.0)?,
            mean: e.mean()?,
        })
    }
}

/// Percentage helper: `part / whole * 100`, 0 when whole is 0.
pub fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64 * 100.0
    }
}

/// [`pct`] as a measurement: `None` when `whole` is 0, since a share over
/// no samples is unmeasured, not 0%.
pub fn share(part: u64, whole: u64) -> Option<f64> {
    (whole > 0).then(|| pct(part, whole))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_and_median() {
        let e = Ecdf::new(vec![5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(e.n(), 5);
        assert_eq!(e.median(), Some(3.0));
        assert_eq!(e.quantile(0.0), Some(1.0));
        assert_eq!(e.quantile(1.0), Some(5.0));
        assert_eq!(e.range(), Some((1.0, 5.0)));
    }

    #[test]
    fn fraction_le() {
        let e = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.fraction_le(0.5), 0.0);
        assert_eq!(e.fraction_le(2.0), 0.5);
        assert_eq!(e.fraction_le(10.0), 1.0);
    }

    #[test]
    fn empty_behaviour() {
        let e = Ecdf::new(vec![]);
        assert!(e.is_empty());
        assert_eq!(e.median(), None);
        assert_eq!(e.mean(), None);
        assert!(e.plot_points(10).is_empty());
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn nans_dropped() {
        let e = Ecdf::new(vec![1.0, f64::NAN, 2.0]);
        assert_eq!(e.n(), 2);
    }

    #[test]
    fn plot_points_monotone() {
        let e = Ecdf::new((0..100).map(|i| i as f64).collect());
        let pts = e.plot_points(20);
        assert_eq!(pts.len(), 21);
        assert!(pts.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1));
        assert_eq!(pts[0].1, 0.0);
        assert_eq!(pts[20].1, 1.0);
    }

    #[test]
    fn summary_of_uniform() {
        let s = Summary::of(&(1..=100).map(|i| i as f64).collect::<Vec<_>>()).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert!((s.median - 50.0).abs() <= 1.0);
    }

    #[test]
    fn small_n_nearest_rank_not_biased() {
        // n = 2: the old round((n-1)·q) scheme mapped q = 0.5 to the max;
        // nearest-rank says one of two samples already covers half the mass.
        let e = Ecdf::new(vec![1.0, 2.0]);
        assert_eq!(e.median(), Some(1.0));
        // n = 4, q = 0.25: exactly one sample covers a quarter of the mass.
        let e = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.quantile(0.25), Some(1.0));
        assert_eq!(e.quantile(0.75), Some(3.0));
    }

    #[test]
    fn quantile_nearest_rank_property() {
        // Seeded property sweep: for every sampled vector and probability,
        // the quantile must (a) be an observed sample, (b) cover at least
        // fraction q of the mass, (c) be the *smallest* such sample, and
        // (d) pin q=0/q=1 to min/max exactly.
        let mut state = 0x2005_1234_u64;
        let mut next = move || {
            // xorshift64* — deterministic, dependency-free.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in 1usize..=40 {
            let samples: Vec<f64> = (0..n).map(|_| (next() % 1000) as f64).collect();
            let e = Ecdf::new(samples.clone());
            let (min, max) = e.range().unwrap();
            assert_eq!(e.quantile(0.0), Some(min));
            assert_eq!(e.quantile(1.0), Some(max));
            let mut prev = f64::NEG_INFINITY;
            for step in 0..=20 {
                let q = step as f64 / 20.0;
                let v = e.quantile(q).unwrap();
                assert!(samples.contains(&v), "quantile not an observed sample");
                assert!(e.fraction_le(v) >= q, "q={q} n={n}: mass below {v} too small");
                // Minimality: any strictly smaller sample covers < q.
                let below = samples.iter().filter(|&&s| s < v).count();
                assert!(
                    (below as f64) / (n as f64) < q || q == 0.0,
                    "q={q} n={n}: {v} is not the smallest sample covering q"
                );
                assert!(v >= prev, "quantile not monotone in q");
                prev = v;
            }
        }
    }

    #[test]
    fn pct_helpers() {
        assert_eq!(pct(1, 4), 25.0);
        assert_eq!(pct(1, 0), 0.0);
    }
}
