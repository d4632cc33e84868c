//! Descriptive statistics, error metrics and distribution summaries.
//!
//! The paper's evaluation reports CDFs (Figure 4), box plots (Figure 5) and
//! L2 distances (Figure 6); this module supplies those plus the usual error
//! metrics the quality model in `sweetspot-monitor` is built on.

/// Euclidean (L2) distance between two equal-length signals — the metric of
/// Figure 6 ("The L2 distance between these signals is 0").
///
/// # Panics
/// Panics if lengths differ.
pub fn l2_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "L2 distance needs equal lengths");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Root-mean-square error between two equal-length signals.
///
/// # Panics
/// Panics if lengths differ or inputs are empty.
pub fn rmse(a: &[f64], b: &[f64]) -> f64 {
    assert!(!a.is_empty(), "RMSE of empty signals is undefined");
    assert_eq!(a.len(), b.len(), "RMSE needs equal lengths");
    (a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>() / a.len() as f64).sqrt()
}

/// RMSE normalized by the value range of `reference`. Returns 0 when the
/// reference is constant and the signals match; `f64::INFINITY` when the
/// reference is constant but the signals differ.
///
/// # Panics
/// Panics if lengths differ or inputs are empty.
pub fn nrmse(reference: &[f64], candidate: &[f64]) -> f64 {
    let e = rmse(reference, candidate);
    let (min, max) = min_max(reference);
    let range = max - min;
    if range <= 0.0 {
        if e == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        e / range
    }
}

/// Largest absolute pointwise difference.
///
/// # Panics
/// Panics if lengths differ.
pub fn max_abs_error(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "max_abs_error needs equal lengths");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Minimum and maximum of a slice. Returns `(0.0, 0.0)` for an empty slice.
pub fn min_max(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mut lo = xs[0];
    let mut hi = xs[0];
    for &x in &xs[1..] {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    (lo, hi)
}

/// Percentile of `xs` (0..=100) with linear interpolation between order
/// statistics — matches `numpy.percentile`'s default.
///
/// # Panics
/// Panics if `xs` is empty or `p ∉ [0, 100]`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty slice is undefined");
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100]");
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// An empirical cumulative distribution function (Figure 4's plot type).
#[derive(Debug, Clone)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from (unsorted) samples; NaNs are dropped.
    pub fn new(values: impl IntoIterator<Item = f64>) -> Self {
        let mut sorted: Vec<f64> = values.into_iter().filter(|v| !v.is_nan()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        Cdf { sorted }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `true` if the CDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples `≤ x`.
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (`q ∈ [0, 1]`), linearly interpolated.
    ///
    /// # Panics
    /// Panics if the CDF is empty or `q ∉ [0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of an empty CDF");
        assert!((0.0..=1.0).contains(&q), "q must be in [0,1]");
        percentile(&self.sorted, q * 100.0)
    }

    /// `(value, cumulative_fraction)` pairs for plotting, one per sample.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len();
        self.sorted
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, (i + 1) as f64 / n as f64))
            .collect()
    }

    /// The underlying sorted samples.
    pub fn sorted_values(&self) -> &[f64] {
        &self.sorted
    }
}

/// Five-number summary (Figure 5's box plot): min, Q1, median, Q3, max.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FiveNumber {
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
}

impl FiveNumber {
    /// Computes the summary.
    ///
    /// # Panics
    /// Panics if `xs` is empty.
    pub fn of(xs: &[f64]) -> Self {
        assert!(!xs.is_empty(), "five-number summary of an empty slice");
        FiveNumber {
            min: percentile(xs, 0.0),
            q1: percentile(xs, 25.0),
            median: percentile(xs, 50.0),
            q3: percentile(xs, 75.0),
            max: percentile(xs, 100.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_slices_are_graceful() {
        assert_eq!(min_max(&[]), (0.0, 0.0));
    }

    #[test]
    fn l2_distance_of_identical_is_zero() {
        let xs = [1.0, 2.0, 3.0];
        assert_eq!(l2_distance(&xs, &xs), 0.0);
    }

    #[test]
    fn l2_distance_pythagorean() {
        assert_eq!(l2_distance(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
    }

    #[test]
    fn rmse_and_max_error() {
        let a = [0.0, 0.0, 0.0, 0.0];
        let b = [1.0, -1.0, 1.0, -1.0];
        assert_eq!(rmse(&a, &b), 1.0);
        assert_eq!(max_abs_error(&a, &b), 1.0);
    }

    #[test]
    fn nrmse_normalizes_by_range() {
        let reference = [0.0, 10.0];
        let candidate = [1.0, 10.0];
        assert!((nrmse(&reference, &candidate) - (0.5f64.sqrt() / 10.0)).abs() < 1e-12);
    }

    #[test]
    fn nrmse_constant_reference() {
        assert_eq!(nrmse(&[5.0, 5.0], &[5.0, 5.0]), 0.0);
        assert_eq!(nrmse(&[5.0, 5.0], &[5.0, 6.0]), f64::INFINITY);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(percentile(&xs, 50.0), 2.5);
        assert_eq!(percentile(&xs, 25.0), 1.75);
    }

    #[test]
    fn cdf_fractions() {
        let cdf = Cdf::new([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(cdf.fraction_at_or_below(0.0), 0.0);
        assert_eq!(cdf.fraction_at_or_below(2.0), 0.5);
        assert_eq!(cdf.fraction_at_or_below(10.0), 1.0);
        assert_eq!(cdf.len(), 4);
    }

    #[test]
    fn cdf_drops_nans() {
        let cdf = Cdf::new([1.0, f64::NAN, 3.0]);
        assert_eq!(cdf.len(), 2);
    }

    #[test]
    fn cdf_quantile_matches_percentile() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        let cdf = Cdf::new(xs);
        assert_eq!(cdf.quantile(0.5), 3.0);
        assert_eq!(cdf.quantile(0.0), 1.0);
        assert_eq!(cdf.quantile(1.0), 5.0);
    }

    #[test]
    fn cdf_points_monotone() {
        let cdf = Cdf::new([3.0, 1.0, 2.0]);
        let pts = cdf.points();
        assert_eq!(pts.len(), 3);
        for w in pts.windows(2) {
            assert!(w[1].0 >= w[0].0 && w[1].1 > w[0].1);
        }
        assert_eq!(pts.last().unwrap().1, 1.0);
    }

    #[test]
    fn five_number_summary() {
        let xs: Vec<f64> = (1..=9).map(|i| i as f64).collect();
        let f = FiveNumber::of(&xs);
        assert_eq!(f.min, 1.0);
        assert_eq!(f.median, 5.0);
        assert_eq!(f.max, 9.0);
        assert_eq!(f.q1, 3.0);
        assert_eq!(f.q3, 7.0);
    }
}
