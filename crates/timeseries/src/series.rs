//! Series types: regularly and irregularly sampled measurements.

use crate::time::{Hertz, Seconds};
use serde::{Deserialize, Serialize};

/// Number of samples on the uniform grid covering `duration` at `rate`:
/// `round(duration · rate)`, at least 1. This is the length every
/// `SignalSource` returns and every synthesized ground-truth grid has.
#[inline]
pub fn grid_len(duration: Seconds, rate: Hertz) -> usize {
    (duration.value() * rate.value()).round().max(1.0) as usize
}

/// A regularly sampled time series: samples at `start + k·interval`.
///
/// This is what an ideal poller produces and what every spectral method in
/// the workspace consumes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegularSeries {
    start: Seconds,
    interval: Seconds,
    values: Vec<f64>,
}

impl RegularSeries {
    /// Creates a series starting at `start` with fixed `interval` spacing.
    ///
    /// # Panics
    /// Panics if `interval` is not positive/finite or any value is NaN.
    pub fn new(start: Seconds, interval: Seconds, values: Vec<f64>) -> Self {
        assert!(
            interval.value().is_finite() && interval.value() > 0.0,
            "interval must be positive, got {interval}"
        );
        assert!(
            values.iter().all(|v| !v.is_nan()),
            "values must not contain NaN; clean the trace first"
        );
        RegularSeries {
            start,
            interval,
            values,
        }
    }

    /// Timestamp of the first sample.
    pub fn start(&self) -> Seconds {
        self.start
    }

    /// Spacing between consecutive samples.
    pub fn interval(&self) -> Seconds {
        self.interval
    }

    /// Sampling rate (`1 / interval`).
    pub fn sample_rate(&self) -> Hertz {
        self.interval.as_rate()
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The sample values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Consumes the series, returning its values.
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }

    /// Timestamp of sample `k`.
    pub fn time_of(&self, k: usize) -> Seconds {
        self.start + self.interval * k as f64
    }

    /// All timestamps (materialized).
    pub fn timestamps(&self) -> Vec<Seconds> {
        (0..self.len()).map(|k| self.time_of(k)).collect()
    }

    /// Total covered duration: `len · interval` (half-open convention — each
    /// sample "owns" one interval).
    pub fn duration(&self) -> Seconds {
        self.interval * self.len() as f64
    }

    /// Sub-series of samples `range` (same interval, shifted start).
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: std::ops::Range<usize>) -> RegularSeries {
        let start = self.time_of(range.start);
        RegularSeries::new(start, self.interval, self.values[range].to_vec())
    }

    /// Converts to an irregular series with explicit timestamps.
    pub fn to_irregular(&self) -> IrregularSeries {
        IrregularSeries::new(self.timestamps(), self.values.clone())
    }

    /// `(timestamp, value)` iterator.
    pub fn iter(&self) -> impl Iterator<Item = (Seconds, f64)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(|(k, &v)| (self.time_of(k), v))
    }
}

/// An irregularly sampled time series: explicit, non-decreasing timestamps.
///
/// Production traces are rarely perfectly regular — polls get delayed, data
/// gets lost. Duplicate timestamps are allowed: they model reports that were
/// duplicated or delayed in flight and land on the same collection tick.
/// [`crate::clean::clean`] deduplicates them (first arrival wins) before
/// [`crate::clean::regularize`] converts the trace to a [`RegularSeries`]
/// via nearest-neighbour re-gridding (the paper's §3.2 pre-cleaning step).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IrregularSeries {
    times: Vec<Seconds>,
    values: Vec<f64>,
}

impl IrregularSeries {
    /// Creates an irregular series.
    ///
    /// # Panics
    /// Panics if lengths differ or timestamps decrease. (NaN *values* and
    /// duplicate timestamps are allowed here — they model lost and
    /// duplicated/delayed measurements respectively and are handled by the
    /// cleaning layer.)
    pub fn new(times: Vec<Seconds>, values: Vec<f64>) -> Self {
        assert_eq!(times.len(), values.len(), "times and values must pair up");
        assert!(
            times.windows(2).all(|w| w[0].value() <= w[1].value()),
            "timestamps must be non-decreasing"
        );
        assert!(
            times.iter().all(|t| t.value().is_finite()),
            "timestamps must be finite"
        );
        IrregularSeries { times, values }
    }

    /// Builds from `(time, value)` pairs, sorting by time and dropping
    /// duplicate timestamps (keeping the first occurrence).
    pub fn from_pairs(mut pairs: Vec<(Seconds, f64)>) -> Self {
        pairs.sort_by(|a, b| {
            a.0.value()
                .partial_cmp(&b.0.value())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        pairs.dedup_by(|a, b| a.0.value() == b.0.value());
        let (times, values) = pairs.into_iter().unzip();
        IrregularSeries::new(times, values)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The timestamps.
    pub fn times(&self) -> &[Seconds] {
        &self.times
    }

    /// The values (may contain NaN for lost measurements).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// First timestamp, or `None` when empty.
    pub fn start(&self) -> Option<Seconds> {
        self.times.first().copied()
    }

    /// Last timestamp, or `None` when empty.
    pub fn end(&self) -> Option<Seconds> {
        self.times.last().copied()
    }

    /// Covered duration (`end − start`), zero when fewer than 2 samples.
    pub fn duration(&self) -> Seconds {
        match (self.start(), self.end()) {
            (Some(s), Some(e)) => e - s,
            _ => Seconds::ZERO,
        }
    }

    /// Median inter-sample gap — a robust estimate of the intended polling
    /// interval of a jittery trace. `None` with fewer than 2 samples.
    pub fn median_interval(&self) -> Option<Seconds> {
        if self.len() < 2 {
            return None;
        }
        let mut gaps: Vec<f64> = self
            .times
            .windows(2)
            .map(|w| (w[1] - w[0]).value())
            .collect();
        gaps.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        Some(Seconds(gaps[gaps.len() / 2]))
    }

    /// Value of the sample nearest in time to `t`.
    ///
    /// # Panics
    /// Panics when the series is empty.
    pub fn nearest_value(&self, t: Seconds) -> f64 {
        assert!(!self.is_empty(), "nearest_value on an empty series");
        let idx = self.times.partition_point(|&x| x.value() < t.value());
        if idx == 0 {
            return self.values[0];
        }
        if idx == self.len() {
            return self.values[self.len() - 1];
        }
        let before = (t - self.times[idx - 1]).value();
        let after = (self.times[idx] - t).value();
        if before <= after {
            self.values[idx - 1]
        } else {
            self.values[idx]
        }
    }

    /// Consumes the series, returning its `(times, values)` buffers so a
    /// loop can refill them and rebuild the next series with
    /// [`IrregularSeries::new`] (which moves them, never copies).
    pub fn into_parts(self) -> (Vec<Seconds>, Vec<f64>) {
        (self.times, self.values)
    }

    /// `(timestamp, value)` iterator.
    pub fn iter(&self) -> impl Iterator<Item = (Seconds, f64)> + '_ {
        self.times.iter().copied().zip(self.values.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> RegularSeries {
        RegularSeries::new(Seconds(10.0), Seconds(2.0), vec![1.0, 2.0, 3.0, 4.0])
    }

    #[test]
    fn regular_basics() {
        let s = series();
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        assert_eq!(s.time_of(0), Seconds(10.0));
        assert_eq!(s.time_of(3), Seconds(16.0));
        assert_eq!(s.duration(), Seconds(8.0));
        assert!((s.sample_rate().value() - 0.5).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn regular_zero_interval_panics() {
        RegularSeries::new(Seconds::ZERO, Seconds::ZERO, vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn regular_nan_value_panics() {
        RegularSeries::new(Seconds::ZERO, Seconds(1.0), vec![f64::NAN]);
    }

    #[test]
    fn regular_slice() {
        let s = series();
        let sub = s.slice(1..3);
        assert_eq!(sub.values(), &[2.0, 3.0]);
        assert_eq!(sub.start(), Seconds(12.0));
        assert_eq!(sub.interval(), Seconds(2.0));
    }

    #[test]
    fn regular_iter_pairs() {
        let s = series();
        let pairs: Vec<_> = s.iter().collect();
        assert_eq!(pairs[0], (Seconds(10.0), 1.0));
        assert_eq!(pairs[3], (Seconds(16.0), 4.0));
    }

    #[test]
    fn to_irregular_roundtrip_values() {
        let s = series();
        let ir = s.to_irregular();
        assert_eq!(ir.values(), s.values());
        assert_eq!(ir.times().len(), s.len());
        assert_eq!(ir.median_interval().unwrap().value(), 2.0);
    }

    #[test]
    fn irregular_from_pairs_sorts_and_dedups() {
        let ir = IrregularSeries::from_pairs(vec![
            (Seconds(3.0), 30.0),
            (Seconds(1.0), 10.0),
            (Seconds(3.0), 99.0),
            (Seconds(2.0), 20.0),
        ]);
        assert_eq!(ir.len(), 3);
        assert_eq!(ir.values(), &[10.0, 20.0, 30.0]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn irregular_unsorted_panics() {
        IrregularSeries::new(vec![Seconds(2.0), Seconds(1.0)], vec![0.0, 0.0]);
    }

    #[test]
    fn irregular_allows_duplicate_timestamps() {
        // Duplicated/delayed reports share a collection tick; the series
        // carries them as-is and the cleaning layer deduplicates.
        let ir = IrregularSeries::new(
            vec![Seconds(0.0), Seconds(1.0), Seconds(1.0), Seconds(2.0)],
            vec![1.0, 2.0, 3.0, 4.0],
        );
        assert_eq!(ir.len(), 4);
        assert_eq!(ir.values(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn irregular_nearest_value() {
        let ir = IrregularSeries::new(
            vec![Seconds(0.0), Seconds(10.0), Seconds(20.0)],
            vec![1.0, 2.0, 3.0],
        );
        assert_eq!(ir.nearest_value(Seconds(-5.0)), 1.0);
        assert_eq!(ir.nearest_value(Seconds(4.0)), 1.0);
        assert_eq!(ir.nearest_value(Seconds(6.0)), 2.0);
        assert_eq!(ir.nearest_value(Seconds(14.9)), 2.0);
        assert_eq!(ir.nearest_value(Seconds(99.0)), 3.0);
        // Ties go to the earlier sample.
        assert_eq!(ir.nearest_value(Seconds(5.0)), 1.0);
    }

    #[test]
    fn irregular_duration_and_bounds() {
        let ir = IrregularSeries::new(vec![Seconds(5.0), Seconds(9.0)], vec![0.0, 1.0]);
        assert_eq!(ir.start(), Some(Seconds(5.0)));
        assert_eq!(ir.end(), Some(Seconds(9.0)));
        assert_eq!(ir.duration(), Seconds(4.0));
        let empty = IrregularSeries::new(vec![], vec![]);
        assert_eq!(empty.duration(), Seconds::ZERO);
        assert!(empty.is_empty());
    }

    #[test]
    fn irregular_allows_nan_values() {
        let ir = IrregularSeries::new(vec![Seconds(0.0), Seconds(1.0)], vec![f64::NAN, 1.0]);
        assert!(ir.values()[0].is_nan());
    }

    #[test]
    fn irregular_recycling_roundtrip() {
        let ir = IrregularSeries::new(vec![Seconds(0.0), Seconds(1.0)], vec![10.0, 20.0]);
        let (times, values) = ir.into_parts();
        let t_ptr = times.as_ptr();
        let rebuilt = IrregularSeries::new(times, values);
        assert_eq!(
            rebuilt.times().as_ptr(),
            t_ptr,
            "buffers are moved, not copied"
        );
        assert_eq!(rebuilt.values(), &[10.0, 20.0]);
    }

    #[test]
    fn median_interval_robust_to_jitter() {
        let ir = IrregularSeries::new(
            vec![
                Seconds(0.0),
                Seconds(10.0),
                Seconds(20.5),
                Seconds(30.0),
                Seconds(95.0), // one big gap (outage)
            ],
            vec![0.0; 5],
        );
        let m = ir.median_interval().unwrap().value();
        assert!((9.0..=11.0).contains(&m), "median gap {m}");
    }
}
