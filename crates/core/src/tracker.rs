//! Moving-window Nyquist tracking (Figure 7).
//!
//! The paper tracks the inferred Nyquist rate of a temperature signal with a
//! 6-hour window stepping every 5 minutes; the timestamps mark the beginning
//! of each window. [`track`] reproduces that computation for any series.

use crate::estimator::{EstimatorScratch, NyquistConfig, NyquistEstimate, NyquistEstimator};
use sweetspot_timeseries::windowing::moving_windows;
use sweetspot_timeseries::{Hertz, RegularSeries, Seconds};

/// Tracker configuration.
#[derive(Debug, Clone, Copy)]
pub struct TrackerConfig {
    /// Window duration (paper: 6 hours).
    pub window: Seconds,
    /// Step between window starts (paper: 5 minutes).
    pub step: Seconds,
    /// Estimator settings applied per window.
    pub estimator: NyquistConfig,
}

impl TrackerConfig {
    /// The paper's Figure 7 geometry: 6-hour windows, 5-minute steps.
    pub fn paper_fig7() -> Self {
        TrackerConfig {
            window: Seconds::from_hours(6.0),
            step: Seconds::from_minutes(5.0),
            estimator: NyquistConfig::default(),
        }
    }

    /// Checks the window geometry [`track`] would otherwise panic on: the
    /// window and the step must be positive (NaN is not). The messages name
    /// the CLI flags that set them.
    pub fn validate(&self) -> Result<(), String> {
        for (flag, value) in [("window", self.window), ("step", self.step)] {
            if value.value().is_nan() || value.value() <= 0.0 {
                return Err(format!(
                    "--{flag} wants a positive duration in seconds, got {}",
                    value.value()
                ));
            }
        }
        Ok(())
    }
}

/// One tracked point: the estimate for the window starting at `window_start`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackedPoint {
    /// Beginning of the moving window (Figure 7's x-axis).
    pub window_start: Seconds,
    /// The §3.2 estimate for this window.
    pub estimate: NyquistEstimate,
}

/// Runs the §3.2 estimator over every moving window of `series`.
///
/// Windows shorter than [`NyquistEstimator::MIN_SAMPLES`] are skipped.
pub fn track(series: &RegularSeries, cfg: TrackerConfig) -> Vec<TrackedPoint> {
    let estimator = NyquistEstimator::new(cfg.estimator);
    let mut scratch = EstimatorScratch::new();
    let rate = series.sample_rate();
    moving_windows(series, cfg.window, cfg.step)
        .filter(|w| w.values.len() >= NyquistEstimator::MIN_SAMPLES)
        .map(|w| TrackedPoint {
            window_start: w.start,
            estimate: estimator.estimate_samples(&mut scratch, w.values, rate),
        })
        .collect()
}

/// Summary of a tracked run: min/max/mean of the (non-aliased) estimates and
/// the count of aliased windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackSummary {
    /// Lowest non-aliased estimate.
    pub min_rate: Option<Hertz>,
    /// Highest non-aliased estimate.
    pub max_rate: Option<Hertz>,
    /// Mean of non-aliased estimates.
    pub mean_rate: Option<Hertz>,
    /// Number of windows judged aliased.
    pub aliased_windows: usize,
    /// Total number of windows tracked.
    pub total_windows: usize,
}

/// Summarizes a [`track`] result.
pub fn summarize(points: &[TrackedPoint]) -> TrackSummary {
    let rates: Vec<f64> = points
        .iter()
        .filter_map(|p| p.estimate.rate().map(|r| r.value()))
        .collect();
    let aliased = points.len() - rates.len();
    if rates.is_empty() {
        return TrackSummary {
            min_rate: None,
            max_rate: None,
            mean_rate: None,
            aliased_windows: aliased,
            total_windows: points.len(),
        };
    }
    let min = rates.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = rates.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mean = rates.iter().sum::<f64>() / rates.len() as f64;
    TrackSummary {
        min_rate: Some(Hertz(min)),
        max_rate: Some(Hertz(max)),
        mean_rate: Some(Hertz(mean)),
        aliased_windows: aliased,
        total_windows: points.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    /// A signal whose band edge doubles halfway through.
    fn regime_change_series() -> RegularSeries {
        let fs = 1.0;
        let n = 20_000;
        let values: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                let slow = (2.0 * PI * 0.002 * t).sin();
                if i < n / 2 {
                    slow
                } else {
                    slow + 0.8 * (2.0 * PI * 0.02 * t).sin()
                }
            })
            .collect();
        RegularSeries::new(Seconds::ZERO, Seconds(1.0 / fs), values)
    }

    fn cfg(window: f64, step: f64) -> TrackerConfig {
        TrackerConfig {
            window: Seconds(window),
            step: Seconds(step),
            estimator: NyquistConfig::default(),
        }
    }

    #[test]
    fn tracker_sees_the_regime_change() {
        let series = regime_change_series();
        let points = track(&series, cfg(2000.0, 500.0));
        assert!(!points.is_empty());
        // Early windows: rate ≈ 2×0.002 = 0.004; late: ≈ 2×0.02 = 0.04.
        let early: Vec<f64> = points
            .iter()
            .filter(|p| p.window_start.value() < 4000.0)
            .filter_map(|p| p.estimate.rate().map(|r| r.value()))
            .collect();
        let late: Vec<f64> = points
            .iter()
            .filter(|p| p.window_start.value() > 12_000.0)
            .filter_map(|p| p.estimate.rate().map(|r| r.value()))
            .collect();
        assert!(!early.is_empty() && !late.is_empty());
        let early_mean = early.iter().sum::<f64>() / early.len() as f64;
        let late_mean = late.iter().sum::<f64>() / late.len() as f64;
        assert!(
            late_mean > early_mean * 4.0,
            "early {early_mean}, late {late_mean}"
        );
    }

    #[test]
    fn window_starts_step_correctly() {
        let series = regime_change_series();
        let points = track(&series, cfg(2000.0, 500.0));
        for w in points.windows(2) {
            assert!((w[1].window_start.value() - w[0].window_start.value() - 500.0).abs() < 1e-9);
        }
        assert_eq!(points[0].window_start, Seconds::ZERO);
    }

    #[test]
    fn stationary_signal_tracks_flat() {
        let fs = 1.0;
        let values: Vec<f64> = (0..10_000)
            .map(|i| (2.0 * PI * 0.01 * i as f64).sin())
            .collect();
        let series = RegularSeries::new(Seconds::ZERO, Seconds(1.0), values);
        let points = track(&series, cfg(2000.0, 1000.0));
        let rates: Vec<f64> = points
            .iter()
            .filter_map(|p| p.estimate.rate().map(|r| r.value()))
            .collect();
        assert_eq!(rates.len(), points.len(), "no window should alias");
        for &r in &rates {
            assert!((r - 0.02).abs() < 0.005, "rate {r} drifted (fs={fs})");
        }
    }

    #[test]
    fn summary_aggregates() {
        let series = regime_change_series();
        let points = track(&series, cfg(2000.0, 500.0));
        let s = summarize(&points);
        assert_eq!(s.total_windows, points.len());
        assert!(s.min_rate.unwrap().value() <= s.mean_rate.unwrap().value());
        assert!(s.mean_rate.unwrap().value() <= s.max_rate.unwrap().value());
    }

    #[test]
    fn summary_of_empty_is_none() {
        let s = summarize(&[]);
        assert!(s.min_rate.is_none());
        assert_eq!(s.total_windows, 0);
    }

    #[test]
    fn paper_geometry_constructor() {
        let c = TrackerConfig::paper_fig7();
        assert_eq!(c.window.value(), 6.0 * 3600.0);
        assert_eq!(c.step.value(), 300.0);
    }

    #[test]
    fn validate_rejects_non_positive_window_and_step() {
        assert_eq!(TrackerConfig::paper_fig7().validate(), Ok(()));
        for bad in [0.0, -100.0, f64::NAN] {
            let cfg = TrackerConfig {
                window: Seconds(bad),
                ..TrackerConfig::paper_fig7()
            };
            assert!(cfg.validate().unwrap_err().contains("--window"), "{bad}");
            let cfg = TrackerConfig {
                step: Seconds(bad),
                ..TrackerConfig::paper_fig7()
            };
            assert!(cfg.validate().unwrap_err().contains("--step"), "{bad}");
        }
    }
}
