//! Multivariate signals (§6, "Multivariate signals").
//!
//! The paper: *"As long as we sample each individual signal at a rate higher
//! than its Nyquist rate, we can recover the original signal and preserve any
//! correlations."* This module provides (a) a joint estimate over a signal
//! group — the max of the per-signal estimates, the rate at which sampling
//! every member preserves the ensemble — and (b) an experimental check that
//! per-signal Nyquist resampling indeed preserves cross-correlations.

use crate::estimator::{EstimatorScratch, NyquistEstimate, NyquistEstimator};
use sweetspot_dsp::fft::{FftPlanner, FftScratch};
use sweetspot_dsp::resample::resample_fft_into;
use sweetspot_dsp::stats::pearson;
use sweetspot_timeseries::{Hertz, RegularSeries};

/// Joint estimate over a group of signals.
#[derive(Debug, Clone, PartialEq)]
pub struct MultivariateEstimate {
    /// Per-signal §3.2 estimates, in input order.
    pub per_signal: Vec<NyquistEstimate>,
    /// The group rate: the maximum per-signal rate, or `Aliased` if any
    /// member was aliased (the group cannot be jointly recovered).
    pub joint: NyquistEstimate,
}

/// Estimates each signal and the joint (max) rate.
///
/// # Panics
/// Panics if `signals` is empty.
pub fn estimate_joint(
    estimator: &mut NyquistEstimator,
    signals: &[RegularSeries],
) -> MultivariateEstimate {
    assert!(!signals.is_empty(), "need at least one signal");
    let mut scratch = EstimatorScratch::new();
    let per_signal: Vec<NyquistEstimate> = signals
        .iter()
        .map(|s| estimator.estimate_samples(&mut scratch, s.values(), s.sample_rate()))
        .collect();
    let joint = per_signal.iter().try_fold(Hertz(0.0), |acc, e| match e {
        NyquistEstimate::Aliased => None,
        NyquistEstimate::Rate(r) => Some(Hertz(acc.value().max(r.value()))),
    });
    MultivariateEstimate {
        per_signal,
        joint: joint.map_or(NyquistEstimate::Aliased, NyquistEstimate::Rate),
    }
}

/// Correlation preservation report for a pair of co-sampled signals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorrelationReport {
    /// Pearson correlation of the original pair.
    pub original: f64,
    /// Pearson correlation after each signal is downsampled to `rate` and
    /// reconstructed.
    pub reconstructed: f64,
    /// `|original − reconstructed|`.
    pub delta: f64,
}

/// Downsamples both signals to `rate` with *ideal* (anti-aliased Fourier)
/// resampling, reconstructs them, and compares the cross-correlation before
/// and after — the §6 experiment.
///
/// Ideal resampling is the right model here: the question is what
/// information *survives* a storage rate of `rate`, not what a filterless
/// poller records. (Filterless decimation folds shared components
/// identically in both signals, which can preserve correlations by accident
/// even when the signals themselves are unrecoverable — see
/// [`crate::reconstruct`] for the poller model.)
///
/// # Panics
/// Panics if the signals differ in length or rate.
pub fn correlation_preservation(
    planner: &mut FftPlanner,
    a: &RegularSeries,
    b: &RegularSeries,
    rate: Hertz,
) -> CorrelationReport {
    assert_eq!(a.len(), b.len(), "signals must be co-sampled");
    assert!(
        (a.sample_rate().value() - b.sample_rate().value()).abs() < 1e-12,
        "signals must share a sample rate"
    );
    let original = pearson(a.values(), b.values());
    let n = a.len();
    let m = ((n as f64 * rate.value() / a.sample_rate().value()).round() as usize)
        .clamp(1, n);
    // Both signals stream through the same pair of resampling buffers and
    // one FFT scratch.
    let mut scratch = FftScratch::new();
    let mut down = Vec::new();
    let mut ra = Vec::new();
    let mut rb = Vec::new();
    let mut ideal_roundtrip = |s: &RegularSeries, out: &mut Vec<f64>| {
        resample_fft_into(planner, &mut scratch, s.values(), m, &mut down);
        resample_fft_into(planner, &mut scratch, &down, n, out);
    };
    ideal_roundtrip(a, &mut ra);
    ideal_roundtrip(b, &mut rb);
    let reconstructed = pearson(&ra, &rb);
    CorrelationReport {
        original,
        reconstructed,
        delta: (original - reconstructed).abs(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::NyquistConfig;
    use std::f64::consts::PI;
    use sweetspot_timeseries::Seconds;

    fn tone_series(n: usize, tones: &[(f64, f64, f64)]) -> RegularSeries {
        let values: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64;
                tones
                    .iter()
                    .map(|&(f, a, phase)| a * (2.0 * PI * f * t + phase).sin())
                    .sum()
            })
            .collect();
        RegularSeries::new(Seconds::ZERO, Seconds(1.0), values)
    }

    #[test]
    fn joint_is_max_of_members() {
        let mut est = NyquistEstimator::new(NyquistConfig::default());
        let slow = tone_series(2000, &[(0.005, 1.0, 0.0)]);
        let fast = tone_series(2000, &[(0.05, 1.0, 0.0)]);
        let m = estimate_joint(&mut est, &[slow, fast]);
        let joint = m.joint.rate().unwrap().value();
        let fast_rate = m.per_signal[1].rate().unwrap().value();
        assert!((joint - fast_rate).abs() < 1e-12);
        assert!(joint > m.per_signal[0].rate().unwrap().value());
    }

    #[test]
    fn any_aliased_member_aliases_the_joint() {
        let mut est = NyquistEstimator::new(NyquistConfig::default());
        let clean = tone_series(2048, &[(0.01, 1.0, 0.0)]);
        // White-ish noise member: aliased.
        let mut state = 7u64;
        let noisy: Vec<f64> = (0..2048)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
            })
            .collect();
        let noisy = RegularSeries::new(Seconds::ZERO, Seconds(1.0), noisy);
        let m = estimate_joint(&mut est, &[clean, noisy]);
        assert!(m.joint.is_aliased());
        assert!(!m.per_signal[0].is_aliased());
        assert!(m.per_signal[1].is_aliased());
    }

    #[test]
    fn correlation_preserved_above_nyquist() {
        let mut planner = FftPlanner::new();
        // Two strongly correlated band-limited signals (shared tone, one
        // has an extra small component).
        let a = tone_series(4096, &[(0.01, 1.0, 0.3)]);
        let b = tone_series(4096, &[(0.01, 0.9, 0.3), (0.004, 0.2, 0.3)]);
        let report = correlation_preservation(&mut planner, &a, &b, Hertz(0.05));
        assert!(report.original > 0.9, "setup: corr {}", report.original);
        assert!(
            report.delta < 0.02,
            "correlation must survive Nyquist resampling: {report:?}"
        );
    }

    #[test]
    fn correlation_degrades_below_nyquist() {
        let mut planner = FftPlanner::new();
        // The pair's correlation lives in a shared 0.05 Hz tone; each signal
        // also has its own small idiosyncratic low tone.
        let a = tone_series(4096, &[(0.05, 1.0, 0.0), (0.003, 0.25, 0.5)]);
        let c = tone_series(4096, &[(0.05, 1.0, 0.0), (0.0017, 0.25, 2.0)]);
        let above = correlation_preservation(&mut planner, &a, &c, Hertz(0.13));
        assert!(above.original > 0.9, "setup: corr {}", above.original);
        assert!(above.delta < 0.02, "above Nyquist: {above:?}");
        // Resampling at 0.013 Hz (fold 0.0065) destroys the shared tone, so
        // only the uncorrelated idiosyncratic parts survive.
        let below = correlation_preservation(&mut planner, &a, &c, Hertz(0.013));
        assert!(
            below.delta > 0.5,
            "undersampling should destroy the shared component: {below:?}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_group_panics() {
        let mut est = NyquistEstimator::new(NyquistConfig::default());
        estimate_joint(&mut est, &[]);
    }
}
