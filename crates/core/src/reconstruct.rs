//! Downsample-then-reconstruct (§4.3, Figure 6).
//!
//! The paper's demonstration: take an actual (quantized) temperature trace,
//! downsample it to its Nyquist rate, re-synthesize the full-rate signal
//! through a low-pass filter ("taking an FFT of the sampled signal, setting
//! all frequency components above f₀ to 0 and then taking the IFFT"), re-apply
//! the sensor's quantizer — and the L2 distance to the original is 0.
//!
//! The pipeline here makes each step explicit so experiments can vary the
//! target rate, the reconstruction filter, and the re-quantization step.

use sweetspot_dsp::fft::FftPlanner;
use sweetspot_dsp::quantize::Quantizer;
use sweetspot_dsp::resample::{decimate, resample_fft};
use sweetspot_dsp::stats;
use sweetspot_timeseries::{Hertz, RegularSeries};

/// Reconstruction settings.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReconstructionConfig {
    /// Re-apply this quantization step to the reconstructed signal (§4.3:
    /// "we can add the same quantization in order to recover the signal more
    /// accurately"). `None` leaves the low-pass output as-is.
    pub requantize: Option<f64>,
}

/// Error metrics between an original trace and its reconstruction.
///
/// Fourier interpolation assumes the trace is periodic in its window, so a
/// non-periodic trace rings near its two ends (Gibbs). The `interior_*`
/// metrics exclude a 10% margin at each end; they are the fair measure of
/// reconstruction fidelity (the paper's Figure 6 signal is long enough that
/// edge effects vanish in the plot).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconstructionReport {
    /// Euclidean distance (Figure 6's headline metric).
    pub l2: f64,
    /// Root-mean-square error.
    pub rmse: f64,
    /// RMSE normalized by the original's value range.
    pub nrmse: f64,
    /// Largest pointwise deviation.
    pub max_abs: f64,
    /// NRMSE over the central 80% of the trace (edge ringing excluded).
    pub interior_nrmse: f64,
    /// L2 distance over the central 80% of the trace.
    pub interior_l2: f64,
    /// Decimation factor that was applied (1 = no reduction possible).
    pub factor: usize,
}

/// The integer decimation factor that downsamples `original_rate` as close
/// to `target_rate` as possible without going below it (so the kept samples
/// still satisfy the Nyquist condition).
///
/// # Panics
/// Panics if either rate is not positive.
pub fn decimation_factor(original_rate: Hertz, target_rate: Hertz) -> usize {
    assert!(
        original_rate.value() > 0.0,
        "original rate must be positive"
    );
    assert!(target_rate.value() > 0.0, "target rate must be positive");
    ((original_rate.value() / target_rate.value()).floor() as usize).max(1)
}

/// Downsamples `series` by keeping every `factor`-th sample — what a poller
/// running `factor×` slower would have recorded.
pub fn downsample(series: &RegularSeries, factor: usize) -> RegularSeries {
    let values = decimate(series.values(), factor);
    RegularSeries::new(series.start(), series.interval() * factor as f64, values)
}

/// Reconstructs a full-rate signal from a downsampled one via ideal
/// (Fourier) low-pass interpolation back to `target_len` samples, optionally
/// re-quantizing.
///
/// Fourier interpolation implicitly treats the trace as periodic; to avoid
/// Gibbs ringing from the wraparound discontinuity, the line through the
/// first and last samples is subtracted before interpolation and re-added
/// (evaluated on the fine grid) afterwards — standard endpoint bridging.
pub fn reconstruct(
    planner: &mut FftPlanner,
    downsampled: &RegularSeries,
    target_len: usize,
    cfg: ReconstructionConfig,
) -> RegularSeries {
    assert!(
        target_len >= downsampled.len(),
        "cannot reconstruct to fewer samples"
    );
    let vals = downsampled.values();
    let n = vals.len();
    let first = vals[0];
    let slope = if n > 1 {
        (vals[n - 1] - first) / (n - 1) as f64
    } else {
        0.0
    };
    let residual: Vec<f64> = vals
        .iter()
        .enumerate()
        .map(|(k, &v)| v - (first + slope * k as f64))
        .collect();
    let mut values = resample_fft(planner, &residual, target_len);
    let stretch = n as f64 / target_len as f64;
    for (j, v) in values.iter_mut().enumerate() {
        *v += first + slope * (j as f64 * stretch);
    }
    if let Some(step) = cfg.requantize {
        Quantizer::new(step).apply(&mut values);
    }
    let new_interval = downsampled.interval() * (downsampled.len() as f64 / target_len as f64);
    RegularSeries::new(downsampled.start(), new_interval, values)
}

/// The full Figure 6 pipeline: decimate `original` down to (at least)
/// `nyquist_rate`, reconstruct back to the original rate, and measure the
/// error.
///
/// The original is first trimmed to an exact multiple of the decimation
/// factor so the reconstruction grid aligns sample-for-sample with the
/// original grid (otherwise the time bases differ by up to one coarse
/// interval and the comparison measures a spurious stretch, not
/// reconstruction quality). At most `factor − 1` trailing samples are
/// dropped.
///
/// Returns the reconstruction (of the trimmed length) and its error report.
pub fn roundtrip(
    planner: &mut FftPlanner,
    original: &RegularSeries,
    nyquist_rate: Hertz,
    cfg: ReconstructionConfig,
) -> (RegularSeries, ReconstructionReport) {
    let factor = decimation_factor(original.sample_rate(), nyquist_rate);
    let trimmed_len = (original.len() / factor) * factor;
    let original = original.slice(0..trimmed_len);
    let original = &original;
    let down = downsample(original, factor);
    let recon = reconstruct(planner, &down, original.len(), cfg);
    let n = original.len();
    let margin = n / 10;
    let interior = margin..n - margin;
    let (io, ir) = (
        &original.values()[interior.clone()],
        &recon.values()[interior],
    );
    let report = ReconstructionReport {
        l2: stats::l2_distance(original.values(), recon.values()),
        rmse: stats::rmse(original.values(), recon.values()),
        nrmse: stats::nrmse(original.values(), recon.values()),
        max_abs: stats::max_abs_error(original.values(), recon.values()),
        interior_nrmse: stats::nrmse(io, ir),
        interior_l2: stats::l2_distance(io, ir),
        factor,
    };
    (recon, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;
    use sweetspot_timeseries::Seconds;

    fn band_series(n: usize, fs: f64, edge: f64, mean: f64) -> RegularSeries {
        let values: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                mean + (2.0 * PI * edge * 0.2 * t).sin() + 0.5 * (2.0 * PI * edge * t).sin()
            })
            .collect();
        RegularSeries::new(Seconds::ZERO, Seconds(1.0 / fs), values)
    }

    #[test]
    fn factor_computation() {
        assert_eq!(decimation_factor(Hertz(1.0), Hertz(0.1)), 10);
        assert_eq!(decimation_factor(Hertz(1.0), Hertz(0.15)), 6);
        assert_eq!(decimation_factor(Hertz(1.0), Hertz(2.0)), 1);
    }

    #[test]
    fn downsample_keeps_grid() {
        let s = band_series(100, 1.0, 0.05, 0.0);
        let d = downsample(&s, 4);
        assert_eq!(d.len(), 25);
        assert_eq!(d.interval(), Seconds(4.0));
        assert_eq!(d.values()[1], s.values()[4]);
    }

    #[test]
    fn bandlimited_roundtrip_is_near_lossless() {
        let mut planner = FftPlanner::new();
        // Edge at 0.01 Hz, sampled at 1 Hz, downsampled to 0.04 Hz (factor 25).
        let s = band_series(4096, 1.0, 0.01, 10.0);
        let (recon, report) = roundtrip(
            &mut planner,
            &s,
            Hertz(0.04),
            ReconstructionConfig::default(),
        );
        assert_eq!(recon.len(), (s.len() / 25) * 25);
        assert_eq!(report.factor, 25);
        assert!(
            report.nrmse < 0.05,
            "full-trace NRMSE {} too high",
            report.nrmse
        );
        assert!(
            report.interior_nrmse < 0.01,
            "interior NRMSE {} should only see edge-free reconstruction",
            report.interior_nrmse
        );
    }

    #[test]
    fn requantization_recovers_quantized_signal_exactly() {
        // The §4.3 claim, stated honestly: re-quantizing the reconstruction
        // recovers the stored reading *exactly* wherever the low-pass error
        // is below half a quantum; the residual mismatches are lone
        // single-quantum boundary flips. (The paper's Figure 6 shows L2 = 0
        // on one smooth temperature trace — the zero-quant-noise ideal; with
        // explicit round() quantization the boundary samples keep a small
        // exact-recovery gap. The fleet-level Fig 6 experiment reports both.)
        //
        // Slow staircase regime: 8-quanta amplitude over one cycle per 4096
        // samples ⇒ quantization steps last ≈80 samples ≫ the factor-8
        // coarse interval, so the staircase itself is well-sampled.
        let mut planner = FftPlanner::new();
        let n = 4096;
        let f1 = 1.0 / n as f64;
        let values: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64;
                (50.0 + 8.0 * (2.0 * PI * f1 * t).sin()).round()
            })
            .collect();
        let s = RegularSeries::new(Seconds::ZERO, Seconds(1.0), values);
        let target = Hertz(1.0 / 8.0 + 1e-12);
        let (recon_q, report_q) = roundtrip(
            &mut planner,
            &s,
            target,
            ReconstructionConfig {
                requantize: Some(1.0),
            },
        );
        let (recon_raw, _) = roundtrip(&mut planner, &s, target, ReconstructionConfig::default());

        // (a) Mismatches are single-quantum flips at most.
        assert!(
            report_q.max_abs <= 1.0 + 1e-9,
            "mismatches must be single-quantum flips: {report_q:?}"
        );
        // (b) The vast majority of interior readings are recovered exactly.
        let nn = recon_q.len(); // roundtrip trims to a factor multiple
        let margin = nn / 10;
        let exact = s.values()[margin..nn - margin]
            .iter()
            .zip(&recon_q.values()[margin..nn - margin])
            .filter(|(a, b)| (*a - *b).abs() < 1e-9)
            .count();
        let exact_frac = exact as f64 / (nn - 2 * margin) as f64;
        assert!(
            exact_frac > 0.95,
            "only {exact_frac:.3} of interior samples recovered exactly: {report_q:?}"
        );
        // (c) Wherever the raw low-pass error is under half a quantum,
        // re-quantization recovers the reading exactly — the mechanism
        // behind the paper's L2 = 0.
        for ((&orig, &raw), &q) in s.values()[..nn]
            .iter()
            .zip(recon_raw.values())
            .zip(recon_q.values())
        {
            if (raw - orig).abs() < 0.5 - 1e-9 {
                assert_eq!(q, orig, "sub-half-quantum error must snap exactly");
            }
        }
    }

    #[test]
    fn undersampled_roundtrip_shows_loss() {
        let mut planner = FftPlanner::new();
        let s = band_series(4096, 1.0, 0.1, 0.0);
        // Decimate to 0.05 Hz: far below the 0.2 Hz Nyquist rate.
        let (_, report) = roundtrip(
            &mut planner,
            &s,
            Hertz(0.05),
            ReconstructionConfig::default(),
        );
        assert!(
            report.nrmse > 0.1,
            "aliased roundtrip should lose information: {report:?}"
        );
    }

    #[test]
    fn factor_one_roundtrip_is_exact() {
        let mut planner = FftPlanner::new();
        let s = band_series(512, 1.0, 0.05, 1.0);
        let (recon, report) = roundtrip(
            &mut planner,
            &s,
            Hertz(2.0), // above the sampling rate → factor 1
            ReconstructionConfig::default(),
        );
        assert_eq!(report.factor, 1);
        assert!(report.l2 < 1e-9);
        assert_eq!(recon.len(), s.len());
    }

    #[test]
    fn reconstruct_validates_target_len() {
        let mut planner = FftPlanner::new();
        let s = band_series(64, 1.0, 0.05, 0.0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            reconstruct(&mut planner, &s, 32, ReconstructionConfig::default())
        }));
        assert!(result.is_err());
    }
}
