//! Power-spectral-density estimation.
//!
//! [`periodogram`] is the raw squared-magnitude FFT the paper's §3.2 method
//! uses ("compute the FFT ... the sum of the PSD across all FFT bins"),
//! optionally detrended and windowed. It returns a one-sided [`Spectrum`]
//! normalized as *power per bin* with window energy-gain compensation, so
//! cumulative-energy fractions are comparable across window choices.
//!
//! [`periodogram_into`] writes into a caller-owned buffer through a reusable
//! [`PsdScratch`]: one windowed-signal buffer, one spectrum buffer and one
//! [`FftScratch`], with window coefficients from the planner's cached
//! per-`(window, n)` tables — so the steady-state pipeline performs **zero
//! heap allocations** (pinned by `tests/alloc_steady_state.rs`). Planners
//! hold tables only, so the scratch is the one place working buffers live:
//! at fleet scale every member's estimator holds a lightweight planner
//! clone that stays empty by construction.

use crate::complex::Complex64;
use crate::fft::{FftPlanner, FftScratch};
use crate::spectrum::Spectrum;
use crate::window::Window;

/// Configuration for [`periodogram`].
#[derive(Debug, Clone, Copy)]
pub struct PsdConfig {
    /// Taper applied before the FFT.
    pub window: Window,
    /// Subtract the signal mean first. Removes the (usually enormous) DC
    /// component so the energy threshold reflects signal *dynamics*; the
    /// Nyquist estimator re-inserts DC accounting explicitly.
    pub detrend: bool,
}

impl Default for PsdConfig {
    fn default() -> Self {
        PsdConfig {
            window: Window::Rectangular,
            detrend: false,
        }
    }
}

/// Reusable scratch buffers for the PSD estimator.
///
/// Holds the windowed-signal buffer and the one-sided spectrum buffer; both
/// grow on demand and are reused across calls. Keep one per loop (or per
/// worker) and lend it to every call so the steady-state pipeline allocates
/// nothing.
#[derive(Debug, Default)]
pub struct PsdScratch {
    /// Windowed (and detrended) copy of the signal.
    seg: Vec<f64>,
    /// One-sided spectrum of the signal.
    spec: Vec<Complex64>,
    /// FFT working buffers, lent to the planner's transforms.
    fft: FftScratch,
}

impl PsdScratch {
    /// Creates empty scratch space; buffers grow on first use.
    pub fn new() -> Self {
        PsdScratch::default()
    }

    /// Heap bytes the scratch currently holds (capacities, not lengths) —
    /// the per-worker memory-footprint accounting of the fleet engine.
    pub fn resident_bytes(&self) -> usize {
        self.seg.capacity() * std::mem::size_of::<f64>()
            + self.spec.capacity() * std::mem::size_of::<Complex64>()
            + self.fft.resident_bytes()
    }
}

/// [`periodogram`] into a caller-owned power buffer (cleared first) —
/// the allocation-free core for steady-state pipelines. The buffer holds
/// [`one_sided_len`](crate::fft::one_sided_len)`(samples.len())` bins; wrap
/// it with [`Spectrum::from_psd`] (and reclaim it via
/// `Spectrum::into_power`).
///
/// Interior bins are doubled (they carry the energy of both the positive and
/// negative frequency); DC and — for even `n` — the Nyquist bin are not.
/// Everything is normalized by `n²` and the window energy gain.
///
/// # Panics
/// Panics if `samples` is empty.
pub fn periodogram_into(
    planner: &mut FftPlanner,
    scratch: &mut PsdScratch,
    samples: &[f64],
    cfg: PsdConfig,
    out: &mut Vec<f64>,
) {
    assert!(!samples.is_empty(), "cannot estimate the PSD of an empty signal");
    let PsdScratch { seg, spec, fft } = scratch;
    let n = samples.len();
    seg.clear();
    seg.extend_from_slice(samples);
    if cfg.detrend {
        let mean = seg.iter().sum::<f64>() / n as f64;
        for s in seg.iter_mut() {
            *s -= mean;
        }
    }
    let table = planner.window_table(cfg.window, n);
    table.apply(seg);
    planner.fft_real_into(seg, spec, fft);
    let norm = (n as f64) * (n as f64) * table.energy_gain();
    out.clear();
    out.reserve(spec.len());
    for (k, c) in spec.iter().enumerate() {
        let is_dc = k == 0;
        let is_nyquist = n.is_multiple_of(2) && k == n / 2;
        let mut p = c.norm_sqr();
        if !is_dc && !is_nyquist {
            p *= 2.0;
        }
        out.push(p / norm);
    }
}

/// One-shot PSD estimate (§3.2's raw method when
/// `PsdConfig::default()` is used).
///
/// Normalization: power per bin divided by `n²` and the window energy gain,
/// so a full-scale tone reads the same power regardless of `n` or window.
///
/// # Panics
/// Panics if `samples` is empty or `sample_rate` is not positive.
pub fn periodogram(
    planner: &mut FftPlanner,
    samples: &[f64],
    sample_rate: f64,
    cfg: PsdConfig,
) -> Spectrum {
    assert!(sample_rate > 0.0, "sample_rate must be positive");
    let mut scratch = PsdScratch::new();
    let mut power = Vec::new();
    periodogram_into(planner, &mut scratch, samples, cfg, &mut power);
    Spectrum::from_psd(power, sample_rate, samples.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn tone(n: usize, fs: f64, f: f64, amp: f64) -> Vec<f64> {
        (0..n)
            .map(|i| amp * (2.0 * PI * f * i as f64 / fs).sin())
            .collect()
    }

    #[test]
    fn tone_power_is_half_amplitude_squared() {
        let mut p = FftPlanner::new();
        let fs = 1000.0;
        let n = 1000;
        // 50 Hz lands exactly on a bin for n=1000, fs=1000.
        let s = periodogram(&mut p, &tone(n, fs, 50.0, 2.0), fs, PsdConfig::default());
        let peak = s.peak_bins(1)[0];
        assert!((peak.0 - 50.0).abs() < 1e-9);
        // A sine of amplitude A carries power A²/2 = 2.0.
        assert!((peak.1 - 2.0).abs() < 1e-9, "got {}", peak.1);
    }

    #[test]
    fn dc_power_is_mean_squared() {
        let mut p = FftPlanner::new();
        let s = periodogram(&mut p, &vec![3.0; 64], 1.0, PsdConfig::default());
        assert!((s.power()[0] - 9.0).abs() < 1e-9);
        assert!(s.power()[1..].iter().all(|&x| x < 1e-18));
    }

    #[test]
    fn detrend_removes_dc() {
        let mut p = FftPlanner::new();
        let cfg = PsdConfig {
            detrend: true,
            ..PsdConfig::default()
        };
        let mut sig = tone(512, 1.0, 0.1, 1.0);
        for s in &mut sig {
            *s += 100.0;
        }
        let s = periodogram(&mut p, &sig, 1.0, cfg);
        assert!(s.power()[0] < 1e-12);
    }

    #[test]
    fn windowed_tone_power_is_compensated() {
        let mut p = FftPlanner::new();
        let fs = 1000.0;
        let n = 1000;
        let cfg = PsdConfig {
            window: Window::Hann,
            detrend: false,
        };
        let s = periodogram(&mut p, &tone(n, fs, 50.0, 2.0), fs, cfg);
        // The tone smears over the main lobe; its total power must still be
        // ≈ A²/2 after energy-gain compensation.
        let mut bands = Vec::new();
        s.band_powers_into(5.0, 11, &mut bands);
        let band = bands[9] + bands[10]; // 45 Hz up to (not including) 55 Hz
        assert!((band - 2.0).abs() < 0.05, "band power {band}");
    }

    #[test]
    fn parseval_total_power_matches_time_domain() {
        let mut p = FftPlanner::new();
        let sig: Vec<f64> = (0..777).map(|i| (i as f64 * 0.013).sin() * 1.5 + 0.2).collect();
        let s = periodogram(&mut p, &sig, 1.0, PsdConfig::default());
        let time_power = sig.iter().map(|x| x * x).sum::<f64>() / sig.len() as f64;
        assert!(
            (s.total_power() - time_power).abs() < 1e-9 * time_power,
            "{} vs {}",
            s.total_power(),
            time_power
        );
    }

    #[test]
    fn odd_length_signals_supported() {
        let mut p = FftPlanner::new();
        let sig = tone(501, 50.0, 5.0, 1.0);
        let s = periodogram(&mut p, &sig, 50.0, PsdConfig::default());
        assert_eq!(s.bin_count(), 251);
        let peak = s.peak_bins(1)[0];
        assert!((peak.0 - 5.0).abs() <= s.resolution());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_signal_panics() {
        let mut p = FftPlanner::new();
        periodogram(&mut p, &[], 1.0, PsdConfig::default());
    }
}
