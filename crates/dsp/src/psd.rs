//! Power-spectral-density estimation.
//!
//! [`periodogram`] is the raw squared-magnitude FFT the paper's §3.2 method
//! uses ("compute the FFT ... the sum of the PSD across all FFT bins"),
//! optionally detrended and windowed. It returns a one-sided [`Spectrum`]
//! normalized as *power per bin* with window energy-gain compensation, so
//! cumulative-energy fractions are comparable across window choices.
//!
//! [`periodogram_into`] writes into a caller-owned power buffer and holds
//! no copy of the signal or of its spectrum: the detrend and the window
//! (coefficients from the planner's cached per-`(window, n)` tables) are
//! applied as the real FFT loads each sample, and each bin's power is
//! written as the transform emits it. Its only working storage is the
//! lent planner's buffers, so the steady-state pipeline performs **zero
//! heap allocations** (pinned by `tests/alloc_steady_state.rs`).

use crate::fft::{one_sided_len, FftPlanner};
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

/// [`periodogram`] into a caller-owned power buffer (cleared first) —
/// the allocation-free core for steady-state pipelines. The buffer holds
/// [`one_sided_len`]`(samples.len())` bins; wrap it with
/// [`Spectrum::from_psd`] (and reclaim it via `Spectrum::into_power`).
///
/// Interior bins are doubled (they carry the energy of both the positive and
/// negative frequency); DC and — for even `n` — the Nyquist bin are not.
/// Everything is normalized by `n²` and the window energy gain.
///
/// # Panics
/// Panics if `samples` is empty.
pub fn periodogram_into(
    planner: &mut FftPlanner,
    samples: &[f64],
    cfg: PsdConfig,
    out: &mut Vec<f64>,
) {
    assert!(!samples.is_empty(), "cannot estimate the PSD of an empty signal");
    let n = samples.len();
    // Without detrending the mean is 0.0 and, for the rectangular window,
    // every coefficient is 1.0: both exact identities, so one branch-free
    // map `(x − mean)·w` serves every configuration.
    let mean = if cfg.detrend {
        samples.iter().sum::<f64>() / n as f64
    } else {
        0.0
    };
    let table = planner.window_table(cfg.window, n);
    let coeffs = table.coefficients();
    let norm = (n as f64) * (n as f64) * table.energy_gain();
    out.clear();
    out.resize(one_sided_len(n), 0.0);
    planner.fft_real_with(
        samples,
        |i, x| (x - mean) * coeffs[i],
        |k, c| {
            // DC and — for even `n` — the Nyquist bin are not doubled.
            let gain = if k == 0 || 2 * k == n { 1.0 } else { 2.0 };
            out[k] = c.norm_sqr() * gain / norm;
        },
    );
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
    let mut power = Vec::new();
    periodogram_into(planner, samples, cfg, &mut power);
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

    /// The composition [`periodogram_into`] fuses: copy the signal,
    /// detrend the copy, multiply the window table in, take the one-sided
    /// real FFT, then square and scale each bin.
    fn periodogram_unfused(planner: &mut FftPlanner, samples: &[f64], cfg: PsdConfig) -> Vec<f64> {
        let n = samples.len();
        let mut seg = samples.to_vec();
        if cfg.detrend {
            let mean = seg.iter().sum::<f64>() / n as f64;
            for s in &mut seg {
                *s -= mean;
            }
        }
        let table = planner.window_table(cfg.window, n);
        table.apply(&mut seg);
        let mut spec = Vec::new();
        planner.fft_real_into(&seg, &mut spec);
        let norm = (n as f64) * (n as f64) * table.energy_gain();
        let nyquist = n.is_multiple_of(2).then_some(n / 2);
        (spec.iter().enumerate())
            .map(|(k, c)| {
                let mut p = c.norm_sqr();
                if k != 0 && Some(k) != nyquist {
                    p *= 2.0;
                }
                p / norm
            })
            .collect()
    }

    #[test]
    fn fused_periodogram_is_bit_identical_to_the_unfused_composition() {
        // Every length 1..=1100 covers the packed, promoted (odd 5-smooth)
        // and one-sided Bluestein plans; 129 600 is the `analyze` length.
        let configs = [Window::Rectangular, Window::Hann]
            .into_iter()
            .flat_map(|window| [false, true].map(|detrend| PsdConfig { window, detrend }));
        let configs: Vec<PsdConfig> = configs.collect();
        let mut power = Vec::new();
        for n in (1..=1100).chain([129_600]) {
            let sig: Vec<f64> = (0..n)
                .map(|i| 10.0 + 3.0 * (i as f64 * 0.37).sin() - (i % 7) as f64 * 0.1)
                .collect();
            let mut planner = FftPlanner::new();
            for &cfg in &configs {
                periodogram_into(&mut planner, &sig, cfg, &mut power);
                let expected = periodogram_unfused(&mut planner, &sig, cfg);
                assert_eq!(power.len(), expected.len(), "n={n} {cfg:?}");
                for (k, (a, b)) in power.iter().zip(&expected).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "n={n} {cfg:?} bin {k}: {a} vs {b}");
                }
            }
        }
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
