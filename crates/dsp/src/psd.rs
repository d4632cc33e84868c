//! Power-spectral-density estimation.
//!
//! Two estimators are provided:
//!
//! * [`periodogram`] — the raw squared-magnitude FFT the paper's §3.2 method
//!   uses ("compute the FFT ... the sum of the PSD across all FFT bins").
//! * [`welch`] — averaged, overlapped, windowed segments; lower variance on
//!   noisy traces at the cost of frequency resolution. Exposed because the
//!   estimator ablation (DESIGN.md §6.2) compares the two.
//!
//! Both return a one-sided [`Spectrum`] normalized as *power per bin* with
//! window energy-gain compensation, so cumulative-energy fractions are
//! comparable across window choices.
//!
//! The `*_into` variants ([`periodogram_into`], [`welch_into`]) write into
//! caller-owned buffers through a reusable [`PsdScratch`]: one windowed-
//! segment buffer, one spectrum buffer and one [`FftScratch`] are shared
//! across all segments, and window coefficients come from the planner's
//! cached per-`(window, n)` tables — so the steady-state inner loop performs
//! **zero heap allocations per segment** (pinned by
//! `tests/alloc_steady_state.rs`). Planners hold tables only, so the
//! scratch is the one place working buffers live: at fleet scale every
//! member's estimator holds a lightweight planner clone that stays empty
//! by construction.

use crate::complex::Complex64;
use crate::fft::{one_sided_len, FftPlanner, FftScratch};
use crate::spectrum::Spectrum;
use crate::window::Window;

/// Configuration for [`periodogram`].
#[derive(Debug, Clone, Copy)]
pub struct PsdConfig {
    /// Taper applied before the FFT.
    pub window: Window,
    /// Subtract the segment mean first. Removes the (usually enormous) DC
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

/// Configuration for [`welch`].
#[derive(Debug, Clone, Copy)]
pub struct WelchConfig {
    /// Samples per segment. Clamped to the signal length.
    pub segment_len: usize,
    /// Fractional overlap between consecutive segments in `[0, 0.95]`.
    pub overlap: f64,
    /// Taper applied to each segment.
    pub window: Window,
    /// Subtract each segment's mean before windowing.
    pub detrend: bool,
}

impl Default for WelchConfig {
    fn default() -> Self {
        WelchConfig {
            segment_len: 256,
            overlap: 0.5,
            window: Window::Hann,
            detrend: true,
        }
    }
}

/// Reusable scratch buffers for the PSD estimators.
///
/// Holds the windowed-segment buffer, the one-sided spectrum buffer and a
/// per-segment power buffer; all grow on demand and are reused across calls.
/// Keep one per loop (or per worker) and lend it to every call so the
/// steady-state pipeline allocates nothing.
#[derive(Debug, Default)]
pub struct PsdScratch {
    /// Windowed (and detrended) copy of the current segment.
    seg: Vec<f64>,
    /// One-sided spectrum of the current segment.
    spec: Vec<Complex64>,
    /// Per-segment folded power, used by [`welch_into`]'s accumulation.
    power: Vec<f64>,
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
            + self.power.capacity() * std::mem::size_of::<f64>()
            + self.fft.resident_bytes()
    }
}

/// The shared kernel: one windowed segment's one-sided per-bin power into
/// `out` (cleared first).
///
/// Interior bins are doubled (they carry the energy of both the positive and
/// negative frequency); DC and — for even `n` — the Nyquist bin are not.
/// Everything is normalized by `n²` and the window energy gain.
fn segment_power_into(
    planner: &mut FftPlanner,
    seg: &mut Vec<f64>,
    spec: &mut Vec<Complex64>,
    fft: &mut FftScratch,
    samples: &[f64],
    cfg: PsdConfig,
    out: &mut Vec<f64>,
) {
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

/// [`periodogram`] into a caller-owned power buffer (cleared first) —
/// the allocation-free core for steady-state pipelines. The buffer holds
/// [`one_sided_len`]`(samples.len())` bins; wrap it with
/// [`Spectrum::from_psd`] (and reclaim it via `Spectrum::into_power`).
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
    segment_power_into(
        planner,
        &mut scratch.seg,
        &mut scratch.spec,
        &mut scratch.fft,
        samples,
        cfg,
        out,
    );
}

/// Single-segment PSD estimate (§3.2's raw method when
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

/// [`welch`] into a caller-owned power buffer (cleared first).
///
/// Returns the segment length the buffer must be interpreted against: the
/// configured `segment_len` clamped to the trace length, so a signal
/// shorter than one segment degenerates to exactly one full-length
/// periodogram. The inner loop reuses `scratch` across segments and
/// performs no per-segment allocations in steady state.
///
/// # Panics
/// Panics if `samples` is empty, `segment_len == 0`, or
/// `overlap ∉ [0, 0.95]`.
pub fn welch_into(
    planner: &mut FftPlanner,
    scratch: &mut PsdScratch,
    samples: &[f64],
    cfg: WelchConfig,
    out: &mut Vec<f64>,
) -> usize {
    assert!(!samples.is_empty(), "cannot estimate the PSD of an empty signal");
    assert!(cfg.segment_len > 0, "segment_len must be positive");
    assert!(
        (0.0..=0.95).contains(&cfg.overlap),
        "overlap must be in [0, 0.95], got {}",
        cfg.overlap
    );
    let seg_len = cfg.segment_len.min(samples.len());
    let hop = ((seg_len as f64) * (1.0 - cfg.overlap)).round().max(1.0) as usize;
    let seg_cfg = PsdConfig {
        window: cfg.window,
        detrend: cfg.detrend,
    };
    let PsdScratch { seg, spec, power, fft } = scratch;
    out.clear();
    out.resize(one_sided_len(seg_len), 0.0);
    let mut segments = 0usize;
    let mut start = 0usize;
    while start + seg_len <= samples.len() {
        segment_power_into(planner, seg, spec, fft, &samples[start..start + seg_len], seg_cfg, power);
        for (a, p) in out.iter_mut().zip(power.iter()) {
            *a += *p;
        }
        segments += 1;
        start += hop;
    }
    // `seg_len <= samples.len()` by the clamp above, so the loop always ran.
    debug_assert!(segments > 0);
    for a in out.iter_mut() {
        *a /= segments as f64;
    }
    seg_len
}

/// Welch's method: average the periodograms of overlapping windowed segments.
///
/// Lower-variance than [`periodogram`] on stochastic signals; resolution is
/// `sample_rate / segment_len`. Trailing samples that do not fill a final
/// segment are dropped (standard practice). If the signal is shorter than
/// `segment_len`, a single full-length segment is used.
///
/// # Panics
/// Panics if `samples` is empty, `sample_rate <= 0`, `segment_len == 0`, or
/// `overlap ∉ [0, 0.95]`.
pub fn welch(
    planner: &mut FftPlanner,
    samples: &[f64],
    sample_rate: f64,
    cfg: WelchConfig,
) -> Spectrum {
    assert!(sample_rate > 0.0, "sample_rate must be positive");
    let mut scratch = PsdScratch::new();
    let mut acc = Vec::new();
    let n = welch_into(planner, &mut scratch, samples, cfg, &mut acc);
    Spectrum::from_psd(acc, sample_rate, n)
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
        assert!((s.power_of_bin(0) - 9.0).abs() < 1e-9);
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
        assert!(s.power_of_bin(0) < 1e-12);
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
        let band = s.power_in_band(45.0, 55.0);
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
    fn welch_reduces_variance_on_noise() {
        let mut p = FftPlanner::new();
        // Deterministic pseudo-noise (LCG) to avoid a rand dependency here.
        let mut state = 0x2545F4914F6CDD1Du64;
        let noise: Vec<f64> = (0..4096)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
            })
            .collect();
        let raw = periodogram(&mut p, &noise, 1.0, PsdConfig::default());
        let avg = welch(
            &mut p,
            &noise,
            1.0,
            WelchConfig {
                segment_len: 256,
                overlap: 0.5,
                window: Window::Hann,
                detrend: true,
            },
        );
        // Raw and Welch spectra have different bin counts (and so different
        // per-bin means); compare the squared coefficient of variation of the
        // flat noise floor instead of absolute variances.
        let cv2 = |xs: &[f64]| {
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            let v = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
            v / (m * m)
        };
        assert!(cv2(&avg.power()[1..]) < cv2(&raw.power()[1..]) / 4.0);
    }

    #[test]
    fn welch_falls_back_to_single_segment() {
        let mut p = FftPlanner::new();
        let sig = tone(100, 10.0, 1.0, 1.0);
        let w = welch(
            &mut p,
            &sig,
            10.0,
            WelchConfig {
                segment_len: 1000,
                ..WelchConfig::default()
            },
        );
        assert_eq!(w.segment_len(), 100);
    }

    #[test]
    fn welch_resolution_is_segment_based() {
        let mut p = FftPlanner::new();
        let sig = tone(2048, 100.0, 10.0, 1.0);
        let w = welch(
            &mut p,
            &sig,
            100.0,
            WelchConfig {
                segment_len: 256,
                overlap: 0.5,
                window: Window::Hann,
                detrend: false,
            },
        );
        assert!((w.resolution() - 100.0 / 256.0).abs() < 1e-12);
        let peak = w.peak_bins(1)[0];
        assert!((peak.0 - 10.0).abs() <= w.resolution());
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
