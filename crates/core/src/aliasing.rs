//! The §4.1 dual-rate aliasing detector (after Penny, Friswell & Garvey).
//!
//! Paper: *"sample at two distinct frequencies f1 and f2, where f1 > f2 and
//! f1/f2 is not an integer. If aliasing occurs — i.e., the underlying signal
//! has frequency terms that are larger than f2/2 — then comparing the
//! discrete fourier transforms of the two sampled signals would show
//! discrepancies; for example, frequencies below f2/2 will match in both
//! spectra but the higher frequencies will not match."*
//!
//! Implementation notes:
//!
//! * The two traces have different lengths and bin grids, so bin-by-bin FFT
//!   comparison is not possible. Instead the band `(0, f2/2)` is split into
//!   24 equal sub-bands and the *power* of each trace in each sub-band is
//!   compared; a relative mismatch above one half is a discrepancy. Folded content lands in some sub-band regardless of where,
//!   so nothing slips between check points.
//! * Both periodograms use a Hann window: the rectangular window's leakage
//!   skirts differ between the two trace lengths and would masquerade as
//!   discrepancies (this is the "noise … can be filtered using standard
//!   techniques" remark in §4.1, applied to leakage).
//! * Sub-bands holding less than `relative_floor` of the total in-band power
//!   are skipped — small-amplitude noise tolerance.
//! * Content that aliases under *both* rates folds onto different
//!   frequencies in each spectrum thanks to the non-integer ratio (footnote
//!   1 of the paper), so it still shows up as a band-power mismatch.

use sweetspot_dsp::fft::FftPlanner;
use sweetspot_dsp::psd::{periodogram_into, PsdConfig};
use sweetspot_dsp::spectrum::Spectrum;
use sweetspot_dsp::window::Window;
use sweetspot_timeseries::{Hertz, RegularSeries};

/// Number of comparison sub-bands over `(0, f2/2)`.
const BANDS: usize = 24;

/// Relative band-power mismatch (w.r.t. the larger of the two readings)
/// that counts as a discrepancy.
const TOLERANCE: f64 = 0.5;

/// Detector configuration.
#[derive(Debug, Clone, Copy)]
pub struct DualRateConfig {
    /// Sub-bands holding less than this fraction of the total in-band power
    /// (in both traces) are skipped as noise.
    pub relative_floor: f64,
}

impl Default for DualRateConfig {
    fn default() -> Self {
        DualRateConfig {
            relative_floor: 0.02,
        }
    }
}

/// Verdict of a dual-rate comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct AliasingVerdict {
    /// `true` when the spectra disagree below `f2/2` — the slower rate is
    /// aliasing.
    pub aliased: bool,
    /// Largest relative band-power discrepancy observed.
    pub max_discrepancy: f64,
    /// Center frequency (Hz) of the most discrepant band, if any were
    /// compared.
    pub worst_frequency: Option<f64>,
    /// Number of sub-bands actually compared (above the floor).
    pub compared: usize,
}

/// Ratio guard: `f1/f2` must not be (near-)integral, or content aliased
/// under both rates folds onto *the same* frequencies and cancels out of the
/// comparison (paper footnote 1).
///
/// Returns `true` when the ratio is safely non-integer.
pub fn ratio_is_valid(f1: Hertz, f2: Hertz) -> bool {
    if f1.value() <= f2.value() || f2.value() <= 0.0 {
        return false;
    }
    let ratio = f1.value() / f2.value();
    (ratio - ratio.round()).abs() > 1e-6
}

/// Compares two traces of the same signal sampled at different rates and
/// decides whether the *slower* one is aliased.
///
/// One-shot convenience around [`detect_aliasing_scratch`] with throwaway
/// scratch; repeated callers (the §4.2 adaptive controller, the
/// paper-claims ledger's detector entry) should hold their own so twiddle
/// and window tables are computed once and steady state allocates nothing.
///
/// # Panics
/// Exactly as [`detect_aliasing_scratch`].
pub fn detect_aliasing(
    fast: &RegularSeries,
    slow: &RegularSeries,
    cfg: DualRateConfig,
) -> AliasingVerdict {
    detect_aliasing_scratch(&mut DetectScratch::new(), fast, slow, cfg)
}

/// The periodogram both streams are compared through: Hann-windowed,
/// detrended (see the module docs). The §3.2 estimator's default
/// configuration computes the same PSD, which is what lets the §4.2
/// controller hand one fast-stream spectrum to both analyses.
pub const DETECTOR_PSD: PsdConfig = PsdConfig {
    window: Window::Hann,
    detrend: true,
};

/// Reusable band-power tables for [`compare_spectra`], one per stream.
#[derive(Debug, Default)]
pub struct BandScratch {
    fast: Vec<f64>,
    slow: Vec<f64>,
}

impl BandScratch {
    /// Empty tables; they grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap bytes the tables currently hold (capacities, not lengths).
    pub fn resident_bytes(&self) -> usize {
        (self.fast.capacity() + self.slow.capacity()) * std::mem::size_of::<f64>()
    }
}

/// Reusable working storage for [`detect_aliasing_scratch`]: the FFT
/// planner, the two one-sided power buffers and the band-power tables.
/// Keep one per loop or worker so twiddle and window tables are computed
/// once and steady-state detection performs no heap allocations.
#[derive(Default)]
pub struct DetectScratch {
    planner: FftPlanner,
    fast_power: Vec<f64>,
    slow_power: Vec<f64>,
    bands: BandScratch,
}

impl DetectScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The [`DETECTOR_PSD`] periodogram of `series`, built in the recycled
/// `power` buffer (reclaim it with [`Spectrum::into_power`]).
pub fn detector_spectrum(
    planner: &mut FftPlanner,
    series: &RegularSeries,
    mut power: Vec<f64>,
) -> Spectrum {
    periodogram_into(planner, series.values(), DETECTOR_PSD, &mut power);
    Spectrum::from_psd(power, series.sample_rate().value(), series.len())
}

/// The dual-rate comparison from two traces: both [`DETECTOR_PSD`]
/// periodograms, then [`compare_spectra`], through caller-lent
/// [`DetectScratch`] — zero steady-state heap allocations.
///
/// `fast` must be sampled at a higher rate than `slow`, with a non-integer
/// rate ratio (checked). Both should cover the same time window.
///
/// # Panics
/// Exactly as [`compare_spectra`].
pub fn detect_aliasing_scratch(
    scratch: &mut DetectScratch,
    fast: &RegularSeries,
    slow: &RegularSeries,
    cfg: DualRateConfig,
) -> AliasingVerdict {
    let fast_power = std::mem::take(&mut scratch.fast_power);
    let spec_fast = detector_spectrum(&mut scratch.planner, fast, fast_power);
    let slow_power = std::mem::take(&mut scratch.slow_power);
    let spec_slow = detector_spectrum(&mut scratch.planner, slow, slow_power);
    let verdict = compare_spectra(&spec_fast, &spec_slow, cfg, &mut scratch.bands);
    scratch.fast_power = spec_fast.into_power();
    scratch.slow_power = spec_slow.into_power();
    verdict
}

/// The §4.1 comparison kernel: decides from the two streams' spectra
/// (normally [`detector_spectrum`]s) whether the *slower* stream is
/// aliased, reading each spectrum once into the lent band tables.
///
/// # Panics
/// Panics unless the fast spectrum's rate exceeds the slow one's by a
/// non-integer ratio, both came from at least 16 samples, and
/// `relative_floor` is in `[0, 1)`.
pub fn compare_spectra(
    fast: &Spectrum,
    slow: &Spectrum,
    cfg: DualRateConfig,
    bands: &mut BandScratch,
) -> AliasingVerdict {
    let f1 = Hertz(fast.sample_rate());
    let f2 = Hertz(slow.sample_rate());
    assert!(
        ratio_is_valid(f1, f2),
        "need f1 > f2 with non-integer ratio, got f1={f1}, f2={f2}"
    );
    assert!(
        fast.segment_len() >= 16 && slow.segment_len() >= 16,
        "need at least 16 samples per trace (got {} and {})",
        fast.segment_len(),
        slow.segment_len()
    );
    assert!(
        (0.0..1.0).contains(&cfg.relative_floor),
        "relative_floor must be in [0,1)"
    );

    // The bands start at DC with no guard region: detrending removed DC,
    // and both windows smear residual low-frequency energy alike at the
    // band granularity.
    let band_width = f2.value() / 2.0 / BANDS as f64;
    fast.band_powers_into(band_width, BANDS, &mut bands.fast);
    slow.band_powers_into(band_width, BANDS, &mut bands.slow);
    let total: f64 = bands
        .fast
        .iter()
        .sum::<f64>()
        .max(bands.slow.iter().sum::<f64>());
    if total <= 0.0 {
        // No in-band energy at all: nothing can mismatch.
        return AliasingVerdict {
            aliased: false,
            max_discrepancy: 0.0,
            worst_frequency: None,
            compared: 0,
        };
    }

    let mut max_disc = 0.0f64;
    let mut worst = None;
    let mut compared = 0usize;
    for (k, (&pf, &ps)) in bands.fast.iter().zip(&bands.slow).enumerate() {
        let peak = pf.max(ps);
        if peak < cfg.relative_floor * total {
            continue;
        }
        compared += 1;
        let disc = (pf - ps).abs() / peak;
        if disc > max_disc {
            max_disc = disc;
            worst = Some((k as f64 + 0.5) * band_width);
        }
    }
    AliasingVerdict {
        aliased: max_disc > TOLERANCE,
        max_discrepancy: max_disc,
        worst_frequency: worst,
        compared,
    }
}

/// Picks a companion (secondary) rate for `primary` with a guaranteed
/// non-integer ratio: `primary / φ` where φ ≈ 1.618 (the most irrational
/// ratio, maximizing fold separation).
pub fn companion_rate(primary: Hertz) -> Hertz {
    Hertz(primary.value() / COMPANION_RATIO)
}

/// The primary-to-companion rate ratio φ (golden ratio — the "most
/// irrational" choice, maximizing fold separation). Exported so cost models
/// can price the verification stream consistently: continuous dual-rate
/// verification costs `1 + 1/φ` samples per primary-stream sample.
pub const COMPANION_RATIO: f64 = 1.618_033_988_749_895;

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;
    use sweetspot_timeseries::Seconds;

    /// Samples `f(t)` at `rate` for `duration` seconds.
    fn sample(rate: f64, duration: f64, f: impl Fn(f64) -> f64) -> RegularSeries {
        let n = (rate * duration).round() as usize;
        let values = (0..n).map(|i| f(i as f64 / rate)).collect();
        RegularSeries::new(Seconds::ZERO, Seconds(1.0 / rate), values)
    }

    fn two_tone(f_lo: f64, f_hi: f64, a_hi: f64) -> impl Fn(f64) -> f64 {
        move |t| (2.0 * PI * f_lo * t).sin() + a_hi * (2.0 * PI * f_hi * t).sin()
    }

    #[test]
    fn clean_signal_is_not_flagged() {
        // Content at 0.05/0.02 Hz; f2 = 0.618 Hz ⇒ f2/2 = 0.309 ≫ 0.05.
        let signal = two_tone(0.05, 0.02, 0.5);
        let fast = sample(1.0, 2000.0, &signal);
        let slow = sample(1.0 / 1.618, 2000.0, &signal);
        let v = detect_aliasing(&fast, &slow, DualRateConfig::default());
        assert!(!v.aliased, "verdict {v:?}");
        assert!(v.compared > 0);
    }

    #[test]
    fn aliased_signal_is_flagged() {
        // Tone at 0.4 Hz: fine at f1 = 1 Hz (fold 0.5) but aliased at
        // f2 = 0.618 Hz (fold 0.309): folds to 0.218 Hz.
        let signal = two_tone(0.05, 0.4, 1.0);
        let fast = sample(1.0, 2000.0, &signal);
        let slow = sample(1.0 / 1.618, 2000.0, &signal);
        let v = detect_aliasing(&fast, &slow, DualRateConfig::default());
        assert!(v.aliased, "verdict {v:?}");
        assert!(v.max_discrepancy > 0.8);
    }

    #[test]
    fn aliased_under_both_rates_still_differs() {
        // 0.9 Hz tone aliases under both 1 Hz and 0.618 Hz sampling, folding
        // to 0.1 Hz and 0.282 Hz respectively — the non-integer ratio makes
        // the folds land apart, so the detector still fires.
        let signal = two_tone(0.01, 0.9, 1.0);
        let fast = sample(1.0, 2000.0, &signal);
        let slow = sample(1.0 / 1.618, 2000.0, &signal);
        let v = detect_aliasing(&fast, &slow, DualRateConfig::default());
        assert!(v.aliased, "verdict {v:?}");
    }

    #[test]
    fn tiny_but_clean_signal_not_flagged() {
        let signal = |t: f64| 1e-9 * (2.0 * PI * 0.01 * t).sin();
        let fast = sample(1.0, 1000.0, signal);
        let slow = sample(1.0 / 1.618, 1000.0, signal);
        let v = detect_aliasing(&fast, &slow, DualRateConfig::default());
        assert!(!v.aliased, "amplitude does not matter, band shape does: {v:?}");
    }

    #[test]
    fn zero_signal_compares_nothing() {
        let fast = sample(1.0, 500.0, |_| 5.0); // constant → detrended to 0
        let slow = sample(1.0 / 1.618, 500.0, |_| 5.0);
        let v = detect_aliasing(&fast, &slow, DualRateConfig::default());
        assert!(!v.aliased);
        assert_eq!(v.compared, 0);
    }

    #[test]
    fn worst_frequency_is_reported_near_the_fold() {
        let signal = two_tone(0.02, 0.4, 2.0);
        let fast = sample(1.0, 4000.0, &signal);
        let slow = sample(1.0 / 1.618, 4000.0, &signal);
        let v = detect_aliasing(&fast, &slow, DualRateConfig::default());
        // 0.4 Hz folds under f2=0.618: |0.4 − 0.618| = 0.218 Hz. Band width
        // is 0.309/24 ≈ 0.0129, so the worst band centers within one band.
        let worst = v.worst_frequency.unwrap();
        assert!(
            (worst - 0.218).abs() < 0.013,
            "worst at {worst}, expected ≈0.218"
        );
    }

    #[test]
    fn noise_robustness_with_small_jitter() {
        // Same clean signal plus small independent pseudo-noise per trace:
        // must not trip the detector.
        let mut s1 = 0xABCDEFu64;
        let mut s2 = 0x123456u64;
        let noise = move |state: &mut u64| {
            *state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (((*state >> 33) as f64 / (1u64 << 31) as f64) - 1.0) * 0.01
        };
        let base = two_tone(0.03, 0.01, 0.7);
        let fast_vals: Vec<f64> = (0..4000).map(|i| base(i as f64) + noise(&mut s1)).collect();
        let slow_vals: Vec<f64> = (0..2472)
            .map(|i| base(i as f64 * 1.618) + noise(&mut s2))
            .collect();
        let fast = RegularSeries::new(Seconds::ZERO, Seconds(1.0), fast_vals);
        let slow = RegularSeries::new(Seconds::ZERO, Seconds(1.618), slow_vals);
        let v = detect_aliasing(&fast, &slow, DualRateConfig::default());
        assert!(!v.aliased, "1% noise must not fire the detector: {v:?}");
    }

    #[test]
    fn ratio_guard() {
        assert!(ratio_is_valid(Hertz(1.0), Hertz(1.0 / 1.618)));
        assert!(!ratio_is_valid(Hertz(1.0), Hertz(0.5))); // integer ratio
        assert!(!ratio_is_valid(Hertz(1.0), Hertz(1.0))); // equal
        assert!(!ratio_is_valid(Hertz(0.5), Hertz(1.0))); // f1 < f2
    }

    #[test]
    fn companion_rate_is_valid() {
        for r in [1.0, 0.01, 1e-4] {
            let primary = Hertz(r);
            assert!(ratio_is_valid(primary, companion_rate(primary)));
        }
    }

    #[test]
    #[should_panic(expected = "non-integer ratio")]
    fn integer_ratio_panics() {
        let signal = |t: f64| (2.0 * PI * 0.05 * t).sin();
        let fast = sample(1.0, 500.0, signal);
        let slow = sample(0.5, 500.0, signal);
        detect_aliasing(&fast, &slow, DualRateConfig::default());
    }
}
