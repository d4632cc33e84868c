//! The §3.2 Nyquist-rate estimator.
//!
//! Paper, verbatim: *"(a) for a given trace … we compute the FFT and compute
//! the total energy in the signal — the sum of the PSD across all FFT bins;
//! (b) we add the PSD components in each FFT bin until we reach 99% of the
//! total energy …. If we need all bins of the FFT to achieve 99% of the total
//! energy we conclude the signal is probably already aliased and record −1 as
//! the Nyquist rate; (c) otherwise, we report twice the frequency at which we
//! capture 99% of the total energy of the signal as the Nyquist rate."*
//!
//! Two practical choices are fixed and documented:
//!
//! * **Detrending**: the DC bin of a gauge-type metric (e.g. a temperature
//!   around 50 °C) dwarfs the dynamics; with DC included, the 99% threshold
//!   is met at bin 0 and every signal looks static. Removing the mean makes
//!   the threshold a statement about the signal's *dynamics*, which is what
//!   sampling-rate selection cares about. (The DC level itself is recovered
//!   by any single sample.)
//! * **Resolution floor**: a trace whose AC energy is captured at bin 0
//!   would otherwise yield a Nyquist rate of 0 Hz; the floor clamps the
//!   capture frequency to one FFT bin width, bounding reduction ratios at
//!   `N/2` — you cannot learn more from a length-`N` trace.

use serde::{Deserialize, Serialize};
use sweetspot_dsp::fft::FftPlanner;
use sweetspot_dsp::psd::{periodogram_into, PsdConfig};
use sweetspot_dsp::spectrum::{EnergyCapture, Spectrum};
use sweetspot_dsp::window::Window;
use sweetspot_timeseries::{Hertz, RegularSeries};

/// Estimator configuration.
#[derive(Debug, Clone, Copy)]
pub struct NyquistConfig {
    /// Fraction of total (detrended) energy that must be captured (paper:
    /// 0.99; the paper-claims ledger's cutoff entry also runs 0.999 and
    /// 0.9999).
    pub energy_cutoff: f64,
    /// Window applied before the FFT. Default **Hann**: on short windows the
    /// rectangular window's leakage skirts can carry more than `1 − cutoff`
    /// of a tone's energy, pushing the energy crossing far above the true
    /// band edge (a 10× overestimate on a 72-sample window is easy).
    /// `Window::Rectangular` reproduces the paper's raw-FFT methodology
    /// exactly.
    pub window: Window,
}

impl Default for NyquistConfig {
    fn default() -> Self {
        NyquistConfig {
            energy_cutoff: 0.99,
            window: Window::Hann,
        }
    }
}

impl NyquistConfig {
    /// The paper's literal §3.2 configuration: raw (rectangular-window) FFT
    /// with the 99% cutoff.
    pub fn paper_literal() -> Self {
        NyquistConfig {
            window: Window::Rectangular,
            ..NyquistConfig::default()
        }
    }
}

/// Outcome of a Nyquist-rate estimation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum NyquistEstimate {
    /// The signal's content is captured below half this sampling rate:
    /// sampling at `rate` (or faster) loses at most `1 − cutoff` of the
    /// energy.
    Rate(Hertz),
    /// All FFT bins were needed — the trace is probably already aliased
    /// (the paper records −1).
    Aliased,
}

impl NyquistEstimate {
    /// The estimated rate, or `None` for [`NyquistEstimate::Aliased`].
    pub fn rate(self) -> Option<Hertz> {
        match self {
            NyquistEstimate::Rate(r) => Some(r),
            NyquistEstimate::Aliased => None,
        }
    }

    /// `true` when the trace was judged aliased.
    pub fn is_aliased(self) -> bool {
        matches!(self, NyquistEstimate::Aliased)
    }
}

/// Reusable working storage for [`NyquistEstimator`]: the FFT planner the
/// periodogram transforms in (its cached tables and working buffers), plus
/// the recycled one-sided power buffer it writes (handed to `Spectrum` per
/// estimate and reclaimed with `Spectrum::into_power` afterwards). The
/// periodogram keeps no copy of the trace or of its complex spectrum, so
/// these are all the buffers an estimate needs.
///
/// Callers lend one to [`NyquistEstimator::estimate_samples`]; a loop keeps
/// one for all its estimates, so repeated estimates over equal-length
/// traces reuse twiddle and window tables and the steady state performs no
/// heap allocations. Contents never influence results.
#[derive(Default)]
pub struct EstimatorScratch {
    planner: FftPlanner,
    power: Vec<f64>,
}

impl EstimatorScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// The planner the estimates transform through, for its table
    /// accounting ([`FftPlanner::table_build_time`]).
    pub fn planner(&self) -> &FftPlanner {
        &self.planner
    }
}

/// The estimator: the §3.2 threshold under a [`NyquistConfig`]. It holds
/// no tables or buffers; every estimate borrows an [`EstimatorScratch`].
pub struct NyquistEstimator {
    config: NyquistConfig,
}

impl NyquistEstimator {
    /// Fewest samples with spectral content to threshold.
    pub const MIN_SAMPLES: usize = 4;

    /// Creates an estimator with the given configuration.
    ///
    /// # Panics
    /// Panics unless `0 < energy_cutoff <= 1`.
    pub fn new(config: NyquistConfig) -> Self {
        assert!(
            config.energy_cutoff > 0.0 && config.energy_cutoff <= 1.0,
            "energy_cutoff must be in (0, 1], got {}",
            config.energy_cutoff
        );
        NyquistEstimator { config }
    }

    /// Estimator with [`NyquistConfig::default`]: the paper's 99% cutoff on
    /// a Hann-windowed, detrended periodogram. The paper's literal raw FFT
    /// is [`NyquistConfig::paper_literal`].
    pub fn paper_defaults() -> Self {
        Self::new(NyquistConfig::default())
    }

    /// The active configuration.
    pub fn config(&self) -> &NyquistConfig {
        &self.config
    }

    /// Estimates the Nyquist rate of raw samples taken at `sample_rate`,
    /// through caller-lent working storage: the detrended periodogram under
    /// the configured window, then [`NyquistEstimator::estimate_spectrum`].
    ///
    /// # Panics
    /// Panics if `samples` has fewer than [`NyquistEstimator::MIN_SAMPLES`]
    /// points or `sample_rate` is not positive.
    pub fn estimate_samples(
        &self,
        scratch: &mut EstimatorScratch,
        samples: &[f64],
        sample_rate: Hertz,
    ) -> NyquistEstimate {
        assert!(
            samples.len() >= Self::MIN_SAMPLES,
            "need at least {} samples to estimate a spectrum, got {}",
            Self::MIN_SAMPLES,
            samples.len()
        );
        assert!(sample_rate.value() > 0.0, "sample_rate must be positive");
        let mut power = std::mem::take(&mut scratch.power);
        periodogram_into(
            &mut scratch.planner,
            samples,
            PsdConfig {
                window: self.config.window,
                detrend: true,
            },
            &mut power,
        );
        let spectrum = Spectrum::from_psd(power, sample_rate.value(), samples.len());
        let estimate = self.estimate_spectrum(&spectrum);
        scratch.power = spectrum.into_power();
        estimate
    }

    /// The §3.2 threshold on an already computed spectrum: the energy
    /// capture, the flat-spectrum guard and the resolution floor. The
    /// configured window is not consulted — the caller chose the spectrum
    /// (the §4.2 controller hands over the detector's periodogram, which is
    /// the default configuration's PSD).
    pub fn estimate_spectrum(&self, spectrum: &Spectrum) -> NyquistEstimate {
        match spectrum.frequency_capturing_energy(self.config.energy_cutoff) {
            EnergyCapture::AllBinsNeeded => NyquistEstimate::Aliased,
            EnergyCapture::Captured { frequency } => {
                // The paper's literal criterion ("all bins needed") only
                // fires when the cutoff crossing lands in the very last bin.
                // A spectrum that is flat out to the folding frequency — the
                // signature of folded (aliased) content or white noise —
                // crosses the c-cutoff at ≈ c·f_fold instead. Flag that as
                // aliased too: it is the self-consistent generalization of
                // the same test. The `2/√bins` slack absorbs the sampling
                // fluctuation of the crossing point on noisy spectra.
                let fold = spectrum.folding_frequency();
                let slack = 2.0 / (spectrum.bin_count() as f64).sqrt();
                let guard = (self.config.energy_cutoff - slack).max(0.5) * fold;
                if frequency >= guard {
                    NyquistEstimate::Aliased
                } else {
                    NyquistEstimate::Rate(Hertz(2.0 * frequency.max(spectrum.resolution())))
                }
            }
        }
    }

    /// Estimates the Nyquist rate of a regular series — the one-shot
    /// convenience: builds throwaway scratch, so loops should hold an
    /// [`EstimatorScratch`] and call [`NyquistEstimator::estimate_samples`].
    pub fn estimate_series(&self, series: &RegularSeries) -> NyquistEstimate {
        let mut scratch = EstimatorScratch::new();
        self.estimate_samples(&mut scratch, series.values(), series.sample_rate())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;
    use sweetspot_timeseries::Seconds;

    fn tone_series(n: usize, fs: f64, freqs: &[(f64, f64)], mean: f64) -> RegularSeries {
        let values = (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                mean + freqs
                    .iter()
                    .map(|&(f, a)| a * (2.0 * PI * f * t).sin())
                    .sum::<f64>()
            })
            .collect();
        RegularSeries::new(Seconds::ZERO, Seconds(1.0 / fs), values)
    }

    #[test]
    fn pure_tone_yields_twice_its_frequency() {
        let est = NyquistEstimator::paper_defaults();
        // 0.01 Hz tone sampled at 1 Hz for 1000 s: bin resolution 0.001 Hz.
        let s = tone_series(1000, 1.0, &[(0.01, 1.0)], 0.0);
        match est.estimate_series(&s) {
            NyquistEstimate::Rate(r) => {
                assert!((r.value() - 0.02).abs() < 0.003, "rate {r}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn two_tones_yield_twice_the_higher() {
        let est = NyquistEstimator::paper_defaults();
        let s = tone_series(2000, 1.0, &[(0.01, 1.0), (0.05, 0.8)], 0.0);
        let rate = est.estimate_series(&s).rate().unwrap().value();
        assert!((rate - 0.1).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn weak_high_tone_below_one_percent_is_ignored() {
        let est = NyquistEstimator::paper_defaults();
        // Second tone carries (0.05)²/2 / ((1² + 0.05²)/2) ≈ 0.25% of energy —
        // under the 1% the cutoff discards (this is the noise-robustness the
        // paper designed the 99% threshold for).
        let s = tone_series(2000, 1.0, &[(0.01, 1.0), (0.2, 0.05)], 0.0);
        let rate = est.estimate_series(&s).rate().unwrap().value();
        assert!(rate < 0.05, "weak tone should be discarded, rate {rate}");
    }

    #[test]
    fn higher_cutoff_keeps_the_weak_tone() {
        let est = NyquistEstimator::new(NyquistConfig {
            energy_cutoff: 0.9999,
            ..NyquistConfig::default()
        });
        let s = tone_series(2000, 1.0, &[(0.01, 1.0), (0.2, 0.05)], 0.0);
        let rate = est.estimate_series(&s).rate().unwrap().value();
        assert!((rate - 0.4).abs() < 0.05, "strict cutoff should keep it: {rate}");
    }

    #[test]
    fn estimate_is_monotone_in_cutoff() {
        let s = tone_series(1500, 1.0, &[(0.01, 1.0), (0.07, 0.3), (0.21, 0.1)], 10.0);
        let mut prev = 0.0;
        for cutoff in [0.9, 0.99, 0.999, 0.9999] {
            let est = NyquistEstimator::new(NyquistConfig {
                energy_cutoff: cutoff,
                ..NyquistConfig::default()
            });
            let rate = est.estimate_series(&s).rate().unwrap().value();
            assert!(rate >= prev - 1e-12, "cutoff {cutoff}: {rate} < {prev}");
            prev = rate;
        }
    }

    #[test]
    fn dc_heavy_gauge_is_not_mistaken_for_static() {
        let est = NyquistEstimator::paper_defaults();
        // 50-unit mean dwarfs a 1-unit tone; detrending must still find it.
        let s = tone_series(1000, 1.0, &[(0.05, 1.0)], 50.0);
        let rate = est.estimate_series(&s).rate().unwrap().value();
        assert!((rate - 0.1).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn constant_signal_floors_to_resolution() {
        let est = NyquistEstimator::paper_defaults();
        let s = RegularSeries::new(Seconds::ZERO, Seconds(1.0), vec![5.0; 1000]);
        let rate = est.estimate_series(&s).rate().unwrap().value();
        assert!((rate - 0.002).abs() < 1e-12, "rate {rate}"); // 2 × (1/1000)
    }

    #[test]
    fn white_noise_is_reported_aliased() {
        let est = NyquistEstimator::paper_defaults();
        // White noise spreads energy across all bins ~uniformly: reaching
        // 99% requires ~99% of bins — including the last one.
        let mut state = 0x12345678u64;
        let values: Vec<f64> = (0..2048)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
            })
            .collect();
        let s = RegularSeries::new(Seconds::ZERO, Seconds(1.0), values);
        assert!(est.estimate_series(&s).is_aliased());
    }

    #[test]
    fn aliased_tone_looks_like_low_frequency() {
        // A 0.45 Hz tone sampled at 1 Hz is fine; sampled at 0.5 Hz it folds
        // to 0.05 Hz. The estimator *cannot* see this from the slow trace
        // alone — it reports a (wrong) low rate, which is exactly why §4.1
        // needs the dual-rate detector.
        let est = NyquistEstimator::paper_defaults();
        let fs = 0.5;
        let s = tone_series(500, fs, &[(0.45, 1.0)], 0.0);
        let rate = est.estimate_series(&s).rate().unwrap().value();
        assert!((rate - 0.1).abs() < 0.01, "folded rate {rate}");
    }

    #[test]
    fn estimate_never_exceeds_sampling_rate() {
        let est = NyquistEstimator::paper_defaults();
        for n in [64usize, 500, 1001] {
            let s = tone_series(n, 2.0, &[(0.9, 1.0), (0.3, 0.5)], 3.0);
            if let NyquistEstimate::Rate(r) = est.estimate_series(&s) {
                assert!(r.value() <= 2.0 + 1e-12);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least 4 samples")]
    fn tiny_trace_panics() {
        let est = NyquistEstimator::paper_defaults();
        est.estimate_samples(&mut EstimatorScratch::new(), &[1.0, 2.0], Hertz(1.0));
    }

    #[test]
    #[should_panic(expected = "energy_cutoff")]
    fn invalid_cutoff_panics() {
        NyquistEstimator::new(NyquistConfig {
            energy_cutoff: 1.5,
            ..NyquistConfig::default()
        });
    }
}
