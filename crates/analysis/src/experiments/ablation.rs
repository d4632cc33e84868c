//! **Ablations** — the design choices the `sweetspot_core::estimator`,
//! `aliasing` and `adaptive` module docs call out.
//!
//! * [`cutoff`] — the 99% energy threshold (§3.2 discusses 99.99%: "would
//!   increase our estimate of the Nyquist rate and reduce performance gains
//!   but … does not necessarily lead to a lower reconstruction error").
//! * [`detector_accuracy`] — dual-rate detector TPR/FPR (§4.1), including
//!   the integer-ratio failure mode the paper's footnote warns about.
//! * [`adaptive_memory`] — §4.2 memory on/off re-ramp cost.
//! * [`quantization`] — quanta sweep vs estimator and reconstruction (§4.3).

use sweetspot_core::adaptive::{AdaptiveConfig, AdaptiveSampler};
use sweetspot_core::aliasing::{
    companion_rate, detect_aliasing_scratch, DetectScratch, DualRateConfig,
};
use sweetspot_core::estimator::{EstimatorScratch, NyquistConfig, NyquistEstimator};
use sweetspot_core::reconstruct::{roundtrip, ReconstructionConfig};
use sweetspot_core::source::FunctionSource;
use sweetspot_dsp::fft::FftPlanner;
use sweetspot_dsp::quantize::Quantizer;
use sweetspot_telemetry::{DeviceTrace, MetricKind, MetricProfile};
use sweetspot_timeseries::{Hertz, RegularSeries, Seconds};

/// One row of the cutoff ablation.
#[derive(Debug, Clone, Copy)]
pub struct CutoffRow {
    /// Energy cutoff used.
    pub cutoff: f64,
    /// Mean estimated Nyquist rate across devices (Hz).
    pub mean_rate: f64,
    /// Mean interior reconstruction NRMSE at that rate.
    pub mean_nrmse: f64,
}

/// A1: sweep the energy cutoff over temperature devices.
///
/// Runs on *measured* traces (white measurement noise + quantization), not
/// pristine ground truth: the cutoff's job is to discard the noise floor.
/// Expected shape: the estimated rate grows with the cutoff (tighter cutoffs
/// chase noise into higher bins) while the reconstruction error barely
/// improves — §3.2: a 99.99% threshold "would increase our estimate of the
/// Nyquist rate and reduce performance gains but … does not necessarily
/// lead to a lower reconstruction error since the delta that is being
/// captured is often just the noise".
pub fn cutoff(seed: u64, devices: usize, cutoffs: &[f64]) -> Vec<CutoffRow> {
    use sweetspot_timeseries::clean::{clean, CleanConfig};
    let profile = MetricProfile::for_kind(MetricKind::Temperature);
    let mut planner = FftPlanner::new();
    let mut scratch = EstimatorScratch::new();
    let mut rows = Vec::new();
    for &c in cutoffs {
        let mut est = NyquistEstimator::new(NyquistConfig {
            energy_cutoff: c,
            ..NyquistConfig::default()
        });
        let mut rates = Vec::new();
        let mut errors = Vec::new();
        let mut idx = 0usize;
        while rates.len() < devices && idx < devices * 20 {
            let dev = DeviceTrace::synthesize(profile, idx, seed);
            idx += 1;
            if dev.is_undersampled_at_production_rate()
                || dev.model().total_amplitude() < 10.0
            {
                continue;
            }
            let fs = Hertz(dev.true_nyquist_rate().value() * 8.0);
            let duration = Seconds(4096.0 / fs.value());
            let raw = dev.measured(fs, duration, 0xA1);
            let series = match clean(
                &raw,
                CleanConfig {
                    interval: Some(fs.period()),
                    outlier_mads: Some(8.0),
                },
            ) {
                Ok(s) => s,
                Err(_) => continue,
            };
            if let Some(rate) = est
                .estimate_samples(&mut scratch, series.values(), series.sample_rate())
                .rate()
            {
                // Reconstruction error vs the *clean* ground truth: does the
                // extra captured "signal" actually buy fidelity? (Comparing
                // against the measured trace would reward keeping noise.)
                let (recon, _) = roundtrip(
                    &mut planner,
                    &series,
                    Hertz(rate.value() * 1.25),
                    ReconstructionConfig::default(),
                );
                let truth = dev.ground_truth(series.sample_rate(), duration);
                let n = recon.len().min(truth.len());
                let margin = n / 10;
                let err = sweetspot_dsp::stats::nrmse(
                    &truth.values()[margin..n - margin],
                    &recon.values()[margin..n - margin],
                );
                rates.push(rate.value());
                errors.push(err);
            }
        }
        rows.push(CutoffRow {
            cutoff: c,
            mean_rate: rates.iter().sum::<f64>() / rates.len().max(1) as f64,
            mean_nrmse: errors.iter().sum::<f64>() / errors.len().max(1) as f64,
        });
    }
    rows
}

/// A2 result: detector confusion counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct DetectorAccuracy {
    /// Aliased signals correctly flagged.
    pub true_positives: usize,
    /// Aliased signals missed.
    pub false_negatives: usize,
    /// Clean signals correctly passed.
    pub true_negatives: usize,
    /// Clean signals wrongly flagged.
    pub false_positives: usize,
}

impl DetectorAccuracy {
    /// True-positive rate.
    pub fn tpr(&self) -> f64 {
        let p = self.true_positives + self.false_negatives;
        if p == 0 {
            1.0
        } else {
            self.true_positives as f64 / p as f64
        }
    }

    /// False-positive rate.
    pub fn fpr(&self) -> f64 {
        let n = self.true_negatives + self.false_positives;
        if n == 0 {
            0.0
        } else {
            self.false_positives as f64 / n as f64
        }
    }
}

/// A2: detector accuracy over tones straddling the secondary fold, with
/// noise.
pub fn detector_accuracy(cases_per_side: usize) -> DetectorAccuracy {
    let f1 = 1.0;
    let f2 = companion_rate(Hertz(f1)).value();
    let fold = f2 / 2.0; // ≈ 0.309
    let duration = 3000.0;
    let cfg = DualRateConfig::default();
    let mut planner = FftPlanner::new();
    let mut scratch = DetectScratch::new();
    let mut acc = DetectorAccuracy::default();
    let mut lcg = 0x0123_4567_89AB_CDEFu64;
    let mut noise = move || {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (((lcg >> 33) as f64 / (1u64 << 31) as f64) - 1.0) * 0.02
    };
    for i in 0..cases_per_side {
        // Clean: tone safely below the fold. Aliased: tone above it (but
        // below f1/2 so only the slow stream aliases).
        let frac = (i as f64 + 0.5) / cases_per_side as f64;
        let clean_tone = fold * (0.1 + 0.6 * frac);
        let aliased_tone = fold * (1.2 + 0.3 * frac);
        for (tone, is_aliased) in [(clean_tone, false), (aliased_tone, true)] {
            let make = |rate: f64, n_off: &mut dyn FnMut() -> f64| {
                let n = (rate * duration).round() as usize;
                let values: Vec<f64> = (0..n)
                    .map(|k| {
                        let t = k as f64 / rate;
                        (2.0 * std::f64::consts::PI * tone * t).sin() + n_off()
                    })
                    .collect();
                RegularSeries::new(Seconds::ZERO, Seconds(1.0 / rate), values)
            };
            let fast = make(f1, &mut noise);
            let slow = make(f2, &mut noise);
            let verdict = detect_aliasing_scratch(&mut planner, &mut scratch, &fast, &slow, cfg);
            match (is_aliased, verdict.aliased) {
                (true, true) => acc.true_positives += 1,
                (true, false) => acc.false_negatives += 1,
                (false, false) => acc.true_negatives += 1,
                (false, true) => acc.false_positives += 1,
            }
        }
    }
    acc
}

/// A3 result: probe epochs needed to clear aliasing after a recurrence.
#[derive(Debug, Clone, Copy)]
pub struct MemoryAblation {
    /// Aliased (probing) epochs during the second episode, with memory.
    pub with_memory: usize,
    /// Same without memory.
    pub without_memory: usize,
}

/// A3: two identical high-frequency episodes. The first must last long
/// enough for the multiplicative probe to clear aliasing and *record* the
/// required rate; memory then re-ramps to it directly when the episode
/// recurs, while the memory-less controller pays the full probe ladder
/// again.
pub fn adaptive_memory() -> MemoryAblation {
    const FLAP1: (f64, f64) = (50_000.0, 100_000.0);
    const FLAP2: (f64, f64) = (160_000.0, 210_000.0);
    let flappy = |t: f64| {
        let base = (2.0 * std::f64::consts::PI * 0.005 * t).sin();
        let flap = |(t0, t1): (f64, f64)| {
            if t >= t0 && t < t1 {
                0.9 * (2.0 * std::f64::consts::PI * 0.5 * t).sin()
            } else {
                0.0
            }
        };
        base + flap(FLAP1) + flap(FLAP2)
    };
    let run = |memory: bool| {
        let mut source = FunctionSource::new(flappy);
        let mut ctl = AdaptiveSampler::new(AdaptiveConfig {
            initial_rate: Hertz(0.05),
            min_rate: Hertz(1e-4),
            max_rate: Hertz(64.0),
            epoch: Seconds(5000.0),
            memory,
            ..AdaptiveConfig::default()
        });
        let reports = ctl.run(&mut source, Seconds(250_000.0));
        reports
            .iter()
            .filter(|r| r.start.value() >= FLAP2.0 && r.start.value() < FLAP2.1)
            .filter(|r| r.aliased)
            .count()
    };
    MemoryAblation {
        with_memory: run(true),
        without_memory: run(false),
    }
}

/// A4 row: quantization step vs estimate and reconstruction error.
#[derive(Debug, Clone, Copy)]
pub struct QuantizationRow {
    /// Quantization step applied to the readout.
    pub step: f64,
    /// Estimated Nyquist rate from the quantized trace.
    pub estimated_rate: f64,
    /// Interior NRMSE of the reconstruction (with §4.3 re-quantization).
    pub interior_nrmse: f64,
}

/// A4: coarser quanta add broadband noise; the 99% threshold keeps the
/// estimate stable until the quanta rival the signal amplitude.
pub fn quantization(seed: u64, steps: &[f64]) -> Vec<QuantizationRow> {
    let dev = crate::experiments::fig6::pick_device(seed);
    let fs = Hertz(dev.true_nyquist_rate().value() * 8.0);
    let series = dev.ground_truth(fs, Seconds(4096.0 / fs.value()));
    let mut est = NyquistEstimator::new(NyquistConfig::default());
    let mut scratch = EstimatorScratch::new();
    let mut planner = FftPlanner::new();
    steps
        .iter()
        .map(|&step| {
            let q = Quantizer::new(step);
            let quantized = RegularSeries::new(
                series.start(),
                series.interval(),
                q.quantized(series.values()),
            );
            let rate = est
                .estimate_samples(&mut scratch, quantized.values(), quantized.sample_rate())
                .rate()
                .map_or(f64::NAN, |r| r.value());
            let target = if rate.is_nan() {
                dev.true_nyquist_rate()
            } else {
                Hertz(rate * 1.25)
            };
            let (_, report) = roundtrip(
                &mut planner,
                &quantized,
                target,
                ReconstructionConfig { requantize: Some(step) },
            );
            QuantizationRow {
                step,
                estimated_rate: rate,
                interior_nrmse: report.interior_nrmse,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cutoff_rate_grows_but_error_stays_flat() {
        let rows = cutoff(0xAB1, 4, &[0.99, 0.999, 0.9999]);
        assert_eq!(rows.len(), 3);
        // Rates are monotone in the cutoff.
        assert!(rows[0].mean_rate <= rows[1].mean_rate + 1e-12);
        assert!(rows[1].mean_rate <= rows[2].mean_rate + 1e-12);
        // Reconstruction at 99% is already good; tightening the cutoff buys
        // little (paper's argument for 99%).
        assert!(rows[0].mean_nrmse < 0.12, "99% NRMSE {}", rows[0].mean_nrmse);
        assert!(
            rows[2].mean_nrmse > rows[0].mean_nrmse - 0.1,
            "tighter cutoffs cannot be dramatically better"
        );
    }

    #[test]
    fn detector_is_accurate_on_both_sides() {
        let acc = detector_accuracy(8);
        assert!(acc.tpr() >= 0.85, "TPR {}", acc.tpr());
        assert!(acc.fpr() <= 0.15, "FPR {}", acc.fpr());
    }

    #[test]
    fn memory_accelerates_reramp() {
        let m = adaptive_memory();
        assert!(
            m.with_memory < m.without_memory,
            "memory {} vs none {}",
            m.with_memory,
            m.without_memory
        );
    }

    #[test]
    fn quantization_is_tolerated_until_quanta_rival_amplitude() {
        let rows = quantization(0xAB4, &[0.01, 1.0]);
        assert_eq!(rows.len(), 2);
        // Fine quanta: estimator finds a rate, reconstruction is tight.
        assert!(rows[0].estimated_rate.is_finite());
        assert!(rows[0].interior_nrmse < 0.05, "fine {}", rows[0].interior_nrmse);
        // Coarse quanta still produce a usable estimate (the 99% cutoff
        // discards quantization noise) with bounded error.
        assert!(rows[1].interior_nrmse < 0.5, "coarse {}", rows[1].interior_nrmse);
    }
}
