//! Property-based tests for the core algorithms.

use proptest::prelude::*;
use std::f64::consts::PI;
use sweetspot_core::aliasing::{
    companion_rate, detect_aliasing, ratio_is_valid, AliasingVerdict, DualRateConfig,
};
use sweetspot_core::estimator::{NyquistConfig, NyquistEstimator};
use sweetspot_core::reconstruct::{decimation_factor, roundtrip, ReconstructionConfig};
use sweetspot_core::reduction::{reduction_outcome, PairClass};
use sweetspot_core::{NyquistEstimate, SpectrumScratch};
use sweetspot_dsp::fft::FftPlanner;
use sweetspot_timeseries::{Hertz, RegularSeries, Seconds};

/// Strategy: a small set of tones with frequencies within (0, 0.4) cycles
/// per sample and positive amplitudes.
fn tones_strategy() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((0.002f64..0.4, 0.1f64..2.0), 1..5)
}

fn series_of(tones: &[(f64, f64)], n: usize) -> RegularSeries {
    sampled_at(tones, 1.0, n)
}

/// `n` samples of the tone sum at `rate` Hz, starting at `t = 0`.
fn sampled_at(tones: &[(f64, f64)], rate: f64, n: usize) -> RegularSeries {
    let values: Vec<f64> = (0..n)
        .map(|i| {
            let t = i as f64 / rate;
            tones
                .iter()
                .map(|&(f, a)| a * (2.0 * PI * f * t).sin())
                .sum()
        })
        .collect();
    RegularSeries::new(Seconds::ZERO, Seconds(1.0 / rate), values)
}

/// Trace lengths that cover every FFT path: odd (one-sided Bluestein, as
/// each has a prime factor above 5), even non-power-of-two (packed real
/// over a Bluestein half, or at 288 a mixed-radix one) and power of two
/// (packed real over a mixed-radix half).
fn trace_len(kind: usize, k: usize) -> usize {
    match kind {
        0 => 65 + 74 * k,
        1 => 66 + 74 * k,
        _ => 64 << k,
    }
}

/// Verdicts compared bit for bit (`f64 ==` would also accept `0.0 == -0.0`).
fn verdict_bits(v: &AliasingVerdict) -> (bool, u64, Option<u64>, usize) {
    (
        v.aliased,
        v.max_discrepancy.to_bits(),
        v.worst_frequency.map(f64::to_bits),
        v.compared,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn estimate_never_exceeds_sampling_rate(tones in tones_strategy()) {
        let est = NyquistEstimator::new(NyquistConfig::default());
        let s = series_of(&tones, 1024);
        if let NyquistEstimate::Rate(r) = est.estimate_series(&s) {
            prop_assert!(r.value() <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn estimate_monotone_in_cutoff(tones in tones_strategy()) {
        // Restricted to the realistic cutoff range (the paper uses 0.99 and
        // 0.9999): below ~0.9 the aliased-guard threshold scales down with
        // the cutoff and the verdicts are not comparable across cutoffs.
        let s = series_of(&tones, 1024);
        let mut prev = 0.0;
        let mut prev_aliased = false;
        for cutoff in [0.9, 0.99, 0.999, 0.9999] {
            let est = NyquistEstimator::new(NyquistConfig {
                energy_cutoff: cutoff,
                ..NyquistConfig::default()
            });
            match est.estimate_series(&s) {
                NyquistEstimate::Rate(r) => {
                    prop_assert!(!prev_aliased, "aliased at lower cutoff, rate at higher");
                    prop_assert!(r.value() >= prev - 1e-9);
                    prev = r.value();
                }
                NyquistEstimate::Aliased => {
                    prev_aliased = true;
                }
            }
        }
    }

    #[test]
    fn estimate_invariant_to_amplitude_scaling(
        tones in tones_strategy(),
        scale in 0.1f64..100.0,
    ) {
        let est = NyquistEstimator::new(NyquistConfig::default());
        let s = series_of(&tones, 1024);
        let scaled = RegularSeries::new(
            Seconds::ZERO,
            Seconds(1.0),
            s.values().iter().map(|v| v * scale).collect(),
        );
        let a = est.estimate_series(&s);
        let b = est.estimate_series(&scaled);
        match (a, b) {
            (NyquistEstimate::Rate(x), NyquistEstimate::Rate(y)) => {
                prop_assert!((x.value() - y.value()).abs() < 1e-9);
            }
            (NyquistEstimate::Aliased, NyquistEstimate::Aliased) => {}
            other => prop_assert!(false, "scaling changed the verdict: {other:?}"),
        }
    }

    #[test]
    fn estimate_invariant_to_dc_offset(
        tones in tones_strategy(),
        offset in -1e4f64..1e4,
    ) {
        let est = NyquistEstimator::new(NyquistConfig::default());
        let s = series_of(&tones, 1024);
        let shifted = RegularSeries::new(
            Seconds::ZERO,
            Seconds(1.0),
            s.values().iter().map(|v| v + offset).collect(),
        );
        let a = est.estimate_series(&s);
        let b = est.estimate_series(&shifted);
        match (a, b) {
            (NyquistEstimate::Rate(x), NyquistEstimate::Rate(y)) => {
                prop_assert!((x.value() - y.value()).abs() < 1e-9);
            }
            (NyquistEstimate::Aliased, NyquistEstimate::Aliased) => {}
            other => prop_assert!(false, "offset changed the verdict: {other:?}"),
        }
    }

    #[test]
    fn roundtrip_above_true_nyquist_is_faithful(
        edge_idx in 1usize..6,
        n_pow in 9u32..12,
    ) {
        let n = 1usize << n_pow;
        // Bin-aligned band edge so the trace is periodic: no edge caveats.
        let edge = edge_idx as f64 * 8.0 / n as f64;
        let tones = [(edge * 0.3, 1.0), (edge, 0.5)];
        let s = series_of(&tones, n);
        let mut planner = FftPlanner::new();
        let (_, report) = roundtrip(
            &mut planner,
            &s,
            Hertz(edge * 2.0 * 1.3),
            ReconstructionConfig::default(),
        );
        prop_assert!(
            report.interior_nrmse < 0.02,
            "interior NRMSE {} factor {}",
            report.interior_nrmse,
            report.factor
        );
    }

    #[test]
    fn reused_scratch_matches_fresh_scratch(
        tones in tones_strategy(),
        lens in prop::collection::vec((0usize..3, 0usize..6), 2..8),
    ) {
        // One scratch, lent to the estimator and the detector in turn across
        // a random sequence of trace lengths — as `track`, the study workers
        // and the fleet workers hold theirs — must give bit for bit what a
        // fresh scratch gives every call.
        let est = NyquistEstimator::new(NyquistConfig::default());
        let mut scratch = SpectrumScratch::new();
        let slow_rate = companion_rate(Hertz(1.0)).value();
        for (kind, k) in lens {
            let n = trace_len(kind, k);
            let fast = series_of(&tones, n);
            let reused = est.estimate_samples(&mut scratch, fast.values(), fast.sample_rate());
            let fresh = NyquistEstimator::new(NyquistConfig::default()).estimate_series(&fast);
            prop_assert_eq!(
                reused.rate().map(|r| r.value().to_bits()),
                fresh.rate().map(|r| r.value().to_bits()),
                "estimate diverged at n={}", n
            );

            let slow = sampled_at(&tones, slow_rate, (n as f64 * slow_rate) as usize);
            let cfg = DualRateConfig::default();
            let reused = detect_aliasing(&mut scratch, &fast, &slow, cfg);
            let fresh = detect_aliasing(&mut SpectrumScratch::new(), &fast, &slow, cfg);
            prop_assert_eq!(
                verdict_bits(&reused),
                verdict_bits(&fresh),
                "verdict diverged at n={}", n
            );
        }
    }

    #[test]
    fn decimation_factor_is_safe(orig in 0.001f64..100.0, target in 0.001f64..100.0) {
        let f = decimation_factor(Hertz(orig), Hertz(target));
        prop_assert!(f >= 1);
        // The decimated rate never drops below the requested target.
        let decimated = orig / f as f64;
        prop_assert!(decimated >= target.min(orig) - 1e-12);
    }

    #[test]
    fn companion_rate_always_valid(rate in 1e-6f64..1e3) {
        let primary = Hertz(rate);
        let secondary = companion_rate(primary);
        prop_assert!(ratio_is_valid(primary, secondary));
        prop_assert!(secondary.value() < primary.value());
    }

    #[test]
    fn reduction_outcome_classification(actual in 1e-4f64..10.0, nyq in 1e-4f64..10.0) {
        let o = reduction_outcome(Hertz(actual), NyquistEstimate::Rate(Hertz(nyq)));
        let ratio = o.ratio.unwrap();
        prop_assert!((ratio - actual / nyq).abs() < 1e-9 * ratio.abs().max(1.0));
        if ratio >= 1.0 {
            prop_assert_eq!(o.class, PairClass::Oversampled);
        } else {
            prop_assert_eq!(o.class, PairClass::Undersampled);
        }
    }
}
