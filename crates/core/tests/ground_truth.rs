//! Validation of the paper's algorithms against *known* ground truth.
//!
//! The synthetic telemetry generator constructs signals whose band edge is
//! known exactly (see the `sweetspot_telemetry` crate docs), which turns
//! the paper's informal claims into checkable statements: the §3.2
//! estimator must land near (and never meaningfully above) the true Nyquist
//! rate, reconstruction at the estimated rate must be faithful, and the
//! §4.1 detector must separate well-sampled from under-sampled devices.

use sweetspot_core::aliasing::{companion_rate, detect_aliasing, DualRateConfig};
use sweetspot_core::estimator::{NyquistConfig, NyquistEstimator};
use sweetspot_core::reconstruct::{roundtrip, ReconstructionConfig};
use sweetspot_dsp::fft::FftPlanner;
use sweetspot_telemetry::{DeviceTrace, MetricKind, MetricProfile};
use sweetspot_timeseries::{Hertz, Seconds};

fn temperature_device(idx: usize) -> DeviceTrace {
    DeviceTrace::synthesize(MetricProfile::for_kind(MetricKind::Temperature), idx, 0xBEEF)
}

#[test]
fn estimator_bounded_by_true_nyquist_on_ground_truth() {
    let est = NyquistEstimator::new(NyquistConfig::default());
    let mut checked = 0;
    for idx in 0..20 {
        let dev = temperature_device(idx);
        if dev.is_undersampled_at_production_rate() {
            continue;
        }
        // Sample ground truth comfortably above the true Nyquist rate over a
        // window long enough to resolve the lowest tones.
        let true_nyq = dev.true_nyquist_rate();
        let fs = Hertz(true_nyq.value() * 8.0);
        let duration = Seconds(4096.0 / fs.value());
        let series = dev.ground_truth(fs, duration);
        let got = est
            .estimate_series(&series)
            .rate()
            .expect("ground truth is band-limited, not aliased");
        // The 99% cutoff may discard weak near-edge tones (that is its job),
        // so the estimate is below the true rate — but never meaningfully
        // above it (above = hallucinating content).
        assert!(
            got.value() <= true_nyq.value() * 1.1,
            "device {idx}: estimate {got} far above true {true_nyq}"
        );
        assert!(
            got.value() >= true_nyq.value() * 0.01,
            "device {idx}: estimate {got} absurdly low vs true {true_nyq}"
        );
        checked += 1;
    }
    assert!(checked >= 10, "only {checked} well-sampled devices checked");
}

#[test]
fn reconstruction_at_estimated_rate_is_faithful() {
    let est = NyquistEstimator::new(NyquistConfig::default());
    let mut planner = FftPlanner::new();
    for idx in 0..6 {
        let dev = temperature_device(idx);
        if dev.is_undersampled_at_production_rate() {
            continue;
        }
        let true_nyq = dev.true_nyquist_rate();
        let fs = Hertz(true_nyq.value() * 16.0);
        let duration = Seconds(4096.0 / fs.value());
        let series = dev.ground_truth(fs, duration);
        let est_rate = est.estimate_series(&series).rate().expect("band-limited");
        // Downsample to the *estimated* Nyquist rate (with the paper's
        // margin built into the 99% threshold) and reconstruct.
        let (_, report) = roundtrip(
            &mut planner,
            &series,
            Hertz(est_rate.value() * 1.25),
            ReconstructionConfig::default(),
        );
        // ≤1% of energy was discarded by the cutoff, so interior NRMSE must
        // be small.
        assert!(
            report.interior_nrmse < 0.12,
            "device {idx}: interior NRMSE {} at factor {}",
            report.interior_nrmse,
            report.factor
        );
        assert!(report.factor >= 2, "device {idx}: no reduction achieved");
    }
}

#[test]
fn detector_separates_well_sampled_from_undersampled() {
    let profile = MetricProfile::for_kind(MetricKind::FcsErrors);
    let cfg = DualRateConfig::default();
    let duration = Seconds::from_days(2.0);
    let mut well_checked = 0;
    let mut under_checked = 0;
    let mut well_correct = 0;
    let mut under_correct = 0;
    for idx in 0..40 {
        let dev = DeviceTrace::synthesize(profile, idx, 0xFACE);
        let primary = profile.production_rate();
        let secondary = companion_rate(primary);
        // Ground-truth sampling (no measurement noise) isolates the
        // detector's behaviour from impairment effects.
        let fast = dev.ground_truth(primary, duration);
        let slow = dev.ground_truth(secondary, duration);
        let verdict = detect_aliasing(&fast, &slow, cfg);
        // The secondary stream covers band edges up to primary/(2φ).
        let detectable_edge = secondary.value() / 2.0;
        let edge = dev.true_band_edge().value();
        if edge < detectable_edge * 0.8 {
            well_checked += 1;
            if !verdict.aliased {
                well_correct += 1;
            }
        } else if edge > detectable_edge * 1.5 {
            under_checked += 1;
            if verdict.aliased {
                under_correct += 1;
            }
        }
    }
    assert!(well_checked >= 5 && under_checked >= 2,
        "population too small: {well_checked}/{under_checked}");
    // Detection quality: allow a small error rate on each side.
    assert!(
        well_correct as f64 / well_checked as f64 >= 0.8,
        "false positive rate too high: {well_correct}/{well_checked}"
    );
    assert!(
        under_correct as f64 / under_checked as f64 >= 0.8,
        "false negative rate too high: {under_correct}/{under_checked}"
    );
}

#[test]
fn production_traces_of_undersampled_devices_alias() {
    // The §3.2 estimator applied to the *measured production trace* of a
    // device whose band edge exceeds the folding frequency must either flag
    // aliasing or report a (folded) rate at/near the sampling rate — it can
    // never report the true rate, which is what motivates §4.1.
    let profile = MetricProfile::for_kind(MetricKind::LinkUtil);
    let est = NyquistEstimator::new(NyquistConfig::default());
    for idx in 0..60 {
        let dev = DeviceTrace::synthesize(profile, idx, 0xA11A5);
        if !dev.is_undersampled_at_production_rate() {
            continue;
        }
        let series = dev.ground_truth(profile.production_rate(), Seconds::from_days(1.0));
        let est_result = est.estimate_series(&series);
        if let Some(r) = est_result.rate() {
            assert!(
                r.value() < dev.true_nyquist_rate().value(),
                "device {idx}: folded estimate {r} cannot reach true rate {}",
                dev.true_nyquist_rate()
            );
        }
        // (Aliased verdicts are also acceptable — and better.)
    }
}
