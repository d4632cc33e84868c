//! Cross-crate integration tests: the full paper pipeline, end to end.
//!
//! Each test exercises a chain that no single crate covers alone —
//! telemetry → cleaning → estimation → decision → simulation → accounting.

use sweetspot::analysis::experiments::sweetspot::{knee_point, rate_sweep};
use sweetspot::analysis::study::{FleetStudy, StudyConfig};
use sweetspot::monitor::device::{DeviceSource, PollScratch, SimDevice};
use sweetspot::monitor::quality::evaluate;
use sweetspot::prelude::*;

#[test]
fn fleet_study_pipeline_reproduces_paper_shape() {
    let study = FleetStudy::run(StudyConfig {
        fleet: FleetConfig {
            seed: 0xE2E1,
            devices_per_metric: 10,
            trace_duration: Seconds::from_days(1.0),
        },
        ..StudyConfig::default()
    });
    let s = study.summary();
    assert_eq!(s.pairs, 140);
    // The §3.2 headline shape: most pairs over-sampled, a visible minority
    // under-sampled, a heavy tail of large reductions.
    assert!(s.oversampled_fraction > 0.7, "{s:?}");
    assert!(s.undersampled_fraction > 0.03, "{s:?}");
    assert!(s.reducible_100x > 0.2, "{s:?}");
    assert!(s.reducible_1000x > 0.05, "{s:?}");
}

#[test]
fn measured_traces_round_trip_through_cleaning() {
    // telemetry (jitter + drops) → clean → regular grid at nominal interval.
    let profile = MetricProfile::for_kind(MetricKind::LinkUtil);
    let dev = DeviceTrace::synthesize(profile, 1, 0xE2E2);
    let raw = dev.production_trace(Seconds::from_hours(12.0));
    let cleaned = sweetspot::timeseries::clean::clean(
        &raw,
        sweetspot::timeseries::clean::CleanConfig {
            interval: Some(profile.poll_interval),
            outlier_mads: Some(8.0),
        },
    )
    .expect("cleanable");
    assert_eq!(cleaned.interval(), profile.poll_interval);
    // Full half-day at 30s = 1440 + fence-post; drops are re-filled.
    assert!(cleaned.len() >= 1440, "{}", cleaned.len());
}

#[test]
fn adaptive_controller_beats_fixed_polling_on_cost() {
    // A well-sampled temperature device: the controller should settle far
    // below the 5-minute production rate and spend fewer samples.
    let profile = MetricProfile::for_kind(MetricKind::Temperature);
    let dev = (0..50)
        .map(|i| DeviceTrace::synthesize(profile, i, 0xE2E3))
        .find(|d| {
            !d.is_undersampled_at_production_rate()
                && d.true_band_edge().value() < 2e-4
                && d.model().total_amplitude() > 10.0
        })
        .expect("suitable device");
    let mut sim = SimDevice::new(dev);
    let mut ctl = AdaptiveSampler::new(AdaptiveConfig {
        initial_rate: Hertz(1.0 / 300.0),
        min_rate: Hertz(1e-6),
        max_rate: Hertz(1.0 / 30.0),
        epoch: Seconds::from_hours(12.0),
        ..AdaptiveConfig::default()
    });
    let total = Seconds::from_days(7.0);
    let reports = {
        let mut source = DeviceSource {
            device: &mut sim,
            scratch: &mut PollScratch::new(),
        };
        ctl.run(&mut source, total)
    };
    let spent = sweetspot::core::adaptive::total_samples(&reports);
    let fixed = (total.value() / 300.0) as usize;
    assert!(
        spent < fixed,
        "controller spent {spent} samples, fixed polling {fixed}"
    );
    // And it must end in steady state, not stuck probing.
    assert_eq!(reports.last().unwrap().mode, sweetspot::core::adaptive::Mode::Steady);
}

#[test]
fn sweet_spot_sweep_orders_cost_and_quality() {
    let mut devices: Vec<SimDevice> = (0..2)
        .map(|i| {
            SimDevice::new(DeviceTrace::synthesize(
                MetricProfile::for_kind(MetricKind::Temperature),
                i,
                0xE2E4,
            ))
        })
        .collect();
    let points = rate_sweep(&mut devices, &[0.02, 0.2, 1.0], Seconds::from_days(2.0));
    // Cost ordering is strict; quality ordering holds end-to-end.
    assert!(points[0].cost < points[1].cost && points[1].cost < points[2].cost);
    assert!(
        points[2].nrmse <= points[0].nrmse,
        "production should beat 0.02x: {points:?}"
    );
    assert!(knee_point(&points).is_some());
}

#[test]
fn posteriori_policy_preserves_reconstruction_quality() {
    let duration = Seconds::from_days(2.0);
    let mk = |idx| {
        SimDevice::new(DeviceTrace::synthesize(
            MetricProfile::for_kind(MetricKind::Temperature),
            idx,
            0xE2E5,
        ))
    };
    // Same device identity for both policies (fresh noise streams).
    let run = |policy: Policy| {
        let mut device = mk(2);
        let stored = policy.run(&mut device, duration).stored;
        (stored.len(), evaluate(&device, &IrregularSeries::from_pairs(stored), duration))
    };
    let (base_stored, qb) = run(Policy::ProductionScaled(1.0));
    let (post_stored, qp) = run(Policy::PosterioriNyquist { headroom: 1.25 });
    let qb = qb.expect("base evaluable");
    let qp = qp.expect("posteriori evaluable");
    // Storage shrinks…
    assert!(post_stored < base_stored);
    // …while reconstruction quality stays in the same class (the 99% energy
    // cutoff bounds what can be lost).
    assert!(
        qp.nrmse < qb.nrmse * 4.0 + 0.05,
        "posteriori {} vs base {}",
        qp.nrmse,
        qb.nrmse
    );
}

#[test]
fn undersampled_device_is_caught_by_dual_rate_but_not_by_one_trace() {
    // The §4.1 motivation, end to end: find a truly under-sampled device;
    // the single production trace yields a (wrong) plausible rate or an
    // aliased verdict, while dual-rate sampling detects the problem
    // decisively.
    let profile = MetricProfile::for_kind(MetricKind::LinkUtil);
    let dev = (0..100)
        .map(|i| DeviceTrace::synthesize(profile, i, 0xE2E6))
        .find(|d| d.is_undersampled_at_production_rate())
        .expect("undersampled device");

    let duration = Seconds::from_days(2.0);
    let primary = profile.production_rate();
    let fast = dev.ground_truth(primary, duration);
    let slow = dev.ground_truth(
        sweetspot::core::aliasing::companion_rate(primary),
        duration,
    );
    let verdict = detect_aliasing(&fast, &slow, DualRateConfig::default());
    assert!(verdict.aliased, "dual-rate must catch it: {verdict:?}");

    let est = NyquistEstimator::paper_defaults();
    if let NyquistEstimate::Rate(r) = est.estimate_series(&fast) {
        // Whatever the single trace claims, it cannot reach the true rate.
        assert!(r.value() < dev.true_nyquist_rate().value());
    }
}

#[test]
fn figure_drivers_run_at_reduced_scale() {
    use sweetspot::analysis::experiments::{fig2, fig3, headline};
    let f2 = fig2::run(100.0, &[400.0, 150.0], 2.0);
    assert_eq!(f2.cases.len(), 2);
    assert!(!f2.cases[0].aliased && f2.cases[1].aliased);

    let f3 = fig3::run(1.0);
    assert!(f3.variants[0].reconstruction_nrmse < f3.variants[2].reconstruction_nrmse);

    let h = headline::run(StudyConfig {
        fleet: FleetConfig {
            seed: 0xE2E7,
            devices_per_metric: 3,
            trace_duration: Seconds::from_days(1.0),
        },
        ..StudyConfig::default()
    });
    assert_eq!(h.summary.pairs, 42);
    assert!(h.render().contains("paper"));
}
