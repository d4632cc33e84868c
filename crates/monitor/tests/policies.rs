//! Integration tests of the monitoring simulator's policy space.

use sweetspot_core::adaptive::AdaptiveConfig;
use sweetspot_monitor::device::SimDevice;
use sweetspot_monitor::quality::{evaluate, QualityReport};
use sweetspot_monitor::Policy;
use sweetspot_telemetry::events::{Event, EventKind};
use sweetspot_telemetry::{DeviceTrace, MetricKind, MetricProfile};
use sweetspot_timeseries::{Hertz, IrregularSeries, Seconds};

/// Runs `policy` on `device` and evaluates what it stored.
fn run_and_evaluate(
    policy: Policy,
    device: &mut SimDevice,
    duration: Seconds,
) -> Option<QualityReport> {
    let run = policy.run(device, duration);
    evaluate(device, &IrregularSeries::from_pairs(run.stored), duration)
}

#[test]
fn all_policies_run_on_a_mixed_fleet() {
    let duration = Seconds::from_days(2.0);
    let policies = [
        Policy::ProductionScaled(1.0),
        Policy::ProductionScaled(0.5),
        Policy::PosterioriNyquist { headroom: 1.25 },
        Policy::Adaptive(AdaptiveConfig {
            initial_rate: Hertz(1.0 / 300.0),
            min_rate: Hertz(1e-6),
            max_rate: Hertz(1.0 / 30.0),
            epoch: Seconds::from_hours(12.0),
            ..AdaptiveConfig::default()
        }),
    ];
    for policy in &policies {
        let mut devices: Vec<SimDevice> = [MetricKind::Temperature, MetricKind::LinkUtil]
            .iter()
            .flat_map(|&kind| {
                (0..2).map(move |i| {
                    SimDevice::new(DeviceTrace::synthesize(
                        MetricProfile::for_kind(kind),
                        i,
                        0x90D5,
                    ))
                })
            })
            .collect();
        let evaluable = devices
            .iter_mut()
            .filter_map(|d| run_and_evaluate(*policy, d, duration))
            .count();
        assert!(evaluable >= 3, "{policy:?}: most devices must be evaluable");
        let (cost, nrmse, recall) = policy.run_fleet(&mut devices, duration);
        assert!(cost.total() > 0.0, "{policy:?}");
        assert!(
            nrmse.is_finite() && (0.0..=1.0).contains(&recall),
            "{policy:?}"
        );
    }
}

#[test]
fn event_detection_latency_scales_with_polling_interval() {
    // A 1-hour level shift: 5-minute polls catch it within minutes, hourly
    // polls within the hour.
    let mk = |idx: usize| {
        let profile = MetricProfile::for_kind(MetricKind::Temperature);
        let trace = DeviceTrace::synthesize(profile, idx, 0x1A7E).with_events(vec![Event::new(
            EventKind::LevelShift,
            40_000.0,
            3600.0,
            20.0,
        )]);
        SimDevice::new(trace)
    };
    let duration = Seconds::from_days(1.0);

    // Temperature polls every 300 s in production.
    let qf = run_and_evaluate(Policy::ProductionScaled(1.0), &mut mk(0), duration).unwrap();
    let qs = run_and_evaluate(Policy::ProductionScaled(0.1), &mut mk(0), duration).unwrap();
    assert_eq!(qf.events_covered, 1);
    assert_eq!(qs.events_covered, 1, "an hour-long event is still visible");
    let lf = qf.mean_detection_latency.unwrap();
    let ls = qs.mean_detection_latency.unwrap();
    assert!(
        lf.value() <= ls.value() + 1e-9,
        "fast polling must not detect later: {lf} vs {ls}"
    );
    assert!(lf.value() <= 300.0);
}

#[test]
fn adaptive_policy_raises_rate_for_undersampled_devices() {
    // Find an undersampled link-util device: production polling misses its
    // band. The adaptive controller must end up sampling FASTER than
    // production (quality first), not slower.
    let profile = MetricProfile::for_kind(MetricKind::LinkUtil);
    let trace = (0..100)
        .map(|i| DeviceTrace::synthesize(profile, i, 0xFA57))
        .find(|d| d.is_undersampled_at_production_rate())
        .expect("undersampled device");
    let production = profile.production_rate();
    let mut device = SimDevice::new(trace);
    let mut controller = sweetspot_core::adaptive::AdaptiveSampler::new(AdaptiveConfig {
        initial_rate: production,
        min_rate: Hertz(1e-6),
        max_rate: Hertz(10.0),
        epoch: Seconds::from_hours(2.0),
        ..AdaptiveConfig::default()
    });
    let reports = {
        let mut source = sweetspot_monitor::device::DeviceSource {
            device: &mut device,
            scratch: &mut sweetspot_monitor::device::PollScratch::new(),
        };
        controller.run(&mut source, Seconds::from_days(1.0))
    };
    let last = reports.last().unwrap();
    assert!(
        last.primary_rate.value() > production.value(),
        "controller must escalate above production for an aliased device: {} vs {}",
        last.primary_rate,
        production
    );
}

#[test]
fn quiet_devices_cost_almost_nothing_under_posteriori() {
    // A quiescent FCS counter: the posteriori policy should store a tiny
    // fraction of what it collects.
    let profile = MetricProfile::for_kind(MetricKind::FcsErrors);
    let trace = (0..50)
        .map(|i| DeviceTrace::synthesize(profile, i, 0x9135))
        .find(|d| d.is_quiet())
        .expect("quiet device");
    let mut device = SimDevice::new(trace);
    let run =
        Policy::PosterioriNyquist { headroom: 1.25 }.run(&mut device, Seconds::from_days(1.0));
    let kept = run.stored.len() as f64 / run.collected as f64;
    assert!(
        kept < 0.01,
        "a flat counter should keep <1% of samples, kept {:.3}",
        kept
    );
}

#[test]
fn posteriori_short_windows_store_everything_collected() {
    // A 300 s window holds one production-rate poll (too few to re-grid);
    // a 900 s window re-grids to fewer than the estimator's 4 samples.
    // Neither can be assessed, so the policy must keep what it collected.
    let profile = MetricProfile::for_kind(MetricKind::Temperature);
    for window in [Seconds(300.0), Seconds(900.0)] {
        let mut device = SimDevice::new(DeviceTrace::synthesize(profile, 0, 42));
        let run = Policy::PosterioriNyquist { headroom: 1.25 }.run(&mut device, window);
        assert_eq!(run.stored.len(), run.collected, "{window} window");
    }
}
