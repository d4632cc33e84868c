//! Integration tests of the monitoring simulator's policy space.

use sweetspot_core::adaptive::AdaptiveConfig;
use sweetspot_monitor::device::SimDevice;
use sweetspot_monitor::system::{MonitoringSystem, Policy};
use sweetspot_telemetry::events::{Event, EventKind};
use sweetspot_telemetry::{DeviceTrace, MetricKind, MetricProfile};
use sweetspot_timeseries::{Hertz, Seconds};

#[test]
fn all_policies_run_on_a_mixed_fleet() {
    let system = MonitoringSystem::default();
    let duration = Seconds::from_days(2.0);
    let policies = [
        Policy::ProductionDefault,
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
        let outcome = system.run_fleet(&mut devices, policy, duration);
        assert_eq!(outcome.devices.len(), 4);
        assert!(outcome.cost.total() > 0.0, "{policy:?}");
        assert!(
            outcome.devices.iter().filter(|d| d.quality.is_some()).count() >= 3,
            "{policy:?}: most devices must be evaluable"
        );
    }
}

#[test]
fn event_detection_latency_scales_with_polling_interval() {
    // A 1-hour level shift: 5-minute polls catch it within minutes, hourly
    // polls within the hour.
    let mk = |idx: usize| {
        let profile = MetricProfile::for_kind(MetricKind::Temperature);
        let trace = DeviceTrace::synthesize(profile, idx, 0x1A7E)
            .with_events(vec![Event::new(
                EventKind::LevelShift,
                40_000.0,
                3600.0,
                20.0,
            )]);
        SimDevice::new(trace)
    };
    let system = MonitoringSystem::default();
    let duration = Seconds::from_days(1.0);

    let fast = system.run_device(&mut mk(0), &Policy::FixedRate(Hertz(1.0 / 300.0)), duration);
    let slow = system.run_device(&mut mk(0), &Policy::FixedRate(Hertz(1.0 / 3000.0)), duration);
    let qf = fast.quality.unwrap();
    let qs = slow.quality.unwrap();
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
    let system = MonitoringSystem::default();
    let outcome = system.run_device(
        &mut device,
        &Policy::PosterioriNyquist { headroom: 1.25 },
        Seconds::from_days(1.0),
    );
    let kept = outcome.cost.samples_stored as f64 / outcome.cost.samples_collected as f64;
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
    let system = MonitoringSystem::default();
    let profile = MetricProfile::for_kind(MetricKind::Temperature);
    for window in [Seconds(300.0), Seconds(900.0)] {
        let mut device = SimDevice::new(DeviceTrace::synthesize(profile, 0, 42));
        let out = system.run_device(
            &mut device,
            &Policy::PosterioriNyquist { headroom: 1.25 },
            window,
        );
        assert_eq!(
            out.cost.samples_stored, out.cost.samples_collected,
            "{window} window"
        );
    }
}
