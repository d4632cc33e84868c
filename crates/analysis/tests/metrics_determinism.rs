//! Determinism of the metrics/flight-recorder subsystem.
//!
//! The engine's contract (see `fleetsim::metrics`) has two halves:
//!
//! 1. **Thread invariance** — everything a [`MetricsRecorder`] emits is
//!    fleet-scope: one serial fold tallies every member's report, the
//!    journal and grant histogram are fed serially in device order, and
//!    FFT counters are kept per member controller and summed in device
//!    order. The JSONL stream must therefore be *byte-identical* for any
//!    `--threads N`.
//! 2. **Non-perturbation** — attaching a recorder must not change the
//!    simulation: ledger, per-device quality, and the always-on counter
//!    summary are identical with and without one.
//!
//! Both halves are checked under an active churn+lossy scenario and a
//! binding water-fill budget, where the journal, the scenario counters,
//! and the scheduler all carry real traffic.

use proptest::prelude::*;
use sweetspot_analysis::fleetsim::{
    member_config, metrics::MetricsRecorder, run_policy, run_policy_recorded,
    scenario::ScenarioSpec, scheduler::SchedulerPolicy, FleetSimConfig, PolicyOutcome,
};
use sweetspot_telemetry::{FleetConfig, MetricProfile};
use sweetspot_timeseries::Seconds;

fn churn_config(devices: usize, seed: u64, threads: usize) -> FleetSimConfig {
    let mut cfg = FleetSimConfig {
        fleet: FleetConfig {
            seed,
            devices_per_metric: 2,
            trace_duration: Seconds::from_days(1.0),
        },
        paper_scale: false,
        devices: Some(devices),
        days: 4.0,
        threads,
        ..FleetSimConfig::default()
    };
    cfg.scenario = ScenarioSpec::parse("churn+lossy-reports").expect("preset parses");
    cfg.scenario.seed = seed ^ 0xC0FFEE;
    cfg
}

fn recorded(
    cfg: &FleetSimConfig,
    policy: SchedulerPolicy,
    budget: f64,
) -> (PolicyOutcome, String) {
    let mut rec = MetricsRecorder::in_memory();
    let out = run_policy_recorded(cfg, policy, budget, Some(&mut rec));
    rec.finish().expect("in-memory recorder cannot fail");
    (out, rec.buffer().to_owned())
}

#[test]
fn metrics_stream_is_byte_identical_across_thread_counts() {
    let waterfill = SchedulerPolicy::WaterFill;
    let (serial, serial_jsonl) = recorded(&churn_config(40, 7, 1), waterfill, 30.0);
    for threads in [2, 4] {
        let (parallel, parallel_jsonl) = recorded(&churn_config(40, 7, threads), waterfill, 30.0);
        assert_eq!(
            serial_jsonl, parallel_jsonl,
            "JSONL diverged at {threads} threads"
        );
        assert_eq!(serial.metrics, parallel.metrics);
        assert_eq!(serial.ledger.accounts(), parallel.ledger.accounts());
        assert_eq!(serial.device_quality, parallel.device_quality);
    }
    // The stream actually carried traffic: epoch snapshots for every epoch
    // plus at least one flight-recorder event from the churn schedule.
    let epoch_lines = serial_jsonl
        .lines()
        .filter(|l| l.starts_with("{\"type\":\"epoch\""))
        .count();
    assert_eq!(epoch_lines, serial.epochs);
    assert!(
        serial_jsonl.contains("{\"type\":\"event\""),
        "churn scenario produced no journal events"
    );
}

#[test]
fn recording_does_not_perturb_the_simulation() {
    let cfg = churn_config(40, 7, 4);
    let (with_rec, _) = recorded(&cfg, SchedulerPolicy::WaterFill, 30.0);
    let without = run_policy(&cfg, SchedulerPolicy::WaterFill, 30.0);
    assert_eq!(with_rec.ledger.accounts(), without.ledger.accounts());
    assert_eq!(with_rec.device_quality, without.device_quality);
    assert_eq!(with_rec.quality, without.quality);
    // The counter summary is always on, recorder or not.
    assert_eq!(with_rec.metrics, without.metrics);
}

#[test]
fn summary_invariants_hold_under_churn() {
    let (out, jsonl) = recorded(&churn_config(60, 3, 2), SchedulerPolicy::WaterFill, 25.0);
    let m = &out.metrics;
    // Every stepped device epoch got exactly one controller action.
    assert!(m.controller.stepped() > 0);
    // Spot-check the stream against the summary: the last epoch snapshot
    // carries the same cumulative totals, derived counts included.
    let last_epoch = jsonl
        .lines()
        .rev()
        .find(|l| l.starts_with("{\"type\":\"epoch\""))
        .expect("at least one snapshot");
    assert!(last_epoch.contains(&format!("\"lookups\":{}", m.fft.lookups())));
    assert!(last_epoch.contains(&format!("\"unverified\":{}", m.controller.unverified())));
}

/// The unsigned integer after `"key":` in one JSON line, if the key is there.
fn key(line: &str, key: &str) -> Option<u64> {
    let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits = line[at..].bytes().take_while(u8::is_ascii_digit).count();
    line[at..at + digits].parse().ok()
}

/// Scenario presets the invariant sweep draws from: healthy, lifecycle
/// churn, lost and late reports, scheduled sleep (plain and battery), a
/// staggered and a recurring regime switch, skewed polling costs, and
/// churn, an incident and lossy reports at once.
const SWEEP_SCENARIOS: [&str; 9] = [
    "none",
    "churn",
    "lossy-reports",
    "duty",
    "incident+staggered",
    "battery",
    "diurnal",
    "cost-skew",
    "churn+incident+lossy-reports",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Thread invariance at 2, 3 and 4 workers, the ledger and quality
    /// bounds, the rate bounds and the watchdog's health census over random
    /// fleets: the policy (capped policies at budget 0 or a drawn finite
    /// budget, `uncapped` only at ∞, the way `run_point` pairs them), the
    /// scenario preset, the verification cadence and the watchdog's
    /// recovery slice.
    #[test]
    fn metrics_thread_invariance_holds_for_arbitrary_fleets(
        (devices, seed) in (8usize..48, 0u64..1_000),
        (policy, zero_budget, budget_frac) in (0usize..4, 0usize..4, 0.3f64..1.2),
        (scenario, recovery, verify_every) in (0usize..SWEEP_SCENARIOS.len(), 0usize..2, 1usize..4),
    ) {
        let policy = SchedulerPolicy::ALL[policy];
        let budget = if policy == SchedulerPolicy::Uncapped {
            f64::INFINITY
        } else if zero_budget == 0 {
            0.0
        } else {
            budget_frac * 40.0
        };
        let mut cfg = churn_config(devices, seed, 1);
        cfg.scenario = ScenarioSpec::parse(SWEEP_SCENARIOS[scenario]).expect("preset parses");
        cfg.scenario.seed = seed ^ 0xC0FFEE;
        cfg.recovery_budget_frac = [0.0, 0.25][recovery];
        cfg.verify_every = verify_every;
        let window = cfg.window;
        let (serial, serial_jsonl) = recorded(&cfg, policy, budget);
        for threads in [2, 3, 4] {
            let (parallel, parallel_jsonl) =
                recorded(&FleetSimConfig { threads, ..cfg }, policy, budget);
            prop_assert_eq!(&serial_jsonl, &parallel_jsonl, "{} threads", threads);
            prop_assert_eq!(serial.metrics, parallel.metrics);
            prop_assert_eq!(serial.ledger.accounts(), parallel.ledger.accounts());
        }
        for a in serial.ledger.accounts() {
            prop_assert!(
                a.granted <= budget * (1.0 + 1e-9),
                "epoch {} granted {} over budget {budget} ({policy}, {})",
                a.epoch,
                a.granted,
                SWEEP_SCENARIOS[scenario]
            );
        }
        for d in &serial.device_quality {
            prop_assert!(
                d.mean_coverage.is_finite() && (0.0..=1.0).contains(&d.mean_coverage),
                "device {} mean coverage {}",
                d.index,
                d.mean_coverage
            );
            let c = member_config(&MetricProfile::for_kind(d.kind), window);
            prop_assert!(
                (c.min_rate.value()..=c.max_rate.value()).contains(&d.final_rate),
                "device {} final rate {} outside [{}, {}]",
                d.index,
                d.final_rate,
                c.min_rate,
                c.max_rate
            );
        }
        // With the watchdog armed every epoch's census counts each device
        // present that epoch once: the fleet minus the epoch's absences (the
        // increase of the cumulative `absent_epochs`; none without a
        // scenario object).
        if recovery == 1 {
            let mut absent_before = 0;
            let epochs = serial_jsonl.lines().filter(|l| l.starts_with("{\"type\":\"epoch\""));
            for line in epochs {
                let census: u64 = ["healthy", "recovering", "suspect", "dormant"]
                    .iter()
                    .map(|k| key(line, k).expect("an armed watchdog reports its census"))
                    .sum();
                let absent = key(line, "absent_epochs").unwrap_or(absent_before);
                let present = key(line, "devices").expect("epoch lines count devices")
                    - (absent - absent_before);
                prop_assert_eq!(census, present, "{}", line);
                absent_before = absent;
            }
        }
    }
}
