//! Determinism of the metrics/flight-recorder subsystem.
//!
//! The engine's contract (see `fleetsim::metrics`) has two halves:
//!
//! 1. **Thread invariance** — everything a [`MetricsRecorder`] emits is
//!    fleet-scope: one serial fold tallies every member's report, the
//!    journal and grant histogram are fed serially in device order, and
//!    FFT counters are summed per member handle. The JSONL stream must
//!    therefore be *byte-identical* for any `--threads N`.
//! 2. **Non-perturbation** — attaching a recorder must not change the
//!    simulation: ledger, per-device quality, and the always-on counter
//!    summary are identical with and without one.
//!
//! Both halves are checked under an active churn+lossy scenario and a
//! binding water-fill budget, where the journal, the scenario counters,
//! and the scheduler all carry real traffic.

use proptest::prelude::*;
use sweetspot_analysis::fleetsim::{
    metrics::MetricsRecorder, run_policy, run_policy_recorded, scenario::ScenarioSpec,
    scheduler::SchedulerPolicy, FleetSimConfig, PolicyOutcome,
};
use sweetspot_telemetry::FleetConfig;
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

fn recorded(cfg: &FleetSimConfig, budget: f64) -> (PolicyOutcome, String) {
    let mut rec = MetricsRecorder::in_memory();
    let out = run_policy_recorded(cfg, SchedulerPolicy::WaterFill, budget, Some(&mut rec));
    rec.finish().expect("in-memory recorder cannot fail");
    (out, rec.buffer().to_owned())
}

#[test]
fn metrics_stream_is_byte_identical_across_thread_counts() {
    let (serial, serial_jsonl) = recorded(&churn_config(40, 7, 1), 30.0);
    for threads in [2, 4] {
        let (parallel, parallel_jsonl) =
            recorded(&churn_config(40, 7, threads), 30.0);
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
    let (with_rec, _) = recorded(&cfg, 30.0);
    let without = run_policy(&cfg, SchedulerPolicy::WaterFill, 30.0);
    assert_eq!(with_rec.ledger.accounts(), without.ledger.accounts());
    assert_eq!(with_rec.device_quality, without.device_quality);
    assert_eq!(with_rec.quality, without.quality);
    // The counter summary is always on, recorder or not.
    assert_eq!(with_rec.metrics, without.metrics);
}

#[test]
fn summary_invariants_hold_under_churn() {
    let (out, jsonl) = recorded(&churn_config(60, 3, 2), 25.0);
    let m = &out.metrics;
    // Every FFT lookup either hit or missed.
    assert_eq!(m.fft.lookups.get(), m.fft.hits.get() + m.fft.misses.get());
    // Every stepped device epoch got exactly one controller action.
    assert!(m.controller.stepped() > 0);
    assert_eq!(
        m.controller.verified.get() + m.controller.unverified.get(),
        m.controller.stepped()
    );
    // The scenario summary counts what the dealer scheduled; the applied
    // counters re-count the same event vector in the fold, so this equality
    // holds by construction and only pins the `applied` block's wiring.
    let dealt = out.scenario.as_ref().expect("scenario ran").counters;
    assert_eq!(m.applied.absent_epochs.get(), dealt.absent_epochs as u64);
    assert_eq!(m.applied.reboot_steps.get(), dealt.reboots as u64);
    assert_eq!(m.applied.dropped_reports.get(), dealt.dropped_reports as u64);
    assert_eq!(m.applied.delayed_reports.get(), dealt.delayed_reports as u64);
    assert_eq!(
        m.applied.duplicated_reports.get(),
        dealt.duplicated_reports as u64
    );
    // Spot-check the stream against the summary: the last epoch snapshot
    // carries the same cumulative controller totals.
    let last_epoch = jsonl
        .lines()
        .rev()
        .find(|l| l.starts_with("{\"type\":\"epoch\""))
        .expect("at least one snapshot");
    assert!(last_epoch.contains(&format!("\"lookups\":{}", m.fft.lookups.get())));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Thread invariance over the whole (seed, fleet size, budget) space,
    /// not just the hand-picked cases above.
    #[test]
    fn metrics_thread_invariance_holds_for_arbitrary_fleets(
        devices in 8usize..48,
        seed in 0u64..1_000,
        budget_frac in 0.3f64..1.2,
    ) {
        let budget = budget_frac * 40.0;
        let (serial, serial_jsonl) = recorded(&churn_config(devices, seed, 1), budget);
        let (parallel, parallel_jsonl) = recorded(&churn_config(devices, seed, 4), budget);
        prop_assert_eq!(serial_jsonl, parallel_jsonl);
        prop_assert_eq!(serial.metrics, parallel.metrics);
        prop_assert_eq!(serial.ledger.accounts(), parallel.ledger.accounts());
    }
}
