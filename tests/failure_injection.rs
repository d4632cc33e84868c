//! Failure-injection integration tests: the pipeline under hostile inputs.
//!
//! Monitoring data is messy — lost samples, jittered timestamps, corrupt
//! readings, NaNs. These tests verify that the cleaning layer plus the
//! estimator stay correct (or fail loudly, never silently) under each fault.
//!
//! The second half moves up a level: whole-fleet lifecycle failures through
//! the `fleetsim` scenario axis — churn determinism across thread counts,
//! bounded post-reboot re-ramps, incident recovery, and the zero-allocation
//! steady state surviving 1% churn.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sweetspot::analysis::fleetsim::{
    self, member_config, scenario::ScenarioSpec, scheduler::SchedulerPolicy, FleetRun,
    FleetSimConfig,
};
use sweetspot::monitor::poller::{EpochScratch, FleetMember};
use sweetspot::prelude::*;
use sweetspot::telemetry::noise::Impairments;
use sweetspot::telemetry::scaled_work;
use sweetspot::timeseries::clean::{clean, CleanConfig};

std::thread_local! {
    // const-init + no Drop ⇒ the allocator hooks never themselves allocate
    // (see crates/analysis/tests/alloc_steady_state.rs for the pattern).
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: delegates every operation to `System`; the counter is a plain
// thread-local side effect (`try_with` so teardown-time allocations on
// foreign threads are simply not counted rather than panicking).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Number of allocations *this thread* performed while running `f`.
fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Ground-truth band-limited series for fault injection.
fn truth(n: usize) -> RegularSeries {
    RegularSeries::new(
        Seconds::ZERO,
        Seconds(30.0),
        (0..n)
            .map(|i| {
                let t = i as f64 * 30.0;
                50.0 + 5.0 * (2.0 * std::f64::consts::PI * 1e-4 * t).sin()
                    + 2.0 * (2.0 * std::f64::consts::PI * 8e-4 * t).sin()
            })
            .collect(),
    )
}

fn estimate_after(impairments: Impairments, seed: u64) -> NyquistEstimate {
    let t = truth(2880);
    let mut rng = StdRng::seed_from_u64(seed);
    let raw = impairments.apply(&mut rng, &t);
    let cleaned = clean(
        &raw,
        CleanConfig {
            interval: Some(Seconds(30.0)),
            outlier_mads: Some(8.0),
        },
    )
    .expect("cleanable");
    let est = NyquistEstimator::paper_defaults();
    est.estimate_series(&cleaned)
}

fn reference_rate() -> f64 {
    // The clean-path estimate: true edge 8e-4 ⇒ rate ≈ 1.6e-3.
    let est = NyquistEstimator::paper_defaults();
    est.estimate_series(&truth(2880))
        .rate()
        .expect("clean signal is not aliased")
        .value()
}

#[test]
fn clean_path_estimate_is_tight() {
    let r = reference_rate();
    assert!((1.5e-3..2.0e-3).contains(&r), "reference {r}");
}

#[test]
fn survives_five_percent_sample_loss() {
    let est = estimate_after(
        Impairments {
            drop_prob: 0.05,
            ..Impairments::none()
        },
        1,
    );
    let r = est
        .rate()
        .expect("loss must not alias the estimate")
        .value();
    assert!(
        (r - reference_rate()).abs() < reference_rate() * 0.5,
        "estimate {r} drifted"
    );
}

#[test]
fn survives_timestamp_jitter() {
    let est = estimate_after(
        Impairments {
            jitter_frac: 0.3,
            ..Impairments::none()
        },
        2,
    );
    let r = est
        .rate()
        .expect("jitter must not alias the estimate")
        .value();
    assert!(
        (r - reference_rate()).abs() < reference_rate() * 0.5,
        "estimate {r} drifted"
    );
}

#[test]
fn survives_corrupt_outliers_with_clipping() {
    let est = estimate_after(
        Impairments {
            corrupt_prob: 0.01,
            corrupt_magnitude: 1e6,
            ..Impairments::none()
        },
        3,
    );
    // MAD clipping (outlier_mads = 8) absorbs the corruption; the estimate
    // may widen but must stay below 4× the reference (corruption leaves
    // residual broadband energy at the clip level).
    let r = est
        .rate()
        .expect("clipped corruption must not alias")
        .value();
    assert!(r < reference_rate() * 4.0, "estimate {r} blew up");
}

#[test]
fn heavy_white_noise_degrades_to_aliased_not_nonsense() {
    // Noise at 50% of the signal amplitude: the spectrum floor swamps the
    // 1% budget. Acceptable outcomes: an "aliased" verdict (inspect this
    // trace) or a pessimistically high rate — never a rate *below* the
    // reference (which would cause silent information loss downstream).
    let est = estimate_after(
        Impairments {
            noise_std: 2.5,
            ..Impairments::none()
        },
        4,
    );
    match est {
        NyquistEstimate::Aliased => {}
        NyquistEstimate::Rate(r) => {
            assert!(
                r.value() >= reference_rate() * 0.9,
                "noise must not shrink the estimate: {r}"
            );
        }
    }
}

#[test]
fn all_nan_trace_is_rejected_by_cleaning() {
    let raw = IrregularSeries::new(
        (0..10).map(|i| Seconds(i as f64)).collect(),
        vec![f64::NAN; 10],
    );
    assert!(clean(&raw, CleanConfig::default()).is_err());
}

#[test]
fn combined_fault_storm() {
    // Everything at once, at realistic rates.
    let est = estimate_after(
        Impairments {
            noise_std: 0.05,
            quant_step: Some(0.5),
            drop_prob: 0.02,
            jitter_frac: 0.1,
            corrupt_prob: 0.002,
            corrupt_magnitude: 1e4,
            dup_prob: 0.01,
            delay_prob: 0.01,
        },
        5,
    );
    let r = est
        .rate()
        .expect("realistic faults must be survivable")
        .value();
    assert!(
        (r - reference_rate()).abs() < reference_rate(),
        "estimate {r} vs reference {}",
        reference_rate()
    );
}

// ---------------------------------------------------------------------------
// Fleet-level lifecycle failures (the `--scenario` axis).
// ---------------------------------------------------------------------------

#[test]
fn churned_fleet_is_byte_identical_across_thread_counts() {
    // Churn plus lossy reports under a binding water-fill budget: the fault
    // schedule is a pure function of the scenario seed, so worker count
    // must not move a single bit of any observable output.
    let spec = ScenarioSpec {
        seed: 0xC0FFEE,
        ..ScenarioSpec::parse("churn+lossy-reports").expect("preset parses")
    };
    let cfg = |threads| FleetSimConfig {
        devices: Some(60),
        days: 6.0,
        threads,
        scenario: spec,
        ..FleetSimConfig::default()
    };
    let serial = fleetsim::run_policy(&cfg(1), SchedulerPolicy::WaterFill, 80.0);
    let stats = serial.scenario.as_ref().expect("scenario stats");
    assert!(
        stats.counters.leaves > 0 && stats.counters.dropped_reports > 0,
        "scenario was dealt no events: {:?}",
        stats.counters
    );
    let parallel = fleetsim::run_policy(&cfg(4), SchedulerPolicy::WaterFill, 80.0);
    assert_eq!(serial.ledger.accounts(), parallel.ledger.accounts());
    assert_eq!(serial.device_quality, parallel.device_quality);
    assert_eq!(serial.quality, parallel.quality);
    assert_eq!(serial.scenario, parallel.scenario);
}

#[test]
fn reboot_reramp_is_bounded_by_the_remembered_max() {
    // A rebooted device restarts from the production default and re-ramps
    // using the controller's remembered max — never probing past the
    // headroom over what it ever needed, and re-settling within a few
    // epochs instead of re-walking the whole discovery ladder.
    let window = Seconds::from_days(1.0);
    let work = scaled_work(28);
    let (profile, device) = work[5];
    let mut member = FleetMember::new(
        5,
        DeviceTrace::synthesize(profile, device, 2),
        member_config(&profile, window),
    );
    let mut scratch = EpochScratch::new();
    let step = |member: &mut FleetMember, scratch: &mut EpochScratch, epoch: usize| {
        let start = Seconds(epoch as f64 * window.value());
        let granted = member.requested_rate();
        member.step_epoch(scratch, start, granted, window, Delivery::OnTime);
    };
    for epoch in 0..6 {
        step(&mut member, &mut scratch, epoch);
    }
    let settled = member.requested_rate().value();
    let remembered = member
        .sampler()
        .remembered_max()
        .expect("a settled controller remembers its max")
        .value();
    // For an oversampled device the remembered max sits far below the
    // production default, and a reboot restarts *at* that default — so the
    // bound is "never above max(production default, remembered + headroom)".
    let config = member_config(&profile, window);
    let ceiling = (remembered * config.headroom)
        .max(config.initial_rate.value())
        .min(config.max_rate.value());

    member.reboot();
    assert_eq!(
        member.requested_rate(),
        config.initial_rate,
        "a reboot restarts from the production default"
    );
    for epoch in 6..12 {
        assert!(
            member.requested_rate().value() <= ceiling * (1.0 + 1e-9),
            "epoch {epoch}: re-ramp {} exceeded remembered ceiling {ceiling}",
            member.requested_rate().value()
        );
        step(&mut member, &mut scratch, epoch);
    }
    let resettled = member.requested_rate().value();
    assert!(
        resettled >= settled * 0.5 && resettled <= settled * 2.0,
        "re-ramp did not converge near the pre-reboot rate: {resettled} vs {settled}"
    );
}

#[test]
fn incident_recovery_fits_a_fixed_epoch_budget() {
    // A 3× regime incident mid-study: the uncapped fleet must re-discover
    // the widened band on its own and regain 95% of its pre-incident
    // coverage within a handful of epochs of the regime reverting. (A
    // small fraction of controllers can stay aliasing-deadlocked after the
    // revert, so the 95% threshold — not 100% — is the recovery bar.)
    let cfg = FleetSimConfig {
        devices: Some(64),
        days: 16.0,
        threads: 0,
        scenario: ScenarioSpec {
            seed: 7,
            ..ScenarioSpec::parse("incident").unwrap()
        },
        ..FleetSimConfig::default()
    };
    let out = fleetsim::run_policy(&cfg, SchedulerPolicy::Uncapped, f64::INFINITY);
    let stats = out.scenario.expect("scenario stats");
    assert_eq!(stats.incident, Some(4..10));
    let baseline = stats.baseline_coverage.expect("pre-incident baseline");
    assert!(baseline > 0.9, "implausible baseline {baseline}");
    let worst_during = stats.epoch_mean_coverage[4..10]
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    assert!(
        worst_during < baseline - 0.05,
        "the incident must actually dent coverage: {worst_during} vs baseline {baseline}"
    );
    let ttr = stats
        .time_to_recover
        .expect("an uncapped fleet must recover from the incident");
    assert!(ttr <= 4, "recovery took {ttr} epochs (budget: 4)");
}

#[test]
fn settled_fleet_under_one_percent_churn_stays_allocation_free() {
    // The zero-allocation steady state must survive lifecycle churn:
    // devices leaving (slots held, request 0), rejoining (reboot + re-ramp
    // through already-planned rates), and reports dropping or arriving
    // late. The engine runs at one worker, because the counter is
    // per-thread — its one shard steps inline on this thread. Grants are
    // uncapped: under a *binding* water-fill budget every churn event moves
    // the water level and hands bystander devices never-before-granted
    // rates, whose first FFT plan legitimately allocates once — that is
    // plan-cache warming, not a churn leak, and it would mask the
    // regression this test guards against.
    let mut cfg = FleetSimConfig {
        devices: Some(28),
        days: 40.0,
        threads: 1,
        scenario: ScenarioSpec {
            leave_prob: 0.01,
            join_prob: 0.25,
            reboot_prob: 0.005,
            drop_prob: 0.01,
            delay_prob: 0.01,
            seed: 0xFA11,
            ..ScenarioSpec::none()
        },
        ..FleetSimConfig::default()
    };
    cfg.fleet.seed = 2;
    let mut run = FleetRun::new(&cfg, SchedulerPolicy::Uncapped, f64::INFINITY, None);

    // Warm-up: controllers settle (delayed-report epochs push the slowest
    // descent past epoch 14), every realized trace length passes the
    // planner once, and the churn schedule exercises reboots and faults.
    for _ in 0..20 {
        assert!(run.next_epoch());
    }
    // Steady state under churn: whole epochs — event dealing, request
    // gathering, scheduling, every member's (possibly faulted) epoch, the
    // fold and the ledger — must not touch the heap.
    for epoch in 20..40 {
        let count = allocations_during(|| assert!(run.next_epoch()));
        assert_eq!(
            count, 0,
            "churned steady-state epoch {epoch} must not allocate"
        );
    }
}
