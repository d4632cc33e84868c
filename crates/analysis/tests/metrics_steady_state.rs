//! Allocation accounting for the metrics/flight-recorder path.
//!
//! Extends `alloc_steady_state.rs` to the observability layer, at the
//! 10³-device scale the recorder is built for. Two claims, separated because
//! they fail for different reasons:
//!
//! 1. **The metrics slice of a warm epoch allocates zero bytes** — counter
//!    tallies, the grant histogram, flight-recorder pushes (including ring
//!    overflow), and a full JSONL epoch emission. Everything the recorder
//!    owns (ring, buckets, line scratch, output buffer) is preallocated or
//!    pre-grown; steady-state recording reuses it. Measured by wrapping
//!    *only* the metrics calls of each epoch of a hand-written serial loop,
//!    so controller dynamics (a probing device legitimately allocates a new
//!    FFT plan) can't mask a regression in the metrics layer — at 10³
//!    devices some controller is probing in almost every epoch, so a
//!    whole-epoch count would be workload noise.
//! 2. **Recording adds zero allocations to the epoch loop.** Twin runs of
//!    the real engine ([`FleetRun`]), one with a [`MetricsRecorder`]
//!    attached and one without, are stepped in lockstep and must allocate
//!    identically in every epoch — warm-up included. This is the
//!    allocation-side face of the non-perturbation contract (the output-side
//!    face lives in `metrics_determinism.rs`).
//!
//! The counter is per-thread (see the telemetry alloc test), so both claims
//! are measured at one worker, whose shard steps inline on the calling
//! thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sweetspot_analysis::fleetsim::{
    member_config,
    metrics::{action_kind, EpochSnapshot, MetricsRecorder, MetricsSummary},
    scenario::ScenarioSpec,
    scheduler::SchedulerPolicy,
    FleetRun, FleetSimConfig,
};
use sweetspot_core::adaptive::Delivery;
use sweetspot_dsp::fft::FftHandleStats;
use sweetspot_monitor::poller::{EpochScratch, FleetMember};
use sweetspot_monitor::{CostModel, EpochAccount};
use sweetspot_telemetry::{scaled_work, DeviceTrace};
use sweetspot_timeseries::{Hertz, Seconds};

std::thread_local! {
    // const-init + no Drop ⇒ accessing this inside the allocator hooks
    // never itself allocates or registers a TLS destructor.
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

/// One serial worker's fleet plus its epoch-loop state, mirroring the
/// engine's per-shard view.
struct Fleet {
    members: Vec<FleetMember>,
    sched: sweetspot_analysis::fleetsim::scheduler::Scheduler,
    capacity: f64,
    requests: Vec<f64>,
    grants: Vec<f64>,
    actions: Vec<Option<sweetspot_core::adaptive::EpochAction>>,
    scratch: EpochScratch,
    window: Seconds,
}

impl Fleet {
    fn build(devices: usize, seed: u64, window: Seconds) -> Fleet {
        let work = scaled_work(devices);
        let n = work.len();
        let members: Vec<FleetMember> = work
            .iter()
            .enumerate()
            .map(|(i, &(profile, device))| {
                FleetMember::new(
                    i,
                    DeviceTrace::synthesize(profile, device, seed),
                    member_config(&profile, window),
                )
            })
            .collect();
        let production: Vec<f64> = work
            .iter()
            .map(|(p, _)| p.production_rate().value())
            .collect();
        // Half the fleet's production rate: binding, so scheduling,
        // throttling, and deferred probes all stay active.
        let capacity: f64 = production.iter().sum::<f64>() * 0.5;
        Fleet {
            members,
            sched: SchedulerPolicy::WaterFill.scheduler(&production),
            capacity,
            requests: vec![0.0; n],
            grants: Vec::with_capacity(n),
            actions: vec![None; n],
            scratch: EpochScratch::new(),
            window,
        }
    }

    /// One lockstep epoch. With a recorder, runs the engine's full metrics
    /// path (grant feed, per-member tallies, serial journal walk, JSONL
    /// emission) and returns the number of heap allocations *the metrics
    /// calls alone* performed.
    fn epoch(
        &mut self,
        epoch: usize,
        epochs: usize,
        mut rec: Option<&mut MetricsRecorder>,
    ) -> usize {
        let start = Seconds(epoch as f64 * self.window.value());
        for (r, m) in self.requests.iter_mut().zip(self.members.iter()) {
            *r = m.requested_rate().value();
        }
        self.sched
            .allocate(&self.requests, self.capacity, &mut self.grants);
        let mut metrics_allocs = 0;
        if let Some(rec) = rec.as_deref_mut() {
            metrics_allocs += allocations_during(|| {
                for &g in &self.grants {
                    rec.record_grant(g);
                }
            });
        }
        let mut summary = MetricsSummary::default();
        for (i, (m, &g)) in self.members.iter_mut().zip(self.grants.iter()).enumerate() {
            let report = m.step_epoch(
                &mut self.scratch,
                start,
                Hertz(g),
                self.window,
                Delivery::OnTime,
            );
            if rec.is_some() {
                metrics_allocs += allocations_during(|| {
                    summary.controller.record(report.action, report.verified);
                });
            }
            self.actions[i] = Some(report.action);
        }
        if let Some(rec) = rec {
            // The engine's serial journal walk: device order, action kinds
            // only — plus the epoch snapshot emission.
            metrics_allocs += allocations_during(|| {
                for (i, (m, action)) in self.members.iter().zip(self.actions.iter()).enumerate() {
                    if let Some(kind) = action.and_then(action_kind) {
                        rec.journal(epoch as u32, i as u32, kind, m.requested_rate().value());
                    }
                }
                summary.fft = FftHandleStats::default();
                for m in self.members.iter() {
                    summary.fft.merge(&m.fft_handle_stats());
                }
                let account = EpochAccount {
                    epoch,
                    budget: self.capacity,
                    demanded: self.requests.iter().sum(),
                    granted: self.grants.iter().sum(),
                    samples: 0,
                    spent: 0.0,
                    throttled_devices: 0,
                };
                let snap = EpochSnapshot {
                    devices: self.members.len(),
                    account: &account,
                    metrics: &summary,
                    dealt: None,
                };
                assert!(rec.should_emit(epoch, epochs));
                rec.emit_epoch(&snap);
            });
        }
        metrics_allocs
    }
}

const DEVICES: usize = 1_000;
const EPOCHS: usize = 10;
const WARMUP: usize = 4;

/// 10³ pairs on `EPOCHS` one-hour windows at one worker.
fn config(scenario: ScenarioSpec) -> FleetSimConfig {
    let window = Seconds(3600.0);
    let mut cfg = FleetSimConfig {
        devices: Some(DEVICES),
        days: EPOCHS as f64 * window.value() / 86_400.0,
        window,
        threads: 1,
        scenario,
        ..FleetSimConfig::default()
    };
    cfg.fleet.seed = 2;
    cfg
}

/// Half the fleet's production rate, in cost units per epoch: binding, so
/// scheduling, throttling and deferred probes all stay active.
fn half_production_budget(window: Seconds) -> f64 {
    let verify_overhead = 1.0 + 1.0 / sweetspot_core::aliasing::COMPANION_RATIO;
    let epoch_unit = CostModel::default().cost_per_sample() * window.value() * verify_overhead;
    let production: f64 = scaled_work(DEVICES)
        .iter()
        .map(|(p, _)| p.production_rate().value())
        .sum();
    0.5 * production * epoch_unit
}

#[test]
fn metrics_path_of_a_warm_epoch_is_allocation_free() {
    // 10³ pairs on 1 h windows under a binding water-fill budget: deferred
    // probes keep the flight recorder carrying real traffic (well past the
    // ring's 512-slot capacity, so overflow accounting runs too).
    let window = Seconds(3600.0);
    let mut fleet = Fleet::build(DEVICES, 2, window);
    let mut recorder = MetricsRecorder::in_memory();
    recorder.begin_run("waterfill", fleet.capacity);
    recorder.reserve(4 << 20);

    // Warm-up: the recorder's first emissions size its line scratch; the
    // fleet's scratch and plan caches grow.
    for epoch in 0..WARMUP {
        fleet.epoch(epoch, EPOCHS, Some(&mut recorder));
    }

    for epoch in WARMUP..EPOCHS {
        let metrics_allocs = fleet.epoch(epoch, EPOCHS, Some(&mut recorder));
        assert_eq!(
            metrics_allocs, 0,
            "metrics path of warm epoch {epoch} must not allocate"
        );
    }

    // The run wasn't vacuous: snapshots flowed, and the journal saw enough
    // traffic to wrap its preallocated ring.
    assert_eq!(
        recorder
            .buffer()
            .lines()
            .filter(|l| l.starts_with("{\"type\":\"epoch\""))
            .count(),
        EPOCHS
    );
    assert!(
        recorder.journal_events() > 512,
        "expected the ring to overflow, saw {} events",
        recorder.journal_events()
    );
}

#[test]
fn recording_adds_zero_allocations_to_the_epoch_loop() {
    let lossy = ScenarioSpec::parse("churn+lossy-reports").expect("preset mix");
    for scenario in [ScenarioSpec::none(), lossy] {
        let cfg = config(scenario);
        let budget = half_production_budget(cfg.window);
        let mut recorder = MetricsRecorder::in_memory();
        recorder.reserve(4 << 20);
        let mut plain = FleetRun::new(&cfg, SchedulerPolicy::WaterFill, budget, None);
        let mut recorded = FleetRun::new(
            &cfg,
            SchedulerPolicy::WaterFill,
            budget,
            Some(&mut recorder),
        );
        for epoch in 0..EPOCHS {
            let without = allocations_during(|| assert!(plain.next_epoch()));
            let with = allocations_during(|| assert!(recorded.next_epoch()));
            assert_eq!(
                with,
                without,
                "{}: epoch {epoch} allocated differently with metrics attached",
                scenario.label()
            );
        }
        assert!(!recorded.next_epoch(), "the horizon is {EPOCHS} epochs");
        let (plain, recorded) = (plain.finish(), recorded.finish());
        assert_eq!(plain.ledger.accounts(), recorded.ledger.accounts());

        // The run wasn't vacuous: snapshots flowed, and the journal saw
        // enough traffic to wrap its preallocated 512-slot ring.
        let epoch_lines = recorder
            .buffer()
            .lines()
            .filter(|l| l.starts_with("{\"type\":\"epoch\""))
            .count();
        assert_eq!(epoch_lines, EPOCHS, "{}", scenario.label());
        assert!(
            recorder.journal_events() > 512,
            "{}: expected the ring to overflow, saw {} events",
            scenario.label(),
            recorder.journal_events()
        );
    }
}
