//! Allocation accounting for the fleet-simulation epoch loop.
//!
//! Extends the `crates/telemetry/tests/alloc_steady_state.rs` pattern to the
//! whole lockstep epoch of the real engine, stepped one epoch at a time
//! through [`FleetRun`]: dealing, request gathering, scheduling (water-fill,
//! re-sorting its reused order buffer), the watchdog, every member's
//! controller epoch — polling through the oscillator bank and impairment
//! chain, pre-cleaning, §4.1 dual-rate verification and §3.2 estimation —
//! the fold and the ledger. Once the worker's [`EpochScratch`] buffers, the
//! scheduler's order and the planner's cached tables are warm, a
//! steady-state epoch must not touch the heap at all.
//!
//! Also pins the memory-wall invariants themselves: durable per-member
//! bytes stay flat as the fleet scales (the working set lives in the
//! worker scratch, not the members), a member's reported bytes are the net
//! heap its construction and its epochs leave, and the scratch-sharing
//! engine is bit-identical to members each stepping through a private
//! scratch.
//!
//! The counter is **per-thread** (see the telemetry test for why), so the
//! engine runs at `threads: 1`: its one shard steps inline on the calling
//! thread. That is the contract's scope — with several workers, the scoped
//! spawns allocate every epoch.
//!
//! [`EpochScratch`]: sweetspot_monitor::poller::EpochScratch

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;
use sweetspot_analysis::fleetsim::{
    member_config, quality, run_policy, scenario::ScenarioSpec, scheduler,
    scheduler::SchedulerPolicy, FleetRun, FleetSimConfig,
};
use sweetspot_core::adaptive::Delivery;
use sweetspot_monitor::poller::{EpochScratch, FleetMember};
use sweetspot_monitor::CostModel;
use sweetspot_telemetry::{scaled_work, DeviceTrace};
use sweetspot_timeseries::{Hertz, Seconds};

std::thread_local! {
    // const-init + no Drop ⇒ accessing this inside the allocator hooks
    // never itself allocates or registers a TLS destructor.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    // Bytes allocated minus bytes freed.
    static NET_BYTES: Cell<isize> = const { Cell::new(0) };
}

fn add_net_bytes(delta: isize) {
    let _ = NET_BYTES.try_with(|c| c.set(c.get() + delta));
}

struct CountingAllocator;

// SAFETY: delegates every operation to `System`; the counter is a plain
// thread-local side effect (`try_with` so teardown-time allocations on
// foreign threads are simply not counted rather than panicking).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        add_net_bytes(layout.size() as isize);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add_net_bytes(-(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        add_net_bytes(new_size as isize - layout.size() as isize);
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

/// Net heap bytes *this thread* still holds from what `f` allocated.
fn net_bytes_during(f: impl FnOnce()) -> isize {
    let before = NET_BYTES.with(Cell::get);
    f();
    NET_BYTES.with(Cell::get) - before
}

/// Cost units per epoch that buy `frac` of the fleet's summed production
/// rate, continuous verification included.
fn production_budget(devices: usize, window: Seconds, frac: f64) -> f64 {
    let verify_overhead = 1.0 + 1.0 / sweetspot_core::aliasing::COMPANION_RATIO;
    let epoch_unit = CostModel::default().cost_per_sample() * window.value() * verify_overhead;
    let production: f64 = scaled_work(devices)
        .iter()
        .map(|(p, _)| p.production_rate().value())
        .sum();
    frac * production * epoch_unit
}

#[test]
fn fleetsim_steady_state_epoch_is_allocation_free() {
    // A 28-pair round-robin fleet (two devices of every metric) under a
    // binding water-fill budget of half its production rate: scheduling and
    // throttling both active. Seed chosen so the fleet settles early: by
    // epoch 10 every controller holds its rate (steady, evidence-free or at
    // a clamp) and every realized trace length has passed through the
    // planner once. Devices still *probing* legitimately allocate (new rate
    // ⇒ new FFT plan), so a fleet that never settles would never go quiet —
    // that is a property of the workload, not the engine. The second case
    // runs the chaos mix (churn, a staggered regime incident, duty-cycled
    // sleep) with the watchdog armed; its incident keeps controllers moving
    // longer, so it settles later. The third arms the watchdog on the
    // healthy fleet, where it finds nothing to do: its recovery slice and
    // health census must cost the settled epochs no allocation either.
    let window = Seconds::from_days(1.0);
    let budget = production_budget(28, window, 0.5);
    let chaos = ScenarioSpec::parse("churn+incident+duty").expect("preset mix");
    for (scenario, recovery_budget_frac, settled) in [
        (ScenarioSpec::none(), 0.0, 10),
        (chaos, 0.25, 13),
        (ScenarioSpec::none(), 0.1, 10),
    ] {
        let mut cfg = FleetSimConfig {
            devices: Some(28),
            days: 16.0,
            threads: 1,
            scenario,
            recovery_budget_frac,
            ..FleetSimConfig::default()
        };
        cfg.fleet.seed = 2;
        let mut run = FleetRun::new(&cfg, SchedulerPolicy::WaterFill, budget, None);
        // Warm-up epochs grow the shard's scratch buffers and the planner's
        // per-length FFT/window tables; after them, entire epochs — dealing,
        // requests, water-fill scheduling, the watchdog, every member's
        // controller epoch, the fold and the ledger — must not allocate.
        for epoch in 0..16 {
            let count = allocations_during(|| assert!(run.next_epoch()));
            if epoch >= settled {
                assert_eq!(
                    count,
                    0,
                    "{} (recovery slice {recovery_budget_frac}): steady-state \
                     fleet epoch {epoch} must not allocate",
                    scenario.label()
                );
            }
        }
        assert!(!run.next_epoch(), "the horizon is 16 epochs");
        let out = run.finish();
        assert!(
            out.ledger.throttled_fraction(out.devices) > 0.0,
            "the budget must bind"
        );
    }
}

#[test]
fn per_member_resident_bytes_flat_under_scale() {
    // The memory-wall invariant: durable bytes per member must not grow as
    // the fleet scales 10³ → 10⁴ (the working set lives in the per-worker
    // scratch, whose size tracks workers, not devices). Short evidence-free
    // epochs keep this cheap: a 1 h window at production rates holds far
    // fewer than the estimator's 64-sample minimum, so controllers hold
    // their rate and the run is pure accounting.
    let run = |devices: usize| {
        let cfg = FleetSimConfig {
            devices: Some(devices),
            days: 2.0 / 24.0, // two one-hour epochs
            window: Seconds(3600.0),
            threads: 1,
            ..FleetSimConfig::default()
        };
        run_policy(&cfg, SchedulerPolicy::Uncapped, f64::INFINITY)
    };
    let small = run(1_000);
    let large = run(10_000);
    let per_small = small.memory.bytes_per_member(small.devices);
    let per_large = large.memory.bytes_per_member(large.devices);
    assert!(per_small > 0.0 && per_large > 0.0);
    // Flat within round-off: slab growth is exactly linear, so the only
    // slack needed is for per-device string/model length variation across
    // the round-robin population.
    assert!(
        per_large <= per_small * 1.10,
        "per-member durable bytes grew with fleet size: {per_small:.1} B @1k vs {per_large:.1} B @10k"
    );
    // The working set is per worker: one shard here, same buffers either way.
    assert_eq!(small.memory.workers, 1);
    assert_eq!(large.memory.workers, 1);
    assert!(
        large.memory.scratch_bytes <= small.memory.scratch_bytes.max(1) * 2,
        "worker scratch must not scale with devices: {} B @1k vs {} B @10k",
        small.memory.scratch_bytes,
        large.memory.scratch_bytes
    );
}

#[test]
fn member_heap_bytes_match_the_allocator() {
    // `FleetMember::heap_bytes` — the device's trace identity and signal
    // model (`SimDevice`, `DeviceTrace` and `SignalModel::heap_bytes`) plus
    // the controller's list of transformed lengths — is everything a
    // member's construction leaves on the heap: one member of every metric.
    let (window, seed) = (Seconds::from_days(1.0), 7);
    let work = scaled_work(14);
    let build = |i: usize| {
        let (profile, device) = work[i];
        let trace = DeviceTrace::synthesize(profile, device, seed);
        FleetMember::new(i, trace, member_config(&profile, window))
    };
    for i in 0..work.len() {
        let mut member = None;
        let net = net_bytes_during(|| member = Some(build(i)));
        let member = member.unwrap();
        assert_eq!(net, member.heap_bytes() as isize, "{:?}", member.kind());
    }

    // Epochs through a scratch whose buffers and plan tables a twin has
    // already warmed leave exactly the controller's new transformed
    // lengths behind: `AdaptiveSampler::fft_handle_bytes`.
    let step = |member: &mut FleetMember, scratch: &mut EpochScratch, epochs: usize| {
        for epoch in 0..epochs {
            let start = Seconds(epoch as f64 * window.value());
            let rate = member.requested_rate();
            member.step_epoch(scratch, start, rate, window, Delivery::OnTime);
        }
    };
    let (mut twin, mut member, mut scratch) = (build(0), build(0), EpochScratch::new());
    step(&mut twin, &mut scratch, 4);
    let before = (member.heap_bytes(), member.sampler().fft_handle_bytes());
    let net = net_bytes_during(|| step(&mut member, &mut scratch, 4));
    let handle_bytes = member.sampler().fft_handle_bytes();
    assert!(handle_bytes > before.1, "the epochs transformed nothing");
    assert_eq!(net, (handle_bytes - before.1) as isize);
    assert_eq!(member.heap_bytes() - before.0, handle_bytes - before.1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The arena-backed, scratch-sharing engine must be **bit-identical**
    /// to the boxed layout it replaced: every member owning a private
    /// working set, grants computed by the stateless scheduler reference.
    #[test]
    fn arena_engine_matches_boxed_members(
        devices in 4usize..24,
        seed in 0u64..1_000,
        budget_frac in 0.2f64..1.5,
        verify_every in 1usize..4,
        policy_pick in 0usize..3,
    ) {
        let policy = [
            SchedulerPolicy::Uniform,
            SchedulerPolicy::Fair,
            SchedulerPolicy::WaterFill,
        ][policy_pick];
        let mut cfg = FleetSimConfig {
            devices: Some(devices),
            days: 3.0,
            threads: 1,
            verify_every,
            ..FleetSimConfig::default()
        };
        cfg.fleet.seed = seed;
        let window = cfg.window;
        let work = scaled_work(devices);
        let production: Vec<f64> =
            work.iter().map(|(p, _)| p.production_rate().value()).collect();

        // Budget in cost units, scaled off the fleet's production demand so
        // the ladder spans slack through starvation.
        let verify_overhead = 1.0 + 1.0 / sweetspot_core::aliasing::COMPANION_RATIO;
        let epoch_unit = CostModel::default().cost_per_sample() * window.value() * verify_overhead;
        let budget = budget_frac * production.iter().sum::<f64>() * epoch_unit;
        let capacity_rate = budget / epoch_unit;

        let engine = run_policy(&cfg, policy, budget);

        // Boxed reference: standalone members, each with a private scratch.
        let mut members: Vec<FleetMember> = work
            .iter()
            .enumerate()
            .map(|(i, &(p, d))| {
                let mut config = member_config(&p, window);
                config.verify_every = verify_every;
                FleetMember::new(i, DeviceTrace::synthesize(p, d, seed), config)
            })
            .collect();
        let mut scratches: Vec<EpochScratch> =
            members.iter().map(|_| EpochScratch::new()).collect();
        let requirement: Vec<Hertz> = members
            .iter()
            .map(|m| {
                if m.device().trace().is_quiet() {
                    Hertz(0.0)
                } else {
                    m.true_nyquist_rate()
                }
            })
            .collect();
        let epochs = engine.epochs;
        let mut requests = vec![0.0f64; devices];
        let mut grants: Vec<f64> = Vec::new();
        let mut coverage_sum = vec![0.0f64; devices];
        let mut deferred = vec![0usize; devices];
        let mut epoch_sample_sums = Vec::with_capacity(epochs);
        for epoch in 0..epochs {
            for (r, m) in requests.iter_mut().zip(members.iter()) {
                *r = m.requested_rate().value();
            }
            scheduler::allocate(policy, &requests, &production, capacity_rate, &mut grants);
            let start = Seconds(epoch as f64 * window.value());
            let mut samples = 0usize;
            for (i, (m, scratch)) in members.iter_mut().zip(scratches.iter_mut()).enumerate() {
                let report =
                    m.step_epoch(scratch, start, Hertz(grants[i]), window, Delivery::OnTime);
                coverage_sum[i] += quality::coverage(report.primary_rate, requirement[i]);
                deferred[i] += report.deferred() as usize;
                samples += report.samples_taken;
            }
            epoch_sample_sums.push(samples);
        }
        for (i, dq) in engine.device_quality.iter().enumerate() {
            prop_assert_eq!(
                dq.mean_coverage,
                coverage_sum[i] / epochs as f64,
                "device {} coverage diverged from the boxed reference",
                i
            );
            prop_assert_eq!(dq.deferred_epochs, deferred[i]);
        }
        let engine_samples: Vec<usize> =
            engine.ledger.accounts().iter().map(|a| a.samples).collect();
        prop_assert_eq!(engine_samples, epoch_sample_sums);
    }
}
