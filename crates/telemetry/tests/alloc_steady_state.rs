//! Allocation accounting for the streaming trace synthesizer.
//!
//! Extends the `crates/dsp/tests/alloc_steady_state.rs` pattern to
//! telemetry: once the `TraceSynth` scratch and the output buffers are warm,
//! synthesizing another day-long trace — oscillator-bank ground truth plus
//! the full impairment chain — must not touch the heap at all.
//!
//! The counter is **per-thread**: libtest's harness threads (timeout
//! watchdog, capture machinery) allocate at unpredictable times, so a
//! process-global counter would flake. Counting only the measuring thread's
//! allocations makes the zero assertion exact.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sweetspot_telemetry::{DeviceTrace, MetricKind, MetricProfile, ToneBank, TraceSynth};
use sweetspot_timeseries::{IrregularSeries, Seconds};

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

#[test]
fn trace_synthesis_steady_state_is_allocation_free() {
    // LinkUtil: 30 s polls (2880 samples/day), measurement noise,
    // quantization, drops and jitter — every impairment stage active.
    let trace = DeviceTrace::synthesize(MetricProfile::for_kind(MetricKind::LinkUtil), 0, 0xA110C);
    let day = Seconds::from_days(1.0);
    let rate = trace.profile().production_rate();

    let mut synth = TraceSynth::new();
    let mut times = Vec::new();
    let mut values = Vec::new();

    // Warm-up: grows the oscillator bank, the ground-truth grid and the
    // measured-trace buffers to day-trace length.
    trace.production_trace_into(&mut synth, day, &mut times, &mut values);

    // Steady state: a second full day-trace must be allocation-free.
    let count = allocations_during(|| {
        trace.production_trace_into(&mut synth, day, &mut times, &mut values);
    });
    assert_eq!(
        count, 0,
        "steady-state measured-trace synthesis must not allocate"
    );

    // Same guarantee for a *different* device of the same metric — the whole
    // point of per-worker scratch is reuse across the fleet, not per device.
    let other = DeviceTrace::synthesize(MetricProfile::for_kind(MetricKind::LinkUtil), 1, 0xA110C);
    let count = allocations_during(|| {
        other.production_trace_into(&mut synth, day, &mut times, &mut values);
    });
    assert_eq!(count, 0, "buffers must be reusable across devices");

    // Pristine ground truth into a reused buffer is allocation-free too.
    let mut bank = ToneBank::new();
    let mut out = Vec::new();
    trace
        .model()
        .sample_into(&mut bank, Seconds::ZERO, rate, day, &mut out);
    let count = allocations_during(|| {
        trace
            .model()
            .sample_into(&mut bank, Seconds::ZERO, rate, day, &mut out);
    });
    assert_eq!(
        count, 0,
        "steady-state ground-truth synthesis must not allocate"
    );

    // Cycling the buffers through an IrregularSeries and back (the study
    // loop's shape) stays allocation-free as well.
    let count = allocations_during(|| {
        let raw = IrregularSeries::new(std::mem::take(&mut times), std::mem::take(&mut values));
        (times, values) = raw.into_parts();
    });
    assert_eq!(
        count, 0,
        "series recycling must move buffers, not copy them"
    );
}
