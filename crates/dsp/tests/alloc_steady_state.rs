//! Allocation accounting for the spectral pipeline.
//!
//! Pins the pipeline's zero-allocation guarantee with a counting global allocator:
//! once the planner, scratch and output buffers are warm, `periodogram_into`
//! and `fft_real_into` must not touch the heap at all.
//!
//! The counter is **per-thread**: libtest's harness threads (timeout
//! watchdog, capture machinery) allocate at unpredictable times, so a
//! process-global counter would flake. Counting only the measuring thread's
//! allocations makes the zero assertion exact.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sweetspot_dsp::fft::{FftPlanner, FftScratch};
use sweetspot_dsp::psd::{periodogram_into, PsdConfig, PsdScratch};
use sweetspot_dsp::window::Window;

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

fn signal(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let t = i as f64;
            (0.002 * t).sin() + 0.5 * (0.04 * t).sin() + 0.1 * (0.3 * t).cos()
        })
        .collect()
}

#[test]
fn spectral_pipeline_steady_state_is_allocation_free() {
    let cfg = PsdConfig {
        window: Window::Hann,
        detrend: true,
    };
    let mut planner = FftPlanner::new();
    let mut scratch = PsdScratch::new();
    let mut power = Vec::new();

    // Periodogram: power-of-two, mixed-radix (a day at 30 s) and Bluestein
    // (2878 = 2·1439) lengths. First call warms plans and buffers; the
    // second must be allocation-free.
    for n in [4096usize, 2880, 2878] {
        let sig = signal(n);
        periodogram_into(&mut planner, &mut scratch, &sig, cfg, &mut power);
        let count = allocations_during(|| {
            periodogram_into(&mut planner, &mut scratch, &sig, cfg, &mut power);
        });
        assert_eq!(count, 0, "steady-state periodogram (n={n}) must not allocate");
    }

    // Bare real transforms: an odd length with a prime factor above 5
    // (2879, the one-sided Bluestein path) and a power of two (4096, the
    // packed path over the mixed-radix kernel).
    let mut fft_scratch = FftScratch::new();
    let mut spectrum = Vec::new();
    for n in [2879usize, 4096] {
        let sig = signal(n);
        planner.fft_real_into(&sig, &mut spectrum, &mut fft_scratch);
        let count = allocations_during(|| {
            planner.fft_real_into(&sig, &mut spectrum, &mut fft_scratch);
        });
        assert_eq!(count, 0, "steady-state real FFT (n={n}) must not allocate");
    }
}
