//! Allocation accounting for the spectral pipeline.
//!
//! Pins the pipeline's zero-allocation guarantee with a counting global allocator:
//! once the planner and the output buffers are warm, `periodogram_into`
//! and `fft_real_into` must not touch the heap at all. The same allocator
//! also counts net bytes, which pins the periodogram's working footprint.
//!
//! The counter is **per-thread**: libtest's harness threads (timeout
//! watchdog, capture machinery) allocate at unpredictable times, so a
//! process-global counter would flake. Counting only the measuring thread's
//! allocations makes the zero assertion exact.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sweetspot_dsp::fft::FftPlanner;
use sweetspot_dsp::psd::{periodogram_into, PsdConfig};
use sweetspot_dsp::window::Window;

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
    let mut power = Vec::new();

    // Periodogram: power-of-two, mixed-radix (a day at 30 s) and Bluestein
    // (2878 = 2·1439) lengths. First call warms plans and buffers; the
    // second must be allocation-free.
    for n in [4096usize, 2880, 2878] {
        let sig = signal(n);
        periodogram_into(&mut planner, &sig, cfg, &mut power);
        let count = allocations_during(|| {
            periodogram_into(&mut planner, &sig, cfg, &mut power);
        });
        assert_eq!(
            count, 0,
            "steady-state periodogram (n={n}) must not allocate"
        );
    }

    // Bare real transforms: an odd length with a prime factor above 5
    // (2879, the one-sided Bluestein path) and a power of two (4096, the
    // packed path over the mixed-radix kernel).
    let mut spectrum = Vec::new();
    for n in [2879usize, 4096] {
        let sig = signal(n);
        planner.fft_real_into(&sig, &mut spectrum);
        let count = allocations_during(|| {
            planner.fft_real_into(&sig, &mut spectrum);
        });
        assert_eq!(count, 0, "steady-state real FFT (n={n}) must not allocate");
    }
}

#[test]
fn periodogram_scratch_holds_no_copy_of_the_signal_or_its_spectrum() {
    // The `analyze` benchmark's length: 90 days at one minute.
    let n = 129_600;
    let sig = signal(n);
    let cfg = PsdConfig {
        window: Window::Hann,
        detrend: true,
    };
    // Two planners build the same tables for `n` into maps of the same
    // size: `cold` has run a 4-point periodogram, so its buffers are tiny;
    // `warm` has run a 2n-point one, so its buffers already hold the
    // n/2-point transform. The difference of what the two calls keep is
    // what the cold planner's buffers grew by.
    let mut cold = FftPlanner::new();
    periodogram_into(&mut cold, &signal(4), cfg, &mut Vec::new());
    let mut warm = FftPlanner::new();
    periodogram_into(&mut warm, &signal(2 * n), cfg, &mut Vec::new());
    let tiny = cold.buffer_bytes();

    let (mut power, mut warm_power) = (Vec::new(), Vec::new());
    let cold_net = net_bytes_during(|| periodogram_into(&mut cold, &sig, cfg, &mut power));
    let warm_net = net_bytes_during(|| periodogram_into(&mut warm, &sig, cfg, &mut warm_power));
    let grown = cold.buffer_bytes() - tiny;
    assert_eq!(
        cold_net - warm_net,
        grown as isize,
        "buffer_bytes() disagrees with the allocator"
    );
    let bins = n / 2 + 1;
    assert_eq!(power.capacity(), bins);
    // The packed half-length input and the transform's ping-pong buffer,
    // n/2 complex points each. A windowed copy of the signal (n·8 bytes) or
    // a one-sided complex spectrum (bins·16 bytes) would show on top.
    let half_len_buffers = 2 * (n / 2) * 16;
    assert_eq!(cold.buffer_bytes(), half_len_buffers);
}
