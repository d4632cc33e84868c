//! Allocation accounting for the spectral pipeline.
//!
//! Pins the pipeline's zero-allocation guarantee with a counting global allocator:
//! once the planner and the output buffers are warm, `periodogram_into`
//! and `fft_real_into` must not touch the heap at all. The same allocator
//! also counts net bytes and their peak, which pin the periodogram's working
//! footprint and the planner's own byte accounting.
//!
//! The counter is **per-thread**: libtest's harness threads (timeout
//! watchdog, capture machinery) allocate at unpredictable times, so a
//! process-global counter would flake. Counting only the measuring thread's
//! allocations makes the zero assertion exact.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sweetspot_dsp::fft::FftPlanner;
use sweetspot_dsp::psd::{periodogram_into, periodogram_once_into, PsdConfig};
use sweetspot_dsp::window::{Window, WindowTable};

std::thread_local! {
    // const-init + no Drop ⇒ accessing this inside the allocator hooks
    // never itself allocates or registers a TLS destructor.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    // Bytes allocated minus bytes freed.
    static NET_BYTES: Cell<isize> = const { Cell::new(0) };
    // The highest `NET_BYTES` has reached since `peak_bytes_during` reset it.
    static PEAK_BYTES: Cell<isize> = const { Cell::new(0) };
}

fn add_net_bytes(delta: isize) {
    let _ = NET_BYTES.try_with(|c| {
        c.set(c.get() + delta);
        let _ = PEAK_BYTES.try_with(|p| p.set(p.get().max(c.get())));
    });
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

/// The most heap *this thread* held at once while running `f`, above what
/// it held before.
fn peak_bytes_during(f: impl FnOnce()) -> isize {
    let before = NET_BYTES.with(Cell::get);
    PEAK_BYTES.with(|p| p.set(before));
    f();
    PEAK_BYTES.with(Cell::get) - before
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

#[test]
fn one_shot_periodogram_peaks_at_its_buffers() {
    // The `analyze` benchmark's length through the one-shot route: the
    // packed half and the ping-pong buffer (n/2 complex points each), the
    // power buffer and O(√n) roots. A table of the trace's length built
    // for a single use — twiddles, untangle twiddles or window
    // coefficients, 1–2 MB each here — breaks the bound.
    let n = 129_600;
    let sig = signal(n);
    let cfg = PsdConfig {
        window: Window::Hann,
        detrend: true,
    };
    let (mut once, mut power) = (FftPlanner::new(), Vec::new());
    let peak = peak_bytes_during(|| periodogram_once_into(&mut once, &sig, cfg, &mut power));
    let buffers = 2 * (n / 2) * 16 + (n / 2 + 1) * 8;
    assert!(peak < 3_000_000, "one-shot peak {peak} B");
    assert!(peak >= buffers as isize, "{peak} B < {buffers} B");
    assert_eq!(once.table_bytes(), 0);

    // The cached route builds the tables it keeps on top of the same
    // buffers.
    let (mut cached, mut cached_power) = (FftPlanner::new(), Vec::new());
    let cached_peak =
        peak_bytes_during(|| periodogram_into(&mut cached, &sig, cfg, &mut cached_power));
    assert!(cached_peak > 5_000_000, "cached peak {cached_peak} B");
    assert_eq!(power, cached_power);
}

#[test]
fn byte_accounting_matches_the_allocator() {
    // `WindowTable::resident_bytes` is the table's one allocation; the
    // roots it is filled from are freed before it returns.
    // It is allocated at the window's length: one `f64` per sample.
    for window in [Window::Rectangular, Window::Hann] {
        for n in [1usize, 97, 4096, 129_600] {
            let mut table = None;
            let net = net_bytes_during(|| table = Some(WindowTable::new(window, n)));
            let table = table.unwrap();
            assert_eq!(net, table.resident_bytes() as isize, "{window:?} n={n}");
            assert_eq!(table.resident_bytes(), n * 8, "{window:?} n={n}");
        }
    }

    // `FftPlanner::buffer_bytes` is everything a one-shot transform keeps:
    // at a 5-smooth length it builds no table.
    let cfg = PsdConfig {
        window: Window::Hann,
        detrend: true,
    };
    for n in [4096usize, 2880, 2025, 129_600] {
        let (mut planner, mut power) = (FftPlanner::new(), Vec::new());
        let sig = signal(n);
        let net = net_bytes_during(|| periodogram_once_into(&mut planner, &sig, cfg, &mut power));
        assert_eq!(planner.table_bytes(), 0, "n={n}");
        let kept = planner.buffer_bytes() + power.capacity() * 8;
        assert_eq!(net, kept as isize, "n={n}");
    }

    // `FftPlanner::table_bytes` charges each cached table its own bytes
    // once, a plan nested in another included, so it is the net heap the
    // tables hold up to the maps' buckets and the `Arc` headers, which
    // nothing charges: packed over mixed radix (4096), packed over
    // Bluestein (202 = 2·101), one-sided Bluestein (2879) and promoted odd
    // (2025 = 3⁴·5²), each on a fresh planner...
    for n in [4096usize, 202, 2879, 2025] {
        let (mut planner, mut out) = (FftPlanner::new(), Vec::new());
        let sig = signal(n);
        let net = net_bytes_during(|| planner.fft_real_into(&sig, &mut out));
        assert_tables_match_the_allocator(&planner, net - (out.capacity() * 16) as isize, n);
        assert_eq!(planner.table_bytes(), exact_table_bytes(n), "n={n}");
    }
    // ...and after over-budget drops: with a one-byte cap every admission
    // drops all the cache alone holds, so what stays is 2025's chain.
    let (mut planner, mut out) = (FftPlanner::new(), Vec::new());
    let sigs: Vec<Vec<f64>> = [4096usize, 202, 2879, 2025].map(signal).into();
    let net = net_bytes_during(|| {
        planner.set_table_budget(Some(1));
        for sig in &sigs {
            planner.fft_real_into(sig, &mut out);
        }
    });
    assert_tables_match_the_allocator(&planner, net - (out.capacity() * 16) as isize, 2025);
    assert_eq!(planner.table_bytes(), exact_table_bytes(2025));
}

/// What the tables of a fresh real transform of length `n` hold, entry by
/// entry: 16-byte complex twiddles, untangle twiddles, chirps and kernels,
/// and 8-byte pass radices, each table allocated at its own length.
fn exact_table_bytes(n: usize) -> usize {
    let (complex, radices) = match n {
        // Untangle `n/2 + 1`, then the 2048-point mixed plan: 2047
        // twiddles over the passes [4, 4, 4, 4, 4, 2].
        4096 => (2049 + 2047, 6),
        // Untangle 102, then Bluestein of 101 (chirp 101, kernel at the
        // 240-point convolution) over the 240-point plan: 239 twiddles,
        // passes [4, 4, 3, 5].
        202 => (102 + 101 + 240 + 239, 4),
        // One-sided Bluestein: chirp 2879 and kernel at the 4608-point
        // convolution (≥ 2879 + 1440 − 1), over the 4608-point plan: 4607
        // twiddles, passes [4, 4, 4, 4, 2, 3, 3].
        2879 => (2879 + 4608 + 4607, 7),
        // Promoted odd: the 2025-point plan, 2024 twiddles, passes
        // [3, 3, 3, 3, 5, 5].
        2025 => (2024, 6),
        _ => unreachable!("no table layout written down for n={n}"),
    };
    complex * 16 + radices * 8
}

/// `planner.table_bytes()` against `net`, the heap its transforms left
/// behind (outputs already taken off): the two differ by the planner's
/// working buffers and at most 1 KiB of map buckets and `Arc` headers.
fn assert_tables_match_the_allocator(planner: &FftPlanner, net: isize, n: usize) {
    let tables = net - planner.buffer_bytes() as isize;
    let reported = planner.table_bytes() as isize;
    assert!(
        (0..=1024).contains(&(tables - reported)),
        "n={n}: table_bytes {reported} B, net table heap {tables} B"
    );
}
