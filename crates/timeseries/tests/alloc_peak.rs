//! Peak heap accounting for loading one `sweetspot analyze`-sized trace.
//!
//! Follows the counting-allocator pattern of
//! `crates/telemetry/tests/alloc_steady_state.rs`, but tracks live bytes
//! and their high-water mark instead of the number of allocations: reading
//! a 129 600-row CSV with `read_csv` and cleaning it with `clean_owned`
//! must never hold more than four trace-length `f64` columns at once. The
//! whole-text route (`read_to_string`, `parse_csv`, `clean` of the borrowed
//! series) holds the text beside the parsed columns and then the columns
//! beside the cleaning scratch, and goes past that bound.
//!
//! The counters are **per-thread**, as in the steady-state tests, so the
//! harness's own threads cannot disturb them. A `realloc` counts as the
//! one allocation changing size: glibc grows a large block by remapping
//! its pages, without holding two copies.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Read;

use sweetspot_timeseries::clean::{clean, clean_owned, CleanConfig};
use sweetspot_timeseries::ingest::{parse_csv, read_csv, to_csv};
use sweetspot_timeseries::{IrregularSeries, Seconds};

std::thread_local! {
    // const-init + no Drop ⇒ accessing these inside the allocator hooks
    // never itself allocates or registers a TLS destructor.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Adds `delta` to this thread's live bytes and raises the peak.
fn track(delta: isize) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

struct CountingAllocator;

// SAFETY: delegates every operation to `System`; the counters are plain
// thread-local side effects (`try_with`, so allocations during thread
// teardown are simply not counted).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as isize - layout.size() as isize);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Most bytes this thread held at once while running `f`, beyond what it
/// held when `f` started.
fn peak_bytes_during<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    let out = f();
    ((PEAK.with(Cell::get) - start) as usize, out)
}

/// 90 days of minutely rows, the shape of the end-to-end benchmark's
/// `analyze` input: every 331st row lost, every 547th `nan`, one spike.
fn ninety_day_csv() -> String {
    let (mut times, mut values) = (Vec::new(), Vec::new());
    for i in 0..ROWS {
        if i % 331 == 7 {
            continue;
        }
        let t = 60.0 * i as f64;
        times.push(Seconds(t));
        values.push(match i {
            _ if i % 547 == 11 => f64::NAN,
            64_000 => 150.0,
            _ => 50.0 + (0.002 * t).sin() + 0.5 * (0.0007 * t).cos(),
        });
    }
    to_csv(&IrregularSeries::new(times, values))
}

const ROWS: usize = 90 * 1440;

#[test]
fn streaming_load_and_owned_clean_stay_under_four_columns() {
    let csv = ninety_day_csv();
    let cfg = CleanConfig {
        interval: None,
        outlier_mads: Some(8.0),
    };
    let bound = 4 * ROWS * std::mem::size_of::<f64>();

    let (streamed, series) =
        peak_bytes_during(|| clean_owned(read_csv(csv.as_bytes()).unwrap(), cfg).unwrap());
    assert_eq!(series.len(), ROWS);
    assert!(
        streamed < bound,
        "read_csv + clean_owned peaked at {streamed} bytes, bound {bound}"
    );

    // The whole-text route, as `sweetspot analyze` loaded a trace before
    // it streamed: read the text, parse it, clean the borrowed series.
    let (whole, reference) = peak_bytes_during(|| {
        let mut text = String::new();
        csv.as_bytes().read_to_string(&mut text).unwrap();
        let raw = parse_csv(&text).unwrap();
        drop(text);
        clean(&raw, cfg).unwrap()
    });
    assert_eq!(series, reference);
    assert!(
        whole > bound,
        "the whole-text route peaked at only {whole} bytes"
    );
}
