//! DSP kernel microbenchmarks: the primitives every experiment sits on.
//!
//! Covers both FFT plans (mixed-radix and Bluestein) and the real-input
//! paths over them (packed even, one-sided odd), PSD
//! estimation, Fourier resampling, the end-to-end Nyquist estimator, one
//! verified epoch of the adaptive controller's spectral work, the table
//! builds and the CSV ingest and clean of one `sweetspot analyze`-sized
//! trace.

use criterion::{criterion_group, Criterion};
use std::hint::black_box;
use sweetspot_core::aliasing::{
    compare_spectra, detector_spectrum, BandScratch, DualRateConfig, COMPANION_RATIO,
};
use sweetspot_core::estimator::{NyquistConfig, NyquistEstimator};
use sweetspot_core::scratch::SpectrumScratch;
use sweetspot_dsp::fft::FftPlanner;
use sweetspot_dsp::psd::{periodogram, periodogram_into, periodogram_once_into, PsdConfig};
use sweetspot_dsp::resample::resample_fft;
use sweetspot_dsp::window::Window;
use sweetspot_dsp::Complex64;
use sweetspot_timeseries::clean::{clean_owned, CleanConfig};
use sweetspot_timeseries::ingest::{parse_csv, read_csv};
use sweetspot_timeseries::{Hertz, RegularSeries, Seconds};

fn signal(n: usize) -> Vec<f64> {
    signal_every(n, 1.0)
}

/// [`signal`] sampled every `dt` time units.
fn signal_every(n: usize, dt: f64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let t = i as f64 * dt;
            (0.002 * t).sin() + 0.5 * (0.04 * t).sin() + 0.1 * (0.3 * t).cos()
        })
        .collect()
}

/// `rows` minutely samples as CSV text shaped like a production export: a
/// header, integer times, five-decimal values, and every 500 rows one lost
/// row and one `nan`.
fn minutely_csv(rows: usize) -> String {
    use std::fmt::Write;
    let mut csv = String::from("time_seconds,value\n");
    for (i, v) in signal_every(rows, 60.0).into_iter().enumerate() {
        let t = i * 60;
        match i % 500 {
            137 => {}
            311 => writeln!(csv, "{t},nan").unwrap(),
            _ => writeln!(csv, "{t},{:.5}", 50.0 + v).unwrap(),
        }
    }
    csv
}

/// The pre-rework periodogram, kept as an in-run reference so every bench
/// run reports the real-input fast path's speedup under identical load:
/// promote the signal to complex, run the full-length FFT, fold one-sided.
fn periodogram_promote_reference(planner: &mut FftPlanner, samples: &[f64]) -> Vec<f64> {
    let n = samples.len();
    let seg: Vec<f64> = samples.to_vec();
    let mut buf: Vec<Complex64> = seg.iter().map(|&x| Complex64::from_real(x)).collect();
    planner.fft_in_place(&mut buf);
    let bins = n / 2 + 1;
    let mut power = Vec::with_capacity(bins);
    for (k, c) in buf.iter().take(bins).enumerate() {
        let mut p = c.norm_sqr();
        if k != 0 && k != n / 2 {
            p *= 2.0;
        }
        power.push(p);
    }
    // The rectangular window's energy gain is 1.
    let norm = (n as f64) * (n as f64);
    for p in &mut power {
        *p /= norm;
    }
    power
}

fn bench(c: &mut Criterion) {
    // Complex FFT on each plan kind: powers of two and other 5-smooth
    // lengths (mixed-radix) and the rest (2878 = 2·1439, Bluestein).
    let lengths = [
        (1024usize, "mixed"),
        (1000, "mixed"),
        (4096, "mixed"),
        (2880, "mixed"),
        (2878, "bluestein"),
    ];
    for (n, kind) in lengths {
        let sig = signal(n);
        c.bench_function(&format!("fft/{kind}_{n}"), |b| {
            let mut planner = FftPlanner::new();
            let buf: Vec<Complex64> = sig.iter().map(|&x| Complex64::from_real(x)).collect();
            b.iter(|| {
                let mut work = buf.clone();
                planner.fft_in_place(&mut work);
                black_box(work)
            })
        });
    }

    // Real FFT over a mixed-radix half (a 6-hour tracker window and 90 days
    // at one minute) and of an odd prime length (2879, one-sided Bluestein).
    for (n, kind) in [(360usize, "mixed"), (129_600, "mixed"), (2879, "bluestein")] {
        let sig = signal(n);
        c.bench_function(&format!("rfft/{kind}_{n}"), |b| {
            let mut planner = FftPlanner::new();
            let mut out = Vec::new();
            b.iter(|| {
                planner.fft_real_into(black_box(&sig), &mut out);
                black_box(&out);
            })
        });
    }

    // What a cold cached planner builds before it can transform a 90-day
    // minutely trace: its real plan (64 800-point mixed-radix twiddles plus
    // the untangle table), its Hann table and its working buffers. The row
    // includes the first transform; the warm `rfft/mixed_129600` row above
    // times that alone.
    let trace = signal(129_600);
    c.bench_function("plan/real_hann_129600", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            let mut planner = FftPlanner::new();
            black_box(planner.window_table(Window::Hann, trace.len()));
            planner.fft_real_into(black_box(&trace), &mut out);
            black_box(&out);
        })
    });
    // The whole Hann-windowed, detrended periodogram of that trace on a
    // fresh planner, by both routes: the cached route builds and keeps the
    // tables above; the one-shot route (`estimate_series`, so `analyze`)
    // reads every twiddle and coefficient from root tables instead.
    // Information rows: raw wall times of one-shot work spread more between
    // runs than the two routes differ.
    let hann = PsdConfig {
        window: Window::Hann,
        detrend: true,
    };
    type Route = fn(&mut FftPlanner, &[f64], PsdConfig, &mut Vec<f64>);
    let routes: [(&str, Route); 2] = [
        ("cached", periodogram_into),
        ("once", periodogram_once_into),
    ];
    for (route, run) in routes {
        c.bench_function(&format!("plan/periodogram_{route}_hann_129600"), |b| {
            let mut power = Vec::new();
            b.iter(|| {
                run(&mut FftPlanner::new(), black_box(&trace), hann, &mut power);
                black_box(&power);
            })
        });
    }

    // PSD estimation. 2880 is one day at 30 s (mixed-radix); 4096/8192 are the
    // power-of-two lengths the real-input fast path is judged on. The
    // `periodogram_promote_*` rows time the pre-rework full-complex path in
    // the same run, so the rfft speedup factor is load-independent.
    let sig = signal(2880);
    for n in [2880usize, 4096, 8192] {
        let s = signal(n);
        c.bench_function(&format!("psd/periodogram_promote_{n}"), |b| {
            let mut planner = FftPlanner::new();
            b.iter(|| black_box(periodogram_promote_reference(&mut planner, &s)))
        });
        c.bench_function(&format!("psd/periodogram_{n}"), |b| {
            let mut planner = FftPlanner::new();
            b.iter(|| black_box(periodogram(&mut planner, &s, 1.0, PsdConfig::default())))
        });
    }
    // Hann-windowed periodogram: stresses the window-coefficient path too.
    c.bench_function("psd/periodogram_hann_4096", |b| {
        let mut planner = FftPlanner::new();
        let s = signal(4096);
        let cfg = PsdConfig {
            window: sweetspot_dsp::window::Window::Hann,
            detrend: true,
        };
        b.iter(|| black_box(periodogram(&mut planner, &s, 1.0, cfg)))
    });

    // Fourier resampling (the §4.3 reconstruction workhorse).
    c.bench_function("resample/up_288_to_2880", |b| {
        let mut planner = FftPlanner::new();
        let coarse = signal(288);
        b.iter(|| black_box(resample_fft(&mut planner, &coarse, 2880)))
    });

    // End-to-end §3.2 estimation of a day-long trace.
    c.bench_function("estimator/day_trace_2880", |b| {
        let est = NyquistEstimator::new(NyquistConfig::default());
        let mut scratch = SpectrumScratch::new();
        let series = RegularSeries::new(Seconds::ZERO, Seconds(30.0), sig.clone());
        b.iter(|| {
            black_box(est.estimate_samples(&mut scratch, series.values(), series.sample_rate()))
        })
    });

    // One verified adaptive-controller epoch's spectral work at lengths
    // typical of fleet members, all Bluestein: even (346 = 2·173 fast
    // samples, 214 = 2·107 companion samples over the same window) and the
    // odd, one-sided twin (347, 215 = 5·43). Each row runs the two
    // periodograms, the §4.1 band comparison and the §3.2 threshold on the
    // shared fast spectrum.
    for (n_fast, n_slow) in [(346usize, 214usize), (347, 215)] {
        let fast = RegularSeries::new(Seconds::ZERO, Seconds(1.0), signal(n_fast));
        let slow = RegularSeries::new(
            Seconds::ZERO,
            Seconds(COMPANION_RATIO),
            signal_every(n_slow, COMPANION_RATIO),
        );
        c.bench_function(&format!("detector/verified_epoch_{n_fast}_{n_slow}"), |b| {
            let mut planner = FftPlanner::new();
            let mut bands = BandScratch::new();
            let est = NyquistEstimator::new(NyquistConfig::default());
            let (mut fast_power, mut slow_power) = (Vec::new(), Vec::new());
            b.iter(|| {
                let (fp, sp) = (
                    std::mem::take(&mut fast_power),
                    std::mem::take(&mut slow_power),
                );
                let f = detector_spectrum(&mut planner, &fast, fp);
                let s = detector_spectrum(&mut planner, &slow, sp);
                let verdict = compare_spectra(&f, &s, DualRateConfig::default(), &mut bands);
                let estimate = est.estimate_spectrum(&f);
                fast_power = f.into_power();
                slow_power = s.into_power();
                black_box((verdict, estimate))
            })
        });
    }

    // CSV ingest of a 90-day minutely trace, the size `sweetspot analyze`
    // reads in the end-to-end benchmark.
    let csv = minutely_csv(90 * 1440);
    c.bench_function("ingest/parse_csv_129600", |b| {
        b.iter(|| black_box(parse_csv(black_box(&csv)).expect("trace parses")))
    });
    // The same text as a stream, through `read_csv`'s 64 KiB buffer: what
    // `sweetspot analyze` does with a file or a pipe.
    c.bench_function("ingest/read_csv_129600", |b| {
        b.iter(|| black_box(read_csv(black_box(csv.as_bytes())).expect("trace reads")))
    });
    // `analyze`'s clean of the parsed columns, moved in and compacted in
    // place. Each iteration clones the parsed series for `clean_owned` to
    // consume, so the row includes copying both columns once — what
    // `clean` of a borrowed series copies into its scratch too.
    let parsed = parse_csv(&csv).expect("trace parses");
    let cfg = CleanConfig {
        interval: None,
        outlier_mads: Some(8.0),
    };
    c.bench_function("clean/owned_129600", |b| {
        b.iter(|| black_box(clean_owned(black_box(parsed.clone()), cfg).expect("trace cleans")))
    });
    let _ = Hertz(1.0); // keep the import used in all cfgs
}

criterion_group! {
    name = benches;
    config = sweetspot_bench::kernel_criterion();
    targets = bench
}

fn main() {
    benches();
    criterion::Criterion::default()
        .configure_from_args()
        .final_summary();
}
