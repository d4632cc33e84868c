//! DSP kernel microbenchmarks: the primitives every experiment sits on.
//!
//! Covers both FFT paths (radix-2 and Bluestein), PSD estimation, Goertzel,
//! Fourier resampling and the end-to-end Nyquist estimator.

use criterion::{criterion_group, Criterion};
use std::hint::black_box;
use sweetspot_core::estimator::{EstimatorScratch, NyquistConfig, NyquistEstimator};
use sweetspot_dsp::fft::{FftPlanner, FftScratch};
use sweetspot_dsp::goertzel::goertzel_power;
use sweetspot_dsp::psd::{periodogram, welch, PsdConfig, WelchConfig};
use sweetspot_dsp::resample::resample_fft;
use sweetspot_dsp::Complex64;
use sweetspot_timeseries::{Hertz, RegularSeries, Seconds};

fn signal(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let t = i as f64;
            (0.002 * t).sin() + 0.5 * (0.04 * t).sin() + 0.1 * (0.3 * t).cos()
        })
        .collect()
}

/// The pre-rework periodogram, kept as an in-run reference so every bench
/// run reports the real-input fast path's speedup under identical load:
/// promote the signal to complex, run the full-length FFT, fold one-sided.
fn periodogram_promote_reference(
    planner: &mut FftPlanner,
    scratch: &mut FftScratch,
    samples: &[f64],
) -> Vec<f64> {
    use sweetspot_dsp::window::Window;
    let n = samples.len();
    let seg: Vec<f64> = samples.to_vec();
    let mut buf: Vec<Complex64> = seg.iter().map(|&x| Complex64::from_real(x)).collect();
    planner.fft_in_place(&mut buf, scratch);
    let bins = n / 2 + 1;
    let mut power = Vec::with_capacity(bins);
    for (k, c) in buf.iter().take(bins).enumerate() {
        let mut p = c.norm_sqr();
        if k != 0 && k != n / 2 {
            p *= 2.0;
        }
        power.push(p);
    }
    let norm = (n as f64) * (n as f64) * Window::Rectangular.energy_gain(n);
    for p in &mut power {
        *p /= norm;
    }
    power
}

/// The pre-rework Welch loop: a fresh promote-to-complex periodogram per
/// segment, window coefficients re-evaluated (trig per sample) and the
/// energy gain recomputed for every segment — the per-segment costs the
/// cached-table pipeline eliminates.
fn welch_promote_reference(
    planner: &mut FftPlanner,
    scratch: &mut FftScratch,
    samples: &[f64],
    seg_len: usize,
) -> Vec<f64> {
    use sweetspot_dsp::window::Window;
    let hop = seg_len / 2;
    let bins = seg_len / 2 + 1;
    let mut acc = vec![0.0; bins];
    let mut segments = 0usize;
    let mut start = 0usize;
    while start + seg_len <= samples.len() {
        let mut seg: Vec<f64> = samples[start..start + seg_len].to_vec();
        let mean = seg.iter().sum::<f64>() / seg_len as f64;
        for s in &mut seg {
            *s -= mean;
        }
        Window::Hann.apply(&mut seg);
        let mut buf: Vec<Complex64> = seg.iter().map(|&x| Complex64::from_real(x)).collect();
        planner.fft_in_place(&mut buf, scratch);
        let norm = (seg_len as f64) * (seg_len as f64) * Window::Hann.energy_gain(seg_len);
        for (k, c) in buf.iter().take(bins).enumerate() {
            let mut p = c.norm_sqr();
            if k != 0 && k != seg_len / 2 {
                p *= 2.0;
            }
            acc[k] += p / norm;
        }
        segments += 1;
        start += hop;
    }
    for a in &mut acc {
        *a /= segments.max(1) as f64;
    }
    acc
}

fn bench(c: &mut Criterion) {
    // FFT: power-of-two (radix-2) vs arbitrary length (Bluestein).
    for n in [1024usize, 1000, 4096, 2880] {
        let sig = signal(n);
        let label = if n.is_power_of_two() { "radix2" } else { "bluestein" };
        c.bench_function(&format!("fft/{label}_{n}"), |b| {
            let mut planner = FftPlanner::new();
            let mut scratch = FftScratch::new();
            let buf: Vec<Complex64> = sig.iter().map(|&x| Complex64::from_real(x)).collect();
            b.iter(|| {
                let mut work = buf.clone();
                planner.fft_in_place(&mut work, &mut scratch);
                black_box(work)
            })
        });
    }

    // PSD estimation. 2880 is one day at 30 s (Bluestein); 4096/8192 are the
    // power-of-two lengths the real-input fast path is judged on. The
    // `periodogram_promote_*` rows time the pre-rework full-complex path in
    // the same run, so the rfft speedup factor is load-independent.
    let sig = signal(2880);
    for n in [2880usize, 4096, 8192] {
        let s = signal(n);
        c.bench_function(&format!("psd/periodogram_promote_{n}"), |b| {
            let mut planner = FftPlanner::new();
            let mut scratch = FftScratch::new();
            b.iter(|| {
                black_box(periodogram_promote_reference(
                    &mut planner,
                    &mut scratch,
                    &s,
                ))
            })
        });
        c.bench_function(&format!("psd/periodogram_{n}"), |b| {
            let mut planner = FftPlanner::new();
            b.iter(|| black_box(periodogram(&mut planner, &s, 1.0, PsdConfig::default())))
        });
        c.bench_function(&format!("psd/welch_promote_{n}_seg256"), |b| {
            let mut planner = FftPlanner::new();
            let mut scratch = FftScratch::new();
            b.iter(|| black_box(welch_promote_reference(&mut planner, &mut scratch, &s, 256)))
        });
        c.bench_function(&format!("psd/welch_{n}_seg256"), |b| {
            let mut planner = FftPlanner::new();
            b.iter(|| black_box(welch(&mut planner, &s, 1.0, WelchConfig::default())))
        });
    }
    // Hann-windowed periodogram: stresses the window-coefficient path too.
    c.bench_function("psd/periodogram_hann_4096", |b| {
        let mut planner = FftPlanner::new();
        let s = signal(4096);
        let cfg = PsdConfig { window: sweetspot_dsp::window::Window::Hann, detrend: true };
        b.iter(|| black_box(periodogram(&mut planner, &s, 1.0, cfg)))
    });

    // Goertzel single-bin evaluation.
    c.bench_function("goertzel/2880_one_bin", |b| {
        b.iter(|| black_box(goertzel_power(&sig, 1.0, 0.01)))
    });

    // Fourier resampling (the §4.3 reconstruction workhorse).
    c.bench_function("resample/up_288_to_2880", |b| {
        let mut planner = FftPlanner::new();
        let coarse = signal(288);
        b.iter(|| black_box(resample_fft(&mut planner, &coarse, 2880)))
    });

    // End-to-end §3.2 estimation of a day-long trace.
    c.bench_function("estimator/day_trace_2880", |b| {
        let mut est = NyquistEstimator::new(NyquistConfig::default());
        let mut scratch = EstimatorScratch::new();
        let series = RegularSeries::new(Seconds::ZERO, Seconds(30.0), sig.clone());
        b.iter(|| {
            black_box(est.estimate_samples(&mut scratch, series.values(), series.sample_rate()))
        })
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
