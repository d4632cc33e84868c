//! Trace-synthesis microbenchmarks: the streaming oscillator-bank generator
//! against the direct per-sample `value_at` path.
//!
//! The `*_direct_*` rows re-run the pre-rework reference (one `sin()` per
//! tone per sample, fresh buffers per trace) in the same process, so the
//! generator's speedup factor is load-independent — the same in-run
//! comparison convention as `dsp_kernels`' `*_promote_*` rows.

use criterion::{criterion_group, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use sweetspot_telemetry::{DeviceTrace, MetricKind, MetricProfile, ToneBank, TraceSynth};
use sweetspot_timeseries::Seconds;

fn bench(c: &mut Criterion) {
    // LinkUtil: 30 s polls → 2880 samples/day, every impairment stage active.
    let trace = DeviceTrace::synthesize(MetricProfile::for_kind(MetricKind::LinkUtil), 0, 7);
    let day = Seconds::from_days(1.0);
    let rate = trace.profile().production_rate();

    // Ground truth: direct per-sample evaluation (the reference)…
    c.bench_function("synth/ground_truth_direct_2880", |b| {
        b.iter(|| black_box(trace.model().sample(Seconds::ZERO, rate, day)))
    });
    // …vs the streaming oscillator bank into recycled buffers.
    c.bench_function("synth/ground_truth_tonebank_2880", |b| {
        let mut bank = ToneBank::new();
        let mut out = Vec::new();
        b.iter(|| {
            trace
                .model()
                .sample_into(&mut bank, Seconds::ZERO, rate, day, &mut out);
            black_box(out.last().copied())
        })
    });

    // A fleet poll is a few hundred samples, so the bank's per-chunk
    // re-seed and per-group set-up show here and not at 2880.
    let poll = Seconds::from_hours(3.0);
    c.bench_function("synth/ground_truth_tonebank_360", |b| {
        let mut bank = ToneBank::new();
        let mut out = Vec::new();
        b.iter(|| {
            trace
                .model()
                .sample_into(&mut bank, Seconds::ZERO, rate, poll, &mut out);
            black_box(out.last().copied())
        })
    });

    // Full measured chain: direct-sampled truth + per-trace buffer churn…
    c.bench_function("synth/measured_direct_2880", |b| {
        let imp = *trace.impairments();
        b.iter(|| {
            let truth = trace.model().sample(Seconds::ZERO, rate, day);
            let mut rng = StdRng::seed_from_u64(0xDA7A);
            black_box(imp.apply(&mut rng, &truth))
        })
    });
    // …vs the streaming path with every buffer recycled.
    c.bench_function("synth/measured_recycled_2880", |b| {
        let mut synth = TraceSynth::new();
        let mut times = Vec::new();
        let mut values = Vec::new();
        b.iter(|| {
            trace.production_trace_into(&mut synth, day, &mut times, &mut values);
            black_box(values.last().copied())
        })
    });

    // A 3×-folding-rate grid (the fastest an under-sampled device demands):
    // three times the samples, same per-sample cost.
    let fast_rate = sweetspot_timeseries::Hertz(3.0 * trace.profile().folding_frequency().value());
    c.bench_function("synth/ground_truth_tonebank_4320_fastgrid", |b| {
        let mut bank = ToneBank::new();
        let mut out = Vec::new();
        b.iter(|| {
            trace
                .model()
                .sample_into(&mut bank, Seconds::ZERO, fast_rate, day, &mut out);
            black_box(out.last().copied())
        })
    });
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
