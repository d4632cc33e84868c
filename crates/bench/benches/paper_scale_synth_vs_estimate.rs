//! Paper-scale phase split: what the 1613-pair §3.2 study spends on trace
//! *synthesis* versus Nyquist *estimation*.
//!
//! PR 2 made estimation ~5× faster, leaving synthesis dominant; these rows
//! track whether the streaming generator holds its ≥2× win over the direct
//! `value_at` reference (run in-process, so the factor is load-independent)
//! and how the two phases compare after the rework.

use criterion::{criterion_group, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use sweetspot_core::estimator::{NyquistConfig, NyquistEstimator};
use sweetspot_core::scratch::SpectrumScratch;
use sweetspot_telemetry::{paper_scale_work, DeviceTrace, TraceSynth};
use sweetspot_timeseries::clean::{clean_slices_into, CleanConfig, CleanScratch};
use sweetspot_timeseries::Seconds;

const SEED: u64 = 0x5EED_CAFE;

fn bench(c: &mut Criterion) {
    let traces: Vec<DeviceTrace> = paper_scale_work()
        .into_iter()
        .map(|(profile, device_idx)| DeviceTrace::synthesize(profile, device_idx, SEED))
        .collect();
    let day = Seconds::from_days(1.0);

    // Synthesis phase, streaming generator: all 1613 measured day-traces
    // through recycled buffers (exactly the study workers' synthesis load).
    c.bench_function("paper_scale/synthesize_1613_tonebank", |b| {
        let mut synth = TraceSynth::new();
        let mut times = Vec::new();
        let mut values = Vec::new();
        b.iter(|| {
            for trace in &traces {
                trace.production_trace_into(&mut synth, day, &mut times, &mut values);
            }
            black_box(values.last().copied())
        })
    });

    // Synthesis phase, pre-rework reference: per-sample `value_at` ground
    // truth and fresh buffers per trace.
    c.bench_function("paper_scale/synthesize_1613_direct", |b| {
        b.iter(|| {
            let mut last = None;
            for trace in &traces {
                let rate = trace.profile().production_rate();
                let truth = trace.model().sample(Seconds::ZERO, rate, day);
                let mut rng = StdRng::seed_from_u64(0xDA7A);
                last = trace
                    .impairments()
                    .apply(&mut rng, &truth)
                    .values()
                    .last()
                    .copied();
            }
            black_box(last)
        })
    });

    // Estimation phase: pre-synthesized and pre-cleaned traces, so the row
    // times exactly the estimator's share of the study loop.
    c.bench_function("paper_scale/estimate_1613", |b| {
        let mut synth = TraceSynth::new();
        let mut scratch = CleanScratch::new();
        let cleaned: Vec<_> = traces
            .iter()
            .filter_map(|trace| {
                let rate = trace.profile().production_rate();
                let mut times = Vec::new();
                let mut values = Vec::new();
                trace.production_trace_into(&mut synth, day, &mut times, &mut values);
                clean_slices_into(
                    &times,
                    &values,
                    CleanConfig {
                        interval: Some(rate.period()),
                        outlier_mads: Some(8.0),
                    },
                    &mut scratch,
                )
                .ok()
                .filter(|s| s.len() >= 4)
            })
            .collect();
        let estimator = NyquistEstimator::new(NyquistConfig::default());
        let mut est_scratch = SpectrumScratch::new();
        b.iter(|| {
            let mut aliased = 0usize;
            for s in &cleaned {
                aliased += estimator
                    .estimate_samples(&mut est_scratch, s.values(), s.sample_rate())
                    .is_aliased() as usize;
            }
            black_box(aliased)
        })
    });
}

criterion_group! {
    name = benches;
    config = sweetspot_bench::experiment_criterion();
    targets = bench
}

fn main() {
    benches();
    criterion::Criterion::default()
        .configure_from_args()
        .final_summary();
}
