//! **E8 / headline statistics** — the §3.2 text numbers at paper scale:
//! 1613 metric-device pairs, one day of data each. The printed figure is the
//! whole paper-claims ledger (`experiments::claims`): the §3.2 numbers with
//! their ground truth plus the §3.2–§4.3 design-choice experiments.

use criterion::{criterion_group, Criterion};
use std::hint::black_box;
use sweetspot_analysis::experiments::claims;
use sweetspot_analysis::study::{FleetStudy, StudyConfig};
use sweetspot_telemetry::FleetConfig;
use sweetspot_timeseries::Seconds;

fn print_figure() {
    println!("{}", claims::run().render());
}

fn bench(c: &mut Criterion) {
    // The CLI's `--paper-scale` path: devices synthesized inside the study
    // workers, all cores.
    c.bench_function("headline/study_paper_scale_workers", |b| {
        b.iter(|| {
            black_box(
                FleetStudy::run_paper_scale(0x5EED_CAFE, Default::default(), 0).summary(),
            )
        })
    });
    c.bench_function("headline/small_fleet_summary", |b| {
        let cfg = StudyConfig {
            fleet: FleetConfig {
                seed: 0xE8,
                devices_per_metric: 4,
                trace_duration: Seconds::from_days(1.0),
            },
            ..StudyConfig::default()
        };
        b.iter(|| black_box(FleetStudy::run(cfg).summary()))
    });
}

criterion_group! {
    name = benches;
    config = sweetspot_bench::experiment_criterion();
    targets = bench
}

fn main() {
    print_figure();
    benches();
    criterion::Criterion::default()
        .configure_from_args()
        .final_summary();
}
