//! Fleet-level adaptive simulation benchmarks: what one shared-budget
//! scheduling run costs, per policy, on a small fleet — plus the
//! large-fleet rows this engine is scaled by.
//!
//! Two rows bracket the engine: the uncapped baseline (pure controller
//! stepping, no arbitration) and water-filling under a binding budget
//! (scheduling + deferral bookkeeping on top). Both run single threaded so
//! the numbers track engine work, not thread scaling. The
//! `waterfill_20k_2ep` row exercises the scaled 2×10⁴-pair fleet end to
//! end (its `_metrics` twin re-runs it with the full `--metrics-out`
//! recorder attached, and its `_watchdog` twin with the recovery slice
//! armed — each pair pins a ≤2% overhead budget), and the `sched_100k`
//! row isolates the scheduler at 10⁵ requests: one reused water-fill
//! scheduler re-sorting every binding epoch under ~1% request churn, as
//! the engine drives it.

use criterion::{criterion_group, Criterion};
use std::hint::black_box;
use sweetspot_analysis::fleetsim::{
    self, scenario::ScenarioSpec, scheduler::SchedulerPolicy, FleetSimConfig,
};
use sweetspot_telemetry::FleetConfig;
use sweetspot_timeseries::Seconds;

fn config() -> FleetSimConfig {
    FleetSimConfig {
        fleet: FleetConfig {
            seed: 0xBE7C4,
            devices_per_metric: 2,
            trace_duration: Seconds::from_days(1.0),
        },
        days: 3.0,
        threads: 1,
        ..FleetSimConfig::default()
    }
}

fn bench(c: &mut Criterion) {
    let cfg = config();

    // Print the headline once so the bench doubles as a reproduction run.
    let uncapped = fleetsim::run_policy(&cfg, SchedulerPolicy::Uncapped, f64::INFINITY);
    let steady = uncapped.ledger.accounts().last().map_or(0.0, |a| a.spent);
    println!(
        "fleet_adaptive: {} devices x {} epochs, uncapped coverage {:.4}, steady demand {:.0}/ep",
        uncapped.devices, uncapped.epochs, uncapped.quality.mean_coverage, steady
    );

    c.bench_function("fleet_adaptive/uncapped_28dev_3ep", |b| {
        b.iter(|| {
            let out = fleetsim::run_policy(&cfg, SchedulerPolicy::Uncapped, f64::INFINITY);
            black_box(out.quality.mean_coverage)
        })
    });

    let budget = steady * 0.25;
    c.bench_function("fleet_adaptive/waterfill_28dev_3ep_quarter_budget", |b| {
        b.iter(|| {
            let out = fleetsim::run_policy(&cfg, SchedulerPolicy::WaterFill, budget);
            black_box(out.quality.mean_coverage)
        })
    });

    // Large-fleet variant: a 2×10⁴-pair round-robin fleet, two lockstep
    // epochs under a binding budget — the zero-allocation epoch loop and the
    // water-fill scheduler together, at scale.
    let large = FleetSimConfig {
        devices: Some(20_000),
        days: 2.0,
        threads: 1,
        ..FleetSimConfig::default()
    };
    c.bench_function("fleet_adaptive/waterfill_20k_2ep", |b| {
        b.iter(|| {
            let out = fleetsim::run_policy(&large, SchedulerPolicy::WaterFill, 200_000.0);
            black_box(out.quality.mean_coverage)
        })
    });

    // The metrics-on twin of the row above: full recorder attached (journal,
    // grant histogram, JSONL emission into a pre-grown in-memory buffer).
    // The pair pins the observability overhead — the delta between these
    // two rows is the whole cost of `--metrics-out`, and it must stay ≤2%.
    c.bench_function("fleet_adaptive/waterfill_20k_2ep_metrics", |b| {
        b.iter(|| {
            let mut rec = fleetsim::metrics::MetricsRecorder::in_memory();
            rec.reserve(1 << 20);
            let out = fleetsim::run_policy_recorded(
                &large,
                SchedulerPolicy::WaterFill,
                200_000.0,
                Some(&mut rec),
            );
            black_box((out.quality.mean_coverage, rec.buffer().len()))
        })
    });

    // Same fleet with the scenario engine dealt in (churn preset): what the
    // per-epoch event pass plus lifecycle bookkeeping costs on top of the
    // healthy waterfill row above.
    let churned = FleetSimConfig {
        scenario: ScenarioSpec::parse("churn").unwrap(),
        ..large
    };
    c.bench_function("fleet_adaptive/scenario_churn_20k", |b| {
        b.iter(|| {
            let out = fleetsim::run_policy(&churned, SchedulerPolicy::WaterFill, 200_000.0);
            black_box(out.quality.mean_coverage)
        })
    });

    // The watchdog twin of the healthy 20k row: recovery slice armed at 10%
    // of capacity. On a healthy fleet the watchdog pass degenerates to a
    // serial health-census sweep (no suspects, no re-probes), so the delta
    // between this row and `waterfill_20k_2ep` is the pure per-epoch cost of
    // arming `--recovery-budget-frac` — and it must stay ≤2%.
    let watched = FleetSimConfig {
        recovery_budget_frac: 0.1,
        ..large
    };
    c.bench_function("fleet_adaptive/waterfill_20k_2ep_watchdog", |b| {
        b.iter(|| {
            let out = fleetsim::run_policy(&watched, SchedulerPolicy::WaterFill, 200_000.0);
            black_box(out.quality.mean_coverage)
        })
    });

    // Scheduler isolation at 10⁵ requests: steady-fleet churn (~1% of
    // requests move per epoch) through one reused water-fill scheduler
    // under a binding budget, so every iteration re-sorts the full order.
    let n = 100_000usize;
    let production = vec![1.0f64; n];
    let mut state = 0x5EEDu64;
    let mut requests: Vec<f64> = (0..n)
        .map(|_| (xorshift(&mut state) % 10_000) as f64 / 700.0)
        .collect();
    let capacity = requests.iter().sum::<f64>() * 0.5;
    c.bench_function("fleet_adaptive/sched_100k", |b| {
        let mut sched = SchedulerPolicy::WaterFill.scheduler(&production);
        let mut grants = Vec::with_capacity(n);
        b.iter(|| {
            for _ in 0..n / 100 {
                let i = (xorshift(&mut state) as usize) % n;
                requests[i] = (xorshift(&mut state) % 10_000) as f64 / 700.0;
            }
            sched.allocate(&requests, capacity, &mut grants);
            black_box(grants.len())
        })
    });
}

/// Deterministic xorshift64 for request-churn sequences (no rand dep in the
/// bench crate).
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
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
