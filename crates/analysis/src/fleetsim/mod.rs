//! Fleet-level adaptive simulation: every device's §4.2 controller running
//! concurrently under **one shared collection budget**, with a pluggable
//! cross-device scheduler arbitrating epoch-by-epoch poll rates.
//!
//! The paper's controller adapts each device in isolation, but its cost
//! argument (§1) is fleet-wide: collection, transmission and storage budgets
//! are shared. This module measures that trade-off on the synthetic fleet:
//!
//! 1. Every `(metric, device)` pair gets a [`FleetMember`] — its simulated
//!    device plus an [`AdaptiveSampler`](sweetspot_core::adaptive) — stepped
//!    in **lockstep epochs** (the scheduling quantum).
//! 2. Each epoch, controllers *request* rates; a [`scheduler`] policy
//!    converts the cost-unit budget into grantable rate and splits it.
//! 3. Members run their epoch at the granted rate through
//!    [`FleetMember::step_epoch`], which drives
//!    [`AdaptiveSampler::step_granted`](sweetspot_core::adaptive::AdaptiveSampler::step_granted)
//!    on the worker's scratch: throttled controllers record deferrals and
//!    re-ramp through their Nyquist memory when budget returns.
//! 4. A ground-truth [`quality`] model scores every device's achieved rate
//!    against its true Nyquist rate; an [`EpochLedger`] accounts every cost
//!    unit. The output is a **cost-vs-quality frontier per policy** — the
//!    paper's sweet spot, measured at fleet level.
//!
//! # Sharded execution
//!
//! Epochs are inherently sequential (epoch `k`'s grants depend on epoch
//! `k−1`'s outcomes), but *within* an epoch every device is independent
//! given its grant. The engine reuses the `analysis::study` pattern: the
//! device index space is split into contiguous per-worker shards
//! (persistent per-device state) that one fan-out steps — inline for a
//! single shard, on scoped threads otherwise. Every other epoch pass (deal,
//! request, allocate + watchdog, the fold into coverage and the ledger, the
//! recovery clock, emission) runs serially in device index order — so
//! output is **byte-identical for any `--threads N`** (pinned by golden
//! fixtures, tests and the CI smoke).
//!
//! # The memory wall
//!
//! Members hold only durable control state; each shard keeps its member
//! records in one contiguous [`Slab`] and owns a single [`EpochScratch`]
//! (oscillator bank, impairment buffers, detector/estimator scratch,
//! recycled series storage) lent to members one step at a time. Every
//! scratch buffer is overwritten before use, so sharing it is
//! byte-identical to per-member copies — but the working set scales with
//! *workers*, not *devices*, which at 10⁵ devices is the difference
//! between tens of gigabytes and tens of megabytes (see
//! [`MemoryStats`]).

pub mod metrics;
pub mod quality;
pub mod scenario;
pub mod scheduler;

use std::time::{Duration, Instant};
use sweetspot_arena::Slab;
use sweetspot_core::adaptive::{AdaptiveConfig, EpochAction, HealthState};
use sweetspot_dsp::fft::{FftHandleStats, FftPlanner};
use sweetspot_monitor::poller::{EpochScratch, FleetMember};
use sweetspot_monitor::{CostModel, EpochAccount, EpochLedger};
use sweetspot_telemetry::{
    paper_scale_work, scaled_work, DeviceTrace, FleetConfig, MetricProfile, SignalModel,
};
use sweetspot_timeseries::{Hertz, Seconds};

use metrics::{EpochSnapshot, MetricsRecorder, MetricsSummary, ShardMetrics, WatchdogCounters};
use quality::{DeviceQuality, FleetQuality};
use scenario::{DeviceEvent, ScenarioCounters, ScenarioEngine, ScenarioSpec, ScenarioStats};
use scheduler::SchedulerPolicy;

/// Primary-stream cost is amplified by the §4.1 companion stream at
/// `rate/φ`: one unit of granted rate costs `1 + 1/φ` in samples.
const VERIFY_OVERHEAD: f64 = 1.0 + 1.0 / sweetspot_core::aliasing::COMPANION_RATIO;

/// Fleet simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct FleetSimConfig {
    /// Fleet population (seed + devices per metric) when `paper_scale` is
    /// off. `trace_duration` is unused here — the simulation horizon is
    /// `days`.
    pub fleet: FleetConfig,
    /// Simulate the paper's full 1613-pair population (overrides
    /// `fleet.devices_per_metric`).
    pub paper_scale: bool,
    /// Simulate exactly this many metric-device pairs, tiling the 14-metric
    /// population round-robin ([`scaled_work`]) — the scale-out knob for
    /// fleets beyond 1613 (takes precedence over `fleet.devices_per_metric`;
    /// mutually exclusive with `paper_scale`).
    pub devices: Option<usize>,
    /// Simulation horizon in days.
    pub days: f64,
    /// Lockstep scheduling epoch. It must be long enough for production-rate
    /// streams to feed the §3.2 estimator (64+ samples) *and* to resolve the
    /// diurnal component — 24 h does both for every built-in profile, and
    /// re-budgeting daily is what a real fleet would do. Devices that settle
    /// slower than the window resolves simply hold their rate (see
    /// `core::adaptive` on evidence-free epochs).
    pub window: Seconds,
    /// Worker threads (0 ⇒ available parallelism). Never changes output.
    pub threads: usize,
    /// Resource prices (shared by scheduler and ledger).
    pub cost: CostModel,
    /// Per-metric water-filling weights, indexed by
    /// [`MetricKind::index`](sweetspot_telemetry::MetricKind). Neutral 1.0
    /// by default.
    pub metric_weights: [f64; 14],
    /// Settled members run §4.1 dual-rate verification every `k`-th epoch
    /// (probing epochs always verify; anomalies pull verification forward).
    /// 1 — the default — is continuous verification, today's behavior.
    pub verify_every: usize,
    /// Byte cap on the FFT plan-table caches, split evenly across worker
    /// shards (`None` = unbounded). Tables are pure functions of transform
    /// length, so the cap **never changes output** — over budget, each
    /// shard's cache evicts least-recently-used tables and rebuilds them
    /// bit-identically on demand, trading table-setup time for memory. The
    /// default ([`FFT_TABLE_BUDGET_DEFAULT`]) only binds when a fleet sweeps
    /// many distinct stream lengths — ~10⁵ adaptive controllers each polling
    /// at its own rate; smaller fleets never evict.
    pub fft_table_budget: Option<usize>,
    /// Fleet lifecycle & failure injection (see [`scenario`]). The default
    /// — [`ScenarioSpec::none`] — deals `Healthy` to every device every
    /// epoch through the same step path as any other scenario, which leaves
    /// the healthy run's outputs untouched; only the scenario report
    /// (`PolicyOutcome::scenario`, the snapshot's `dealt` totals) is
    /// omitted.
    pub scenario: ScenarioSpec,
    /// Fraction of the epoch budget reserved as the watchdog's **recovery
    /// slice**: each epoch, after the ordinary grants are placed, suspect-
    /// deadlocked members may be forced into a re-probe above their
    /// remembered max, drawing at most `frac × budget` of *extra* rate (on
    /// top of the budget — the slice is the measured price of self-healing,
    /// and the ledger's `granted` column excludes it so budget invariants
    /// hold). Re-probes back off exponentially per member and stop after
    /// [`REPROBE_RETRY_CAP`] attempts. `0.0` — the default — disarms the
    /// watchdog: the run carries none, its pass never runs, and outputs
    /// omit the watchdog tallies.
    pub recovery_budget_frac: f64,
}

/// Default total FFT plan-cache budget: 6 GiB across all shards. An
/// uncapped 10⁵-device run sweeps enough distinct stream lengths to grow
/// unbounded caches past 19 GB (every rate a controller ever probes is a
/// new transform length); 6 GiB keeps the hot set resident while stale
/// ramp-era lengths are evicted.
pub const FFT_TABLE_BUDGET_DEFAULT: usize = 6 << 30;

impl Default for FleetSimConfig {
    fn default() -> Self {
        FleetSimConfig {
            fleet: FleetConfig {
                seed: 0x5EED_CAFE,
                devices_per_metric: 8,
                trace_duration: Seconds::from_days(1.0),
            },
            paper_scale: false,
            devices: None,
            days: 10.0,
            window: Seconds::from_days(1.0),
            threads: 0,
            cost: CostModel::default(),
            metric_weights: [1.0; 14],
            verify_every: 1,
            fft_table_budget: Some(FFT_TABLE_BUDGET_DEFAULT),
            scenario: ScenarioSpec::none(),
            recovery_budget_frac: 0.0,
        }
    }
}

/// Watchdog re-probe attempts per member before giving up. A member that
/// keeps classifying suspect after this many elevated probes is either
/// genuinely calmed (every re-probe verified clean and re-settled low — the
/// suspicion is structural, not a deadlock) or beyond fleet-side help;
/// either way the watchdog stops spending on it. With exponential backoff
/// (`2^retries` epochs between attempts) the per-member lifetime spend is
/// bounded at a handful of fast epochs.
pub const REPROBE_RETRY_CAP: u32 = 5;

impl FleetSimConfig {
    fn work(&self) -> Vec<(MetricProfile, usize)> {
        assert!(
            !(self.paper_scale && self.devices.is_some()),
            "paper_scale and devices are mutually exclusive"
        );
        if self.paper_scale {
            paper_scale_work()
        } else if let Some(pairs) = self.devices {
            scaled_work(pairs)
        } else {
            self.fleet.work_list()
        }
    }

    fn epochs(&self) -> usize {
        ((self.days * 86_400.0) / self.window.value()).ceil().max(1.0) as usize
    }

    fn resolve_threads(&self, work_items: usize) -> usize {
        crate::shard::resolve_threads(self.threads, work_items)
    }
}

/// The controller configuration a fleet member runs under: start at the
/// production default, floor three decades below it, ceiling 8× above
/// (enough headroom for the worst 3×-folding under-sampled devices).
///
/// Headroom runs at 1.9 rather than the 1.65 verification floor: at the
/// floor the companion stream's folding frequency sits ≈5% above the band
/// edge, and spectral leakage on day-window periodograms flaps the §4.1
/// detector (settle → false alarm → probe → settle). 1.9 buys a ~17%
/// guard band; the extra samples are what continuous verification really
/// costs at fleet scale.
pub fn member_config(profile: &MetricProfile, window: Seconds) -> AdaptiveConfig {
    let prod = profile.production_rate().value();
    // Counters quantize coarsely, and every poll draws fresh measurement
    // noise: sub-bands that only hold (decorrelated) noise would flip the
    // detector forever. Compare only bands that stand *out* of a flat
    // spectrum — at 24 bands the uniform share is ~4.2%, so an 8% floor
    // keeps every structured band and drops the pure-noise ones.
    let detector = sweetspot_core::aliasing::DualRateConfig {
        relative_floor: 0.08,
        ..Default::default()
    };
    AdaptiveConfig {
        initial_rate: Hertz(prod),
        min_rate: Hertz(prod / 1024.0),
        max_rate: Hertz(prod * 8.0),
        headroom: 1.9,
        epoch: window,
        detector,
        ..AdaptiveConfig::default()
    }
}

/// Wall-clock totals of the simulation phases. Worker time is summed across
/// threads (aggregate CPU, like `study::PhaseTimings`); timing never
/// influences results, so output stays byte-identical across `--threads N`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetTimings {
    /// Member construction (trace synthesis models + controllers).
    pub build: Duration,
    /// Controller epochs: polling, dual-rate detection, estimation.
    pub step: Duration,
    /// Scheduling + ledger/quality aggregation (serial, main thread).
    pub schedule: Duration,
}

impl FleetTimings {
    /// Sum of all phases.
    pub fn total(&self) -> Duration {
        self.build + self.step + self.schedule
    }

    fn merge(&mut self, other: FleetTimings) {
        self.build += other.build;
        self.step += other.step;
        self.schedule += other.schedule;
    }
}

/// One worker's shard: member records in one contiguous slab plus the
/// single working set every member on the shard steps through. Durable
/// state scales with devices; working state scales with workers.
struct ShardState {
    /// Member records, contiguous, in fleet order within the shard.
    members: Slab<FleetMember>,
    /// The shard's working set, lent to each member in turn.
    scratch: EpochScratch,
    /// A handle on the shard's shared FFT plan cache (every member holds a
    /// clone) — kept for the post-run `fft_table_bytes` accounting.
    planner: FftPlanner,
}

impl ShardState {
    /// Durable bytes: the slab block plus each member's owned heap.
    fn member_bytes(&self) -> usize {
        self.members.resident_bytes()
            + self.members.iter().map(FleetMember::heap_bytes).sum::<usize>()
    }
}

/// Resident-heap accounting of a finished run (high-water: scratch buffers
/// only grow). The memory-wall invariant is `scratch_bytes` scaling with
/// `workers` while `member_bytes / devices` stays flat.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemoryStats {
    /// Durable per-member state: slab blocks, trace identity, signal model.
    pub member_bytes: usize,
    /// Worker scratch high-water, summed over all shards.
    pub scratch_bytes: usize,
    /// Post-run residency of the per-shard FFT plan-table caches, summed —
    /// capped by [`FleetSimConfig::fft_table_budget`] when one is set.
    pub fft_table_bytes: usize,
    /// Shards (= worker scratch instances).
    pub workers: usize,
}

impl MemoryStats {
    /// Durable bytes per device — the number that must stay flat as the
    /// fleet scales.
    pub fn bytes_per_member(&self, devices: usize) -> f64 {
        if devices == 0 {
            0.0
        } else {
            self.member_bytes as f64 / devices as f64
        }
    }
}

/// One policy's complete simulation outcome.
#[derive(Debug, Clone)]
pub struct PolicyOutcome {
    /// The scheduling policy simulated.
    pub policy: SchedulerPolicy,
    /// Budget per epoch in cost units (`f64::INFINITY` when uncapped).
    pub budget_per_epoch: f64,
    /// Fleet size.
    pub devices: usize,
    /// Lockstep epochs simulated.
    pub epochs: usize,
    /// Epoch window.
    pub window: Seconds,
    /// Per-epoch shared-budget accounting.
    pub ledger: EpochLedger,
    /// Per-device quality scores, in fleet order.
    pub device_quality: Vec<DeviceQuality>,
    /// Fleet-level quality aggregates.
    pub quality: FleetQuality,
    /// Phase timings (observability only).
    pub timing: FleetTimings,
    /// Resident-heap accounting (observability only).
    pub memory: MemoryStats,
    /// Fleet-scope metric totals (controller actions, FFT handle stats,
    /// scheduler maintenance, scenario events applied) — thread-invariant.
    pub metrics: MetricsSummary,
    /// What the scenario dealt and how the fleet weathered it — `None` for
    /// healthy (`--scenario none`) runs.
    pub scenario: Option<ScenarioStats>,
}

impl PolicyOutcome {
    /// Total cost units actually spent over the whole run.
    pub fn total_spent(&self) -> f64 {
        self.ledger.total_spent()
    }

    /// Quality bought per **kilo**-cost-unit: the frontier's y/x slope and
    /// the headline efficiency number.
    pub fn coverage_per_kilocost(&self) -> f64 {
        let spent = self.total_spent();
        if spent <= 0.0 {
            0.0
        } else {
            self.quality.mean_coverage / (spent / 1000.0)
        }
    }
}

/// Runs one policy at one budget over the configured fleet.
///
/// `budget_per_epoch` is in cost units (see [`CostModel::cost_per_sample`]);
/// pass `f64::INFINITY` for the uncapped baseline.
pub fn run_policy(
    cfg: &FleetSimConfig,
    policy: SchedulerPolicy,
    budget_per_epoch: f64,
) -> PolicyOutcome {
    run_policy_recorded(cfg, policy, budget_per_epoch, None)
}

/// [`run_policy`] with an optional [`MetricsRecorder`] attached: every
/// fleet-scope counter streams to the recorder as JSON-lines epoch
/// snapshots plus flight-recorder event lines. The counters themselves are
/// always on — a recorder only adds the journal, the grant histogram, and
/// the emission — so the simulation's own outputs (ledger, quality, stdout
/// renderings) are byte-identical with and without one.
pub fn run_policy_recorded(
    cfg: &FleetSimConfig,
    policy: SchedulerPolicy,
    budget_per_epoch: f64,
    mut recorder: Option<&mut MetricsRecorder>,
) -> PolicyOutcome {
    let work = cfg.work();
    let n = work.len();
    let epochs = cfg.epochs();
    let threads = cfg.resolve_threads(n);
    let chunk = crate::shard::chunk_size(n, threads);
    let mut timing = FleetTimings::default();

    // Build members (deterministic per (profile, idx, seed); build order is
    // the fleet order regardless of sharding). Every member on a shard gets
    // a clone of one per-shard FFT planner, so the shard holds each
    // twiddle/chirp/window table once — at 10⁵ devices, per-member caches
    // would otherwise dominate memory by orders of magnitude. Members land
    // directly in per-shard slabs; each shard also gets the one EpochScratch
    // its members will step through for the whole run.
    let t0 = Instant::now();
    let seed = cfg.fleet.seed;
    let window = cfg.window;
    let verify_every = cfg.verify_every.max(1);
    // Split the plan-cache budget across shards. Eviction rebuilds tables
    // bit-identically, so neither the budget nor the split affects output.
    let shard_fft_budget = cfg.fft_table_budget.map(|total| total / threads.max(1));
    let mut shards = crate::shard::fan_out(work.chunks(chunk).enumerate(), |(shard, span)| {
        let planner = FftPlanner::new();
        planner.set_table_budget(shard_fft_budget);
        let mut members = Slab::with_capacity(span.len());
        for (j, &(profile, device)) in span.iter().enumerate() {
            let mut config = member_config(&profile, window);
            config.verify_every = verify_every;
            members.push(FleetMember::with_planner(
                shard * chunk + j,
                DeviceTrace::synthesize(profile, device, seed),
                config,
                planner.clone(),
            ));
        }
        ShardState {
            members,
            scratch: EpochScratch::new(),
            planner,
        }
    });
    if let Some(rec) = recorder.as_deref_mut() {
        rec.begin_run(policy.name(), budget_per_epoch);
    }
    // Quality requirement per device. A quiescent device's signal never
    // moves a full quantum, so *any* rate fully captures what is observable:
    // its requirement is zero (coverage 1.0 by definition in `quality`).
    let mut nyquist: Vec<f64> = members(&shards)
        .map(|m| requirement(m, m.true_nyquist_rate()))
        .collect();
    let production: Vec<f64> = work
        .iter()
        .map(|(p, _)| p.production_rate().value())
        .collect();
    let weights: Vec<f64> = work
        .iter()
        .map(|(p, _)| cfg.metric_weights[p.kind.index()])
        .collect();

    // Failure injection. "No scenario" is the scenario that deals every
    // device `Healthy`: nobody leaves, sleeps or reboots, nothing is
    // counted, so the one step path below reproduces the healthy engine
    // bit for bit. Only the scenario *reporting* is gated on the spec.
    let engine = ScenarioEngine::new(cfg.scenario, epochs);
    let mut incident = engine
        .incident()
        .map(|_| IncidentClock::new(members(&shards), cfg.scenario.incident_factor));
    let cost_factors = engine.cost_factors(n);
    timing.build = t0.elapsed();

    // The scheduler works in rate space: convert the cost budget once.
    let unit_cost = cfg.cost.cost_per_sample();
    let epoch_unit = unit_cost * window.value() * VERIFY_OVERHEAD;
    let capacity_rate = budget_per_epoch / epoch_unit; // INF stays INF

    // One stateful scheduler per run: recycled buffers plus (for
    // water-filling) the incrementally maintained sorted order. Grants are
    // bit-identical to the stateless `scheduler::allocate` reference.
    let mut sched = policy.scheduler(&weights, &production);
    let mut ledger = EpochLedger::with_capacity(epochs);
    // Per-device vectors allocated once, so churn never resizes the
    // request/grant geometry (absent devices keep their slot, request 0.0,
    // and skip their step) and steady-state epochs stay allocation-free
    // even while devices leave, rejoin, and reboot.
    let mut requests = vec![0.0f64; n];
    let mut grants: Vec<f64> = Vec::with_capacity(n);
    let mut steps = vec![MemberStep::default(); n];
    let mut coverage_sum = vec![0.0f64; n];
    let mut active_epochs = vec![0usize; n];
    let mut epoch_means: Vec<f64> = Vec::with_capacity(epochs);
    let mut lifecycle = Lifecycle::new(n);
    let mut tallies = ShardMetrics::default();
    let mut watchdog = Watchdog::new(cfg.recovery_budget_frac, capacity_rate, epoch_unit, n);

    for epoch in 0..epochs {
        // Deal → request → allocate + watchdog, serial in device order.
        let t_sched = Instant::now();
        if let Some(clock) = &mut incident {
            clock.switch(epoch, &engine, members_mut(&mut shards), &mut nyquist);
        }
        lifecycle.deal(
            &engine,
            epoch,
            members_mut(&mut shards),
            recorder.as_deref_mut(),
        );
        for (i, (r, m)) in requests.iter_mut().zip(members(&shards)).enumerate() {
            *r = if lifecycle.polls(i) {
                m.requested_rate().value()
            } else {
                0.0
            };
        }
        sched.allocate(&requests, capacity_rate, &mut grants);
        let recovery_rate = match &mut watchdog {
            Some(wd) => wd.pass(
                epoch,
                members_mut(&mut shards),
                &lifecycle,
                &mut grants,
                recorder.as_deref_mut(),
            ),
            None => 0.0,
        };
        if let Some(rec) = recorder.as_deref_mut() {
            // Grant distribution histogram: fed serially in device order
            // (recovery top-ups included — they are real granted rate).
            for &g in &grants {
                rec.record_grant(g);
            }
        }
        timing.schedule += t_sched.elapsed();

        // Step: every shard's members, each writing its own `MemberStep`.
        let start = Seconds(epoch as f64 * window.value());
        let inputs = grants
            .chunks(chunk)
            .zip(lifecycle.events.chunks(chunk))
            .zip(nyquist.chunks(chunk));
        let worker_times = crate::shard::fan_out(
            shards.iter_mut().zip(steps.chunks_mut(chunk)).zip(inputs),
            |((shard, steps), ((grants, events), nyquist))| {
                let t = Instant::now();
                for (i, member) in shard.members.iter_mut().enumerate() {
                    steps[i] = step_member(
                        member,
                        events[i],
                        &mut shard.scratch,
                        start,
                        Hertz(grants[i]),
                        window,
                        nyquist[i],
                    );
                }
                t.elapsed()
            },
        );
        timing.step += worker_times.into_iter().sum::<Duration>();

        // Fold, serial in device order: tallies, the controller-transition
        // journal (so its contents and ring drops never depend on the
        // worker split; holds are not events), and coverage.
        let t_ledger = Instant::now();
        for (i, (member, (step, &event))) in members(&shards)
            .zip(steps.iter().zip(&lifecycle.events))
            .enumerate()
        {
            tallies.applied.record(event);
            if let Some(action) = step.action {
                tallies.controller.record(action, step.verified);
                if let (Some(rec), Some(kind)) =
                    (recorder.as_deref_mut(), metrics::action_kind(action))
                {
                    rec.journal(
                        epoch as u32,
                        i as u32,
                        kind,
                        member.requested_rate().value(),
                    );
                }
            }
            coverage_sum[i] += step.coverage;
            active_epochs[i] += step.counted as usize;
        }
        // Ledger: every sum in device index order (deterministic).
        let demanded: f64 = requests.iter().map(|r| r * epoch_unit).sum();
        // The recovery slice is spend *on top of* the budget: `granted`
        // excludes it so the scheduler's budget invariant (granted ≤ budget)
        // survives the watchdog, while `spent` bills every sample actually
        // taken — the slice's true cost shows up as spent − granted, and in
        // the watchdog counters. (Subtracting 0.0 is exact, so zero-frac
        // runs stay bit-identical.)
        let granted: f64 =
            grants.iter().map(|g| g * epoch_unit).sum::<f64>() - recovery_rate * epoch_unit;
        let samples: usize = steps.iter().map(|s| s.samples).sum();
        let throttled_devices = steps.iter().filter(|s| s.throttled).count();
        // Cost asymmetry bills through the ledger only — the schedulers
        // stay cost-naive, and what that naivety costs is the measurement.
        let spent = match &cost_factors {
            Some(f) => steps
                .iter()
                .zip(f)
                .map(|(s, &c)| s.samples as f64 * unit_cost * c)
                .sum(),
            None => samples as f64 * unit_cost,
        };
        ledger.record(EpochAccount {
            epoch,
            budget: budget_per_epoch,
            demanded,
            granted,
            samples,
            spent,
            throttled_devices,
        });
        // Fleet mean coverage this epoch (absent devices count as 0): the
        // recovery trajectory the incident analysis reads.
        epoch_means.push(steps.iter().map(|s| s.coverage).sum::<f64>() / n.max(1) as f64);
        if let Some(clock) = &mut incident {
            clock.observe(epoch, &lifecycle.events, &steps);
        }
        timing.schedule += t_ledger.elapsed();

        if let Some(rec) = recorder.as_deref_mut() {
            if rec.should_emit(epoch, epochs) {
                rec.emit_epoch(&EpochSnapshot {
                    policy: policy.name(),
                    budget: budget_per_epoch,
                    devices: n,
                    account: ledger.accounts().last().expect("epoch just recorded"),
                    shard: tallies,
                    fft: fft_handle_totals(&shards),
                    sched: sched.stats(),
                    dealt: cfg.scenario.is_active().then_some(&lifecycle.counters),
                    watchdog: watchdog.as_ref().map(|wd| wd.counters),
                });
            }
        }
    }

    let t_quality = Instant::now();
    // Coverage averages over the epochs a device was actually present for:
    // an absent device is not "uncovered", it is out of the study — but a
    // present device whose report was dropped scores the 0 it earned. A
    // healthy device is present every epoch, so it divides by the horizon.
    let device_quality: Vec<DeviceQuality> = members(&shards)
        .enumerate()
        .map(|(i, m)| DeviceQuality {
            index: i,
            kind: m.kind(),
            mean_coverage: coverage_sum[i] / active_epochs[i].max(1) as f64,
            final_rate: m.requested_rate().value(),
            deferred_epochs: m.sampler().deferred_epochs(),
            missed_epochs: m.sampler().missed_epochs(),
        })
        .collect();
    let quality = FleetQuality::from_devices(&device_quality);
    let scenario = cfg.scenario.is_active().then(|| {
        let (baseline_coverage, time_to_recover) = engine.recovery(&epoch_means);
        let (ttr_p50, ttr_p95, recovered_devices, unrecovered_devices) = incident
            .as_ref()
            .map_or((None, None, 0, 0), |c| c.summary(epochs));
        // Aliasing-deadlock census: present devices that end the run both
        // *classified* suspect-deadlocked (settled below their remembered
        // max with no aliasing alarm — see [`HealthState`]) and *actually*
        // under-covering their ground-truth requirement. The intersection
        // excludes the two benign neighbours: a legitimately-calmed signal
        // below its old ceiling (suspect but covered), and a budget-starved
        // device whose detector still flaps (under-covered but alarming —
        // the scheduler's problem, not a deadlock).
        let deadlocked = members(&shards)
            .enumerate()
            .filter(|&(i, m)| {
                lifecycle.active[i]
                    && nyquist[i] > 0.0
                    && m.sampler().health() == HealthState::SuspectDeadlocked
                    && quality::coverage(m.requested_rate(), Hertz(nyquist[i])) < 0.95
            })
            .count();
        ScenarioStats {
            label: cfg.scenario.label(),
            seed: cfg.scenario.seed,
            counters: lifecycle.counters,
            incident: engine.incident(),
            baseline_coverage,
            time_to_recover,
            ttr_p50,
            ttr_p95,
            recovered_devices,
            unrecovered_devices,
            deadlocked,
            epoch_mean_coverage: epoch_means,
        }
    });
    timing.schedule += t_quality.elapsed();

    // Scratch buffers only grow, so post-run capacities are the high-water.
    let memory = MemoryStats {
        member_bytes: shards.iter().map(ShardState::member_bytes).sum(),
        scratch_bytes: shards.iter().map(|s| s.scratch.resident_bytes()).sum(),
        fft_table_bytes: shards.iter().map(|s| s.planner.table_bytes()).sum(),
        workers: shards.len(),
    };
    let metrics = MetricsSummary {
        controller: tallies.controller,
        applied: tallies.applied,
        fft: fft_handle_totals(&shards),
        sched: sched.stats(),
        watchdog: watchdog.map(|wd| wd.counters),
    };

    PolicyOutcome {
        policy,
        budget_per_epoch,
        devices: n,
        epochs,
        window,
        ledger,
        device_quality,
        quality,
        timing,
        memory,
        scenario,
        metrics,
    }
}

/// Every member in fleet order, across shards.
fn members(shards: &[ShardState]) -> impl Iterator<Item = &FleetMember> {
    shards.iter().flat_map(|s| s.members.iter())
}

/// [`members`], mutably.
fn members_mut(shards: &mut [ShardState]) -> impl Iterator<Item = &mut FleetMember> {
    shards.iter_mut().flat_map(|s| s.members.iter_mut())
}

/// A member's ground-truth requirement given its signal's Nyquist rate:
/// zero for a quiescent device, whose signal never moves a full quantum.
fn requirement(member: &FleetMember, nyquist: Hertz) -> f64 {
    if member.device().trace().is_quiet() {
        0.0
    } else {
        nyquist.value()
    }
}

/// The fleet's lifecycle as the scenario deals it: who is present, what
/// each device drew this epoch, and the run's event totals. A healthy
/// scenario deals `Healthy` to everyone, so every device stays present and
/// every counter stays zero.
struct Lifecycle {
    /// Whether each device is online (absent devices keep their slot).
    active: Vec<bool>,
    /// Each device's event for the current epoch.
    events: Vec<DeviceEvent>,
    /// What was dealt over the run.
    counters: ScenarioCounters,
}

impl Lifecycle {
    fn new(devices: usize) -> Lifecycle {
        Lifecycle {
            active: vec![true; devices],
            events: vec![DeviceEvent::Healthy; devices],
            counters: ScenarioCounters::default(),
        }
    }

    /// Whether device `i` polls this epoch. Absent and sleeping devices
    /// request 0.0 and release their share — a sleeper without the request
    /// decay, so its wake epoch re-requests the full rate.
    fn polls(&self, i: usize) -> bool {
        self.active[i] && self.events[i] != DeviceEvent::Dormant
    }

    /// Deals this epoch's events — serial, pure hashing, so the fault
    /// schedule is identical for every policy and thread count. Reboots
    /// apply here (cheap state resets) so a rebooted member's *request*
    /// already reflects its re-ramp. Lifecycle transitions feed the flight
    /// recorder in device order; continued absences and scheduled sleep are
    /// counted but not journaled — they are high-volume steady state and
    /// would drown the ring.
    fn deal<'a>(
        &mut self,
        engine: &ScenarioEngine,
        epoch: usize,
        members: impl Iterator<Item = &'a mut FleetMember>,
        mut recorder: Option<&mut MetricsRecorder>,
    ) {
        let c = &mut self.counters;
        for (i, member) in members.enumerate() {
            let event = engine.deal(epoch, i, self.active[i]);
            let journal_kind = match event {
                DeviceEvent::Absent => {
                    let left = self.active[i];
                    c.leaves += left as usize;
                    c.absent_epochs += 1;
                    self.active[i] = false;
                    left.then_some("leave")
                }
                DeviceEvent::Reboot => {
                    let joined = !self.active[i];
                    c.joins += joined as usize;
                    c.reboots += 1;
                    self.active[i] = true;
                    member.reboot();
                    Some(if joined { "join" } else { "reboot" })
                }
                DeviceEvent::ReportDropped => {
                    c.dropped_reports += 1;
                    Some("report_drop")
                }
                DeviceEvent::ReportDelayed => {
                    c.delayed_reports += 1;
                    Some("report_delay")
                }
                DeviceEvent::ReportDuplicated => {
                    c.duplicated_reports += 1;
                    Some("report_dup")
                }
                DeviceEvent::Dormant => {
                    c.dormant_epochs += 1;
                    None
                }
                DeviceEvent::Healthy => None,
            };
            if let (Some(rec), Some(kind)) = (recorder.as_deref_mut(), journal_kind) {
                rec.journal(epoch as u32, i as u32, kind, 0.0);
            }
            self.events[i] = event;
        }
    }
}

/// The watchdog's recovery plane: the epoch's recovery pool, each member's
/// re-probe backoff, and the run's tallies. Built only when
/// [`FleetSimConfig::recovery_budget_frac`] is positive; without one the
/// pass never runs and every output bit matches an engine that has none.
struct Watchdog {
    /// Extra rate the watchdog may grant per epoch: `frac × capacity`.
    pool: f64,
    /// Cost units per unit of granted rate over one epoch.
    epoch_unit: f64,
    /// Re-probes forced so far, per member.
    retries: Vec<u32>,
    /// First epoch each member may be re-probed again.
    due: Vec<usize>,
    counters: WatchdogCounters,
}

impl Watchdog {
    fn new(frac: f64, capacity_rate: f64, epoch_unit: f64, devices: usize) -> Option<Watchdog> {
        (frac > 0.0).then(|| Watchdog {
            pool: frac * capacity_rate, // INF stays INF
            epoch_unit,
            retries: vec![0; devices],
            due: vec![0; devices],
            counters: WatchdogCounters::default(),
        })
    }

    /// One pass, serial in device order, after the ordinary grants are
    /// placed: force suspect-deadlocked members into a re-probe above their
    /// remembered max, spending at most the pool of *extra* rate — a bounded
    /// recovery slice on top of the budget that can never displace a
    /// healthy device's grant. Each member backs off exponentially between
    /// attempts and gives up after [`REPROBE_RETRY_CAP`]; sleeping and
    /// absent members are never probed. Affordability is peeked before the
    /// controller is committed, so a dry pool perturbs nothing. Returns the
    /// extra rate granted.
    fn pass<'a>(
        &mut self,
        epoch: usize,
        members: impl Iterator<Item = &'a mut FleetMember>,
        lifecycle: &Lifecycle,
        grants: &mut [f64],
        mut recorder: Option<&mut MetricsRecorder>,
    ) -> f64 {
        let wd = &mut self.counters;
        let mut pool = self.pool;
        let mut recovery_rate = 0.0f64;
        wd.healthy = 0;
        wd.recovering = 0;
        wd.suspect = 0;
        wd.dormant = 0;
        for (i, member) in members.enumerate() {
            if !lifecycle.active[i] {
                continue; // offline: out of the census, never probed
            }
            let health = if lifecycle.events[i] == DeviceEvent::Dormant {
                // The nap is dealt but not yet stepped; the controller's
                // own flag still reflects the previous epoch.
                HealthState::Dormant
            } else {
                member.sampler().health()
            };
            match health {
                HealthState::Healthy => wd.healthy += 1,
                HealthState::Recovering => wd.recovering += 1,
                HealthState::SuspectDeadlocked => wd.suspect += 1,
                HealthState::Dormant => wd.dormant += 1,
            }
            if health != HealthState::SuspectDeadlocked
                || self.retries[i] >= REPROBE_RETRY_CAP
                || epoch < self.due[i]
            {
                continue;
            }
            let extra = (member.sampler().reprobe_rate().value() - grants[i]).max(0.0);
            if extra > pool {
                wd.starved += 1;
                continue;
            }
            pool -= extra;
            let target = member.sampler_mut().begin_reprobe().value();
            grants[i] = grants[i].max(target);
            recovery_rate += extra;
            wd.reprobes += 1;
            wd.recovery_granted += extra * self.epoch_unit;
            self.retries[i] += 1;
            self.due[i] = epoch + (1usize << self.retries[i].min(20));
            if let Some(rec) = recorder.as_deref_mut() {
                rec.journal(epoch as u32, i as u32, "reprobe", target);
            }
        }
        recovery_rate
    }
}

/// One device's incident phase and recovery clock.
#[derive(Debug, Clone, Copy)]
struct DeviceClock {
    /// Requirement of the model currently swapped *out*.
    alt_nyquist: f64,
    /// Whether the device currently runs its incident-phase model.
    in_incident: bool,
    /// Whether the device has entered the incident at least once.
    seen_onset: bool,
    /// Coverage summed over pre-onset epochs it was awake and present for.
    base_sum: f64,
    base_epochs: usize,
    /// Epoch of the latest incident exit (`None` while inside or before).
    exit: Option<usize>,
    /// Epochs from the exit back to ≥95% of baseline, once measured.
    ttr: Option<usize>,
}

/// Per-member incident phase plus the per-device recovery clock, built only
/// when the scenario has a regime incident. Every member's incident-phase
/// signal model is pre-built (tone frequencies scaled, identity and noise
/// seed untouched), so phase boundaries only `mem::swap` models and
/// requirements — no allocation, no re-synthesis.
struct IncidentClock {
    /// Each member's swapped-out signal model.
    alt_models: Vec<SignalModel>,
    devices: Vec<DeviceClock>,
}

impl IncidentClock {
    fn new<'a>(members: impl Iterator<Item = &'a FleetMember>, factor: f64) -> IncidentClock {
        let (alt_models, devices) = members
            .map(|m| {
                let alt = m.device().trace().regime_model(factor);
                let clock = DeviceClock {
                    alt_nyquist: requirement(m, alt.nyquist_rate()),
                    in_incident: false,
                    seen_onset: false,
                    base_sum: 0.0,
                    base_epochs: 0,
                    exit: None,
                    ttr: None,
                };
                (alt, clock)
            })
            .unzip();
        IncidentClock {
            alt_models,
            devices,
        }
    }

    /// Regime phase boundaries, per member: each device swaps to its other
    /// model when *its own* incident activity flips (staggered and diurnal
    /// regimes switch members individually; the one-shot incident flips the
    /// whole fleet at the same two epochs). The ground-truth requirement
    /// swaps with the model, and the transitions clock the recovery tracker.
    fn switch<'a>(
        &mut self,
        epoch: usize,
        engine: &ScenarioEngine,
        members: impl Iterator<Item = &'a mut FleetMember>,
        nyquist: &mut [f64],
    ) {
        for (i, (member, alt)) in members.zip(self.alt_models.iter_mut()).enumerate() {
            let d = &mut self.devices[i];
            let now = engine.incident_active(epoch, i);
            if now == d.in_incident {
                continue;
            }
            member.swap_model(alt);
            std::mem::swap(&mut nyquist[i], &mut d.alt_nyquist);
            d.in_incident = now;
            if now {
                // (Re-)entering the incident: the clock restarts from the
                // next exit.
                d.seen_onset = true;
                d.exit = None;
                d.ttr = None;
            } else {
                d.exit = Some(epoch);
            }
        }
    }

    /// The recovery clock, serial in device order. A device's baseline is
    /// its mean coverage over pre-onset epochs it was actually awake and
    /// present for; after its incident exits, the first such epoch back at
    /// ≥95% of that baseline stamps its time-to-recover.
    fn observe(&mut self, epoch: usize, events: &[DeviceEvent], steps: &[MemberStep]) {
        for ((d, event), step) in self.devices.iter_mut().zip(events).zip(steps) {
            if matches!(event, DeviceEvent::Absent | DeviceEvent::Dormant) {
                continue;
            }
            if !d.seen_onset {
                d.base_sum += step.coverage;
                d.base_epochs += 1;
            } else if let (None, Some(exit)) = (d.ttr, d.exit) {
                if d.base_epochs > 0 && step.coverage >= 0.95 * d.base_sum / d.base_epochs as f64 {
                    d.ttr = Some(epoch - exit);
                }
            }
        }
    }

    /// `(p50, p95, recovered, unrecovered)` over devices that saw an
    /// incident. The quantiles come from an obs log-bucket histogram fed in
    /// device order — the fleet-mean time-to-recover hides the slow tail
    /// the p95 exposes.
    fn summary(&self, epochs: usize) -> (Option<f64>, Option<f64>, usize, usize) {
        let mut hist = sweetspot_obs::Histogram::log_scale(1.0, (epochs as f64).max(2.0), 32);
        let (mut recovered, mut unrecovered) = (0usize, 0usize);
        for d in self.devices.iter().filter(|d| d.seen_onset) {
            match d.ttr {
                Some(e) => {
                    recovered += 1;
                    hist.record(e as f64);
                }
                None => unrecovered += 1,
            }
        }
        if hist.count() == 0 {
            return (None, None, recovered, unrecovered);
        }
        (
            Some(hist.quantile(0.50)),
            Some(hist.quantile(0.95)),
            recovered,
            unrecovered,
        )
    }
}

/// Per-device outcome of one epoch: the quality/ledger inputs plus the
/// controller action and verification flag the metrics layer tallies.
/// Workers write one per device; the serial fold reads them in device
/// order.
#[derive(Debug, Clone, Copy, Default)]
struct MemberStep {
    coverage: f64,
    samples: usize,
    throttled: bool,
    /// Whether this epoch counts toward the device's active-epoch divisor.
    counted: bool,
    /// Controller decision this epoch; `None` while absent or asleep.
    action: Option<EpochAction>,
    verified: bool,
}

/// Steps one member through one epoch under its dealt event — the engine's
/// only per-member step.
///
/// Reboots were already applied serially when the event was dealt, so here
/// `Reboot` steps like `Healthy` (the first post-reboot epoch *is* a normal
/// epoch, just from re-ramp state). An absent device does nothing. A
/// sleeping one takes no samples and — unlike an absence — does not decay
/// its request; the controller merely notes its state aged and owes a
/// verification on wake. A dropped report takes no samples and earns no
/// coverage; a delayed report takes (and bills) its samples but the
/// controller's adaptation froze; a duplicated report bills double.
fn step_member(
    member: &mut FleetMember,
    event: DeviceEvent,
    scratch: &mut EpochScratch,
    start: Seconds,
    grant: Hertz,
    window: Seconds,
    nyquist: f64,
) -> MemberStep {
    let report = match event {
        DeviceEvent::Absent => return MemberStep::default(),
        DeviceEvent::Dormant => {
            member.sampler_mut().note_dormant_epoch();
            return MemberStep::default();
        }
        DeviceEvent::ReportDropped => member.sampler_mut().note_missed_epoch(start, grant, window),
        DeviceEvent::ReportDelayed => member.step_epoch_delayed(scratch, start, grant, window),
        DeviceEvent::ReportDuplicated | DeviceEvent::Healthy | DeviceEvent::Reboot => {
            member.step_epoch(scratch, start, grant, window)
        }
    };
    MemberStep {
        coverage: quality::coverage(report.primary_rate, Hertz(nyquist)),
        samples: match event {
            DeviceEvent::ReportDropped => 0,
            DeviceEvent::ReportDuplicated => report.samples_taken * 2,
            _ => report.samples_taken,
        },
        throttled: report.throttled,
        counted: true,
        action: Some(report.action),
        verified: report.verified,
    }
}

/// Sums per-member FFT planner-handle counters in fleet (device) order.
/// Handle counters are owned by each member's planner clone, so the totals
/// are independent of how the fleet was sharded across workers.
fn fft_handle_totals(shards: &[ShardState]) -> FftHandleStats {
    let mut totals = FftHandleStats::default();
    for member in members(shards) {
        totals.merge(&member.fft_handle_stats());
    }
    totals
}

/// One row of the cost-vs-quality frontier.
#[derive(Debug, Clone)]
pub struct FrontierPoint {
    /// Budget as a fraction of the uncapped steady demand (`None` for the
    /// uncapped row and for absolute `--budget` runs).
    pub fraction: Option<f64>,
    /// The simulation outcome.
    pub outcome: PolicyOutcome,
}

/// The fleet cost-vs-quality frontier: one [`FrontierPoint`] per
/// (policy, budget) pair, plus the anchor demand the ladder was scaled by.
#[derive(Debug, Clone)]
pub struct FleetFrontier {
    /// All simulated points, in render order.
    pub points: Vec<FrontierPoint>,
    /// Uncapped steady demand (last-epoch spend of the uncapped run), in
    /// cost units per epoch — the budget ladder's 100% anchor.
    pub steady_demand: f64,
    /// Fleet size.
    pub devices: usize,
    /// Epochs simulated per point.
    pub epochs: usize,
    /// Epoch window.
    pub window: Seconds,
    /// Fleet seed (for reproduction).
    pub seed: u64,
    /// Scenario label + seed when failure injection was on (`None` for
    /// healthy sweeps — the rendering stays byte-identical to a
    /// scenario-free build).
    pub scenario: Option<String>,
}

/// Budget ladder for the frontier sweep, as fractions of steady demand.
pub const FRONTIER_FRACTIONS: [f64; 4] = [0.1, 0.25, 0.5, 1.0];

/// Policies swept at every budget rung (the uncapped baseline runs once).
/// The capped policies a default frontier sweep runs (the uncapped
/// baseline is implicit — it anchors the budget ladder).
pub const CAPPED_POLICIES: [SchedulerPolicy; 3] = [
    SchedulerPolicy::Uniform,
    SchedulerPolicy::Fair,
    SchedulerPolicy::WaterFill,
];

/// Runs the full frontier sweep: the uncapped baseline, then every capped
/// policy at every [`FRONTIER_FRACTIONS`] rung of the steady demand.
pub fn run_frontier(cfg: &FleetSimConfig) -> FleetFrontier {
    run_frontier_for(cfg, &CAPPED_POLICIES)
}

/// [`run_frontier`] restricted to a chosen set of capped policies (the
/// uncapped baseline always runs — it anchors the budget ladder).
pub fn run_frontier_for(cfg: &FleetSimConfig, policies: &[SchedulerPolicy]) -> FleetFrontier {
    run_frontier_for_recorded(cfg, policies, None)
}

/// [`run_frontier_for`] with an optional [`MetricsRecorder`]: each frontier
/// point streams its epoch snapshots through the same recorder, in sweep
/// order, so one JSONL file carries the whole frontier.
pub fn run_frontier_for_recorded(
    cfg: &FleetSimConfig,
    policies: &[SchedulerPolicy],
    mut recorder: Option<&mut MetricsRecorder>,
) -> FleetFrontier {
    let uncapped = run_policy_recorded(
        cfg,
        SchedulerPolicy::Uncapped,
        f64::INFINITY,
        recorder.as_deref_mut(),
    );
    let steady_demand = uncapped
        .ledger
        .accounts()
        .last()
        .map_or(0.0, |a| a.spent);
    let mut points = vec![FrontierPoint {
        fraction: None,
        outcome: uncapped,
    }];
    for &fraction in &FRONTIER_FRACTIONS {
        for &policy in policies {
            if policy == SchedulerPolicy::Uncapped {
                continue;
            }
            points.push(FrontierPoint {
                fraction: Some(fraction),
                outcome: run_policy_recorded(
                    cfg,
                    policy,
                    fraction * steady_demand,
                    recorder.as_deref_mut(),
                ),
            });
        }
    }
    frontier(cfg, points, steady_demand)
}

/// Runs a single budget point: one policy (or, with `policy == None`, all
/// four) at an absolute per-epoch budget.
pub fn run_point(
    cfg: &FleetSimConfig,
    budget_per_epoch: f64,
    policy: Option<SchedulerPolicy>,
) -> FleetFrontier {
    run_point_recorded(cfg, budget_per_epoch, policy, None)
}

/// [`run_point`] with an optional [`MetricsRecorder`] attached to every
/// policy run at the point.
pub fn run_point_recorded(
    cfg: &FleetSimConfig,
    budget_per_epoch: f64,
    policy: Option<SchedulerPolicy>,
    mut recorder: Option<&mut MetricsRecorder>,
) -> FleetFrontier {
    let policies: Vec<SchedulerPolicy> =
        policy.map_or_else(|| SchedulerPolicy::ALL.to_vec(), |p| vec![p]);
    let points: Vec<FrontierPoint> = policies
        .into_iter()
        .map(|p| {
            let budget = if p == SchedulerPolicy::Uncapped {
                f64::INFINITY
            } else {
                budget_per_epoch
            };
            FrontierPoint {
                fraction: None,
                outcome: run_policy_recorded(cfg, p, budget, recorder.as_deref_mut()),
            }
        })
        .collect();
    let steady_demand = points
        .iter()
        .find(|pt| pt.outcome.policy == SchedulerPolicy::Uncapped)
        .and_then(|pt| pt.outcome.ledger.accounts().last())
        .map_or(0.0, |a| a.spent);
    frontier(cfg, points, steady_demand)
}

fn frontier(cfg: &FleetSimConfig, points: Vec<FrontierPoint>, steady_demand: f64) -> FleetFrontier {
    let (devices, epochs) = points
        .first()
        .map_or((0, 0), |p| (p.outcome.devices, p.outcome.epochs));
    FleetFrontier {
        points,
        steady_demand,
        devices,
        epochs,
        window: cfg.window,
        seed: cfg.fleet.seed,
        scenario: cfg.scenario.is_active().then(|| {
            format!(
                "{} (scenario seed {:#x})",
                cfg.scenario.label(),
                cfg.scenario.seed
            )
        }),
    }
}

impl FleetFrontier {
    /// Summed phase timings over every simulated point.
    pub fn timing(&self) -> FleetTimings {
        let mut t = FleetTimings::default();
        for p in &self.points {
            t.merge(p.outcome.timing);
        }
        t
    }

    /// Text rendering: the frontier table plus one headline per policy.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Fleet simulation: {} devices, {} epochs x {:.1} h (seed {:#x})\n",
            self.devices,
            self.epochs,
            self.window.value() / 3600.0,
            self.seed,
        );
        if self.steady_demand > 0.0 {
            out.push_str(&format!(
                "steady uncapped demand: {:.1} cost units/epoch\n",
                self.steady_demand
            ));
        }
        if let Some(label) = &self.scenario {
            out.push_str(&format!("scenario: {label}\n"));
            // Event totals are a pure function of the scenario seed — the
            // same schedule hits every policy — so the first point speaks
            // for all of them.
            if let Some(stats) = self.points.iter().find_map(|p| p.outcome.scenario.as_ref()) {
                let c = stats.counters;
                out.push_str(&format!(
                    "  events: {} leaves / {} joins / {} reboots, {} absent / {} dormant device-epochs, reports: {} dropped / {} duplicated / {} delayed\n",
                    c.leaves,
                    c.joins,
                    c.reboots,
                    c.absent_epochs,
                    c.dormant_epochs,
                    c.dropped_reports,
                    c.duplicated_reports,
                    c.delayed_reports,
                ));
                if let Some(inc) = &stats.incident {
                    out.push_str(&format!(
                        "  incident: epochs {}..{} (recovery measured from epoch {})\n",
                        inc.start, inc.end, inc.end
                    ));
                }
            }
        }
        out.push('\n');
        // Only incidents have a recovery time worth a column.
        let recover_col = self
            .points
            .iter()
            .any(|p| p.outcome.scenario.as_ref().is_some_and(|s| s.incident.is_some()));
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| {
                let o = &p.outcome;
                let budget = if o.budget_per_epoch.is_infinite() {
                    "unlimited".to_string()
                } else if let Some(f) = p.fraction {
                    format!("{:>3.0}% ({:.1})", f * 100.0, o.budget_per_epoch)
                } else {
                    format!("{:.1}", o.budget_per_epoch)
                };
                let mut row = vec![
                    o.policy.name().to_string(),
                    budget,
                    format!("{:.1}", o.ledger.mean_spent_per_epoch()),
                    format!("{:.4}", o.quality.mean_coverage),
                    format!("{:.4}", o.quality.p10_coverage),
                    format!("{:>5.1}%", o.quality.covered_fraction * 100.0),
                    format!("{:>5.1}%", o.quality.starved_fraction * 100.0),
                    format!("{:>5.1}%", o.ledger.throttled_fraction(o.devices) * 100.0),
                    format!("{:.3e}", o.coverage_per_kilocost()),
                ];
                if recover_col {
                    // p50/p95 of the per-device recovery histogram — the
                    // fleet-mean single number hid the slow tail.
                    row.push(match o.scenario.as_ref() {
                        Some(s) => match (s.ttr_p50, s.ttr_p95) {
                            (Some(p50), Some(p95)) => format!("{p50:.0}/{p95:.0} ep"),
                            _ => "never".to_string(),
                        },
                        None => "never".to_string(),
                    });
                    row.push(match o.scenario.as_ref() {
                        Some(s) => s.deadlocked.to_string(),
                        None => "-".to_string(),
                    });
                }
                row
            })
            .collect();
        let mut headers = vec![
            "policy",
            "budget/ep",
            "spent/ep",
            "coverage",
            "p10",
            "covered",
            "starved",
            "throttled",
            "cov/kcost",
        ];
        if recover_col {
            headers.push("recover p50/p95");
            headers.push("deadlocked");
        }
        out.push_str(&crate::report::table(&headers, &rows));
        out.push('\n');
        out.push_str(&self.headlines());
        out
    }

    /// One-line summary per policy: quality per cost unit, benchmarked
    /// against naive uniform throttling at the same budget.
    pub fn headlines(&self) -> String {
        let mut out = String::new();
        for point in &self.points {
            let o = &point.outcome;
            if o.policy == SchedulerPolicy::Uncapped {
                out.push_str(&format!(
                    "  uncapped : coverage {:.4} at {:.1} units/epoch steady — the per-device controller, fleet-wide\n",
                    o.quality.mean_coverage,
                    self.steady_demand,
                ));
                continue;
            }
            // Compare against uniform at the same budget rung, if present.
            let uniform = self.points.iter().find(|p| {
                p.outcome.policy == SchedulerPolicy::Uniform
                    && p.fraction == point.fraction
                    && p.outcome.budget_per_epoch == o.budget_per_epoch
            });
            let rung = match point.fraction {
                Some(f) => format!("{:>3.0}% budget", f * 100.0),
                None => format!("{:.1} units/ep", o.budget_per_epoch),
            };
            match uniform {
                Some(u) if o.policy != SchedulerPolicy::Uniform => {
                    let base = u.outcome.coverage_per_kilocost();
                    let gain = if base > 0.0 {
                        o.coverage_per_kilocost() / base
                    } else {
                        f64::INFINITY
                    };
                    out.push_str(&format!(
                        "  {:<9}@ {rung}: coverage {:.4} — {:.2}x quality per cost unit vs uniform\n",
                        o.policy.name(),
                        o.quality.mean_coverage,
                        gain,
                    ));
                }
                _ => {
                    out.push_str(&format!(
                        "  {:<9}@ {rung}: coverage {:.4} ({:.3e} per kcost)\n",
                        o.policy.name(),
                        o.quality.mean_coverage,
                        o.coverage_per_kilocost(),
                    ));
                }
            }
        }
        out
    }

    /// Machine-readable rendering (see `report::json`).
    pub fn to_json(&self) -> String {
        self.to_json_with(false)
    }

    /// [`to_json`](Self::to_json) with an opt-in per-device breakdown:
    /// `devices == true` adds a `"devices"` array to every frontier row
    /// (index, metric kind, final requested rate, mean coverage, and the
    /// deferred/missed epoch tallies, in fleet order). Off by default —
    /// at 10⁵ devices the breakdown dwarfs the summary rows.
    pub fn to_json_with(&self, devices: bool) -> String {
        use crate::report::json::{JsonArray, JsonObject};
        let mut rows = JsonArray::new();
        for p in &self.points {
            let o = &p.outcome;
            let mut row = JsonObject::new();
            row.field_str("policy", o.policy.name());
            match p.fraction {
                Some(f) => row.field_num("budget_fraction", f),
                None => row.field_null("budget_fraction"),
            };
            row.field_num("budget_per_epoch", o.budget_per_epoch);
            row.field_num("spent_per_epoch", o.ledger.mean_spent_per_epoch());
            row.field_num("total_spent", o.total_spent());
            row.field_num("total_samples", o.ledger.total_samples() as f64);
            row.field_num("mean_coverage", o.quality.mean_coverage);
            row.field_num("p10_coverage", o.quality.p10_coverage);
            row.field_num("covered_fraction", o.quality.covered_fraction);
            row.field_num("starved_fraction", o.quality.starved_fraction);
            row.field_num(
                "throttled_fraction",
                o.ledger.throttled_fraction(o.devices),
            );
            row.field_num("coverage_per_kilocost", o.coverage_per_kilocost());
            if let Some(sc) = &o.scenario {
                match sc.baseline_coverage {
                    Some(b) => row.field_num("baseline_coverage", b),
                    None => row.field_null("baseline_coverage"),
                };
                match sc.ttr_p50 {
                    Some(v) => row.field_num("ttr_p50_epochs", v),
                    None => row.field_null("ttr_p50_epochs"),
                };
                match sc.ttr_p95 {
                    Some(v) => row.field_num("ttr_p95_epochs", v),
                    None => row.field_null("ttr_p95_epochs"),
                };
                row.field_num("recovered_devices", sc.recovered_devices as f64);
                row.field_num("unrecovered_devices", sc.unrecovered_devices as f64);
                row.field_num("deadlocked_devices", sc.deadlocked as f64);
            }
            if let Some(wd) = &o.metrics.watchdog {
                row.field_num("reprobes", wd.reprobes as f64);
                row.field_num("reprobes_starved", wd.starved as f64);
                row.field_num("recovery_granted", wd.recovery_granted);
            }
            if devices {
                let mut per_device = JsonArray::new();
                for d in &o.device_quality {
                    let mut rec = JsonObject::new();
                    rec.field_num("index", d.index as f64);
                    rec.field_str("metric", d.kind.name());
                    rec.field_num("final_rate_hz", d.final_rate);
                    rec.field_num("mean_coverage", d.mean_coverage);
                    rec.field_num("deferred_epochs", d.deferred_epochs as f64);
                    rec.field_num("missed_epochs", d.missed_epochs as f64);
                    per_device.push_raw(&rec.finish());
                }
                row.field_raw("devices", &per_device.finish());
            }
            rows.push_raw(&row.finish());
        }
        let mut root = JsonObject::new();
        root.field_num("devices", self.devices as f64);
        root.field_num("epochs", self.epochs as f64);
        root.field_num("window_seconds", self.window.value());
        root.field_num("seed", self.seed as f64);
        // 0 means "no uncapped baseline ran": unknown, not literally zero.
        if self.steady_demand > 0.0 {
            root.field_num("steady_demand_per_epoch", self.steady_demand);
        } else {
            root.field_null("steady_demand_per_epoch");
        }
        if let Some(stats) = self.points.iter().find_map(|p| p.outcome.scenario.as_ref()) {
            let c = stats.counters;
            let mut sc = JsonObject::new();
            sc.field_str("label", &stats.label);
            sc.field_num("seed", stats.seed as f64);
            sc.field_num("leaves", c.leaves as f64);
            sc.field_num("joins", c.joins as f64);
            sc.field_num("reboots", c.reboots as f64);
            sc.field_num("absent_device_epochs", c.absent_epochs as f64);
            sc.field_num("dormant_device_epochs", c.dormant_epochs as f64);
            sc.field_num("dropped_reports", c.dropped_reports as f64);
            sc.field_num("duplicated_reports", c.duplicated_reports as f64);
            sc.field_num("delayed_reports", c.delayed_reports as f64);
            match &stats.incident {
                Some(inc) => {
                    sc.field_num("incident_start_epoch", inc.start as f64);
                    sc.field_num("incident_end_epoch", inc.end as f64);
                }
                None => {
                    sc.field_null("incident_start_epoch");
                    sc.field_null("incident_end_epoch");
                }
            }
            root.field_raw("scenario", &sc.finish());
        }
        root.field_raw("frontier", &rows.finish());
        root.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(threads: usize) -> FleetSimConfig {
        FleetSimConfig {
            fleet: FleetConfig {
                seed: 0xF1EE7,
                devices_per_metric: 2,
                trace_duration: Seconds::from_days(1.0),
            },
            days: 4.0,
            threads,
            ..FleetSimConfig::default()
        }
    }

    #[test]
    fn uncapped_covers_fleet_and_spends_demand() {
        let out = run_policy(&tiny_config(2), SchedulerPolicy::Uncapped, f64::INFINITY);
        assert_eq!(out.devices, 28);
        assert_eq!(out.epochs, 4);
        assert_eq!(out.ledger.epochs(), 4);
        // Nothing is ever throttled without a budget.
        assert_eq!(out.ledger.throttled_fraction(out.devices), 0.0);
        for d in &out.device_quality {
            assert_eq!(d.deferred_epochs, 0);
        }
        // The adaptive fleet keeps most devices alias-free.
        assert!(
            out.quality.mean_coverage > 0.85,
            "uncapped coverage {}",
            out.quality.mean_coverage
        );
    }

    #[test]
    fn output_is_identical_across_thread_counts() {
        let serial = run_policy(&tiny_config(1), SchedulerPolicy::Fair, 40.0);
        for threads in [2, 3, 5] {
            let parallel = run_policy(&tiny_config(threads), SchedulerPolicy::Fair, 40.0);
            assert_eq!(serial.ledger.accounts(), parallel.ledger.accounts());
            assert_eq!(serial.device_quality, parallel.device_quality);
            assert_eq!(serial.quality, parallel.quality);
        }
    }

    #[test]
    fn uncapped_fleet_matches_standalone_members() {
        // The engine's uncapped policy must walk each device through exactly
        // the trajectory its controller would take alone — the acceptance
        // guarantee that fleetsim changes nothing until budgets bind.
        let cfg = tiny_config(3);
        let out = run_policy(&cfg, SchedulerPolicy::Uncapped, f64::INFINITY);
        let work = cfg.work();
        for index in [0usize, 7, 27] {
            let (profile, device) = work[index];
            let mut member = FleetMember::new(
                index,
                sweetspot_telemetry::DeviceTrace::synthesize(profile, device, cfg.fleet.seed),
                member_config(&profile, cfg.window),
            );
            let requirement = if member.device().trace().is_quiet() {
                Hertz(0.0)
            } else {
                member.true_nyquist_rate()
            };
            let mut coverage = 0.0;
            let mut scratch = EpochScratch::new();
            for epoch in 0..out.epochs {
                let start = Seconds(epoch as f64 * cfg.window.value());
                let r = member.step_epoch(&mut scratch, start, member.requested_rate(), cfg.window);
                coverage += quality::coverage(r.primary_rate, requirement);
            }
            let expected = coverage / out.epochs as f64;
            assert_eq!(
                out.device_quality[index].mean_coverage, expected,
                "device {index} diverged from its standalone controller"
            );
        }
    }

    #[test]
    fn binding_budget_throttles_and_stays_within_spend() {
        let cfg = tiny_config(2);
        let uncapped = run_policy(&cfg, SchedulerPolicy::Uncapped, f64::INFINITY);
        let steady = uncapped.ledger.accounts().last().unwrap().spent;
        let budget = steady * 0.25;
        let fair = run_policy(&cfg, SchedulerPolicy::Fair, budget);
        assert!(
            fair.ledger.throttled_fraction(fair.devices) > 0.2,
            "a 4x cut must throttle: {}",
            fair.ledger.throttled_fraction(fair.devices)
        );
        // Steady-state epochs respect the budget (the first epoch pre-dates
        // any request information; min-rate floors add rounding slack).
        for account in &fair.ledger.accounts()[1..] {
            assert!(
                account.spent <= budget * 1.35 + 5.0,
                "epoch {} overspent: {} > {}",
                account.epoch,
                account.spent,
                budget
            );
        }
        assert!(fair.quality.mean_coverage < uncapped.quality.mean_coverage);
    }

    #[test]
    fn informed_policies_beat_naive_uniform_throttling() {
        // The acceptance criterion: under a binding budget, fair-share and
        // water-filling buy measurably more fleet quality per cost unit
        // than scaling every device's production rate uniformly — the
        // controllers' Nyquist knowledge is what the scheduler monetizes.
        let cfg = FleetSimConfig {
            fleet: FleetConfig {
                seed: 0xF1EE7,
                devices_per_metric: 4,
                trace_duration: Seconds::from_days(1.0),
            },
            days: 6.0,
            threads: 0,
            ..FleetSimConfig::default()
        };
        let uncapped = run_policy(&cfg, SchedulerPolicy::Uncapped, f64::INFINITY);
        let budget = uncapped.ledger.accounts().last().unwrap().spent * 0.5;
        let uniform = run_policy(&cfg, SchedulerPolicy::Uniform, budget);
        let fair = run_policy(&cfg, SchedulerPolicy::Fair, budget);
        let waterfill = run_policy(&cfg, SchedulerPolicy::WaterFill, budget);
        let eff = |o: &PolicyOutcome| o.coverage_per_kilocost();
        assert!(
            eff(&fair) > eff(&uniform) * 1.05,
            "fair {} vs uniform {}",
            eff(&fair),
            eff(&uniform)
        );
        assert!(
            eff(&waterfill) > eff(&uniform) * 1.05,
            "waterfill {} vs uniform {}",
            eff(&waterfill),
            eff(&uniform)
        );
        // The informed policies' real edge is the starvation tail: uniform
        // throttling blindly starves the devices that genuinely need their
        // rate, while demand-aware schedulers keep them alive.
        assert!(
            fair.quality.p10_coverage > uniform.quality.p10_coverage * 2.0,
            "fair p10 {} vs uniform p10 {}",
            fair.quality.p10_coverage,
            uniform.quality.p10_coverage
        );
        assert!(
            waterfill.quality.p10_coverage > uniform.quality.p10_coverage * 2.0,
            "waterfill p10 {} vs uniform p10 {}",
            waterfill.quality.p10_coverage,
            uniform.quality.p10_coverage
        );
    }

    #[test]
    fn frontier_sweeps_every_rung_and_renders() {
        let cfg = FleetSimConfig {
            fleet: FleetConfig {
                seed: 3,
                devices_per_metric: 1,
                trace_duration: Seconds::from_days(1.0),
            },
            days: 1.0,
            threads: 2,
            ..FleetSimConfig::default()
        };
        let frontier = run_frontier(&cfg);
        assert_eq!(frontier.points.len(), 1 + FRONTIER_FRACTIONS.len() * 3);
        let text = frontier.render();
        for name in ["uncapped", "uniform", "fair", "waterfill"] {
            assert!(text.contains(name), "{name} missing from:\n{text}");
        }
        assert!(text.contains("cov/kcost"));
        let json = frontier.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"frontier\":["));
        assert!(json.contains("\"policy\":\"waterfill\""));
    }

    #[test]
    fn scaled_fleet_runs_and_is_thread_deterministic() {
        // The --devices N path: a 50-pair round-robin fleet under a binding
        // water-fill budget must produce byte-identical results for any
        // worker count (the 10⁵-device guarantee, exercised small).
        let cfg = |threads| FleetSimConfig {
            devices: Some(50),
            days: 3.0,
            threads,
            ..FleetSimConfig::default()
        };
        let serial = run_policy(&cfg(1), SchedulerPolicy::WaterFill, 60.0);
        assert_eq!(serial.devices, 50);
        assert_eq!(serial.epochs, 3);
        for threads in [3, 4] {
            let parallel = run_policy(&cfg(threads), SchedulerPolicy::WaterFill, 60.0);
            assert_eq!(serial.ledger.accounts(), parallel.ledger.accounts());
            assert_eq!(serial.device_quality, parallel.device_quality);
            assert_eq!(serial.quality, parallel.quality);
        }
    }

    #[test]
    fn batched_verification_cuts_samples_and_stays_deterministic() {
        // --verify-every k: settled members skip the §4.1 companion stream
        // on k−1 of every k epochs, so the fleet must spend measurably
        // fewer samples than continuous verification — without giving up
        // thread determinism.
        let cfg = |threads, verify_every| FleetSimConfig {
            devices: Some(40),
            days: 8.0,
            threads,
            verify_every,
            ..FleetSimConfig::default()
        };
        let continuous = run_policy(&cfg(1, 1), SchedulerPolicy::Uncapped, f64::INFINITY);
        let batched = run_policy(&cfg(1, 3), SchedulerPolicy::Uncapped, f64::INFINITY);
        assert!(
            batched.ledger.total_samples() < continuous.ledger.total_samples(),
            "k=3 must acquire fewer samples: {} vs {}",
            batched.ledger.total_samples(),
            continuous.ledger.total_samples()
        );
        // Skipping verification must not wreck quality: rates can only be
        // held or raised on skipped epochs, never lowered.
        assert!(
            batched.quality.mean_coverage >= continuous.quality.mean_coverage * 0.98,
            "batched coverage {} vs continuous {}",
            batched.quality.mean_coverage,
            continuous.quality.mean_coverage
        );
        for threads in [2, 4] {
            let parallel = run_policy(&cfg(threads, 3), SchedulerPolicy::Uncapped, f64::INFINITY);
            assert_eq!(batched.ledger.accounts(), parallel.ledger.accounts());
            assert_eq!(batched.device_quality, parallel.device_quality);
        }
    }

    #[test]
    fn memory_stats_report_flat_members_and_worker_scratch() {
        let out = run_policy(&tiny_config(2), SchedulerPolicy::Uncapped, f64::INFINITY);
        assert!(out.memory.member_bytes > 0);
        assert!(out.memory.scratch_bytes > 0);
        assert!(out.memory.fft_table_bytes > 0);
        assert_eq!(out.memory.workers, 2);
        // Durable member state stays far below the legacy ~130 B/sample
        // working sets; a member is identity + model + controller only.
        assert!(
            out.memory.bytes_per_member(out.devices) < 4096.0,
            "durable bytes/member ballooned: {}",
            out.memory.bytes_per_member(out.devices)
        );
    }

    #[test]
    fn fft_table_budget_caps_the_cache_without_changing_output() {
        // A cap tight enough to force eviction churn on even this small
        // fleet must leave every observable output bit-identical to the
        // unbounded run — tables are pure data — while actually holding
        // the post-run cache at or under the per-shard floor.
        let cfg = |budget| FleetSimConfig {
            fft_table_budget: budget,
            ..tiny_config(2)
        };
        let unbounded = run_policy(&cfg(None), SchedulerPolicy::Uncapped, f64::INFINITY);
        let capped = run_policy(&cfg(Some(1)), SchedulerPolicy::Uncapped, f64::INFINITY);
        assert_eq!(unbounded.ledger.accounts(), capped.ledger.accounts());
        assert_eq!(unbounded.device_quality, capped.device_quality);
        assert_eq!(unbounded.quality, capped.quality);
        // A 1-byte total budget evicts everything but each in-flight table.
        assert!(
            capped.memory.fft_table_bytes < unbounded.memory.fft_table_bytes,
            "capped cache ({} B) did not shrink below unbounded ({} B)",
            capped.memory.fft_table_bytes,
            unbounded.memory.fft_table_bytes
        );
    }

    #[test]
    #[should_panic(expected = "mutually exclusive")]
    fn paper_scale_and_devices_conflict() {
        let cfg = FleetSimConfig {
            paper_scale: true,
            devices: Some(10),
            ..FleetSimConfig::default()
        };
        cfg.work();
    }

    #[test]
    fn run_point_single_policy() {
        let cfg = tiny_config(2);
        let f = run_point(&cfg, 30.0, Some(SchedulerPolicy::WaterFill));
        assert_eq!(f.points.len(), 1);
        assert_eq!(f.points[0].outcome.policy, SchedulerPolicy::WaterFill);
        assert_eq!(f.points[0].outcome.budget_per_epoch, 30.0);
    }

    #[test]
    fn scenario_runs_are_thread_deterministic() {
        // The full gauntlet — churn, regime incident, lossy reports — under
        // a binding water-fill budget must stay byte-identical for any
        // worker count: events are dealt from the scenario seed alone.
        let spec = ScenarioSpec {
            seed: 42,
            ..ScenarioSpec::parse("churn+incident+lossy-reports").unwrap()
        };
        let cfg = |threads| FleetSimConfig {
            scenario: spec,
            days: 8.0,
            ..tiny_config(threads)
        };
        let serial = run_policy(&cfg(1), SchedulerPolicy::WaterFill, 40.0);
        for threads in [2, 4] {
            let parallel = run_policy(&cfg(threads), SchedulerPolicy::WaterFill, 40.0);
            assert_eq!(serial.ledger.accounts(), parallel.ledger.accounts());
            assert_eq!(serial.device_quality, parallel.device_quality);
            assert_eq!(serial.quality, parallel.quality);
            assert_eq!(serial.scenario, parallel.scenario);
        }
    }

    #[test]
    fn churn_scenario_counts_lifecycle_events_and_keeps_slots() {
        let spec = ScenarioSpec {
            seed: 9,
            leave_prob: 0.05,
            join_prob: 0.5,
            reboot_prob: 0.02,
            ..ScenarioSpec::none()
        };
        let cfg = FleetSimConfig {
            scenario: spec,
            days: 10.0,
            ..tiny_config(2)
        };
        let out = run_policy(&cfg, SchedulerPolicy::Uncapped, f64::INFINITY);
        let stats = out.scenario.expect("active scenario must report stats");
        assert!(stats.counters.leaves > 0, "{:?}", stats.counters);
        assert!(stats.counters.joins > 0, "{:?}", stats.counters);
        assert!(stats.counters.reboots > 0, "{:?}", stats.counters);
        assert!(stats.counters.absent_epochs > 0, "{:?}", stats.counters);
        // Churn never resizes the fleet's slot geometry: every device keeps
        // its index and a coverage score over the epochs it was present.
        assert_eq!(out.device_quality.len(), 28);
        assert!(
            out.quality.mean_coverage > 0.5,
            "churned uncapped coverage collapsed: {}",
            out.quality.mean_coverage
        );
    }

    #[test]
    fn incident_scenario_measures_recovery() {
        let cfg = FleetSimConfig {
            scenario: ScenarioSpec {
                seed: 1,
                ..ScenarioSpec::incident()
            },
            days: 16.0,
            ..tiny_config(2)
        };
        let out = run_policy(&cfg, SchedulerPolicy::Uncapped, f64::INFINITY);
        let stats = out.scenario.expect("scenario stats");
        assert_eq!(stats.incident, Some(4..10));
        let baseline = stats.baseline_coverage.expect("pre-incident baseline");
        assert!(baseline > 0.8, "baseline {baseline}");
        // An uncapped fleet leaves the incident sampling at incident-era
        // rates, so post-recovery coverage snaps back within a few epochs.
        let ttr = stats.time_to_recover.expect("uncapped fleet must recover");
        assert!(ttr <= 4, "time to recover {ttr} epochs");
    }

    #[test]
    fn lossy_reports_scenario_defers_and_bills_duplicates() {
        let spec = ScenarioSpec {
            seed: 4,
            drop_prob: 0.2,
            dup_prob: 0.1,
            delay_prob: 0.1,
            ..ScenarioSpec::none()
        };
        let cfg = FleetSimConfig {
            scenario: spec,
            days: 10.0,
            ..tiny_config(1)
        };
        let out = run_policy(&cfg, SchedulerPolicy::Uncapped, f64::INFINITY);
        let stats = out.scenario.clone().expect("scenario stats");
        assert!(stats.counters.dropped_reports > 0);
        assert!(stats.counters.delayed_reports > 0);
        assert!(stats.counters.duplicated_reports > 0);
        // Every dropped or delayed report is a deferral the controller owns
        // — and with no budget cap those are the *only* deferrals.
        let deferred: usize = out.device_quality.iter().map(|d| d.deferred_epochs).sum();
        assert_eq!(
            deferred,
            stats.counters.dropped_reports + stats.counters.delayed_reports
        );
    }

    #[test]
    fn cost_skew_bills_the_ledger_but_leaves_control_untouched() {
        let healthy = run_policy(&tiny_config(2), SchedulerPolicy::Uncapped, f64::INFINITY);
        let cfg = FleetSimConfig {
            scenario: ScenarioSpec {
                seed: 2,
                ..ScenarioSpec::cost_skew()
            },
            ..tiny_config(2)
        };
        let skew = run_policy(&cfg, SchedulerPolicy::Uncapped, f64::INFINITY);
        // Cost asymmetry is an accounting lens: controllers, samples, and
        // quality are untouched; only the ledger's spend moves.
        assert_eq!(healthy.device_quality, skew.device_quality);
        assert_eq!(healthy.ledger.total_samples(), skew.ledger.total_samples());
        assert!(
            (healthy.total_spent() - skew.total_spent()).abs() > 1e-6,
            "skewed spend {} should differ from uniform {}",
            skew.total_spent(),
            healthy.total_spent()
        );
        assert!(skew.scenario.is_some());
    }

    #[test]
    fn scenario_frontier_renders_recovery_and_json() {
        let cfg = FleetSimConfig {
            scenario: ScenarioSpec {
                seed: 3,
                ..ScenarioSpec::parse("churn+incident").unwrap()
            },
            days: 8.0,
            ..tiny_config(2)
        };
        let f = run_point(&cfg, 40.0, Some(SchedulerPolicy::WaterFill));
        let text = f.render();
        assert!(text.contains("scenario: churn+incident"), "{text}");
        assert!(text.contains("recover"), "{text}");
        assert!(text.contains("events:"), "{text}");
        let json = f.to_json();
        assert!(json.contains("\"scenario\":{"), "{json}");
        assert!(json.contains("\"label\":\"churn+incident\""), "{json}");
        assert!(json.contains("ttr_p50_epochs"), "{json}");
        assert!(json.contains("ttr_p95_epochs"), "{json}");
        assert!(json.contains("deadlocked_devices"), "{json}");
        assert!(json.contains("\"dormant_device_epochs\""), "{json}");
        // Healthy sweeps stay scenario-free in both renderings.
        let healthy = run_point(&tiny_config(2), 40.0, Some(SchedulerPolicy::WaterFill));
        assert!(!healthy.render().contains("scenario"));
        assert!(!healthy.to_json().contains("scenario"));
    }

    /// Regression: the post-revert aliasing deadlock. Under a binding budget
    /// a 3× regime incident throttles probing members hard enough that the
    /// flat folded spectrum verifies clean and the controller settles at the
    /// FFT-bin floor — a rate too slow to ever verify again. The device then
    /// reads "no alarm" forever, through the revert and beyond, despite
    /// covering a fraction of its requirement. Without the watchdog the
    /// deadlock census stays positive; with a recovery slice the scheduled
    /// re-probes above the remembered max clear it within the backoff
    /// schedule.
    #[test]
    fn watchdog_reprobe_escapes_aliasing_deadlock() {
        let cfg = |frac: f64| FleetSimConfig {
            scenario: ScenarioSpec {
                seed: 1,
                ..ScenarioSpec::incident()
            },
            days: 24.0,
            fleet: FleetConfig {
                seed: 0xF1EE7,
                devices_per_metric: 4,
                trace_duration: Seconds::from_days(1.0),
            },
            threads: 2,
            recovery_budget_frac: frac,
            ..FleetSimConfig::default()
        };
        let budget = 300_000.0;
        let stuck = run_policy(&cfg(0.0), SchedulerPolicy::WaterFill, budget);
        let stuck_stats = stuck.scenario.as_ref().expect("scenario stats");
        assert!(
            stuck_stats.deadlocked > 0,
            "the incident must leave devices aliasing-deadlocked without a watchdog"
        );
        assert!(stuck.metrics.watchdog.is_none(), "frac 0 builds no watchdog state");

        let healed = run_policy(&cfg(0.25), SchedulerPolicy::WaterFill, budget);
        let healed_stats = healed.scenario.as_ref().expect("scenario stats");
        assert_eq!(
            healed_stats.deadlocked, 0,
            "watchdog re-probes must clear every deadlocked device"
        );
        let wd = healed.metrics.watchdog.expect("watchdog census");
        assert!(wd.reprobes > 0, "recovery must come from scheduled re-probes");
        // The recovery slice is bounded: total spend stays within the budget
        // plus the slice (small slack for integral sample rounding).
        let cap = budget * (1.0 + 0.25) * healed.epochs as f64;
        assert!(
            healed.total_spent() <= cap * 1.01,
            "spend {} exceeds budget + recovery slice {}",
            healed.total_spent(),
            cap
        );
    }

    /// The full round-2 chaos mix — churn, a regime incident, duty-cycled
    /// sleep — with the watchdog on must stay byte-identical across worker
    /// counts: events are dealt by stateless hashing, the watchdog pass is
    /// serial in device order, and every aggregation runs in index order.
    #[test]
    fn watchdog_and_dormancy_stay_thread_deterministic() {
        let cfg = |threads: usize| FleetSimConfig {
            scenario: ScenarioSpec {
                seed: 11,
                ..ScenarioSpec::parse("churn+incident+duty").unwrap()
            },
            days: 24.0,
            fleet: FleetConfig {
                seed: 0xF1EE7,
                devices_per_metric: 4,
                trace_duration: Seconds::from_days(1.0),
            },
            threads,
            recovery_budget_frac: 0.25,
            ..FleetSimConfig::default()
        };
        let serial = run_policy(&cfg(1), SchedulerPolicy::WaterFill, 300_000.0);
        let wd = serial.metrics.watchdog.expect("watchdog census");
        assert!(wd.reprobes > 0, "the chaos mix must exercise the watchdog");
        let dealt = serial.scenario.as_ref().unwrap();
        assert!(dealt.counters.dormant_epochs > 0, "duty cycle must nap devices");
        for threads in [2, 4] {
            let parallel = run_policy(&cfg(threads), SchedulerPolicy::WaterFill, 300_000.0);
            assert_eq!(serial.ledger.accounts(), parallel.ledger.accounts());
            assert_eq!(serial.device_quality, parallel.device_quality);
            assert_eq!(serial.quality, parallel.quality);
            assert_eq!(serial.scenario, parallel.scenario);
            assert_eq!(serial.metrics, parallel.metrics);
        }
    }
}
