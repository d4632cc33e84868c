//! Fleet-level adaptive simulation: every device's §4.2 controller running
//! concurrently under **one shared collection budget**, with one
//! cross-device [`Scheduler`](scheduler::Scheduler) arbitrating
//! epoch-by-epoch poll rates.
//!
//! The paper's controller adapts each device in isolation, but its cost
//! argument (§1) is fleet-wide: collection, transmission and storage budgets
//! are shared. This module measures that trade-off on the synthetic fleet.
//! Every `(metric, device)` pair is a
//! [`FleetMember`](sweetspot_monitor::poller::FleetMember) — its simulated
//! device plus an adaptive controller — and a [`FleetRun`] steps them all in
//! **lockstep epochs** (the scheduling quantum): controllers request rates,
//! the scheduler converts the cost-unit budget into grantable rate and
//! splits it, members run their epoch at the granted rate, and every tally
//! is a serial fold over the reports they return. Throttled controllers
//! re-ramp through their Nyquist memory when budget returns. A ground-truth
//! [`quality`] model scores every device's achieved rate against its true
//! Nyquist rate, and an [`EpochLedger`] accounts every cost unit. The output
//! is a **cost-vs-quality frontier per policy** — the paper's sweet spot,
//! measured at fleet level.
//!
//! # The memory wall
//!
//! Members hold only durable control state; each worker shard keeps its
//! member records in one contiguous [`Slab`](sweetspot_arena::Slab) and owns
//! a single [`EpochScratch`](sweetspot_monitor::poller::EpochScratch)
//! (oscillator bank, impairment buffers, detector/estimator scratch,
//! recycled series storage) lent to members one step at a time. Every
//! scratch buffer is overwritten before use, so sharing it is
//! byte-identical to per-member copies — but the working set scales with
//! *workers*, not *devices*, which at 10⁵ devices is the difference
//! between tens of gigabytes and tens of megabytes (see
//! [`MemoryStats`]).

pub mod metrics;
pub mod quality;
mod run;
pub mod scenario;
pub mod scheduler;

pub use run::FleetRun;

use std::time::Duration;
use sweetspot_core::adaptive::AdaptiveConfig;
use sweetspot_monitor::EpochLedger;
use sweetspot_obs::json;
use sweetspot_telemetry::{paper_scale_work, scaled_work, FleetConfig, MetricProfile};
use sweetspot_timeseries::{Hertz, Seconds};

use metrics::{MetricsRecorder, MetricsSummary};
use quality::{DeviceQuality, FleetQuality};
use scenario::{ScenarioSpec, ScenarioStats};
use scheduler::SchedulerPolicy;

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
    /// Settled members run §4.1 dual-rate verification every `k`-th epoch
    /// (probing epochs always verify; anomalies pull verification forward).
    /// 1 — the default — is continuous verification, today's behavior.
    pub verify_every: usize,
    /// Byte cap on the FFT plan-table caches, split evenly across worker
    /// shards (`None` = unbounded). Tables are pure functions of transform
    /// length, so the cap **never changes output** — over budget, each
    /// shard's cache drops every table nothing outside it references and
    /// rebuilds it bit-identically on demand, trading table-setup time for
    /// memory. The default ([`FFT_TABLE_BUDGET_DEFAULT`]) binds on no
    /// measured fleet; a lower cap binds when a fleet sweeps many distinct
    /// stream lengths (adaptive controllers each polling at its own
    /// rate).
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

/// Default total FFT plan-cache budget: 6 GiB across all shards, a
/// backstop that binds on no measured shape. Uncapped controllers sweep
/// many distinct stream lengths (every rate a controller ever probes is a
/// new transform length), and the tables grow with the fleet: a 10⁴-device
/// uncapped run (3 days, 2 workers) ends holding 172.9 MB, and the largest
/// measured fleet, 10⁵ devices uncapped for 3 days, held 1814.8 MB by an
/// older accounting that charged nested plans twice and rounded table
/// capacities up to powers of two, so less than that.
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
    /// Checks the config before a run: `window` and `days` finite and
    /// positive, a horizon of at least one epoch and at most `u32::MAX`
    /// epochs (the flight-recorder journal stamps epochs as `u32`),
    /// `verify_every ≥ 1`, `recovery_budget_frac` in `[0, 1]`, at most 1024
    /// `threads`, a fleet size that is neither zero nor both `paper_scale`
    /// and `devices`, and a `scenario` whose probabilities, incident window,
    /// duty fraction and cost spread are in range (the checks
    /// [`ScenarioSpec::parse`] runs).
    /// The error names the `fleetsim` flag that sets the offending field;
    /// `window` and `paper_scale` have none (the CLI fixes the window at one
    /// day and derives `paper_scale` from `--devices`), so their errors name
    /// the field.
    pub fn validate(&self) -> Result<(), String> {
        let window = self.window.value();
        if !(window.is_finite() && window > 0.0) {
            return Err(format!(
                "window must be a positive, finite number of seconds, got {window}"
            ));
        }
        if !(self.days.is_finite() && self.days > 0.0) {
            return Err("--days must be positive and finite".into());
        }
        let span = self.days * 86_400.0 / window;
        if span < 1.0 {
            return Err(format!(
                "--days spans {span:e} epochs; a run needs at least one {window} s epoch"
            ));
        }
        let epochs = span.ceil();
        if !(..=u32::MAX as f64).contains(&epochs) {
            return Err(format!(
                "--days spans {epochs:e} epochs; at most {} fit",
                u32::MAX
            ));
        }
        if self.verify_every == 0 {
            return Err(
                "--verify-every wants a positive epoch count (1 = verify every epoch)".into(),
            );
        }
        if !(0.0..=1.0).contains(&self.recovery_budget_frac) {
            return Err("--recovery-budget-frac wants a fraction in [0, 1]".into());
        }
        if self.paper_scale && self.devices.is_some() {
            return Err("paper_scale and devices conflict: the paper-scale fleet \
                        is exactly 1613 pairs (115/metric + 3 extras)"
                .into());
        }
        if self.devices == Some(0) {
            return Err("--devices wants a positive fleet size".into());
        }
        self.scenario.validate()?;
        crate::shard::validate_threads(self.threads)
    }

    fn work(&self) -> Vec<(MetricProfile, usize)> {
        if self.paper_scale {
            paper_scale_work()
        } else if let Some(pairs) = self.devices {
            scaled_work(pairs)
        } else {
            self.fleet.work_list()
        }
    }

    /// The horizon in whole epochs, rounded up; at least 1 once
    /// [`FleetSimConfig::validate`] has passed.
    fn epochs(&self) -> usize {
        ((self.days * 86_400.0) / self.window.value()).ceil() as usize
    }

    fn resolve_threads(&self, work_items: usize) -> usize {
        crate::shard::resolve_threads(self.threads, work_items)
    }
}

/// Checks a per-epoch budget in cost units: non-negative and not NaN
/// (`f64::INFINITY` is the uncapped baseline). The error names the
/// `fleetsim --budget` flag.
pub fn validate_budget(budget_per_epoch: f64) -> Result<(), String> {
    if budget_per_epoch.is_nan() || budget_per_epoch < 0.0 {
        return Err("--budget wants a non-negative number".into());
    }
    Ok(())
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
    /// FFT and window table construction, summed over the shards' plan
    /// caches — a part of `step`, not an addition to it.
    pub fft_tables: Duration,
}

/// Resident-heap accounting of a finished run (high-water: scratch buffers
/// only grow). The memory-wall invariant is `scratch_bytes` scaling with
/// `workers` while `member_bytes / devices` stays flat.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemoryStats {
    /// Durable per-member state: slab blocks, trace identity, signal model
    /// and each controller's list of transformed lengths.
    pub member_bytes: usize,
    /// Worker scratch high-water (working buffers, not plan tables),
    /// summed over all shards.
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
    /// Fleet-scope metric totals (controller actions, FFT request stats,
    /// re-counted scenario events, watchdog tallies) — thread-invariant.
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
/// `budget_per_epoch` is in cost units (see
/// [`CostModel::cost_per_sample`](sweetspot_monitor::CostModel::cost_per_sample));
/// pass `f64::INFINITY` for the uncapped baseline.
pub fn run_policy(
    cfg: &FleetSimConfig,
    policy: SchedulerPolicy,
    budget_per_epoch: f64,
) -> PolicyOutcome {
    run_policy_recorded(cfg, policy, budget_per_epoch, None)
}

/// [`run_policy`] with an optional [`MetricsRecorder`] attached (see
/// [`FleetRun::new`]): a [`FleetRun`] stepped through every epoch.
///
/// # Panics
/// Panics if [`FleetSimConfig::validate`] rejects `cfg` or
/// [`validate_budget`] rejects `budget_per_epoch`.
pub fn run_policy_recorded(
    cfg: &FleetSimConfig,
    policy: SchedulerPolicy,
    budget_per_epoch: f64,
    recorder: Option<&mut MetricsRecorder>,
) -> PolicyOutcome {
    let mut run = FleetRun::new(cfg, policy, budget_per_epoch, recorder);
    while run.next_epoch() {}
    run.finish()
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

/// The capped policies a default frontier sweep runs at every budget rung
/// (the uncapped baseline runs once — it anchors the budget ladder).
pub const CAPPED_POLICIES: [SchedulerPolicy; 3] = [
    SchedulerPolicy::Uniform,
    SchedulerPolicy::Fair,
    SchedulerPolicy::WaterFill,
];

/// Runs the frontier sweep: the uncapped baseline, then every capped policy
/// in `policies` at every [`FRONTIER_FRACTIONS`] rung of the steady demand
/// (the baseline always runs — it anchors the budget ladder). With a
/// [`MetricsRecorder`] attached, each frontier point streams its epoch
/// snapshots through it in sweep order, so one JSONL file carries the whole
/// frontier.
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
    let steady_demand = steady_spend(&uncapped);
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
        .map_or(0.0, |pt| steady_spend(&pt.outcome));
    frontier(cfg, points, steady_demand)
}

/// A run's last-epoch spend: for the uncapped baseline, the steady demand.
fn steady_spend(outcome: &PolicyOutcome) -> f64 {
    outcome.ledger.accounts().last().map_or(0.0, |a| a.spent)
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
            t.build += p.outcome.timing.build;
            t.step += p.outcome.timing.step;
            t.schedule += p.outcome.timing.schedule;
            t.fft_tables += p.outcome.timing.fft_tables;
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
        let recover_col = self.points.iter().any(|p| {
            p.outcome
                .scenario
                .as_ref()
                .is_some_and(|s| s.incident.is_some())
        });
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

    /// Machine-readable rendering, written by [`sweetspot_obs::json`], with
    /// an opt-in per-device breakdown: `devices == true` adds a `"devices"`
    /// array to every frontier row (index, metric kind, final requested
    /// rate, mean coverage, and the deferred/missed epoch tallies, in fleet
    /// order). Off by default — at 10⁵ devices the breakdown dwarfs the
    /// summary rows.
    pub fn to_json_with(&self, devices: bool) -> String {
        let mut out = String::new();
        json::object(&mut out, |root| {
            root.uint("devices", self.devices as u64)
                .uint("epochs", self.epochs as u64)
                .num("window_seconds", self.window.value())
                .uint("seed", self.seed)
                // 0 means "no uncapped baseline ran": unknown, not literally zero.
                .opt_num(
                    "steady_demand_per_epoch",
                    (self.steady_demand > 0.0).then_some(self.steady_demand),
                );
            if let Some(stats) = self.points.iter().find_map(|p| p.outcome.scenario.as_ref()) {
                root.object("scenario", |sc| scenario_json(sc, stats));
            }
            root.array("frontier", |rows| {
                for p in &self.points {
                    rows.object(|row| frontier_row_json(row, p, devices));
                }
            });
        });
        out
    }
}

/// The `scenario` object of [`FleetFrontier::to_json_with`].
fn scenario_json(sc: &mut json::Object<'_>, stats: &ScenarioStats) {
    let c = stats.counters;
    sc.str("label", &stats.label)
        .uint("seed", stats.seed)
        .uint("leaves", c.leaves as u64)
        .uint("joins", c.joins as u64)
        .uint("reboots", c.reboots as u64)
        .uint("absent_device_epochs", c.absent_epochs as u64)
        .uint("dormant_device_epochs", c.dormant_epochs as u64)
        .uint("dropped_reports", c.dropped_reports as u64)
        .uint("duplicated_reports", c.duplicated_reports as u64)
        .uint("delayed_reports", c.delayed_reports as u64);
    match &stats.incident {
        Some(inc) => sc
            .uint("incident_start_epoch", inc.start as u64)
            .uint("incident_end_epoch", inc.end as u64),
        None => sc.null("incident_start_epoch").null("incident_end_epoch"),
    };
}

/// One row of the `frontier` array of [`FleetFrontier::to_json_with`].
fn frontier_row_json(row: &mut json::Object<'_>, p: &FrontierPoint, devices: bool) {
    let o = &p.outcome;
    row.str("policy", o.policy.name())
        .opt_num("budget_fraction", p.fraction)
        .num("budget_per_epoch", o.budget_per_epoch)
        .num("spent_per_epoch", o.ledger.mean_spent_per_epoch())
        .num("total_spent", o.total_spent())
        .uint("total_samples", o.ledger.total_samples() as u64)
        .num("mean_coverage", o.quality.mean_coverage)
        .num("p10_coverage", o.quality.p10_coverage)
        .num("covered_fraction", o.quality.covered_fraction)
        .num("starved_fraction", o.quality.starved_fraction)
        .num("throttled_fraction", o.ledger.throttled_fraction(o.devices))
        .num("coverage_per_kilocost", o.coverage_per_kilocost());
    if let Some(sc) = &o.scenario {
        row.opt_num("baseline_coverage", sc.baseline_coverage)
            .opt_num("ttr_p50_epochs", sc.ttr_p50)
            .opt_num("ttr_p95_epochs", sc.ttr_p95)
            .uint("recovered_devices", sc.recovered_devices as u64)
            .uint("unrecovered_devices", sc.unrecovered_devices as u64)
            .uint("deadlocked_devices", sc.deadlocked as u64);
    }
    if let Some(wd) = &o.metrics.watchdog {
        row.uint("reprobes", wd.reprobes)
            .uint("reprobes_starved", wd.starved)
            .num("recovery_granted", wd.recovery_granted);
    }
    if devices {
        row.array("devices", |per_device| {
            for d in &o.device_quality {
                per_device.object(|rec| {
                    rec.uint("index", d.index as u64)
                        .str("metric", d.kind.name())
                        .num("final_rate_hz", d.final_rate)
                        .num("mean_coverage", d.mean_coverage)
                        .uint("deferred_epochs", d.deferred_epochs as u64)
                        .uint("missed_epochs", d.missed_epochs as u64);
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sweetspot_core::adaptive::Delivery;
    use sweetspot_monitor::poller::{EpochScratch, FleetMember};

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
                let grant = member.requested_rate();
                let r = member.step_epoch(&mut scratch, start, grant, cfg.window, Delivery::OnTime);
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
        // The acceptance test: under a binding budget, fair-share and
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
        let frontier = run_frontier_for_recorded(&cfg, &CAPPED_POLICIES, None);
        assert_eq!(frontier.points.len(), 1 + FRONTIER_FRACTIONS.len() * 3);
        let text = frontier.render();
        for name in ["uncapped", "uniform", "fair", "waterfill"] {
            assert!(text.contains(name), "{name} missing from:\n{text}");
        }
        assert!(text.contains("cov/kcost"));
        let json = frontier.to_json_with(false);
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
        // A cap tight enough to force drop-and-rebuild churn on even this
        // small fleet must leave every observable output bit-identical to the
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
        // A 1-byte total budget drops everything but each in-flight table.
        assert!(
            capped.memory.fft_table_bytes < unbounded.memory.fft_table_bytes,
            "capped cache ({} B) did not shrink below unbounded ({} B)",
            capped.memory.fft_table_bytes,
            unbounded.memory.fft_table_bytes
        );
    }

    #[test]
    fn validate_rejects_each_invalid_field() {
        assert_eq!(FleetSimConfig::default().validate(), Ok(()));
        let base = tiny_config(1);
        assert_eq!(base.validate(), Ok(()));
        type Break = fn(&mut FleetSimConfig);
        let cases: [(&str, Break, &str); 18] = [
            ("window -3600", |c| c.window = Seconds(-3600.0), "window"),
            ("window 0", |c| c.window = Seconds(0.0), "window"),
            ("window NaN", |c| c.window = Seconds(f64::NAN), "window"),
            (
                "window inf",
                |c| c.window = Seconds(f64::INFINITY),
                "window",
            ),
            ("days 0", |c| c.days = 0.0, "--days"),
            ("days -1", |c| c.days = -1.0, "--days"),
            ("days NaN", |c| c.days = f64::NAN, "--days"),
            ("days inf", |c| c.days = f64::INFINITY, "--days"),
            ("days 1e300", |c| c.days = 1e300, "epochs"),
            ("days 1e-9", |c| c.days = 1e-9, "--days"),
            ("verify_every 0", |c| c.verify_every = 0, "--verify-every"),
            (
                "recovery NaN",
                |c| c.recovery_budget_frac = f64::NAN,
                "[0, 1]",
            ),
            ("recovery 1.5", |c| c.recovery_budget_frac = 1.5, "[0, 1]"),
            ("recovery -0.1", |c| c.recovery_budget_frac = -0.1, "[0, 1]"),
            (
                "paper_scale + devices",
                |c| {
                    c.paper_scale = true;
                    c.devices = Some(10);
                },
                "conflict",
            ),
            ("devices 0", |c| c.devices = Some(0), "positive fleet size"),
            ("threads 1025", |c| c.threads = 1025, "--threads"),
            (
                "scenario drop 2",
                |c| c.scenario.drop_prob = 2.0,
                "drop probability",
            ),
        ];
        for (name, break_field, needle) in cases {
            let mut cfg = base;
            break_field(&mut cfg);
            let err = cfg.validate().expect_err(name);
            assert!(err.contains(needle), "{name}: {err}");
        }
        // Exactly one epoch is a valid horizon.
        let mut one = base;
        one.days = 1.0;
        assert_eq!(one.validate(), Ok(()));
        // The largest epoch count the journal can stamp is still valid, and
        // so is the thread ceiling.
        let mut edge = base;
        edge.days = u32::MAX as f64;
        edge.threads = crate::shard::MAX_THREADS;
        assert_eq!(edge.validate(), Ok(()));
    }

    #[test]
    fn validate_budget_rejects_negative_and_nan() {
        for ok in [0.0, 40.0, f64::INFINITY] {
            assert_eq!(validate_budget(ok), Ok(()), "{ok}");
        }
        for bad in [-5.0, f64::NAN, f64::NEG_INFINITY] {
            let err = validate_budget(bad).expect_err("bad budget");
            assert!(err.contains("--budget"), "{bad}: {err}");
        }
    }

    /// A bad budget is rejected before the fleet is synthesized, not deep
    /// inside the scheduler.
    #[test]
    #[should_panic(expected = "--budget wants a non-negative number")]
    fn run_policy_rejects_a_negative_budget() {
        run_policy(&tiny_config(1), SchedulerPolicy::Fair, -5.0);
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
                ..ScenarioSpec::parse("incident").unwrap()
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
        // A missed epoch is exactly a dropped report (absences are not
        // missed), and every missed epoch is also a deferred one.
        let missed: usize = out.device_quality.iter().map(|d| d.missed_epochs).sum();
        assert_eq!(missed, stats.counters.dropped_reports);
        for d in &out.device_quality {
            assert!(d.missed_epochs <= d.deferred_epochs, "{d:?}");
        }
    }

    #[test]
    fn cost_skew_bills_the_ledger_but_leaves_control_untouched() {
        let healthy = run_policy(&tiny_config(2), SchedulerPolicy::Uncapped, f64::INFINITY);
        let cfg = FleetSimConfig {
            scenario: ScenarioSpec {
                seed: 2,
                ..ScenarioSpec::parse("cost-skew").unwrap()
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
        let json = f.to_json_with(false);
        assert!(json.contains("\"scenario\":{"), "{json}");
        assert!(json.contains("\"label\":\"churn+incident\""), "{json}");
        assert!(json.contains("ttr_p50_epochs"), "{json}");
        assert!(json.contains("ttr_p95_epochs"), "{json}");
        assert!(json.contains("deadlocked_devices"), "{json}");
        assert!(json.contains("\"dormant_device_epochs\""), "{json}");
        // Healthy sweeps stay scenario-free in both renderings.
        let healthy = run_point(&tiny_config(2), 40.0, Some(SchedulerPolicy::WaterFill));
        assert!(!healthy.render().contains("scenario"));
        assert!(!healthy.to_json_with(false).contains("scenario"));
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
                ..ScenarioSpec::parse("incident").unwrap()
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
        assert!(
            stuck.metrics.watchdog.is_none(),
            "frac 0 builds no watchdog state"
        );

        let healed = run_policy(&cfg(0.25), SchedulerPolicy::WaterFill, budget);
        let healed_stats = healed.scenario.as_ref().expect("scenario stats");
        assert_eq!(
            healed_stats.deadlocked, 0,
            "watchdog re-probes must clear every deadlocked device"
        );
        let wd = healed.metrics.watchdog.expect("watchdog census");
        assert!(
            wd.reprobes > 0,
            "recovery must come from scheduled re-probes"
        );
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
        assert!(
            dealt.counters.dormant_epochs > 0,
            "duty cycle must nap devices"
        );
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
