//! The fleet epoch loop: [`FleetRun`] owns one policy run's state and steps
//! it one lockstep epoch at a time through named passes, plus the private
//! helpers those passes drive — the shards, the per-member step, the
//! watchdog and the incident clock.

use std::time::{Duration, Instant};
use sweetspot_arena::Slab;
use sweetspot_core::adaptive::{Delivery, EpochReport, HealthState};
use sweetspot_core::scratch::SpectrumScratch;
use sweetspot_dsp::fft::{FftHandleStats, FftPlanner};
use sweetspot_monitor::poller::{EpochScratch, FleetMember};
use sweetspot_monitor::{CostModel, EpochAccount, EpochLedger};
use sweetspot_telemetry::{DeviceTrace, SignalModel};
use sweetspot_timeseries::{Hertz, Seconds};

use super::metrics::{self, EpochSnapshot, MetricsRecorder, MetricsSummary, WatchdogCounters};
use super::quality::{self, DeviceQuality, FleetQuality};
use super::scenario::{DeviceEvent, ScenarioCounters, ScenarioEngine, ScenarioStats};
use super::scheduler::{Scheduler, SchedulerPolicy};
use super::{member_config, validate_budget, FleetSimConfig, FleetTimings, MemoryStats};
use super::{PolicyOutcome, REPROBE_RETRY_CAP};

/// Primary-stream cost is amplified by the §4.1 companion stream at
/// `rate/φ`: one unit of granted rate costs `1 + 1/φ` in samples.
const VERIFY_OVERHEAD: f64 = 1.0 + 1.0 / sweetspot_core::aliasing::COMPANION_RATIO;

/// One policy run over the configured fleet, stepped an epoch at a time.
///
/// [`new`](Self::new) builds the fleet; each [`next_epoch`](Self::next_epoch)
/// makes the epoch's passes in order — deal, request, allocate (scheduler
/// plus watchdog top-up), step, fold, emit — and [`finish`](Self::finish)
/// scores the run. Epochs are inherently sequential (epoch `k`'s grants
/// depend on epoch `k−1`'s outcomes), but *within* an epoch every device is
/// independent given its grant: the step pass fans contiguous per-worker
/// shards out, and every other pass runs serially in device index order —
/// so output is **byte-identical for any `--threads N`** (pinned by golden
/// fixtures, tests and the CI smoke). Per-device buffers are sized once in
/// `new` (absent devices keep their slot and request 0.0), so churn never
/// resizes them: at one worker, a settled fleet's epoch allocates nothing.
pub struct FleetRun<'r> {
    shards: Vec<ShardState>,
    /// Devices per shard (the last may hold fewer).
    chunk: usize,
    window: Seconds,
    epochs: usize,
    /// The next epoch to run.
    epoch: usize,
    budget: f64,
    unit_cost: f64,
    /// Cost units per unit of granted rate over one epoch.
    epoch_unit: f64,
    /// Each device's ground-truth requirement (Hz).
    nyquist: Vec<f64>,
    engine: ScenarioEngine,
    cost_factors: Option<Vec<f64>>,
    sched: Scheduler,
    requests: Vec<f64>,
    grants: Vec<f64>,
    reports: Vec<Option<EpochReport>>,
    tallies: Vec<DeviceTally>,
    /// Fleet mean coverage per epoch (absent devices count as 0).
    epoch_means: Vec<f64>,
    ledger: EpochLedger,
    /// Whether each device is online (absent devices keep their slot).
    active: Vec<bool>,
    /// Each device's event this epoch, as the scenario dealt it.
    events: Vec<DeviceEvent>,
    /// What the scenario dealt over the run.
    dealt: ScenarioCounters,
    watchdog: Option<Watchdog>,
    /// Each device's incident clock, when the scenario has a regime
    /// incident.
    incident: Option<Vec<DeviceClock>>,
    metrics: MetricsSummary,
    recorder: Option<&'r mut MetricsRecorder>,
    timing: FleetTimings,
}

impl<'r> FleetRun<'r> {
    /// Builds the fleet for one run of `policy` at `budget_per_epoch` cost
    /// units (`f64::INFINITY` uncapped). An attached `recorder` receives
    /// the journal, the grant histogram and the epoch snapshots; the run's
    /// own outputs are byte-identical with and without one.
    ///
    /// # Panics
    /// Panics if [`FleetSimConfig::validate`] rejects `cfg` or
    /// [`validate_budget`] rejects `budget_per_epoch`.
    #[allow(clippy::disallowed_methods, reason = "build time, for `--timing`")]
    pub fn new(
        cfg: &FleetSimConfig,
        policy: SchedulerPolicy,
        budget_per_epoch: f64,
        mut recorder: Option<&'r mut MetricsRecorder>,
    ) -> FleetRun<'r> {
        if let Err(e) = cfg
            .validate()
            .and_then(|()| validate_budget(budget_per_epoch))
        {
            panic!("invalid fleet config: {e}");
        }
        let work = cfg.work();
        let n = work.len();
        let epochs = cfg.epochs();
        let threads = cfg.resolve_threads(n);
        let chunk = crate::shard::chunk_size(n, threads);
        let mut timing = FleetTimings::default();

        // Build members (deterministic per (profile, idx, seed); build order
        // is the fleet order regardless of sharding). Members land directly
        // in per-shard slabs; each shard also gets the one EpochScratch its
        // members step through, whose FFT planner holds each
        // twiddle/chirp/window table once for the whole shard.
        let t0 = Instant::now();
        let (seed, window) = (cfg.fleet.seed, cfg.window);
        // Split the plan-cache budget across shards. Dropped tables
        // rebuild bit-identically, so neither the budget nor the split
        // affects output.
        let shard_fft_budget = cfg.fft_table_budget.map(|total| total / threads.max(1));
        let shards = crate::shard::fan_out(work.chunks(chunk).enumerate(), |(shard, span)| {
            let mut members = Slab::with_capacity(span.len());
            for (j, &(profile, device)) in span.iter().enumerate() {
                let mut config = member_config(&profile, window);
                config.verify_every = cfg.verify_every;
                members.push(FleetMember::new(
                    shard * chunk + j,
                    DeviceTrace::synthesize(profile, device, seed),
                    config,
                ));
            }
            let scratch = EpochScratch {
                spectrum: SpectrumScratch::with_table_budget(shard_fft_budget),
                ..EpochScratch::new()
            };
            ShardState {
                members,
                scratch,
                busy: Duration::ZERO,
            }
        });
        if let Some(rec) = recorder.as_deref_mut() {
            rec.begin_run(policy.name(), budget_per_epoch);
        }
        let nyquist = members(&shards)
            .map(|m| requirement(m, m.true_nyquist_rate()))
            .collect();
        let production: Vec<f64> = work
            .iter()
            .map(|(p, _)| p.production_rate().value())
            .collect();
        // "No scenario" is the scenario that deals every device `Healthy`:
        // nobody leaves, sleeps or reboots and nothing is counted, so the
        // one step path reproduces the healthy engine bit for bit. Only the
        // scenario *reporting* is gated on the spec.
        let engine = ScenarioEngine::new(cfg.scenario, epochs);
        let factor = cfg.scenario.incident_factor;
        let incident = engine.incident().map(|_| {
            members(&shards)
                .map(|m| DeviceClock::new(m, factor))
                .collect()
        });
        let cost_factors = engine.cost_factors(n);
        timing.build = t0.elapsed();

        // The scheduler works in rate space: convert the cost budget once.
        let unit_cost = CostModel::default().cost_per_sample();
        let epoch_unit = unit_cost * window.value() * VERIFY_OVERHEAD;
        let (frac, capacity_rate) = (cfg.recovery_budget_frac, budget_per_epoch / epoch_unit);
        FleetRun {
            shards,
            chunk,
            window,
            epochs,
            epoch: 0,
            budget: budget_per_epoch,
            unit_cost,
            epoch_unit,
            nyquist,
            engine,
            cost_factors,
            sched: policy.scheduler(&production),
            requests: vec![0.0; n],
            grants: Vec::with_capacity(n),
            reports: vec![None; n],
            tallies: vec![DeviceTally::default(); n],
            epoch_means: Vec::with_capacity(epochs),
            ledger: EpochLedger::with_capacity(epochs),
            active: vec![true; n],
            events: vec![DeviceEvent::Healthy; n],
            dealt: ScenarioCounters::default(),
            watchdog: (frac > 0.0).then(|| Watchdog {
                pool: frac * capacity_rate, // INF stays INF
                retries: vec![0; n],
                due: vec![0; n],
                counters: WatchdogCounters::default(),
            }),
            incident,
            metrics: MetricsSummary::default(),
            recorder,
            timing,
        }
    }

    /// Runs the next epoch's passes. Returns `false`, running nothing, once
    /// every epoch of the horizon has run.
    #[allow(clippy::disallowed_methods, reason = "pass times, for `--timing`")]
    pub fn next_epoch(&mut self) -> bool {
        if self.epoch == self.epochs {
            return false;
        }
        let t = Instant::now();
        self.deal();
        self.request();
        let recovery_rate = self.allocate();
        self.timing.schedule += t.elapsed();
        self.step();
        let t = Instant::now();
        self.fold(recovery_rate);
        self.timing.schedule += t.elapsed();
        self.emit();
        self.epoch += 1;
        true
    }

    /// Deals each device its regime phase and its event — serial, pure
    /// hashing, so the fault schedule is identical for every policy and
    /// thread count.
    ///
    /// A device swaps to its other signal model when *its own* incident
    /// activity flips (staggered and diurnal regimes switch members
    /// individually; the one-shot incident flips the whole fleet at the
    /// same two epochs); the ground-truth requirement swaps with the model,
    /// and the transitions clock the recovery tracker. Reboots apply here
    /// (cheap state resets) so a rebooted member's *request* already
    /// reflects its re-ramp. Lifecycle transitions feed the flight recorder
    /// in device order; continued absences and scheduled sleep are counted
    /// but not journaled — they are high-volume steady state and would
    /// drown the ring.
    fn deal(&mut self) {
        let epoch = self.epoch;
        let (active, c) = (&mut self.active, &mut self.dealt);
        for (i, member) in members_mut(&mut self.shards).enumerate() {
            if let Some(d) = self.incident.as_mut().map(|c| &mut c[i]) {
                let now = self.engine.incident_active(epoch, i);
                if now != d.in_incident {
                    member.swap_model(&mut d.alt_model);
                    std::mem::swap(&mut self.nyquist[i], &mut d.alt_nyquist);
                    d.in_incident = now;
                    if now {
                        // (Re-)entering the incident: the clock restarts
                        // from the next exit.
                        d.seen_onset = true;
                        d.exit = None;
                        d.ttr = None;
                    } else {
                        d.exit = Some(epoch);
                    }
                }
            }
            let event = self.engine.deal(epoch, i, active[i]);
            let journal_kind = match event {
                DeviceEvent::Absent => {
                    let left = active[i];
                    c.leaves += left as usize;
                    c.absent_epochs += 1;
                    active[i] = false;
                    left.then_some("leave")
                }
                DeviceEvent::Reboot => {
                    let joined = !active[i];
                    c.joins += joined as usize;
                    c.reboots += 1;
                    active[i] = true;
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
            if let (Some(rec), Some(kind)) = (self.recorder.as_deref_mut(), journal_kind) {
                rec.journal(epoch as u32, i as u32, kind, 0.0);
            }
            self.events[i] = event;
        }
    }

    /// Each present, awake controller requests a rate. Absent and sleeping
    /// devices request 0.0 and release their share — a sleeper without the
    /// request decay, so its wake epoch re-requests the full rate.
    fn request(&mut self) {
        for (i, (r, m)) in self
            .requests
            .iter_mut()
            .zip(members(&self.shards))
            .enumerate()
        {
            let polls = self.active[i] && self.events[i] != DeviceEvent::Dormant;
            *r = if polls {
                m.requested_rate().value()
            } else {
                0.0
            };
        }
    }

    /// The scheduler splits the budget; then the watchdog, when armed,
    /// forces suspect-deadlocked members into a re-probe above their
    /// remembered max, spending at most its pool of *extra* rate — a bounded
    /// recovery slice on top of the budget that can never displace a
    /// healthy device's grant. Each member backs off exponentially between
    /// attempts and gives up after [`REPROBE_RETRY_CAP`]; sleeping and
    /// absent members are never probed. Affordability is peeked before the
    /// controller is committed, so a dry pool perturbs nothing. Returns the
    /// extra rate the watchdog granted.
    fn allocate(&mut self) -> f64 {
        let epoch = self.epoch;
        let capacity_rate = self.budget / self.epoch_unit; // INF stays INF
        self.sched
            .allocate(&self.requests, capacity_rate, &mut self.grants);
        let mut recovery_rate = 0.0f64;
        if let Some(dog) = &mut self.watchdog {
            let (wd, mut pool) = (&mut dog.counters, dog.pool);
            wd.healthy = 0;
            wd.recovering = 0;
            wd.suspect = 0;
            wd.dormant = 0;
            for (i, member) in members_mut(&mut self.shards).enumerate() {
                if !self.active[i] {
                    continue; // offline: out of the census, never probed
                }
                let health = if self.events[i] == DeviceEvent::Dormant {
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
                    || dog.retries[i] >= REPROBE_RETRY_CAP
                    || epoch < dog.due[i]
                {
                    continue;
                }
                let grant = &mut self.grants[i];
                let extra = (member.sampler().reprobe_rate().value() - *grant).max(0.0);
                if extra > pool {
                    wd.starved += 1;
                    continue;
                }
                pool -= extra;
                let target = member.sampler_mut().begin_reprobe().value();
                *grant = grant.max(target);
                recovery_rate += extra;
                wd.reprobes += 1;
                wd.recovery_granted += extra * self.epoch_unit;
                dog.retries[i] += 1;
                dog.due[i] = epoch + (1usize << dog.retries[i].min(20));
                if let Some(rec) = self.recorder.as_deref_mut() {
                    rec.journal(epoch as u32, i as u32, "reprobe", target);
                }
            }
        }
        if let Some(rec) = self.recorder.as_deref_mut() {
            // Grant distribution histogram: fed serially in device order
            // (recovery top-ups included — they are real granted rate).
            for &g in &self.grants {
                rec.record_grant(g);
            }
        }
        recovery_rate
    }

    /// Every shard's members, each writing its own report: inline for one
    /// shard, on scoped threads for several. Each shard adds up its own
    /// busy time.
    #[allow(clippy::disallowed_methods, reason = "shard busy time, for `--timing`")]
    fn step(&mut self) {
        let (window, chunk) = (self.window, self.chunk);
        let start = Seconds(self.epoch as f64 * window.value());
        let (grants, events) = (&self.grants, &self.events);
        let shards = self
            .shards
            .iter_mut()
            .zip(self.reports.chunks_mut(chunk))
            .enumerate();
        crate::shard::fan_out(shards, |(s, (shard, reports))| {
            let t = Instant::now();
            for (j, (member, report)) in shard.members.iter_mut().zip(reports).enumerate() {
                let (i, scratch) = (s * chunk + j, &mut shard.scratch);
                *report = step_member(member, events[i], scratch, start, Hertz(grants[i]), window);
            }
            shard.busy += t.elapsed();
        });
    }

    /// Serial in device order, over the reports and the dealt events:
    /// tallies, the controller-transition journal (so its contents and ring
    /// drops never depend on the worker split; holds are not events),
    /// coverage, the recovery clock and the billed samples, then the
    /// ledger. A device without a report (absent or asleep) earns nothing
    /// and is billed nothing; a lost report carries no samples; a
    /// duplicated one is billed twice.
    fn fold(&mut self, recovery_rate: f64) {
        let epoch = self.epoch;
        let (mut samples, mut skewed, mut covered) = (0usize, 0.0f64, 0.0f64);
        let mut throttled_devices = 0usize;
        for (i, (report, &event)) in self.reports.iter().zip(&self.events).enumerate() {
            let Some(r) = report else { continue };
            self.metrics.controller.record(r.action, r.verified);
            if let (Some(rec), Some(kind)) =
                (self.recorder.as_deref_mut(), metrics::action_kind(r.action))
            {
                rec.journal(epoch as u32, i as u32, kind, r.next_rate.value());
            }
            let coverage = quality::coverage(r.primary_rate, Hertz(self.nyquist[i]));
            let tally = &mut self.tallies[i];
            tally.coverage_sum += coverage;
            tally.active_epochs += 1;
            tally.deferred_epochs += r.deferred() as usize;
            tally.missed_epochs += (event == DeviceEvent::ReportDropped) as usize;
            if let Some(clocks) = &mut self.incident {
                clocks[i].observe(epoch, coverage);
            }
            covered += coverage;
            throttled_devices += r.throttled as usize;
            let billed = match event {
                DeviceEvent::ReportDuplicated => r.samples_taken * 2,
                _ => r.samples_taken,
            };
            samples += billed;
            if let Some(f) = &self.cost_factors {
                skewed += billed as f64 * self.unit_cost * f[i];
            }
        }
        // Ledger: every sum in device index order (deterministic).
        let epoch_unit = self.epoch_unit;
        let demanded: f64 = self.requests.iter().map(|r| r * epoch_unit).sum();
        // `granted` excludes the watchdog's recovery slice, so the budget
        // invariant (granted ≤ budget) survives it, while `spent` bills every
        // sample taken: the slice costs spent − granted. (Subtracting 0.0 is
        // exact, so zero-frac runs stay bit-identical.)
        let granted: f64 =
            self.grants.iter().map(|g| g * epoch_unit).sum::<f64>() - recovery_rate * epoch_unit;
        // Cost asymmetry bills through the ledger only — the schedulers
        // stay cost-naive, and what that naivety costs is the measurement.
        let spent = match &self.cost_factors {
            Some(_) => skewed,
            None => samples as f64 * self.unit_cost,
        };
        self.ledger.record(EpochAccount {
            epoch,
            budget: self.budget,
            demanded,
            granted,
            samples,
            spent,
            throttled_devices,
        });
        self.epoch_means
            .push(covered / self.tallies.len().max(1) as f64);
    }

    /// An attached recorder writes the epoch snapshot on its cadence.
    fn emit(&mut self) {
        let Some(rec) = self.recorder.as_deref_mut() else {
            return;
        };
        if !rec.should_emit(self.epoch, self.epochs) {
            return;
        }
        self.metrics.fft = fft_handle_totals(&self.shards);
        self.metrics.watchdog = self.watchdog.as_ref().map(|wd| wd.counters);
        rec.emit_epoch(&EpochSnapshot {
            devices: self.tallies.len(),
            account: self.ledger.accounts().last().expect("epoch just recorded"),
            metrics: &self.metrics,
            dealt: self.engine.spec().is_active().then_some(&self.dealt),
        });
    }

    /// Scores the run: per-device and fleet quality, the scenario report,
    /// memory and timing, over the epochs run so far.
    #[allow(clippy::disallowed_methods, reason = "roll-up time, for `--timing`")]
    pub fn finish(mut self) -> PolicyOutcome {
        let t_quality = Instant::now();
        let shards = &self.shards;
        // Coverage averages over the epochs a device was actually present
        // for: an absent device is not "uncovered", it is out of the study —
        // but a present device whose report was dropped scores the 0 it
        // earned. A healthy device is present every epoch, so it divides by
        // the horizon.
        let device_quality: Vec<DeviceQuality> = members(shards)
            .zip(&self.tallies)
            .enumerate()
            .map(|(i, (m, t))| DeviceQuality {
                index: i,
                kind: m.kind(),
                mean_coverage: t.coverage_sum / t.active_epochs.max(1) as f64,
                final_rate: m.requested_rate().value(),
                deferred_epochs: t.deferred_epochs,
                missed_epochs: t.missed_epochs,
            })
            .collect();
        let quality = FleetQuality::from_devices(&device_quality);
        let spec = self.engine.spec();
        let scenario = spec.is_active().then(|| {
            let (baseline_coverage, time_to_recover) = self.engine.recovery(&self.epoch_means);
            let (ttr_p50, ttr_p95, recovered_devices, unrecovered_devices) = self
                .incident
                .as_deref()
                .map_or((None, None, 0, 0), |c| recovery(c, self.epoch));
            // Aliasing-deadlock census: present devices that end the run both
            // *classified* suspect-deadlocked (settled below their remembered
            // max with no aliasing alarm — see [`HealthState`]) and *actually*
            // under-covering their ground-truth requirement. The intersection
            // excludes the two benign neighbours: a legitimately-calmed signal
            // below its old ceiling (suspect but covered), and a budget-starved
            // device whose detector still flaps (under-covered but alarming —
            // the scheduler's problem, not a deadlock).
            let deadlocked = members(shards)
                .zip(&self.nyquist)
                .zip(&self.active)
                .filter(|&((m, &need), &active)| {
                    active
                        && need > 0.0
                        && m.sampler().health() == HealthState::SuspectDeadlocked
                        && quality::coverage(m.requested_rate(), Hertz(need)) < 0.95
                })
                .count();
            ScenarioStats {
                label: spec.label(),
                seed: spec.seed,
                counters: self.dealt,
                incident: self.engine.incident(),
                baseline_coverage,
                time_to_recover,
                ttr_p50,
                ttr_p95,
                recovered_devices,
                unrecovered_devices,
                deadlocked,
                epoch_mean_coverage: self.epoch_means,
            }
        });
        self.timing.schedule += t_quality.elapsed();
        self.timing.step = shards.iter().map(|s| s.busy).sum();
        self.timing.fft_tables = planners(shards).map(FftPlanner::table_build_time).sum();
        // Durable bytes are the slabs plus each member's owned heap; scratch
        // buffers only grow, so post-run capacities are the high-water.
        let memory = MemoryStats {
            member_bytes: shards
                .iter()
                .map(|s| s.members.resident_bytes())
                .sum::<usize>()
                + members(shards).map(FleetMember::heap_bytes).sum::<usize>(),
            scratch_bytes: shards.iter().map(|s| s.scratch.resident_bytes()).sum(),
            fft_table_bytes: planners(shards).map(FftPlanner::table_bytes).sum(),
            workers: shards.len(),
        };
        self.metrics.fft = fft_handle_totals(shards);
        self.metrics.watchdog = self.watchdog.map(|wd| wd.counters);
        PolicyOutcome {
            policy: self.sched.policy,
            budget_per_epoch: self.budget,
            devices: self.tallies.len(),
            epochs: self.epoch,
            window: self.window,
            ledger: self.ledger,
            device_quality,
            quality,
            timing: self.timing,
            memory,
            scenario,
            metrics: self.metrics,
        }
    }
}

/// One device's running totals over the epochs it produced a report in
/// (present and awake).
#[derive(Clone, Copy, Default)]
struct DeviceTally {
    coverage_sum: f64,
    active_epochs: usize,
    deferred_epochs: usize,
    /// Epochs whose report was dropped.
    missed_epochs: usize,
}

/// One worker's shard: its members and the one working set they step
/// through (the memory wall of the module docs).
struct ShardState {
    /// Member records, contiguous, in fleet order within the shard.
    members: Slab<FleetMember>,
    /// The shard's working set and plan-table cache, lent to each member
    /// in turn.
    scratch: EpochScratch,
    /// Wall time this shard's worker spent stepping members.
    busy: Duration,
}

/// Every member in fleet order, across shards.
fn members(shards: &[ShardState]) -> impl Iterator<Item = &FleetMember> {
    shards.iter().flat_map(|s| s.members.iter())
}

/// Every shard's FFT planner, for the post-run table accounting.
fn planners(shards: &[ShardState]) -> impl Iterator<Item = &FftPlanner> {
    shards.iter().map(|s| s.scratch.spectrum.planner())
}

/// [`members`], mutably.
fn members_mut(shards: &mut [ShardState]) -> impl Iterator<Item = &mut FleetMember> {
    shards.iter_mut().flat_map(|s| s.members.iter_mut())
}

/// A member's ground-truth requirement given its signal's Nyquist rate:
/// zero for a quiescent device, whose signal never moves a full quantum —
/// *any* rate fully captures what is observable (coverage 1.0 by
/// definition in `quality`).
fn requirement(member: &FleetMember, nyquist: Hertz) -> f64 {
    if member.device().trace().is_quiet() {
        0.0
    } else {
        nyquist.value()
    }
}

/// The watchdog's recovery plane: the epoch's recovery pool, each member's
/// re-probe backoff, and the run's tallies. Built only when
/// [`FleetSimConfig::recovery_budget_frac`] is positive.
struct Watchdog {
    /// Extra rate the watchdog may grant per epoch: `frac × capacity`.
    pool: f64,
    /// Re-probes forced so far, per member.
    retries: Vec<u32>,
    /// First epoch each member may be re-probed again.
    due: Vec<usize>,
    counters: WatchdogCounters,
}

/// One device's incident phase and recovery clock. Its incident-phase
/// signal model is pre-built (tone frequencies scaled, identity and noise
/// seed untouched), so phase boundaries only `mem::swap` models and
/// requirements — no allocation, no re-synthesis.
struct DeviceClock {
    /// The signal model currently swapped *out*, and its requirement.
    alt_model: SignalModel,
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

impl DeviceClock {
    fn new(member: &FleetMember, factor: f64) -> DeviceClock {
        let alt_model = member.device().trace().regime_model(factor);
        DeviceClock {
            alt_nyquist: requirement(member, alt_model.nyquist_rate()),
            alt_model,
            in_incident: false,
            seen_onset: false,
            base_sum: 0.0,
            base_epochs: 0,
            exit: None,
            ttr: None,
        }
    }

    /// The recovery clock, fed the coverage the fold scored for an epoch
    /// the device reported in. Its baseline is its mean coverage over
    /// pre-onset epochs it was actually awake and present for; after its
    /// incident exits, the first such epoch back at ≥95% of that baseline
    /// stamps its time-to-recover.
    fn observe(&mut self, epoch: usize, coverage: f64) {
        if !self.seen_onset {
            self.base_sum += coverage;
            self.base_epochs += 1;
        } else if let (None, Some(exit)) = (self.ttr, self.exit) {
            if self.base_epochs > 0 && coverage >= 0.95 * self.base_sum / self.base_epochs as f64 {
                self.ttr = Some(epoch - exit);
            }
        }
    }
}

/// `(p50, p95, recovered, unrecovered)` over devices that saw an incident.
/// The quantiles come from an obs log-bucket histogram fed in device order
/// — the fleet-mean time-to-recover hides the slow tail the p95 exposes.
fn recovery(clocks: &[DeviceClock], epochs: usize) -> (Option<f64>, Option<f64>, usize, usize) {
    let mut hist = sweetspot_obs::Histogram::log_scale(1.0, (epochs as f64).max(2.0), 32);
    let (mut recovered, mut unrecovered) = (0usize, 0usize);
    for d in clocks.iter().filter(|d| d.seen_onset) {
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

/// Steps one member through one epoch under its dealt event — the engine's
/// only per-member step. Returns the epoch's report, or `None` when the
/// device is absent or asleep and so produced none.
///
/// Reboots were already applied serially when the event was dealt, so here
/// `Reboot` steps like `Healthy` (the first post-reboot epoch *is* a normal
/// epoch, just from re-ramp state). A sleeping device takes no samples and
/// — unlike a lost report — does not decay its request; the controller
/// merely notes its state aged and owes a verification on wake. A dropped
/// report is [`Delivery::Lost`] and a delayed one [`Delivery::Late`]; a
/// duplicated report steps on time, and the fold bills it twice.
fn step_member(
    member: &mut FleetMember,
    event: DeviceEvent,
    scratch: &mut EpochScratch,
    start: Seconds,
    grant: Hertz,
    window: Seconds,
) -> Option<EpochReport> {
    let delivery = match event {
        DeviceEvent::Absent => return None,
        DeviceEvent::Dormant => {
            member.sampler_mut().note_dormant_epoch();
            return None;
        }
        DeviceEvent::ReportDropped => Delivery::Lost,
        DeviceEvent::ReportDelayed => Delivery::Late,
        DeviceEvent::ReportDuplicated | DeviceEvent::Healthy | DeviceEvent::Reboot => {
            Delivery::OnTime
        }
    };
    Some(member.step_epoch(scratch, start, grant, window, delivery))
}

/// Sums per-member periodogram request counters in fleet (device) order.
/// Each member's controller owns its counters, so the totals are
/// independent of how the fleet was sharded across workers.
fn fft_handle_totals(shards: &[ShardState]) -> FftHandleStats {
    let mut totals = FftHandleStats::default();
    for member in members(shards) {
        totals.merge(&member.fft_handle_stats());
    }
    totals
}
