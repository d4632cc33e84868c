//! Fleet metrics plane: deterministic counters, the per-epoch flight
//! recorder, and the `--metrics-out` JSON-lines snapshot writer.
//!
//! Everything the engine counts is sorted into one of three **determinism
//! scopes**, and only the first is ever written to `--metrics-out`:
//!
//! * **Fleet scope** — thread-invariant by construction: controller action
//!   counts and FFT request statistics are owned per member controller
//!   (each member's sequence of periodogram lengths is
//!   simulation-determined), scenario counts are dealt
//!   serially, watchdog tallies come from the serial watchdog pass, and
//!   the grant histogram is fed serially in device order. Snapshots
//!   built from these are **byte-identical for any `--threads N`**.
//! * **Topology scope** — honest numbers that depend on the worker split
//!   (per-shard FFT table bytes, scratch bytes, worker count). Reported
//!   on stderr via `--timing` only, never in the JSON-lines stream.
//! * **Wall scope** — phase timings and peak RSS. stderr only.
//!
//! Collection is **always on and non-perturbing**: the controller tallies
//! in [`MetricsSummary`] are O(1) integer bumps, made by the engine's serial
//! fold over each epoch's member reports in device order, against a
//! per-member step that does milliseconds of spectral work. A
//! [`MetricsRecorder`] — present only when the caller asked for output —
//! adds the journal, the grant histogram, and the JSON-lines emission on
//! top; simulation stdout stays byte-identical whether a recorder is
//! attached or not, and recording adds zero heap allocations to any epoch:
//! twin one-worker engine runs, with and without a recorder, allocate
//! identically epoch for epoch (`crates/analysis/tests/metrics_steady_state.rs`),
//! and a settled one-worker epoch allocates nothing at all
//! (`alloc_steady_state.rs`; with several workers, scoped spawns allocate).
//!
//! # JSON-lines schema, version 3
//!
//! This section is the one full statement of the `--metrics-out` stream.
//! The workspace's one JSON writer, [`sweetspot_obs::json`], emits every
//! line into a reused line buffer. Every line is one JSON object whose
//! first two keys are `"type"` (`"event"` or `"epoch"`) and `"schema"` (the
//! integer `3`). Every value is fleet scope; numbers that are not finite
//! (an uncapped budget) are written as `null`. Keys appear in the order
//! the tables list them.
//!
//! An **event** line is one flight-recorder entry, drained oldest first
//! just before the epoch line that follows it:
//!
//! | key | value |
//! |---|---|
//! | `policy` | policy name (`uncapped`, `uniform`, `fair`, `waterfill`) |
//! | `budget` | budget per epoch in cost units, `null` when uncapped |
//! | `epoch` | 0-based epoch the event happened in |
//! | `device` | fleet index of the device |
//! | `kind` | controller action (`probe`, `reramp`, `settle`, `raise`, `cut`, `defer`; value = the device's requested rate), lifecycle fault (`leave`, `join`, `reboot`, `report_drop`, `report_delay`, `report_dup`; value 0) or watchdog `reprobe` (value = the re-probe target rate) |
//! | `value` | the number described under `kind` |
//!
//! An **epoch** line is one snapshot, written every `--metrics-every`-th
//! epoch and always on a run's last epoch:
//!
//! | key | value | scope |
//! |---|---|---|
//! | `policy`, `budget` | as on event lines | the run |
//! | `epoch` | 0-based epoch of the snapshot | — |
//! | `devices` | fleet size | the run |
//! | `ledger` | `demanded`, `granted`, `spent` (cost units), `samples`, `throttled_devices` | this epoch |
//! | `controller` | `probe`, `reramp`, `settle`, `raise`, `cut`, `hold`, `defer` transitions and the `verified` / `unverified` split; `unverified` is derived as the seven transitions' sum minus `verified` | cumulative over the run |
//! | `fft` | periodogram `lookups`, `hits`, `misses` kept by each member's controller (a miss is the first transform of a length by that controller, reboots included) and summed in device order; `lookups` is derived as `hits + misses`, one per transform actually run (a verified epoch runs two: the fast stream's spectrum, shared by detector and estimator, and the companion's) | cumulative over the run |
//! | `watchdog` | `reprobes`, `starved`, `recovery_granted` (cost units); health census `healthy`, `recovering`, `suspect`, `dormant` | cumulative; the census is this epoch's |
//! | `scenario` | `dealt`: `leaves`, `joins`, `reboots`, `absent_epochs`, `dropped_reports`, `duplicated_reports`, `delayed_reports`, `dormant_epochs` | cumulative over the run |
//! | `grants` | `count`, `sum`, `min`, `max`, `p10`, `p50`, `p90`, `p99` of the granted rates (Hz) | epochs since the previous snapshot |
//! | `journal` | flight-recorder `events` and `dropped` | cumulative over the run |
//!
//! `watchdog` appears only when the recovery slice is armed
//! (`--recovery-budget-frac` > 0) and `scenario` only when a scenario is
//! active; a healthy, unwatched run omits both. When present they sit
//! between `fft` and `grants`, `watchdog` first.
//!
//! Schema 2 also carried `scenario.applied`, the `dealt` events re-counted
//! by the engine's fold, equal to `dealt` kind for kind by construction.
//! Schema 1, the unversioned stream, had no `schema` key and carried a
//! `sched` object (water-fill order-maintenance counters) between `fft`
//! and `watchdog`.

use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::Path;

use sweetspot_core::adaptive::EpochAction;
use sweetspot_dsp::fft::FftHandleStats;
use sweetspot_monitor::EpochAccount;
use sweetspot_obs::{json, Counter, Histogram, Journal, JournalEvent};

use super::scenario::ScenarioCounters;

/// Controller state-machine transitions, one counter per
/// [`EpochAction`] variant, plus the verification split. Fleet scope: each
/// member's actions are a pure function of its own simulated history.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerCounters {
    /// Aliasing escalations up the probe ladder.
    pub probe: Counter,
    /// Remembered-max re-ramps (the memory jump beat the ladder).
    pub reramp: Counter,
    /// Probe-mode epochs that found their rate and settled.
    pub settle: Counter,
    /// Steady-state request raises toward a risen target.
    pub raise: Counter,
    /// Hysteresis-approved decreases.
    pub cut: Counter,
    /// Epochs that held the request.
    pub hold: Counter,
    /// Epochs with no adaptation at all (missed or delayed reports).
    pub defer: Counter,
    /// Epochs whose §4.1 dual-rate detector actually ran.
    pub verified: Counter,
}

impl ControllerCounters {
    /// Tallies one stepped epoch.
    #[inline]
    pub fn record(&mut self, action: EpochAction, verified: bool) {
        match action {
            EpochAction::Probe => self.probe.inc(),
            EpochAction::Reramp => self.reramp.inc(),
            EpochAction::Settle => self.settle.inc(),
            EpochAction::Raise => self.raise.inc(),
            EpochAction::Cut => self.cut.inc(),
            EpochAction::Hold => self.hold.inc(),
            EpochAction::Defer => self.defer.inc(),
        }
        if verified {
            self.verified.inc();
        }
    }

    /// Total member-epochs stepped (every action is exactly one step).
    pub fn stepped(&self) -> u64 {
        self.probe.get()
            + self.reramp.get()
            + self.settle.get()
            + self.raise.get()
            + self.cut.get()
            + self.hold.get()
            + self.defer.get()
    }

    /// Epochs stepped without a detector verdict.
    pub fn unverified(&self) -> u64 {
        self.stepped() - self.verified.get()
    }
}

/// Watchdog / recovery-plane tallies of one policy run — present only when
/// `--recovery-budget-frac > 0` (the watchdog is otherwise never built, so
/// a zero-frac run's outputs stay bit-identical to a pre-watchdog engine).
/// Fleet scope: the watchdog pass runs serially in device order.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WatchdogCounters {
    /// Re-probes forced over the run ([`begin_reprobe`]).
    ///
    /// [`begin_reprobe`]: sweetspot_core::adaptive::AdaptiveSampler::begin_reprobe
    pub reprobes: u64,
    /// Re-probe attempts deferred because the epoch's recovery pool was
    /// already spent — the admission control that keeps recovery from
    /// starving healthy devices.
    pub starved: u64,
    /// Cumulative recovery-slice spend in cost units, **on top of** the
    /// ordinary budget (the ledger's `granted` excludes it by design).
    pub recovery_granted: f64,
    /// Latest epoch's health census: members classified healthy.
    pub healthy: u64,
    /// Latest epoch's census: members re-ramping or probing.
    pub recovering: u64,
    /// Latest epoch's census: members settled below their remembered max
    /// long enough to suspect an aliasing deadlock.
    pub suspect: u64,
    /// Latest epoch's census: members in scheduled sleep.
    pub dormant: u64,
}

/// Fleet-scope metric totals of a policy run — always computed (the
/// counters are on whether or not a recorder is attached) and carried on
/// [`PolicyOutcome`](super::PolicyOutcome). The engine's serial fold bumps
/// the controller tallies in device order — no locks, no atomics, no
/// allocation — and refreshes `fft` and `watchdog` before each
/// snapshot and at the end of the run. Every field is thread-invariant;
/// tests pin summaries equal across `--threads N`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MetricsSummary {
    /// Controller transitions over the run.
    pub controller: ControllerCounters,
    /// Periodogram request statistics summed over member controllers in
    /// device order.
    pub fft: FftHandleStats,
    /// Watchdog tallies (`None` when `--recovery-budget-frac` is 0 and no
    /// watchdog ran).
    pub watchdog: Option<WatchdogCounters>,
}

/// Everything one epoch snapshot needs beyond the run's policy and budget
/// (which [`MetricsRecorder::begin_run`] stamps), bundled by the engine at
/// emission time. All fields are fleet scope.
#[derive(Debug)]
pub struct EpochSnapshot<'a> {
    /// Fleet size.
    pub devices: usize,
    /// This epoch's ledger account.
    pub account: &'a EpochAccount,
    /// The run's totals so far. A `None` watchdog (no watchdog ran) omits
    /// the `watchdog` object entirely, keeping zero-frac JSONL
    /// byte-identical to a pre-watchdog build.
    pub metrics: &'a MetricsSummary,
    /// Serially dealt scenario totals (`None` on healthy runs — the
    /// snapshot then omits the `scenario` object entirely).
    pub dealt: Option<&'a ScenarioCounters>,
}

/// Journal tag for a controller action (`Hold` is the steady-state no-op
/// and is never journaled; it would drown the ring).
pub fn action_kind(action: EpochAction) -> Option<&'static str> {
    match action {
        EpochAction::Probe => Some("probe"),
        EpochAction::Reramp => Some("reramp"),
        EpochAction::Settle => Some("settle"),
        EpochAction::Raise => Some("raise"),
        EpochAction::Cut => Some("cut"),
        EpochAction::Defer => Some("defer"),
        EpochAction::Hold => None,
    }
}

/// Flight-recorder capacity: events kept between snapshot emissions. Beyond
/// this the oldest events are overwritten (and counted as dropped) — a
/// deterministic bound because the ring is fed serially in device order.
pub const JOURNAL_CAPACITY: usize = 512;

/// Grant histogram shape: rates from 1 µHz to 100 Hz across 96 geometric
/// buckets (≈19% relative width). Grants of 0.0 (absent devices) land in
/// the underflow catch-all.
const GRANT_HIST_LO: f64 = 1e-6;
const GRANT_HIST_HI: f64 = 1e2;
const GRANT_HIST_BUCKETS: usize = 96;

/// The JSON-lines schema version every line carries.
const SCHEMA: u64 = 3;

/// The `--metrics-out` writer: owns the flight-recorder ring, the per-window
/// grant histogram, and the reused line buffer every snapshot is formatted
/// into. One recorder serves a whole frontier sweep — each line carries its
/// policy and budget — with per-run state reset by
/// [`begin_run`](Self::begin_run).
///
/// Output is JSON lines: `type:"event"` rows (the journal drained oldest
/// first) followed by one `type:"epoch"` row per emitted epoch. Emission
/// happens on every [`every`](Self::set_every)-th epoch and always on a
/// run's last epoch; the grant histogram covers the window since the
/// previous emission.
///
/// Write errors are latched on first occurrence and surfaced by
/// [`finish`](Self::finish) — the simulation itself never fails over
/// observability.
#[derive(Debug)]
pub struct MetricsRecorder {
    /// `Some` writes to a file; `None` accumulates in [`buffer`](Self::buffer).
    sink: Option<BufWriter<File>>,
    buffer: String,
    /// Reused per-line scratch; grows once to its high-water mark.
    line: String,
    every: usize,
    journal: Journal,
    grants: Histogram,
    policy: &'static str,
    budget: f64,
    events_total: u64,
    events_dropped: u64,
    error: Option<io::Error>,
}

impl MetricsRecorder {
    fn new(sink: Option<BufWriter<File>>) -> MetricsRecorder {
        MetricsRecorder {
            sink,
            buffer: String::new(),
            line: String::new(),
            every: 1,
            journal: Journal::with_capacity(JOURNAL_CAPACITY),
            grants: Histogram::log_scale(GRANT_HIST_LO, GRANT_HIST_HI, GRANT_HIST_BUCKETS),
            policy: "",
            budget: f64::INFINITY,
            events_total: 0,
            events_dropped: 0,
            error: None,
        }
    }

    /// A recorder writing JSON lines to `path` (truncating).
    pub fn to_path(path: &Path) -> io::Result<MetricsRecorder> {
        Ok(MetricsRecorder::new(Some(BufWriter::new(File::create(
            path,
        )?))))
    }

    /// A recorder accumulating into an in-memory buffer — for tests and
    /// benchmarks. The buffer grows amortized; call
    /// [`reserve`](Self::reserve) first when measuring allocations.
    pub fn in_memory() -> MetricsRecorder {
        MetricsRecorder::new(None)
    }

    /// Emit a snapshot every `k`-th epoch (the last epoch always emits).
    /// A `k` of zero is refused with a message naming `--metrics-every`.
    pub fn set_every(&mut self, k: usize) -> Result<(), String> {
        if k == 0 {
            return Err("--metrics-every wants a positive epoch count (1 = every epoch)".into());
        }
        self.every = k;
        Ok(())
    }

    /// Pre-grows the in-memory buffer and line scratch.
    pub fn reserve(&mut self, bytes: usize) {
        self.buffer.reserve(bytes);
        self.line.reserve(bytes.min(16 * 1024));
    }

    /// Everything written so far in in-memory mode (empty in file mode).
    pub fn buffer(&self) -> &str {
        &self.buffer
    }

    /// Journal events recorded this run (kept + dropped).
    pub fn journal_events(&self) -> u64 {
        self.events_total + self.journal.total()
    }

    /// Starts a policy run: stamps the per-line context and resets the
    /// journal, histogram, and drop accounting. Engine-facing.
    pub fn begin_run(&mut self, policy: &'static str, budget: f64) {
        self.policy = policy;
        self.budget = budget;
        self.journal.clear();
        self.grants.reset();
        self.events_total = 0;
        self.events_dropped = 0;
    }

    /// Feeds one grant into the distribution histogram. Engine-facing:
    /// called serially in device order.
    #[inline]
    pub fn record_grant(&mut self, grant: f64) {
        self.grants.record(grant);
    }

    /// Records a flight-recorder event. Engine-facing: called serially in
    /// device order within each epoch.
    #[inline]
    pub fn journal(&mut self, epoch: u32, device: u32, kind: &'static str, value: f64) {
        self.journal.record(JournalEvent {
            epoch,
            device,
            kind,
            value,
        });
    }

    /// Whether `epoch` (0-based, of `epochs` total) is a snapshot epoch.
    pub fn should_emit(&self, epoch: usize, epochs: usize) -> bool {
        (epoch + 1).is_multiple_of(self.every) || epoch + 1 == epochs
    }

    /// Writes the journal's pending events and one epoch snapshot line,
    /// then resets the journal and the grant-window histogram.
    pub fn emit_epoch(&mut self, snap: &EpochSnapshot<'_>) {
        // Drain the flight recorder: one event line each, oldest first.
        // Indexed access (events are `Copy`) instead of `iter()` so each
        // lookup's borrow ends before `write_line` re-borrows — the ring
        // never moves and nothing allocates.
        for i in 0..self.journal.len() {
            let ev = self.journal.get(i).expect("index < len");
            self.line.clear();
            json::object(&mut self.line, |o| {
                o.str("type", "event")
                    .uint("schema", SCHEMA)
                    .str("policy", self.policy)
                    .num("budget", self.budget)
                    .uint("epoch", ev.epoch.into())
                    .uint("device", ev.device.into())
                    .str("kind", ev.kind)
                    .num("value", ev.value);
            });
            self.write_line();
        }
        self.events_total += self.journal.total();
        self.events_dropped += self.journal.dropped();
        self.journal.clear();

        self.line.clear();
        self.format_epoch_line(snap);
        self.write_line();
        self.grants.reset();
    }

    fn format_epoch_line(&mut self, snap: &EpochSnapshot<'_>) {
        let account = snap.account;
        let m = snap.metrics;
        json::object(&mut self.line, |o| {
            o.str("type", "epoch")
                .uint("schema", SCHEMA)
                .str("policy", self.policy)
                .num("budget", self.budget)
                .uint("epoch", account.epoch as u64)
                .uint("devices", snap.devices as u64)
                .object("ledger", |l| {
                    l.num("demanded", account.demanded)
                        .num("granted", account.granted)
                        .num("spent", account.spent)
                        .uint("samples", account.samples as u64)
                        .uint("throttled_devices", account.throttled_devices as u64);
                })
                .object("controller", |c| {
                    let n = &m.controller;
                    for (name, counter) in [
                        ("probe", n.probe),
                        ("reramp", n.reramp),
                        ("settle", n.settle),
                        ("raise", n.raise),
                        ("cut", n.cut),
                        ("hold", n.hold),
                        ("defer", n.defer),
                        ("verified", n.verified),
                    ] {
                        c.uint(name, counter.get());
                    }
                    c.uint("unverified", n.unverified());
                })
                .object("fft", |f| {
                    f.uint("lookups", m.fft.lookups())
                        .uint("hits", m.fft.hits.get())
                        .uint("misses", m.fft.misses.get());
                });
            if let Some(wd) = &m.watchdog {
                o.object("watchdog", |w| {
                    w.uint("reprobes", wd.reprobes)
                        .uint("starved", wd.starved)
                        .num("recovery_granted", wd.recovery_granted)
                        .uint("healthy", wd.healthy)
                        .uint("recovering", wd.recovering)
                        .uint("suspect", wd.suspect)
                        .uint("dormant", wd.dormant);
                });
            }
            if let Some(dealt) = snap.dealt {
                o.object("scenario", |s| {
                    s.object("dealt", |d| {
                        d.uint("leaves", dealt.leaves as u64)
                            .uint("joins", dealt.joins as u64)
                            .uint("reboots", dealt.reboots as u64)
                            .uint("absent_epochs", dealt.absent_epochs as u64)
                            .uint("dropped_reports", dealt.dropped_reports as u64)
                            .uint("duplicated_reports", dealt.duplicated_reports as u64)
                            .uint("delayed_reports", dealt.delayed_reports as u64)
                            .uint("dormant_epochs", dealt.dormant_epochs as u64);
                    });
                });
            }
            let g = &self.grants;
            o.object("grants", |h| {
                h.uint("count", g.count())
                    .num("sum", g.sum())
                    .num("min", g.min())
                    .num("max", g.max())
                    .num("p10", g.quantile(0.10))
                    .num("p50", g.quantile(0.50))
                    .num("p90", g.quantile(0.90))
                    .num("p99", g.quantile(0.99));
            })
            .object("journal", |j| {
                j.uint("events", self.events_total)
                    .uint("dropped", self.events_dropped);
            });
        });
    }

    fn write_line(&mut self) {
        match &mut self.sink {
            Some(w) => {
                if self.error.is_none() {
                    let res = w
                        .write_all(self.line.as_bytes())
                        .and_then(|()| w.write_all(b"\n"));
                    if let Err(e) = res {
                        self.error = Some(e);
                    }
                }
            }
            None => {
                self.buffer.push_str(&self.line);
                self.buffer.push('\n');
            }
        }
    }

    /// Flushes the sink and surfaces the first write error, if any.
    pub fn finish(&mut self) -> io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        if let Some(w) = &mut self.sink {
            w.flush()?;
        }
        Ok(())
    }
}

/// The `--timing` stderr report, rendered from the frontier's
/// [`FleetTimings`](super::FleetTimings) and the last point's
/// [`MemoryStats`](super::MemoryStats). Wall and topology scope only:
/// nothing here is, or needs to be, thread-invariant.
pub fn timing_report(frontier: &super::FleetFrontier, peak_rss_kb: Option<u64>) -> String {
    let t = frontier.timing();
    let (build, step, schedule) = (
        t.build.as_secs_f64(),
        t.step.as_secs_f64(),
        t.schedule.as_secs_f64(),
    );
    let total = (build + step + schedule).max(f64::MIN_POSITIVE);
    let pct = |secs: f64| 100.0 * secs / total;

    let mut out = format!(
        "timing: build {:.3}s ({:.0}%) | step {:.3}s ({:.0}%) | schedule {:.3}s ({:.0}%) \
         | total {:.3}s across workers over {} policy points\n",
        build,
        pct(build),
        step,
        pct(step),
        schedule,
        pct(schedule),
        total,
        frontier.points.len()
    );
    // Engine-side accounting: durable member state vs worker scratch (the
    // memory-wall split), from the last simulated point. Topology scope —
    // per-shard caches and scratch depend on the worker split.
    if let Some(point) = frontier.points.last() {
        let m = point.outcome.memory;
        out.push_str(&format!(
            "memory: members {:.1} MB ({:.0} B/device) | worker scratch {:.1} MB \
             | fft tables {:.1} MB over {} shard(s), built in {:.3}s\n",
            m.member_bytes as f64 / 1e6,
            m.bytes_per_member(point.outcome.devices),
            m.scratch_bytes as f64 / 1e6,
            m.fft_table_bytes as f64 / 1e6,
            m.workers,
            point.outcome.timing.fft_tables.as_secs_f64(),
        ));
    }
    // Whole-process peak (Linux VmHWM; omitted where unavailable). Wall
    // scope.
    if let Some(kb) = peak_rss_kb {
        out.push_str(&format!("memory: peak RSS {kb} kB (VmHWM)\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sweetspot_monitor::EpochAccount;

    fn account() -> EpochAccount {
        EpochAccount {
            epoch: 3,
            budget: 40.0,
            demanded: 55.5,
            granted: 40.0,
            samples: 1234,
            spent: 39.5,
            throttled_devices: 7,
        }
    }

    #[test]
    fn controller_counters_tally_actions_and_verification() {
        // The engine's serial fold tallies every device's report into one
        // counter set.
        let mut b = ControllerCounters::default();
        b.record(EpochAction::Hold, true);
        b.record(EpochAction::Probe, true);
        b.record(EpochAction::Hold, false);
        b.record(EpochAction::Cut, true);
        assert_eq!(b.probe.get(), 1);
        assert_eq!(b.hold.get(), 2);
        assert_eq!(b.cut.get(), 1);
        assert_eq!(b.verified.get(), 3);
        assert_eq!(b.unverified(), 1);
        assert_eq!(b.stepped(), 4);
    }

    #[test]
    fn every_action_has_a_journal_tag_except_hold() {
        assert_eq!(action_kind(EpochAction::Hold), None);
        for (action, tag) in [
            (EpochAction::Probe, "probe"),
            (EpochAction::Reramp, "reramp"),
            (EpochAction::Settle, "settle"),
            (EpochAction::Raise, "raise"),
            (EpochAction::Cut, "cut"),
            (EpochAction::Defer, "defer"),
        ] {
            assert_eq!(action_kind(action), Some(tag));
        }
    }

    #[test]
    fn recorder_emits_events_then_epoch_line() {
        let mut rec = MetricsRecorder::in_memory();
        rec.begin_run("waterfill", 40.0);
        rec.journal(3, 17, "probe", 0.25);
        for g in [0.0, 0.1, 0.5, 0.5] {
            rec.record_grant(g);
        }
        let snap = EpochSnapshot {
            devices: 28,
            account: &account(),
            metrics: &MetricsSummary::default(),
            dealt: None,
        };
        rec.emit_epoch(&snap);
        let out = rec.buffer().to_string();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "{out}");
        assert!(
            lines[0].starts_with("{\"type\":\"event\",\"schema\":3,"),
            "{}",
            lines[0]
        );
        assert!(lines[0].contains("\"device\":17"), "{}", lines[0]);
        assert!(lines[0].contains("\"kind\":\"probe\""), "{}", lines[0]);
        assert!(
            lines[1].starts_with("{\"type\":\"epoch\",\"schema\":3,"),
            "{}",
            lines[1]
        );
        assert!(
            lines[1].contains("\"policy\":\"waterfill\""),
            "{}",
            lines[1]
        );
        assert!(lines[1].contains("\"grants\":{\"count\":4"), "{}", lines[1]);
        assert!(lines[1].contains("\"journal\":{\"events\":1,\"dropped\":0}"));
        // Healthy snapshot: no scenario or watchdog object at all.
        assert!(!lines[1].contains("scenario"), "{}", lines[1]);
        assert!(!lines[1].contains("watchdog"), "{}", lines[1]);
        assert_eq!(rec.journal_events(), 1);
        // The grant window resets after emission.
        rec.emit_epoch(&snap);
        let last = rec.buffer().lines().last().unwrap().to_string();
        assert!(last.contains("\"grants\":{\"count\":0"), "{last}");
    }

    #[test]
    fn uncapped_budget_emits_null_and_scenario_block_appears() {
        let mut rec = MetricsRecorder::in_memory();
        rec.begin_run("uncapped", f64::INFINITY);
        let dealt = ScenarioCounters {
            leaves: 2,
            joins: 1,
            reboots: 3,
            absent_epochs: 5,
            dropped_reports: 4,
            duplicated_reports: 1,
            delayed_reports: 2,
            dormant_epochs: 6,
        };
        let wd = WatchdogCounters {
            reprobes: 2,
            starved: 1,
            recovery_granted: 3.5,
            healthy: 20,
            recovering: 4,
            suspect: 3,
            dormant: 1,
        };
        let snap = EpochSnapshot {
            devices: 28,
            account: &account(),
            metrics: &MetricsSummary {
                watchdog: Some(wd),
                ..MetricsSummary::default()
            },
            dealt: Some(&dealt),
        };
        rec.emit_epoch(&snap);
        let out = rec.buffer();
        assert!(out.contains("\"budget\":null"), "{out}");
        assert!(out.contains("\"dealt\":{\"leaves\":2"), "{out}");
        assert!(out.contains("\"dormant_epochs\":6"), "{out}");
        assert!(!out.contains("applied"), "{out}");
        assert!(
            out.contains("\"watchdog\":{\"reprobes\":2,\"starved\":1,\"recovery_granted\":3.5"),
            "{out}"
        );
        assert!(out.contains("\"suspect\":3"), "{out}");
    }

    #[test]
    fn emission_cadence_honors_every_and_final_epoch() {
        let mut rec = MetricsRecorder::in_memory();
        rec.set_every(4).unwrap();
        let emitted: Vec<usize> = (0..10).filter(|&e| rec.should_emit(e, 10)).collect();
        assert_eq!(emitted, vec![3, 7, 9]);
        rec.set_every(1).unwrap();
        let all: Vec<usize> = (0..4).filter(|&e| rec.should_emit(e, 4)).collect();
        assert_eq!(all, vec![0, 1, 2, 3]);
    }

    #[test]
    fn zero_cadence_is_refused_and_keeps_the_old_one() {
        let mut rec = MetricsRecorder::in_memory();
        rec.set_every(2).unwrap();
        let err = rec.set_every(0).unwrap_err();
        assert!(err.contains("--metrics-every"), "{err}");
        let emitted: Vec<usize> = (0..4).filter(|&e| rec.should_emit(e, 4)).collect();
        assert_eq!(emitted, vec![1, 3]);
    }

    #[test]
    fn timing_report_renders_all_three_scopes() {
        // A zero-point frontier still renders the timing line.
        let frontier = super::super::FleetFrontier {
            points: Vec::new(),
            steady_demand: 0.0,
            devices: 0,
            epochs: 0,
            window: sweetspot_timeseries::Seconds(86_400.0),
            seed: 0,
            scenario: None,
        };
        let text = timing_report(&frontier, Some(12345));
        assert!(text.contains("timing: build"), "{text}");
        assert!(text.contains("peak RSS 12345 kB"), "{text}");
    }
}
