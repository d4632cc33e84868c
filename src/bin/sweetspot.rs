//! `sweetspot` — the command-line interface.
//!
//! ```text
//! sweetspot analyze <trace.csv> [--cutoff F] [--headroom F] [--interval SECONDS]
//!     Estimate a trace's Nyquist rate and print a sampling recommendation.
//!     The CSV is `time_seconds,value` (header optional, `nan` = lost sample).
//!
//! sweetspot track <trace.csv> [--window SECONDS] [--step SECONDS]
//!     Moving-window Nyquist tracking (the paper's Figure 7) over a trace.
//!
//! sweetspot study [--devices N] [--seed S] [--threads T] [--paper-scale] [--timing] [--json]
//!     Run the §3.2 fleet study on the synthetic fleet and print Figure 1
//!     plus the headline statistics. `--threads 0` (the default) uses all
//!     available cores; any thread count produces byte-identical output.
//!     `--paper-scale` analyzes the paper's full 1613 metric-device pairs
//!     (115 devices/metric + 3 extras; overrides `--devices`). `--timing`
//!     prints the synthesis/clean/estimate wall-clock split to stderr.
//!     `--json` emits the results as JSON on stdout instead of tables.
//!
//! sweetspot fleetsim [--budget X] [--policy P] [--days D] [--devices N] [--seed S]
//!                    [--threads T] [--verify-every K] [--fft-cache-mb M]
//!                    [--scenario NAME|SPEC] [--scenario-seed S]
//!                    [--recovery-budget-frac F]
//!                    [--metrics-out PATH] [--metrics-every K]
//!                    [--timing] [--json] [--json-devices]
//!     Fleet-level adaptive simulation: every device's §4.2 controller under
//!     one shared collection budget, with a cross-device scheduler deciding
//!     epoch-by-epoch poll rates. Defaults to the paper-scale 1613-pair
//!     fleet (`--devices N` simulates a fleet of exactly N metric-device
//!     pairs instead, tiling the 14-metric population round-robin — any N
//!     from a handful to 10⁵+). Without `--budget` it sweeps a budget
//!     ladder and prints the cost-vs-quality frontier per policy; with
//!     `--budget X` (cost units/epoch) it runs one point. `--policy` picks one of
//!     uncapped|uniform|fair|waterfill (default: all). `--verify-every K`
//!     runs §4.1 dual-rate verification on settled devices every K-th epoch
//!     instead of continuously (probes always verify; anomalies pull
//!     verification forward; default 1 = continuous). `--fft-cache-mb M`
//!     caps the FFT plan-table caches at M MiB total (0 = unbounded;
//!     default 6144) — eviction rebuilds tables bit-identically, so the cap
//!     trades setup time for memory, never output. `--scenario` injects
//!     fleet lifecycle failures: the preset names `churn`, `incident`,
//!     `lossy-reports`, `cost-skew`, `duty`, `battery`, `diurnal` and
//!     `staggered` compose with `+` (e.g. `churn+lossy-reports`) and
//!     `key=value` terms override fields
//!     (`drop=0.1+reboot=0.01`); `--scenario-seed S` re-deals the fault
//!     schedule. Scenario runs report degraded frontiers (plus incident
//!     time-to-recover p50/p95); `--scenario none` (the default) is inert.
//!     `--recovery-budget-frac F` arms the fleet watchdog: each epoch a
//!     bounded recovery slice (F × the fleet's capacity rate, on top of the
//!     regular schedule) funds exponential-backoff re-probes of devices the
//!     health classifier marks suspect-deadlocked, so a controller trapped
//!     by an aliasing deadlock is walked back above its remembered rate
//!     instead of staying silent forever. F = 0 (the default) disables the
//!     watchdog and is bit-identical to the pre-watchdog engine. Output
//!     is byte-identical for any `--threads T`. `--metrics-out PATH`
//!     streams fleet-scope metrics as JSON lines: one epoch snapshot per
//!     simulated epoch plus flight-recorder event lines, in the schema
//!     that [`sweetspot::analysis::fleetsim::metrics`] states. The file is
//!     byte-identical for any `--threads T`, and recording never changes
//!     stdout. `--metrics-every K` thins
//!     snapshots to every K-th epoch (events and the final epoch always
//!     land). `--json-devices` implies `--json` and adds per-device records
//!     (final rate, mean coverage, deferred/missed epochs) to each frontier
//!     row. `--timing` also reports the member/scratch/fft-table memory
//!     split and (on Linux) the process peak RSS.
//!
//! sweetspot demo [--metric NAME] [--days D] [--seed S]
//!     Emit a synthetic production trace as CSV on stdout (pipe it back
//!     into `analyze` to try the tool without real data).
//! ```
//!
//! Argument parsing is deliberately dependency-free: flags are
//! `--name value` pairs after the positional arguments. Unknown flags are
//! rejected with a diagnostic and a nonzero exit.
//!
//! Every command writes stdout through one locked, buffered writer. A
//! reader that closes the pipe early (`sweetspot track trace.csv | head`)
//! ends the run with exit status 0, as if the output had been written.

use std::io::{BufWriter, ErrorKind, StdoutLock, Write};
use std::process::ExitCode;
use sweetspot::analysis::experiments::{fig1, headline};
use sweetspot::analysis::fleetsim::{
    self, scenario::ScenarioSpec, scheduler::SchedulerPolicy, FleetSimConfig,
};
use sweetspot::analysis::study::{FleetStudy, StudyConfig};
use sweetspot::core::recommend::{recommend, Action, RecommendConfig};
use sweetspot::core::tracker::{summarize, track, TrackerConfig};
use sweetspot::obs::json;
use sweetspot::prelude::*;
use sweetspot::timeseries::clean::{clean, CleanConfig, CleanError};
use sweetspot::timeseries::ingest;

/// Pins glibc's mmap threshold so evicted FFT plan tables return to the OS.
///
/// glibc's threshold is adaptive: the first time a freed mmap'd block is
/// seen it ratchets the threshold toward that size (up to 32 MiB), after
/// which multi-megabyte allocations are carved from the main arena instead
/// — and arena pages freed below the heap top are never returned to the
/// kernel. A 10⁵-device uncapped fleetsim churns tens of GB of Bluestein
/// tables through the byte-budgeted plan cache, so without this pin the
/// LRU eviction frees memory that stays resident and peak RSS barely
/// drops. 128 KiB is glibc's static default: small control allocations
/// stay in the arena, every plan table gets a private mmap whose pages
/// `munmap` hands straight back. Affects memory only, never output.
/// No-op on non-glibc targets.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_malloc_mmap_threshold() {
    /// `M_MMAP_THRESHOLD` from glibc's `malloc.h`.
    const M_MMAP_THRESHOLD: i32 = -3;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: mallopt is async-signal-unsafe but we call it before any
    // other thread exists; both arguments are plain integers.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_malloc_mmap_threshold() {}

fn main() -> ExitCode {
    pin_malloc_mmap_threshold();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let mut out = Stdout::default();
    let result = match command.as_str() {
        "analyze" => cmd_analyze(&args[1..], &mut out),
        "track" => cmd_track(&args[1..], &mut out),
        "study" => cmd_study(&args[1..], &mut out),
        "fleetsim" => cmd_fleetsim(&args[1..], &mut out),
        "demo" => cmd_demo(&args[1..], &mut out),
        "help" | "--help" | "-h" => writeln!(out, "{USAGE}").map_err(Failure::from),
        other => Err(format!("unknown command {other:?}\n{USAGE}").into()),
    };
    // Flush before any diagnostic, so stdout keeps its place ahead of it.
    let flushed = out.flush().map_err(Failure::from);
    match result.and(flushed) {
        Ok(()) => ExitCode::SUCCESS,
        // The reader has all it wants (`… | head`): not an error.
        Err(Failure::Stdout(e)) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(Failure::Stdout(e)) => {
            eprintln!("error: writing stdout: {e}");
            ExitCode::FAILURE
        }
        Err(Failure::Message(message)) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Stdout, locked and buffered from the first write on.
///
/// Opened lazily so that its buffers enter the heap only once the report
/// starts: allocated before `track` loads its trace, they raised its peak
/// RSS by about 80 kB (the heap's layout around the trace buffers changed).
#[derive(Default)]
struct Stdout(Option<BufWriter<StdoutLock<'static>>>);

impl Write for Stdout {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let out = self.0.get_or_insert_with(|| BufWriter::new(std::io::stdout().lock()));
        out.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.0.as_mut().map_or(Ok(()), Write::flush)
    }
}

/// Why a command stopped early.
enum Failure {
    /// A diagnostic for the user: a bad flag, an unreadable trace.
    Message(String),
    /// Writing the report to stdout failed.
    Stdout(std::io::Error),
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure::Message(message)
    }
}

impl From<&str> for Failure {
    fn from(message: &str) -> Self {
        Failure::Message(message.to_string())
    }
}

impl From<std::io::Error> for Failure {
    fn from(e: std::io::Error) -> Self {
        Failure::Stdout(e)
    }
}

const USAGE: &str = "\
sweetspot — Nyquist-guided monitoring-rate analysis (HotNets'21 reproduction)

USAGE:
  sweetspot analyze  <trace.csv> [--cutoff F] [--headroom F] [--interval SECONDS]
  sweetspot track    <trace.csv> [--window SECONDS] [--step SECONDS]
  sweetspot study    [--devices N] [--seed S] [--threads T] [--paper-scale] [--timing] [--json]
  sweetspot fleetsim [--budget X] [--policy uncapped|uniform|fair|waterfill] [--days D]
                     [--devices N] [--seed S] [--threads T] [--verify-every K]
                     [--fft-cache-mb M] [--scenario NAME|SPEC] [--scenario-seed S]
                     [--recovery-budget-frac F]
                     [--metrics-out PATH] [--metrics-every K]
                     [--timing] [--json] [--json-devices]
  sweetspot demo     [--metric NAME] [--days D] [--seed S]
  sweetspot help";

/// Rejects flags no command knows about: a typo must fail loudly, not
/// silently fall back to a default.
fn reject_unknown_flags(
    flags: &[(String, String)],
    known: &[&str],
    command: &str,
) -> Result<(), String> {
    for (name, _) in flags {
        if !known.contains(&name.as_str()) {
            let mut valid: Vec<String> = known.iter().map(|k| format!("--{k}")).collect();
            valid.sort();
            return Err(format!(
                "unknown flag --{name} for `sweetspot {command}` (valid: {})",
                valid.join(", ")
            ));
        }
    }
    Ok(())
}

/// Parses `--name value` flag pairs after `positional` leading arguments.
fn flags(args: &[String], positional: usize) -> Result<Vec<(String, String)>, String> {
    let rest = &args[positional..];
    if !rest.len().is_multiple_of(2) {
        return Err("flags must come in `--name value` pairs".into());
    }
    rest.chunks(2)
        .map(|pair| {
            let name = pair[0]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, got {:?}", pair[0]))?;
            Ok((name.to_string(), pair[1].clone()))
        })
        .collect()
}

fn flag_f64(flags: &[(String, String)], name: &str, default: f64) -> Result<f64, String> {
    match flags.iter().find(|(n, _)| n == name) {
        Some((_, v)) => v.parse().map_err(|_| format!("--{name} wants a number, got {v:?}")),
        None => Ok(default),
    }
}

fn flag_u64(flags: &[(String, String)], name: &str, default: u64) -> Result<u64, String> {
    match flags.iter().find(|(n, _)| n == name) {
        Some((_, v)) => v.parse().map_err(|_| format!("--{name} wants an integer, got {v:?}")),
        None => Ok(default),
    }
}

/// Parses an *optional* `--name value` flag (no default): `Ok(None)` when
/// absent, a parse diagnostic mentioning `what` when malformed.
fn flag_opt<T: std::str::FromStr>(
    flags: &[(String, String)],
    name: &str,
    what: &str,
) -> Result<Option<T>, String> {
    flags
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| {
            v.parse::<T>()
                .map_err(|_| format!("--{name} wants {what}, got {v:?}"))
        })
        .transpose()
}

fn load_trace(path: &str, interval: Option<f64>) -> Result<RegularSeries, String> {
    // Drop the text once parsed so it does not add to peak memory while cleaning.
    let raw = {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        ingest::parse_csv(&text).map_err(|e| format!("{path}: {e}"))?
    };
    if raw.len() < 8 {
        return Err(format!("{path}: only {} usable samples", raw.len()));
    }
    let series = clean(
        &raw,
        CleanConfig {
            interval: interval.map(Seconds),
            outlier_mads: Some(8.0),
        },
    )
    .map_err(|e| match (e, interval) {
        (CleanError::BadInterval(_) | CleanError::GridTooDense { .. }, Some(s)) => {
            format!("{path}: --interval {s:?}: {e}")
        }
        _ => format!("{path}: {e}"),
    })?;
    // The estimator needs `MIN_SAMPLES`: a coarse `--interval` or a trace
    // of mostly NaN rows can re-grid to fewer.
    let n = series.len();
    match interval {
        _ if n >= NyquistEstimator::MIN_SAMPLES => Ok(series),
        Some(s) => Err(format!(
            "{path}: --interval {s} leaves {n} samples, the estimator needs at least {}",
            NyquistEstimator::MIN_SAMPLES
        )),
        None => Err(format!("{path}: too few valid samples to analyze ({n} after cleaning)")),
    }
}

fn cmd_analyze(args: &[String], out: &mut impl Write) -> Result<(), Failure> {
    let path = args.first().ok_or("analyze needs a trace path")?;
    let flags = flags(args, 1)?;
    reject_unknown_flags(&flags, &["cutoff", "headroom", "interval"], "analyze")?;
    let cutoff = flag_f64(&flags, "cutoff", 0.99)?;
    let headroom = flag_f64(&flags, "headroom", 1.25)?;
    let interval = flag_opt::<f64>(&flags, "interval", "seconds")?;
    let cfg = RecommendConfig {
        estimator: NyquistConfig {
            energy_cutoff: cutoff,
            ..NyquistConfig::default()
        },
        headroom,
        min_change_factor: 2.0,
    };
    cfg.validate()?;

    let series = load_trace(path, interval)?;
    writeln!(
        out,
        "trace: {} samples at {} ({} total)",
        series.len(),
        series.sample_rate(),
        series.duration()
    )?;
    let rec = recommend(&series, cfg);
    match rec.estimated_nyquist {
        Some(rate) => writeln!(out, "estimated Nyquist rate: {rate}")?,
        None => writeln!(out, "estimated Nyquist rate: none (trace looks aliased)")?,
    }
    match rec.action {
        Action::Keep => writeln!(out, "recommendation: KEEP the current rate")?,
        Action::Reduce { to, saving_factor } => writeln!(
            out,
            "recommendation: REDUCE to {to} ({saving_factor:.0}x fewer samples, \
             ≈{:.0} samples/day saved)",
            rec.samples_saved_per_day()
        )?,
        Action::Increase { to } => writeln!(
            out,
            "recommendation: INCREASE to at least {to} — the trace is under-sampled \
             (re-run after the change; the folded estimate is a lower bound)"
        )?,
        Action::Inspect => writeln!(
            out,
            "recommendation: INSPECT — run a dual-rate probe (§4.1); a single \
             trace cannot assess this signal"
        )?,
    }
    Ok(())
}

fn cmd_track(args: &[String], out: &mut impl Write) -> Result<(), Failure> {
    let path = args.first().ok_or("track needs a trace path")?;
    let flags = flags(args, 1)?;
    reject_unknown_flags(&flags, &["window", "step"], "track")?;
    let window = flag_f64(&flags, "window", 6.0 * 3600.0)?;
    let step = flag_f64(&flags, "step", 300.0)?;
    let cfg = TrackerConfig {
        window: Seconds(window),
        step: Seconds(step),
        estimator: NyquistConfig::default(),
    };
    cfg.validate()?;
    let series = load_trace(path, None)?;
    let points = track(&series, cfg);
    if points.is_empty() {
        return Err("trace is shorter than one window".into());
    }
    writeln!(out, "window_start_seconds,nyquist_rate_hz")?;
    for p in &points {
        match p.estimate.rate() {
            Some(r) => writeln!(out, "{},{}", p.window_start.value(), r.value())?,
            None => writeln!(out, "{},aliased", p.window_start.value())?,
        }
    }
    out.flush()?;
    let s = summarize(&points);
    eprintln!(
        "windows={} aliased={} min={:?} max={:?}",
        s.total_windows,
        s.aliased_windows,
        s.min_rate.map(|r| r.value()),
        s.max_rate.map(|r| r.value())
    );
    Ok(())
}

/// Removes a bare boolean `--name` switch from `args`, returning whether it
/// was present (so the `--name value` pair parser never sees it).
fn take_switch(args: &[String], name: &str) -> (bool, Vec<String>) {
    let mut found = false;
    let rest = args
        .iter()
        .filter(|a| {
            let hit = a.as_str() == name;
            found |= hit;
            !hit
        })
        .cloned()
        .collect();
    (found, rest)
}

fn cmd_study(args: &[String], out: &mut impl Write) -> Result<(), Failure> {
    let (paper_scale, rest) = take_switch(args, "--paper-scale");
    let (timing, rest) = take_switch(&rest, "--timing");
    let (json, rest) = take_switch(&rest, "--json");
    let flags = flags(&rest, 0)?;
    reject_unknown_flags(&flags, &["devices", "seed", "threads"], "study")?;
    let devices = flag_opt::<usize>(&flags, "devices", "an integer")?;
    let threads = flag_u64(&flags, "threads", 0)? as usize;
    StudyConfig::validate_request(paper_scale, devices, threads)?;
    let seed = flag_u64(&flags, "seed", 0x5EED_CAFE)?;
    let study = if paper_scale {
        FleetStudy::run_paper_scale(seed, NyquistConfig::default(), threads)
    } else {
        let cfg = StudyConfig {
            fleet: FleetConfig {
                seed,
                devices_per_metric: devices.unwrap_or(40),
                trace_duration: Seconds::from_days(1.0),
            },
            threads,
            ..StudyConfig::default()
        };
        FleetStudy::run(cfg)
    };
    if json {
        writeln!(out, "{}", study_json(&study))?;
    } else {
        writeln!(out, "{}", fig1::from_study(&study).render())?;
        writeln!(out, "{}", headline::from_study(&study).render())?;
    }
    if timing {
        out.flush()?;
        // stderr, not stdout: timing varies run to run, and stdout must stay
        // byte-identical across thread counts (CI compares it verbatim).
        let t = study.timing;
        let total = t.total().as_secs_f64().max(f64::MIN_POSITIVE);
        let pct = |d: std::time::Duration| 100.0 * d.as_secs_f64() / total;
        eprintln!(
            "timing: synthesis {:.3}s ({:.0}%) | clean {:.3}s ({:.0}%) | estimate {:.3}s ({:.0}%; \
             fft tables built in {:.3}s) | total {:.3}s across workers over {} pairs",
            t.synthesis.as_secs_f64(),
            pct(t.synthesis),
            t.clean.as_secs_f64(),
            pct(t.clean),
            t.estimate.as_secs_f64(),
            pct(t.estimate),
            t.fft_tables.as_secs_f64(),
            t.total().as_secs_f64(),
            study.pairs.len()
        );
    }
    Ok(())
}

/// The `--json` rendering of a fleet study: headline statistics plus the
/// per-metric Figure 1 fractions.
fn study_json(study: &FleetStudy) -> String {
    let f1 = fig1::from_study(study);
    let h = headline::from_study(study);
    let s = &h.summary;
    let mut out = String::new();
    json::object(&mut out, |root| {
        root.uint("pairs", s.pairs as u64)
            .num("oversampled_fraction", s.oversampled_fraction)
            .num("undersampled_fraction", s.undersampled_fraction)
            .num("reducible_10x", s.reducible_10x)
            .num("reducible_100x", s.reducible_100x)
            .num("reducible_1000x", s.reducible_1000x);
        match h.temperature_range {
            Some((lo, hi)) => root.array("temperature_nyquist_range_hz", |range| {
                range.num(lo).num(hi);
            }),
            None => root.null("temperature_nyquist_range_hz"),
        };
        root.array("per_metric", |rows| {
            for (kind, fraction) in &f1.rows {
                rows.object(|row| {
                    row.str("metric", kind.name())
                        .num("oversampled_fraction", *fraction);
                });
            }
        });
    });
    out
}

fn cmd_fleetsim(args: &[String], out: &mut impl Write) -> Result<(), Failure> {
    let (timing, rest) = take_switch(args, "--timing");
    let (json, rest) = take_switch(&rest, "--json");
    let (json_devices, rest) = take_switch(&rest, "--json-devices");
    // --json-devices is a refinement of --json, not a separate mode.
    let json = json || json_devices;
    let flags = flags(&rest, 0)?;
    reject_unknown_flags(
        &flags,
        &[
            "budget",
            "policy",
            "days",
            "devices",
            "fft-cache-mb",
            "metrics-every",
            "metrics-out",
            "recovery-budget-frac",
            "scenario",
            "scenario-seed",
            "seed",
            "threads",
            "verify-every",
        ],
        "fleetsim",
    )?;
    let days = flag_f64(&flags, "days", 10.0)?;
    let seed = flag_u64(&flags, "seed", 0x5EED_CAFE)?;
    let threads = flag_u64(&flags, "threads", 0)? as usize;
    let verify_every = flag_u64(&flags, "verify-every", 1)? as usize;
    // Total FFT plan-cache cap in MiB, split across shards; 0 = unbounded.
    // Eviction rebuilds tables bit-identically, so this never changes output.
    let fft_cache_mb = flag_u64(
        &flags,
        "fft-cache-mb",
        (fleetsim::FFT_TABLE_BUDGET_DEFAULT >> 20) as u64,
    )?;
    let fft_table_budget = (fft_cache_mb > 0)
        .then(|| {
            fft_cache_mb
                .checked_mul(1 << 20)
                .and_then(|bytes| usize::try_from(bytes).ok())
                .ok_or_else(|| {
                    format!("--fft-cache-mb wants a cap that fits in a byte count, got {fft_cache_mb} MiB")
                })
        })
        .transpose()?;
    let devices = flag_opt::<usize>(&flags, "devices", "an integer")?;
    // Failure injection: preset names compose with `+` (churn, incident,
    // lossy-reports, cost-skew, duty, battery, diurnal, staggered) and
    // key=value terms override fields. The default "none" is inert — the
    // healthy path stays byte-identical.
    let mut scenario = flag_opt::<String>(&flags, "scenario", "a scenario spec")?
        .map_or(Ok(ScenarioSpec::none()), |s| ScenarioSpec::parse(&s))?;
    scenario.seed = flag_u64(&flags, "scenario-seed", scenario.seed)?;
    // Watchdog recovery slice, as a fraction of the fleet's capacity rate.
    // 0 disables the watchdog entirely (bit-identical to the plain engine).
    let recovery_budget_frac = flag_f64(&flags, "recovery-budget-frac", 0.0)?;
    let budget = flag_opt::<f64>(&flags, "budget", "a non-negative number")?;
    if let Some(b) = budget {
        fleetsim::validate_budget(b)?;
    }
    let policy = flag_opt::<String>(&flags, "policy", "a policy name")?
        .map(|v| {
            SchedulerPolicy::parse(&v).ok_or_else(|| {
                format!(
                    "unknown policy {v:?}; valid: {}",
                    SchedulerPolicy::ALL.map(|p| p.name()).join("|")
                )
            })
        })
        .transpose()?;
    let cfg = FleetSimConfig {
        fleet: FleetConfig {
            seed,
            devices_per_metric: 115,
            trace_duration: Seconds::from_days(1.0),
        },
        // The paper-scale 1613-pair fleet is the default; --devices N
        // switches to an N-pair round-robin fleet (beyond 1613 included).
        paper_scale: devices.is_none(),
        devices,
        days,
        threads,
        verify_every,
        fft_table_budget,
        scenario,
        recovery_budget_frac,
        ..FleetSimConfig::default()
    };
    cfg.validate()?;
    let metrics_out = flag_opt::<String>(&flags, "metrics-out", "a file path")?;
    let metrics_every = flag_u64(&flags, "metrics-every", 1)? as usize;
    if metrics_every == 0 {
        return Err("--metrics-every wants a positive epoch count (1 = every epoch)".into());
    }
    if metrics_out.is_none() && flags.iter().any(|(n, _)| n == "metrics-every") {
        return Err("--metrics-every only makes sense with --metrics-out".into());
    }
    let mut recorder = metrics_out
        .as_deref()
        .map(|path| {
            let mut rec = fleetsim::metrics::MetricsRecorder::to_path(std::path::Path::new(path))
                .map_err(|e| format!("cannot open --metrics-out {path:?}: {e}"))?;
            rec.set_every(metrics_every);
            Ok::<_, String>(rec)
        })
        .transpose()?;
    let rec = recorder.as_mut();
    let frontier = match (budget, policy) {
        (Some(b), p) => fleetsim::run_point_recorded(&cfg, b, p, rec),
        (None, Some(p)) => fleetsim::run_frontier_for_recorded(&cfg, &[p], rec),
        (None, None) => {
            fleetsim::run_frontier_for_recorded(&cfg, &fleetsim::CAPPED_POLICIES, rec)
        }
    };
    if let Some(mut rec) = recorder {
        rec.finish().map_err(|e| {
            format!(
                "writing --metrics-out {:?} failed: {e}",
                metrics_out.as_deref().unwrap_or("")
            )
        })?;
    }
    if json {
        writeln!(out, "{}", frontier.to_json_with(json_devices))?;
    } else {
        out.write_all(frontier.render().as_bytes())?;
    }
    if timing {
        out.flush()?;
        // stderr, not stdout: timing varies run to run, and stdout must stay
        // byte-identical across thread counts (CI compares it verbatim).
        eprint!(
            "{}",
            fleetsim::metrics::timing_report(
                &frontier,
                sweetspot::analysis::report::peak_rss_kb()
            )
        );
    }
    Ok(())
}

fn cmd_demo(args: &[String], out: &mut impl Write) -> Result<(), Failure> {
    let flags = flags(args, 0)?;
    reject_unknown_flags(&flags, &["metric", "days", "seed"], "demo")?;
    let days = flag_f64(&flags, "days", 2.0)?;
    if !(days.is_finite() && days > 0.0) {
        return Err(format!("--days wants a positive, finite number of days, got {days}").into());
    }
    let seed = flag_u64(&flags, "seed", 7)?;
    let metric_name = flag_opt::<String>(&flags, "metric", "a metric name")?
        .unwrap_or_else(|| "Temperature".into());
    let kind = MetricKind::ALL
        .iter()
        .find(|k| k.name().eq_ignore_ascii_case(&metric_name))
        .ok_or_else(|| {
            format!(
                "unknown metric {metric_name:?}; valid: {}",
                MetricKind::ALL.map(|k| k.name()).join(", ")
            )
        })?;
    let device = DeviceTrace::synthesize(MetricProfile::for_kind(*kind), 0, seed);
    let trace = device.production_trace(Seconds::from_days(days));
    out.write_all(ingest::to_csv(&trace).as_bytes())?;
    Ok(())
}
