//! `sweetspot` — the command-line interface.
//!
//! `sweetspot help` lists each command's flags.
//!
//! ```text
//! sweetspot analyze <trace.csv>
//!     Estimate a trace's Nyquist rate and print a sampling recommendation.
//!     The CSV is `time_seconds,value` (header optional, `nan` = lost sample).
//!
//! sweetspot track <trace.csv>
//!     Moving-window Nyquist tracking (the paper's Figure 7) over a trace.
//!
//! sweetspot study
//!     Run the §3.2 fleet study on the synthetic fleet and print Figure 1
//!     plus the headline statistics. `--threads 0` (the default) uses all
//!     available cores; any thread count produces byte-identical output.
//!     `--paper-scale` analyzes the paper's full 1613 metric-device pairs
//!     (115 devices/metric + 3 extras; not with `--devices`). `--timing`
//!     prints the synthesis/clean/estimate wall-clock split to stderr.
//!     `--json` emits the results as JSON on stdout instead of tables.
//!
//! sweetspot fleetsim
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
//! sweetspot demo
//!     Emit a synthetic production trace as CSV on stdout (pipe it back
//!     into `analyze` to try the tool without real data). `--days` is at
//!     most 366: a year of the fastest (30 s) profile.
//! ```
//!
//! Argument parsing is deliberately dependency-free. Flags follow the
//! positional argument, each at most once: a value flag as a `--name value`
//! pair, a switch as a bare `--name`. An unknown flag, a repeated flag or a
//! value flag with no value is rejected with a diagnostic that names the
//! flag and a nonzero exit.
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
    let Some(name) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let mut out = Stdout::default();
    let result = match COMMANDS.iter().find(|c| c.name == name) {
        Some(command) => Args::parse(command, &args[1..])
            .map_err(|e| Failure::Message(format!("{e}\n{FLAG_RULES}")))
            .and_then(|args| (command.run)(&args, &mut out)),
        None if matches!(name.as_str(), "help" | "--help" | "-h") => {
            writeln!(out, "{}", usage()).map_err(Failure::from)
        }
        None => Err(format!("unknown command {name:?}\n{}", usage()).into()),
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

/// The grammar [`Args::parse`] accepts, printed under each of its diagnostics.
const FLAG_RULES: &str = "flags are `--name value` pairs or bare switches, each given at most once";

/// One flag of a subcommand: its name without the leading `--` and the
/// placeholder its value shows in the usage text, which a switch lacks.
type Flag = (&'static str, Option<&'static str>);

/// A subcommand. Its flag table is the one place its flags are named, read
/// by the parser, the unknown-flag diagnostic and the usage text.
struct Command {
    name: &'static str,
    /// The positional argument that precedes the flags, if any.
    positional: Option<&'static str>,
    flags: &'static [Flag],
    run: fn(&Args, &mut Stdout) -> Result<(), Failure>,
}

#[rustfmt::skip]
static COMMANDS: [Command; 5] = [
    Command { name: "analyze", positional: Some("<trace.csv>"), run: cmd_analyze, flags: &[
        ("cutoff", Some("F")), ("headroom", Some("F")), ("interval", Some("SECONDS")),
    ] },
    Command { name: "track", positional: Some("<trace.csv>"), run: cmd_track, flags: &[
        ("window", Some("SECONDS")), ("step", Some("SECONDS")),
    ] },
    Command { name: "study", positional: None, run: cmd_study, flags: &[
        ("devices", Some("N")), ("seed", Some("S")), ("threads", Some("T")),
        ("paper-scale", None), ("timing", None), ("json", None),
    ] },
    Command { name: "fleetsim", positional: None, run: cmd_fleetsim, flags: &[
        ("budget", Some("X")), ("policy", Some("uncapped|uniform|fair|waterfill")),
        ("days", Some("D")), ("devices", Some("N")), ("seed", Some("S")), ("threads", Some("T")),
        ("verify-every", Some("K")), ("fft-cache-mb", Some("M")),
        ("scenario", Some("NAME|SPEC")), ("scenario-seed", Some("S")),
        ("recovery-budget-frac", Some("F")),
        ("metrics-out", Some("PATH")), ("metrics-every", Some("K")),
        ("timing", None), ("json", None), ("json-devices", None),
    ] },
    Command { name: "demo", positional: None, run: cmd_demo, flags: &[
        ("metric", Some("NAME")), ("days", Some("D")), ("seed", Some("S")),
    ] },
];

/// The column the usage text wraps each command's flag list at.
const USAGE_COLUMNS: usize = 88;

/// The usage text, one entry per [`COMMANDS`] row.
fn usage() -> String {
    let mut text = String::from(
        "sweetspot — Nyquist-guided monitoring-rate analysis (HotNets'21 reproduction)\n\nUSAGE:",
    );
    for command in &COMMANDS {
        let flags = command.flags.iter().map(|&(name, value)| match value {
            Some(value) => format!("[--{name} {value}]"),
            None => format!("[--{name}]"),
        });
        let mut line = format!("  sweetspot {:<8}", command.name);
        for word in command.positional.map(String::from).into_iter().chain(flags) {
            if line.len() + 1 + word.len() > USAGE_COLUMNS {
                text += &format!("\n{line}");
                line = " ".repeat(20);
            }
            line += &format!(" {word}");
        }
        text += &format!("\n{line}");
    }
    text + "\n  sweetspot help"
}

/// A command line parsed against its command's flag table; borrows argv.
struct Args<'a> {
    command: &'static Command,
    /// The positional argument; empty for a command that takes none.
    path: &'a str,
    /// The value given for each flag of the table, in table order; a
    /// switch's value is the switch itself.
    values: Vec<Option<&'a str>>,
}

impl<'a> Args<'a> {
    /// Parses `args`, the argv after the command name, in one pass by the
    /// rules in the module docs.
    fn parse(command: &'static Command, args: &'a [String]) -> Result<Self, String> {
        let (path, mut rest) = match (command.positional, args.split_first()) {
            (None, _) => ("", args),
            (Some(_), Some((path, rest))) if !path.starts_with("--") => (path.as_str(), rest),
            (Some(what), _) => return Err(format!("{} needs {what}", command.name)),
        };
        let mut values = vec![None; command.flags.len()];
        while let Some((arg, tail)) = rest.split_first() {
            let name =
                arg.strip_prefix("--").ok_or_else(|| format!("expected a --flag, got {arg:?}"))?;
            let Some(i) = command.flags.iter().position(|&(n, _)| n == name) else {
                let valid: Vec<_> = command.flags.iter().map(|(n, _)| format!("--{n}")).collect();
                return Err(format!(
                    "unknown flag --{name} for `sweetspot {}` (valid: {})",
                    command.name,
                    valid.join(", ")
                ));
            };
            if values[i].is_some() {
                return Err(format!("--{name} is given more than once"));
            }
            (values[i], rest) = match (command.flags[i].1, tail.split_first()) {
                (None, _) => (Some(arg.as_str()), tail),
                (Some(_), Some((v, tail))) if !v.starts_with("--") => (Some(v.as_str()), tail),
                (Some(what), _) => return Err(format!("--{name} needs a value ({what})")),
            };
        }
        Ok(Args { command, path, values })
    }

    /// The value given for `--name`, if any.
    fn value(&self, name: &str) -> Option<&'a str> {
        let i = self.command.flags.iter().position(|&(n, _)| n == name);
        self.values[i.expect("a command reads only the flags of its own table")]
    }

    /// Parses the value of `--name`: `Ok(None)` when the flag is absent, a
    /// diagnostic naming the flag and `what` it wants when malformed.
    fn get<T: std::str::FromStr>(&self, name: &str, what: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| v.parse().map_err(|_| format!("--{name} wants {what}, got {v:?}")))
            .transpose()
    }
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

fn cmd_analyze(args: &Args, out: &mut Stdout) -> Result<(), Failure> {
    let cutoff = args.get("cutoff", "a number")?.unwrap_or(0.99);
    let headroom = args.get("headroom", "a number")?.unwrap_or(1.25);
    let interval = args.get("interval", "seconds")?;
    let cfg = RecommendConfig {
        estimator: NyquistConfig {
            energy_cutoff: cutoff,
            ..NyquistConfig::default()
        },
        headroom,
        min_change_factor: 2.0,
    };
    cfg.validate()?;

    let series = load_trace(args.path, interval)?;
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

fn cmd_track(args: &Args, out: &mut Stdout) -> Result<(), Failure> {
    let window = args.get("window", "a number")?.unwrap_or(6.0 * 3600.0);
    let step = args.get("step", "a number")?.unwrap_or(300.0);
    let cfg = TrackerConfig {
        window: Seconds(window),
        step: Seconds(step),
        estimator: NyquistConfig::default(),
    };
    cfg.validate()?;
    let series = load_trace(args.path, None)?;
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

fn cmd_study(args: &Args, out: &mut Stdout) -> Result<(), Failure> {
    let paper_scale = args.value("paper-scale").is_some();
    let devices = args.get("devices", "an integer")?;
    let threads = args.get("threads", "an integer")?.unwrap_or(0);
    StudyConfig::validate_request(paper_scale, devices, threads)?;
    let seed = args.get("seed", "an integer")?.unwrap_or(0x5EED_CAFE);
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
    if args.value("json").is_some() {
        writeln!(out, "{}", study_json(&study))?;
    } else {
        writeln!(out, "{}", fig1::from_study(&study).render())?;
        writeln!(out, "{}", headline::from_study(&study).render())?;
    }
    if args.value("timing").is_some() {
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

fn cmd_fleetsim(args: &Args, out: &mut Stdout) -> Result<(), Failure> {
    let json_devices = args.value("json-devices").is_some();
    // --json-devices is a refinement of --json, not a separate mode.
    let json = args.value("json").is_some() || json_devices;
    let days = args.get("days", "a number")?.unwrap_or(10.0);
    let seed = args.get("seed", "an integer")?.unwrap_or(0x5EED_CAFE);
    let threads = args.get("threads", "an integer")?.unwrap_or(0);
    let verify_every = args.get("verify-every", "an integer")?.unwrap_or(1);
    // Total FFT plan-cache cap in MiB, split across shards; 0 = unbounded.
    // Eviction rebuilds tables bit-identically, so this never changes output.
    let fft_cache_mb: u64 = args
        .get("fft-cache-mb", "an integer")?
        .unwrap_or((fleetsim::FFT_TABLE_BUDGET_DEFAULT >> 20) as u64);
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
    let devices = args.get("devices", "an integer")?;
    // Failure injection (`ScenarioSpec::parse`). The default "none" is
    // inert: the healthy path stays byte-identical.
    let mut scenario = args
        .value("scenario")
        .map_or(Ok(ScenarioSpec::none()), ScenarioSpec::parse)?;
    scenario.seed = args.get("scenario-seed", "an integer")?.unwrap_or(scenario.seed);
    // Watchdog recovery slice, as a fraction of the fleet's capacity rate.
    // 0 disables the watchdog entirely (bit-identical to the plain engine).
    let recovery_budget_frac = args.get("recovery-budget-frac", "a number")?.unwrap_or(0.0);
    let budget = args.get("budget", "a non-negative number")?;
    if let Some(b) = budget {
        fleetsim::validate_budget(b)?;
    }
    let policy = args
        .value("policy")
        .map(|v| {
            SchedulerPolicy::parse(v).ok_or_else(|| {
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
    let metrics_out = args.value("metrics-out");
    let metrics_every = args.get("metrics-every", "an integer")?.unwrap_or(1);
    if metrics_out.is_none() && args.value("metrics-every").is_some() {
        return Err("--metrics-every only makes sense with --metrics-out".into());
    }
    let mut recorder = metrics_out
        .map(|path| {
            let mut rec = fleetsim::metrics::MetricsRecorder::to_path(std::path::Path::new(path))
                .map_err(|e| format!("cannot open --metrics-out {path:?}: {e}"))?;
            rec.set_every(metrics_every)?;
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
                metrics_out.unwrap_or("")
            )
        })?;
    }
    if json {
        writeln!(out, "{}", frontier.to_json_with(json_devices))?;
    } else {
        out.write_all(frontier.render().as_bytes())?;
    }
    if args.value("timing").is_some() {
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

/// The longest trace `demo` synthesizes: a year of the fastest (30 s)
/// profile is about 1.05 M samples.
const DEMO_MAX_DAYS: f64 = 366.0;

fn cmd_demo(args: &Args, out: &mut Stdout) -> Result<(), Failure> {
    let days = args.get("days", "a number")?.unwrap_or(2.0);
    // Also false for NaN.
    if !(days > 0.0 && days <= DEMO_MAX_DAYS) {
        return Err(format!("--days wants days in (0, {DEMO_MAX_DAYS}], got {days:?}").into());
    }
    let seed = args.get("seed", "an integer")?.unwrap_or(7);
    let metric_name = args.value("metric").unwrap_or("Temperature");
    let kind = MetricKind::ALL
        .iter()
        .find(|k| k.name().eq_ignore_ascii_case(metric_name))
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
