//! `perfbench-layers WORKLOAD SECONDS ARGS...` — one benchmark workload in
//! process, with its time split by layer.
//!
//! Each invocation does the work of one `sweetspot` CLI invocation. Where
//! the library times its own phases, those timings are read back; the
//! `analyze` and `track` commands have none, so their pipeline is composed
//! from the same public calls the CLI makes, with a span around each:
//!
//! | span       | analyze / track                      | study (`PhaseTimings`)  | fleetsim (`FleetTimings`) |
//! |------------|--------------------------------------|-------------------------|---------------------------|
//! | `prepare`  | read + `ingest::parse_csv` + `clean` | `synthesis` + `clean`   | `build`                   |
//! | `estimate` | `recommend` / `track` + `summarize`  | `estimate`              | `step`                    |
//! | `self`     | rest of the invocation               | rest: roll-up, figures  | rest: `schedule`, report  |
//!
//! Invocations cycle through the inputs until `SECONDS` have passed (at
//! least one round). The last stdout line is one JSON object:
//! `invocations`, the mean time per invocation of each span in ms
//! (`spans_ms`, plus `command` for the whole invocation), and `results`,
//! one result per input for `run.py` to check against ground truth.
//!
//! ```text
//! perfbench-layers analyze  SECONDS FILE...
//! perfbench-layers track    SECONDS WINDOW_S STEP_S FILE...
//! perfbench-layers study    SECONDS DEVICES_PER_METRIC SEED...
//! perfbench-layers fleetsim SECONDS DEVICES DAYS BUDGET POLICY SEED...
//! ```

use std::hint::black_box;
use std::time::{Duration, Instant};
use sweetspot::analysis::experiments::{fig1, headline};
use sweetspot::analysis::fleetsim::{self, scheduler::SchedulerPolicy};
use sweetspot::analysis::study::{FleetStudy, StudyConfig};
use sweetspot::analysis::FleetSimConfig;
use sweetspot::core::recommend::{recommend, RecommendConfig};
use sweetspot::core::tracker::{summarize, track, TrackerConfig};
use sweetspot::prelude::*;
use sweetspot::timeseries::clean::{clean, CleanConfig};
use sweetspot::timeseries::ingest;

/// Time spent per span, summed over a run.
#[derive(Default)]
struct Spans {
    command: Duration,
    prepare: Duration,
    estimate: Duration,
}

fn main() {
    if let Err(message) = run() {
        eprintln!("perfbench-layers: {message}");
        std::process::exit(2);
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, seconds, rest) = match args.as_slice() {
        [w, s, rest @ ..] => (w.as_str(), s, rest),
        _ => return Err("usage: perfbench-layers WORKLOAD SECONDS ARGS...".into()),
    };
    let seconds: f64 = parse(seconds, "SECONDS")?;
    let mut workload: Box<dyn Workload> = match workload {
        "analyze" => Box::new(Analyze::new(rest)?),
        "track" => Box::new(Track::new(rest)?),
        "study" => Box::new(Study::new(rest)?),
        "fleetsim" => Box::new(Fleetsim::new(rest)?),
        other => return Err(format!("unknown workload {other:?}")),
    };
    let inputs = workload.inputs();
    let results: Vec<String> = (0..inputs)
        .map(|i| workload.invoke(i, &mut Spans::default()))
        .collect();

    let mut spans = Spans::default();
    let mut invocations = 0u64;
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    while invocations == 0 || started.elapsed() < budget {
        for i in 0..inputs {
            let t0 = Instant::now();
            black_box(workload.invoke(i, &mut spans));
            spans.command += t0.elapsed();
            invocations += 1;
        }
    }

    let per = |d: Duration| d.as_secs_f64() * 1e3 / invocations as f64;
    let self_time = spans.command.saturating_sub(spans.prepare + spans.estimate);
    println!(
        "{{\"invocations\":{invocations},\"spans_ms\":{{\"command\":{},\"prepare\":{},\
         \"estimate\":{},\"self\":{}}},\"results\":[{}]}}",
        per(spans.command),
        per(spans.prepare),
        per(spans.estimate),
        per(self_time),
        results.join(",")
    );
    Ok(())
}

/// One CLI workload, run in process.
trait Workload {
    /// Number of distinct inputs; invocations cycle through them.
    fn inputs(&self) -> usize;
    /// One invocation on input `i`, its layers timed into `spans`. Returns
    /// the result as a JSON value for the ground-truth checks in `run.py`.
    fn invoke(&mut self, i: usize, spans: &mut Spans) -> String;
}

fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *slot += t0.elapsed();
    out
}

fn json_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "null".into(), |x| format!("{x}"))
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("{what} wants a number, got {s:?}"))
}

fn parse_seeds(seeds: &[String]) -> Result<Vec<u64>, String> {
    if seeds.is_empty() {
        return Err("at least one SEED is needed".into());
    }
    seeds.iter().map(|s| parse(s, "SEED")).collect()
}

/// The front half of `sweetspot analyze|track FILE`: read, parse, clean
/// (outliers beyond 8 MADs dropped).
fn load(path: &str, spans: &mut Spans) -> RegularSeries {
    timed(&mut spans.prepare, || {
        let text = std::fs::read_to_string(path).expect("input file is readable");
        let raw = ingest::parse_csv(&text).expect("input CSV parses");
        clean(
            &raw,
            CleanConfig {
                interval: None,
                outlier_mads: Some(8.0),
            },
        )
        .expect("input cleans")
    })
}

struct Analyze {
    files: Vec<String>,
}

impl Analyze {
    fn new(args: &[String]) -> Result<Self, String> {
        if args.is_empty() {
            return Err("analyze wants FILE...".into());
        }
        Ok(Analyze {
            files: args.to_vec(),
        })
    }

    /// The configuration `sweetspot analyze` uses.
    fn config() -> RecommendConfig {
        RecommendConfig {
            estimator: NyquistConfig {
                energy_cutoff: 0.99,
                ..NyquistConfig::default()
            },
            headroom: 1.25,
            min_change_factor: 2.0,
        }
    }
}

impl Workload for Analyze {
    fn inputs(&self) -> usize {
        self.files.len()
    }

    /// Result: the estimated Nyquist rate in Hz.
    fn invoke(&mut self, i: usize, spans: &mut Spans) -> String {
        let series = load(&self.files[i], spans);
        let rec = timed(&mut spans.estimate, || recommend(&series, Self::config()));
        json_opt(rec.estimated_nyquist.map(|r| r.value()))
    }
}

struct Track {
    cfg: TrackerConfig,
    files: Vec<String>,
}

impl Track {
    fn new(args: &[String]) -> Result<Self, String> {
        let [window, step, files @ ..] = args else {
            return Err("track wants WINDOW_S STEP_S FILE...".into());
        };
        if files.is_empty() {
            return Err("track wants at least one FILE".into());
        }
        Ok(Track {
            cfg: TrackerConfig {
                window: Seconds(parse(window, "WINDOW_S")?),
                step: Seconds(parse(step, "STEP_S")?),
                estimator: NyquistConfig::default(),
            },
            files: files.to_vec(),
        })
    }
}

impl Workload for Track {
    fn inputs(&self) -> usize {
        self.files.len()
    }

    /// Result: `[windows, aliased windows, lowest rate, highest rate]`.
    fn invoke(&mut self, i: usize, spans: &mut Spans) -> String {
        let series = load(&self.files[i], spans);
        let s = timed(&mut spans.estimate, || summarize(&track(&series, self.cfg)));
        format!(
            "[{},{},{},{}]",
            s.total_windows,
            s.aliased_windows,
            json_opt(s.min_rate.map(|r| r.value())),
            json_opt(s.max_rate.map(|r| r.value()))
        )
    }
}

/// `sweetspot study --devices N --seed S --threads 1 --json`.
struct Study {
    devices: usize,
    seeds: Vec<u64>,
}

impl Study {
    fn new(args: &[String]) -> Result<Self, String> {
        let [devices, seeds @ ..] = args else {
            return Err("study wants DEVICES_PER_METRIC SEED...".into());
        };
        Ok(Study {
            devices: parse(devices, "DEVICES_PER_METRIC")?,
            seeds: parse_seeds(seeds)?,
        })
    }
}

impl Workload for Study {
    fn inputs(&self) -> usize {
        self.seeds.len()
    }

    /// Result: `[pairs, oversampled fraction, fraction the estimator
    /// classified correctly against the synthetic ground truth]`.
    fn invoke(&mut self, i: usize, spans: &mut Spans) -> String {
        let study = FleetStudy::run(StudyConfig {
            fleet: FleetConfig {
                seed: self.seeds[i],
                devices_per_metric: self.devices,
                trace_duration: Seconds::from_days(1.0),
            },
            threads: 1,
            ..StudyConfig::default()
        });
        let t = study.timing;
        spans.prepare += t.synthesis + t.clean;
        spans.estimate += t.estimate;
        // The roll-ups the CLI's `--json` report is built from.
        black_box((fig1::from_study(&study), headline::from_study(&study)));
        let correct = study
            .pairs
            .iter()
            .filter(|p| p.estimate.is_aliased() == p.truly_undersampled)
            .count();
        format!(
            "[{},{},{}]",
            study.pairs.len(),
            study.summary().oversampled_fraction,
            correct as f64 / study.pairs.len() as f64
        )
    }
}

/// `sweetspot fleetsim --devices N --days D --budget B --policy P --seed S
/// --threads 1 --json`.
struct Fleetsim {
    devices: usize,
    days: f64,
    budget: f64,
    policy: SchedulerPolicy,
    seeds: Vec<u64>,
}

impl Fleetsim {
    fn new(args: &[String]) -> Result<Self, String> {
        let [devices, days, budget, policy, seeds @ ..] = args else {
            return Err("fleetsim wants DEVICES DAYS BUDGET POLICY SEED...".into());
        };
        Ok(Fleetsim {
            devices: parse(devices, "DEVICES")?,
            days: parse(days, "DAYS")?,
            budget: parse(budget, "BUDGET")?,
            policy: SchedulerPolicy::parse(policy).ok_or(format!("unknown policy {policy:?}"))?,
            seeds: parse_seeds(seeds)?,
        })
    }

    /// The configuration `sweetspot fleetsim` builds from the same flags.
    fn config(&self, i: usize) -> FleetSimConfig {
        FleetSimConfig {
            fleet: FleetConfig {
                seed: self.seeds[i],
                devices_per_metric: 115,
                trace_duration: Seconds::from_days(1.0),
            },
            paper_scale: false,
            devices: Some(self.devices),
            days: self.days,
            threads: 1,
            ..FleetSimConfig::default()
        }
    }
}

impl Workload for Fleetsim {
    fn inputs(&self) -> usize {
        self.seeds.len()
    }

    /// Result: `[devices, total samples, mean coverage]`.
    fn invoke(&mut self, i: usize, spans: &mut Spans) -> String {
        let frontier = fleetsim::run_point(&self.config(i), self.budget, Some(self.policy));
        let t = frontier.timing();
        spans.prepare += t.build;
        spans.estimate += t.step;
        black_box(frontier.to_json_with(false));
        let outcome = &frontier.points[0].outcome;
        let n = outcome.device_quality.len();
        format!(
            "[{n},{},{}]",
            outcome.ledger.total_samples(),
            outcome.device_quality.iter().map(|q| q.mean_coverage).sum::<f64>() / n as f64
        )
    }
}
