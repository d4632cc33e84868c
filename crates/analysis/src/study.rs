//! The §3.2 fleet study engine.
//!
//! For every `(metric, device)` pair: take one day of the device's measured
//! production trace, pre-clean it (nearest-neighbour re-gridding), run the
//! Nyquist estimator, and record the possible-reduction outcome.
//!
//! # Sharded execution
//!
//! The study is embarrassingly parallel, and the engine exploits that with a
//! shard-per-worker design (CPU-bound work ⇒ scoped threads, not async):
//!
//! 1. The `(metric, device)` index space is split into `threads` contiguous
//!    shards.
//! 2. Each worker **synthesizes its own devices** — trace generation is the
//!    expensive half of the study, so it parallelizes too. Every device's RNG
//!    is seeded from `(fleet seed, metric, device)` alone (see
//!    [`DeviceTrace::synthesize`]), so no worker consumes a shared random
//!    stream and each shard's results are a pure function of the config.
//! 3. Shards are merged back in index order.
//!
//! Consequence: results are **bit-identical regardless of thread count** —
//! `--threads 1` and `--threads 64` produce byte-identical reports. The
//! `parallel_and_serial_agree` test pins this.

use std::time::{Duration, Instant};
use sweetspot_core::estimator::{
    EstimatorScratch, NyquistConfig, NyquistEstimate, NyquistEstimator,
};
use sweetspot_core::reduction::{reduction_outcome, summarize, ReductionOutcome, ReductionSummary};
use sweetspot_dsp::stats::{Cdf, FiveNumber};
use sweetspot_telemetry::{DeviceTrace, FleetConfig, MetricKind, MetricProfile, TraceSynth};
use sweetspot_timeseries::clean::{clean_slices_into, CleanConfig, CleanScratch};
use sweetspot_timeseries::ingest::TraceMeta;
use sweetspot_timeseries::{Hertz, Seconds};

/// Study parameters.
#[derive(Debug, Clone, Copy)]
#[derive(Default)]
pub struct StudyConfig {
    /// Fleet to build and analyze.
    pub fleet: FleetConfig,
    /// Estimator settings (§3.2 defaults).
    pub estimator: NyquistConfig,
    /// Worker threads (0 ⇒ available parallelism).
    pub threads: usize,
}


impl StudyConfig {
    /// Checks a `study` request before it runs, as
    /// `FleetSimConfig::validate` does for fleetsim; the error names the
    /// `study` flag at fault. `paper_scale` selects
    /// [`FleetStudy::run_paper_scale`], whose fleet is the fixed 1613-pair
    /// population, so it takes no per-metric `devices` count. Otherwise the
    /// fleet ([`FleetStudy::run`]) needs at least one device per metric: an
    /// empty one would report headline fractions summing to 0, not 1. Either
    /// fleet takes at most 1024 `threads`.
    pub fn validate_request(
        paper_scale: bool,
        devices: Option<usize>,
        threads: usize,
    ) -> Result<(), String> {
        crate::shard::validate_threads(threads)?;
        match (paper_scale, devices) {
            (true, Some(_)) => Err("--paper-scale and --devices conflict: the paper-scale \
                                    fleet is exactly 1613 pairs (115/metric + 3 extras)"
                .into()),
            (false, Some(0)) => {
                Err("--devices wants a positive number of devices per metric".into())
            }
            _ => Ok(()),
        }
    }

    /// Resolves `threads: 0` to the machine's available parallelism and caps
    /// the worker count at `work_items` (no point spawning idle workers).
    fn resolve_threads(&self, work_items: usize) -> usize {
        crate::shard::resolve_threads(self.threads, work_items)
    }
}

/// One pair's study result.
#[derive(Debug, Clone)]
pub struct PairResult {
    /// Metric kind.
    pub kind: MetricKind,
    /// Pair identity.
    pub meta: TraceMeta,
    /// Today's (production) sampling rate.
    pub production_rate: Hertz,
    /// The §3.2 estimate from the measured trace.
    pub estimate: NyquistEstimate,
    /// Reduction classification and ratio.
    pub outcome: ReductionOutcome,
    /// Ground truth: was this pair truly under-sampled at production rate?
    /// (Available because the fleet is synthetic; lets tests check the
    /// estimator's classification accuracy.)
    pub truly_undersampled: bool,
}

/// Wall-clock totals of the three per-pair phases, summed over every pair a
/// worker (or, after merging, the whole study) processed. Because phases are
/// summed across concurrent workers, the totals measure aggregate CPU time,
/// not elapsed time — the right quantity for "which phase dominates".
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Trace synthesis: oscillator-bank ground truth + impairment chain.
    pub synthesis: Duration,
    /// §3.2 pre-cleaning (outlier discard + nearest-neighbour re-gridding).
    pub clean: Duration,
    /// Nyquist estimation (PSD + energy threshold).
    pub estimate: Duration,
    /// FFT and window table construction, summed over the workers' plan
    /// caches — a part of `estimate`, not an addition to it.
    pub fft_tables: Duration,
}

impl PhaseTimings {
    /// Sum of the three phases (`fft_tables` is inside `estimate`).
    pub fn total(&self) -> Duration {
        self.synthesis + self.clean + self.estimate
    }

    fn merge(&mut self, other: PhaseTimings) {
        self.synthesis += other.synthesis;
        self.clean += other.clean;
        self.estimate += other.estimate;
        self.fft_tables += other.fft_tables;
    }
}

/// Persistent per-worker state for the study loop: synthesis scratch
/// (oscillator bank + trace buffers), cleaning scratch, the estimator and
/// the estimator scratch it is lent (FFT plans and buffers). With one
/// `WorkerScratch` per worker the steady-state per-pair loop recycles every
/// sample buffer it touches — the only remaining allocations are the
/// O(tones) model and identity strings a fresh [`DeviceTrace`] itself owns.
pub struct WorkerScratch {
    synth: TraceSynth,
    times: Vec<Seconds>,
    values: Vec<f64>,
    clean: CleanScratch,
    estimator: NyquistEstimator,
    estimate: EstimatorScratch,
    timings: PhaseTimings,
}

impl WorkerScratch {
    /// Fresh scratch with an estimator configured as `cfg`.
    pub fn new(cfg: NyquistConfig) -> Self {
        WorkerScratch {
            synth: TraceSynth::new(),
            times: Vec::new(),
            values: Vec::new(),
            clean: CleanScratch::new(),
            estimator: NyquistEstimator::new(cfg),
            estimate: EstimatorScratch::new(),
            timings: PhaseTimings::default(),
        }
    }
}

/// The results of one worker's contiguous slice of the index space.
#[derive(Debug)]
struct Shard {
    pairs: Vec<PairResult>,
    timings: PhaseTimings,
}

/// Merges per-worker shards, which [`crate::shard::fan_out`] returns in
/// shard order, into a single in-order result list plus the summed phase
/// timings.
fn merge_shards(shards: Vec<Shard>, expected: usize) -> (Vec<PairResult>, PhaseTimings) {
    let mut timings = PhaseTimings::default();
    for s in &shards {
        timings.merge(s.timings);
    }
    let pairs: Vec<PairResult> = shards.into_iter().flat_map(|s| s.pairs).collect();
    debug_assert_eq!(pairs.len(), expected, "every work item produces one result");
    (pairs, timings)
}

use crate::shard::shard_spans;

/// The completed study.
#[derive(Debug, Clone)]
pub struct FleetStudy {
    /// Per-pair results in fleet order.
    pub pairs: Vec<PairResult>,
    /// Per-phase wall-clock totals (synthesis / clean / estimate), summed
    /// over all workers. Timing never influences the results, so output
    /// stays byte-identical across `--threads N`.
    pub timing: PhaseTimings,
}

impl FleetStudy {
    /// Runs the study, synthesizing devices inside the workers.
    ///
    /// Device synthesis is the expensive half of a fleet study; synthesizing
    /// each device in the worker that analyzes it lets generation and
    /// analysis both scale across cores while peak memory stays one trace
    /// per worker.
    pub fn run(cfg: StudyConfig) -> FleetStudy {
        Self::run_work(&cfg.fleet.work_list(), cfg)
    }

    /// Runs the study at the paper's scale — the full 1613 metric-device
    /// population of §3.2 ([`sweetspot_telemetry::paper_scale_work`]),
    /// synthesized inside the workers like [`FleetStudy::run`]. Output is
    /// byte-identical for any `threads` value.
    pub fn run_paper_scale(seed: u64, estimator: NyquistConfig, threads: usize) -> FleetStudy {
        let cfg = StudyConfig {
            fleet: FleetConfig {
                seed,
                devices_per_metric: 115,
                trace_duration: Seconds::from_days(1.0),
            },
            estimator,
            threads,
        };
        Self::run_work(&sweetspot_telemetry::paper_scale_work(), cfg)
    }

    /// Splits `work` into per-worker spans and runs each through
    /// [`crate::shard::fan_out`] with a fresh worker-local
    /// [`WorkerScratch`]: every worker synthesizes and analyzes its own
    /// devices. The shards are merged in index order.
    fn run_work(work: &[(MetricProfile, usize)], cfg: StudyConfig) -> FleetStudy {
        let duration = cfg.fleet.trace_duration;
        let seed = cfg.fleet.seed;
        let threads = cfg.resolve_threads(work.len());
        let shards = crate::shard::fan_out(shard_spans(work.len(), threads), |span| {
            let mut scratch = WorkerScratch::new(cfg.estimator);
            let pairs = work[span]
                .iter()
                .map(|&(profile, device_idx)| {
                    let trace = DeviceTrace::synthesize(profile, device_idx, seed);
                    analyze_pair(&trace, duration, &mut scratch)
                })
                .collect();
            let mut timings = scratch.timings;
            timings.fft_tables = scratch.estimate.planner().table_build_time();
            Shard { pairs, timings }
        });
        let (pairs, timing) = merge_shards(shards, work.len());
        FleetStudy { pairs, timing }
    }

    /// Results for one metric.
    pub fn pairs_for(&self, kind: MetricKind) -> impl Iterator<Item = &PairResult> {
        self.pairs.iter().filter(move |p| p.kind == kind)
    }

    /// Fleet-level headline summary (§3.2 text numbers).
    pub fn summary(&self) -> ReductionSummary {
        let outcomes: Vec<ReductionOutcome> = self.pairs.iter().map(|p| p.outcome).collect();
        summarize(&outcomes)
    }

    /// Figure 1: per metric, the fraction of devices currently sampling
    /// above their (estimated) Nyquist rate.
    pub fn oversampled_fraction_per_metric(&self) -> Vec<(MetricKind, f64)> {
        MetricKind::ALL
            .iter()
            .map(|&kind| {
                let (total, over) = self.pairs_for(kind).fold((0usize, 0usize), |(t, o), p| {
                    let is_over = p.outcome.ratio.is_some_and(|r| r >= 1.0);
                    (t + 1, o + is_over as usize)
                });
                (kind, if total == 0 { 0.0 } else { over as f64 / total as f64 })
            })
            .collect()
    }

    /// Figure 4: the reduction-ratio CDF for one metric (over-sampled pairs
    /// only, matching "we do not show the cases where we cannot reliably
    /// detect the Nyquist rate").
    pub fn reduction_cdf(&self, kind: MetricKind) -> Cdf {
        Cdf::new(
            self.pairs_for(kind)
                .filter_map(|p| p.outcome.ratio)
                .filter(|&r| r >= 1.0),
        )
    }

    /// Figure 5: the five-number summary of estimated Nyquist rates for one
    /// metric (non-aliased pairs). `None` when no pair yielded a rate.
    pub fn nyquist_five_number(&self, kind: MetricKind) -> Option<FiveNumber> {
        let rates: Vec<f64> = self
            .pairs_for(kind)
            .filter_map(|p| p.estimate.rate().map(|r| r.value()))
            .collect();
        if rates.is_empty() {
            None
        } else {
            Some(FiveNumber::of(&rates))
        }
    }
}

fn analyze_pair(
    trace: &DeviceTrace,
    duration: Seconds,
    ws: &mut WorkerScratch,
) -> PairResult {
    let production_rate = trace.profile().production_rate();

    // Synthesis: oscillator-bank ground truth + impairments, streamed into
    // the worker's recycled buffers.
    let t_synth = Instant::now();
    trace.production_trace_into(&mut ws.synth, duration, &mut ws.times, &mut ws.values);
    let t_clean = Instant::now();

    // §3.2 pre-cleaning: nearest-neighbour re-grid onto the nominal interval.
    let cleaned = clean_slices_into(
        &ws.times,
        &ws.values,
        CleanConfig {
            interval: Some(production_rate.period()),
            outlier_mads: Some(8.0),
        },
        &mut ws.clean,
    );
    let t_estimate = Instant::now();

    let estimate = match cleaned {
        Ok(series) if series.len() >= 4 => {
            let estimate = ws.estimator.estimate_samples(
                &mut ws.estimate,
                series.values(),
                series.sample_rate(),
            );
            ws.clean.lend(series.into_values());
            estimate
        }
        // Too little data ⇒ treat as "cannot assess", conservatively aliased.
        Ok(series) => {
            ws.clean.lend(series.into_values());
            NyquistEstimate::Aliased
        }
        Err(_) => NyquistEstimate::Aliased,
    };
    let t_done = Instant::now();

    ws.timings.synthesis += t_clean - t_synth;
    ws.timings.clean += t_estimate - t_clean;
    ws.timings.estimate += t_done - t_estimate;

    PairResult {
        kind: trace.profile().kind,
        meta: trace.meta().clone(),
        production_rate,
        estimate,
        outcome: reduction_outcome(production_rate, estimate),
        truly_undersampled: trace.is_undersampled_at_production_rate(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_study() -> FleetStudy {
        FleetStudy::run(StudyConfig {
            fleet: FleetConfig {
                seed: 0x5EED,
                devices_per_metric: 6,
                trace_duration: Seconds::from_days(1.0),
            },
            estimator: NyquistConfig::default(),
            threads: 4,
        })
    }

    #[test]
    fn study_covers_every_pair() {
        let study = small_study();
        assert_eq!(study.pairs.len(), 14 * 6);
        for kind in MetricKind::ALL {
            assert_eq!(study.pairs_for(kind).count(), 6);
        }
    }

    #[test]
    fn majority_of_pairs_oversampled() {
        let study = small_study();
        let s = study.summary();
        assert!(
            s.oversampled_fraction > 0.6,
            "oversampled fraction {} (paper: 0.89)",
            s.oversampled_fraction
        );
        assert!(s.undersampled_fraction < 0.4);
    }

    #[test]
    fn fig1_fractions_in_unit_range() {
        let study = small_study();
        let fracs = study.oversampled_fraction_per_metric();
        assert_eq!(fracs.len(), 14);
        for (kind, f) in fracs {
            assert!((0.0..=1.0).contains(&f), "{kind}: {f}");
        }
    }

    #[test]
    fn fig4_cdf_spans_decades() {
        let study = small_study();
        // Union across metrics so the small fleet still shows the spread.
        let all_ratios: Vec<f64> = study
            .pairs
            .iter()
            .filter_map(|p| p.outcome.ratio)
            .filter(|&r| r >= 1.0)
            .collect();
        let cdf = Cdf::new(all_ratios);
        assert!(cdf.len() > 40);
        assert!(cdf.quantile(0.9) / cdf.quantile(0.1) > 10.0,
            "ratios should span ≥1 decade");
    }

    #[test]
    fn fig5_five_numbers_are_ordered_and_in_band() {
        let study = small_study();
        for kind in MetricKind::ALL {
            if let Some(f) = study.nyquist_five_number(kind) {
                assert!(f.min <= f.median && f.median <= f.max);
                // All estimated rates must sit below the production rate's
                // representable band (2 × folding = production rate).
                let prod = study
                    .pairs_for(kind)
                    .next()
                    .unwrap()
                    .production_rate
                    .value();
                assert!(f.max <= prod * 1.01, "{kind}: max {} vs prod {prod}", f.max);
            }
        }
    }

    #[test]
    fn phase_timings_are_populated() {
        let study = small_study();
        assert!(study.timing.synthesis > Duration::ZERO);
        assert!(study.timing.clean > Duration::ZERO);
        assert!(study.timing.estimate > Duration::ZERO);
        assert_eq!(
            study.timing.total(),
            study.timing.synthesis + study.timing.clean + study.timing.estimate
        );
    }

    #[test]
    fn validate_request_rejects_empty_and_conflicting_fleets() {
        assert_eq!(StudyConfig::validate_request(false, None, 0), Ok(()));
        assert_eq!(StudyConfig::validate_request(false, Some(1), 1), Ok(()));
        assert_eq!(StudyConfig::validate_request(true, None, 1024), Ok(()));
        let empty = StudyConfig::validate_request(false, Some(0), 0).unwrap_err();
        assert!(empty.contains("--devices"), "{empty}");
        let conflict = StudyConfig::validate_request(true, Some(4), 0).unwrap_err();
        assert!(conflict.contains("conflict"), "{conflict}");
        for (paper_scale, devices) in [(false, Some(1)), (true, None)] {
            let threads = StudyConfig::validate_request(paper_scale, devices, 1025).unwrap_err();
            assert!(threads.contains("--threads"), "{threads}");
        }
    }

    #[test]
    fn parallel_and_serial_agree() {
        let cfg = StudyConfig {
            fleet: FleetConfig {
                seed: 7,
                devices_per_metric: 2,
                trace_duration: Seconds::from_hours(12.0),
            },
            estimator: NyquistConfig::default(),
            threads: 1,
        };
        let serial = FleetStudy::run(cfg);
        for threads in [2, 3, 7] {
            let parallel = FleetStudy::run(StudyConfig { threads, ..cfg });
            assert_eq!(serial.pairs.len(), parallel.pairs.len());
            for (a, b) in serial.pairs.iter().zip(&parallel.pairs) {
                assert_eq!(a.meta, b.meta);
                assert_eq!(a.estimate, b.estimate);
                assert_eq!(a.outcome.ratio, b.outcome.ratio);
            }
        }
    }

    #[test]
    fn estimator_classification_tracks_ground_truth() {
        let study = small_study();
        // Truly well-sampled pairs should overwhelmingly be classified
        // oversampled (the estimator sees their full band).
        let (well_total, well_over) = study
            .pairs
            .iter()
            .filter(|p| !p.truly_undersampled)
            .fold((0, 0), |(t, o), p| {
                (t + 1, o + p.outcome.ratio.is_some_and(|r| r >= 1.0) as usize)
            });
        assert!(well_total > 0);
        assert!(
            well_over as f64 / well_total as f64 > 0.8,
            "{well_over}/{well_total} well-sampled pairs classified oversampled"
        );
    }
}
