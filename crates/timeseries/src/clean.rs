//! Trace pre-cleaning.
//!
//! §3.2 of the paper: *"In practice, monitoring systems do not produce
//! perfectly sampled signals — samples are not always spaced at equi-distant
//! points in time. In such situations, we pre-clean the signal using nearest
//! neighbor re-sampling; that is, we add values for missing samples based on
//! nearby samples."*
//!
//! This module implements that re-gridding plus the mundane hygiene around
//! it: dropping NaN readings (lost measurements), discarding corrupt outliers
//! with a robust MAD rule (on by default, see [`CleanConfig`]), and a
//! one-call [`clean`] pipeline. Malformed inputs — empty traces, traces that
//! are all-NaN, non-positive grid intervals, intervals so fine the grid
//! would outgrow [`MAX_GRID_POINTS_PER_SAMPLE`] — come back as [`CleanError`]s,
//! never panics, so a corrupt CSV fed to the CLI dies with a diagnostic
//! instead of a backtrace.

use crate::series::{IrregularSeries, RegularSeries};
use crate::time::Seconds;
use std::fmt;

/// Configuration for the [`clean`] pipeline.
#[derive(Debug, Clone, Copy)]
pub struct CleanConfig {
    /// Target re-grid interval. `None` uses the trace's median interval.
    pub interval: Option<Seconds>,
    /// Discard values further than this many (scaled) MADs from the median —
    /// they are treated as lost samples and re-filled by the re-gridding
    /// step. `None` disables outlier handling. (Discarding beats clamping:
    /// a clamped corrupt reading still leaves a large impulse that pollutes
    /// the spectrum.)
    ///
    /// The default is `Some(8.0)` — wide enough that legitimate spikes and
    /// diurnal swings survive untouched, tight enough to discard the
    /// order-of-magnitude corruption §3.2 worries about.
    pub outlier_mads: Option<f64>,
}

impl Default for CleanConfig {
    fn default() -> Self {
        CleanConfig {
            interval: None,
            outlier_mads: Some(8.0),
        }
    }
}

/// Most re-grid points [`regularize`] and [`clean`] produce per valid
/// sample.
///
/// Nearest-neighbour re-gridding invents no information, so a grid much
/// denser than the samples behind it only costs memory and FFT time: a
/// one-day minutely trace re-gridded at 1 ms would be 86.4 M points. The
/// §3.2 pre-cleaning grid is about one point per sample. The limit leaves
/// room for traces with long gaps (a gap of 100 intervals between each pair
/// of samples is still under it) while capping the grid at a few hundred
/// times the input.
pub const MAX_GRID_POINTS_PER_SAMPLE: usize = 256;

/// Why a trace could not be cleaned/re-gridded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CleanError {
    /// Fewer than 2 valid samples remained — there is no signal to analyze.
    /// Carries the number of valid samples found.
    TooSparse(usize),
    /// The series still contains NaN/infinite values (call [`drop_invalid`]
    /// before [`regularize`]).
    NonFinite,
    /// The re-grid interval is not a positive finite number of seconds.
    BadInterval(f64),
    /// The configured MAD multiple is not positive.
    BadOutlierMads(f64),
    /// The re-grid would need `points` grid points (possibly infinite) for
    /// `samples` valid samples, more than [`MAX_GRID_POINTS_PER_SAMPLE`]
    /// per sample.
    GridTooDense {
        /// Grid points the span and interval call for.
        points: f64,
        /// Valid samples behind the grid.
        samples: usize,
    },
}

impl fmt::Display for CleanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CleanError::TooSparse(n) => {
                write!(f, "too few valid samples to analyze ({n} after cleaning)")
            }
            CleanError::NonFinite => {
                write!(f, "trace contains NaN/infinite values; drop invalid samples first")
            }
            CleanError::BadInterval(s) => {
                write!(f, "re-grid interval must be a positive number of seconds, got {s}")
            }
            CleanError::BadOutlierMads(m) => {
                write!(f, "outlier MAD multiple must be positive, got {m}")
            }
            CleanError::GridTooDense { points, samples } => write!(
                f,
                "re-grid interval asks for {points:.3e} grid points from {samples} samples, \
                 more than {MAX_GRID_POINTS_PER_SAMPLE} per sample"
            ),
        }
    }
}

impl std::error::Error for CleanError {}

/// Drops samples whose value is NaN or infinite (lost/corrupt measurements).
pub fn drop_invalid(series: &IrregularSeries) -> IrregularSeries {
    let pairs: Vec<(Seconds, f64)> = series
        .iter()
        .filter(|(_, v)| v.is_finite())
        .collect();
    IrregularSeries::from_pairs(pairs)
}

/// Removes values further than `mads` scaled median-absolute-deviations from
/// the median — corrupt readings are treated as *lost* (dropped), to be
/// re-filled by [`regularize`]. If the MAD is zero, the series is returned
/// unchanged.
///
/// # Panics
/// Panics if `mads` is not positive.
pub fn drop_outliers(series: &IrregularSeries, mads: f64) -> IrregularSeries {
    assert!(mads > 0.0, "mads must be positive");
    let finite: Vec<f64> = series
        .values()
        .iter()
        .copied()
        .filter(|v| v.is_finite())
        .collect();
    if finite.is_empty() {
        return series.clone();
    }
    let median = median_of(&finite);
    let mut deviations: Vec<f64> = finite.iter().map(|v| (v - median).abs()).collect();
    let mad = median_of_mut(&mut deviations) * 1.4826;
    if mad <= 0.0 {
        return series.clone();
    }
    let lo = median - mads * mad;
    let hi = median + mads * mad;
    let pairs = series
        .iter()
        .filter(|(_, v)| !v.is_finite() || (*v >= lo && *v <= hi))
        .collect();
    IrregularSeries::from_pairs(pairs)
}

/// Nearest-neighbour re-gridding of an irregular trace onto a regular grid —
/// the paper's pre-cleaning step.
///
/// The grid starts at the trace's first timestamp and steps by `interval`
/// until the last timestamp is covered. Each grid point takes the value of
/// the nearest (in time) original sample.
///
/// # Errors
/// * [`CleanError::TooSparse`] — the series is empty.
/// * [`CleanError::NonFinite`] — the series contains NaN/infinite values
///   (call [`drop_invalid`] first).
/// * [`CleanError::BadInterval`] — `interval` is not positive and finite.
/// * [`CleanError::GridTooDense`] — the grid would exceed
///   [`MAX_GRID_POINTS_PER_SAMPLE`] points per sample.
pub fn regularize(
    series: &IrregularSeries,
    interval: Seconds,
) -> Result<RegularSeries, CleanError> {
    if series.is_empty() {
        return Err(CleanError::TooSparse(0));
    }
    if !series.values().iter().all(|v| v.is_finite()) {
        return Err(CleanError::NonFinite);
    }
    if !(interval.value() > 0.0 && interval.value().is_finite()) {
        return Err(CleanError::BadInterval(interval.value()));
    }
    let start = series.start().expect("non-empty");
    let end = series.end().expect("non-empty");
    let steps = grid_points((end - start).value(), interval.value(), series.len())?;
    let values = (0..steps)
        .map(|k| series.nearest_value(start + interval * k as f64))
        .collect();
    Ok(RegularSeries::new(start, interval, values))
}

/// Full cleaning pipeline: drop invalid readings, optionally discard
/// outliers, then re-grid at the configured (or inferred) interval.
///
/// Allocates fresh working storage per call; the fleet-study hot loop calls
/// [`clean_slices_into`] with a persistent [`CleanScratch`] instead.
///
/// # Errors
/// * [`CleanError::TooSparse`] — fewer than 2 valid samples remain.
/// * [`CleanError::BadInterval`] — the configured interval is not positive
///   and finite.
/// * [`CleanError::BadOutlierMads`] — the configured MAD multiple is not
///   positive.
/// * [`CleanError::GridTooDense`] — the grid would exceed
///   [`MAX_GRID_POINTS_PER_SAMPLE`] points per valid sample.
pub fn clean(series: &IrregularSeries, cfg: CleanConfig) -> Result<RegularSeries, CleanError> {
    clean_slices_into(series.times(), series.values(), cfg, &mut CleanScratch::new())
}

/// Reusable working storage for [`clean_slices_into`]: the filtered trace,
/// the median/MAD sort buffer and the re-gridded output all live here, so a
/// steady-state cleaning loop performs no heap allocations once the buffers
/// have grown to the trace length.
#[derive(Debug, Default)]
pub struct CleanScratch {
    /// Timestamps surviving the drop/outlier filters.
    times: Vec<Seconds>,
    /// Values surviving the drop/outlier filters (parallel to `times`).
    values: Vec<f64>,
    /// Sort buffer for medians (values, deviations, gaps).
    work: Vec<f64>,
    /// Recycled output storage for the re-gridded series.
    grid: Vec<f64>,
}

impl CleanScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lends an output buffer to the next [`clean_slices_into`] call, which
    /// moves it into the returned series. Hand each result's buffer back
    /// (via [`RegularSeries::into_values`]) or every call allocates one.
    pub fn lend(&mut self, buf: Vec<f64>) {
        self.grid = buf;
    }

    /// Takes back the currently lent output buffer (empty if none) — for
    /// fallback paths that need the storage after a failed clean.
    pub fn take_lent(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.grid)
    }

    /// Heap bytes the scratch currently holds (capacities, not lengths) —
    /// the per-worker memory-footprint accounting of the fleet engine.
    pub fn resident_bytes(&self) -> usize {
        self.times.capacity() * std::mem::size_of::<Seconds>()
            + (self.values.capacity() + self.work.capacity() + self.grid.capacity())
                * std::mem::size_of::<f64>()
    }
}

/// The cleaning kernel: [`clean`] through caller-owned scratch. The trace
/// arrives as parallel `times`/`values` slices, so a poller or synthesis
/// loop that holds its samples in reused buffers cleans them without
/// wrapping an [`IrregularSeries`] first. Results are identical to
/// [`clean`]; all working storage, including the returned series' value
/// buffer (lent with [`CleanScratch::lend`]), is reused across calls, so the
/// steady-state per-trace cleaning cost is zero heap allocations.
///
/// # Errors
/// Exactly as [`clean`].
///
/// # Panics
/// Panics if the slices disagree in length or `times` decreases (the
/// [`IrregularSeries`] invariant — enforced here too, so the slice path
/// fails as loudly as the series constructors; the scan is a single pass,
/// cheap next to the re-gridding walk it precedes). Duplicate timestamps
/// are allowed: they model duplicated/delayed reports landing on the same
/// collection tick and are deduplicated deterministically below (first
/// arrival wins), so the re-gridding walk always sees a strictly
/// increasing trace.
pub fn clean_slices_into(
    times: &[Seconds],
    values: &[f64],
    cfg: CleanConfig,
    scratch: &mut CleanScratch,
) -> Result<RegularSeries, CleanError> {
    assert_eq!(times.len(), values.len(), "times and values must pair up");
    assert!(
        times.windows(2).all(|w| w[0].value() <= w[1].value()),
        "timestamps must be non-decreasing"
    );
    if let Some(interval) = cfg.interval {
        if !(interval.value() > 0.0 && interval.value().is_finite()) {
            return Err(CleanError::BadInterval(interval.value()));
        }
    }
    if let Some(mads) = cfg.outlier_mads {
        // NaN must fail this check too, so compare via the negation.
        if mads <= 0.0 || mads.is_nan() {
            return Err(CleanError::BadOutlierMads(mads));
        }
    }

    // Drop invalid readings and deduplicate identical timestamps: the first
    // *valid* arrival at a tick wins, matching `IrregularSeries::from_pairs`.
    // The surviving trace is strictly increasing.
    scratch.times.clear();
    scratch.values.clear();
    for (&t, &v) in times.iter().zip(values) {
        if v.is_finite() && scratch.times.last() != Some(&t) {
            scratch.times.push(t);
            scratch.values.push(v);
        }
    }

    // MAD outlier discard, matching `drop_outliers` bit for bit (every value
    // is finite at this point).
    if let Some(mads) = cfg.outlier_mads {
        if !scratch.values.is_empty() {
            scratch.work.clear();
            scratch.work.extend_from_slice(&scratch.values);
            let median = median_of_mut(&mut scratch.work);
            scratch.work.clear();
            scratch
                .work
                .extend(scratch.values.iter().map(|v| (v - median).abs()));
            let mad = median_of_mut(&mut scratch.work) * 1.4826;
            if mad > 0.0 {
                let lo = median - mads * mad;
                let hi = median + mads * mad;
                let mut kept = 0;
                for i in 0..scratch.values.len() {
                    let v = scratch.values[i];
                    if v >= lo && v <= hi {
                        scratch.times[kept] = scratch.times[i];
                        scratch.values[kept] = v;
                        kept += 1;
                    }
                }
                scratch.times.truncate(kept);
                scratch.values.truncate(kept);
            }
        }
    }

    if scratch.values.len() < 2 {
        return Err(CleanError::TooSparse(scratch.values.len()));
    }

    // Grid interval: configured, or the median inter-sample gap (the same
    // `gaps[len/2]` statistic as `IrregularSeries::median_interval`).
    let interval = match cfg.interval {
        Some(i) => i,
        None => {
            scratch.work.clear();
            scratch
                .work
                .extend(scratch.times.windows(2).map(|w| (w[1] - w[0]).value()));
            let mid = scratch.work.len() / 2;
            Seconds(*scratch.work.select_nth_unstable_by(mid, cmp_f64).1)
        }
    };
    if !(interval.value() > 0.0 && interval.value().is_finite()) {
        return Err(CleanError::BadInterval(interval.value()));
    }

    // Nearest-neighbour re-gridding. Grid timestamps are non-decreasing, so
    // one merge walk replaces the per-point binary search of `regularize`
    // while selecting exactly the same nearest sample (ties to the earlier
    // one, as in `IrregularSeries::nearest_value`).
    let start = scratch.times[0];
    let end = *scratch.times.last().expect("len >= 2");
    let steps = grid_points((end - start).value(), interval.value(), scratch.times.len())?;
    let mut grid = std::mem::take(&mut scratch.grid);
    grid.clear();
    grid.reserve(steps);
    let mut j = 0usize; // count of samples strictly before the grid point
    for k in 0..steps {
        let t = start + interval * k as f64;
        while j < scratch.times.len() && scratch.times[j].value() < t.value() {
            j += 1;
        }
        let v = if j == 0 {
            scratch.values[0]
        } else if j == scratch.times.len()
            || (t - scratch.times[j - 1]).value() <= (scratch.times[j] - t).value()
        {
            scratch.values[j - 1]
        } else {
            scratch.values[j]
        };
        grid.push(v);
    }
    Ok(RegularSeries::new(start, interval, grid))
}

/// Points of a grid that starts at the first sample and steps by
/// `interval` (positive, finite) until `span` is covered, checked in `f64`
/// before any integer cast so that no interval can wrap the count.
fn grid_points(span: f64, interval: f64, samples: usize) -> Result<usize, CleanError> {
    let points = (span / interval).round() + 1.0;
    if points.is_finite() && points <= MAX_GRID_POINTS_PER_SAMPLE as f64 * samples as f64 {
        Ok(points as usize)
    } else {
        Err(CleanError::GridTooDense { points, samples })
    }
}

fn median_of(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    median_of_mut(&mut v)
}

fn cmp_f64(a: &f64, b: &f64) -> std::cmp::Ordering {
    a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)
}

/// Median by selection, not a full sort; reorders `values`. For even
/// lengths the lower middle value is the largest of the lower partition.
fn median_of_mut(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty());
    let n = values.len();
    let (lower, &mut upper, _) = values.select_nth_unstable_by(n / 2, cmp_f64);
    if n % 2 == 1 {
        upper
    } else {
        let below = lower.iter().copied().max_by(cmp_f64).expect("n >= 2");
        (below + upper) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jittered_trace() -> IrregularSeries {
        // Roughly 10s cadence with jitter and one gap.
        IrregularSeries::new(
            vec![
                Seconds(0.0),
                Seconds(10.4),
                Seconds(19.7),
                Seconds(30.1),
                Seconds(50.0), // missing sample at ~40
                Seconds(60.2),
            ],
            vec![1.0, 2.0, 3.0, 4.0, 6.0, 7.0],
        )
    }

    #[test]
    fn drop_invalid_removes_nan_and_inf() {
        let ir = IrregularSeries::new(
            vec![Seconds(0.0), Seconds(1.0), Seconds(2.0), Seconds(3.0)],
            vec![1.0, f64::NAN, f64::INFINITY, 4.0],
        );
        let out = drop_invalid(&ir);
        assert_eq!(out.len(), 2);
        assert_eq!(out.values(), &[1.0, 4.0]);
    }

    #[test]
    fn regularize_fills_gaps_with_nearest() {
        let out = regularize(&jittered_trace(), Seconds(10.0)).unwrap();
        // Grid: 0,10,20,30,40,50,60 → 7 samples.
        assert_eq!(out.len(), 7);
        assert_eq!(out.interval(), Seconds(10.0));
        // t=40 is nearest to the t=30.1 sample (value 4) vs t=50 (value 6):
        // |40−30.1| = 9.9 < |50−40| = 10 → 4.0.
        assert_eq!(out.values()[4], 4.0);
        // Grid endpoints take the boundary samples.
        assert_eq!(out.values()[0], 1.0);
        assert_eq!(out.values()[6], 7.0);
    }

    #[test]
    fn regularize_is_identity_on_already_regular_trace() {
        let reg = RegularSeries::new(Seconds(5.0), Seconds(2.0), vec![1.0, 2.0, 3.0]);
        let out = regularize(&reg.to_irregular(), Seconds(2.0)).unwrap();
        assert_eq!(out, reg);
    }

    #[test]
    fn regularize_rejects_nan_as_error() {
        let ir = IrregularSeries::new(vec![Seconds(0.0), Seconds(1.0)], vec![f64::NAN, 1.0]);
        assert_eq!(regularize(&ir, Seconds(1.0)), Err(CleanError::NonFinite));
    }

    #[test]
    fn regularize_rejects_empty_and_bad_interval() {
        let empty = IrregularSeries::new(vec![], vec![]);
        assert_eq!(
            regularize(&empty, Seconds(1.0)),
            Err(CleanError::TooSparse(0))
        );
        let ok = jittered_trace();
        assert_eq!(
            regularize(&ok, Seconds(0.0)),
            Err(CleanError::BadInterval(0.0))
        );
        assert_eq!(
            regularize(&ok, Seconds(-3.0)),
            Err(CleanError::BadInterval(-3.0))
        );
        assert!(matches!(
            regularize(&ok, Seconds(f64::NAN)),
            Err(CleanError::BadInterval(s)) if s.is_nan()
        ));
    }

    #[test]
    fn regrid_rejects_grids_denser_than_the_limit() {
        // A one-day minutely trace: 1 440 samples over 86 340 s.
        let day = IrregularSeries::new(
            (0..1440).map(|i| Seconds(60.0 * i as f64)).collect(),
            vec![1.0; 1440],
        );
        let cfg = |s: f64| CleanConfig { interval: Some(Seconds(s)), outlier_mads: None };
        // 1 ms asks for 86.3 M points; 1e-300 s for a count no integer
        // holds, which used to wrap the grid to zero points.
        for s in [1e-3, 1e-300] {
            for result in [regularize(&day, Seconds(s)), clean(&day, cfg(s))] {
                match result {
                    Err(CleanError::GridTooDense { points, samples: 1440 }) => {
                        assert!(points > 8e7, "{s}: {points}")
                    }
                    other => panic!("{s}: {other:?}"),
                }
            }
        }
        // Exactly at the limit is fine; one point past it is not.
        let limit = (MAX_GRID_POINTS_PER_SAMPLE * 1440) as f64;
        let at_limit = 86_340.0 / (limit - 1.0);
        assert_eq!(clean(&day, cfg(at_limit)).unwrap().len(), limit as usize);
        assert_eq!(regularize(&day, Seconds(at_limit)).unwrap().len(), limit as usize);
        let past = 86_340.0 / limit;
        assert!(matches!(clean(&day, cfg(past)), Err(CleanError::GridTooDense { .. })));
        assert!(matches!(regularize(&day, Seconds(past)), Err(CleanError::GridTooDense { .. })));
        // The inferred (median) interval keeps the grid at one point per
        // sample.
        assert_eq!(clean(&day, CleanConfig::default()).unwrap().len(), 1440);
    }

    #[test]
    fn drop_outliers_removes_corrupt_readings() {
        let ir = IrregularSeries::new(
            (0..11).map(|i| Seconds(i as f64)).collect(),
            vec![10.0, 10.1, 9.9, 10.0, 10.2, 1e9, 9.8, 10.0, 10.1, 9.9, 10.0],
        );
        let out = drop_outliers(&ir, 8.0);
        assert_eq!(out.len(), 10, "the corrupt sample is gone");
        assert!(out.values().iter().all(|&v| v < 100.0));
    }

    #[test]
    fn drop_outliers_keeps_nan_for_later_stages() {
        let ir = IrregularSeries::new(
            (0..5).map(|i| Seconds(i as f64)).collect(),
            vec![1.0, f64::NAN, 1.1, 500.0, 0.9],
        );
        let out = drop_outliers(&ir, 5.0);
        // NaN is not an outlier decision — drop_invalid owns it.
        assert!(out.values().iter().any(|v| v.is_nan()));
        assert!(!out.values().contains(&500.0));
    }

    #[test]
    fn clean_pipeline_end_to_end() {
        let ir = jittered_trace();
        let out = clean(&ir, CleanConfig::default()).expect("cleanable");
        assert!(out.len() >= 6);
        // Median interval ≈ 10.15 → grid close to 10s cadence.
        assert!((out.interval().value() - 10.0).abs() < 1.0);
    }

    #[test]
    fn clean_with_explicit_interval() {
        let out = clean(
            &jittered_trace(),
            CleanConfig {
                interval: Some(Seconds(5.0)),
                outlier_mads: None,
            },
        )
        .unwrap();
        assert_eq!(out.interval(), Seconds(5.0));
        assert_eq!(out.len(), 13);
    }

    #[test]
    fn clean_default_discards_corrupt_outliers() {
        // The module doc's §3.2 promise: MAD outlier handling is part of the
        // default pipeline, not opt-in. An order-of-magnitude corrupt reading
        // is discarded and the slot re-filled from its neighbours.
        let ir = IrregularSeries::new(
            (0..11).map(|i| Seconds(i as f64 * 10.0)).collect(),
            vec![10.0, 10.1, 9.9, 10.0, 10.2, 1e9, 9.8, 10.0, 10.1, 9.9, 10.0],
        );
        let out = clean(&ir, CleanConfig::default()).unwrap();
        assert!(
            out.values().iter().all(|&v| v < 100.0),
            "corruption must not survive the default pipeline: {:?}",
            out.values()
        );
        // The corrupt slot was re-filled, not dropped from the grid.
        assert_eq!(out.len(), 11);
    }

    #[test]
    fn clean_reports_too_sparse() {
        let ir = IrregularSeries::new(vec![Seconds(0.0)], vec![1.0]);
        assert_eq!(
            clean(&ir, CleanConfig::default()),
            Err(CleanError::TooSparse(1))
        );
        let all_nan = IrregularSeries::new(
            vec![Seconds(0.0), Seconds(1.0), Seconds(2.0)],
            vec![f64::NAN; 3],
        );
        assert_eq!(
            clean(&all_nan, CleanConfig::default()),
            Err(CleanError::TooSparse(0))
        );
    }

    #[test]
    fn clean_reports_bad_config() {
        let ir = jittered_trace();
        assert_eq!(
            clean(
                &ir,
                CleanConfig {
                    interval: Some(Seconds(-1.0)),
                    outlier_mads: None,
                }
            ),
            Err(CleanError::BadInterval(-1.0))
        );
        assert_eq!(
            clean(
                &ir,
                CleanConfig {
                    interval: None,
                    outlier_mads: Some(0.0),
                }
            ),
            Err(CleanError::BadOutlierMads(0.0))
        );
    }

    #[test]
    fn clean_errors_render_diagnostics() {
        assert!(CleanError::TooSparse(1).to_string().contains("too few"));
        assert!(CleanError::NonFinite.to_string().contains("NaN"));
        assert!(CleanError::BadInterval(-2.0).to_string().contains("-2"));
        assert!(CleanError::BadOutlierMads(0.0).to_string().contains("positive"));
        let dense = CleanError::GridTooDense { points: f64::INFINITY, samples: 9 };
        assert!(dense.to_string().contains("inf grid points from 9 samples"), "{dense}");
    }

    /// The scratch pipeline must reproduce the composed reference pipeline
    /// (`drop_invalid` → `drop_outliers` → `regularize`) bit for bit — the
    /// fleet study's byte-identical-output guarantee rides on this.
    #[test]
    fn clean_into_matches_composed_reference() {
        // Jittery cadence + a gap + NaN losses + one corrupt spike.
        let mut times = Vec::new();
        let mut values = Vec::new();
        let mut t = 0.0;
        for i in 0..200 {
            t += 10.0 + ((i * 7919) % 13) as f64 * 0.3 - 1.8;
            if i == 60 {
                t += 120.0; // outage
            }
            times.push(Seconds(t));
            values.push(match i {
                17 | 91 => f64::NAN,
                130 => 1e9,
                _ => 10.0 + ((i * 31) % 17) as f64 * 0.11,
            });
        }
        let ir = IrregularSeries::new(times, values);
        for cfg in [
            CleanConfig::default(),
            CleanConfig { interval: Some(Seconds(10.0)), outlier_mads: Some(8.0) },
            CleanConfig { interval: Some(Seconds(7.5)), outlier_mads: None },
            CleanConfig { interval: None, outlier_mads: None },
        ] {
            let mut reference = drop_invalid(&ir);
            if let Some(mads) = cfg.outlier_mads {
                reference = drop_outliers(&reference, mads);
            }
            let interval = cfg
                .interval
                .unwrap_or_else(|| reference.median_interval().unwrap());
            let expected = regularize(&reference, interval).unwrap();

            let mut scratch = CleanScratch::new();
            let got = clean_slices_into(ir.times(), ir.values(), cfg, &mut scratch).unwrap();
            assert_eq!(got, expected, "cfg {cfg:?}");
        }
    }

    #[test]
    fn equal_timestamp_duplicates_dedup_first_wins() {
        // Duplicated reports share a collection tick; the first valid arrival
        // wins deterministically, even when it hides behind a NaN loss.
        let ir = IrregularSeries::new(
            vec![
                Seconds(0.0),
                Seconds(10.0),
                Seconds(10.0), // duplicate — dropped
                Seconds(20.0),
                Seconds(20.0), // first arrival lost: the duplicate wins
                Seconds(30.0),
            ],
            vec![1.0, 2.0, 99.0, f64::NAN, 4.0, 5.0],
        );
        let cfg = CleanConfig {
            interval: Some(Seconds(10.0)),
            outlier_mads: None,
        };
        let out = clean(&ir, cfg).unwrap();
        assert_eq!(out.values(), &[1.0, 2.0, 4.0, 5.0]);
        // The composed reference pipeline agrees (from_pairs dedup).
        let reference = regularize(&drop_invalid(&ir), Seconds(10.0)).unwrap();
        assert_eq!(out, reference);
    }

    #[test]
    fn clean_into_recycles_the_output_buffer() {
        let ir = jittered_trace();
        let mut scratch = CleanScratch::new();
        let first =
            clean_slices_into(ir.times(), ir.values(), CleanConfig::default(), &mut scratch)
                .unwrap();
        let ptr = first.values().as_ptr();
        scratch.lend(first.into_values());
        let second =
            clean_slices_into(ir.times(), ir.values(), CleanConfig::default(), &mut scratch)
                .unwrap();
        assert_eq!(second.values().as_ptr(), ptr, "grid buffer must be recycled");
    }

    /// Reference median by full sort.
    fn sorted_median(values: &[f64]) -> f64 {
        let mut v = values.to_vec();
        v.sort_by(cmp_f64);
        let n = v.len();
        if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn selection_median_matches_sorted_median_bit_for_bit(
            // Few distinct values, so most inputs hold duplicates; both
            // parities of length.
            ints in proptest::collection::vec(-6i32..6, 1..60),
            scale in 0.1f64..1e3,
        ) {
            let values: Vec<f64> = ints.iter().map(|&i| i as f64 * scale).collect();
            let mut work = values.clone();
            proptest::prop_assert_eq!(
                median_of_mut(&mut work).to_bits(),
                sorted_median(&values).to_bits()
            );
        }
    }

    #[test]
    fn median_helpers() {
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_of(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
