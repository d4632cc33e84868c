//! Moving windows over a regular series.
//!
//! Figure 7 of the paper tracks the inferred Nyquist rate with "a step of 5
//! minutes for the moving window and a window size of 6 hours". This module
//! provides exactly that iteration pattern.

use crate::series::RegularSeries;
use crate::time::Seconds;

/// A single window of a series, borrowing its samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowView<'a> {
    /// Timestamp of the first sample of the window (the paper's Figure 7
    /// marks "the beginning of the moving window").
    pub start: Seconds,
    /// Index of the first sample within the parent series.
    pub start_index: usize,
    /// The samples inside the window.
    pub values: &'a [f64],
}

/// Iterates fixed-duration windows over `series`, advancing `step` at a time.
///
/// Windows are aligned to sample indices: `window` and `step` are converted
/// to whole sample counts (rounded to nearest, minimum 1). Only *full*
/// windows are yielded — a trailing partial window is dropped, matching the
/// paper's moving-window methodology.
///
/// # Panics
/// Panics if `window` or `step` is not positive.
pub fn moving_windows(
    series: &RegularSeries,
    window: Seconds,
    step: Seconds,
) -> impl Iterator<Item = WindowView<'_>> {
    assert!(window.value() > 0.0, "window must be positive");
    assert!(step.value() > 0.0, "step must be positive");
    let interval = series.interval().value();
    let win_len = ((window.value() / interval).round() as usize).max(1);
    let step_len = ((step.value() / interval).round() as usize).max(1);
    let n = series.len();
    (0..n.saturating_sub(win_len.saturating_sub(1)))
        .step_by(step_len)
        .filter(move |&i| i + win_len <= n)
        .map(move |i| WindowView {
            start: series.time_of(i),
            start_index: i,
            values: &series.values()[i..i + win_len],
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize) -> RegularSeries {
        RegularSeries::new(
            Seconds::ZERO,
            Seconds(1.0),
            (0..n).map(|i| i as f64).collect(),
        )
    }

    #[test]
    fn basic_windows() {
        let s = series(10);
        let wins: Vec<_> = moving_windows(&s, Seconds(4.0), Seconds(2.0)).collect();
        // Windows start at 0,2,4,6 (start 8 would need samples 8..12 — only
        // a partial window remains, so it is dropped).
        assert_eq!(wins.len(), 4);
        assert_eq!(wins[0].values, [0.0, 1.0, 2.0, 3.0]);
        assert_eq!(wins[1].start, Seconds(2.0));
        assert_eq!(wins[1].start_index, 2);
        assert_eq!(wins[3].values, [6.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn step_larger_than_window() {
        let s = series(12);
        let wins: Vec<_> = moving_windows(&s, Seconds(2.0), Seconds(5.0)).collect();
        assert_eq!(wins.len(), 3); // starts 0, 5, 10
        assert_eq!(wins[2].values, [10.0, 11.0]);
    }

    #[test]
    fn overlapping_windows() {
        let s = series(6);
        let wins: Vec<_> = moving_windows(&s, Seconds(4.0), Seconds(1.0)).collect();
        assert_eq!(wins.len(), 3); // starts 0,1,2
        assert_eq!(wins[1].values, [1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn window_longer_than_series_yields_nothing() {
        let s = series(5);
        assert_eq!(moving_windows(&s, Seconds(10.0), Seconds(1.0)).count(), 0);
    }

    #[test]
    fn window_equal_to_series_yields_one() {
        let s = series(5);
        let wins: Vec<_> = moving_windows(&s, Seconds(5.0), Seconds(1.0)).collect();
        assert_eq!(wins.len(), 1);
        assert_eq!(wins[0].values.len(), 5);
    }

    #[test]
    fn paper_fig7_geometry() {
        // 7 days at 5-minute sampling; 6h windows stepping 5min.
        let n = 7 * 24 * 12;
        let s = RegularSeries::new(Seconds::ZERO, Seconds::from_minutes(5.0), vec![0.0; n]);
        let win = Seconds::from_hours(6.0);
        let step = Seconds::from_minutes(5.0);
        let count = moving_windows(&s, win, step).count();
        // 6h = 72 samples → n − 72 + 1 starts, stepping 1 sample.
        assert_eq!(count, n - 72 + 1);
    }

    #[test]
    fn sub_interval_step_clamps_to_one_sample() {
        let s = series(5);
        let wins: Vec<_> = moving_windows(&s, Seconds(2.0), Seconds(0.1)).collect();
        assert_eq!(wins.len(), 4); // every start index
    }
}
