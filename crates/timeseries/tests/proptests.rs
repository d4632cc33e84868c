//! Property-based tests for the time-series substrate.

use proptest::prelude::*;
use sweetspot_timeseries::clean::{clean, drop_invalid, regularize, CleanConfig};
use sweetspot_timeseries::ingest::{parse_csv, to_csv};
use sweetspot_timeseries::windowing::moving_windows;
use sweetspot_timeseries::{IrregularSeries, RegularSeries, Seconds};

/// Strategy: strictly increasing timestamps with jittered gaps, paired with
/// finite values.
fn irregular_strategy() -> impl Strategy<Value = IrregularSeries> {
    prop::collection::vec((0.1f64..100.0, -1e6f64..1e6), 2..80).prop_map(|gaps| {
        let mut t = 0.0;
        let mut pairs = Vec::with_capacity(gaps.len());
        for (gap, v) in gaps {
            t += gap;
            pairs.push((Seconds(t), v));
        }
        IrregularSeries::from_pairs(pairs)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn from_pairs_always_sorted(pairs in prop::collection::vec((0f64..1e6, -1e3f64..1e3), 0..50)) {
        let series = IrregularSeries::from_pairs(
            pairs.into_iter().map(|(t, v)| (Seconds(t), v)).collect(),
        );
        for w in series.times().windows(2) {
            prop_assert!(w[0].value() < w[1].value());
        }
    }

    #[test]
    fn regularize_covers_span_with_input_values(series in irregular_strategy()) {
        let interval = Seconds(1.0);
        let regular = regularize(&series, interval).unwrap();
        // Grid starts at the first sample and covers the last.
        prop_assert_eq!(regular.start(), series.start().unwrap());
        let end = regular.time_of(regular.len() - 1);
        prop_assert!(end.value() >= series.end().unwrap().value() - interval.value());
        // Every value is one of the input values (nearest-neighbour).
        for v in regular.values() {
            prop_assert!(series.values().contains(v));
        }
    }

    #[test]
    fn regularize_identity_on_regular_input(
        n in 2usize..60,
        interval in 0.5f64..100.0,
        base in -100f64..100.0,
    ) {
        let values: Vec<f64> = (0..n).map(|i| base + i as f64).collect();
        let reg = RegularSeries::new(Seconds(5.0), Seconds(interval), values);
        let back = regularize(&reg.to_irregular(), Seconds(interval)).unwrap();
        prop_assert_eq!(back, reg);
    }

    #[test]
    fn clean_output_has_no_nans(series in irregular_strategy()) {
        if let Ok(out) = clean(&series, CleanConfig::default()) {
            prop_assert!(out.values().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn drop_invalid_is_idempotent(series in irregular_strategy()) {
        let once = drop_invalid(&series);
        let twice = drop_invalid(&once);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn csv_roundtrip_preserves_series(series in irregular_strategy()) {
        let text = to_csv(&series);
        let back = parse_csv(&text).unwrap();
        prop_assert_eq!(back.len(), series.len());
        for ((t1, v1), (t2, v2)) in series.iter().zip(back.iter()) {
            prop_assert!((t1.value() - t2.value()).abs() < 1e-9);
            prop_assert!((v1 - v2).abs() < 1e-9 * v1.abs().max(1.0));
        }
    }

    #[test]
    fn windows_cover_only_valid_ranges(
        n in 10usize..200,
        win in 2usize..50,
        step in 1usize..20,
    ) {
        let series = RegularSeries::new(
            Seconds::ZERO,
            Seconds(1.0),
            (0..n).map(|i| i as f64).collect(),
        );
        for view in moving_windows(&series, Seconds(win as f64), Seconds(step as f64)) {
            prop_assert!(view.start_index + view.values.len() <= n);
            // The window borrows the series' own samples, not a copy.
            prop_assert!(std::ptr::eq(view.values.as_ptr(), &series.values()[view.start_index]));
            for (k, &v) in view.values.iter().enumerate() {
                prop_assert_eq!(v, (view.start_index + k) as f64);
            }
        }
    }

    #[test]
    fn nearest_value_returns_an_input_value(series in irregular_strategy(), t in 0f64..5000.0) {
        let v = series.nearest_value(Seconds(t));
        prop_assert!(series.values().contains(&v));
    }

    #[test]
    fn median_interval_within_gap_range(series in irregular_strategy()) {
        let m = series.median_interval().unwrap().value();
        let gaps: Vec<f64> = series
            .times()
            .windows(2)
            .map(|w| w[1].value() - w[0].value())
            .collect();
        let lo = gaps.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = gaps.iter().cloned().fold(0.0, f64::max);
        prop_assert!(m >= lo - 1e-12 && m <= hi + 1e-12);
    }
}
