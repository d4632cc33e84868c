//! Sensitivity studies: how the §3.2 results depend on methodology knobs
//! the paper leaves implicit.

use sweetspot_analysis::study::{FleetStudy, StudyConfig};
use sweetspot_core::estimator::NyquistConfig;
use sweetspot_telemetry::{FleetConfig, MetricKind};
use sweetspot_timeseries::Seconds;

fn study(days: f64, devices: usize, seed: u64) -> FleetStudy {
    FleetStudy::run(StudyConfig {
        fleet: FleetConfig {
            seed,
            devices_per_metric: devices,
            trace_duration: Seconds::from_days(days),
        },
        estimator: NyquistConfig::default(),
        threads: 0,
    })
}

#[test]
fn longer_traces_expose_slower_nyquist_rates() {
    // The paper reports temperature rates down to 7.99e-7 Hz — below what a
    // one-day FFT can resolve (one bin = 1.16e-5 Hz). This test pins the
    // mechanism: the floor of observable rates scales down as the trace
    // grows.
    let one_day = study(1.0, 12, 0x5E45);
    let four_days = study(4.0, 12, 0x5E45);
    let min_rate = |s: &FleetStudy| {
        s.nyquist_five_number(MetricKind::Temperature)
            .expect("temperature estimated")
            .min
    };
    let short = min_rate(&one_day);
    let long = min_rate(&four_days);
    assert!(
        long < short / 2.0,
        "4-day floor {long} should sit well below 1-day floor {short}"
    );
}

#[test]
fn longer_traces_do_not_change_the_oversampling_verdict() {
    // The classification (over- vs under-sampled) is about band edges, not
    // resolution: it must be stable across trace lengths.
    let one_day = study(1.0, 8, 0x5E46);
    let two_days = study(2.0, 8, 0x5E46);
    let a = one_day.summary();
    let b = two_days.summary();
    assert!(
        (a.oversampled_fraction - b.oversampled_fraction).abs() < 0.1,
        "1-day {} vs 2-day {}",
        a.oversampled_fraction,
        b.oversampled_fraction
    );
}

#[test]
fn reduction_tail_grows_with_trace_length() {
    // Quiet counters' reduction ratio is capped by the resolution floor
    // (rate / 2·bin). Longer traces lower the floor and stretch the tail —
    // the mechanism behind the paper's ≥1000× mass.
    let one_day = study(1.0, 8, 0x5E47);
    let two_days = study(2.0, 8, 0x5E47);
    let max_ratio = |s: &FleetStudy| {
        s.pairs
            .iter()
            .filter_map(|p| p.outcome.ratio)
            .fold(0.0f64, f64::max)
    };
    assert!(
        max_ratio(&two_days) > max_ratio(&one_day) * 1.5,
        "2-day max {} vs 1-day max {}",
        max_ratio(&two_days),
        max_ratio(&one_day)
    );
}

#[test]
fn paper_literal_estimator_is_more_conservative() {
    // The raw-FFT (rectangular window) estimator leaks tone energy into
    // high bins, inflating estimates and shrinking the claimed savings —
    // which is why the default is Hann (see `NyquistConfig::window`). The
    // headline classification must nevertheless stay in the same band
    // under the paper's literal method.
    let literal = FleetStudy::run(StudyConfig {
        fleet: FleetConfig {
            seed: 0x5E48,
            devices_per_metric: 8,
            trace_duration: Seconds::from_days(1.0),
        },
        estimator: NyquistConfig::paper_literal(),
        threads: 0,
    });
    let s = literal.summary();
    assert!(
        s.oversampled_fraction > 0.5,
        "even the literal method sees mostly oversampling: {}",
        s.oversampled_fraction
    );
}
