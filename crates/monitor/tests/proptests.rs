//! Property-based tests for the polling chain.

use proptest::prelude::*;
use sweetspot_core::source::SignalSource;
use sweetspot_monitor::device::{DeviceSource, PollScratch, SimDevice};
use sweetspot_telemetry::{DeviceTrace, MetricKind, MetricProfile};
use sweetspot_timeseries::{Hertz, RegularSeries, Seconds};

/// A series compared bit for bit (`f64 ==` would also accept `0.0 == -0.0`).
fn series_bits(s: &RegularSeries) -> (u64, u64, Vec<u64>) {
    (
        s.start().value().to_bits(),
        s.interval().value().to_bits(),
        s.values().iter().map(|v| v.to_bits()).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One `PollScratch` reused through `DeviceSource::sample` over a random
    /// sequence of windows — metric kinds, devices, window starts, rates on
    /// both sides of the production rate, and lengths from a single sample
    /// (the ground-truth fallback) to hundreds — returns exactly what a fresh
    /// scratch returns for each window. The lent buffer is the previous
    /// result's, so stale contents must not leak either.
    #[test]
    fn reused_poll_scratch_matches_fresh_scratch(
        windows in prop::collection::vec(
            ((0usize..14, 0usize..6), (0.0f64..3.0e5, -1.0f64..1.0, 1usize..400)),
            2..12,
        ),
    ) {
        let mut reused = PollScratch::new();
        let mut spare = Vec::new();
        for ((kind, idx), (start, log_mult, samples)) in windows {
            let profile = MetricProfile::for_kind(MetricKind::ALL[kind]);
            let trace = DeviceTrace::synthesize(profile, idx, 0x5C7A);
            let rate = Hertz(profile.production_rate().value() * 10f64.powf(log_mult));
            let duration = Seconds(samples as f64 / rate.value());
            let start = Seconds(start);

            let mut fresh_device = SimDevice::new(trace.clone());
            let want = DeviceSource {
                device: &mut fresh_device,
                scratch: &mut PollScratch::new(),
            }
            .sample(start, rate, duration, Vec::new());

            let mut device = SimDevice::new(trace);
            let got = DeviceSource {
                device: &mut device,
                scratch: &mut reused,
            }
            .sample(start, rate, duration, std::mem::take(&mut spare));
            prop_assert_eq!(series_bits(&got), series_bits(&want));
            spare = got.into_values();
        }
    }
}
