//! Simulated devices: the boundary between ground truth and measurement.
//!
//! A [`SimDevice`] owns a synthetic [`DeviceTrace`] and exposes two views of
//! it: the *measured* view a poller sees (through the impairment chain) and
//! the *ground-truth* view quality evaluation compares against. It also
//! adapts the device to the [`SignalSource`] trait so the §4.2 adaptive
//! controller can drive it directly.

use sweetspot_core::source::SignalSource;
use sweetspot_telemetry::{DeviceTrace, ToneBank, TraceSynth};
use sweetspot_timeseries::clean::{clean_slices_into, CleanConfig, CleanScratch};
use sweetspot_timeseries::ingest::TraceMeta;
use sweetspot_timeseries::{Hertz, IrregularSeries, RegularSeries, Seconds};

/// Reusable working storage for the polling chain: the synthesis scratch
/// (oscillator bank and ground-truth grid), the measured `(time, value)`
/// buffers, and the cleaning scratch. One per *worker* (see
/// `poller::EpochScratch`) — every buffer is pure scratch, so lending the
/// same instance to each member in turn is sample-for-sample identical to
/// per-member copies, and steady-state polling — synthesis, impairments,
/// pre-cleaning — stays allocation-free.
#[derive(Debug, Default)]
pub struct PollScratch {
    /// Ground-truth synthesis scratch.
    synth: TraceSynth,
    /// Measured timestamps surviving the impairment chain.
    times: Vec<Seconds>,
    /// Measured values (parallel to `times`).
    values: Vec<f64>,
    /// Re-gridding scratch; also holds the lent output buffer.
    clean: CleanScratch,
}

impl PollScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap bytes currently resident in this scratch (capacity, not length).
    pub fn resident_bytes(&self) -> usize {
        self.synth.resident_bytes()
            + self.times.capacity() * std::mem::size_of::<Seconds>()
            + self.values.capacity() * std::mem::size_of::<f64>()
            + self.clean.resident_bytes()
    }
}

/// A device under monitoring.
///
/// Holds only durable state — the synthetic trace and the RNG stream
/// counter. All working storage lives in a caller-provided [`PollScratch`]
/// so a fleet of 10⁵ devices shares a handful of worker scratches instead
/// of carrying 10⁵ oscillator grids.
#[derive(Debug, Clone)]
pub struct SimDevice {
    trace: DeviceTrace,
    /// Stream counter so successive polls see fresh measurement noise.
    next_stream: u64,
}

impl SimDevice {
    /// Wraps a synthetic device trace.
    pub fn new(trace: DeviceTrace) -> Self {
        SimDevice {
            trace,
            next_stream: 1,
        }
    }

    /// Device identity.
    pub fn meta(&self) -> &TraceMeta {
        self.trace.meta()
    }

    /// The underlying synthetic trace (profiles, ground truth, impairments).
    pub fn trace(&self) -> &DeviceTrace {
        &self.trace
    }

    /// Simulates a device reboot: the RNG stream counter rewinds to its
    /// initial value, so the device replays its post-boot measurement-noise
    /// sequence — fresh state, deterministically. The trace (identity, model,
    /// impairments) survives; only volatile state resets.
    pub fn reboot(&mut self) {
        self.next_stream = 1;
    }

    /// Exchanges the ground-truth model with `alt` in place (regime switch;
    /// see [`DeviceTrace::swap_model`]).
    pub fn swap_model(&mut self, alt: &mut sweetspot_telemetry::SignalModel) {
        self.trace.swap_model(alt);
    }

    /// Durable heap bytes owned by this device (the trace's identity strings
    /// and signal model — no working buffers).
    pub fn heap_bytes(&self) -> usize {
        self.trace.heap_bytes()
    }

    /// Polls the device over `[start, start+duration)` at `rate` through the
    /// measurement chain; returns what the collector would record.
    pub fn poll(&mut self, start: Seconds, rate: Hertz, duration: Seconds) -> IrregularSeries {
        let mut scratch = PollScratch::new();
        self.poll_into(start, rate, duration, &mut scratch);
        IrregularSeries::new(scratch.times, scratch.values)
    }

    /// [`SimDevice::poll`] into reused buffers: the measured samples land
    /// in the scratch's `(time, value)` buffers (cleared, then filled).
    /// Identical samples and RNG stream; zero steady-state heap allocations.
    pub fn poll_into(
        &mut self,
        start: Seconds,
        rate: Hertz,
        duration: Seconds,
        scratch: &mut PollScratch,
    ) {
        let mut rng = stream_rng(&self.trace, self.next_stream);
        self.next_stream += 1;
        self.trace.measured_into(
            &mut scratch.synth,
            start,
            rate,
            duration,
            &mut rng,
            &mut scratch.times,
            &mut scratch.values,
        );
    }

    /// Polls and pre-cleans (the §3.2 pipeline): re-grids onto the nominal
    /// interval. Returns `None` if too few samples survived.
    pub fn poll_clean(
        &mut self,
        start: Seconds,
        rate: Hertz,
        duration: Seconds,
    ) -> Option<RegularSeries> {
        self.poll_clean_into(start, rate, duration, &mut PollScratch::new())
    }

    /// [`SimDevice::poll_clean`] through caller-owned scratch: the returned
    /// series' value buffer is the one lent to the scratch's cleaning stage
    /// (see [`DeviceSource`]), so the steady-state poll-and-clean loop
    /// performs no heap allocations.
    pub fn poll_clean_into(
        &mut self,
        start: Seconds,
        rate: Hertz,
        duration: Seconds,
        scratch: &mut PollScratch,
    ) -> Option<RegularSeries> {
        self.poll_into(start, rate, duration, scratch);
        clean_slices_into(
            &scratch.times,
            &scratch.values,
            precleaning(rate),
            &mut scratch.clean,
        )
        .ok()
    }

    /// Pristine ground truth over a window (for quality evaluation only —
    /// not available to any poller).
    pub fn ground_truth(&self, start: Seconds, rate: Hertz, duration: Seconds) -> RegularSeries {
        let mut bank = ToneBank::new();
        let mut values = Vec::new();
        self.trace
            .model()
            .sample_into(&mut bank, start, rate, duration, &mut values);
        RegularSeries::new(start, rate.period(), values)
    }
}

/// The §3.2 pre-cleaning of a poll at `rate`: nearest-neighbour re-grid onto
/// the nominal interval, no outlier discard.
pub(crate) fn precleaning(rate: Hertz) -> CleanConfig {
    CleanConfig {
        interval: Some(rate.period()),
        outlier_mads: None,
    }
}

fn stream_rng(trace: &DeviceTrace, stream: u64) -> rand::rngs::StdRng {
    use rand::SeedableRng;
    // Derive a per-poll seed from the device identity and stream counter.
    let mut h: u64 = 0xcbf29ce484222325;
    for b in trace.meta().device.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    rand::rngs::StdRng::seed_from_u64(h ^ stream.wrapping_mul(0x9E3779B97F4A7C15))
}

/// [`SignalSource`] adapter: lets the §4.2 adaptive controller poll a
/// [`SimDevice`] through the full measurement chain, with pre-cleaning,
/// using `scratch` for every buffer. The buffer the controller lends
/// becomes the returned series' storage, so a controller that hands each
/// series back polls without heap allocations.
pub struct DeviceSource<'a> {
    /// The device being polled.
    pub device: &'a mut SimDevice,
    /// The polling scratch (a worker's, in a fleet).
    pub scratch: &'a mut PollScratch,
}

impl SignalSource for DeviceSource<'_> {
    fn sample(
        &mut self,
        start: Seconds,
        rate: Hertz,
        duration: Seconds,
        buf: Vec<f64>,
    ) -> RegularSeries {
        self.scratch.clean.lend(buf);
        match self
            .device
            .poll_clean_into(start, rate, duration, self.scratch)
        {
            Some(series) => series,
            // Degenerate window (fewer than 2 samples survived): fall back
            // to the window's ground truth, which the poll just synthesized.
            // Drops are rare (0.2%), so in practice only windows too short
            // to hold two samples take this path.
            None => {
                let mut buf = self.scratch.clean.take_lent();
                buf.clear();
                buf.extend_from_slice(self.scratch.synth.truth());
                RegularSeries::new(start, rate.period(), buf)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sweetspot_telemetry::{MetricKind, MetricProfile};

    fn device() -> SimDevice {
        SimDevice::new(DeviceTrace::synthesize(
            MetricProfile::for_kind(MetricKind::Temperature),
            0,
            42,
        ))
    }

    #[test]
    fn poll_returns_measured_samples() {
        let mut d = device();
        let out = d.poll(
            Seconds(1000.0),
            Hertz(1.0 / 300.0),
            Seconds::from_hours(4.0),
        );
        assert!(out.len() >= 45 && out.len() <= 48, "{}", out.len());
        // Quantized to the temperature sensor's 0.5-unit step.
        for &v in out.values() {
            assert!((v * 2.0 - (v * 2.0).round()).abs() < 1e-9, "{v}");
        }
    }

    #[test]
    fn successive_polls_have_fresh_noise() {
        let mut d = device();
        let a = d.poll(Seconds::ZERO, Hertz(1.0 / 300.0), Seconds::from_hours(2.0));
        let b = d.poll(Seconds::ZERO, Hertz(1.0 / 300.0), Seconds::from_hours(2.0));
        assert_ne!(a, b, "stream counter must decorrelate polls");
    }

    #[test]
    fn ground_truth_is_deterministic_and_clean() {
        let d = device();
        let a = d.ground_truth(Seconds(500.0), Hertz(0.01), Seconds(1000.0));
        let b = d.ground_truth(Seconds(500.0), Hertz(0.01), Seconds(1000.0));
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        assert_eq!(a.start(), Seconds(500.0));
    }

    #[test]
    fn poll_clean_regrids_to_nominal_interval() {
        let mut d = device();
        let out = d
            .poll_clean(Seconds::ZERO, Hertz(1.0 / 300.0), Seconds::from_days(1.0))
            .expect("plenty of samples");
        assert_eq!(out.interval(), Seconds(300.0));
        // Re-gridding fills dropped samples: full day = 288 + 1 fence-post.
        assert!(out.len() >= 287, "{}", out.len());
    }

    #[test]
    fn device_source_implements_signal_source() {
        let mut d = device();
        let mut scratch = PollScratch::new();
        let mut src = DeviceSource {
            device: &mut d,
            scratch: &mut scratch,
        };
        let s = src.sample(
            Seconds::ZERO,
            Hertz(1.0 / 60.0),
            Seconds::from_hours(1.0),
            Vec::new(),
        );
        assert!(s.len() >= 59);
        assert_eq!(s.interval(), Seconds(60.0));
    }

    #[test]
    fn window_offsets_respected() {
        let d = device();
        let early = d.ground_truth(Seconds::ZERO, Hertz(0.01), Seconds(200.0));
        let late = d.ground_truth(Seconds(100_000.0), Hertz(0.01), Seconds(200.0));
        assert_ne!(early.values(), late.values());
    }
}
