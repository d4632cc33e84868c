//! Per-device trace synthesis.
//!
//! A [`DeviceTrace`] bundles everything about one `(metric, device)` pair:
//! the ground-truth [`SignalModel`] (with a band edge drawn from the metric's
//! profile), the measurement [`Impairments`], and the production polling
//! schedule. It can produce both the *measured* trace the §3.2 study
//! analyzes and the pristine ground truth tests validate against.

use crate::model::{SignalModel, ToneBank};
use crate::noise::Impairments;
use crate::profile::MetricProfile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sweetspot_timeseries::ingest::TraceMeta;
use sweetspot_timeseries::{Hertz, IrregularSeries, RegularSeries, Seconds};

/// Number of broadband tones in every synthesized signal.
const TONES_PER_SIGNAL: usize = 24;

/// SplitMix64 finalizer — decorrelates nearby seeds so device 7 of metric 3
/// shares nothing with device 7 of metric 4.
fn mix_seed(a: u64, b: u64, c: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(c.wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Reusable scratch for streaming trace synthesis: the [`ToneBank`]
/// oscillator plus the ground-truth grid buffer. One `TraceSynth` per worker
/// lets [`DeviceTrace::measured_into`] synthesize trace after trace with
/// zero steady-state heap allocations (pinned by
/// `crates/telemetry/tests/alloc_steady_state.rs`). The bank is pure
/// scratch: its prior contents never change a result.
#[derive(Debug, Clone, Default)]
pub struct TraceSynth {
    bank: ToneBank,
    truth: Vec<f64>,
}

impl TraceSynth {
    /// Empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// The pristine ground-truth grid the last [`DeviceTrace::measured_into`]
    /// call synthesized (before impairments).
    pub fn truth(&self) -> &[f64] {
        &self.truth
    }

    /// Heap bytes currently resident in this scratch (capacity, not length).
    pub fn resident_bytes(&self) -> usize {
        self.bank.resident_bytes() + self.truth.capacity() * std::mem::size_of::<f64>()
    }
}

/// One synthetic `(metric, device)` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceTrace {
    meta: TraceMeta,
    profile: MetricProfile,
    model: SignalModel,
    impairments: Impairments,
    undersampled: bool,
    quiet: bool,
    seed: u64,
}

impl DeviceTrace {
    /// Synthesizes device `device_idx` of `profile.kind` under fleet `seed`.
    ///
    /// Deterministic: the same `(profile, device_idx, seed)` triple always
    /// yields the same trace.
    pub fn synthesize(profile: MetricProfile, device_idx: usize, seed: u64) -> DeviceTrace {
        let device_seed = mix_seed(seed, profile.kind.index() as u64 + 1, device_idx as u64 + 1);
        let mut rng = StdRng::seed_from_u64(device_seed);

        // Quiescent devices first (error counters sitting at zero all day):
        // their signal never moves a full quantum, so they quantize flat.
        // A quiet device is by construction never under-sampled.
        let quiet = rng.gen_bool(profile.quiet_fraction);
        let undersampled = !quiet && rng.gen_bool(profile.undersampled_fraction);
        let folding = profile.folding_frequency().value();
        let edge = if undersampled {
            // Band edge above the production folding frequency (up to 3×).
            let lo = folding * 1.05;
            let hi = folding * 3.0;
            Hertz(log_uniform(&mut rng, lo, hi))
        } else {
            Hertz(log_uniform(
                &mut rng,
                profile.edge_lo.value(),
                profile.edge_hi.value(),
            ))
        };

        // Mean and AC amplitude, kept inside the metric's physical range so
        // no clipping (and thus no spectral spreading) is needed.
        let (lo, hi) = profile.base_range;
        let (mean, amp) = if quiet {
            // Idle counter: sits at the range floor with sub-quantum wiggle.
            (lo + profile.quant_step * 0.25, profile.quant_step * 0.2)
        } else {
            let mid = profile.mid_value();
            let mean = mid + rng.gen_range(-0.2..0.2) * profile.half_range();
            let headroom = (mean - lo).min(hi - mean);
            (mean, rng.gen_range(0.3..0.8) * headroom)
        };

        let model = if undersampled {
            // Alias-heavy band: most tones sit at/above the production
            // folding frequency, so the folded spectrum fills the measurable
            // band — the signature today's polling cannot capture.
            SignalModel::broadband_between(
                &mut rng,
                Hertz(folding * 0.7),
                edge,
                mean,
                amp,
                TONES_PER_SIGNAL,
            )
        } else {
            SignalModel::band_limited(
                &mut rng,
                edge,
                mean,
                amp,
                if quiet { 0.0 } else { profile.diurnal_weight },
                TONES_PER_SIGNAL,
            )
        };

        let impairments = Impairments {
            noise_std: profile.relative_noise * amp,
            quant_step: Some(profile.quant_step),
            drop_prob: 0.002,
            jitter_frac: 0.02,
            corrupt_prob: 0.0,
            corrupt_magnitude: 0.0,
            dup_prob: 0.0,
            delay_prob: 0.0,
        };

        DeviceTrace {
            meta: TraceMeta {
                metric: profile.kind.name().to_string(),
                device: format!("{}-dev{:04}", profile.kind.slug(), device_idx),
            },
            profile,
            model,
            impairments,
            undersampled,
            quiet,
            seed: device_seed,
        }
    }

    /// Returns a copy of this device with transient events injected into its
    /// ground-truth model (for adaptation and event-recall experiments).
    pub fn with_events(mut self, events: Vec<crate::events::Event>) -> DeviceTrace {
        self.model = self.model.with_events(events);
        self
    }

    /// The ground-truth model of an alternate *regime*: every tone frequency
    /// scaled by `factor` (see [`SignalModel::with_scaled_frequencies`]).
    /// Scenario incidents build this once per member and swap it in and out
    /// with [`DeviceTrace::swap_model`] at regime boundaries.
    pub fn regime_model(&self, factor: f64) -> SignalModel {
        self.model.with_scaled_frequencies(factor)
    }

    /// Exchanges the ground-truth model with `alt` in place (no allocation).
    /// The caller owns the displaced model and is responsible for swapping
    /// it back — identity, impairments, and the noise seed are unaffected,
    /// so measurement noise stays on the same deterministic stream across a
    /// regime switch.
    pub fn swap_model(&mut self, alt: &mut SignalModel) {
        std::mem::swap(&mut self.model, alt);
    }

    /// Trace identity (`metric@device`).
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// The metric profile used.
    pub fn profile(&self) -> &MetricProfile {
        &self.profile
    }

    /// The ground-truth signal model.
    pub fn model(&self) -> &SignalModel {
        &self.model
    }

    /// The measurement impairment chain.
    pub fn impairments(&self) -> &Impairments {
        &self.impairments
    }

    /// Heap bytes the trace holds beyond its inline struct (identity
    /// strings + signal model storage) — the durable per-member memory the
    /// fleet engine accounts for.
    pub fn heap_bytes(&self) -> usize {
        self.meta.metric.capacity() + self.meta.device.capacity() + self.model.heap_bytes()
    }

    /// True band edge of the ground-truth signal (known by construction).
    pub fn true_band_edge(&self) -> Hertz {
        self.model.band_edge()
    }

    /// True Nyquist sampling rate (`2 × band edge`).
    pub fn true_nyquist_rate(&self) -> Hertz {
        self.model.nyquist_rate()
    }

    /// Whether today's production polling under-samples this device.
    pub fn is_undersampled_at_production_rate(&self) -> bool {
        self.undersampled
    }

    /// Whether this device is quiescent (idle counter; flat after
    /// quantization).
    pub fn is_quiet(&self) -> bool {
        self.quiet
    }

    /// Pristine ground truth sampled at `rate` for `duration` from t=0.
    ///
    /// Evaluates through the streaming [`ToneBank`] oscillator (allocating
    /// fresh buffers); a loop that needs no allocations calls
    /// [`SignalModel::sample_into`] on [`DeviceTrace::model`] directly.
    pub fn ground_truth(&self, rate: Hertz, duration: Seconds) -> RegularSeries {
        let mut bank = ToneBank::new();
        let mut values = Vec::new();
        self.model
            .sample_into(&mut bank, Seconds::ZERO, rate, duration, &mut values);
        RegularSeries::new(Seconds::ZERO, rate.period(), values)
    }

    /// The measured trace at the *production* rate: ground truth through the
    /// impairment chain. Deterministic per device.
    pub fn production_trace(&self, duration: Seconds) -> IrregularSeries {
        self.measured(self.profile.production_rate(), duration, 0)
    }

    /// [`DeviceTrace::production_trace`] into reused buffers (see
    /// [`DeviceTrace::measured_into`]).
    pub fn production_trace_into(
        &self,
        synth: &mut TraceSynth,
        duration: Seconds,
        times: &mut Vec<Seconds>,
        values: &mut Vec<f64>,
    ) {
        let rate = self.profile.production_rate();
        let mut rng = self.stream_rng(0);
        self.measured_into(
            synth,
            Seconds::ZERO,
            rate,
            duration,
            &mut rng,
            times,
            values,
        );
    }

    /// Measured trace at an arbitrary rate. `stream` decorrelates repeated
    /// measurements of the same device (e.g. the two pollers of the
    /// dual-rate aliasing detector must not share noise).
    pub fn measured(&self, rate: Hertz, duration: Seconds, stream: u64) -> IrregularSeries {
        let mut times = Vec::new();
        let mut values = Vec::new();
        let mut rng = self.stream_rng(stream);
        self.measured_into(
            &mut TraceSynth::new(),
            Seconds::ZERO,
            rate,
            duration,
            &mut rng,
            &mut times,
            &mut values,
        );
        IrregularSeries::new(times, values)
    }

    /// The measurement kernel: ground truth on `[start, start + duration)`
    /// at `rate` is streamed into `synth`'s grid buffer, and the impairment
    /// chain, drawing its noise from `rng`, writes the surviving
    /// `(time, value)` pairs into `times`/`values` (cleared, then filled).
    /// Zero steady-state heap allocations.
    #[allow(clippy::too_many_arguments)]
    pub fn measured_into<R: Rng>(
        &self,
        synth: &mut TraceSynth,
        start: Seconds,
        rate: Hertz,
        duration: Seconds,
        rng: &mut R,
        times: &mut Vec<Seconds>,
        values: &mut Vec<f64>,
    ) {
        let TraceSynth { bank, truth } = synth;
        self.model.sample_into(bank, start, rate, duration, truth);
        self.impairments
            .apply_grid_into(rng, start, rate.period(), truth, times, values);
    }

    /// The measurement-noise RNG of stream `stream` of this device.
    fn stream_rng(&self, stream: u64) -> StdRng {
        StdRng::seed_from_u64(mix_seed(self.seed, 0xDA7A, stream))
    }
}

fn log_uniform<R: Rng>(rng: &mut R, lo: f64, hi: f64) -> f64 {
    debug_assert!(lo > 0.0 && hi > lo);
    let u = rng.gen_range(lo.ln()..hi.ln());
    u.exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::MetricKind;

    fn temp_trace(idx: usize) -> DeviceTrace {
        DeviceTrace::synthesize(MetricProfile::for_kind(MetricKind::Temperature), idx, 1)
    }

    #[test]
    fn synthesis_is_deterministic() {
        let a = temp_trace(3);
        let b = temp_trace(3);
        assert_eq!(a, b);
        let t1 = a.production_trace(Seconds::from_hours(2.0));
        let t2 = b.production_trace(Seconds::from_hours(2.0));
        assert_eq!(t1, t2);
    }

    #[test]
    fn distinct_devices_differ() {
        let a = temp_trace(1);
        let b = temp_trace(2);
        assert_ne!(a.model(), b.model());
        assert_ne!(a.meta(), b.meta());
    }

    #[test]
    fn well_sampled_edge_within_profile_band() {
        let p = MetricProfile::for_kind(MetricKind::Temperature);
        for idx in 0..50 {
            let t = temp_trace(idx);
            if !t.is_undersampled_at_production_rate() {
                let e = t.true_band_edge().value();
                assert!(
                    e >= p.edge_lo.value() * 0.99 && e <= p.edge_hi.value() * 1.01,
                    "edge {e} outside [{}, {}]",
                    p.edge_lo,
                    p.edge_hi
                );
            }
        }
    }

    #[test]
    fn undersampled_edge_beyond_folding() {
        let p = MetricProfile::for_kind(MetricKind::FcsErrors);
        let mut found = 0;
        for idx in 0..200 {
            let t = DeviceTrace::synthesize(p, idx, 5);
            if t.is_undersampled_at_production_rate() {
                found += 1;
                assert!(t.true_band_edge().value() > p.folding_frequency().value());
            }
        }
        // 16% nominal → expect plenty in 200 draws.
        assert!(found > 10, "only {found} undersampled devices");
    }

    #[test]
    fn ground_truth_stays_in_metric_range() {
        for idx in 0..10 {
            let t = temp_trace(idx);
            let (lo, hi) = t.profile().base_range;
            let series = t.ground_truth(Hertz(1.0 / 300.0), Seconds::from_hours(12.0));
            for &v in series.values() {
                assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "value {v} outside range");
            }
        }
    }

    #[test]
    fn production_trace_has_roughly_expected_length() {
        let t = temp_trace(0);
        let day = Seconds::from_days(1.0);
        let trace = t.production_trace(day);
        // 1 day at 5-minute polls = 288, minus ~0.2% drops.
        assert!(trace.len() >= 280 && trace.len() <= 288, "{}", trace.len());
    }

    #[test]
    fn production_values_are_quantized() {
        let t = temp_trace(0);
        let step = t.profile().quant_step;
        let trace = t.production_trace(Seconds::from_hours(6.0));
        for &v in trace.values() {
            let snapped = (v / step).round() * step;
            assert!((v - snapped).abs() < 1e-9, "unquantized value {v}");
        }
    }

    #[test]
    fn measurement_streams_are_decorrelated() {
        let t = temp_trace(0);
        let a = t.measured(Hertz(1.0 / 300.0), Seconds::from_hours(6.0), 1);
        let b = t.measured(Hertz(1.0 / 300.0), Seconds::from_hours(6.0), 2);
        assert_ne!(a, b);
    }

    #[test]
    fn measured_into_matches_measured_exactly() {
        let t = DeviceTrace::synthesize(MetricProfile::for_kind(MetricKind::LinkUtil), 2, 9);
        let rate = t.profile().production_rate();
        let day = Seconds::from_days(1.0);
        let reference = t.measured(rate, day, 3);
        let mut synth = TraceSynth::new();
        let mut times = Vec::new();
        let mut values = Vec::new();
        let mut rng = t.stream_rng(3);
        t.measured_into(
            &mut synth,
            Seconds::ZERO,
            rate,
            day,
            &mut rng,
            &mut times,
            &mut values,
        );
        assert_eq!(times, reference.times());
        assert_eq!(values, reference.values());
    }

    #[test]
    fn synthesis_buffers_are_recycled_across_traces() {
        let a = temp_trace(0);
        let b = temp_trace(1);
        let mut synth = TraceSynth::new();
        let mut times = Vec::new();
        let mut values = Vec::new();
        let day = Seconds::from_days(1.0);
        a.production_trace_into(&mut synth, day, &mut times, &mut values);
        let (tp, vp) = (times.as_ptr(), values.as_ptr());
        b.production_trace_into(&mut synth, day, &mut times, &mut values);
        assert_eq!(times.as_ptr(), tp, "times buffer must be reused");
        assert_eq!(values.as_ptr(), vp, "values buffer must be reused");
        assert_eq!(values, b.production_trace(day).values());
    }

    #[test]
    fn meta_names_are_stable_and_unique() {
        let a = temp_trace(7);
        assert_eq!(a.meta().metric, "Temperature");
        assert_eq!(a.meta().device, "temperature-dev0007");
        let b = temp_trace(8);
        assert_ne!(a.meta().device, b.meta().device);
    }
}
