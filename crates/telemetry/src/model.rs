//! Band-limited ground-truth signal models.
//!
//! A [`SignalModel`] is a deterministic function of continuous time: a mean
//! plus a sum of sinusoidal tones (and optional transient [`events`]). Being
//! a finite tone sum makes it **exactly band-limited** with a band edge known
//! by construction — the property every estimator test in the workspace
//! leans on — and evaluable at any `t`, which lets pollers sample it at any
//! rate.
//!
//! [`events`]: crate::events

use crate::events::Event;
use rand::Rng;
use std::f64::consts::PI;
use sweetspot_timeseries::{grid_len, Hertz, RegularSeries, Seconds};

/// One sinusoidal component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tone {
    /// Frequency in Hz.
    pub freq: f64,
    /// Amplitude in metric units.
    pub amp: f64,
    /// Phase in radians.
    pub phase: f64,
}

impl Tone {
    /// Value of the tone at time `t` seconds.
    #[inline]
    pub fn value_at(&self, t: f64) -> f64 {
        self.amp * (2.0 * PI * self.freq * t + self.phase).sin()
    }
}

/// A streaming oscillator bank: evaluates a tone sum over a *uniform* time
/// grid by complex phase rotation instead of a `sin()` call per sample.
///
/// Each tone `a·sin(θ₀ + k·Δθ)` is a phasor stepped by the fixed rotation
/// `(cos Δθ, sin Δθ)` — one complex multiply-add per tone per sample. The
/// phasor is re-seeded from the exact angle every
/// [`ToneBank::RENORM_INTERVAL`] samples, bounding rounding drift (both the
/// phasor's magnitude and its phase) to `O(RENORM_INTERVAL · ε)` — around
/// 1e-13 of the tone amplitude — instead of letting it accumulate over a
/// whole trace. `proptests.rs` pins the agreement with [`Tone::value_at`]
/// to 1e-9 over day-length traces, and [`ToneBank::accumulate`] bit for bit
/// to the plain sample-major sum it replaced.
///
/// The bank's parameter buffers are reused across [`ToneBank::load`] calls,
/// so synthesizing trace after trace with one bank performs no steady-state
/// heap allocations.
#[derive(Debug, Clone, Default)]
pub struct ToneBank {
    amp: Vec<f64>,
    theta0: Vec<f64>,
    dtheta: Vec<f64>,
    /// Per-tone step rotation `(cos Δθ, sin Δθ)`.
    rot_cos: Vec<f64>,
    rot_sin: Vec<f64>,
    /// Per-tone phasor `(sin, cos)` at the current chunk's first sample,
    /// written by each exact re-seed.
    cur_cos: Vec<f64>,
    cur_sin: Vec<f64>,
}

impl ToneBank {
    /// Samples between exact re-seeds of each oscillator. Small enough that
    /// worst-case drift (`~RENORM_INTERVAL · ε` in phase) stays orders of
    /// magnitude under the 1e-9 agreement the property tests pin, large
    /// enough that the per-chunk `sin_cos` re-seed cost is invisible.
    pub const RENORM_INTERVAL: usize = 256;

    /// An empty bank; buffers grow on first [`ToneBank::load`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap bytes the bank currently holds (capacities, not lengths) —
    /// the per-worker memory-footprint accounting of the fleet engine.
    pub fn resident_bytes(&self) -> usize {
        (self.amp.capacity()
            + self.theta0.capacity()
            + self.dtheta.capacity()
            + self.rot_cos.capacity()
            + self.rot_sin.capacity()
            + self.cur_cos.capacity()
            + self.cur_sin.capacity())
            * std::mem::size_of::<f64>()
    }

    /// Loads `tones` for a grid starting at `start` seconds with `interval`
    /// spacing, reusing the bank's buffers.
    pub fn load(&mut self, tones: &[Tone], start: Seconds, interval: Seconds) {
        self.amp.clear();
        self.theta0.clear();
        self.dtheta.clear();
        self.rot_cos.clear();
        self.rot_sin.clear();
        for tone in tones {
            let w = 2.0 * PI * tone.freq;
            self.amp.push(tone.amp);
            self.theta0.push(w * start.value() + tone.phase);
            let dtheta = w * interval.value();
            self.dtheta.push(dtheta);
            let (s, c) = dtheta.sin_cos();
            self.rot_cos.push(c);
            self.rot_sin.push(s);
        }
        self.cur_cos.resize(tones.len(), 0.0);
        self.cur_sin.resize(tones.len(), 0.0);
    }

    /// Adds every loaded tone's contribution at grid point `k` to `out[k]`.
    ///
    /// Each re-seed chunk keeps one stack accumulator per sample. The tones
    /// are stepped eight at a time across the whole chunk, and each step
    /// adds the group's `amp·sin` terms to that sample's accumulator in tone
    /// order, so the eight recurrences and the chunk's sums all overlap
    /// instead of every product waiting on one running sum. The result is
    /// bit-identical to summing all tones sample by sample: each phasor runs
    /// the same recurrence from the same re-seed, each sample's sum starts
    /// at `0.0` and adds the same products in the same order, and Rust
    /// never fuses `a * b + c` into one rounding.
    pub fn accumulate(&mut self, out: &mut [f64]) {
        // Enough independent recurrences to fill the pipeline, few enough
        // that their state stays in registers.
        const GROUP: usize = 8;
        let tones = self.amp.len();
        let mut acc = [0.0; Self::RENORM_INTERVAL];
        for (idx, chunk) in out.chunks_mut(Self::RENORM_INTERVAL).enumerate() {
            let k = (idx * Self::RENORM_INTERVAL) as f64;
            // Exact re-seed of every phasor: drift cannot outlive one chunk.
            for i in 0..tones {
                let (s, c) = (self.theta0[i] + k * self.dtheta[i]).sin_cos();
                self.cur_sin[i] = s;
                self.cur_cos[i] = c;
            }
            let acc = &mut acc[..chunk.len()];
            acc.fill(0.0);
            for g in (0..tones).step_by(GROUP) {
                // A short last group pads with silent, unrotated phasors.
                // Their `+0.0` terms change no sum: a sum that starts at
                // `+0.0` is never `-0.0` under round-to-nearest.
                let (mut amp, mut rot_cos, mut rot_sin) =
                    ([0.0; GROUP], [1.0; GROUP], [0.0; GROUP]);
                let (mut sin, mut cos) = ([0.0; GROUP], [1.0; GROUP]);
                for (j, i) in (g..tones.min(g + GROUP)).enumerate() {
                    (amp[j], rot_cos[j], rot_sin[j]) =
                        (self.amp[i], self.rot_cos[i], self.rot_sin[i]);
                    (sin[j], cos[j]) = (self.cur_sin[i], self.cur_cos[i]);
                }
                for v in acc.iter_mut() {
                    let mut sum = *v;
                    for j in 0..GROUP {
                        let (s, c) = (sin[j], cos[j]);
                        sum += amp[j] * s;
                        sin[j] = s * rot_cos[j] + c * rot_sin[j];
                        cos[j] = c * rot_cos[j] - s * rot_sin[j];
                    }
                    *v = sum;
                }
            }
            for (v, a) in chunk.iter_mut().zip(acc.iter()) {
                *v += a;
            }
        }
    }
}

/// A band-limited ground-truth signal: `mean + Σ tones + Σ events`, clipped
/// to a physical range if configured.
#[derive(Debug, Clone, PartialEq)]
pub struct SignalModel {
    mean: f64,
    tones: Vec<Tone>,
    events: Vec<Event>,
    clip: Option<(f64, f64)>,
}

impl SignalModel {
    /// Builds a model from explicit parts.
    ///
    /// # Panics
    /// Panics if any tone has a non-positive frequency or negative amplitude,
    /// or the clip range is inverted.
    pub fn new(mean: f64, tones: Vec<Tone>, clip: Option<(f64, f64)>) -> Self {
        assert!(
            tones.iter().all(|t| t.freq > 0.0 && t.amp >= 0.0),
            "tones must have positive frequency and non-negative amplitude"
        );
        if let Some((lo, hi)) = clip {
            assert!(lo < hi, "clip range must be ordered");
        }
        SignalModel {
            mean,
            tones,
            events: Vec::new(),
            clip,
        }
    }

    /// Synthesizes a random band-limited signal.
    ///
    /// * `edge` — the highest tone frequency (the true band edge).
    /// * `mean`, `amp` — DC level and total AC amplitude budget.
    /// * `diurnal_weight` — fraction (`0..=1`) of the amplitude budget put
    ///   into a 24-hour component; the rest is spread over `n_tones` tones
    ///   log-spaced from `edge/1000` up to `edge` with ±50% amplitude jitter.
    ///
    /// The tone *at* the band edge receives 35% of the broadband budget, so
    /// the edge always carries a visible share of the energy: this is what
    /// makes the 99%-energy estimator land close to `edge`, and what keeps
    /// slow signals visible above measurement noise within short analysis
    /// windows.
    ///
    /// # Panics
    /// Panics if `edge` is not positive, `amp` is negative, or `n_tones == 0`.
    pub fn band_limited<R: Rng>(
        rng: &mut R,
        edge: Hertz,
        mean: f64,
        amp: f64,
        diurnal_weight: f64,
        n_tones: usize,
    ) -> SignalModel {
        assert!(edge.value() > 0.0, "band edge must be positive");
        assert!(amp >= 0.0, "amplitude must be non-negative");
        assert!(n_tones > 0, "need at least one tone");
        let diurnal_freq = 1.0 / 86_400.0;
        let mut tones = Vec::with_capacity(n_tones + 1);
        // The diurnal share of the budget only applies when a 24-hour tone
        // fits inside the band; otherwise the whole budget goes broadband
        // (deducting it anyway would silently shrink slow signals).
        let mut diurnal_amp = amp * diurnal_weight.clamp(0.0, 1.0);
        if diurnal_amp > 0.0 && diurnal_freq < edge.value() {
            tones.push(Tone {
                freq: diurnal_freq,
                amp: diurnal_amp,
                phase: rng.gen_range(0.0..2.0 * PI),
            });
        } else {
            diurnal_amp = 0.0;
        }
        let broadband_amp = amp - diurnal_amp;
        let edge_amp = broadband_amp * 0.35;
        let filler_budget = broadband_amp - edge_amp;
        let lo = edge.value() / 1000.0;
        let per_tone = if n_tones > 1 {
            filler_budget / (n_tones - 1) as f64
        } else {
            0.0
        };
        for i in 0..n_tones.saturating_sub(1) {
            // Log-spaced grid with jitter so tones never align across devices.
            let frac = (i as f64 + rng.gen_range(0.1..0.9)) / n_tones as f64;
            let freq = lo * (edge.value() / lo).powf(frac);
            tones.push(Tone {
                freq,
                amp: per_tone * rng.gen_range(0.5..1.5),
                phase: rng.gen_range(0.0..2.0 * PI),
            });
        }
        // The edge tone pins the true band edge exactly, with a dominant
        // share of the budget (see docs above).
        tones.push(Tone {
            freq: edge.value(),
            amp: if n_tones > 1 { edge_amp } else { broadband_amp },
            phase: rng.gen_range(0.0..2.0 * PI),
        });
        SignalModel::new(mean, tones, None)
    }

    /// Synthesizes a signal whose tones are log-spaced across `[lo, hi]`
    /// with near-equal amplitudes — no diurnal component, no edge dominance.
    ///
    /// This is the model for *under-sampled* devices: when `lo` sits near a
    /// poller's folding frequency and `hi` above it, most tones alias and
    /// the folded spectrum fills the measurable band — the "probably already
    /// aliased" signature the §3.2 estimator flags.
    ///
    /// # Panics
    /// Panics unless `0 < lo < hi`, `amp >= 0` and `n_tones > 0`.
    pub fn broadband_between<R: Rng>(
        rng: &mut R,
        lo: Hertz,
        hi: Hertz,
        mean: f64,
        amp: f64,
        n_tones: usize,
    ) -> SignalModel {
        assert!(
            lo.value() > 0.0 && lo.value() < hi.value(),
            "need 0 < lo < hi"
        );
        assert!(amp >= 0.0, "amplitude must be non-negative");
        assert!(n_tones > 0, "need at least one tone");
        let per_tone = amp / n_tones as f64;
        let mut tones: Vec<Tone> = (0..n_tones)
            .map(|i| {
                let frac = (i as f64 + rng.gen_range(0.1..0.9)) / n_tones as f64;
                let freq = lo.value() * (hi.value() / lo.value()).powf(frac);
                Tone {
                    freq,
                    amp: per_tone * rng.gen_range(0.7..1.3),
                    phase: rng.gen_range(0.0..2.0 * PI),
                }
            })
            .collect();
        // Pin the top tone to the requested band edge.
        if let Some(last) = tones.last_mut() {
            last.freq = hi.value();
        }
        SignalModel::new(mean, tones, None)
    }

    /// Adds transient events to the model.
    pub fn with_events(mut self, events: Vec<Event>) -> Self {
        self.events = events;
        self
    }

    /// A regime variant of this model: every tone frequency scaled by
    /// `factor`, amplitudes/phases/mean/events/clip untouched. This is how
    /// scenario incidents remap a device's signal — the band edge moves to
    /// `factor ×` its diurnal value, so a controller settled on the old
    /// regime is genuinely under- (or over-) sampling until it re-adapts.
    ///
    /// # Panics
    /// Panics if `factor` is not positive and finite.
    pub fn with_scaled_frequencies(&self, factor: f64) -> SignalModel {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "frequency scale must be positive and finite, got {factor}"
        );
        let tones = self
            .tones
            .iter()
            .map(|t| Tone {
                freq: t.freq * factor,
                ..*t
            })
            .collect();
        SignalModel {
            mean: self.mean,
            tones,
            events: self.events.clone(),
            clip: self.clip,
        }
    }

    /// The DC level.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The tone set.
    pub fn tones(&self) -> &[Tone] {
        &self.tones
    }

    /// The configured events.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Heap bytes the model holds (tone + event storage capacities) — the
    /// durable per-member memory the fleet engine accounts for.
    pub fn heap_bytes(&self) -> usize {
        self.tones.capacity() * std::mem::size_of::<Tone>()
            + self.events.capacity() * std::mem::size_of::<Event>()
    }

    /// The highest tone frequency — the true band edge of the *stationary*
    /// part of the signal. Zero if there are no tones.
    pub fn band_edge(&self) -> Hertz {
        Hertz(self.tones.iter().map(|t| t.freq).fold(0.0, f64::max))
    }

    /// The true Nyquist *sampling* rate: twice the band edge.
    pub fn nyquist_rate(&self) -> Hertz {
        self.band_edge().nyquist_rate()
    }

    /// Evaluates the signal at time `t` seconds.
    pub fn value_at(&self, t: f64) -> f64 {
        let mut v = self.mean;
        for tone in &self.tones {
            v += tone.value_at(t);
        }
        for e in &self.events {
            v += e.value_at(t);
        }
        if let Some((lo, hi)) = self.clip {
            v = v.clamp(lo, hi);
        }
        v
    }

    /// Samples the signal at `rate` for `duration`, starting at `start`.
    ///
    /// This is the direct per-sample [`SignalModel::value_at`] path — exact,
    /// but `O(tones)` `sin()` calls per sample. The synthesis hot loop uses
    /// [`SignalModel::sample_into`], which streams the same grid through a
    /// [`ToneBank`] an order of magnitude faster; this method is kept as the
    /// reference the oscillator bank is validated (and benchmarked) against.
    ///
    /// # Panics
    /// Panics if `rate` or `duration` is not positive.
    pub fn sample(&self, start: Seconds, rate: Hertz, duration: Seconds) -> RegularSeries {
        assert!(rate.value() > 0.0, "rate must be positive");
        assert!(duration.value() > 0.0, "duration must be positive");
        let interval = rate.period();
        let n = grid_len(duration, rate);
        let values = (0..n)
            .map(|k| self.value_at(start.value() + k as f64 * interval.value()))
            .collect();
        RegularSeries::new(start, interval, values)
    }

    /// Streaming variant of [`SignalModel::sample`]: fills `out` with the
    /// same uniform grid via the [`ToneBank`] oscillator recurrence (one
    /// multiply-add per tone per sample; agreement with the direct path is
    /// pinned to 1e-9 by property tests). `bank` and `out` are reused across
    /// calls, so the steady-state cost is zero heap allocations.
    ///
    /// # Panics
    /// Panics if `rate` or `duration` is not positive.
    pub fn sample_into(
        &self,
        bank: &mut ToneBank,
        start: Seconds,
        rate: Hertz,
        duration: Seconds,
        out: &mut Vec<f64>,
    ) {
        assert!(rate.value() > 0.0, "rate must be positive");
        assert!(duration.value() > 0.0, "duration must be positive");
        let interval = rate.period();
        let n = grid_len(duration, rate);
        out.clear();
        out.resize(n, self.mean);
        bank.load(&self.tones, start, interval);
        bank.accumulate(out);
        // Events are transient and sparse; evaluate only the grid slots a
        // given event actually covers instead of scanning every sample.
        for e in &self.events {
            let first = ((e.start - start.value()) / interval.value())
                .floor()
                .max(0.0) as usize;
            let last = ((e.end() - start.value()) / interval.value())
                .ceil()
                .max(0.0) as usize;
            let span = out
                .iter_mut()
                .enumerate()
                .take(last.saturating_add(1))
                .skip(first);
            for (k, v) in span {
                let t = start.value() + k as f64 * interval.value();
                *v += e.value_at(t);
            }
        }
        if let Some((lo, hi)) = self.clip {
            for v in out.iter_mut() {
                *v = v.clamp(lo, hi);
            }
        }
    }

    /// Total AC amplitude (sum of tone amplitudes) — an upper bound on the
    /// signal's deviation from its mean, ignoring events.
    pub fn total_amplitude(&self) -> f64 {
        self.tones.iter().map(|t| t.amp).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn band_edge_is_max_tone_freq() {
        let m = SignalModel::new(
            0.0,
            vec![
                Tone {
                    freq: 0.1,
                    amp: 1.0,
                    phase: 0.0,
                },
                Tone {
                    freq: 0.5,
                    amp: 0.5,
                    phase: 1.0,
                },
            ],
            None,
        );
        assert_eq!(m.band_edge(), Hertz(0.5));
        assert_eq!(m.nyquist_rate(), Hertz(1.0));
    }

    #[test]
    fn band_limited_pins_requested_edge() {
        let m = SignalModel::band_limited(&mut rng(), Hertz(0.01), 10.0, 2.0, 0.3, 20);
        assert!((m.band_edge().value() - 0.01).abs() < 1e-15);
        assert!(m.tones().len() >= 20);
    }

    #[test]
    fn band_limited_respects_amplitude_budget() {
        let m = SignalModel::band_limited(&mut rng(), Hertz(0.01), 10.0, 2.0, 0.5, 25);
        // Jitter is ±50%, so total amplitude is within [0.5, 1.5]× budget
        // for the broadband part plus the exact diurnal share.
        let total = m.total_amplitude();
        assert!(total > 1.0 && total < 3.5, "total amplitude {total}");
    }

    #[test]
    fn band_limited_is_deterministic_per_seed() {
        let a = SignalModel::band_limited(&mut rng(), Hertz(0.01), 10.0, 2.0, 0.3, 10);
        let b = SignalModel::band_limited(&mut rng(), Hertz(0.01), 10.0, 2.0, 0.3, 10);
        assert_eq!(a, b);
        assert_eq!(a.value_at(1234.5), b.value_at(1234.5));
    }

    #[test]
    fn value_at_is_mean_plus_tones() {
        let m = SignalModel::new(
            5.0,
            vec![Tone {
                freq: 1.0,
                amp: 2.0,
                phase: 0.0,
            }],
            None,
        );
        assert!((m.value_at(0.0) - 5.0).abs() < 1e-12); // sin(0)=0
        assert!((m.value_at(0.25) - 7.0).abs() < 1e-12); // sin(π/2)=1
    }

    #[test]
    fn clip_applies() {
        let m = SignalModel::new(
            0.0,
            vec![Tone {
                freq: 1.0,
                amp: 10.0,
                phase: 0.0,
            }],
            Some((-1.0, 1.0)),
        );
        assert_eq!(m.value_at(0.25), 1.0);
        assert_eq!(m.value_at(0.75), -1.0);
    }

    #[test]
    fn sample_produces_expected_grid() {
        let m = SignalModel::new(1.0, vec![], None);
        let s = m.sample(Seconds(100.0), Hertz(2.0), Seconds(5.0));
        assert_eq!(s.len(), 10);
        assert_eq!(s.start(), Seconds(100.0));
        assert_eq!(s.interval(), Seconds(0.5));
        assert!(s.values().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn sample_matches_value_at() {
        let m = SignalModel::band_limited(&mut rng(), Hertz(0.05), 3.0, 1.0, 0.0, 5);
        let s = m.sample(Seconds(7.0), Hertz(0.5), Seconds(20.0));
        for (k, &v) in s.values().iter().enumerate() {
            let t = 7.0 + k as f64 * 2.0;
            assert_eq!(v, m.value_at(t));
        }
    }

    #[test]
    fn sample_into_matches_direct_sample() {
        let m = SignalModel::band_limited(&mut rng(), Hertz(2e-3), 40.0, 8.0, 0.4, 24);
        let reference = m.sample(Seconds(13.0), Hertz(1.0 / 30.0), Seconds::from_days(1.0));
        let mut bank = ToneBank::new();
        let mut fast = Vec::new();
        m.sample_into(
            &mut bank,
            Seconds(13.0),
            Hertz(1.0 / 30.0),
            Seconds::from_days(1.0),
            &mut fast,
        );
        assert_eq!(fast.len(), reference.len());
        let scale = 1.0 + m.total_amplitude();
        for (f, r) in fast.iter().zip(reference.values()) {
            assert!(
                (f - r).abs() <= 1e-9 * scale,
                "oscillator drifted: {f} vs {r}"
            );
        }
    }

    #[test]
    fn sample_into_applies_events_and_clip() {
        use crate::events::{Event, EventKind};
        let m = SignalModel::new(
            0.0,
            vec![Tone {
                freq: 1e-3,
                amp: 2.0,
                phase: 0.3,
            }],
            Some((-1.5, 1.5)),
        )
        .with_events(vec![Event::new(EventKind::LevelShift, 500.0, 200.0, 10.0)]);
        let reference = m.sample(Seconds::ZERO, Hertz(0.1), Seconds(1000.0));
        let mut bank = ToneBank::new();
        let mut fast = Vec::new();
        m.sample_into(
            &mut bank,
            Seconds::ZERO,
            Hertz(0.1),
            Seconds(1000.0),
            &mut fast,
        );
        for (k, (f, r)) in fast.iter().zip(reference.values()).enumerate() {
            assert!((f - r).abs() <= 1e-9, "slot {k}: {f} vs {r}");
        }
        // The clip must actually bite inside the event window.
        assert!(fast.contains(&1.5));
    }

    #[test]
    fn sample_into_reuses_buffers() {
        let m = SignalModel::band_limited(&mut rng(), Hertz(1e-3), 5.0, 1.0, 0.2, 8);
        let mut bank = ToneBank::new();
        let mut out = Vec::new();
        m.sample_into(
            &mut bank,
            Seconds::ZERO,
            Hertz(0.01),
            Seconds(10_000.0),
            &mut out,
        );
        let ptr = out.as_ptr();
        let cap = out.capacity();
        m.sample_into(
            &mut bank,
            Seconds::ZERO,
            Hertz(0.01),
            Seconds(10_000.0),
            &mut out,
        );
        assert_eq!(out.as_ptr(), ptr, "output buffer must be reused");
        assert_eq!(out.capacity(), cap);
    }

    #[test]
    fn tone_bank_renorm_interval_bounds_drift() {
        // A deliberately fast tone over a long grid: the worst case for the
        // recurrence. With re-seeding every RENORM_INTERVAL samples the
        // error stays far below 1e-9; this pins the interval's adequacy.
        let tone = Tone {
            freq: 0.025,
            amp: 1.0,
            phase: 1.234,
        };
        let mut bank = ToneBank::new();
        let dt = Seconds(20.0);
        bank.load(&[tone], Seconds::ZERO, dt);
        let mut out = vec![0.0; 4320]; // one day at 20 s
        bank.accumulate(&mut out);
        for (k, v) in out.iter().enumerate() {
            let exact = tone.value_at(k as f64 * dt.value());
            assert!((v - exact).abs() < 1e-10, "k={k}: {v} vs {exact}");
        }
    }

    #[test]
    fn diurnal_component_present_when_weighted() {
        let m = SignalModel::band_limited(&mut rng(), Hertz(0.01), 0.0, 1.0, 0.7, 10);
        let has_diurnal = m
            .tones()
            .iter()
            .any(|t| (t.freq - 1.0 / 86_400.0).abs() < 1e-12 && t.amp > 0.5);
        assert!(has_diurnal);
    }

    #[test]
    fn no_diurnal_when_zero_weight() {
        let m = SignalModel::band_limited(&mut rng(), Hertz(0.01), 0.0, 1.0, 0.0, 10);
        assert!(m
            .tones()
            .iter()
            .all(|t| (t.freq - 1.0 / 86_400.0).abs() > 1e-12));
    }

    #[test]
    #[should_panic(expected = "positive frequency")]
    fn zero_freq_tone_panics() {
        SignalModel::new(
            0.0,
            vec![Tone {
                freq: 0.0,
                amp: 1.0,
                phase: 0.0,
            }],
            None,
        );
    }
}
