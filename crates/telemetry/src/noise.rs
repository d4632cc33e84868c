//! Measurement-layer impairments.
//!
//! A poller never sees the ground truth: readings carry white measurement
//! noise, are quantized (§4.3), occasionally go missing, arrive with jittered
//! timestamps, and are very occasionally corrupt. [`Impairments`] models all
//! of that as a pure function of (ground-truth series, RNG) so experiments
//! can dial each effect independently — the same fault-injection philosophy
//! the networking guides use for packet links.

use rand::Rng;
use sweetspot_dsp::quantize::Quantizer;
use sweetspot_timeseries::{IrregularSeries, RegularSeries, Seconds};

/// Measurement impairment configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Impairments {
    /// Standard deviation of additive white Gaussian measurement noise
    /// (metric units).
    pub noise_std: f64,
    /// Quantization step; `None` disables quantization.
    pub quant_step: Option<f64>,
    /// Probability a sample is lost entirely.
    pub drop_prob: f64,
    /// Timestamp jitter as a fraction of the sampling interval (`0..0.5`).
    pub jitter_frac: f64,
    /// Probability a sample is replaced by a corrupt value.
    pub corrupt_prob: f64,
    /// Magnitude of corrupt readings (added to the true value).
    pub corrupt_magnitude: f64,
    /// Probability a report is **duplicated** in flight: the same
    /// (timestamp, value) pair reaches the collector twice. Downstream
    /// cleaning deduplicates identical timestamps deterministically.
    pub dup_prob: f64,
    /// Probability a report is **delayed** in flight: it arrives at the
    /// *next* collection tick instead of its own, sharing that tick's
    /// timestamp with the fresh reading (first-arrival-wins after
    /// deduplication). A report still in flight when the trace ends is
    /// lost. Timestamps stay non-decreasing, never reordered.
    pub delay_prob: f64,
}

impl Default for Impairments {
    fn default() -> Self {
        Impairments {
            noise_std: 0.0,
            quant_step: None,
            drop_prob: 0.0,
            jitter_frac: 0.0,
            corrupt_prob: 0.0,
            corrupt_magnitude: 0.0,
            dup_prob: 0.0,
            delay_prob: 0.0,
        }
    }
}

impl Impairments {
    /// A clean measurement chain (no impairments at all).
    pub fn none() -> Self {
        Self::default()
    }

    /// Validates parameter ranges.
    ///
    /// # Panics
    /// Panics on out-of-range probabilities or jitter.
    pub fn validate(&self) {
        assert!(self.noise_std >= 0.0, "noise_std must be non-negative");
        assert!(
            (0.0..=1.0).contains(&self.drop_prob),
            "drop_prob must be a probability"
        );
        assert!(
            (0.0..0.5).contains(&self.jitter_frac) || self.jitter_frac == 0.0,
            "jitter_frac must be in [0, 0.5)"
        );
        assert!(
            (0.0..=1.0).contains(&self.corrupt_prob),
            "corrupt_prob must be a probability"
        );
        assert!(
            (0.0..=1.0).contains(&self.dup_prob),
            "dup_prob must be a probability"
        );
        assert!(
            (0.0..=1.0).contains(&self.delay_prob),
            "delay_prob must be a probability"
        );
        if let Some(q) = self.quant_step {
            assert!(q > 0.0, "quant_step must be positive");
        }
    }

    /// Applies the impairment chain to a ground-truth series, producing what
    /// the collector would actually record.
    ///
    /// Order of operations per sample: drop → noise → corruption →
    /// quantization → timestamp jitter → report faults (delay, duplicate).
    /// Dropped samples are removed (not NaN), so the output is an
    /// [`IrregularSeries`] — exactly the input shape the paper's
    /// pre-cleaning step expects. Report faults can emit two samples with
    /// the same timestamp (never out of order); the cleaning layer
    /// deduplicates them deterministically.
    ///
    /// Allocates the output; the synthesis hot loop calls
    /// [`Impairments::apply_grid_into`] with reused buffers instead.
    pub fn apply<R: Rng>(&self, rng: &mut R, truth: &RegularSeries) -> IrregularSeries {
        let mut times = Vec::with_capacity(truth.len());
        let mut values = Vec::with_capacity(truth.len());
        self.apply_grid_into(
            rng,
            truth.start(),
            truth.interval(),
            truth.values(),
            &mut times,
            &mut values,
        );
        IrregularSeries::new(times, values)
    }

    /// The impairment kernel: [`Impairments::apply`] into caller-owned
    /// `times`/`values` buffers (cleared, then filled) — identical samples
    /// and RNG stream, zero heap allocations once the buffers have grown to
    /// the trace length. The ground truth arrives as a bare uniform grid
    /// (`start`, `interval`, `truth`), so the generator feeds its synthesis
    /// buffer without wrapping it in a [`RegularSeries`] first.
    pub fn apply_grid_into<R: Rng>(
        &self,
        rng: &mut R,
        start: Seconds,
        interval: Seconds,
        truth: &[f64],
        times: &mut Vec<Seconds>,
        values: &mut Vec<f64>,
    ) {
        self.validate();
        let quantizer = self.quant_step.map(Quantizer::new);
        let interval_s = interval.value();
        times.clear();
        values.clear();
        times.reserve(truth.len());
        values.reserve(truth.len());
        // One in-flight slot for a delayed report: it lands at the next
        // emitted sample's collection tick, sharing its timestamp. A report
        // still in flight when the trace ends never arrives.
        let mut in_flight: Option<f64> = None;
        for (k, &v) in truth.iter().enumerate() {
            let t = start + interval * k as f64;
            if self.drop_prob > 0.0 && rng.gen_bool(self.drop_prob) {
                continue;
            }
            let mut value = v;
            if self.noise_std > 0.0 {
                value += gaussian(rng) * self.noise_std;
            }
            if self.corrupt_prob > 0.0 && rng.gen_bool(self.corrupt_prob) {
                let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                value += sign * self.corrupt_magnitude;
            }
            if let Some(q) = &quantizer {
                value = q.quantize(value);
            }
            // `jitter_frac < 0.5` (validated) keeps jittered timestamps of
            // *consecutive* grid samples strictly increasing; delayed and
            // duplicated reports only ever reuse an already-emitted stamp,
            // so the output is non-decreasing — never reordered — and the
            // cleaning layer's timestamp dedup handles the collisions.
            let jitter = if self.jitter_frac > 0.0 {
                rng.gen_range(-self.jitter_frac..self.jitter_frac) * interval_s
            } else {
                0.0
            };
            let stamp = Seconds(t.value() + jitter);
            if let Some(stale) = in_flight.take() {
                // The delayed report finally lands — at this tick's stamp,
                // ahead of the fresh reading (first arrival wins downstream).
                times.push(stamp);
                values.push(stale);
            }
            if self.delay_prob > 0.0 && rng.gen_bool(self.delay_prob) {
                in_flight = Some(value);
                continue;
            }
            times.push(stamp);
            values.push(value);
            if self.dup_prob > 0.0 && rng.gen_bool(self.dup_prob) {
                times.push(stamp);
                values.push(value);
            }
        }
    }
}

/// Standard normal via Box–Muller (avoids depending on `rand_distr`).
fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn truth() -> RegularSeries {
        RegularSeries::new(
            Seconds::ZERO,
            Seconds(10.0),
            (0..500)
                .map(|i| (i as f64 * 0.05).sin() * 10.0 + 50.0)
                .collect(),
        )
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn no_impairments_is_lossless() {
        let t = truth();
        let out = Impairments::none().apply(&mut rng(), &t);
        assert_eq!(out.len(), t.len());
        for ((tt, tv), (ot, ov)) in t.iter().zip(out.iter()) {
            assert_eq!(tt, ot);
            assert_eq!(tv, ov);
        }
    }

    #[test]
    fn noise_perturbs_but_stays_close() {
        let t = truth();
        let imp = Impairments {
            noise_std: 0.1,
            ..Impairments::none()
        };
        let out = imp.apply(&mut rng(), &t);
        let max_dev = t
            .values()
            .iter()
            .zip(out.values())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(max_dev > 0.0);
        assert!(max_dev < 1.0, "6σ should bound deviation, got {max_dev}");
    }

    #[test]
    fn noise_statistics_match() {
        let flat = RegularSeries::new(Seconds::ZERO, Seconds(1.0), vec![0.0; 20_000]);
        let imp = Impairments {
            noise_std: 2.0,
            ..Impairments::none()
        };
        let out = imp.apply(&mut rng(), &flat);
        let mean = out.values().iter().sum::<f64>() / out.len() as f64;
        let var = out
            .values()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f64>()
            / out.len() as f64;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn quantization_snaps_to_grid() {
        let t = truth();
        let imp = Impairments {
            quant_step: Some(1.0),
            ..Impairments::none()
        };
        let out = imp.apply(&mut rng(), &t);
        for &v in out.values() {
            assert!((v - v.round()).abs() < 1e-9);
        }
    }

    #[test]
    fn drops_remove_samples() {
        let t = truth();
        let imp = Impairments {
            drop_prob: 0.3,
            ..Impairments::none()
        };
        let out = imp.apply(&mut rng(), &t);
        let kept = out.len() as f64 / t.len() as f64;
        assert!((0.6..0.8).contains(&kept), "kept fraction {kept}");
    }

    #[test]
    fn jitter_moves_timestamps_within_bounds() {
        let t = truth();
        let imp = Impairments {
            jitter_frac: 0.3,
            ..Impairments::none()
        };
        let out = imp.apply(&mut rng(), &t);
        assert_eq!(out.len(), t.len());
        let mut any_moved = false;
        for ((tt, _), (ot, _)) in t.iter().zip(out.iter()) {
            let dev = (tt.value() - ot.value()).abs();
            assert!(dev < 3.01, "jitter exceeded 30% of 10s: {dev}");
            if dev > 0.0 {
                any_moved = true;
            }
        }
        assert!(any_moved);
    }

    #[test]
    fn corruption_injects_outliers() {
        let t = truth();
        let imp = Impairments {
            corrupt_prob: 0.05,
            corrupt_magnitude: 1e6,
            ..Impairments::none()
        };
        let out = imp.apply(&mut rng(), &t);
        let outliers = out.values().iter().filter(|v| v.abs() > 1e5).count();
        let frac = outliers as f64 / out.len() as f64;
        assert!((0.02..0.09).contains(&frac), "corrupt fraction {frac}");
    }

    #[test]
    fn deterministic_given_seed() {
        let t = truth();
        let imp = Impairments {
            noise_std: 0.5,
            drop_prob: 0.1,
            jitter_frac: 0.2,
            ..Impairments::none()
        };
        let a = imp.apply(&mut StdRng::seed_from_u64(99), &t);
        let b = imp.apply(&mut StdRng::seed_from_u64(99), &t);
        assert_eq!(a, b);
    }

    #[test]
    fn apply_into_matches_apply_exactly() {
        let t = truth();
        let imp = Impairments {
            noise_std: 0.5,
            quant_step: Some(0.25),
            drop_prob: 0.1,
            jitter_frac: 0.2,
            corrupt_prob: 0.01,
            corrupt_magnitude: 100.0,
            dup_prob: 0.05,
            delay_prob: 0.05,
        };
        let reference = imp.apply(&mut StdRng::seed_from_u64(5), &t);
        let mut times = Vec::new();
        let mut values = Vec::new();
        imp.apply_grid_into(
            &mut StdRng::seed_from_u64(5),
            t.start(),
            t.interval(),
            t.values(),
            &mut times,
            &mut values,
        );
        assert_eq!(times, reference.times());
        assert_eq!(values, reference.values());
    }

    #[test]
    fn apply_into_reuses_buffers() {
        let t = truth();
        let imp = Impairments {
            noise_std: 0.1,
            drop_prob: 0.05,
            ..Impairments::none()
        };
        let mut times = Vec::new();
        let mut values = Vec::new();
        let (start, interval) = (t.start(), t.interval());
        imp.apply_grid_into(
            &mut rng(),
            start,
            interval,
            t.values(),
            &mut times,
            &mut values,
        );
        let (tp, vp) = (times.as_ptr(), values.as_ptr());
        imp.apply_grid_into(
            &mut rng(),
            start,
            interval,
            t.values(),
            &mut times,
            &mut values,
        );
        assert_eq!(times.as_ptr(), tp, "times buffer must be reused");
        assert_eq!(values.as_ptr(), vp, "values buffer must be reused");
    }

    #[test]
    fn duplicates_share_timestamps_exactly() {
        let t = truth();
        let imp = Impairments {
            dup_prob: 0.2,
            ..Impairments::none()
        };
        let out = imp.apply(&mut rng(), &t);
        assert!(out.len() > t.len(), "duplication must add samples");
        let dups = out.times().windows(2).filter(|w| w[0] == w[1]).count();
        assert!(
            (30..120).contains(&dups),
            "expected ~100 duplicated reports in 500, got {dups}"
        );
        // Every duplicate is exact: same timestamp, same value, adjacent.
        for (tw, vw) in out.times().windows(2).zip(out.values().windows(2)) {
            if tw[0] == tw[1] {
                assert_eq!(vw[0], vw[1], "a duplicated report must repeat its value");
            }
        }
        // Never out of order.
        assert!(out.times().windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn delayed_reports_land_on_the_next_tick_never_reordered() {
        let t = truth();
        let imp = Impairments {
            delay_prob: 0.15,
            ..Impairments::none()
        };
        let out = imp.apply(&mut rng(), &t);
        // Delays shuffle arrival ticks but lose at most the one report
        // still in flight at the end of the trace.
        assert!(
            out.len() >= t.len() - 1,
            "delay must not lose reports mid-trace"
        );
        // A delayed report shares its landing tick's timestamp.
        let collisions = out.times().windows(2).filter(|w| w[0] == w[1]).count();
        assert!(
            collisions > 20,
            "expected timestamp collisions, got {collisions}"
        );
        assert!(
            out.times().windows(2).all(|w| w[0] <= w[1]),
            "delayed reports must never reorder timestamps"
        );
    }

    #[test]
    fn inert_report_faults_leave_the_chain_bit_identical() {
        // dup/delay at probability zero must not perturb the RNG stream:
        // the pre-existing impairment chain stays byte-for-byte identical.
        let t = truth();
        let faulty_chain = Impairments {
            noise_std: 0.5,
            drop_prob: 0.1,
            jitter_frac: 0.2,
            ..Impairments::none()
        };
        let a = faulty_chain.apply(&mut StdRng::seed_from_u64(99), &t);
        let b = Impairments {
            dup_prob: 0.0,
            delay_prob: 0.0,
            ..faulty_chain
        }
        .apply(&mut StdRng::seed_from_u64(99), &t);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_drop_prob_panics() {
        let imp = Impairments {
            drop_prob: 1.5,
            ..Impairments::none()
        };
        imp.apply(&mut rng(), &truth());
    }
}
