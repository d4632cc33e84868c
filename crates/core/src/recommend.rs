//! The operational endpoint: from a measured trace to a sampling-rate
//! recommendation.
//!
//! Everything else in this crate computes *numbers*; operators need a
//! *decision*. [`recommend`] composes the §3.2 estimator with the paper's
//! operational guidance into one call: keep the current rate, reduce it (by
//! how much, saving how many samples), increase it, or escalate the trace
//! for inspection (the paper's −1 / aliased case).

use crate::estimator::{NyquistConfig, NyquistEstimate, NyquistEstimator};
use serde::{Deserialize, Serialize};
use sweetspot_timeseries::{Hertz, RegularSeries};

/// Recommendation policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct RecommendConfig {
    /// Estimator settings.
    pub estimator: NyquistConfig,
    /// Sample at `headroom × estimated Nyquist rate` (§4.2's safety margin).
    pub headroom: f64,
    /// Only recommend a change when it moves the rate by at least this
    /// factor (changing every poller's config for a 5% saving is not worth
    /// the churn).
    pub min_change_factor: f64,
}

impl Default for RecommendConfig {
    fn default() -> Self {
        RecommendConfig {
            estimator: NyquistConfig::default(),
            headroom: 1.25,
            min_change_factor: 2.0,
        }
    }
}

impl RecommendConfig {
    /// Checks the knobs the CLI sets, which [`recommend`] would otherwise
    /// panic on or turn into nonsense: the energy cutoff must lie in
    /// (0, 1] and the headroom must be finite and at least 1. The messages
    /// name the flags.
    pub fn validate(&self) -> Result<(), String> {
        let cutoff = self.estimator.energy_cutoff;
        if !(cutoff > 0.0 && cutoff <= 1.0) {
            return Err(format!("--cutoff wants an energy fraction in (0, 1], got {cutoff}"));
        }
        if !(self.headroom.is_finite() && self.headroom >= 1.0) {
            return Err(format!(
                "--headroom wants a finite factor of at least 1, got {}",
                self.headroom
            ));
        }
        Ok(())
    }
}

/// The decision for one trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Action {
    /// Current rate is about right (within the change threshold).
    Keep,
    /// Reduce to the recommended rate; the ratio is the sampling-cost
    /// saving factor.
    Reduce {
        /// Rate to move to.
        to: Hertz,
        /// `current / to` — how many times fewer samples.
        saving_factor: f64,
    },
    /// Increase to the recommended rate: the trace is under-sampled but the
    /// estimator could still place a (folded) band edge, so the recommended
    /// rate is a *lower bound* — re-run after the change.
    Increase {
        /// Rate to move to (at least).
        to: Hertz,
    },
    /// The trace looks aliased (or too noisy to assess): run the §4.1
    /// dual-rate probe / §4.2 controller instead of trusting a number.
    Inspect,
}

/// A full recommendation record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Recommendation {
    /// The rate the trace is currently sampled at.
    pub current_rate: Hertz,
    /// The §3.2 estimate that drove the decision (None = aliased).
    pub estimated_nyquist: Option<Hertz>,
    /// The decision.
    pub action: Action,
}

impl Recommendation {
    /// Samples saved per day if the recommendation is followed
    /// (0 for [`Action::Keep`] and [`Action::Inspect`]; negative for
    /// [`Action::Increase`] — it costs samples).
    pub fn samples_saved_per_day(&self) -> f64 {
        match self.action {
            Action::Reduce { to, .. } => (self.current_rate.value() - to.value()) * 86_400.0,
            Action::Increase { to } => (self.current_rate.value() - to.value()) * 86_400.0,
            _ => 0.0,
        }
    }
}

/// Produces a recommendation for a measured (pre-cleaned) trace.
///
/// # Panics
/// Panics on configs with `headroom < 1` or `min_change_factor < 1`, and on
/// traces the estimator rejects (fewer than 4 samples).
pub fn recommend(series: &RegularSeries, cfg: RecommendConfig) -> Recommendation {
    assert!(cfg.headroom >= 1.0, "headroom must be ≥ 1");
    assert!(cfg.min_change_factor >= 1.0, "min_change_factor must be ≥ 1");
    let current = series.sample_rate();
    let estimator = NyquistEstimator::new(cfg.estimator);
    match estimator.estimate_series(series) {
        NyquistEstimate::Aliased => Recommendation {
            current_rate: current,
            estimated_nyquist: None,
            action: Action::Inspect,
        },
        NyquistEstimate::Rate(nyq) => {
            let target = Hertz(nyq.value() * cfg.headroom);
            let action = if target.value() > current.value() {
                // Under-sampled: the estimate is folded, so the true need is
                // at least this much.
                Action::Increase { to: target }
            } else if current.value() / target.value() >= cfg.min_change_factor {
                Action::Reduce {
                    to: target,
                    saving_factor: current.value() / target.value(),
                }
            } else {
                Action::Keep
            };
            Recommendation {
                current_rate: current,
                estimated_nyquist: Some(nyq),
                action,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;
    use sweetspot_timeseries::Seconds;

    fn tone_series(n: usize, fs: f64, f: f64) -> RegularSeries {
        RegularSeries::new(
            Seconds::ZERO,
            Seconds(1.0 / fs),
            (0..n).map(|i| (2.0 * PI * f * i as f64 / fs).sin()).collect(),
        )
    }

    #[test]
    fn oversampled_trace_gets_reduce() {
        // 0.001 Hz tone sampled at 1 Hz: ~400x too fast.
        let s = tone_series(4000, 1.0, 0.001);
        let r = recommend(&s, RecommendConfig::default());
        match r.action {
            Action::Reduce { to, saving_factor } => {
                assert!(saving_factor > 100.0, "saving {saving_factor}");
                assert!(to.value() < 0.01);
                assert!(r.samples_saved_per_day() > 80_000.0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn well_matched_trace_gets_keep() {
        // Tone at 0.3 Hz sampled at 1 Hz: Nyquist rate 0.6, ×1.25 headroom
        // = 0.75 — less than 2× below current ⇒ keep.
        let s = tone_series(2000, 1.0, 0.3);
        let r = recommend(&s, RecommendConfig::default());
        assert_eq!(r.action, Action::Keep);
        assert_eq!(r.samples_saved_per_day(), 0.0);
    }

    #[test]
    fn noisy_trace_gets_inspect() {
        let mut state = 1u64;
        let values: Vec<f64> = (0..2048)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
            })
            .collect();
        let s = RegularSeries::new(Seconds::ZERO, Seconds(1.0), values);
        let r = recommend(&s, RecommendConfig::default());
        assert_eq!(r.action, Action::Inspect);
        assert!(r.estimated_nyquist.is_none());
    }

    #[test]
    fn borderline_saving_respects_change_threshold() {
        // Nyquist target ≈ current/1.3: below the 2x threshold ⇒ keep;
        // with threshold 1.2 ⇒ reduce.
        let s = tone_series(2000, 1.0, 0.3);
        let keep = recommend(&s, RecommendConfig::default());
        assert_eq!(keep.action, Action::Keep);
        let eager = recommend(
            &s,
            RecommendConfig {
                min_change_factor: 1.2,
                ..RecommendConfig::default()
            },
        );
        assert!(matches!(eager.action, Action::Reduce { .. }));
    }

    #[test]
    fn headroom_scales_the_target() {
        let s = tone_series(4000, 1.0, 0.001);
        let tight = recommend(&s, RecommendConfig::default());
        let wide = recommend(
            &s,
            RecommendConfig {
                headroom: 3.0,
                ..RecommendConfig::default()
            },
        );
        let (t, w) = match (tight.action, wide.action) {
            (Action::Reduce { to: t, .. }, Action::Reduce { to: w, .. }) => (t, w),
            other => panic!("{other:?}"),
        };
        assert!((w.value() / t.value() - 3.0 / 1.25).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "headroom")]
    fn sub_unity_headroom_panics() {
        let s = tone_series(100, 1.0, 0.1);
        recommend(
            &s,
            RecommendConfig {
                headroom: 0.5,
                ..RecommendConfig::default()
            },
        );
    }

    #[test]
    fn validate_rejects_out_of_range_cutoff_and_headroom() {
        assert_eq!(RecommendConfig::default().validate(), Ok(()));
        let with = |cutoff: f64, headroom: f64| RecommendConfig {
            estimator: NyquistConfig {
                energy_cutoff: cutoff,
                ..NyquistConfig::default()
            },
            headroom,
            ..RecommendConfig::default()
        };
        assert_eq!(with(1.0, 1.0).validate(), Ok(()));
        for cutoff in [0.0, -0.5, 1.5, f64::INFINITY, f64::NAN] {
            let err = with(cutoff, 1.25).validate().unwrap_err();
            assert!(err.contains("--cutoff"), "{cutoff}: {err}");
        }
        for headroom in [0.0, -1.0, 0.99, f64::INFINITY, f64::NAN] {
            let err = with(0.99, headroom).validate().unwrap_err();
            assert!(err.contains("--headroom"), "{headroom}: {err}");
        }
    }
}
