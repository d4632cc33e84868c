//! **Headline statistics** (§3.2 text) — "In total, we studied 1613 metric
//! and device pairs (14 distinct metrics). Of these, 89% were sampling at
//! higher than their Nyquist rate. … in 20% of the examples the sampling
//! rate can be reduced by a factor of 1000×. … the existing sampling rate is
//! below the Nyquist rate … in about 11% of the metric-device pairs. …
//! for the temperature signal, the Nyquist rate ranges from 7.99×10⁻⁷ Hz to
//! 0.003 Hz across the monitored devices."

use crate::study::{FleetStudy, StudyConfig};
use sweetspot_core::reduction::ReductionSummary;
use sweetspot_telemetry::MetricKind;

/// The §3.2 headline numbers, paper vs measured.
#[derive(Debug, Clone)]
pub struct Headline {
    /// Fleet-wide reduction summary.
    pub summary: ReductionSummary,
    /// Temperature Nyquist-rate range `(min, max)` in Hz.
    pub temperature_range: Option<(f64, f64)>,
}

/// Runs the headline experiment.
pub fn run(cfg: StudyConfig) -> Headline {
    from_study(&FleetStudy::run(cfg))
}

/// Computes headline numbers from an existing study.
pub fn from_study(study: &FleetStudy) -> Headline {
    let temperature_range = study
        .nyquist_five_number(MetricKind::Temperature)
        .map(|f| (f.min, f.max));
    Headline {
        summary: study.summary(),
        temperature_range,
    }
}

impl Headline {
    /// Text rendering with the paper's numbers alongside.
    pub fn render(&self) -> String {
        let s = &self.summary;
        let mut out = String::from("Headline statistics (paper §3.2 vs measured)\n");
        out.push_str(&format!(
            "  metric-device pairs      : {:>6}        (paper: 1613)\n",
            s.pairs
        ));
        out.push_str(&format!(
            "  over-sampled today       : {:>5.1}%        (paper: 89%)\n",
            s.oversampled_fraction * 100.0
        ));
        out.push_str(&format!(
            "  under-sampled today      : {:>5.1}%        (paper: 11%)\n",
            s.undersampled_fraction * 100.0
        ));
        out.push_str(&format!(
            "  reducible ≥10×           : {:>5.1}%\n",
            s.reducible_10x * 100.0
        ));
        out.push_str(&format!(
            "  reducible ≥100×          : {:>5.1}%\n",
            s.reducible_100x * 100.0
        ));
        out.push_str(&format!(
            "  reducible ≥1000×         : {:>5.1}%        (paper: ~20%)\n",
            s.reducible_1000x * 100.0
        ));
        if let Some((lo, hi)) = self.temperature_range {
            out.push_str(&format!(
                "  temperature Nyquist range: {lo:.2e} .. {hi:.2e} Hz (paper: 7.99e-7 .. 3e-3)\n"
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sweetspot_telemetry::FleetConfig;
    use sweetspot_timeseries::Seconds;

    #[test]
    fn headline_shape_tracks_paper() {
        let h = run(StudyConfig {
            fleet: FleetConfig {
                seed: 4,
                devices_per_metric: 12,
                trace_duration: Seconds::from_days(1.0),
            },
            ..StudyConfig::default()
        });
        let s = &h.summary;
        assert_eq!(s.pairs, 14 * 12);
        // Shape targets (the §3.2 text in the module docs): most pairs
        // over-sampled, a visible minority under-sampled, a sizeable tail
        // of ≥1000× reductions.
        assert!(
            (0.7..=0.97).contains(&s.oversampled_fraction),
            "oversampled {}",
            s.oversampled_fraction
        );
        assert!(
            s.undersampled_fraction > 0.03,
            "undersampled {}",
            s.undersampled_fraction
        );
        assert!(
            s.reducible_1000x > 0.02,
            "1000x tail {}",
            s.reducible_1000x
        );
        assert!(s.reducible_10x >= s.reducible_100x);
        assert!(s.reducible_100x >= s.reducible_1000x);
        let (lo, hi) = h.temperature_range.expect("temperature estimated");
        assert!(lo < hi);
        assert!(h.render().contains("paper: 1613"));
    }
}
