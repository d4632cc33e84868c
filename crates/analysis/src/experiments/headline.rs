//! **Headline statistics** (§3.2 text): the study's fleet-wide numbers
//! beside the paper's, which [`super::claims`] holds with their quotes.

use super::claims::{
    PAPER_OVERSAMPLED_PCT, PAPER_PAIRS, PAPER_REDUCIBLE_1000X_PCT, PAPER_TEMPERATURE_RANGE,
    PAPER_UNDERSAMPLED_PCT,
};
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
            "  metric-device pairs      : {:>6}        (paper: {PAPER_PAIRS})\n",
            s.pairs
        ));
        out.push_str(&format!(
            "  over-sampled today       : {:>5.1}%        (paper: {PAPER_OVERSAMPLED_PCT}%)\n",
            s.oversampled_fraction * 100.0
        ));
        out.push_str(&format!(
            "  under-sampled today      : {:>5.1}%        (paper: {PAPER_UNDERSAMPLED_PCT}%)\n",
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
            "  reducible ≥1000×         : {:>5.1}%        (paper: ~{PAPER_REDUCIBLE_1000X_PCT}%)\n",
            s.reducible_1000x * 100.0
        ));
        if let Some((lo, hi)) = self.temperature_range {
            let (paper_lo, paper_hi) = PAPER_TEMPERATURE_RANGE;
            out.push_str(&format!(
                "  temperature Nyquist range: {lo:.2e} .. {hi:.2e} Hz \
                 (paper: {paper_lo:e} .. {paper_hi:e})\n"
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
        assert!(s.reducible_1000x > 0.02, "1000x tail {}", s.reducible_1000x);
        assert!(s.reducible_10x >= s.reducible_100x);
        assert!(s.reducible_100x >= s.reducible_1000x);
        let (lo, hi) = h.temperature_range.expect("temperature estimated");
        assert!(lo < hi);
        assert!(h.render().contains("paper: 1613"));
    }
}
