//! **Figure 1** — "The fraction of devices (collection points) at which our
//! production data center currently measures various metrics above the
//! Nyquist rate; each bar coalesces information from O(10³) devices."

use crate::report::bar_chart;
use crate::study::FleetStudy;
use sweetspot_telemetry::MetricKind;

/// Figure 1 data: per-metric fraction of devices sampling above Nyquist.
#[derive(Debug, Clone)]
pub struct Fig1 {
    /// `(metric, fraction_above_nyquist)` rows in [`MetricKind::ALL`] order.
    pub rows: Vec<(MetricKind, f64)>,
    /// Total metric-device pairs analyzed. (Per-metric counts can differ —
    /// the paper-scale population gives three metrics one extra device — so
    /// the caption reports the exact total rather than a per-metric count.)
    pub pairs_total: usize,
}

/// Builds Figure 1 from a study (shared with Figures 4 and 5).
pub fn from_study(study: &FleetStudy) -> Fig1 {
    Fig1 {
        rows: study.oversampled_fraction_per_metric(),
        pairs_total: study.pairs.len(),
    }
}

impl Fig1 {
    /// Text rendering of the bar chart.
    pub fn render(&self) -> String {
        let rows: Vec<(String, f64)> = self
            .rows
            .iter()
            .map(|(k, f)| (k.name().to_string(), *f))
            .collect();
        bar_chart(
            &format!(
                "Figure 1: fraction of devices sampling above the Nyquist rate \
                 ({} metric-device pairs)",
                self.pairs_total
            ),
            &rows,
            40,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::StudyConfig;
    use sweetspot_telemetry::FleetConfig;
    use sweetspot_timeseries::Seconds;

    #[test]
    fn fig1_shape_matches_paper() {
        let fig = from_study(&FleetStudy::run(StudyConfig {
            fleet: FleetConfig {
                seed: 1,
                devices_per_metric: 5,
                trace_duration: Seconds::from_days(1.0),
            },
            ..StudyConfig::default()
        }));
        assert_eq!(fig.rows.len(), 14);
        // The paper's headline: the vast majority of collection points are
        // above the Nyquist rate for most metrics.
        let mean = fig.rows.iter().map(|(_, f)| f).sum::<f64>() / fig.rows.len() as f64;
        assert!(mean > 0.6, "mean {mean}");
        let rendered = fig.render();
        assert!(rendered.contains("Figure 1"));
        assert!(rendered.contains("Temperature"));
    }
}
