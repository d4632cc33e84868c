//! **Figure 4** — "CDFs of the ratio between the actual sampling rate and
//! the computed Nyquist rate. Note x axes is in log scale and x = 10
//! indicates 10× over-sampling. Each datapoint is one day's worth of data
//! from a distinct device. We do not show the cases where we cannot reliably
//! detect the Nyquist rate."
//!
//! The paper shows 12 metric panels; this driver produces all 14 (the two
//! extra are the drop metrics Figure 4 folds away for space).

use crate::report::cdf_ascii;
use crate::study::{FleetStudy, StudyConfig};
use sweetspot_dsp::stats::Cdf;
use sweetspot_telemetry::MetricKind;

/// One CDF panel.
#[derive(Debug, Clone)]
pub struct Fig4Panel {
    /// The metric.
    pub kind: MetricKind,
    /// Reduction-ratio CDF (over-sampled pairs only).
    pub cdf: Cdf,
}

/// Figure 4 data: one panel per metric.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// All panels, in [`MetricKind::ALL`] order.
    pub panels: Vec<Fig4Panel>,
}

/// Runs the Figure 4 experiment.
pub fn run(cfg: StudyConfig) -> Fig4 {
    from_study(&FleetStudy::run(cfg))
}

/// Builds Figure 4 panels from an existing study.
pub fn from_study(study: &FleetStudy) -> Fig4 {
    Fig4 {
        panels: MetricKind::ALL
            .iter()
            .map(|&kind| Fig4Panel {
                kind,
                cdf: study.reduction_cdf(kind),
            })
            .collect(),
    }
}

impl Fig4 {
    /// Text rendering: an ASCII CDF per panel plus key quantiles.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Figure 4: CDF of possible reduction ratio (actual rate / Nyquist rate)\n",
        );
        for p in &self.panels {
            if p.cdf.is_empty() {
                out.push_str(&format!("  [{}]: no over-sampled pairs\n", p.kind));
                continue;
            }
            out.push('\n');
            out.push_str(&cdf_ascii(&format!("  [{}]", p.kind), &p.cdf, 0..4));
            out.push_str(&format!(
                "   n={}  median={:.1}x  p90={:.1}x  max={:.1}x\n",
                p.cdf.len(),
                p.cdf.quantile(0.5),
                p.cdf.quantile(0.9),
                p.cdf.quantile(1.0),
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
    fn cdfs_show_multi_decade_oversampling() {
        let fig = run(StudyConfig {
            fleet: FleetConfig {
                seed: 2,
                devices_per_metric: 8,
                trace_duration: Seconds::from_days(1.0),
            },
            ..StudyConfig::default()
        });
        assert_eq!(fig.panels.len(), 14);
        // Pool all panels: ratios must span more than two decades overall
        // (the paper's panels run 10^0..10^3).
        let mut all: Vec<f64> = Vec::new();
        for p in &fig.panels {
            all.extend(p.cdf.sorted_values());
        }
        let pooled = Cdf::new(all);
        assert!(pooled.len() > 60);
        assert!(
            pooled.quantile(0.95) / pooled.quantile(0.05).max(1.0) > 100.0,
            "span {} .. {}",
            pooled.quantile(0.05),
            pooled.quantile(0.95)
        );
        let rendered = fig.render();
        assert!(rendered.contains("Link util"));
    }
}
