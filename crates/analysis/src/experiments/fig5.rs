//! **Figure 5** — "A box plot of the Nyquist rate of each monitoring
//! system." Per metric, the distribution of estimated Nyquist rates across
//! devices; the paper's y-axis runs 0 … 0.008 Hz, and temperature alone
//! spans 7.99×10⁻⁷ … 0.003 Hz.

use crate::report::boxplot_table;
use crate::study::{FleetStudy, StudyConfig};
use sweetspot_dsp::stats::FiveNumber;
use sweetspot_telemetry::MetricKind;

/// Figure 5 data: per-metric five-number summaries of Nyquist rates (Hz).
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// `(metric, summary)`; metrics with no non-aliased pairs are omitted.
    pub rows: Vec<(MetricKind, FiveNumber)>,
}

/// Runs the Figure 5 experiment.
pub fn run(cfg: StudyConfig) -> Fig5 {
    from_study(&FleetStudy::run(cfg))
}

/// Builds Figure 5 from an existing study.
pub fn from_study(study: &FleetStudy) -> Fig5 {
    Fig5 {
        rows: MetricKind::ALL
            .iter()
            .filter_map(|&kind| study.nyquist_five_number(kind).map(|f| (kind, f)))
            .collect(),
    }
}

impl Fig5 {
    /// Text rendering of the box-plot table.
    pub fn render(&self) -> String {
        let rows: Vec<(String, FiveNumber)> = self
            .rows
            .iter()
            .map(|(k, f)| (k.name().to_string(), *f))
            .collect();
        boxplot_table(
            "Figure 5: estimated Nyquist rate per monitoring system (Hz)",
            &rows,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sweetspot_telemetry::FleetConfig;
    use sweetspot_timeseries::Seconds;

    #[test]
    fn boxplot_shape_matches_paper() {
        let fig = run(StudyConfig {
            fleet: FleetConfig {
                seed: 3,
                devices_per_metric: 24,
                trace_duration: Seconds::from_days(1.0),
            },
            ..StudyConfig::default()
        });
        assert!(fig.rows.len() >= 12, "most metrics have non-aliased pairs");
        // All rates in the paper's plot range: below ~0.02 Hz (its axis
        // tops at 0.008; our FCS profile allows slightly higher edges).
        let global_max = fig.rows.iter().map(|(_, f)| f.max).fold(0.0, f64::max);
        assert!(global_max < 0.04, "global max {global_max}");
        // Temperature spans about a decade or more across devices (paper:
        // 7.99e-7 .. 3e-3; a one-day trace floors the low end at one FFT
        // bin ≈ 2.3e-5 Hz, compressing the visible spread).
        let (_, t) = fig
            .rows
            .iter()
            .find(|(k, _)| *k == MetricKind::Temperature)
            .expect("temperature");
        assert!(
            t.max / t.min.max(1e-9) > 8.0,
            "temperature spread {} .. {}",
            t.min,
            t.max
        );
        assert!(fig.render().contains("Temperature"));
    }
}
