//! **Figure 7** — "The inferred Nyquist rates over time for the signal
//! depicted in Figure 6. The timestamps mark the beginning of the moving
//! window. We use a step of 5 minutes for the moving window and a window
//! size of 6 hours."

use crate::experiments::fig6::evented_device;
use sweetspot_core::tracker::{summarize, track, TrackSummary, TrackedPoint, TrackerConfig};
use sweetspot_timeseries::{Hertz, Seconds};

/// Figure 7 data.
#[derive(Debug, Clone)]
pub struct Fig7 {
    /// Device identity used (same selection rule as Figure 6).
    pub device: String,
    /// The tracked series: one point per window start.
    pub points: Vec<TrackedPoint>,
    /// Aggregate over the run.
    pub summary: TrackSummary,
    /// The device's true Nyquist rate (known from the generator).
    pub true_rate: Hertz,
}

/// Runs the Figure 7 experiment over `days` of 5-minute temperature data
/// (the same evented device as Figure 6 — "the signal depicted in Figure 6").
pub fn run(seed: u64, days: f64) -> Fig7 {
    let dev = evented_device(seed);
    let rate = Hertz(1.0 / 300.0);
    let series = dev.ground_truth(rate, Seconds::from_days(days));
    let points = track(&series, TrackerConfig::paper_fig7());
    Fig7 {
        device: dev.meta().to_string(),
        summary: summarize(&points),
        points,
        true_rate: dev.true_nyquist_rate(),
    }
}

impl Fig7 {
    /// Text rendering: a sparkline of inferred rate over time.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Figure 7: inferred Nyquist rate over time ({}; 6h window, 5min step)\n",
            self.device
        );
        let rates: Vec<f64> = self
            .points
            .iter()
            .map(|p| p.estimate.rate().map_or(f64::NAN, |r| r.value()))
            .collect();
        let max = rates
            .iter()
            .copied()
            .filter(|r| r.is_finite())
            .fold(0.0, f64::max);
        // Downsample the timeline to ~72 columns for display.
        let cols = 72.min(rates.len());
        let glyphs = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let mut line = String::from("  ");
        for c in 0..cols {
            let idx = c * rates.len() / cols;
            let r = rates[idx];
            let g = if r.is_nan() || max <= 0.0 {
                '?'
            } else {
                glyphs[((r / max) * 8.0).round().clamp(0.0, 8.0) as usize]
            };
            line.push(g);
        }
        out.push_str(&line);
        out.push('\n');
        out.push_str(&format!(
            "  windows={}  min={}  mean={}  max={}  aliased={}  (true rate {})\n",
            self.summary.total_windows,
            fmt_rate(self.summary.min_rate),
            fmt_rate(self.summary.mean_rate),
            fmt_rate(self.summary.max_rate),
            self.summary.aliased_windows,
            self.true_rate,
        ));
        out
    }
}

fn fmt_rate(r: Option<Hertz>) -> String {
    r.map_or("n/a".into(), |r| r.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_tracks_the_paper_geometry() {
        let fig = run(0xF17, 3.0);
        // 3 days at 5-min steps with 6-h windows: (3·288 − 72 + 1) windows.
        assert_eq!(fig.points.len(), 3 * 288 - 72 + 1);
        // Window starts step by 5 minutes.
        let d = fig.points[1].window_start.value() - fig.points[0].window_start.value();
        assert!((d - 300.0).abs() < 1e-9);
        // Inferred rates stay near/below the highest content present: the
        // stationary band edge or, during the flap episode, the flap's third
        // harmonic. The 6-hour window resolves only 72 samples, so the
        // estimate carries a slack of a few window-resolution bins (Hann
        // main lobe) on top.
        use crate::experiments::fig6::FLAP_FREQ;
        let resolution = (1.0 / 300.0) / 72.0;
        let content_rate = fig.true_rate.value().max(2.0 * 3.0 * FLAP_FREQ);
        let max = fig.summary.max_rate.expect("some window estimates");
        assert!(
            max.value() <= content_rate + 12.0 * resolution,
            "max {} vs content {} (+slack)",
            max,
            content_rate
        );
        assert!(
            max.value() >= fig.true_rate.value() * 0.05,
            "max {} vs true {}",
            max,
            fig.true_rate
        );
        assert!(fig.render().contains("Figure 7"));
    }

    #[test]
    fn rate_varies_across_windows() {
        // §3.2: "We also notice different Nyquist rate at different time
        // periods on the same device."
        let fig = run(0xF17, 3.0);
        let (min, max) = (
            fig.summary.min_rate.unwrap().value(),
            fig.summary.max_rate.unwrap().value(),
        );
        assert!(max > min, "tracker should show time variation");
    }
}
