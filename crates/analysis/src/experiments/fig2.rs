//! **Figure 2** — the frequency-domain picture of sampling: *"Sampling a
//! signal at frequency f₁ and reconstructing it can be thought of, in the
//! frequency domain, as adding copies of the signal which are f₁ apart."*
//!
//! The experiment makes the spectral-copy picture concrete: a single tone at
//! `f0` sampled at `fs` shows its alias images at `|k·fs ± f0|`; when
//! `fs > 2·f0` the baseband image stays separate (recoverable), when
//! `fs < 2·f0` the first image folds into the baseband (aliasing).

use sweetspot_core::estimator::{NyquistConfig, NyquistEstimator};
use sweetspot_core::scratch::SpectrumScratch;
use sweetspot_dsp::psd::{periodogram, PsdConfig};
use sweetspot_timeseries::Hertz;

/// One sampled variant of the tone.
#[derive(Debug, Clone)]
pub struct SpectralCopyCase {
    /// Sampling rate used.
    pub sample_rate: f64,
    /// Where the strongest baseband spectral peak landed (Hz).
    pub measured_peak: f64,
    /// Where theory says it must land: `min(f0 mod fs, fs − f0 mod fs)`.
    pub predicted_peak: f64,
    /// Whether this variant is aliased (`fs < 2·f0`).
    pub aliased: bool,
    /// The §3.2 estimator's verdict on this variant.
    pub estimate_rate: Option<f64>,
}

/// Figure 2 data.
#[derive(Debug, Clone)]
pub struct Fig2 {
    /// The tone frequency.
    pub tone_hz: f64,
    /// One case per sampling rate.
    pub cases: Vec<SpectralCopyCase>,
}

/// Runs the spectral-copies experiment for `tone_hz` under each rate.
pub fn run(tone_hz: f64, sample_rates: &[f64], duration: f64) -> Fig2 {
    let estimator = NyquistEstimator::new(NyquistConfig::default());
    let mut scratch = SpectrumScratch::new();
    let cases = sample_rates
        .iter()
        .map(|&fs| {
            let n = (fs * duration).round() as usize;
            let samples: Vec<f64> = (0..n)
                .map(|i| (2.0 * std::f64::consts::PI * tone_hz * i as f64 / fs).sin())
                .collect();
            let spec = periodogram(scratch.planner_mut(), &samples, fs, PsdConfig::default());
            let measured_peak = spec.peak_bins(1)[0].0;
            let folded = tone_hz % fs;
            let predicted_peak = folded.min((fs - folded).abs());
            let estimate_rate = estimator
                .estimate_samples(&mut scratch, &samples, Hertz(fs))
                .rate()
                .map(|r| r.value());
            SpectralCopyCase {
                sample_rate: fs,
                measured_peak,
                predicted_peak,
                aliased: fs < 2.0 * tone_hz,
                estimate_rate,
            }
        })
        .collect();
    Fig2 { tone_hz, cases }
}

impl Fig2 {
    /// Text rendering.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Figure 2: spectral copies of a {} Hz tone under different sampling rates\n",
            self.tone_hz
        );
        let rows: Vec<Vec<String>> = self
            .cases
            .iter()
            .map(|c| {
                vec![
                    format!("{:.1}", c.sample_rate),
                    format!("{:.2}", c.predicted_peak),
                    format!("{:.2}", c.measured_peak),
                    if c.aliased { "yes".into() } else { "no".into() },
                    c.estimate_rate
                        .map_or("aliased".into(), |r| format!("{r:.2}")),
                ]
            })
            .collect();
        out.push_str(&crate::report::table(
            &[
                "fs (Hz)",
                "predicted peak",
                "measured peak",
                "aliased?",
                "est. Nyquist rate",
            ],
            &rows,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copies_land_where_theory_says() {
        // 100 Hz tone at fs ∈ {400 (clean), 150 (aliased → 50), 90 (→ 10)}.
        let fig = run(100.0, &[400.0, 150.0, 90.0], 4.0);
        for c in &fig.cases {
            let resolution = c.sample_rate / (c.sample_rate * 4.0); // 1/duration
            assert!(
                (c.measured_peak - c.predicted_peak).abs() <= resolution,
                "fs={}: measured {} vs predicted {}",
                c.sample_rate,
                c.measured_peak,
                c.predicted_peak
            );
        }
        assert!(!fig.cases[0].aliased);
        assert!(fig.cases[1].aliased && fig.cases[2].aliased);
        // Aliased folds: 150−100 = 50, 100−90 = 10.
        assert!((fig.cases[1].predicted_peak - 50.0).abs() < 1e-9);
        assert!((fig.cases[2].predicted_peak - 10.0).abs() < 1e-9);
    }

    #[test]
    fn render_mentions_every_rate() {
        let fig = run(100.0, &[400.0, 150.0], 2.0);
        let s = fig.render();
        assert!(s.contains("400.0"));
        assert!(s.contains("150.0"));
    }
}
