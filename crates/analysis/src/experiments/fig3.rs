//! **Figure 3** — the paper's worked aliasing example: a superposition of
//! sine waves at **400 and 440 Hz**, sampled at **890 Hz** (above the
//! Nyquist rate), **800 Hz** (slightly below) and **600 Hz** (far below);
//! top row shows the sampled spectra, bottom row the reconstructions.
//!
//! This driver reproduces all eight panels numerically: for each variant it
//! reports the two strongest spectral peaks (where aliasing is visible) and
//! the time-domain reconstruction error against the original signal (where
//! distortion is visible).

use std::f64::consts::PI;
use sweetspot_dsp::fft::FftPlanner;
use sweetspot_dsp::interp::Interp;
use sweetspot_dsp::psd::{periodogram, PsdConfig};
use sweetspot_dsp::stats;
use sweetspot_dsp::window::Window;

/// The paper's tone pair.
pub const TONES: [f64; 2] = [400.0, 440.0];
/// The paper's sampling-rate variants (panel b, c, d).
pub const VARIANT_RATES: [f64; 3] = [890.0, 800.0, 600.0];
/// The "original" high-rate signal (panels a/e) — representing continuous
/// time.
pub const BASE_RATE: f64 = 2000.0;

/// One sampled variant (one column of Figure 3).
#[derive(Debug, Clone)]
pub struct Fig3Variant {
    /// Sampling rate of this variant.
    pub sample_rate: f64,
    /// The two strongest spectral peaks `(hz, power)`, strongest first.
    pub peaks: Vec<(f64, f64)>,
    /// NRMSE of the sinc reconstruction against the original signal
    /// (interior 80%).
    pub reconstruction_nrmse: f64,
    /// Is this variant sampled below the signal's Nyquist rate (880 Hz)?
    pub below_nyquist: bool,
}

/// Figure 3 data.
#[derive(Debug, Clone)]
pub struct Fig3 {
    /// The original signal's two strongest peaks.
    pub original_peaks: Vec<(f64, f64)>,
    /// One entry per sampled variant.
    pub variants: Vec<Fig3Variant>,
}

fn signal(t: f64) -> f64 {
    TONES.iter().map(|&f| (2.0 * PI * f * t).sin()).sum()
}

/// Runs the Figure 3 experiment over `duration` seconds of signal.
pub fn run(duration: f64) -> Fig3 {
    let mut planner = FftPlanner::new();
    let psd_cfg = PsdConfig {
        window: Window::Hann,
        detrend: false,
    };

    let n_base = (BASE_RATE * duration).round() as usize;
    let original: Vec<f64> = (0..n_base).map(|i| signal(i as f64 / BASE_RATE)).collect();
    let original_spec = periodogram(&mut planner, &original, BASE_RATE, psd_cfg);

    let variants = VARIANT_RATES
        .iter()
        .map(|&fs| {
            let n = (fs * duration).round() as usize;
            let sampled: Vec<f64> = (0..n).map(|i| signal(i as f64 / fs)).collect();
            let spec = periodogram(&mut planner, &sampled, fs, psd_cfg);
            // Reconstruct ("upsampled", panels f–h) on the base grid and
            // compare with the original over the interior.
            let interp = Interp::Sinc {
                half_width: Some(96),
            };
            let margin = n_base / 10;
            let mut orig_int = Vec::with_capacity(n_base - 2 * margin);
            let mut recon_int = Vec::with_capacity(n_base - 2 * margin);
            for (k, &orig) in original
                .iter()
                .enumerate()
                .take(n_base - margin)
                .skip(margin)
            {
                let t = k as f64 / BASE_RATE;
                orig_int.push(orig);
                recon_int.push(interp.at(&sampled, fs, t));
            }
            Fig3Variant {
                sample_rate: fs,
                peaks: spec.peak_frequencies(2, 15.0),
                reconstruction_nrmse: stats::nrmse(&orig_int, &recon_int),
                below_nyquist: fs < 2.0 * TONES[1],
            }
        })
        .collect();

    Fig3 {
        original_peaks: original_spec.peak_frequencies(2, 15.0),
        variants,
    }
}

impl Fig3 {
    /// Text rendering of all eight panels' content.
    pub fn render(&self) -> String {
        let mut out = String::from("Figure 3: 400+440 Hz two-tone, sampled at 890/800/600 Hz\n");
        out.push_str(&format!(
            "  original peaks: {:.1} Hz, {:.1} Hz\n",
            self.original_peaks[0].0, self.original_peaks[1].0
        ));
        let rows: Vec<Vec<String>> = self
            .variants
            .iter()
            .map(|v| {
                vec![
                    format!("{:.0}", v.sample_rate),
                    format!("{:.1}", v.peaks[0].0),
                    format!("{:.1}", v.peaks[1].0),
                    format!("{:.4}", v.reconstruction_nrmse),
                    if v.below_nyquist { "yes" } else { "no" }.into(),
                ]
            })
            .collect();
        out.push_str(&crate::report::table(
            &[
                "fs (Hz)",
                "peak1 (Hz)",
                "peak2 (Hz)",
                "recon NRMSE",
                "below Nyquist?",
            ],
            &rows,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close_to_either(peak: f64, targets: &[f64], tol: f64) -> bool {
        targets.iter().any(|t| (peak - t).abs() <= tol)
    }

    #[test]
    fn panel_shapes_match_the_paper() {
        let fig = run(2.0);
        let tol = 2.0; // Hz; generous vs the 0.5 Hz resolution

        // Panel (a): original shows 400 and 440.
        assert!(close_to_either(fig.original_peaks[0].0, &TONES, tol));
        assert!(close_to_either(fig.original_peaks[1].0, &TONES, tol));

        // Panel (b): 890 Hz — above Nyquist, peaks in place, clean recon.
        let v890 = &fig.variants[0];
        assert!(!v890.below_nyquist);
        assert!(close_to_either(v890.peaks[0].0, &TONES, tol));
        assert!(close_to_either(v890.peaks[1].0, &TONES, tol));
        assert!(
            v890.reconstruction_nrmse < 0.05,
            "890 Hz NRMSE {}",
            v890.reconstruction_nrmse
        );

        // Panel (c): 800 Hz — 440 folds to 360. (The 400 Hz tone sits exactly
        // at the folding frequency and samples to ~zero at this phase, so
        // only the folded 360 Hz peak is constrained.)
        let v800 = &fig.variants[1];
        assert!(v800.below_nyquist);
        assert!(close_to_either(v800.peaks[0].0, &[360.0], tol));
        assert!(
            v800.reconstruction_nrmse > 5.0 * v890.reconstruction_nrmse,
            "800 Hz must be visibly distorted: {} vs {}",
            v800.reconstruction_nrmse,
            v890.reconstruction_nrmse
        );

        // Panel (d): 600 Hz — folds to 200 and 160; badly distorted.
        let v600 = &fig.variants[2];
        let folded_600 = [200.0, 160.0];
        assert!(close_to_either(v600.peaks[0].0, &folded_600, tol));
        assert!(close_to_either(v600.peaks[1].0, &folded_600, tol));
        assert!(v600.reconstruction_nrmse > v890.reconstruction_nrmse * 5.0);
    }

    #[test]
    fn render_contains_all_rates() {
        let fig = run(1.0);
        let s = fig.render();
        for rate in ["890", "800", "600"] {
            assert!(s.contains(rate), "missing {rate} in render");
        }
    }
}
