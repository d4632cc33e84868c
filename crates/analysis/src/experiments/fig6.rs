//! **Figure 6** — "Comparing an actual temperature signal in blue (sampled
//! every 5 minutes) with the signal in red that was downsampled to the
//! nyquist rate and then upsampled back again just for the purpose of
//! comparison. The L2 distance between these signals is 0."
//!
//! Pipeline: a temperature device polled every 5 minutes for a week; the
//! moving-window tracker (Figure 7's machinery) infers the Nyquist rate; the
//! trace is decimated to the inferred rate and reconstructed. The driver
//! reports the L2 distance for the unquantized path (the paper's
//! information-theoretic claim — exactly recoverable, L2 ≈ 0) and the
//! quantized path with §4.3 re-quantization (near-exact: residuals are lone
//! quantization-boundary flips).

use sweetspot_core::reconstruct::{roundtrip, ReconstructionConfig, ReconstructionReport};
use sweetspot_core::tracker::{track, TrackerConfig};
use sweetspot_dsp::fft::FftPlanner;
use sweetspot_telemetry::{DeviceTrace, MetricKind, MetricProfile};
use sweetspot_timeseries::{Hertz, RegularSeries, Seconds};

/// Figure 6 data.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// Device identity used.
    pub device: String,
    /// The inferred Nyquist rate used for downsampling (max over windows,
    /// with the §4.2 headroom).
    pub inferred_rate: Hertz,
    /// Decimation factor achieved (5-min polls → this much sparser).
    pub factor: usize,
    /// Roundtrip report on the *unquantized* signal (information-theoretic
    /// claim).
    pub ideal: ReconstructionReport,
    /// Roundtrip report on the quantized signal with re-quantization (§4.3).
    pub quantized: ReconstructionReport,
    /// Fraction of quantized samples recovered exactly.
    pub exact_fraction: f64,
}

/// Picks a temperature device that is well-sampled at production rate,
/// has a band edge the 6-hour tracker window can resolve, leaves room for a
/// real decimation factor below the 5-minute polling rate, and moves far
/// enough above its 1-unit quantization step that the quantization-noise
/// floor stays under the estimator's 1% energy budget (§4.3).
pub fn pick_device(seed: u64) -> DeviceTrace {
    let profile = MetricProfile::for_kind(MetricKind::Temperature);
    for idx in 0..200 {
        let dev = DeviceTrace::synthesize(profile, idx, seed);
        let edge = dev.true_band_edge().value();
        if !dev.is_undersampled_at_production_rate()
            && (5e-5..2.5e-4).contains(&edge)
            && dev.model().total_amplitude() >= 15.0
        {
            return dev;
        }
    }
    panic!("no suitable temperature device in 200 draws");
}

/// Flap oscillation frequency of the Figure 6/7 episode (Hz).
pub const FLAP_FREQ: f64 = 1.4e-4;
/// Flap onset (seconds from trace start).
pub const FLAP_START: f64 = 1.5 * 86_400.0;
/// Flap duration (seconds).
pub const FLAP_DURATION: f64 = 0.75 * 86_400.0;

/// The Figure 6/7 device: [`pick_device`] plus a mid-run link-flap episode
/// (1.5 days in, 18 hours long) that temporarily raises the signal's local
/// Nyquist rate — the non-stationarity Figure 7 visualizes and §4.2 adapts
/// to. The flap tone (softened square ⇒ content up to `3·FLAP_FREQ =
/// 4.2×10⁻⁴ Hz`) stays below the production folding frequency, so the
/// 5-minute trace still captures it.
pub fn evented_device(seed: u64) -> DeviceTrace {
    use sweetspot_telemetry::events::{Event, EventKind};
    let dev = pick_device(seed);
    // Modest magnitude: windows that only partially overlap the flap see a
    // gated oscillation whose spectral skirts spread ∝ magnitude²; keeping
    // the flap at 20% of the signal amplitude keeps those skirts inside the
    // estimator's 1% energy budget within a bin or two.
    let magnitude = dev.model().total_amplitude() * 0.2;
    dev.clone().with_events(vec![Event::new(
        EventKind::LinkFlap {
            flap_freq: FLAP_FREQ,
        },
        FLAP_START,
        FLAP_DURATION,
        magnitude,
    )])
}

/// Runs the Figure 6 experiment over `days` of signal.
pub fn run(seed: u64, days: f64) -> Fig6 {
    let dev = evented_device(seed);
    let rate = Hertz(1.0 / 300.0); // the paper's 5-minute polling
    let duration = Seconds::from_days(days);
    let mut planner = FftPlanner::new();

    // Unquantized ground truth (the "actual signal" before sensor readout).
    let ideal_series = dev.ground_truth(rate, duration);
    // Quantized readout (what the sensor reports, at the profile's LSB).
    let quant = sweetspot_dsp::quantize::Quantizer::new(dev.profile().quant_step);
    let quant_values: Vec<f64> = ideal_series
        .values()
        .iter()
        .map(|v| quant.quantize(*v))
        .collect();
    let quant_series =
        RegularSeries::new(ideal_series.start(), ideal_series.interval(), quant_values);

    // Infer the Nyquist rate with the §4.2/Figure 7 machinery on the
    // *quantized* trace. The robust statistic is the 95th percentile of the
    // window estimates, not the maximum: with ~2000 windows, the max rides
    // on the single worst quantization-noise excursion, while p95 still
    // covers any episode occupying ≥5% of the run (the 18-hour flap covers
    // ~11% of a week). Headroom ×1.25 on top, as in the controller.
    //
    // The window is 12 hours, not Figure 7's 6: it must (a) fit entirely
    // inside the 18-hour flap so some windows see the episode undiluted and
    // its harmonics clear the 1% energy budget, and (b) hold enough samples
    // (144 at 5-minute polls) that quantization noise spread across the bins
    // stays under that budget — 72-sample windows are noise-limited and
    // inflate the high percentiles toward the folding frequency.
    let tracked = track(
        &quant_series,
        TrackerConfig {
            window: Seconds::from_hours(12.0),
            ..TrackerConfig::paper_fig7()
        },
    );
    let rates: Vec<f64> = tracked
        .iter()
        .filter_map(|p| p.estimate.rate().map(|r| r.value()))
        .collect();
    let inferred = if rates.is_empty() {
        dev.true_nyquist_rate()
    } else {
        Hertz(sweetspot_dsp::stats::percentile(&rates, 95.0))
    };
    let target = Hertz(inferred.value() * 1.25);

    let (_, ideal) = roundtrip(
        &mut planner,
        &ideal_series,
        target,
        ReconstructionConfig::default(),
    );
    let (recon_q, quantized) = roundtrip(
        &mut planner,
        &quant_series,
        target,
        ReconstructionConfig {
            requantize: Some(dev.profile().quant_step),
        },
    );
    let n = recon_q.len();
    let exact = quant_series.values()[..n]
        .iter()
        .zip(recon_q.values())
        .filter(|(a, b)| (*a - *b).abs() < 1e-9)
        .count();

    Fig6 {
        device: dev.meta().to_string(),
        inferred_rate: inferred,
        factor: ideal.factor,
        ideal,
        quantized,
        exact_fraction: exact as f64 / n as f64,
    }
}

impl Fig6 {
    /// Text rendering.
    pub fn render(&self) -> String {
        format!(
            "Figure 6: temperature downsample-to-Nyquist → reconstruct ({})\n\
               inferred Nyquist rate : {}\n\
               decimation factor     : {}x fewer samples than 5-min polling\n\
               unquantized L2        : {:.3e}  (interior NRMSE {:.3e})  [paper: 0]\n\
               quantized+requant L2  : {:.3e}  (exact samples: {:.1}%)\n",
            self.device,
            self.inferred_rate,
            self.factor,
            self.ideal.l2,
            self.ideal.interior_nrmse,
            self.quantized.l2,
            self.exact_fraction * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_reproduces_the_l2_zero_shape() {
        let fig = run(0xF16, 7.0);
        // Real reduction achieved.
        assert!(fig.factor >= 2, "factor {}", fig.factor);
        // Unquantized: (near-)perfect recovery — the paper's L2 = 0.
        assert!(
            fig.ideal.interior_nrmse < 0.02,
            "ideal interior NRMSE {}",
            fig.ideal.interior_nrmse
        );
        // Quantized with §4.3 re-quantization: the large majority of samples
        // recovered exactly. Residuals away from transitions are lone
        // quantization-boundary flips; the worst pointwise error sits at the
        // flap's gating edges (and the record boundary), where the step-like
        // transition concentrates content above the stored rate — a low-pass
        // reconstruction can overshoot a couple of extra 0.5-unit quanta
        // right there.
        assert!(
            fig.exact_fraction > 0.8,
            "exact fraction {}",
            fig.exact_fraction
        );
        assert!(
            fig.quantized.max_abs <= 1.5 + 1e-9,
            "max {}",
            fig.quantized.max_abs
        );
        assert!(fig.render().contains("Figure 6"));
    }
}
