//! Per-metric spectral and operational profiles.
//!
//! Each [`MetricProfile`] pins down (a) how operators poll the metric today —
//! the "ad-hoc" production rate the paper critiques — and (b) the band of
//! true spectral edges devices of this metric draw from. The numbers are
//! chosen so the synthetic fleet reproduces the *shapes* of the paper's
//! Figures 1/4/5: Nyquist rates spread over several decades within each
//! metric, most pairs over-sampled (89% in the paper), a minority aliased
//! (11%), and ~20% of pairs reducible by ≥1000×.

use crate::metric::MetricKind;
use serde::{Deserialize, Serialize};
use sweetspot_timeseries::{Hertz, Seconds};

/// Operational + spectral profile of one metric kind.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MetricProfile {
    /// Which metric this profile describes.
    pub kind: MetricKind,
    /// Production polling interval (operator-chosen, ad hoc).
    pub poll_interval: Seconds,
    /// Lowest true band edge a device of this metric may have (Hz).
    pub edge_lo: Hertz,
    /// Highest *well-sampled* band edge (Hz); kept below half the production
    /// rate so non-aliased devices are genuinely recoverable.
    pub edge_hi: Hertz,
    /// Fraction of devices whose band edge exceeds the production folding
    /// frequency — i.e. devices that are *under-sampled today* (paper: ~11%
    /// overall).
    pub undersampled_fraction: f64,
    /// Quantization step of the measurement readout (§4.3).
    pub quant_step: f64,
    /// Typical value range `(lo, hi)` across the fleet.
    pub base_range: (f64, f64),
    /// Relative weight of the diurnal (24 h) component in the signal's AC
    /// energy, `0..=1`. Temperature and traffic metrics are strongly diurnal.
    pub diurnal_weight: f64,
    /// White measurement-noise standard deviation, as a fraction of the
    /// signal's AC amplitude. Zero for counter metrics — counts are exact;
    /// their only readout distortion is quantization.
    pub relative_noise: f64,
    /// Fraction of devices whose signal is *quiescent*: error/drop counters
    /// sit at zero essentially all day in production. Quiet traces quantize
    /// to a constant, the estimator floors them at one FFT bin, and they
    /// produce the huge (≥1000×) reduction ratios of the paper's Figure 4
    /// tails.
    pub quiet_fraction: f64,
}

impl MetricProfile {
    /// The built-in profile for a metric kind (table in module docs).
    pub fn for_kind(kind: MetricKind) -> MetricProfile {
        use MetricKind::*;
        // Columns: poll_s, edge_lo, edge_hi, undersampled, quant, range,
        //          diurnal, noise, quiet
        let (poll_s, edge_lo, edge_hi, uf, q, range, diurnal, noise, quiet) = match kind {
            Temperature => (
                300.0,
                4e-7,
                1.5e-3,
                0.05,
                0.5,
                (25.0, 75.0),
                0.6,
                0.010,
                0.0,
            ),
            CpuUtil5pct => (60.0, 1e-6, 2e-3, 0.14, 1.0, (5.0, 95.0), 0.5, 0.010, 0.0),
            FcsErrors => (30.0, 2e-6, 4e-3, 0.25, 1.0, (0.0, 400.0), 0.0, 0.0, 0.60),
            InboundDiscards => (30.0, 2e-6, 2e-3, 0.22, 1.0, (0.0, 800.0), 0.1, 0.0, 0.55),
            OutboundDiscards => (30.0, 2e-6, 2e-3, 0.22, 1.0, (0.0, 800.0), 0.1, 0.0, 0.55),
            LinkUtil => (30.0, 2e-6, 3e-3, 0.14, 1e-3, (0.05, 0.95), 0.6, 0.008, 0.0),
            LossyPaths => (60.0, 1e-6, 1e-3, 0.10, 1.0, (0.0, 80.0), 0.2, 0.0, 0.30),
            MemoryUsage => (300.0, 4e-7, 5e-4, 0.05, 0.01, (4.0, 60.0), 0.3, 0.005, 0.0),
            MulticastBytes => (30.0, 2e-6, 2e-3, 0.12, 1.0, (0.0, 1e6), 0.4, 0.0, 0.25),
            MulticastDrops => (30.0, 2e-6, 2e-3, 0.25, 1.0, (0.0, 500.0), 0.1, 0.0, 0.60),
            PeakEgressBw => (
                60.0,
                1e-6,
                1.5e-3,
                0.12,
                1.0,
                (100.0, 9000.0),
                0.6,
                0.010,
                0.0,
            ),
            PeakIngressBw => (
                60.0,
                1e-6,
                1.5e-3,
                0.12,
                1.0,
                (100.0, 9000.0),
                0.6,
                0.010,
                0.0,
            ),
            UnicastBytes => (30.0, 2e-6, 2e-3, 0.10, 1.0, (0.0, 1e7), 0.5, 0.0, 0.10),
            UnicastDrops => (30.0, 2e-6, 2e-3, 0.22, 1.0, (0.0, 600.0), 0.1, 0.0, 0.50),
        };
        MetricProfile {
            kind,
            poll_interval: Seconds(poll_s),
            edge_lo: Hertz(edge_lo),
            edge_hi: Hertz(edge_hi),
            undersampled_fraction: uf,
            quant_step: q,
            base_range: range,
            diurnal_weight: diurnal,
            relative_noise: noise,
            quiet_fraction: quiet,
        }
    }

    /// Profiles for all 14 metrics.
    pub fn all() -> Vec<MetricProfile> {
        MetricKind::ALL.iter().map(|&k| Self::for_kind(k)).collect()
    }

    /// The production sampling rate (`1 / poll_interval`).
    pub fn production_rate(&self) -> Hertz {
        self.poll_interval.as_rate()
    }

    /// The production folding frequency (`production_rate / 2`): band edges
    /// above this alias under today's polling.
    pub fn folding_frequency(&self) -> Hertz {
        self.production_rate().folding_frequency()
    }

    /// Mid-point of the metric's value range.
    pub fn mid_value(&self) -> f64 {
        (self.base_range.0 + self.base_range.1) / 2.0
    }

    /// Half-width of the metric's value range.
    pub fn half_range(&self) -> f64 {
        (self.base_range.1 - self.base_range.0) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_exist_for_all_metrics() {
        let all = MetricProfile::all();
        assert_eq!(all.len(), 14);
        for p in &all {
            assert_eq!(p, &MetricProfile::for_kind(p.kind));
        }
    }

    #[test]
    fn profile_invariants() {
        for p in MetricProfile::all() {
            assert!(p.poll_interval.value() > 0.0, "{}", p.kind);
            assert!(p.edge_lo.value() > 0.0, "{}", p.kind);
            assert!(p.edge_lo.value() < p.edge_hi.value(), "{}", p.kind);
            assert!((0.0..1.0).contains(&p.undersampled_fraction), "{}", p.kind);
            assert!(p.quant_step > 0.0, "{}", p.kind);
            assert!(p.base_range.0 < p.base_range.1, "{}", p.kind);
            assert!((0.0..=1.0).contains(&p.diurnal_weight), "{}", p.kind);
            assert!(p.relative_noise >= 0.0, "{}", p.kind);
            assert!((0.0..1.0).contains(&p.quiet_fraction), "{}", p.kind);
        }
    }

    #[test]
    fn counters_are_noise_free_and_quiet_prone() {
        use MetricKind::*;
        for kind in [FcsErrors, InboundDiscards, MulticastDrops, UnicastDrops] {
            let p = MetricProfile::for_kind(kind);
            assert_eq!(p.relative_noise, 0.0, "{kind}: counts are exact");
            assert!(
                p.quiet_fraction >= 0.5,
                "{kind}: drop counters are mostly silent"
            );
        }
        // Gauges are never fully quiet.
        for kind in [Temperature, CpuUtil5pct, LinkUtil, MemoryUsage] {
            assert_eq!(MetricProfile::for_kind(kind).quiet_fraction, 0.0, "{kind}");
        }
    }

    #[test]
    fn well_sampled_edges_are_recoverable_at_production_rate() {
        // The non-aliased edge band must sit strictly below the production
        // folding frequency, otherwise "well-sampled" devices would alias.
        for p in MetricProfile::all() {
            assert!(
                p.edge_hi.value() < p.folding_frequency().value(),
                "{}: edge_hi {} >= folding {}",
                p.kind,
                p.edge_hi,
                p.folding_frequency()
            );
        }
    }

    #[test]
    fn oversampling_ratios_span_three_decades() {
        // The paper's Figure 4 shows reduction ratios from ~1× to >1000×.
        let mut max_ratio: f64 = 0.0;
        for p in MetricProfile::all() {
            let ratio = p.production_rate().value() / (2.0 * p.edge_lo.value());
            max_ratio = max_ratio.max(ratio);
        }
        assert!(max_ratio > 1000.0, "max possible ratio {max_ratio}");
    }

    #[test]
    fn fleet_average_undersampling_near_eleven_percent() {
        // Quiet devices are never under-sampled (their signal is flat), so
        // the effective fleet-wide fraction is uf·(1−quiet), averaged.
        let profiles = MetricProfile::all();
        let mean: f64 = profiles
            .iter()
            .map(|p| p.undersampled_fraction * (1.0 - p.quiet_fraction))
            .sum::<f64>()
            / profiles.len() as f64;
        assert!((0.07..0.14).contains(&mean), "mean undersampled {mean}");
    }

    #[test]
    fn temperature_matches_paper_band() {
        // Paper §3.2: temperature Nyquist rates range 7.99e-7 … 0.003 Hz.
        let p = MetricProfile::for_kind(MetricKind::Temperature);
        assert!((2.0 * p.edge_lo.value() - 8e-7).abs() < 2e-7);
        assert!((2.0 * p.edge_hi.value() - 3e-3).abs() < 2e-4);
    }
}
