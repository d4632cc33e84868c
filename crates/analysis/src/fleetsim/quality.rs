//! The fleet quality model: how well each device's *achieved* polling rate
//! serves its *true* Nyquist requirement.
//!
//! Because the fleet is synthetic, every device's true band edge is known
//! by construction ([`DeviceTrace::true_nyquist_rate`]), so quality needs no
//! reconstruction run: polling a signal whose Nyquist sampling rate is `n`
//! at rate `r` captures the `min(1, r/n)` fraction of its band (the rest
//! folds). That **spectral coverage**, averaged over epochs and devices, is
//! the fleet quality score — 1.0 means every device was alias-free all run.
//!
//! Quiescent devices (signals that never move a full quantization step) are
//! fully captured at any rate; the engine passes them a zero requirement
//! and [`coverage`] scores them 1.0 by definition.
//!
//! [`DeviceTrace::true_nyquist_rate`]: sweetspot_telemetry::DeviceTrace::true_nyquist_rate

use sweetspot_telemetry::MetricKind;
use sweetspot_timeseries::Hertz;

/// Spectral coverage of polling at `rate` a signal that needs `nyquist`:
/// the fraction of the signal band that lands below the folding frequency.
pub fn coverage(rate: Hertz, nyquist: Hertz) -> f64 {
    if nyquist.value() <= 0.0 {
        return 1.0;
    }
    (rate.value() / nyquist.value()).clamp(0.0, 1.0)
}

/// One device's quality over a whole simulation, folded from the epoch
/// reports its controller produced. A device produces a report every epoch
/// it is present and awake; an absent or sleeping epoch produces none and
/// counts toward nothing below.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceQuality {
    /// Device position in the fleet work list.
    pub index: usize,
    /// Metric kind (for per-metric breakdowns).
    pub kind: MetricKind,
    /// Mean spectral coverage over the epochs the device reported; a lost
    /// report scores 0.
    pub mean_coverage: f64,
    /// Controller-requested polling rate (Hz) after the final epoch.
    pub final_rate: f64,
    /// Epochs whose adaptation was pushed out
    /// ([`EpochReport::deferred`](sweetspot_core::adaptive::EpochReport::deferred)):
    /// the grant was cut below the request, or the report arrived late or
    /// was lost.
    pub deferred_epochs: usize,
    /// Epochs whose report was lost in flight (dropped reports only, never
    /// absences); each is also a deferred epoch.
    pub missed_epochs: usize,
}

/// Fleet-level quality aggregates (deterministic: all sums run in device
/// index order; the quantile sorts a copy with index tie-breaks).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetQuality {
    /// Mean of per-device mean coverage — the headline quality score.
    pub mean_coverage: f64,
    /// 10th percentile of per-device coverage: the starvation tail a mean
    /// can hide.
    pub p10_coverage: f64,
    /// Fraction of devices essentially alias-free (coverage ≥ 0.99).
    pub covered_fraction: f64,
    /// Fraction of devices starved below half their band (coverage < 0.5).
    pub starved_fraction: f64,
}

impl FleetQuality {
    /// Aggregates per-device scores (in fleet order).
    pub fn from_devices(devices: &[DeviceQuality]) -> FleetQuality {
        if devices.is_empty() {
            return FleetQuality {
                mean_coverage: 0.0,
                p10_coverage: 0.0,
                covered_fraction: 0.0,
                starved_fraction: 0.0,
            };
        }
        let n = devices.len() as f64;
        let mean_coverage = devices.iter().map(|d| d.mean_coverage).sum::<f64>() / n;
        let covered = devices.iter().filter(|d| d.mean_coverage >= 0.99).count();
        let starved = devices.iter().filter(|d| d.mean_coverage < 0.5).count();
        let mut sorted: Vec<f64> = devices.iter().map(|d| d.mean_coverage).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("coverage is finite"));
        let p10 = sorted[(sorted.len() - 1) / 10];
        FleetQuality {
            mean_coverage,
            p10_coverage: p10,
            covered_fraction: covered as f64 / n,
            starved_fraction: starved as f64 / n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_clamps_to_unit_interval() {
        let n = Hertz(1.0);
        assert_eq!(coverage(Hertz(2.0), n), 1.0);
        assert_eq!(coverage(Hertz(1.0), n), 1.0);
        assert!((coverage(Hertz(0.25), n) - 0.25).abs() < 1e-12);
        assert_eq!(coverage(Hertz(0.0), n), 0.0);
        // Degenerate requirement: anything covers a zero-band signal.
        assert_eq!(coverage(Hertz(0.0), Hertz(0.0)), 1.0);
    }

    fn device(index: usize, c: f64) -> DeviceQuality {
        DeviceQuality {
            index,
            kind: MetricKind::ALL[0],
            mean_coverage: c,
            final_rate: 1.0,
            deferred_epochs: 0,
            missed_epochs: 0,
        }
    }

    #[test]
    fn fleet_aggregates_mean_tail_and_fractions() {
        let devices: Vec<DeviceQuality> = [1.0, 1.0, 0.995, 0.8, 0.6, 0.4, 0.3, 0.2, 1.0, 1.0]
            .iter()
            .enumerate()
            .map(|(i, &c)| device(i, c))
            .collect();
        let q = FleetQuality::from_devices(&devices);
        assert!((q.mean_coverage - 0.7295).abs() < 1e-9);
        assert!((q.covered_fraction - 0.5).abs() < 1e-12);
        assert!((q.starved_fraction - 0.3).abs() < 1e-12);
        // p10 with 10 devices: sorted[0] = 0.2.
        assert!((q.p10_coverage - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_fleet_is_zero_quality() {
        let q = FleetQuality::from_devices(&[]);
        assert_eq!(q.mean_coverage, 0.0);
        assert_eq!(q.covered_fraction, 0.0);
    }
}
