//! The quality model: what did the monitoring system preserve?
//!
//! Two complementary views:
//!
//! * **Reconstruction fidelity** — rebuild the signal from the stored
//!   samples (Whittaker–Shannon interpolation, the grid-free equivalent of
//!   the paper's FFT low-pass) and compare against ground truth on a fine
//!   reference grid (NRMSE).
//! * **Event visibility** — for every injected transient, did at least one
//!   stored sample land inside the event window, and how long after onset?
//!   This is the "operators fear missing important insights" axis (§1).

use crate::device::SimDevice;
use serde::{Deserialize, Serialize};
use sweetspot_dsp::interp::Interp;
use sweetspot_dsp::stats;
use sweetspot_timeseries::clean::{clean, CleanConfig};
use sweetspot_timeseries::{Hertz, IrregularSeries, Seconds};

/// Quality of one device's stored record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QualityReport {
    /// RMSE of the reconstruction against ground truth, normalized by the
    /// larger of (a) the ground-truth value range over the window and (b)
    /// ten sensor quanta. The floor keeps flat, heavily-quantized traces
    /// from reading as "bad quality" when the error is just the sensor's own
    /// resolution — a flat signal genuinely needs almost no samples, which
    /// is the paper's point.
    pub nrmse: f64,
    /// Raw RMSE (metric units).
    pub rmse: f64,
    /// Largest pointwise reconstruction error.
    pub max_abs: f64,
    /// Number of injected events in the evaluation window.
    pub events_total: usize,
    /// Events with at least one stored sample inside their window.
    pub events_covered: usize,
    /// Mean delay from event onset to the first covering sample.
    pub mean_detection_latency: Option<Seconds>,
}

impl QualityReport {
    /// Fraction of events covered (1.0 when there were no events).
    pub fn event_recall(&self) -> f64 {
        if self.events_total == 0 {
            1.0
        } else {
            self.events_covered as f64 / self.events_total as f64
        }
    }
}

/// Reference grid rate as a multiple of the device's production rate.
const REFERENCE_MULTIPLIER: f64 = 4.0;
/// Sinc-kernel half-width for reconstruction (samples).
const SINC_HALF_WIDTH: usize = 64;
/// Fractional margin at each end of the window excluded from error metrics
/// (reconstruction near the boundary has one-sided support).
const EDGE_MARGIN: f64 = 0.05;

/// Evaluates the stored record of `device` over `[0, duration)`.
///
/// Returns `None` when the stored record is too sparse to reconstruct from
/// (fewer than 4 samples).
pub fn evaluate(
    device: &SimDevice,
    stored: &IrregularSeries,
    duration: Seconds,
) -> Option<QualityReport> {
    if stored.len() < 4 {
        return None;
    }
    // Re-grid the stored record (§3.2 pre-cleaning) for interpolation.
    let cleaned = clean(
        stored,
        CleanConfig {
            interval: None,
            outlier_mads: None,
        },
    )
    .ok()?;
    let stored_rate = cleaned.sample_rate();
    let stored_start = cleaned.start().value();

    // Fine reference grid from ground truth.
    let prod_rate = device.trace().profile().production_rate();
    let ref_rate = Hertz(prod_rate.value() * REFERENCE_MULTIPLIER);
    let truth = device.ground_truth(Seconds::ZERO, ref_rate, duration);

    // Interior evaluation range.
    let n = truth.len();
    let margin = ((n as f64) * EDGE_MARGIN) as usize;
    let interp = Interp::Sinc {
        half_width: Some(SINC_HALF_WIDTH),
    };
    let mut truth_vals = Vec::with_capacity(n - 2 * margin);
    let mut recon_vals = Vec::with_capacity(n - 2 * margin);
    for k in margin..n - margin {
        let t = truth.time_of(k).value();
        truth_vals.push(truth.values()[k]);
        recon_vals.push(interp.at(cleaned.values(), stored_rate.value(), t - stored_start));
    }

    // Event coverage.
    let events = device.trace().model().events();
    let in_window: Vec<_> = events
        .iter()
        .filter(|e| e.start < duration.value() && e.end() > 0.0)
        .collect();
    let mut covered = 0usize;
    let mut latencies = Vec::new();
    for e in &in_window {
        let first_hit = stored
            .times()
            .iter()
            .find(|t| t.value() >= e.start && t.value() < e.end());
        if let Some(t) = first_hit {
            covered += 1;
            latencies.push(t.value() - e.start);
        }
    }
    let mean_latency = if latencies.is_empty() {
        None
    } else {
        Some(Seconds(
            latencies.iter().sum::<f64>() / latencies.len() as f64,
        ))
    };

    let rmse = stats::rmse(&truth_vals, &recon_vals);
    let (lo, hi) = stats::min_max(&truth_vals);
    let quant = device.trace().profile().quant_step;
    let scale = (hi - lo).max(10.0 * quant);

    Some(QualityReport {
        nrmse: rmse / scale,
        rmse,
        max_abs: stats::max_abs_error(&truth_vals, &recon_vals),
        events_total: in_window.len(),
        events_covered: covered,
        mean_detection_latency: mean_latency,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sweetspot_telemetry::events::{Event, EventKind};
    use sweetspot_telemetry::{DeviceTrace, MetricKind, MetricProfile};

    fn device() -> SimDevice {
        SimDevice::new(DeviceTrace::synthesize(
            MetricProfile::for_kind(MetricKind::Temperature),
            2,
            99,
        ))
    }

    fn stored_at(device: &mut SimDevice, rate: Hertz, duration: Seconds) -> IrregularSeries {
        device.poll(Seconds::ZERO, rate, duration)
    }

    #[test]
    fn dense_sampling_reconstructs_well() {
        let mut d = device();
        let duration = Seconds::from_days(2.0);
        let stored = stored_at(&mut d, Hertz(1.0 / 300.0), duration);
        let q = evaluate(&d, &stored, duration).unwrap();
        assert!(q.nrmse < 0.1, "dense NRMSE {}", q.nrmse);
        assert_eq!(q.event_recall(), 1.0); // no events injected
    }

    #[test]
    fn sparser_sampling_degrades_quality_monotonically() {
        let mut d = device();
        let duration = Seconds::from_days(4.0);
        let dense = stored_at(&mut d, Hertz(1.0 / 300.0), duration);
        let sparse = stored_at(&mut d, Hertz(1.0 / 43_200.0), duration); // 12 h polls
        let qd = evaluate(&d, &dense, duration).unwrap();
        let qs = evaluate(&d, &sparse, duration).unwrap();
        assert!(
            qs.nrmse > qd.nrmse,
            "sparse ({}) must be worse than dense ({})",
            qs.nrmse,
            qd.nrmse
        );
    }

    #[test]
    fn too_sparse_returns_none() {
        let mut d = device();
        let duration = Seconds::from_hours(2.0);
        let stored = stored_at(&mut d, Hertz(1.0 / 7200.0), duration); // 1 sample
        assert!(evaluate(&d, &stored, duration).is_none());
    }

    #[test]
    fn event_coverage_depends_on_rate() {
        // Inject a 10-minute spike; 5-minute polling covers it, 2-hour
        // polling almost certainly misses it.
        let trace =
            DeviceTrace::synthesize(MetricProfile::for_kind(MetricKind::Temperature), 3, 123)
                .with_events(vec![Event::new(EventKind::Spike, 30_000.0, 600.0, 15.0)]);
        let duration = Seconds::from_days(1.0);
        let mut d = SimDevice::new(trace);

        let dense = d.poll(Seconds::ZERO, Hertz(1.0 / 300.0), duration);
        let qd = evaluate(&d, &dense, duration).unwrap();
        assert_eq!(qd.events_total, 1);
        assert_eq!(qd.events_covered, 1, "5-min polls cover a 10-min event");
        let latency = qd.mean_detection_latency.unwrap();
        assert!(latency.value() <= 300.0, "latency {latency}");

        let sparse = d.poll(Seconds::ZERO, Hertz(1.0 / 7200.0), duration);
        let qs = evaluate(&d, &sparse, duration).unwrap();
        assert_eq!(qs.events_total, 1);
        assert_eq!(qs.events_covered, 0, "2-hour polls miss a 10-min event");
        assert_eq!(qs.event_recall(), 0.0);
    }

    #[test]
    fn recall_is_one_without_events() {
        let q = QualityReport {
            nrmse: 0.0,
            rmse: 0.0,
            max_abs: 0.0,
            events_total: 0,
            events_covered: 0,
            mean_detection_latency: None,
        };
        assert_eq!(q.event_recall(), 1.0);
    }
}
