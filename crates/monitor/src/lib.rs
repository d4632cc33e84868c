//! # sweetspot-monitor
//!
//! A monitoring-system simulator: the substrate that lets the paper's
//! cost-vs-quality argument be *measured* instead of asserted.
//!
//! The pieces mirror a production telemetry pipeline:
//!
//! * [`device`] — simulated devices exposing ground-truth signals through
//!   the measurement chain (noise, quantization, jitter, loss);
//! * [`poller`] — sampling policies: today's fixed-rate operator defaults,
//!   the paper's §4.2 adaptive controller, and the a-posteriori
//!   "measure fast, store at Nyquist" variant from §4. [`Policy::run_fleet`]
//!   runs one over a fleet and returns its [`cost::CostReport`] with the
//!   mean reconstruction error and event recall;
//! * [`collector`] — the fleet's per-epoch budget ledger;
//! * [`cost`] — the resource model (collection CPU, network bytes, storage,
//!   analysis) the paper's §1 motivates;
//! * [`quality`] — the fidelity model: reconstruction error against ground
//!   truth, event coverage/recall and detection latency.
//!
//! The title experiment — the fixed-rate frontier, its knee and the §4
//! policies on one cost-vs-quality plane — is
//! `sweetspot_analysis::experiments::sweetspot`.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod collector;
pub mod cost;
pub mod device;
pub mod poller;
pub mod quality;

pub use collector::{EpochAccount, EpochLedger};
pub use cost::{CostModel, CostReport};
pub use poller::{FleetMember, Policy};
pub use quality::QualityReport;

/// Shared helpers for this crate's unit tests.
#[cfg(test)]
pub(crate) mod testutil {
    use crate::device::SimDevice;
    use sweetspot_telemetry::{DeviceTrace, MetricKind, MetricProfile};

    /// A device the posteriori policy can thin ≥2×: well-sampled, band edge
    /// well below the folding frequency, signal-dominated spectrum. (A
    /// near-static device legitimately reads as noise/aliased under §3.2 and
    /// is stored in full — valid behavior, but not what thinning tests
    /// probe.)
    pub(crate) fn thinnable_device(seed: u64) -> SimDevice {
        let profile = MetricProfile::for_kind(MetricKind::Temperature);
        let dev = (0..50)
            .map(|i| DeviceTrace::synthesize(profile, i, seed))
            .find(|d| {
                !d.is_undersampled_at_production_rate()
                    && (2e-5..3e-4).contains(&d.true_band_edge().value())
                    && d.model().total_amplitude() > 10.0
            })
            .expect("a thinnable temperature device in 50 draws");
        SimDevice::new(dev)
    }
}
