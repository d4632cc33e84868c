//! # sweetspot
//!
//! A Rust reproduction of **"Towards a Cost vs. Quality Sweet Spot for
//! Monitoring Networks"** (Yaseen et al., HotNets 2021): treat datacenter
//! telemetry as sampled signals, estimate each signal's Nyquist rate with an
//! FFT energy threshold, detect aliasing with dual-rate sampling, adapt the
//! polling rate dynamically — and collect orders of magnitude fewer samples
//! at (nearly) the same quality.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`dsp`] | FFT, PSD, windows, resampling, quantization, stats |
//! | [`timeseries`] | regular/irregular series, time/rate newtypes, cleaning |
//! | [`telemetry`] | synthetic datacenter fleet (the data substrate) |
//! | [`core`] | Nyquist estimator, aliasing detector, adaptive sampler, reconstruction |
//! | [`monitor`] | monitoring-system simulator: sampling policies, cost & quality models |
//! | [`analysis`] | fleet-study harness and per-figure experiment drivers, the sweet-spot sweep included |
//!
//! ## Quickstart
//!
//! ```
//! use sweetspot::prelude::*;
//!
//! // A band-limited telemetry signal, sampled the way operators do today.
//! let profile = MetricProfile::for_kind(MetricKind::Temperature);
//! let device = DeviceTrace::synthesize(profile, 0, 42);
//! let trace = device.ground_truth(profile.production_rate(), Seconds::from_days(2.0));
//!
//! // What rate does this signal actually need?
//! let estimator = NyquistEstimator::paper_defaults();
//! match estimator.estimate_series(&trace) {
//!     NyquistEstimate::Rate(rate) => {
//!         let today = profile.production_rate();
//!         println!("sampling at {today}, Nyquist rate is {rate}: {:.0}x reduction possible",
//!                  today / rate);
//!     }
//!     NyquistEstimate::Aliased => println!("already aliased — sample faster, not slower"),
//! }
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub use sweetspot_analysis as analysis;
pub use sweetspot_arena as arena;
pub use sweetspot_core as core;
pub use sweetspot_dsp as dsp;
pub use sweetspot_monitor as monitor;
pub use sweetspot_obs as obs;
pub use sweetspot_telemetry as telemetry;
pub use sweetspot_timeseries as timeseries;

/// The most common imports in one place.
pub mod prelude {
    pub use sweetspot_core::adaptive::{AdaptiveConfig, AdaptiveSampler, Delivery, EpochReport};
    pub use sweetspot_core::aliasing::{detect_aliasing, AliasingVerdict, DualRateConfig};
    pub use sweetspot_core::estimator::{NyquistConfig, NyquistEstimate, NyquistEstimator};
    pub use sweetspot_core::reconstruct::{roundtrip, ReconstructionConfig};
    pub use sweetspot_core::source::{FunctionSource, SignalSource};
    pub use sweetspot_core::tracker::{track, TrackerConfig};
    pub use sweetspot_monitor::Policy;
    pub use sweetspot_telemetry::{DeviceTrace, FleetConfig, MetricKind, MetricProfile};
    pub use sweetspot_timeseries::{Hertz, IrregularSeries, RegularSeries, Seconds};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_is_usable() {
        use crate::prelude::*;
        let p = MetricProfile::for_kind(MetricKind::Temperature);
        assert!(p.production_rate().value() > 0.0);
    }
}
