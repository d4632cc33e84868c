//! # sweetspot-core
//!
//! The paper's primary contribution, as a library:
//!
//! * [`estimator`] — the §3.2 Nyquist-rate estimator: FFT → PSD → accumulate
//!   bin energy to a 99% cutoff → report `2·f₉₉`, or "aliased" when every
//!   bin is needed.
//! * [`aliasing`] — the §4.1 dual-rate aliasing detector after Penny et al.:
//!   sample at `f1 > f2` (non-integer ratio) and compare the spectra below
//!   `f2/2`.
//! * [`adaptive`] — the §4.2 dynamic sampling controller: probe with
//!   multiplicative rate increases while aliasing persists, settle at
//!   headroom × estimated Nyquist, adaptively decrease, and optionally
//!   remember past maxima to re-ramp quickly.
//! * [`tracker`] — the moving-window Nyquist tracker behind Figure 7.
//! * [`reconstruct`] — the §4.3 reconstruction: decimate to the Nyquist rate,
//!   low-pass re-synthesize, optionally re-quantize; reports the L2 distance
//!   of Figure 6.
//! * [`recommend`] — the operational endpoint: trace in, decision out
//!   (keep / reduce / increase / inspect) with the savings attached.
//! * [`reduction`] — "possible reduction ratio" bookkeeping (Figures 1 and 4).
//! * [`scratch`] — the one working set (FFT planner and recycled buffers)
//!   the estimator, the detector and the controller borrow.
//!
//! The crate is deliberately independent of where the signals come from: it
//! consumes [`sweetspot_timeseries::RegularSeries`] and a [`SignalSource`]
//! trait that the monitoring simulator (and the synthetic telemetry crate)
//! implement.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod adaptive;
pub mod aliasing;
pub mod estimator;
pub mod recommend;
pub mod reconstruct;
pub mod reduction;
pub mod scratch;
pub mod source;
pub mod tracker;

pub use adaptive::{AdaptiveConfig, AdaptiveSampler, EpochReport};
pub use aliasing::{detect_aliasing, AliasingVerdict, DualRateConfig};
pub use estimator::{NyquistConfig, NyquistEstimate, NyquistEstimator};
pub use scratch::SpectrumScratch;
pub use source::SignalSource;
