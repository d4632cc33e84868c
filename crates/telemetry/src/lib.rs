//! # sweetspot-telemetry
//!
//! Synthetic datacenter telemetry — the substitute for the proprietary
//! production traces the paper's §3.2 study runs on.
//!
//! The generator is built around one idea: every metric's *ground truth* is a
//! deterministic, **band-limited** function of continuous time (a seeded sum
//! of tones, [`model::SignalModel`]), so
//!
//! 1. the true band edge — and therefore the true Nyquist rate — of every
//!    trace is *known by construction*, which lets tests validate the
//!    estimator against ground truth, and
//! 2. the same device can be sampled at any rate by any poller without
//!    generation artifacts, which the monitoring simulator needs.
//!
//! Measurement reality is layered on top: white measurement noise,
//! quantization, lost samples, timestamp jitter and corruption
//! ([`noise::Impairments`]), and transient events — spikes, level shifts,
//! link flaps, fail-stops ([`events`]).
//!
//! [`fleet::Fleet`] assembles the paper's study population: 14 metric kinds
//! ([`metric::MetricKind`]) × enough devices to total 1613 metric-device
//! pairs, with per-metric spectral profiles ([`profile::MetricProfile`])
//! chosen so the *shape* of Figures 1, 4 and 5 is reproduced.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod events;
pub mod fleet;
pub mod generator;
pub mod metric;
pub mod model;
pub mod noise;
pub mod profile;

pub use fleet::{paper_scale_work, scaled_work, Fleet, FleetConfig};
pub use generator::{DeviceTrace, TraceSynth};
pub use metric::MetricKind;
pub use model::{SignalModel, ToneBank};
pub use profile::MetricProfile;
