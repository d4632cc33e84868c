//! # sweetspot-analysis
//!
//! The experiment harness: everything needed to regenerate the paper's
//! figures and headline statistics from the synthetic fleet.
//!
//! * [`study`] — the §3.2 fleet study engine: run the Nyquist estimator over
//!   every `(metric, device)` production trace, in parallel, and aggregate.
//! * [`report`] — plain-text rendering of bar charts, CDFs, box plots and
//!   tables (every figure is reproduced as text so the harness has no
//!   plotting dependencies).
//! * [`fleetsim`] — the fleet-level adaptive simulation: every device's
//!   §4.2 controller under one shared budget, with one cross-device
//!   scheduler (four policies) and a ground-truth quality model, producing
//!   the cost-vs-quality frontier per policy.
//! * [`experiments`] — one driver per paper artifact:
//!   [`experiments::fig1`] … [`experiments::fig7`],
//!   [`experiments::headline`], [`experiments::sweetspot`] (the title
//!   experiment) and [`experiments::claims`], the paper-claims ledger that
//!   sets every quantitative claim beside its reproduction
//!   (`tests/golden/claims.txt`).
//!
//! Every driver returns structured data (so tests can assert on shapes) plus
//! a `render()` string for human consumption.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod experiments;
pub mod fleetsim;
pub mod report;
mod shard;
pub mod study;

pub use fleetsim::{FleetFrontier, FleetSimConfig, PolicyOutcome};
pub use study::{FleetStudy, PairResult, StudyConfig};
