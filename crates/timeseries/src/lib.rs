//! # sweetspot-timeseries
//!
//! Time-series substrate for the `sweetspot` workspace: the data model that
//! carries monitoring measurements between the telemetry generator, the
//! Nyquist estimator and the monitoring simulator.
//!
//! * [`time`] — `Seconds` / `Hertz` newtypes so rates and periods cannot be
//!   confused (a real bug class: the paper's rates span 7.99e-7 Hz to 8e-3 Hz).
//! * [`series`] — [`RegularSeries`] (fixed-interval samples, what a poller
//!   produces) and [`IrregularSeries`] (jittered or lossy timestamps, what a
//!   production collector actually records).
//! * [`clean`] — the paper's §3.2 pre-cleaning: *"we pre-clean the signal
//!   using nearest neighbor re-sampling"* — re-gridding irregular traces,
//!   NaN handling, outlier clipping.
//! * [`windowing`] — moving windows over a series (Figure 7 uses a 6-hour
//!   window stepping every 5 minutes).
//! * [`ingest`] — plain-text CSV import/export plus serde-able metadata.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod clean;
pub mod ingest;
pub mod series;
pub mod time;
pub mod windowing;

pub use series::{grid_len, IrregularSeries, RegularSeries};
pub use time::{Hertz, Seconds};
