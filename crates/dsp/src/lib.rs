//! # sweetspot-dsp
//!
//! Signal-processing substrate for the `sweetspot` workspace — a from-scratch
//! implementation of the numerics the HotNets'21 paper *"Towards a Cost vs.
//! Quality Sweet Spot for Monitoring Networks"* relies on:
//!
//! * complex arithmetic ([`Complex64`]),
//! * fast Fourier transforms ([`fft::FftPlanner`]: mixed-radix Cooley–Tukey
//!   for `2^a·3^b·5^c` lengths, powers of two included, and Bluestein's
//!   chirp-z algorithm on top of it for the rest),
//! * window functions ([`window::Window`]),
//! * power-spectral-density estimation ([`psd`]: the periodogram),
//! * resampling and interpolation ([`resample`], [`interp`]: decimation,
//!   zero-stuff upsampling, nearest/linear/sinc reconstruction),
//! * quantization ([`quantize`]), and
//! * descriptive statistics ([`stats`]: RMSE, percentiles, CDFs, five-number
//!   summaries).
//!
//! Everything is deterministic, allocation-conscious and `f64`-based. The
//! crate has **no dependencies**; correctness is guarded by unit tests and
//! property tests (Parseval's theorem, round-trips, linearity, conjugate
//! symmetry).
//!
//! ## Example
//!
//! ```
//! use sweetspot_dsp::fft::{FftPlanner, FftScratch};
//! use sweetspot_dsp::Complex64;
//!
//! // The planner caches tables; the scratch is the lent working storage.
//! let mut planner = FftPlanner::new();
//! let mut scratch = FftScratch::new();
//! let mut buf: Vec<Complex64> = (0..8)
//!     .map(|i| Complex64::new((i as f64).sin(), 0.0))
//!     .collect();
//! let orig = buf.clone();
//! planner.fft_in_place(&mut buf, &mut scratch);
//! planner.ifft_in_place(&mut buf, &mut scratch);
//! for (a, b) in orig.iter().zip(&buf) {
//!     assert!((a.re - b.re).abs() < 1e-12);
//! }
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod complex;
pub mod fft;
pub mod interp;
pub mod psd;
pub mod quantize;
pub mod resample;
pub mod spectrum;
pub mod stats;
pub mod window;

pub use complex::Complex64;
pub use spectrum::Spectrum;
