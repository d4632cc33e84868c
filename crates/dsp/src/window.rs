//! Window (tapering) functions for spectral estimation.
//!
//! Windowing reduces spectral leakage when a trace is not periodic in its
//! observation interval — which production telemetry never is. The Nyquist
//! estimator uses [`Window::Hann`] by default; the plain rectangular window
//! reproduces the paper's raw-FFT methodology exactly.
//!
//! The Hann window is one cosine harmonic of `2πi/(n − 1)`. [`WindowTable`]
//! is the one evaluator behind every coefficient vector: it reads that
//! harmonic as the real part of the `(n − 1)`-th roots of unity, which a
//! two-level root table yields for about `2√n` trig calls, and fills only the
//! first `⌈n/2⌉` coefficients — the rest are an exact mirror.
//! [`Window::coefficient`] evaluates one sample directly and is the
//! reference the table is tested against.

use crate::fft::{quantized_table, Roots};
use std::f64::consts::PI;

/// Supported window shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Window {
    /// No tapering (all ones). Matches a raw FFT.
    Rectangular,
    /// Hann (raised cosine): good general-purpose leakage suppression.
    Hann,
}

impl Window {
    /// Evaluates the window at sample `i` of `n` (symmetric convention).
    ///
    /// Returns 1.0 for every `i` when `n < 2` — a single sample cannot be
    /// tapered meaningfully.
    pub fn coefficient(self, i: usize, n: usize) -> f64 {
        if n < 2 {
            return 1.0;
        }
        let x = i as f64 / (n - 1) as f64;
        self.evaluate((2.0 * PI * x).cos())
    }

    /// The window's value given `cos1 = cos(2π·x)`, its one harmonic.
    #[inline]
    fn evaluate(self, cos1: f64) -> f64 {
        match self {
            Window::Rectangular => 1.0,
            Window::Hann => 0.5 - 0.5 * cos1,
        }
    }
}

/// A materialized window: coefficients plus their energy gain.
///
/// Evaluating a window coefficient directly costs up to three trig calls
/// per sample; a table costs about `2√n` for all of them (see the module
/// docs). The spectral pipeline builds one per `(window, n)` (cached by
/// `FftPlanner::window_table`) and multiplies segments by it.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowTable {
    window: Window,
    coeffs: Vec<f64>,
    energy_gain: f64,
}

impl WindowTable {
    /// Materializes `window` at length `n` and precomputes its energy gain.
    ///
    /// Coefficients are stored with power-of-two capacity (see
    /// `fft::quantized_table`) so evicted tables recycle exactly in the
    /// planner's byte-budgeted cache. The table is exactly symmetric:
    /// coefficient `n − 1 − i` is a copy of coefficient `i`.
    pub fn new(window: Window, n: usize) -> Self {
        let mut coeffs = quantized_table::<f64>(n);
        if n < 2 || window == Window::Rectangular {
            coeffs.resize(n, 1.0);
        } else {
            // cos(2πi/(n − 1)) is the real part of the (n − 1)-th root of
            // unity at i; i < ⌈n/2⌉ ≤ n − 1 for n ≥ 2.
            let roots = Roots::new(n - 1);
            let half = n.div_ceil(2);
            coeffs.extend((0..half).map(|i| window.evaluate(roots.root(i).re)));
            coeffs.extend_from_within(..n - half);
            coeffs[half..].reverse();
        }
        let energy_gain = if n == 0 {
            1.0
        } else {
            coeffs.iter().map(|c| c * c).sum::<f64>() / n as f64
        };
        WindowTable {
            window,
            coeffs,
            energy_gain,
        }
    }

    /// The window shape this table was built from.
    pub fn window(&self) -> Window {
        self.window
    }

    /// Number of samples the table covers.
    pub fn len(&self) -> usize {
        self.coeffs.len()
    }

    /// `true` when the table covers zero samples.
    pub fn is_empty(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Heap bytes the table holds (capacity, not length) — feeds the FFT
    /// planner's byte-budgeted cache accounting.
    pub fn resident_bytes(&self) -> usize {
        self.coeffs.capacity() * std::mem::size_of::<f64>()
    }

    /// The coefficients, one per sample; all `1.0` for the rectangular
    /// window.
    pub(crate) fn coefficients(&self) -> &[f64] {
        &self.coeffs
    }

    /// Energy (incoherent) gain: mean of squared coefficients. Divides power
    /// estimates so windowed PSDs remain comparable across window choices.
    pub fn energy_gain(&self) -> f64 {
        self.energy_gain
    }

    /// Multiplies the table into `samples` (no-op for the rectangular
    /// window).
    ///
    /// # Panics
    /// Panics if `samples.len()` differs from the table length.
    pub fn apply(&self, samples: &mut [f64]) {
        assert_eq!(
            samples.len(),
            self.coeffs.len(),
            "window table length mismatch"
        );
        if matches!(self.window, Window::Rectangular) {
            return;
        }
        for (s, &c) in samples.iter_mut().zip(&self.coeffs) {
            *s *= c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WINDOWS: [Window; 2] = [Window::Rectangular, Window::Hann];

    fn coefficients(window: Window, n: usize) -> Vec<f64> {
        WindowTable::new(window, n).coeffs
    }

    #[test]
    fn rectangular_is_all_ones() {
        let table = WindowTable::new(Window::Rectangular, 16);
        assert!(table.coeffs.iter().all(|&c| c == 1.0));
        assert_eq!(table.energy_gain(), 1.0);
    }

    #[test]
    fn hann_endpoints_are_zero_and_center_is_one() {
        let n = 65;
        let w = coefficients(Window::Hann, n);
        assert!(w[0].abs() < 1e-12);
        assert!(w[n - 1].abs() < 1e-12);
        assert!((w[n / 2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn all_windows_are_symmetric() {
        let n = 33;
        for win in WINDOWS {
            let w = coefficients(win, n);
            for i in 0..n {
                assert!(
                    (w[i] - w[n - 1 - i]).abs() < 1e-12,
                    "{win:?} asymmetric at {i}"
                );
            }
        }
    }

    #[test]
    fn all_windows_bounded_by_unity() {
        for win in WINDOWS {
            for &c in &coefficients(win, 64) {
                assert!((-1e-12..=1.0 + 1e-12).contains(&c), "{win:?}: {c}");
            }
        }
    }

    #[test]
    fn gains_ordering_matches_taper_aggressiveness() {
        let n = 256;
        // Tapering throws away energy.
        let coherent_gain = |w: Window| coefficients(w, n).iter().sum::<f64>() / n as f64;
        assert!(coherent_gain(Window::Rectangular) > coherent_gain(Window::Hann));
        for win in WINDOWS {
            let eg = WindowTable::new(win, n).energy_gain();
            let cg = coherent_gain(win);
            // Cauchy–Schwarz: mean(w²) ≥ mean(w)².
            assert!(eg + 1e-12 >= cg * cg, "{win:?}");
        }
    }

    #[test]
    fn apply_matches_coefficients() {
        let table = WindowTable::new(Window::Hann, 10);
        let mut v = vec![2.0; 10];
        table.apply(&mut v);
        for (a, b) in v.iter().zip(&table.coeffs) {
            assert!((a - 2.0 * b).abs() < 1e-12);
        }
    }

    #[test]
    fn degenerate_lengths_are_untapered() {
        for win in WINDOWS {
            assert_eq!(win.coefficient(0, 0), 1.0);
            assert_eq!(win.coefficient(0, 1), 1.0);
        }
    }

    #[test]
    fn window_table_matches_direct_evaluation() {
        for win in WINDOWS {
            // The table is exactly symmetric and within 1e-15 of the
            // per-sample reference.
            for n in [2usize, 3, 97, 129_600] {
                let table = WindowTable::new(win, n);
                assert_eq!(table.window(), win);
                assert_eq!(table.len(), n);
                let c = &table.coeffs;
                for i in 0..n {
                    assert_eq!(c[i].to_bits(), c[n - 1 - i].to_bits(), "{win:?} n={n} i={i}");
                    let direct = win.coefficient(i, n);
                    let err = (c[i] - direct).abs();
                    assert!(err <= 1e-15, "{win:?} n={n} i={i}: {} vs {direct}", c[i]);
                }
                let direct_gain =
                    (0..n).map(|i| win.coefficient(i, n).powi(2)).sum::<f64>() / n as f64;
                assert!((table.energy_gain() - direct_gain).abs() <= 1e-14, "{win:?} n={n}");
            }
        }
    }

    #[test]
    fn empty_window_table_has_unit_gains() {
        let t = WindowTable::new(Window::Hann, 0);
        assert!(t.is_empty());
        assert_eq!(t.energy_gain(), 1.0);
    }
}
