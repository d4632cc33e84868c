//! Window (tapering) functions for spectral estimation.
//!
//! Windowing reduces spectral leakage when a trace is not periodic in its
//! observation interval — which production telemetry never is. The Nyquist
//! estimator uses [`Window::Hann`] by default; the plain rectangular window
//! reproduces the paper's raw-FFT methodology exactly.
//!
//! The Hann window is one cosine harmonic of `2πi/(n − 1)`. One evaluator,
//! `WindowRoots`, is behind every coefficient: it reads that harmonic as
//! the real part of the `(n − 1)`-th roots of unity, which a two-level root
//! table yields for about `2√n` trig calls, at `min(i, n − 1 − i)`, so the
//! window is exactly symmetric. [`WindowTable`] stores the first `⌈n/2⌉`
//! coefficients it yields and mirrors the rest, for the planner's cache;
//! the one-shot periodogram reads them from the evaluator as it needs them.
//! [`Window::coefficient`] evaluates one sample directly and is the
//! reference the table is tested against.

use crate::fft::Roots;
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
/// the `FftPlanner`) and multiplies segments by it.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowTable {
    window: Window,
    coeffs: Vec<f64>,
    energy_gain: f64,
}

impl WindowTable {
    /// Materializes `window` at length `n` and precomputes its energy gain.
    ///
    /// The coefficients are allocated at exactly `n` entries, which is what
    /// [`WindowTable::resident_bytes`] charges. The table is exactly
    /// symmetric: coefficient `n − 1 − i` is a copy of coefficient `i`.
    pub fn new(window: Window, n: usize) -> Self {
        let roots = WindowRoots::new(window, n);
        let mut coeffs = Vec::with_capacity(n);
        let half = n.div_ceil(2);
        coeffs.extend((0..half).map(|i| roots.coefficient(i)));
        coeffs.extend_from_within(..n - half);
        coeffs[half..].reverse();
        WindowTable {
            window,
            energy_gain: energy_gain(n, coeffs.iter().copied()),
            coeffs,
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

    /// Heap bytes the table holds, one `f64` per sample — feeds the FFT
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

/// Mean of the squared coefficients `coeffs` of a length-`n` window, summed
/// in sample order; `1.0` for `n == 0`.
fn energy_gain(n: usize, coeffs: impl Iterator<Item = f64>) -> f64 {
    if n == 0 {
        1.0
    } else {
        coeffs.map(|c| c * c).sum::<f64>() / n as f64
    }
}

/// A window's coefficients evaluated on demand from the `(n − 1)`-th roots
/// of unity (see the module docs). [`WindowTable::new`] stores the first
/// half of them and mirrors it; a transform that reads each coefficient
/// once reads them here instead and holds none. Both give the same bits.
pub(crate) struct WindowRoots {
    window: Window,
    n: usize,
    /// `None` when every coefficient is `1.0`: the rectangular window, or
    /// fewer than two samples.
    roots: Option<Roots>,
}

impl WindowRoots {
    /// The evaluator for `window` at length `n`: about `2√n` trig calls.
    pub(crate) fn new(window: Window, n: usize) -> Self {
        let tapered = n >= 2 && window != Window::Rectangular;
        WindowRoots {
            window,
            n,
            roots: tapered.then(|| Roots::new(n - 1)),
        }
    }

    /// Coefficient `i < n`.
    #[inline]
    pub(crate) fn coefficient(&self, i: usize) -> f64 {
        match &self.roots {
            None => 1.0,
            // cos(2πi/(n − 1)) is the real part of the (n − 1)-th root of
            // unity at i; the window is symmetric, so the exponent stays
            // below ⌈n/2⌉ ≤ n − 1.
            Some(roots) => self.window.evaluate(roots.root(i.min(self.n - 1 - i)).re),
        }
    }

    /// [`WindowTable::energy_gain`]'s value, summed in the same order.
    pub(crate) fn energy_gain(&self) -> f64 {
        energy_gain(self.n, (0..self.n).map(|i| self.coefficient(i)))
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
                    assert_eq!(
                        c[i].to_bits(),
                        c[n - 1 - i].to_bits(),
                        "{win:?} n={n} i={i}"
                    );
                    let direct = win.coefficient(i, n);
                    let err = (c[i] - direct).abs();
                    assert!(err <= 1e-15, "{win:?} n={n} i={i}: {} vs {direct}", c[i]);
                }
                let direct_gain =
                    (0..n).map(|i| win.coefficient(i, n).powi(2)).sum::<f64>() / n as f64;
                assert!(
                    (table.energy_gain() - direct_gain).abs() <= 1e-14,
                    "{win:?} n={n}"
                );
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
