//! Window (tapering) functions for spectral estimation.
//!
//! Windowing reduces spectral leakage when a trace is not periodic in its
//! observation interval — which production telemetry never is. The Nyquist
//! estimator uses [`Window::Hann`] by default; the plain rectangular window
//! reproduces the paper's raw-FFT methodology exactly.

use std::f64::consts::PI;

/// Supported window shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Window {
    /// No tapering (all ones). Matches a raw FFT.
    Rectangular,
    /// Hann (raised cosine): good general-purpose leakage suppression.
    Hann,
    /// Hamming: slightly narrower main lobe than Hann, higher side lobes.
    Hamming,
    /// Blackman: strong side-lobe suppression (−58 dB), wider main lobe.
    Blackman,
    /// 4-term Blackman–Harris: very strong suppression (−92 dB).
    BlackmanHarris,
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
        match self {
            Window::Rectangular => 1.0,
            Window::Hann => 0.5 - 0.5 * (2.0 * PI * x).cos(),
            Window::Hamming => 0.54 - 0.46 * (2.0 * PI * x).cos(),
            Window::Blackman => {
                0.42 - 0.5 * (2.0 * PI * x).cos() + 0.08 * (4.0 * PI * x).cos()
            }
            Window::BlackmanHarris => {
                0.35875 - 0.48829 * (2.0 * PI * x).cos() + 0.14128 * (4.0 * PI * x).cos()
                    - 0.01168 * (6.0 * PI * x).cos()
            }
        }
    }

    /// Materializes the window as a coefficient vector of length `n`.
    pub fn coefficients(self, n: usize) -> Vec<f64> {
        (0..n).map(|i| self.coefficient(i, n)).collect()
    }

    /// Applies the window to `samples` in place.
    pub fn apply(self, samples: &mut [f64]) {
        let n = samples.len();
        if matches!(self, Window::Rectangular) {
            return;
        }
        for (i, s) in samples.iter_mut().enumerate() {
            *s *= self.coefficient(i, n);
        }
    }

    /// Energy (incoherent) gain: mean of squared coefficients. Divides power
    /// estimates so windowed PSDs remain comparable across window choices.
    pub fn energy_gain(self, n: usize) -> f64 {
        if n == 0 {
            return 1.0;
        }
        self.coefficients(n).iter().map(|c| c * c).sum::<f64>() / n as f64
    }

    /// All window variants, for sweeps and tests.
    pub const ALL: [Window; 5] = [
        Window::Rectangular,
        Window::Hann,
        Window::Hamming,
        Window::Blackman,
        Window::BlackmanHarris,
    ];
}

/// A materialized window: coefficients plus their energy gain.
///
/// Evaluating a window coefficient costs up to four trig calls per sample;
/// the spectral pipeline instead builds one table per `(window, n)` (cached
/// by `FftPlanner::window_table`) and multiplies segments by it.
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
    /// planner's byte-budgeted cache.
    pub fn new(window: Window, n: usize) -> Self {
        let mut coeffs = crate::fft::quantized_table::<f64>(n);
        coeffs.extend((0..n).map(|i| window.coefficient(i, n)));
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

    /// Energy gain (mean squared coefficient); equals
    /// [`Window::energy_gain`].
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

    #[test]
    fn rectangular_is_all_ones() {
        let w = Window::Rectangular.coefficients(16);
        assert!(w.iter().all(|&c| c == 1.0));
        assert_eq!(Window::Rectangular.energy_gain(16), 1.0);
    }

    #[test]
    fn hann_endpoints_are_zero_and_center_is_one() {
        let n = 65;
        let w = Window::Hann.coefficients(n);
        assert!(w[0].abs() < 1e-12);
        assert!(w[n - 1].abs() < 1e-12);
        assert!((w[n / 2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn all_windows_are_symmetric() {
        let n = 33;
        for win in Window::ALL {
            let w = win.coefficients(n);
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
        for win in Window::ALL {
            for &c in &win.coefficients(64) {
                assert!((-1e-12..=1.0 + 1e-12).contains(&c), "{win:?}: {c}");
            }
        }
    }

    #[test]
    fn gains_ordering_matches_taper_aggressiveness() {
        let n = 256;
        // More aggressive tapers throw away more energy.
        let coherent_gain = |w: Window| w.coefficients(n).iter().sum::<f64>() / n as f64;
        let cg: Vec<f64> = Window::ALL.iter().map(|&w| coherent_gain(w)).collect();
        assert!(cg[0] > cg[1] && cg[1] > cg[3] && cg[3] > cg[4]);
        for win in Window::ALL {
            let eg = win.energy_gain(n);
            let cg = coherent_gain(win);
            // Cauchy–Schwarz: mean(w²) ≥ mean(w)².
            assert!(eg + 1e-12 >= cg * cg, "{win:?}");
        }
    }

    #[test]
    fn apply_matches_coefficients() {
        let mut v = vec![2.0; 10];
        Window::Hamming.apply(&mut v);
        let w = Window::Hamming.coefficients(10);
        for (a, b) in v.iter().zip(&w) {
            assert!((a - 2.0 * b).abs() < 1e-12);
        }
    }

    #[test]
    fn degenerate_lengths_are_untapered() {
        for win in Window::ALL {
            assert_eq!(win.coefficient(0, 0), 1.0);
            assert_eq!(win.coefficient(0, 1), 1.0);
        }
    }

    #[test]
    fn window_table_matches_direct_evaluation() {
        for win in Window::ALL {
            let n = 97;
            let table = WindowTable::new(win, n);
            assert_eq!(table.window(), win);
            assert_eq!(table.len(), n);
            assert_eq!(table.energy_gain(), win.energy_gain(n));
            let mut coeffs = vec![1.0; n];
            table.apply(&mut coeffs);
            assert_eq!(coeffs, win.coefficients(n));

            let mut via_table = vec![1.5; n];
            table.apply(&mut via_table);
            let mut direct = vec![1.5; n];
            win.apply(&mut direct);
            assert_eq!(via_table, direct);
        }
    }

    #[test]
    fn empty_window_table_has_unit_gains() {
        let t = WindowTable::new(Window::Hann, 0);
        assert!(t.is_empty());
        assert_eq!(t.energy_gain(), 1.0);
    }
}
