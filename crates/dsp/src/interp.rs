//! Interpolation of regularly sampled signals at arbitrary time points.
//!
//! Used when reconstructing a signal from its (possibly downsampled) samples:
//! nearest-neighbour and zero-order hold model what a dashboard does today,
//! linear is the common pragmatic choice, and Whittaker–Shannon [`sinc`]
//! interpolation is the theoretically exact reconstruction of a band-limited
//! signal sampled above its Nyquist rate.

use std::f64::consts::PI;

/// Normalized sinc: `sin(πx)/(πx)`, with `sinc(0) = 1`.
pub fn sinc(x: f64) -> f64 {
    if x.abs() < 1e-12 {
        1.0
    } else {
        (PI * x).sin() / (PI * x)
    }
}

/// Interpolation method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Interp {
    /// Value of the closest sample in time.
    Nearest,
    /// Value of the most recent sample at or before `t` (zero-order hold).
    PreviousHold,
    /// Linear interpolation between bracketing samples.
    Linear,
    /// Whittaker–Shannon reconstruction. `half_width` truncates the kernel to
    /// that many samples on each side (`None` = full sum, exact but `O(N)`
    /// per point).
    Sinc {
        /// Kernel half-width in samples; `None` means the full-length sum.
        half_width: Option<usize>,
    },
}

impl Interp {
    /// Evaluates the reconstruction of `samples` (first sample at `t = 0`,
    /// spaced `1/sample_rate` apart) at time `t` seconds.
    ///
    /// Times outside the sampled span clamp to the edge values for the
    /// sample-holding methods, and use the (decaying) kernel tails for sinc.
    ///
    /// # Panics
    /// Panics if `samples` is empty or `sample_rate` is not positive.
    pub fn at(&self, samples: &[f64], sample_rate: f64, t: f64) -> f64 {
        assert!(!samples.is_empty(), "cannot interpolate an empty signal");
        assert!(sample_rate > 0.0, "sample_rate must be positive");
        let n = samples.len();
        let pos = grid_position(t, sample_rate);
        match *self {
            Interp::Nearest => {
                let idx = pos.round().clamp(0.0, (n - 1) as f64) as usize;
                samples[idx]
            }
            Interp::PreviousHold => {
                let idx = pos.floor().clamp(0.0, (n - 1) as f64) as usize;
                samples[idx]
            }
            Interp::Linear => {
                if pos <= 0.0 {
                    return samples[0];
                }
                if pos >= (n - 1) as f64 {
                    return samples[n - 1];
                }
                let lo = pos.floor() as usize;
                let frac = pos - lo as f64;
                samples[lo] * (1.0 - frac) + samples[lo + 1] * frac
            }
            Interp::Sinc { half_width } => {
                let (lo, hi) = match half_width {
                    Some(h) => {
                        let center = pos.round() as isize;
                        let lo = ((center - h as isize).max(0) as usize).min(n);
                        let hi = ((center + h as isize + 1).max(0) as usize).clamp(lo, n);
                        (lo, hi)
                    }
                    None => (0, n),
                };
                sinc_window_eval(samples, lo, hi, pos)
            }
        }
    }

    /// Evaluates the reconstruction at each time in `times` (seconds).
    ///
    /// For the truncated-sinc kernel over monotone (non-decreasing) `times`
    /// — the common resampling-onto-a-grid case — the kernel window is
    /// advanced incrementally across the record instead of being recomputed
    /// from scratch at every sample; results are identical to calling
    /// [`Interp::at`] per point.
    pub fn resample(&self, samples: &[f64], sample_rate: f64, times: &[f64]) -> Vec<f64> {
        if let Interp::Sinc {
            half_width: Some(h),
        } = *self
        {
            if times.windows(2).all(|w| w[0] <= w[1]) {
                return sinc_resample_monotone(samples, sample_rate, h, times);
            }
        }
        times
            .iter()
            .map(|&t| self.at(samples, sample_rate, t))
            .collect()
    }
}

/// Fractional sample index of time `t`, snapped to the grid when `t·fs`
/// lands within float round-off of an integer — otherwise `floor()`-based
/// methods would return the *previous* sample at exact grid points.
fn grid_position(t: f64, sample_rate: f64) -> f64 {
    let raw = t * sample_rate;
    let snapped = raw.round();
    if (raw - snapped).abs() < 1e-9 * snapped.abs().max(1.0) {
        snapped
    } else {
        raw
    }
}

/// Truncated-sinc evaluation of `samples[lo..hi]` at fractional position
/// `pos` — the shared kernel of [`Interp::at`] and the monotone resampling
/// fast path.
///
/// Deficit compensation: over all integers the sinc weights sum to exactly
/// 1, but a finite (or truncated) record loses the kernel tails, which
/// shows up as a large DC error on short records (the reconstruction of a
/// constant droops). Re-injecting the lost weight at the window's mean
/// level fixes that without disturbing long zero-mean records, where the
/// deficit correction vanishes.
fn sinc_window_eval(samples: &[f64], lo: usize, hi: usize, pos: f64) -> f64 {
    let window = &samples[lo..hi];
    if window.is_empty() {
        // The truncated kernel does not reach the record at all (query far
        // outside the sampled span): the full sum would be 0, so return
        // that rather than dividing by a zero-length window below.
        return 0.0;
    }
    let (weighted, weight, sum) =
        window
            .iter()
            .enumerate()
            .fold((0.0, 0.0, 0.0), |(ws, w, s), (i, &x)| {
                let k = sinc(pos - (lo + i) as f64);
                (ws + x * k, w + k, s + x)
            });
    let mean = sum / window.len() as f64;
    weighted + mean * (1.0 - weight)
}

/// Truncated-sinc evaluation over monotone query times: the `[lo, hi)`
/// kernel-window cursors only ever move right, so the per-sample span
/// search of [`Interp::at`] is hoisted out of the inner loop. Results are
/// identical to the pointwise path — both call [`sinc_window_eval`].
fn sinc_resample_monotone(samples: &[f64], sample_rate: f64, h: usize, times: &[f64]) -> Vec<f64> {
    assert!(!samples.is_empty(), "cannot interpolate an empty signal");
    assert!(sample_rate > 0.0, "sample_rate must be positive");
    let n = samples.len();
    let h = h as isize;
    let mut out = Vec::with_capacity(times.len());
    let mut lo = 0usize;
    let mut hi = 0usize;
    for &t in times {
        let pos = grid_position(t, sample_rate);
        let center = pos.round() as isize;
        while lo < n && (lo as isize) < center - h {
            lo += 1;
        }
        while hi < n && (hi as isize) < center + h + 1 {
            hi += 1;
        }
        out.push(sinc_window_eval(samples, lo, hi.max(lo), pos));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sinc_basics() {
        assert_eq!(sinc(0.0), 1.0);
        assert!(sinc(1.0).abs() < 1e-12);
        assert!(sinc(2.0).abs() < 1e-12);
        assert!((sinc(0.5) - 2.0 / PI).abs() < 1e-12);
    }

    #[test]
    fn all_methods_are_exact_on_sample_points() {
        let samples = [1.0, -2.0, 3.0, 0.5];
        let fs = 2.0;
        for m in [
            Interp::Nearest,
            Interp::PreviousHold,
            Interp::Linear,
            Interp::Sinc { half_width: None },
        ] {
            for (i, &want) in samples.iter().enumerate() {
                let got = m.at(&samples, fs, i as f64 / fs);
                assert!(
                    (got - want).abs() < 1e-9,
                    "{m:?} at sample {i}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn nearest_picks_closest() {
        let samples = [0.0, 10.0];
        assert_eq!(Interp::Nearest.at(&samples, 1.0, 0.4), 0.0);
        assert_eq!(Interp::Nearest.at(&samples, 1.0, 0.6), 10.0);
    }

    #[test]
    fn previous_hold_is_causal() {
        let samples = [0.0, 10.0];
        assert_eq!(Interp::PreviousHold.at(&samples, 1.0, 0.99), 0.0);
        assert_eq!(Interp::PreviousHold.at(&samples, 1.0, 1.0), 10.0);
    }

    #[test]
    fn linear_midpoint() {
        let samples = [0.0, 10.0];
        assert!((Interp::Linear.at(&samples, 1.0, 0.5) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn linear_clamps_out_of_range() {
        let samples = [2.0, 4.0, 8.0];
        assert_eq!(Interp::Linear.at(&samples, 1.0, -5.0), 2.0);
        assert_eq!(Interp::Linear.at(&samples, 1.0, 99.0), 8.0);
    }

    #[test]
    fn sinc_reconstructs_bandlimited_tone() {
        // 3 Hz tone sampled at 32 Hz — far above Nyquist. Sinc reconstruction
        // at off-grid points must match the analytic signal away from edges.
        let fs = 32.0;
        let n = 256;
        let f = 3.0;
        let samples: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * f * i as f64 / fs).sin())
            .collect();
        let m = Interp::Sinc { half_width: None };
        for k in 0..40 {
            let t = 2.0 + k as f64 * 0.083; // interior region
            let got = m.at(&samples, fs, t);
            let want = (2.0 * PI * f * t).sin();
            assert!((got - want).abs() < 1e-3, "t={t}: {got} vs {want}");
        }
    }

    #[test]
    fn truncated_sinc_approximates_full() {
        let fs = 16.0;
        let samples: Vec<f64> = (0..128)
            .map(|i| (2.0 * PI * 1.0 * i as f64 / fs).sin())
            .collect();
        let full = Interp::Sinc { half_width: None };
        let truncated = Interp::Sinc {
            half_width: Some(20),
        };
        let t = 4.03;
        // The sinc kernel decays like 1/x, so a 20-sample truncation leaves a
        // small but visible tail error.
        assert!((full.at(&samples, fs, t) - truncated.at(&samples, fs, t)).abs() < 0.1);
    }

    #[test]
    fn resample_at_times() {
        let samples = [0.0, 1.0, 2.0, 3.0];
        let out = Interp::Linear.resample(&samples, 1.0, &[0.5, 1.5, 2.5]);
        assert_eq!(out, vec![0.5, 1.5, 2.5]);
    }

    #[test]
    fn monotone_sinc_resample_matches_pointwise_at() {
        let fs = 8.0;
        let samples: Vec<f64> = (0..96)
            .map(|i| (2.0 * PI * 0.7 * i as f64 / fs).sin() + 0.3)
            .collect();
        let m = Interp::Sinc {
            half_width: Some(6),
        };
        // Monotone grid including out-of-span queries on both sides (the
        // incremental window must clamp exactly like `at` does).
        let times: Vec<f64> = (0..200).map(|i| -3.0 + i as f64 * 0.11).collect();
        let fast = m.resample(&samples, fs, &times);
        for (&t, &got) in times.iter().zip(&fast) {
            let want = m.at(&samples, fs, t);
            assert_eq!(got, want, "t={t}");
        }
    }

    #[test]
    fn non_monotone_sinc_resample_falls_back_correctly() {
        let samples: Vec<f64> = (0..32).map(|i| (i as f64 * 0.4).cos()).collect();
        let m = Interp::Sinc {
            half_width: Some(4),
        };
        let times = [5.0, 2.0, 7.3, 1.1];
        let out = m.resample(&samples, 1.0, &times);
        for (&t, &got) in times.iter().zip(&out) {
            assert_eq!(got, m.at(&samples, 1.0, t), "t={t}");
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_signal_panics() {
        Interp::Linear.at(&[], 1.0, 0.0);
    }

    #[test]
    fn truncated_sinc_far_outside_span_is_zero_not_nan() {
        let samples = [5.0, 6.0, 7.0, 8.0];
        let m = Interp::Sinc {
            half_width: Some(2),
        };
        // Query far before and far after the record: the truncated kernel
        // window is empty on both sides.
        for t in [-100.0, 100.0] {
            let v = m.at(&samples, 1.0, t);
            assert_eq!(v, 0.0, "t={t}: {v}");
        }
    }

    #[test]
    fn sinc_deficit_compensation_holds_dc_on_short_records() {
        // A constant signal must reconstruct exactly even from a 6-sample
        // record — the finite-record kernel deficit is re-injected at the
        // window mean (the regression behind the posteriori quality bug).
        let samples = [42.0; 6];
        for m in [
            Interp::Sinc { half_width: None },
            Interp::Sinc {
                half_width: Some(64),
            },
        ] {
            for k in 0..50 {
                let t = k as f64 * 0.11;
                let v = m.at(&samples, 1.0, t);
                assert!((v - 42.0).abs() < 1e-9, "{m:?} t={t}: {v}");
            }
        }
    }
}
