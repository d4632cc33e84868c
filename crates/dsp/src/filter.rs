//! Filtering primitives.
//!
//! The paper's reconstruction (§4.3) is an ideal ("brick-wall") low-pass in
//! the frequency domain: FFT, zero every component above the cutoff, IFFT.
//! [`fft_lowpass`] implements exactly that. The small-amplitude-noise
//! suppression mentioned in §4.1 is covered by [`moving_average`],
//! [`single_pole_lowpass`] and [`median_filter`].

use crate::fft::{FftPlanner, FftScratch};

/// Ideal low-pass: keeps frequency content in `[0, cutoff_hz]`, zeroes the
/// rest, and returns the re-synthesized time-domain signal.
///
/// This is the paper's reconstruction filter (§4.3): *"taking an FFT of the
/// sampled signal, setting all frequency components above f₀ to 0 and then
/// taking the IFFT"*. The filter runs one-sided through the real-input FFT
/// fast path; zeroing a one-sided bin zeroes its negative twin implicitly,
/// so the output stays real by construction.
///
/// # Panics
/// Panics if `samples` is empty, `sample_rate <= 0`, or `cutoff_hz < 0`.
pub fn fft_lowpass(
    planner: &mut FftPlanner,
    samples: &[f64],
    sample_rate: f64,
    cutoff_hz: f64,
) -> Vec<f64> {
    assert!(!samples.is_empty(), "cannot filter an empty signal");
    assert!(sample_rate > 0.0, "sample_rate must be positive");
    assert!(cutoff_hz >= 0.0, "cutoff must be non-negative");
    let n = samples.len();
    let mut scratch = FftScratch::new();
    let mut spec = Vec::with_capacity(crate::fft::one_sided_len(n));
    planner.fft_real_into(samples, &mut spec, &mut scratch);
    let resolution = sample_rate / n as f64;
    for (k, c) in spec.iter_mut().enumerate() {
        if k as f64 * resolution > cutoff_hz {
            *c = crate::Complex64::ZERO;
        }
    }
    let mut out = Vec::with_capacity(n);
    planner.ifft_real_into(&spec, n, &mut out, &mut scratch);
    out
}

/// Centered moving average of odd width `window` (edges use the available
/// neighborhood, so output length equals input length).
///
/// # Panics
/// Panics if `window` is zero or even.
pub fn moving_average(samples: &[f64], window: usize) -> Vec<f64> {
    assert!(window % 2 == 1 && window > 0, "window must be odd and positive");
    let half = window / 2;
    let n = samples.len();
    (0..n)
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(n);
            samples[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        })
        .collect()
}

/// First-order (single-pole) IIR low-pass: `y[i] = α·x[i] + (1−α)·y[i−1]`.
///
/// `alpha` in `(0, 1]`; 1.0 passes the signal through unchanged.
///
/// # Panics
/// Panics unless `0 < alpha <= 1`.
pub fn single_pole_lowpass(samples: &[f64], alpha: f64) -> Vec<f64> {
    assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1], got {alpha}");
    let mut out = Vec::with_capacity(samples.len());
    let mut y = match samples.first() {
        Some(&x) => x,
        None => return out,
    };
    for &x in samples {
        y = alpha * x + (1.0 - alpha) * y;
        out.push(y);
    }
    out
}

/// The `alpha` for [`single_pole_lowpass`] whose −3 dB point sits at
/// `cutoff_hz` for a signal sampled at `sample_rate`.
///
/// # Panics
/// Panics if either rate is not positive.
pub fn alpha_for_cutoff(cutoff_hz: f64, sample_rate: f64) -> f64 {
    assert!(cutoff_hz > 0.0 && sample_rate > 0.0, "rates must be positive");
    let rc = 1.0 / (2.0 * std::f64::consts::PI * cutoff_hz);
    let dt = 1.0 / sample_rate;
    dt / (rc + dt)
}

/// Centered median filter of odd width `window` — robust spike suppression
/// (the "noise especially of a small amplitude can be filtered" remark in
/// §4.1). Edges use the available neighborhood.
///
/// # Panics
/// Panics if `window` is zero or even.
pub fn median_filter(samples: &[f64], window: usize) -> Vec<f64> {
    assert!(window % 2 == 1 && window > 0, "window must be odd and positive");
    let half = window / 2;
    let n = samples.len();
    let mut scratch: Vec<f64> = Vec::with_capacity(window);
    (0..n)
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(n);
            scratch.clear();
            scratch.extend_from_slice(&samples[lo..hi]);
            scratch.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            scratch[scratch.len() / 2]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn two_tone(n: usize, fs: f64, f1: f64, f2: f64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                (2.0 * PI * f1 * t).sin() + (2.0 * PI * f2 * t).sin()
            })
            .collect()
    }

    #[test]
    fn lowpass_removes_high_tone_keeps_low_tone() {
        let mut p = FftPlanner::new();
        let fs = 1000.0;
        let n = 1000;
        let sig = two_tone(n, fs, 10.0, 200.0);
        let filtered = fft_lowpass(&mut p, &sig, fs, 50.0);
        let want: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * 10.0 * i as f64 / fs).sin())
            .collect();
        let err: f64 = filtered
            .iter()
            .zip(&want)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            / n as f64;
        assert!(err < 1e-18, "residual {err}");
    }

    #[test]
    fn lowpass_with_cutoff_above_nyquist_is_identity() {
        let mut p = FftPlanner::new();
        let sig = two_tone(512, 100.0, 3.0, 30.0);
        let out = fft_lowpass(&mut p, &sig, 100.0, 50.0);
        for (a, b) in out.iter().zip(&sig) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn lowpass_zero_cutoff_keeps_only_dc() {
        let mut p = FftPlanner::new();
        let sig: Vec<f64> = (0..64).map(|i| (i as f64 * 0.3).sin() + 5.0).collect();
        let out = fft_lowpass(&mut p, &sig, 1.0, 0.0);
        let mean = sig.iter().sum::<f64>() / sig.len() as f64;
        for v in out {
            assert!((v - mean).abs() < 1e-9);
        }
    }

    #[test]
    fn lowpass_output_is_real_for_odd_lengths() {
        let mut p = FftPlanner::new();
        let sig = two_tone(501, 100.0, 2.0, 40.0);
        let out = fft_lowpass(&mut p, &sig, 100.0, 10.0);
        assert_eq!(out.len(), 501);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn moving_average_flattens_constant() {
        let v = vec![4.0; 20];
        assert_eq!(moving_average(&v, 5), v);
    }

    #[test]
    fn moving_average_window_one_is_identity() {
        let v: Vec<f64> = (0..10).map(|i| i as f64).collect();
        assert_eq!(moving_average(&v, 1), v);
    }

    #[test]
    fn moving_average_attenuates_alternation() {
        let v: Vec<f64> = (0..32).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let out = moving_average(&v, 3);
        // Interior of an alternating ±1 with width 3 is ±1/3.
        for &x in &out[1..31] {
            assert!(x.abs() < 0.34);
        }
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn moving_average_even_window_panics() {
        moving_average(&[1.0, 2.0], 2);
    }

    #[test]
    fn single_pole_alpha_one_is_identity() {
        let v: Vec<f64> = (0..10).map(|i| (i as f64).sin()).collect();
        assert_eq!(single_pole_lowpass(&v, 1.0), v);
    }

    #[test]
    fn single_pole_converges_to_step() {
        let mut v = vec![0.0; 5];
        v.extend(vec![1.0; 200]);
        let out = single_pole_lowpass(&v, 0.1);
        assert!((out.last().unwrap() - 1.0).abs() < 1e-6);
        // Monotone rise after the step.
        for w in out[5..].windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
    }

    #[test]
    fn alpha_for_cutoff_in_unit_interval() {
        let a = alpha_for_cutoff(1.0, 100.0);
        assert!(a > 0.0 && a < 1.0);
        // Higher cutoff ⇒ larger alpha (less smoothing).
        assert!(alpha_for_cutoff(10.0, 100.0) > a);
    }

    #[test]
    fn median_filter_removes_isolated_spike() {
        let mut v = vec![1.0; 21];
        v[10] = 100.0;
        let out = median_filter(&v, 3);
        assert!(out.iter().all(|&x| (x - 1.0).abs() < 1e-12));
    }

    #[test]
    fn median_filter_preserves_step_edge() {
        let mut v = vec![0.0; 10];
        v.extend(vec![1.0; 10]);
        let out = median_filter(&v, 5);
        assert_eq!(out[0], 0.0);
        assert_eq!(out[19], 1.0);
        // A median filter keeps a monotone step monotone.
        for w in out.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn filters_handle_empty_input() {
        assert!(moving_average(&[], 3).is_empty());
        assert!(single_pole_lowpass(&[], 0.5).is_empty());
        assert!(median_filter(&[], 3).is_empty());
    }
}
