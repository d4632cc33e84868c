//! Sample-rate conversion.
//!
//! Two families of operations:
//!
//! * **Decimation** ([`decimate`]) — keep a subset of samples. This models
//!   what a *monitoring system* does when it polls less often: no anti-alias
//!   filter protects it, which is precisely how aliasing arises in practice
//!   (§2 of the paper).
//! * **Fourier resampling** ([`resample_fft`]) — the ideal band-limited
//!   conversion used for reconstruction (§4.3): pad or truncate the spectrum
//!   and inverse-transform.

use crate::complex::Complex64;
use crate::fft::{one_sided_len, FftPlanner};

/// Keeps every `factor`-th sample, starting with the first.
///
/// No anti-alias filtering — by design (see module docs).
///
/// # Panics
/// Panics if `factor == 0`.
pub fn decimate(samples: &[f64], factor: usize) -> Vec<f64> {
    assert!(factor > 0, "decimation factor must be positive");
    samples.iter().step_by(factor).copied().collect()
}

/// Ideal Fourier resampling of a real signal to `new_len` points spanning the
/// same duration.
///
/// Upsampling zero-pads the spectrum (band-limited interpolation); downsampling
/// truncates it, which applies an ideal anti-alias low-pass at the new Nyquist
/// frequency. The even-length Nyquist bin is split/merged so the output stays
/// real. Energy is scaled so amplitudes are preserved.
///
/// Both the analysis and the synthesis run one-sided through the real-input
/// FFT fast path: the source's one-sided spectrum is mapped onto the
/// target's one-sided grid (the mirror half is implied by conjugate
/// symmetry) and inverse-transformed with the packed real inverse.
///
/// # Panics
/// Panics if `samples` is empty or `new_len == 0`.
pub fn resample_fft(planner: &mut FftPlanner, samples: &[f64], new_len: usize) -> Vec<f64> {
    assert!(!samples.is_empty(), "cannot resample an empty signal");
    assert!(new_len > 0, "new_len must be positive");
    let n = samples.len();
    if new_len == n {
        return samples.to_vec();
    }
    let mut spec = Vec::with_capacity(one_sided_len(n));
    planner.fft_real_into(samples, &mut spec);
    let m = new_len;
    let mut out_spec = vec![Complex64::ZERO; one_sided_len(m)];

    // Number of strictly-positive frequencies shared by both lengths.
    let keep_pos = ((n - 1) / 2).min((m - 1) / 2);
    out_spec[0] = spec[0];
    out_spec[1..=keep_pos].copy_from_slice(&spec[1..=keep_pos]);
    if m > n {
        // Upsampling: if n is even, its Nyquist bin must be split between the
        // two mirrored positions of the longer spectrum (the mirror half of
        // the one-sided target carries the conjugate implicitly).
        if n.is_multiple_of(2) {
            out_spec[n / 2] = spec[n / 2].scale(0.5);
        }
    } else {
        // Downsampling: if m is even, fold the two source bins that map onto
        // the new Nyquist position (they are conjugates, so the sum is the
        // real `2·Re`). Summing — not averaging — makes up-then-down an
        // exact inverse and matches true decimation of a Nyquist-frequency
        // cosine.
        if m.is_multiple_of(2) {
            out_spec[m / 2] = Complex64::from_real(2.0 * spec[m / 2].re);
        }
    }
    let scale = m as f64 / n as f64;
    for c in &mut out_spec {
        *c = c.scale(scale);
    }
    let mut out = Vec::with_capacity(m);
    planner.ifft_real_into(&out_spec, m, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn tone(n: usize, fs: f64, f: f64) -> Vec<f64> {
        (0..n).map(|i| (2.0 * PI * f * i as f64 / fs).sin()).collect()
    }

    #[test]
    fn decimate_basic() {
        let v: Vec<f64> = (0..10).map(|i| i as f64).collect();
        assert_eq!(decimate(&v, 3), vec![0.0, 3.0, 6.0, 9.0]);
        assert_eq!(decimate(&v, 1), v);
    }

    #[test]
    fn decimate_empty() {
        assert!(decimate(&[], 4).is_empty());
    }

    #[test]
    fn resample_identity_when_len_unchanged() {
        let mut p = FftPlanner::new();
        let v = tone(64, 8.0, 1.0);
        assert_eq!(resample_fft(&mut p, &v, 64), v);
    }

    #[test]
    fn upsample_preserves_tone() {
        let mut p = FftPlanner::new();
        let fs = 32.0;
        let n = 128;
        let v = tone(n, fs, 3.0);
        let up = resample_fft(&mut p, &v, 4 * n);
        assert_eq!(up.len(), 4 * n);
        // The upsampled signal must match the analytic tone at the new rate.
        let want = tone(4 * n, 4.0 * fs, 3.0);
        let err: f64 = up
            .iter()
            .zip(&want)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            / up.len() as f64;
        assert!(err < 1e-6, "MSE {err}");
    }

    #[test]
    fn downsample_above_nyquist_preserves_tone() {
        let mut p = FftPlanner::new();
        // 1 Hz tone at 64 Hz → resample to 8 Hz (still > 2 Hz Nyquist rate).
        let v = tone(640, 64.0, 1.0);
        let down = resample_fft(&mut p, &v, 80);
        let want = tone(80, 8.0, 1.0);
        let err: f64 = down
            .iter()
            .zip(&want)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            / down.len() as f64;
        assert!(err < 1e-6, "MSE {err}");
    }

    #[test]
    fn down_then_up_roundtrip_for_bandlimited() {
        let mut p = FftPlanner::new();
        // Band-limited: tones at 1 and 2 Hz, original 64 Hz, down to 8 Hz.
        let n = 512;
        let fs = 64.0;
        let v: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                (2.0 * PI * t).sin() + 0.5 * (4.0 * PI * t).cos()
            })
            .collect();
        let down = resample_fft(&mut p, &v, n / 8);
        let up = resample_fft(&mut p, &down, n);
        let err: f64 = up
            .iter()
            .zip(&v)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            / n as f64;
        assert!(err < 1e-9, "round-trip MSE {err}");
    }

    #[test]
    fn downsample_below_nyquist_loses_energy() {
        let mut p = FftPlanner::new();
        // 20 Hz tone at 64 Hz; resampling to 8 Hz (Nyquist 4 Hz) must kill it.
        let v = tone(640, 64.0, 20.0);
        let down = resample_fft(&mut p, &v, 80);
        let power: f64 = down.iter().map(|x| x * x).sum::<f64>() / down.len() as f64;
        assert!(power < 1e-9, "anti-alias filter leaked power {power}");
    }

    #[test]
    fn resample_handles_odd_lengths() {
        let mut p = FftPlanner::new();
        let v = tone(101, 10.0, 1.0);
        let up = resample_fft(&mut p, &v, 303);
        assert_eq!(up.len(), 303);
        let down = resample_fft(&mut p, &up, 101);
        let err: f64 = down
            .iter()
            .zip(&v)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            / v.len() as f64;
        assert!(err < 1e-9, "odd round-trip MSE {err}");
    }

    #[test]
    fn dc_preserved_by_resampling() {
        let mut p = FftPlanner::new();
        let v = vec![5.0; 100];
        for m in [10usize, 50, 200, 333] {
            let out = resample_fft(&mut p, &v, m);
            assert!(
                out.iter().all(|&x| (x - 5.0).abs() < 1e-9),
                "DC broken at m={m}"
            );
        }
    }
}
