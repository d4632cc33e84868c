//! Property-based tests for the DSP substrate.
//!
//! These pin down the algebraic invariants the rest of the workspace relies
//! on: transforms that round-trip, energy that is conserved, estimators that
//! stay within physical bounds.

use proptest::prelude::*;
use sweetspot_dsp::fft::{dft_naive, one_sided_len, FftPlanner};
use sweetspot_dsp::interp::Interp;
use sweetspot_dsp::quantize::Quantizer;
use sweetspot_dsp::resample::resample_fft;
use sweetspot_dsp::spectrum::Spectrum;
use sweetspot_dsp::stats::{percentile, Cdf, FiveNumber};
use sweetspot_dsp::Complex64;

fn signal_strategy(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e3f64..1e3, 1..max_len)
}

fn complex_signal_strategy(max_len: usize) -> impl Strategy<Value = Vec<Complex64>> {
    prop::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 1..max_len)
        .prop_map(|v| v.into_iter().map(|(re, im)| Complex64::new(re, im)).collect())
}

/// `true` when `n ≥ 1` has no prime factor above 5.
fn is_smooth(mut n: usize) -> bool {
    for p in [2, 3, 5] {
        while n.is_multiple_of(p) {
            n /= p;
        }
    }
    n == 1
}

/// Band powers the slow way: one full scan of the spectrum per band, with
/// the closed-band predicate `band_powers_into` must reproduce.
fn band_powers_by_scan(s: &Spectrum, band_width: f64, bands: usize) -> Vec<f64> {
    (0..bands)
        .map(|k| {
            let lo = k as f64 * band_width;
            let hi = (k + 1) as f64 * band_width * (1.0 - 1e-12);
            s.power()
                .iter()
                .enumerate()
                .filter(|&(i, _)| {
                    let f = s.frequency_of_bin(i);
                    f >= lo && f <= hi
                })
                .map(|(_, &p)| p)
                .sum()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn band_sweep_is_bit_identical_to_per_band_scans(
        power in prop::collection::vec(0f64..1e3, 2..200),
        octave in -3i32..4,
        step in 1usize..6,
        bands in 2usize..80,
        split in 0.05f64..1.0,
    ) {
        let bins = power.len();
        // Even and odd segment lengths with the same bin count.
        for n in [2 * (bins - 1), 2 * bins - 1] {
            // A power-of-two resolution keeps every bin frequency exact, so
            // with `step` bins per band every `step`-th bin sits exactly on
            // a band edge.
            let resolution = 2f64.powi(octave);
            let s = Spectrum::from_psd(power.clone(), n as f64 * resolution, n);
            let on_edges = step as f64 * resolution;
            let detector = s.folding_frequency() / bands as f64;
            // Up to 1.9× the folding frequency in total: the upper bands
            // extend past the last bin.
            let arbitrary = split * 1.9 * s.folding_frequency() / bands as f64;
            let mut out = Vec::new();
            for band_width in [on_edges, detector, arbitrary] {
                for count in [bands, 1] {
                    s.band_powers_into(band_width, count, &mut out);
                    let want = band_powers_by_scan(&s, band_width, count);
                    prop_assert_eq!(out.len(), count);
                    for (k, (got, want)) in out.iter().zip(&want).enumerate() {
                        prop_assert!(
                            got.to_bits() == want.to_bits(),
                            "n={} bw={} band {}: {} vs {}", n, band_width, k, got, want
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fft_roundtrip_is_identity(sig in complex_signal_strategy(200)) {
        let mut planner = FftPlanner::new();
        let mut buf = sig.clone();
        planner.fft_in_place(&mut buf);
        planner.ifft_in_place(&mut buf);
        for (a, b) in sig.iter().zip(&buf) {
            prop_assert!((a.re - b.re).abs() < 1e-6);
            prop_assert!((a.im - b.im).abs() < 1e-6);
        }
    }

    #[test]
    fn fft_matches_naive_dft(sig in complex_signal_strategy(48)) {
        let mut planner = FftPlanner::new();
        let expected = dft_naive(&sig);
        let mut buf = sig;
        planner.fft_in_place(&mut buf);
        for (a, b) in buf.iter().zip(&expected) {
            prop_assert!((a.re - b.re).abs() < 1e-5);
            prop_assert!((a.im - b.im).abs() < 1e-5);
        }
    }

    #[test]
    fn parseval_holds(sig in complex_signal_strategy(150)) {
        let mut planner = FftPlanner::new();
        let n = sig.len() as f64;
        let time_energy: f64 = sig.iter().map(|c| c.norm_sqr()).sum();
        let mut buf = sig;
        planner.fft_in_place(&mut buf);
        let freq_energy: f64 = buf.iter().map(|c| c.norm_sqr()).sum::<f64>() / n;
        let tol = 1e-9 * time_energy.max(1.0);
        prop_assert!((time_energy - freq_energy).abs() < tol);
    }

    #[test]
    fn rfft_matches_complex_fft(sig in signal_strategy(300)) {
        // Lengths 1..300 cover the packed fast path over every inner plan
        // (power-of-two, mixed-radix and Bluestein halves) plus the
        // odd-length fallback.
        let mut planner = FftPlanner::new();
        let n = sig.len();
        let mut one_sided = Vec::new();
        planner.fft_real_into(&sig, &mut one_sided);
        prop_assert_eq!(one_sided.len(), one_sided_len(n));
        let mut full: Vec<Complex64> = sig.iter().map(|&x| Complex64::from_real(x)).collect();
        planner.fft_in_place(&mut full);
        let scale = sig.iter().map(|x| x.abs()).fold(1.0, f64::max);
        let tol = 1e-9 * scale * n as f64;
        for (k, c) in one_sided.iter().enumerate() {
            prop_assert!((c.re - full[k].re).abs() < tol, "bin {}: {} vs {}", k, c.re, full[k].re);
            prop_assert!((c.im - full[k].im).abs() < tol, "bin {}: {} vs {}", k, c.im, full[k].im);
        }
    }

    #[test]
    fn rfft_inverse_roundtrips(sig in signal_strategy(300)) {
        let mut planner = FftPlanner::new();
        let mut spec = Vec::new();
        planner.fft_real_into(&sig, &mut spec);
        let mut back = Vec::new();
        planner.ifft_real_into(&spec, sig.len(), &mut back);
        let scale = sig.iter().map(|x| x.abs()).fold(1.0, f64::max);
        for (a, b) in sig.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-8 * scale, "{} vs {}", a, b);
        }
    }

    #[test]
    fn rfft_inverse_roundtrips_on_smooth_lengths(sig in signal_strategy(800)) {
        // Truncate to the longest 2^a·3^b·5^c prefix: the lengths the
        // mixed-radix plans serve (both directly and as real halves).
        let n = (1..=sig.len()).rev().find(|&n| is_smooth(n)).expect("1 is smooth");
        let sig = &sig[..n];
        let mut planner = FftPlanner::new();
        let mut spec = Vec::new();
        planner.fft_real_into(sig, &mut spec);
        let mut back = Vec::new();
        planner.ifft_real_into(&spec, n, &mut back);
        let scale = sig.iter().map(|x| x.abs()).fold(1.0, f64::max);
        prop_assert_eq!(back.len(), n);
        for (a, b) in sig.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-9 * scale, "n={}: {} vs {}", n, a, b);
        }
    }

    #[test]
    fn real_fft_is_conjugate_symmetric(sig in signal_strategy(120)) {
        let mut planner = FftPlanner::new();
        let mut spec: Vec<Complex64> = sig.iter().map(|&x| Complex64::from_real(x)).collect();
        planner.fft_in_place(&mut spec);
        let n = sig.len();
        let scale = sig.iter().map(|x| x.abs()).fold(1.0, f64::max);
        for k in 1..n {
            let a = spec[k];
            let b = spec[n - k].conj();
            prop_assert!((a.re - b.re).abs() < 1e-7 * scale * n as f64);
            prop_assert!((a.im - b.im).abs() < 1e-7 * scale * n as f64);
        }
    }

    #[test]
    fn upsample_then_downsample_is_identity(
        sig in signal_strategy(100),
        factor in 2usize..5,
    ) {
        let mut planner = FftPlanner::new();
        let up = resample_fft(&mut planner, &sig, sig.len() * factor);
        let down = resample_fft(&mut planner, &up, sig.len());
        let scale = sig.iter().map(|x| x.abs()).fold(1.0, f64::max);
        for (a, b) in sig.iter().zip(&down) {
            prop_assert!((a - b).abs() < 1e-6 * scale, "{a} vs {b}");
        }
    }

    #[test]
    fn quantizer_idempotent_and_bounded(
        xs in signal_strategy(100),
        step in 1e-3f64..10.0,
    ) {
        let q = Quantizer::new(step);
        for &x in &xs {
            let once = q.quantize(x);
            prop_assert_eq!(q.quantize(once), once);
            prop_assert!((once - x).abs() <= step / 2.0 + 1e-9 * x.abs().max(1.0));
        }
    }

    #[test]
    fn interp_exact_on_grid(sig in signal_strategy(60), fs in 0.1f64..100.0) {
        for method in [Interp::Nearest, Interp::PreviousHold, Interp::Linear] {
            for (i, &want) in sig.iter().enumerate() {
                let got = method.at(&sig, fs, i as f64 / fs);
                prop_assert!((got - want).abs() < 1e-9 * want.abs().max(1.0));
            }
        }
    }

    #[test]
    fn percentile_within_bounds(xs in signal_strategy(80), p in 0.0f64..=100.0) {
        let v = percentile(&xs, p);
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
    }

    #[test]
    fn cdf_is_monotone(xs in signal_strategy(80)) {
        let cdf = Cdf::new(xs);
        let pts = cdf.points();
        for w in pts.windows(2) {
            prop_assert!(w[1].0 >= w[0].0);
            prop_assert!(w[1].1 >= w[0].1);
        }
        if let Some(last) = pts.last() {
            prop_assert!((last.1 - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn five_number_is_ordered(xs in signal_strategy(80)) {
        let f = FiveNumber::of(&xs);
        prop_assert!(f.min <= f.q1 && f.q1 <= f.median);
        prop_assert!(f.median <= f.q3 && f.q3 <= f.max);
    }
}
