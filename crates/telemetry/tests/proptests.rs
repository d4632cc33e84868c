//! Property-based tests for the synthetic telemetry generator.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::f64::consts::PI;
use sweetspot_telemetry::model::{SignalModel, Tone, ToneBank};
use sweetspot_telemetry::noise::Impairments;
use sweetspot_telemetry::{DeviceTrace, MetricKind, MetricProfile};
use sweetspot_timeseries::{Hertz, Seconds};

/// The sample-major oscillator-bank kernel that `ToneBank::accumulate`
/// replaced, kept verbatim as the bit-exact reference: one running sum per
/// sample, over the tones in order, with the bank's exact re-seed cadence
/// and phasor recurrence. The parameters are set up the way
/// `ToneBank::load` sets them up.
fn sample_major_reference(tones: &[Tone], start: Seconds, interval: Seconds, out: &mut [f64]) {
    let n = tones.len();
    let mut amp = Vec::with_capacity(n);
    let mut theta0 = Vec::with_capacity(n);
    let mut dtheta = Vec::with_capacity(n);
    let mut rot_cos = Vec::with_capacity(n);
    let mut rot_sin = Vec::with_capacity(n);
    for tone in tones {
        let w = 2.0 * PI * tone.freq;
        amp.push(tone.amp);
        theta0.push(w * start.value() + tone.phase);
        let d = w * interval.value();
        dtheta.push(d);
        let (s, c) = d.sin_cos();
        rot_cos.push(c);
        rot_sin.push(s);
    }
    let mut cur_sin = vec![0.0; n];
    let mut cur_cos = vec![0.0; n];
    let mut k = 0;
    while k < out.len() {
        let chunk_end = (k + ToneBank::RENORM_INTERVAL).min(out.len());
        for i in 0..n {
            let (s, c) = (theta0[i] + k as f64 * dtheta[i]).sin_cos();
            cur_sin[i] = s;
            cur_cos[i] = c;
        }
        for v in &mut out[k..chunk_end] {
            let mut acc = 0.0;
            for i in 0..n {
                let (s, c) = (cur_sin[i], cur_cos[i]);
                acc += amp[i] * s;
                cur_sin[i] = s * rot_cos[i] + c * rot_sin[i];
                cur_cos[i] = c * rot_cos[i] - s * rot_sin[i];
            }
            *v += acc;
        }
        k = chunk_end;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn band_limited_model_pins_the_edge(
        seed in 0u64..1000,
        edge in 1e-6f64..1e-2,
        amp in 0.1f64..100.0,
        diurnal in 0f64..1.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = SignalModel::band_limited(&mut rng, Hertz(edge), 0.0, amp, diurnal, 16);
        prop_assert!((m.band_edge().value() - edge).abs() < 1e-15);
        // No tone exceeds the requested edge.
        for t in m.tones() {
            prop_assert!(t.freq <= edge * (1.0 + 1e-12));
        }
    }

    #[test]
    fn model_stays_within_mean_plus_amplitude(
        seed in 0u64..500,
        mean in -100f64..100.0,
        amp in 0.1f64..50.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = SignalModel::band_limited(&mut rng, Hertz(1e-3), mean, amp, 0.3, 12);
        let bound = m.total_amplitude();
        for k in 0..200 {
            let v = m.value_at(k as f64 * 137.0);
            prop_assert!(
                (v - mean).abs() <= bound + 1e-9,
                "value {v} exceeds mean {mean} ± {bound}"
            );
        }
    }

    #[test]
    fn device_synthesis_is_pure(
        metric_idx in 0usize..14,
        device_idx in 0usize..50,
        seed in 0u64..100,
    ) {
        let profile = MetricProfile::for_kind(MetricKind::ALL[metric_idx]);
        let a = DeviceTrace::synthesize(profile, device_idx, seed);
        let b = DeviceTrace::synthesize(profile, device_idx, seed);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn well_sampled_devices_are_recoverable(
        metric_idx in 0usize..14,
        device_idx in 0usize..30,
    ) {
        let profile = MetricProfile::for_kind(MetricKind::ALL[metric_idx]);
        let dev = DeviceTrace::synthesize(profile, device_idx, 0xBEEF);
        if !dev.is_undersampled_at_production_rate() {
            // The whole point of "well-sampled": the true band edge sits
            // below the production folding frequency.
            prop_assert!(
                dev.true_band_edge().value() < profile.folding_frequency().value()
            );
        } else {
            prop_assert!(
                dev.true_band_edge().value() > profile.folding_frequency().value()
            );
        }
    }

    #[test]
    fn impairments_never_invent_samples(
        drop in 0f64..0.5,
        jitter in 0f64..0.4,
        seed in 0u64..100,
    ) {
        let dev = DeviceTrace::synthesize(
            MetricProfile::for_kind(MetricKind::LinkUtil),
            0,
            seed,
        );
        let truth = dev.ground_truth(Hertz(1.0 / 30.0), Seconds::from_hours(2.0));
        let imp = Impairments {
            drop_prob: drop,
            jitter_frac: jitter,
            ..Impairments::none()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let out = imp.apply(&mut rng, &truth);
        prop_assert!(out.len() <= truth.len());
        // Timestamps stay within half an interval of their origin slot.
        for (t, _) in out.iter() {
            let slot = ((t.value() - truth.start().value()) / 30.0).round();
            prop_assert!(
                (t.value() - truth.start().value() - slot * 30.0).abs() <= 0.4 * 30.0 + 1e-9
            );
        }
    }

    /// The oscillator-bank recurrence must track direct `Tone::value_at`
    /// evaluation to 1e-9 (relative to the model's amplitude scale) over
    /// day-length traces, both at the production polling rate and at 3× the
    /// production *folding* frequency — the fastest grid an under-sampled
    /// device's band edge (up to 3× folding) ever demands. This pins
    /// `ToneBank::RENORM_INTERVAL`: drift grows with the interval, so a too
    /// lax re-seed cadence fails exactly this bound.
    #[test]
    fn oscillator_bank_matches_direct_evaluation(
        seed in 0u64..500,
        metric_idx in 0usize..14,
        device_idx in 0usize..20,
    ) {
        let profile = MetricProfile::for_kind(MetricKind::ALL[metric_idx]);
        let dev = DeviceTrace::synthesize(profile, device_idx, seed);
        let model = dev.model();
        let day = Seconds::from_days(1.0);
        let production = profile.production_rate();
        let three_fold = Hertz(3.0 * profile.folding_frequency().value());
        let tol = 1e-9 * (1.0 + model.total_amplitude() + model.mean().abs());
        let mut bank = ToneBank::new();
        let mut fast = Vec::new();
        for rate in [production, three_fold] {
            model.sample_into(&mut bank, Seconds::ZERO, rate, day, &mut fast);
            let dt = rate.period().value();
            prop_assert!(!fast.is_empty());
            for (k, v) in fast.iter().enumerate() {
                let exact = model.value_at(k as f64 * dt);
                prop_assert!(
                    (v - exact).abs() <= tol,
                    "{}/dev{} rate {rate}: slot {k} drifted {} (tol {tol})",
                    profile.kind, device_idx, (v - exact).abs()
                );
            }
        }
    }

    #[test]
    fn quiet_devices_quantize_flat(seed in 0u64..200) {
        let profile = MetricProfile::for_kind(MetricKind::FcsErrors);
        for idx in 0..20 {
            let dev = DeviceTrace::synthesize(profile, idx, seed);
            if !dev.is_quiet() {
                continue;
            }
            let trace = dev.production_trace(Seconds::from_hours(6.0));
            let first = trace.values()[0];
            prop_assert!(
                trace.values().iter().all(|&v| v == first),
                "quiet device must be constant after quantization"
            );
        }
    }
}

proptest! {
    // Cheap cases (at most 40 tones × 1100 samples): run many, so every
    // group-width remainder and chunk boundary shows up.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `ToneBank::accumulate` must reproduce the sample-major reference
    /// bit for bit: tone counts that are not a multiple of the group width,
    /// grids that end mid-chunk and cross several re-seeds, and a non-zero
    /// `out` to add onto.
    #[test]
    fn oscillator_bank_is_bit_identical_to_the_sample_major_kernel(
        tones in prop::collection::vec((1e-6f64..5e-2, 0f64..50.0, 0f64..2.0 * PI), 1..41),
        len in 0usize..1101,
        (start, interval) in (0f64..1e6, 1f64..600.0),
        (base, slope) in (-100f64..100.0, -1f64..1.0),
    ) {
        let tones: Vec<Tone> = tones
            .into_iter()
            .map(|(freq, amp, phase)| Tone { freq, amp, phase })
            .collect();
        let (start, interval) = (Seconds(start), Seconds(interval));
        let initial: Vec<f64> = (0..len).map(|k| base + slope * k as f64).collect();
        let mut expected = initial.clone();
        sample_major_reference(&tones, start, interval, &mut expected);
        let mut bank = ToneBank::new();
        bank.load(&tones, start, interval);
        let mut got = initial;
        bank.accumulate(&mut got);
        for (k, (g, e)) in got.iter().zip(&expected).enumerate() {
            prop_assert!(
                g.to_bits() == e.to_bits(),
                "{} tones, {len} samples: slot {k} is {g:e}, reference {e:e}",
                tones.len()
            );
        }
    }
}
