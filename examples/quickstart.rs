//! Quickstart: estimate a telemetry signal's Nyquist rate, downsample to it,
//! reconstruct, and check what was lost.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use sweetspot::prelude::*;
use sweetspot_dsp::fft::FftPlanner;

fn main() {
    // 1. A synthetic temperature device, polled the way operators do today
    //    (every 5 minutes). In production this trace would come from your
    //    monitoring system instead.
    let profile = MetricProfile::for_kind(MetricKind::Temperature);
    let device = DeviceTrace::synthesize(profile, 3, 42);
    let production_rate = profile.production_rate();
    let trace = device.ground_truth(production_rate, Seconds::from_days(4.0));
    println!(
        "device {}: {} samples at {} over 4 days",
        device.meta(),
        trace.len(),
        production_rate
    );

    // 2. What rate does the signal actually need? (§3.2 of the paper)
    let estimator = NyquistEstimator::paper_defaults();
    let nyquist = match estimator.estimate_series(&trace) {
        NyquistEstimate::Rate(rate) => {
            println!(
                "estimated Nyquist rate: {rate}  →  {:.0}x over-sampled today",
                production_rate / rate
            );
            rate
        }
        NyquistEstimate::Aliased => {
            println!("trace is already aliased — this device needs FASTER polling");
            return;
        }
    };

    // 3. Downsample to the Nyquist rate (with a little headroom), then
    //    reconstruct the full-rate signal via the paper's low-pass method
    //    (§4.3) and measure the damage.
    let mut planner = FftPlanner::new();
    let target = Hertz(nyquist.value() * 1.25);
    let (recon, report) = roundtrip(
        &mut planner,
        &trace,
        target,
        ReconstructionConfig::default(),
    );
    println!(
        "kept 1 of every {} samples; reconstructed {} points",
        report.factor,
        recon.len()
    );
    println!(
        "reconstruction error: L2 {:.3e}, interior NRMSE {:.3e}  (paper's Figure 6: L2 ≈ 0)",
        report.l2, report.interior_nrmse
    );

    // 4. Sanity-check with the dual-rate aliasing detector (§4.1): sample
    //    the device at a verification rate and at a non-integer companion
    //    rate (rate/φ); matching spectra below f2/2 mean nothing was lost.
    //    The companion stream only vouches for content below rate/(2φ), so
    //    verification needs ≥1.65× headroom over the Nyquist rate — the
    //    hidden cost of continuous verification (see
    //    `sweetspot::core::adaptive::MIN_VERIFY_HEADROOM`).
    //    The window must hold enough samples of the *slower* stream for a
    //    meaningful spectral comparison (the §4.2 controller enforces ≥64
    //    automatically; at these rates that is a few weeks of signal).
    let verify_rate = Hertz(nyquist.value() * sweetspot::core::adaptive::MIN_VERIFY_HEADROOM);
    let companion = sweetspot::core::aliasing::companion_rate(verify_rate);
    let window = Seconds(128.0 / companion.value());
    let fast = device.ground_truth(verify_rate, window);
    let slow = device.ground_truth(companion, window);
    let verdict = detect_aliasing(
        &mut SpectrumScratch::new(),
        &fast,
        &slow,
        DualRateConfig::default(),
    );
    println!(
        "dual-rate verification at {verify_rate}: aliased = {} (max discrepancy {:.3})",
        verdict.aliased, verdict.max_discrepancy
    );
}
