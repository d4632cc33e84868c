//! Figures 6 and 7: dynamic adaptation on a temperature signal.
//!
//! A week of 5-minute temperature data with a mid-run link-flap episode: the
//! moving-window tracker infers the Nyquist rate over time (Figure 7), the
//! trace is downsampled to the inferred rate and reconstructed (Figure 6),
//! and the §4.2 controller runs live against the same device to show the
//! probe→steady→decrease cycle.
//!
//! ```sh
//! cargo run --release --example adaptive_temperature
//! ```

use sweetspot::analysis::experiments::{fig6, fig7};
use sweetspot::monitor::device::{DeviceSource, PollScratch, SimDevice};
use sweetspot::prelude::*;

fn main() {
    let seed = 0xF16;

    // Figure 7 first: the rate the signal *needs*, over time.
    println!("{}", fig7::run(seed, 7.0).render());

    // Figure 6: downsample to the inferred rate, reconstruct, compare.
    println!("{}", fig6::run(seed, 7.0).render());

    // And the §4.2 controller driving the same device live.
    let device = fig6::evented_device(seed);
    let mut sim = SimDevice::new(device);
    let mut controller = AdaptiveSampler::new(AdaptiveConfig {
        initial_rate: Hertz(1.0 / 300.0), // start at today's 5-minute polling
        min_rate: Hertz(1e-6),
        max_rate: Hertz(1.0 / 30.0),
        epoch: Seconds::from_hours(12.0),
        ..AdaptiveConfig::default()
    });
    let reports = {
        let mut source = DeviceSource {
            device: &mut sim,
            scratch: &mut PollScratch::new(),
        };
        controller.run(&mut source, Seconds::from_days(7.0))
    };

    println!("§4.2 adaptive controller, 12-hour epochs over one week:");
    println!("  epoch  start      mode    rate         aliased  estimate");
    for r in &reports {
        println!(
            "  {:>5}  {:>8}  {:<6}  {:>11}  {:<7}  {}",
            r.index,
            format!("{:.1}d", r.start.value() / 86_400.0),
            format!("{:?}", r.mode),
            r.primary_rate.to_string(),
            r.aliased,
            r.estimate.map_or("—".into(), |e| e.to_string()),
        );
    }
    let total: usize = reports.iter().map(|r| r.samples_taken).sum();
    let fixed = (7.0 * 86_400.0 / 300.0) as usize;
    println!(
        "\n  controller acquired {total} samples (incl. verification stream); \
         fixed 5-minute polling would take {fixed}."
    );
}
