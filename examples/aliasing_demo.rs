//! Figures 2 and 3: what aliasing looks like.
//!
//! * Figure 2 — spectral copies: a tone sampled below its Nyquist rate folds
//!   to `|k·fs − f0|`, and the §3.2 estimator is fooled exactly as predicted.
//! * Figure 3 — the paper's worked example: 400 Hz + 440 Hz sampled at 890,
//!   800 and 600 Hz; spectra and reconstruction quality per variant.
//! * Plus the §4.1 dual-rate detector catching what a single trace cannot.
//!
//! ```sh
//! cargo run --release --example aliasing_demo
//! ```

use std::f64::consts::PI;
use sweetspot::analysis::experiments::{fig2, fig3};
use sweetspot::prelude::*;

fn main() {
    // Figure 2: a 100 Hz tone under four sampling rates.
    println!(
        "{}",
        fig2::run(100.0, &[400.0, 250.0, 150.0, 90.0], 4.0).render()
    );

    // Figure 3: the paper's 400+440 Hz two-tone example.
    println!("{}", fig3::run(2.0).render());

    // §4.1: the dual-rate detector sees what one trace cannot. Sample the
    // same 0.4 Hz signal at 1 Hz (clean) and 1/φ Hz (aliased): comparing the
    // two spectra flags the problem.
    let signal = |t: f64| (2.0 * PI * 0.4 * t).sin() + 0.5 * (2.0 * PI * 0.05 * t).sin();
    let sample = |rate: f64| {
        let n = (rate * 4000.0) as usize;
        RegularSeries::new(
            Seconds::ZERO,
            Seconds(1.0 / rate),
            (0..n).map(|i| signal(i as f64 / rate)).collect(),
        )
    };
    let fast = sample(1.0);
    let slow = sample(1.0 / 1.618_033_988_749_895);
    let verdict = detect_aliasing(
        &mut SpectrumScratch::new(),
        &fast,
        &slow,
        DualRateConfig::default(),
    );
    println!(
        "dual-rate detector (f1=1 Hz, f2=0.618 Hz) on a 0.4 Hz signal:\n  \
         aliased = {}  max discrepancy = {:.2}  worst at {:.3} Hz (0.4 folds to 0.218)",
        verdict.aliased,
        verdict.max_discrepancy,
        verdict.worst_frequency.unwrap_or(f64::NAN)
    );
}
