//! The §3.2 fleet study at paper scale: 1613 metric-device pairs across 14
//! metrics, one day of production-rate data each — regenerating Figures 1,
//! 4 and 5 plus the headline statistics.
//!
//! ```sh
//! cargo run --release --example datacenter_study
//! ```

use sweetspot::analysis::experiments::{fig1, fig4, fig5, headline};
use sweetspot::analysis::study::FleetStudy;
use sweetspot::prelude::*;
use sweetspot::telemetry::fleet::PAPER_PAIR_COUNT;

#[allow(clippy::disallowed_methods, reason = "a wall-clock line on stderr")]
fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5EED_CAFE);

    println!("building the paper-scale fleet ({PAPER_PAIR_COUNT} metric-device pairs)...");
    let start = std::time::Instant::now();
    let study = FleetStudy::run_paper_scale(seed, NyquistConfig::default(), 0);
    // Wall time varies run to run, so it goes to stderr and stdout stays
    // byte-identical.
    eprintln!(
        "synthesized and analyzed {} day-long traces in {:.1?}",
        study.pairs.len(),
        start.elapsed()
    );
    println!();

    // Figure 1: fraction of devices above the Nyquist rate, per metric.
    println!("{}", fig1::from_study(&study).render());

    // Figure 4: reduction-ratio CDFs (three representative panels printed;
    // all fourteen are computed).
    let f4 = fig4::from_study(&study);
    for kind in [
        MetricKind::Temperature,
        MetricKind::FcsErrors,
        MetricKind::LinkUtil,
    ] {
        if let Some(panel) = f4.panels.iter().find(|p| p.kind == kind) {
            if !panel.cdf.is_empty() {
                println!(
                    "[{}] reduction ratio: median {:.1}x, p90 {:.1}x, max {:.1}x  (n={})",
                    kind,
                    panel.cdf.quantile(0.5),
                    panel.cdf.quantile(0.9),
                    panel.cdf.quantile(1.0),
                    panel.cdf.len()
                );
            }
        }
    }
    println!();

    // Figure 5: box plot of Nyquist rates per metric.
    println!("{}", fig5::from_study(&study).render());

    // Headline statistics (§3.2 text).
    println!("{}", headline::from_study(&study).render());
}
