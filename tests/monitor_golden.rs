//! Byte-for-byte pins of the monitoring-system path: the sweet-spot
//! experiment (fixed-rate sweep, a-posteriori thinning, §4.2 adaptive
//! policy, each through `Policy::run_fleet`), rendered and bit for bit, and
//! the per-epoch reports of `Policy::Adaptive` on the Figure 6 device. All
//! are pure functions of their seeds, so any difference from the fixtures
//! is a behaviour change.
//!
//! To regenerate after an intended output change, write the `got` string of
//! the failing test into the named file under `tests/golden/`.

use std::fmt::Write;
use sweetspot::analysis::experiments::sweetspot::PolicyPoint;
use sweetspot::analysis::experiments::{self, fig6};
use sweetspot::monitor::device::SimDevice;
use sweetspot::prelude::*;

/// Reads a fixture from `tests/golden/`.
fn golden(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn sweet_spot_render_matches_golden_fixture() {
    let got = experiments::sweetspot::run(11, 2, 2.0, &[0.05, 0.25, 1.0]).render();
    assert!(
        got == golden("sweetspot_render.txt"),
        "sweet-spot rendering diverged:\n{got}"
    );
}

#[test]
fn sweet_spot_points_match_golden_fixture() {
    // `{:?}` prints the shortest text that round-trips, so every bit of
    // every point is pinned (the rendering rounds).
    let result = experiments::sweetspot::run(11, 2, 2.0, &[0.05, 0.25, 1.0]);
    let mut got = String::new();
    let mut line = |name: String, p: &PolicyPoint| {
        writeln!(
            got,
            "{name}: cost {:?} nrmse {:?} recall {:?}",
            p.cost, p.nrmse, p.event_recall
        )
        .unwrap()
    };
    let multiplier = |p: &PolicyPoint| match p.policy {
        Policy::ProductionScaled(m) => m,
        _ => panic!("the frontier is fixed-rate: {p:?}"),
    };
    for p in &result.frontier {
        line(format!("fixed {:?}", multiplier(p)), p);
    }
    for p in &result.policies {
        line(p.label(), p);
    }
    let knee = result.knee.expect("the frontier has a knee");
    line(format!("knee {:?}", multiplier(&knee)), &knee);
    assert!(
        got == golden("sweetspot_points.txt"),
        "sweet-spot points diverged:\n{got}"
    );
}

#[test]
fn adaptive_plan_epochs_match_golden_fixture() {
    let config = AdaptiveConfig {
        initial_rate: Hertz(1.0 / 300.0),
        min_rate: Hertz(1e-6),
        max_rate: Hertz(1.0 / 30.0),
        epoch: Seconds::from_hours(12.0),
        ..AdaptiveConfig::default()
    };
    let mut device = SimDevice::new(fig6::evented_device(0xF16));
    let run = Policy::Adaptive(config).run(&mut device, Seconds::from_days(7.0));
    let mut got = String::new();
    for report in run.epochs.as_ref().expect("adaptive runs report epochs") {
        writeln!(got, "{report:?}").unwrap();
    }
    // The stored stream is the replayed primary polls: pin its size and
    // every value bit.
    let checksum = run.stored.iter().fold(0u64, |h, (t, v)| {
        (h ^ t.value().to_bits() ^ v.to_bits().rotate_left(17)).wrapping_mul(0x100000001b3)
    });
    writeln!(
        got,
        "collected {} stored {} checksum {checksum:016x}",
        run.collected,
        run.stored.len()
    )
    .unwrap();
    assert!(
        got == golden("adaptive_plan_epochs.txt"),
        "adaptive policy epochs diverged:\n{got}"
    );
}
