//! Grammar fuzz for `--scenario`: [`ScenarioSpec::parse`] over `+`-joined
//! terms drawn from every preset spelling in [`ScenarioSpec::PRESETS`],
//! `key=value` overrides on every key in [`ScenarioSpec::KEYS`] (with
//! negative, fractional, NaN, ±inf and 1e300 values) and junk tokens.
//!
//! Properties:
//!
//! * `parse` never panics — every bad spec is an `Err` with a message;
//! * an accepted spec's [`ScenarioSpec::label`] parses back to a spec with
//!   the same label;
//! * [`ScenarioEngine::new`] and eight epochs of [`ScenarioEngine::deal`]
//!   over sixteen devices never panic on an accepted spec.

use proptest::prelude::*;
use sweetspot_analysis::fleetsim::scenario::{DeviceEvent, ScenarioEngine, ScenarioSpec};

/// Values for `key=value` terms: in range, out of range, fractional where a
/// whole number is wanted, and non-finite.
const VALUES: [&str; 17] = [
    "0", "-0", "0.01", "0.25", "0.5", "1", "2", "3", "6", "-1", "-0.5", "2.5", "NaN", "inf",
    "-inf", "1e300", "-1e300",
];

/// Tokens that are neither a preset nor a well-formed override.
const JUNK: [&str; 12] = [
    "",
    " ",
    "bogus",
    "=",
    "leave=",
    "=0.5",
    "leave=abc",
    "churn=1",
    "a=b=c",
    "lossy reports",
    "leave==1",
    "\u{FF}",
];

/// Every preset spelling in [`ScenarioSpec::PRESETS`], aliases included.
fn presets() -> Vec<&'static str> {
    ScenarioSpec::PRESETS
        .iter()
        .flat_map(|(names, _)| names.iter().copied())
        .collect()
}

/// Every key in [`ScenarioSpec::KEYS`].
fn keys() -> Vec<&'static str> {
    ScenarioSpec::KEYS.iter().map(|(key, _)| *key).collect()
}

/// One term: `(source, pick, value pick)` rendered as a preset, an override
/// or a junk token.
fn term((source, pick, value): (u8, usize, usize)) -> (bool, String) {
    match source {
        0 => {
            let p = presets();
            (true, p[pick % p.len()].to_string())
        }
        1 => {
            let k = keys();
            (
                false,
                format!("{}={}", k[pick % k.len()], VALUES[value % VALUES.len()]),
            )
        }
        _ => (false, JUNK[pick % JUNK.len()].to_string()),
    }
}

fn terms_strategy() -> impl Strategy<Value = Vec<(bool, String)>> {
    prop::collection::vec((0u8..3, 0usize..1000, 0usize..1000).prop_map(term), 1..6)
}

/// Parses `text`; for an accepted spec, checks the label round trip and
/// deals eight epochs over sixteen devices.
fn exercise(text: &str, seed: u64) -> bool {
    let Ok(mut spec) = ScenarioSpec::parse(text) else {
        return false;
    };
    let label = spec.label();
    let reparsed = ScenarioSpec::parse(&label)
        .unwrap_or_else(|e| panic!("label {label:?} of {text:?} does not parse: {e}"));
    assert_eq!(
        reparsed.label(),
        label,
        "label of {text:?} does not round-trip"
    );

    spec.seed = seed;
    let engine = ScenarioEngine::new(spec, 8);
    let mut active = [true; 16];
    for epoch in 0..8 {
        for (i, on) in active.iter_mut().enumerate() {
            engine.incident_active(epoch, i);
            match engine.deal(epoch, i, *on) {
                DeviceEvent::Absent => *on = false,
                DeviceEvent::Reboot => *on = true,
                _ => {}
            }
        }
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_never_panics_and_labels_round_trip(
        terms in terms_strategy(),
        seed in 0u64..u64::MAX,
    ) {
        let text = terms.iter().map(|(_, t)| t.as_str()).collect::<Vec<_>>().join("+");
        exercise(&text, seed);
        // The preset terms alone always compose into a valid spec, so every
        // case checks at least one accepted spec's round trip.
        let presets_only =
            terms.iter().filter(|(p, _)| *p).map(|(_, t)| t.as_str()).collect::<Vec<_>>();
        prop_assert!(exercise(&presets_only.join("+"), seed), "{presets_only:?}");
    }
}
