//! **The title experiment** — the cost-vs-quality sweet spot.
//!
//! The paper argues (§1, §4) that Nyquist-guided sampling reaches today's
//! monitoring quality at a fraction of the cost. This driver makes the
//! trade-off concrete on the simulator: sweep fixed-rate policies across
//! multipliers of the production rate to trace the cost-vs-quality
//! frontier, then place the §4 policies (a-posteriori thinning, §4.2
//! adaptive) on the same axes and find the knee.

use sweetspot_core::adaptive::AdaptiveConfig;
use sweetspot_monitor::device::SimDevice;
use sweetspot_monitor::Policy;
use sweetspot_telemetry::events::{Event, EventKind};
use sweetspot_telemetry::{DeviceTrace, MetricKind, MetricProfile};
use sweetspot_timeseries::{Hertz, Seconds};

/// A point on the cost-vs-quality plane: one policy run over the fleet.
#[derive(Debug, Clone, Copy)]
pub struct PolicyPoint {
    /// The policy; every frontier point is a [`Policy::ProductionScaled`].
    pub policy: Policy,
    /// Total cost units.
    pub cost: f64,
    /// Mean reconstruction NRMSE over the fleet.
    pub nrmse: f64,
    /// Mean event recall over the fleet.
    pub event_recall: f64,
}

impl PolicyPoint {
    /// Runs `policy` over `devices` and places it on the plane.
    fn measure(policy: Policy, devices: &mut [SimDevice], duration: Seconds) -> Self {
        let (cost, nrmse, event_recall) = policy.run_fleet(devices, duration);
        PolicyPoint {
            policy,
            cost: cost.total(),
            nrmse,
            event_recall,
        }
    }

    /// Display label.
    pub fn label(&self) -> String {
        match self.policy {
            Policy::ProductionScaled(m) => format!("fixed {m:.2}x"),
            Policy::PosterioriNyquist { .. } => "posteriori-nyquist".into(),
            Policy::Adaptive(_) => "adaptive-§4.2".into(),
        }
    }
}

/// Sweet-spot experiment results.
#[derive(Debug, Clone)]
pub struct SweetSpot {
    /// The fixed-rate frontier.
    pub frontier: Vec<PolicyPoint>,
    /// The knee of the frontier.
    pub knee: Option<PolicyPoint>,
    /// The §4 policies placed on the same axes.
    pub policies: Vec<PolicyPoint>,
}

/// Sweeps fixed-rate policies at each multiplier of the production rate: the
/// cost-vs-quality frontier.
///
/// # Panics
/// Panics if `multipliers` is empty or non-positive values are present.
pub fn rate_sweep(
    devices: &mut [SimDevice],
    multipliers: &[f64],
    duration: Seconds,
) -> Vec<PolicyPoint> {
    assert!(!multipliers.is_empty(), "need at least one multiplier");
    assert!(
        multipliers.iter().all(|&m| m > 0.0),
        "multipliers must be positive"
    );
    multipliers
        .iter()
        .map(|&m| PolicyPoint::measure(Policy::ProductionScaled(m), devices, duration))
        .collect()
}

/// Finds the knee of a sweep (the title's "sweet spot"): the point
/// minimizing the normalized distance to the utopia corner
/// `(min log-cost, min error)`.
///
/// Returns `None` for empty input or when no point has finite error.
pub fn knee_point(points: &[PolicyPoint]) -> Option<&PolicyPoint> {
    let finite: Vec<&PolicyPoint> = points.iter().filter(|p| p.nrmse.is_finite()).collect();
    if finite.is_empty() {
        return None;
    }
    let (min_c, max_c) = finite.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), p| {
        (lo.min(p.cost.ln()), hi.max(p.cost.ln()))
    });
    let (min_e, max_e) = finite.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), p| {
        (lo.min(p.nrmse), hi.max(p.nrmse))
    });
    let c_span = (max_c - min_c).max(1e-12);
    let e_span = (max_e - min_e).max(1e-12);
    let dist = |p: &PolicyPoint| {
        let c = (p.cost.ln() - min_c) / c_span;
        let e = (p.nrmse - min_e) / e_span;
        (c * c + e * e).sqrt()
    };
    finite.into_iter().min_by(|a, b| {
        dist(a)
            .partial_cmp(&dist(b))
            .unwrap_or(std::cmp::Ordering::Equal)
    })
}

/// Builds the experiment fleet: temperature + link-utilization devices with
/// a few injected events so the recall axis is meaningful.
pub fn build_devices(seed: u64, per_metric: usize) -> Vec<SimDevice> {
    let mut devices = Vec::new();
    for kind in [MetricKind::Temperature, MetricKind::LinkUtil] {
        let profile = MetricProfile::for_kind(kind);
        for idx in 0..per_metric {
            let trace = DeviceTrace::synthesize(profile, idx, seed);
            // Two mid-run events per device: a 20-minute spike and a
            // 30-minute level shift.
            let magnitude = profile.half_range() * 0.5;
            let trace = trace.with_events(vec![
                Event::new(
                    EventKind::Spike,
                    40_000.0 + idx as f64 * 971.0,
                    1200.0,
                    magnitude,
                ),
                Event::new(
                    EventKind::LevelShift,
                    110_000.0 + idx as f64 * 1771.0,
                    1800.0,
                    magnitude,
                ),
            ]);
            devices.push(SimDevice::new(trace));
        }
    }
    devices
}

/// Runs the sweet-spot experiment.
pub fn run(seed: u64, per_metric: usize, days: f64, multipliers: &[f64]) -> SweetSpot {
    let duration = Seconds::from_days(days);

    let mut devices = build_devices(seed, per_metric);
    let frontier = rate_sweep(&mut devices, multipliers, duration);
    let knee = knee_point(&frontier).copied();

    let policies = [
        Policy::PosterioriNyquist { headroom: 1.25 },
        Policy::Adaptive(AdaptiveConfig {
            initial_rate: Hertz(1.0 / 300.0),
            min_rate: Hertz(1e-6),
            max_rate: Hertz(1.0),
            epoch: Seconds::from_hours(12.0),
            ..AdaptiveConfig::default()
        }),
    ]
    .into_iter()
    .map(|policy| PolicyPoint::measure(policy, &mut devices, duration))
    .collect();

    SweetSpot {
        frontier,
        knee,
        policies,
    }
}

impl SweetSpot {
    /// Text rendering: the frontier table plus the policy points.
    pub fn render(&self) -> String {
        let mut out =
            String::from("Sweet spot: cost vs quality (fixed-rate frontier + §4 policies)\n");
        let rows: Vec<Vec<String>> = self
            .frontier
            .iter()
            .chain(&self.policies)
            .map(|p| {
                vec![
                    p.label(),
                    format!("{:.0}", p.cost),
                    format!("{:.4}", p.nrmse),
                    format!("{:.2}", p.event_recall),
                ]
            })
            .collect();
        out.push_str(&crate::report::table(
            &["policy", "cost", "NRMSE", "event recall"],
            &rows,
        ));
        if let Some(PolicyPoint {
            policy: Policy::ProductionScaled(m),
            cost,
            nrmse,
            ..
        }) = self.knee
        {
            out.push_str(&format!(
                "knee of the frontier: {m:.2}x production rate (cost {cost:.0}, NRMSE {nrmse:.4})\n"
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn devices(n: usize) -> Vec<SimDevice> {
        (0..n)
            .map(|i| {
                SimDevice::new(DeviceTrace::synthesize(
                    MetricProfile::for_kind(MetricKind::Temperature),
                    i,
                    21,
                ))
            })
            .collect()
    }

    #[test]
    fn sweep_cost_increases_with_rate() {
        let points = rate_sweep(&mut devices(2), &[0.1, 1.0, 4.0], Seconds::from_days(2.0));
        assert_eq!(points.len(), 3);
        assert!(points[0].cost < points[1].cost && points[1].cost < points[2].cost);
    }

    #[test]
    fn sweep_quality_improves_with_rate() {
        let points = rate_sweep(&mut devices(2), &[0.02, 1.0], Seconds::from_days(4.0));
        assert!(
            points[1].nrmse < points[0].nrmse,
            "faster polling must reconstruct better: {points:?}"
        );
    }

    fn point(m: f64, cost: f64, nrmse: f64) -> PolicyPoint {
        PolicyPoint {
            policy: Policy::ProductionScaled(m),
            cost,
            nrmse,
            event_recall: 1.0,
        }
    }

    #[test]
    fn knee_prefers_low_cost_low_error() {
        let points = vec![
            point(0.01, 10.0, 0.9),   // cheap but terrible
            point(0.1, 100.0, 0.05),  // the knee
            point(1.0, 1000.0, 0.04), // 10× cost for 1% better
            point(10.0, 10_000.0, 0.039),
        ];
        let knee = knee_point(&points).unwrap();
        assert!(
            matches!(knee.policy, Policy::ProductionScaled(m) if m == 0.1),
            "knee at {knee:?}"
        );
    }

    #[test]
    fn knee_of_empty_is_none() {
        assert!(knee_point(&[]).is_none());
        assert!(knee_point(&[point(1.0, 1.0, f64::INFINITY)]).is_none());
    }

    #[test]
    fn frontier_is_monotone_and_policies_beat_production() {
        let result = run(11, 2, 2.0, &[0.05, 0.25, 1.0]);
        assert_eq!(result.frontier.len(), 3);
        // Cost strictly increases along the frontier.
        for w in result.frontier.windows(2) {
            assert!(w[1].cost > w[0].cost);
        }
        // The production point (1.0×): full cost. The §4 a-posteriori
        // policy must dominate it on total cost at comparable quality.
        let production = result.frontier.last().unwrap();
        let posteriori = &result.policies[0];
        assert!(
            posteriori.cost < production.cost,
            "posteriori {} vs production {}",
            posteriori.cost,
            production.cost
        );
        assert!(
            posteriori.nrmse < production.nrmse * 3.0 + 0.05,
            "posteriori quality comparable: {} vs {}",
            posteriori.nrmse,
            production.nrmse
        );
        assert!(result.knee.is_some());
        assert!(result.render().contains("knee"));
    }
}
