//! Fleet assembly: the paper's 1613 metric-device pairs.
//!
//! §3.2: *"In total, we studied 1613 metric and device pairs (14 distinct
//! metrics)."* A fleet is a work list of `(profile, device_idx)` pairs, and
//! engines synthesize each pair inside their workers with
//! [`DeviceTrace::synthesize`], so a fleet need not be held in memory whole.
//! [`paper_scale_work`] is that population exactly; [`FleetConfig`] and
//! [`scaled_work`] give smaller or larger fleets.
//!
//! [`DeviceTrace::synthesize`]: crate::DeviceTrace::synthesize

use crate::profile::MetricProfile;
use sweetspot_timeseries::Seconds;

/// The paper's total number of metric-device pairs.
pub const PAPER_PAIR_COUNT: usize = 1613;

/// Fleet construction parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Master seed; everything downstream is deterministic in it.
    pub seed: u64,
    /// Devices per metric (all 14 metrics get this many).
    pub devices_per_metric: usize,
    /// Duration each production trace covers when analyzed ("each datapoint
    /// is one day's worth of data", §3.2).
    pub trace_duration: Seconds,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            seed: 0xC0FFEE,
            devices_per_metric: 8,
            trace_duration: Seconds::from_days(1.0),
        }
    }
}

impl FleetConfig {
    /// The fleet's work list: `(profile, device_idx)` pairs, all devices of
    /// metric 0, then metric 1, and so on.
    pub fn work_list(&self) -> Vec<(MetricProfile, usize)> {
        standard_work(self.devices_per_metric)
    }
}

/// `(profile, device_idx)` pairs for `devices_per_metric` devices of each of
/// the 14 metrics, metric by metric.
fn standard_work(devices_per_metric: usize) -> Vec<(MetricProfile, usize)> {
    MetricProfile::all()
        .into_iter()
        .flat_map(|profile| (0..devices_per_metric).map(move |d| (profile, d)))
        .collect()
}

/// The paper's §3.2 population: 115 devices for each of the 14 metrics,
/// metric by metric, plus one extra device for the first three metrics
/// appended at the end (`14 × 115 + 3 = 1613`).
pub fn paper_scale_work() -> Vec<(MetricProfile, usize)> {
    let mut work = standard_work(115);
    for (i, profile) in MetricProfile::all().into_iter().enumerate().take(3) {
        work.push((profile, 115 + i));
    }
    debug_assert_eq!(work.len(), PAPER_PAIR_COUNT);
    work
}

/// A deterministic work list of exactly `pairs` metric-device pairs, for
/// fleets beyond the paper's 1613: the 14-metric population is tiled
/// round-robin (pair `i` is metric `i % 14` at device index `i / 14`), so
///
/// * any prefix stays metric-balanced — `scaled_work(n)` is a prefix of
///   `scaled_work(m)` for `n ≤ m`, and growing a fleet never re-labels
///   existing devices;
/// * every pair draws a distinct per-device seed downstream
///   ([`DeviceTrace::synthesize`](crate::DeviceTrace::synthesize) mixes the
///   device index into its RNG), so a 10⁵-pair fleet holds 10⁵ *different*
///   devices, not copies.
///
/// At `pairs == 1613` this is the same population as [`paper_scale_work`]
/// up to ordering and the three extras' device indices.
pub fn scaled_work(pairs: usize) -> Vec<(MetricProfile, usize)> {
    let profiles = MetricProfile::all();
    let metrics = profiles.len();
    (0..pairs)
        .map(|i| (profiles[i % metrics], i / metrics))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::DeviceTrace;
    use crate::metric::MetricKind;

    /// Synthesizes every pair of `work`, as the study workers do.
    fn synthesize(work: &[(MetricProfile, usize)], seed: u64) -> Vec<DeviceTrace> {
        work.iter()
            .map(|&(profile, device_idx)| DeviceTrace::synthesize(profile, device_idx, seed))
            .collect()
    }

    fn config(seed: u64, devices_per_metric: usize) -> FleetConfig {
        FleetConfig {
            seed,
            devices_per_metric,
            trace_duration: Seconds::from_days(1.0),
        }
    }

    #[test]
    fn build_respects_config() {
        let work = config(1, 3).work_list();
        assert_eq!(work.len(), 14 * 3);
        for kind in MetricKind::ALL {
            let devices: Vec<usize> = work
                .iter()
                .filter(|(p, _)| p.kind == kind)
                .map(|&(_, d)| d)
                .collect();
            assert_eq!(devices, [0, 1, 2], "{kind:?}");
        }
    }

    #[test]
    fn paper_scale_is_1613_pairs() {
        let work = paper_scale_work();
        assert_eq!(work.len(), PAPER_PAIR_COUNT);
        // The 115-per-metric block is the standard work list, in order.
        assert_eq!(&work[..14 * 115], &config(0, 115).work_list()[..]);
        // The first three metrics each get one extra device at the end.
        let extras: Vec<(MetricKind, usize)> =
            work[14 * 115..].iter().map(|(p, d)| (p.kind, *d)).collect();
        assert_eq!(
            extras,
            [
                (MetricKind::ALL[0], 115),
                (MetricKind::ALL[1], 116),
                (MetricKind::ALL[2], 117)
            ]
        );
    }

    #[test]
    fn fleet_is_deterministic() {
        let cfg = FleetConfig::default();
        let work = cfg.work_list();
        assert_eq!(synthesize(&work, cfg.seed), synthesize(&work, cfg.seed));
    }

    #[test]
    fn distinct_seeds_give_distinct_fleets() {
        let work = FleetConfig::default().work_list();
        let a = synthesize(&work, 1);
        let b = synthesize(&work, 2);
        assert!(a.iter().zip(&b).any(|(x, y)| x.model() != y.model()));
    }

    #[test]
    fn device_names_unique_across_fleet() {
        let cfg = config(3, 5);
        let traces = synthesize(&cfg.work_list(), cfg.seed);
        let mut names: Vec<String> = traces.iter().map(|t| t.meta().to_string()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), traces.len());
    }

    #[test]
    fn scaled_work_is_balanced_and_prefix_stable() {
        let work = scaled_work(100);
        assert_eq!(work.len(), 100);
        // Balanced: each of the 14 metrics appears ⌊100/14⌋ or ⌈100/14⌉ times.
        for kind in MetricKind::ALL {
            let count = work.iter().filter(|(p, _)| p.kind == kind).count();
            assert!((7..=8).contains(&count), "{kind:?}: {count}");
        }
        // Prefix stability: growing the fleet never re-labels a device.
        let bigger = scaled_work(250);
        assert_eq!(&bigger[..100], &work[..]);
        // Device indices are distinct per metric (distinct seeds downstream).
        let mut seen: Vec<(usize, usize)> = work
            .iter()
            .map(|(p, d)| (p.kind.index(), *d))
            .collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), work.len());
    }

    #[test]
    fn scaled_work_at_paper_count_matches_paper_population() {
        let scaled = scaled_work(PAPER_PAIR_COUNT);
        assert_eq!(scaled.len(), PAPER_PAIR_COUNT);
        for kind in MetricKind::ALL {
            let scaled_count = scaled.iter().filter(|(p, _)| p.kind == kind).count();
            let paper_count = paper_scale_work()
                .iter()
                .filter(|(p, _)| p.kind == kind)
                .count();
            assert_eq!(scaled_count, paper_count, "{kind:?}");
        }
    }

    #[test]
    fn undersampled_fraction_near_profile_average() {
        // Large enough fleet for the binomial to concentrate.
        let cfg = config(11, 60);
        let traces = synthesize(&cfg.work_list(), cfg.seed);
        let undersampled = traces
            .iter()
            .filter(|t| t.is_undersampled_at_production_rate())
            .count();
        let frac = undersampled as f64 / traces.len() as f64;
        assert!((0.06..0.18).contains(&frac), "undersampled fraction {frac}");
    }
}
