//! Fleet assembly: the paper's 1613 metric-device pairs.
//!
//! §3.2: *"In total, we studied 1613 metric and device pairs (14 distinct
//! metrics)."* [`Fleet::paper_scale`] reproduces that population exactly;
//! [`FleetConfig`] lets tests build smaller fleets.

use crate::generator::DeviceTrace;
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
    /// The fleet's work list — `(profile, device_idx)` pairs in
    /// [`Fleet::build`] order (all devices of metric 0, then metric 1, …).
    /// Engines that synthesize devices inside their workers iterate this
    /// instead of materializing the whole [`Fleet`].
    pub fn work_list(&self) -> Vec<(MetricProfile, usize)> {
        standard_work(self.devices_per_metric)
    }
}

/// `(profile, device_idx)` pairs for `devices_per_metric` devices of each of
/// the 14 metrics, in [`Fleet::build`] order.
fn standard_work(devices_per_metric: usize) -> Vec<(MetricProfile, usize)> {
    MetricProfile::all()
        .into_iter()
        .flat_map(|profile| (0..devices_per_metric).map(move |d| (profile, d)))
        .collect()
}

/// The paper's §3.2 population in [`Fleet::paper_scale`] order: 115 devices
/// for each of the 14 metrics, plus one extra device for the first three
/// metrics appended at the end (`14 × 115 + 3 = 1613`).
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
///   ([`DeviceTrace::synthesize`] mixes the device index into its RNG), so a
///   10⁵-pair fleet holds 10⁵ *different* devices, not copies.
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

/// A population of synthetic `(metric, device)` traces.
#[derive(Debug, Clone)]
pub struct Fleet {
    traces: Vec<DeviceTrace>,
    config: FleetConfig,
}

impl Fleet {
    /// Builds a fleet with `config.devices_per_metric` devices for each of
    /// the 14 metrics.
    pub fn build(config: FleetConfig) -> Fleet {
        let mut traces = Vec::with_capacity(14 * config.devices_per_metric);
        for profile in MetricProfile::all() {
            for device_idx in 0..config.devices_per_metric {
                traces.push(DeviceTrace::synthesize(profile, device_idx, config.seed));
            }
        }
        Fleet { traces, config }
    }

    /// Builds the paper-scale fleet: exactly [`PAPER_PAIR_COUNT`] pairs
    /// (115 devices per metric, plus one extra device for the first three
    /// metrics: `14 × 115 + 3 = 1613`).
    pub fn paper_scale(seed: u64) -> Fleet {
        let config = FleetConfig {
            seed,
            devices_per_metric: 115,
            trace_duration: Seconds::from_days(1.0),
        };
        let mut fleet = Fleet::build(config);
        for (i, profile) in MetricProfile::all().iter().enumerate().take(3) {
            fleet
                .traces
                .push(DeviceTrace::synthesize(*profile, 115 + i, seed));
        }
        debug_assert_eq!(fleet.traces.len(), PAPER_PAIR_COUNT);
        fleet
    }

    /// All traces.
    pub fn traces(&self) -> &[DeviceTrace] {
        &self.traces
    }

    /// Number of metric-device pairs.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// `true` if the fleet holds no traces.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// The construction parameters.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::MetricKind;

    #[test]
    fn build_respects_config() {
        let fleet = Fleet::build(FleetConfig {
            seed: 1,
            devices_per_metric: 3,
            trace_duration: Seconds::from_hours(6.0),
        });
        assert_eq!(fleet.len(), 14 * 3);
        for kind in MetricKind::ALL {
            let count = fleet
                .traces()
                .iter()
                .filter(|t| t.profile().kind == kind)
                .count();
            assert_eq!(count, 3);
        }
    }

    #[test]
    fn paper_scale_is_1613_pairs() {
        let fleet = Fleet::paper_scale(0xFEED);
        assert_eq!(fleet.len(), PAPER_PAIR_COUNT);
    }

    #[test]
    fn fleet_is_deterministic() {
        let a = Fleet::build(FleetConfig::default());
        let b = Fleet::build(FleetConfig::default());
        for (x, y) in a.traces().iter().zip(b.traces()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn distinct_seeds_give_distinct_fleets() {
        let a = Fleet::build(FleetConfig {
            seed: 1,
            ..FleetConfig::default()
        });
        let b = Fleet::build(FleetConfig {
            seed: 2,
            ..FleetConfig::default()
        });
        assert!(a
            .traces()
            .iter()
            .zip(b.traces())
            .any(|(x, y)| x.model() != y.model()));
    }

    #[test]
    fn device_names_unique_across_fleet() {
        let fleet = Fleet::build(FleetConfig {
            seed: 3,
            devices_per_metric: 5,
            trace_duration: Seconds::from_days(1.0),
        });
        let mut names: Vec<String> = fleet
            .traces()
            .iter()
            .map(|t| t.meta().to_string())
            .collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), fleet.len());
    }

    #[test]
    fn work_lists_mirror_fleet_construction() {
        let config = FleetConfig {
            seed: 17,
            devices_per_metric: 4,
            trace_duration: Seconds::from_days(1.0),
        };
        let fleet = Fleet::build(config);
        let work = config.work_list();
        assert_eq!(work.len(), fleet.len());
        for (&(profile, idx), trace) in work.iter().zip(fleet.traces()) {
            assert_eq!(
                &DeviceTrace::synthesize(profile, idx, config.seed),
                trace,
                "work list diverges from Fleet::build at {profile:?}/{idx}"
            );
        }
        assert_eq!(paper_scale_work().len(), PAPER_PAIR_COUNT);
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
        let fleet = Fleet::build(FleetConfig {
            seed: 11,
            devices_per_metric: 60,
            trace_duration: Seconds::from_days(1.0),
        });
        let undersampled = fleet
            .traces()
            .iter()
            .filter(|t| t.is_undersampled_at_production_rate())
            .count();
        let frac = undersampled as f64 / fleet.len() as f64;
        assert!((0.06..0.18).contains(&frac), "undersampled fraction {frac}");
    }
}
