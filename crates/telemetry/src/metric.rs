//! The 14 metric kinds of the paper's §3.2 case study (Figure 5's x-axis).

use serde::{Deserialize, Serialize};
use std::fmt;

/// A monitored metric kind.
///
/// The variants are exactly the metrics the paper's production study covers
/// (Figures 1, 4 and 5): interface counters, resource gauges, probe-derived
/// path quality and environmental sensors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MetricKind {
    /// 5th-percentile CPU utilization (%).
    CpuUtil5pct,
    /// Frame-check-sequence error count per poll.
    FcsErrors,
    /// In-bound packet discards per poll.
    InboundDiscards,
    /// Out-bound packet discards per poll.
    OutboundDiscards,
    /// Link utilization (fraction of capacity).
    LinkUtil,
    /// Number of lossy paths seen by the prober.
    LossyPaths,
    /// Memory usage (GB).
    MemoryUsage,
    /// Multicast bytes per poll.
    MulticastBytes,
    /// Multicast drops per poll.
    MulticastDrops,
    /// Peak egress bandwidth (Mbps).
    PeakEgressBw,
    /// Peak ingress bandwidth (Mbps).
    PeakIngressBw,
    /// Device temperature (°C).
    Temperature,
    /// Unicast bytes per poll.
    UnicastBytes,
    /// Unicast drops per poll.
    UnicastDrops,
}

impl MetricKind {
    /// All 14 metric kinds, in a stable order.
    pub const ALL: [MetricKind; 14] = [
        MetricKind::CpuUtil5pct,
        MetricKind::FcsErrors,
        MetricKind::InboundDiscards,
        MetricKind::OutboundDiscards,
        MetricKind::LinkUtil,
        MetricKind::LossyPaths,
        MetricKind::MemoryUsage,
        MetricKind::MulticastBytes,
        MetricKind::MulticastDrops,
        MetricKind::PeakEgressBw,
        MetricKind::PeakIngressBw,
        MetricKind::Temperature,
        MetricKind::UnicastBytes,
        MetricKind::UnicastDrops,
    ];

    /// Short human-readable name (matches the paper's figure labels).
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::CpuUtil5pct => "5-pct CPU util",
            MetricKind::FcsErrors => "FCS errors",
            MetricKind::InboundDiscards => "In-bound discards",
            MetricKind::OutboundDiscards => "Out-bound discards",
            MetricKind::LinkUtil => "Link util",
            MetricKind::LossyPaths => "Lossy paths",
            MetricKind::MemoryUsage => "Memory usage",
            MetricKind::MulticastBytes => "Multicast bytes",
            MetricKind::MulticastDrops => "Multicast drops",
            MetricKind::PeakEgressBw => "Peak egress BW",
            MetricKind::PeakIngressBw => "Peak ingress BW",
            MetricKind::Temperature => "Temperature",
            MetricKind::UnicastBytes => "Unicast bytes",
            MetricKind::UnicastDrops => "Unicast drops",
        }
    }

    /// Lowercase hyphenated identifier (the [`MetricKind::name`] with every
    /// non-alphanumeric character mapped to `-`). Static, so building device
    /// names does not re-derive the slug per device; `slug_matches_name`
    /// pins the correspondence.
    pub fn slug(self) -> &'static str {
        match self {
            MetricKind::CpuUtil5pct => "5-pct-cpu-util",
            MetricKind::FcsErrors => "fcs-errors",
            MetricKind::InboundDiscards => "in-bound-discards",
            MetricKind::OutboundDiscards => "out-bound-discards",
            MetricKind::LinkUtil => "link-util",
            MetricKind::LossyPaths => "lossy-paths",
            MetricKind::MemoryUsage => "memory-usage",
            MetricKind::MulticastBytes => "multicast-bytes",
            MetricKind::MulticastDrops => "multicast-drops",
            MetricKind::PeakEgressBw => "peak-egress-bw",
            MetricKind::PeakIngressBw => "peak-ingress-bw",
            MetricKind::Temperature => "temperature",
            MetricKind::UnicastBytes => "unicast-bytes",
            MetricKind::UnicastDrops => "unicast-drops",
        }
    }

    /// Measurement unit, for display.
    pub fn unit(self) -> &'static str {
        match self {
            MetricKind::CpuUtil5pct => "%",
            MetricKind::FcsErrors
            | MetricKind::InboundDiscards
            | MetricKind::OutboundDiscards
            | MetricKind::MulticastDrops
            | MetricKind::UnicastDrops => "count",
            MetricKind::LinkUtil => "fraction",
            MetricKind::LossyPaths => "paths",
            MetricKind::MemoryUsage => "GB",
            MetricKind::MulticastBytes | MetricKind::UnicastBytes => "bytes",
            MetricKind::PeakEgressBw | MetricKind::PeakIngressBw => "Mbps",
            MetricKind::Temperature => "°C",
        }
    }

    /// Stable index into [`MetricKind::ALL`].
    pub fn index(self) -> usize {
        MetricKind::ALL
            .iter()
            .position(|&m| m == self)
            .expect("all variants are in ALL")
    }
}

impl fmt::Display for MetricKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn fourteen_distinct_metrics() {
        assert_eq!(MetricKind::ALL.len(), 14);
        let names: BTreeSet<&str> = MetricKind::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), 14);
    }

    #[test]
    fn index_roundtrip() {
        for (i, m) in MetricKind::ALL.iter().enumerate() {
            assert_eq!(m.index(), i);
        }
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(MetricKind::Temperature.to_string(), "Temperature");
        assert_eq!(MetricKind::CpuUtil5pct.to_string(), "5-pct CPU util");
    }

    #[test]
    fn slug_matches_name() {
        for m in MetricKind::ALL {
            let derived: String = m
                .name()
                .to_ascii_lowercase()
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
                .collect();
            assert_eq!(m.slug(), derived, "{m}");
        }
    }

    #[test]
    fn every_metric_has_a_unit() {
        for m in MetricKind::ALL {
            assert!(!m.unit().is_empty());
        }
    }
}
