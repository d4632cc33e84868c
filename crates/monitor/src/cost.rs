//! The resource-cost model.
//!
//! §1 of the paper: *"Every aspect of the task of monitoring — collection,
//! transmission, analysis, and storage — all consume resources that, when
//! considering the scale of modern data centers, represent a non-negligible
//! overhead."* [`CostModel`] prices each aspect per sample/byte;
//! [`CostReport`] aggregates a run.

use serde::{Deserialize, Serialize};

/// Per-unit prices of the four cost aspects. Units are abstract "cost units"
/// — only ratios matter for the sweet-spot analysis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Wire+record size of one sample (bytes): timestamp + value + tags.
    pub bytes_per_sample: f64,
    /// Collection cost per poll (device CPU, lock contention — the
    /// PrivateEye/Pingmesh overheads the paper cites).
    pub collection_per_sample: f64,
    /// Network transmission cost per byte.
    pub network_per_byte: f64,
    /// Storage cost per byte·day of retention.
    pub storage_per_byte_day: f64,
    /// Analysis cost per stored sample (queries, dashboards, ML).
    pub analysis_per_sample: f64,
    /// Retention period in days (how long stored bytes accrue cost).
    pub retention_days: f64,
}

impl CostModel {
    /// Marginal cost of one sample that is collected, shipped, stored for
    /// the full retention period, and analyzed — the unit price a fleet
    /// scheduler converts its shared budget with.
    pub fn cost_per_sample(&self) -> f64 {
        self.collection_per_sample
            + self.bytes_per_sample * self.network_per_byte
            + self.bytes_per_sample * self.retention_days * self.storage_per_byte_day
            + self.analysis_per_sample
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            bytes_per_sample: 32.0,
            collection_per_sample: 1.0,
            network_per_byte: 0.01,
            storage_per_byte_day: 0.001,
            analysis_per_sample: 0.1,
            retention_days: 90.0,
        }
    }
}

/// Aggregated cost of a monitoring run.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CostReport {
    /// Samples acquired from devices (collection side).
    pub samples_collected: usize,
    /// Samples retained in storage (may be fewer: a-posteriori policies
    /// collect fast but store at the Nyquist rate).
    pub samples_stored: usize,
    /// Collection cost units.
    pub collection_cost: f64,
    /// Network cost units.
    pub network_cost: f64,
    /// Storage cost units.
    pub storage_cost: f64,
    /// Analysis cost units.
    pub analysis_cost: f64,
}

impl CostReport {
    /// Builds a report from sample counts under a cost model.
    pub fn from_counts(model: &CostModel, collected: usize, stored: usize) -> CostReport {
        CostReport {
            samples_collected: collected,
            samples_stored: stored,
            collection_cost: collected as f64 * model.collection_per_sample,
            network_cost: collected as f64 * model.bytes_per_sample * model.network_per_byte,
            storage_cost: stored as f64
                * model.bytes_per_sample
                * model.retention_days
                * model.storage_per_byte_day,
            analysis_cost: stored as f64 * model.analysis_per_sample,
        }
    }

    /// Total cost units.
    pub fn total(&self) -> f64 {
        self.collection_cost + self.network_cost + self.storage_cost + self.analysis_cost
    }

    /// Element-wise accumulation (for fleet aggregation).
    pub fn accumulate(&mut self, other: &CostReport) {
        self.samples_collected += other.samples_collected;
        self.samples_stored += other.samples_stored;
        self.collection_cost += other.collection_cost;
        self.network_cost += other.network_cost;
        self.storage_cost += other.storage_cost;
        self.analysis_cost += other.analysis_cost;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_counts_prices_each_aspect() {
        let m = CostModel::default();
        let r = CostReport::from_counts(&m, 1000, 100);
        assert_eq!(r.samples_collected, 1000);
        assert_eq!(r.samples_stored, 100);
        assert_eq!(r.collection_cost, 1000.0);
        assert!((r.network_cost - 320.0).abs() < 1e-9);
        assert!((r.storage_cost - 100.0 * 32.0 * 90.0 * 0.001).abs() < 1e-9);
        assert!((r.analysis_cost - 10.0).abs() < 1e-9);
        assert!(r.total() > 0.0);
    }

    #[test]
    fn cost_scales_linearly_with_samples() {
        let m = CostModel::default();
        let a = CostReport::from_counts(&m, 100, 100);
        let b = CostReport::from_counts(&m, 1000, 1000);
        assert!((b.total() / a.total() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn storing_less_cuts_storage_and_analysis_only() {
        let m = CostModel::default();
        let full = CostReport::from_counts(&m, 1000, 1000);
        let thin = CostReport::from_counts(&m, 1000, 10);
        assert_eq!(full.collection_cost, thin.collection_cost);
        assert_eq!(full.network_cost, thin.network_cost);
        assert!(thin.storage_cost < full.storage_cost / 50.0);
        assert!(thin.analysis_cost < full.analysis_cost / 50.0);
    }

    #[test]
    fn cost_per_sample_sums_all_four_aspects() {
        let m = CostModel::default();
        // 1 collection + 32 B × 0.01 network + 32 B × 90 d × 0.001 storage
        // + 0.1 analysis.
        let expected = 1.0 + 0.32 + 2.88 + 0.1;
        assert!((m.cost_per_sample() - expected).abs() < 1e-12);
        // Consistency with the report path: N samples collected and stored.
        let r = CostReport::from_counts(&m, 500, 500);
        assert!((r.total() - 500.0 * m.cost_per_sample()).abs() < 1e-9);
    }

    #[test]
    fn accumulate_sums() {
        let m = CostModel::default();
        let mut acc = CostReport::default();
        acc.accumulate(&CostReport::from_counts(&m, 10, 10));
        acc.accumulate(&CostReport::from_counts(&m, 20, 5));
        assert_eq!(acc.samples_collected, 30);
        assert_eq!(acc.samples_stored, 15);
        let direct = CostReport::from_counts(&m, 30, 15);
        assert!((acc.total() - direct.total()).abs() < 1e-9);
    }
}
