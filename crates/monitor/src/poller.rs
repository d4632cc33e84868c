//! Sampling policies.
//!
//! Three families, mirroring §3–§4 of the paper, one [`Policy`] variant each:
//!
//! * [`Policy::ProductionScaled`] — today's systems: poll at an
//!   operator-chosen rate, store everything. The §3.1 baseline ("the degree
//!   of sampling … is entirely arbitrary").
//! * [`Policy::PosterioriNyquist`] — §4's first variant: *"measure at a high
//!   rate, compute the nyquist rate over the measurements and store or
//!   present for later analysis only the measurements that are re-sampled at
//!   the lower nyquist rate"*. Collection cost stays high; storage and
//!   analysis costs drop.
//! * [`Policy::Adaptive`] — §4.2's dynamic sampler: acquisition itself runs
//!   at the adapted rate (plus the §4.1 verification stream).
//!
//! [`Policy::run`] runs a policy on one device; [`Policy::run_fleet`] runs it
//! over a fleet and prices and scores what was stored.
//!
//! [`FleetMember`] packages the adaptive controller with its device for
//! *lockstep* fleet simulation: an external scheduler grants each member a
//! rate per shared epoch (see `analysis::fleetsim`).

use crate::cost::{CostModel, CostReport};
use crate::device::{precleaning, DeviceSource, PollScratch, SimDevice};
use crate::quality::evaluate;
use sweetspot_core::adaptive::{
    AdaptiveConfig, AdaptiveSampler, Delivery, EpochReport, SamplerScratch,
};
use sweetspot_telemetry::{DeviceTrace, MetricKind};
use sweetspot_core::estimator::{NyquistConfig, NyquistEstimator};
use sweetspot_core::reconstruct::{decimation_factor, downsample};
use sweetspot_timeseries::clean::clean;
use sweetspot_timeseries::{Hertz, IrregularSeries, Seconds};

/// What one policy run produced for one device.
#[derive(Debug, Clone)]
pub struct PolicyRun {
    /// Samples that land in storage.
    pub stored: Vec<(Seconds, f64)>,
    /// Samples acquired from the device (collection cost basis).
    pub collected: usize,
    /// Per-epoch adaptation reports (adaptive policy only).
    pub epochs: Option<Vec<EpochReport>>,
}

impl PolicyRun {
    /// A run that stores every sample it collected.
    fn storing_all(stored: Vec<(Seconds, f64)>) -> Self {
        PolicyRun {
            collected: stored.len(),
            stored,
            epochs: None,
        }
    }
}

/// A sampling policy.
#[derive(Debug, Clone, Copy)]
pub enum Policy {
    /// Poll at a multiple of each device's production rate and store every
    /// sample: 1.0 is today's baseline, other multipliers trace the sweep.
    ProductionScaled(f64),
    /// §4's a-posteriori thinning: collect at the production rate, store at
    /// the estimated Nyquist rate.
    PosterioriNyquist {
        /// Store at `headroom × estimate`.
        headroom: f64,
    },
    /// §4.2's dynamic sampler; the primary stream is stored.
    Adaptive(AdaptiveConfig),
}

impl Policy {
    /// Runs the policy on `device` over `[0, duration)`.
    ///
    /// [`Policy::PosterioriNyquist`] stores everything collected when the
    /// estimator reports "aliased", or when the window is too short to
    /// assess (the poll cannot be re-gridded, or fewer than 4 re-gridded
    /// samples remain): there is no safe rate to thin to.
    pub fn run(&self, device: &mut SimDevice, duration: Seconds) -> PolicyRun {
        let production = device.trace().profile().production_rate();
        match *self {
            Policy::ProductionScaled(mult) => {
                let rate = Hertz(production.value() * mult);
                PolicyRun::storing_all(device.poll(Seconds::ZERO, rate, duration).iter().collect())
            }
            Policy::PosterioriNyquist { headroom } => {
                let raw = device.poll(Seconds::ZERO, production, duration);
                let cleaned = match clean(&raw, precleaning(production)) {
                    Ok(cleaned) if cleaned.len() >= 4 => cleaned,
                    Ok(too_short) => return PolicyRun::storing_all(too_short.iter().collect()),
                    Err(_) => return PolicyRun::storing_all(raw.iter().collect()),
                };
                let collected = cleaned.len();
                let estimator = NyquistEstimator::new(NyquistConfig::default());
                let stored_series = match estimator.estimate_series(&cleaned).rate() {
                    Some(nyq) => {
                        let target = Hertz(nyq.value() * headroom.max(1.0));
                        let factor = decimation_factor(cleaned.sample_rate(), target);
                        downsample(&cleaned, factor)
                    }
                    None => cleaned,
                };
                PolicyRun {
                    collected,
                    stored: stored_series.iter().collect(),
                    epochs: None,
                }
            }
            Policy::Adaptive(config) => {
                let reports = AdaptiveSampler::new(config).run(
                    &mut DeviceSource {
                        device,
                        scratch: &mut PollScratch::new(),
                    },
                    duration,
                );
                let collected = sweetspot_core::adaptive::total_samples(&reports);
                // Replay each epoch's primary stream into storage. (The
                // controller already acquired these samples; the replay
                // regenerates the values without double-counting cost.)
                let mut stored = Vec::new();
                for r in &reports {
                    if let Some(series) = device.poll_clean(r.start, r.primary_rate, r.duration) {
                        stored.extend(series.iter());
                    }
                }
                PolicyRun {
                    collected,
                    stored,
                    epochs: Some(reports),
                }
            }
        }
    }

    /// Runs the policy on every device in order and returns the fleet's
    /// total cost under the default [`CostModel`], with the mean NRMSE and
    /// mean event recall over the devices whose stored record can be
    /// evaluated (infinity and 0 when none can).
    pub fn run_fleet(&self, devices: &mut [SimDevice], duration: Seconds) -> (CostReport, f64, f64) {
        let model = CostModel::default();
        let mut cost = CostReport::default();
        let (mut nrmse_sum, mut recall_sum, mut evaluable) = (0.0, 0.0, 0usize);
        for device in devices.iter_mut() {
            let run = self.run(device, duration);
            cost.accumulate(&CostReport::from_counts(&model, run.collected, run.stored.len()));
            if let Some(q) = evaluate(device, &IrregularSeries::from_pairs(run.stored), duration) {
                nrmse_sum += q.nrmse;
                recall_sum += q.event_recall();
                evaluable += 1;
            }
        }
        if evaluable == 0 {
            return (cost, f64::INFINITY, 0.0);
        }
        (cost, nrmse_sum / evaluable as f64, recall_sum / evaluable as f64)
    }
}

/// Per-worker working set for lockstep fleet epochs: the polling chain's
/// buffers plus the sampler's detection/estimation scratch, whose FFT
/// planner is the worker's one plan-table cache. Every buffer in here is
/// pure scratch — cleared or overwritten before use — and every table a
/// pure function of its length, so one instance lent to each member of a
/// shard in turn produces byte-identical output to per-member copies, at
/// 1/N-members the resident footprint. This is the fleet memory wall: at
/// 10⁵ devices the per-member working sets alone were tens of gigabytes;
/// hoisted per worker they are a few hundred kilobytes total.
#[derive(Default)]
pub struct EpochScratch {
    /// Polling-chain scratch (synthesis scratch, measured buffers, cleaning
    /// scratch).
    pub poll: PollScratch,
    /// Controller scratch (FFT planner, spectra, band tables, recycled
    /// series storage).
    pub sampler: SamplerScratch,
}

impl EpochScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap bytes currently resident in this scratch's buffers (capacity,
    /// not length); the plan tables are counted apart.
    pub fn resident_bytes(&self) -> usize {
        self.poll.resident_bytes() + self.sampler.resident_bytes()
    }
}

/// One device of a budget-scheduled fleet: the §4.2 controller paired with
/// its simulated device, stepped one shared epoch at a time by an external
/// scheduler.
///
/// The member's controller *requests* a rate
/// ([`FleetMember::requested_rate`]); the scheduler decides the grant and
/// calls [`FleetMember::step_epoch`] with a per-worker [`EpochScratch`].
/// Everything a member does is a pure function of its trace, its config and
/// the grant and delivery sequence — the scratch never carries state between
/// members — so a sharded fleet simulation stays byte-identical for any
/// thread count.
///
/// A member holds only *durable* control state (trace, controller mode, rate
/// and memory) and no tallies: each epoch's [`EpochReport`] is the record.
pub struct FleetMember {
    device: SimDevice,
    sampler: AdaptiveSampler,
    /// Fleet-unique index (position in the fleet work list).
    index: usize,
}

impl FleetMember {
    /// Wraps `trace` with a fresh controller.
    pub fn new(index: usize, trace: DeviceTrace, config: AdaptiveConfig) -> Self {
        FleetMember {
            device: SimDevice::new(trace),
            sampler: AdaptiveSampler::new(config),
            index,
        }
    }

    /// Position in the fleet work list.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The metric this member reports.
    pub fn kind(&self) -> MetricKind {
        self.device.trace().profile().kind
    }

    /// Rate the controller wants for the next epoch.
    pub fn requested_rate(&self) -> Hertz {
        self.sampler.requested_rate()
    }

    /// True Nyquist sampling rate of the underlying signal (ground truth,
    /// for quality scoring only — no controller ever sees it).
    pub fn true_nyquist_rate(&self) -> Hertz {
        self.device.trace().true_nyquist_rate()
    }

    /// The controller (health, memory, re-probe rate).
    pub fn sampler(&self) -> &AdaptiveSampler {
        &self.sampler
    }

    /// The controller, mutably: for scheduled sleep and watchdog re-probes.
    pub fn sampler_mut(&mut self) -> &mut AdaptiveSampler {
        &mut self.sampler
    }

    /// The simulated device.
    pub fn device(&self) -> &SimDevice {
        &self.device
    }

    /// Periodogram request counts of this member's controller —
    /// simulation-determined, so a fleet can sum them in device order into
    /// a thread-count-invariant metrics snapshot (see
    /// [`AdaptiveSampler::fft_handle_stats`]).
    pub fn fft_handle_stats(&self) -> sweetspot_dsp::fft::FftHandleStats {
        self.sampler.fft_handle_stats()
    }

    /// Durable heap bytes this member retains between epochs: the trace
    /// identity and signal model, plus its controller's list of transformed
    /// lengths. The controller holds no working buffers or plan tables —
    /// every epoch borrows a worker's [`EpochScratch`].
    pub fn heap_bytes(&self) -> usize {
        self.device.heap_bytes() + self.sampler.fft_handle_bytes()
    }

    /// Runs one lockstep epoch at the scheduler's `granted` rate, through a
    /// worker-owned scratch, with the report delivered as `delivery` says
    /// (see [`AdaptiveSampler::step`]).
    pub fn step_epoch(
        &mut self,
        scratch: &mut EpochScratch,
        start: Seconds,
        granted: Hertz,
        window: Seconds,
        delivery: Delivery,
    ) -> EpochReport {
        let mut source = DeviceSource {
            device: &mut self.device,
            scratch: &mut scratch.poll,
        };
        self.sampler
            .step(&mut scratch.sampler, &mut source, start, granted, window, delivery)
    }

    /// Reboots the member mid-study: the device rewinds its noise stream and
    /// the controller restarts in probe mode from its initial rate — but
    /// keeps its remembered maximum, so the re-ramp is bounded (§4.2's
    /// memory belongs to the monitoring service, not the device).
    pub fn reboot(&mut self) {
        self.device.reboot();
        self.sampler.reboot();
    }

    /// Exchanges the device's ground-truth model with `alt` in place (regime
    /// switch; see [`SimDevice::swap_model`]). The controller is *not*
    /// informed — discovering the new regime through its own sampling is the
    /// point of the scenario.
    pub fn swap_model(&mut self, alt: &mut sweetspot_telemetry::SignalModel) {
        self.device.swap_model(alt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sweetspot_telemetry::MetricProfile;

    fn device() -> SimDevice {
        SimDevice::new(DeviceTrace::synthesize(
            MetricProfile::for_kind(MetricKind::Temperature),
            1,
            7,
        ))
    }

    fn devices(n: usize) -> Vec<SimDevice> {
        (0..n)
            .map(|i| {
                SimDevice::new(DeviceTrace::synthesize(
                    MetricProfile::for_kind(MetricKind::Temperature),
                    i,
                    5,
                ))
            })
            .collect()
    }

    #[test]
    fn fixed_rate_stores_everything_it_collects() {
        let mut d = device();
        let run = Policy::ProductionScaled(1.0).run(&mut d, Seconds::from_days(1.0));
        assert_eq!(run.collected, run.stored.len());
        assert!(run.collected >= 280, "{}", run.collected);
        assert!(run.epochs.is_none());
    }

    #[test]
    fn production_default_runs_and_evaluates() {
        let mut devs = devices(1);
        let duration = Seconds::from_days(2.0);
        let run = Policy::ProductionScaled(1.0).run(&mut devs[0], duration);
        assert!(run.collected >= 560);
        let q = evaluate(&devs[0], &IrregularSeries::from_pairs(run.stored), duration)
            .expect("dense record evaluates");
        assert!(q.nrmse < 0.2, "NRMSE {}", q.nrmse);
    }

    #[test]
    fn posteriori_stores_fewer_than_it_collects() {
        let mut d = crate::testutil::thinnable_device(7);
        let run = Policy::PosterioriNyquist { headroom: 1.25 }.run(&mut d, Seconds::from_days(2.0));
        assert!(
            run.stored.len() * 2 <= run.collected,
            "expected ≥2× thinning, stored {} of {}",
            run.stored.len(),
            run.collected
        );
    }

    #[test]
    fn posteriori_cuts_storage_not_collection() {
        let duration = Seconds::from_days(2.0);
        let base = Policy::ProductionScaled(1.0)
            .run_fleet(&mut [crate::testutil::thinnable_device(5)], duration)
            .0;
        let post = Policy::PosterioriNyquist { headroom: 1.25 }
            .run_fleet(&mut [crate::testutil::thinnable_device(5)], duration)
            .0;
        // Same acquisition rate; the posteriori path re-grids lost samples,
        // so counts differ by at most the ~0.2% drop rate plus a fence-post.
        let diff = base.samples_collected.abs_diff(post.samples_collected);
        assert!(
            diff <= base.samples_collected / 50 + 1,
            "acquisition counts should nearly match: {} vs {}",
            base.samples_collected,
            post.samples_collected
        );
        assert!(
            post.samples_stored * 2 <= base.samples_stored,
            "posteriori should store ≥2× less: {} vs {}",
            post.samples_stored,
            base.samples_stored
        );
        assert!(post.total() < base.total());
    }

    #[test]
    fn scaled_policy_scales_cost() {
        let duration = Seconds::from_days(1.0);
        let mut devs = devices(2);
        let full = Policy::ProductionScaled(1.0).run(&mut devs[0], duration);
        let tenth = Policy::ProductionScaled(0.1).run(&mut devs[1], duration);
        let ratio = full.collected as f64 / tenth.collected as f64;
        assert!((8.0..12.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn fleet_aggregation() {
        let duration = Seconds::from_days(1.0);
        let sum: usize = devices(3)
            .iter_mut()
            .map(|d| Policy::ProductionScaled(1.0).run(d, duration).collected)
            .sum();
        let (cost, nrmse, recall) = Policy::ProductionScaled(1.0).run_fleet(&mut devices(3), duration);
        assert_eq!(cost.samples_collected, sum);
        assert!(nrmse.is_finite());
        assert!((0.0..=1.0).contains(&recall));
    }

    #[test]
    fn adaptive_produces_epoch_reports() {
        let mut d = device();
        let run = Policy::Adaptive(AdaptiveConfig {
            initial_rate: Hertz(1.0 / 300.0),
            min_rate: Hertz(1e-6),
            max_rate: Hertz(1.0),
            epoch: Seconds::from_hours(12.0),
            ..AdaptiveConfig::default()
        })
        .run(&mut d, Seconds::from_days(4.0));
        let epochs = run.epochs.expect("adaptive yields epochs");
        assert!(!epochs.is_empty());
        assert!(run.collected > 0);
        assert!(!run.stored.is_empty());
        // Stored samples must be time-ordered enough to form a series later.
        let collected_sum: usize = epochs.iter().map(|e| e.samples_taken).sum();
        assert_eq!(run.collected, collected_sum);
    }

    #[test]
    fn fleet_member_full_grants_reproduce_adaptive_plan() {
        // A member granted exactly what it requests, over windows at least
        // as long as the classic controller would pick, must walk the same
        // rate trajectory as the adaptive policy's standalone sampler.
        let config = AdaptiveConfig {
            initial_rate: Hertz(1.0 / 300.0),
            min_rate: Hertz(1e-6),
            max_rate: Hertz(1.0),
            epoch: Seconds::from_hours(12.0),
            ..AdaptiveConfig::default()
        };
        let trace = || {
            DeviceTrace::synthesize(MetricProfile::for_kind(MetricKind::Temperature), 1, 7)
        };
        let reference =
            Policy::Adaptive(config).run(&mut SimDevice::new(trace()), Seconds::from_days(4.0));
        let mut member = FleetMember::new(0, trace(), config);
        let mut scratch = EpochScratch::new();
        let mut t = Seconds::ZERO;
        let mut epochs = Vec::new();
        while t.value() < Seconds::from_days(4.0).value() {
            let ref_epoch = &reference.epochs.as_ref().unwrap()[epochs.len()];
            let grant = member.requested_rate();
            let r = member.step_epoch(&mut scratch, t, grant, ref_epoch.duration, Delivery::OnTime);
            t = t + r.duration;
            epochs.push(r);
        }
        assert_eq!(reference.epochs.as_ref().unwrap(), &epochs);
        assert_eq!(epochs.iter().filter(|r| r.deferred()).count(), 0);
    }

    #[test]
    fn fleet_member_records_deferrals_under_cuts() {
        let config = AdaptiveConfig {
            initial_rate: Hertz(1.0 / 300.0),
            min_rate: Hertz(1e-6),
            max_rate: Hertz(1.0),
            epoch: Seconds::from_hours(12.0),
            ..AdaptiveConfig::default()
        };
        let trace =
            DeviceTrace::synthesize(MetricProfile::for_kind(MetricKind::Temperature), 1, 7);
        let nyquist = trace.true_nyquist_rate();
        let mut member = FleetMember::new(3, trace, config);
        assert_eq!(member.index(), 3);
        assert_eq!(member.true_nyquist_rate(), nyquist);
        let window = Seconds::from_hours(12.0);
        let grant = Hertz(member.requested_rate().value() / 4.0);
        let mut scratch = EpochScratch::new();
        let r = member.step_epoch(&mut scratch, Seconds::ZERO, grant, window, Delivery::OnTime);
        assert!(r.throttled);
        assert!(r.deferred());
        assert!(
            member.requested_rate().value() >= r.requested_rate.value() * (1.0 - 1e-9),
            "request must survive the cut"
        );
    }
}
