//! Sampling policies.
//!
//! Three families, mirroring §3–§4 of the paper:
//!
//! * [`FixedRatePlan`] — today's systems: poll at an operator-chosen rate,
//!   store everything. The §3.1 baseline ("the degree of sampling … is
//!   entirely arbitrary").
//! * [`PosterioriPlan`] — §4's first variant: *"measure at a high rate,
//!   compute the nyquist rate over the measurements and store or present for
//!   later analysis only the measurements that are re-sampled at the lower
//!   nyquist rate"*. Collection cost stays high; storage and analysis costs
//!   drop.
//! * [`AdaptivePlan`] — §4.2's dynamic sampler: acquisition itself runs at
//!   the adapted rate (plus the §4.1 verification stream).
//!
//! [`FleetMember`] packages the adaptive controller with its device for
//! *lockstep* fleet simulation: an external scheduler grants each member a
//! rate per shared epoch (see `analysis::fleetsim`).

use crate::device::{DeviceSource, PollScratch, ScratchSource, SimDevice};
use sweetspot_core::adaptive::{AdaptiveConfig, AdaptiveSampler, EpochReport, SamplerScratch};
use sweetspot_telemetry::{DeviceTrace, MetricKind};
use sweetspot_core::estimator::{NyquistConfig, NyquistEstimator};
use sweetspot_core::reconstruct::{decimation_factor, downsample};
use sweetspot_timeseries::{Hertz, Seconds};

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

/// Fixed-rate polling (the production baseline).
#[derive(Debug, Clone, Copy)]
pub struct FixedRatePlan {
    /// The polling rate.
    pub rate: Hertz,
}

impl FixedRatePlan {
    /// Polls `device` for `duration`, storing every sample.
    pub fn run(&self, device: &mut SimDevice, duration: Seconds) -> PolicyRun {
        let raw = device.poll(Seconds::ZERO, self.rate, duration);
        let stored: Vec<(Seconds, f64)> = raw.iter().collect();
        PolicyRun {
            collected: stored.len(),
            stored,
            epochs: None,
        }
    }
}

/// Measure fast, estimate the Nyquist rate a posteriori, store downsampled.
#[derive(Debug, Clone, Copy)]
pub struct PosterioriPlan {
    /// Acquisition rate (typically the production default).
    pub acquisition_rate: Hertz,
    /// Estimator settings.
    pub estimator: NyquistConfig,
    /// Store at `headroom × estimated Nyquist rate`.
    pub headroom: f64,
}

impl PosterioriPlan {
    /// Polls fast, stores at the estimated Nyquist rate.
    ///
    /// When the estimator reports "aliased", everything collected is stored
    /// (there is no safe rate to thin to).
    pub fn run(&self, device: &mut SimDevice, duration: Seconds) -> PolicyRun {
        let cleaned = device
            .poll_clean(Seconds::ZERO, self.acquisition_rate, duration)
            .expect("acquisition rate should produce enough samples");
        let collected = cleaned.len();
        let mut estimator = NyquistEstimator::new(self.estimator);
        let stored_series = match estimator.estimate_series(&cleaned).rate() {
            Some(nyq) => {
                let target = Hertz(nyq.value() * self.headroom.max(1.0));
                let factor = decimation_factor(cleaned.sample_rate(), target);
                downsample(&cleaned, factor)
            }
            // Aliased: there is no safe rate to thin to, so everything
            // collected moves straight into storage.
            None => cleaned,
        };
        PolicyRun {
            collected,
            stored: stored_series.iter().collect(),
            epochs: None,
        }
    }
}

/// The §4.2 adaptive sampler as a policy.
#[derive(Debug, Clone, Copy)]
pub struct AdaptivePlan {
    /// Controller configuration.
    pub config: AdaptiveConfig,
}

impl AdaptivePlan {
    /// Runs the controller against the device; the primary stream is stored.
    pub fn run(&self, device: &mut SimDevice, duration: Seconds) -> PolicyRun {
        let mut sampler = AdaptiveSampler::new(self.config);
        let reports = {
            let mut source = DeviceSource(device);
            sampler.run(&mut source, duration)
        };
        let collected = sweetspot_core::adaptive::total_samples(&reports);
        // Replay each epoch's primary stream into storage. (The controller
        // already acquired these samples; the replay regenerates the values
        // without double-counting cost.)
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

/// Per-worker working set for lockstep fleet epochs: the polling chain's
/// buffers plus the sampler's detection/estimation scratch. Every buffer in
/// here is pure scratch — cleared or overwritten before use — so one
/// instance lent to each member of a shard in turn produces byte-identical
/// output to per-member copies, at 1/N-members the resident footprint.
/// This is the fleet memory wall: at 10⁵ devices the per-member working
/// sets alone were tens of gigabytes; hoisted per worker they are a few
/// hundred kilobytes total.
#[derive(Debug, Default)]
pub struct EpochScratch {
    /// Polling-chain scratch (oscillator bank, truth grid, measured
    /// buffers, cleaning scratch).
    pub poll: PollScratch,
    /// Controller scratch (detector, estimator, recycled series storage).
    pub sampler: SamplerScratch,
}

impl EpochScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap bytes currently resident in this scratch (capacity, not length).
    pub fn resident_bytes(&self) -> usize {
        self.poll.resident_bytes() + self.sampler.resident_bytes()
    }
}

/// One device of a budget-scheduled fleet: the §4.2 controller paired with
/// its simulated device plus per-device accounting, stepped one shared
/// epoch at a time by an external scheduler.
///
/// The member's controller *requests* a rate
/// ([`FleetMember::requested_rate`]); the scheduler decides the grant and
/// calls [`FleetMember::step_epoch`] with a per-worker [`EpochScratch`].
/// Everything a member does is a pure function of its trace, its config and
/// the grant sequence — the scratch never carries state between members —
/// so a sharded fleet simulation stays byte-identical for any thread count.
///
/// A member holds only *durable* control state (trace, controller mode and
/// rate, accounting); all working buffers live in the scratch.
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

    /// [`FleetMember::new`] with a caller-supplied FFT planner. Fleet
    /// engines pass each member a clone of one per-worker planner, so 10⁵
    /// members on a shard share one table cache instead of holding ~10⁵
    /// copies of identical twiddle/chirp/window tables — at large-fleet
    /// scale this is the difference between gigabytes and megabytes. Plan
    /// tables never influence results.
    pub fn with_planner(
        index: usize,
        trace: DeviceTrace,
        config: AdaptiveConfig,
        planner: sweetspot_dsp::fft::FftPlanner,
    ) -> Self {
        FleetMember {
            device: SimDevice::new(trace),
            sampler: AdaptiveSampler::with_planner(config, planner),
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

    /// The controller (deferral counters, mode, memory).
    pub fn sampler(&self) -> &AdaptiveSampler {
        &self.sampler
    }

    /// The controller, mutably: for the epochs that need no sampling
    /// (missed reports, scheduled sleep) and for watchdog re-probes.
    pub fn sampler_mut(&mut self) -> &mut AdaptiveSampler {
        &mut self.sampler
    }

    /// The simulated device.
    pub fn device(&self) -> &SimDevice {
        &self.device
    }

    /// Plan-request counts of this member's FFT planner handle — per-member
    /// and simulation-determined, so a fleet can sum them in device order
    /// into a thread-count-invariant metrics snapshot (see
    /// [`sweetspot_dsp::fft::FftHandleStats`]).
    pub fn fft_handle_stats(&self) -> sweetspot_dsp::fft::FftHandleStats {
        self.sampler.fft_handle_stats()
    }

    /// Durable heap bytes this member retains between epochs: the trace
    /// identity and signal model. The controller holds no working buffers —
    /// every epoch borrows a worker's [`EpochScratch`].
    pub fn heap_bytes(&self) -> usize {
        self.device.heap_bytes()
    }

    /// Runs one lockstep epoch at the scheduler's `granted` rate, through a
    /// worker-owned scratch.
    pub fn step_epoch(
        &mut self,
        scratch: &mut EpochScratch,
        start: Seconds,
        granted: Hertz,
        window: Seconds,
    ) -> EpochReport {
        let mut source = ScratchSource {
            device: &mut self.device,
            scratch: &mut scratch.poll,
        };
        self.sampler
            .step_granted(&mut scratch.sampler, &mut source, start, granted, window)
    }

    /// One lockstep epoch whose report reaches the controller too late to
    /// adapt on: the primary stream is sampled (and billed), adaptation is
    /// frozen for the epoch ([`AdaptiveSampler::step_delayed`]).
    pub fn step_epoch_delayed(
        &mut self,
        scratch: &mut EpochScratch,
        start: Seconds,
        granted: Hertz,
        window: Seconds,
    ) -> EpochReport {
        let mut source = ScratchSource {
            device: &mut self.device,
            scratch: &mut scratch.poll,
        };
        self.sampler
            .step_delayed(&mut scratch.sampler, &mut source, start, granted, window)
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


    #[test]
    fn fixed_rate_stores_everything_it_collects() {
        let mut d = device();
        let run = FixedRatePlan {
            rate: Hertz(1.0 / 300.0),
        }
        .run(&mut d, Seconds::from_days(1.0));
        assert_eq!(run.collected, run.stored.len());
        assert!(run.collected >= 280, "{}", run.collected);
        assert!(run.epochs.is_none());
    }

    #[test]
    fn posteriori_stores_fewer_than_it_collects() {
        let mut d = crate::testutil::thinnable_device(7);
        let run = PosterioriPlan {
            acquisition_rate: Hertz(1.0 / 300.0),
            estimator: NyquistConfig::default(),
            headroom: 1.25,
        }
        .run(&mut d, Seconds::from_days(2.0));
        assert!(
            run.stored.len() * 2 <= run.collected,
            "expected ≥2× thinning, stored {} of {}",
            run.stored.len(),
            run.collected
        );
    }

    #[test]
    fn adaptive_produces_epoch_reports() {
        let mut d = device();
        let run = AdaptivePlan {
            config: AdaptiveConfig {
                initial_rate: Hertz(1.0 / 300.0),
                min_rate: Hertz(1e-6),
                max_rate: Hertz(1.0),
                epoch: Seconds::from_hours(12.0),
                ..AdaptiveConfig::default()
            },
        }
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
        // rate trajectory as AdaptivePlan's standalone sampler.
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
        let reference = AdaptivePlan { config }
            .run(&mut SimDevice::new(trace()), Seconds::from_days(4.0));
        let mut member = FleetMember::new(0, trace(), config);
        let mut scratch = EpochScratch::new();
        let mut t = Seconds::ZERO;
        let mut epochs = Vec::new();
        while t.value() < Seconds::from_days(4.0).value() {
            let ref_epoch = &reference.epochs.as_ref().unwrap()[epochs.len()];
            let r = member.step_epoch(&mut scratch, t, member.requested_rate(), ref_epoch.duration);
            t = t + r.duration;
            epochs.push(r);
        }
        assert_eq!(reference.epochs.as_ref().unwrap(), &epochs);
        assert_eq!(member.sampler().deferred_epochs(), 0);
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
        let r = member.step_epoch(&mut scratch, Seconds::ZERO, grant, window);
        assert!(r.throttled);
        assert_eq!(member.sampler().deferred_epochs(), 1);
        assert!(
            member.requested_rate().value() >= r.requested_rate.value() * (1.0 - 1e-9),
            "request must survive the cut"
        );
    }
}
