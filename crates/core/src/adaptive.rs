//! The §4.2 dynamic sampling controller.
//!
//! State machine, following the paper's strawman:
//!
//! * **Probe mode** — "Initially, we do not know the Nyquist rate of the
//!   underlying signal and so we must probe, i.e., multiplicatively increase
//!   the measurement rate along with the method in Section 4.1 … While
//!   aliasing persists, we remain in probe mode."
//! * **Steady mode** — "Once we no longer detect aliasing, we use the method
//!   in Section 3.2 which will successfully identify the Nyquist rate of the
//!   signal." The controller then samples at `headroom × estimate` and keeps
//!   verifying with the dual-rate check.
//! * **Adaptive decrease** — "we can optimize the system by also adaptively
//!   decreasing the sampling rate if we observe the Nyquist rate returning
//!   to a lower value" — applied after 3 consecutive epochs whose target is
//!   below 0.7× the current rate (hysteresis).
//! * **Memory** — "We can even 'remember' previous maximum Nyquist rates to
//!   ramp up more quickly in the future": on re-entering probe mode the
//!   controller jumps straight to the remembered maximum.
//!
//! ### Budget grants
//!
//! A fleet-level scheduler (see `analysis::fleetsim`) may not be able to
//! afford the rate a controller asks for. [`AdaptiveSampler::step`] runs one
//! epoch at an externally *granted* rate over an externally fixed window
//! (fleet epochs are lockstep — every device shares the scheduling quantum),
//! and is told whether the epoch's report reaches the controller on time,
//! late or not at all ([`Delivery`]). When the grant is below the request the
//! epoch is **throttled**:
//!
//! * the report says so, and counts as a deferral
//!   ([`EpochReport::deferred`]) — the controller keeps no tally of its own;
//!   a fleet counts deferrals by folding the reports it receives;
//! * an **aliased** throttled epoch can only *raise* the next request
//!   (re-ramping through the §4.2 memory), never lower it — the cut is the
//!   evidence, not falling demand;
//! * a throttled epoch the §4.1 dual-rate detector *verified clean* is
//!   trusted like any other: the detector's whole job is to certify that
//!   the current (here: granted) rate suffices, so the request adapts down
//!   to `headroom × estimate` with the usual hysteresis — this is how a
//!   budget-bound fleet sheds demand it never actually needed;
//! * grants are clamped into `[min_rate, max_rate]`, and streams too short
//!   for the §4.1 detector (fewer than 16 samples in the window) skip
//!   verification rather than panic — the companion stream is then not
//!   acquired (the epoch is not billed for it), and because nothing was
//!   verified the request is **held**, not lowered: a folded spectrum can
//!   look deceptively clean, and only the detector can tell;
//! * likewise, a window with fewer than 64 primary samples is too short for
//!   the §3.2 estimator to be meaningful (its flat-spectrum guard would cry
//!   "aliased" on every noisy short window and ratchet the fleet to its
//!   rate ceiling) — such epochs are **evidence-free**: the controller
//!   samples at the granted rate, bills the cost, and holds its state. A
//!   device that settles to a rate slower than the lockstep window can
//!   resolve simply stops re-estimating until budget or demand move it.
//!
//! ### Headroom floor
//!
//! Steady-state verification samples a companion stream at `rate/φ`
//! (φ ≈ 1.618, guaranteeing the non-integer ratio of §4.1). The companion's
//! band check covers `rate/(2φ)`, so continuous verification is only stable
//! when `rate ≥ 2φ·band_edge` — an effective headroom of ≈1.62× the Nyquist
//! rate. [`AdaptiveSampler::new`] therefore clamps `headroom` up to
//! [`MIN_VERIFY_HEADROOM`]; this is itself a finding about the *real* cost
//! of the paper's always-on detector.
//!
//! ### Batched verification
//!
//! Continuous verification costs `1/φ ≈ 62%` extra samples forever.
//! [`AdaptiveConfig::verify_every`]` = k` amortizes it: a *settled*
//! controller acquires the companion stream only every k-th epoch; the
//! skipped epochs poll just the primary. The skipped epochs are handled
//! conservatively — they can **raise** the request (following a rising
//! estimate is safe; the raise is then verified on the pulled-forward next
//! epoch) but never lower it, and an estimator "aliased" verdict on a
//! skipped epoch holds the rate and forces verification next epoch instead
//! of probing (the §4.1 detector, not the flat-spectrum guard, is the
//! arbiter of aliasing). Probe-mode epochs always verify. `k = 1` is
//! bit-identical to the classic controller.

use crate::aliasing::{
    companion_rate, compare_spectra, detector_spectrum, BandScratch, DualRateConfig,
};
use crate::estimator::{NyquistConfig, NyquistEstimate, NyquistEstimator};
use crate::source::SignalSource;
use sweetspot_dsp::fft::{FftHandleStats, FftPlanner};
use sweetspot_timeseries::{grid_len, Hertz, Seconds};

/// Minimum steady-state headroom compatible with continuous dual-rate
/// verification (see module docs).
pub const MIN_VERIFY_HEADROOM: f64 = 1.65;

/// Rate multiplier while probing (paper: multiplicative increase).
const PROBE_STEP: f64 = 2.0;

/// Consecutive low-estimate epochs required before decreasing.
const CUT_PATIENCE: usize = 3;

/// A new target must be below `CUT_THRESHOLD × current` to count
/// toward the patience counter (hysteresis).
const CUT_THRESHOLD: f64 = 0.7;

/// Minimum samples per epoch window for the detector/estimator to be
/// meaningful; shorter windows are auto-extended.
const MIN_EPOCH_SAMPLES: usize = 64;

/// Minimum samples per stream for the §4.1 dual-rate detector (its hard
/// precondition). Lockstep epochs below this skip verification.
const MIN_DETECT_SAMPLES: usize = 16;

/// Consecutive settled epochs without an aliasing alarm below the
/// remembered maximum before the controller is classified
/// [`HealthState::SuspectDeadlocked`]. "Without an alarm" covers both a
/// verified-clean §4.1 verdict *and* an epoch too slow to verify at all
/// (fewer than the estimator's 64-sample minimum in the window): a controller
/// that cannot even check itself is silent, not healthy. Small by design
/// (the KISS principle: the signal must stay cheap) — a fleet watchdog
/// rate-limits what it does about the suspicion, not the suspicion itself.
pub const SUSPECT_QUIET_EPOCHS: usize = 3;

/// Controller mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Multiplicatively increasing the rate until aliasing clears.
    Probe,
    /// Tracking `headroom × estimated Nyquist`.
    Steady,
}

/// Coarse per-member health, derived entirely from state the controller
/// already keeps — no extra sampling, no extra estimator runs (the KISS
/// health-signal principle: cheap enough to read for every member every
/// epoch).
///
/// The interesting state is [`HealthState::SuspectDeadlocked`]: a settled
/// controller whose request sits *below* its remembered maximum after
/// [`SUSPECT_QUIET_EPOCHS`] consecutive epochs without an aliasing alarm —
/// verified clean, or too slow to verify at all. That is exactly the
/// signature of the post-incident aliasing deadlock — folded tones landed
/// in-band (in the terminal form, a flat folded spectrum floors the
/// estimate so low the detector can never run again), the §4.1 machinery
/// raises no alarm forever, and the device under-samples until something
/// external re-probes it. Suspicion is
/// deliberately over-inclusive (any device that settled back down after a
/// regime revert matches); a fleet watchdog disambiguates by *scheduling a
/// bounded re-probe*, which either re-settles at the same rate (suspicion
/// retired cheaply) or recovers the lost band.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Settled, verified, nothing to explain.
    Healthy,
    /// Probing / re-ramping, or reports currently missing — the controller
    /// is already doing the right thing; a watchdog should wait.
    Recovering,
    /// Settled below the remembered maximum with a clean verification
    /// streak: possibly aliasing-deadlocked (see type docs).
    SuspectDeadlocked,
    /// The device's last epoch was a scheduled sleep (duty cycle / battery
    /// conservation), not a failure.
    Dormant,
}

/// Controller configuration.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveConfig {
    /// Rate used for the very first epoch.
    pub initial_rate: Hertz,
    /// Lowest rate the controller will settle to.
    pub min_rate: Hertz,
    /// Polling ceiling (physical/SNMP limits).
    pub max_rate: Hertz,
    /// Steady-state rate = `headroom × estimated Nyquist rate`. Clamped up
    /// to [`MIN_VERIFY_HEADROOM`].
    pub headroom: f64,
    /// Remember past maxima and re-ramp to them directly.
    pub memory: bool,
    /// Batched verification cadence: once settled (Steady mode), run the
    /// §4.1 companion stream only every `verify_every`-th epoch instead of
    /// every epoch. `1` (the default) is continuous verification — exactly
    /// the classic behavior. Probe-mode epochs always verify (the verdict
    /// *is* the probe's exit condition), and any anomaly on a skipped epoch
    /// pulls the next verification forward (see the module docs). `0` is
    /// treated as `1`.
    pub verify_every: usize,
    /// Nominal epoch window (auto-extended at very low rates so the window
    /// holds at least 64 samples).
    pub epoch: Seconds,
    /// Detector settings (§4.1). The §3.2 estimator always runs with
    /// [`NyquistConfig::default`], whose PSD is the detector's, so both read
    /// one fast-stream spectrum per epoch.
    pub detector: DualRateConfig,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            initial_rate: Hertz(1.0),
            min_rate: Hertz(1e-6),
            max_rate: Hertz(100.0),
            headroom: MIN_VERIFY_HEADROOM,
            memory: true,
            verify_every: 1,
            epoch: Seconds(600.0),
            detector: DualRateConfig::default(),
        }
    }
}

/// How the controller moved its request at the end of an epoch — the §4.2
/// state machine's transition, made observable so a fleet can count them
/// without re-deriving the decision tree from raw rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochAction {
    /// Aliasing escalated the request up the multiplicative probe ladder.
    Probe,
    /// Aliasing re-ramped the request straight to `headroom ×` the
    /// remembered §4.2 maximum (the memory jump beat the ladder step).
    Reramp,
    /// A probe-mode epoch found its rate and settled to the target.
    Settle,
    /// The steady-state target rose above the primary rate and the request
    /// followed it up.
    Raise,
    /// A hysteresis-approved decrease to the target.
    Cut,
    /// The request held: steady and on target, decrease patience still
    /// counting, an unverifiable or cadence-skipped epoch, or a window too
    /// short to yield evidence.
    Hold,
    /// No adaptation ran at all — the epoch's report was missed or arrived
    /// too late to act on.
    Defer,
}

/// How one epoch's report reaches the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// The report arrives in time: an ordinary §4.2 epoch.
    OnTime,
    /// The report arrives after the next scheduling decision. The device
    /// polls at the granted rate and the samples are real (they arrive, are
    /// billed, and cover the signal), but the controller cannot adapt on
    /// evidence it does not have yet: the request holds, no detection or
    /// estimation runs, and the next detectable epoch is forced to verify.
    /// The arrival (however late) resets the missed streak: the device is
    /// alive.
    Late,
    /// The report never reaches the controller: the device vanished, the
    /// poll failed, or the report was dropped in flight. The source is never
    /// sampled and nothing arrives. Absent evidence is handled by
    /// **hold-and-decay**, never a silent stale estimate: the request holds
    /// for the first two consecutive losses, then halves per further loss
    /// down to `min_rate`, so a device that stops reporting progressively
    /// releases its budget share.
    /// The remembered maximum is untouched, so the re-ramp when evidence
    /// returns is one memory jump, not a fresh probe ladder; and the next
    /// detectable epoch is forced to verify, so a folded post-outage
    /// spectrum cannot pass unchecked.
    Lost,
}

/// What happened in one adaptation epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochReport {
    /// Epoch number (0-based).
    pub index: usize,
    /// Window start time.
    pub start: Seconds,
    /// Window duration actually used (≥ configured epoch).
    pub duration: Seconds,
    /// Mode during this epoch.
    pub mode: Mode,
    /// Rate the controller *asked* for (equals `primary_rate` unless a
    /// scheduler throttled the epoch).
    pub requested_rate: Hertz,
    /// `true` when the granted rate was below the requested rate.
    pub throttled: bool,
    /// Primary sampling rate used.
    pub primary_rate: Hertz,
    /// Companion (verification) rate used.
    pub secondary_rate: Hertz,
    /// Dual-rate detector verdict for this window.
    pub aliased: bool,
    /// §3.2 estimate from the primary window (None when the estimator itself
    /// says "aliased").
    pub estimate: Option<Hertz>,
    /// Total samples acquired this epoch (primary + companion streams).
    pub samples_taken: usize,
    /// Rate chosen for the next epoch.
    pub next_rate: Hertz,
    /// `true` when the §4.1 dual-rate detector actually ran this epoch
    /// (both streams acquired with enough samples).
    pub verified: bool,
    /// The state-machine transition this epoch performed.
    pub action: EpochAction,
}

impl EpochReport {
    /// Whether adaptation was pushed out this epoch: the grant was cut below
    /// the request, or the report arrived late or never (every late or lost
    /// epoch reports [`EpochAction::Defer`]). Each such epoch counts once.
    pub fn deferred(&self) -> bool {
        self.throttled || self.action == EpochAction::Defer
    }
}

/// The controller's transient working set for one epoch: the FFT planner
/// (cached tables and working buffers), the recycled power buffers of the
/// two streams' spectra, the detector's band tables, and the recycled value
/// buffers for the primary and companion streams.
///
/// Callers lend one to [`AdaptiveSampler::step`]; [`AdaptiveSampler::run`]
/// keeps one for the whole run, and the fleet engine keeps one *per worker*,
/// so 10⁵ member controllers share a handful of warmed-up working sets and
/// plan tables, and hold only durable control state (rates, hysteresis and
/// cadence counters, remembered max). Scratch contents never influence
/// results — every buffer is cleared or overwritten before use, and every
/// table is a pure function of its length.
#[derive(Default)]
pub struct SamplerScratch {
    /// The FFT planner both streams' periodograms run through.
    planner: FftPlanner,
    /// Power buffers of the primary and companion spectra.
    fast_power: Vec<f64>,
    slow_power: Vec<f64>,
    /// §4.1 band-power tables.
    bands: BandScratch,
    /// Value buffers for the primary/companion streams: each epoch lends them
    /// to [`SignalSource::sample`] and takes them back from the returned
    /// series, so a source with a zero-allocation path (e.g.
    /// `monitor::DeviceSource`) makes the whole epoch allocation-free.
    fast_spare: Vec<f64>,
    slow_spare: Vec<f64>,
}

impl SamplerScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty scratch whose plan-table cache is capped at `budget` bytes
    /// (see [`FftPlanner::set_table_budget`]); eviction never changes a
    /// result.
    pub fn with_table_budget(budget: Option<usize>) -> Self {
        let mut scratch = Self::default();
        scratch.planner.set_table_budget(budget);
        scratch
    }

    /// The planner the periodograms run through, for its table accounting
    /// ([`FftPlanner::table_bytes`], [`FftPlanner::table_build_time`]).
    pub fn planner(&self) -> &FftPlanner {
        &self.planner
    }

    /// Heap bytes the working buffers currently hold (capacities, not
    /// lengths). The planner's tables are [`FftPlanner::table_bytes`].
    pub fn resident_bytes(&self) -> usize {
        self.planner.buffer_bytes()
            + self.bands.resident_bytes()
            + (self.fast_power.capacity()
                + self.slow_power.capacity()
                + self.fast_spare.capacity()
                + self.slow_spare.capacity())
                * std::mem::size_of::<f64>()
    }
}

/// The dynamic sampler. It keeps only the state its next decision reads;
/// everything that happened is in the [`EpochReport`]s it returns.
pub struct AdaptiveSampler {
    config: AdaptiveConfig,
    estimator: NyquistEstimator,
    /// Sorted periodogram lengths this controller has transformed — a
    /// handful in practice, since settled controllers revisit the same
    /// lengths, so the steady state never inserts (and never allocates).
    fft_lengths: Vec<usize>,
    /// Its periodogram requests: a miss per first-seen length, a hit per
    /// repeat (see [`FftHandleStats`]).
    fft_stats: FftHandleStats,
    mode: Mode,
    rate: Hertz,
    remembered_max: Option<Hertz>,
    low_streak: usize,
    epoch_index: usize,
    /// Settled epochs since the §4.1 companion last ran (batched
    /// verification; stays 0 under the default continuous cadence).
    since_verify: usize,
    /// Consecutive epochs whose report never reached the controller at all
    /// ([`Delivery::Lost`]): drives hold-and-decay on absent evidence. Any
    /// arriving report resets it.
    missed_streak: usize,
    /// Consecutive settled epochs the §4.1 detector verified clean (reset by
    /// aliasing, probing, a lost report, or reboot). Feeds the
    /// [`HealthState::SuspectDeadlocked`] classification; never consulted by
    /// the adaptation decision tree.
    quiet_streak: usize,
    /// The last epoch was a scheduled sleep ([`Self::note_dormant_epoch`]);
    /// cleared by any stepped epoch or reboot.
    dormant: bool,
}

impl AdaptiveSampler {
    /// Creates a controller.
    ///
    /// # Panics
    /// Panics on inconsistent configuration (non-positive rates,
    /// `min > max`, non-positive epoch).
    pub fn new(mut config: AdaptiveConfig) -> Self {
        assert!(config.initial_rate.value() > 0.0, "initial_rate must be positive");
        assert!(config.min_rate.value() > 0.0, "min_rate must be positive");
        assert!(
            config.min_rate.value() <= config.max_rate.value(),
            "min_rate must not exceed max_rate"
        );
        assert!(config.epoch.value() > 0.0, "epoch must be positive");
        config.headroom = config.headroom.max(MIN_VERIFY_HEADROOM);
        let rate = Hertz(
            config
                .initial_rate
                .value()
                .clamp(config.min_rate.value(), config.max_rate.value()),
        );
        AdaptiveSampler {
            estimator: NyquistEstimator::new(NyquistConfig::default()),
            fft_lengths: Vec::new(),
            fft_stats: FftHandleStats::default(),
            config,
            mode: Mode::Probe,
            rate,
            remembered_max: None,
            low_streak: 0,
            epoch_index: 0,
            since_verify: 0,
            missed_streak: 0,
            quiet_streak: 0,
            dormant: false,
        }
    }

    /// Rate the next epoch will use — equivalently, the rate the controller
    /// *requests* from a fleet scheduler for its next epoch.
    pub fn requested_rate(&self) -> Hertz {
        self.rate
    }

    /// Highest Nyquist estimate seen so far (the §4.2 "memory").
    pub fn remembered_max(&self) -> Option<Hertz> {
        self.remembered_max
    }

    /// Classifies the controller's health from state it already keeps —
    /// O(1), no sampling, no estimator work. See [`HealthState`].
    pub fn health(&self) -> HealthState {
        if self.dormant {
            return HealthState::Dormant;
        }
        if self.missed_streak > 0 || (self.mode == Mode::Probe && self.epoch_index > 0) {
            return HealthState::Recovering;
        }
        let below_memory = self
            .remembered_max
            .is_some_and(|m| self.rate.value() < m.value() * (1.0 - 1e-9));
        if self.mode == Mode::Steady && below_memory && self.quiet_streak >= SUSPECT_QUIET_EPOCHS {
            return HealthState::SuspectDeadlocked;
        }
        HealthState::Healthy
    }

    /// The rate [`Self::begin_reprobe`] would request, without mutating
    /// anything — the watchdog's affordability peek, so admission control
    /// can price a re-probe against its recovery pool *before* committing
    /// the controller to it.
    pub fn reprobe_rate(&self) -> Hertz {
        let remembered = self
            .remembered_max
            .map_or(self.rate.value(), |m| m.value() * self.config.headroom);
        Hertz(
            remembered
                .max(self.rate.value())
                .clamp(self.config.min_rate.value(), self.config.max_rate.value()),
        )
    }

    /// Forces the controller into a watchdog-scheduled re-probe **above**
    /// its remembered maximum: the next epoch runs in probe mode at
    /// `headroom × remembered max` (clamped), with verification due
    /// immediately. This is the fleet-side escape hatch for the aliasing
    /// deadlock the §4.1 detector cannot see: folded tones that land
    /// in-band verify clean at the wrong low rate, and only sampling above
    /// the old requirement can tell a genuinely-calmed signal from a folded
    /// one. One clean epoch at the elevated rate re-settles through the
    /// ordinary [`EpochAction::Settle`] machinery (suspicion retired at the
    /// cost of a single fast epoch); a still-aliased verdict escalates up
    /// the normal probe ladder.
    ///
    /// Returns the rate the re-probe will request, so a budget-admission
    /// layer can account for it. Deliberately does **not** touch the
    /// remembered maximum or the epoch index — the re-probe is an ordinary
    /// epoch once granted.
    pub fn begin_reprobe(&mut self) -> Hertz {
        let target = self.reprobe_rate();
        self.mode = Mode::Probe;
        self.rate = target;
        self.low_streak = 0;
        self.quiet_streak = 0;
        self.since_verify = 0;
        target
    }

    /// Records a **scheduled** sleep epoch (duty cycle, battery
    /// conservation): the device was never expected to report, so no report
    /// is produced and — unlike a [`Delivery::Lost`] epoch — the request
    /// does **not** decay, and the missed streak is untouched.
    /// The controller merely notes that its state aged one epoch: the
    /// quiet streak holds and the next real epoch is forced to verify,
    /// because a regime change during the nap must not pass unchecked.
    pub fn note_dormant_epoch(&mut self) {
        self.dormant = true;
        // The quiet streak *holds* through a scheduled nap: planned silence
        // is neither evidence of health nor an alarm, and the forced
        // verification on wake-up arbitrates — a clean wake extends the
        // streak, an aliased one breaks it. Resetting here would make a
        // duty-cycled fleet structurally immune to deadlock suspicion (the
        // streak could never span a period shorter than the threshold).
        self.since_verify = self.config.verify_every.max(1);
        self.epoch_index += 1;
    }

    /// This controller's periodogram requests: one per transform, a miss
    /// the first time it transforms a length (reboots included) and a hit
    /// after. Summing these over a fleet in device order is
    /// thread-count-invariant — see [`FftHandleStats`].
    pub fn fft_handle_stats(&self) -> FftHandleStats {
        self.fft_stats
    }

    /// Heap bytes of this controller's list of transformed lengths, one
    /// `usize` per first-seen length.
    pub fn fft_handle_bytes(&self) -> usize {
        self.fft_lengths.capacity() * std::mem::size_of::<usize>()
    }

    /// Counts one periodogram of `len` samples in [`Self::fft_handle_stats`].
    fn note_transform(&mut self, len: usize) {
        match self.fft_lengths.binary_search(&len) {
            Ok(_) => self.fft_stats.hits.inc(),
            Err(i) => {
                self.fft_stats.misses.inc();
                self.fft_lengths.insert(i, len);
            }
        }
    }

    /// Runs one epoch at an externally `granted` rate over a fixed lockstep
    /// `window` (see the module docs on budget grants), through caller-lent
    /// working storage (see [`SamplerScratch`]). `delivery` says whether the
    /// epoch's report reaches the controller on time, late or not at all.
    ///
    /// `granted` is clamped into `[min_rate, max_rate]`; the window is used
    /// as-is (no auto-extension — fleet epochs must stay aligned). An
    /// [`Delivery::OnTime`] epoch with `granted == requested_rate()` and the
    /// window [`AdaptiveSampler::run`] would pick is exactly one epoch of
    /// `run`. A late or lost epoch reports [`EpochAction::Defer`].
    pub fn step<S: SignalSource>(
        &mut self,
        scratch: &mut SamplerScratch,
        source: &mut S,
        start: Seconds,
        granted: Hertz,
        window: Seconds,
        delivery: Delivery,
    ) -> EpochReport {
        assert!(window.value() > 0.0, "window must be positive");
        let primary = Hertz(
            granted
                .value()
                .clamp(self.config.min_rate.value(), self.config.max_rate.value()),
        );
        let requested = self.rate;
        let (primary_rate, samples_taken) = match delivery {
            Delivery::OnTime => return self.step_at(scratch, source, start, primary, window),
            Delivery::Late => {
                let spare = std::mem::take(&mut scratch.fast_spare);
                let fast = source.sample(start, primary, window, spare);
                let samples = fast.len();
                scratch.fast_spare = fast.into_values();
                self.missed_streak = 0;
                (primary, samples)
            }
            Delivery::Lost => {
                self.missed_streak += 1;
                self.low_streak = 0;
                self.quiet_streak = 0;
                if self.missed_streak >= CUT_PATIENCE {
                    self.rate = Hertz(
                        (requested.value() / PROBE_STEP).max(self.config.min_rate.value()),
                    );
                }
                (Hertz(0.0), 0)
            }
        };
        self.dormant = false;
        // Whatever state the controller held is now stale by one more
        // epoch: the first detectable epoch after this one must verify.
        self.since_verify = self.config.verify_every.max(1);
        let report = EpochReport {
            index: self.epoch_index,
            start,
            duration: window,
            mode: self.mode,
            requested_rate: requested,
            throttled: primary.value() < requested.value() * (1.0 - 1e-9),
            primary_rate,
            secondary_rate: Hertz(0.0),
            aliased: false,
            estimate: None,
            samples_taken,
            next_rate: self.rate,
            verified: false,
            action: EpochAction::Defer,
        };
        self.epoch_index += 1;
        report
    }

    /// Resets the controller after its device rebooted mid-study: back to
    /// probe mode at the (clamped) initial rate, hysteresis and cadence
    /// counters cleared. The remembered maximum **survives** — the §4.2
    /// memory belongs to the monitoring service, not the device — so the
    /// post-reboot re-ramp is bounded: one aliased epoch jumps the request
    /// straight to `headroom × remembered max` instead of re-climbing the
    /// multiplicative probe ladder. The epoch index keeps counting.
    pub fn reboot(&mut self) {
        self.mode = Mode::Probe;
        self.rate = Hertz(
            self.config
                .initial_rate
                .value()
                .clamp(self.config.min_rate.value(), self.config.max_rate.value()),
        );
        self.low_streak = 0;
        self.since_verify = 0;
        self.missed_streak = 0;
        self.quiet_streak = 0;
        self.dormant = false;
    }

    /// Shared epoch body: sample at `primary` over `duration`, verify and
    /// estimate, then update the request for the next epoch.
    fn step_at<S: SignalSource>(
        &mut self,
        scratch: &mut SamplerScratch,
        source: &mut S,
        start: Seconds,
        primary: Hertz,
        duration: Seconds,
    ) -> EpochReport {
        let requested = self.rate;
        let throttled = primary.value() < requested.value() * (1.0 - 1e-9);
        let secondary = companion_rate(primary);

        // The §4.1 detector needs 16+ samples in *both* streams; when the
        // window cannot even nominally hold them the companion stream buys
        // nothing, so it is not acquired at all.
        let detectable = grid_len(duration, primary) >= MIN_DETECT_SAMPLES
            && grid_len(duration, secondary) >= MIN_DETECT_SAMPLES;
        // Batched verification cadence: probing epochs always verify (the
        // verdict is the probe's exit condition); settled epochs verify
        // every `verify_every`-th epoch. The default cadence 1 makes
        // `verify_due` unconditionally true.
        let cadence = self.config.verify_every.max(1);
        let verify_due = self.mode == Mode::Probe || self.since_verify + 1 >= cadence;
        let worth_verifying = detectable && verify_due;
        // An epoch the *cadence* (not the window) kept unverified: handled
        // conservatively below — may raise, never lowers, never probes.
        let skipped_verify = detectable && !verify_due;
        let mut force_verify_next = false;

        let fast = source.sample(start, primary, duration, std::mem::take(&mut scratch.fast_spare));
        let mut samples_taken = fast.len();
        let slow = worth_verifying.then(|| {
            source.sample(start, secondary, duration, std::mem::take(&mut scratch.slow_spare))
        });
        samples_taken += slow.as_ref().map_or(0, |slow| slow.len());
        // The detector's preconditions are re-checked on the *actual* series
        // lengths: a source that cleans/re-grids (e.g. a simulated device
        // with sample loss) can return slightly fewer samples than the
        // window promised.
        let verified = slow.as_ref().is_some_and(|slow| {
            fast.len() >= MIN_DETECT_SAMPLES && slow.len() >= MIN_DETECT_SAMPLES
        });
        // The estimator is only meaningful with a full window's worth of
        // samples (see module docs); a short window contributes no evidence.
        let estimator_trusted = fast.len() >= MIN_EPOCH_SAMPLES;
        // One fast-stream spectrum per epoch, read by both the detector and
        // the estimator; the scratch's planner serves both periodograms, so
        // the same cached twiddle and window tables are reused every epoch.
        let fast_spec = (verified || estimator_trusted).then(|| {
            self.note_transform(fast.len());
            let power = std::mem::take(&mut scratch.fast_power);
            detector_spectrum(&mut scratch.planner, &fast, power)
        });
        let verdict_aliased = match (&fast_spec, &slow) {
            (Some(fast_spec), Some(slow)) if verified => {
                self.note_transform(slow.len());
                let power = std::mem::take(&mut scratch.slow_power);
                let slow_spec = detector_spectrum(&mut scratch.planner, slow, power);
                let cfg = self.config.detector;
                let verdict = compare_spectra(fast_spec, &slow_spec, cfg, &mut scratch.bands);
                scratch.slow_power = slow_spec.into_power();
                verdict.aliased
            }
            _ => false,
        };
        if let Some(slow) = slow {
            scratch.slow_spare = slow.into_values();
        }
        let mut estimate = match &fast_spec {
            Some(spec) if estimator_trusted => self.estimator.estimate_spectrum(spec),
            _ => NyquistEstimate::Aliased,
        };
        if let Some(spec) = fast_spec {
            scratch.fast_power = spec.into_power();
        }
        if verified && !verdict_aliased && estimator_trusted && estimate.is_aliased() {
            // The flat-spectrum guard says "aliased" but an actual dual-rate
            // verification ran and found the two spectra consistent: the
            // flatness is noise, not folding (§4.1 is the arbiter of
            // aliasing — that is its whole job). The signal has no
            // structured content above the window's resolution, so floor
            // the estimate at one FFT bin (§3.2's own resolution floor)
            // instead of probing a noise floor all the way to `max_rate`.
            estimate = NyquistEstimate::Rate(Hertz(2.0 * primary.value() / fast.len() as f64));
        }
        let aliased = verdict_aliased || (estimator_trusted && estimate.is_aliased());
        scratch.fast_spare = fast.into_values();

        let mode_now = self.mode;
        if let NyquistEstimate::Rate(r) = estimate {
            if !aliased {
                let best = self.remembered_max.map_or(0.0, |m| m.value());
                if r.value() > best {
                    self.remembered_max = Some(r);
                }
            }
        }

        let mut action = EpochAction::Hold;
        let next = if aliased && skipped_verify {
            // The flat-spectrum guard fired on an epoch whose §4.1 verdict
            // the cadence skipped. With verification the override above
            // would usually clear it (§4.1 is the arbiter); without it,
            // probing on guard evidence alone would wreck the settled rate.
            // Hold the request and pull verification forward instead.
            force_verify_next = true;
            requested
        } else if aliased {
            self.mode = Mode::Probe;
            self.low_streak = 0;
            let escalated = primary.value() * PROBE_STEP;
            action = EpochAction::Probe;
            let target = if self.config.memory {
                // Fast re-ramp: jump straight to the remembered requirement.
                let remembered = self
                    .remembered_max
                    .map_or(0.0, |m| m.value() * self.config.headroom);
                if remembered > escalated {
                    action = EpochAction::Reramp;
                }
                escalated.max(remembered)
            } else {
                escalated
            };
            Hertz(target.clamp(self.config.min_rate.value(), self.config.max_rate.value()))
        } else if !estimator_trusted {
            // Evidence-free epoch (window too short at this rate): hold the
            // request and every piece of controller state.
            requested
        } else {
            let nyq = estimate.rate().expect("not aliased").value();
            let target = (nyq * self.config.headroom)
                .clamp(self.config.min_rate.value(), self.config.max_rate.value());
            match self.mode {
                Mode::Probe => {
                    // Found the rate: settle directly.
                    self.mode = Mode::Steady;
                    self.low_streak = 0;
                    action = EpochAction::Settle;
                    Hertz(target)
                }
                Mode::Steady => {
                    if target > primary.value() {
                        // Content rose but has not aliased yet (headroom did
                        // its job): follow it up immediately. Raising on a
                        // skipped epoch is safe, but confirm it promptly.
                        self.low_streak = 0;
                        if skipped_verify {
                            force_verify_next = true;
                        }
                        action = EpochAction::Raise;
                        Hertz(target)
                    } else if (throttled && !verified) || skipped_verify {
                        // Unverifiable cut epoch — or one the verification
                        // cadence skipped: a folded spectrum can look clean,
                        // so hold the request and freeze the decrease
                        // hysteresis until the detector can run again.
                        requested
                    } else if target < primary.value() * CUT_THRESHOLD {
                        self.low_streak += 1;
                        if self.low_streak >= CUT_PATIENCE {
                            self.low_streak = 0;
                            action = EpochAction::Cut;
                            Hertz(target)
                        } else {
                            primary
                        }
                    } else {
                        self.low_streak = 0;
                        primary
                    }
                }
            }
        };
        // A throttled epoch that aliased — or could not run the detector at
        // all — may raise the request but never lowers it. A *verified*
        // throttled epoch is trusted (the detector certified the cut rate),
        // so its `next` stands as computed.
        let next = if throttled && (aliased || !verified) {
            Hertz(next.value().max(requested.value()))
        } else {
            next
        };

        let report = EpochReport {
            index: self.epoch_index,
            start,
            duration,
            mode: mode_now,
            requested_rate: requested,
            throttled,
            primary_rate: primary,
            secondary_rate: secondary,
            aliased,
            estimate: estimate.rate(),
            samples_taken,
            next_rate: next,
            verified,
            action,
        };
        // Verification-cadence bookkeeping. `force_verify_next` pins the
        // counter at the cadence so the very next detectable epoch is due.
        if verified {
            self.since_verify = 0;
        } else {
            self.since_verify = self.since_verify.saturating_add(1);
        }
        if force_verify_next {
            self.since_verify = cadence;
        }
        // Health bookkeeping (observation only — nothing above consults it):
        // a settled epoch extends the quiet streak when it verified clean
        // *or* when it was too slow to produce evidence at all — a rate so
        // low the estimator cannot run is the deadlock's terminal form, and
        // silence must read as suspicious, not exculpatory. Aliasing or a
        // probing epoch breaks the streak; a settled epoch whose verification
        // was merely not due (estimator still watching) holds it.
        if aliased || mode_now == Mode::Probe {
            self.quiet_streak = 0;
        } else if verified || !estimator_trusted {
            self.quiet_streak += 1;
        }
        self.dormant = false;
        // This epoch's report arrived: the device is reporting again.
        self.missed_streak = 0;
        self.rate = next;
        self.epoch_index += 1;
        report
    }

    /// The self-paced epoch window: the configured epoch, extended until the
    /// *slower* (companion) stream holds enough samples.
    fn auto_window(&self) -> Seconds {
        let min_duration = MIN_EPOCH_SAMPLES as f64 / companion_rate(self.rate).value();
        Seconds(self.config.epoch.value().max(min_duration))
    }

    /// Runs self-paced epochs back-to-back from `t = 0` until `total` time is
    /// covered, each at the requested rate over an auto-extended window, all
    /// through one local [`SamplerScratch`].
    pub fn run<S: SignalSource>(&mut self, source: &mut S, total: Seconds) -> Vec<EpochReport> {
        let mut scratch = SamplerScratch::new();
        let mut reports = Vec::new();
        let mut t = Seconds::ZERO;
        while t.value() < total.value() {
            let (rate, window) = (self.rate, self.auto_window());
            let r = self.step_at(&mut scratch, source, t, rate, window);
            t = t + r.duration;
            reports.push(r);
        }
        reports
    }
}

/// Total acquisition cost (samples) of a run.
pub fn total_samples(reports: &[EpochReport]) -> usize {
    reports.iter().map(|r| r.samples_taken).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::FunctionSource;
    use std::f64::consts::PI;

    /// Band-limited test signal: tones at `edge/4` and `edge`.
    fn band_signal(edge: f64) -> impl FnMut(f64) -> f64 {
        move |t| {
            (2.0 * PI * edge * 0.25 * t).sin() + 0.6 * (2.0 * PI * edge * t).sin()
        }
    }

    fn config(initial: f64, epoch: f64) -> AdaptiveConfig {
        AdaptiveConfig {
            initial_rate: Hertz(initial),
            min_rate: Hertz(1e-4),
            max_rate: Hertz(64.0),
            epoch: Seconds(epoch),
            ..AdaptiveConfig::default()
        }
    }

    /// One epoch granted exactly the controller's request, reported on time.
    fn full_grant<S: SignalSource>(
        ctl: &mut AdaptiveSampler,
        scratch: &mut SamplerScratch,
        source: &mut S,
        t: Seconds,
        window: Seconds,
    ) -> EpochReport {
        let grant = ctl.requested_rate();
        ctl.step(scratch, source, t, grant, window, Delivery::OnTime)
    }

    #[test]
    fn batched_verification_cuts_cost_without_losing_the_rate() {
        let edge = 0.5; // true Nyquist sampling rate = 1.0 Hz
        let run = |verify_every: usize| {
            let mut source = FunctionSource::new(band_signal(edge));
            let mut ctl = AdaptiveSampler::new(AdaptiveConfig {
                verify_every,
                ..config(0.3, 2000.0)
            });
            ctl.run(&mut source, Seconds(60_000.0))
        };
        let continuous = run(1);
        let batched = run(3);
        // verify_every: 1 must be exactly the classic controller — the
        // default constructed in `config()` already says 1, so this pins
        // the representation too.
        assert_eq!(continuous, run(1));
        // Skipping 2 of 3 companion streams on settled epochs must save
        // samples...
        assert!(
            total_samples(&batched) < total_samples(&continuous),
            "batched {} vs continuous {}",
            total_samples(&batched),
            total_samples(&continuous)
        );
        // ...without losing the adapted rate: skipped epochs may hold or
        // raise but never lower, so the settled rate stays in the same
        // band as continuous verification.
        let last_c = continuous.last().unwrap().primary_rate.value();
        let last_b = batched.last().unwrap().primary_rate.value();
        assert!(
            last_b >= 1.0 && last_b <= last_c * 2.0 + 1.0,
            "batched settled at {last_b}, continuous at {last_c}"
        );
    }

    #[test]
    fn skipped_epochs_count_toward_the_next_verification() {
        let edge = 0.5;
        let mut source = FunctionSource::new(band_signal(edge));
        let mut ctl = AdaptiveSampler::new(AdaptiveConfig {
            verify_every: 4,
            ..config(2.0, 2000.0)
        });
        let reports = ctl.run(&mut source, Seconds(80_000.0));
        // Once steady, epochs acquiring the companion stream (≈ +60% the
        // samples of a skipped epoch at the same rate) must appear at the
        // k=4 cadence: at least one verified epoch in every 4 consecutive
        // settled epochs at a held rate.
        let steady: Vec<&EpochReport> = reports
            .iter()
            .filter(|r| r.mode == Mode::Steady && !r.aliased)
            .collect();
        assert!(steady.len() >= 8, "need a settled tail, got {}", steady.len());
        let held: Vec<usize> = steady.iter().map(|r| r.samples_taken).collect();
        // Window of 4: the max (verified) must exceed the min (skipped) —
        // both populations exist within every cadence period.
        for w in held.windows(4) {
            let lo = w.iter().min().unwrap();
            let hi = w.iter().max().unwrap();
            assert!(
                hi > lo,
                "no verification inside a cadence window: {w:?} of {held:?}"
            );
        }
    }

    #[test]
    fn undersampled_start_probes_up_and_settles() {
        let edge = 0.5; // true Nyquist sampling rate = 1.0 Hz
        let mut source = FunctionSource::new(band_signal(edge));
        // Start at 0.3 Hz — well under the signal's Nyquist rate.
        let mut ctl = AdaptiveSampler::new(config(0.3, 2000.0));
        let reports = ctl.run(&mut source, Seconds(30_000.0));

        assert_eq!(reports[0].mode, Mode::Probe);
        assert!(reports[0].aliased, "initial rate must alias");
        // Rates increase multiplicatively during the probe phase.
        let probe_rates: Vec<f64> = reports
            .iter()
            .take_while(|r| r.mode == Mode::Probe)
            .map(|r| r.primary_rate.value())
            .collect();
        assert!(probe_rates.len() >= 2, "should take multiple probe epochs");
        for w in probe_rates.windows(2) {
            assert!(w[1] > w[0]);
        }
        // Eventually steady, at ≥ the true Nyquist rate but far below max.
        let last = reports.last().unwrap();
        assert_eq!(ctl.mode, Mode::Steady);
        assert!(!last.aliased);
        assert!(
            last.primary_rate.value() >= 1.0 && last.primary_rate.value() <= 6.0,
            "settled at {}",
            last.primary_rate
        );
    }

    #[test]
    fn oversampled_start_drops_quickly() {
        let edge = 0.05; // Nyquist rate 0.1 Hz
        let mut source = FunctionSource::new(band_signal(edge));
        // Start 100× above the Nyquist rate.
        let mut ctl = AdaptiveSampler::new(config(10.0, 5000.0));
        let reports = ctl.run(&mut source, Seconds(40_000.0));
        let first = &reports[0];
        assert!(!first.aliased);
        // One epoch is enough to find the right rate.
        assert!(
            first.next_rate.value() < 1.0,
            "should drop from 10 Hz to ≈0.17 Hz, got {}",
            first.next_rate
        );
        let last = reports.last().unwrap();
        assert!(last.primary_rate.value() < 0.5);
        assert!(!last.aliased);
    }

    #[test]
    fn respects_max_rate_ceiling() {
        // Band edge so high the ceiling cannot resolve it.
        let mut source = FunctionSource::new(|t: f64| (2.0 * PI * 40.0 * t).sin());
        let mut ctl = AdaptiveSampler::new(AdaptiveConfig {
            initial_rate: Hertz(1.0),
            max_rate: Hertz(16.0),
            min_rate: Hertz(1e-4),
            epoch: Seconds(100.0),
            ..AdaptiveConfig::default()
        });
        let reports = ctl.run(&mut source, Seconds(2000.0));
        for r in &reports {
            assert!(r.primary_rate.value() <= 16.0 + 1e-12);
            assert!(r.next_rate.value() <= 16.0 + 1e-12);
        }
        // Never able to clear aliasing → still probing at the ceiling.
        assert_eq!(reports.last().unwrap().mode, Mode::Probe);
    }

    #[test]
    fn decrease_needs_patience() {
        // Signal whose high tone vanishes halfway through the run.
        let mut source = FunctionSource::new(|t: f64| {
            let base = (2.0 * PI * 0.01 * t).sin();
            if t < 40_000.0 {
                base + 0.8 * (2.0 * PI * 0.2 * t).sin()
            } else {
                base
            }
        });
        let mut ctl = AdaptiveSampler::new(AdaptiveConfig {
            initial_rate: Hertz(2.0),
            min_rate: Hertz(1e-4),
            max_rate: Hertz(64.0),
            epoch: Seconds(4000.0),
            ..AdaptiveConfig::default()
        });
        let reports = ctl.run(&mut source, Seconds(120_000.0));
        let early = reports.iter().find(|r| r.start.value() < 30_000.0).unwrap();
        let late = reports.last().unwrap();
        assert!(
            late.primary_rate.value() < early.primary_rate.value() / 3.0,
            "late rate {} should be well below early {}",
            late.primary_rate,
            early.primary_rate
        );
        // The drop must not happen on the first low estimate.
        let steady_after_change: Vec<&EpochReport> = reports
            .iter()
            .filter(|r| r.start.value() >= 40_000.0 && r.mode == Mode::Steady)
            .collect();
        if steady_after_change.len() >= 2 {
            assert_eq!(
                steady_after_change[0].next_rate, steady_after_change[0].primary_rate,
                "first low epoch must hold the rate (patience)"
            );
        }
    }

    #[test]
    fn memory_reramps_faster_than_no_memory() {
        // Two identical flap episodes separated by a quiet stretch. The
        // first episode is long enough (10 epochs) for the probe ladder to
        // clear aliasing and *record* the required rate; the recurrence then
        // separates the two strategies.
        let flappy = |t: f64| {
            let base = (2.0 * PI * 0.005 * t).sin();
            let flap = |t0: f64, t1: f64, t: f64| {
                if t >= t0 && t < t1 {
                    0.9 * (2.0 * PI * 0.5 * t).sin()
                } else {
                    0.0
                }
            };
            base + flap(50_000.0, 100_000.0, t) + flap(160_000.0, 210_000.0, t)
        };
        let run = |memory: bool| {
            let mut source = FunctionSource::new(flappy);
            let mut ctl = AdaptiveSampler::new(AdaptiveConfig {
                initial_rate: Hertz(0.05),
                min_rate: Hertz(1e-4),
                max_rate: Hertz(64.0),
                epoch: Seconds(5000.0),
                memory,
                ..AdaptiveConfig::default()
            });
            ctl.run(&mut source, Seconds(250_000.0))
        };
        let with_memory = run(true);
        let without_memory = run(false);
        // Count probe (aliased) epochs during the *second* flap.
        let probes = |reports: &[EpochReport]| {
            reports
                .iter()
                .filter(|r| r.start.value() >= 160_000.0 && r.start.value() < 210_000.0)
                .filter(|r| r.aliased)
                .count()
        };
        let with_count = probes(&with_memory);
        let without_count = probes(&without_memory);
        assert!(
            with_count < without_count,
            "memory ({with_count} probe epochs) must re-ramp faster than \
             no-memory ({without_count})"
        );
        // And memory should reach a non-aliased epoch during the second flap.
        assert!(with_memory
            .iter()
            .any(|r| r.start.value() >= 160_000.0 && r.start.value() < 210_000.0 && !r.aliased));
    }

    #[test]
    fn headroom_floor_enforced() {
        let ctl = AdaptiveSampler::new(AdaptiveConfig {
            headroom: 1.0,
            ..AdaptiveConfig::default()
        });
        assert!(ctl.config.headroom >= MIN_VERIFY_HEADROOM);
    }

    #[test]
    fn epoch_window_extends_for_slow_rates() {
        let mut source = FunctionSource::new(|t: f64| (2.0 * PI * 1e-4 * t).sin());
        let mut ctl = AdaptiveSampler::new(AdaptiveConfig {
            initial_rate: Hertz(0.001),
            min_rate: Hertz(1e-6),
            max_rate: Hertz(1.0),
            epoch: Seconds(10.0), // nominal epoch is far too short
            ..AdaptiveConfig::default()
        });
        let reports = ctl.run(&mut source, Seconds(1.0));
        let r = &reports[0];
        // Companion rate ≈ 0.000618 → 64 samples need ≥ ~103k s.
        assert!(r.duration.value() >= 64.0 / r.secondary_rate.value() * 0.99);
        assert!(r.samples_taken >= 64);
    }

    #[test]
    fn cost_accounting_sums_epochs() {
        let mut source = FunctionSource::new(|t: f64| (2.0 * PI * 0.01 * t).sin());
        let mut ctl = AdaptiveSampler::new(config(1.0, 1000.0));
        let reports = ctl.run(&mut source, Seconds(5000.0));
        let total = total_samples(&reports);
        assert_eq!(
            total,
            reports.iter().map(|r| r.samples_taken).sum::<usize>()
        );
        assert!(total > 0);
    }

    #[test]
    fn step_granted_full_grant_matches_step_exactly() {
        // With grant == request and the lockstep window equal to what run()
        // would pick, the budget-aware path must be bit-identical to the
        // classic controller (the fleetsim uncapped-policy guarantee).
        let mut scratch = SamplerScratch::new();
        let edge = 0.5;
        let mut src_a = FunctionSource::new(band_signal(edge));
        let mut src_b = FunctionSource::new(band_signal(edge));
        let mut classic = AdaptiveSampler::new(config(0.3, 2000.0));
        let mut granted = AdaptiveSampler::new(config(0.3, 2000.0));
        let reports = classic.run(&mut src_a, Seconds(24_000.0));
        let mut deferred = 0;
        for a in &reports {
            let (t, window) = (a.start, a.duration);
            let request = granted.requested_rate();
            let b = granted.step(&mut scratch, &mut src_b, t, request, window, Delivery::OnTime);
            deferred += b.deferred() as usize;
            assert_eq!(*a, b);
        }
        assert_eq!(reports.iter().filter(|r| r.deferred()).count(), 0);
        assert_eq!(deferred, 0);
    }

    #[test]
    fn remembered_max_reramps_after_forced_cut() {
        // Settle on a signal, force a deep cut for a few epochs, then restore
        // the grant: the remembered maximum must carry the request straight
        // back up instead of re-climbing the probe ladder from the cut rate.
        let mut scratch = SamplerScratch::new();
        let edge = 0.5; // true Nyquist sampling rate = 1.0 Hz
        let mut source = FunctionSource::new(band_signal(edge));
        let mut ctl = AdaptiveSampler::new(config(0.3, 2000.0));
        let mut t = Seconds::ZERO;
        // Reach steady state.
        for r in ctl.run(&mut source, Seconds(24_000.0)) {
            t = t + r.duration;
        }
        assert_eq!(ctl.mode, Mode::Steady);
        let settled = ctl.requested_rate();
        let remembered = ctl.remembered_max().expect("steady implies an estimate");
        let window = Seconds(2000.0);

        // Forced cut: grant an eighth of the request.
        let cut = Hertz(settled.value() / 8.0);
        let mut deferred = 0;
        for _ in 0..3 {
            let r = ctl.step(&mut scratch, &mut source, t, cut, window, Delivery::OnTime);
            assert!(r.throttled, "grant below request must be recorded");
            deferred += r.deferred() as usize;
            assert!(
                r.next_rate.value() >= settled.value() * (1.0 - 1e-9),
                "throttled epoch must not lower the request: {} < {}",
                r.next_rate,
                settled
            );
            t = t + window;
        }
        assert_eq!(deferred, 3);

        // Budget restored: the very next fully-granted epoch runs at (or
        // above) the remembered requirement — no probe ladder.
        let r = full_grant(&mut ctl, &mut scratch, &mut source, t, window);
        assert!(!r.throttled);
        assert!(
            r.primary_rate.value() >= remembered.value(),
            "re-ramp must reuse the Nyquist memory: {} < {}",
            r.primary_rate,
            remembered
        );
    }

    #[test]
    fn oscillating_estimates_never_defeat_decrease_patience() {
        // Estimates that alternate low/high must keep resetting the patience
        // counter: the rate only drops after `CUT_PATIENCE` *consecutive*
        // low epochs, so an oscillating signal holds the settled rate.
        let patience = CUT_PATIENCE;
        // Alternate the high tone on/off every 4000 s epoch: epochs see
        // demand flip between ~0.1 Hz and ~1.65 Hz targets.
        let mut source = FunctionSource::new(|t: f64| {
            let base = (2.0 * PI * 0.01 * t).sin();
            let epoch = (t / 4000.0).floor() as i64;
            if epoch % 2 == 0 {
                base + 0.8 * (2.0 * PI * 0.45 * t).sin()
            } else {
                base
            }
        });
        let mut ctl = AdaptiveSampler::new(AdaptiveConfig {
            initial_rate: Hertz(2.0),
            min_rate: Hertz(1e-4),
            max_rate: Hertz(64.0),
            epoch: Seconds(4000.0),
            ..AdaptiveConfig::default()
        });
        let reports = ctl.run(&mut source, Seconds(120_000.0));
        let steady: Vec<&EpochReport> =
            reports.iter().filter(|r| r.mode == Mode::Steady).collect();
        assert!(steady.len() >= 8, "need a settled stretch, got {}", steady.len());
        // No steady epoch may cut the rate by more than the hysteresis
        // threshold in one step without `patience` low epochs before it.
        for w in steady.windows(patience) {
            let dropped = w
                .last()
                .unwrap()
                .next_rate
                .value()
                < w[0].primary_rate.value() * 0.7;
            if dropped {
                // A drop is only legitimate if every epoch in the window saw
                // a low estimate — oscillation must have prevented that.
                let all_low = w.iter().all(|r| {
                    r.estimate
                        .is_some_and(|e| e.value() * MIN_VERIFY_HEADROOM < r.primary_rate.value() * 0.7)
                });
                assert!(
                    all_low,
                    "rate dropped without {patience} consecutive low epochs"
                );
            }
        }
    }

    #[test]
    fn grant_clamps_to_min_and_max_rate() {
        let mut scratch = SamplerScratch::new();
        let edge = 0.05;
        let mut source = FunctionSource::new(band_signal(edge));
        let mut ctl = AdaptiveSampler::new(AdaptiveConfig {
            initial_rate: Hertz(1.0),
            min_rate: Hertz(0.02),
            max_rate: Hertz(8.0),
            epoch: Seconds(5000.0),
            ..AdaptiveConfig::default()
        });
        let window = Seconds(5000.0);
        // Settle first so there is an estimate to undercut.
        let mut t = Seconds::ZERO;
        for _ in 0..4 {
            let r = full_grant(&mut ctl, &mut scratch, &mut source, t, window);
            t = t + r.duration;
        }
        let estimate = ctl.remembered_max().expect("settled");

        // A grant far below MIN_VERIFY_HEADROOM × estimate — and below
        // min_rate — must clamp up to min_rate, not run at the raw grant.
        let starve = Hertz((estimate.value() * MIN_VERIFY_HEADROOM) / 1e6);
        assert!(starve.value() < 0.02);
        let r = ctl.step(&mut scratch, &mut source, t, starve, window, Delivery::OnTime);
        assert_eq!(r.primary_rate, Hertz(0.02), "grant must clamp to min_rate");
        assert!(r.throttled);
        t = t + window;

        // An absurdly high grant clamps to max_rate and is not throttling.
        let r = ctl.step(&mut scratch, &mut source, t, Hertz(1e9), window, Delivery::OnTime);
        assert_eq!(r.primary_rate, Hertz(8.0), "grant must clamp to max_rate");
        assert!(!r.throttled, "a grant above the request is not a cut");
    }

    #[test]
    fn k_missed_epochs_report_k_deferred() {
        // A device that misses k consecutive epochs must report exactly k
        // deferred epochs — deferral cannot only follow a cut grant (the
        // report never arriving IS the deferral).
        let mut scratch = SamplerScratch::new();
        let edge = 0.5;
        let mut source = FunctionSource::new(band_signal(edge));
        let mut ctl = AdaptiveSampler::new(config(0.3, 2000.0));
        let window = Seconds(2000.0);
        let mut t = Seconds::ZERO;
        let mut deferred = 0;
        for _ in 0..10 {
            let r = full_grant(&mut ctl, &mut scratch, &mut source, t, window);
            deferred += r.deferred() as usize;
            t = t + r.duration;
        }
        assert_eq!(ctl.mode, Mode::Steady);
        assert_eq!(deferred, 0, "full grants defer nothing");
        let settled = ctl.requested_rate();
        let remembered = ctl.remembered_max().expect("settled");

        let k = 5;
        for miss in 1..=k {
            let r = ctl.step(&mut scratch, &mut source, t, settled, window, Delivery::Lost);
            assert_eq!(r.samples_taken, 0, "nothing arrives on a missed epoch");
            deferred += r.deferred() as usize;
            assert_eq!(deferred, miss, "miss {miss} must count");
            assert_eq!(ctl.missed_streak, miss);
            t = t + window;
        }
        assert_eq!(deferred, k);

        // Hold-and-decay: held through the patience window, decaying after.
        let patience = CUT_PATIENCE;
        let mut probe = AdaptiveSampler::new(config(0.3, 2000.0));
        let mut src2 = FunctionSource::new(band_signal(edge));
        let mut t2 = Seconds::ZERO;
        for _ in 0..10 {
            let r = full_grant(&mut probe, &mut scratch, &mut src2, t2, window);
            t2 = t2 + r.duration;
        }
        let before = probe.requested_rate();
        for miss in 1..=6 {
            let request = probe.requested_rate();
            let r = probe.step(&mut scratch, &mut src2, t2, request, window, Delivery::Lost);
            if miss < patience {
                assert_eq!(r.next_rate, before, "miss {miss} must hold the request");
            } else {
                assert!(
                    r.next_rate.value() < r.requested_rate.value(),
                    "miss {miss} must decay the request"
                );
            }
            t2 = t2 + window;
        }
        assert!(
            probe.requested_rate().value() < before.value(),
            "a silent device must progressively release its budget share"
        );
        // The memory survives the outage: the stale estimate is never
        // silently trusted, but the re-ramp stays one jump away.
        assert_eq!(ctl.remembered_max(), Some(remembered));
    }

    #[test]
    fn reboot_reramps_bounded_by_remembered_max() {
        let mut scratch = SamplerScratch::new();
        let edge = 0.5; // true Nyquist sampling rate = 1.0 Hz
        let mut source = FunctionSource::new(band_signal(edge));
        let mut ctl = AdaptiveSampler::new(config(0.3, 2000.0));
        let window = Seconds(2000.0);
        let mut t = Seconds::ZERO;
        for _ in 0..10 {
            let r = full_grant(&mut ctl, &mut scratch, &mut source, t, window);
            t = t + r.duration;
        }
        assert_eq!(ctl.mode, Mode::Steady);
        let remembered = ctl.remembered_max().expect("settled");
        let bound = remembered.value() * ctl.config.headroom * (1.0 + 1e-9);

        ctl.reboot();
        assert_eq!(ctl.mode, Mode::Probe);
        assert_eq!(ctl.requested_rate(), Hertz(0.3), "reboot restarts at the initial rate");
        assert_eq!(ctl.remembered_max(), Some(remembered), "memory survives the reboot");

        // Re-ramp: one aliased epoch jumps to headroom × remembered max —
        // never past it (bounded, no ladder past the known requirement).
        let mut reached = false;
        for _ in 0..4 {
            let r = full_grant(&mut ctl, &mut scratch, &mut source, t, window);
            assert!(
                r.next_rate.value() <= bound,
                "re-ramp overshot the remembered bound: {} > {}",
                r.next_rate,
                Hertz(bound)
            );
            t = t + window;
            if ctl.mode == Mode::Steady {
                reached = true;
                break;
            }
        }
        assert!(reached, "reboot re-ramp must re-settle within a few epochs");
        assert!(
            ctl.requested_rate().value() >= remembered.value(),
            "re-settled request {} must cover the remembered requirement {}",
            ctl.requested_rate(),
            remembered
        );
    }

    #[test]
    fn delayed_epoch_samples_but_freezes_adaptation() {
        let mut scratch = SamplerScratch::new();
        let edge = 0.5;
        let mut source = FunctionSource::new(band_signal(edge));
        let mut ctl = AdaptiveSampler::new(config(0.3, 2000.0));
        let window = Seconds(2000.0);
        let mut t = Seconds::ZERO;
        for _ in 0..10 {
            let r = full_grant(&mut ctl, &mut scratch, &mut source, t, window);
            t = t + r.duration;
        }
        let settled = ctl.requested_rate();
        let r = ctl.step(&mut scratch, &mut source, t, settled, window, Delivery::Late);
        // The data is real (billed, covering the signal) ...
        assert!(r.samples_taken > 0, "a delayed report still acquires samples");
        assert_eq!(r.primary_rate, settled);
        // ... but the controller could not adapt on it in time.
        assert_eq!(r.next_rate, settled, "late evidence must hold the request");
        assert!(r.deferred(), "a late report is a deferral");
        assert_eq!(ctl.missed_streak, 0, "an arriving report resets the missed streak");
    }

    #[test]
    fn lost_epoch_never_samples_the_source() {
        // A lost report carries nothing: the device is not even polled.
        let mut scratch = SamplerScratch::new();
        let mut source = FunctionSource::new(|_: f64| -> f64 { panic!("a lost epoch polled") });
        let mut ctl = AdaptiveSampler::new(config(0.3, 2000.0));
        let window = Seconds(2000.0);
        let lost = Delivery::Lost;
        let r = ctl.step(&mut scratch, &mut source, Seconds::ZERO, Hertz(0.3), window, lost);
        assert_eq!(r.samples_taken, 0);
        assert_eq!(r.primary_rate, Hertz(0.0));
        assert_eq!(r.action, EpochAction::Defer);
        assert!(r.deferred());
        assert_eq!(ctl.missed_streak, 1);
    }

    #[test]
    fn health_classifier_tracks_the_controller_lifecycle() {
        let mut scratch = SamplerScratch::new();
        let edge = 0.5;
        let mut source = FunctionSource::new(band_signal(edge));
        let mut ctl = AdaptiveSampler::new(config(0.3, 2000.0));
        let window = Seconds(2000.0);
        let mut t = Seconds::ZERO;
        // Probing epochs classify as Recovering (after the first step).
        let r = full_grant(&mut ctl, &mut scratch, &mut source, t, window);
        t = t + r.duration;
        if ctl.mode == Mode::Probe {
            assert_eq!(ctl.health(), HealthState::Recovering);
        }
        // Settle and run a clean streak: with the request at or above the
        // remembered max (headroom > 1), the controller is Healthy.
        for _ in 0..10 {
            let r = full_grant(&mut ctl, &mut scratch, &mut source, t, window);
            t = t + r.duration;
        }
        assert_eq!(ctl.mode, Mode::Steady);
        assert!(ctl.quiet_streak >= SUSPECT_QUIET_EPOCHS);
        assert_eq!(ctl.health(), HealthState::Healthy);
        // A missed epoch flips to Recovering and breaks the quiet streak.
        let request = ctl.requested_rate();
        ctl.step(&mut scratch, &mut source, t, request, window, Delivery::Lost);
        t = t + window;
        assert_eq!(ctl.health(), HealthState::Recovering);
        assert_eq!(ctl.quiet_streak, 0);
        // A dormant epoch reports Dormant until the next real step.
        ctl.note_dormant_epoch();
        assert_eq!(ctl.health(), HealthState::Dormant);
        let r = full_grant(&mut ctl, &mut scratch, &mut source, t, window);
        t = t + r.duration;
        assert_ne!(ctl.health(), HealthState::Dormant);
        let _ = t;
    }

    #[test]
    fn settled_below_memory_is_suspect_and_reprobe_retires_it() {
        // Settle on a two-tone signal, then drop the high tone: the
        // controller legitimately cuts to the lower requirement, but its
        // request is now below the remembered max with clean verification —
        // the SuspectDeadlocked signature (over-inclusive by design). A
        // forced re-probe runs one epoch above the old requirement and
        // re-settles, retiring the suspicion.
        let mut scratch = SamplerScratch::new();
        let mut source = FunctionSource::new(|t: f64| {
            let base = (2.0 * PI * 0.01 * t).sin();
            if t < 60_000.0 {
                base + 0.8 * (2.0 * PI * 0.45 * t).sin()
            } else {
                base
            }
        });
        let mut ctl = AdaptiveSampler::new(config(0.3, 4000.0));
        let window = Seconds(4000.0);
        let mut t = Seconds::ZERO;
        // Settle on the fast regime, then ride through the tone loss and the
        // patience-gated cut, then keep stepping until the quiet streak
        // qualifies as suspect.
        let mut suspect_seen = false;
        for _ in 0..40 {
            let r = full_grant(&mut ctl, &mut scratch, &mut source, t, window);
            t = t + r.duration;
            if ctl.health() == HealthState::SuspectDeadlocked {
                suspect_seen = true;
                break;
            }
        }
        assert!(suspect_seen, "the cut-below-memory state must classify as suspect");
        let remembered = ctl.remembered_max().expect("settled");
        let before = ctl.requested_rate();
        assert!(before.value() < remembered.value());

        // The forced re-probe requests above the remembered requirement …
        let reprobe = ctl.begin_reprobe();
        assert!(
            reprobe.value() >= remembered.value(),
            "re-probe must sample above the remembered max: {reprobe} < {remembered}"
        );
        assert_eq!(ctl.mode, Mode::Probe);
        assert_eq!(ctl.health(), HealthState::Recovering);
        // … and one clean epoch at the elevated rate re-settles near the
        // true (now lower) requirement: suspicion retired, no deadlock.
        let r = full_grant(&mut ctl, &mut scratch, &mut source, t, window);
        assert_eq!(r.primary_rate, reprobe);
        assert!(!r.aliased, "the calmed signal verifies clean above the old max");
        assert_eq!(ctl.mode, Mode::Steady);
        assert!(
            ctl.requested_rate().value() <= before.value() * (1.0 + 1e-9),
            "a clean re-probe must hand the rate back: {} > {}",
            ctl.requested_rate(),
            before
        );
    }

    #[test]
    fn dormant_epochs_age_state_without_decaying_the_request() {
        let mut scratch = SamplerScratch::new();
        let edge = 0.5;
        let mut source = FunctionSource::new(band_signal(edge));
        let mut ctl = AdaptiveSampler::new(config(0.3, 2000.0));
        let window = Seconds(2000.0);
        let mut t = Seconds::ZERO;
        let mut deferred = 0;
        for _ in 0..10 {
            let r = full_grant(&mut ctl, &mut scratch, &mut source, t, window);
            deferred += r.deferred() as usize;
            t = t + r.duration;
        }
        let settled = ctl.requested_rate();
        let index_before = {
            let r = full_grant(&mut ctl, &mut scratch, &mut source, t, window);
            deferred += r.deferred() as usize;
            t = t + r.duration;
            r.index
        };
        let before = deferred;
        // A long scheduled nap: the request holds exactly (no hold-and-decay
        // — the silence was planned), nothing defers, epochs still count.
        for _ in 0..6 {
            ctl.note_dormant_epoch();
        }
        assert_eq!(ctl.requested_rate(), settled);
        assert_eq!(ctl.missed_streak, 0, "dormancy is not a missed report");
        assert_eq!(ctl.health(), HealthState::Dormant);
        // The first epoch after waking is forced to verify (a regime change
        // during the nap must not pass unchecked) and advances the index by
        // exactly the napped epochs plus one.
        let r = full_grant(&mut ctl, &mut scratch, &mut source, t, window);
        deferred += r.deferred() as usize;
        assert_eq!(deferred, before, "dormancy is not a deferral");
        assert!(r.verified, "the wake-up epoch must run the §4.1 detector");
        assert_eq!(r.index, index_before + 7);
    }

    #[test]
    fn unverifiable_epoch_skips_companion_stream() {
        // A window too short for 16 detector samples must not panic, must
        // not bill for a companion stream, and must stay conservative.
        let mut scratch = SamplerScratch::new();
        let mut source = FunctionSource::new(band_signal(0.5));
        let mut ctl = AdaptiveSampler::new(config(0.3, 2000.0));
        // 0.02 Hz over 600 s = 12 primary samples < 16.
        let r = ctl.step(
            &mut scratch,
            &mut source,
            Seconds::ZERO,
            Hertz(0.02),
            Seconds(600.0),
            Delivery::OnTime,
        );
        assert_eq!(r.samples_taken, 12, "companion must not be acquired");
        assert!(r.throttled);
        assert!(
            r.next_rate.value() >= 0.3 * (1.0 - 1e-9),
            "request must survive the unverifiable epoch"
        );
    }

    #[test]
    fn verified_epoch_runs_two_transforms_and_unverified_one() {
        // A 4 Hz start oversamples the 1 Hz-Nyquist signal: the probe epoch
        // verifies and settles; under a cadence of 3 the next is unverified.
        let mut scratch = SamplerScratch::new();
        let mut source = FunctionSource::new(band_signal(0.5));
        let mut ctl = AdaptiveSampler::new(AdaptiveConfig {
            verify_every: 3,
            ..config(4.0, 2000.0)
        });
        let window = Seconds(2000.0);
        let mut lookups_of = |ctl: &mut AdaptiveSampler, t: f64| {
            let before = ctl.fft_handle_stats().lookups();
            let r = full_grant(ctl, &mut scratch, &mut source, Seconds(t), window);
            (r, ctl.fft_handle_stats().lookups() - before)
        };
        let (settle, lookups) = lookups_of(&mut ctl, 0.0);
        assert!(settle.verified && settle.estimate.is_some(), "{settle:?}");
        assert_eq!(settle.action, EpochAction::Settle);
        assert_eq!(lookups, 2, "fast and companion spectra, the fast one shared");
        let (skipped, lookups) = lookups_of(&mut ctl, 2000.0);
        assert!(!skipped.verified && skipped.estimate.is_some(), "{skipped:?}");
        assert_eq!(lookups, 1, "the estimator's fast spectrum only");
    }

    #[test]
    fn transform_misses_are_per_controller_and_survive_reboots() {
        // Two controllers step through one scratch, as fleet members on one
        // worker do: the second one's first lengths are misses although the
        // scratch's tables are warm, and a reboot forgets no length.
        let mut scratch = SamplerScratch::new();
        let run = |ctl: &mut AdaptiveSampler, scratch: &mut SamplerScratch| {
            let mut source = FunctionSource::new(band_signal(0.5));
            for e in 0..4 {
                let t = Seconds(2000.0 * e as f64);
                full_grant(ctl, scratch, &mut source, t, Seconds(2000.0));
            }
        };
        let mut first = AdaptiveSampler::new(config(4.0, 2000.0));
        run(&mut first, &mut scratch);
        let mut second = AdaptiveSampler::new(config(4.0, 2000.0));
        run(&mut second, &mut scratch);
        let before = first.fft_handle_stats();
        assert_eq!(second.fft_handle_stats(), before);
        assert!(
            before.misses.get() > 0 && before.hits.get() > 0,
            "{before:?}"
        );
        let lengths = before.misses.get() as usize;
        assert!(first.fft_handle_bytes() >= lengths * std::mem::size_of::<usize>());

        first.reboot();
        run(&mut first, &mut scratch);
        let after = first.fft_handle_stats();
        assert_eq!(
            after.misses, before.misses,
            "the re-run requests known lengths"
        );
        assert_eq!(after.lookups(), 2 * before.lookups());
    }

    #[test]
    fn shared_spectrum_estimate_equals_estimate_samples() {
        assert_eq!(NyquistConfig::default().window, crate::aliasing::DETECTOR_PSD.window);
        let mut scratch = SamplerScratch::new();
        let mut source = FunctionSource::new(band_signal(0.5));
        let mut ctl = AdaptiveSampler::new(config(0.3, 2000.0));
        let estimator = NyquistEstimator::new(NyquistConfig::default());
        let mut est_scratch = crate::estimator::EstimatorScratch::new();
        let mut t = Seconds::ZERO;
        let window = Seconds(2000.0);
        let mut probed = false;
        for _ in 0..6 {
            let r = full_grant(&mut ctl, &mut scratch, &mut source, t, window);
            let fast = source.sample(t, r.primary_rate, window, Vec::new());
            let alone = estimator.estimate_samples(&mut est_scratch, fast.values(), fast.sample_rate());
            assert_eq!(r.estimate, alone.rate(), "epoch {}", r.index);
            probed |= r.aliased;
            t = t + window;
        }
        assert!(probed, "the 0.3 Hz start must alias before it settles");
    }
}
