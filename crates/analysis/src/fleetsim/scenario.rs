//! Fleet lifecycle & failure injection: the `--scenario` axis.
//!
//! The frontier in [`super`] is measured on an always-healthy, static fleet;
//! production fleets churn, reboot, drop reports, and switch signal regimes.
//! This module makes failure a first-class, *deterministic* simulation axis:
//! a [`ScenarioSpec`] describes per-epoch event probabilities plus a regime
//! incident, and a [`ScenarioEngine`] deals each device one [`DeviceEvent`]
//! per epoch as a **pure function of `(scenario seed, epoch, device index)`**
//! — no RNG state, no dependence on grants or thread count — so scenario
//! runs stay byte-identical for any `--threads N` and every policy of a
//! frontier sweep sees exactly the same fault schedule.
//!
//! Events compose with the engine's lockstep loop without breaking its
//! invariants: absent devices keep their slot in every per-device vector
//! (they request 0.0 and skip their step — the arena slabs and request
//! lengths never change), and all per-epoch event work is branch + hash
//! arithmetic, so the zero-allocation steady state survives churn.
//!
//! ### Missed vs. dormant epochs
//!
//! Two superficially similar silences with opposite semantics:
//!
//! * A **missed** epoch ([`DeviceEvent::Absent`] /
//!   [`DeviceEvent::ReportDropped`]) is a *failure*: the controller expected
//!   evidence and got none. It counts as deferred, and the controller
//!   applies hold-and-decay — after two consecutive misses the request
//!   decays toward `min_rate`, progressively releasing the silent device's
//!   budget share.
//! * A **dormant** epoch ([`DeviceEvent::Dormant`]) is a *scheduled* sleep
//!   (duty cycle, battery conservation): the device was never expected to
//!   report. Nothing is deferred and the request does **not** decay — the
//!   device will want the same rate when it wakes. The controller only
//!   notes that its state aged: the next awake epoch is forced to run the
//!   §4.1 verification (a regime change during the nap must not pass
//!   unchecked), and the health classifier reports
//!   [`HealthState::Dormant`](sweetspot_core::adaptive::HealthState)
//!   so a fleet watchdog never schedules re-probes at a sleeping device.
//!   The deadlock-suspicion quiet streak *holds* across the nap rather
//!   than resetting — planned silence is not evidence of health, and the
//!   forced wake-up verification arbitrates — so duty-cycled fleets stay
//!   watchdog-coverable even when the duty period is shorter than the
//!   suspicion threshold.
//!
//! Dormancy is dealt statelessly like every other event: a per-member duty
//! phase is hashed from the scenario seed, so `awake ⇔ ((epoch + phase) mod
//! duty_period) < awake_len`, plus an optional per-epoch hashed sleep draw
//! (`sleep_prob`) for unscheduled battery blips. Regime incidents generalize
//! the same way: `incident-period` makes the incident window recur within
//! every period (diurnal load), and `incident-stagger` splits the fleet
//! into device-index groups whose windows shift one epoch per group —
//! device-index grouping, *not* worker shards, so activity stays a pure
//! function of `(spec, epoch, index)` and thread counts cannot perturb it.
//!
//! ### One vocabulary
//!
//! A `--scenario` string is `+`-joined terms with one table behind them:
//! [`ScenarioSpec::KEYS`] has one row per `key=value` override, naming the
//! field it sets and its kind (probability, whole epochs or plain number).
//! A preset is only a term list over those keys — [`ScenarioSpec::PRESETS`]
//! has `churn` = `leave=0.01+join=0.25+reboot=0.005` — so `parse` expands
//! a preset and applies every term through the one key lookup, left to
//! right, and the diagnostics list and `validate`'s probability check read
//! the same tables.

use std::ops::Range;

/// What the scenario dealt one device for one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceEvent {
    /// Device polls and reports normally.
    Healthy,
    /// Device is offline this epoch: no request, no samples, no report.
    /// The controller is frozen, not informed — there is nothing to inform
    /// it *with*.
    Absent,
    /// Device rebooted at the epoch boundary (or rejoined after an
    /// absence): volatile state resets, the controller re-ramps from its
    /// remembered max, then the epoch runs normally.
    Reboot,
    /// The epoch's report was lost in flight: the controller sees no
    /// evidence at all and applies its missing-epoch semantics.
    ReportDropped,
    /// The epoch's report arrived too late to adapt on: samples are taken
    /// (and billed) but adaptation freezes for the epoch.
    ReportDelayed,
    /// The epoch's report reached the collector twice: the samples bill
    /// double, the controller is none the wiser.
    ReportDuplicated,
    /// Scheduled sleep (duty cycle / battery conservation): no request, no
    /// samples, no report — and, unlike [`DeviceEvent::Absent`], no
    /// deferral and no request decay, because the silence was planned (see
    /// the module docs on missed vs. dormant).
    Dormant,
}

/// A fleet scenario: per-epoch event probabilities, a regime incident, and
/// per-device cost asymmetry. `Copy` so it rides inside
/// [`FleetSimConfig`](super::FleetSimConfig).
///
/// Build one from a CLI string with [`ScenarioSpec::parse`]: `+`-joined
/// `key=value` terms over [`ScenarioSpec::KEYS`], each setting one field,
/// and preset names from [`ScenarioSpec::PRESETS`], each standing for a
/// list of such terms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioSpec {
    /// Per-epoch probability an active device goes offline.
    pub leave_prob: f64,
    /// Per-epoch probability an offline device comes back (rebooting).
    pub join_prob: f64,
    /// Per-epoch probability an active device reboots in place.
    pub reboot_prob: f64,
    /// Per-epoch probability an active device's report is lost in flight.
    pub drop_prob: f64,
    /// Per-epoch probability an active device's report is duplicated.
    pub dup_prob: f64,
    /// Per-epoch probability an active device's report arrives too late
    /// to adapt on.
    pub delay_prob: f64,
    /// Regime incident: every tone frequency scales by this factor for the
    /// incident phase (1.0 disables the incident).
    pub incident_factor: f64,
    /// Incident onset, as a fraction of the simulation horizon (or of the
    /// period, when `incident_period > 0`).
    pub incident_start_frac: f64,
    /// Incident end (recovery onset), as a fraction of the horizon (or of
    /// the period).
    pub incident_end_frac: f64,
    /// Recurring incident period in epochs: `0` is the classic one-shot
    /// mid-study incident; `k > 0` makes the incident window recur within
    /// every `k`-epoch period (diurnal load).
    pub incident_period: usize,
    /// Staggered incidents: split the fleet into this many device-index
    /// groups, shifting group `g`'s incident window `g` epochs later.
    /// `0`/`1` means the whole fleet switches simultaneously.
    pub incident_stagger: usize,
    /// Duty cycle period in epochs (`0` disables duty cycling): each member
    /// is awake for `ceil(duty_frac × duty_period)` epochs of every period,
    /// at a per-member hashed phase.
    pub duty_period: usize,
    /// Awake fraction of the duty period (clamped so at least one epoch per
    /// period is awake).
    pub duty_frac: f64,
    /// Per-epoch probability an awake device sleeps anyway (unscheduled
    /// battery conservation).
    pub sleep_prob: f64,
    /// Per-device cost asymmetry: device cost factors spread log-uniformly
    /// over `[1/spread, spread]` (1.0 is a uniform fleet). Schedulers stay
    /// cost-naive by design — the ledger records what that naivety costs.
    pub cost_spread: f64,
    /// Scenario seed: decorrelates the fault schedule from the fleet seed.
    pub seed: u64,
}

impl ScenarioSpec {
    /// The healthy scenario: no events, no incident, uniform costs.
    pub const fn none() -> ScenarioSpec {
        ScenarioSpec {
            leave_prob: 0.0,
            join_prob: 0.0,
            reboot_prob: 0.0,
            drop_prob: 0.0,
            dup_prob: 0.0,
            delay_prob: 0.0,
            incident_factor: 1.0,
            incident_start_frac: 0.25,
            incident_end_frac: 0.625,
            incident_period: 0,
            incident_stagger: 0,
            duty_period: 0,
            duty_frac: 1.0,
            sleep_prob: 0.0,
            cost_spread: 1.0,
            seed: 0,
        }
    }

    /// `true` when the scenario can perturb the run at all. Every run builds
    /// a [`ScenarioEngine`]; an inactive one deals every device `Healthy`,
    /// so `--scenario none` keeps the healthy path bit-identical to a
    /// scenario-free build. Only what a run reports about its scenario is
    /// gated on this: the scenario report, the frontier's scenario label
    /// and the metrics stream's `dealt` counts.
    pub fn is_active(&self) -> bool {
        self.leave_prob > 0.0
            || self.join_prob > 0.0
            || self.reboot_prob > 0.0
            || self.drop_prob > 0.0
            || self.dup_prob > 0.0
            || self.delay_prob > 0.0
            || self.has_incident()
            || self.cost_spread != 1.0
            || self.has_dormancy()
    }

    /// `true` when the scenario can put devices to scheduled sleep.
    pub fn has_dormancy(&self) -> bool {
        self.duty_period > 0 || self.sleep_prob > 0.0
    }

    /// `true` when a regime incident is configured.
    pub fn has_incident(&self) -> bool {
        self.incident_factor != 1.0
    }

    /// Canonical human-readable label: the active components, `+`-joined.
    pub fn label(&self) -> String {
        let mut parts: Vec<&str> = Vec::new();
        if self.leave_prob > 0.0 || self.join_prob > 0.0 || self.reboot_prob > 0.0 {
            parts.push("churn");
        }
        if self.has_incident() {
            parts.push(if self.incident_period > 0 {
                "diurnal"
            } else {
                "incident"
            });
            if self.incident_stagger > 1 {
                parts.push("staggered");
            }
        }
        if self.drop_prob > 0.0 || self.dup_prob > 0.0 || self.delay_prob > 0.0 {
            parts.push("lossy-reports");
        }
        if self.has_dormancy() {
            parts.push(if self.sleep_prob > 0.0 {
                "battery"
            } else {
                "duty"
            });
        }
        if self.cost_spread != 1.0 {
            parts.push("cost-skew");
        }
        if parts.is_empty() {
            "none".to_string()
        } else {
            parts.join("+")
        }
    }

    /// The `key=value` overrides, one row per key: its name and the field
    /// it sets. The row order is the order diagnostics list the keys in and
    /// `validate` checks the probabilities in.
    pub const KEYS: &'static [(&'static str, Field)] = &[
        ("leave", Field::Probability(|s| &mut s.leave_prob)),
        ("join", Field::Probability(|s| &mut s.join_prob)),
        ("reboot", Field::Probability(|s| &mut s.reboot_prob)),
        ("drop", Field::Probability(|s| &mut s.drop_prob)),
        ("dup", Field::Probability(|s| &mut s.dup_prob)),
        ("delay", Field::Probability(|s| &mut s.delay_prob)),
        ("sleep", Field::Probability(|s| &mut s.sleep_prob)),
        ("duty-period", Field::Epochs(|s| &mut s.duty_period)),
        ("duty-frac", Field::Number(|s| &mut s.duty_frac)),
        ("incident", Field::Number(|s| &mut s.incident_factor)),
        (
            "incident-start",
            Field::Number(|s| &mut s.incident_start_frac),
        ),
        ("incident-end", Field::Number(|s| &mut s.incident_end_frac)),
        ("incident-period", Field::Epochs(|s| &mut s.incident_period)),
        (
            "incident-stagger",
            Field::Epochs(|s| &mut s.incident_stagger),
        ),
        ("cost-spread", Field::Number(|s| &mut s.cost_spread)),
    ];

    /// The presets, one row per preset: the spellings that name it (the
    /// first is the one diagnostics list) and the `+`-joined
    /// [`ScenarioSpec::KEYS`] terms it stands for. A preset sets only
    /// non-default values, so presets compose: `churn+incident` is churn's
    /// probabilities plus incident's regime switch.
    pub const PRESETS: &'static [(&'static [&'static str], &'static str)] = &[
        // The healthy scenario.
        (&["none"], ""),
        // Device churn: ~1% of the fleet leaves per epoch, absentees rejoin
        // quickly, occasional in-place reboots.
        (&["churn"], "leave=0.01+join=0.25+reboot=0.005"),
        // Regime incident: mid-study, every signal's band edge jumps to 3×
        // its diurnal value, then recovers — the controller must
        // re-discover both transitions through its own sampling.
        (&["incident"], "incident=3"),
        // Lossy reporting: epochs are dropped, duplicated, and delayed in
        // flight at realistic rates.
        (&["lossy-reports", "lossy"], "drop=0.05+dup=0.02+delay=0.03"),
        // Cost asymmetry: per-device sample costs spread 4× either way.
        (&["cost-skew"], "cost-spread=4"),
        // Duty-cycled reporters: each member sleeps one epoch in four, at a
        // hashed per-member phase (the fleet never naps in unison).
        (&["duty"], "duty-period=4+duty-frac=0.75"),
        // Battery-constrained reporters: awake half of every six epochs
        // plus a 5% per-epoch chance of an unscheduled conservation nap.
        (&["battery"], "duty-period=6+duty-frac=0.5+sleep=0.05"),
        // Diurnal regime: the 3× band-edge incident recurs within every
        // 6-epoch period instead of striking once mid-study.
        (&["diurnal"], "incident=3+incident-period=6"),
        // Staggered incident: the 3× regime switch rolls across four
        // device-index groups, one epoch apart, instead of striking the
        // whole fleet at once.
        (&["staggered"], "incident=3+incident-stagger=4"),
    ];

    /// Parses a `--scenario` argument: `+`-separated terms, each either a
    /// preset name ([`ScenarioSpec::PRESETS`]), which stands for its terms,
    /// or a `key=value` override ([`ScenarioSpec::KEYS`]; `incident` is the
    /// regime factor). Terms apply left to right onto the healthy scenario.
    /// The seed is *not* part of the string — set it via `--scenario-seed` /
    /// the field.
    ///
    /// # Errors
    /// A human-readable message naming the offending term and listing the
    /// valid presets and keys.
    pub fn parse(s: &str) -> Result<ScenarioSpec, String> {
        let mut spec = ScenarioSpec::none();
        for term in s.split('+').map(str::trim) {
            match Self::PRESETS
                .iter()
                .find(|(names, _)| names.contains(&term))
            {
                Some((_, terms)) => terms.split('+').try_for_each(|t| spec.apply(t))?,
                None => spec.apply(term)?,
            }
        }
        spec.validate()?;
        Ok(spec)
    }

    /// The diagnostics' vocabulary: each preset's first spelling and every
    /// key, `, `-joined.
    fn vocabulary() -> (String, String) {
        let presets: Vec<&str> = Self::PRESETS.iter().map(|(names, _)| names[0]).collect();
        let keys: Vec<&str> = Self::KEYS.iter().map(|(key, _)| *key).collect();
        (presets.join(", "), keys.join(", "))
    }

    /// Applies one `key=value` term; an empty term sets nothing.
    fn apply(&mut self, term: &str) -> Result<(), String> {
        if term.is_empty() {
            return Ok(());
        }
        let (key, value) = term.split_once('=').ok_or_else(|| {
            let (presets, keys) = Self::vocabulary();
            format!(
                "unknown scenario term '{term}' — presets: {presets}; key=value overrides: {keys}"
            )
        })?;
        let v: f64 = value
            .parse()
            .map_err(|_| format!("scenario term '{term}': bad number '{value}'"))?;
        let (_, field) = Self::KEYS.iter().find(|(k, _)| *k == key).ok_or_else(|| {
            let (presets, keys) = Self::vocabulary();
            format!("unknown scenario key '{key}' in term '{term}' — valid keys: {keys}; presets: {presets}")
        })?;
        match field {
            Field::Probability(f) | Field::Number(f) => *f(self) = v,
            Field::Epochs(_) if v < 0.0 || v.fract() != 0.0 => {
                return Err(format!(
                    "scenario term '{term}': '{value}' must be a whole number of epochs"
                ))
            }
            Field::Epochs(f) => *f(self) = v as usize,
        }
        Ok(())
    }

    /// Checks every probability, the incident factor and window, the cost
    /// spread and the duty fraction are in range.
    pub(crate) fn validate(&self) -> Result<(), String> {
        // The row accessors borrow mutably, so read the fields through a copy.
        let mut spec = *self;
        for (name, field) in Self::KEYS {
            let Field::Probability(f) = field else {
                continue;
            };
            let p = *f(&mut spec);
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("scenario {name} probability {p} outside [0, 1]"));
            }
        }
        if !(self.incident_factor > 0.0 && self.incident_factor.is_finite()) {
            return Err(format!(
                "scenario incident factor must be positive, got {}",
                self.incident_factor
            ));
        }
        if !(0.0..=1.0).contains(&self.incident_start_frac)
            || !(0.0..=1.0).contains(&self.incident_end_frac)
            || self.incident_end_frac < self.incident_start_frac
        {
            return Err(format!(
                "scenario incident window [{}, {}] must be ordered fractions of the run",
                self.incident_start_frac, self.incident_end_frac
            ));
        }
        if !(self.cost_spread >= 1.0 && self.cost_spread.is_finite()) {
            return Err(format!(
                "scenario cost spread must be >= 1, got {}",
                self.cost_spread
            ));
        }
        if !(0.0..=1.0).contains(&self.duty_frac) {
            return Err(format!(
                "scenario duty-frac {} outside [0, 1]",
                self.duty_frac
            ));
        }
        Ok(())
    }
}

/// The field a [`ScenarioSpec::KEYS`] row sets, by kind: the kind decides
/// how the term's value is read and whether `validate` checks it as a
/// probability.
#[derive(Debug, Clone, Copy)]
pub enum Field {
    /// A per-epoch probability, held to `[0, 1]`.
    Probability(fn(&mut ScenarioSpec) -> &mut f64),
    /// A whole number of epochs: a negative or fractional value is refused.
    Epochs(fn(&mut ScenarioSpec) -> &mut usize),
    /// A plain number, range-checked by its own rule.
    Number(fn(&mut ScenarioSpec) -> &mut f64),
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec::none()
    }
}

/// Per-kind salts so every event class draws an independent uniform stream.
const SALT_LEAVE: u64 = 0x1EAF_0001;
const SALT_JOIN: u64 = 0x3011_0002;
const SALT_REBOOT: u64 = 0xB007_0003;
const SALT_DROP: u64 = 0xD209_0004;
const SALT_DUP: u64 = 0xD4B1_0005;
const SALT_DELAY: u64 = 0xDE1A_0006;
const SALT_COST: u64 = 0xC057_0007;
const SALT_SLEEP: u64 = 0x51EE_0008;
const SALT_DUTY: u64 = 0xD077_0009;

/// SplitMix64 finalizer over `(seed, salt, epoch, index)` — the same mixer
/// trace synthesis uses, so nearby epochs/devices share nothing.
fn mix(seed: u64, salt: u64, epoch: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(epoch.wrapping_mul(0x94D0_49BB_1331_11EB))
        .wrapping_add(index.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` from the mixed hash (53 mantissa bits).
fn unit(seed: u64, salt: u64, epoch: u64, index: u64) -> f64 {
    (mix(seed, salt, epoch, index) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Running totals of what a scenario dealt over a whole run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScenarioCounters {
    /// Devices that went offline (leave events).
    pub leaves: usize,
    /// Offline devices that came back (rejoin events).
    pub joins: usize,
    /// Reboots, counting both in-place reboots and rejoins.
    pub reboots: usize,
    /// Device-epochs spent offline.
    pub absent_epochs: usize,
    /// Reports lost in flight.
    pub dropped_reports: usize,
    /// Reports duplicated in flight.
    pub duplicated_reports: usize,
    /// Reports that arrived too late to adapt on.
    pub delayed_reports: usize,
    /// Device-epochs spent in scheduled sleep (duty cycle / battery).
    pub dormant_epochs: usize,
}

/// What a scenario did to one policy run, for reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioStats {
    /// Canonical scenario label (see [`ScenarioSpec::label`]).
    pub label: String,
    /// Scenario seed the fault schedule was drawn from.
    pub seed: u64,
    /// Event totals over the run.
    pub counters: ScenarioCounters,
    /// Incident phase, as an epoch range (`None` without an incident).
    pub incident: Option<Range<usize>>,
    /// Fleet mean coverage over the pre-incident epochs — the recovery
    /// baseline. `None` when there is no incident or no pre-incident epoch.
    pub baseline_coverage: Option<f64>,
    /// Epochs after the incident ends until fleet mean coverage regains
    /// 95% of the pre-incident baseline. `None` if it never recovers
    /// within the run (or there is no incident/baseline). The *fleet-mean*
    /// view; the reported recovery quantiles come from the per-device
    /// histogram below.
    pub time_to_recover: Option<usize>,
    /// Median per-device time-to-recover: epochs after a device's own
    /// incident exit until its coverage regains 95% of its pre-incident
    /// baseline, measured per device and summarized from an obs log-bucket
    /// histogram. `None` when no device recovered (or no incident).
    pub ttr_p50: Option<f64>,
    /// 95th-percentile per-device time-to-recover (the slow tail the fleet
    /// mean hides).
    pub ttr_p95: Option<f64>,
    /// Devices that saw an incident and regained their baseline in the run.
    pub recovered_devices: usize,
    /// Devices that saw an incident and never regained their baseline.
    pub unrecovered_devices: usize,
    /// Devices whose final request under-covers their ground-truth Nyquist
    /// requirement (coverage < 95%) at the end of the run — the aliasing
    /// deadlock census. Only meaningful under uncapped/ample budgets, where
    /// nothing but the controller itself limits the rate.
    pub deadlocked: usize,
    /// Fleet mean coverage per epoch (absent devices score 0) — the
    /// degradation/recovery trajectory the incident analysis reads.
    pub epoch_mean_coverage: Vec<f64>,
}

/// The deterministic fault dealer for one run: owns the spec and the
/// resolved incident boundaries. Stateless per epoch — every decision is a
/// hash of `(seed, salt, epoch, device index)`.
#[derive(Debug, Clone)]
pub struct ScenarioEngine {
    spec: ScenarioSpec,
    incident: Option<Range<usize>>,
}

impl ScenarioEngine {
    /// Builds the engine for a run of `epochs` lockstep epochs. With
    /// `incident_period > 0` the window fractions resolve against the
    /// period instead of the horizon (the window then recurs every period).
    pub fn new(spec: ScenarioSpec, epochs: usize) -> ScenarioEngine {
        let incident = spec.has_incident().then(|| {
            let span = if spec.incident_period > 0 {
                spec.incident_period
            } else {
                epochs
            };
            let start = (spec.incident_start_frac * span as f64).floor() as usize;
            let end = ((spec.incident_end_frac * span as f64).ceil() as usize).min(span);
            start..end.max(start)
        });
        ScenarioEngine { spec, incident }
    }

    /// The spec this engine deals from.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// Incident phase as an epoch range, when one is configured. For
    /// recurring incidents this is the window within each period; for
    /// staggered incidents it is group 0's window (group `g` shifts `g`
    /// epochs later) — per-device truth lives in
    /// [`ScenarioEngine::incident_active`].
    pub fn incident(&self) -> Option<Range<usize>> {
        self.incident.clone()
    }

    /// Whether device `index`'s signal runs in the incident regime during
    /// `epoch`. Pure in `(spec, epoch, index)`: stagger groups come from
    /// the device index (never from worker shards), so activity is
    /// identical for every thread count.
    pub fn incident_active(&self, epoch: usize, index: usize) -> bool {
        let Some(win) = &self.incident else {
            return false;
        };
        let groups = self.spec.incident_stagger.max(1);
        let Some(e) = epoch.checked_sub(index % groups) else {
            return false;
        };
        if self.spec.incident_period > 0 {
            win.contains(&(e % self.spec.incident_period))
        } else {
            win.contains(&e)
        }
    }

    /// Whether device `index` is scheduled asleep for `epoch` by its duty
    /// cycle (phase hashed per member so the fleet never naps in unison).
    fn duty_asleep(&self, epoch: u64, index: u64) -> bool {
        let period = self.spec.duty_period as u64;
        if period == 0 {
            return false;
        }
        let awake = ((self.spec.duty_frac * period as f64).ceil() as u64).clamp(1, period);
        if awake == period {
            return false;
        }
        let phase = mix(self.spec.seed, SALT_DUTY, 0, index) % period;
        (epoch + phase) % period >= awake
    }

    /// Deals device `index` its event for `epoch`, given whether it is
    /// currently active. Pure: same `(spec.seed, epoch, index, active)` ⇒
    /// same event, regardless of policy, grants, or thread count. Draws are
    /// gated on non-zero probabilities, so inactive event classes cost
    /// nothing and scenarios compose without perturbing each other.
    pub fn deal(&self, epoch: usize, index: usize, active: bool) -> DeviceEvent {
        let s = &self.spec;
        let (e, i) = (epoch as u64, index as u64);
        if !active {
            return if s.join_prob > 0.0 && unit(s.seed, SALT_JOIN, e, i) < s.join_prob {
                DeviceEvent::Reboot
            } else {
                DeviceEvent::Absent
            };
        }
        // Scheduled sleep trumps everything an awake device could do: a
        // sleeping device cannot drop or delay a report it never sends.
        if self.duty_asleep(e, i) {
            return DeviceEvent::Dormant;
        }
        if s.sleep_prob > 0.0 && unit(s.seed, SALT_SLEEP, e, i) < s.sleep_prob {
            return DeviceEvent::Dormant;
        }
        if s.leave_prob > 0.0 && unit(s.seed, SALT_LEAVE, e, i) < s.leave_prob {
            return DeviceEvent::Absent;
        }
        if s.reboot_prob > 0.0 && unit(s.seed, SALT_REBOOT, e, i) < s.reboot_prob {
            return DeviceEvent::Reboot;
        }
        if s.drop_prob > 0.0 && unit(s.seed, SALT_DROP, e, i) < s.drop_prob {
            return DeviceEvent::ReportDropped;
        }
        if s.delay_prob > 0.0 && unit(s.seed, SALT_DELAY, e, i) < s.delay_prob {
            return DeviceEvent::ReportDelayed;
        }
        if s.dup_prob > 0.0 && unit(s.seed, SALT_DUP, e, i) < s.dup_prob {
            return DeviceEvent::ReportDuplicated;
        }
        DeviceEvent::Healthy
    }

    /// Per-device cost factors, log-uniform over `[1/spread, spread]`, or
    /// `None` for a uniform fleet — the `None` keeps the healthy ledger
    /// arithmetic (and hence its bytes) untouched.
    pub fn cost_factors(&self, devices: usize) -> Option<Vec<f64>> {
        let spread = self.spec.cost_spread;
        if spread == 1.0 {
            return None;
        }
        Some(
            (0..devices)
                .map(|i| {
                    // u ∈ [−1, 1) ⇒ factor ∈ [1/spread, spread).
                    let u = 2.0 * unit(self.spec.seed, SALT_COST, 0, i as u64) - 1.0;
                    spread.powf(u)
                })
                .collect(),
        )
    }

    /// Recovery analysis over the run's per-epoch fleet mean coverage:
    /// `(baseline, time_to_recover)`. The baseline is the mean over
    /// pre-incident epochs; recovery is the first post-incident epoch whose
    /// fleet mean regains 95% of it, counted from the incident's end.
    pub fn recovery(&self, epoch_means: &[f64]) -> (Option<f64>, Option<usize>) {
        let Some(incident) = &self.incident else {
            return (None, None);
        };
        if incident.start == 0 || incident.start > epoch_means.len() {
            return (None, None);
        }
        let baseline = epoch_means[..incident.start].iter().sum::<f64>() / incident.start as f64;
        let threshold = baseline * 0.95;
        let recover = epoch_means
            .iter()
            .enumerate()
            .skip(incident.end)
            .find(|(_, &m)| m >= threshold)
            .map(|(e, _)| e - incident.end);
        (Some(baseline), recover)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inactive_and_presets_are_active() {
        assert!(!ScenarioSpec::none().is_active());
        for (names, _) in &ScenarioSpec::PRESETS[1..] {
            let spec = ScenarioSpec::parse(names[0]).unwrap();
            assert!(spec.is_active(), "{names:?}: {spec:?}");
        }
    }

    #[test]
    fn parse_presets_compose_with_plus() {
        let spec = ScenarioSpec::parse("churn+lossy-reports").unwrap();
        assert_eq!(spec.leave_prob, 0.01);
        assert_eq!(spec.drop_prob, 0.05);
        assert!(!spec.has_incident());
        assert_eq!(spec.label(), "churn+lossy-reports");
    }

    #[test]
    fn parse_key_value_overrides() {
        let spec = ScenarioSpec::parse("incident+incident=2.0+drop=0.1").unwrap();
        assert_eq!(spec.incident_factor, 2.0);
        assert_eq!(spec.drop_prob, 0.1);
        assert_eq!(ScenarioSpec::parse("none").unwrap(), ScenarioSpec::none());
        let spec = ScenarioSpec::parse("churn+drop=0.1+incident=2.5").unwrap();
        assert_eq!(spec.leave_prob, 0.01);
        assert_eq!(spec.drop_prob, 0.1);
        assert_eq!(spec.incident_factor, 2.5);
    }

    #[test]
    fn every_preset_spelling_parses_to_its_fixed_spec() {
        let none = ScenarioSpec::none();
        let churn = ScenarioSpec {
            leave_prob: 0.01,
            join_prob: 0.25,
            reboot_prob: 0.005,
            ..none
        };
        let lossy = ScenarioSpec {
            drop_prob: 0.05,
            dup_prob: 0.02,
            delay_prob: 0.03,
            ..none
        };
        let diurnal = ScenarioSpec {
            incident_factor: 3.0,
            incident_period: 6,
            ..none
        };
        let cases = [
            ("none", none),
            ("churn", churn),
            (
                "incident",
                ScenarioSpec {
                    incident_factor: 3.0,
                    ..none
                },
            ),
            ("lossy-reports", lossy),
            ("lossy", lossy),
            (
                "cost-skew",
                ScenarioSpec {
                    cost_spread: 4.0,
                    ..none
                },
            ),
            (
                "duty",
                ScenarioSpec {
                    duty_period: 4,
                    duty_frac: 0.75,
                    ..none
                },
            ),
            (
                "battery",
                ScenarioSpec {
                    duty_period: 6,
                    duty_frac: 0.5,
                    sleep_prob: 0.05,
                    ..none
                },
            ),
            ("diurnal", diurnal),
            (
                "staggered",
                ScenarioSpec {
                    incident_factor: 3.0,
                    incident_stagger: 4,
                    ..none
                },
            ),
            // Terms apply left to right: a preset after an override wins,
            // an override after a preset wins.
            ("drop=0.1+lossy-reports", lossy),
            (
                "lossy-reports+drop=0.1",
                ScenarioSpec {
                    drop_prob: 0.1,
                    ..lossy
                },
            ),
            ("incident=2+diurnal", diurnal),
        ];
        for (text, spec) in cases {
            assert_eq!(ScenarioSpec::parse(text), Ok(spec), "{text}");
        }
    }

    #[test]
    fn parse_rejects_nonsense() {
        assert!(ScenarioSpec::parse("blizzard").is_err());
        assert!(ScenarioSpec::parse("drop=nope").is_err());
        assert!(ScenarioSpec::parse("drop=1.5").is_err());
        assert!(ScenarioSpec::parse("incident=0").is_err());
        assert!(ScenarioSpec::parse("cost-spread=0.5").is_err());
        assert!(ScenarioSpec::parse("incident-start=0.9+incident-end=0.1").is_err());
    }

    #[test]
    fn deal_is_pure_and_seed_sensitive() {
        let spec = ScenarioSpec {
            seed: 7,
            ..ScenarioSpec::parse("churn").unwrap()
        };
        let eng = ScenarioEngine::new(spec, 100);
        for epoch in 0..50 {
            for index in 0..40 {
                assert_eq!(
                    eng.deal(epoch, index, true),
                    eng.deal(epoch, index, true),
                    "deal must be pure"
                );
            }
        }
        let other = ScenarioEngine::new(ScenarioSpec { seed: 8, ..spec }, 100);
        let differs =
            (0..200).any(|e| (0..40).any(|i| eng.deal(e, i, true) != other.deal(e, i, true)));
        assert!(differs, "seed must steer the schedule");
    }

    #[test]
    fn deal_rates_match_probabilities_roughly() {
        let spec = ScenarioSpec {
            seed: 3,
            ..ScenarioSpec::parse("lossy-reports").unwrap()
        };
        let eng = ScenarioEngine::new(spec, 1000);
        let mut dropped = 0usize;
        let mut total = 0usize;
        for epoch in 0..1000 {
            for index in 0..20 {
                total += 1;
                if eng.deal(epoch, index, true) == DeviceEvent::ReportDropped {
                    dropped += 1;
                }
            }
        }
        let rate = dropped as f64 / total as f64;
        assert!(
            (0.035..0.065).contains(&rate),
            "drop rate {rate} far from 0.05"
        );
    }

    #[test]
    fn absent_devices_only_rejoin_or_stay_absent() {
        let spec = ScenarioSpec {
            seed: 11,
            ..ScenarioSpec::parse("churn").unwrap()
        };
        let eng = ScenarioEngine::new(spec, 100);
        for epoch in 0..100 {
            for index in 0..20 {
                let ev = eng.deal(epoch, index, false);
                assert!(
                    ev == DeviceEvent::Absent || ev == DeviceEvent::Reboot,
                    "absent device dealt {ev:?}"
                );
            }
        }
    }

    #[test]
    fn incident_boundaries_cover_the_configured_window() {
        let eng = ScenarioEngine::new(ScenarioSpec::parse("incident").unwrap(), 16);
        let inc = eng.incident().expect("incident configured");
        assert_eq!(inc, 4..10);
        assert!(
            ScenarioEngine::new(ScenarioSpec::parse("churn").unwrap(), 16)
                .incident()
                .is_none()
        );
    }

    #[test]
    fn cost_factors_spread_around_unity() {
        let eng = ScenarioEngine::new(
            ScenarioSpec {
                seed: 5,
                ..ScenarioSpec::parse("cost-skew").unwrap()
            },
            10,
        );
        let f = eng.cost_factors(500).expect("skewed");
        assert!(f.iter().all(|&x| (0.25..=4.0).contains(&x)));
        let spread =
            f.iter().cloned().fold(f64::MIN, f64::max) / f.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread > 4.0, "spread {spread} too tight");
        assert!(eng.cost_factors(0).is_some());
        let uniform = ScenarioEngine::new(ScenarioSpec::parse("churn").unwrap(), 10);
        assert!(uniform.cost_factors(500).is_none());
    }

    #[test]
    fn parse_errors_name_the_token_and_list_the_vocabulary() {
        let err = ScenarioSpec::parse("churn+blizzard").unwrap_err();
        assert!(err.contains("blizzard"), "{err}");
        assert!(err.contains("cost-skew"), "must list presets: {err}");
        assert!(err.contains("duty-period"), "must list keys: {err}");
        let err = ScenarioSpec::parse("sleet=0.1").unwrap_err();
        assert!(err.contains("sleet"), "{err}");
        assert!(err.contains("incident-stagger"), "must list keys: {err}");
        let err = ScenarioSpec::parse("duty-period=1.5").unwrap_err();
        assert!(err.contains("whole number"), "{err}");
    }

    #[test]
    fn duty_cycle_sleeps_the_configured_fraction_at_hashed_phases() {
        let spec = ScenarioSpec {
            seed: 9,
            ..ScenarioSpec::parse("duty").unwrap()
        };
        let eng = ScenarioEngine::new(spec, 64);
        let devices = 64;
        // Every member sleeps exactly 1 epoch in 4 (period 4, frac 0.75) …
        for i in 0..devices {
            let dormant: Vec<usize> = (0..64)
                .filter(|&e| eng.deal(e, i, true) == DeviceEvent::Dormant)
                .collect();
            assert_eq!(dormant.len(), 16, "device {i}: {dormant:?}");
            for w in dormant.windows(2) {
                assert_eq!(w[1] - w[0], 4, "sleep must recur every period");
            }
        }
        // … but not all at the same epoch: phases are hashed per member.
        let asleep_at_0 = (0..devices)
            .filter(|&i| eng.deal(0, i, true) == DeviceEvent::Dormant)
            .count();
        assert!(
            asleep_at_0 > 0 && asleep_at_0 < devices,
            "phases must scatter the naps, {asleep_at_0}/{devices} slept at once"
        );
    }

    #[test]
    fn battery_adds_unscheduled_sleep_on_top_of_the_duty_cycle() {
        let spec = ScenarioSpec {
            seed: 21,
            ..ScenarioSpec::parse("battery").unwrap()
        };
        let eng = ScenarioEngine::new(spec, 600);
        let mut dormant = 0usize;
        let mut total = 0usize;
        for epoch in 0..600 {
            for index in 0..20 {
                total += 1;
                if eng.deal(epoch, index, true) == DeviceEvent::Dormant {
                    dormant += 1;
                }
            }
        }
        // Scheduled half plus ~5% of the awake half ⇒ ~52.5%.
        let rate = dormant as f64 / total as f64;
        assert!((0.48..0.58).contains(&rate), "dormant rate {rate}");
    }

    #[test]
    fn diurnal_incident_recurs_every_period() {
        let eng = ScenarioEngine::new(ScenarioSpec::parse("diurnal").unwrap(), 24);
        // Period 6, fracs (0.25, 0.625) ⇒ active at offsets 1, 2, 3.
        assert_eq!(eng.incident(), Some(1..4));
        for epoch in 0..24 {
            let expect = (1..4).contains(&(epoch % 6));
            assert_eq!(eng.incident_active(epoch, 0), expect, "epoch {epoch}");
        }
    }

    #[test]
    fn staggered_incident_shifts_one_epoch_per_device_group() {
        let eng = ScenarioEngine::new(ScenarioSpec::parse("staggered").unwrap(), 16);
        let base = eng.incident().expect("incident configured");
        assert_eq!(base, 4..10);
        for index in 0..8 {
            let group = index % 4;
            for epoch in 0..16 {
                let expect = epoch >= group && base.contains(&(epoch - group));
                assert_eq!(
                    eng.incident_active(epoch, index),
                    expect,
                    "device {index} epoch {epoch}"
                );
            }
        }
        // The non-staggered engine switches the whole fleet at once.
        let bulk = ScenarioEngine::new(ScenarioSpec::parse("incident").unwrap(), 16);
        for epoch in 0..16 {
            assert_eq!(
                bulk.incident_active(epoch, 0),
                bulk.incident_active(epoch, 7),
            );
            assert_eq!(bulk.incident_active(epoch, 0), (4..10).contains(&epoch));
        }
    }

    #[test]
    fn new_preset_labels_round_trip_through_parse() {
        for s in ["duty", "battery", "diurnal", "incident+staggered"] {
            let spec = ScenarioSpec::parse(s).unwrap();
            assert_eq!(spec.label(), s, "label must canonicalize {s}");
            assert_eq!(ScenarioSpec::parse(&spec.label()).unwrap(), spec);
        }
    }

    #[test]
    fn recovery_finds_the_first_post_incident_epoch_at_threshold() {
        let eng = ScenarioEngine::new(ScenarioSpec::parse("incident").unwrap(), 16);
        // Baseline epochs 0..4 at 0.9; incident dips; recovery at epoch 12.
        let means = [
            0.9, 0.9, 0.9, 0.9, // baseline
            0.5, 0.5, 0.5, 0.5, 0.5, 0.5, // incident 4..10
            0.7, 0.8, 0.88, 0.9, 0.9, 0.9, // recovery
        ];
        let (baseline, ttr) = eng.recovery(&means);
        assert!((baseline.unwrap() - 0.9).abs() < 1e-12);
        // 0.95 × 0.9 = 0.855 — first reached at epoch 12, two after the end.
        assert_eq!(ttr, Some(2));
        // Never recovering reports None.
        let flat = [0.9, 0.9, 0.9, 0.9, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5];
        assert_eq!(eng.recovery(&flat), (Some(0.9), None));
    }
}
