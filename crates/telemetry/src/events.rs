//! Transient events: the non-stationarities of §4.2.
//!
//! The paper's adaptive sampler must cope with "sudden changes and phase
//! shifts" — link flaps, fail-stops, one-off spikes. Events are deterministic
//! additive components of the ground-truth signal so experiments can ask
//! *exactly when* the spectral content changed and check how fast the
//! controller reacted.

use serde::{Deserialize, Serialize};

/// What kind of transient happens.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// A short additive spike (half-sine envelope over the duration).
    Spike,
    /// A persistent step: the value jumps by `magnitude` at `start` and stays
    /// there for the duration.
    LevelShift,
    /// A link flap: a square-ish oscillation at `flap_freq` Hz for the
    /// duration — this is the event that *raises the local Nyquist rate*.
    LinkFlap {
        /// Oscillation frequency of the flapping (Hz).
        flap_freq: f64,
    },
    /// Fail-stop: the signal's contribution is replaced by `−magnitude`
    /// (e.g. a counter collapsing to zero) for the duration.
    FailStop,
}

/// A transient event active on `[start, start + duration)` seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Event class.
    pub kind: EventKind,
    /// Start time (seconds).
    pub start: f64,
    /// Duration (seconds).
    pub duration: f64,
    /// Magnitude in metric units.
    pub magnitude: f64,
}

impl Event {
    /// Creates an event.
    ///
    /// # Panics
    /// Panics if `duration` is not positive or `start`/`magnitude` are not
    /// finite.
    pub fn new(kind: EventKind, start: f64, duration: f64, magnitude: f64) -> Self {
        assert!(duration > 0.0, "duration must be positive");
        assert!(
            start.is_finite() && magnitude.is_finite(),
            "parameters must be finite"
        );
        Event {
            kind,
            start,
            duration,
            magnitude,
        }
    }

    /// Whether the event is active at time `t`.
    pub fn is_active(&self, t: f64) -> bool {
        t >= self.start && t < self.start + self.duration
    }

    /// End time (`start + duration`).
    pub fn end(&self) -> f64 {
        self.start + self.duration
    }

    /// Additive contribution of the event at time `t`.
    pub fn value_at(&self, t: f64) -> f64 {
        if !self.is_active(t) {
            return 0.0;
        }
        let phase = (t - self.start) / self.duration; // 0..1
        match self.kind {
            EventKind::Spike => self.magnitude * (std::f64::consts::PI * phase).sin(),
            EventKind::LevelShift => self.magnitude,
            EventKind::LinkFlap { flap_freq } => {
                let cycle = (t - self.start) * flap_freq;
                // Square-ish oscillation, softened to bound bandwidth:
                // fundamental + 1/3 of the 3rd harmonic.
                let w = 2.0 * std::f64::consts::PI * cycle;
                self.magnitude * (w.sin() + (3.0 * w).sin() / 3.0) * 0.75
            }
            EventKind::FailStop => -self.magnitude,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_outside_window() {
        let e = Event::new(EventKind::LevelShift, 10.0, 5.0, 2.0);
        assert_eq!(e.value_at(9.99), 0.0);
        assert_eq!(e.value_at(15.0), 0.0);
        assert!(e.is_active(10.0));
        assert!(!e.is_active(15.0));
        assert_eq!(e.end(), 15.0);
    }

    #[test]
    fn level_shift_is_constant_inside() {
        let e = Event::new(EventKind::LevelShift, 0.0, 10.0, 3.0);
        assert_eq!(e.value_at(0.0), 3.0);
        assert_eq!(e.value_at(9.9), 3.0);
    }

    #[test]
    fn spike_peaks_mid_window() {
        let e = Event::new(EventKind::Spike, 0.0, 10.0, 4.0);
        assert!(e.value_at(0.0).abs() < 1e-12);
        assert!((e.value_at(5.0) - 4.0).abs() < 1e-12);
        assert!(e.value_at(5.0) > e.value_at(1.0));
    }

    #[test]
    fn fail_stop_is_negative_magnitude() {
        let e = Event::new(EventKind::FailStop, 0.0, 5.0, 7.0);
        assert_eq!(e.value_at(2.0), -7.0);
    }

    #[test]
    fn link_flap_oscillates() {
        let e = Event::new(EventKind::LinkFlap { flap_freq: 1.0 }, 0.0, 10.0, 1.0);
        // Quarter cycle: sin(π/2) + sin(3π/2)/3 = 1 − 1/3 = 2/3, ×0.75 = 0.5.
        assert!((e.value_at(0.25) - 0.5).abs() < 1e-12);
        // Antisymmetric half cycle later.
        assert!((e.value_at(0.75) + 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "duration")]
    fn zero_duration_panics() {
        Event::new(EventKind::Spike, 0.0, 0.0, 1.0);
    }
}
