//! Time and rate newtypes.
//!
//! Monitoring math constantly converts between polling *periods* ("every 5
//! minutes") and sampling *rates* ("1/300 Hz"), across ten orders of
//! magnitude. Wrapping both in newtypes makes the units part of the type
//! system; conversions are explicit and checked.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

/// A duration or timestamp in seconds (f64; sub-second precision is fine for
/// monitoring workloads).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Seconds(pub f64);

/// A frequency / sampling rate in Hertz.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Hertz(pub f64);

impl Seconds {
    /// Zero seconds.
    pub const ZERO: Seconds = Seconds(0.0);

    /// Constructs from minutes.
    pub fn from_minutes(m: f64) -> Self {
        Seconds(m * 60.0)
    }

    /// Constructs from hours.
    pub fn from_hours(h: f64) -> Self {
        Seconds(h * 3600.0)
    }

    /// Constructs from days.
    pub fn from_days(d: f64) -> Self {
        Seconds(d * 86_400.0)
    }

    /// The raw number of seconds.
    pub fn value(self) -> f64 {
        self.0
    }

    /// The sampling rate whose period is this duration.
    ///
    /// # Panics
    /// Panics if the duration is not positive.
    pub fn as_rate(self) -> Hertz {
        assert!(
            self.0 > 0.0,
            "cannot convert non-positive period {self} to a rate"
        );
        Hertz(1.0 / self.0)
    }
}

impl Hertz {
    /// Zero Hz (a "never sample" rate; cannot be converted to a period).
    pub const ZERO: Hertz = Hertz(0.0);

    /// The raw Hz value.
    pub fn value(self) -> f64 {
        self.0
    }

    /// The sampling period of this rate.
    ///
    /// # Panics
    /// Panics if the rate is not positive.
    pub fn period(self) -> Seconds {
        assert!(
            self.0 > 0.0,
            "cannot convert non-positive rate {self} to a period"
        );
        Seconds(1.0 / self.0)
    }

    /// The Nyquist *sampling* rate for a signal whose highest frequency is
    /// `self`: twice the band edge (§2 of the paper).
    pub fn nyquist_rate(self) -> Hertz {
        Hertz(self.0 * 2.0)
    }

    /// The highest representable signal frequency when sampling at `self`:
    /// half the sampling rate (the folding frequency).
    pub fn folding_frequency(self) -> Hertz {
        Hertz(self.0 / 2.0)
    }
}

impl fmt::Display for Seconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() >= 86_400.0 {
            write!(f, "{:.2}d", self.0 / 86_400.0)
        } else if self.0.abs() >= 3600.0 {
            write!(f, "{:.2}h", self.0 / 3600.0)
        } else if self.0.abs() >= 60.0 {
            write!(f, "{:.2}min", self.0 / 60.0)
        } else {
            write!(f, "{:.3}s", self.0)
        }
    }
}

impl fmt::Display for Hertz {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == 0.0 {
            write!(f, "0Hz")
        } else if self.0.abs() < 1e-3 {
            write!(f, "{:.3e}Hz", self.0)
        } else {
            write!(f, "{:.4}Hz", self.0)
        }
    }
}

impl Add for Seconds {
    type Output = Seconds;
    fn add(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 + rhs.0)
    }
}

impl Sub for Seconds {
    type Output = Seconds;
    fn sub(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 - rhs.0)
    }
}

impl Mul<f64> for Seconds {
    type Output = Seconds;
    fn mul(self, rhs: f64) -> Seconds {
        Seconds(self.0 * rhs)
    }
}

impl Div<f64> for Seconds {
    type Output = Seconds;
    fn div(self, rhs: f64) -> Seconds {
        Seconds(self.0 / rhs)
    }
}

impl Div for Seconds {
    /// Ratio of two durations (dimensionless).
    type Output = f64;
    fn div(self, rhs: Seconds) -> f64 {
        self.0 / rhs.0
    }
}

impl Mul<f64> for Hertz {
    type Output = Hertz;
    fn mul(self, rhs: f64) -> Hertz {
        Hertz(self.0 * rhs)
    }
}

impl Div<f64> for Hertz {
    type Output = Hertz;
    fn div(self, rhs: f64) -> Hertz {
        Hertz(self.0 / rhs)
    }
}

impl Div for Hertz {
    /// Ratio of two rates (dimensionless) — e.g. the paper's
    /// "possible reduction ratio" = actual rate / Nyquist rate.
    type Output = f64;
    fn div(self, rhs: Hertz) -> f64 {
        self.0 / rhs.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Seconds::from_minutes(5.0).value(), 300.0);
        assert_eq!(Seconds::from_hours(2.0).value(), 7200.0);
        assert_eq!(Seconds::from_days(1.0).value(), 86_400.0);
    }

    #[test]
    fn rate_period_roundtrip() {
        let r = Hertz(0.01);
        assert!((r.period().as_rate().value() - 0.01).abs() < 1e-15);
        let p = Seconds(300.0);
        assert!((p.as_rate().period().value() - 300.0).abs() < 1e-12);
    }

    #[test]
    fn nyquist_relations() {
        let band_edge = Hertz(0.001);
        assert_eq!(band_edge.nyquist_rate().value(), 0.002);
        let fs = Hertz(1.0);
        assert_eq!(fs.folding_frequency().value(), 0.5);
    }

    #[test]
    #[should_panic(expected = "non-positive")]
    fn zero_rate_period_panics() {
        Hertz::ZERO.period();
    }

    #[test]
    #[should_panic(expected = "non-positive")]
    fn zero_period_rate_panics() {
        Seconds::ZERO.as_rate();
    }

    #[test]
    fn arithmetic() {
        assert_eq!((Seconds(2.0) + Seconds(3.0)).value(), 5.0);
        assert_eq!((Seconds(5.0) - Seconds(3.0)).value(), 2.0);
        assert_eq!((Seconds(2.0) * 3.0).value(), 6.0);
        assert_eq!(Seconds(6.0) / Seconds(2.0), 3.0);
        assert_eq!((Hertz(4.0) / 2.0).value(), 2.0);
        assert_eq!(Hertz(4.0) / Hertz(2.0), 2.0);
    }

    #[test]
    fn display_picks_human_units() {
        assert_eq!(format!("{}", Seconds(30.0)), "30.000s");
        assert_eq!(format!("{}", Seconds(300.0)), "5.00min");
        assert_eq!(format!("{}", Seconds(7200.0)), "2.00h");
        assert_eq!(format!("{}", Seconds(172_800.0)), "2.00d");
        assert_eq!(format!("{}", Hertz(0.0)), "0Hz");
        assert!(format!("{}", Hertz(7.99e-7)).contains('e'));
        assert_eq!(format!("{}", Hertz(2.0)), "2.0000Hz");
    }
}
