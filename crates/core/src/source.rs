//! The signal-source abstraction the adaptive sampler drives.
//!
//! The §4.2 controller must *acquire* measurements, not just analyze recorded
//! ones — acquiring is the expensive part the paper wants to minimize. A
//! [`SignalSource`] is anything that can be polled over a time window at a
//! chosen rate: an analytic signal ([`FunctionSource`]), the monitoring
//! simulator's devices (`monitor::DeviceSource`), or (in a real deployment)
//! an SNMP/gNMI poller.

use sweetspot_timeseries::{grid_len, Hertz, RegularSeries, Seconds};

/// Something that can be sampled at an arbitrary rate over a window.
pub trait SignalSource {
    /// Samples the signal on `[start, start + duration)` at `rate`.
    ///
    /// Implementations must return a [`RegularSeries`] whose `start` is
    /// `start` and whose interval is `1/rate`. The number of samples is
    /// [`grid_len`]`(duration, rate)`: `round(duration · rate)`, at least 1.
    ///
    /// `buf` is storage the caller lends (typically a previous series'
    /// buffer, via [`RegularSeries::into_values`]); the source builds the
    /// result in it, so a sampling loop that hands each result back runs
    /// without heap allocations. Its contents are ignored.
    fn sample(
        &mut self,
        start: Seconds,
        rate: Hertz,
        duration: Seconds,
        buf: Vec<f64>,
    ) -> RegularSeries;
}

/// A [`SignalSource`] that evaluates a pure function of time — the cheapest
/// way to expose an analytic signal (or a `telemetry::SignalModel` closure)
/// to the controller.
pub struct FunctionSource<F>
where
    F: FnMut(f64) -> f64,
{
    f: F,
}

impl<F> FunctionSource<F>
where
    F: FnMut(f64) -> f64,
{
    /// Wraps `f(t_seconds) -> value`.
    pub fn new(f: F) -> Self {
        FunctionSource { f }
    }
}

impl<F> SignalSource for FunctionSource<F>
where
    F: FnMut(f64) -> f64,
{
    fn sample(
        &mut self,
        start: Seconds,
        rate: Hertz,
        duration: Seconds,
        mut buf: Vec<f64>,
    ) -> RegularSeries {
        assert!(rate.value() > 0.0, "rate must be positive");
        assert!(duration.value() > 0.0, "duration must be positive");
        let interval = rate.period();
        let values = (0..grid_len(duration, rate))
            .map(|k| (self.f)(start.value() + k as f64 * interval.value()));
        buf.clear();
        buf.extend(values);
        RegularSeries::new(start, interval, buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn function_source_samples_the_function() {
        let mut src = FunctionSource::new(|t| 2.0 * t);
        let s = src.sample(Seconds(10.0), Hertz(0.5), Seconds(10.0), Vec::new());
        assert_eq!(s.len(), 5);
        assert_eq!(s.start(), Seconds(10.0));
        assert_eq!(s.values(), &[20.0, 24.0, 28.0, 32.0, 36.0]);
    }

    #[test]
    fn function_source_respects_rate_grid() {
        let mut src = FunctionSource::new(|t| t);
        let s = src.sample(Seconds(0.0), Hertz(4.0), Seconds(1.0), Vec::new());
        assert_eq!(s.len(), 4);
        assert_eq!(s.interval(), Seconds(0.25));
        assert_eq!(s.values(), &[0.0, 0.25, 0.5, 0.75]);
    }
}
