//! The one working set every spectral analysis in this crate borrows.

use crate::aliasing::BandScratch;
use sweetspot_dsp::fft::FftPlanner;

/// Working storage for spectra: the FFT planner (cached tables and working
/// buffers), the recycled power buffers of a fast and a slow stream's
/// spectra, the §4.1 band-power tables, and recycled value buffers for the
/// two streams.
///
/// The §3.2 estimator ([`crate::estimator::NyquistEstimator`]) uses the
/// planner and the fast power buffer, the §4.1 detector
/// ([`crate::aliasing::detect_aliasing`]) both power buffers and the band
/// tables, and the §4.2 controller ([`crate::adaptive::AdaptiveSampler`])
/// everything. A loop keeps one for all its calls, so repeated transforms
/// of one length build their twiddle and window tables once and the steady
/// state performs no heap allocations; the fleet engine keeps one *per
/// worker*, so 10⁵ member controllers share a handful of warmed-up working
/// sets and plan tables. Contents never influence results — every buffer
/// is cleared or overwritten before use, and every table is a pure function
/// of its length.
#[derive(Default)]
pub struct SpectrumScratch {
    /// The FFT planner every periodogram runs through.
    pub(crate) planner: FftPlanner,
    /// Power buffers of the fast (primary) and slow (companion) spectra,
    /// handed to `Spectrum` and reclaimed with `Spectrum::into_power`.
    pub(crate) fast_power: Vec<f64>,
    pub(crate) slow_power: Vec<f64>,
    /// §4.1 band-power tables.
    pub(crate) bands: BandScratch,
    /// Value buffers for the primary/companion streams: each epoch lends them
    /// to [`crate::source::SignalSource::sample`] and takes them back from
    /// the returned series, so a source with a zero-allocation path (e.g.
    /// `monitor::DeviceSource`) makes the whole epoch allocation-free.
    pub(crate) fast_spare: Vec<f64>,
    pub(crate) slow_spare: Vec<f64>,
}

impl SpectrumScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty scratch whose plan-table cache is capped at `budget` bytes
    /// (see [`FftPlanner::set_table_budget`]): over budget it drops every
    /// table nothing else holds, which never changes a result.
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

    /// The same planner lent mutably, so work beside the estimator (a
    /// reconstruction, a plain periodogram) reuses the tables it built.
    pub fn planner_mut(&mut self) -> &mut FftPlanner {
        &mut self.planner
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aliasing::DETECTOR_PSD;
    use crate::estimator::{NyquistConfig, NyquistEstimator};
    use sweetspot_dsp::psd::periodogram;
    use sweetspot_timeseries::Hertz;

    #[test]
    fn lent_planner_shares_its_tables_with_the_estimator() {
        // A spectrum taken through `planner_mut` builds its tables in the
        // scratch's own cache, and an estimate of the same trace (the
        // default estimator reads the detector's PSD) then builds none.
        let samples: Vec<f64> = (0..4096).map(|i| (0.01 * i as f64).sin()).collect();
        let mut scratch = SpectrumScratch::new();
        periodogram(scratch.planner_mut(), &samples, 1.0, DETECTOR_PSD);
        let built = scratch.planner().table_bytes();
        assert!(built > 0);
        NyquistEstimator::new(NyquistConfig::default()).estimate_samples(
            &mut scratch,
            &samples,
            Hertz(1.0),
        );
        assert_eq!(scratch.planner().table_bytes(), built);
    }
}
