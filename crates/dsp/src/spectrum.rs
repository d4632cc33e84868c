//! One-sided power spectra with physical frequency axes.
//!
//! [`Spectrum`] is the common currency between the PSD estimators in
//! [`crate::psd`] and the Nyquist-rate logic in `sweetspot-core`: it knows the
//! sample rate that produced it, maps bins to Hz, and answers the question at
//! the heart of the paper's §3.2 method — *"up to which frequency must I go to
//! capture X% of the signal's energy?"*.

/// A one-sided power spectrum of a real signal.
///
/// Bin `k` covers frequency `k · sample_rate / n` where `n` is the length of
/// the analyzed (time-domain) segment. The last bin is the Nyquist frequency
/// `sample_rate / 2` when `n` is even.
#[derive(Debug, Clone, PartialEq)]
pub struct Spectrum {
    power: Vec<f64>,
    sample_rate: f64,
    n: usize,
}

impl Spectrum {
    /// Wraps a one-sided PSD.
    ///
    /// `power` must hold `n/2 + 1` bins for even `n` or `(n+1)/2` for odd `n`
    /// (the natural one-sided lengths); `sample_rate` is in Hz.
    ///
    /// # Panics
    /// Panics if the bin count does not match `n`, if `sample_rate` is not
    /// finite and positive, or if any power is negative/NaN.
    pub fn from_psd(power: Vec<f64>, sample_rate: f64, n: usize) -> Self {
        assert!(
            sample_rate.is_finite() && sample_rate > 0.0,
            "sample_rate must be positive, got {sample_rate}"
        );
        let expected = if n.is_multiple_of(2) {
            n / 2 + 1
        } else {
            n.div_ceil(2)
        };
        assert_eq!(
            power.len(),
            expected,
            "one-sided PSD of an n={n} signal must have {expected} bins"
        );
        assert!(
            power.iter().all(|p| p.is_finite() && *p >= 0.0),
            "PSD bins must be finite and non-negative"
        );
        Spectrum {
            power,
            sample_rate,
            n,
        }
    }

    /// Number of one-sided bins.
    pub fn bin_count(&self) -> usize {
        self.power.len()
    }

    /// Length of the time-domain segment this spectrum came from.
    pub fn segment_len(&self) -> usize {
        self.n
    }

    /// Sample rate (Hz) of the analyzed signal.
    pub fn sample_rate(&self) -> f64 {
        self.sample_rate
    }

    /// Frequency spacing between adjacent bins, `sample_rate / n` (Hz).
    pub fn resolution(&self) -> f64 {
        self.sample_rate / self.n as f64
    }

    /// The folding (Nyquist) frequency of the *analysis*, `sample_rate / 2`.
    pub fn folding_frequency(&self) -> f64 {
        self.sample_rate / 2.0
    }

    /// Center frequency (Hz) of bin `k`.
    pub fn frequency_of_bin(&self, k: usize) -> f64 {
        k as f64 * self.resolution()
    }

    /// The raw one-sided PSD values.
    pub fn power(&self) -> &[f64] {
        &self.power
    }

    /// Consumes the spectrum and returns its power buffer, capacity intact —
    /// steady-state pipelines hand the buffer back to the next
    /// `periodogram_into` call instead of reallocating.
    pub fn into_power(self) -> Vec<f64> {
        self.power
    }

    /// Sum of all bin powers (total energy proxy; see §3.2 step (a)).
    pub fn total_power(&self) -> f64 {
        self.power.iter().sum()
    }

    /// Smallest frequency `f` such that bins `0..=k(f)` contain at least
    /// `fraction` of the total power — §3.2 step (b).
    ///
    /// Returns [`EnergyCapture::AllBinsNeeded`] when only the *last* bin
    /// completes the capture (the paper's "probably already aliased" case),
    /// [`EnergyCapture::Captured`] otherwise. A spectrum with zero total
    /// power captures everything at DC.
    ///
    /// # Panics
    /// Panics unless `0 < fraction <= 1`.
    pub fn frequency_capturing_energy(&self, fraction: f64) -> EnergyCapture {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "fraction must be in (0, 1], got {fraction}"
        );
        let total = self.total_power();
        if total <= 0.0 {
            return EnergyCapture::Captured { frequency: 0.0 };
        }
        let target = fraction * total;
        let mut acc = 0.0;
        for (k, &p) in self.power.iter().enumerate() {
            acc += p;
            // The `1e-12` slack absorbs summation round-off so a fraction of
            // exactly 1.0 still terminates at the true last contributing bin.
            if acc + 1e-12 * total >= target {
                if k == self.power.len() - 1 && self.power.len() > 1 {
                    return EnergyCapture::AllBinsNeeded;
                }
                return EnergyCapture::Captured {
                    frequency: self.frequency_of_bin(k),
                };
            }
        }
        EnergyCapture::AllBinsNeeded
    }

    /// The `count` strongest bins as `(frequency_hz, power)`, descending by
    /// power. Useful for tone detection in the aliasing experiments.
    pub fn peak_bins(&self, count: usize) -> Vec<(f64, f64)> {
        let mut indexed: Vec<(usize, f64)> = self.power.iter().copied().enumerate().collect();
        indexed.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        indexed
            .into_iter()
            .take(count)
            .map(|(k, p)| (self.frequency_of_bin(k), p))
            .collect()
    }

    /// The `count` strongest *distinct* peaks as `(frequency_hz, power)`:
    /// greedy selection of the strongest bins with at least
    /// `min_separation_hz` between chosen peaks, so one smeared lobe cannot
    /// occupy several slots.
    pub fn peak_frequencies(&self, count: usize, min_separation_hz: f64) -> Vec<(f64, f64)> {
        let mut indexed: Vec<(usize, f64)> = self.power.iter().copied().enumerate().collect();
        indexed.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        let mut chosen: Vec<(f64, f64)> = Vec::with_capacity(count);
        for (k, p) in indexed {
            let f = self.frequency_of_bin(k);
            if chosen
                .iter()
                .all(|&(cf, _)| (cf - f).abs() >= min_separation_hz)
            {
                chosen.push((f, p));
                if chosen.len() == count {
                    break;
                }
            }
        }
        chosen
    }

    /// Band powers of `bands` adjacent bands of `band_width` Hz from DC, into
    /// `out` (cleared first): band `k` sums the bins whose frequency `f`
    /// satisfies `k·bw ≤ f ≤ (k+1)·bw·(1 − 1e−12)`, so a bin on an inner edge
    /// counts toward the upper band only. Bins beyond the last band, or past
    /// the folding frequency, count toward none.
    ///
    /// One forward sweep over the bins: bin frequencies are ascending, so each
    /// band is a contiguous slice, summed in ascending order.
    pub fn band_powers_into(&self, band_width: f64, bands: usize, out: &mut Vec<f64>) {
        out.clear();
        let resolution = self.resolution();
        let freq = |i: usize| i as f64 * resolution;
        let n = self.power.len();
        let mut i = 0;
        for k in 0..bands {
            let lo = k as f64 * band_width;
            let hi = (k + 1) as f64 * band_width * (1.0 - 1e-12);
            while i < n && freq(i) < lo {
                i += 1;
            }
            let start = i;
            while i < n && freq(i) <= hi {
                i += 1;
            }
            out.push(self.power[start..i].iter().sum());
        }
    }
}

/// Result of an energy-capture query (§3.2 steps (b)/(c)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EnergyCapture {
    /// The target fraction is reached at `frequency` Hz before the last bin.
    Captured {
        /// Smallest bin frequency capturing the requested energy fraction.
        frequency: f64,
    },
    /// Every bin (including the last) was needed — the trace is likely
    /// already aliased; the paper records −1 in this case.
    AllBinsNeeded,
}

impl EnergyCapture {
    /// The captured frequency, or `None` for [`EnergyCapture::AllBinsNeeded`].
    pub fn frequency(self) -> Option<f64> {
        match self {
            EnergyCapture::Captured { frequency } => Some(frequency),
            EnergyCapture::AllBinsNeeded => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spectrum(power: Vec<f64>, fs: f64, n: usize) -> Spectrum {
        Spectrum::from_psd(power, fs, n)
    }

    #[test]
    fn bin_to_frequency_mapping() {
        let s = spectrum(vec![0.0; 5], 8.0, 8); // bins at 0,1,2,3,4 Hz
        assert_eq!(s.resolution(), 1.0);
        assert_eq!(s.frequency_of_bin(3), 3.0);
        assert_eq!(s.folding_frequency(), 4.0);
        assert_eq!(s.bin_count(), 5);
    }

    #[test]
    fn odd_length_bin_count() {
        let s = spectrum(vec![0.0; 4], 7.0, 7);
        assert_eq!(s.bin_count(), 4);
        assert!((s.frequency_of_bin(3) - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must have")]
    fn wrong_bin_count_panics() {
        spectrum(vec![0.0; 4], 8.0, 8);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_power_panics() {
        spectrum(vec![1.0, -0.5, 0.0, 0.0, 0.0], 8.0, 8);
    }

    #[test]
    fn energy_capture_simple() {
        // 90% of energy at DC, 10% at bin 2.
        let s = spectrum(vec![9.0, 0.0, 1.0, 0.0, 0.0], 10.0, 8);
        match s.frequency_capturing_energy(0.9) {
            EnergyCapture::Captured { frequency } => assert_eq!(frequency, 0.0),
            other => panic!("{other:?}"),
        }
        match s.frequency_capturing_energy(0.99) {
            EnergyCapture::Captured { frequency } => {
                assert!((frequency - 2.0 * 10.0 / 8.0).abs() < 1e-12)
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn energy_capture_all_bins_needed() {
        // Energy spread to the very last bin → aliased indicator.
        let s = spectrum(vec![1.0, 1.0, 1.0, 1.0, 1.0], 10.0, 8);
        assert_eq!(
            s.frequency_capturing_energy(0.99),
            EnergyCapture::AllBinsNeeded
        );
        assert_eq!(s.frequency_capturing_energy(0.99).frequency(), None);
    }

    #[test]
    fn energy_capture_zero_spectrum_is_dc() {
        let s = spectrum(vec![0.0; 5], 10.0, 8);
        assert_eq!(
            s.frequency_capturing_energy(0.99),
            EnergyCapture::Captured { frequency: 0.0 }
        );
    }

    #[test]
    fn energy_capture_fraction_one_on_compact_spectrum() {
        // All energy in the first two bins: fraction 1.0 must not claim
        // AllBinsNeeded.
        let s = spectrum(vec![1.0, 3.0, 0.0, 0.0, 0.0], 10.0, 8);
        match s.frequency_capturing_energy(1.0) {
            EnergyCapture::Captured { frequency } => {
                assert!((frequency - 10.0 / 8.0).abs() < 1e-12)
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn peak_bins_sorted_by_power() {
        let s = spectrum(vec![0.5, 4.0, 1.0, 3.0, 0.0], 10.0, 8);
        let peaks = s.peak_bins(2);
        assert_eq!(peaks.len(), 2);
        assert!((peaks[0].0 - 1.0 * 10.0 / 8.0).abs() < 1e-12);
        assert_eq!(peaks[0].1, 4.0);
        assert_eq!(peaks[1].1, 3.0);
    }

    #[test]
    fn peak_frequencies_respect_separation() {
        // Bins 1 and 2 are a single smeared lobe; bin 4 is a second peak.
        let s = spectrum(vec![0.0, 5.0, 4.0, 0.1, 3.0], 8.0, 8);
        let peaks = s.peak_frequencies(2, 1.5);
        assert_eq!(peaks.len(), 2);
        assert_eq!(peaks[0].0, 1.0); // strongest bin (1 Hz)
        assert_eq!(peaks[1].0, 4.0); // bin 2 skipped (too close), bin 4 chosen
    }

    #[test]
    fn band_powers_split_at_inner_edges() {
        // Bins at 0..=4 Hz; 1 Hz bands put each inner-edge bin in the band
        // above it, and the band past the folding frequency is empty.
        let s = spectrum(vec![1.0, 2.0, 4.0, 8.0, 16.0], 8.0, 8);
        let mut out = vec![99.0];
        s.band_powers_into(1.0, 6, &mut out);
        assert_eq!(out, [1.0, 2.0, 4.0, 8.0, 16.0, 0.0]);
        s.band_powers_into(2.0, 2, &mut out);
        assert_eq!(out, [1.0 + 2.0, 4.0 + 8.0]);
        s.band_powers_into(5.0, 1, &mut out);
        assert_eq!(out, [s.total_power()]);
        s.band_powers_into(1.0, 0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn zero_fraction_panics() {
        spectrum(vec![0.0; 5], 8.0, 8).frequency_capturing_energy(0.0);
    }
}
