//! Uniform quantization (§4.3 of the paper).
//!
//! Measurement readings are quantized in practice — a temperature sensor
//! rounds to the nearest integer. Quantization adds broadband noise whose
//! power grows with the quantization step; the paper's estimator copes via
//! the 99%-energy threshold, and its reconstruction can *re-apply* the same
//! quantizer to recover the stored representation exactly.

/// A uniform mid-tread quantizer: `q(x) = round((x − offset)/step)·step + offset`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantizer {
    step: f64,
    offset: f64,
}

impl Quantizer {
    /// Quantizer with the given step and zero offset.
    ///
    /// # Panics
    /// Panics if `step` is not finite and positive.
    pub fn new(step: f64) -> Self {
        Self::with_offset(step, 0.0)
    }

    /// Quantizer with the given step and reconstruction offset.
    ///
    /// # Panics
    /// Panics if `step` is not finite and positive, or `offset` is not finite.
    pub fn with_offset(step: f64, offset: f64) -> Self {
        assert!(
            step.is_finite() && step > 0.0,
            "step must be positive, got {step}"
        );
        assert!(offset.is_finite(), "offset must be finite");
        Quantizer { step, offset }
    }

    /// The quantization step.
    pub fn step(&self) -> f64 {
        self.step
    }

    /// Quantizes a single value.
    pub fn quantize(&self, x: f64) -> f64 {
        ((x - self.offset) / self.step).round() * self.step + self.offset
    }

    /// Quantizes a slice in place.
    pub fn apply(&self, xs: &mut [f64]) {
        for x in xs {
            *x = self.quantize(*x);
        }
    }

    /// Returns a quantized copy of `xs`.
    pub fn quantized(&self, xs: &[f64]) -> Vec<f64> {
        xs.iter().map(|&x| self.quantize(x)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_quantizer_rounds() {
        let q = Quantizer::new(1.0);
        assert_eq!(q.quantize(2.4), 2.0);
        assert_eq!(q.quantize(2.6), 3.0);
        assert_eq!(q.quantize(-1.4), -1.0);
    }

    #[test]
    fn quantization_is_idempotent() {
        let q = Quantizer::new(0.25);
        for &x in &[0.1, 3.333, -7.77, 1e6 + 0.07] {
            let once = q.quantize(x);
            assert_eq!(q.quantize(once), once);
        }
    }

    #[test]
    fn error_bounded_by_half_step() {
        let q = Quantizer::new(0.5);
        for k in -100..100 {
            let x = k as f64 * 0.0317;
            assert!((q.quantize(x) - x).abs() <= 0.25 + 1e-12);
        }
    }

    #[test]
    fn offset_shifts_the_grid() {
        let q = Quantizer::with_offset(1.0, 0.5);
        assert_eq!(q.quantize(0.9), 0.5);
        assert_eq!(q.quantize(1.2), 1.5);
    }

    #[test]
    fn apply_and_quantized_agree() {
        let q = Quantizer::new(2.0);
        let orig = vec![0.9, 1.1, 2.9, -3.3];
        let copy = q.quantized(&orig);
        let mut in_place = orig;
        q.apply(&mut in_place);
        assert_eq!(copy, in_place);
    }

    #[test]
    fn noise_power_model() {
        // Quantization error power of a smooth ramp is close to the uniform
        // error model's step²/12.
        let q = Quantizer::new(1.0);
        let xs: Vec<f64> = (0..10_000).map(|i| i as f64 * 0.0137).collect();
        let err_power = xs
            .iter()
            .map(|&x| {
                let e = q.quantize(x) - x;
                e * e
            })
            .sum::<f64>()
            / xs.len() as f64;
        assert!((err_power - 1.0 / 12.0).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_step_panics() {
        Quantizer::new(0.0);
    }
}
