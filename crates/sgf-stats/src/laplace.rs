//! Laplace distribution sampling and the Laplace mechanism.
//!
//! The paper adds Laplace noise in three places: the randomized privacy test
//! threshold (Privacy Test 2), the entropy values used by structure learning
//! (Eq. 8), and the CPT counts used by parameter learning (Eq. 14).  All of
//! them go through this module so that the noise scale / sensitivity pairing
//! is explicit and testable.

use rand::Rng;

/// A Laplace distribution with mean 0 and shape (scale) parameter `b > 0`,
/// i.e. density `f(z) = exp(-|z|/b) / (2b)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Laplace {
    scale: f64,
}

impl Laplace {
    /// Create a Laplace distribution with the given scale `b`.
    ///
    /// # Panics
    /// Panics if `scale` is not strictly positive and finite — the privacy
    /// parameters feeding it are validated upstream, so a bad scale here is an
    /// internal invariant violation.
    pub fn new(scale: f64) -> Self {
        assert!(
            scale.is_finite() && scale > 0.0,
            "Laplace scale must be positive and finite, got {scale}"
        );
        Laplace { scale }
    }

    /// Laplace noise calibrated for `sensitivity / epsilon` (the Laplace
    /// mechanism of Dwork et al., Theorem 3.6 of the DP monograph).
    pub fn for_mechanism(sensitivity: f64, epsilon: f64) -> Self {
        assert!(
            epsilon.is_finite() && epsilon > 0.0,
            "epsilon must be positive and finite, got {epsilon}"
        );
        assert!(
            sensitivity.is_finite() && sensitivity > 0.0,
            "sensitivity must be positive and finite, got {sensitivity}"
        );
        Laplace::new(sensitivity / epsilon)
    }

    /// The scale parameter `b`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Draw one sample via inverse-CDF sampling.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // u uniform in (-1/2, 1/2); inverse CDF: -b * sgn(u) * ln(1 - 2|u|).
        let u: f64 = rng.gen::<f64>() - 0.5;
        -self.scale * u.signum() * (1.0 - 2.0 * u.abs()).max(f64::MIN_POSITIVE).ln()
    }

    /// Cumulative distribution function `P(Z <= z)`.
    pub fn cdf(&self, z: f64) -> f64 {
        if z < 0.0 {
            0.5 * (z / self.scale).exp()
        } else {
            1.0 - 0.5 * (-z / self.scale).exp()
        }
    }

    /// Survival function `P(Z >= z)`.
    pub fn survival(&self, z: f64) -> f64 {
        1.0 - self.cdf(z)
    }
}

/// Apply the Laplace mechanism: return `value + Lap(sensitivity / epsilon)`.
pub fn laplace_mechanism<R: Rng + ?Sized>(
    value: f64,
    sensitivity: f64,
    epsilon: f64,
    rng: &mut R,
) -> f64 {
    value + Laplace::for_mechanism(sensitivity, epsilon).sample(rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sample_mean_and_spread_match_scale() {
        let mut rng = StdRng::seed_from_u64(17);
        let lap = Laplace::new(2.0);
        let n = 40_000;
        let samples: Vec<f64> = (0..n).map(|_| lap.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let mean_abs = samples.iter().map(|x| x.abs()).sum::<f64>() / n as f64;
        // E[Z] = 0, E[|Z|] = b.
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((mean_abs - 2.0).abs() < 0.08, "mean abs {mean_abs}");
    }

    #[test]
    fn cdf_is_monotone_and_symmetric() {
        let lap = Laplace::new(1.5);
        assert!((lap.cdf(0.0) - 0.5).abs() < 1e-12);
        assert!(lap.cdf(-3.0) < lap.cdf(-1.0));
        assert!(lap.cdf(1.0) < lap.cdf(3.0));
        assert!((lap.cdf(2.0) + lap.cdf(-2.0) - 1.0).abs() < 1e-12);
        assert!((lap.survival(2.0) - lap.cdf(-2.0)).abs() < 1e-12);
    }

    #[test]
    fn empirical_cdf_matches_analytic() {
        let mut rng = StdRng::seed_from_u64(5);
        let lap = Laplace::new(1.0);
        let n = 50_000;
        let below: usize = (0..n).filter(|_| lap.sample(&mut rng) <= 1.0).count();
        let empirical = below as f64 / n as f64;
        assert!((empirical - lap.cdf(1.0)).abs() < 0.01);
    }

    #[test]
    fn mechanism_scale_is_sensitivity_over_epsilon() {
        let lap = Laplace::for_mechanism(0.5, 0.1);
        assert!((lap.scale() - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "Laplace scale must be positive")]
    fn zero_scale_panics() {
        Laplace::new(0.0);
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive")]
    fn zero_epsilon_panics() {
        Laplace::for_mechanism(1.0, 0.0);
    }
}
