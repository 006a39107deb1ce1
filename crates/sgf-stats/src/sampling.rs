//! Gamma, Dirichlet, multinomial, categorical, and capped hypergeometric
//! sampling.
//!
//! Parameter learning (Section 3.4) places a Dirichlet prior over the
//! multinomial parameters of each conditional probability table and *samples*
//! a parameter vector from the posterior "in order to increase the variety of
//! data samples".  The Dirichlet sampler here is built on a Marsaglia–Tsang
//! Gamma sampler so the crate stays dependency-light.  The privacy test's
//! `max_check_plausible` cap (Section 5) draws its plausible-seed count from
//! the capped hypergeometric law.

use rand::Rng;

/// Sample from a Gamma distribution with the given `shape` (k > 0) and unit scale,
/// using the Marsaglia–Tsang squeeze method (with the standard boost for shape < 1).
pub fn sample_gamma<R: Rng + ?Sized>(shape: f64, rng: &mut R) -> f64 {
    assert!(
        shape.is_finite() && shape > 0.0,
        "gamma shape must be positive, got {shape}"
    );
    if shape < 1.0 {
        // Boosting: Gamma(a) = Gamma(a + 1) * U^(1/a).
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        return sample_gamma(shape + 1.0, rng) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        // Standard normal via Box-Muller.
        let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.gen::<f64>();
        let x = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

/// Sample a probability vector from a Dirichlet distribution with the given
/// concentration parameters (all must be strictly positive).
pub fn sample_dirichlet<R: Rng + ?Sized>(alphas: &[f64], rng: &mut R) -> Vec<f64> {
    assert!(
        !alphas.is_empty(),
        "Dirichlet needs at least one concentration parameter"
    );
    let gammas: Vec<f64> = alphas.iter().map(|&a| sample_gamma(a, rng)).collect();
    let total: f64 = gammas.iter().sum();
    if total <= 0.0 || !total.is_finite() {
        // Degenerate draw (can only happen with pathological concentrations);
        // fall back to the normalized concentration vector itself.
        let s: f64 = alphas.iter().sum();
        return alphas.iter().map(|&a| a / s).collect();
    }
    gammas.iter().map(|&g| g / total).collect()
}

/// Sample an index from an explicit (not necessarily normalized) non-negative
/// weight vector.  At least one weight must be strictly positive.
pub fn sample_categorical<R: Rng + ?Sized>(weights: &[f64], rng: &mut R) -> usize {
    let total: f64 = weights.iter().sum();
    assert!(
        total > 0.0 && total.is_finite(),
        "categorical weights must have a positive finite sum"
    );
    let mut u = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        u -= w;
        if u <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

/// Sample a multinomial count vector: `n` independent categorical draws.
pub fn sample_multinomial<R: Rng + ?Sized>(n: u64, probabilities: &[f64], rng: &mut R) -> Vec<u64> {
    let mut counts = vec![0u64; probabilities.len()];
    for _ in 0..n {
        counts[sample_categorical(probabilities, rng)] += 1;
    }
    counts
}

/// `min(H, limit)` with `H ~ Hypergeometric(n, cap, k)`: how many of `k`
/// marked items a uniform random `cap`-subset of `n` items holds, capped at
/// `limit` — the plausible-seed count of a privacy test that examines `cap`
/// of `n` seeds, `k` of them plausible (`max_check_plausible`, Section 5).
///
/// `H` is symmetric in `cap` and `k`, so the draw walks the smaller of the
/// two sets: with `other_left` items of the larger set among the `pop_left`
/// not yet walked (`pop_left` starts at `n`), the current item is in with
/// probability `other_left / pop_left`.  The walk stops at `limit`, and
/// stops drawing once the outcome is certain (`other_left` is 0 or
/// `pop_left`), so `k == n` returns `min(cap, limit)` with no draws.  Each
/// Bernoulli is an unbiased bounded draw (multiply-shift with rejection,
/// not a biased modulo); the words drawn depend on `(n, cap, k, limit)` and
/// the stream alone.
///
/// # Panics
/// Panics if `cap > n` or `k > n`.
pub fn sample_capped_hypergeometric<R: Rng + ?Sized>(
    n: usize,
    cap: usize,
    k: usize,
    limit: usize,
    rng: &mut R,
) -> usize {
    assert!(cap <= n && k <= n, "cannot draw {cap} and {k} of {n} items");
    let (mut walk_left, mut other_left) = (cap.min(k), cap.max(k));
    let mut pop_left = n;
    let mut count = 0;
    while count < limit && walk_left > 0 && other_left > 0 {
        if other_left == pop_left {
            return (count + walk_left).min(limit);
        }
        if below(rng, pop_left as u64) < other_left as u64 {
            count += 1;
            other_left -= 1;
        }
        walk_left -= 1;
        pop_left -= 1;
    }
    count
}

/// A uniform draw from `[0, bound)`, `bound > 0`, by Lemire's multiply-shift
/// with rejection: unbiased for every bound, unlike a modulo reduction.
fn below<R: Rng + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    let mut wide = u128::from(rng.next_u64()) * u128::from(bound);
    if (wide as u64) < bound {
        let threshold = bound.wrapping_neg() % bound;
        while (wide as u64) < threshold {
            wide = u128::from(rng.next_u64()) * u128::from(bound);
        }
    }
    (wide >> 64) as u64
}

/// Posterior mean of a Dirichlet-multinomial model (Eq. 13):
/// `p[l] = (alpha[l] + n[l]) / (sum alpha + sum n)`.
pub fn dirichlet_posterior_mean(alphas: &[f64], counts: &[f64]) -> Vec<f64> {
    assert_eq!(
        alphas.len(),
        counts.len(),
        "alpha and count vectors must have equal length"
    );
    let total: f64 = alphas.iter().sum::<f64>() + counts.iter().sum::<f64>();
    if total <= 0.0 {
        let n = alphas.len().max(1);
        return vec![1.0 / n as f64; alphas.len()];
    }
    alphas
        .iter()
        .zip(counts.iter())
        .map(|(&a, &c)| (a + c) / total)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn gamma_mean_matches_shape() {
        let mut rng = StdRng::seed_from_u64(21);
        for &shape in &[0.5, 1.0, 3.0, 9.5] {
            let n = 20_000;
            let mean: f64 = (0..n).map(|_| sample_gamma(shape, &mut rng)).sum::<f64>() / n as f64;
            assert!(
                (mean - shape).abs() < 0.12 * shape.max(1.0),
                "shape {shape}: empirical mean {mean}"
            );
        }
    }

    #[test]
    fn gamma_samples_are_positive() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..500 {
            assert!(sample_gamma(0.3, &mut rng) > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "gamma shape must be positive")]
    fn gamma_rejects_nonpositive_shape() {
        let mut rng = StdRng::seed_from_u64(2);
        sample_gamma(0.0, &mut rng);
    }

    #[test]
    fn dirichlet_samples_are_simplex_points() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..100 {
            let p = sample_dirichlet(&[1.0, 2.0, 0.5, 4.0], &mut rng);
            assert_eq!(p.len(), 4);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn dirichlet_mean_tracks_concentration() {
        let mut rng = StdRng::seed_from_u64(6);
        let alphas = [8.0, 1.0, 1.0];
        let n = 5_000;
        let mut mean = vec![0.0; 3];
        for _ in 0..n {
            let p = sample_dirichlet(&alphas, &mut rng);
            for (m, &x) in mean.iter_mut().zip(p.iter()) {
                *m += x / n as f64;
            }
        }
        assert!((mean[0] - 0.8).abs() < 0.02, "mean {mean:?}");
        assert!((mean[1] - 0.1).abs() < 0.02);
    }

    #[test]
    fn categorical_respects_weights() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[sample_categorical(&[1.0, 0.0, 3.0], &mut rng)] += 1;
        }
        assert_eq!(counts[1], 0);
        let frac0 = counts[0] as f64 / 30_000.0;
        assert!((frac0 - 0.25).abs() < 0.02);
    }

    #[test]
    #[should_panic(expected = "positive finite sum")]
    fn categorical_rejects_all_zero_weights() {
        let mut rng = StdRng::seed_from_u64(8);
        sample_categorical(&[0.0, 0.0], &mut rng);
    }

    #[test]
    fn multinomial_counts_sum_to_n() {
        let mut rng = StdRng::seed_from_u64(9);
        let counts = sample_multinomial(1000, &[0.2, 0.3, 0.5], &mut rng);
        assert_eq!(counts.iter().sum::<u64>(), 1000);
        assert!(counts[2] > counts[0]);
    }

    /// `(n, cap, k, limit)` points of the law audit: `k = 0`, `k < limit`,
    /// `k > cap` with the limit binding, `k < cap` with it never binding,
    /// `k = n`, and the paper's 23,545 seeds, cap 5,000 and limit 100 with
    /// `E[H]` near the limit.
    const LAW_POINTS: [(usize, usize, usize, usize); 7] = [
        (20, 7, 0, 5),
        (20, 7, 3, 5),
        (20, 7, 9, 5),
        (40, 12, 6, 10),
        (40, 12, 30, 8),
        (20, 7, 20, 5),
        (23_545, 5_000, 470, 100),
    ];

    /// The exact pmf of `min(H, limit)`, `H ~ Hypergeometric(n, cap, k)`,
    /// over `0..=min(cap, k, limit)`.
    fn capped_pmf(n: usize, cap: usize, k: usize, limit: usize) -> Vec<f64> {
        let mut ln_factorial = vec![0.0f64; n + 1];
        for i in 1..=n {
            ln_factorial[i] = ln_factorial[i - 1] + (i as f64).ln();
        }
        let ln_choose =
            |a: usize, b: usize| ln_factorial[a] - ln_factorial[b] - ln_factorial[a - b];
        let top = cap.min(k);
        let mut pmf = vec![0.0; top.min(limit) + 1];
        for h in (cap + k).saturating_sub(n)..=top {
            pmf[h.min(limit)] +=
                (ln_choose(k, h) + ln_choose(n - k, cap - h) - ln_choose(n, cap)).exp();
        }
        pmf
    }

    /// Whether 10⁵ fixed-seed draws of `sample` fit the exact law of
    /// `min(H, limit)` by a chi-square test at p < 10⁻⁶.  A value outside
    /// the law's support fails outright; cells are pooled left to right
    /// until each expects at least 5 draws; the critical value is the
    /// Wilson–Hilferty approximation of the chi-square quantile.
    fn fits_capped_law(
        (n, cap, k, limit): (usize, usize, usize, usize),
        mut sample: impl FnMut(&mut StdRng) -> usize,
    ) -> bool {
        const DRAWS: usize = 100_000;
        let pmf = capped_pmf(n, cap, k, limit);
        let mut observed = vec![0usize; pmf.len()];
        let mut rng = StdRng::seed_from_u64(0x4859_5045 ^ (n * 31 + k) as u64);
        for _ in 0..DRAWS {
            match observed.get_mut(sample(&mut rng)) {
                Some(cell) => *cell += 1,
                None => return false,
            }
        }
        let mut cells: Vec<(f64, f64)> = Vec::new();
        let (mut seen, mut expected) = (0.0, 0.0);
        for (&o, &p) in observed.iter().zip(&pmf) {
            if o > 0 && p == 0.0 {
                return false;
            }
            seen += o as f64;
            expected += p * DRAWS as f64;
            if expected >= 5.0 {
                cells.push((seen, expected));
                (seen, expected) = (0.0, 0.0);
            }
        }
        if let Some(last) = cells.last_mut() {
            last.0 += seen;
            last.1 += expected;
        }
        if cells.len() < 2 {
            return true;
        }
        let statistic: f64 = cells.iter().map(|(o, e)| (o - e).powi(2) / e).sum();
        let df = (cells.len() - 1) as f64;
        let z = 4.753_424; // upper 10⁻⁶ quantile of N(0, 1)
        let h = 2.0 / (9.0 * df);
        statistic < df * (1.0 - h + z * h.sqrt()).powi(3)
    }

    /// One deliberate fault in a test-local copy of the sampler.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Mutant {
        /// `pop_left` starts at `n + 1`.
        PopOffByOne,
        /// The Bernoulli compares with `≤` instead of `<`.
        LessOrEqual,
        /// The walk does not stop at `limit`.
        NoLimitStop,
    }

    /// The sampler's walk with `mutant`'s fault.
    fn mutant_sample(
        mutant: Mutant,
        (n, cap, k, limit): (usize, usize, usize, usize),
        rng: &mut StdRng,
    ) -> usize {
        let limit = if mutant == Mutant::NoLimitStop {
            usize::MAX
        } else {
            limit
        };
        let (mut walk_left, mut other_left) = (cap.min(k), cap.max(k));
        let mut pop_left = n + usize::from(mutant == Mutant::PopOffByOne);
        let mut count = 0;
        while count < limit && walk_left > 0 && other_left > 0 {
            if other_left == pop_left {
                return (count + walk_left).min(limit);
            }
            let word = below(rng, pop_left as u64);
            let hit = if mutant == Mutant::LessOrEqual {
                word <= other_left as u64
            } else {
                word < other_left as u64
            };
            if hit {
                count += 1;
                other_left -= 1;
            }
            walk_left -= 1;
            pop_left -= 1;
        }
        count
    }

    #[test]
    fn capped_hypergeometric_fits_its_law_and_mutants_do_not() {
        for point in LAW_POINTS {
            let (n, cap, k, limit) = point;
            assert!(
                fits_capped_law(point, |rng| sample_capped_hypergeometric(
                    n, cap, k, limit, rng
                )),
                "sampler misses the law at {point:?}"
            );
        }
        // Every mutant misses the law at the small point with the limit
        // binding and k > cap.
        let point = LAW_POINTS[2];
        for mutant in [
            Mutant::PopOffByOne,
            Mutant::LessOrEqual,
            Mutant::NoLimitStop,
        ] {
            assert!(
                !fits_capped_law(point, |rng| mutant_sample(mutant, point, rng)),
                "the law audit misses {mutant:?} at {point:?}"
            );
        }
    }

    #[test]
    fn capped_hypergeometric_draws_nothing_when_the_outcome_is_certain() {
        for (n, cap, k, limit, expected) in [
            (20, 7, 20, 5, 5),
            (20, 7, 20, 9, 7),
            (20, 20, 9, 50, 9),
            (20, 7, 0, 5, 0),
            (20, 0, 9, 5, 0),
            (20, 7, 9, 0, 0),
            (0, 0, 0, 3, 0),
        ] {
            let mut rng = StdRng::seed_from_u64(12);
            let mut untouched = rng.clone();
            assert_eq!(
                sample_capped_hypergeometric(n, cap, k, limit, &mut rng),
                expected
            );
            assert_eq!(rng.next_u64(), untouched.next_u64(), "({n}, {cap}, {k})");
        }
    }

    #[test]
    fn posterior_mean_matches_formula() {
        let p = dirichlet_posterior_mean(&[1.0, 1.0], &[3.0, 1.0]);
        assert!((p[0] - 4.0 / 6.0).abs() < 1e-12);
        assert!((p[1] - 2.0 / 6.0).abs() < 1e-12);
        let empty = dirichlet_posterior_mean(&[0.0, 0.0], &[0.0, 0.0]);
        assert!((empty[0] - 0.5).abs() < 1e-12);
    }
}
