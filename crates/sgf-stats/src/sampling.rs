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

/// `min(H, limit)` with `H ~ Hypergeometric(n, cap, k)`: how many of `k`
/// marked items a uniform random `cap`-subset of `n` items holds, capped at
/// `limit` — the plausible-seed count of a privacy test that examines `cap`
/// of `n` seeds, `k` of them plausible (`max_check_plausible`, Section 5).
///
/// The draw inverts the law with one uniform word (Kachitvichyanukul and
/// Schmeiser's inversion).  `H` lives on `lo = max(0, cap + k − n)` to
/// `hi = min(cap, k)`; when `limit ≤ lo` or `lo == hi` the outcome is
/// certain and nothing is drawn, so `k == n` returns `min(cap, limit)` with
/// no draws.  Otherwise the cells `lo..=top`, `top = min(hi, limit − 1)`,
/// are visited from an anchor `a = min(top, mode)`, whose `p(a)` comes from
/// log-factorials: first up from `a + 1` to `top` by
/// `p(h + 1)/p(h) = (cap − h)(k − h) / ((h + 1)(n − cap − k + h + 1))`,
/// then down from `a` by
/// `p(h − 1)/p(h) = h(n − cap − k + h) / ((cap − h + 1)(k − h + 1))`.  The
/// first cell whose running mass passes the uniform is the draw; the mass
/// left over, `P(H ≥ limit)`, returns `limit`.  Anchoring at or below the
/// mode keeps `p(a)` far from underflow when the limit sits deep in the
/// upper tail.  The law is log-concave, so below the mode the ratios only
/// shrink and a geometric bound on the mass still unvisited ends the walk
/// as soon as it cannot reach the uniform: with `limit` below the mode —
/// the usual privacy-test case — the draw costs O(1).  The one word drawn
/// depends on `(n, cap, k, limit)` and the stream alone.
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
    let (lo, hi) = ((cap + k).saturating_sub(n), cap.min(k));
    if limit <= lo || lo == hi {
        return lo.min(limit);
    }
    let top = hi.min(limit - 1);
    // Mass past `top` is `P(H ≥ limit)` when the limit binds; otherwise it is
    // rounding, which stays on the last cell visited.
    let tail = if limit <= hi { limit } else { lo };
    let mode = ((cap as u128 + 1) * (k as u128 + 1) / (n as u128 + 2)) as usize;
    let anchor = top.min(mode.max(lo));
    let p_anchor = ln_pmf(n, cap, k, anchor).exp();
    let u: f64 = rng.gen();
    let mut acc = 0.0;
    let (mut p, mut h) = (p_anchor, anchor);
    while h < top {
        p *= ((cap - h) as f64 * (k - h) as f64) / ((h + 1) as f64 * (n + h + 1 - cap - k) as f64);
        h += 1;
        acc += p;
        if u < acc {
            return h;
        }
    }
    let (mut p, mut h) = (p_anchor, anchor);
    loop {
        acc += p;
        if u < acc {
            return h;
        }
        if h == lo {
            return tail;
        }
        let ratio =
            (h as f64 * (n + h - cap - k) as f64) / ((cap - h + 1) as f64 * (k - h + 1) as f64);
        // At or below the mode every later ratio is at most this one, so the
        // mass still unvisited is at most `p·ratio/(1 − ratio)`.
        if ratio < 1.0 && acc + p * ratio / (1.0 - ratio) <= u {
            return tail;
        }
        p *= ratio;
        h -= 1;
    }
}

/// `ln P(H = h)` for `H ~ Hypergeometric(n, cap, k)`, `h` in its support.
fn ln_pmf(n: usize, cap: usize, k: usize, h: usize) -> f64 {
    ln_factorial(k) + ln_factorial(n - k) + ln_factorial(cap) + ln_factorial(n - cap)
        - ln_factorial(n)
        - ln_factorial(h)
        - ln_factorial(k - h)
        - ln_factorial(cap - h)
        - ln_factorial(n + h - cap - k)
}

/// `ln(m!)`: exact below 16, the Stirling series above (absolute error
/// under 10⁻¹¹).
fn ln_factorial(m: usize) -> f64 {
    if m < 16 {
        return ((1..=m as u64).product::<u64>() as f64).ln();
    }
    let x = m as f64;
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    (x + 0.5) * x.ln() - x
        + 0.5 * (2.0 * std::f64::consts::PI).ln()
        + inv * (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 / 1260.0))
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

    /// `(n, cap, k, limit)` points of the law audit: `k = 0`, `k < limit`,
    /// `k > cap` with the limit binding, `k < cap` with it never binding,
    /// `k = n`, the paper's 23,545 seeds, cap 5,000 and limit 100 with
    /// `E[H]` near the limit, and a limit so far above the mode that
    /// `p(limit − 1)` underflows.
    const LAW_POINTS: [(usize, usize, usize, usize); 8] = [
        (20, 7, 0, 5),
        (20, 7, 3, 5),
        (20, 7, 9, 5),
        (40, 12, 6, 10),
        (40, 12, 30, 8),
        (20, 7, 20, 5),
        (23_545, 5_000, 470, 100),
        (1_200, 600, 600, 600),
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
        /// The downward ratio's `k − h + 1` reads `k − h`.
        RatioOffByOne,
        /// The lumped tail `P(H ≥ limit)` returns `top` instead of `limit`.
        TailAtTop,
        /// `p(anchor)` is computed at `anchor − 1`.
        AnchorOffByOne,
    }

    /// The sampler's inversion with `mutant`'s fault, at a point where the
    /// limit binds.
    fn mutant_sample(
        mutant: Mutant,
        (n, cap, k, limit): (usize, usize, usize, usize),
        rng: &mut StdRng,
    ) -> usize {
        let (lo, hi) = ((cap + k).saturating_sub(n), cap.min(k));
        assert!(
            lo < limit && limit <= hi,
            "the mutants need a binding limit"
        );
        let top = limit - 1;
        let tail = if mutant == Mutant::TailAtTop {
            top
        } else {
            limit
        };
        let anchor = top.min(((cap + 1) * (k + 1) / (n + 2)).max(lo));
        let at = anchor - usize::from(mutant == Mutant::AnchorOffByOne);
        let p_anchor = ln_pmf(n, cap, k, at).exp();
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        let (mut p, mut h) = (p_anchor, anchor);
        while h < top {
            p *= ((cap - h) * (k - h)) as f64 / ((h + 1) * (n + h + 1 - cap - k)) as f64;
            h += 1;
            acc += p;
            if u < acc {
                return h;
            }
        }
        let (mut p, mut h) = (p_anchor, anchor);
        loop {
            acc += p;
            if u < acc {
                return h;
            }
            if h == lo {
                return tail;
            }
            let k_term = k - h + usize::from(mutant != Mutant::RatioOffByOne);
            p *= (h * (n + h - cap - k)) as f64 / ((cap - h + 1) * k_term) as f64;
            h -= 1;
        }
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
            Mutant::RatioOffByOne,
            Mutant::TailAtTop,
            Mutant::AnchorOffByOne,
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

    /// Every realized cell of the draw, as a function of its one word, is
    /// within 10⁻⁹ of the exact law.  The cells sit in word order
    /// `a + 1, …, top`, then `a, a − 1, …, lo` (`a` the anchor), then
    /// `limit` when the limit binds, so a binary search over the 2⁵³ words
    /// `gen::<f64>` distinguishes finds each cell's share.  The points are
    /// the paper's (23,471 seeds, cap 5,000, limit 100) and the served
    /// engine's (15,700 seeds, cap 2,000, limit 40), each from a plausible
    /// set of one to past the mode, and a limit so far above the mode that
    /// `p(limit − 1)` underflows.
    #[test]
    fn capped_hypergeometric_inverts_its_exact_law() {
        use rand::rngs::mock::StepRng;
        const WORDS: u64 = 1 << 53;
        let paper = [1usize, 60, 501, 11_998].map(|k| (23_471usize, 5_000usize, k, 100usize));
        let served = [1usize, 30, 314, 7_850].map(|k| (15_700usize, 2_000usize, k, 40usize));
        let deep_tail = (1_200, 600, 600, 600);
        for (n, cap, k, limit) in paper.into_iter().chain(served).chain([deep_tail]) {
            let (lo, hi) = ((cap + k).saturating_sub(n), cap.min(k));
            let top = hi.min(limit - 1);
            let anchor = top.min(((cap + 1) * (k + 1) / (n + 2)).max(lo));
            let mut sequence: Vec<usize> = (anchor + 1..=top).chain((lo..=anchor).rev()).collect();
            if limit <= hi {
                sequence.push(limit);
            }
            let cells = sequence.len();
            let order = |m: u64| {
                let value =
                    sample_capped_hypergeometric(n, cap, k, limit, &mut StepRng::new(m << 11, 0));
                sequence
                    .iter()
                    .position(|&cell| cell == value)
                    .expect("the draw lies in the support")
            };
            // `starts[j]` is the first word whose cell is at or past `j`.
            let mut starts = vec![0u64; cells + 1];
            starts[cells] = WORDS;
            for j in 1..cells {
                let (mut below, mut above) = (starts[j - 1], WORDS);
                while below < above {
                    let mid = below + (above - below) / 2;
                    if order(mid) >= j {
                        above = mid;
                    } else {
                        below = mid + 1;
                    }
                }
                starts[j] = below;
            }
            let pmf = capped_pmf(n, cap, k, limit);
            for (j, &value) in sequence.iter().enumerate() {
                let realized = (starts[j + 1] - starts[j]) as f64 / WORDS as f64;
                assert!(
                    (realized - pmf[value]).abs() < 1e-9,
                    "({n}, {cap}, {k}, {limit}): cell {value} realized {realized}, law {}",
                    pmf[value]
                );
            }
            // One word per draw, whatever the outcome.
            let mut rng = StdRng::seed_from_u64(k as u64);
            let mut after_one = rng.clone();
            after_one.next_u64();
            sample_capped_hypergeometric(n, cap, k, limit, &mut rng);
            assert_eq!(rng.next_u64(), after_one.next_u64(), "({n}, {cap}, {k})");
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
