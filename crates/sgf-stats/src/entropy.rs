//! Entropy from counts and the symmetrical uncertainty coefficient.
//!
//! Structure learning (Section 3.3) scores candidate parent sets with the
//! Correlation-based Feature Selection merit, whose correlation measure is the
//! *symmetrical uncertainty coefficient* (Eq. 5):
//!
//! ```text
//! corr(x_i, x_j) = 2 - 2 * H(x_i, x_j) / (H(x_i) + H(x_j))
//! ```
//!
//! The entropies are read off summable count vectors
//! ([`entropy_from_counts`]).  The DP variant adds Laplace noise to each
//! entropy term; the noise scale is the entropy sensitivity bound of
//! Lemma 1 (Appendix B), reproduced here as [`entropy_sensitivity`].

/// Shannon entropy (base 2) of the empirical distribution of a borrowed
/// count vector — the allocation-free path used by delta-maintained
/// sufficient statistics.
///
/// Each bin is normalized in order, zero-probability bins are skipped
/// (the convention `0 log 0 = 0`), and `-p log2 p` is summed; an all-zero
/// vector yields the uniform convention of
/// [`Histogram::probabilities`](crate::Histogram::probabilities).
pub fn entropy_from_counts(counts: &[u64]) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        let p = 1.0 / counts.len().max(1) as f64;
        return counts.iter().map(|_| -p * p.log2()).sum();
    }
    // Zero-count bins are filtered out of the sum either way (`0 / total`
    // is exactly `0.0`), so skipping them before the division changes no
    // bits of the result — it only spares sparse tables the per-cell work.
    counts
        .iter()
        .filter(|&&c| c != 0)
        .map(|&c| c as f64 / total as f64)
        .filter(|&p| p > 0.0)
        .map(|p| -p * p.log2())
        .sum()
}

/// The symmetrical uncertainty coefficient computed from (possibly noisy)
/// entropy values, clamped into `[0, 1]` as required by Section 3.3.1
/// ("we also need to make sure that the correlation metric remains in the
/// \[0,1\] range, after using noisy entropy values").  Lies in `[0, 1]`:
/// 0 for independent variables, 1 when either determines the other.
pub fn symmetrical_uncertainty_from_entropies(h_x: f64, h_y: f64, h_xy: f64) -> f64 {
    let denom = h_x + h_y;
    if denom <= f64::EPSILON {
        // Both variables are (nearly) constant: define the correlation as 0.
        return 0.0;
    }
    let corr = 2.0 - 2.0 * h_xy / denom;
    corr.clamp(0.0, 1.0)
}

/// Upper bound on the L1 sensitivity of the entropy of a histogram estimated
/// from `n` records (Lemma 1, Appendix B):
///
/// ```text
/// ΔH <= (2 + 1/ln 2 + 2 log2 n) / n
/// ```
///
/// Returns infinity for `n == 0` (an empty dataset gives no meaningful bound).
pub fn entropy_sensitivity(n: u64) -> f64 {
    if n == 0 {
        return f64::INFINITY;
    }
    let n = n as f64;
    (2.0 + 1.0 / std::f64::consts::LN_2 + 2.0 * n.log2()) / n
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `H(X)`, `H(Y)` and `H(X, Y)` of `pairs` over a `rows x cols` domain.
    fn entropies(pairs: &[(usize, usize)], rows: usize, cols: usize) -> (f64, f64, f64) {
        let (mut x, mut y, mut xy) = (vec![0; rows], vec![0; cols], vec![0; rows * cols]);
        for &(a, b) in pairs {
            x[a] += 1;
            y[b] += 1;
            xy[a * cols + b] += 1;
        }
        (
            entropy_from_counts(&x),
            entropy_from_counts(&y),
            entropy_from_counts(&xy),
        )
    }

    #[test]
    fn uniform_entropy_is_log_of_bins() {
        assert!((entropy_from_counts(&[1, 1, 1, 1]) - 2.0).abs() < 1e-12);
        assert!((entropy_from_counts(&[1; 8]) - 3.0).abs() < 1e-12);
        // Empty bins contribute nothing.
        assert!((entropy_from_counts(&[1, 1, 0, 0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_entropy_is_zero() {
        assert_eq!(entropy_from_counts(&[0, 0, 10, 0, 0]), 0.0);
    }

    #[test]
    fn entropy_of_biased_coin() {
        // H(0.75, 0.25) = 0.811278...
        assert!((entropy_from_counts(&[3, 1]) - 0.8112781244591328).abs() < 1e-12);
    }

    #[test]
    fn mutual_information_zero_for_independent() {
        // X uniform over {0,1}, Y uniform over {0,1}, independent.
        let pairs: Vec<_> = (0..2).flat_map(|a| (0..2).map(move |b| (a, b))).collect();
        let (hx, hy, hxy) = entropies(&pairs, 2, 2);
        assert!((hx + hy - hxy).abs() < 1e-12);
        assert!(symmetrical_uncertainty_from_entropies(hx, hy, hxy).abs() < 1e-12);
    }

    #[test]
    fn mutual_information_maximal_for_identical() {
        let pairs: Vec<_> = (0..4).map(|a| (a, a)).collect();
        let (hx, hy, hxy) = entropies(&pairs, 4, 4);
        assert!((hx + hy - hxy - 2.0).abs() < 1e-12);
        assert!((symmetrical_uncertainty_from_entropies(hx, hy, hxy) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn symmetrical_uncertainty_clamps_noisy_inputs() {
        assert_eq!(symmetrical_uncertainty_from_entropies(1.0, 1.0, 3.0), 0.0);
        assert_eq!(symmetrical_uncertainty_from_entropies(1.0, 1.0, -0.5), 1.0);
        assert_eq!(symmetrical_uncertainty_from_entropies(0.0, 0.0, 0.0), 0.0);
    }

    #[test]
    fn conditional_entropy_identity() {
        // H(Y | X) = H(X, Y) - H(X) vanishes when X determines Y.
        let pairs: Vec<_> = (0..4).map(|a| (a, a)).collect();
        let (hx, _, hxy) = entropies(&pairs, 4, 4);
        assert!((hxy - hx).abs() < 1e-12);
    }

    #[test]
    fn sensitivity_matches_lemma_formula() {
        let n = 1000u64;
        let expected = (2.0 + 1.0 / std::f64::consts::LN_2 + 2.0 * (1000f64).log2()) / 1000.0;
        assert!((entropy_sensitivity(n) - expected).abs() < 1e-15);
        assert!(entropy_sensitivity(0).is_infinite());
        // Sensitivity decreases with n.
        assert!(entropy_sensitivity(100) > entropy_sensitivity(10_000));
    }
}
