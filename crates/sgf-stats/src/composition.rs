//! Differential-privacy bookkeeping: (ε, δ) parameters and the composition
//! theorems used by the privacy analysis of Section 3.5 (Appendix A).

use serde::{Deserialize, Serialize};

/// An (ε, δ) differential-privacy guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DpBudget {
    /// Multiplicative privacy-loss bound ε.
    pub epsilon: f64,
    /// Additive failure probability δ.
    pub delta: f64,
}

impl DpBudget {
    /// A pure ε-DP guarantee (δ = 0).
    pub fn pure(epsilon: f64) -> Self {
        DpBudget {
            epsilon,
            delta: 0.0,
        }
    }

    /// Construct an (ε, δ) guarantee.
    pub fn new(epsilon: f64, delta: f64) -> Self {
        DpBudget { epsilon, delta }
    }

    /// Whether both parameters are finite, non-negative, and δ ≤ 1.
    pub fn is_valid(&self) -> bool {
        self.epsilon.is_finite()
            && self.epsilon >= 0.0
            && self.delta.is_finite()
            && (0.0..=1.0).contains(&self.delta)
    }

    /// Pointwise maximum of two budgets — the guarantee when two mechanisms
    /// run on *disjoint* datasets (used to combine structure and parameter
    /// learning over the non-overlapping D_T and D_P, Section 3.5).
    pub fn max(self, other: DpBudget) -> DpBudget {
        DpBudget {
            epsilon: self.epsilon.max(other.epsilon),
            delta: self.delta.max(other.delta),
        }
    }
}

/// Sequential composition (Theorem 2 / Theorem 3.16 of Dwork-Roth): running
/// mechanisms with budgets `parts` on the same dataset costs the sum of the
/// εs and the sum of the δs.
pub fn sequential_composition(parts: &[DpBudget]) -> DpBudget {
    DpBudget {
        epsilon: parts.iter().map(|b| b.epsilon).sum(),
        delta: parts.iter().map(|b| b.delta).sum(),
    }
}

/// Advanced ("strong") composition (Theorem 3 / Theorem 3.20 of Dwork-Roth):
/// `k` adaptive invocations of an (ε, δ)-DP mechanism are
/// (ε', kδ + δ_slack)-DP with
/// `ε' = ε sqrt(2 k ln(1/δ_slack)) + k ε (e^ε − 1)`.
pub fn advanced_composition(epsilon: f64, delta: f64, k: u64, delta_slack: f64) -> DpBudget {
    assert!(
        delta_slack > 0.0 && delta_slack < 1.0,
        "delta_slack must lie in (0, 1)"
    );
    assert!(
        epsilon >= 0.0 && delta >= 0.0,
        "per-invocation parameters must be non-negative"
    );
    let k_f = k as f64;
    let epsilon_total = epsilon * (2.0 * k_f * (1.0 / delta_slack).ln()).sqrt()
        + k_f * epsilon * (epsilon.exp() - 1.0);
    DpBudget {
        epsilon: epsilon_total,
        delta: k_f * delta + delta_slack,
    }
}

/// Privacy amplification by sub-sampling (Theorem 4, Li et al.): running an
/// (ε, δ)-DP mechanism on a dataset where each record was kept independently
/// with probability `p` yields (ln(1 + p(e^ε − 1)), pδ)-DP.
pub fn sampling_amplification(budget: DpBudget, sampling_rate: f64) -> DpBudget {
    assert!(
        (0.0..=1.0).contains(&sampling_rate),
        "sampling rate must lie in [0, 1], got {sampling_rate}"
    );
    DpBudget {
        epsilon: (1.0 + sampling_rate * (budget.epsilon.exp() - 1.0)).ln(),
        delta: sampling_rate * budget.delta,
    }
}

/// Privacy cost of the *structure learning* step (Section 3.5): `m(m+1)`
/// noisy entropies at ε_H each composed with the advanced theorem, plus the
/// εn_T-DP noisy record count composed sequentially.
pub fn structure_learning_budget(
    m: usize,
    epsilon_h: f64,
    epsilon_nt: f64,
    delta_slack: f64,
) -> DpBudget {
    let k = (m * (m + 1)) as u64;
    let entropies = advanced_composition(epsilon_h, 0.0, k, delta_slack);
    sequential_composition(&[entropies, DpBudget::pure(epsilon_nt)])
}

/// Privacy cost of the *parameter learning* step (Section 3.5): per-attribute
/// noisy count vectors at ε_p each (L1 sensitivity 1 across all configurations
/// of one attribute), composed over the `m` attributes with the advanced theorem.
pub fn parameter_learning_budget(m: usize, epsilon_p: f64, delta_slack: f64) -> DpBudget {
    advanced_composition(epsilon_p, 0.0, m as u64, delta_slack)
}

/// Search for the largest per-entropy ε_H such that the *total* structure
/// learning budget stays below `target`.  Used by callers that start from a
/// desired end-to-end ε (e.g. "make the model ε = 1 DP") and need to split it
/// across the m(m+1) noisy entropy queries.
pub fn calibrate_epsilon_h(m: usize, epsilon_nt: f64, delta_slack: f64, target: f64) -> f64 {
    assert!(
        target > epsilon_nt,
        "target budget must exceed the record-count epsilon"
    );
    let mut lo = 0.0f64;
    let mut hi = target;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if mid <= 0.0 {
            break;
        }
        let total = structure_learning_budget(m, mid, epsilon_nt, delta_slack).epsilon;
        if total > target {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    lo
}

/// Search for the largest per-attribute ε_p such that the parameter-learning
/// budget stays below `target`.
pub fn calibrate_epsilon_p(m: usize, delta_slack: f64, target: f64) -> f64 {
    let mut lo = 0.0f64;
    let mut hi = target.max(1e-6);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if mid <= 0.0 {
            break;
        }
        let total = parameter_learning_budget(m, mid, delta_slack).epsilon;
        if total > target {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_composition_sums() {
        let total = sequential_composition(&[DpBudget::new(0.5, 1e-9), DpBudget::new(0.3, 1e-9)]);
        assert!((total.epsilon - 0.8).abs() < 1e-12);
        assert!((total.delta - 2e-9).abs() < 1e-18);
    }

    #[test]
    fn advanced_composition_beats_sequential_for_many_queries() {
        let eps = 0.01;
        let k = 10_000u64;
        let adv = advanced_composition(eps, 0.0, k, 1e-9);
        let seq = eps * k as f64;
        assert!(
            adv.epsilon < seq,
            "advanced {} vs sequential {}",
            adv.epsilon,
            seq
        );
        assert!(adv.delta > 0.0);
    }

    #[test]
    fn advanced_composition_single_query_close_to_base() {
        let adv = advanced_composition(0.1, 0.0, 1, 1e-9);
        // One query still pays the sqrt term, but must be within a small factor.
        assert!(adv.epsilon < 1.0);
        assert!(adv.epsilon >= 0.1 * (2.0f64 * (1e9f64).ln()).sqrt() * 0.99);
    }

    #[test]
    fn sampling_amplification_reduces_epsilon() {
        let base = DpBudget::new(1.0, 1e-6);
        let amp = sampling_amplification(base, 0.1);
        assert!(amp.epsilon < base.epsilon);
        assert!((amp.delta - 1e-7).abs() < 1e-15);
        // p = 1 leaves the budget unchanged.
        let unchanged = sampling_amplification(base, 1.0);
        assert!((unchanged.epsilon - base.epsilon).abs() < 1e-12);
    }

    #[test]
    fn disjoint_composition_takes_max() {
        let a = DpBudget::new(0.7, 1e-9);
        let b = DpBudget::new(0.4, 1e-6);
        let c = a.max(b);
        assert_eq!(c.epsilon, 0.7);
        assert_eq!(c.delta, 1e-6);
    }

    #[test]
    fn structure_budget_grows_with_attributes() {
        let small = structure_learning_budget(3, 0.01, 0.01, 1e-9);
        let large = structure_learning_budget(11, 0.01, 0.01, 1e-9);
        assert!(large.epsilon > small.epsilon);
        assert!(small.is_valid() && large.is_valid());
    }

    #[test]
    fn calibration_hits_target_from_below() {
        let m = 11;
        let target = 1.0;
        let eps_h = calibrate_epsilon_h(m, 0.01, 1e-9, target);
        assert!(eps_h > 0.0);
        let achieved = structure_learning_budget(m, eps_h, 0.01, 1e-9).epsilon;
        assert!(achieved <= target + 1e-6, "achieved {achieved}");
        assert!(
            achieved > 0.9 * target,
            "calibration too conservative: {achieved}"
        );

        let eps_p = calibrate_epsilon_p(m, 1e-9, target);
        let achieved_p = parameter_learning_budget(m, eps_p, 1e-9).epsilon;
        assert!(achieved_p <= target + 1e-6 && achieved_p > 0.9 * target);
    }

    #[test]
    fn budget_validity_checks() {
        assert!(DpBudget::new(1.0, 1e-9).is_valid());
        assert!(!DpBudget::new(-1.0, 0.0).is_valid());
        assert!(!DpBudget::new(1.0, 1.5).is_valid());
        assert!(!DpBudget::new(f64::INFINITY, 0.0).is_valid());
    }

    #[test]
    #[should_panic(expected = "sampling rate")]
    fn amplification_rejects_bad_rate() {
        sampling_amplification(DpBudget::pure(1.0), 1.5);
    }
}
