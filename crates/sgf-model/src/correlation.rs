//! Pairwise attribute correlations (Section 3.3 / 3.3.1).
//!
//! Structure learning scores parent sets with the symmetrical uncertainty
//! coefficient between (discretized) attributes.  This module holds the full
//! correlation matrix and its differential-privacy parameters; the matrix is
//! computed by [`StructureCounts::matrix`], either exactly or with
//! differentially-private noisy entropies (Eq. 8–10): every entropy query
//! receives fresh Laplace noise scaled by the sensitivity bound of Lemma 1,
//! and the record count used by that bound is itself randomized (Eq. 10).
//!
//! [`StructureCounts::matrix`]: crate::counts::StructureCounts::matrix

use crate::error::{ModelError, Result};
use serde::{Deserialize, Serialize};

/// Differential-privacy parameters for the correlation computation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CorrelationDpConfig {
    /// Privacy parameter ε_H spent on *each* noisy entropy query (Eq. 8).
    pub epsilon_h: f64,
    /// Privacy parameter ε_{n_T} spent on the noisy record count (Eq. 10).
    pub epsilon_nt: f64,
}

impl CorrelationDpConfig {
    /// Validate the parameters.
    pub fn validate(&self) -> Result<()> {
        if !(self.epsilon_h.is_finite() && self.epsilon_h > 0.0) {
            return Err(ModelError::InvalidParameter(format!(
                "epsilon_h must be positive, got {}",
                self.epsilon_h
            )));
        }
        if !(self.epsilon_nt.is_finite() && self.epsilon_nt > 0.0) {
            return Err(ModelError::InvalidParameter(format!(
                "epsilon_nt must be positive, got {}",
                self.epsilon_nt
            )));
        }
        Ok(())
    }
}

/// Symmetric matrix of pairwise correlations between bucketized attributes,
/// each value clamped to `[0, 1]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorrelationMatrix {
    m: usize,
    values: Vec<f64>,
    /// Number of noisy entropy queries issued (0 for the exact computation).
    entropy_queries: usize,
}

impl CorrelationMatrix {
    fn index(&self, i: usize, j: usize) -> usize {
        i * self.m + j
    }

    /// Correlation between attributes `i` and `j` (1.0 on the diagonal).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.values[self.index(i, j)]
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.m
    }

    /// Whether the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.m == 0
    }

    /// Number of noisy entropy queries that were issued to build this matrix
    /// (0 when the exact entropies were used).  The structure-learning budget
    /// composes over exactly this count.
    pub fn entropy_query_count(&self) -> usize {
        self.entropy_queries
    }

    /// Number of entropy queries needed for `m` attributes: `m` single-attribute
    /// entropies plus `m(m-1)/2` pairwise joint entropies.
    pub fn queries_for(m: usize) -> usize {
        m + m * m.saturating_sub(1) / 2
    }

    /// Largest absolute entry-wise difference to `other` — the *drift
    /// statistic* of the incremental-update path: a freshly recomputed matrix
    /// is compared against the one the current structure was learned from,
    /// and full structure re-learning triggers only when the drift is
    /// positive.  Matrices of different sizes drift infinitely.
    pub fn max_abs_diff(&self, other: &CorrelationMatrix) -> f64 {
        if self.m != other.m {
            return f64::INFINITY;
        }
        self.values
            .iter()
            .zip(other.values.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Crate-internal constructor for the count-based computation path
    /// (`StructureCounts::matrix`), which owns the invariant that `values` is
    /// a symmetric clamped `m x m` matrix.
    pub(crate) fn from_parts(
        m: usize,
        values: Vec<f64>,
        entropy_queries: usize,
    ) -> CorrelationMatrix {
        debug_assert_eq!(values.len(), m * m);
        CorrelationMatrix {
            m,
            values,
            entropy_queries,
        }
    }

    /// Build a matrix directly from raw row-major values — a test-only hook
    /// so consumers can inject degenerate (e.g. NaN) entries into their
    /// comparator regression tests.
    #[cfg(test)]
    pub(crate) fn from_raw(m: usize, values: Vec<f64>) -> CorrelationMatrix {
        assert_eq!(values.len(), m * m);
        CorrelationMatrix {
            m,
            values,
            entropy_queries: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::StructureCounts;
    use rand::rngs::mock::StepRng;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sgf_data::{Attribute, Bucketizer, Dataset, Record, Schema};
    use std::sync::Arc;

    /// Dataset where B is a copy of A and C is independent noise.
    fn correlated_dataset(n: usize) -> Dataset {
        let schema = Arc::new(
            Schema::new(vec![
                Attribute::categorical_anon("A", 4),
                Attribute::categorical_anon("B", 4),
                Attribute::categorical_anon("C", 4),
            ])
            .unwrap(),
        );
        let mut rng = StdRng::seed_from_u64(123);
        let records = (0..n)
            .map(|_| {
                let a: u16 = rng.gen_range(0..4);
                let c: u16 = rng.gen_range(0..4);
                Record::new(vec![a, a, c])
            })
            .collect();
        Dataset::from_records_unchecked(schema, records)
    }

    /// The matrix of `d` under the identity bucketizer, exact when `dp` is
    /// `None`.
    fn matrix(
        d: &Dataset,
        dp: Option<&CorrelationDpConfig>,
        rng: &mut impl Rng,
    ) -> Result<CorrelationMatrix> {
        StructureCounts::fit(d, &Bucketizer::identity(d.schema()))?.matrix(dp, rng)
    }

    #[test]
    fn exact_matrix_detects_dependence() {
        let d = correlated_dataset(2000);
        let corr = matrix(&d, None, &mut StepRng::new(0, 1)).unwrap();
        assert_eq!(corr.len(), 3);
        assert!((corr.get(0, 0) - 1.0).abs() < 1e-12);
        assert!(
            corr.get(0, 1) > 0.95,
            "copied attribute should be ~1: {}",
            corr.get(0, 1)
        );
        assert!(
            corr.get(0, 2) < 0.05,
            "independent attribute should be ~0: {}",
            corr.get(0, 2)
        );
        assert_eq!(corr.get(0, 1), corr.get(1, 0));
        assert_eq!(corr.entropy_query_count(), 0);
    }

    #[test]
    fn noisy_matrix_stays_in_range_and_counts_queries() {
        let d = correlated_dataset(2000);
        let mut rng = StdRng::seed_from_u64(9);
        let cfg = CorrelationDpConfig {
            epsilon_h: 0.5,
            epsilon_nt: 0.1,
        };
        let corr = matrix(&d, Some(&cfg), &mut rng).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((0.0..=1.0).contains(&corr.get(i, j)));
            }
        }
        assert_eq!(
            corr.entropy_query_count(),
            CorrelationMatrix::queries_for(3)
        );
    }

    #[test]
    fn noisy_matrix_with_large_epsilon_tracks_exact() {
        let d = correlated_dataset(3000);
        let exact = matrix(&d, None, &mut StepRng::new(0, 1)).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = CorrelationDpConfig {
            epsilon_h: 50.0,
            epsilon_nt: 50.0,
        };
        let noisy = matrix(&d, Some(&cfg), &mut rng).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((exact.get(i, j) - noisy.get(i, j)).abs() < 0.1);
            }
        }
    }

    #[test]
    fn invalid_dp_config_rejected() {
        let d = correlated_dataset(10);
        let mut rng = StdRng::seed_from_u64(4);
        let bad = CorrelationDpConfig {
            epsilon_h: 0.0,
            epsilon_nt: 1.0,
        };
        // Checked before the counts: empty counts report the configuration too.
        for data in [&d, &d.truncated(0)] {
            assert!(matches!(
                matrix(data, Some(&bad), &mut rng),
                Err(ModelError::InvalidParameter(_))
            ));
        }
    }

    #[test]
    fn empty_dataset_rejected() {
        let d = correlated_dataset(5).truncated(0);
        assert!(matches!(
            matrix(&d, None, &mut StepRng::new(0, 1)),
            Err(ModelError::EmptyTrainingData)
        ));
    }

    #[test]
    fn query_count_formula() {
        assert_eq!(CorrelationMatrix::queries_for(11), 11 + 55);
        assert_eq!(CorrelationMatrix::queries_for(1), 1);
        assert_eq!(CorrelationMatrix::queries_for(0), 0);
    }
}
