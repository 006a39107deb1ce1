//! Statistical distance measures between discrete distributions.
//!
//! The statistical-utility evaluation (Figures 3 and 4) compares the
//! per-attribute and per-attribute-pair distributions of real, marginal, and
//! synthetic datasets using the total-variation ("the" statistical) distance.

use crate::histogram::{Histogram, JointHistogram};
use sgf_data::Dataset;

/// Total-variation (statistical) distance between two probability vectors:
/// `0.5 * sum_i |p_i - q_i|`, always in `[0, 1]`.
///
/// # Panics
/// Panics if the vectors have different lengths (they must be distributions
/// over the same domain).
pub fn total_variation(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "distributions must share a domain");
    0.5 * p
        .iter()
        .zip(q.iter())
        .map(|(a, b)| (a - b).abs())
        .sum::<f64>()
}

/// Total-variation distance between the empirical distributions of two histograms.
pub fn total_variation_histograms(a: &Histogram, b: &Histogram) -> f64 {
    total_variation(&a.probabilities(), &b.probabilities())
}

/// Per-attribute total-variation distance between two datasets over the same
/// schema (the quantity box-plotted in Figure 3).
pub fn attribute_distances(a: &Dataset, b: &Dataset) -> Vec<f64> {
    assert_eq!(
        a.schema(),
        b.schema(),
        "datasets must share a schema to compare attribute distributions"
    );
    (0..a.schema().len())
        .map(|attr| {
            total_variation_histograms(
                &Histogram::from_column(a, attr),
                &Histogram::from_column(b, attr),
            )
        })
        .collect()
}

/// Total-variation distance between the joint distribution of every
/// *pair* of attributes in two datasets (Figure 4).  Returns one distance per
/// unordered pair `(i, j)` with `i < j`, in lexicographic order.
pub fn pairwise_distances(a: &Dataset, b: &Dataset) -> Vec<f64> {
    assert_eq!(a.schema(), b.schema(), "datasets must share a schema");
    let m = a.schema().len();
    let mut out = Vec::with_capacity(m * (m - 1) / 2);
    for i in 0..m {
        for j in (i + 1)..m {
            let pa = JointHistogram::from_columns(a, i, j).probabilities();
            let pb = JointHistogram::from_columns(b, i, j).probabilities();
            out.push(total_variation(&pa, &pb));
        }
    }
    out
}

/// Five-number summary (min, lower quartile, median, upper quartile, max) of a
/// set of distances — the quantities a box-and-whisker plot shows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FiveNumberSummary {
    /// Minimum value.
    pub min: f64,
    /// Lower quartile (25th percentile).
    pub q1: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// Upper quartile (75th percentile).
    pub q3: f64,
    /// Maximum value.
    pub max: f64,
}

impl FiveNumberSummary {
    /// Compute the summary of a non-empty slice of values.
    pub fn of(values: &[f64]) -> Option<FiveNumberSummary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        // total_cmp: a NaN distance (e.g. 0/0 from a degenerate divisor
        // upstream) sorts to the end instead of panicking mid-summary.
        v.sort_by(f64::total_cmp);
        let quantile = |q: f64| -> f64 {
            let pos = q * (v.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            if lo == hi {
                v[lo]
            } else {
                let w = pos - lo as f64;
                v[lo] * (1.0 - w) + v[hi] * w
            }
        };
        Some(FiveNumberSummary {
            min: v[0],
            q1: quantile(0.25),
            median: quantile(0.5),
            q3: quantile(0.75),
            max: v[v.len() - 1],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgf_data::{Attribute, Dataset, Record, Schema};
    use std::sync::Arc;

    #[test]
    fn tv_distance_basic_identities() {
        assert_eq!(total_variation(&[0.5, 0.5], &[0.5, 0.5]), 0.0);
        assert!((total_variation(&[1.0, 0.0], &[0.0, 1.0]) - 1.0).abs() < 1e-12);
        let d = total_variation(&[0.7, 0.3], &[0.4, 0.6]);
        assert!((d - 0.3).abs() < 1e-12);
        // Symmetry.
        assert_eq!(d, total_variation(&[0.4, 0.6], &[0.7, 0.3]));
    }

    #[test]
    #[should_panic(expected = "share a domain")]
    fn tv_distance_rejects_mismatched_domains() {
        total_variation(&[1.0], &[0.5, 0.5]);
    }

    #[test]
    fn five_number_summary_survives_nan_values() {
        // Regression: the sort comparator used
        // `partial_cmp(..).expect("distances are finite")` and panicked on
        // the first NaN (e.g. a 0/0 from a degenerate divisor upstream).
        // With total_cmp, NaNs sort after every finite value.
        let summary = FiveNumberSummary::of(&[3.0, f64::NAN, 1.0, 2.0]).unwrap();
        assert_eq!(summary.min, 1.0);
        assert_eq!(summary.median, 2.5);
        assert!(summary.max.is_nan());
        assert!(FiveNumberSummary::of(&[]).is_none());
    }

    fn two_column_dataset(rows: &[(u16, u16)]) -> Dataset {
        let schema = Arc::new(
            Schema::new(vec![
                Attribute::categorical("A", &["a0", "a1"]),
                Attribute::categorical("B", &["b0", "b1"]),
            ])
            .unwrap(),
        );
        let records = rows.iter().map(|&(a, b)| Record::new(vec![a, b])).collect();
        Dataset::from_records_unchecked(schema, records)
    }

    #[test]
    fn attribute_distances_zero_for_identical_datasets() {
        let d = two_column_dataset(&[(0, 0), (1, 1), (0, 1)]);
        let dist = attribute_distances(&d, &d);
        assert_eq!(dist.len(), 2);
        assert!(dist.iter().all(|&x| x.abs() < 1e-12));
    }

    #[test]
    fn pairwise_distance_detects_broken_correlation() {
        // Same marginals, different joint: marginal distance ~0 but pair distance > 0.
        let correlated = two_column_dataset(&[(0, 0), (0, 0), (1, 1), (1, 1)]);
        let independent = two_column_dataset(&[(0, 0), (0, 1), (1, 0), (1, 1)]);
        let marg = attribute_distances(&correlated, &independent);
        assert!(marg.iter().all(|&x| x.abs() < 1e-12));
        let pair = pairwise_distances(&correlated, &independent);
        assert_eq!(pair.len(), 1);
        assert!(pair[0] > 0.4);
    }

    #[test]
    fn five_number_summary_of_known_values() {
        let s = FiveNumberSummary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
        assert!(FiveNumberSummary::of(&[]).is_none());
    }
}
