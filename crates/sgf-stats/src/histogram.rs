//! Histograms and contingency tables over discrete attributes.
//!
//! Entropy, correlation, statistical distance, and the marginal/conditional
//! probability estimates all start from counting value (or value-pair)
//! frequencies; this module centralizes that counting.

use sgf_data::Dataset;

/// Counts of a single discrete variable over a fixed domain `0..cardinality`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// An all-zero histogram over `cardinality` bins.
    pub fn empty(cardinality: usize) -> Self {
        Histogram {
            counts: vec![0; cardinality],
            total: 0,
        }
    }

    /// Build a histogram from an iterator of value indices.
    pub fn from_values<I: IntoIterator<Item = u16>>(cardinality: usize, values: I) -> Self {
        let mut h = Histogram::empty(cardinality);
        for v in values {
            h.add(v);
        }
        h
    }

    /// Histogram of one dataset column.
    pub fn from_column(dataset: &Dataset, attr: usize) -> Self {
        Histogram::from_values(dataset.schema().cardinality(attr), dataset.column(attr))
    }

    /// Increment the count of bin `v`.
    pub fn add(&mut self, v: u16) {
        self.counts[v as usize] += 1;
        self.total += 1;
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Count in bin `v`.
    pub fn count(&self, v: usize) -> u64 {
        self.counts[v]
    }

    /// All counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Normalize into a probability vector; an empty histogram yields the uniform distribution.
    pub fn probabilities(&self) -> Vec<f64> {
        if self.total == 0 {
            let n = self.counts.len().max(1);
            return vec![1.0 / n as f64; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }

    /// Probability of bin `v` (0 for an empty histogram handled via `probabilities`).
    pub fn probability(&self, v: usize) -> f64 {
        if self.total == 0 {
            1.0 / self.counts.len().max(1) as f64
        } else {
            self.counts[v] as f64 / self.total as f64
        }
    }

    /// Index of the most frequent bin (ties resolved to the lowest index).
    pub fn mode(&self) -> usize {
        self.counts
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

/// Joint counts of a pair of discrete variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JointHistogram {
    counts: Vec<u64>,
    rows: usize,
    cols: usize,
    total: u64,
}

impl JointHistogram {
    /// An all-zero joint histogram with domains `rows x cols`.
    pub fn empty(rows: usize, cols: usize) -> Self {
        JointHistogram {
            counts: vec![0; rows * cols],
            rows,
            cols,
            total: 0,
        }
    }

    /// Joint histogram of two dataset columns.
    pub fn from_columns(dataset: &Dataset, attr_a: usize, attr_b: usize) -> Self {
        let schema = dataset.schema();
        let mut h = JointHistogram::empty(schema.cardinality(attr_a), schema.cardinality(attr_b));
        for r in dataset.records() {
            h.add(r.get(attr_a), r.get(attr_b));
        }
        h
    }

    /// Increment the count of the pair `(a, b)`.
    pub fn add(&mut self, a: u16, b: u16) {
        self.counts[a as usize * self.cols + b as usize] += 1;
        self.total += 1;
    }

    /// Count of the pair `(a, b)`.
    pub fn count(&self, a: usize, b: usize) -> u64 {
        self.counts[a * self.cols + b]
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of row bins.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of column bins.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Flatten into a single histogram over `rows * cols` joint bins.
    pub fn flatten(&self) -> Histogram {
        Histogram {
            counts: self.counts.clone(),
            total: self.total,
        }
    }

    /// Full joint probability vector (row-major).
    pub fn probabilities(&self) -> Vec<f64> {
        self.flatten().probabilities()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgf_data::{Attribute, Dataset, Record, Schema};
    use std::sync::Arc;

    fn dataset() -> Dataset {
        let schema = Arc::new(
            Schema::new(vec![
                Attribute::categorical("A", &["a0", "a1", "a2"]),
                Attribute::categorical("B", &["b0", "b1"]),
            ])
            .unwrap(),
        );
        let records = vec![
            Record::new(vec![0, 0]),
            Record::new(vec![0, 1]),
            Record::new(vec![1, 1]),
            Record::new(vec![2, 1]),
            Record::new(vec![2, 1]),
        ];
        Dataset::from_records_unchecked(schema, records)
    }

    #[test]
    fn histogram_counts_and_probabilities() {
        let d = dataset();
        let h = Histogram::from_column(&d, 0);
        assert_eq!(h.counts(), &[2, 1, 2]);
        assert_eq!(h.total(), 5);
        let p = h.probabilities();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((h.probability(0) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_is_uniform() {
        let h = Histogram::empty(4);
        let p = h.probabilities();
        assert!(p.iter().all(|&x| (x - 0.25).abs() < 1e-12));
        assert!((h.probability(2) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn mode_breaks_ties_to_lowest_index() {
        let h = Histogram::from_values(3, [0u16, 0, 2, 2, 1]);
        assert_eq!(h.mode(), 0);
        let h2 = Histogram::from_values(3, [1u16, 1, 0]);
        assert_eq!(h2.mode(), 1);
    }

    #[test]
    fn joint_histogram_marginals_are_consistent() {
        let d = dataset();
        let j = JointHistogram::from_columns(&d, 0, 1);
        assert_eq!(j.count(2, 1), 2);
        assert_eq!(j.count(1, 0), 0);
        let rows: Vec<u64> = (0..3)
            .map(|a| (0..2).map(|b| j.count(a, b)).sum())
            .collect();
        let cols: Vec<u64> = (0..2)
            .map(|b| (0..3).map(|a| j.count(a, b)).sum())
            .collect();
        assert_eq!(rows, Histogram::from_column(&d, 0).counts());
        assert_eq!(cols, Histogram::from_column(&d, 1).counts());
        let p = j.probabilities();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn flatten_preserves_total() {
        let d = dataset();
        let j = JointHistogram::from_columns(&d, 0, 1);
        let flat = j.flatten();
        assert_eq!(flat.total(), j.total());
        assert_eq!(flat.bins(), 6);
    }
}
