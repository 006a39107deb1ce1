//! Correlation-based Feature Selection (CFS) for structure learning.
//!
//! For every attribute the learner greedily assembles the parent set that
//! maximizes the CFS merit score of Eq. 4,
//!
//! ```text
//! score(P_G(i)) = Σ_{j∈P} corr(x_i, x_j) / sqrt(|P| + Σ_{j≠k∈P} corr(x_j, x_k))
//! ```
//!
//! subject to two constraints: the dependency graph must stay acyclic, and the
//! complexity cost of the parent set — the number of joint parent
//! configurations, Eq. 6 — must not exceed `maxcost`.

use crate::correlation::CorrelationMatrix;
use crate::error::{ModelError, Result};
use crate::graph::DependencyGraph;
use serde::{Deserialize, Serialize};
use sgf_data::Bucketizer;

/// Configuration of the greedy CFS structure search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CfsConfig {
    /// Maximum allowed number of joint parent configurations per attribute
    /// (Eq. 6).  Parent-set costs are computed over *bucketized* domains.
    pub maxcost: u64,
    /// Hard cap on the number of parents per attribute (a practical guard on
    /// top of `maxcost`; the paper's constraint is the cost alone).
    pub max_parents: usize,
    /// Minimum merit improvement required to keep adding parents.
    pub min_improvement: f64,
}

impl Default for CfsConfig {
    fn default() -> Self {
        CfsConfig {
            maxcost: 300,
            max_parents: 4,
            min_improvement: 1e-6,
        }
    }
}

impl CfsConfig {
    /// Validate the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.maxcost == 0 {
            return Err(ModelError::InvalidParameter(
                "maxcost must be at least 1".into(),
            ));
        }
        if self.max_parents == 0 {
            return Err(ModelError::InvalidParameter(
                "max_parents must be at least 1".into(),
            ));
        }
        if !self.min_improvement.is_finite() || self.min_improvement < 0.0 {
            return Err(ModelError::InvalidParameter(
                "min_improvement must be non-negative and finite".into(),
            ));
        }
        Ok(())
    }
}

/// The CFS merit score of a candidate parent set for `target` (Eq. 4).
/// An empty parent set scores 0.
pub fn merit_score(target: usize, parents: &[usize], corr: &CorrelationMatrix) -> f64 {
    if parents.is_empty() {
        return 0.0;
    }
    let relevance: f64 = parents.iter().map(|&j| corr.get(target, j)).sum();
    let mut redundancy = 0.0;
    for (a, &j) in parents.iter().enumerate() {
        for &k in &parents[a + 1..] {
            redundancy += 2.0 * corr.get(j, k); // Σ over ordered pairs j ≠ k
        }
    }
    let denom = (parents.len() as f64 + redundancy).max(f64::EPSILON).sqrt();
    relevance / denom
}

/// The complexity cost of a parent set: the number of joint configurations of
/// the bucketized parents (Eq. 6).
pub fn parent_set_cost(parents: &[usize], bucketizer: &Bucketizer) -> u64 {
    parents.iter().fold(1u64, |acc, &j| {
        acc.saturating_mul(bucketizer.bucket_count(j) as u64)
    })
}

/// Whether `to` is reachable from `from` along `children` edges, using
/// caller-provided scratch buffers (the allocation-free twin of
/// [`DependencyGraph`]'s internal cycle check — same boolean answer, since
/// reachability is traversal-order independent).
fn reaches_via(
    children: &[Vec<usize>],
    from: usize,
    to: usize,
    visited: &mut [bool],
    stack: &mut Vec<usize>,
) -> bool {
    if from == to {
        return true;
    }
    visited.fill(false);
    stack.clear();
    visited[from] = true;
    stack.push(from);
    while let Some(node) = stack.pop() {
        for &child in &children[node] {
            if child == to {
                return true;
            }
            if !visited[child] {
                visited[child] = true;
                stack.push(child);
            }
        }
    }
    false
}

/// Greedily select the parent set of every attribute, producing an acyclic
/// dependency graph.  Attributes are processed in a data-driven order (most
/// strongly correlated attribute first) so that highly predictable attributes
/// get first pick of parents before acyclicity constraints tighten.
///
/// The candidate loop is allocation-free (this runs on the incremental-update
/// hot path) but scores each trial set with the exact floating-point
/// operation sequence of [`merit_score`], so the selected graph is
/// bit-deterministic in the matrix regardless of which path computed it.
pub fn learn_structure(
    corr: &CorrelationMatrix,
    bucketizer: &Bucketizer,
    config: &CfsConfig,
) -> Result<DependencyGraph> {
    config.validate()?;
    let m = corr.len();
    if bucketizer.per_attribute().len() != m {
        return Err(ModelError::InvalidGraph(format!(
            "bucketizer covers {} attributes but the correlation matrix has {m}",
            bucketizer.per_attribute().len()
        )));
    }
    let mut graph = DependencyGraph::empty(m);

    // Process attributes by decreasing best available correlation.
    let mut order: Vec<usize> = (0..m).collect();
    let best_corr = |i: usize| -> f64 {
        (0..m)
            .filter(|&j| j != i)
            .map(|j| corr.get(i, j))
            .fold(0.0f64, f64::max)
    };
    // total_cmp: a NaN in the (noised) correlation matrix must not panic or
    // hand sort_by a non-total order; the index tie-break keeps the order
    // unique, so the downstream greedy parent selection is deterministic.
    order.sort_by(|&a, &b| best_corr(b).total_cmp(&best_corr(a)).then(a.cmp(&b)));

    // children[i] = attributes with i as parent; mirror of `graph` kept so
    // acyclicity checks reuse the scratch buffers below instead of
    // allocating per candidate.
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); m];
    let mut visited = vec![false; m];
    let mut stack: Vec<usize> = Vec::with_capacity(m);

    for &target in &order {
        let mut parents: Vec<usize> = Vec::new();
        let mut current_score = 0.0f64;
        // Running left-folds over the accepted parents, maintained in exactly
        // the order `merit_score` / `parent_set_cost` would fold a trial set
        // `parents ++ [candidate]`: relevance prefix and cost prefix extend
        // associatively, so `prefix ⊕ candidate` is bit-identical to the
        // from-scratch fold.  (The redundancy pair sum does NOT decompose
        // that way — its candidate terms interleave with base terms — so it
        // is recomputed per candidate below, in original pair order.)
        let mut relevance_prefix = 0.0f64;
        let mut cost_prefix = 1u64;
        loop {
            if parents.len() >= config.max_parents {
                break;
            }
            // Find the admissible candidate that maximizes the merit.
            let mut best: Option<(usize, f64)> = None;
            for candidate in 0..m {
                if candidate == target || parents.contains(&candidate) {
                    continue;
                }
                // candidate -> target cycles iff target already reaches candidate.
                if reaches_via(&children, target, candidate, &mut visited, &mut stack) {
                    continue;
                }
                let cost = cost_prefix.saturating_mul(bucketizer.bucket_count(candidate) as u64);
                if cost > config.maxcost {
                    continue;
                }
                let relevance = relevance_prefix + corr.get(target, candidate);
                // merit_score's redundancy loop over `parents ++ [candidate]`,
                // with trial[a] inlined — same pairs, same addition order.
                let trial = |i: usize| {
                    if i < parents.len() {
                        parents[i]
                    } else {
                        candidate
                    }
                };
                let mut redundancy = 0.0;
                for a in 0..=parents.len() {
                    for b in (a + 1)..=parents.len() {
                        redundancy += 2.0 * corr.get(trial(a), trial(b));
                    }
                }
                let denom = ((parents.len() + 1) as f64 + redundancy)
                    .max(f64::EPSILON)
                    .sqrt();
                let score = relevance / denom;
                #[cfg(debug_assertions)]
                {
                    let mut full = parents.clone();
                    full.push(candidate);
                    debug_assert_eq!(
                        score.to_bits(),
                        merit_score(target, &full, corr).to_bits(),
                        "inlined merit diverged from merit_score for {full:?} -> {target}"
                    );
                }
                if best.is_none_or(|(_, s)| score > s) {
                    best = Some((candidate, score));
                }
            }
            match best {
                Some((candidate, score)) if score > current_score + config.min_improvement => {
                    graph.add_edge(candidate, target)?;
                    children[candidate].push(target);
                    relevance_prefix += corr.get(target, candidate);
                    cost_prefix =
                        cost_prefix.saturating_mul(bucketizer.bucket_count(candidate) as u64);
                    parents.push(candidate);
                    current_score = score;
                }
                _ => break,
            }
        }
    }
    Ok(graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::StructureCounts;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sgf_data::{Attribute, Dataset, Record, Schema};
    use std::sync::Arc;

    /// A, B strongly dependent; C mostly independent; D a noisy copy of A.
    fn dataset() -> Dataset {
        let schema = Arc::new(
            Schema::new(vec![
                Attribute::categorical_anon("A", 3),
                Attribute::categorical_anon("B", 3),
                Attribute::categorical_anon("C", 3),
                Attribute::categorical_anon("D", 3),
            ])
            .unwrap(),
        );
        let mut rng = StdRng::seed_from_u64(5);
        let records = (0..3000)
            .map(|_| {
                let a: u16 = rng.gen_range(0..3);
                let b = if rng.gen::<f64>() < 0.9 {
                    a
                } else {
                    rng.gen_range(0..3)
                };
                let c: u16 = rng.gen_range(0..3);
                let d = if rng.gen::<f64>() < 0.8 {
                    a
                } else {
                    rng.gen_range(0..3)
                };
                Record::new(vec![a, b, c, d])
            })
            .collect();
        Dataset::from_records_unchecked(schema, records)
    }

    /// The exact correlation matrix of `d` under `bkt`.
    fn exact_matrix(d: &Dataset, bkt: &Bucketizer) -> Result<CorrelationMatrix> {
        StructureCounts::fit(d, bkt)?.matrix(None, &mut rand::rngs::mock::StepRng::new(0, 1))
    }

    #[test]
    fn merit_prefers_relevant_nonredundant_parents() {
        let d = dataset();
        let bkt = Bucketizer::identity(d.schema());
        let corr = exact_matrix(&d, &bkt).unwrap();
        // For target B, parent {A} should beat parent {C}.
        assert!(merit_score(1, &[0], &corr) > merit_score(1, &[2], &corr));
        // Adding the redundant D to {A} should not dramatically improve the merit.
        let just_a = merit_score(1, &[0], &corr);
        let a_and_d = merit_score(1, &[0, 3], &corr);
        assert!(a_and_d < just_a + 0.2);
        assert_eq!(merit_score(1, &[], &corr), 0.0);
    }

    #[test]
    fn structure_learning_survives_nan_correlations() {
        // Regression: the ordering comparator used
        // `partial_cmp(..).expect("correlations are finite")`, which panicked
        // as soon as a degenerate (e.g. zero-entropy under heavy DP noise)
        // correlation produced a NaN.  The sort must stay total instead.
        let schema = Arc::new(
            Schema::new(vec![
                Attribute::categorical_anon("A", 3),
                Attribute::categorical_anon("B", 3),
                Attribute::categorical_anon("C", 3),
            ])
            .unwrap(),
        );
        let bkt = Bucketizer::identity(&schema);
        let nan = f64::NAN;
        let corr =
            CorrelationMatrix::from_raw(3, vec![1.0, nan, 0.3, nan, 1.0, 0.2, 0.3, 0.2, 1.0]);
        let graph = learn_structure(&corr, &bkt, &CfsConfig::default()).unwrap();
        assert_eq!(graph.len(), 3);
        // The NaN pair must not be selected as a parent edge in either
        // direction (its merit is NaN, which never beats a real score).
        assert!(!graph.parents(0).contains(&1));
        assert!(!graph.parents(1).contains(&0));
    }

    #[test]
    fn cost_is_product_of_bucket_counts() {
        let d = dataset();
        let bkt = Bucketizer::identity(d.schema());
        assert_eq!(parent_set_cost(&[0, 1], &bkt), 9);
        assert_eq!(parent_set_cost(&[], &bkt), 1);
    }

    #[test]
    fn learned_structure_is_acyclic_and_links_dependent_attributes() {
        let d = dataset();
        let bkt = Bucketizer::identity(d.schema());
        let corr = exact_matrix(&d, &bkt).unwrap();
        let graph = learn_structure(&corr, &bkt, &CfsConfig::default()).unwrap();
        assert!(graph.topological_order().is_some());
        // A, B, D form a dependent cluster: B and D should have at least one
        // parent from the cluster (whichever direction the greedy pass chose).
        let cluster = [0usize, 1, 3];
        let linked = cluster
            .iter()
            .filter(|&&i| graph.parents(i).iter().any(|p| cluster.contains(p)))
            .count();
        assert!(
            linked >= 2,
            "expected the dependent cluster to be linked: {:?}",
            graph.parent_sets()
        );
        // C is independent noise: it should not acquire strongly-correlated parents.
        assert!(graph.parents(2).len() <= 1);
    }

    #[test]
    fn maxcost_limits_parent_sets() {
        let d = dataset();
        let bkt = Bucketizer::identity(d.schema());
        let corr = exact_matrix(&d, &bkt).unwrap();
        let config = CfsConfig {
            maxcost: 3,
            ..CfsConfig::default()
        };
        let graph = learn_structure(&corr, &bkt, &config).unwrap();
        for i in 0..graph.len() {
            assert!(parent_set_cost(graph.parents(i), &bkt) <= 3);
        }
    }

    #[test]
    fn max_parents_cap_is_respected() {
        let d = dataset();
        let bkt = Bucketizer::identity(d.schema());
        let corr = exact_matrix(&d, &bkt).unwrap();
        let config = CfsConfig {
            max_parents: 1,
            ..CfsConfig::default()
        };
        let graph = learn_structure(&corr, &bkt, &config).unwrap();
        assert!((0..graph.len()).all(|i| graph.parents(i).len() <= 1));
    }

    #[test]
    fn invalid_config_rejected() {
        assert!(CfsConfig {
            maxcost: 0,
            ..CfsConfig::default()
        }
        .validate()
        .is_err());
        assert!(CfsConfig {
            max_parents: 0,
            ..CfsConfig::default()
        }
        .validate()
        .is_err());
        assert!(CfsConfig {
            min_improvement: f64::NAN,
            ..CfsConfig::default()
        }
        .validate()
        .is_err());
    }
}
