//! Privacy-preserving structure learning (Section 3.3 / 3.3.1).
//!
//! Combines the correlation computation (exact or with noisy entropies) with
//! the greedy CFS parent-set search, and reports the differential-privacy
//! budget actually spent: the `q` noisy entropy queries compose with the
//! advanced composition theorem and the noisy record count adds sequentially
//! (Section 3.5).

use crate::cfs::{learn_structure, CfsConfig};
use crate::correlation::{CorrelationDpConfig, CorrelationMatrix};
use crate::counts::StructureCounts;
use crate::error::Result;
use crate::graph::DependencyGraph;
use rand::Rng;
use serde::{Deserialize, Serialize};
use sgf_data::Bucketizer;
use sgf_stats::{advanced_composition, sequential_composition, DpBudget};

/// Configuration of the full structure-learning step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StructureConfig {
    /// Greedy CFS search parameters (maxcost, parent cap, ...).
    pub cfs: CfsConfig,
    /// Differential-privacy parameters; `None` learns the exact ("un-noised") structure.
    pub dp: Option<CorrelationDpConfig>,
    /// Slack δ used when composing the noisy entropy queries with the advanced theorem.
    pub delta_slack: f64,
}

impl Default for StructureConfig {
    fn default() -> Self {
        StructureConfig {
            cfs: CfsConfig::default(),
            dp: None,
            delta_slack: 1e-9,
        }
    }
}

impl StructureConfig {
    /// Non-private structure learning with default CFS parameters.
    pub fn exact() -> Self {
        Self::default()
    }

    /// Differentially-private structure learning with the given per-query budgets.
    pub fn private(epsilon_h: f64, epsilon_nt: f64) -> Self {
        StructureConfig {
            cfs: CfsConfig::default(),
            dp: Some(CorrelationDpConfig {
                epsilon_h,
                epsilon_nt,
            }),
            delta_slack: 1e-9,
        }
    }
}

/// The outcome of structure learning.
#[derive(Debug, Clone)]
pub struct LearnedStructure {
    /// The learned dependency graph G̃.
    pub graph: DependencyGraph,
    /// The (possibly noisy) correlation matrix the graph was derived from.
    pub correlations: CorrelationMatrix,
    /// Total (ε, δ) spent on D_T; zero for the exact computation.
    pub budget: DpBudget,
}

impl LearnedStructure {
    /// Per-attribute dependency weight: the summed correlation mass of the
    /// learned graph edges incident to each attribute.
    ///
    /// Attributes the structure learner wired most strongly into the graph
    /// carry the most identifying information about a record, so indexed seed
    /// stores use these weights to rank attributes when choosing which
    /// posting lists to intersect first (the "highest-selectivity" order).
    pub fn attribute_weights(&self) -> Vec<f64> {
        let m = self.graph.len();
        let mut weights = vec![0.0; m];
        for child in 0..m {
            for &parent in self.graph.parents(child) {
                let c = self.correlations.get(parent, child);
                weights[child] += c;
                weights[parent] += c;
            }
        }
        weights
    }
}

/// Learn the dependency structure from the sufficient statistics of the
/// structure-learning subset `D_T` ([`StructureCounts::fit`], or counts a
/// delta was merged into).
///
/// Equal counts and an identically-seeded `rng` give a bit-identical
/// [`LearnedStructure`] however the counts were reached: the matrix and its
/// DP noise draws come from [`StructureCounts::matrix`], and the CFS search
/// plus budget accounting below are deterministic in the matrix.
pub fn learn_structure_from_counts<R: Rng + ?Sized>(
    counts: &StructureCounts,
    bucketizer: &Bucketizer,
    config: &StructureConfig,
    rng: &mut R,
) -> Result<LearnedStructure> {
    let correlations = counts.matrix(config.dp.as_ref(), rng)?;
    structure_from_correlations(correlations, bucketizer, config)
}

/// The deterministic tail of structure learning: CFS search over a computed
/// correlation matrix plus the composition-theorem budget accounting.
///
/// Exposed so a session's model derivation (`sgf-core`, one path for a
/// train and an update) can split structure learning at the matrix: it
/// reads the matrix off the counts with [`StructureCounts::matrix`], and an
/// update that finds it unchanged keeps the parent's structure without
/// paying for the CFS search.  `structure_from_correlations(matrix, ...)` on
/// the same matrix is bit-identical to the tail of
/// [`learn_structure_from_counts`].
pub fn structure_from_correlations(
    correlations: CorrelationMatrix,
    bucketizer: &Bucketizer,
    config: &StructureConfig,
) -> Result<LearnedStructure> {
    let graph = learn_structure(&correlations, bucketizer, &config.cfs)?;
    let budget = match &config.dp {
        None => DpBudget::pure(0.0),
        Some(dp) => {
            let entropies = advanced_composition(
                dp.epsilon_h,
                0.0,
                correlations.entropy_query_count() as u64,
                config.delta_slack,
            );
            sequential_composition(&[entropies, DpBudget::pure(dp.epsilon_nt)])
        }
    };
    Ok(LearnedStructure {
        graph,
        correlations,
        budget,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sgf_data::acs::{acs_bucketizer, acs_schema, generate_acs};
    use sgf_data::Dataset;

    /// Structure learning over one fit of `data`, as `learn_models` runs it.
    fn learn(
        data: &Dataset,
        bkt: &Bucketizer,
        config: &StructureConfig,
        rng: &mut StdRng,
    ) -> Result<LearnedStructure> {
        learn_structure_from_counts(&StructureCounts::fit(data, bkt)?, bkt, config, rng)
    }

    #[test]
    fn exact_structure_on_acs_links_income_to_predictors() {
        let data = generate_acs(4000, 3);
        let bkt = acs_bucketizer(&acs_schema());
        let mut rng = StdRng::seed_from_u64(0);
        let learned = learn(&data, &bkt, &StructureConfig::exact(), &mut rng).unwrap();
        assert!(learned.graph.topological_order().is_some());
        assert_eq!(learned.budget.epsilon, 0.0);
        // Some dependencies must have been discovered on this correlated data.
        assert!(
            learned.graph.edge_count() >= 4,
            "edges: {}",
            learned.graph.edge_count()
        );
    }

    #[test]
    fn attribute_weights_follow_graph_edges() {
        let data = generate_acs(4000, 7);
        let bkt = acs_bucketizer(&acs_schema());
        let mut rng = StdRng::seed_from_u64(2);
        let learned = learn(&data, &bkt, &StructureConfig::exact(), &mut rng).unwrap();
        let weights = learned.attribute_weights();
        assert_eq!(weights.len(), learned.graph.len());
        // Every attribute with at least one incident edge has positive weight;
        // isolated attributes have exactly zero.
        for (attr, &weight) in weights.iter().enumerate() {
            let incident = !learned.graph.parents(attr).is_empty()
                || (0..learned.graph.len()).any(|c| learned.graph.parents(c).contains(&attr));
            if incident {
                assert!(weight > 0.0, "attribute {attr} has incident edges");
            } else {
                assert_eq!(weight, 0.0);
            }
        }
    }

    #[test]
    fn count_based_relearn_matches_the_dataset_path_bit_for_bit() {
        let data = generate_acs(1500, 4);
        let bkt = acs_bucketizer(&acs_schema());
        // Counts of the first 700 records with the rest merged in, as an
        // incremental update reaches them.
        let (head, tail) = data.records().split_at(700);
        let mut merged = StructureCounts::fit(
            &Dataset::from_records_unchecked(data.schema_arc(), head.to_vec()),
            &bkt,
        )
        .unwrap();
        merged.apply_delta(&[], tail, &bkt).unwrap();
        for config in [StructureConfig::exact(), StructureConfig::private(0.5, 0.1)] {
            let mut rng_a = StdRng::seed_from_u64(21);
            let direct = learn(&data, &bkt, &config, &mut rng_a).unwrap();
            let mut rng_b = StdRng::seed_from_u64(21);
            let relearned =
                learn_structure_from_counts(&merged, &bkt, &config, &mut rng_b).unwrap();
            assert_eq!(direct.graph, relearned.graph);
            assert_eq!(direct.correlations, relearned.correlations);
            assert_eq!(direct.budget, relearned.budget);
        }
    }

    #[test]
    fn private_structure_reports_positive_budget() {
        let data = generate_acs(2000, 5);
        let bkt = acs_bucketizer(&acs_schema());
        let mut rng = StdRng::seed_from_u64(1);
        let learned = learn(&data, &bkt, &StructureConfig::private(0.05, 0.01), &mut rng).unwrap();
        assert!(learned.graph.topological_order().is_some());
        assert!(learned.budget.epsilon > 0.0);
        assert!(learned.budget.delta > 0.0 && learned.budget.delta < 1e-6);
    }

    #[test]
    fn noisier_structure_can_differ_from_exact() {
        let data = generate_acs(2000, 7);
        let bkt = acs_bucketizer(&acs_schema());
        let mut rng = StdRng::seed_from_u64(2);
        let exact = learn(&data, &bkt, &StructureConfig::exact(), &mut rng).unwrap();
        let noisy = learn(
            &data,
            &bkt,
            &StructureConfig::private(0.001, 0.001),
            &mut rng,
        )
        .unwrap();
        // Not asserting inequality of graphs (they *may* coincide), but both must be valid DAGs.
        assert!(exact.graph.topological_order().is_some());
        assert!(noisy.graph.topological_order().is_some());
    }

    #[test]
    fn respects_maxcost_on_acs() {
        let data = generate_acs(2000, 9);
        let schema = acs_schema();
        let bkt = acs_bucketizer(&schema);
        let mut rng = StdRng::seed_from_u64(3);
        let mut config = StructureConfig::exact();
        config.cfs.maxcost = 60;
        let learned = learn(&data, &bkt, &config, &mut rng).unwrap();
        for i in 0..learned.graph.len() {
            assert!(crate::cfs::parent_set_cost(learned.graph.parents(i), &bkt) <= 60);
        }
    }
}
