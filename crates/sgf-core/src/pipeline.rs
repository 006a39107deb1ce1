//! The synthesis configuration and the training phase every session epoch
//! runs: learn the (privacy-preserving) generative model from the split
//! dataset.
//!
//! [`PipelineConfig`] is the Rust equivalent of the paper's C++ tool config
//! file (Section 5): the privacy parameters k, γ, ε0, the generative-model
//! parameter ω, and the early-termination knobs.  Releases run through the
//! staged [`crate::session`] API (builder → [`crate::SynthesisSession`] →
//! `generate`).  One model derivation serves both a train and an
//! incremental update: without a parent epoch it learns from the split
//! ([`learn_models`], the training phase on its own, for callers that learn
//! from an explicit split), and with one it merges the update's per-subset
//! delta into the parent's counts.  For serving releases over the network —
//! with a bounded request queue and an (ε, δ) admission cap enforced
//! through the ledger's reserve/commit protocol — see the `sgf-serve`
//! crate.

use crate::error::{CoreError, Result};
use crate::privacy_test::PrivacyTestConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use sgf_data::{Bucketizer, DataSplit, DatasetDelta, SplitSpec};
use sgf_model::{
    structure_from_correlations, BayesNetModel, CorrelationMatrix, CptStore, LearnedStructure,
    MarginalConfig, MarginalCounts, MarginalModel, OmegaSpec, ParameterConfig, StructureConfig,
    StructureCounts,
};
use std::sync::Arc;

/// Configuration of the full pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// How to split the input dataset into D_T / D_P / D_S / test.
    pub split: SplitSpec,
    /// Structure-learning configuration (Section 3.3).
    pub structure: StructureConfig,
    /// Parameter-learning configuration (Section 3.4).
    pub parameters: ParameterConfig,
    /// How many attributes each candidate re-samples (Section 3.2).
    pub omega: OmegaSpec,
    /// Privacy-test configuration (Section 2).
    pub privacy_test: PrivacyTestConfig,
    /// Number of synthetic records to release: the size of a one-request
    /// release (a session takes each request's target from the request).
    pub target_synthetics: usize,
    /// A request gives up after `max_candidate_factor × request.target`
    /// proposals (the session default; a request may override the factor).
    pub max_candidate_factor: usize,
    /// Number of worker threads for candidate generation (the process is
    /// embarrassingly parallel, Section 5).
    pub workers: usize,
    /// Master seed for all randomness in the pipeline.
    pub seed: u64,
}

impl PipelineConfig {
    /// A configuration close to the paper's defaults (Section 6.1):
    /// k = 50, γ = 4, ε0 = 1, ω = 9, randomized privacy test.
    pub fn paper_defaults(target_synthetics: usize) -> Self {
        PipelineConfig {
            split: SplitSpec::paper_defaults(),
            structure: StructureConfig::exact(),
            parameters: ParameterConfig::default(),
            omega: OmegaSpec::Fixed(9),
            privacy_test: PrivacyTestConfig::randomized(50, 4.0, 1.0)
                .with_limits(Some(100), Some(50_000)),
            target_synthetics,
            max_candidate_factor: 20,
            workers: 1,
            seed: 0,
        }
    }

    /// Validate the configuration against a schema with `m` attributes.
    pub fn validate(&self, m: usize) -> Result<()> {
        self.split.validate()?;
        self.privacy_test.validate()?;
        self.omega.validate(m)?;
        if self.target_synthetics == 0 {
            return Err(CoreError::InvalidParameter(
                "target_synthetics must be at least 1".into(),
            ));
        }
        if self.max_candidate_factor == 0 {
            return Err(CoreError::InvalidParameter(
                "max_candidate_factor must be at least 1".into(),
            ));
        }
        crate::session::check_workers(self.workers)?;
        Ok(())
    }
}

/// The models trained by the pipeline.
///
/// Cloning is shallow where it matters: the CPT store — by far the largest
/// artifact — sits behind an `Arc`, so clones share it.
#[derive(Debug, Clone)]
pub struct TrainedModels {
    /// The learned dependency structure (and its correlation matrix / budget).
    pub structure: LearnedStructure,
    /// The conditional probability tables.
    pub cpts: Arc<CptStore>,
    /// Whole-record view over the CPTs (likelihood, prediction, ancestral sampling).
    pub bayes_net: BayesNetModel,
    /// The marginal baseline learned from the same parameter subset.
    pub marginal: MarginalModel,
    /// Summable sufficient statistics of structure learning over `D_T`,
    /// kept so a [`crate::SynthesisSession::update`] delta can merge counts
    /// in O(|Δ|) instead of re-scanning the subset.
    pub structure_counts: StructureCounts,
    /// Summable per-attribute counts of the marginal baseline over `D_P`,
    /// kept for the same incremental-update path.
    pub marginal_counts: MarginalCounts,
}

/// Learn structure, parameters, and the marginal baseline from an
/// already-split dataset: the parent-less case of the model derivation
/// [`SynthesisEngine::train`](crate::SynthesisEngine::train) and every
/// update run, for callers that hold a split and want no session.
pub fn learn_models(
    config: &PipelineConfig,
    split: &DataSplit,
    bucketizer: &Bucketizer,
) -> Result<TrainedModels> {
    derive_models(config, split, bucketizer, None)
}

/// The one model derivation of every session epoch: learn from `split`, or,
/// given a parent epoch's models and the per-subset delta leading from its
/// split to `split` ([`DataSplit::apply_delta`]), share each part whose
/// subset is untouched and merge the delta into the counts of the others,
/// re-deriving what a fit of `split` gives bit for bit.  The matrix is read
/// off the counts with the train's rng seed; CFS re-runs only when it
/// moved; the CPTs merge ([`CptStore::apply_delta`]) unless the graph
/// changed, which re-learns them over `D_P`.
pub(crate) fn derive_models(
    config: &PipelineConfig,
    split: &DataSplit,
    bucketizer: &Bucketizer,
    parent: Option<(&TrainedModels, &[DatasetDelta; 4])>,
) -> Result<TrainedModels> {
    if parent.is_none() {
        // The bucketizer must cover exactly the schema's value domains.
        Bucketizer::new(split.seeds.schema(), bucketizer.per_attribute().to_vec())?;
    }
    let (structure_counts, structure) = match parent {
        Some((models, [delta, ..])) if delta.is_empty() => {
            (models.structure_counts.clone(), models.structure.clone())
        }
        _ => {
            let counts = match parent {
                None => StructureCounts::fit(&split.structure, bucketizer)?,
                Some((models, [delta, ..])) => {
                    let mut counts = models.structure_counts.clone();
                    counts.apply_delta(delta.deletes(), delta.inserts(), bucketizer)?;
                    counts
                }
            };
            let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(0x5eed));
            let correlations = counts.matrix(config.structure.dp.as_ref(), &mut rng)?;
            let structure = match parent {
                Some((models, _)) if structure_drift(&models.structure, &correlations) == 0.0 => {
                    models.structure.clone()
                }
                _ => structure_from_correlations(correlations, bucketizer, &config.structure)?,
            };
            (counts, structure)
        }
    };
    let cpts = match parent {
        Some((models, [_, delta, ..])) if models.structure.graph == structure.graph => {
            if delta.is_empty() {
                Arc::clone(&models.cpts)
            } else {
                Arc::new(models.cpts.apply_delta(delta.deletes(), delta.inserts())?)
            }
        }
        _ => Arc::new(CptStore::learn(
            &split.parameters,
            bucketizer,
            &structure.graph,
            config.parameters,
        )?),
    };
    let (marginal_counts, marginal) = match parent {
        Some((models, [_, delta, ..])) if delta.is_empty() => {
            (models.marginal_counts.clone(), models.marginal.clone())
        }
        _ => {
            let counts = match parent {
                None => MarginalCounts::fit(&split.parameters),
                Some((models, [_, delta, ..])) => {
                    let mut counts = models.marginal_counts.clone();
                    counts.apply_delta(delta.deletes(), delta.inserts())?;
                    counts
                }
            };
            let marginal = MarginalModel::from_counts(&counts, marginal_config(config))?;
            (counts, marginal)
        }
    };
    Ok(TrainedModels {
        bayes_net: BayesNetModel::new(Arc::clone(&cpts)),
        structure,
        cpts,
        marginal,
        structure_counts,
        marginal_counts,
    })
}

/// How far `correlations` moved from the matrix `structure` was learned
/// from, recorded (in millionths) as `core.update.structure_drift`.
fn structure_drift(structure: &LearnedStructure, correlations: &CorrelationMatrix) -> f64 {
    let drift = structure.correlations.max_abs_diff(correlations);
    sgf_metrics::summary("core.update.structure_drift")
        .observe((drift * 1e6).min(u64::MAX as f64) as u64);
    drift
}

/// The marginal-baseline configuration derived from the pipeline parameters.
pub(crate) fn marginal_config(config: &PipelineConfig) -> MarginalConfig {
    MarginalConfig {
        alpha: config.parameters.alpha,
        epsilon_p: config.parameters.epsilon_p,
        global_seed: config.parameters.global_seed,
        delta_slack: config.parameters.delta_slack,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::Mechanism;
    use crate::session::{GenerateRequest, SynthesisEngine, SynthesisSession};
    use sgf_data::acs::{acs_bucketizer, acs_schema, generate_acs};
    use sgf_data::Dataset;
    use sgf_model::SeedSynthesizer;
    use std::time::Duration;

    fn small_config(target: usize) -> PipelineConfig {
        let mut config = PipelineConfig::paper_defaults(target);
        config.privacy_test =
            PrivacyTestConfig::randomized(20, 4.0, 1.0).with_limits(Some(40), Some(2000));
        config.omega = OmegaSpec::Fixed(9);
        config.max_candidate_factor = 30;
        config.seed = 7;
        config
    }

    fn train(config: PipelineConfig, data: &Dataset) -> Result<SynthesisSession> {
        let bkt = acs_bucketizer(&acs_schema());
        SynthesisEngine::from_config(config).train(data, &bkt)
    }

    /// One release of `config.target_synthetics` records seeded with the
    /// configuration seed: what a single-request caller asks a session for.
    fn release_once(config: PipelineConfig, data: &Dataset) -> crate::ReleaseReport {
        let session = train(config, data).unwrap();
        let request = GenerateRequest::new(config.target_synthetics).with_seed(config.seed);
        session.generate(&request).unwrap()
    }

    #[test]
    fn end_to_end_pipeline_releases_valid_records() {
        let data = generate_acs(4000, 1);
        let report = release_once(small_config(50), &data);
        assert!(!report.synthetics.is_empty());
        assert!(report.synthetics.len() <= 50);
        for r in report.synthetics.records() {
            data.schema().validate_values(r.values()).unwrap();
        }
        assert!(report.stats.candidates >= report.stats.released);
        assert!(report.stats.pass_rate() > 0.0);
        assert!(report.ledger.per_release.is_some());
        assert!(report.synthesis > Duration::ZERO);
    }

    #[test]
    fn deterministic_test_pipeline_reports_no_release_budget() {
        let data = generate_acs(3000, 2);
        let mut config = small_config(20);
        config.privacy_test =
            PrivacyTestConfig::deterministic(20, 4.0).with_limits(Some(40), Some(2000));
        let report = release_once(config, &data);
        assert!(report.per_release.is_none());
        assert!(report.ledger.per_release.is_none());
        assert!(report.ledger.total().epsilon.is_infinite());
    }

    #[test]
    fn random_omega_range_is_accepted() {
        let data = generate_acs(3000, 3);
        let mut config = small_config(20);
        config.omega = OmegaSpec::UniformRange { lo: 9, hi: 11 };
        assert!(!release_once(config, &data).synthetics.is_empty());
    }

    #[test]
    fn multi_worker_generation_matches_single_worker_count() {
        let data = generate_acs(3000, 4);
        let mut config = small_config(30);
        config.workers = 3;
        let report = release_once(config, &data);
        assert!(report.synthetics.len() <= 30);
        assert!(!report.synthetics.is_empty());
        // Release accounting must stay exact even when several workers race
        // for the last slots near the target.
        assert_eq!(report.synthetics.len(), report.stats.released);
        assert!(report.stats.released <= report.stats.candidates);
        config.workers = 1;
        let single = release_once(config, &data);
        assert_eq!(report.synthetics.records(), single.synthetics.records());
    }

    #[test]
    fn explicit_split_releases_through_the_scan_oracle() {
        // Models learned from an explicit split release over that split's
        // seeds through the scan oracle, which never consults an index.
        let data = generate_acs(3000, 6);
        let bkt = acs_bucketizer(&acs_schema());
        let config = small_config(10);
        let split = sgf_data::split_dataset_by_hash(&data, &config.split, 6).unwrap();
        let models = learn_models(&config, &split, &bkt).unwrap();
        let synthesizer = SeedSynthesizer::new(Arc::clone(&models.cpts), 9).unwrap();
        let mechanism = Mechanism::new(&synthesizer, &split.seeds, config.privacy_test).unwrap();
        assert_eq!(mechanism.store_kind(), "scan");
        let (released, stats) = mechanism.release(10, 300, config.seed).unwrap();
        assert_eq!(stats.index_tests, 0, "no session index exists");
        assert_eq!(stats.scan_tests, stats.candidates);
        assert!(released.len() <= 10);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let data = generate_acs(500, 5);
        let mut config = small_config(0);
        assert!(train(config, &data).is_err());
        config = small_config(10);
        config.workers = 0;
        assert!(train(config, &data).is_err());
        config = small_config(10);
        config.omega = OmegaSpec::Fixed(99);
        assert!(train(config, &data).is_err());
        // Seed dataset smaller than k.
        config = small_config(10);
        config.privacy_test = PrivacyTestConfig::deterministic(100_000, 4.0);
        assert!(matches!(
            train(config, &data),
            Err(CoreError::DatasetTooSmall { .. })
        ));
        // A bucketizer covering more values than the schema's domains.
        let wider = sgf_data::Schema::new(
            data.schema()
                .attributes()
                .iter()
                .map(|a| sgf_data::Attribute::categorical_anon(a.name(), a.cardinality() + 1))
                .collect(),
        )
        .unwrap();
        let engine = SynthesisEngine::from_config(small_config(10));
        assert!(engine.train(&data, &Bucketizer::identity(&wider)).is_err());
        let bkt = acs_bucketizer(&acs_schema());
        assert!(engine.train(&data, &bkt).is_ok());
    }
}
