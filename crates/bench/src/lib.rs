//! Shared experiment context for the table/figure reproduction binaries.
//!
//! Every binary accepts an optional positional argument `scale` (default 1):
//! the synthetic-ACS population size and the number of released synthetics are
//! multiplied by it, so `cargo run --release -p bench --bin table3 -- 4` runs
//! a 4x larger experiment.  The defaults are sized for a single-core machine.

pub mod track;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sgf_core::{
    BudgetLedger, GenerateRequest, PipelineConfig, PrivacyTestConfig, SynthesisEngine,
    TrainedModels,
};
use sgf_data::acs::{acs_bucketizer, acs_schema, generate_acs};
use sgf_data::{Bucketizer, DataSplit, Dataset};
use sgf_model::OmegaSpec;

/// Base population size at scale 1.
pub const BASE_POPULATION: usize = 12_000;
/// Base number of synthetics released per ω setting at scale 1.
pub const BASE_SYNTHETICS: usize = 1_500;

/// Whether smoke mode is active (`SGF_SMOKE=1`, set by `scripts/repro.sh`):
/// every binary runs the full code path at a fraction of the full-scale
/// parameters, so the whole artifact suite finishes in CI-friendly time.
pub fn smoke_mode() -> bool {
    std::env::var("SGF_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Population size at scale 1 (reduced in smoke mode).
pub fn base_population() -> usize {
    if smoke_mode() {
        3_000
    } else {
        BASE_POPULATION
    }
}

/// Synthetics per ω setting at scale 1 (reduced in smoke mode).
pub fn base_synthetics() -> usize {
    if smoke_mode() {
        120
    } else {
        BASE_SYNTHETICS
    }
}

/// Parse the scale factor from the command line (first positional argument).
pub fn scale_from_args() -> usize {
    std::env::args()
        .nth(1)
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&s| s > 0)
        .unwrap_or(1)
}

/// Everything the experiment binaries need: the split population, the trained
/// models, and synthetic datasets for the paper's ω settings.
pub struct ExperimentContext {
    /// The generated ACS-like population.
    pub population: Dataset,
    /// The bucketizer used for structure learning.
    pub bucketizer: Bucketizer,
    /// The disjoint split of the population.
    pub split: DataSplit,
    /// The trained models (structure, CPTs, marginals).
    pub models: TrainedModels,
    /// Labelled synthetic datasets, one per ω setting (plus the marginals).
    pub synthetic_sets: Vec<(String, Dataset)>,
    /// The pipeline configuration that produced them.
    pub config: PipelineConfig,
    /// Cumulative privacy ledger over every ω request served by the session.
    pub ledger: BudgetLedger,
}

/// The ω settings used throughout the evaluation section.
pub fn paper_omegas() -> Vec<OmegaSpec> {
    vec![
        OmegaSpec::Fixed(11),
        OmegaSpec::Fixed(10),
        OmegaSpec::Fixed(9),
        OmegaSpec::UniformRange { lo: 9, hi: 11 },
        OmegaSpec::UniformRange { lo: 5, hi: 11 },
    ]
}

/// Default pipeline configuration used by the experiments: k = 50, γ = 4,
/// ε0 = 1, randomized privacy test, early-termination knobs as in Section 6.5.
pub fn experiment_pipeline_config(target: usize, seed: u64) -> PipelineConfig {
    let mut config = PipelineConfig::paper_defaults(target);
    config.privacy_test =
        PrivacyTestConfig::randomized(50, 4.0, 1.0).with_limits(Some(100), Some(5_000));
    config.max_candidate_factor = 12;
    config.seed = seed;
    config
}

/// Build the full experiment context at the given scale: train one session,
/// then serve one `generate` request per ω setting from the same models.
pub fn build_context(scale: usize, seed: u64) -> ExperimentContext {
    let population = generate_acs(base_population() * scale, seed);
    let bucketizer = acs_bucketizer(&acs_schema());

    let target = base_synthetics() * scale;
    let config = experiment_pipeline_config(target, seed);
    let session = SynthesisEngine::from_config(config)
        .train(&population, &bucketizer)
        .expect("model learning on the generated population succeeds");

    let mut synthetic_sets = Vec::new();
    // Marginal baseline dataset of the same size.
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1));
    let marginal_data = session.models().marginal.sample_dataset(target, &mut rng);
    synthetic_sets.push(("marginals".to_string(), marginal_data));

    for omega in paper_omegas() {
        let report = session
            .generate(
                &GenerateRequest::new(target)
                    .with_omega(omega)
                    .with_seed(seed),
            )
            .expect("synthesis succeeds");
        synthetic_sets.push((omega.label(), report.synthetics));
    }

    let (split, models, ledger) = session.into_parts();
    ExperimentContext {
        population,
        bucketizer,
        split,
        models,
        synthetic_sets,
        config,
        ledger,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_omegas_cover_the_evaluation_settings() {
        let omegas = paper_omegas();
        assert_eq!(omegas.len(), 5);
        assert!(omegas.contains(&OmegaSpec::Fixed(9)));
    }
}
