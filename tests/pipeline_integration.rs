//! Cross-crate integration tests: the full pipeline from population generation
//! through model learning, plausible-deniability release, and evaluation.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sgf::core::{
    learn_models, satisfies_plausible_deniability, GenerateRequest, Mechanism, PipelineConfig,
    PrivacyTestConfig, ReleaseReport, SynthesisEngine, SynthesisSession,
};
use sgf::data::acs::{acs_bucketizer, acs_schema, generate_acs};
use sgf::data::Dataset;
use sgf::index::PrefixIndexStore;
use sgf::model::{OmegaSpec, SeedSynthesizer};
use std::sync::Arc;

fn small_config(target: usize, seed: u64) -> PipelineConfig {
    let mut config = PipelineConfig::paper_defaults(target);
    config.privacy_test =
        PrivacyTestConfig::randomized(20, 4.0, 1.0).with_limits(Some(40), Some(2_000));
    config.max_candidate_factor = 30;
    config.seed = seed;
    config
}

/// Train a session on `population` and serve one request for the configured
/// target, seeded with the configuration seed.
fn release_once(config: PipelineConfig, population: &Dataset) -> (SynthesisSession, ReleaseReport) {
    let bucketizer = acs_bucketizer(&acs_schema());
    let session = SynthesisEngine::from_config(config)
        .train(population, &bucketizer)
        .unwrap();
    let request = GenerateRequest::new(config.target_synthetics).with_seed(config.seed);
    let report = session.generate(&request).unwrap();
    (session, report)
}

/// Deterministic end-to-end smoke test on a small population: fixed seeds all
/// the way down, so every run of the suite exercises the identical pipeline
/// trace and checks the pass-rate / synthetic-count bookkeeping invariants.
#[test]
fn deterministic_smoke_run_upholds_count_and_pass_rate_invariants() {
    let population = generate_acs(3_000, 42);
    let config = small_config(25, 42);
    let run = || release_once(config, &population).1;
    let result = run();

    // Count invariants: the mechanism releases at most the target, never more
    // than it proposed, and proposes no more than the candidate cap.
    assert!(!result.synthetics.is_empty());
    assert!(result.synthetics.len() <= 25);
    assert_eq!(result.synthetics.len(), result.stats.released);
    assert!(result.stats.released <= result.stats.candidates);
    assert!(result.stats.candidates <= 25 * config.max_candidate_factor);

    // Pass-rate invariants: consistent with the raw counters and in (0, 1].
    let pass_rate = result.stats.pass_rate();
    assert!(pass_rate > 0.0 && pass_rate <= 1.0);
    assert!(
        (pass_rate - result.stats.released as f64 / result.stats.candidates as f64).abs() < 1e-12
    );
    // Every privacy test examined at least one seed record per candidate.
    assert!(result.stats.records_examined >= result.stats.candidates);

    // Determinism: an identical configuration reproduces the exact trace.
    let again = run();
    assert_eq!(result.synthetics.records(), again.synthetics.records());
    assert_eq!(result.stats.candidates, again.stats.candidates);
    assert_eq!(result.stats.released, again.stats.released);
    assert_eq!(result.stats.records_examined, again.stats.records_examined);
}

#[test]
fn end_to_end_release_respects_schema_and_budget() {
    let population = generate_acs(5_000, 1);
    let (_, result) = release_once(small_config(60, 1), &population);

    assert!(!result.synthetics.is_empty());
    assert!(result.synthetics.len() <= 60);
    for record in result.synthetics.records() {
        population
            .schema()
            .validate_values(record.values())
            .unwrap();
    }
    // Randomized test => a finite per-release (epsilon, delta) bound exists.
    let per_release = result
        .per_release
        .expect("randomized test provides a DP bound");
    assert!(per_release.epsilon.is_finite() && per_release.epsilon > 0.0);
    assert!(per_release.delta > 0.0 && per_release.delta < 1e-3);
    // The end-to-end total composes over the released records.
    let total = result.ledger.total();
    assert!(total.epsilon >= per_release.epsilon);
}

#[test]
fn pipeline_is_reproducible_for_a_fixed_seed() {
    let population = generate_acs(4_000, 2);
    let (_, a) = release_once(small_config(30, 7), &population);
    let (_, b) = release_once(small_config(30, 7), &population);
    assert_eq!(a.synthetics.records(), b.synthetics.records());
    let (_, c) = release_once(small_config(30, 8), &population);
    assert_ne!(a.synthetics.records(), c.synthetics.records());
}

#[test]
fn released_records_satisfy_the_deniability_criterion() {
    // Use the deterministic test directly so the released candidates can be
    // checked against Definition 1 (Privacy Test 1 is strictly stronger).
    let population = generate_acs(5_000, 3);
    let bucketizer = acs_bucketizer(&acs_schema());
    let mut rng = StdRng::seed_from_u64(3);
    let split =
        sgf::data::split_dataset_by_hash(&population, &sgf::data::SplitSpec::paper_defaults(), 3)
            .unwrap();
    let models = learn_models(&small_config(10, 3), &split, &bucketizer).unwrap();
    let synthesizer = SeedSynthesizer::new(Arc::clone(&models.cpts), 9).unwrap();

    let k = 15;
    let gamma = 4.0;
    let test = PrivacyTestConfig::deterministic(k, gamma);
    // The scan oracle, and the σ-prefix store every session release takes:
    // uncapped (the closed-form count) and with a `max_check_plausible` cap
    // below the seed count (the count drawn from its hypergeometric law).
    // The checker recomputes each plausible set from model
    // probabilities, independently of either store.
    let prefix = PrefixIndexStore::build(&split.seeds, synthesizer.sigma()).unwrap();
    let capped = test.with_limits(None, Some(split.seeds.len() / 2));
    let mechanisms = [
        Mechanism::new(&synthesizer, &split.seeds, test).unwrap(),
        Mechanism::with_store(&synthesizer, &split.seeds, &prefix, test).unwrap(),
        Mechanism::with_store(&synthesizer, &split.seeds, &prefix, capped).unwrap(),
    ];

    for mechanism in &mechanisms {
        let mut checked = 0;
        for _ in 0..200 {
            let report = mechanism.propose(&mut rng).unwrap();
            // A prefix test is one range lookup, never a fallback scan.
            assert_eq!(
                report.outcome.via_classes,
                mechanism.store_kind() == "prefix"
            );
            if report.released() {
                let seed = split.seeds.record(report.seed_index);
                assert!(
                    satisfies_plausible_deniability(
                        &synthesizer,
                        &split.seeds,
                        seed,
                        &report.record,
                        k,
                        gamma
                    )
                    .unwrap(),
                    "released record must satisfy ({k}, {gamma})-plausible deniability \
                     through the {} store",
                    mechanism.store_kind()
                );
                checked += 1;
                if checked >= 10 {
                    break;
                }
            }
        }
        assert!(
            checked > 0,
            "at least one candidate should have been released through the {} store",
            mechanism.store_kind()
        );
    }
}

#[test]
fn synthetics_preserve_pairwise_structure_better_than_marginals() {
    let population = generate_acs(16_000, 4);
    let mut config = small_config(800, 4);
    config.omega = OmegaSpec::Fixed(9);
    let (session, result) = release_once(config, &population);
    assert!(
        result.synthetics.len() >= 400,
        "need enough synthetics for a stable comparison"
    );

    let mut rng = StdRng::seed_from_u64(4);
    let marginal_data = session
        .models()
        .marginal
        .sample_dataset(result.synthetics.len(), &mut rng);

    // Restrict to pairs of moderate-cardinality attributes: with the reduced
    // training-set sizes used in CI, the Dirichlet smoothing of the CPTs for
    // very wide attributes (AGE: 80 values, WKHP: 100 values) dominates the
    // total-variation distance and obscures the correlation-preservation
    // signal Figure 4 is about.  (The full-scale experiment binary `fig4`
    // compares all pairs.)
    let schema = population.schema();
    let moderate: Vec<usize> = (0..schema.len())
        .filter(|&a| schema.cardinality(a) <= 25)
        .collect();
    let mean_pair_distance = |candidate: &sgf::data::Dataset| -> f64 {
        let mut total = 0.0;
        let mut pairs = 0usize;
        for (idx, &i) in moderate.iter().enumerate() {
            for &j in &moderate[idx + 1..] {
                let reference =
                    sgf::stats::JointHistogram::from_columns(&session.split().test, i, j);
                let cand = sgf::stats::JointHistogram::from_columns(candidate, i, j);
                total +=
                    sgf::stats::total_variation(&reference.probabilities(), &cand.probabilities());
                pairs += 1;
            }
        }
        total / pairs as f64
    };
    let synthetic_pairs = mean_pair_distance(&result.synthetics);
    let marginal_pairs = mean_pair_distance(&marginal_data);
    assert!(
        synthetic_pairs < marginal_pairs,
        "synthetics ({synthetic_pairs:.3}) should preserve pairs better than marginals ({marginal_pairs:.3})"
    );
}

#[test]
fn marginal_model_candidates_always_pass_the_test() {
    // For a seed-independent model every record is an equally plausible seed,
    // so the deterministic test passes whenever |D| >= k (Section 8).
    let population = generate_acs(2_000, 5);
    let marginal =
        sgf::model::MarginalModel::learn(&population, sgf::model::MarginalConfig::default())
            .unwrap();
    let test = PrivacyTestConfig::deterministic(100, 4.0);
    let mechanism = Mechanism::new(&marginal, &population, test).unwrap();
    let (released, stats) = mechanism.release(30, 30, 5).unwrap();
    assert_eq!(released.len(), 30);
    assert!((stats.pass_rate() - 1.0).abs() < 1e-12);
}
