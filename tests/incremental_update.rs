//! Property-based equivalence of incremental session updates: random delta
//! sequences — empty, insert-only, delete-only, mixed, and full-replacement
//! deltas — chained through `SynthesisSession::update` must leave the session
//! byte-identical to a from-scratch `train` on the canonical final dataset:
//! same split subsets, same learned structure (including the re-learn path,
//! which fires whenever the delta touches `D_T`), same CPTs, marginals, and
//! sufficient statistics, same posting lists and equivalence classes, and
//! byte-identical releases for identically-seeded requests.

use proptest::prelude::*;
use sgf::core::{GenerateRequest, PipelineConfig, PrivacyTestConfig, SynthesisEngine};
use sgf::data::acs::{acs_bucketizer, acs_schema, generate_acs};
use sgf::data::{Dataset, DatasetDelta};
use sgf::model::OmegaSpec;

fn small_config(seed: u64) -> PipelineConfig {
    let mut config = PipelineConfig::paper_defaults(1);
    config.privacy_test =
        PrivacyTestConfig::randomized(20, 4.0, 1.0).with_limits(Some(40), Some(2_000));
    config.omega = OmegaSpec::Fixed(9);
    config.max_candidate_factor = 30;
    config.seed = seed;
    config
}

/// Deterministic index picker (splitmix-style) so delete targets are spread
/// through the dataset without consuming a proptest strategy per index.
fn pick_indices(len: usize, count: usize, mut state: u64) -> Vec<usize> {
    let mut indices = std::collections::BTreeSet::new();
    for _ in 0..count {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        indices.insert((state % len.max(1) as u64) as usize);
    }
    indices.into_iter().collect()
}

/// Stage `count` deletions spread through the current dataset.  Distinct
/// indices may hold equal values; deleting both is still valid because each
/// occurrence contributes one multiplicity (Z-set semantics).
fn delete_spread(delta: &mut DatasetDelta, current: &Dataset, count: usize, salt: u64) {
    for index in pick_indices(current.len(), count, salt) {
        delta
            .delete(current.record(index).clone())
            .expect("in-domain record deletes cleanly");
    }
}

/// Build one delta of the given shape against the current dataset.
fn delta_of_shape(current: &Dataset, shape: usize, salt: u64) -> DatasetDelta {
    let mut delta = DatasetDelta::new(current.schema_arc());
    match shape {
        // Empty: an epoch bump with no data change.
        0 => {}
        // Insert-only.
        1 => {
            for record in generate_acs(8, salt ^ 0xA5A5).records() {
                delta.insert(record.clone()).unwrap();
            }
        }
        // Delete-only.
        2 => delete_spread(&mut delta, current, 6, salt),
        // Mixed.
        3 => {
            delete_spread(&mut delta, current, 5, salt);
            for record in generate_acs(7, salt ^ 0x5A5A).records() {
                delta.insert(record.clone()).unwrap();
            }
        }
        // Full replacement: retract every current record, insert a fresh
        // population.  Exercises the splice-vs-rebuild crossover and the
        // structure re-learn path with certainty.
        _ => {
            for record in current.records() {
                delta.delete(record.clone()).unwrap();
            }
            for record in generate_acs(1_800, salt ^ 0x3C3C).records() {
                delta.insert(record.clone()).unwrap();
            }
        }
    }
    delta
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole invariant under random delta sequences: after 1–3 chained
    /// updates of arbitrary shapes, the session is indistinguishable from a
    /// from-scratch retrain on the canonical final dataset.
    #[test]
    fn chained_updates_match_a_from_scratch_retrain(
        data_seed in 0u64..1_000,
        shapes in proptest::collection::vec(0usize..5, 1..4),
        change_seed in any::<u64>(),
        request_seed in any::<u64>(),
    ) {
        let bucketizer = acs_bucketizer(&acs_schema());
        let mut current = generate_acs(2_000, data_seed);
        let session = SynthesisEngine::from_config(small_config(data_seed))
            .train(&current, &bucketizer)
            .unwrap();
        prop_assert_eq!(session.epoch(), 0);

        let mut updated = session;
        for (step, &shape) in shapes.iter().enumerate() {
            let salt = change_seed ^ (step as u64).wrapping_mul(0x9E3779B97F4A7C15);
            let delta = delta_of_shape(&current, shape, salt);
            current = delta.apply(&current).unwrap();
            updated = updated.update(&delta).unwrap();
            prop_assert_eq!(updated.epoch(), step as u64 + 1);
        }

        let fresh = SynthesisEngine::from_config(small_config(data_seed))
            .train(&current, &bucketizer)
            .unwrap();

        // The hash split commutes with every delta: all four subsets match.
        prop_assert_eq!(
            updated.split().structure.records(),
            fresh.split().structure.records()
        );
        prop_assert_eq!(
            updated.split().parameters.records(),
            fresh.split().parameters.records()
        );
        prop_assert_eq!(updated.split().seeds.records(), fresh.split().seeds.records());
        prop_assert_eq!(updated.split().test.records(), fresh.split().test.records());

        // Models and their summable sufficient statistics are bit-identical —
        // including the structure graph, which re-learned from merged counts
        // whenever a delta touched `D_T`.
        prop_assert_eq!(
            &updated.models().structure.graph,
            &fresh.models().structure.graph
        );
        prop_assert_eq!(
            &updated.models().structure.correlations,
            &fresh.models().structure.correlations
        );
        prop_assert_eq!(&*updated.models().cpts, &*fresh.models().cpts);
        prop_assert_eq!(&updated.models().marginal, &fresh.models().marginal);
        prop_assert_eq!(
            &updated.models().structure_counts,
            &fresh.models().structure_counts
        );
        prop_assert_eq!(
            &updated.models().marginal_counts,
            &fresh.models().marginal_counts
        );

        // Every store equals a scratch build: the prefix store splices while
        // σ holds and re-sorts when a relearn changes it, and each epoch
        // builds its own posting lists and equivalence classes.
        prop_assert_eq!(updated.prefix_store(), fresh.prefix_store());
        prop_assert_eq!(updated.seed_store(), fresh.seed_store());
        prop_assert_eq!(updated.partition_store(), fresh.partition_store());

        // Identically-seeded requests release byte-identical records, with
        // the epoch stamped into provenance.
        let request = GenerateRequest::new(10).with_seed(request_seed);
        let a = updated.generate(&request).unwrap();
        let b = fresh.generate(&request).unwrap();
        prop_assert_eq!(a.synthetics.records(), b.synthetics.records());
        prop_assert_eq!(a.stats.released, b.stats.released);
        prop_assert_eq!(a.provenance.epoch, shapes.len() as u64);
        prop_assert_eq!(b.provenance.epoch, 0);
    }
}

/// Deterministic witness that the proptest's equivalence includes the
/// structure re-learn path: a bulk insert certainly lands records in `D_T`
/// (hash split, 64 inserts), the counts merge, the structure re-learns from
/// them, and the result still matches the from-scratch retrain bit for bit.
#[test]
fn bulk_inserts_exercise_the_structure_relearn_path() {
    let bucketizer = acs_bucketizer(&acs_schema());
    let data = generate_acs(2_400, 61);
    let session = SynthesisEngine::from_config(small_config(61))
        .train(&data, &bucketizer)
        .unwrap();

    let mut delta = DatasetDelta::new(data.schema_arc());
    for record in generate_acs(64, 62).records() {
        delta.insert(record.clone()).unwrap();
    }
    let updated = session.update(&delta).unwrap();
    let final_data = delta.apply(&data).unwrap();
    let fresh = SynthesisEngine::from_config(small_config(61))
        .train(&final_data, &bucketizer)
        .unwrap();

    assert!(
        updated.split().structure.len() > session.split().structure.len(),
        "64 hash-routed inserts must land at least one record in D_T"
    );
    assert_eq!(
        updated.models().structure_counts,
        fresh.models().structure_counts
    );
    assert_eq!(
        updated.models().structure.graph,
        fresh.models().structure.graph
    );
    assert_eq!(
        updated.models().structure.correlations,
        fresh.models().structure.correlations
    );
    assert_eq!(*updated.models().cpts, *fresh.models().cpts);
    assert_eq!(updated.prefix_store(), fresh.prefix_store());
}

/// A long chain of size-neutral updates, each followed by a generate so the
/// next update carries filled CPT rows: the split subsets are roped through
/// dozens of run splits and several compactions, and every carried row must
/// still equal the one a from-scratch retrain materializes.
#[test]
fn long_update_chains_match_a_retrain_row_for_row() {
    let bucketizer = acs_bucketizer(&acs_schema());
    let mut current = generate_acs(2_000, 71);
    let mut session = SynthesisEngine::from_config(small_config(71))
        .train(&current, &bucketizer)
        .unwrap();
    let mut carried_steps = 0;
    for step in 0..160u64 {
        let mut delta = DatasetDelta::new(current.schema_arc());
        delete_spread(
            &mut delta,
            &current,
            10,
            step.wrapping_mul(0x9E37_79B9) ^ 71,
        );
        for record in generate_acs(10, 10_000 + step).records() {
            delta.insert(record.clone()).unwrap();
        }
        current = delta.apply(&current).unwrap();
        session = session.update(&delta).unwrap();
        if session.models().cpts.cached_configurations() > 0 {
            carried_steps += 1;
        }
        session
            .generate(&GenerateRequest::new(2).with_seed(step))
            .unwrap();
    }
    // An update that re-learns the structure learns the CPTs afresh.
    assert!(carried_steps >= 80, "{carried_steps} updates carried rows");
    let fresh = SynthesisEngine::from_config(small_config(71))
        .train(&current, &bucketizer)
        .unwrap();

    let (updated, fresh_split) = (session.split(), fresh.split());
    assert_eq!(updated.structure.records(), fresh_split.structure.records());
    assert_eq!(
        updated.parameters.records(),
        fresh_split.parameters.records()
    );
    assert_eq!(updated.seeds.records(), fresh_split.seeds.records());
    assert_eq!(updated.test.records(), fresh_split.test.records());

    let (cpts, fresh_cpts) = (&session.models().cpts, &fresh.models().cpts);
    assert_eq!(**cpts, **fresh_cpts);
    for attr in 0..acs_schema().len() {
        for configuration in 0..cpts.configurations(attr) {
            let (row, fresh_row) = (
                cpts.conditional(attr, configuration),
                fresh_cpts.conditional(attr, configuration),
            );
            assert!(
                row.iter()
                    .map(|p| p.to_bits())
                    .eq(fresh_row.iter().map(|p| p.to_bits())),
                "attribute {attr}, configuration {configuration}"
            );
        }
    }

    let request = GenerateRequest::new(10).with_seed(7);
    let a = session.generate(&request).unwrap();
    let b = fresh.generate(&request).unwrap();
    assert_eq!(a.synthetics.records(), b.synthetics.records());
    assert_eq!(a.stats.released, b.stats.released);
}
