//! The privacy tests of Section 2.
//!
//! * **Privacy Test 1** (deterministic, `T`): locate the seed's partition
//!   `i = I_d(y)` and count how many records of the dataset fall into the same
//!   partition (the plausible seeds `k'`); pass iff `k' ≥ k`.
//! * **Privacy Test 2** (randomized, `T_{ε0}`): identical, except the
//!   threshold is `k̃ = k + Lap(1/ε0)` — the randomization that upgrades the
//!   mechanism to (ε, δ)-differential privacy (Theorem 1).
//!
//! Both tests support the implementation-level early-termination knobs of
//! Section 5 (`max_plausible`, `max_check_plausible`): counting stops as soon
//! as enough plausible seeds were found, and only the plausible seeds of a
//! random subset of the dataset may count.  These knobs trade generation
//! throughput against the fraction of candidates that pass; they never weaken
//! the privacy guarantee because a candidate that terminates early without
//! reaching the threshold is simply rejected.
//!
//! The stopping rule is one number, the count's `limit`: the smallest
//! `p ≥ 1` with `p ≥ threshold` or `p ≥ max(max_plausible, k)`.  Every path
//! reports `min(|plausible ∩ examined|, limit)`, a count that does not depend
//! on the order the seeds are visited in.
//!
//! ## Seed stores and decision equivalence
//!
//! [`run_with_store`] runs the same test against any [`SeedStore`]: the store
//! returns a sound superset of the records that can plausibly have generated
//! the candidate, and the exact γ-partition check runs only on the survivors.
//! The test is engineered so that **every store yields the same accept/reject
//! decision, plausible-seed count, and RNG stream** for the same inputs:
//!
//! * the pass/fail decision depends only on the *set* of eligible records
//!   (never on visit order), because counting stops at a fixed count
//!   threshold and skipped records are provably non-plausible;
//! * a `max_check_plausible` cap below the seed count examines a uniform
//!   random `cap`-subset of the seeds, whose plausible count has a known law:
//!   `min(H, limit)` with `H ~ Hypergeometric(n, cap, K)` and `K` the number
//!   of plausible seeds.  Under a cap every store counts `K` exactly, with no
//!   stop at the limit, and draws the count from that law by inversion
//!   ([`sample_capped_hypergeometric`]): one uniform word, or none when
//!   `(n, cap, K, limit)` make the count certain, and O(1) work when the
//!   limit lies below the law's mode;
//! * a store that can count the exact plausible set
//!   ([`SeedStore::prefix_count`]) skips the model entirely: `K` is the
//!   length of one range of its sorted σ-tuples, and no seed is named.  The
//!   partition store's classes add their member counts.

use crate::deniability::{partition_index, validate_parameters};
use crate::error::{CoreError, Result};
use rand::Rng;
use serde::{Deserialize, Serialize};
use sgf_data::{Dataset, Record};
use sgf_index::{LinearScanStore, SeedStore};
use sgf_model::GenerativeModel;
use sgf_stats::{sample_capped_hypergeometric, Laplace};

/// Configuration of the privacy test.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrivacyTestConfig {
    /// Plausible-deniability parameter k: minimum number of plausible seeds.
    pub k: usize,
    /// Indistinguishability parameter γ > 1.
    pub gamma: f64,
    /// Randomization parameter ε0 of Privacy Test 2; `None` selects the
    /// deterministic Privacy Test 1.
    pub epsilon0: Option<f64>,
    /// Stop counting once this many plausible seeds were found
    /// (the tool's `max_plausible`; `None` = count until the threshold).
    pub max_plausible: Option<usize>,
    /// Count the plausible seeds among a uniform random subset of this many
    /// seed records (the tool's `max_check_plausible`; `None` = the whole
    /// dataset).  The count is drawn from its exact law once the plausible
    /// seeds are counted, so the cap bounds no work: the prefix store answers
    /// with one range lookup either way.
    pub max_check_plausible: Option<usize>,
}

impl PrivacyTestConfig {
    /// Deterministic Privacy Test 1 with the given parameters.
    pub fn deterministic(k: usize, gamma: f64) -> Self {
        PrivacyTestConfig {
            k,
            gamma,
            epsilon0: None,
            max_plausible: None,
            max_check_plausible: None,
        }
    }

    /// Randomized Privacy Test 2 with the given parameters.
    pub fn randomized(k: usize, gamma: f64, epsilon0: f64) -> Self {
        PrivacyTestConfig {
            k,
            gamma,
            epsilon0: Some(epsilon0),
            max_plausible: None,
            max_check_plausible: None,
        }
    }

    /// Builder-style setter for the early-termination knobs of Section 5.
    pub fn with_limits(
        mut self,
        max_plausible: Option<usize>,
        max_check_plausible: Option<usize>,
    ) -> Self {
        self.max_plausible = max_plausible;
        self.max_check_plausible = max_check_plausible;
        self
    }

    /// Validate all parameters.
    pub fn validate(&self) -> Result<()> {
        validate_parameters(self.k, self.gamma)?;
        if let Some(eps) = self.epsilon0 {
            if !(eps.is_finite() && eps > 0.0) {
                return Err(CoreError::InvalidParameter(format!(
                    "epsilon0 must be positive and finite, got {eps}"
                )));
            }
        }
        if self.max_plausible == Some(0) {
            return Err(CoreError::InvalidParameter(
                "max_plausible must be at least 1".into(),
            ));
        }
        if self.max_check_plausible == Some(0) {
            return Err(CoreError::InvalidParameter(
                "max_check_plausible must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// The outcome of running a privacy test on one candidate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TestOutcome {
    /// Whether the candidate may be released.
    pub passed: bool,
    /// The partition index `i = I_d(y)` of the seed, if the seed can generate
    /// the candidate at all.
    pub seed_partition: Option<u32>,
    /// Number of plausible seeds counted before the test stopped.
    pub plausible_seeds: usize,
    /// Number of dataset records examined (model-probability evaluations).
    pub records_examined: usize,
    /// The (possibly noisy) threshold the count was compared against.
    pub threshold: f64,
    /// Whether an indexed seed store narrowed the candidate set for this test
    /// (`false` for the full scan).
    pub via_index: bool,
    /// Whether the test counted whole likelihood-equivalence classes (one
    /// model evaluation per class, members counted with multiplicity) rather
    /// than individual records.  Implies nothing about `via_index`: class
    /// counting is a third, coarser granularity.  A prefix-store range
    /// lookup counts as one class with no model evaluation.
    pub via_classes: bool,
    /// Class-match cache consultation for this test: `None` when no cache
    /// was in play (no cache attached to the store, or the model does not
    /// qualify), `Some(true)` when the per-class match row was served from
    /// the session cache, `Some(false)` when this test computed (and stored)
    /// it.  Purely observational — decisions, counts, and the RNG stream are
    /// identical either way (see `sgf_index::ClassMatchCache`).
    pub cache_hit: Option<bool>,
}

/// Run the privacy test on the tuple `(M, D, d, y)` with the given
/// configuration, scanning the full seed dataset (the baseline store).
///
/// The dataset `D` here is the seed dataset the mechanism samples from
/// (`D_S`), and `d` must be the seed that generated `y`.
pub fn run_privacy_test<M, R>(
    model: &M,
    dataset: &Dataset,
    seed: &Record,
    y: &Record,
    config: &PrivacyTestConfig,
    rng: &mut R,
) -> Result<TestOutcome>
where
    M: GenerativeModel + ?Sized,
    R: Rng + ?Sized,
{
    let scan = LinearScanStore::new(dataset);
    run_with_store(model, dataset, &scan, seed, y, config, rng)
}

/// Run the privacy test against an explicit [`SeedStore`].
///
/// The store must index exactly the records of `dataset` (same length, same
/// order).  For any store, the accept/reject decision, the plausible-seed
/// count, and the randomness consumed are identical to the full scan; only
/// `records_examined` — the number of model-probability evaluations — shrinks
/// when the store prunes non-plausible records (see the module docs).
pub fn run_with_store<M, R>(
    model: &M,
    dataset: &Dataset,
    store: &dyn SeedStore,
    seed: &Record,
    y: &Record,
    config: &PrivacyTestConfig,
    rng: &mut R,
) -> Result<TestOutcome>
where
    M: GenerativeModel + ?Sized,
    R: Rng + ?Sized,
{
    config.validate()?;
    if dataset.len() < config.k {
        return Err(CoreError::DatasetTooSmall {
            available: dataset.len(),
            required: config.k,
        });
    }
    if store.len() != dataset.len() {
        return Err(CoreError::InvalidParameter(format!(
            "seed store indexes {} records but the seed dataset has {}",
            store.len(),
            dataset.len()
        )));
    }

    // Step 1 (Test 2 only): randomize the threshold with fresh Laplace noise.
    let threshold = match config.epsilon0 {
        None => config.k as f64,
        Some(eps) => config.k as f64 + Laplace::new(1.0 / eps).sample(rng),
    };

    // Step 2: the seed's partition.  A seed that cannot generate y at all
    // (probability 0) has no partition and the candidate is rejected.
    let p_seed = model.probability(seed, y);
    let seed_partition = match partition_index(p_seed, config.gamma) {
        Some(i) => i,
        None => {
            return Ok(TestOutcome {
                passed: false,
                seed_partition: None,
                plausible_seeds: 0,
                records_examined: 0,
                threshold,
                via_index: false,
                via_classes: false,
                cache_hit: None,
            })
        }
    };

    // Step 3: count the plausible seeds `K`, stopping at the limit.  Under a
    // `max_check_plausible` cap below the seed count, count `K` in full and
    // draw the count of a uniform cap-subset from its law instead: the draw
    // depends on (n, cap, K, limit) alone, so every store consumes the same
    // randomness.  Without a cap the count is a set cardinality and draws
    // nothing.
    let limit = count_limit(threshold, config.max_plausible.map(|mp| mp.max(config.k)));
    let cap = config
        .max_check_plausible
        .filter(|&cap| cap < dataset.len());
    let stop = if cap.is_some() { usize::MAX } else { limit };

    let (plausible, records_examined, via_index, via_classes, cache_hit) = if let Some(count) =
        store.prefix_count(
            y,
            model.likelihood_attributes(),
            model.exact_match_attributes(),
        ) {
        // Range fast path: the prefix store counts the exact plausible set
        // (every member shares the seed's probability, every other seed has
        // probability zero — see `SeedStore::prefix_count`), so no model
        // evaluation is needed: one range lookup, a class-granularity test
        // of one class.
        (count, 1, false, true, None)
    } else if let Some(classes) = store.likelihood_classes(
        y,
        model.likelihood_attributes(),
        model.exact_match_attributes(),
    ) {
        // Class-level fast path: a partition-aware store collapses seeds into
        // likelihood-equivalence classes — every member shares the
        // representative's generation probability for every candidate — so
        // the γ-partition check runs once per class and members count with
        // multiplicity.
        //
        // Consult the shared class-match cache first: when the model's
        // likelihood set is contained in its exact-match set, the per-class
        // partition comparison below is independent of the seed, of γ, and
        // of all request randomness, so its row of booleans is computed once
        // per candidate projection and shared across requests.  The closure
        // is pure (no RNG, no shared state); a miss differs from the
        // uncached path only in evaluating every class eagerly.
        let lookup = store.class_match_row(
            y,
            model.likelihood_attributes(),
            model.exact_match_attributes(),
            &mut |representative| {
                let p = model.probability(dataset.record(representative), y);
                partition_index(p, config.gamma) == Some(seed_partition)
            },
        );
        let mut plausible = 0usize;
        let mut examined = 0usize;
        for class in classes {
            examined += 1;
            let in_partition = match &lookup {
                Some(lookup) => lookup.row[class.index],
                None => {
                    let p = model.probability(dataset.record(class.representative), y);
                    partition_index(p, config.gamma) == Some(seed_partition)
                }
            };
            if in_partition {
                plausible += class.members.len();
                if plausible >= stop {
                    break;
                }
            }
        }
        (plausible, examined, false, true, lookup.map(|l| l.hit))
    } else {
        let candidates = store.plausible_candidates(y, model.exact_match_attributes());
        let via_index = candidates.is_filtered();
        let mut plausible = 0usize;
        let mut examined = 0usize;
        for idx in candidates {
            examined += 1;
            let p = model.probability(dataset.record(idx), y);
            if partition_index(p, config.gamma) == Some(seed_partition) {
                plausible += 1;
                if plausible >= stop {
                    break;
                }
            }
        }
        (plausible, examined, via_index, false, None)
    };
    let plausible = match cap {
        None => plausible.min(limit),
        Some(cap) => sample_capped_hypergeometric(dataset.len(), cap, plausible, limit, rng),
    };

    // Step 4: compare against the (possibly noisy) threshold.
    Ok(TestOutcome {
        passed: plausible as f64 >= threshold,
        seed_partition: Some(seed_partition),
        plausible_seeds: plausible,
        records_examined,
        threshold,
        via_index,
        via_classes,
        cache_hit,
    })
}

/// The count at which a test stops: the smallest `p ≥ 1` with
/// `p as f64 >= threshold` (the noisy threshold is reached) or `p >= stop_at`
/// (`max_plausible`, raised to k).  Counting further cannot change the
/// decision, so every path reports `min(|plausible ∩ examined|, limit)`:
/// `min(K, limit)` without a cap.
fn count_limit(threshold: f64, stop_at: Option<usize>) -> usize {
    // `as` saturates: a threshold at or below 1 stops at the first plausible
    // seed, and one beyond `usize` never stops the count.
    let by_threshold = if threshold.is_nan() {
        usize::MAX
    } else {
        (threshold.ceil() as usize).max(1)
    };
    by_threshold.min(stop_at.unwrap_or(usize::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use sgf_data::{Attribute, Schema};
    use std::sync::Arc;

    /// Toy model: probability depends only on the Hamming distance.
    struct HammingModel {
        schema: Schema,
        base: f64,
    }

    impl GenerativeModel for HammingModel {
        fn schema(&self) -> &Schema {
            &self.schema
        }
        fn generate(&self, seed: &Record, _rng: &mut dyn RngCore) -> Record {
            seed.clone()
        }
        fn probability(&self, seed: &Record, y: &Record) -> f64 {
            self.base.powi(seed.hamming_distance(y) as i32 + 1)
        }
    }

    /// Dataset with `close` records identical to the seed region and a few far-away ones.
    fn toy(close: usize, far: usize) -> (HammingModel, Dataset, Record) {
        let schema = Schema::new(vec![
            Attribute::categorical_anon("A", 8),
            Attribute::categorical_anon("B", 8),
        ])
        .unwrap();
        let model = HammingModel {
            schema: schema.clone(),
            base: 0.25,
        };
        let mut records = Vec::new();
        for _ in 0..close {
            records.push(Record::new(vec![0, 0]));
        }
        for j in 0..far {
            records.push(Record::new(vec![5, (j % 8) as u16]));
        }
        let dataset = Dataset::from_records_unchecked(Arc::new(schema), records);
        (model, dataset, Record::new(vec![0, 0]))
    }

    #[test]
    fn deterministic_test_passes_with_enough_plausible_seeds() {
        let (model, dataset, seed) = toy(10, 5);
        let y = Record::new(vec![0, 0]);
        let mut rng = StdRng::seed_from_u64(1);
        let config = PrivacyTestConfig::deterministic(10, 4.0);
        let outcome = run_privacy_test(&model, &dataset, &seed, &y, &config, &mut rng).unwrap();
        assert!(outcome.passed);
        assert_eq!(outcome.seed_partition, Some(1));
        assert!(outcome.plausible_seeds >= 10);
        assert_eq!(outcome.threshold, 10.0);

        let strict = PrivacyTestConfig::deterministic(11, 4.0);
        let outcome = run_privacy_test(&model, &dataset, &seed, &y, &strict, &mut rng).unwrap();
        assert!(!outcome.passed);
        assert_eq!(outcome.plausible_seeds, 10);
    }

    #[test]
    fn zero_probability_seed_is_rejected() {
        let (model, dataset, _) = toy(10, 5);
        // A model probability of zero cannot happen with the Hamming model, so
        // craft it via a seed record of mismatching arity semantics: use a model
        // with base 0 instead.
        let zero_model = HammingModel {
            schema: model.schema.clone(),
            base: 0.0,
        };
        let y = Record::new(vec![0, 0]);
        let seed = Record::new(vec![0, 0]);
        let mut rng = StdRng::seed_from_u64(2);
        let config = PrivacyTestConfig::deterministic(2, 4.0);
        let outcome =
            run_privacy_test(&zero_model, &dataset, &seed, &y, &config, &mut rng).unwrap();
        assert!(!outcome.passed);
        assert_eq!(outcome.seed_partition, None);
    }

    #[test]
    fn randomized_test_pass_rate_tracks_threshold_noise() {
        // With exactly k plausible seeds the deterministic test always passes,
        // while the randomized test fails roughly half the time (whenever the
        // Laplace noise is positive).
        let (model, dataset, seed) = toy(20, 10);
        let y = Record::new(vec![0, 0]);
        let mut rng = StdRng::seed_from_u64(3);
        let det = PrivacyTestConfig::deterministic(20, 4.0);
        assert!(
            run_privacy_test(&model, &dataset, &seed, &y, &det, &mut rng)
                .unwrap()
                .passed
        );

        let rand_cfg = PrivacyTestConfig::randomized(20, 4.0, 1.0);
        let trials = 400;
        let passes = (0..trials)
            .filter(|_| {
                run_privacy_test(&model, &dataset, &seed, &y, &rand_cfg, &mut rng)
                    .unwrap()
                    .passed
            })
            .count();
        let rate = passes as f64 / trials as f64;
        assert!((0.35..=0.65).contains(&rate), "pass rate {rate}");
    }

    #[test]
    fn randomized_test_almost_always_passes_with_many_plausible_seeds() {
        let (model, dataset, seed) = toy(200, 10);
        let y = Record::new(vec![0, 0]);
        let mut rng = StdRng::seed_from_u64(4);
        let config = PrivacyTestConfig::randomized(50, 4.0, 1.0);
        let passes = (0..100)
            .filter(|_| {
                run_privacy_test(&model, &dataset, &seed, &y, &config, &mut rng)
                    .unwrap()
                    .passed
            })
            .count();
        assert!(passes >= 99, "passes {passes}");
    }

    #[test]
    fn early_termination_limits_examined_records() {
        let (model, dataset, seed) = toy(500, 500);
        let y = Record::new(vec![0, 0]);
        let mut rng = StdRng::seed_from_u64(5);
        // Without a cap the walk stops at the 10th plausible record; the
        // toy's close records come first.
        let uncapped = PrivacyTestConfig::deterministic(10, 4.0).with_limits(Some(10), None);
        let outcome = run_privacy_test(&model, &dataset, &seed, &y, &uncapped, &mut rng).unwrap();
        assert!(outcome.passed);
        assert_eq!(outcome.records_examined, 10);

        // A cap counts every plausible seed, then draws the cap-subset's
        // count from its law.
        let config = PrivacyTestConfig::deterministic(10, 4.0).with_limits(Some(10), Some(50));
        let outcome = run_privacy_test(&model, &dataset, &seed, &y, &config, &mut rng).unwrap();
        assert_eq!(outcome.records_examined, dataset.len());
        // max_check_plausible can cause a rejection even when the full dataset
        // would have passed — but with 50% close records and k=10 a subset of
        // 50 records nearly always suffices.
        assert!(outcome.passed);

        let tight = PrivacyTestConfig::deterministic(100, 4.0).with_limits(None, Some(20));
        let outcome = run_privacy_test(&model, &dataset, &seed, &y, &tight, &mut rng).unwrap();
        assert!(!outcome.passed);
        assert_eq!(outcome.records_examined, dataset.len());
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let (model, dataset, seed) = toy(10, 0);
        let y = Record::new(vec![0, 0]);
        let mut rng = StdRng::seed_from_u64(6);
        for config in [
            PrivacyTestConfig::deterministic(0, 4.0),
            PrivacyTestConfig::deterministic(5, 1.0),
            PrivacyTestConfig::randomized(5, 4.0, 0.0),
            PrivacyTestConfig::deterministic(5, 4.0).with_limits(Some(0), None),
            PrivacyTestConfig::deterministic(5, 4.0).with_limits(None, Some(0)),
        ] {
            assert!(run_privacy_test(&model, &dataset, &seed, &y, &config, &mut rng).is_err());
        }
        // Dataset smaller than k.
        let config = PrivacyTestConfig::deterministic(50, 4.0);
        assert!(matches!(
            run_privacy_test(&model, &dataset, &seed, &y, &config, &mut rng),
            Err(CoreError::DatasetTooSmall { .. })
        ));
    }

    /// Model with an explicit agreement guarantee on attribute 0: a seed can
    /// generate y only when it matches y there; otherwise probability decays
    /// with the Hamming distance of the remaining attributes.
    struct MatchFirstModel {
        schema: Schema,
        matched: [usize; 1],
    }

    impl GenerativeModel for MatchFirstModel {
        fn schema(&self) -> &Schema {
            &self.schema
        }
        fn generate(&self, seed: &Record, _rng: &mut dyn RngCore) -> Record {
            seed.clone()
        }
        fn probability(&self, seed: &Record, y: &Record) -> f64 {
            if seed.get(0) != y.get(0) {
                return 0.0;
            }
            let rest = usize::from(seed.get(1) != y.get(1));
            0.25f64.powi(rest as i32 + 1)
        }
        fn exact_match_attributes(&self) -> Option<&[usize]> {
            Some(&self.matched)
        }
    }

    fn match_first_setup() -> (MatchFirstModel, Dataset, sgf_index::InvertedIndexStore) {
        let schema = Schema::new(vec![
            Attribute::categorical_anon("A", 8),
            Attribute::categorical_anon("B", 8),
        ])
        .unwrap();
        let model = MatchFirstModel {
            schema: schema.clone(),
            matched: [0],
        };
        let mut records = Vec::new();
        for g in 0..8u16 {
            for v in 0..8u16 {
                records.push(Record::new(vec![g, v]));
                records.push(Record::new(vec![g, v]));
            }
        }
        let dataset = Dataset::from_records_unchecked(Arc::new(schema), records);
        let bkt = sgf_data::Bucketizer::identity(dataset.schema());
        let index = sgf_index::InvertedIndexStore::build(&dataset, &bkt, &[1.0, 0.5], 4).unwrap();
        (model, dataset, index)
    }

    #[test]
    fn index_store_matches_scan_decisions_and_counts() {
        let (model, dataset, index) = match_first_setup();
        let scan = sgf_index::LinearScanStore::new(&dataset);
        let seed = Record::new(vec![3, 3]);
        let y = Record::new(vec![3, 3]);
        for config in [
            PrivacyTestConfig::deterministic(10, 4.0),
            PrivacyTestConfig::deterministic(20, 4.0),
            PrivacyTestConfig::randomized(10, 4.0, 1.0),
            PrivacyTestConfig::deterministic(10, 4.0).with_limits(Some(12), Some(40)),
            PrivacyTestConfig::randomized(10, 4.0, 0.5).with_limits(Some(12), Some(40)),
            PrivacyTestConfig::deterministic(100, 4.0).with_limits(None, Some(30)),
        ] {
            for master in 0..20u64 {
                let mut rng_a = StdRng::seed_from_u64(master);
                let mut rng_b = StdRng::seed_from_u64(master);
                let a = run_with_store(&model, &dataset, &scan, &seed, &y, &config, &mut rng_a)
                    .unwrap();
                let b = run_with_store(&model, &dataset, &index, &seed, &y, &config, &mut rng_b)
                    .unwrap();
                assert_eq!(a.passed, b.passed, "config {config:?} master {master}");
                assert_eq!(a.plausible_seeds, b.plausible_seeds);
                assert_eq!(a.threshold, b.threshold);
                assert_eq!(a.seed_partition, b.seed_partition);
                assert!(!a.via_index);
                assert!(b.via_index);
                // Identical downstream RNG state: same consumption in the test.
                assert_eq!(rng_a.next_u64(), rng_b.next_u64());
            }
        }
    }

    #[test]
    fn index_store_examines_fewer_records() {
        let (model, dataset, index) = match_first_setup();
        let scan = sgf_index::LinearScanStore::new(&dataset);
        let seed = Record::new(vec![3, 3]);
        let y = Record::new(vec![3, 3]);
        // No early termination: the scan examines everything, the index only
        // the 16 records sharing attribute A with the candidate.
        let config = PrivacyTestConfig::deterministic(20, 4.0);
        let mut rng = StdRng::seed_from_u64(1);
        let a = run_with_store(&model, &dataset, &scan, &seed, &y, &config, &mut rng).unwrap();
        let b = run_with_store(&model, &dataset, &index, &seed, &y, &config, &mut rng).unwrap();
        assert_eq!(a.passed, b.passed);
        assert_eq!(b.records_examined, 16);
        assert!(a.records_examined > b.records_examined);
    }

    #[test]
    fn store_size_mismatch_is_rejected() {
        let (model, dataset, _) = match_first_setup();
        let wrong = sgf_index::LinearScanStore::with_len(dataset.len() + 1);
        let seed = Record::new(vec![0, 0]);
        let mut rng = StdRng::seed_from_u64(2);
        let config = PrivacyTestConfig::deterministic(5, 4.0);
        assert!(matches!(
            run_with_store(&model, &dataset, &wrong, &seed, &seed, &config, &mut rng),
            Err(CoreError::InvalidParameter(_))
        ));
    }

    #[test]
    fn passing_test_implies_definition_one() {
        // Privacy Test 1 is strictly stronger than Definition 1: whenever the
        // test passes, the plausible-deniability criterion holds as well.
        let (model, dataset, seed) = toy(15, 40);
        let y = Record::new(vec![0, 0]);
        let mut rng = StdRng::seed_from_u64(7);
        let config = PrivacyTestConfig::deterministic(12, 3.0);
        let outcome = run_privacy_test(&model, &dataset, &seed, &y, &config, &mut rng).unwrap();
        if outcome.passed {
            assert!(crate::deniability::satisfies_plausible_deniability(
                &model, &dataset, &seed, &y, 12, 3.0
            )
            .unwrap());
        }
    }
}
