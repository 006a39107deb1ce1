//! Property-based equivalence of the seed stores: for random datasets,
//! candidates, and privacy-test configurations, the inverted index, the
//! partition-aware class store, the σ-prefix store, and the linear scan must
//! agree on every pass/fail decision, plausible-seed count, and on the RNG
//! stream they leave behind — across k, γ, both privacy tests
//! (deterministic and randomized), and the early-termination knobs.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use sgf::core::{partition_index, run_with_store, PrivacyTestConfig};
use sgf::data::{Attribute, AttributeBuckets, Bucketizer, Dataset, Record, Schema};
use sgf::index::{
    InvertedIndexStore, LinearScanStore, PartitionIndexStore, PrefixIndexStore, SeedStore,
};
use sgf::model::GenerativeModel;
use std::sync::Arc;

const CARDINALITIES: [usize; 4] = [4, 6, 3, 5];
const ALL_ATTRIBUTES: [usize; 4] = [0, 1, 2, 3];

/// Toy model with an explicit agreement guarantee: a seed generates `y` with
/// probability zero unless it matches `y` on every `kept` attribute, and with
/// a Hamming-decaying probability over the remaining attributes otherwise.
struct KeptModel {
    schema: Schema,
    kept: Vec<usize>,
}

impl GenerativeModel for KeptModel {
    fn schema(&self) -> &Schema {
        &self.schema
    }
    fn generate(&self, seed: &Record, _rng: &mut dyn RngCore) -> Record {
        seed.clone()
    }
    fn probability(&self, seed: &Record, y: &Record) -> f64 {
        let mut rest = 0i32;
        for attr in 0..self.schema.len() {
            if self.kept.contains(&attr) {
                if seed.get(attr) != y.get(attr) {
                    return 0.0;
                }
            } else if seed.get(attr) != y.get(attr) {
                rest += 1;
            }
        }
        0.35f64.powi(rest + 1)
    }
    fn exact_match_attributes(&self) -> Option<&[usize]> {
        Some(&self.kept)
    }
    fn likelihood_attributes(&self) -> Option<&[usize]> {
        // The Hamming decay reads every attribute of the seed, so only the
        // full projection determines the likelihood.
        Some(&ALL_ATTRIBUTES)
    }
}

/// A model with the seed-synthesizer's likelihood structure: once the kept
/// attributes agree, the probability is a function of the candidate alone, so
/// the kept projection fully determines `p_d(y)` — the guarantee the
/// partition store's class counting relies on.
struct ProjectiveModel {
    schema: Schema,
    kept: Vec<usize>,
}

impl GenerativeModel for ProjectiveModel {
    fn schema(&self) -> &Schema {
        &self.schema
    }
    fn generate(&self, seed: &Record, _rng: &mut dyn RngCore) -> Record {
        seed.clone()
    }
    fn probability(&self, seed: &Record, y: &Record) -> f64 {
        for &attr in &self.kept {
            if seed.get(attr) != y.get(attr) {
                return 0.0;
            }
        }
        let spread: u16 = y.values().iter().sum::<u16>() % 5;
        0.3f64.powi(spread as i32 + 1)
    }
    fn exact_match_attributes(&self) -> Option<&[usize]> {
        Some(&self.kept)
    }
    fn likelihood_attributes(&self) -> Option<&[usize]> {
        Some(&self.kept)
    }
}

fn schema() -> Schema {
    Schema::new(
        CARDINALITIES
            .iter()
            .enumerate()
            .map(|(i, &c)| Attribute::categorical_anon(format!("X{i}"), c))
            .collect(),
    )
    .unwrap()
}

type Row = (u16, u16, u16, u16);

/// One in-domain record as a tuple strategy (the stub proptest has no map
/// combinator, so rows travel as tuples and convert in the test body).
fn row() -> (
    std::ops::Range<u16>,
    std::ops::Range<u16>,
    std::ops::Range<u16>,
    std::ops::Range<u16>,
) {
    (0..4u16, 0..6u16, 0..3u16, 0..5u16)
}

fn to_record((a, b, c, d): Row) -> Record {
    Record::new(vec![a, b, c, d])
}

/// The `code`-th permutation of the four attributes (`code` in `0..24`,
/// factorial-base digits pick from the remaining attributes).
fn permutation(code: usize) -> Vec<usize> {
    let mut left: Vec<usize> = ALL_ATTRIBUTES.to_vec();
    let mut code = code % 24;
    let mut order = Vec::with_capacity(4);
    for radix in (1..=4usize).rev() {
        order.push(left.remove(code % radix));
        code /= radix;
    }
    order
}

fn build_fixture(rows: Vec<Row>, kept_mask: &[bool]) -> (KeptModel, Dataset, Arc<Schema>) {
    let schema = Arc::new(schema());
    let records: Vec<Record> = rows.into_iter().map(to_record).collect();
    let dataset = Dataset::from_records_unchecked(Arc::clone(&schema), records);
    let kept: Vec<usize> = (0..4).filter(|&a| kept_mask[a]).collect();
    let model = KeptModel {
        schema: (*schema).clone(),
        kept,
    };
    (model, dataset, schema)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Scan and inverted index (identity-bucketized *and* coarsely
    /// bucketized) agree on decisions, counts, and RNG consumption.
    #[test]
    fn stores_agree_on_every_outcome(
        rows in proptest::collection::vec(row(), 20..120),
        kept_mask in proptest::collection::vec(any::<bool>(), 4),
        candidate in row(),
        seed_choice in any::<usize>(),
        k in 1usize..15,
        gamma in 1.5f64..6.0,
        epsilon0 in proptest::option::of(0.2f64..3.0),
        max_plausible in proptest::option::of(1usize..20),
        max_check in proptest::option::of(5usize..100),
        master in any::<u64>(),
        sigma_code in 0usize..24,
    ) {
        let (model, dataset, schema) = build_fixture(rows, &kept_mask);
        let seed = dataset.record(seed_choice % dataset.len()).clone();
        let y = to_record(candidate);

        let config = PrivacyTestConfig {
            k,
            gamma,
            epsilon0,
            max_plausible: None,
            max_check_plausible: None,
        }
        .with_limits(max_plausible, max_check);

        let weights = [0.3, 0.9, 0.1, 0.5];
        let scan = LinearScanStore::new(&dataset);
        let identity_index =
            InvertedIndexStore::build(&dataset, &Bucketizer::identity(&schema), &weights, 4)
                .unwrap();
        // Coarse buckets on the widest attribute: posting lists become
        // supersets, the exact check on survivors must still line up.
        let coarse_bucketizer = Bucketizer::identity(&schema)
            .with_attribute(1, AttributeBuckets::fixed_width(6, 2).unwrap())
            .unwrap();
        let coarse_index =
            InvertedIndexStore::build(&dataset, &coarse_bucketizer, &weights, 2).unwrap();
        // Partition store keyed on every attribute: it covers the model's
        // full-projection likelihood guarantee, so tests run at class
        // granularity (classes = groups of duplicate rows).
        let partition_all = PartitionIndexStore::build(&dataset, &ALL_ATTRIBUTES).unwrap();
        // Partition store keyed on the kept attributes only: it does NOT
        // cover the model's likelihood set, so the test degrades to the
        // per-record class walk — which must still line up.
        let kept: Vec<usize> = (0..4).filter(|&a| kept_mask[a]).collect();
        let partition_kept = PartitionIndexStore::build(&dataset, &kept).unwrap();
        // Prefix store in a random σ: the model's likelihood set reads every
        // attribute, so unless everything is kept the test scans every seed.
        let prefix = PrefixIndexStore::build(&dataset, &permutation(sigma_code)).unwrap();

        let stores: [&dyn SeedStore; 6] = [
            &scan,
            &identity_index,
            &coarse_index,
            &partition_all,
            &partition_kept,
            &prefix,
        ];
        let mut outcomes = Vec::new();
        let mut post_rng = Vec::new();
        for store in stores {
            let mut rng = StdRng::seed_from_u64(master);
            let outcome =
                run_with_store(&model, &dataset, store, &seed, &y, &config, &mut rng).unwrap();
            outcomes.push(outcome);
            post_rng.push(rng.next_u64());
        }
        for other in &outcomes[1..] {
            prop_assert_eq!(outcomes[0].passed, other.passed);
            prop_assert_eq!(outcomes[0].plausible_seeds, other.plausible_seeds);
            prop_assert_eq!(outcomes[0].seed_partition, other.seed_partition);
            prop_assert_eq!(outcomes[0].threshold, other.threshold);
        }
        for &post in &post_rng[1..] {
            prop_assert_eq!(post_rng[0], post);
        }
        // The indexes never examine more candidates than the store holds,
        // and class-level counting examines at most one record per class.
        prop_assert!(outcomes[1].records_examined <= dataset.len());
        prop_assert!(outcomes[3].records_examined <= partition_all.class_count());
    }

    /// With no early-termination knobs the plausible count of a *failing*
    /// deterministic test equals the exact partition cardinality, and the
    /// index reproduces it while skipping provably non-plausible records.
    #[test]
    fn uncapped_counts_match_partition_size(
        rows in proptest::collection::vec(row(), 20..80),
        kept_mask in proptest::collection::vec(any::<bool>(), 4),
        seed_choice in any::<usize>(),
        k in 1usize..10,
        gamma in 2.0f64..5.0,
    ) {
        let (model, dataset, schema) = build_fixture(rows, &kept_mask);
        let seed = dataset.record(seed_choice % dataset.len()).clone();
        // Candidate generated from the seed itself: identical on kept attrs.
        let y = seed.clone();
        let config = PrivacyTestConfig::deterministic(k, gamma);

        let scan = LinearScanStore::new(&dataset);
        let index =
            InvertedIndexStore::build(&dataset, &Bucketizer::identity(&schema), &[1.0; 4], 4)
                .unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let a = run_with_store(&model, &dataset, &scan, &seed, &y, &config, &mut rng).unwrap();
        let b = run_with_store(&model, &dataset, &index, &seed, &y, &config, &mut rng).unwrap();
        prop_assert_eq!(a.passed, b.passed);
        prop_assert_eq!(a.plausible_seeds, b.plausible_seeds);
        // The deterministic uncapped count stops early only at the threshold,
        // so when the test fails it counted the full partition.
        if !a.passed {
            let partition = a.seed_partition.unwrap();
            let full = sgf::core::partition_size(&model, &dataset, &y, gamma, partition);
            prop_assert_eq!(a.plausible_seeds, full);
            prop_assert_eq!(b.plausible_seeds, full);
        }
    }

    /// A model whose likelihood is determined by the kept projection (the
    /// seed-synthesizer structure): the partition store counts whole
    /// equivalence classes with multiplicity — through both its single-class
    /// lookup (keyed exactly on the kept attributes) and its pruned class
    /// walk (keyed on a superset) — and must reproduce the scan's decision,
    /// count, and RNG stream bit for bit.
    #[test]
    fn class_counting_matches_record_level(
        rows in proptest::collection::vec(row(), 20..120),
        kept_mask in proptest::collection::vec(any::<bool>(), 4),
        candidate in row(),
        seed_choice in any::<usize>(),
        k in 1usize..15,
        gamma in 1.5f64..6.0,
        epsilon0 in proptest::option::of(0.2f64..3.0),
        max_plausible in proptest::option::of(1usize..20),
        max_check in proptest::option::of(5usize..100),
        master in any::<u64>(),
    ) {
        let schema = Arc::new(schema());
        let records: Vec<Record> = rows.into_iter().map(to_record).collect();
        let dataset = Dataset::from_records_unchecked(Arc::clone(&schema), records);
        let kept: Vec<usize> = (0..4).filter(|&a| kept_mask[a]).collect();
        let model = ProjectiveModel {
            schema: (*schema).clone(),
            kept: kept.clone(),
        };
        let seed = dataset.record(seed_choice % dataset.len()).clone();
        let y = to_record(candidate);
        let config = PrivacyTestConfig {
            k,
            gamma,
            epsilon0,
            max_plausible: None,
            max_check_plausible: None,
        }
        .with_limits(max_plausible, max_check);

        let scan = LinearScanStore::new(&dataset);
        // Keyed exactly on the likelihood set: the single-class lookup path.
        let exact_key = PartitionIndexStore::build(&dataset, &kept).unwrap();
        // Keyed on a strict superset (when one exists): the pruned-walk path.
        let superset: Vec<usize> = {
            let mut s = kept.clone();
            if let Some(extra) = (0..4).find(|a| !kept.contains(a)) {
                s.push(extra);
            }
            s
        };
        let superset_key = PartitionIndexStore::build(&dataset, &superset).unwrap();

        let stores: [&dyn SeedStore; 3] = [&scan, &exact_key, &superset_key];
        let mut outcomes = Vec::new();
        let mut post_rng = Vec::new();
        for store in stores {
            let mut rng = StdRng::seed_from_u64(master);
            let outcome =
                run_with_store(&model, &dataset, store, &seed, &y, &config, &mut rng).unwrap();
            outcomes.push(outcome);
            post_rng.push(rng.next_u64());
        }
        for other in &outcomes[1..] {
            prop_assert_eq!(outcomes[0].passed, other.passed);
            prop_assert_eq!(outcomes[0].plausible_seeds, other.plausible_seeds);
            prop_assert_eq!(outcomes[0].seed_partition, other.seed_partition);
            prop_assert_eq!(outcomes[0].threshold, other.threshold);
            prop_assert_eq!(post_rng[0], post_rng[1]);
            prop_assert_eq!(post_rng[0], post_rng[2]);
        }
        // Both partition stores cover the model: tests run at class
        // granularity, never touching more representatives than classes.
        if outcomes[0].seed_partition.is_some() {
            prop_assert!(outcomes[1].via_classes);
            prop_assert!(outcomes[2].via_classes);
            prop_assert!(outcomes[1].records_examined <= 1, "exact key: one class lookup");
            prop_assert!(outcomes[2].records_examined <= superset_key.class_count());
        }
    }

    /// The class-match cache is invisible to every observable outcome: a
    /// cache-carrying partition store must reproduce the plain store's
    /// decisions, counts, and RNG stream bit for bit across a whole stream of
    /// candidates, while its hit/miss telemetry tracks exactly the first
    /// sighting of each likelihood projection. Models whose likelihood set
    /// escapes the exact-match guarantee must bypass the cache entirely.
    #[test]
    fn class_cache_is_invisible_to_outcomes(
        rows in proptest::collection::vec(row(), 20..120),
        kept_mask in proptest::collection::vec(any::<bool>(), 4),
        candidates in proptest::collection::vec(row(), 2..12),
        seed_choice in any::<usize>(),
        k in 1usize..15,
        gamma in 1.5f64..6.0,
        epsilon0 in proptest::option::of(0.2f64..3.0),
        max_plausible in proptest::option::of(1usize..20),
        max_check in proptest::option::of(5usize..100),
        master in any::<u64>(),
    ) {
        let schema = Arc::new(schema());
        let records: Vec<Record> = rows.into_iter().map(to_record).collect();
        let dataset = Dataset::from_records_unchecked(Arc::clone(&schema), records);
        let kept: Vec<usize> = (0..4).filter(|&a| kept_mask[a]).collect();
        let model = ProjectiveModel {
            schema: (*schema).clone(),
            kept: kept.clone(),
        };
        let seed = dataset.record(seed_choice % dataset.len()).clone();
        let config = PrivacyTestConfig {
            k,
            gamma,
            epsilon0,
            max_plausible: None,
            max_check_plausible: None,
        }
        .with_limits(max_plausible, max_check);

        let plain = PartitionIndexStore::build(&dataset, &kept).unwrap();
        let cached = PartitionIndexStore::build(&dataset, &kept)
            .unwrap()
            .with_class_cache();
        let mut seen = std::collections::BTreeSet::new();
        for candidate in candidates {
            let y = to_record(candidate);
            let mut rng_a = StdRng::seed_from_u64(master);
            let mut rng_b = StdRng::seed_from_u64(master);
            let a =
                run_with_store(&model, &dataset, &plain, &seed, &y, &config, &mut rng_a).unwrap();
            let b =
                run_with_store(&model, &dataset, &cached, &seed, &y, &config, &mut rng_b).unwrap();
            prop_assert_eq!(a.passed, b.passed);
            prop_assert_eq!(a.plausible_seeds, b.plausible_seeds);
            prop_assert_eq!(a.seed_partition, b.seed_partition);
            prop_assert_eq!(a.threshold, b.threshold);
            prop_assert_eq!(a.records_examined, b.records_examined);
            prop_assert_eq!(rng_a.next_u64(), rng_b.next_u64());
            prop_assert!(a.cache_hit.is_none(), "plain store never reports cache traffic");
            if b.via_classes {
                // First sighting of a projection is a miss, repeats are hits.
                let projection: Vec<u16> = kept.iter().map(|&attr| y.get(attr)).collect();
                prop_assert_eq!(b.cache_hit, Some(!seen.insert(projection)));
            } else {
                prop_assert!(b.cache_hit.is_none());
            }
        }
        // A model whose likelihood reads attributes outside the exact-match
        // guarantee cannot use the cache: the cached row would not be
        // seed-independent, so the store must fall back to inline evaluation.
        let wide = KeptModel {
            schema: (*schema).clone(),
            kept: kept.clone(),
        };
        let y = seed.clone();
        let mut rng = StdRng::seed_from_u64(master);
        let w = run_with_store(&wide, &dataset, &cached, &seed, &y, &config, &mut rng).unwrap();
        if kept.len() < 4 {
            prop_assert!(w.cache_hit.is_none(), "likelihood ⊄ exact-match must bypass");
        }
    }

    /// The σ-prefix store's range fast path against the scan oracle, for a
    /// model with the seed synthesizer's structure (keeps σ[..4 − ω], the
    /// likelihood set equals the kept set): ω runs from everything kept to
    /// nothing kept, with and without `max_check_plausible`, and small ε₀
    /// drives many noisy thresholds to ≤ 0.  Candidates are generated the
    /// synthesizer's way — the seed's kept values, arbitrary resampled ones.
    #[test]
    fn prefix_ranges_match_the_scan(
        rows in proptest::collection::vec(row(), 20..120),
        candidates in proptest::collection::vec(row(), 1..8),
        sigma_code in 0usize..24,
        omega in 0usize..5,
        seed_choice in any::<usize>(),
        k in 1usize..15,
        gamma in 1.5f64..6.0,
        epsilon0 in proptest::option::of(0.02f64..3.0),
        max_plausible in proptest::option::of(1usize..20),
        max_check in proptest::option::of(5usize..100),
        master in any::<u64>(),
    ) {
        let schema = Arc::new(schema());
        let records: Vec<Record> = rows.into_iter().map(to_record).collect();
        let dataset = Dataset::from_records_unchecked(Arc::clone(&schema), records);
        let sigma = permutation(sigma_code);
        let model = ProjectiveModel {
            schema: (*schema).clone(),
            kept: sigma[..4 - omega].to_vec(),
        };
        let config = PrivacyTestConfig {
            k,
            gamma,
            epsilon0,
            max_plausible: None,
            max_check_plausible: None,
        }
        .with_limits(max_plausible, max_check);
        let scan = LinearScanStore::new(&dataset);
        let prefix = PrefixIndexStore::build(&dataset, &sigma).unwrap();
        let seed = dataset.record(seed_choice % dataset.len()).clone();
        for (i, candidate) in candidates.into_iter().enumerate() {
            let mut y = to_record(candidate);
            for &attr in &model.kept {
                y.set(attr, seed.get(attr));
            }
            let stream = master ^ i as u64;
            let mut rng_a = StdRng::seed_from_u64(stream);
            let mut rng_b = StdRng::seed_from_u64(stream);
            let a = run_with_store(&model, &dataset, &scan, &seed, &y, &config, &mut rng_a).unwrap();
            let b =
                run_with_store(&model, &dataset, &prefix, &seed, &y, &config, &mut rng_b).unwrap();
            prop_assert_eq!(a.passed, b.passed);
            prop_assert_eq!(a.plausible_seeds, b.plausible_seeds);
            prop_assert_eq!(a.threshold, b.threshold);
            prop_assert_eq!(a.seed_partition, b.seed_partition);
            prop_assert_eq!(rng_a.next_u64(), rng_b.next_u64());
            if b.seed_partition.is_some() {
                prop_assert!(b.via_classes, "a qualifying model takes the range path");
                prop_assert_eq!(b.records_examined, 1);
            }
        }
    }

    /// `apply_delta` equals a fresh build over the canonical final dataset,
    /// across chains of random deltas; a step that changes σ rebuilds the
    /// store under the new order (as a session update does) and the chain
    /// continues from there.
    #[test]
    fn prefix_apply_delta_matches_a_fresh_build(
        rows in proptest::collection::vec(row(), 1..80),
        steps in proptest::collection::vec(
            (any::<u64>(), proptest::collection::vec(row(), 0..10), 0usize..48),
            1..4,
        ),
        sigma_code in 0usize..24,
    ) {
        let schema = Arc::new(schema());
        let mut records: Vec<Record> = rows.into_iter().map(to_record).collect();
        let mut sigma = permutation(sigma_code);
        let mut store =
            PrefixIndexStore::build(&Dataset::from_records_unchecked(Arc::clone(&schema), records.clone()), &sigma)
                .unwrap();
        for (delete_bits, inserts, sigma_step) in steps {
            // Codes past 24 keep σ, so about half the steps splice.
            let next_sigma = if sigma_step < 24 { permutation(sigma_step) } else { sigma.clone() };
            let deletes: Vec<usize> = (0..records.len())
                .filter(|i| delete_bits.rotate_left(*i as u32 * 7) & 3 == 0)
                .collect();
            let inserts: Vec<Record> = inserts.into_iter().map(to_record).collect();
            let mut next: Vec<Record> = records
                .iter()
                .enumerate()
                .filter(|(i, _)| deletes.binary_search(i).is_err())
                .map(|(_, r)| r.clone())
                .collect();
            next.extend(inserts.iter().cloned());
            let final_data = Dataset::from_records_unchecked(Arc::clone(&schema), next.clone());
            store = if next_sigma == sigma {
                let deleted: Vec<Record> = deletes.iter().map(|&i| records[i].clone()).collect();
                store.apply_delta(&deleted, &inserts).unwrap()
            } else {
                PrefixIndexStore::build(&final_data, &next_sigma).unwrap()
            };
            sigma = next_sigma;
            records = next;
            prop_assert_eq!(&store, &PrefixIndexStore::build(&final_data, &sigma).unwrap());
            prop_assert_eq!(store.len(), records.len());
        }
    }
}

/// The documented partition convention `γ^{-(i+1)} < p ≤ γ^{-i}`: an exact
/// power `γ^{-i}` sits in partition `i` (closed above), and any probability
/// above 1 (floating-point slack) clamps into partition 0.
#[test]
fn partition_index_boundary_convention() {
    for &gamma in &[1.5f64, 2.0, 3.0, 4.0, 10.0] {
        for i in 0..25i32 {
            let exact = gamma.powi(-i);
            assert_eq!(
                partition_index(exact, gamma),
                Some(i as u32),
                "exact power gamma={gamma} i={i}"
            );
            // Just above the open lower bound γ^{-(i+1)} still belongs to i.
            let above_lower = gamma.powi(-(i + 1)) * (1.0 + 1e-9);
            assert_eq!(
                partition_index(above_lower, gamma),
                Some(i as u32),
                "above lower bound gamma={gamma} i={i}"
            );
        }
        for p_over_one in [1.0 + f64::EPSILON, 1.5, 2.0, 1e6] {
            assert_eq!(
                partition_index(p_over_one, gamma),
                Some(0),
                "p={p_over_one} must clamp into partition 0"
            );
        }
        assert_eq!(partition_index(0.0, gamma), None);
    }
}

/// Power-decay model: probabilities are *exact* powers `γ^{-d}` of the
/// non-kept Hamming distance, so every evaluation lands exactly on a
/// partition boundary — the worst case for the boundary-nudging arithmetic.
struct PowerModel {
    schema: Schema,
    kept: Vec<usize>,
    gamma: f64,
}

impl GenerativeModel for PowerModel {
    fn schema(&self) -> &Schema {
        &self.schema
    }
    fn generate(&self, seed: &Record, _rng: &mut dyn RngCore) -> Record {
        seed.clone()
    }
    fn probability(&self, seed: &Record, y: &Record) -> f64 {
        let mut rest = 0i32;
        for attr in 0..self.schema.len() {
            if self.kept.contains(&attr) {
                if seed.get(attr) != y.get(attr) {
                    return 0.0;
                }
            } else if seed.get(attr) != y.get(attr) {
                rest += 1;
            }
        }
        self.gamma.powi(-rest)
    }
    fn exact_match_attributes(&self) -> Option<&[usize]> {
        Some(&self.kept)
    }
    fn likelihood_attributes(&self) -> Option<&[usize]> {
        Some(&ALL_ATTRIBUTES)
    }
}

/// All three stores agree when every probability sits exactly on a partition
/// boundary `p = γ^{-i}` (including `p = γ^0 = 1`), across several γ and k.
#[test]
fn stores_agree_at_exact_partition_boundaries() {
    let schema = Arc::new(schema());
    let mut rng = StdRng::seed_from_u64(99);
    let records: Vec<Record> = (0..160)
        .map(|_| {
            to_record((
                (rng.next_u64() % 4) as u16,
                (rng.next_u64() % 6) as u16,
                (rng.next_u64() % 3) as u16,
                (rng.next_u64() % 5) as u16,
            ))
        })
        .collect();
    let dataset = Dataset::from_records_unchecked(Arc::clone(&schema), records);
    let scan = LinearScanStore::new(&dataset);
    let inverted = InvertedIndexStore::build(
        &dataset,
        &Bucketizer::identity(&schema),
        &[1.0, 0.5, 0.25, 0.75],
        4,
    )
    .unwrap();
    let partition = PartitionIndexStore::build(&dataset, &ALL_ATTRIBUTES).unwrap();
    let stores: [&dyn SeedStore; 3] = [&scan, &inverted, &partition];

    for &gamma in &[1.5f64, 2.0, 4.0] {
        let model = PowerModel {
            schema: (*schema).clone(),
            kept: vec![0],
            gamma,
        };
        for k in [1usize, 3, 8, 20] {
            for master in 0..8u64 {
                let seed = dataset.record((master as usize * 7) % dataset.len());
                let y = seed.clone();
                for config in [
                    PrivacyTestConfig::deterministic(k, gamma),
                    PrivacyTestConfig::randomized(k, gamma, 1.0).with_limits(Some(k), Some(60)),
                ] {
                    let mut outcomes = Vec::new();
                    let mut post_rng = Vec::new();
                    for store in stores {
                        let mut rng = StdRng::seed_from_u64(master);
                        let outcome =
                            run_with_store(&model, &dataset, store, seed, &y, &config, &mut rng)
                                .unwrap();
                        outcomes.push(outcome);
                        post_rng.push(rng.next_u64());
                    }
                    for (other, post) in outcomes[1..].iter().zip(&post_rng[1..]) {
                        assert_eq!(outcomes[0].passed, other.passed, "gamma={gamma} k={k}");
                        assert_eq!(outcomes[0].plausible_seeds, other.plausible_seeds);
                        assert_eq!(outcomes[0].seed_partition, other.seed_partition);
                        assert_eq!(outcomes[0].threshold, other.threshold);
                        assert_eq!(post_rng[0], *post);
                    }
                    // The candidate equals its seed: the seed's probability
                    // is exactly γ^0 = 1, the closed top of partition 0.
                    assert_eq!(outcomes[0].seed_partition, Some(0));
                }
            }
        }
    }
}

/// Probabilities above 1 clamp into partition 0 identically for record-level
/// and class-level counting.
struct ClampModel {
    schema: Schema,
}

impl GenerativeModel for ClampModel {
    fn schema(&self) -> &Schema {
        &self.schema
    }
    fn generate(&self, seed: &Record, _rng: &mut dyn RngCore) -> Record {
        seed.clone()
    }
    fn probability(&self, seed: &Record, y: &Record) -> f64 {
        // Floating-point slack can push a "certain" generation above 1; the
        // partition machinery must clamp it into partition 0.
        if seed == y {
            1.0 + 1e-12
        } else {
            0.9
        }
    }
    fn likelihood_attributes(&self) -> Option<&[usize]> {
        Some(&ALL_ATTRIBUTES)
    }
}

#[test]
fn clamped_probabilities_agree_across_stores() {
    let schema = Arc::new(schema());
    let records: Vec<Record> = (0..40u16)
        .map(|v| to_record((v % 4, v % 6, v % 3, v % 5)))
        .collect();
    let dataset = Dataset::from_records_unchecked(Arc::clone(&schema), records);
    let model = ClampModel {
        schema: (*schema).clone(),
    };
    let scan = LinearScanStore::new(&dataset);
    let partition = PartitionIndexStore::build(&dataset, &ALL_ATTRIBUTES).unwrap();
    let seed = dataset.record(0).clone();
    let y = seed.clone();
    for gamma in [2.0f64, 4.0] {
        let config = PrivacyTestConfig::deterministic(5, gamma);
        let mut rng_a = StdRng::seed_from_u64(1);
        let mut rng_b = StdRng::seed_from_u64(1);
        let a = run_with_store(&model, &dataset, &scan, &seed, &y, &config, &mut rng_a).unwrap();
        let b =
            run_with_store(&model, &dataset, &partition, &seed, &y, &config, &mut rng_b).unwrap();
        // p > 1 lands in partition 0 — not rejected, not a separate bucket.
        assert_eq!(a.seed_partition, Some(0));
        assert_eq!(a.passed, b.passed);
        assert_eq!(a.plausible_seeds, b.plausible_seeds);
        assert!(b.via_classes);
    }
}

/// Noisy thresholds at or below zero pass on any non-empty plausible set —
/// and on an empty one: the prefix store must reproduce the scan there too.
#[test]
fn prefix_store_agrees_at_nonpositive_thresholds() {
    let schema = Arc::new(schema());
    let records: Vec<Record> = (0..60u16)
        .map(|v| to_record((v % 4, v % 6, v % 3, v % 5)))
        .collect();
    let dataset = Dataset::from_records_unchecked(Arc::clone(&schema), records);
    let sigma = permutation(5);
    let model = ProjectiveModel {
        schema: (*schema).clone(),
        kept: sigma[..2].to_vec(),
    };
    let scan = LinearScanStore::new(&dataset);
    let prefix = PrefixIndexStore::build(&dataset, &sigma).unwrap();
    let seed = dataset.record(7).clone();
    let config = PrivacyTestConfig::randomized(1, 4.0, 0.05).with_limits(None, Some(10));
    let mut nonpositive = 0;
    for master in 0..200u64 {
        let mut rng_a = StdRng::seed_from_u64(master);
        let mut rng_b = StdRng::seed_from_u64(master);
        let a = run_with_store(&model, &dataset, &scan, &seed, &seed, &config, &mut rng_a).unwrap();
        let b =
            run_with_store(&model, &dataset, &prefix, &seed, &seed, &config, &mut rng_b).unwrap();
        assert_eq!(a.passed, b.passed);
        assert_eq!(a.plausible_seeds, b.plausible_seeds);
        assert_eq!(a.threshold, b.threshold);
        assert_eq!(rng_a.next_u64(), rng_b.next_u64());
        if a.threshold <= 0.0 {
            nonpositive += 1;
            assert!(b.passed);
        }
    }
    assert!(nonpositive > 20, "only {nonpositive} thresholds were <= 0");
}

/// Every way the prefix path counts — no cap, the whole store (no draw), and
/// the capped draw over empty, short and long ranges — against the scan on a
/// dataset large enough that a capped count stops at its limit.  The
/// partition store keyed on the same prefix counts its one class and must
/// agree too.
#[test]
fn prefix_count_strategies_match_the_scan() {
    const SHORT: usize = 32;
    // σ = (X2, X0, X3, X1).  X2 = 2 only on the first 24 rows (a range
    // shorter than `SHORT`) and X0 = 3 never beside X2 = 1 (an empty
    // range); everything else is spread pseudorandomly.
    let sigma = vec![2, 0, 3, 1];
    let mut state = 0x5eed_u64;
    let rows: Vec<Row> = (0..2_400)
        .map(|i| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let h = state >> 24;
            let x2 = if i < 24 { 2 } else { (h % 2) as u16 };
            let x0 = if x2 == 1 { (h >> 8) % 3 } else { (h >> 8) % 4 } as u16;
            (x0, ((h >> 24) % 6) as u16, x2, ((h >> 16) % 5) as u16)
        })
        .collect();
    let n = rows.len();
    let schema = Arc::new(schema());
    let records: Vec<Record> = rows.into_iter().map(to_record).collect();
    let dataset = Dataset::from_records_unchecked(Arc::clone(&schema), records);
    let scan = LinearScanStore::new(&dataset);
    let prefix = PrefixIndexStore::build(&dataset, &sigma).unwrap();

    // (depth, candidate, range-size check): the seed is the candidate itself,
    // which need not be a row of the dataset.
    type RangeCheck = fn(usize, usize) -> bool;
    let cases: [(usize, Row, RangeCheck); 5] = [
        (2, (3, 0, 1, 0), |len, _| len == 0),
        (1, (0, 0, 2, 0), |len, _| 0 < len && len < SHORT),
        (1, (1, 0, 0, 0), |len, _| len > 16 * SHORT),
        (3, (1, 0, 0, 2), |len, _| 2 * SHORT < len && len < 8 * SHORT),
        (0, (2, 3, 1, 4), |len, n| len == n),
    ];
    let configs = [
        PrivacyTestConfig::deterministic(1, 4.0),
        PrivacyTestConfig::deterministic(20, 4.0),
        PrivacyTestConfig::deterministic(70, 4.0).with_limits(Some(90), None),
        PrivacyTestConfig::deterministic(2_000, 4.0),
        PrivacyTestConfig::randomized(40, 4.0, 0.2),
        PrivacyTestConfig::randomized(5, 4.0, 0.05),
    ];
    let caps = [
        None,
        Some(40),
        Some(n / 3),
        Some(n - 1),
        Some(n),
        Some(n + 5),
    ];
    for (depth, candidate, range_check) in cases {
        let kept = sigma[..depth].to_vec();
        let model = ProjectiveModel {
            schema: (*schema).clone(),
            kept: kept.clone(),
        };
        let y = to_record(candidate);
        let range = prefix
            .prefix_count(&y, model.likelihood_attributes(), Some(&kept))
            .unwrap();
        assert!(range_check(range, n), "depth {depth}: range of {range}");
        let partition = PartitionIndexStore::build(&dataset, &kept).unwrap();
        for base in configs {
            for cap in caps {
                let config = base.with_limits(base.max_plausible, cap);
                for master in 0..6u64 {
                    let mut rng_a = StdRng::seed_from_u64(master);
                    let a = run_with_store(&model, &dataset, &scan, &y, &y, &config, &mut rng_a)
                        .unwrap();
                    let next_a = rng_a.next_u64();
                    for store in [&prefix as &dyn SeedStore, &partition] {
                        let mut rng_b = StdRng::seed_from_u64(master);
                        let b =
                            run_with_store(&model, &dataset, store, &y, &y, &config, &mut rng_b)
                                .unwrap();
                        let at = format!(
                            "{} depth {depth} config {config:?} master {master}",
                            store.kind()
                        );
                        assert_eq!(a.passed, b.passed, "{at}");
                        assert_eq!(a.plausible_seeds, b.plausible_seeds, "{at}");
                        assert_eq!(a.threshold, b.threshold, "{at}");
                        assert_eq!(a.seed_partition, b.seed_partition, "{at}");
                        assert_eq!(next_a, rng_b.next_u64(), "{at}");
                        assert!(b.via_classes, "{at}");
                    }
                }
            }
        }
    }
}
