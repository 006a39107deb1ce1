//! Seed-store sweep: scan vs inverted index vs partition store vs σ-prefix
//! store cost of the plausible-deniability test across seed-dataset size × k
//! (the privacy parameter).
//!
//! For every configuration the four stores propose the *same* candidates
//! from the same request seed, rank by rank, and must release identical
//! records — the binary asserts this (a decision-equivalence regression here
//! fails `repro.sh` and CI) — while `records_examined` (model-probability
//! evaluations per test) and synthesis wall clock drop with each store
//! generation:
//!
//! * the scan examines `O(|D_S|)` records per candidate;
//! * the inverted index examines the posting-list survivors (≈ k plus
//!   overhead);
//! * the partition store collapses seeds into likelihood-equivalence classes
//!   and runs one check per class — with a fixed ω every key attribute is
//!   exact-matched, so each test is a single class lookup and the examined
//!   count scales with the distinct-class count, not `|D_S|`;
//! * the prefix store (what every session release is tested against) names
//!   the exact plausible set with one range lookup and evaluates the model
//!   not at all, so it reports one examined class per candidate.
//!
//! The main pass caps the examined seeds at 50,000, above every seed count
//! here, so the prefix store counts its range in closed form.  A second,
//! capped pass (`max_check_plausible` 5,000 as in the paper's Section 6.5,
//! 500 in smoke mode) times the prefix store drawing each subset count from
//! its hypergeometric law, and asserts its releases equal the capped scan's.
//! One capped batch takes a few milliseconds, so it runs
//! [`CAPPED_REPS`] times; `prefix_capped_ns_per_test` is the median batch
//! divided by the candidate count.  A store with fewer seeds than the cap
//! examines every seed, so its points count in closed form and draw
//! nothing.
//!
//! The last column group shows the one-off index build costs amortized over
//! every request of a session.

use bench::track::{BenchPoint, SeriesRecorder};
use bench::{scale_from_args, smoke_mode};
use sgf_core::{
    InvertedIndexStore, Mechanism, PartitionIndexStore, PrefixIndexStore, PrivacyTestConfig,
    SeedStore, SynthesisEngine,
};
use sgf_data::acs::{acs_bucketizer, acs_schema, generate_acs};
use sgf_eval::TextTable;
use sgf_index::MAX_INTERSECT_LISTS;
use sgf_model::SeedSynthesizer;
use std::sync::Arc;
use std::time::Instant;

/// Repetitions of the capped prefix batch behind its median time.
const CAPPED_REPS: usize = 31;

fn main() {
    let scale = scale_from_args();
    let (populations, ks, candidates, examine_cap): (Vec<usize>, Vec<usize>, usize, usize) =
        if smoke_mode() {
            (vec![1_500, 3_000], vec![10, 25], 60, 500)
        } else {
            (
                vec![4_000, 8_000, 16_000, 32_000],
                vec![25, 50, 100],
                400,
                5_000,
            )
        };
    let populations: Vec<usize> = populations.iter().map(|p| p * scale).collect();
    let bucketizer = acs_bucketizer(&acs_schema());
    let mut recorder = SeriesRecorder::new("fig_index", scale);

    let mut table = TextTable::new(&[
        "Seeds",
        "Classes",
        "k",
        "Released",
        "Scan exam",
        "Inv exam",
        "Part exam",
        "Part/Inv",
        "Scan (s)",
        "Inv (s)",
        "Part (s)",
        "Prefix (s)",
        "Prefix capped (ns/test)",
        "Build inv (s)",
        "Build part (s)",
        "Build prefix (s)",
    ]);

    for &population_size in &populations {
        let population = generate_acs(population_size, 301);
        // Split and learn once per population size, as a session trains; the
        // k sweep only changes the privacy test, not the trained models.
        let (split, models, _) =
            SynthesisEngine::from_config(bench::experiment_pipeline_config(1, 301))
                .train(&population, &bucketizer)
                .expect("model learning succeeds")
                .into_parts();
        let synthesizer =
            SeedSynthesizer::new(Arc::clone(&models.cpts), 9).expect("omega 9 is valid");

        let build_start = Instant::now();
        let index_store = InvertedIndexStore::build(
            &split.seeds,
            &bucketizer,
            &models.structure.attribute_weights(),
            MAX_INTERSECT_LISTS,
        )
        .expect("index build succeeds");
        let inverted_build_seconds = build_start.elapsed().as_secs_f64();

        let build_start = Instant::now();
        let partition_store =
            PartitionIndexStore::build(&split.seeds, synthesizer.kept_attributes())
                .expect("partition build succeeds");
        let partition_build_seconds = build_start.elapsed().as_secs_f64();

        let build_start = Instant::now();
        let prefix_store = PrefixIndexStore::build(&split.seeds, synthesizer.sigma())
            .expect("prefix build succeeds");
        let prefix_build_seconds = build_start.elapsed().as_secs_f64();

        for &k in &ks {
            let test =
                PrivacyTestConfig::randomized(k, 4.0, 1.0).with_limits(Some(2 * k), Some(50_000));
            // One timed release of `candidates` ranks from request seed 77.
            let release = |store: Option<&dyn SeedStore>, test| {
                let mechanism = match store {
                    Some(store) => Mechanism::with_store(&synthesizer, &split.seeds, store, test),
                    None => Mechanism::new(&synthesizer, &split.seeds, test),
                }
                .expect("mechanism is valid");
                let start = Instant::now();
                let (released, stats) = mechanism
                    .release(candidates, candidates, 77)
                    .expect("release succeeds");
                (released, stats, start.elapsed().as_secs_f64())
            };
            let (scan_released, scan_stats, scan_seconds) = release(None, test);
            let (index_released, index_stats, index_seconds) = release(Some(&index_store), test);
            let (partition_released, partition_stats, partition_seconds) =
                release(Some(&partition_store), test);
            let (prefix_released, prefix_stats, prefix_seconds) =
                release(Some(&prefix_store), test);

            // The capped pass: the prefix store draws the subset's count
            // from its hypergeometric law instead of counting in closed form.
            let capped = test.with_limits(test.max_plausible, Some(examine_cap));
            let mut capped_prefix_released = Vec::new();
            let mut capped_seconds: Vec<f64> = (0..CAPPED_REPS)
                .map(|_| {
                    let seconds;
                    (capped_prefix_released, _, seconds) = release(Some(&prefix_store), capped);
                    seconds
                })
                .collect();
            capped_seconds.sort_by(f64::total_cmp);
            let prefix_capped_seconds = capped_seconds[CAPPED_REPS / 2];
            let prefix_capped_ns_per_test = prefix_capped_seconds * 1e9 / candidates as f64;
            let (capped_scan_released, _, _) = release(None, capped);

            // Decision equivalence is a hard invariant, not a benchmark
            // observation: any divergence aborts the artifact run.
            assert_eq!(
                scan_released,
                index_released,
                "scan and inverted index must release identical records (seeds {}, k {k})",
                split.seeds.len()
            );
            assert_eq!(
                scan_released,
                partition_released,
                "scan and partition store must release identical records (seeds {}, k {k})",
                split.seeds.len()
            );
            assert_eq!(
                scan_released,
                prefix_released,
                "scan and prefix store must release identical records (seeds {}, k {k})",
                split.seeds.len()
            );
            assert_eq!(
                capped_scan_released,
                capped_prefix_released,
                "capped scan and prefix store must release identical records \
                 (seeds {}, k {k}, cap {examine_cap})",
                split.seeds.len()
            );
            assert_eq!(partition_stats.partition_tests, partition_stats.candidates);
            assert_eq!(prefix_stats.partition_tests, prefix_stats.candidates);
            assert_eq!(prefix_stats.records_examined, prefix_stats.candidates);
            assert!(
                partition_stats.records_examined <= index_stats.records_examined,
                "class counting must not examine more than the inverted index \
                 ({} vs {}, seeds {}, k {k})",
                partition_stats.records_examined,
                index_stats.records_examined,
                split.seeds.len()
            );
            if split.seeds.len() >= 4_000 {
                assert!(
                    partition_stats.records_examined < index_stats.records_examined,
                    "at >= 4k seeds the partition store must examine strictly fewer \
                     records than the inverted index ({} vs {}, seeds {}, k {k})",
                    partition_stats.records_examined,
                    index_stats.records_examined,
                    split.seeds.len()
                );
            }

            let ratio = partition_stats.records_examined as f64
                / (index_stats.records_examined as f64).max(1.0);
            table.add_row(&[
                split.seeds.len().to_string(),
                partition_store.class_count().to_string(),
                k.to_string(),
                scan_stats.released.to_string(),
                scan_stats.records_examined.to_string(),
                index_stats.records_examined.to_string(),
                partition_stats.records_examined.to_string(),
                format!("{ratio:.4}"),
                format!("{scan_seconds:.3}"),
                format!("{index_seconds:.3}"),
                format!("{partition_seconds:.3}"),
                format!("{prefix_seconds:.3}"),
                format!("{prefix_capped_ns_per_test:.0}"),
                format!("{inverted_build_seconds:.3}"),
                format!("{partition_build_seconds:.3}"),
                format!("{prefix_build_seconds:.3}"),
            ]);
            recorder.add(
                BenchPoint::new(format!("s{}_k{k:03}", split.seeds.len()))
                    .counter("seeds", split.seeds.len() as u64)
                    .counter("classes", partition_store.class_count() as u64)
                    .counter("k", k as u64)
                    .counter("released", scan_stats.released as u64)
                    .counter("scan_examined", scan_stats.records_examined as u64)
                    .counter("inverted_examined", index_stats.records_examined as u64)
                    .counter(
                        "partition_examined",
                        partition_stats.records_examined as u64,
                    )
                    .value("scan_seconds", scan_seconds)
                    .value("inverted_seconds", index_seconds)
                    .value("partition_seconds", partition_seconds)
                    .value("prefix_seconds", prefix_seconds)
                    .value("prefix_capped_seconds", prefix_capped_seconds)
                    .value("prefix_capped_ns_per_test", prefix_capped_ns_per_test)
                    .value("inverted_build_seconds", inverted_build_seconds)
                    .value("partition_build_seconds", partition_build_seconds)
                    .value("prefix_build_seconds", prefix_build_seconds),
            );
        }
    }
    recorder.finish();

    println!(
        "Seed-store sweep: plausible-deniability test cost, scan vs inverted index vs \
         partition store vs prefix store (omega = 9, gamma = 4, eps0 = 1, scale {scale})\n"
    );
    println!("{}", table.render());
    println!(
        "Scan, inverted index, partition store, and prefix store released byte-identical \
         records in every configuration, and so did scan and prefix store with at most \
         {examine_cap} seeds examined."
    );
}
