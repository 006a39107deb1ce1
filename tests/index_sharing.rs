//! Regression guard for the per-epoch store builds: the σ-prefix store every
//! release is tested against is built once by `SynthesisEngine::train` and
//! shared — not rebuilt — by session clones and serve-owned handles over the
//! same split; the inverted index is built lazily, once per epoch, by the
//! first `seed_store()` call through any handle and shared the same way.
//! After an update, clones racing to the new epoch's first request splice
//! the deferred store once and share it.
//!
//! Sharing is asserted per instance (pointer equality of the stores the
//! handles hand out), so the test holds however many other tests build
//! stores concurrently in the same process.

use sgf::core::{GenerateRequest, PrivacyTestConfig, SynthesisEngine};
use sgf::data::acs::{acs_bucketizer, acs_schema, generate_acs};
use sgf::data::DatasetDelta;
use sgf::serve::{serve, Client, GenerateCall, ServeConfig, SessionEntry};

#[test]
fn one_index_build_per_train_shared_across_clones_and_serve() {
    let population = generate_acs(4_000, 51);
    let bucketizer = acs_bucketizer(&acs_schema());
    let session = SynthesisEngine::builder()
        .privacy_test(
            PrivacyTestConfig::randomized(20, 4.0, 1.0).with_limits(Some(40), Some(2_000)),
        )
        .max_candidate_factor(30)
        .seed(51)
        .train(&population, &bucketizer)
        .unwrap();
    let prefix = session.prefix_store();

    // Clones share the same instance — pointer-equal, not a rebuild.
    let clone_a = session.clone();
    let clone_b = clone_a.clone();
    assert!(std::ptr::eq(prefix, clone_a.prefix_store()));
    assert!(std::ptr::eq(prefix, clone_b.prefix_store()));

    // Generation through a clone is served by that store and charges
    // the shared ledger.
    let report = clone_a
        .generate(&GenerateRequest::new(8).with_seed(1))
        .unwrap();
    assert_eq!(report.provenance.store, "prefix");
    assert_eq!(report.stats.partition_tests, report.stats.candidates);
    assert_eq!(session.ledger().requests, 1);

    // The first accessor call through any handle builds the epoch's index
    // once; every handle then sees that one instance.
    let index = clone_b.seed_store().unwrap();
    assert!(std::ptr::eq(index, session.seed_store().unwrap()));
    assert!(std::ptr::eq(index, clone_a.seed_store().unwrap()));
    assert!(std::ptr::eq(index, clone_b.seed_store().unwrap()));

    // A serve-owned handle over the same split reuses the stores too.
    let handle = serve(
        ServeConfig::default(),
        vec![SessionEntry::new(clone_b.clone())],
    )
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let release = client
        .generate(&GenerateCall::new(8).with_request(GenerateRequest::new(8).with_seed(2)))
        .unwrap();
    assert!(!release.records.is_empty());
    client.shutdown().unwrap();
    handle.join().unwrap();

    // The original handle sees the serve-side request on the shared ledger,
    // and nothing along the way replaced either store.
    assert_eq!(session.ledger().requests, 2);
    assert!(std::ptr::eq(prefix, session.prefix_store()));
    assert!(std::ptr::eq(prefix, clone_b.prefix_store()));
    assert!(std::ptr::eq(index, session.seed_store().unwrap()));

    // An update defers its store splice to the new epoch's first access.
    // Four clones racing to that first access splice once, share the one
    // store, and release what a fresh train on the post-delta data releases.
    let mut delta = DatasetDelta::new(population.schema_arc());
    for record in generate_acs(10, 52).records() {
        delta.insert(record.clone()).unwrap();
    }
    for index in [3, 1_000, 2_500] {
        delta.delete(population.record(index).clone()).unwrap();
    }
    let updated = session.update(&delta).unwrap();
    let fresh = SynthesisEngine::from_config(*session.config())
        .train(&delta.apply(&population).unwrap(), &bucketizer)
        .unwrap();
    let request = GenerateRequest::new(8).with_seed(3);
    let expected = fresh.generate(&request).unwrap();
    let clones: Vec<_> = (0..4).map(|_| updated.clone()).collect();
    let start = std::sync::Barrier::new(clones.len());
    std::thread::scope(|scope| {
        for clone in &clones {
            scope.spawn(|| {
                start.wait();
                let report = clone.generate(&request).unwrap();
                assert_eq!(report.synthetics.records(), expected.synthetics.records());
                assert_eq!(report.stats.candidates, expected.stats.candidates);
            });
        }
    });
    for clone in &clones {
        assert!(std::ptr::eq(clone.prefix_store(), updated.prefix_store()));
    }
    assert!(
        !std::ptr::eq(prefix, updated.prefix_store()),
        "the delta touches the seeds, so the new epoch splices its own store"
    );
}
