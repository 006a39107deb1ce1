//! A scoped session's mechanism counters equal exactly what its reports
//! say, across clones and update epochs.
//!
//! The release path resolves its metric handles once per scope and keeps
//! them, so this checks that the kept handles land every request in the
//! scope's cell.  No other test writes the cell, so its counters are exact
//! even beside tests that release into the same process-wide registry.

use sgf_core::{GenerateRequest, PrivacyTestConfig, SynthesisEngine};
use sgf_data::acs::{acs_bucketizer, acs_schema, generate_acs};
use sgf_data::DatasetDelta;
use sgf_metrics::Scope;

const SCOPE: &str = "session=flush_handles_test";

/// The scope cell's `core.mechanism.<name>` counter.
fn cell_counter(name: &str) -> u64 {
    sgf_metrics::global()
        .snapshot()
        .scopes
        .get(SCOPE)
        .map_or(0, |cell| cell.counter(&format!("core.mechanism.{name}")))
}

#[test]
fn scoped_counters_sum_the_reports_across_clones_and_epochs() {
    let data = generate_acs(3_000, 61);
    let bucketizer = acs_bucketizer(&acs_schema());
    let session = SynthesisEngine::builder()
        .privacy_test(
            PrivacyTestConfig::randomized(20, 4.0, 1.0).with_limits(Some(40), Some(2_000)),
        )
        .seed(61)
        .train(&data, &bucketizer)
        .unwrap()
        .with_scope(Scope::new().label("session", "flush_handles_test"));
    assert_eq!(cell_counter("requests"), 0, "the cell starts empty");

    let (mut requests, mut candidates, mut released) = (0u64, 0u64, 0u64);
    let mut count = |stats: &sgf_core::MechanismStats| {
        requests += 1;
        candidates += stats.candidates as u64;
        released += stats.released as u64;
        (requests, candidates, released)
    };
    let cell = || {
        (
            cell_counter("requests"),
            cell_counter("candidates"),
            cell_counter("released"),
        )
    };

    // Three requests, one of them through a clone (clones share the handles).
    let clone = session.clone();
    for (handle, seed, workers) in [(&session, 1, 1), (&clone, 2, 2), (&session, 3, 1)] {
        let report = handle
            .generate(
                &GenerateRequest::new(12)
                    .with_seed(seed)
                    .with_workers(workers),
            )
            .unwrap();
        assert_eq!(count(&report.stats), cell());
    }

    // The next epoch keeps counting into the same cell.
    let mut delta = DatasetDelta::new(data.schema_arc());
    for record in generate_acs(10, 62).records() {
        delta.insert(record.clone()).unwrap();
    }
    let next = session.update(&delta).unwrap();
    assert_eq!(next.epoch(), 1);
    assert_eq!(next.scope(), session.scope());
    let report = next
        .generate(&GenerateRequest::new(12).with_seed(4))
        .unwrap();
    let expected = count(&report.stats);
    assert_eq!(expected.0, 4);
    assert_eq!(expected, cell());
}
