//! An empty update leaves the trace and counters any update leaves: one
//! `core.update` span with `delta_records` 0, and one more `core.updates`.
//!
//! A test binary of its own, so the process-wide trace ring holds only
//! this test's spans.

use sgf_core::{PrivacyTestConfig, SynthesisEngine};
use sgf_data::acs::{acs_bucketizer, acs_schema, generate_acs};
use sgf_data::DatasetDelta;

#[test]
fn an_empty_update_commits_a_core_update_span() {
    let data = generate_acs(3_000, 5);
    let session = SynthesisEngine::builder()
        .privacy_test(
            PrivacyTestConfig::randomized(20, 4.0, 1.0).with_limits(Some(40), Some(2_000)),
        )
        .seed(5)
        .train(&data, &acs_bucketizer(&acs_schema()))
        .unwrap();
    let trace = sgf_metrics::trace();
    trace.set_enabled(true);
    let updates = || sgf_metrics::global().snapshot().counter("core.updates");
    let before = updates();

    let next = session
        .update(&DatasetDelta::new(data.schema_arc()))
        .unwrap();
    assert_eq!(next.epoch(), 1);
    assert_eq!(updates(), before + 1);
    let spans: Vec<_> = trace
        .events()
        .into_iter()
        .filter(|event| event.name == "core.update")
        .collect();
    assert_eq!(spans.len(), 1, "one core.update span");
    let span = &spans[0];
    assert_eq!(span.counter("delta_records"), Some(0));
    assert_eq!(span.counter("epoch"), Some(1));
    assert_eq!(span.counter("seeds"), Some(session.seeds().len() as u64));
    assert_eq!(span.label("structure_relearned"), Some("skipped"));
}
