//! Golden bytes of the `generate` response lines.
//!
//! The batch header, the stream trailers, the report JSON and the record
//! lines are written straight into a buffer by the blocks' own encoders.
//! These tests pin their exact bytes for fixed reports that cover every
//! rendering case of the blocks: the randomized test, the deterministic
//! test (no per-release budget and an infinite total ε, both `null`), no
//! ε₀, a ranged ω, and a later epoch with trace spans.  Each pinned line
//! is also a fixed point of the JSON codec.  The pinned bytes are what the
//! `Json`-tree encoders the writers replaced rendered for the same reports.

use sgf_core::session::Provenance;
use sgf_core::{BudgetLedger, MechanismStats, ReleaseReport};
use sgf_data::{Attribute, Dataset, Record, Schema};
use sgf_model::OmegaSpec;
use sgf_serve::json::Value;
use sgf_serve::protocol::{
    batch_header_line, push_batch_header, push_record_line, record_line, stream_end_line,
};
use sgf_stats::DpBudget;
use std::sync::Arc;
use std::time::Duration;

fn ledger(
    per_release: Option<DpBudget>,
    releases: usize,
    requests: usize,
    reserved: usize,
) -> BudgetLedger {
    let mut ledger = BudgetLedger::new(
        DpBudget::new(0.25, 1e-9),
        DpBudget::new(0.5, 2e-9),
        per_release,
    );
    ledger.releases = releases;
    ledger.requests = requests;
    ledger.reserved = reserved;
    ledger
}

/// A randomized-test release (`randomized`) or a deterministic-test one.
fn report(randomized: bool) -> ReleaseReport {
    let schema = Arc::new(Schema::new(vec![Attribute::categorical_anon("A", 2)]).unwrap());
    let per_release = randomized.then(|| DpBudget::new(0.1875, 3.5e-7));
    let stats = MechanismStats {
        candidates: 40,
        released: 25,
        records_examined: 1234,
        index_tests: 3,
        scan_tests: 2,
        partition_tests: 35,
        class_cache_hits: 30,
        class_cache_misses: 5,
    };
    let provenance = Provenance {
        store: "prefix",
        seeds: 15_700,
        omega: if randomized {
            OmegaSpec::Fixed(9)
        } else {
            OmegaSpec::UniformRange { lo: 8, hi: 11 }
        },
        workers: 2,
        max_candidates: 750,
        k: 50,
        gamma: 4.0,
        epsilon0: randomized.then_some(1.0),
        request_seed: u64::MAX,
        epoch: if randomized { 0 } else { 3 },
        ledger_before: ledger(per_release, if randomized { 50 } else { 0 }, 2, 35),
        trace_spans: if randomized { 0 } else { 7 },
    };
    ReleaseReport {
        synthetics: Dataset::from_records_unchecked(schema, Vec::new()),
        stats,
        per_release,
        ledger: ledger(per_release, 75, 3, 10),
        synthesis: Duration::from_micros(1_250),
        provenance,
    }
}

/// The line is canonical: parsing and rendering it reproduces its bytes.
fn assert_fixed_point(line: &str) {
    assert_eq!(Value::parse(line).unwrap().render(), line);
}

fn provenance_text(report: &ReleaseReport) -> String {
    let mut text = String::new();
    report.write_provenance_json(&mut text);
    text
}

const RANDOMIZED_HEADER: &str = r#"{"ledger":{"model_delta":0.000000002,"model_epsilon":0.5,"per_release_delta":0.00000035,"per_release_epsilon":0.1875,"releases":75,"requests":3,"reserved":10,"reserved_delta":0.000029749999999999998,"reserved_epsilon":15.9375,"total_delta":0.000026249999999999998,"total_epsilon":14.0625},"ok":true,"provenance":{"epoch":0,"epsilon0":1.0,"gamma":4.0,"k":50,"ledger":{"after":{"delta":0.000026249999999999998,"epsilon":14.0625,"releases":75,"requests":3},"before":{"delta":0.0000175,"epsilon":9.375,"releases":50,"requests":2}},"max_candidates":750,"omega":"fixed:9","request_seed":18446744073709551615,"seeds":15700,"store":"prefix","trace_spans":0,"workers":2},"released":25,"request_epsilon":4.6875,"stats":{"candidates":40,"class_cache_hits":30,"class_cache_misses":5,"index_tests":3,"partition_tests":35,"pass_rate":0.625,"records_examined":1234,"released":25,"scan_tests":2},"streaming":false,"verb":"generate"}"#;

const DETERMINISTIC_HEADER: &str = r#"{"ledger":{"model_delta":0.000000002,"model_epsilon":0.5,"per_release_delta":null,"per_release_epsilon":null,"releases":75,"requests":3,"reserved":10,"reserved_delta":0.000000002,"reserved_epsilon":null,"total_delta":0.000000002,"total_epsilon":null},"ok":true,"provenance":{"epoch":3,"epsilon0":null,"gamma":4.0,"k":50,"ledger":{"after":{"delta":0.000000002,"epsilon":null,"releases":75,"requests":3},"before":{"delta":0.000000002,"epsilon":0.5,"releases":0,"requests":2}},"max_candidates":750,"omega":"uniform:8-11","request_seed":18446744073709551615,"seeds":15700,"store":"prefix","trace_spans":7,"workers":2},"released":25,"request_epsilon":null,"stats":{"candidates":40,"class_cache_hits":30,"class_cache_misses":5,"index_tests":3,"partition_tests":35,"pass_rate":0.625,"records_examined":1234,"released":25,"scan_tests":2},"streaming":false,"verb":"generate"}"#;

#[test]
fn batch_headers_match_their_golden_bytes() {
    for (randomized, golden) in [(true, RANDOMIZED_HEADER), (false, DETERMINISTIC_HEADER)] {
        let report = report(randomized);
        let mut served = String::new();
        push_batch_header(&mut served, &report);
        assert_eq!(served, golden);
        // The template over pre-rendered blocks writes the same bytes.
        let spliced = batch_header_line(
            report.stats.released,
            &report.stats.to_json(),
            report.request_budget().epsilon,
            &report.ledger.to_json(),
            &provenance_text(&report),
        );
        assert_eq!(spliced, golden);
        // The parsed provenance value renders the block's own bytes.
        assert!(golden.contains(&report.provenance_json().render()));
        assert_fixed_point(golden);
    }
}

#[test]
fn report_json_and_stream_trailers_match_their_golden_bytes() {
    let golden = r#"{"ledger":{"model_delta":0.000000002,"model_epsilon":0.5,"per_release_delta":null,"per_release_epsilon":null,"releases":75,"requests":3,"reserved":10,"reserved_delta":0.000000002,"reserved_epsilon":null,"total_delta":0.000000002,"total_epsilon":null},"provenance":{"epoch":3,"epsilon0":null,"gamma":4.0,"k":50,"ledger":{"after":{"delta":0.000000002,"epsilon":null,"releases":75,"requests":3},"before":{"delta":0.000000002,"epsilon":0.5,"releases":0,"requests":2}},"max_candidates":750,"omega":"uniform:8-11","request_seed":18446744073709551615,"seeds":15700,"store":"prefix","trace_spans":7,"workers":2},"request_epsilon":null,"stats":{"candidates":40,"class_cache_hits":30,"class_cache_misses":5,"index_tests":3,"partition_tests":35,"pass_rate":0.625,"records_examined":1234,"released":25,"scan_tests":2},"synthesis_seconds":0.00125}"#;
    assert_eq!(report(false).to_json(), golden);
    assert_fixed_point(golden);

    let report = report(true);
    let trailer = stream_end_line(
        report.stats.released,
        &report.stats.to_json(),
        &report.ledger.to_json(),
        &provenance_text(&report),
    );
    let golden = r#"{"end":true,"ledger":{"model_delta":0.000000002,"model_epsilon":0.5,"per_release_delta":0.00000035,"per_release_epsilon":0.1875,"releases":75,"requests":3,"reserved":10,"reserved_delta":0.000029749999999999998,"reserved_epsilon":15.9375,"total_delta":0.000026249999999999998,"total_epsilon":14.0625},"provenance":{"epoch":0,"epsilon0":1.0,"gamma":4.0,"k":50,"ledger":{"after":{"delta":0.000026249999999999998,"epsilon":14.0625,"releases":75,"requests":3},"before":{"delta":0.0000175,"epsilon":9.375,"releases":50,"requests":2}},"max_candidates":750,"omega":"fixed:9","request_seed":18446744073709551615,"seeds":15700,"store":"prefix","trace_spans":0,"workers":2},"released":25,"stats":{"candidates":40,"class_cache_hits":30,"class_cache_misses":5,"index_tests":3,"partition_tests":35,"pass_rate":0.625,"records_examined":1234,"released":25,"scan_tests":2}}"#;
    assert_eq!(trailer, golden);
    assert_fixed_point(golden);

    // A stream that fails mid-way has no stats or provenance block.
    let failed = stream_end_line(7, "null", &report.ledger.to_json(), "null");
    let golden = r#"{"end":true,"ledger":{"model_delta":0.000000002,"model_epsilon":0.5,"per_release_delta":0.00000035,"per_release_epsilon":0.1875,"releases":75,"requests":3,"reserved":10,"reserved_delta":0.000029749999999999998,"reserved_epsilon":15.9375,"total_delta":0.000026249999999999998,"total_epsilon":14.0625},"provenance":null,"released":7,"stats":null}"#;
    assert_eq!(failed, golden);
    assert_fixed_point(golden);
}

#[test]
fn record_lines_match_their_golden_bytes() {
    for (value, golden) in [
        (0u16, r#"{"record":[0]}"#),
        (9, r#"{"record":[9]}"#),
        (10, r#"{"record":[10]}"#),
        (99, r#"{"record":[99]}"#),
        (100, r#"{"record":[100]}"#),
        (65535, r#"{"record":[65535]}"#),
    ] {
        assert_eq!(record_line(&Record::new(vec![value])), golden);
        assert_fixed_point(golden);
    }
    let record = Record::new(vec![
        0, 9, 10, 99, 100, 999, 1000, 9999, 10000, 65535, 1, 42, 512, 4679, 65534,
    ]);
    let golden = r#"{"record":[0,9,10,99,100,999,1000,9999,10000,65535,1,42,512,4679,65534]}"#;
    assert_eq!(record_line(&record), golden);
    // Appending writes the same bytes after what the buffer holds.
    let mut buffer = String::from("x");
    push_record_line(&mut buffer, &record);
    assert_eq!(buffer.strip_prefix('x'), Some(golden));
    assert_fixed_point(golden);
}
