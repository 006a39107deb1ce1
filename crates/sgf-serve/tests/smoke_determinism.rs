//! The smoke's observability documents are byte-identical across runs.
//!
//! Two fresh `sgf-serve --smoke` processes with identical seeds must write
//! identical `SMOKE_METRICS.json` / `SMOKE_TRACE.json` /
//! `SMOKE_PROVENANCE.json` artifacts: counter-only metrics snapshots,
//! wall-clock-free span trees, and the provenance block are all functions of
//! the request seeds alone.  Separate processes (not threads) because the
//! metrics registry and trace ring are process-global.
//!
//! The smoke serves with request logs on, so the same runs also check the
//! logs on stderr: canonical JSON lines, the same requests and outcomes on
//! both runs, refusals logged under their reject code, and each admitted
//! `generate` logged `admitted` before its worker logs `done`.

use sgf_serve::json::Value;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::Command;

const ARTIFACTS: [&str; 3] = [
    "SMOKE_METRICS.json",
    "SMOKE_TRACE.json",
    "SMOKE_PROVENANCE.json",
];

/// Run the smoke, writing its documents to `dir`; returns its stderr.
fn run_smoke(dir: &Path) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_sgf-serve"))
        .arg("--smoke")
        .env("SGF_BENCH_DIR", dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .output()
        .expect("spawning sgf-serve --smoke failed");
    let stderr = String::from_utf8(output.stderr).expect("stderr is UTF-8");
    assert!(
        output.status.success(),
        "smoke run failed: {}\n{stderr}",
        output.status
    );
    stderr
}

/// The (verb, session, outcome) of every request log line, sorted.  Each line
/// must be canonical JSON with exactly the log's five keys, and every `done`
/// line must follow the `admitted` line of its request.
fn request_log(stderr: &str) -> Vec<(String, String, String)> {
    let mut admitted = HashSet::new();
    let mut done = 0;
    let mut entries = Vec::new();
    for line in stderr.lines() {
        let value = Value::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!(value.render(), line, "log lines are canonical JSON");
        let Value::Obj(fields) = &value else {
            panic!("a log line is an object: {line}");
        };
        let keys: Vec<&str> = fields.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            ["log", "outcome", "request_id", "session", "verb"],
            "{line}"
        );
        assert_eq!(
            value.get("log").and_then(Value::as_str),
            Some("serve.request")
        );
        let text = |key| {
            let field = value.get(key).and_then(Value::as_str);
            field
                .unwrap_or_else(|| panic!("{line}: `{key}` is a string"))
                .to_string()
        };
        let request_id = value.get("request_id").and_then(Value::as_u64);
        let request_id = request_id.unwrap_or_else(|| panic!("{line}: `request_id` is a count"));
        let outcome = text("outcome");
        match outcome.as_str() {
            "admitted" => assert!(admitted.insert(request_id), "{line}: admitted twice"),
            "done" => {
                assert!(
                    admitted.contains(&request_id),
                    "{line}: `done` logged before its request's `admitted` line"
                );
                done += 1;
            }
            _ => {}
        }
        entries.push((text("verb"), text("session"), outcome));
    }
    assert!(done > 0, "the smoke logs finished generates");
    entries.sort();
    entries
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sgf-smoke-determinism-{}-{tag}",
        std::process::id()
    ));
    // A stale directory from a previous crashed run must not leak old bytes
    // into the comparison.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("creating artifact dir failed");
    dir
}

#[test]
fn smoke_observability_documents_are_byte_identical_across_runs() {
    let first = fresh_dir("a");
    let second = fresh_dir("b");
    let first_log = request_log(&run_smoke(&first));
    let second_log = request_log(&run_smoke(&second));
    for name in ARTIFACTS {
        let a = std::fs::read(first.join(name))
            .unwrap_or_else(|e| panic!("first run wrote no {name}: {e}"));
        let b = std::fs::read(second.join(name))
            .unwrap_or_else(|e| panic!("second run wrote no {name}: {e}"));
        assert!(!a.is_empty(), "{name} is empty");
        assert_eq!(
            a, b,
            "{name} differs between two identically-seeded smoke runs"
        );
    }
    // The provenance artifact is the server's own canonical rendering, not
    // a lossy re-rendering: a fixed point of the codec, floats with `.0`.
    let provenance = std::fs::read_to_string(first.join("SMOKE_PROVENANCE.json")).unwrap();
    let provenance = provenance.trim_end();
    let parsed = sgf_serve::json::Value::parse(provenance).unwrap();
    assert_eq!(parsed.render(), provenance);
    assert!(provenance.contains("\"gamma\":4.0"), "{provenance}");
    // Both runs logged the same requests with the same outcomes, and the
    // smoke's `metrics` and `trace` probes of an unregistered name logged
    // their refusal.
    assert!(!first_log.is_empty(), "the smoke logs its requests");
    assert_eq!(first_log, second_log);
    for verb in ["metrics", "trace"] {
        let probe = (
            verb.to_string(),
            "unregistered".to_string(),
            "unknown_session".to_string(),
        );
        assert!(first_log.contains(&probe), "{first_log:?}");
    }
    let _ = std::fs::remove_dir_all(&first);
    let _ = std::fs::remove_dir_all(&second);
}
