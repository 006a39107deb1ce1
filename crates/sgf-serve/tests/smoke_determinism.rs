//! The smoke's observability documents are byte-identical across runs.
//!
//! Two fresh `sgf-serve --smoke` processes with identical seeds must write
//! identical `SMOKE_METRICS.json` / `SMOKE_TRACE.json` /
//! `SMOKE_PROVENANCE.json` artifacts: counter-only metrics snapshots,
//! wall-clock-free span trees, and the provenance block are all functions of
//! the request seeds alone.  Separate processes (not threads) because the
//! metrics registry and trace ring are process-global.

use std::path::{Path, PathBuf};
use std::process::Command;

const ARTIFACTS: [&str; 3] = [
    "SMOKE_METRICS.json",
    "SMOKE_TRACE.json",
    "SMOKE_PROVENANCE.json",
];

fn run_smoke(dir: &Path) {
    let status = Command::new(env!("CARGO_BIN_EXE_sgf-serve"))
        .arg("--smoke")
        .env("SGF_BENCH_DIR", dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("spawning sgf-serve --smoke failed");
    assert!(status.success(), "smoke run failed: {status}");
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
    run_smoke(&first);
    run_smoke(&second);
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
    let _ = std::fs::remove_dir_all(&first);
    let _ = std::fs::remove_dir_all(&second);
}
