//! Determinism of the metrics registry under `std::thread::scope`
//! concurrency: counts are exact (no lost updates), snapshot iteration order
//! is canonical, the JSON schema round-trips, and scoped cells partition the
//! global rollup exactly.

use sgf_metrics::{Registry, Scope, Snapshot, SpanId, Trace, TraceBatch};
use std::time::Duration;

const THREADS: u64 = 8;
const INCREMENTS: u64 = 10_000;

#[test]
fn concurrent_counter_updates_are_exact() {
    let registry = Registry::new();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let registry = &registry;
            scope.spawn(move || {
                let shared = registry.counter("shared");
                let own = registry.counter(&format!("worker.{t:02}"));
                for _ in 0..INCREMENTS {
                    shared.incr();
                    own.add(2);
                }
            });
        }
    });
    let snapshot = registry.snapshot();
    assert_eq!(snapshot.counter("shared"), THREADS * INCREMENTS);
    for t in 0..THREADS {
        assert_eq!(snapshot.counter(&format!("worker.{t:02}")), 2 * INCREMENTS);
    }
}

#[test]
fn concurrent_timers_and_summaries_lose_no_observations() {
    let registry = Registry::new();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let registry = &registry;
            scope.spawn(move || {
                let timer = registry.timer("work");
                let summary = registry.summary("batch_size");
                for i in 0..1_000u64 {
                    timer.observe(Duration::from_nanos(t + 1));
                    summary.observe(i % 17);
                }
            });
        }
    });
    let snapshot = registry.snapshot();
    let timer = snapshot.timers["work"];
    assert_eq!(timer.count, THREADS * 1_000);
    // Total is the exact sum of per-thread contributions: 1000 * (1+..+8).
    assert_eq!(timer.total_nanos, 1_000 * (THREADS * (THREADS + 1) / 2));
    assert_eq!(timer.max_nanos, THREADS);
    let summary = snapshot.summaries["batch_size"];
    assert_eq!(summary.count, THREADS * 1_000);
    assert_eq!(summary.min, 0);
    assert_eq!(summary.max, 16);
    assert_eq!(summary.buckets.iter().sum::<u64>(), summary.count);
}

#[test]
fn snapshot_order_and_json_are_deterministic_across_registration_order() {
    // Two registries populated by threads racing in opposite orders still
    // snapshot identically: iteration order is the sorted name order, not
    // registration order.
    let build = |reverse: bool| {
        let registry = Registry::new();
        std::thread::scope(|scope| {
            let names: Vec<String> = (0..32).map(|i| format!("metric.{i:02}")).collect();
            for chunk in names.chunks(8) {
                let registry = &registry;
                let mut chunk = chunk.to_vec();
                if reverse {
                    chunk.reverse();
                }
                scope.spawn(move || {
                    for name in chunk {
                        registry.counter(&name).add(7);
                    }
                });
            }
        });
        registry.snapshot()
    };
    let forward = build(false);
    let backward = build(true);
    assert_eq!(forward, backward);
    assert_eq!(forward.to_json(), backward.to_json());
    let names: Vec<&String> = forward.counters.keys().collect();
    let mut sorted = names.clone();
    sorted.sort();
    assert_eq!(names, sorted);
}

#[test]
fn concurrent_scoped_writers_sum_exactly_to_the_global_rollup() {
    let registry = Registry::new();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let registry = &registry;
            scope.spawn(move || {
                // Each thread hammers its own session cell plus a shared one.
                let own = registry.scoped(&Scope::new().label("session", &format!("s{t}")));
                let shared = registry.scoped(&Scope::new().label("session", "shared"));
                let own_counter = own.counter("core.released");
                let shared_counter = shared.counter("core.released");
                let own_summary = own.summary("serve.generate_ms");
                for i in 0..INCREMENTS {
                    own_counter.add(3);
                    shared_counter.incr();
                    if i % 100 == 0 {
                        own_summary.observe(i);
                    }
                }
            });
        }
    });
    let snapshot = registry.snapshot();
    // Per-scope cells partition the rollup: summing every cell reproduces the
    // global value exactly — no lost updates, no double counting.
    let cell_sum: u64 = snapshot
        .scopes
        .values()
        .map(|cell| cell.counter("core.released"))
        .sum();
    assert_eq!(cell_sum, snapshot.counter("core.released"));
    assert_eq!(cell_sum, THREADS * INCREMENTS * 4);
    assert_eq!(
        snapshot.scopes["session=shared"].counter("core.released"),
        THREADS * INCREMENTS
    );
    // Summary observation counts partition the same way.
    let summary_sum: u64 = snapshot
        .scopes
        .values()
        .filter_map(|cell| cell.summaries.get("serve.generate_ms"))
        .map(|s| s.count)
        .sum();
    assert_eq!(summary_sum, snapshot.summaries["serve.generate_ms"].count);
    // Scope iteration order is the sorted rendering, deterministically.
    let keys: Vec<&String> = snapshot.scopes.keys().collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted);
    // And the nested document round-trips.
    let parsed = Snapshot::from_json(&snapshot.to_json()).expect("scoped snapshot parses");
    assert_eq!(parsed, snapshot);
}

#[test]
fn concurrent_trace_commits_keep_batches_contiguous() {
    // Batches from racing threads may interleave in arbitrary order, but
    // every batch's spans stay contiguous with intact parent links — commit
    // is atomic per batch.
    let trace = Trace::new(4096);
    trace.set_enabled(true);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let trace = &trace;
            scope.spawn(move || {
                for _ in 0..100 {
                    let mut batch = TraceBatch::new();
                    let root = batch.span("root", SpanId::NONE);
                    batch.label(root, "thread", &format!("{t}"));
                    let child = batch.span("child", root);
                    batch.counter(child, "work", t);
                    trace.commit(batch);
                }
            });
        }
    });
    let events = trace.events();
    assert_eq!(events.len(), (THREADS as usize) * 200);
    for pair in events.chunks(2) {
        assert_eq!(pair.len(), 2, "batches never split");
        assert_eq!(pair[0].name, "root");
        assert_eq!(pair[1].name, "child");
        assert_eq!(pair[1].parent, pair[0].span);
        assert_eq!(pair[1].span, pair[0].span + 1);
        // The child's counter matches the root's thread label: no cross-batch
        // mixing.
        let thread: u64 = pair[0]
            .label("thread")
            .and_then(|v| v.parse().ok())
            .unwrap();
        assert_eq!(pair[1].counter("work"), Some(thread));
    }
}

#[test]
fn snapshot_json_schema_round_trips_through_text() {
    let registry = Registry::new();
    registry.counter("core.candidates").add(123_456_789);
    registry.counter("core.released").add(1_000);
    registry
        .timer("core.generate_seconds")
        .observe(Duration::from_micros(2_500));
    let summary = registry.summary("index.posting_len");
    for v in [0u64, 1, 7, 64, 4096, u64::MAX] {
        summary.observe(v);
    }
    let snapshot = registry.snapshot();
    let text = snapshot.to_json();
    let parsed = Snapshot::from_json(&text).expect("canonical snapshot JSON parses");
    assert_eq!(parsed, snapshot);
    assert_eq!(parsed.to_json(), text);
    // Delta against itself is all-zero counts.
    let delta = snapshot.delta(&snapshot);
    assert!(delta.counters.values().all(|v| *v == 0));
    assert!(delta.timers.values().all(|t| t.count == 0));
    assert!(delta.summaries.values().all(|s| s.count == 0));
}
