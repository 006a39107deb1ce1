//! Std-only observability for the sgf workspace.
//!
//! The crate provides a deterministic metrics [`Registry`] — monotonic
//! [`Counter`]s, wall-clock [`Timer`]s, and log2-bucket [`Summary`] histograms
//! — that the perf-critical layers (sgf-core's mechanism loop, sgf-index's
//! seed stores, sgf-serve's queue and worker pool) report into, plus the
//! workspace's one JSON codec, [`json`]: snapshots, benchmark documents and
//! the sgf-serve wire protocol are all built and parsed through it.
//!
//! Two observability layers sit on top of the registry:
//!
//! * **Label scoping** ([`Scope`] / [`ScopedView`]): an ordered label set
//!   (`session=acs`, `shard=0`) fans every metric into a per-scope cell
//!   while preserving the global rollup — snapshots nest the cells under
//!   `scopes`, and a scope-free snapshot renders exactly as before.
//! * **Span traces** ([`Trace`] / [`TraceBatch`]): a bounded ring buffer of
//!   `{span, parent, labels, counter deltas, noisy wall clock}` events with
//!   batch-atomic commits and a kill-switch, off by default.
//!
//! Two invariants shape everything here:
//!
//! 1. **Instrumentation must not perturb the measured system.**  Metric
//!    updates are lock-free atomics and never draw randomness; the
//!    workspace's equivalence suites assert that an instrumented release is
//!    byte-identical to an uninstrumented replay of the same request.
//! 2. **Deterministic output** (sgf-lint R2): snapshots iterate in sorted
//!    name order and render to canonical JSON, so two runs of the same build
//!    produce diffable metric documents.
//!
//! ```
//! use std::time::Duration;
//!
//! let registry = sgf_metrics::Registry::new();
//! let released = registry.counter("core.released");
//! released.add(100);
//! registry.timer("core.generate").observe(Duration::from_millis(3));
//!
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.counter("core.released"), 100);
//! let reparsed = sgf_metrics::Snapshot::from_json(&snapshot.to_json()).unwrap();
//! assert_eq!(reparsed, snapshot);
//! ```
//!
//! Most call sites use the process-wide registry via the free functions
//! [`counter`], [`timer`], and [`summary`]; `sgf-bench-track` snapshots it
//! around each benchmark run and emits the delta into `BENCH_<name>.json`.

pub mod json;
mod registry;
mod scope;
mod trace;

pub use json::{Json, ParseError};
pub use registry::{
    counter, global, scoped, summary, summary_bucket, timer, view, Counter, Registry, Snapshot,
    Summary, SummaryStats, Timer, TimerGuard, TimerStats, SUMMARY_BUCKETS,
};
pub use scope::{Scope, ScopedCounter, ScopedSummary, ScopedTimer, ScopedView};
pub use trace::{trace, SpanId, Trace, TraceBatch, TraceEvent, TRACE_CAPACITY};

/// Pads and aligns a value to (at least) a cache-line boundary so two hot
/// atomics owned by different workers never share a line (false sharing).
///
/// 128 bytes covers the common 64-byte line as well as the 128-byte
/// destructive-interference distance of recent x86 prefetchers and Apple
/// silicon.
#[derive(Debug, Default, Clone, Copy)]
#[repr(align(128))]
pub struct CachePadded<T> {
    /// The padded value.
    pub value: T,
}

impl<T> CachePadded<T> {
    /// Wrap `value` in its own cache line.
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_padded_is_at_least_128_byte_aligned() {
        assert!(std::mem::align_of::<CachePadded<u64>>() >= 128);
        assert!(std::mem::size_of::<CachePadded<u64>>() >= 128);
        let padded = CachePadded::new(std::sync::atomic::AtomicU64::new(7));
        padded
            .value
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        assert_eq!(padded.load(std::sync::atomic::Ordering::Relaxed), 8);
    }
}
