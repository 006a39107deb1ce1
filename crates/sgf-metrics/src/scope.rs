//! Label scoping: fan metrics into per-scope cells under a global rollup.
//!
//! A [`Scope`] is an *ordered* list of `key=value` labels (`session=acs`,
//! `shard=0`, `request=42`).  [`Registry::scoped`](crate::Registry::scoped)
//! resolves a scope to a [`ScopedView`] whose counter/timer/summary handles
//! write **both** the global metric and the per-scope cell, so:
//!
//! * the global rollup stays exactly what it was before scoping existed
//!   (every update lands there), and
//! * per-scope cells partition the rollup — for a metric only ever updated
//!   through scoped handles, the scope cells sum to the global value.
//!
//! Scope cells are full [`Registry`] instances keyed by the scope's canonical
//! rendering, so snapshots, deltas, and canonical JSON all nest unchanged.
//! Cardinality is the caller's contract: scope on bounded dimensions
//! (session, shard), never on unbounded ones (request ids belong in trace
//! labels, not metric scopes).

use crate::registry::{Counter, Registry, Summary, SummaryStats, Timer, TimerStats};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An ordered set of `key=value` labels identifying one metric scope.
///
/// Labels keep insertion order (the order is part of the scope identity:
/// `session=a,shard=0` and `shard=0,session=a` are distinct cells).  Keys and
/// values are sanitized so the canonical rendering stays unambiguous: `=`,
/// `,`, and control characters become `_`.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Scope {
    labels: Vec<(String, String)>,
}

/// Replace rendering-ambiguous characters so `render()` round-trips.
fn sanitize(part: &str) -> String {
    part.chars()
        .map(|c| {
            if c == '=' || c == ',' || c.is_control() {
                '_'
            } else {
                c
            }
        })
        .collect()
}

impl Scope {
    /// An empty scope (no labels).  Resolving it still yields a distinct
    /// cell, keyed by the empty string.
    pub fn new() -> Self {
        Scope::default()
    }

    /// Append one `key=value` label (builder style).
    pub fn label(mut self, key: &str, value: &str) -> Self {
        self.labels.push((sanitize(key), sanitize(value)));
        self
    }

    /// The labels, in insertion order.
    pub fn labels(&self) -> &[(String, String)] {
        &self.labels
    }

    /// The value of the first label named `key`, if any.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Canonical rendering: `key=value` pairs joined by `,` in label order.
    /// This string keys the scope's cell in [`Registry`] snapshots.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, (key, value)) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(key);
            out.push('=');
            out.push_str(value);
        }
        out
    }
}

/// A [`Registry`] view through an optional [`Scope`]: handles it hands out
/// update the registry's global metrics and, when the view has a scope, the
/// scope's cell.
///
/// Resolve a handle once (a registry-map lookup per side), then update
/// through it on the hot path — updates themselves stay lock-free atomics.
/// Registry entries are never removed, so a resolved handle keeps updating
/// the registered metric for the life of the process.
pub struct ScopedView<'r> {
    root: &'r Registry,
    cells: Option<Arc<Registry>>,
}

impl<'r> ScopedView<'r> {
    pub(crate) fn new(root: &'r Registry, cells: Option<Arc<Registry>>) -> Self {
        ScopedView { root, cells }
    }

    /// The scope's cell registry (per-scope values only, no rollup); `None`
    /// for an unscoped view.
    pub fn cells(&self) -> Option<&Arc<Registry>> {
        self.cells.as_ref()
    }

    /// Get or register `name` as a counter in the rollup and the cell.
    pub fn counter(&self, name: &str) -> ScopedCounter {
        ScopedCounter {
            rollup: self.root.counter(name),
            cell: self.cells.as_ref().map(|cells| cells.counter(name)),
        }
    }

    /// Get or register `name` as a timer in the rollup and the cell.
    pub fn timer(&self, name: &str) -> ScopedTimer {
        ScopedTimer {
            rollup: self.root.timer(name),
            cell: self.cells.as_ref().map(|cells| cells.timer(name)),
        }
    }

    /// Get or register `name` as a summary in the rollup and the cell.
    pub fn summary(&self, name: &str) -> ScopedSummary {
        ScopedSummary {
            rollup: self.root.summary(name),
            cell: self.cells.as_ref().map(|cells| cells.summary(name)),
        }
    }
}

/// A counter handle that adds to the global rollup and, if scoped, one scope
/// cell.
#[derive(Debug, Clone)]
pub struct ScopedCounter {
    rollup: Arc<Counter>,
    cell: Option<Arc<Counter>>,
}

impl ScopedCounter {
    /// Add `n` to the rollup and the cell.
    pub fn add(&self, n: u64) {
        self.rollup.add(n);
        if let Some(cell) = &self.cell {
            cell.add(n);
        }
    }

    /// Add one to both.
    pub fn incr(&self) {
        self.add(1);
    }
}

/// A timer handle that observes into the global rollup and, if scoped, one
/// scope cell.
#[derive(Debug, Clone)]
pub struct ScopedTimer {
    rollup: Arc<Timer>,
    cell: Option<Arc<Timer>>,
}

impl ScopedTimer {
    /// Record one observed duration in the rollup and the cell.
    pub fn observe(&self, elapsed: Duration) {
        self.rollup.observe(elapsed);
        if let Some(cell) = &self.cell {
            cell.observe(elapsed);
        }
    }

    /// Time a closure and record its wall clock in both.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let result = f();
        self.observe(start.elapsed());
        result
    }

    /// Statistics of the scope cell (not the rollup); empty when unscoped.
    pub fn cell_stats(&self) -> TimerStats {
        self.cell
            .as_ref()
            .map(|cell| cell.stats())
            .unwrap_or_default()
    }
}

/// A summary handle that observes into the global rollup and, if scoped, one
/// scope cell.
#[derive(Debug, Clone)]
pub struct ScopedSummary {
    rollup: Arc<Summary>,
    cell: Option<Arc<Summary>>,
}

impl ScopedSummary {
    /// Record one observation in the rollup and the cell.
    pub fn observe(&self, value: u64) {
        self.rollup.observe(value);
        if let Some(cell) = &self.cell {
            cell.observe(value);
        }
    }

    /// Statistics of the scope cell (not the rollup); empty when unscoped.
    pub fn cell_stats(&self) -> SummaryStats {
        self.cell
            .as_ref()
            .map(|cell| cell.stats())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_renders_labels_in_insertion_order() {
        let scope = Scope::new().label("session", "acs").label("shard", "0");
        assert_eq!(scope.render(), "session=acs,shard=0");
        assert_eq!(scope.get("session"), Some("acs"));
        assert_eq!(scope.get("missing"), None);
        // Order is identity: swapping labels is a different scope.
        let swapped = Scope::new().label("shard", "0").label("session", "acs");
        assert_ne!(scope, swapped);
        assert_eq!(Scope::new().render(), "");
    }

    #[test]
    fn scope_sanitizes_ambiguous_characters() {
        let scope = Scope::new().label("k=ey", "a,b\nc");
        assert_eq!(scope.render(), "k_ey=a_b_c");
    }

    #[test]
    fn scoped_handles_update_rollup_and_cell() {
        let registry = Registry::new();
        let scope = Scope::new().label("session", "t");
        let view = registry.scoped(&scope);
        view.counter("c").add(3);
        view.counter("c").incr();
        view.timer("t").observe(Duration::from_millis(2));
        view.summary("s").observe(7);
        // Rollup sees everything.
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("c"), 4);
        assert_eq!(snapshot.timers["t"].count, 1);
        assert_eq!(snapshot.summaries["s"].count, 1);
        // The cell sees the same values, nested under the rendered scope.
        let cell = &snapshot.scopes["session=t"];
        assert_eq!(cell.counter("c"), 4);
        assert_eq!(cell.timers["t"].count, 1);
        assert_eq!(cell.summaries["s"].sum, 7);
        // An unscoped update moves the rollup but no cell.
        registry.counter("c").add(10);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("c"), 14);
        assert_eq!(snapshot.scopes["session=t"].counter("c"), 4);
    }
}
