//! Deterministic span traces: a bounded ring buffer of structured events.
//!
//! A [`TraceEvent`] is one span of work — `{span, parent, name, labels,
//! counter deltas, noisy wall clock}`.  Callers build a [`TraceBatch`]
//! locally (span ids are batch-local while building), then [`Trace::commit`]
//! assigns globally consecutive ids under one lock and appends the whole
//! batch atomically, so a sequential request stream produces byte-identical
//! traces run over run.  The wall clock is the only noisy field and the
//! canonical JSON omits it unless explicitly asked for (`noisy = true`).
//!
//! The same two invariants as the metrics registry apply:
//!
//! 1. **Zero perturbation**: tracing never draws randomness, and building a
//!    batch is caller-side work gated on [`Trace::enabled`] — when the trace
//!    is off, the hot path does one relaxed atomic load and nothing else.
//! 2. **Deterministic output** (sgf-lint R2): events keep commit order, span
//!    ids are assigned in commit order, and JSON renders canonically.

use crate::json::Json;
use crate::scope::Scope;
use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Ring-buffer capacity of the [`global trace`](trace), in events.
pub const TRACE_CAPACITY: usize = 4096;

/// Identifies a span within a [`TraceBatch`] (before commit) or globally
/// (after commit).  `SpanId::NONE` (0) marks a root span's missing parent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct SpanId(u64);

impl SpanId {
    /// The absent parent of a root span.
    pub const NONE: SpanId = SpanId(0);

    /// The raw id (0 = none).
    pub fn get(self) -> u64 {
        self.0
    }
}

/// One span of work in a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Globally unique span id after commit (batch-local while building).
    pub span: u64,
    /// Parent span id (0 for roots).
    pub parent: u64,
    /// Span name, e.g. `core.generate` or `core.privacy_test`.
    pub name: String,
    /// `key=value` labels, in attachment order.
    pub labels: Vec<(String, String)>,
    /// Deterministic counter deltas attributed to this span.
    pub counters: Vec<(String, u64)>,
    /// Noisy wall clock (nanoseconds); excluded from canonical JSON unless
    /// explicitly requested.
    pub wall_nanos: u64,
}

impl TraceEvent {
    /// The value of the first label named `key`, if any.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The value of the first counter named `key`, if any.
    pub fn counter(&self, key: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
    }

    /// Canonical JSON object.  Labels render as the same `k=v,k2=v2` string a
    /// [`Scope`] renders to; counters render as a sorted object.  With
    /// `noisy`, the wall clock is included.
    pub fn as_json(&self, noisy: bool) -> Json {
        let mut labels = String::new();
        for (i, (key, value)) in self.labels.iter().enumerate() {
            if i > 0 {
                labels.push(',');
            }
            labels.push_str(key);
            labels.push('=');
            labels.push_str(value);
        }
        let counters = self.counters.iter();
        let counters = counters.map(|(name, value)| (name.clone(), Json::from(*value)));
        let fields = [
            ("span", self.span.into()),
            ("parent", self.parent.into()),
            ("name", self.name.as_str().into()),
            ("labels", labels.into()),
            ("counters", Json::Obj(counters.collect())),
        ];
        let wall = noisy.then(|| ("wall_nanos", self.wall_nanos.into()));
        Json::obj(fields.into_iter().chain(wall))
    }
}

/// A locally-built group of spans, committed to a [`Trace`] atomically.
///
/// Span ids handed out by [`span`](TraceBatch::span) are 1-based and local to
/// the batch; [`Trace::commit`] rebases them onto the global sequence.  Build
/// batches only when [`Trace::enabled`] — construction allocates.
#[derive(Debug, Default)]
pub struct TraceBatch {
    events: Vec<TraceEvent>,
}

impl TraceBatch {
    /// An empty batch.
    pub fn new() -> Self {
        TraceBatch::default()
    }

    /// Number of spans in the batch.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the batch holds no spans.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Open a new span under `parent` (use [`SpanId::NONE`] for a root).
    pub fn span(&mut self, name: &str, parent: SpanId) -> SpanId {
        let id = self.events.len().saturating_add(1) as u64;
        self.events.push(TraceEvent {
            span: id,
            parent: parent.0,
            name: name.to_string(),
            labels: Vec::new(),
            counters: Vec::new(),
            wall_nanos: 0,
        });
        SpanId(id)
    }

    fn event_mut(&mut self, span: SpanId) -> Option<&mut TraceEvent> {
        let index = usize::try_from(span.0).ok()?.checked_sub(1)?;
        self.events.get_mut(index)
    }

    /// Attach one `key=value` label to `span`.
    pub fn label(&mut self, span: SpanId, key: &str, value: &str) {
        if let Some(event) = self.event_mut(span) {
            event.labels.push((key.to_string(), value.to_string()));
        }
    }

    /// Attach every label of `scope` to `span`.
    pub fn scope_labels(&mut self, span: SpanId, scope: &Scope) {
        if let Some(event) = self.event_mut(span) {
            for (key, value) in scope.labels() {
                event.labels.push((key.clone(), value.clone()));
            }
        }
    }

    /// Attach a deterministic counter delta to `span`.
    pub fn counter(&mut self, span: SpanId, name: &str, value: u64) {
        if let Some(event) = self.event_mut(span) {
            event.counters.push((name.to_string(), value));
        }
    }

    /// Record the (noisy) wall clock of `span`.
    pub fn wall(&mut self, span: SpanId, elapsed: Duration) {
        if let Some(event) = self.event_mut(span) {
            event.wall_nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        }
    }
}

struct TraceState {
    next_span: u64,
    events: VecDeque<TraceEvent>,
}

/// A bounded ring buffer of [`TraceEvent`]s with batch-atomic appends.
///
/// Disabled by default: enabling is an explicit opt-in by the host (sgf-serve
/// turns it on; benchmark binaries leave it off so the tracked perf profiles
/// are tracing-free).  [`Trace::set_enabled`] is the workspace's one
/// instrumentation switch: metric updates always run.
pub struct Trace {
    enabled: AtomicBool,
    capacity: usize,
    state: Mutex<TraceState>,
}

impl Trace {
    /// A disabled trace holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Trace {
            enabled: AtomicBool::new(false),
            capacity: capacity.max(1),
            state: Mutex::new(TraceState {
                next_span: 1,
                events: VecDeque::new(),
            }),
        }
    }

    /// Lock the ring, tolerating poison: every mutation leaves the buffer
    /// consistent (whole-batch pushes), and observability must never escalate
    /// a panic into the host.
    fn locked(&self) -> MutexGuard<'_, TraceState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Turn event collection on or off.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether events are being collected.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Append every span of `batch` atomically, rebasing its local span ids
    /// onto the global sequence.  Returns the number of events committed
    /// (0 when disabled — the batch is dropped).
    pub fn commit(&self, batch: TraceBatch) -> usize {
        if !self.enabled() || batch.is_empty() {
            return 0;
        }
        let committed = batch.events.len();
        let mut state = self.locked();
        let base = state.next_span;
        state.next_span = base.saturating_add(committed as u64);
        for mut event in batch.events {
            event.span = base.saturating_add(event.span).saturating_sub(1);
            if event.parent != 0 {
                event.parent = base.saturating_add(event.parent).saturating_sub(1);
            }
            state.events.push_back(event);
        }
        // Evict oldest events beyond capacity (may split an old tree — the
        // ring keeps the *recent* spans complete, which is what `trace`
        // consumers inspect).
        while state.events.len() > self.capacity {
            state.events.pop_front();
        }
        committed
    }

    /// Record a single root span in one call.
    pub fn record(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        counters: &[(&str, u64)],
        wall: Duration,
    ) {
        if !self.enabled() {
            return;
        }
        let mut batch = TraceBatch::new();
        let span = batch.span(name, SpanId::NONE);
        for (key, value) in labels {
            batch.label(span, key, value);
        }
        for (key, value) in counters {
            batch.counter(span, key, *value);
        }
        batch.wall(span, wall);
        self.commit(batch);
    }

    /// Drop every buffered event and restart span ids from 1.
    pub fn clear(&self) {
        let mut state = self.locked();
        state.events.clear();
        state.next_span = 1;
    }

    /// Every buffered event, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.locked().events.iter().cloned().collect()
    }

    /// The buffered events whose span tree is rooted at (or below) a span
    /// carrying label `key=value`: an event matches if it carries the label
    /// itself or descends from one that does.
    pub fn events_with_label(&self, key: &str, value: &str) -> Vec<TraceEvent> {
        let mut matched: BTreeSet<u64> = BTreeSet::new();
        let mut out = Vec::new();
        for event in self.locked().events.iter() {
            let hit = event.label(key) == Some(value)
                || (event.parent != 0 && matched.contains(&event.parent));
            if hit {
                matched.insert(event.span);
                out.push(event.clone());
            }
        }
        out
    }

    /// Canonical JSON for `events` (see [`TraceEvent::as_json`]).
    pub fn events_json(events: &[TraceEvent], noisy: bool) -> Json {
        Json::obj([
            ("schema_version", Json::Int(1)),
            (
                "events",
                Json::Arr(events.iter().map(|e| e.as_json(noisy)).collect()),
            ),
        ])
    }

    /// Canonical JSON of the whole buffer.
    pub fn to_json(&self, noisy: bool) -> String {
        Self::events_json(&self.events(), noisy).render()
    }
}

/// The process-wide trace the sgf crates report into.  Disabled until a host
/// (sgf-serve, a test) calls `trace().set_enabled(true)`.
pub fn trace() -> &'static Trace {
    static GLOBAL: OnceLock<Trace> = OnceLock::new();
    GLOBAL.get_or_init(|| Trace::new(TRACE_CAPACITY))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_drops_batches() {
        let trace = Trace::new(16);
        assert!(!trace.enabled());
        let mut batch = TraceBatch::new();
        batch.span("root", SpanId::NONE);
        assert_eq!(trace.commit(batch), 0);
        assert!(trace.events().is_empty());
        trace.record("r", &[], &[], Duration::ZERO);
        assert!(trace.events().is_empty());
    }

    #[test]
    fn commit_rebases_local_span_ids_onto_the_global_sequence() {
        let trace = Trace::new(16);
        trace.set_enabled(true);
        let mut first = TraceBatch::new();
        let root = first.span("generate", SpanId::NONE);
        let child = first.span("privacy_test", root);
        first.label(root, "session", "a");
        first.counter(child, "records_examined", 7);
        assert_eq!(trace.commit(first), 2);
        let mut second = TraceBatch::new();
        let root2 = second.span("generate", SpanId::NONE);
        second.span("privacy_test", root2);
        assert_eq!(trace.commit(second), 2);
        let events = trace.events();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].span, 1);
        assert_eq!(events[0].parent, 0);
        assert_eq!(events[1].span, 2);
        assert_eq!(events[1].parent, 1);
        assert_eq!(events[1].counter("records_examined"), Some(7));
        assert_eq!(events[2].span, 3);
        assert_eq!(events[3].parent, 3);
    }

    #[test]
    fn ring_buffer_evicts_oldest_events() {
        let trace = Trace::new(3);
        trace.set_enabled(true);
        for i in 0..5 {
            trace.record(&format!("span{i}"), &[], &[], Duration::ZERO);
        }
        let events = trace.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].name, "span2");
        assert_eq!(events[2].name, "span4");
        // Ids keep advancing monotonically across evictions.
        assert_eq!(events[2].span, 5);
        trace.clear();
        assert!(trace.events().is_empty());
        trace.record("fresh", &[], &[], Duration::ZERO);
        assert_eq!(trace.events()[0].span, 1);
    }

    #[test]
    fn label_filter_follows_the_span_tree() {
        let trace = Trace::new(16);
        trace.set_enabled(true);
        let mut batch = TraceBatch::new();
        let a = batch.span("generate", SpanId::NONE);
        batch.label(a, "session", "a");
        let a_child = batch.span("proposal", a);
        let a_grandchild = batch.span("privacy_test", a_child);
        batch.counter(a_grandchild, "records_examined", 3);
        let b = batch.span("generate", SpanId::NONE);
        batch.label(b, "session", "b");
        batch.span("proposal", b);
        trace.commit(batch);
        let session_a = trace.events_with_label("session", "a");
        assert_eq!(session_a.len(), 3);
        assert!(session_a
            .iter()
            .all(|e| e.name != "generate" || e.label("session") == Some("a")));
        let session_b = trace.events_with_label("session", "b");
        assert_eq!(session_b.len(), 2);
        assert!(trace.events_with_label("session", "c").is_empty());
    }

    #[test]
    fn canonical_json_omits_wall_clock_unless_noisy() {
        let trace = Trace::new(16);
        trace.set_enabled(true);
        let mut batch = TraceBatch::new();
        let span = batch.span("core.generate", SpanId::NONE);
        batch.scope_labels(span, &Scope::new().label("session", "acs"));
        batch.counter(span, "released", 10);
        batch.wall(span, Duration::from_nanos(1234));
        trace.commit(batch);
        let quiet = trace.to_json(false);
        assert_eq!(
            quiet,
            "{\"events\":[{\"counters\":{\"released\":10},\"labels\":\"session=acs\",\
             \"name\":\"core.generate\",\"parent\":0,\"span\":1}],\"schema_version\":1}"
        );
        let noisy = trace.to_json(true);
        assert!(noisy.contains("\"wall_nanos\":1234"));
    }
}
