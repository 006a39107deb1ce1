//! The metrics registry: named monotonic counters, wall-clock timers, and
//! log2-bucket summaries, with deterministic snapshot/serialization order.
//!
//! ## Design constraints
//!
//! * **Never perturb the measured system.**  Metric updates touch only their
//!   own atomics — no RNG, no allocation, no locking on the hot path (the
//!   registry mutex is taken only to register a metric or take a snapshot).
//!   The release-equivalence suites assert that instrumented runs release
//!   byte-identical records to uninstrumented ones.
//! * **Deterministic iteration** (sgf-lint R2): metrics live in a `BTreeMap`,
//!   so snapshots and their JSON render in one canonical order.
//! * **Never panic the host** (the spirit of R3): the registry mutex is
//!   poison-tolerant, and a name registered under another kind hands out a
//!   detached handle rather than panicking.

use crate::json::Json;
use crate::scope::{Scope, ScopedView};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Number of log2 magnitude buckets a [`Summary`] tracks (`u64` has 64 bit
/// positions; bucket `i` holds values whose highest set bit is `i - 1`, with
/// bucket 0 holding zero).
pub const SUMMARY_BUCKETS: usize = 65;

/// A monotonic counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A wall-clock timer: observation count, total, and maximum duration.
#[derive(Debug, Default)]
pub struct Timer {
    count: AtomicU64,
    total_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

impl Timer {
    /// Record one observed duration.
    pub fn observe(&self, elapsed: Duration) {
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Time a closure and record its wall clock.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let result = f();
        self.observe(start.elapsed());
        result
    }

    /// Start a guard that records the elapsed wall clock when dropped.
    pub fn start(&self) -> TimerGuard<'_> {
        TimerGuard {
            timer: self,
            start: Instant::now(),
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> TimerStats {
        TimerStats {
            count: self.count.load(Ordering::Relaxed),
            total_nanos: self.total_nanos.load(Ordering::Relaxed),
            max_nanos: self.max_nanos.load(Ordering::Relaxed),
        }
    }
}

/// Records the elapsed time into its [`Timer`] on drop.
#[derive(Debug)]
pub struct TimerGuard<'t> {
    timer: &'t Timer,
    start: Instant,
}

impl Drop for TimerGuard<'_> {
    fn drop(&mut self) {
        self.timer.observe(self.start.elapsed());
    }
}

/// A point-in-time view of a [`Timer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimerStats {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed durations, in nanoseconds.
    pub total_nanos: u64,
    /// Largest observed duration, in nanoseconds.
    pub max_nanos: u64,
}

/// A histogram-ish summary of a `u64`-valued observation stream: count, sum,
/// min, max, and power-of-two magnitude buckets (enough for order-of-magnitude
/// latency/size profiles without storing samples).
#[derive(Debug)]
pub struct Summary {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; SUMMARY_BUCKETS],
}

impl Default for Summary {
    fn default() -> Self {
        Summary {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// The magnitude bucket a value falls into: 0 for 0, else `64 - leading_zeros`
/// (so bucket `i >= 1` holds values in `[2^(i-1), 2^i)`).
pub fn summary_bucket(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

impl Summary {
    /// Record one observation.
    pub fn observe(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        if let Some(bucket) = self.buckets.get(summary_bucket(value)) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> SummaryStats {
        let count = self.count.load(Ordering::Relaxed);
        SummaryStats {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| {
                self.buckets.get(i).map_or(0, |b| b.load(Ordering::Relaxed))
            }),
        }
    }
}

/// A point-in-time view of a [`Summary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SummaryStats {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Smallest observed value (0 when nothing was observed).
    pub min: u64,
    /// Largest observed value.
    pub max: u64,
    /// Count per log2 magnitude bucket (see [`summary_bucket`]).
    pub buckets: [u64; SUMMARY_BUCKETS],
}

impl Default for SummaryStats {
    fn default() -> Self {
        SummaryStats {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; SUMMARY_BUCKETS],
        }
    }
}

impl SummaryStats {
    /// Mean observed value (0 when nothing was observed).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// An upper bound on the `q`-quantile (`0 < q <= 1`) reconstructed from
    /// the log2 buckets: the smallest bucket upper edge at which the
    /// cumulative count reaches `ceil(q * count)`, capped at the observed
    /// max.  Within a factor of 2 of the true quantile — enough for
    /// admission-control signals like a p95 `retry_after_ms`.  Returns 0
    /// when nothing was observed.
    ///
    /// `q` outside `[0, 1]` — including NaN, whose `as u64` cast would
    /// silently select the *first* bucket — answers the conservative upper
    /// bound (the observed max) instead of an arbitrary bucket.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if !(0.0..=1.0).contains(&q) {
            return self.max;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            cumulative = cumulative.saturating_add(*bucket);
            if cumulative >= target {
                // Bucket i >= 1 holds [2^(i-1), 2^i); bucket 0 holds zero.
                let edge = match i {
                    0 => 0,
                    _ if i >= 64 => u64::MAX,
                    _ => (1u64 << i) - 1,
                };
                return edge.min(self.max);
            }
        }
        self.max
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Timer(Arc<Timer>),
    Summary(Arc<Summary>),
}

/// A collection of named metrics with deterministic iteration order.
///
/// `counter` / `timer` / `summary` register on first use and return shared
/// handles.  A lookup takes the registry mutex (and a scoped one the scopes
/// mutex too); an update through a handle is a relaxed atomic.  Hot paths
/// therefore resolve their handles once — per session, server, queue or
/// worker, not per request — and keep them: entries are never removed, so a
/// kept handle always updates the registered metric.  The release path works
/// this way (sgf-core's per-session mechanism handles, sgf-serve's session,
/// queue and worker handles); cold paths may look metrics up by name.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
    /// Per-scope cell registries, keyed by the scope's canonical rendering.
    /// Cells never nest further (a cell's own `scopes` map stays empty).
    scopes: Mutex<BTreeMap<String, Arc<Registry>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Lock the metric map, tolerating poison: all mutations are single map
    /// inserts, so the state is consistent even if a holder panicked, and
    /// observability must never escalate a panic into the host.
    fn locked(&self) -> MutexGuard<'_, BTreeMap<String, Metric>> {
        self.metrics.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Get or register the counter `name`.
    ///
    /// A name already registered as a different metric kind yields a fresh,
    /// unregistered handle (updates still work; the snapshot keeps the first
    /// registration) — observability never panics the host over a name clash.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut metrics = self.locked();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
        {
            Metric::Counter(counter) => Arc::clone(counter),
            _ => Arc::new(Counter::default()),
        }
    }

    /// Get or register the timer `name` (same clash policy as `counter`).
    pub fn timer(&self, name: &str) -> Arc<Timer> {
        let mut metrics = self.locked();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Timer(Arc::new(Timer::default())))
        {
            Metric::Timer(timer) => Arc::clone(timer),
            _ => Arc::new(Timer::default()),
        }
    }

    /// Get or register the summary `name` (same clash policy as `counter`).
    pub fn summary(&self, name: &str) -> Arc<Summary> {
        let mut metrics = self.locked();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Summary(Arc::new(Summary::default())))
        {
            Metric::Summary(summary) => Arc::clone(summary),
            _ => Arc::new(Summary::default()),
        }
    }

    /// The cell registry for `scope`, created on first use.  Cells hold the
    /// per-scope values only; the rollup lives in `self`.
    pub fn scope_registry(&self, scope: &Scope) -> Arc<Registry> {
        let key = scope.render();
        let mut scopes = self.scopes.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(
            scopes
                .entry(key)
                .or_insert_with(|| Arc::new(Registry::new())),
        )
    }

    /// A view of this registry through `scope`: handles it hands out update
    /// both the global metric and the scope's cell (see [`ScopedView`]).
    pub fn scoped(&self, scope: &Scope) -> ScopedView<'_> {
        self.view(Some(scope))
    }

    /// [`Registry::scoped`] through `scope` when there is one; without, a
    /// view whose handles update the rollup only.
    pub fn view(&self, scope: Option<&Scope>) -> ScopedView<'_> {
        ScopedView::new(self, scope.map(|scope| self.scope_registry(scope)))
    }

    /// A consistent point-in-time view of every registered metric, in sorted
    /// name order, including every scope cell under `scopes`.
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self.locked();
        let mut snapshot = Snapshot::default();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => {
                    snapshot.counters.insert(name.clone(), c.get());
                }
                Metric::Timer(t) => {
                    snapshot.timers.insert(name.clone(), t.stats());
                }
                Metric::Summary(s) => {
                    snapshot.summaries.insert(name.clone(), s.stats());
                }
            }
        }
        drop(metrics);
        let scopes = self.scopes.lock().unwrap_or_else(|e| e.into_inner());
        for (key, cell) in scopes.iter() {
            snapshot.scopes.insert(key.clone(), cell.snapshot());
        }
        snapshot
    }
}

/// The process-wide registry the sgf crates report into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Get or register a counter in the [`global`] registry.
pub fn counter(name: &str) -> Arc<Counter> {
    global().counter(name)
}

/// Get or register a timer in the [`global`] registry.
pub fn timer(name: &str) -> Arc<Timer> {
    global().timer(name)
}

/// Get or register a summary in the [`global`] registry.
pub fn summary(name: &str) -> Arc<Summary> {
    global().summary(name)
}

/// A view of the [`global`] registry through `scope`.
pub fn scoped(scope: &Scope) -> ScopedView<'static> {
    global().scoped(scope)
}

/// A view of the [`global`] registry through `scope`, or of the rollup alone
/// (see [`Registry::view`]).
pub fn view(scope: Option<&Scope>) -> ScopedView<'static> {
    global().view(scope)
}

/// A deterministic point-in-time view of a [`Registry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Timer statistics by name.
    pub timers: BTreeMap<String, TimerStats>,
    /// Summary statistics by name.
    pub summaries: BTreeMap<String, SummaryStats>,
    /// Per-scope cell snapshots, keyed by [`Scope::render`] output.  Empty
    /// for registries that never handed out a scoped view — in which case
    /// the JSON rendering is exactly the pre-scoping format.
    pub scopes: BTreeMap<String, Snapshot>,
}

impl Snapshot {
    /// The change since `earlier`: counters and timer/summary counts subtract
    /// (saturating, so a restarted registry yields zeros rather than
    /// underflow); min/max are taken from `self` since they cannot be
    /// un-merged.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let mut delta = Snapshot::default();
        for (name, value) in &self.counters {
            let before = earlier.counters.get(name).copied().unwrap_or(0);
            delta
                .counters
                .insert(name.clone(), value.saturating_sub(before));
        }
        for (name, stats) in &self.timers {
            let before = earlier.timers.get(name).copied().unwrap_or_default();
            delta.timers.insert(
                name.clone(),
                TimerStats {
                    count: stats.count.saturating_sub(before.count),
                    total_nanos: stats.total_nanos.saturating_sub(before.total_nanos),
                    max_nanos: stats.max_nanos,
                },
            );
        }
        for (name, stats) in &self.summaries {
            let before = earlier.summaries.get(name).copied().unwrap_or_default();
            delta.summaries.insert(
                name.clone(),
                SummaryStats {
                    count: stats.count.saturating_sub(before.count),
                    sum: stats.sum.saturating_sub(before.sum),
                    min: stats.min,
                    max: stats.max,
                    buckets: std::array::from_fn(|i| {
                        let now = stats.buckets.get(i).copied().unwrap_or(0);
                        let then = before.buckets.get(i).copied().unwrap_or(0);
                        now.saturating_sub(then)
                    }),
                },
            );
        }
        for (key, cell) in &self.scopes {
            let before = earlier.scopes.get(key);
            let zero = Snapshot::default();
            delta
                .scopes
                .insert(key.clone(), cell.delta(before.unwrap_or(&zero)));
        }
        delta
    }

    /// Counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A copy holding only the deterministic parts: counters (recursively,
    /// per scope cell too), with timers and summaries — whose wall clocks
    /// and latency buckets are noisy — dropped.  This is what the serve
    /// `metrics` verb returns by default so identically-seeded runs produce
    /// byte-identical documents.
    pub fn counters_only(&self) -> Snapshot {
        Snapshot {
            counters: self.counters.clone(),
            timers: BTreeMap::new(),
            summaries: BTreeMap::new(),
            scopes: self
                .scopes
                .iter()
                .map(|(key, cell)| (key.clone(), cell.counters_only()))
                .collect(),
        }
    }

    /// Render the snapshot as a canonical JSON document.
    pub fn to_json(&self) -> String {
        self.as_json().render()
    }

    /// The snapshot as a [`Json`] value.
    pub fn as_json(&self) -> Json {
        let mut root = self.as_json_inner(true);
        if let Json::Obj(fields) = &mut root {
            fields.insert("schema_version".to_string(), Json::Int(1));
        }
        root
    }

    /// The object body; `root` controls whether scope cells nest (cells are
    /// rendered without a redundant `schema_version` and never nest again).
    fn as_json_inner(&self, root: bool) -> Json {
        let counters = self
            .counters
            .iter()
            .map(|(name, &value)| (name.clone(), value.into()));
        let timers = self.timers.iter().map(|(name, stats)| {
            let timer = Json::obj([
                ("count", stats.count.into()),
                ("total_nanos", stats.total_nanos.into()),
                ("max_nanos", stats.max_nanos.into()),
            ]);
            (name.clone(), timer)
        });
        let summaries = self.summaries.iter().map(|(name, stats)| {
            // Sparse bucket encoding: only non-zero buckets, keyed by index.
            let buckets = stats
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &count)| count > 0);
            let buckets = buckets.map(|(i, &count)| (format!("{i:02}"), count.into()));
            let summary = Json::obj([
                ("count", stats.count.into()),
                ("sum", stats.sum.into()),
                ("min", stats.min.into()),
                ("max", stats.max.into()),
                ("buckets", Json::Obj(buckets.collect())),
            ]);
            (name.clone(), summary)
        });
        let mut obj = BTreeMap::from([
            ("counters".to_string(), Json::Obj(counters.collect())),
            ("timers".to_string(), Json::Obj(timers.collect())),
            ("summaries".to_string(), Json::Obj(summaries.collect())),
        ]);
        // Scope cells nest one level down; the key is absent entirely for a
        // scope-free snapshot, keeping the root format (and every pre-scoping
        // BENCH_*.json document) byte-for-byte unchanged.
        if root && !self.scopes.is_empty() {
            let scopes = self.scopes.iter();
            let scopes = scopes.map(|(key, cell)| (key.clone(), cell.as_json_inner(false)));
            obj.insert("scopes".to_string(), Json::Obj(scopes.collect()));
        }
        Json::Obj(obj)
    }

    /// Parse a snapshot back from its JSON rendering.
    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        Self::from_json_value(&doc)
    }

    /// Parse a snapshot from an already-parsed [`Json`] document.
    pub fn from_json_value(doc: &Json) -> Result<Snapshot, String> {
        let mut snapshot = Snapshot::default();
        if let Some(counters) = doc.get("counters").and_then(Json::as_object) {
            for (name, value) in counters {
                let value = value
                    .as_u64()
                    .ok_or_else(|| format!("counter `{name}` is not a u64"))?;
                snapshot.counters.insert(name.clone(), value);
            }
        }
        if let Some(timers) = doc.get("timers").and_then(Json::as_object) {
            for (name, stats) in timers {
                let field = |key: &str| {
                    stats
                        .get(key)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("timer `{name}` field `{key}` is not a u64"))
                };
                snapshot.timers.insert(
                    name.clone(),
                    TimerStats {
                        count: field("count")?,
                        total_nanos: field("total_nanos")?,
                        max_nanos: field("max_nanos")?,
                    },
                );
            }
        }
        if let Some(summaries) = doc.get("summaries").and_then(Json::as_object) {
            for (name, stats) in summaries {
                let field = |key: &str| {
                    stats
                        .get(key)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("summary `{name}` field `{key}` is not a u64"))
                };
                let mut buckets = [0u64; SUMMARY_BUCKETS];
                if let Some(sparse) = stats.get("buckets").and_then(Json::as_object) {
                    for (index, count) in sparse {
                        let i: usize = index
                            .parse()
                            .map_err(|_| format!("summary `{name}` bucket key `{index}`"))?;
                        let slot = buckets
                            .get_mut(i)
                            .ok_or_else(|| format!("summary `{name}` bucket {i} out of range"))?;
                        *slot = count
                            .as_u64()
                            .ok_or_else(|| format!("summary `{name}` bucket {i} not a u64"))?;
                    }
                }
                snapshot.summaries.insert(
                    name.clone(),
                    SummaryStats {
                        count: field("count")?,
                        sum: field("sum")?,
                        min: field("min")?,
                        max: field("max")?,
                        buckets,
                    },
                );
            }
        }
        if let Some(scopes) = doc.get("scopes").and_then(Json::as_object) {
            for (key, cell) in scopes {
                snapshot
                    .scopes
                    .insert(key.clone(), Self::from_json_value(cell)?);
            }
        }
        Ok(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot_in_sorted_order() {
        let registry = Registry::new();
        registry.counter("z.last").add(2);
        registry.counter("a.first").incr();
        registry.counter("m.middle").add(5);
        registry.counter("a.first").add(9);
        let snapshot = registry.snapshot();
        let names: Vec<&str> = snapshot.counters.keys().map(String::as_str).collect();
        assert_eq!(names, ["a.first", "m.middle", "z.last"]);
        assert_eq!(snapshot.counter("a.first"), 10);
        assert_eq!(snapshot.counter("missing"), 0);
    }

    #[test]
    fn timers_track_count_total_and_max() {
        let registry = Registry::new();
        let timer = registry.timer("t");
        timer.observe(Duration::from_millis(2));
        timer.observe(Duration::from_millis(6));
        let stats = registry.snapshot().timers["t"];
        assert_eq!(stats.count, 2);
        assert_eq!(stats.total_nanos, 8_000_000);
        assert_eq!(stats.max_nanos, 6_000_000);
        let result = timer.time(|| 42);
        assert_eq!(result, 42);
        assert_eq!(timer.stats().count, 3);
        {
            let _guard = timer.start();
        }
        assert_eq!(timer.stats().count, 4);
    }

    #[test]
    fn summaries_bucket_by_magnitude() {
        assert_eq!(summary_bucket(0), 0);
        assert_eq!(summary_bucket(1), 1);
        assert_eq!(summary_bucket(2), 2);
        assert_eq!(summary_bucket(3), 2);
        assert_eq!(summary_bucket(1024), 11);
        assert_eq!(summary_bucket(u64::MAX), 64);
        let registry = Registry::new();
        let summary = registry.summary("s");
        for value in [0, 1, 3, 1024] {
            summary.observe(value);
        }
        let stats = registry.snapshot().summaries["s"];
        assert_eq!(stats.count, 4);
        assert_eq!(stats.sum, 1028);
        assert_eq!(stats.min, 0);
        assert_eq!(stats.max, 1024);
        assert_eq!(stats.buckets[0], 1);
        assert_eq!(stats.buckets[1], 1);
        assert_eq!(stats.buckets[2], 1);
        assert_eq!(stats.buckets[11], 1);
        assert!((stats.mean() - 257.0).abs() < 1e-12);
    }

    #[test]
    fn empty_summary_reports_zero_min() {
        let registry = Registry::new();
        registry.summary("s");
        let stats = registry.snapshot().summaries["s"];
        assert_eq!(stats.min, 0);
        assert_eq!(stats.mean(), 0.0);
    }

    #[test]
    fn kind_clashes_yield_detached_handles_not_panics() {
        let registry = Registry::new();
        registry.counter("name").add(3);
        let detached = registry.timer("name");
        detached.observe(Duration::from_millis(1));
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("name"), 3);
        assert!(!snapshot.timers.contains_key("name"));
    }

    #[test]
    fn delta_subtracts_counters_and_counts() {
        let registry = Registry::new();
        let counter = registry.counter("c");
        let timer = registry.timer("t");
        counter.add(10);
        timer.observe(Duration::from_millis(1));
        let before = registry.snapshot();
        counter.add(7);
        timer.observe(Duration::from_millis(2));
        let delta = registry.snapshot().delta(&before);
        assert_eq!(delta.counter("c"), 7);
        assert_eq!(delta.timers["t"].count, 1);
        assert_eq!(delta.timers["t"].total_nanos, 2_000_000);
        // A metric absent from the earlier snapshot deltas from zero.
        registry.counter("new").add(4);
        let delta = registry.snapshot().delta(&before);
        assert_eq!(delta.counter("new"), 4);
    }

    #[test]
    fn snapshot_json_round_trips() {
        let registry = Registry::new();
        registry.counter("requests").add(1234);
        registry
            .timer("synthesis")
            .observe(Duration::from_micros(1500));
        let summary = registry.summary("queue_wait");
        summary.observe(0);
        summary.observe(900);
        let snapshot = registry.snapshot();
        let json = snapshot.to_json();
        let parsed = Snapshot::from_json(&json).unwrap();
        assert_eq!(parsed, snapshot);
        // The canonical rendering is stable through a round trip.
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn malformed_snapshots_error() {
        assert!(Snapshot::from_json("not json").is_err());
        assert!(Snapshot::from_json("{\"counters\":{\"c\":-1}}").is_err());
        assert!(Snapshot::from_json("{\"timers\":{\"t\":{\"count\":1}}}").is_err());
        assert!(
            Snapshot::from_json("{\"summaries\":{\"s\":{\"count\":0,\"sum\":0,\"min\":0,\"max\":0,\"buckets\":{\"99\":1}}}}")
                .is_err()
        );
    }

    #[test]
    fn scoped_snapshots_nest_delta_and_round_trip() {
        let registry = Registry::new();
        registry.counter("c").add(1);
        let a = Scope::new().label("session", "a");
        let b = Scope::new().label("session", "b");
        registry.scoped(&a).counter("c").add(2);
        registry.scoped(&b).counter("c").add(3);
        registry.scoped(&a).summary("s").observe(40);
        let before = registry.snapshot();
        // Rollup = unscoped + both cells.
        assert_eq!(before.counter("c"), 6);
        assert_eq!(before.scopes["session=a"].counter("c"), 2);
        assert_eq!(before.scopes["session=b"].counter("c"), 3);
        // JSON round-trips with nested scopes, and the rendering is stable.
        let json = before.to_json();
        let parsed = Snapshot::from_json(&json).unwrap();
        assert_eq!(parsed, before);
        assert_eq!(parsed.to_json(), json);
        // Deltas recurse into cells (a fresh cell deltas from zero).
        registry.scoped(&a).counter("c").add(5);
        registry
            .scoped(&Scope::new().label("session", "new"))
            .counter("c")
            .incr();
        let delta = registry.snapshot().delta(&before);
        assert_eq!(delta.counter("c"), 6);
        assert_eq!(delta.scopes["session=a"].counter("c"), 5);
        assert_eq!(delta.scopes["session=b"].counter("c"), 0);
        assert_eq!(delta.scopes["session=new"].counter("c"), 1);
        // counters_only keeps counters and scope cells, drops the rest.
        let counters = registry.snapshot().counters_only();
        assert!(counters.summaries.is_empty());
        assert!(counters.scopes["session=a"].summaries.is_empty());
        assert_eq!(counters.scopes["session=a"].counter("c"), 7);
    }

    #[test]
    fn scope_free_snapshot_json_has_no_scopes_key() {
        let registry = Registry::new();
        registry.counter("c").incr();
        assert!(!registry.snapshot().to_json().contains("\"scopes\""));
    }

    #[test]
    fn quantile_upper_bound_reads_the_buckets() {
        let registry = Registry::new();
        let summary = registry.summary("s");
        assert_eq!(summary.stats().quantile_upper_bound(0.95), 0);
        for _ in 0..95 {
            summary.observe(3); // bucket 2: [2, 4)
        }
        for _ in 0..5 {
            summary.observe(100); // bucket 7: [64, 128)
        }
        let stats = summary.stats();
        // p50 lands in the [2, 4) bucket; upper edge is 3.
        assert_eq!(stats.quantile_upper_bound(0.50), 3);
        // p95 still lands in the low bucket (95 of 100 observations).
        assert_eq!(stats.quantile_upper_bound(0.95), 3);
        // p99 crosses into the tail bucket and caps at the observed max.
        assert_eq!(stats.quantile_upper_bound(0.99), 100);
        assert_eq!(stats.quantile_upper_bound(1.0), 100);
        // A single observation: every quantile is bounded by it.
        let one = registry.summary("one");
        one.observe(7);
        assert_eq!(one.stats().quantile_upper_bound(0.95), 7);
    }

    #[test]
    fn quantile_upper_bound_is_nan_safe_and_clamped() {
        let registry = Registry::new();
        let summary = registry.summary("s");
        for _ in 0..95 {
            summary.observe(3);
        }
        for _ in 0..5 {
            summary.observe(100);
        }
        let stats = summary.stats();
        // Invalid q — NaN would have cast to 0 and picked the *first* bucket;
        // all out-of-range inputs now answer the conservative observed max.
        assert_eq!(stats.quantile_upper_bound(f64::NAN), 100);
        assert_eq!(stats.quantile_upper_bound(-0.1), 100);
        assert_eq!(stats.quantile_upper_bound(1.5), 100);
        // Boundary q stays well-defined: q=0 bounds the smallest observation,
        // q=1 the largest.
        assert_eq!(stats.quantile_upper_bound(0.0), 3);
        assert_eq!(stats.quantile_upper_bound(1.0), 100);
        // An empty summary answers 0 regardless of q.
        let empty = registry.summary("empty").stats();
        assert_eq!(empty.quantile_upper_bound(f64::NAN), 0);
        assert_eq!(empty.quantile_upper_bound(2.0), 0);
    }

    #[test]
    fn global_registry_hands_out_shared_handles() {
        let a = counter("test.global.shared");
        let b = counter("test.global.shared");
        a.add(2);
        b.add(3);
        assert_eq!(a.get(), 5);
        assert!(global()
            .snapshot()
            .counters
            .contains_key("test.global.shared"));
        let _ = timer("test.global.timer");
        let _ = summary("test.global.summary");
    }
}
