//! Machine-readable benchmark tracking: per-series `BENCH_<name>.json`
//! documents, the append-only perf-trajectory file, and the baseline
//! comparison that gates CI.
//!
//! ## Document model
//!
//! Every reproduction binary records one [`BenchDoc`] — a named series of
//! [`BenchPoint`]s.  A point separates its measurements into
//!
//! * **counters** (`u64`): RNG-seeded, machine-independent quantities
//!   (`released`, `records_examined`, …).  These are deterministic for
//!   single-worker runs, so [`compare`] gates them against the stored
//!   baseline in *both* directions: drift means the decision path changed.
//! * **values** (`f64`): time-domain quantities (`*_seconds`, `throughput_*`)
//!   that vary across machines.  They are recorded always but gated only on
//!   request (`gate_time`), directionally — more seconds or less throughput
//!   is a regression, the opposite is not.
//!
//! Points whose counters are racy by construction (multi-worker sweeps: the
//! number of *proposals* depends on thread timing even though the released
//! records do not) carry `noisy: true` and are exempt from gating.
//!
//! ## Trajectory
//!
//! `BENCH_TRAJECTORY.jsonl` holds one [`TrajectoryEntry`] per line (commit,
//! smoke flag, scale, and every series of that run).  The baseline for a
//! comparison is the **last** entry with the same (smoke, scale), so the file
//! is append-only history: perf over time is one `jq` away, and updating the
//! baseline after an intentional change is appending a new entry.

use sgf_core::MechanismStats;
use sgf_metrics::{Json, Snapshot};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Schema version stamped into every document this module writes.
pub const SCHEMA_VERSION: i64 = 1;

/// Environment variable naming the directory benchmark binaries emit their
/// `BENCH_<series>.json` into; unset means "do not emit".
pub const BENCH_DIR_ENV: &str = "SGF_BENCH_DIR";

/// Environment variable overriding the commit id recorded in documents
/// (useful when the working tree is not a git checkout).
pub const COMMIT_ENV: &str = "SGF_BENCH_COMMIT";

/// One measured configuration within a series.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchPoint {
    /// Point label, unique within the series (e.g. `"total"`, `"w04"`).
    pub label: String,
    /// Deterministic integer measurements, gated by [`compare`].
    pub counters: BTreeMap<String, u64>,
    /// Time-domain measurements, gated only with `gate_time`.
    pub values: BTreeMap<String, f64>,
    /// Whether the counters of this point are racy by construction
    /// (multi-worker runs); noisy points are exempt from gating.
    pub noisy: bool,
}

impl BenchPoint {
    /// An empty point with the given label.
    pub fn new(label: impl Into<String>) -> Self {
        BenchPoint {
            label: label.into(),
            ..BenchPoint::default()
        }
    }

    /// Add a deterministic counter.
    pub fn counter(mut self, name: &str, value: u64) -> Self {
        self.counters.insert(name.to_string(), value);
        self
    }

    /// Add a time-domain value.
    pub fn value(mut self, name: &str, value: f64) -> Self {
        self.values.insert(name.to_string(), value);
        self
    }

    /// Mark the point's counters as racy (exempt from gating).
    pub fn noisy(mut self) -> Self {
        self.noisy = true;
        self
    }

    fn as_json(&self) -> Json {
        let counters = self.counters.iter().map(|(k, &v)| (k.clone(), v.into()));
        let values = self.values.iter().map(|(k, &v)| (k.clone(), v.into()));
        Json::obj([
            ("label", self.label.as_str().into()),
            ("counters", Json::Obj(counters.collect())),
            ("values", Json::Obj(values.collect())),
            ("noisy", self.noisy.into()),
        ])
    }

    fn from_json(doc: &Json) -> Result<BenchPoint, String> {
        let label = doc
            .get("label")
            .and_then(Json::as_str)
            .ok_or("point is missing a string `label`")?
            .to_string();
        let mut point = BenchPoint::new(label);
        if let Some(counters) = doc.get("counters").and_then(Json::as_object) {
            for (name, value) in counters {
                let value = value
                    .as_u64()
                    .ok_or_else(|| format!("counter `{name}` is not a u64"))?;
                point.counters.insert(name.clone(), value);
            }
        }
        if let Some(values) = doc.get("values").and_then(Json::as_object) {
            for (name, value) in values {
                let value = value
                    .as_f64()
                    .ok_or_else(|| format!("value `{name}` is not a number"))?;
                point.values.insert(name.clone(), value);
            }
        }
        point.noisy = doc.get("noisy").and_then(Json::as_bool).unwrap_or(false);
        Ok(point)
    }
}

/// One benchmark series: an ordered list of labelled points plus the run
/// provenance (commit, smoke flag, scale).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDoc {
    /// Series name; the document file is `BENCH_<series>.json`.
    pub series: String,
    /// Commit id of the measured tree (see [`commit_id`]).
    pub commit: String,
    /// Whether the run was in smoke mode (`SGF_SMOKE=1`).
    pub smoke: bool,
    /// The scale factor the binaries ran at.
    pub scale: usize,
    /// The measured points, in sweep order.
    pub points: Vec<BenchPoint>,
}

impl BenchDoc {
    /// An empty document for `series` with the current run's provenance.
    pub fn new(series: impl Into<String>, scale: usize) -> Self {
        BenchDoc {
            series: series.into(),
            commit: commit_id(),
            smoke: crate::smoke_mode(),
            scale,
            points: Vec::new(),
        }
    }

    /// The point with the given label, if present.
    pub fn point(&self, label: &str) -> Option<&BenchPoint> {
        self.points.iter().find(|p| p.label == label)
    }

    /// The document as a [`Json`] value.
    pub fn as_json(&self) -> Json {
        Json::obj([
            ("schema_version", Json::Int(SCHEMA_VERSION.into())),
            ("series", self.series.as_str().into()),
            ("commit", self.commit.as_str().into()),
            ("smoke", self.smoke.into()),
            ("scale", self.scale.into()),
            (
                "points",
                Json::Arr(self.points.iter().map(BenchPoint::as_json).collect()),
            ),
        ])
    }

    /// Render the document as canonical JSON text.
    pub fn to_json(&self) -> String {
        self.as_json().render()
    }

    /// Parse a document from an already-parsed [`Json`] value.
    pub fn from_json_value(doc: &Json) -> Result<BenchDoc, String> {
        let series = doc
            .get("series")
            .and_then(Json::as_str)
            .ok_or("document is missing a string `series`")?
            .to_string();
        let commit = doc
            .get("commit")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string();
        let smoke = doc.get("smoke").and_then(Json::as_bool).unwrap_or(false);
        let scale = doc
            .get("scale")
            .and_then(Json::as_u64)
            .ok_or("document is missing a numeric `scale`")? as usize;
        let mut points = Vec::new();
        for point in doc.get("points").and_then(Json::as_array).unwrap_or(&[]) {
            points
                .push(BenchPoint::from_json(point).map_err(|e| format!("series `{series}`: {e}"))?);
        }
        Ok(BenchDoc {
            series,
            commit,
            smoke,
            scale,
            points,
        })
    }

    /// Parse a document from JSON text.
    pub fn from_json(text: &str) -> Result<BenchDoc, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        Self::from_json_value(&doc)
    }

    /// The file name this document is written under.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.series)
    }

    /// Write the document into `dir` as `BENCH_<series>.json`.
    pub fn write_into(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        std::fs::write(&path, format!("{}\n", self.to_json()))?;
        Ok(path)
    }
}

/// The commit id recorded in benchmark documents: `$SGF_BENCH_COMMIT` if set,
/// else `git rev-parse --short HEAD`, else `"unknown"`.
pub fn commit_id() -> String {
    if let Ok(commit) = std::env::var(COMMIT_ENV) {
        if !commit.is_empty() {
            return commit;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The emission directory (`$SGF_BENCH_DIR`), if benchmark emission is on.
pub fn bench_dir() -> Option<PathBuf> {
    std::env::var(BENCH_DIR_ENV)
        .ok()
        .filter(|dir| !dir.is_empty())
        .map(PathBuf::from)
}

/// Records one benchmark series around a binary's run: wall clock from
/// construction to [`finish`](SeriesRecorder::finish), plus the delta of the
/// instrumented `core.*` counters (flushed by sgf-core's mechanism loop into
/// the global [`sgf_metrics`] registry) as the `total` point.
pub struct SeriesRecorder {
    doc: BenchDoc,
    start: Instant,
    before: Snapshot,
}

impl SeriesRecorder {
    /// Start recording the series.
    pub fn new(series: impl Into<String>, scale: usize) -> Self {
        SeriesRecorder {
            doc: BenchDoc::new(series, scale),
            start: Instant::now(),
            before: sgf_metrics::global().snapshot(),
        }
    }

    /// Append an explicit point (sweep configurations etc.).
    pub fn add(&mut self, point: BenchPoint) {
        self.doc.points.push(point);
    }

    /// Finish the series: append the `total` point (wall clock + the run's
    /// `core.mechanism.*` counter deltas), emit `BENCH_<series>.json` into
    /// `$SGF_BENCH_DIR` when set, and return the document.
    ///
    /// The `total` sums every point of the run, so it is noisy (exempt from
    /// gating) whenever any point is: a multi-worker point's proposal count
    /// depends on thread timing.
    pub fn finish(mut self) -> BenchDoc {
        let delta = sgf_metrics::global().snapshot().delta(&self.before);
        let mut total =
            BenchPoint::new("total").value("wall_seconds", self.start.elapsed().as_secs_f64());
        total.noisy = self.doc.points.iter().any(|point| point.noisy);
        for (name, _) in MechanismStats::default().counters() {
            let value = delta.counter(&format!("core.mechanism.{name}"));
            if value > 0 {
                total.counters.insert(name.to_string(), value);
            }
        }
        for (name, stats) in &delta.timers {
            if stats.count > 0 {
                total.values.insert(
                    format!("{}_seconds", name.replace('.', "_")),
                    stats.total_nanos as f64 / 1e9,
                );
            }
        }
        self.doc.points.push(total);
        if let Some(dir) = bench_dir() {
            match self.doc.write_into(&dir) {
                Ok(path) => eprintln!("[bench-track] wrote {}", path.display()),
                Err(err) => eprintln!(
                    "[bench-track] WARNING: could not write {}: {err}",
                    dir.join(self.doc.file_name()).display()
                ),
            }
        }
        self.doc
    }
}

/// One appended line of the trajectory file: a full run's series, keyed by
/// name, plus the run provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryEntry {
    /// The HEAD the recorded run measured ([`commit_id`] at run time).  A run
    /// is recorded by committing its line, so this names the parent of the
    /// commit that adds the line, not that commit.
    pub commit: String,
    /// Whether the run was in smoke mode.
    pub smoke: bool,
    /// The scale factor of the run.
    pub scale: usize,
    /// Every series of the run, keyed by series name.
    pub series: BTreeMap<String, BenchDoc>,
}

impl TrajectoryEntry {
    /// Bundle a run's documents into one trajectory entry.  Provenance is
    /// taken from the first document (all documents of one run share it).
    pub fn from_docs(docs: Vec<BenchDoc>) -> Result<TrajectoryEntry, String> {
        let first = docs
            .first()
            .ok_or("a trajectory entry needs at least one series")?;
        let (commit, smoke, scale) = (first.commit.clone(), first.smoke, first.scale);
        let mut series = BTreeMap::new();
        for doc in docs {
            if doc.smoke != smoke || doc.scale != scale {
                return Err(format!(
                    "series `{}` was run at (smoke {}, scale {}) but the entry is (smoke {}, scale {})",
                    doc.series, doc.smoke, doc.scale, smoke, scale
                ));
            }
            series.insert(doc.series.clone(), doc);
        }
        Ok(TrajectoryEntry {
            commit,
            smoke,
            scale,
            series,
        })
    }

    /// The entry as one line of canonical JSON.
    pub fn to_json(&self) -> String {
        let series = self
            .series
            .iter()
            .map(|(name, doc)| (name.clone(), doc.as_json()));
        Json::obj([
            ("schema_version", Json::Int(SCHEMA_VERSION.into())),
            ("commit", self.commit.as_str().into()),
            ("smoke", self.smoke.into()),
            ("scale", self.scale.into()),
            ("series", Json::Obj(series.collect())),
        ])
        .render()
    }

    /// Parse one trajectory line.
    pub fn from_json(text: &str) -> Result<TrajectoryEntry, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let commit = doc
            .get("commit")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string();
        let smoke = doc.get("smoke").and_then(Json::as_bool).unwrap_or(false);
        let scale = doc
            .get("scale")
            .and_then(Json::as_u64)
            .ok_or("trajectory entry is missing a numeric `scale`")? as usize;
        let mut series = BTreeMap::new();
        if let Some(map) = doc.get("series").and_then(Json::as_object) {
            for (name, value) in map {
                series.insert(name.clone(), BenchDoc::from_json_value(value)?);
            }
        }
        Ok(TrajectoryEntry {
            commit,
            smoke,
            scale,
            series,
        })
    }
}

/// Read every entry of a trajectory file (empty if the file does not exist).
pub fn read_trajectory(path: &Path) -> Result<Vec<TrajectoryEntry>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(err) => return Err(format!("cannot read {}: {err}", path.display())),
    };
    let mut entries = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        entries.push(
            TrajectoryEntry::from_json(line)
                .map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?,
        );
    }
    Ok(entries)
}

/// Append one entry to a trajectory file (created if absent).
pub fn append_trajectory(path: &Path, entry: &TrajectoryEntry) -> Result<(), String> {
    use std::io::Write;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    writeln!(file, "{}", entry.to_json())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The last trajectory entry recorded at the same (smoke, scale) — the
/// baseline a new run is compared against.
pub fn find_baseline(
    entries: &[TrajectoryEntry],
    smoke: bool,
    scale: usize,
) -> Option<&TrajectoryEntry> {
    entries
        .iter()
        .rev()
        .find(|e| e.smoke == smoke && e.scale == scale)
}

/// One gated deviation found by [`compare`].
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Series the deviation is in.
    pub series: String,
    /// Point label within the series.
    pub point: String,
    /// Metric name.
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// What the deviation means.
    pub kind: RegressionKind,
}

/// Classification of a gated deviation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegressionKind {
    /// A deterministic counter moved in either direction: the decision path
    /// changed (or the baseline is stale).
    CounterDrift,
    /// A time-domain value regressed (more seconds / less throughput).
    TimeRegression,
    /// A series or point present in the baseline is missing from the run.
    Missing,
}

impl fmt::Display for Regression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            RegressionKind::Missing => write!(
                f,
                "{}/{}: `{}` present in the baseline is missing from this run",
                self.series, self.point, self.metric
            ),
            RegressionKind::CounterDrift => write!(
                f,
                "{}/{}: counter `{}` drifted from {} to {} ({:+.1}%)",
                self.series,
                self.point,
                self.metric,
                self.baseline,
                self.current,
                relative_change(self.baseline, self.current) * 100.0
            ),
            RegressionKind::TimeRegression => write!(
                f,
                "{}/{}: `{}` regressed from {} to {} ({:+.1}%)",
                self.series,
                self.point,
                self.metric,
                self.baseline,
                self.current,
                relative_change(self.baseline, self.current) * 100.0
            ),
        }
    }
}

fn relative_change(baseline: f64, current: f64) -> f64 {
    (current - baseline) / baseline.abs().max(1e-12)
}

/// Compare a run's documents against a baseline trajectory entry.
///
/// * Deterministic counters of non-noisy points are gated in **both**
///   directions with the relative `tolerance` band.
/// * Time-domain values gate only when `gate_time` is set, directionally:
///   `*_seconds` may not increase past the band, `throughput*` may not
///   decrease past it.
/// * A baseline series or point (or gated metric) missing from the run is a
///   regression; series/points *new* in the run are fine (growth).
pub fn compare(
    docs: &[BenchDoc],
    baseline: &TrajectoryEntry,
    tolerance: f64,
    gate_time: bool,
) -> Vec<Regression> {
    let mut regressions = Vec::new();
    let by_name: BTreeMap<&str, &BenchDoc> = docs.iter().map(|d| (d.series.as_str(), d)).collect();
    for (name, base_doc) in &baseline.series {
        let Some(doc) = by_name.get(name.as_str()) else {
            regressions.push(Regression {
                series: name.clone(),
                point: "-".to_string(),
                metric: "-".to_string(),
                baseline: 0.0,
                current: 0.0,
                kind: RegressionKind::Missing,
            });
            continue;
        };
        for base_point in &base_doc.points {
            let Some(point) = doc.point(&base_point.label) else {
                regressions.push(Regression {
                    series: name.clone(),
                    point: base_point.label.clone(),
                    metric: "-".to_string(),
                    baseline: 0.0,
                    current: 0.0,
                    kind: RegressionKind::Missing,
                });
                continue;
            };
            if base_point.noisy || point.noisy {
                continue;
            }
            for (metric, &base_value) in &base_point.counters {
                match point.counters.get(metric) {
                    None => regressions.push(Regression {
                        series: name.clone(),
                        point: base_point.label.clone(),
                        metric: metric.clone(),
                        baseline: base_value as f64,
                        current: 0.0,
                        kind: RegressionKind::Missing,
                    }),
                    Some(&value) => {
                        let change = relative_change(base_value as f64, value as f64);
                        if change.abs() > tolerance {
                            regressions.push(Regression {
                                series: name.clone(),
                                point: base_point.label.clone(),
                                metric: metric.clone(),
                                baseline: base_value as f64,
                                current: value as f64,
                                kind: RegressionKind::CounterDrift,
                            });
                        }
                    }
                }
            }
            if gate_time {
                for (metric, &base_value) in &base_point.values {
                    let Some(&value) = point.values.get(metric) else {
                        continue;
                    };
                    let change = relative_change(base_value, value);
                    let regressed = if metric.ends_with("_seconds") {
                        change > tolerance
                    } else if metric.starts_with("throughput") {
                        change < -tolerance
                    } else {
                        false
                    };
                    if regressed {
                        regressions.push(Regression {
                            series: name.clone(),
                            point: base_point.label.clone(),
                            metric: metric.clone(),
                            baseline: base_value,
                            current: value,
                            kind: RegressionKind::TimeRegression,
                        });
                    }
                }
            }
        }
    }
    regressions
}

/// Read every `BENCH_*.json` document in a directory, sorted by series name.
pub fn read_docs(dir: &Path) -> Result<Vec<BenchDoc>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut docs = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if !name.starts_with("BENCH_") || !name.ends_with(".json") {
            continue;
        }
        let path = entry.path();
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        docs.push(BenchDoc::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))?);
    }
    docs.sort_by(|a, b| a.series.cmp(&b.series));
    Ok(docs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(series: &str, released: u64, seconds: f64) -> BenchDoc {
        BenchDoc {
            series: series.to_string(),
            commit: "deadbee".to_string(),
            smoke: true,
            scale: 1,
            points: vec![BenchPoint::new("total")
                .counter("released", released)
                .value("wall_seconds", seconds)],
        }
    }

    #[test]
    fn total_is_noisy_exactly_when_a_series_point_is() {
        let mut quiet = SeriesRecorder::new("quiet", 1);
        quiet.add(BenchPoint::new("w01").counter("candidates", 10));
        assert!(!quiet.finish().point("total").unwrap().noisy);
        let mut racy = SeriesRecorder::new("racy", 1);
        racy.add(BenchPoint::new("w01").counter("candidates", 10));
        racy.add(BenchPoint::new("w04").counter("candidates", 13).noisy());
        let doc = racy.finish();
        assert!(doc.point("total").unwrap().noisy);
        assert!(!doc.point("w01").unwrap().noisy, "w01 stays gated");
    }

    #[test]
    fn documents_round_trip_through_json() {
        let mut d = doc("fig9", 123, 4.5);
        d.points.push(
            BenchPoint::new("w04")
                .counter("workers", 4)
                .value("throughput_rps", 81.25)
                .noisy(),
        );
        let text = d.to_json();
        let parsed = BenchDoc::from_json(&text).unwrap();
        assert_eq!(parsed, d);
        assert_eq!(parsed.to_json(), text);
        assert!(parsed.point("w04").unwrap().noisy);
    }

    #[test]
    fn trajectory_entries_round_trip() {
        let entry = TrajectoryEntry::from_docs(vec![doc("a", 10, 1.0), doc("b", 20, 2.0)]).unwrap();
        let line = entry.to_json();
        assert!(!line.contains('\n'));
        let parsed = TrajectoryEntry::from_json(&line).unwrap();
        assert_eq!(parsed, entry);
    }

    #[test]
    fn mixed_provenance_entries_are_rejected() {
        let mut other = doc("b", 20, 2.0);
        other.scale = 4;
        assert!(TrajectoryEntry::from_docs(vec![doc("a", 10, 1.0), other]).is_err());
    }

    #[test]
    fn baseline_is_the_last_matching_entry() {
        let older = TrajectoryEntry::from_docs(vec![doc("a", 10, 1.0)]).unwrap();
        let mut newer = TrajectoryEntry::from_docs(vec![doc("a", 11, 1.0)]).unwrap();
        newer.commit = "newer00".to_string();
        let mut full_scale = TrajectoryEntry::from_docs(vec![doc("a", 99, 9.0)]).unwrap();
        full_scale.smoke = false;
        let entries = vec![older, newer.clone(), full_scale];
        assert_eq!(find_baseline(&entries, true, 1), Some(&newer));
        assert!(find_baseline(&entries, true, 2).is_none());
    }

    #[test]
    fn counter_drift_is_gated_in_both_directions() {
        let baseline = TrajectoryEntry::from_docs(vec![doc("a", 100, 1.0)]).unwrap();
        assert!(compare(&[doc("a", 100, 9.0)], &baseline, 0.05, false).is_empty());
        assert!(compare(&[doc("a", 104, 1.0)], &baseline, 0.05, false).is_empty());
        let up = compare(&[doc("a", 120, 1.0)], &baseline, 0.05, false);
        assert_eq!(up.len(), 1);
        assert_eq!(up[0].kind, RegressionKind::CounterDrift);
        let down = compare(&[doc("a", 80, 1.0)], &baseline, 0.05, false);
        assert_eq!(down.len(), 1);
    }

    #[test]
    fn time_gating_is_directional_and_opt_in() {
        let baseline = TrajectoryEntry::from_docs(vec![doc("a", 100, 1.0)]).unwrap();
        // 3x slower: invisible without gate_time, a regression with it.
        assert!(compare(&[doc("a", 100, 3.0)], &baseline, 0.10, false).is_empty());
        let slow = compare(&[doc("a", 100, 3.0)], &baseline, 0.10, true);
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].kind, RegressionKind::TimeRegression);
        // Faster is never a regression.
        assert!(compare(&[doc("a", 100, 0.2)], &baseline, 0.10, true).is_empty());
        // Throughput gates the opposite direction.
        let mk = |rps: f64| BenchDoc {
            points: vec![BenchPoint::new("total").value("throughput_rps", rps)],
            ..doc("t", 0, 0.0)
        };
        let base = TrajectoryEntry::from_docs(vec![mk(100.0)]).unwrap();
        assert!(compare(&[mk(150.0)], &base, 0.10, true).is_empty());
        assert_eq!(compare(&[mk(50.0)], &base, 0.10, true).len(), 1);
    }

    #[test]
    fn noisy_points_and_new_points_are_exempt() {
        let mut base_doc = doc("a", 100, 1.0);
        base_doc
            .points
            .push(BenchPoint::new("w08").counter("candidates", 500).noisy());
        let baseline = TrajectoryEntry::from_docs(vec![base_doc]).unwrap();
        let mut current = doc("a", 100, 1.0);
        current
            .points
            .push(BenchPoint::new("w08").counter("candidates", 9_999).noisy());
        current
            .points
            .push(BenchPoint::new("brand_new").counter("x", 1));
        assert!(compare(&[current], &baseline, 0.05, false).is_empty());
    }

    #[test]
    fn missing_series_points_and_metrics_are_regressions() {
        let mut base_doc = doc("a", 100, 1.0);
        base_doc
            .points
            .push(BenchPoint::new("extra").counter("c", 5));
        let baseline = TrajectoryEntry::from_docs(vec![base_doc, doc("gone", 1, 1.0)]).unwrap();
        // Run is missing series `gone`, point `extra`, and counter `released`.
        let mut current = doc("a", 100, 1.0);
        current.points[0].counters.clear();
        let regressions = compare(&[current], &baseline, 0.05, false);
        assert_eq!(regressions.len(), 3);
        assert!(regressions
            .iter()
            .all(|r| r.kind == RegressionKind::Missing));
    }

    #[test]
    fn trajectory_file_round_trips_on_disk() {
        let dir = std::env::temp_dir().join(format!("sgf_track_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_TRAJECTORY.jsonl");
        let _ = std::fs::remove_file(&path);
        assert!(read_trajectory(&path).unwrap().is_empty());
        let entry = TrajectoryEntry::from_docs(vec![doc("a", 10, 1.0)]).unwrap();
        append_trajectory(&path, &entry).unwrap();
        append_trajectory(&path, &entry).unwrap();
        let entries = read_trajectory(&path).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0], entry);
        let docs_dir = dir.join("docs");
        let written = doc("a", 10, 1.0).write_into(&docs_dir).unwrap();
        assert!(written.ends_with("BENCH_a.json"));
        let docs = read_docs(&docs_dir).unwrap();
        assert_eq!(docs.len(), 1);
        assert_eq!(docs[0].series, "a");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
