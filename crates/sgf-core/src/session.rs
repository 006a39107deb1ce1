//! The staged synthesis-session API: **train once, serve many**.
//!
//! The paper's tool (Section 5) separates one expensive phase — structure +
//! parameter learning — from an embarrassingly-parallel synthesis phase.  This
//! module exposes that lifecycle directly:
//!
//! 1. [`SynthesisEngine::builder`] assembles a validated configuration;
//! 2. [`SynthesisEngine::train`] splits the data, learns the models **once**,
//!    and produces an immutable [`SynthesisSession`];
//! 3. the session serves repeated [`SynthesisSession::generate`] calls — each
//!    with its own target, ω and seed, on any number of workers — while a
//!    cumulative [`BudgetLedger`] composes the per-release (ε, δ) of
//!    Theorem 1 across every request served;
//! 4. [`SynthesisSession::release_stream`] hands each released record to a
//!    callback the moment it passes, for services that consume them
//!    incrementally.
//!
//! The mechanism fan-out is generic over [`GenerativeModel`], so the marginal
//! baseline (or any future model) plugs into the same plausible-deniability
//! test via [`SynthesisSession::generate_with`].
//!
//! Every release — `generate`, `generate_with`, `release_stream` — runs
//! through one engine (`run_mechanism`), settles one ledger reservation, and
//! is tested against the session's σ-prefix store ([`PrefixIndexStore`]),
//! which counts the plausible seeds of a seed-synthesizer candidate with one
//! range lookup at any ω.  All stores are decision-equivalent; the full scan
//! stays the reference oracle, reached as [`sgf_index::LinearScanStore`] /
//! [`Mechanism::new`], and any rank of a request replays over any store
//! from [`proposal_seed`].

use crate::dp::BudgetLedger;
use crate::error::{CoreError, Result};
use crate::mechanism::{Mechanism, MechanismStats, ReleaseMetrics};
use crate::pipeline::{derive_models, PipelineConfig, TrainedModels};
use crate::privacy_test::PrivacyTestConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use sgf_data::{
    split_dataset_by_hash, Bucketizer, DataSplit, Dataset, DatasetDelta, Record, SplitSpec,
};
use sgf_index::{
    InvertedIndexStore, PartitionIndexStore, PrefixIndexStore, SeedStore, MAX_INTERSECT_LISTS,
};
use sgf_metrics::json::{write_object, ObjectWriter};
use sgf_metrics::{CachePadded, Json, Scope, SpanId, TraceBatch};
use sgf_model::{GenerativeModel, OmegaSpec, ParameterConfig, SeedSynthesizer, StructureConfig};
use sgf_stats::DpBudget;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, LazyLock, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Builder for a [`SynthesisEngine`]: collects the training-time configuration
/// (data split, structure / parameter learning, privacy test, defaults for
/// synthesis) and validates it before any data is touched.
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    config: PipelineConfig,
}

impl EngineBuilder {
    fn new() -> Self {
        EngineBuilder {
            config: PipelineConfig::paper_defaults(1),
        }
    }

    /// Start from an explicit full configuration instead of the paper defaults.
    pub fn config(mut self, config: PipelineConfig) -> Self {
        self.config = config;
        self
    }

    /// How to split the input dataset into D_T / D_P / D_S / test.
    pub fn split(mut self, split: SplitSpec) -> Self {
        self.config.split = split;
        self
    }

    /// Structure-learning configuration (Section 3.3).
    pub fn structure(mut self, structure: StructureConfig) -> Self {
        self.config.structure = structure;
        self
    }

    /// Parameter-learning configuration (Section 3.4).
    pub fn parameters(mut self, parameters: ParameterConfig) -> Self {
        self.config.parameters = parameters;
        self
    }

    /// Privacy-test configuration (Section 2).
    pub fn privacy_test(mut self, test: PrivacyTestConfig) -> Self {
        self.config.privacy_test = test;
        self
    }

    /// Default ω for requests that do not override it.
    pub fn omega(mut self, omega: OmegaSpec) -> Self {
        self.config.omega = omega;
        self
    }

    /// Default worker count for requests that do not override it.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Default proposal cap factor (`max_candidate_factor * target` proposals).
    pub fn max_candidate_factor(mut self, factor: usize) -> Self {
        self.config.max_candidate_factor = factor;
        self
    }

    /// Master seed for the data split and model learning.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Validate the schema-independent parts of the configuration and produce
    /// the engine.  (Schema-dependent checks — ω against the attribute count,
    /// the seed store against k — run at [`SynthesisEngine::train`] time.)
    pub fn build(self) -> Result<SynthesisEngine> {
        self.config.split.validate()?;
        self.config.privacy_test.validate()?;
        check_workers(self.config.workers)?;
        if self.config.max_candidate_factor == 0 {
            return Err(CoreError::InvalidParameter(
                "max_candidate_factor must be at least 1".into(),
            ));
        }
        Ok(SynthesisEngine {
            config: self.config,
        })
    }

    /// Convenience: build the engine and immediately train a session.
    pub fn train(self, dataset: &Dataset, bucketizer: &Bucketizer) -> Result<SynthesisSession> {
        self.build()?.train(dataset, bucketizer)
    }
}

/// A validated synthesis configuration, ready to train sessions.
///
/// The engine is cheap and reusable: each [`train`](SynthesisEngine::train)
/// call pays the expensive learning phase once and yields an immutable
/// [`SynthesisSession`] that serves any number of `generate` requests.
#[derive(Debug, Clone)]
pub struct SynthesisEngine {
    config: PipelineConfig,
}

impl SynthesisEngine {
    /// Start building an engine from the paper's default parameters.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// Wrap an existing full pipeline configuration.
    pub fn from_config(config: PipelineConfig) -> Self {
        SynthesisEngine { config }
    }

    /// The engine configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The expensive phase, paid exactly once per session: validate against
    /// the schema, split the dataset into the four disjoint subsets, and learn
    /// structure + parameters (+ the marginal baseline).
    pub fn train(&self, dataset: &Dataset, bucketizer: &Bucketizer) -> Result<SynthesisSession> {
        self.config.validate(dataset.schema().len())?;
        let start = Instant::now();
        // Deterministic value-hash split: each record's subset depends only
        // on its values and the session seed, so the split commutes with
        // dataset deltas — the foundation of `SynthesisSession::update`
        // producing the same subsets as a from-scratch retrain.
        let split = split_dataset_by_hash(dataset, &self.config.split, self.config.seed)?;
        SynthesisSession::derive(self.config, split, bucketizer, None, dataset.len(), start)
    }
}

/// One synthesis request served by a [`SynthesisSession`]: how many records to
/// release and, optionally, per-request overrides of the session defaults.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GenerateRequest {
    /// Number of synthetic records to release.
    pub target: usize,
    /// Per-request ω override (`None` uses the session default).
    pub omega: Option<OmegaSpec>,
    /// Per-request worker-count override (`None` uses the session default;
    /// 1 to 64).  [`SynthesisSession::release_stream`] validates it but
    /// always proposes on one worker, on the calling thread.
    pub workers: Option<usize>,
    /// Per-request proposal-cap override (`None` uses the session default).
    pub max_candidate_factor: Option<usize>,
    /// Seed for all randomness of this request (two requests with the same
    /// seed and parameters release identical records).
    pub seed: u64,
}

impl GenerateRequest {
    /// A request for `target` records with the session defaults and seed 0.
    pub fn new(target: usize) -> Self {
        GenerateRequest {
            target,
            omega: None,
            workers: None,
            max_candidate_factor: None,
            seed: 0,
        }
    }

    /// Override the number of re-sampled attributes ω for this request.
    pub fn with_omega(mut self, omega: OmegaSpec) -> Self {
        self.omega = Some(omega);
        self
    }

    /// Override the worker count for this request.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Override the proposal cap factor for this request.
    pub fn with_max_candidate_factor(mut self, factor: usize) -> Self {
        self.max_candidate_factor = Some(factor);
        self
    }

    /// Set the request seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Everything one release request produced.
#[derive(Debug)]
pub struct ReleaseReport {
    /// The released synthetic records (empty for a stream: its records went
    /// to the callback as they passed).
    pub synthetics: Dataset,
    /// Mechanism statistics for this request.
    pub stats: MechanismStats,
    /// Per-release (ε, δ) bound of Theorem 1 (randomized test only).
    pub per_release: Option<DpBudget>,
    /// Snapshot of the cumulative session ledger *after* this request.
    pub ledger: BudgetLedger,
    /// Wall-clock time spent generating and testing candidates.
    pub synthesis: Duration,
    /// Where this release came from: store, knobs, and budget before/after.
    pub provenance: Provenance,
}

impl ReleaseReport {
    /// Sequential-composition (ε, δ) cost of this request alone.
    pub fn request_budget(&self) -> DpBudget {
        crate::dp::compose_releases(self.per_release, self.stats.released)
    }

    /// The provenance block as a JSON value, parsed from
    /// [`write_provenance_json`](ReleaseReport::write_provenance_json)'s
    /// text.
    pub fn provenance_json(&self) -> Json {
        let mut text = String::with_capacity(512);
        self.write_provenance_json(&mut text);
        Json::parse(&text).expect("the provenance writer emits valid JSON")
    }

    /// Write the provenance block into `out` as canonical JSON (budget
    /// before/after pair resolved against this report's post-request
    /// ledger).
    pub fn write_provenance_json(&self, out: &mut String) {
        self.provenance.write_json(&self.ledger, out);
    }

    /// Render the report (counters + budgets + provenance) as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        write_object(&mut out, |object| {
            object
                .with("ledger", |out| self.ledger.write_json(out))
                .with("provenance", |out| self.write_provenance_json(out))
                .float("request_epsilon", self.request_budget().epsilon)
                .with("stats", |out| self.stats.write_json(out))
                .float("synthesis_seconds", self.synthesis.as_secs_f64());
        });
        out
    }
}

/// ProvSQL-style provenance of one release: which seed store served the
/// privacy tests, the effective knobs, the request seed, and the budget
/// ledger as admitted — enough to audit (or re-derive) the release without
/// replaying it.
///
/// Attached to every [`ReleaseReport`]; the serve layer forwards it verbatim
/// in protocol responses.  `trace_spans` counts the spans this request
/// committed to the global [`sgf_metrics::trace`] ring (0 when tracing is
/// off): the trace holds the span-level detail, this block the summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Provenance {
    /// Store that served the privacy tests ([`SeedStore::kind`]: always
    /// `"prefix"` for a session release).
    pub store: &'static str,
    /// Seed records the store draws from (`|D_S|`).
    pub seeds: usize,
    /// Effective ω spec (request override or session default).
    pub omega: OmegaSpec,
    /// Effective worker count.
    pub workers: usize,
    /// Effective proposal cap.
    pub max_candidates: usize,
    /// Privacy-test plausibility threshold `k`.
    pub k: usize,
    /// Privacy-test γ.
    pub gamma: f64,
    /// Randomized-test ε₀ (`None` for the deterministic test).
    pub epsilon0: Option<f64>,
    /// The request seed every stream of request randomness derives from.
    pub request_seed: u64,
    /// Session epoch that served the request: [`update`] steps since the
    /// original train (0 = freshly trained session).
    ///
    /// [`update`]: SynthesisSession::update
    pub epoch: u64,
    /// Ledger snapshot *before* this request committed.
    pub ledger_before: BudgetLedger,
    /// Spans committed to the trace ring for this request (0 = tracing off).
    pub trace_spans: usize,
}

impl Provenance {
    /// Write the provenance block into `out` as canonical JSON;
    /// `ledger_after` (the post-request ledger of the same release)
    /// completes the budget before/after pair.
    pub fn write_json(&self, ledger_after: &BudgetLedger, out: &mut String) {
        write_object(out, |object| {
            object
                .int("epoch", self.epoch)
                .opt_float("epsilon0", self.epsilon0)
                .float("gamma", self.gamma)
                .int("k", self.k)
                .object("ledger", |ledger| {
                    ledger
                        .object("after", |side| write_ledger_side(side, ledger_after))
                        .object("before", |side| {
                            write_ledger_side(side, &self.ledger_before)
                        });
                })
                .int("max_candidates", self.max_candidates)
                .string("omega", &render_omega(self.omega))
                .int("request_seed", self.request_seed)
                .int("seeds", self.seeds)
                .string("store", self.store)
                .int("trace_spans", self.trace_spans)
                .int("workers", self.workers);
        });
    }
}

/// Stable string rendering of an ω spec for provenance (`"fixed:9"`,
/// `"uniform:8-11"`).
fn render_omega(omega: OmegaSpec) -> String {
    match omega {
        OmegaSpec::Fixed(w) => format!("fixed:{w}"),
        OmegaSpec::UniformRange { lo, hi } => format!("uniform:{lo}-{hi}"),
    }
}

/// One side of the provenance budget pair: cumulative (ε, δ) plus the release
/// and request totals of the ledger at that point.
fn write_ledger_side(side: &mut ObjectWriter<'_>, ledger: &BudgetLedger) {
    let total = ledger.total();
    side.float("delta", total.delta)
        .float("epsilon", total.epsilon)
        .int("releases", ledger.releases)
        .int("requests", ledger.requests);
}

/// A session handle's metric scope and the release metric handles resolved
/// through it: one `Arc`, shared by the handle's clones and later epochs, so
/// cloning a handle per request copies no labels.
#[derive(Debug, Default)]
struct ScopeMetrics {
    /// `None` records into the global rollup only.
    scope: Option<Scope>,
    /// Resolved by the first release that records (see
    /// [`SynthesisSession::release_metrics`]).
    handles: OnceLock<ReleaseMetrics>,
}

/// One privacy-test observation captured for tracing: which store served the
/// test, at what granularity, and how it decided.  Collection is bounded
/// ([`MAX_TRACE_PROBES`] per request) and only happens when the global trace
/// is enabled — the probes feed `core.privacy_test` spans, never decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidateProbe {
    /// Global proposal rank of the candidate.
    pub rank: usize,
    /// Store granularity that served this test (`"scan"`, `"inverted"`,
    /// `"partition"`, `"prefix"`).
    pub store: &'static str,
    /// Whether the candidate passed the privacy test.
    pub passed: bool,
    /// Plausible seeds (or classes, at class granularity) counted before the
    /// test stopped.
    pub plausible_seeds: usize,
    /// Records (or classes) examined by the test.
    pub records_examined: usize,
}

/// Per-request cap on traced privacy tests: each worker keeps its first
/// `MAX_TRACE_PROBES` probes (ranks increase monotonically per worker), and
/// the merge keeps the globally smallest-ranked `MAX_TRACE_PROBES`.
pub const MAX_TRACE_PROBES: usize = 32;

/// The prefix-store slot of [`SessionShared`]: a built store, or a
/// splice/re-sort closure that the first accessor runs exactly once while
/// concurrent accessors block and observe the finished store.
///
/// [`SynthesisSession::update`] defers store maintenance so the splice stays
/// off the update's critical path: its cost amortizes into the first
/// request of the new epoch, which its privacy test dominates anyway.  Every
/// failure mode of the deferred closure is ruled out before it is queued
/// (schema validation covers record arity and domains, and each seed delete
/// was matched to a seed, so its σ-tuple is held), so materialization is
/// infallible.
type StoreSlot<S> = LazyLock<Arc<S>, Box<dyn FnOnce() -> Arc<S> + Send>>;

/// The immutable trained artifacts of one session epoch, shared (via `Arc`)
/// across every clone: the data split, the learned models, and the seed
/// stores.  Training — and each store build — happen at most once per epoch
/// no matter how many handles serve requests.
#[derive(Debug)]
struct SessionShared {
    split: DataSplit,
    models: TrainedModels,
    /// The σ-prefix store every release is tested against, built at train
    /// time and spliced lazily after an [`update`](SynthesisSession::update).
    prefix: StoreSlot<PrefixIndexStore>,
    /// The inverted seed index over this epoch's seeds, built by the first
    /// [`seed_store`](SynthesisSession::seed_store) call.
    index: OnceLock<Option<InvertedIndexStore>>,
    /// The partition store over this epoch's seeds (with its class-match
    /// cache), built by the first
    /// [`partition_store`](SynthesisSession::partition_store) call.
    partition: OnceLock<Option<PartitionIndexStore>>,
    training: Duration,
}

/// A trained, immutable synthesis session: the learned models plus the seed
/// store, serving repeated [`generate`](SynthesisSession::generate) requests
/// while a [`BudgetLedger`] accumulates the privacy cost of every release.
///
/// The session is `Send + Sync`; concurrent requests only contend on the
/// ledger mutex for a few nanoseconds per request.
///
/// # Cloning
///
/// `SynthesisSession` is `Clone`, and clones are **handles to the same
/// logical session**: they share the trained models, the seed split, the
/// seed stores (no rebuild — each store is built at most once per epoch),
/// *and* the budget ledger.  Sharing the ledger is deliberate: releases from
/// the same seed store compose sequentially no matter which handle served
/// them (Section 8), so every handle must charge — and be capped against —
/// the same cumulative (ε, δ).
#[derive(Debug, Clone)]
pub struct SynthesisSession {
    config: PipelineConfig,
    shared: Arc<SessionShared>,
    per_release: Option<DpBudget>,
    ledger: Arc<Mutex<BudgetLedger>>,
    /// Metric scope of this handle (see
    /// [`with_scope`](SynthesisSession::with_scope)) and its handles.
    metrics: Arc<ScopeMetrics>,
    /// How many [`update`](SynthesisSession::update) steps separate this
    /// session from its original [`SynthesisEngine::train`] (0 = freshly
    /// trained).  Stamped into every release's [`Provenance`].
    epoch: u64,
}

impl SynthesisSession {
    /// The configuration the session was trained with (request defaults).
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Label every metric this handle records with `scope` (e.g.
    /// `session=<name>`): request counters and timers land in both the
    /// global rollup and the scope's cell, and generate-trace roots carry the
    /// scope's labels.  The scope travels with **this handle** — other clones
    /// of the session keep their own (or no) scope — so one trained session
    /// can serve differently-labeled surfaces.  Scope on bounded dimensions
    /// only (session names, shards); unbounded ids belong in trace labels.
    pub fn with_scope(mut self, scope: Scope) -> Self {
        self.metrics = Arc::new(ScopeMetrics {
            scope: Some(scope),
            handles: OnceLock::new(),
        });
        self
    }

    /// The metric handles this handle's releases record into.  A scoped
    /// handle resolves them through its scope once, at its first release
    /// (so a scope's cell appears in snapshots only once it records), and
    /// shares them with its clones and later epochs; unscoped handles share
    /// one process-wide set.
    fn release_metrics(&self) -> &ReleaseMetrics {
        match &self.metrics.scope {
            None => ReleaseMetrics::unscoped(),
            Some(scope) => self
                .metrics
                .handles
                .get_or_init(|| ReleaseMetrics::resolve(Some(scope))),
        }
    }

    /// The metric scope of this handle, if any.
    pub fn scope(&self) -> Option<&Scope> {
        self.metrics.scope.as_ref()
    }

    /// The models learned at training time.
    pub fn models(&self) -> &TrainedModels {
        &self.shared.models
    }

    /// The disjoint data split the session was trained on.
    pub fn split(&self) -> &DataSplit {
        &self.shared.split
    }

    /// The seed store `D_S` that every request draws seeds from.
    pub fn seeds(&self) -> &Dataset {
        &self.shared.split.seeds
    }

    /// Per-release (ε, δ) bound of Theorem 1 under the session's privacy test.
    pub fn per_release_budget(&self) -> Option<DpBudget> {
        self.per_release
    }

    /// Wall-clock time spent splitting the data and learning the models.
    pub fn training_time(&self) -> Duration {
        self.shared.training
    }

    /// The inverted seed index over this epoch's seeds, built by the first
    /// call (`None` if the build fails).  Clones of the same session return
    /// the same shared instance; each [`update`](SynthesisSession::update)
    /// epoch builds its own.
    pub fn seed_store(&self) -> Option<&InvertedIndexStore> {
        let models = &self.shared.models;
        self.shared
            .index
            .get_or_init(|| {
                let weights = models.structure.attribute_weights();
                let bucketizer = models.cpts.bucketizer();
                InvertedIndexStore::build(self.seeds(), bucketizer, &weights, MAX_INTERSECT_LISTS)
                    .ok()
            })
            .as_ref()
    }

    /// The partition-aware store of likelihood-equivalence classes, keyed on
    /// the kept attributes at the smallest ω of the session's ω spec (so it
    /// covers every fixed-ω synthesizer that spec can produce), with its
    /// class-match cache.  Built over this epoch's seeds by the first call
    /// (`None` if the build fails); clones share it, and each
    /// [`update`](SynthesisSession::update) epoch builds its own.
    pub fn partition_store(&self) -> Option<&PartitionIndexStore> {
        self.shared
            .partition
            .get_or_init(|| {
                let cpts = Arc::clone(&self.shared.models.cpts);
                let synthesizer = SeedSynthesizer::new(cpts, smallest_omega(self.config.omega));
                PartitionIndexStore::build(self.seeds(), synthesizer.ok()?.kept_attributes())
                    .map(PartitionIndexStore::with_class_cache)
                    .ok()
            })
            .as_ref()
    }

    /// The σ-prefix store every release is tested against.  Clones of the
    /// same session return the same shared instance.  After an
    /// [`update`](SynthesisSession::update), the first call or request
    /// splices the deferred delta into the store (exactly once).
    pub fn prefix_store(&self) -> &PrefixIndexStore {
        &self.shared.prefix
    }

    /// A snapshot of the cumulative privacy ledger.
    pub fn ledger(&self) -> BudgetLedger {
        *self.lock_ledger()
    }

    fn lock_ledger(&self) -> std::sync::MutexGuard<'_, BudgetLedger> {
        self.ledger.lock().expect("ledger lock poisoned")
    }

    /// Atomically reserve budget for up to `records` releases under the
    /// per-session cap `cap` (see [`BudgetLedger::try_reserve`]).
    ///
    /// This is the admission-control half of serving releases under a cap:
    /// the check and the reservation happen under one ledger lock, so
    /// concurrent requests can never jointly overshoot the cap.  A successful
    /// reservation must be settled by exactly one
    /// [`generate_reserved`](SynthesisSession::generate_reserved) /
    /// [`generate_reserved_with`](SynthesisSession::generate_reserved_with) /
    /// [`release_stream`](SynthesisSession::release_stream) call or one
    /// [`abort_reservation`](SynthesisSession::abort_reservation).
    pub fn try_reserve(&self, records: usize, cap: DpBudget) -> Result<()> {
        self.lock_ledger().try_reserve(records, cap)
    }

    /// Free a reservation made with
    /// [`try_reserve`](SynthesisSession::try_reserve) without releasing
    /// anything (the request was rejected downstream or failed).
    pub fn abort_reservation(&self, records: usize) {
        self.lock_ledger().abort(records);
    }

    /// Serve one request with the session's own seed-based synthesizer: build
    /// one fixed-ω synthesizer per admissible ω and fan candidate generation
    /// out over the request's workers.
    pub fn generate(&self, request: &GenerateRequest) -> Result<ReleaseReport> {
        self.generate_seeded(request, None, None)
    }

    /// Serve one request against a prior reservation of `reserved` records
    /// (`request.target` must not exceed it): on success the actual releases
    /// are committed and any unused part of the reservation is freed; on
    /// error the whole reservation is aborted.  Either way the reservation is
    /// fully settled when this returns.
    pub fn generate_reserved(
        &self,
        reserved: usize,
        request: &GenerateRequest,
    ) -> Result<ReleaseReport> {
        self.generate_seeded(request, Some(reserved), None)
    }

    /// [`generate_with`](SynthesisSession::generate_with) against a prior
    /// reservation — same settlement semantics as
    /// [`generate_reserved`](SynthesisSession::generate_reserved).
    pub fn generate_reserved_with<M: GenerativeModel + ?Sized>(
        &self,
        model: &M,
        reserved: usize,
        request: &GenerateRequest,
    ) -> Result<ReleaseReport> {
        self.generate_over(&[model], request, Some(reserved), None)
    }

    /// Serve one request through an *arbitrary* generative model — the same
    /// plausible-deniability mechanism and budget accounting, with `model`
    /// (e.g. the marginal baseline, or a `&dyn GenerativeModel` trait object)
    /// in place of the seed-based synthesizer.
    pub fn generate_with<M: GenerativeModel + ?Sized>(
        &self,
        model: &M,
        request: &GenerateRequest,
    ) -> Result<ReleaseReport> {
        self.generate_over(&[model], request, None, None)
    }

    /// Stream one seed-model release: each record goes to `emit` the moment
    /// it passes the privacy test, and `emit` returning `false` (the consumer
    /// hung up) stops proposing; the record it refused still counts as
    /// released.
    ///
    /// A stream proposes on one worker, on the calling thread (the request's
    /// `workers` override is validated, then ignored).  There every pass is
    /// final and in rank order, so a stream releases exactly the records of
    /// [`generate`](SynthesisSession::generate), in the same order, and
    /// records the metrics, trace spans and report of a one-worker generate —
    /// except that the report's `synthetics` is empty, because the engine
    /// does not buffer streamed records.
    ///
    /// `reserved` is a prior [`try_reserve`](SynthesisSession::try_reserve)
    /// of at least `request.target` records (`None` reserves the target
    /// without a cap check).  Each released record converts one reserved
    /// record before it reaches `emit`, so `releases + reserved` stays exact
    /// mid-stream, and the remainder is settled when the stream ends, on
    /// error too.
    pub fn release_stream(
        &self,
        request: &GenerateRequest,
        reserved: Option<usize>,
        mut emit: impl FnMut(Record) -> bool,
    ) -> Result<ReleaseReport> {
        self.generate_seeded(request, reserved, Some(&mut emit))
    }

    /// The seed-synthesizer release path.
    fn generate_seeded(
        &self,
        request: &GenerateRequest,
        reserved: Option<usize>,
        emit: Option<&mut dyn FnMut(Record) -> bool>,
    ) -> Result<ReleaseReport> {
        let synthesizers = self
            .build_synthesizers(request.omega.unwrap_or(self.config.omega))
            .inspect_err(|_| reserved.map_or((), |r| self.abort_reservation(r)))?;
        let refs: Vec<&SeedSynthesizer> = synthesizers.iter().collect();
        self.generate_over(&refs, request, reserved, emit)
    }

    /// One fixed-ω synthesizer per admissible ω of `omega` (the mechanism
    /// needs `Pr{y = M(d)}` for the exact model that produced `y`, so a
    /// randomized ω draws among pre-built fixed-ω models per candidate).
    fn build_synthesizers(&self, omega: OmegaSpec) -> Result<Vec<SeedSynthesizer>> {
        omega.validate(self.seeds().schema().len())?;
        Ok(omega
            .range()
            .map(|w| SeedSynthesizer::new(Arc::clone(&self.shared.models.cpts), w))
            .collect::<sgf_model::Result<_>>()?)
    }

    /// Validate and resolve the per-request limits against session defaults.
    fn request_limits(&self, request: &GenerateRequest) -> Result<(usize, usize, usize)> {
        if request.target == 0 {
            return Err(CoreError::InvalidParameter(
                "target must be at least 1".into(),
            ));
        }
        let workers = request.workers.unwrap_or(self.config.workers);
        check_workers(workers)?;
        let factor = request
            .max_candidate_factor
            .unwrap_or(self.config.max_candidate_factor);
        if factor == 0 {
            return Err(CoreError::InvalidParameter(
                "max_candidate_factor must be at least 1".into(),
            ));
        }
        Ok((
            request.target,
            workers,
            request.target.saturating_mul(factor),
        ))
    }

    /// Every session release: run Mechanism 1 under one reservation and
    /// settle it exactly once.  `reserved: None` reserves the target without
    /// a cap check, so an in-flight request always shows in
    /// `ledger.reserved`.  A stream (`emit`) converts each released record as
    /// it passes; a batch converts its releases at the end.  The settlement
    /// then commits the remainder, or on error frees every record not yet
    /// converted.
    fn generate_over<M: GenerativeModel + ?Sized>(
        &self,
        models: &[&M],
        request: &GenerateRequest,
        reserved: Option<usize>,
        emit: Option<&mut dyn FnMut(Record) -> bool>,
    ) -> Result<ReleaseReport> {
        let reserved = reserved.unwrap_or_else(|| {
            self.lock_ledger().reserve(request.target);
            request.target
        });
        let store: &PrefixIndexStore = &self.shared.prefix;
        let ledger_before = self.ledger();
        let tracing = sgf_metrics::trace().enabled();
        let mut probes: Vec<CandidateProbe> = Vec::new();
        let mut converted = 0usize;
        let start = Instant::now();
        let run = self.request_limits(request).and_then(|(target, workers, max_candidates)| {
            if target > reserved {
                return Err(CoreError::InvalidParameter(format!(
                    "request targets {target} records but only {reserved} were reserved at admission"
                )));
            }
            let workers = if emit.is_some() { 1 } else { workers };
            let mut convert = emit.map(|emit| {
                let converted = &mut converted;
                move |record: Record| {
                    self.lock_ledger().convert_reserved_release();
                    *converted += 1;
                    emit(record)
                }
            });
            // Construct the mechanisms once per request (validation
            // included); the workers only borrow them.
            let mechanisms: Vec<Mechanism<'_, M>> = models
                .iter()
                .map(|m| Mechanism::with_store(*m, self.seeds(), store, self.config.privacy_test))
                .collect::<Result<_>>()?;
            let (records, stats) = run_mechanism(
                &mechanisms,
                target,
                max_candidates,
                workers,
                request.seed,
                self.release_metrics(),
                tracing.then_some(&mut probes),
                convert.as_mut().map(|f| f as &mut dyn FnMut(Record) -> bool),
            )?;
            Ok((records, stats, target, workers, max_candidates))
        });
        let (records, stats, target, workers, max_candidates) = match run {
            Ok(run) => run,
            Err(err) => {
                // Records a stream already released stay charged.
                self.abort_reservation(reserved - converted);
                return Err(err);
            }
        };
        let synthesis = start.elapsed();
        self.release_metrics().synthesis.observe(synthesis);
        let ledger = {
            let mut guard = self.lock_ledger();
            guard.commit(reserved - converted, stats.released - converted);
            *guard
        };
        let trace_spans = if tracing {
            commit_generate_trace(
                self.scope(),
                request,
                store.kind(),
                target,
                workers,
                &stats,
                &probes,
                synthesis,
            )
        } else {
            0
        };
        let provenance = Provenance {
            store: store.kind(),
            seeds: self.seeds().len(),
            omega: request.omega.unwrap_or(self.config.omega),
            workers,
            max_candidates,
            k: self.config.privacy_test.k,
            gamma: self.config.privacy_test.gamma,
            epsilon0: self.config.privacy_test.epsilon0,
            request_seed: request.seed,
            epoch: self.epoch,
            ledger_before,
            trace_spans,
        };
        Ok(ReleaseReport {
            synthetics: Dataset::from_records_unchecked(self.seeds().schema_arc(), records),
            stats,
            per_release: self.per_release,
            ledger,
            synthesis,
            provenance,
        })
    }

    /// Dismantle the session into its split, models, and final ledger (handy
    /// for evaluation).
    ///
    /// When this handle is the last one, the trained artifacts are moved out;
    /// while clones are still alive they are cloned instead (and the returned
    /// ledger is a snapshot of the shared one).
    pub fn into_parts(self) -> (DataSplit, TrainedModels, BudgetLedger) {
        let ledger = self.ledger();
        match Arc::try_unwrap(self.shared) {
            Ok(shared) => (shared.split, shared.models, ledger),
            Err(arc) => (arc.split.clone(), arc.models.clone(), ledger),
        }
    }

    /// How many [`update`](SynthesisSession::update) steps separate this
    /// session from its original train (0 = freshly trained).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Apply a seed-data delta and return the next session **epoch**: a new
    /// immutable session over the post-delta dataset, leaving this one
    /// untouched (old epochs keep serving until dropped).  An empty delta
    /// makes an epoch like any other.
    ///
    /// An update is [`SynthesisEngine::train`]'s derivation applied to the
    /// delta: [`DataSplit::apply_delta`] splices each ±record into its
    /// hash-split subset, copying no survivor, and the models are derived by
    /// the code that learns a train's ([`learn_models`](crate::learn_models)
    /// is its parent-less case) from this epoch's counts with each subset's
    /// delta merged in O(|Δ|).  The σ-prefix store's splice is deferred to
    /// the new epoch's first request; the inverted index and partition store
    /// are built per epoch, on the first
    /// [`seed_store`](SynthesisSession::seed_store) /
    /// [`partition_store`](SynthesisSession::partition_store) call.
    ///
    /// **Equivalence invariant:** the returned session's split, models and
    /// stores are bit-identical to `SynthesisEngine::train` on the
    /// post-delta dataset, so identically-seeded `generate` calls release
    /// byte-identical records.
    ///
    /// The privacy ledger is **shared** with this session (same `Arc`):
    /// releases keep composing across epochs because they disclose the same
    /// underlying population.  The scope, its resolved metric handles and the
    /// per-release budget carry over; `epoch` increments and is stamped into
    /// every release's [`Provenance`].
    pub fn update(&self, delta: &DatasetDelta) -> Result<SynthesisSession> {
        let start = Instant::now();
        let (split, deltas) =
            (self.shared.split).apply_delta(&self.config.split, self.config.seed, delta)?;
        let bucketizer = self.shared.models.cpts.bucketizer();
        let parent = Some((self, deltas));
        SynthesisSession::derive(
            self.config,
            split,
            bucketizer,
            parent,
            delta.change_count(),
            start,
        )
    }

    /// The one epoch derivation: [`SynthesisEngine::train`] passes no
    /// parent, [`update`](SynthesisSession::update) its own epoch and the
    /// per-subset delta from its split to `split`.  `records` is the
    /// dataset size of a train, the change count of an update.
    ///
    /// A train builds the σ-prefix store at once and opens a fresh ledger.
    /// An update shares its parent's ledger, scope and prefix store, or
    /// defers a splice (a re-sort when σ changed) to the first request of
    /// the new epoch.  The deferred work cannot fail: the delta's records
    /// are schema-validated, and each seed delete matched a seed, so the
    /// store holds its σ-tuple.
    fn derive(
        config: PipelineConfig,
        split: DataSplit,
        bucketizer: &Bucketizer,
        parent: Option<(&SynthesisSession, [DatasetDelta; 4])>,
        records: usize,
        start: Instant,
    ) -> Result<SynthesisSession> {
        if split.seeds.len() < config.privacy_test.k {
            return Err(CoreError::DatasetTooSmall {
                available: split.seeds.len(),
                required: config.privacy_test.k,
            });
        }
        let (parent, deltas) = parent.unzip();
        let parent_models = parent.map(|parent| &parent.shared.models);
        let inputs = parent_models.zip(deltas.as_ref());
        let models = derive_models(&config, &split, bucketizer, inputs)?;
        let training = start.elapsed();
        let synthesizer =
            SeedSynthesizer::new(Arc::clone(&models.cpts), smallest_omega(config.omega))?;
        let sigma = synthesizer.sigma();
        const VALID: &str = "the update validated the store's inputs";
        // What an update takes from its parent and a train makes afresh.
        let (prefix, index_build, per_release, ledger, metrics) = match (parent, deltas) {
            (Some(parent), Some([_, _, seeds, _])) => {
                sgf_metrics::counter("core.updates").incr();
                let old = Arc::clone(&parent.shared.prefix);
                let slot: Box<dyn FnOnce() -> _ + Send> = if old.order() != sigma {
                    let (data, sigma) = (split.seeds.clone(), sigma.to_vec());
                    Box::new(move || Arc::new(PrefixIndexStore::build(&data, &sigma).expect(VALID)))
                } else if seeds.is_empty() {
                    Box::new(move || old)
                } else {
                    Box::new(move || {
                        let store = old.apply_delta(seeds.deletes(), seeds.inserts());
                        Arc::new(store.expect(VALID))
                    })
                };
                let (ledger, metrics) = (Arc::clone(&parent.ledger), Arc::clone(&parent.metrics));
                (
                    StoreSlot::new(slot),
                    None,
                    parent.per_release,
                    ledger,
                    metrics,
                )
            }
            _ => {
                let build_start = Instant::now();
                let prefix = Arc::new(PrefixIndexStore::build(&split.seeds, sigma)?);
                let index_build = build_start.elapsed();
                sgf_metrics::timer("core.index_build").observe(index_build);
                let per_release = per_release_budget(&config.privacy_test);
                let (structure, cpts) = (models.structure.budget, models.cpts.budget());
                let ledger = Arc::new(Mutex::new(BudgetLedger::new(structure, cpts, per_release)));
                let slot = StoreSlot::new(Box::new(move || prefix));
                (slot, Some(index_build), per_release, ledger, Arc::default())
            }
        };
        let (name, wall, epoch) = match parent {
            None => ("core.train", training, 0),
            Some(parent) => ("core.update", start.elapsed(), parent.epoch + 1),
        };
        sgf_metrics::timer(name).observe(wall);
        let trace = sgf_metrics::trace();
        if trace.enabled() {
            let mut batch = TraceBatch::new();
            let root = batch.span(name, SpanId::NONE);
            match parent_models {
                None => batch.counter(root, "records", records as u64),
                Some(old) => {
                    batch.counter(root, "epoch", epoch);
                    batch.counter(root, "delta_records", records as u64);
                    let relearned = old.structure.graph != models.structure.graph;
                    batch.label(root, "structure_relearned", on_off(relearned));
                }
            }
            batch.counter(root, "seeds", split.seeds.len() as u64);
            batch.wall(root, wall);
            if let Some(index_build) = index_build {
                let build = batch.span("core.index_build", root);
                batch.wall(build, index_build);
            }
            trace.commit(batch);
        }
        Ok(SynthesisSession {
            config,
            shared: Arc::new(SessionShared {
                split,
                models,
                prefix,
                index: OnceLock::new(),
                partition: OnceLock::new(),
                training,
            }),
            per_release,
            ledger,
            metrics,
            epoch,
        })
    }
}

/// Theorem-1 per-release budget for a privacy-test configuration (tightest ε
/// with δ ≤ 1e-6), or `None` for the deterministic test.
pub(crate) fn per_release_budget(test: &PrivacyTestConfig) -> Option<DpBudget> {
    let epsilon0 = test.epsilon0?;
    crate::dp::ReleaseBudget::optimize(test.k, test.gamma, epsilon0, 1e-6)
        .ok()
        .flatten()
        .map(|b| b.budget)
}

/// The RNG seed of the candidate at rank `rank` of a request seeded with
/// `request_seed`.
///
/// Every release draws rank `r`'s candidate — the ω-model choice, then the
/// proposal — from its own `StdRng::seed_from_u64(proposal_seed(seed, r))`
/// stream, and releases the `target` smallest passing ranks.  A rank's
/// candidate is therefore a function of (request seed, rank) alone: every
/// worker count, every thread schedule and a stream release the same
/// records, and any one rank replays over any seed store by itself.
///
/// The seed nests two SplitMix64 steps, `splitmix64(splitmix64(request_seed)
/// ^ rank)`, so requests whose seeds lie a fixed arithmetic offset apart do
/// not share candidate streams.
pub fn proposal_seed(request_seed: u64, rank: usize) -> u64 {
    splitmix64(splitmix64(request_seed) ^ rank as u64)
}

/// One SplitMix64 step from state `x`: a bijective 64-bit mix.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The smallest ω an ω spec admits: its synthesizer keeps the most
/// attributes, so it fixes the σ-prefix store's key.
fn smallest_omega(omega: OmegaSpec) -> usize {
    *omega.range().start()
}

/// Most worker threads one request may fan out over.  The ceiling bounds
/// the threads a request can make the process spawn.
pub(crate) const MAX_WORKERS: usize = 64;

/// A worker count must be at least 1 and at most [`MAX_WORKERS`].
pub(crate) fn check_workers(workers: usize) -> Result<()> {
    if workers == 0 || workers > MAX_WORKERS {
        return Err(CoreError::InvalidParameter(format!(
            "workers must be between 1 and {MAX_WORKERS}, got {workers}"
        )));
    }
    Ok(())
}

/// Trace-label rendering of an optional build step.
fn on_off(built: bool) -> &'static str {
    if built {
        "built"
    } else {
        "skipped"
    }
}

/// Commit the span tree of one generate request to the global trace ring:
/// a `core.generate` root (scope labels, store, seed, outcome counters), a
/// `core.proposals` child with the mechanism counters, and one
/// `core.privacy_test` child per captured probe.  Returns the events
/// committed (0 when tracing was toggled off mid-request).
#[allow(clippy::too_many_arguments)]
fn commit_generate_trace(
    scope: Option<&Scope>,
    request: &GenerateRequest,
    store_kind: &'static str,
    target: usize,
    workers: usize,
    stats: &MechanismStats,
    probes: &[CandidateProbe],
    synthesis: Duration,
) -> usize {
    let mut batch = TraceBatch::new();
    let root = batch.span("core.generate", SpanId::NONE);
    if let Some(scope) = scope {
        batch.scope_labels(root, scope);
    }
    batch.label(root, "store", store_kind);
    batch.label(root, "seed", &request.seed.to_string());
    batch.counter(root, "target", target as u64);
    batch.counter(root, "released", stats.released as u64);
    batch.counter(root, "workers", workers as u64);
    batch.wall(root, synthesis);
    let proposals = batch.span("core.proposals", root);
    for (name, value) in stats.counters() {
        batch.counter(proposals, name, value as u64);
    }
    if stats.candidates > probes.len() {
        batch.counter(
            proposals,
            "candidates_untraced",
            (stats.candidates - probes.len()) as u64,
        );
    }
    for probe in probes {
        let span = batch.span("core.privacy_test", proposals);
        batch.label(span, "store", probe.store);
        batch.label(span, "outcome", if probe.passed { "pass" } else { "fail" });
        batch.counter(span, "rank", probe.rank as u64);
        batch.counter(span, "plausible_seeds", probe.plausible_seeds as u64);
        batch.counter(span, "records_examined", probe.records_examined as u64);
    }
    sgf_metrics::trace().commit(batch)
}

/// A passing candidate tagged with its proposal rank.
///
/// Workers claim ranks from one shared counter, so a rank is globally
/// unique and strictly increasing within each worker.  Ordering is by rank
/// alone so the shared selection heap can evict its largest-rank member
/// first.
struct RankedRecord {
    rank: usize,
    record: Record,
}

impl PartialEq for RankedRecord {
    fn eq(&self, other: &Self) -> bool {
        self.rank == other.rank
    }
}

impl Eq for RankedRecord {}

impl PartialOrd for RankedRecord {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RankedRecord {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.rank.cmp(&other.rank)
    }
}

/// Per-worker contention tallies for the shared release selection, merged
/// across workers and flushed into the [`sgf_metrics`] global registry per
/// request (`core.mechanism.*`).
#[derive(Debug, Default, Clone, Copy)]
struct WorkerProfile {
    /// Times this worker acquired the shared selection lock: once per
    /// claimed block that held a *passing* candidate, merging all of the
    /// block's passes at once (failing candidates never touch shared state).
    /// At block 1 that is once per pass.  A stream hands each pass to its
    /// caller instead, counted the same way.
    selection_locks: u64,
    /// Passing candidates that lost to a full selection of smaller ranks
    /// (wasted proposals the rank threshold did not stop in time).
    outranked_passes: u64,
}

impl WorkerProfile {
    fn merge(&mut self, other: &WorkerProfile) {
        self.selection_locks += other.selection_locks;
        self.outranked_passes += other.outranked_passes;
    }
}

/// The most ranks a worker claims at once.
const MAX_CLAIM_BLOCK: usize = 16;

/// Ranks per claim: one with one worker (a stream emits every pass as it
/// comes), and about a sixteenth of each worker's share of `target` with
/// more, up to [`MAX_CLAIM_BLOCK`].  A block's passes reach the threshold
/// only when the block ends, so the proposals past the final threshold grow
/// with `workers × block`; the sixteenth keeps them a small share of the
/// request, and a served request of a few dozen records claims rank by
/// rank.
fn claim_block(target: usize, workers: usize) -> usize {
    if workers <= 1 {
        1
    } else {
        (target / (workers * 16)).clamp(1, MAX_CLAIM_BLOCK)
    }
}

/// The one Mechanism-1 loop, behind every session release and
/// [`Mechanism::release`]: fan the request's proposals out over the workers,
/// each rank drawing among `mechanisms` (built and validated once per
/// request by the caller).
///
/// # Determinism and contention
///
/// Workers claim ranks in blocks of [`claim_block`] from one shared
/// counter, draw each rank's candidate from that rank's own
/// [`proposal_seed`] stream, and keep a block's passing candidates locally
/// until the block ends; failing candidates never touch shared state.  The
/// passes then enter a bounded max-heap of capacity `target` under a mutex,
/// one lock per block — the release selection is the `target`
/// *smallest-rank* passing candidates — and a lock-free threshold mirror of
/// the heap's max rank lets workers stop early: once the heap is full, the
/// threshold only decreases, so a worker whose next rank exceeds it can
/// never displace a selected record (ranks are unique, and every rank it
/// claims later is larger still).  Skipped proposals therefore cannot
/// change the selection, which makes the released records — sorted by rank
/// on return — **identical across runs, schedules and worker counts**.
/// Per-proposal shared traffic is one relaxed load of a cache-padded
/// threshold, plus one counter increment per block.
///
/// With `emit` (a stream) the engine runs one worker, where every pass is
/// final and in rank order: each passing record goes straight to `emit`
/// instead of the heap, and `emit` returning `false` stops proposing.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_mechanism<M: GenerativeModel + ?Sized>(
    mechanisms: &[Mechanism<'_, M>],
    target: usize,
    max_candidates: usize,
    workers: usize,
    request_seed: u64,
    metrics: &ReleaseMetrics,
    probes_out: Option<&mut Vec<CandidateProbe>>,
    emit: Option<&mut dyn FnMut(Record) -> bool>,
) -> Result<(Vec<Record>, MechanismStats)> {
    if mechanisms.is_empty() {
        return Err(CoreError::InvalidParameter(
            "at least one generative model is required".into(),
        ));
    }
    debug_assert!(emit.is_none() || workers == 1, "a stream runs one worker");
    let workers = workers.min(max_candidates.max(1));
    let run = MechanismRun {
        mechanisms,
        request_seed,
        target,
        max_candidates,
        block: claim_block(target, workers),
        next_rank: CachePadded::new(AtomicUsize::new(0)),
        // `target` and `workers` come from the request: the heap and the
        // handle list grow as they are used instead of preallocating.
        selection: Mutex::new(BinaryHeap::new()),
        // usize::MAX = "heap not full yet, every rank is still in the running".
        threshold: CachePadded::new(AtomicUsize::new(usize::MAX)),
        collect_probes: probes_out.is_some(),
    };

    type WorkerResult = Result<(MechanismStats, WorkerProfile, Vec<CandidateProbe>)>;
    let worker_results: Vec<WorkerResult> = if workers <= 1 {
        vec![run.worker_loop(emit)]
    } else {
        std::thread::scope(|scope| {
            let run = &run;
            let handles: Vec<_> = (0..workers)
                .map(|_| scope.spawn(move || run.worker_loop(None)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        })
    };

    let mut stats = MechanismStats::default();
    let mut profile = WorkerProfile::default();
    let mut probes: Vec<CandidateProbe> = Vec::new();
    for result in worker_results {
        let (s, p, mut worker_probes) = result?;
        stats.merge(&s);
        profile.merge(&p);
        probes.append(&mut worker_probes);
    }
    if let Some(out) = probes_out {
        // Each worker kept its smallest-ranked probes; the merged smallest
        // `MAX_TRACE_PROBES` ranks are therefore a true global prefix.
        probes.sort_by_key(|probe| probe.rank);
        probes.truncate(MAX_TRACE_PROBES);
        *out = probes;
    }
    let heap = run
        .selection
        .into_inner()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    // Ascending rank order, the order a stream emits.
    let records: Vec<Record> = heap
        .into_sorted_vec()
        .into_iter()
        .map(|ranked| ranked.record)
        .collect();
    // The heap caps releases at the target; workers cannot know which of
    // their passes survive the selection, so the released total is settled
    // here instead of per worker.  A stream counted its emitted records.
    stats.released += records.len();
    debug_assert!(stats.released <= target, "released past the target");

    stats.flush(
        metrics,
        profile.selection_locks,
        profile.outranked_passes,
        workers,
    );

    Ok((records, stats))
}

/// One request's shared Mechanism-1 state: what every worker reads, the rank
/// counter they claim from, and the selection they merge into.
struct MechanismRun<'a, 'm, M: GenerativeModel + ?Sized> {
    mechanisms: &'a [Mechanism<'m, M>],
    request_seed: u64,
    target: usize,
    max_candidates: usize,
    block: usize,
    /// The first unclaimed rank.  `Relaxed` suffices: the counter publishes
    /// no other data, and a read-modify-write hands out each block once.
    next_rank: CachePadded<AtomicUsize>,
    selection: Mutex<BinaryHeap<RankedRecord>>,
    threshold: CachePadded<AtomicUsize>,
    collect_probes: bool,
}

impl<M: GenerativeModel + ?Sized> MechanismRun<'_, '_, M> {
    fn worker_loop(
        &self,
        mut emit: Option<&mut dyn FnMut(Record) -> bool>,
    ) -> Result<(MechanismStats, WorkerProfile, Vec<CandidateProbe>)> {
        let mut stats = MechanismStats::default();
        let mut profile = WorkerProfile::default();
        let mut probes: Vec<CandidateProbe> = Vec::new();
        let mut passes: Vec<RankedRecord> = Vec::new();
        'claims: loop {
            let start = self.next_rank.fetch_add(self.block, Ordering::Relaxed);
            if start >= self.max_candidates {
                break;
            }
            for rank in start..self.max_candidates.min(start + self.block) {
                // Once the selection is full its max rank only decreases,
                // and the ranks this worker claims only increase — past the
                // threshold it can never contribute again, so stopping here
                // cannot change the selection.
                if self.threshold.load(Ordering::Relaxed) <= rank {
                    break 'claims;
                }
                let mut rng = StdRng::seed_from_u64(proposal_seed(self.request_seed, rank));
                let which = if self.mechanisms.len() == 1 {
                    0
                } else {
                    rng.gen_range(0..self.mechanisms.len())
                };
                let report = self.mechanisms[which].propose(&mut rng)?;
                stats.observe(&report.outcome);
                if self.collect_probes && probes.len() < MAX_TRACE_PROBES {
                    probes.push(CandidateProbe {
                        rank,
                        store: if report.outcome.via_classes || report.outcome.via_index {
                            self.mechanisms[which].store_kind()
                        } else {
                            "scan"
                        },
                        passed: report.outcome.passed,
                        plausible_seeds: report.outcome.plausible_seeds,
                        records_examined: report.outcome.records_examined,
                    });
                }
                if !report.released() {
                    continue;
                }
                if let Some(emit) = emit.as_deref_mut() {
                    // A stream's lone worker: every pass is final, in rank order.
                    profile.selection_locks += 1;
                    stats.released += 1;
                    if !emit(report.record) || stats.released == self.target {
                        break 'claims;
                    }
                    continue;
                }
                passes.push(RankedRecord {
                    rank,
                    record: report.record,
                });
            }
            self.merge(&mut passes, &mut profile);
        }
        self.merge(&mut passes, &mut profile);
        Ok((stats, profile, probes))
    }

    /// Move a worker's pending passes into the selection under one lock.
    fn merge(&self, passes: &mut Vec<RankedRecord>, profile: &mut WorkerProfile) {
        if passes.is_empty() {
            return;
        }
        profile.selection_locks += 1;
        let mut heap = self
            .selection
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        for ranked in passes.drain(..) {
            if heap.len() < self.target {
                heap.push(ranked);
            } else if heap.peek().is_some_and(|top| ranked.rank < top.rank) {
                heap.pop();
                heap.push(ranked);
            } else {
                profile.outranked_passes += 1;
            }
        }
        if heap.len() == self.target {
            if let Some(top) = heap.peek() {
                self.threshold.store(top.rank, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgf_data::acs::{acs_bucketizer, acs_schema, generate_acs};

    /// Replay a request rank by rank the way `generate` selects it, over
    /// `store` — the scan oracle when `None` — with the request's synthesizers
    /// built from `session`, or `model` in their place.
    fn replay(
        session: &SynthesisSession,
        store: Option<&dyn SeedStore>,
        model: Option<&dyn GenerativeModel>,
        request: &GenerateRequest,
    ) -> (Vec<Record>, MechanismStats) {
        let (target, _, max_candidates) = session.request_limits(request).unwrap();
        let synthesizers = session
            .build_synthesizers(request.omega.unwrap_or(session.config().omega))
            .unwrap();
        let models: Vec<&dyn GenerativeModel> = match model {
            Some(model) => vec![model],
            None => synthesizers
                .iter()
                .map(|m| m as &dyn GenerativeModel)
                .collect(),
        };
        let (seeds, test) = (session.seeds(), session.config().privacy_test);
        let (mut released, mut stats) = (Vec::new(), MechanismStats::default());
        while released.len() < target && stats.candidates < max_candidates {
            // `candidates` counts the ranks proposed so far.
            let mut rng = StdRng::seed_from_u64(proposal_seed(request.seed, stats.candidates));
            let which = if models.len() == 1 {
                0
            } else {
                rng.gen_range(0..models.len())
            };
            let mechanism = match store {
                Some(store) => Mechanism::with_store(models[which], seeds, store, test),
                None => Mechanism::new(models[which], seeds, test),
            };
            let report = mechanism.unwrap().propose(&mut rng).unwrap();
            stats.observe(&report.outcome);
            if report.released() {
                stats.released += 1;
                released.push(report.record);
            }
        }
        (released, stats)
    }

    fn small_engine(seed: u64) -> SynthesisEngine {
        SynthesisEngine::builder()
            .privacy_test(
                PrivacyTestConfig::randomized(20, 4.0, 1.0).with_limits(Some(40), Some(2000)),
            )
            .omega(OmegaSpec::Fixed(9))
            .max_candidate_factor(30)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_rejects_invalid_defaults() {
        assert!(SynthesisEngine::builder().workers(0).build().is_err());
        assert!(SynthesisEngine::builder()
            .max_candidate_factor(0)
            .build()
            .is_err());
        assert!(SynthesisEngine::builder()
            .privacy_test(PrivacyTestConfig::deterministic(5, 0.5))
            .build()
            .is_err());
    }

    #[test]
    fn session_serves_repeated_requests_and_accumulates_the_ledger() {
        let data = generate_acs(4000, 11);
        let bkt = acs_bucketizer(&acs_schema());
        let session = small_engine(11).train(&data, &bkt).unwrap();
        assert_eq!(session.ledger().releases, 0);

        let mut total = 0usize;
        let mut last_epsilon = 0.0;
        for request_seed in 0..3u64 {
            let report = session
                .generate(&GenerateRequest::new(15).with_seed(request_seed))
                .unwrap();
            assert!(!report.synthetics.is_empty());
            total += report.stats.released;
            assert_eq!(report.ledger.releases, total);
            assert_eq!(report.ledger.requests, request_seed as usize + 1);
            let epsilon = report.ledger.cumulative_release().epsilon;
            assert!(epsilon > last_epsilon, "ledger must grow monotonically");
            last_epsilon = epsilon;
        }
        assert_eq!(session.ledger().releases, total);
    }

    #[test]
    fn identical_requests_release_identical_records() {
        let data = generate_acs(3500, 12);
        let bkt = acs_bucketizer(&acs_schema());
        let session = small_engine(12).train(&data, &bkt).unwrap();
        let request = GenerateRequest::new(12).with_seed(99);
        let a = session.generate(&request).unwrap();
        let b = session.generate(&request).unwrap();
        assert_eq!(a.synthetics.records(), b.synthetics.records());
        // The ledger still charges both requests.
        assert_eq!(b.ledger.releases, a.stats.released + b.stats.released);
    }

    #[test]
    fn release_stream_emits_and_charges_the_ledger() {
        let data = generate_acs(3500, 13);
        let bkt = acs_bucketizer(&acs_schema());
        let session = small_engine(13).train(&data, &bkt).unwrap();
        let mut streamed: Vec<Record> = Vec::new();
        let stream = session
            .release_stream(&GenerateRequest::new(8).with_seed(5), None, |record| {
                data.schema().validate_values(record.values()).unwrap();
                streamed.push(record);
                // Each record is charged before it reaches the callback.
                assert_eq!(session.ledger().releases, streamed.len());
                true
            })
            .unwrap();
        assert!(!streamed.is_empty() && streamed.len() <= 8);
        assert_eq!(session.ledger().releases, streamed.len());
        assert_eq!(stream.stats.released, streamed.len());
        assert!(stream.stats.candidates >= stream.stats.released);
        assert!(stream.synthetics.is_empty(), "a stream buffers nothing");
        // A single-worker generate with the same seed releases the same records.
        let report = session
            .generate(&GenerateRequest::new(8).with_seed(5).with_workers(1))
            .unwrap();
        assert_eq!(report.synthetics.records(), &streamed[..]);
    }

    #[test]
    fn trait_object_models_pass_through_the_mechanism() {
        let data = generate_acs(3000, 14);
        let bkt = acs_bucketizer(&acs_schema());
        let session = small_engine(14).train(&data, &bkt).unwrap();
        let marginal: &dyn GenerativeModel = &session.models().marginal;
        let report = session
            .generate_with(marginal, &GenerateRequest::new(10).with_seed(3))
            .unwrap();
        // Seed-independent model: every candidate passes (Section 8).
        assert_eq!(report.stats.released, 10);
        assert!((report.stats.pass_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scan_and_index_release_identical_records() {
        // The acceptance bar of the indexed seed stores: for a fixed request
        // seed, the scan oracle, the inverted index, the partition store, and
        // the prefix store every session release runs through must release
        // exactly the same records with the same counters (only
        // records_examined may differ).
        let data = generate_acs(4000, 21);
        let bkt = acs_bucketizer(&acs_schema());
        let session = small_engine(21).train(&data, &bkt).unwrap();
        assert!(
            session.shared.index.get().is_none(),
            "train builds no index"
        );
        assert!(session.shared.partition.get().is_none(), "nor a partition");
        let (inverted, partition) = (
            session.seed_store().unwrap() as &dyn SeedStore,
            session.partition_store().unwrap() as &dyn SeedStore,
        );
        for request_seed in 0..3u64 {
            let base = GenerateRequest::new(20).with_seed(request_seed);
            let prefix = session.generate(&base).unwrap();
            let scan = replay(&session, None, None, &base);
            let index = replay(&session, Some(inverted), None, &base);
            let partition = replay(&session, Some(partition), None, &base);
            assert_eq!(prefix.provenance.store, "prefix");
            for (records, stats) in [&scan, &index, &partition] {
                assert_eq!(prefix.synthetics.records(), &records[..]);
                assert_eq!(prefix.stats.candidates, stats.candidates);
                assert_eq!(prefix.stats.released, stats.released);
            }
            let (scan, index, partition) = (scan.1, index.1, partition.1);
            assert_eq!(prefix.stats.partition_tests, prefix.stats.candidates);
            assert_eq!(prefix.stats.records_examined, prefix.stats.candidates);
            assert_eq!(scan.index_tests, 0);
            assert_eq!(scan.partition_tests, 0);
            assert_eq!(index.scan_tests, 0);
            assert_eq!(index.index_tests, index.candidates);
            assert_eq!(partition.scan_tests, 0);
            assert_eq!(partition.index_tests, 0);
            assert_eq!(partition.partition_tests, partition.candidates);
            assert!(
                index.records_examined < scan.records_examined,
                "index {} vs scan {}",
                index.records_examined,
                scan.records_examined
            );
            assert!(
                partition.records_examined < index.records_examined,
                "partition {} vs index {}",
                partition.records_examined,
                index.records_examined
            );
        }
    }

    #[test]
    fn class_cache_never_perturbs_releases() {
        // The instrumentation-equivalence bar for the class-match cache: the
        // session's cached partition store and a cache-less build over the
        // same seeds must release byte-identical records with identical
        // candidate, count, and examined totals — only the hit/miss tallies
        // may differ.
        let data = generate_acs(4000, 44);
        let bkt = acs_bucketizer(&acs_schema());
        let session = small_engine(44).train(&data, &bkt).unwrap();
        let cached = session.partition_store().unwrap();
        let uncached = PartitionIndexStore::build(session.seeds(), cached.attributes()).unwrap();
        assert!(cached.cache().is_some());
        assert!(uncached.cache().is_none());
        for request_seed in 0..3u64 {
            let request = GenerateRequest::new(15).with_seed(request_seed);
            let (a_records, a) = replay(&session, Some(cached), None, &request);
            let (b_records, b) = replay(&session, Some(&uncached), None, &request);
            assert_eq!(a_records, b_records);
            assert_eq!(
                session.generate(&request).unwrap().synthetics.records(),
                &a_records[..]
            );
            assert_eq!(a.candidates, b.candidates);
            assert_eq!(a.released, b.released);
            assert_eq!(a.records_examined, b.records_examined);
            // The seed synthesizer's likelihood set equals its exact-match
            // set, so every class-granularity test goes through the cache.
            assert_eq!(a.class_cache_hits + a.class_cache_misses, a.partition_tests);
            assert_eq!(b.class_cache_hits, 0);
            assert_eq!(b.class_cache_misses, 0);
        }
        // Re-running a seed the store already served finds every candidate
        // projection warm: all hits, zero misses.
        let request = GenerateRequest::new(15).with_seed(0);
        let (_, again) = replay(&session, Some(cached), None, &request);
        assert_eq!(again.class_cache_misses, 0);
        assert_eq!(again.class_cache_hits, again.partition_tests);
        assert!(again.class_cache_hits > 0);
        let rows = cached.cache().unwrap().rows();
        assert!(rows > 0, "served requests must have populated rows");
    }

    #[test]
    fn partition_store_counts_classes_not_records() {
        let data = generate_acs(4000, 31);
        let bkt = acs_bucketizer(&acs_schema());
        let session = small_engine(31).train(&data, &bkt).unwrap();
        let store = session.partition_store().unwrap();
        assert!(store.class_count() <= session.seeds().len());
        // The session ω is Fixed(9): the store is keyed on the kept
        // attributes of the ω = 9 synthesizer.
        assert_eq!(store.attributes().len(), session.seeds().schema().len() - 9);
        // Fixed ω means every key attribute is exact-matched: the test is a
        // single class lookup, so each candidate examines at most one
        // representative.
        let request = GenerateRequest::new(10).with_seed(7);
        let (_, stats) = replay(&session, Some(store), None, &request);
        assert_eq!(stats.partition_tests, stats.candidates);
        assert!(
            stats.records_examined <= stats.candidates,
            "fixed-omega partition tests are single-class lookups: {} examined for {} candidates",
            stats.records_examined,
            stats.candidates
        );
    }

    #[test]
    fn sessions_test_against_the_prefix_store_and_match_the_scan_oracle() {
        // Every session tests its releases against the prefix store, keeps
        // the inverted and partition stores one accessor call away, and
        // reaches the scan only as the oracle.
        let data = generate_acs(3000, 22);
        let bkt = acs_bucketizer(&acs_schema());
        let session = SynthesisEngine::builder()
            .privacy_test(
                PrivacyTestConfig::randomized(20, 4.0, 1.0).with_limits(Some(40), Some(2000)),
            )
            .max_candidate_factor(30)
            .seed(22)
            .train(&data, &bkt)
            .unwrap();
        assert!(session.seed_store().is_some());
        assert!(session.partition_store().is_some());
        let request = GenerateRequest::new(5);
        let report = session.generate(&request).unwrap();
        assert_eq!(report.provenance.store, "prefix");
        assert_eq!(report.stats.scan_tests, 0);
        let (records, scan) = replay(&session, None, None, &request);
        assert_eq!(scan.index_tests, 0);
        assert_eq!(scan.scan_tests, scan.candidates);
        assert_eq!(report.synthetics.records(), &records[..]);

        // `Mechanism::release` runs the same engine: over the scan and over
        // the session's prefix store it releases exactly what a fixed-ω
        // session request with the same seed and limits releases.
        let synthesizer = SeedSynthesizer::new(Arc::clone(&session.models().cpts), 9).unwrap();
        let (seeds, test) = (session.seeds(), session.config().privacy_test);
        let mechanisms = [
            Mechanism::new(&synthesizer, seeds, test).unwrap(),
            Mechanism::with_store(&synthesizer, seeds, session.prefix_store(), test).unwrap(),
        ];
        let fixed = request.with_omega(OmegaSpec::Fixed(9));
        for request_seed in [3u64, 4, 5] {
            let request = fixed.with_seed(request_seed);
            let report = session.generate(&request).unwrap();
            let (target, _, max_candidates) = session.request_limits(&request).unwrap();
            for mechanism in &mechanisms {
                let (records, stats) = mechanism
                    .release(target, max_candidates, request_seed)
                    .unwrap();
                assert_eq!(report.synthetics.records(), &records[..]);
                assert_eq!(report.stats.candidates, stats.candidates);
                assert_eq!(report.stats.released, stats.released);
            }
        }
    }

    #[test]
    fn auto_policy_uses_the_index_only_for_large_seed_stores() {
        // The store policy is gone. A range lookup beats the scan at any
        // size, so sessions serve small (< 512 seeds) and large seed stores
        // alike from the prefix store — at a fixed ω and at the paper's
        // ω ∈R [5-11] — and release exactly what the scan oracle releases.
        let bkt = acs_bucketizer(&acs_schema());
        for (population, below_old_crossover) in [(900, true), (6000, false)] {
            let data = generate_acs(population, 23);
            let session = small_engine(23).train(&data, &bkt).unwrap();
            assert_eq!(session.seeds().len() < 512, below_old_crossover);
            for omega in [
                OmegaSpec::Fixed(9),
                OmegaSpec::UniformRange { lo: 5, hi: 11 },
            ] {
                let base = GenerateRequest::new(8).with_seed(3).with_omega(omega);
                let released = session.generate(&base).unwrap();
                let (records, scan) = replay(&session, None, None, &base);
                assert_eq!(released.stats.scan_tests, 0, "sessions must use an index");
                assert_eq!(
                    released.stats.index_tests, 0,
                    "sessions skip the inverted index"
                );
                assert_eq!(released.provenance.store, "prefix");
                assert_eq!(released.stats.partition_tests, released.stats.candidates);
                assert_eq!(released.stats.records_examined, released.stats.candidates);
                assert_eq!(released.synthetics.records(), &records[..]);
                assert_eq!(released.stats.candidates, scan.candidates);
                assert_eq!(scan.scan_tests, scan.candidates);
            }
        }
    }

    #[test]
    fn auto_index_min_seeds_is_configurable() {
        // With the `auto_index_min_seeds` knob and the store policy removed,
        // nothing configures the store: a session above the removed 512
        // crossover serves from the prefix store and releases what the scan
        // oracle releases.
        let bkt = acs_bucketizer(&acs_schema());
        // ~1960 seeds: above the removed 512 crossover.
        let data = generate_acs(4000, 24);
        let session = small_engine(24).train(&data, &bkt).unwrap();
        let request = GenerateRequest::new(5).with_seed(2);
        let (records, scanned) = replay(&session, None, None, &request);
        assert_eq!(
            scanned.scan_tests, scanned.candidates,
            "the oracle keeps every test on the scan"
        );
        let released = session.generate(&request).unwrap();
        assert_eq!(released.stats.scan_tests, 0, "a session always indexes");
        assert_eq!(released.provenance.store, "prefix");
        assert_eq!(released.synthetics.records(), &records[..]);
    }

    #[test]
    fn marginal_requests_take_one_range_per_test() {
        // The marginal model is seed-independent (likelihood set ∅): every
        // seed is plausible, so the prefix store answers each test with its
        // whole range instead of evaluating the model seed by seed.
        let data = generate_acs(4000, 25);
        let bkt = acs_bucketizer(&acs_schema());
        let session = small_engine(25).train(&data, &bkt).unwrap();
        let marginal = &session.models().marginal;
        for omega in [
            OmegaSpec::Fixed(9),
            OmegaSpec::UniformRange { lo: 5, hi: 11 },
        ] {
            let base = GenerateRequest::new(10).with_seed(4).with_omega(omega);
            let released = session.generate_with(marginal, &base).unwrap();
            let (records, scan) = replay(&session, None, Some(marginal), &base);
            assert_eq!(released.provenance.store, "prefix");
            assert_eq!(released.stats.records_examined, released.stats.candidates);
            assert_eq!(released.stats.partition_tests, released.stats.candidates);
            assert_eq!(released.synthetics.records(), &records[..]);
            assert_eq!(released.stats.candidates, scan.candidates);
            assert!(scan.records_examined > scan.candidates);
        }
    }

    #[test]
    fn multi_worker_releases_are_deterministic_and_exact() {
        // Rank r's candidate depends on (request seed, r) alone and the
        // selection keeps the smallest passing ranks, so every run, every
        // worker count and a stream release the same records in the same
        // order, with exact accounting.  The ω range draws each rank's model
        // from that rank's stream too.
        let data = generate_acs(4000, 41);
        let bkt = acs_bucketizer(&acs_schema());
        let session = small_engine(41).train(&data, &bkt).unwrap();
        for omega in [
            OmegaSpec::Fixed(9),
            OmegaSpec::UniformRange { lo: 5, hi: 11 },
        ] {
            for seed in [7u64, 8, 9] {
                let base = GenerateRequest::new(15).with_seed(seed).with_omega(omega);
                let single = session.generate(&base.with_workers(1)).unwrap();
                assert!(!single.synthetics.is_empty());
                let mut streamed: Vec<Record> = Vec::new();
                session
                    .release_stream(&base, None, |r| {
                        streamed.push(r);
                        true
                    })
                    .unwrap();
                assert_eq!(single.synthetics.records(), &streamed[..]);
                for workers in [2usize, 4, 8] {
                    let request = base.with_workers(workers);
                    let a = session.generate(&request).unwrap();
                    let b = session.generate(&request).unwrap();
                    assert_eq!(
                        a.synthetics.records(),
                        b.synthetics.records(),
                        "workers = {workers} must be run-to-run deterministic"
                    );
                    assert_eq!(
                        a.synthetics.records(),
                        single.synthetics.records(),
                        "workers = {workers} must release the one-worker records"
                    );
                    assert_eq!(a.stats.released, a.synthetics.records().len());
                    assert!(a.stats.released <= 15);
                    assert!(a.stats.candidates >= a.stats.released);
                }
            }
        }
    }

    #[test]
    fn proposal_seeds_do_not_collide() {
        // The old `seed·C + worker` rule mapped (s, 1) and (s + C⁻¹, 0) to
        // one stream; the nested mix keeps them apart.
        const C_INVERSE: u64 = 0xf1de_83e1_9937_733d;
        assert_eq!(C_INVERSE.wrapping_mul(0x9e37_79b9_7f4a_7c15), 1);
        for s in [0u64, 1, 7, 1 << 40, u64::MAX] {
            assert_ne!(
                proposal_seed(s, 1),
                proposal_seed(s.wrapping_add(C_INVERSE), 0)
            );
        }
        let mut seen = std::collections::HashSet::new();
        for request_seed in 0..64u64 {
            for rank in 0..1024usize {
                assert!(
                    seen.insert(proposal_seed(request_seed, rank)),
                    "duplicate seed at ({request_seed}, {rank})"
                );
            }
        }
    }

    #[test]
    fn single_worker_and_parallel_runs_agree_at_workers_one() {
        // A one-worker rank selection is plain proposal order: it must match
        // the sequential streaming path byte for byte.
        let data = generate_acs(3500, 42);
        let bkt = acs_bucketizer(&acs_schema());
        let session = small_engine(42).train(&data, &bkt).unwrap();
        let generated = session
            .generate(&GenerateRequest::new(10).with_seed(9).with_workers(1))
            .unwrap();
        let mut streamed: Vec<Record> = Vec::new();
        session
            .release_stream(&GenerateRequest::new(10).with_seed(9), None, |r| {
                streamed.push(r);
                true
            })
            .unwrap();
        assert_eq!(generated.synthetics.records(), &streamed[..]);
    }

    #[test]
    fn metrics_do_not_perturb_releases_and_counters_flow() {
        // Instrumentation never touches the request RNG streams: an
        // instrumented release, scoped or scoped and traced, is byte-identical
        // to the scan replay through `Mechanism::propose`, which records no
        // metric.
        let data = generate_acs(3500, 43);
        let bkt = acs_bucketizer(&acs_schema());
        let session = small_engine(43).train(&data, &bkt).unwrap();
        let request = GenerateRequest::new(12).with_seed(5).with_workers(4);

        // Only this request writes the `session=counters` cell, so its
        // counters are exact.
        let on = session
            .clone()
            .with_scope(Scope::new().label("session", "counters"))
            .generate(&request)
            .unwrap();
        let (replayed, _) = replay(&session, None, None, &request);
        assert_eq!(on.synthetics.records(), &replayed[..]);
        let snapshot = sgf_metrics::global().snapshot();
        let cell = &snapshot.scopes["session=counters"];
        assert_eq!(cell.counter("core.mechanism.requests"), 1);
        for (name, value) in on.stats.counters() {
            assert_eq!(
                cell.counter(&format!("core.mechanism.{name}")),
                value as u64,
                "{name}"
            );
        }
        assert!(
            cell.counter("core.mechanism.selection_locks")
                >= cell.counter("core.mechanism.released")
        );
        assert_eq!(cell.summaries["core.mechanism.workers"].sum, 4);
        // Untraced requests still carry provenance, with no trace spans.
        assert_eq!(on.provenance.trace_spans, 0);
        assert_eq!(on.provenance.seeds, session.seeds().len());
        assert_eq!(on.provenance.workers, 4);
        assert_eq!(on.provenance.k, 20);

        // A scope-labeled handle with the trace ring live must release the
        // exact same records: scoped cells and span commits happen strictly
        // outside the proposal loop's RNG streams.
        let scoped_session = session
            .clone()
            .with_scope(Scope::new().label("session", "equivalence"));
        sgf_metrics::trace().set_enabled(true);
        let traced = scoped_session.generate(&request).unwrap();
        sgf_metrics::trace().set_enabled(false);
        assert_eq!(on.synthetics.records(), traced.synthetics.records());
        // Released records and counts are the deterministic contract; raw
        // candidate counts at workers > 1 depend on how quickly workers see
        // the rank threshold, so they are not compared across runs.
        assert_eq!(on.stats.released, traced.stats.released);
        // Root + proposals + one span per captured probe.
        assert_eq!(
            traced.provenance.trace_spans,
            2 + traced.stats.candidates.min(MAX_TRACE_PROBES)
        );
        let events = sgf_metrics::trace().events_with_label("session", "equivalence");
        assert!(events.iter().any(|e| e.name == "core.generate"));
        assert!(events.iter().any(|e| e.name == "core.privacy_test"));
        // The scope cell saw exactly this request's counters.
        let cell = &sgf_metrics::global().snapshot().scopes["session=equivalence"];
        assert_eq!(
            cell.counter("core.mechanism.candidates"),
            traced.stats.candidates as u64
        );
        // And the provenance JSON is well-formed canonical JSON.
        let json = traced.provenance_json().render();
        let parsed = Json::parse(&json).expect("provenance JSON parses");
        assert_eq!(
            parsed.get("store").and_then(|s| s.as_str()),
            Some(traced.provenance.store)
        );
    }

    #[test]
    fn invalid_requests_are_rejected_without_charging() {
        let data = generate_acs(3000, 15);
        let bkt = acs_bucketizer(&acs_schema());
        let session = small_engine(15).train(&data, &bkt).unwrap();
        assert!(session.generate(&GenerateRequest::new(0)).is_err());
        assert!(session
            .generate(&GenerateRequest::new(5).with_workers(0))
            .is_err());
        assert!(session
            .generate(&GenerateRequest::new(5).with_omega(OmegaSpec::Fixed(99)))
            .is_err());
        assert!(session
            .generate(&GenerateRequest::new(5).with_max_candidate_factor(0))
            .is_err());
        assert!(session
            .generate(&GenerateRequest::new(5).with_workers(MAX_WORKERS + 1))
            .is_err());
        assert_eq!(session.ledger().requests, 0);
        assert_eq!(session.ledger().releases, 0);
    }

    /// A delta deleting `n_del` records spread through `data` and inserting
    /// the first `n_ins` records of a differently-seeded ACS draw.
    fn small_delta(data: &Dataset, n_del: usize, n_ins: usize, seed: u64) -> DatasetDelta {
        let mut delta = DatasetDelta::new(data.schema_arc());
        let stride = (data.len() / n_del.max(1)).max(1);
        for i in 0..n_del {
            delta.delete(data.records()[i * stride].clone()).unwrap();
        }
        for record in generate_acs(n_ins, seed).records() {
            delta.insert(record.clone()).unwrap();
        }
        delta
    }

    #[test]
    fn update_matches_a_fresh_train_bit_for_bit() {
        // The tentpole invariant: an incremental update is
        // indistinguishable from retraining on the post-delta dataset — same
        // split subsets, same models, same posting lists and equivalence
        // classes, and byte-identical releases.
        let data = generate_acs(4000, 31);
        let bkt = acs_bucketizer(&acs_schema());
        let session = small_engine(31).train(&data, &bkt).unwrap();
        let delta = small_delta(&data, 25, 40, 77);
        let updated = session.update(&delta).unwrap();
        assert_eq!(updated.epoch(), 1);
        // The update carries only the prefix store forward: the inverted
        // and partition stores stay unbuilt on both sides.
        for epoch in [&session, &updated] {
            assert!(epoch.shared.index.get().is_none());
            assert!(epoch.shared.partition.get().is_none());
        }

        let final_data = delta.apply(&data).unwrap();
        let fresh = small_engine(31).train(&final_data, &bkt).unwrap();
        assert_eq!(fresh.epoch(), 0);

        // The hash split commutes with the delta: every subset matches.
        assert_eq!(
            updated.shared.split.structure.records(),
            fresh.shared.split.structure.records()
        );
        assert_eq!(
            updated.shared.split.parameters.records(),
            fresh.shared.split.parameters.records()
        );
        assert_eq!(
            updated.shared.split.seeds.records(),
            fresh.shared.split.seeds.records()
        );
        assert_eq!(
            updated.shared.split.test.records(),
            fresh.shared.split.test.records()
        );
        // Models and their sufficient statistics are bit-identical.
        assert_eq!(
            updated.models().structure.graph,
            fresh.models().structure.graph
        );
        assert_eq!(
            updated.models().structure.correlations,
            fresh.models().structure.correlations
        );
        assert_eq!(*updated.models().cpts, *fresh.models().cpts);
        assert_eq!(updated.models().marginal, fresh.models().marginal);
        assert_eq!(
            updated.models().structure_counts,
            fresh.models().structure_counts
        );
        assert_eq!(
            updated.models().marginal_counts,
            fresh.models().marginal_counts
        );
        // The spliced prefix store and the per-epoch inverted and partition
        // builds equal from-scratch builds.
        assert_eq!(updated.prefix_store(), fresh.prefix_store());
        assert_eq!(updated.seed_store(), fresh.seed_store());
        assert_eq!(updated.partition_store(), fresh.partition_store());
        // And identically-seeded requests release byte-identical records.
        let request = GenerateRequest::new(10).with_seed(7);
        let a = updated.generate(&request).unwrap();
        let b = fresh.generate(&request).unwrap();
        assert_eq!(a.synthetics.records(), b.synthetics.records());
        assert_eq!(a.provenance.epoch, 1);
        assert_eq!(b.provenance.epoch, 0);
    }

    #[test]
    fn update_epochs_share_the_ledger_and_stamp_provenance() {
        let data = generate_acs(3500, 33);
        let bkt = acs_bucketizer(&acs_schema());
        let session = small_engine(33).train(&data, &bkt).unwrap();
        let first = session
            .generate(&GenerateRequest::new(6).with_seed(1))
            .unwrap();
        let updated = session.update(&small_delta(&data, 5, 5, 99)).unwrap();
        assert_eq!(updated.epoch(), 1);
        // The old epoch keeps its handle; the ledger is shared across epochs,
        // so releases from the new epoch compose onto the same budget.
        let second = updated
            .generate(&GenerateRequest::new(6).with_seed(2))
            .unwrap();
        assert_eq!(second.ledger.requests, 2);
        assert_eq!(
            session.ledger().releases,
            first.stats.released + second.stats.released
        );
        assert_eq!(second.provenance.epoch, 1);
        let json = second.provenance_json().render();
        let parsed = Json::parse(&json).expect("provenance JSON parses");
        assert_eq!(parsed.get("epoch").and_then(|e| e.as_u64()), Some(1));
        // Updates chain: a further (even empty) delta bumps the epoch again.
        let empty = DatasetDelta::new(data.schema_arc());
        let third = updated.update(&empty).unwrap();
        assert_eq!(third.epoch(), 2);
        assert_eq!(
            third.shared.split.seeds.records(),
            updated.shared.split.seeds.records()
        );
    }

    #[test]
    fn update_rejects_deltas_that_would_break_the_session() {
        let data = generate_acs(3000, 39);
        let bkt = acs_bucketizer(&acs_schema());
        let session = small_engine(39).train(&data, &bkt).unwrap();
        // Deleting more occurrences of a record than the dataset holds fails
        // cleanly (the canonical first-occurrence matching finds no target).
        let mut missing = DatasetDelta::new(data.schema_arc());
        let ghost = data.records()[0].clone();
        let occurrences = data.records().iter().filter(|r| **r == ghost).count();
        for _ in 0..=occurrences {
            missing.delete(ghost.clone()).unwrap();
        }
        assert!(session.update(&missing).is_err());
        // A delta draining the seed subset below k fails with DatasetTooSmall.
        let mut drain = DatasetDelta::new(data.schema_arc());
        for record in session.seeds().records() {
            drain.delete(record.clone()).unwrap();
        }
        match session.update(&drain) {
            Err(CoreError::DatasetTooSmall { required, .. }) => assert_eq!(required, 20),
            other => panic!("expected DatasetTooSmall, got {other:?}"),
        }
        // Failed updates leave the session untouched.
        assert_eq!(session.epoch(), 0);
        assert!(session
            .generate(&GenerateRequest::new(4).with_seed(9))
            .is_ok());
    }
}
