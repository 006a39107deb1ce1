//! Mechanism 1 (`F`): sample a seed, generate a candidate synthetic record,
//! subject it to the privacy test, and release it only on a pass.

use crate::error::{CoreError, Result};
use crate::privacy_test::{run_with_store, PrivacyTestConfig, TestOutcome};
use crate::session::run_mechanism;
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};
use sgf_data::{Dataset, Record};
use sgf_index::{LinearScanStore, SeedStore};
use sgf_metrics::json::write_object;
use sgf_metrics::{Scope, ScopedCounter, ScopedSummary, ScopedTimer};
use sgf_model::GenerativeModel;
use std::sync::OnceLock;

/// One released (or rejected) candidate together with the test diagnostics.
#[derive(Debug, Clone)]
pub struct CandidateReport {
    /// The candidate synthetic record.
    pub record: Record,
    /// Index of the seed in the seed dataset.
    pub seed_index: usize,
    /// Outcome of the privacy test.
    pub outcome: TestOutcome,
}

impl CandidateReport {
    /// Whether the candidate may be released.
    pub fn released(&self) -> bool {
        self.outcome.passed
    }
}

/// Aggregate statistics over a batch of mechanism invocations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MechanismStats {
    /// Number of candidates generated.
    pub candidates: usize,
    /// Number of candidates that passed the privacy test.
    pub released: usize,
    /// Total number of seed records examined by the privacy tests
    /// (model-probability evaluations — the dominant cost of the test).
    pub records_examined: usize,
    /// Privacy tests served by an indexed seed store (posting-list pruning).
    pub index_tests: usize,
    /// Privacy tests served by the full linear scan.
    pub scan_tests: usize,
    /// Privacy tests served at likelihood-equivalence-class granularity (one
    /// model evaluation per class, members counted with multiplicity); for
    /// these, `records_examined` counts classes examined.
    pub partition_tests: usize,
    /// Class-granularity tests whose per-class match row was served from the
    /// session's class-match cache (no model evaluations at all; for these,
    /// `records_examined` still counts the classes iterated).
    pub class_cache_hits: usize,
    /// Class-granularity tests that computed (and stored) their match row on
    /// a cache miss.  Tests without a cache in play count in neither bucket.
    pub class_cache_misses: usize,
}

impl MechanismStats {
    /// Fraction of candidates that passed the privacy test.
    pub fn pass_rate(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.released as f64 / self.candidates as f64
        }
    }

    /// Record the per-test counters of one proposed candidate (everything
    /// except `released`, which callers manage — under parallel generation a
    /// passing candidate only counts as released once it wins a slot).
    pub fn observe(&mut self, outcome: &TestOutcome) {
        self.candidates += 1;
        self.records_examined += outcome.records_examined;
        if outcome.via_classes {
            self.partition_tests += 1;
        } else if outcome.via_index {
            self.index_tests += 1;
        } else {
            self.scan_tests += 1;
        }
        match outcome.cache_hit {
            Some(true) => self.class_cache_hits += 1,
            Some(false) => self.class_cache_misses += 1,
            None => {}
        }
    }

    /// Merge the statistics of another batch into this one.
    pub fn merge(&mut self, other: &MechanismStats) {
        self.candidates += other.candidates;
        self.released += other.released;
        self.records_examined += other.records_examined;
        self.index_tests += other.index_tests;
        self.scan_tests += other.scan_tests;
        self.partition_tests += other.partition_tests;
        self.class_cache_hits += other.class_cache_hits;
        self.class_cache_misses += other.class_cache_misses;
    }

    /// Every counter by name, in field order.  The names are the suffixes of
    /// the `core.mechanism.*` metrics; the metric handles, the
    /// `core.proposals` trace span, the JSON report and the benchmark
    /// `total` points all iterate this one list.
    pub fn counters(&self) -> [(&'static str, usize); 8] {
        [
            ("candidates", self.candidates),
            ("released", self.released),
            ("records_examined", self.records_examined),
            ("index_tests", self.index_tests),
            ("scan_tests", self.scan_tests),
            ("partition_tests", self.partition_tests),
            ("class_cache_hits", self.class_cache_hits),
            ("class_cache_misses", self.class_cache_misses),
        ]
    }

    /// Write the counters plus `pass_rate` into `out` as one canonical JSON
    /// object (keys sorted).
    pub fn write_json(&self, out: &mut String) {
        let mut counters = self.counters();
        counters.sort_unstable_by_key(|&(name, _)| name);
        let split = counters.partition_point(|&(name, _)| name < "pass_rate");
        let (before, after) = counters.split_at(split);
        write_object(out, |object| {
            for &(name, value) in before {
                object.int(name, value);
            }
            object.float("pass_rate", self.pass_rate());
            for &(name, value) in after {
                object.int(name, value);
            }
        });
    }

    /// Render the counters as canonical JSON, so services and the bench
    /// binaries can emit machine-readable reports.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        self.write_json(&mut out);
        out
    }

    /// Flush one finished request into `metrics`: a `requests` tick, every
    /// [`counters`] entry, the request's selection contention, and a
    /// `workers` observation.  Flush each request exactly once.
    ///
    /// [`counters`]: MechanismStats::counters
    pub(crate) fn flush(
        &self,
        metrics: &ReleaseMetrics,
        selection_locks: u64,
        outranked_passes: u64,
        workers: usize,
    ) {
        metrics.requests.incr();
        for (handle, (_, value)) in metrics.counters.iter().zip(self.counters()) {
            handle.add(value as u64);
        }
        metrics.selection_locks.add(selection_locks);
        metrics.outranked_passes.add(outranked_passes);
        metrics.workers.observe(workers as u64);
    }
}

/// The metric handles a release records into, resolved once per metric
/// scope rather than by name on every request: the `core.mechanism.*`
/// counters and `workers` summary, and the `core.synthesis` timer.  Handles
/// resolved through a scope update its cell and the global rollup.
#[derive(Debug)]
pub(crate) struct ReleaseMetrics {
    /// `core.mechanism.<name>` for each [`MechanismStats::counters`] entry,
    /// in that order.
    counters: [ScopedCounter; 8],
    requests: ScopedCounter,
    selection_locks: ScopedCounter,
    outranked_passes: ScopedCounter,
    workers: ScopedSummary,
    /// `core.synthesis`: a session request's propose-and-test wall clock.
    pub(crate) synthesis: ScopedTimer,
}

impl ReleaseMetrics {
    /// Resolve every handle through `scope` (the global rollup alone when
    /// `None`).
    pub(crate) fn resolve(scope: Option<&Scope>) -> Self {
        let view = sgf_metrics::view(scope);
        let counter = |name: &str| view.counter(&format!("core.mechanism.{name}"));
        ReleaseMetrics {
            counters: MechanismStats::default()
                .counters()
                .map(|(name, _)| counter(name)),
            requests: counter("requests"),
            selection_locks: counter("selection_locks"),
            outranked_passes: counter("outranked_passes"),
            workers: view.summary("core.mechanism.workers"),
            synthesis: view.timer("core.synthesis"),
        }
    }

    /// The unscoped handles, shared by every unscoped release and resolved
    /// by the first.
    pub(crate) fn unscoped() -> &'static ReleaseMetrics {
        static UNSCOPED: OnceLock<ReleaseMetrics> = OnceLock::new();
        UNSCOPED.get_or_init(|| ReleaseMetrics::resolve(None))
    }
}

/// The plausible-deniability release mechanism (Mechanism 1).
#[derive(Debug, Clone)]
pub struct Mechanism<'a, M: GenerativeModel + ?Sized> {
    model: &'a M,
    seeds: &'a Dataset,
    store: Option<&'a dyn SeedStore>,
    test: PrivacyTestConfig,
}

impl<'a, M: GenerativeModel + ?Sized> Mechanism<'a, M> {
    /// Create the mechanism over a generative model and a seed dataset `D_S`,
    /// testing candidates with the full linear scan.
    pub fn new(model: &'a M, seeds: &'a Dataset, test: PrivacyTestConfig) -> Result<Self> {
        Self::build(model, seeds, None, test)
    }

    /// Create the mechanism with an indexed [`SeedStore`] over the same seed
    /// dataset; the privacy test only examines the store's survivors.
    pub fn with_store(
        model: &'a M,
        seeds: &'a Dataset,
        store: &'a dyn SeedStore,
        test: PrivacyTestConfig,
    ) -> Result<Self> {
        if store.len() != seeds.len() {
            return Err(CoreError::InvalidParameter(format!(
                "seed store indexes {} records but the seed dataset has {}",
                store.len(),
                seeds.len()
            )));
        }
        Self::build(model, seeds, Some(store), test)
    }

    fn build(
        model: &'a M,
        seeds: &'a Dataset,
        store: Option<&'a dyn SeedStore>,
        test: PrivacyTestConfig,
    ) -> Result<Self> {
        test.validate()?;
        if seeds.len() < test.k {
            return Err(CoreError::DatasetTooSmall {
                available: seeds.len(),
                required: test.k,
            });
        }
        if seeds.schema() != model.schema() {
            return Err(CoreError::InvalidParameter(
                "seed dataset schema does not match the generative model schema".into(),
            ));
        }
        Ok(Mechanism {
            model,
            seeds,
            store,
            test,
        })
    }

    /// [`SeedStore::kind`] of the store the privacy tests query (`"scan"`
    /// when the mechanism scans).
    pub fn store_kind(&self) -> &'static str {
        self.store.map_or("scan", |store| store.kind())
    }

    /// Run one invocation of Mechanism 1: sample a seed uniformly at random,
    /// generate a candidate, and test it against the mechanism's store (the
    /// linear scan when it holds none).  The returned report carries the
    /// candidate whether or not it passed; callers must release only records
    /// with `outcome.passed == true`.
    ///
    /// Store choice never changes which candidates pass: decisions, plausible
    /// counts, and RNG consumption are store-independent (see
    /// [`crate::privacy_test::run_with_store`]); only the number of records
    /// the test must examine shrinks.
    pub fn propose(&self, rng: &mut dyn RngCore) -> Result<CandidateReport> {
        let scan = LinearScanStore::with_len(self.seeds.len());
        let store = self.store.unwrap_or(&scan);
        let seed_index = rng.gen_range(0..self.seeds.len());
        let seed = self.seeds.record(seed_index);
        let candidate = self.model.generate(seed, rng);
        let outcome = run_with_store(
            self.model, self.seeds, store, seed, &candidate, &self.test, rng,
        )?;
        Ok(CandidateReport {
            record: candidate,
            seed_index,
            outcome,
        })
    }

    /// Release up to `target` records, proposing at most `max_candidates`
    /// candidates: the session engine at one worker, so rank r's candidate
    /// comes from [`proposal_seed`]`(request_seed, r)` and the release is
    /// exactly what a session request with this seed, mechanism and limits
    /// releases.  The counters are flushed as `core.mechanism.*` like every
    /// session release.
    ///
    /// [`proposal_seed`]: crate::proposal_seed
    pub fn release(
        &self,
        target: usize,
        max_candidates: usize,
        request_seed: u64,
    ) -> Result<(Vec<Record>, MechanismStats)> {
        run_mechanism(
            std::slice::from_ref(self),
            target,
            max_candidates,
            1,
            request_seed,
            ReleaseMetrics::unscoped(),
            None,
            None,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sgf_data::{Attribute, Schema};
    use std::sync::Arc;

    /// Model that flips the last attribute uniformly and keeps the rest.
    struct FlipLastModel {
        schema: Schema,
    }

    impl GenerativeModel for FlipLastModel {
        fn schema(&self) -> &Schema {
            &self.schema
        }
        fn generate(&self, seed: &Record, rng: &mut dyn RngCore) -> Record {
            let mut y = seed.clone();
            let last = self.schema.len() - 1;
            let card = self.schema.cardinality(last) as u32;
            y.set(last, (rng.next_u32() % card) as u16);
            y
        }
        fn probability(&self, seed: &Record, y: &Record) -> f64 {
            let last = self.schema.len() - 1;
            for attr in 0..last {
                if seed.get(attr) != y.get(attr) {
                    return 0.0;
                }
            }
            1.0 / self.schema.cardinality(last) as f64
        }
    }

    fn setup(groups: usize, per_group: usize) -> (FlipLastModel, Dataset) {
        let schema = Schema::new(vec![
            Attribute::categorical_anon("G", groups.max(2)),
            Attribute::categorical_anon("V", 4),
        ])
        .unwrap();
        let mut records = Vec::new();
        for g in 0..groups {
            for v in 0..per_group {
                records.push(Record::new(vec![g as u16, (v % 4) as u16]));
            }
        }
        let dataset = Dataset::from_records_unchecked(Arc::new(schema.clone()), records);
        (FlipLastModel { schema }, dataset)
    }

    #[test]
    fn released_records_always_pass_and_have_plausible_seeds() {
        let (model, seeds) = setup(4, 30);
        let mechanism =
            Mechanism::new(&model, &seeds, PrivacyTestConfig::deterministic(20, 4.0)).unwrap();
        let (released, stats) = mechanism.release(200, 200, 1).unwrap();
        assert_eq!(stats.candidates, 200);
        assert_eq!(stats.released, released.len());
        // Every group has 30 records in the same partition, so everything passes.
        assert_eq!(stats.released, 200);
        assert!((stats.pass_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn too_strict_k_rejects_everything() {
        let (model, seeds) = setup(4, 30);
        let mechanism =
            Mechanism::new(&model, &seeds, PrivacyTestConfig::deterministic(31, 4.0)).unwrap();
        let (released, stats) = mechanism.release(100, 100, 2).unwrap();
        assert!(released.is_empty());
        assert_eq!(stats.pass_rate(), 0.0);
    }

    #[test]
    fn release_until_stops_at_target() {
        let (model, seeds) = setup(4, 30);
        let mechanism =
            Mechanism::new(&model, &seeds, PrivacyTestConfig::deterministic(10, 4.0)).unwrap();
        let (released, stats) = mechanism.release(25, 10_000, 3).unwrap();
        assert_eq!(released.len(), 25);
        assert!(stats.candidates >= 25);
        // And respects the candidate cap when the target is unreachable.
        let strict =
            Mechanism::new(&model, &seeds, PrivacyTestConfig::deterministic(31, 4.0)).unwrap();
        let (released, stats) = strict.release(5, 50, 3).unwrap();
        assert!(released.is_empty());
        assert_eq!(stats.candidates, 50);
    }

    #[test]
    fn construction_validates_inputs() {
        let (model, seeds) = setup(2, 5);
        assert!(matches!(
            Mechanism::new(&model, &seeds, PrivacyTestConfig::deterministic(100, 4.0)),
            Err(CoreError::DatasetTooSmall { .. })
        ));
        assert!(Mechanism::new(&model, &seeds, PrivacyTestConfig::deterministic(5, 0.5)).is_err());

        // Schema mismatch.
        let other_schema = Schema::new(vec![Attribute::categorical_anon("X", 2)]).unwrap();
        let other_model = FlipLastModel {
            schema: other_schema,
        };
        assert!(matches!(
            Mechanism::new(
                &other_model,
                &seeds,
                PrivacyTestConfig::deterministic(5, 4.0)
            ),
            Err(CoreError::InvalidParameter(_))
        ));
    }

    #[test]
    fn stats_merge_adds_counters() {
        let mut a = MechanismStats {
            candidates: 10,
            released: 4,
            records_examined: 100,
            index_tests: 6,
            scan_tests: 4,
            partition_tests: 0,
            class_cache_hits: 0,
            class_cache_misses: 0,
        };
        let b = MechanismStats {
            candidates: 5,
            released: 5,
            records_examined: 50,
            index_tests: 0,
            scan_tests: 2,
            partition_tests: 3,
            class_cache_hits: 2,
            class_cache_misses: 1,
        };
        a.merge(&b);
        assert_eq!(a.candidates, 15);
        assert_eq!(a.released, 9);
        assert_eq!(a.records_examined, 150);
        assert_eq!(a.index_tests, 6);
        assert_eq!(a.scan_tests, 6);
        assert_eq!(a.partition_tests, 3);
        assert_eq!(a.class_cache_hits, 2);
        assert_eq!(a.class_cache_misses, 1);
        assert!((a.pass_rate() - 0.6).abs() < 1e-12);
        assert_eq!(MechanismStats::default().pass_rate(), 0.0);
    }

    #[test]
    fn kept_attributes_of_released_records_come_from_real_seeds() {
        let (model, seeds) = setup(4, 30);
        let mechanism =
            Mechanism::new(&model, &seeds, PrivacyTestConfig::deterministic(10, 4.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let report = mechanism.propose(&mut rng).unwrap();
        let seed = seeds.record(report.seed_index);
        assert_eq!(report.record.get(0), seed.get(0));
    }
}
