//! The partition-aware seed store: likelihood-equivalence classes.
//!
//! The inverted index prunes the plausible-deniability test to records that
//! *agree* with the candidate on kept attributes, but it still pays one model
//! evaluation per surviving record.  This store goes one step further using a
//! stronger model guarantee (`GenerativeModel::likelihood_attributes` in
//! `sgf-model`): when the generation probability `p_d(y)` depends on the seed
//! `d` only through its projection onto an attribute set `A`, two seeds with
//! identical projections have identical `p_d(y)` for **every** candidate `y`.
//! Grouping the seed dataset by that projection at build time therefore
//! yields *likelihood-equivalence classes*: the exact γ-partition check runs
//! once per class on a representative, and the class counts toward the
//! plausible-seed tally with its full multiplicity.  Per-candidate test cost
//! scales with the number of **distinct classes**, not with `|D_S|`.
//!
//! Soundness of a class query requires the model's likelihood set `L` to be
//! covered by the build-time key set `A` (`L ⊆ A`): seeds agreeing on `A`
//! then agree on `L`, hence share their generation probability.  When the
//! model offers no such guarantee the store degrades to a per-record
//! [`SeedStore`] query that prunes classes on the exact-match attributes —
//! still a sound superset, just without the multiplicity shortcut.

use crate::store::{CandidateIter, SeedStore};
use sgf_data::{DataError, Dataset, Record};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};

/// Cache key: the model's (normalized) likelihood attribute set and the
/// candidate's projection onto it.
type ClassMatchKey = (Vec<usize>, Vec<u16>);

/// Default row cap of a [`ClassMatchCache`]: enough for every distinct
/// likelihood projection of typical sessions, small enough that a
/// high-cardinality candidate stream cannot grow the cache without bound.
pub const DEFAULT_CLASS_CACHE_CAP: usize = 4096;

/// A shared, per-session cache of **seed-independent** class-match rows.
///
/// For a model whose likelihood set `L` is contained in its exact-match set
/// `EM` (both declared), the per-class γ-partition comparison of the privacy
/// test's class fast path is a pure function of the candidate — independent
/// of the sampled seed, of γ, and of all request randomness.  Inside the
/// class loop the seed's own probability is known positive, so the seed
/// agrees with the candidate on `EM ⊇ L`; a class representative whose
/// `L`-projection equals the candidate's therefore shares the seed's exact
/// generation probability (same partition, any γ), while one that differs
/// disagrees with the candidate on an exact-match attribute (probability
/// zero, no partition).  The row of per-class booleans is thus keyed by
/// `(L, candidate's L-projection)` alone and can be computed once and reused
/// by every request of the session.
///
/// Only that deterministic row is ever cached.  Stochastic test outcomes,
/// thresholds, plausible counts, and RNG draws never enter the cache, so the
/// per-request decision/count/RNG streams are bit-identical to the uncached
/// path.  Rows are populated under the map lock, so each distinct key is
/// computed exactly once while resident regardless of thread scheduling.
///
/// The cache is **bounded**: at most `cap` rows are resident.  Admitting a
/// row beyond the cap evicts the oldest-*inserted* resident row (FIFO on
/// insertion order, not recency), so the resident set after any key sequence
/// is a deterministic function of that sequence — an LRU would make residency
/// depend on hit timing across threads.  Evicted keys are recomputed on their
/// next lookup; correctness never depends on residency, only miss counts do.
#[derive(Debug)]
pub struct ClassMatchCache {
    inner: Mutex<CacheInner>,
    cap: usize,
}

#[derive(Debug, Default)]
struct CacheInner {
    rows: BTreeMap<ClassMatchKey, Arc<Vec<bool>>>,
    /// Resident keys, oldest insertion first — the FIFO eviction order.
    order: VecDeque<ClassMatchKey>,
    evictions: u64,
}

impl Default for ClassMatchCache {
    fn default() -> Self {
        ClassMatchCache::new()
    }
}

impl ClassMatchCache {
    /// An empty cache with the [default row cap](DEFAULT_CLASS_CACHE_CAP).
    pub fn new() -> Self {
        ClassMatchCache::with_capacity(DEFAULT_CLASS_CACHE_CAP)
    }

    /// An empty cache holding at most `cap` rows (clamped to at least 1).
    pub fn with_capacity(cap: usize) -> Self {
        ClassMatchCache {
            inner: Mutex::new(CacheInner::default()),
            cap: cap.max(1),
        }
    }

    /// Number of distinct `(likelihood set, projection)` rows currently held.
    pub fn rows(&self) -> usize {
        self.locked().rows.len()
    }

    /// The row cap this cache was created with.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Total rows evicted to stay under the cap since the cache was created.
    pub fn evictions(&self) -> u64 {
        self.locked().evictions
    }

    fn locked(&self) -> MutexGuard<'_, CacheInner> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Fetch the row for `key`, computing it with `compute` (under the lock)
    /// on a miss and evicting the oldest-inserted rows past the cap.
    fn fetch(
        &self,
        key: ClassMatchKey,
        compute: impl FnOnce() -> Arc<Vec<bool>>,
    ) -> ClassMatchLookup {
        let mut inner = self.locked();
        if let Some(row) = inner.rows.get(&key) {
            return ClassMatchLookup {
                row: Arc::clone(row),
                hit: true,
            };
        }
        let row = compute();
        inner.rows.insert(key.clone(), Arc::clone(&row));
        inner.order.push_back(key);
        while inner.rows.len() > self.cap {
            let oldest = inner.order.pop_front().expect("order tracks rows");
            inner.rows.remove(&oldest);
            inner.evictions += 1;
            sgf_metrics::counter("index.partition.class_cache_evictions").incr();
        }
        ClassMatchLookup { row, hit: false }
    }
}

/// Result of a class-match cache lookup: a shared row of per-class booleans
/// (`row[class.index]` — is the class representative in the seed's
/// γ-partition?) plus whether the row was served from the cache (`hit`) or
/// computed by this call (`!hit`).
#[derive(Debug, Clone)]
pub struct ClassMatchLookup {
    /// One boolean per store class, indexed by [`LikelihoodClass::index`].
    pub row: Arc<Vec<bool>>,
    /// `true` when the row was already cached; `false` when this lookup
    /// computed (and stored) it.
    pub hit: bool,
}

/// One likelihood-equivalence class: the seed records whose projections onto
/// the store's key attributes are identical.
#[derive(Debug, Clone, PartialEq, Eq)]
struct EquivalenceClass {
    /// The shared projection, in key-attribute (ascending) order.
    projection: Vec<u16>,
    /// Ascending member indices; `members[0]` is the representative.
    members: Vec<u32>,
}

/// A seed store grouping records into likelihood-equivalence classes (see the
/// module docs).
#[derive(Debug, Clone)]
pub struct PartitionIndexStore {
    len: usize,
    /// The key attribute set `A`, ascending and deduplicated.
    attributes: Vec<usize>,
    /// One entry per distinct projection, in first-seen (ascending record
    /// index) order.
    classes: Vec<EquivalenceClass>,
    /// Projection (values in `attributes` order) → index into `classes`.
    /// A BTreeMap (R2, ordered-iteration discipline): the map is only ever
    /// probed by key today, but this store sits on the decision path of the
    /// privacy test, and a BTreeMap keeps every future traversal of it
    /// deterministic by construction.
    by_projection: BTreeMap<Vec<u16>, u32>,
    /// The shared class-match cache, if one was attached with
    /// [`with_class_cache`](PartitionIndexStore::with_class_cache).  Clones
    /// share the same cache (it travels by `Arc`), so every handle of a
    /// session warms — and benefits from — one pool of rows.
    cache: Option<Arc<ClassMatchCache>>,
}

impl PartitionIndexStore {
    /// Group `seeds` into equivalence classes keyed on their projections onto
    /// `attributes` (typically the session's largest likelihood-relevant
    /// attribute set — the kept attributes at the smallest admissible ω).
    ///
    /// The attribute list may arrive in any order and with duplicates; it is
    /// normalized internally.  Every attribute must exist in the seed schema.
    pub fn build(seeds: &Dataset, attributes: &[usize]) -> Result<Self, DataError> {
        let start = std::time::Instant::now();
        let m = seeds.schema().len();
        let mut key: Vec<usize> = attributes.to_vec();
        key.sort_unstable();
        key.dedup();
        if let Some(&bad) = key.iter().find(|&&a| a >= m) {
            return Err(DataError::InvalidParameter(format!(
                "likelihood attribute {bad} is out of range for a schema with {m} attributes"
            )));
        }
        if seeds.len() > u32::MAX as usize {
            return Err(DataError::InvalidParameter(
                "partition index supports at most u32::MAX seed records".into(),
            ));
        }
        let mut classes: Vec<EquivalenceClass> = Vec::new();
        let mut by_projection: BTreeMap<Vec<u16>, u32> = BTreeMap::new();
        for (idx, record) in seeds.iter().enumerate() {
            let projection: Vec<u16> = key.iter().map(|&a| record.get(a)).collect();
            match by_projection.get(&projection) {
                Some(&class) => classes[class as usize].members.push(idx as u32),
                None => {
                    by_projection.insert(projection.clone(), classes.len() as u32);
                    classes.push(EquivalenceClass {
                        projection,
                        members: vec![idx as u32],
                    });
                }
            }
        }
        let store = PartitionIndexStore {
            len: seeds.len(),
            attributes: key,
            classes,
            by_projection,
            cache: None,
        };
        sgf_metrics::counter("index.partition.builds").incr();
        sgf_metrics::timer("index.partition.build").observe(start.elapsed());
        sgf_metrics::summary("index.partition.classes").observe(store.class_count() as u64);
        sgf_metrics::summary("index.partition.largest_class").observe(store.largest_class() as u64);
        sgf_metrics::trace().record(
            "index.partition.build",
            &[("store", "partition")],
            &[
                ("records", store.len as u64),
                ("classes", store.class_count() as u64),
                ("largest_class", store.largest_class() as u64),
            ],
            start.elapsed(),
        );
        Ok(store)
    }

    /// Attach a fresh [`ClassMatchCache`] to this store (builder style).
    /// Clones of the store share the cache via `Arc`, so one per-session
    /// store warms a single pool of rows across every request it serves.
    pub fn with_class_cache(mut self) -> Self {
        self.cache = Some(Arc::new(ClassMatchCache::new()));
        self
    }

    /// Like [`with_class_cache`](PartitionIndexStore::with_class_cache) but
    /// with an explicit row cap instead of [`DEFAULT_CLASS_CACHE_CAP`].
    pub fn with_class_cache_capacity(mut self, cap: usize) -> Self {
        self.cache = Some(Arc::new(ClassMatchCache::with_capacity(cap)));
        self
    }

    /// Apply a seed-data delta: `deletes` are strictly-ascending indices into
    /// the *current* seed dataset, `inserts` are records appended after the
    /// survivors (the canonical final-dataset order of
    /// `sgf_data::DatasetDelta::apply`).  Returns a new store equal — classes,
    /// member lists, projection map — to a from-scratch
    /// [`build`](PartitionIndexStore::build) on that final dataset, in
    /// O(|classes| + |Δ|) instead of O(n).
    ///
    /// If a [`ClassMatchCache`] is attached, the new store carries a cache
    /// with every resident row re-derived for the new class list: a row's
    /// boolean for a class is exactly "the class projection agrees with the
    /// key projection on the likelihood attributes" (see the cache docs), a
    /// pure function of the class structure, so warm rows stay warm and stay
    /// correct without touching the model.
    pub fn apply_delta(&self, deletes: &[usize], inserts: &[Record]) -> Result<Self, DataError> {
        let start = std::time::Instant::now();
        crate::store::validate_delete_indices(deletes, self.len)?;
        let survivors = self.len - deletes.len();
        if survivors + inserts.len() > u32::MAX as usize {
            return Err(DataError::InvalidParameter(
                "partition index supports at most u32::MAX seed records".into(),
            ));
        }
        if let Some(&max_attr) = self.attributes.last() {
            if let Some(short) = inserts.iter().find(|r| r.len() <= max_attr) {
                return Err(DataError::InvalidParameter(format!(
                    "inserted record has {} attributes but the key set needs {}",
                    short.len(),
                    max_attr + 1
                )));
            }
        }
        // Remap surviving members (old index minus the number of deleted
        // indices below it) and drop deleted ones; empty classes disappear.
        let mut classes: Vec<EquivalenceClass> = Vec::with_capacity(self.classes.len());
        for class in &self.classes {
            let members: Vec<u32> = class
                .members
                .iter()
                .filter(|&&idx| deletes.binary_search(&(idx as usize)).is_err())
                .map(|&idx| {
                    let below = deletes.partition_point(|&d| d < idx as usize);
                    idx - below as u32
                })
                .collect();
            if !members.is_empty() {
                classes.push(EquivalenceClass {
                    projection: class.projection.clone(),
                    members,
                });
            }
        }
        let mut by_projection: BTreeMap<Vec<u16>, u32> = classes
            .iter()
            .enumerate()
            .map(|(i, c)| (c.projection.clone(), i as u32))
            .collect();
        // Inserts land after the survivors, in delta order.
        for (t, record) in inserts.iter().enumerate() {
            let idx = (survivors + t) as u32;
            let projection: Vec<u16> = self.attributes.iter().map(|&a| record.get(a)).collect();
            match by_projection.get(&projection) {
                Some(&class) => classes[class as usize].members.push(idx),
                None => {
                    by_projection.insert(projection.clone(), classes.len() as u32);
                    classes.push(EquivalenceClass {
                        projection,
                        members: vec![idx],
                    });
                }
            }
        }
        // Canonicalize to the from-scratch class order: a build over the
        // final dataset lists classes by first occurrence, i.e. ascending
        // smallest member index.  Member lists are already ascending (the
        // remap preserves order; inserted indices only grow), so sorting on
        // `members[0]` reproduces that order exactly.
        classes.sort_by_key(|c| c.members[0]);
        for (i, class) in classes.iter().enumerate() {
            *by_projection
                .get_mut(&class.projection)
                .expect("every class is mapped") = i as u32;
        }
        let cache = self.cache.as_ref().map(|old| {
            let old_inner = old.locked();
            let mut inner = CacheInner {
                rows: BTreeMap::new(),
                order: old_inner.order.clone(),
                evictions: old_inner.evictions,
            };
            for (key, _) in old_inner.rows.iter() {
                let (likelihood, key_projection) = key;
                // Admission proved `likelihood ⊆ attributes`, so every
                // position resolves.
                let positions: Vec<usize> = likelihood
                    .iter()
                    .map(|a| self.attributes.binary_search(a).expect("covered key"))
                    .collect();
                let row: Vec<bool> = classes
                    .iter()
                    .map(|class| {
                        positions
                            .iter()
                            .zip(key_projection.iter())
                            .all(|(&pos, &value)| class.projection[pos] == value)
                    })
                    .collect();
                inner.rows.insert(key.clone(), Arc::new(row));
            }
            drop(old_inner);
            Arc::new(ClassMatchCache {
                inner: Mutex::new(inner),
                cap: old.cap,
            })
        });
        let store = PartitionIndexStore {
            len: survivors + inserts.len(),
            attributes: self.attributes.clone(),
            classes,
            by_projection,
            cache,
        };
        sgf_metrics::counter("index.partition.delta_applies").incr();
        sgf_metrics::timer("index.partition.apply_delta").observe(start.elapsed());
        Ok(store)
    }

    /// The attached class-match cache, if any.
    pub fn cache(&self) -> Option<&Arc<ClassMatchCache>> {
        self.cache.as_ref()
    }

    /// The key attribute set `A` (ascending, deduplicated).
    pub fn attributes(&self) -> &[usize] {
        &self.attributes
    }

    /// Number of distinct likelihood-equivalence classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Size of the largest equivalence class (0 for an empty store).
    pub fn largest_class(&self) -> usize {
        self.classes
            .iter()
            .map(|c| c.members.len())
            .max()
            .unwrap_or(0)
    }

    /// Approximate heap footprint of the class member lists and projection
    /// keys, in bytes.
    pub fn member_bytes(&self) -> usize {
        self.classes
            .iter()
            .map(|c| {
                c.members.len() * std::mem::size_of::<u32>()
                    + c.projection.len() * std::mem::size_of::<u16>()
            })
            .sum()
    }

    /// Whether the store's classes are sound for a model whose generation
    /// probability is determined by the projection onto `likelihood`:
    /// requires `likelihood ⊆ A` (then agreement on `A` implies agreement on
    /// `likelihood`, hence identical probabilities within a class).
    pub fn covers(&self, likelihood: Option<&[usize]>) -> bool {
        likelihood.is_some_and(|l| l.iter().all(|a| self.attributes.binary_search(a).is_ok()))
    }

    /// The classes that can possibly contain plausible seeds for `candidate`,
    /// pruned on the exact-match attributes that fall inside the key set.
    fn pruned_classes<'s>(
        &'s self,
        candidate: &Record,
        match_attributes: Option<&[usize]>,
    ) -> ClassesState<'s> {
        let matched = match_attributes.unwrap_or(&[]);
        if self.attributes.iter().all(|a| matched.contains(a)) {
            // Every key attribute must agree exactly: at most the class with
            // the candidate's own projection can hold plausible seeds.
            let projection: Vec<u16> = self.attributes.iter().map(|&a| candidate.get(a)).collect();
            let class = self
                .by_projection
                .get(&projection)
                .map(|&c| (c as usize, &self.classes[c as usize]));
            return ClassesState::Single(class);
        }
        // Walk every class, skipping those that provably disagree with the
        // candidate on an exact-match attribute inside the key set.
        let prune: Vec<(usize, u16)> = self
            .attributes
            .iter()
            .enumerate()
            .filter(|(_, a)| matched.contains(a))
            .map(|(pos, &a)| (pos, candidate.get(a)))
            .collect();
        ClassesState::Walk {
            classes: self.classes.iter().enumerate(),
            prune,
        }
    }
}

/// Equality on the *indexed structure* — length, key attributes, classes
/// (projections, member lists, order), and the projection map.  The attached
/// [`ClassMatchCache`] is deliberately ignored: it is a performance artifact
/// whose residency depends on query history, never on what the store indexes.
impl PartialEq for PartitionIndexStore {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self.attributes == other.attributes
            && self.classes == other.classes
            && self.by_projection == other.by_projection
    }
}

impl SeedStore for PartitionIndexStore {
    fn len(&self) -> usize {
        self.len
    }

    fn kind(&self) -> &'static str {
        "partition"
    }

    fn plausible_candidates<'s>(
        &'s self,
        candidate: &Record,
        match_attributes: Option<&[usize]>,
    ) -> CandidateIter<'s> {
        let Some(matched) = match_attributes else {
            return CandidateIter::All(0..self.len);
        };
        if !self.attributes.iter().any(|a| matched.contains(a)) && !self.attributes.is_empty() {
            // No exact-match attribute intersects the key set: the class
            // structure cannot prune anything, fall back to the full range.
            return CandidateIter::All(0..self.len);
        }
        CandidateIter::Classes(ClassCandidates {
            classes: self.pruned_classes(candidate, Some(matched)),
            current: [].iter(),
        })
    }

    fn likelihood_classes<'s>(
        &'s self,
        candidate: &Record,
        likelihood_attributes: Option<&[usize]>,
        match_attributes: Option<&[usize]>,
    ) -> Option<LikelihoodClasses<'s>> {
        if !self.covers(likelihood_attributes) {
            return None;
        }
        Some(LikelihoodClasses {
            state: self.pruned_classes(candidate, match_attributes),
        })
    }

    fn class_match_row(
        &self,
        candidate: &Record,
        likelihood_attributes: Option<&[usize]>,
        match_attributes: Option<&[usize]>,
        evaluate: &mut dyn FnMut(usize) -> bool,
    ) -> Option<ClassMatchLookup> {
        let cache = self.cache.as_ref()?;
        if !self.covers(likelihood_attributes) {
            // Without coverage there is no class fast path to serve.
            return None;
        }
        let likelihood = likelihood_attributes?;
        let matched = match_attributes?;
        // Soundness gate: the row is request-independent only when every
        // likelihood attribute is also exact-match guaranteed (`L ⊆ EM`, see
        // the [`ClassMatchCache`] docs).  Models without that property fall
        // back to per-request evaluation.
        if !likelihood.iter().all(|a| matched.contains(a)) {
            return None;
        }
        let mut key: Vec<usize> = likelihood.to_vec();
        key.sort_unstable();
        key.dedup();
        let projection: Vec<u16> = key.iter().map(|&a| candidate.get(a)).collect();
        Some(cache.fetch((key, projection), || {
            // Populate eagerly — one evaluation per class representative —
            // under the cache lock, so each distinct key is computed exactly
            // once while resident no matter how requests interleave.  The
            // closure is pure (no RNG, no shared state), so the extra
            // evaluations relative to the lazy walk change nothing
            // observable but time.
            Arc::new(
                self.classes
                    .iter()
                    .map(|class| evaluate(class.members[0] as usize))
                    .collect(),
            )
        }))
    }
}

/// The two ways a class query walks the store.  Items carry the class's
/// position in the store's class list, so cached match rows can be indexed.
#[derive(Debug)]
enum ClassesState<'a> {
    /// Every key attribute is exact-match constrained: the single class with
    /// the candidate's projection (or none).
    Single(Option<(usize, &'a EquivalenceClass)>),
    /// Walk every class, pruning on `(projection position, candidate value)`
    /// pairs.
    Walk {
        classes: std::iter::Enumerate<std::slice::Iter<'a, EquivalenceClass>>,
        prune: Vec<(usize, u16)>,
    },
}

impl<'a> ClassesState<'a> {
    fn next_class(&mut self) -> Option<(usize, &'a EquivalenceClass)> {
        match self {
            ClassesState::Single(class) => class.take(),
            ClassesState::Walk { classes, prune } => classes.find(|(_, class)| {
                prune
                    .iter()
                    .all(|&(pos, value)| class.projection[pos] == value)
            }),
        }
    }
}

/// Iterator over the likelihood-equivalence classes that may contain
/// plausible seeds for a candidate (see
/// [`SeedStore::likelihood_classes`]).  Each item carries a representative
/// record index (evaluate the model once on it) and the full ascending
/// member list (count with multiplicity).
#[derive(Debug)]
pub struct LikelihoodClasses<'a> {
    state: ClassesState<'a>,
}

/// One likelihood-equivalence class yielded by [`LikelihoodClasses`].
#[derive(Debug, Clone, Copy)]
pub struct LikelihoodClass<'a> {
    /// Position of this class in the store's class list; indexes the rows of
    /// the store's [`ClassMatchCache`] (see [`ClassMatchLookup`]).
    pub index: usize,
    /// Index of the class representative in the seed dataset; every member
    /// has the same generation probability as the representative for every
    /// candidate.
    pub representative: usize,
    /// Ascending seed-record indices of all class members (the multiplicity).
    pub members: &'a [u32],
}

impl<'a> Iterator for LikelihoodClasses<'a> {
    type Item = LikelihoodClass<'a>;

    fn next(&mut self) -> Option<LikelihoodClass<'a>> {
        self.state
            .next_class()
            .map(|(index, class)| LikelihoodClass {
                index,
                representative: class.members[0] as usize,
                members: &class.members,
            })
    }
}

/// Member-expanding iterator behind the [`SeedStore::plausible_candidates`]
/// fallback of the partition store: yields the record indices of every class
/// surviving exact-match pruning, ascending within each class.
#[derive(Debug)]
pub struct ClassCandidates<'a> {
    classes: ClassesState<'a>,
    current: std::slice::Iter<'a, u32>,
}

impl Iterator for ClassCandidates<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if let Some(&idx) = self.current.next() {
                return Some(idx as usize);
            }
            self.current = self.classes.next_class()?.1.members.iter();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgf_data::{Attribute, Schema};
    use std::sync::Arc;

    fn dataset() -> Dataset {
        let schema = Arc::new(
            Schema::new(vec![
                Attribute::categorical_anon("A", 4),
                Attribute::categorical_anon("B", 6),
                Attribute::categorical_anon("C", 2),
            ])
            .unwrap(),
        );
        let rows: Vec<Record> = vec![
            Record::new(vec![0, 0, 0]),
            Record::new(vec![0, 1, 1]),
            Record::new(vec![1, 2, 0]),
            Record::new(vec![0, 0, 1]), // same (A, B) as record 0
            Record::new(vec![1, 2, 1]), // same (A, B) as record 2
            Record::new(vec![0, 0, 0]), // identical to record 0
        ];
        Dataset::from_records_unchecked(schema, rows)
    }

    #[test]
    fn build_groups_records_by_projection() {
        let data = dataset();
        let store = PartitionIndexStore::build(&data, &[1, 0]).unwrap();
        assert_eq!(store.len(), 6);
        assert_eq!(store.attributes(), &[0, 1]);
        // Projections (A, B): (0,0) x3, (0,1), (1,2) x2 -> 3 classes.
        assert_eq!(store.class_count(), 3);
        assert_eq!(store.largest_class(), 3);
        assert!(store.member_bytes() > 0);
    }

    #[test]
    fn build_rejects_out_of_range_attributes() {
        assert!(PartitionIndexStore::build(&dataset(), &[0, 7]).is_err());
    }

    #[test]
    fn covers_requires_subset_of_key_attributes() {
        let store = PartitionIndexStore::build(&dataset(), &[0, 1]).unwrap();
        assert!(store.covers(Some(&[0])));
        assert!(store.covers(Some(&[1, 0])));
        assert!(store.covers(Some(&[])));
        assert!(!store.covers(Some(&[2])));
        assert!(!store.covers(None));
    }

    #[test]
    fn single_class_lookup_when_key_is_exact_matched() {
        let store = PartitionIndexStore::build(&dataset(), &[0, 1]).unwrap();
        let y = Record::new(vec![0, 0, 1]);
        let classes: Vec<_> = store
            .likelihood_classes(&y, Some(&[0, 1]), Some(&[0, 1]))
            .unwrap()
            .collect();
        assert_eq!(classes.len(), 1);
        assert_eq!(classes[0].index, 0);
        assert_eq!(classes[0].representative, 0);
        assert_eq!(classes[0].members, &[0, 3, 5]);
        // A projection no seed has: no class at all.
        let missing = Record::new(vec![3, 5, 0]);
        assert_eq!(
            store
                .likelihood_classes(&missing, Some(&[0, 1]), Some(&[0, 1]))
                .unwrap()
                .count(),
            0
        );
    }

    #[test]
    fn walk_prunes_on_exact_match_attributes_only() {
        let store = PartitionIndexStore::build(&dataset(), &[0, 1]).unwrap();
        let y = Record::new(vec![0, 9, 9]);
        // Likelihood covered, but only attribute 0 is exact-matched: every
        // class with A == 0 survives, in first-seen order.
        let classes: Vec<_> = store
            .likelihood_classes(&y, Some(&[0]), Some(&[0]))
            .unwrap()
            .collect();
        let reps: Vec<usize> = classes.iter().map(|c| c.representative).collect();
        assert_eq!(reps, vec![0, 1]);
        let indices: Vec<usize> = classes.iter().map(|c| c.index).collect();
        assert_eq!(indices, vec![0, 1]);
        // No exact-match guarantee at all: every class is yielded.
        let all = store.likelihood_classes(&y, Some(&[0]), None).unwrap();
        assert_eq!(all.count(), 3);
    }

    #[test]
    fn uncovered_likelihood_returns_none() {
        let store = PartitionIndexStore::build(&dataset(), &[0, 1]).unwrap();
        let y = Record::new(vec![0, 0, 0]);
        assert!(store.likelihood_classes(&y, Some(&[0, 2]), None).is_none());
        assert!(store.likelihood_classes(&y, None, Some(&[0])).is_none());
    }

    #[test]
    fn empty_key_set_collapses_everything_into_one_class() {
        let store = PartitionIndexStore::build(&dataset(), &[]).unwrap();
        assert_eq!(store.class_count(), 1);
        let y = Record::new(vec![3, 5, 1]);
        let classes: Vec<_> = store
            .likelihood_classes(&y, Some(&[]), None)
            .unwrap()
            .collect();
        assert_eq!(classes.len(), 1);
        assert_eq!(classes[0].members.len(), 6);
    }

    #[test]
    fn plausible_candidates_expands_surviving_classes() {
        let store = PartitionIndexStore::build(&dataset(), &[0, 1]).unwrap();
        let y = Record::new(vec![0, 0, 0]);
        // Full key exact-matched: exactly the (0, 0) class members.
        let got: Vec<usize> = store.plausible_candidates(&y, Some(&[0, 1])).collect();
        assert_eq!(got, vec![0, 3, 5]);
        // Partial overlap: every record agreeing on A == 0.
        let partial: Vec<usize> = store.plausible_candidates(&y, Some(&[0, 2])).collect();
        assert_eq!(partial, vec![0, 3, 5, 1]);
        // Disjoint from the key set, or no guarantee: everything.
        assert!(!store.plausible_candidates(&y, Some(&[2])).is_filtered());
        assert!(!store.plausible_candidates(&y, None).is_filtered());
        assert_eq!(store.plausible_candidates(&y, Some(&[2])).count(), 6);
    }

    #[test]
    fn two_builds_enumerate_classes_identically() {
        // Determinism regression (R2): every traversal of the store — class
        // enumeration, representative choice, member expansion — must be
        // identical across two builds from the same dataset.  The class list
        // is first-seen ordered and the projection map is a BTreeMap, so
        // nothing here may depend on hash iteration order.
        let data = dataset();
        let a = PartitionIndexStore::build(&data, &[0, 1]).unwrap();
        let b = PartitionIndexStore::build(&data, &[0, 1]).unwrap();
        let y = Record::new(vec![0, 9, 9]);
        let enumerate = |s: &PartitionIndexStore| -> Vec<(usize, Vec<u32>)> {
            s.likelihood_classes(&y, Some(&[0]), None)
                .unwrap()
                .map(|c| (c.representative, c.members.to_vec()))
                .collect()
        };
        assert_eq!(enumerate(&a), enumerate(&b));
        let expand = |s: &PartitionIndexStore| -> Vec<usize> {
            s.plausible_candidates(&y, Some(&[0])).collect()
        };
        assert_eq!(expand(&a), expand(&b));
    }

    #[test]
    fn class_match_rows_are_shared_and_projection_keyed() {
        let store = PartitionIndexStore::build(&dataset(), &[0, 1])
            .unwrap()
            .with_class_cache();
        let cache = Arc::clone(store.cache().unwrap());
        let y = Record::new(vec![0, 0, 1]);
        let mut evals = 0usize;
        let lookup = store
            .class_match_row(&y, Some(&[0, 1]), Some(&[0, 1]), &mut |rep| {
                evals += 1;
                rep == 0
            })
            .unwrap();
        assert!(!lookup.hit, "first projection must miss");
        assert_eq!(evals, store.class_count(), "miss populates the full row");
        assert_eq!(lookup.row.as_slice(), &[true, false, false]);
        assert_eq!(cache.rows(), 1);
        // Same projection again: served from the cache, zero evaluations.
        let mut again = 0usize;
        let cached = store
            .class_match_row(&y, Some(&[0, 1]), Some(&[0, 1]), &mut |_| {
                again += 1;
                false
            })
            .unwrap();
        assert!(cached.hit);
        assert_eq!(again, 0, "hits never re-evaluate");
        assert_eq!(cached.row.as_slice(), lookup.row.as_slice());
        // A different projection is a different row.
        let other = Record::new(vec![1, 2, 0]);
        let miss = store
            .class_match_row(&other, Some(&[0, 1]), Some(&[0, 1]), &mut |rep| rep == 2)
            .unwrap();
        assert!(!miss.hit);
        assert_eq!(cache.rows(), 2);
        // Clones share the cache: a clone's lookup hits the warmed row.
        let clone = store.clone();
        assert!(
            clone
                .class_match_row(&y, Some(&[0, 1]), Some(&[0, 1]), &mut |_| false)
                .unwrap()
                .hit
        );
    }

    #[test]
    fn class_match_row_gates_on_cache_and_guarantees() {
        let data = dataset();
        let plain = PartitionIndexStore::build(&data, &[0, 1]).unwrap();
        let y = Record::new(vec![0, 0, 0]);
        let mut noop = |_: usize| true;
        // No cache attached.
        assert!(plain
            .class_match_row(&y, Some(&[0]), Some(&[0]), &mut noop)
            .is_none());
        let cached = plain.clone().with_class_cache();
        // Likelihood not covered by the key set: no class fast path at all.
        assert!(cached
            .class_match_row(&y, Some(&[2]), Some(&[2]), &mut noop)
            .is_none());
        // Likelihood not contained in the exact-match set: row would be
        // seed-dependent, must not be cached.
        assert!(cached
            .class_match_row(&y, Some(&[0, 1]), Some(&[0]), &mut noop)
            .is_none());
        assert!(cached
            .class_match_row(&y, Some(&[0]), None, &mut noop)
            .is_none());
        assert!(cached
            .class_match_row(&y, None, Some(&[0]), &mut noop)
            .is_none());
        // Duplicate/unsorted likelihood sets normalize to one canonical key.
        assert!(
            !cached
                .class_match_row(&y, Some(&[1, 0, 1]), Some(&[0, 1]), &mut noop)
                .unwrap()
                .hit
        );
        assert_eq!(cached.cache().unwrap().rows(), 1);
        assert!(
            cached
                .class_match_row(&y, Some(&[0, 1]), Some(&[1, 0]), &mut noop)
                .unwrap()
                .hit
        );
    }

    /// The canonical final dataset of a delta: survivors in order, then
    /// inserts (mirrors `sgf_data::DatasetDelta::apply`).
    fn final_dataset(base: &Dataset, deletes: &[usize], inserts: &[Record]) -> Dataset {
        let mut rows: Vec<Record> = base
            .records()
            .iter()
            .enumerate()
            .filter(|(i, _)| !deletes.contains(i))
            .map(|(_, r)| r.clone())
            .collect();
        rows.extend(inserts.iter().cloned());
        Dataset::from_records_unchecked(base.schema_arc(), rows)
    }

    /// Structural fingerprint: key attributes plus every class in order.
    #[allow(clippy::type_complexity)]
    fn shape(store: &PartitionIndexStore) -> (Vec<usize>, Vec<(Vec<u16>, Vec<u32>)>) {
        (
            store.attributes().to_vec(),
            store
                .classes
                .iter()
                .map(|c| (c.projection.clone(), c.members.clone()))
                .collect(),
        )
    }

    #[test]
    fn apply_delta_matches_a_fresh_build() {
        let data = dataset();
        let store = PartitionIndexStore::build(&data, &[0, 1]).unwrap();
        let cases: Vec<(Vec<usize>, Vec<Record>)> = vec![
            // Delete a whole class (record 1 is the only (0,1) member) plus a
            // representative (record 0), insert one old and one new projection.
            (
                vec![0, 1],
                vec![Record::new(vec![1, 2, 0]), Record::new(vec![3, 3, 1])],
            ),
            // Pure deletes, including a full-class removal.
            (vec![2, 4], vec![]),
            // Pure inserts.
            (vec![], vec![Record::new(vec![0, 0, 1])]),
            // Empty delta.
            (vec![], vec![]),
            // Full replacement.
            (
                (0..6).collect(),
                vec![Record::new(vec![2, 5, 0]), Record::new(vec![2, 5, 1])],
            ),
        ];
        for (deletes, inserts) in cases {
            let updated = store.apply_delta(&deletes, &inserts).unwrap();
            let fresh =
                PartitionIndexStore::build(&final_dataset(&data, &deletes, &inserts), &[0, 1])
                    .unwrap();
            assert_eq!(
                updated,
                fresh,
                "delta {deletes:?}/+{} must equal a fresh build",
                inserts.len()
            );
            assert_eq!(shape(&updated), shape(&fresh));
            assert_eq!(updated.by_projection, fresh.by_projection);
        }
    }

    #[test]
    fn apply_delta_rebuilds_cached_rows_for_the_new_classes() {
        let data = dataset();
        let store = PartitionIndexStore::build(&data, &[0, 1])
            .unwrap()
            .with_class_cache();
        // Warm two rows with the real evaluator shape (projection match).
        for y in [Record::new(vec![0, 0, 1]), Record::new(vec![1, 2, 0])] {
            store
                .class_match_row(&y, Some(&[0, 1]), Some(&[0, 1]), &mut |rep| {
                    data.records()[rep].get(0) == y.get(0) && data.records()[rep].get(1) == y.get(1)
                })
                .unwrap();
        }
        // Delete the whole (0,1) class and one (0,0) member; add a (1,2) and
        // a brand-new (3,3) record.
        let deletes = vec![0, 1];
        let inserts = vec![Record::new(vec![1, 2, 1]), Record::new(vec![3, 3, 0])];
        let updated = store.apply_delta(&deletes, &inserts).unwrap();
        let cache = Arc::clone(updated.cache().unwrap());
        assert_eq!(cache.rows(), 2, "resident rows survive the delta");
        let fresh = PartitionIndexStore::build(&final_dataset(&data, &deletes, &inserts), &[0, 1])
            .unwrap()
            .with_class_cache();
        // Every carried row must be bit-identical to what a fresh store
        // computes for the same key — and must be served as a hit.
        for y in [Record::new(vec![0, 0, 1]), Record::new(vec![1, 2, 0])] {
            let evaluate = |store: &PartitionIndexStore, rep: usize| {
                let record = &final_dataset(&data, &deletes, &inserts).records()[rep].clone();
                let _ = store;
                record.get(0) == y.get(0) && record.get(1) == y.get(1)
            };
            let carried = updated
                .class_match_row(&y, Some(&[0, 1]), Some(&[0, 1]), &mut |rep| {
                    evaluate(&updated, rep)
                })
                .unwrap();
            assert!(carried.hit, "warm row must survive as a hit");
            let rebuilt = fresh
                .class_match_row(&y, Some(&[0, 1]), Some(&[0, 1]), &mut |rep| {
                    evaluate(&fresh, rep)
                })
                .unwrap();
            assert_eq!(carried.row.as_slice(), rebuilt.row.as_slice());
        }
    }

    #[test]
    fn apply_delta_rejects_malformed_input() {
        let store = PartitionIndexStore::build(&dataset(), &[0, 1]).unwrap();
        assert!(store.apply_delta(&[6], &[]).is_err());
        assert!(store.apply_delta(&[3, 1], &[]).is_err());
        assert!(store.apply_delta(&[2, 2], &[]).is_err());
        // Inserted record too short for the key set.
        assert!(store.apply_delta(&[], &[Record::new(vec![0])]).is_err());
    }

    #[test]
    fn class_cache_evicts_oldest_rows_at_the_cap() {
        let store = PartitionIndexStore::build(&dataset(), &[0, 1])
            .unwrap()
            .with_class_cache_capacity(2);
        let cache = Arc::clone(store.cache().unwrap());
        assert_eq!(cache.capacity(), 2);
        let lookup = |y: &Record| {
            store
                .class_match_row(y, Some(&[0, 1]), Some(&[0, 1]), &mut |rep| rep == 0)
                .unwrap()
                .hit
        };
        let first = Record::new(vec![0, 0, 0]);
        let second = Record::new(vec![0, 1, 0]);
        let third = Record::new(vec![1, 2, 0]);
        assert!(!lookup(&first));
        assert!(!lookup(&second));
        assert_eq!(cache.rows(), 2);
        assert_eq!(cache.evictions(), 0);
        // A third projection evicts the oldest-inserted row (`first`).
        assert!(!lookup(&third));
        assert_eq!(cache.rows(), 2);
        assert_eq!(cache.evictions(), 1);
        // `second` and `third` are resident; `first` was evicted and must be
        // recomputed — which in turn evicts `second`, the now-oldest row.
        assert!(lookup(&second));
        assert!(lookup(&third));
        assert!(!lookup(&first));
        assert_eq!(cache.rows(), 2);
        assert_eq!(cache.evictions(), 2);
        // Hits never advance the FIFO: after re-admitting `first`, the
        // resident set is {third, first} regardless of the hits above.
        assert!(lookup(&third));
        assert!(lookup(&first));
        assert!(!lookup(&second));
        assert_eq!(cache.evictions(), 3);
    }

    #[test]
    fn duplicate_and_unsorted_attributes_are_normalized() {
        let data = dataset();
        let a = PartitionIndexStore::build(&data, &[1, 0, 1]).unwrap();
        let b = PartitionIndexStore::build(&data, &[0, 1]).unwrap();
        assert_eq!(a.attributes(), b.attributes());
        assert_eq!(a.class_count(), b.class_count());
    }
}
