//! The [`SeedStore`] abstraction: given a candidate synthetic record, produce
//! a *sound superset* of the seed records that can plausibly have generated
//! it, so the γ-likelihood partition test only runs on the survivors.

use sgf_data::{Dataset, Record};
use std::ops::Range;

use crate::inverted::PostingIntersection;
use crate::partition::{ClassCandidates, ClassMatchLookup, LikelihoodClasses};

/// A queryable store over the seed dataset `D_S`.
///
/// The privacy tests of Section 2 count, for a candidate `y`, the seed records
/// in the same likelihood partition as the sampled seed.  A store narrows that
/// count to the records that can possibly qualify: `plausible_candidates`
/// must return a **superset** of every record `d` with `Pr{y = M(d)} > 0`,
/// given that the model guarantees `p > 0` only when `d` agrees with `y` on
/// `match_attributes` (see `GenerativeModel::exact_match_attributes` in
/// `sgf-model`).  Records it omits are guaranteed non-plausible, so filtering
/// them out never changes a test decision — the exact partition-index check
/// still runs on every returned index.
///
/// Implementations must be cheap to query per candidate: the store is hit once
/// for every proposed synthetic record.
pub trait SeedStore: Send + Sync + std::fmt::Debug {
    /// Number of seed records the store indexes.  Must equal the length of the
    /// seed dataset the privacy test scans.
    fn len(&self) -> usize;

    /// A short stable identifier of the store implementation (`"scan"`,
    /// `"inverted"`, `"partition"`, `"prefix"`), used in provenance blocks and trace
    /// labels.  Purely observational — never branch mechanism decisions on
    /// it (the stores are decision-equivalent by contract).
    fn kind(&self) -> &'static str;

    /// Whether the store indexes zero records.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Indices of every seed record that can plausibly have generated
    /// `candidate`, possibly with false positives, never with false negatives.
    ///
    /// `match_attributes` lists attribute indices on which a record must agree
    /// with the candidate to have non-zero generation probability; `None`
    /// means no such guarantee exists and the store must return all records.
    fn plausible_candidates<'s>(
        &'s self,
        candidate: &Record,
        match_attributes: Option<&[usize]>,
    ) -> CandidateIter<'s>;

    /// Likelihood-equivalence classes for `candidate`, if the store groups
    /// seeds such that every member of a class has the **same** generation
    /// probability for every candidate (see
    /// [`PartitionIndexStore`](crate::PartitionIndexStore)).
    ///
    /// `likelihood_attributes` is the model's guarantee
    /// (`GenerativeModel::likelihood_attributes`): seeds agreeing on those
    /// attributes have identical probabilities.  A store must return `None`
    /// unless its class keying is covered by that guarantee; callers then
    /// fall back to the per-record [`plausible_candidates`] walk.
    /// `match_attributes` is the exact-match guarantee used to prune classes
    /// that provably cannot contain plausible seeds.
    ///
    /// The default (and the behaviour of the scan and inverted stores) is
    /// `None`: no class structure.
    ///
    /// [`plausible_candidates`]: SeedStore::plausible_candidates
    fn likelihood_classes<'s>(
        &'s self,
        _candidate: &Record,
        _likelihood_attributes: Option<&[usize]>,
        _match_attributes: Option<&[usize]>,
    ) -> Option<LikelihoodClasses<'s>> {
        None
    }

    /// A shared row of per-class γ-partition match booleans for `candidate`,
    /// when the store holds a [`ClassMatchCache`](crate::ClassMatchCache)
    /// and can prove the row is
    /// request-independent (the model's likelihood set is contained in its
    /// exact-match set — see
    /// [`ClassMatchCache`](crate::ClassMatchCache)).  On a cache miss the
    /// store populates the row by calling `evaluate` once per class
    /// representative; `evaluate` must be a pure function of the
    /// representative index (no RNG, no shared state).  Decisions derived
    /// from the row are bit-identical to evaluating per request.
    ///
    /// The default (scan, inverted, and cache-less partition stores) is
    /// `None`: no cacheable class structure — callers evaluate inline.
    fn class_match_row(
        &self,
        _candidate: &Record,
        _likelihood_attributes: Option<&[usize]>,
        _match_attributes: Option<&[usize]>,
        _evaluate: &mut dyn FnMut(usize) -> bool,
    ) -> Option<ClassMatchLookup> {
        None
    }

    /// The **exact** number of seeds that can have generated `candidate`,
    /// when the store can prove it without evaluating the model: every
    /// counted seed has the sampled seed's generation probability and every
    /// other seed has probability zero.
    ///
    /// A store may answer only when the model's exact-match set selects one
    /// node of its keying and the likelihood set lies inside the exact-match
    /// set (`L ⊆ EM`): a seed with positive probability agrees with the
    /// candidate on `EM`, so every seed agreeing on `EM` shares its
    /// `L`-projection and hence its probability (see
    /// [`PrefixIndexStore`](crate::PrefixIndexStore)).  A seed-independent
    /// model (`L = ∅`) gives every seed the same probability, so its count
    /// is every seed whatever its exact-match set.
    ///
    /// The default (every store but the prefix store) is `None`.
    fn prefix_count(
        &self,
        _candidate: &Record,
        _likelihood_attributes: Option<&[usize]>,
        _match_attributes: Option<&[usize]>,
    ) -> Option<usize> {
        None
    }
}

/// Validate the delete-index list of an incremental store update: strictly
/// ascending (sorted, duplicate-free) and every index inside `0..len`.
/// Shared by the inverted and partition stores' `apply_delta` so they reject
/// malformed deltas identically.
pub(crate) fn validate_delete_indices(
    deletes: &[usize],
    len: usize,
) -> Result<(), sgf_data::DataError> {
    if let Some(&bad) = deletes.iter().find(|&&d| d >= len) {
        return Err(sgf_data::DataError::InvalidParameter(format!(
            "delta deletes record {bad} but the store indexes {len} records"
        )));
    }
    if deletes.windows(2).any(|w| w[0] >= w[1]) {
        return Err(sgf_data::DataError::InvalidParameter(
            "delta delete indices must be strictly ascending".into(),
        ));
    }
    Ok(())
}

/// Iterator over candidate seed indices returned by a [`SeedStore`].
///
/// A concrete enum (rather than `Box<dyn Iterator>`) keeps the per-candidate
/// hot path allocation-free and lets callers special-case the unfiltered scan.
#[derive(Debug)]
pub enum CandidateIter<'a> {
    /// Every record index, in ascending order (no filtering happened).
    All(Range<usize>),
    /// The intersection of bucketized posting lists, in ascending order.
    Filtered(PostingIntersection<'a>),
    /// Members of the equivalence classes surviving exact-match pruning,
    /// ascending within each class (the partition store's per-record
    /// fallback).
    Classes(ClassCandidates<'a>),
}

impl CandidateIter<'_> {
    /// Whether the store actually narrowed the candidate set (false for the
    /// full scan, true when posting lists were intersected or equivalence
    /// classes pruned).
    pub fn is_filtered(&self) -> bool {
        !matches!(self, CandidateIter::All(_))
    }
}

impl Iterator for CandidateIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            CandidateIter::All(range) => range.next(),
            CandidateIter::Filtered(inter) => inter.next(),
            CandidateIter::Classes(classes) => classes.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            CandidateIter::All(range) => range.size_hint(),
            CandidateIter::Filtered(inter) => inter.size_hint(),
            CandidateIter::Classes(_) => (0, None),
        }
    }
}

/// The baseline store: no index, every record is a candidate for every
/// query — exactly the behaviour of the original full-scan privacy test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinearScanStore {
    len: usize,
}

impl LinearScanStore {
    /// A scan store over the given seed dataset.
    pub fn new(seeds: &Dataset) -> Self {
        LinearScanStore { len: seeds.len() }
    }

    /// A scan store over `len` records (when no dataset handle is at hand).
    pub fn with_len(len: usize) -> Self {
        LinearScanStore { len }
    }
}

impl SeedStore for LinearScanStore {
    fn len(&self) -> usize {
        self.len
    }

    fn kind(&self) -> &'static str {
        "scan"
    }

    fn plausible_candidates<'s>(
        &'s self,
        _candidate: &Record,
        _match_attributes: Option<&[usize]>,
    ) -> CandidateIter<'s> {
        CandidateIter::All(0..self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgf_data::{Attribute, Schema};
    use std::sync::Arc;

    #[test]
    fn linear_scan_returns_every_index() {
        let schema = Arc::new(Schema::new(vec![Attribute::categorical_anon("A", 3)]).unwrap());
        let records = (0..5u16).map(|v| Record::new(vec![v % 3])).collect();
        let data = Dataset::from_records_unchecked(schema, records);
        let store = LinearScanStore::new(&data);
        assert_eq!(store.len(), 5);
        let all: Vec<usize> = store
            .plausible_candidates(&Record::new(vec![0]), Some(&[0]))
            .collect();
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
        assert!(!store
            .plausible_candidates(&Record::new(vec![0]), None)
            .is_filtered());
    }
}
