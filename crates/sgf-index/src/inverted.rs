//! The bucketized inverted-index seed store.
//!
//! Build time (once per trained session): bucketize every attribute of every
//! seed record with the same `bkt()` the structure learner uses
//! ([`sgf_data::Bucketizer`]) and record, per `(attribute, bucket)` pair, the
//! ascending posting list of record indices.
//!
//! Query time (once per proposed candidate): for a model that only generates
//! `y` from seeds agreeing with it on a known attribute set (the kept
//! attributes of the seed-based synthesizer), pick the highest-weight such
//! attributes — ordered by the dependency-graph weights learned in
//! `sgf-model` — and intersect their posting lists.  Every truly plausible
//! seed agrees with `y` on each kept attribute, hence on each kept *bucket*,
//! hence appears in every chosen posting list; the intersection is therefore a
//! sound superset and the exact γ-partition check still runs on the survivors.

use crate::store::{CandidateIter, SeedStore};
use sgf_data::{AttributeBuckets, Bucketizer, DataError, Dataset, Record};

/// Upper bound on posting lists intersected per query (diminishing returns and
/// rising constant costs beyond a handful of lists).
pub const MAX_INTERSECT_LISTS: usize = 4;

/// Per-attribute slice of the index: the bucket map plus one ascending posting
/// list per bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
struct AttributeIndex {
    buckets: AttributeBuckets,
    postings: Vec<Vec<u32>>,
}

/// A bucketized inverted index over a seed dataset (see the module docs).
/// Equality compares the indexed structure — length, per-attribute posting
/// lists, priority order, and list cap — so a delta-applied store can be
/// checked against a from-scratch build.
#[derive(Debug, Clone, PartialEq)]
pub struct InvertedIndexStore {
    len: usize,
    attributes: Vec<AttributeIndex>,
    /// Attribute indices in descending weight order (ties broken by index).
    priority: Vec<usize>,
    /// How many posting lists to intersect per query.
    max_lists: usize,
}

impl InvertedIndexStore {
    /// Build the index over `seeds`.
    ///
    /// * `bucketizer` — the per-attribute discretization (`bkt()`), shared
    ///   with structure learning; coarse buckets trade memory for selectivity.
    /// * `weights` — one weight per attribute (e.g. the dependency-graph
    ///   weights of the learned structure); higher-weight attributes are
    ///   preferred when picking which posting lists to intersect.
    /// * `max_lists` — cap on posting lists intersected per query, clamped to
    ///   [`MAX_INTERSECT_LISTS`]; 0 is rejected.
    pub fn build(
        seeds: &Dataset,
        bucketizer: &Bucketizer,
        weights: &[f64],
        max_lists: usize,
    ) -> Result<Self, DataError> {
        let start = std::time::Instant::now();
        let schema = seeds.schema();
        let m = schema.len();
        if weights.len() != m {
            return Err(DataError::InvalidParameter(format!(
                "got {} attribute weights for a schema with {} attributes",
                weights.len(),
                m
            )));
        }
        if bucketizer.per_attribute().len() != m {
            return Err(DataError::InvalidParameter(format!(
                "bucketizer covers {} attributes but the schema has {}",
                bucketizer.per_attribute().len(),
                m
            )));
        }
        if let Some((attr, &weight)) = weights.iter().enumerate().find(|(_, w)| !w.is_finite()) {
            return Err(DataError::InvalidParameter(format!(
                "attribute weight {attr} is {weight}; weights must be finite"
            )));
        }
        if max_lists == 0 {
            return Err(DataError::InvalidParameter(
                "max_lists must be at least 1".into(),
            ));
        }
        if seeds.len() > u32::MAX as usize {
            return Err(DataError::InvalidParameter(
                "inverted index supports at most u32::MAX seed records".into(),
            ));
        }
        let mut attributes = Vec::with_capacity(m);
        for (attr, buckets) in bucketizer.per_attribute().iter().enumerate() {
            if buckets.domain_size() != schema.cardinality(attr) {
                return Err(DataError::InvalidParameter(format!(
                    "bucketization for attribute `{}` covers {} values but its cardinality is {}",
                    schema.attribute(attr).name(),
                    buckets.domain_size(),
                    schema.cardinality(attr)
                )));
            }
            attributes.push(AttributeIndex {
                buckets: buckets.clone(),
                postings: vec![Vec::new(); buckets.bucket_count()],
            });
        }
        for (idx, record) in seeds.iter().enumerate() {
            for (attr, index) in attributes.iter_mut().enumerate() {
                let bucket = index.buckets.bucket_of(record.get(attr));
                index.postings[bucket as usize].push(idx as u32);
            }
        }
        // Descending weight, ties broken by ascending attribute index so the
        // selection is deterministic.  `total_cmp` keeps the comparator a
        // total order even for the -0.0/+0.0 corner (NaN is rejected above):
        // a `partial_cmp(..).unwrap_or(Equal)` comparator is non-transitive
        // in the presence of NaN, which `sort_by` is allowed to punish with
        // arbitrary (even non-terminating) behaviour.
        let mut priority: Vec<usize> = (0..m).collect();
        priority.sort_by(|&a, &b| weights[b].total_cmp(&weights[a]).then(a.cmp(&b)));
        let store = InvertedIndexStore {
            len: seeds.len(),
            attributes,
            priority,
            max_lists: max_lists.min(MAX_INTERSECT_LISTS),
        };
        sgf_metrics::counter("index.inverted.builds").incr();
        sgf_metrics::timer("index.inverted.build").observe(start.elapsed());
        sgf_metrics::summary("index.inverted.posting_bytes").observe(store.posting_bytes() as u64);
        sgf_metrics::trace().record(
            "index.inverted.build",
            &[("store", "inverted")],
            &[
                ("records", store.len as u64),
                ("posting_bytes", store.posting_bytes() as u64),
            ],
            start.elapsed(),
        );
        Ok(store)
    }

    /// Apply a seed-data delta: `deletes` are strictly-ascending indices into
    /// the *current* seed dataset, `inserts` are records appended after the
    /// survivors (the canonical final-dataset order of
    /// `sgf_data::DatasetDelta::apply`), and `weights` are the attribute
    /// weights of the *updated* model (the priority order is recomputed from
    /// them).  Returns a new store equal to a from-scratch
    /// [`build`](InvertedIndexStore::build) on that final dataset with those
    /// weights, in O(index + |Δ|) instead of a full dataset pass per bucket.
    pub fn apply_delta(
        &self,
        deletes: &[usize],
        inserts: &[Record],
        weights: &[f64],
    ) -> Result<Self, DataError> {
        let start = std::time::Instant::now();
        crate::store::validate_delete_indices(deletes, self.len)?;
        let m = self.attributes.len();
        if weights.len() != m {
            return Err(DataError::InvalidParameter(format!(
                "got {} attribute weights for an index over {} attributes",
                weights.len(),
                m
            )));
        }
        if let Some((attr, &weight)) = weights.iter().enumerate().find(|(_, w)| !w.is_finite()) {
            return Err(DataError::InvalidParameter(format!(
                "attribute weight {attr} is {weight}; weights must be finite"
            )));
        }
        let survivors = self.len - deletes.len();
        if survivors + inserts.len() > u32::MAX as usize {
            return Err(DataError::InvalidParameter(
                "inverted index supports at most u32::MAX seed records".into(),
            ));
        }
        for record in inserts {
            if record.len() != m {
                return Err(DataError::InvalidParameter(format!(
                    "inserted record has {} attributes but the index covers {m}",
                    record.len()
                )));
            }
            for (attr, index) in self.attributes.iter().enumerate() {
                if (record.get(attr) as usize) >= index.buckets.domain_size() {
                    return Err(DataError::InvalidParameter(format!(
                        "inserted record value {} is outside the domain of attribute {attr}",
                        record.get(attr)
                    )));
                }
            }
        }
        let mut attributes = self.attributes.clone();
        for index in attributes.iter_mut() {
            for posting in index.postings.iter_mut() {
                // Drop deleted indices and shift each survivor down by the
                // number of deleted indices below it; both lookups are binary
                // searches on the ascending delete list, so the pass costs
                // O(|posting| log |Δ|) and posting order is preserved.
                posting.retain_mut(|idx| {
                    if deletes.binary_search(&(*idx as usize)).is_ok() {
                        return false;
                    }
                    let below = deletes.partition_point(|&d| d < *idx as usize);
                    *idx -= below as u32;
                    true
                });
            }
        }
        for (t, record) in inserts.iter().enumerate() {
            let idx = (survivors + t) as u32;
            for (attr, index) in attributes.iter_mut().enumerate() {
                let bucket = index.buckets.bucket_of(record.get(attr));
                index.postings[bucket as usize].push(idx);
            }
        }
        // Same deterministic comparator as `build` (see the comment there).
        let mut priority: Vec<usize> = (0..m).collect();
        priority.sort_by(|&a, &b| weights[b].total_cmp(&weights[a]).then(a.cmp(&b)));
        let store = InvertedIndexStore {
            len: survivors + inserts.len(),
            attributes,
            priority,
            max_lists: self.max_lists,
        };
        sgf_metrics::counter("index.inverted.delta_applies").incr();
        sgf_metrics::timer("index.inverted.apply_delta").observe(start.elapsed());
        Ok(store)
    }

    /// Approximate heap footprint of the posting lists, in bytes.
    pub fn posting_bytes(&self) -> usize {
        self.attributes
            .iter()
            .flat_map(|a| a.postings.iter())
            .map(|p| p.len() * std::mem::size_of::<u32>())
            .sum()
    }

    /// The posting list of `(attribute, bucket-of(value))`, or `None` when the
    /// value lies outside the attribute's domain.
    fn posting(&self, attr: usize, value: u16) -> Option<&[u32]> {
        let index = &self.attributes[attr];
        if (value as usize) >= index.buckets.domain_size() {
            return None;
        }
        Some(&index.postings[index.buckets.bucket_of(value) as usize])
    }
}

impl SeedStore for InvertedIndexStore {
    fn len(&self) -> usize {
        self.len
    }

    fn kind(&self) -> &'static str {
        "inverted"
    }

    fn plausible_candidates<'s>(
        &'s self,
        candidate: &Record,
        match_attributes: Option<&[usize]>,
    ) -> CandidateIter<'s> {
        let Some(matched) = match_attributes else {
            // The model gives no agreement guarantee: every record may be a
            // plausible seed (e.g. the marginal baseline).
            return CandidateIter::All(0..self.len);
        };
        // Walk attributes in descending dependency weight, keeping the ones
        // the model requires agreement on, up to max_lists posting lists.
        let mut lists: [&[u32]; MAX_INTERSECT_LISTS] = [&[]; MAX_INTERSECT_LISTS];
        let mut chosen = 0usize;
        for &attr in &self.priority {
            if chosen >= self.max_lists {
                break;
            }
            if !matched.contains(&attr) {
                continue;
            }
            match self.posting(attr, candidate.get(attr)) {
                // A candidate value outside the attribute domain, or an empty
                // bucket, matches no seed record: the empty result is sound.
                None | Some([]) => return CandidateIter::Filtered(PostingIntersection::empty()),
                Some(list) => {
                    lists[chosen] = list;
                    chosen += 1;
                }
            }
        }
        if chosen == 0 {
            // No usable agreement attribute (e.g. the model matches on an
            // empty set): fall back to the unfiltered scan.
            return CandidateIter::All(0..self.len);
        }
        CandidateIter::Filtered(PostingIntersection::new(lists, chosen))
    }
}

/// Streaming intersection of up to [`MAX_INTERSECT_LISTS`] ascending posting
/// lists: iterate the shortest list and gallop the cursors of the others.
/// Yields record indices in ascending order without allocating.
#[derive(Debug)]
pub struct PostingIntersection<'a> {
    /// The shortest chosen list — the iteration driver.
    lead: &'a [u32],
    /// Position of the next lead element to consider.
    lead_pos: usize,
    /// The other lists, each with a monotone cursor.
    others: [(&'a [u32], usize); MAX_INTERSECT_LISTS],
    other_count: usize,
}

impl<'a> PostingIntersection<'a> {
    /// Intersection of the first `count` lists of `lists`.
    fn new(mut lists: [&'a [u32]; MAX_INTERSECT_LISTS], count: usize) -> Self {
        debug_assert!((1..=MAX_INTERSECT_LISTS).contains(&count));
        // Drive iteration from the shortest list.
        let shortest = (0..count)
            .min_by_key(|&i| lists[i].len())
            .expect("count >= 1");
        lists.swap(0, shortest);
        let mut others = [(&[] as &[u32], 0usize); MAX_INTERSECT_LISTS];
        for i in 1..count {
            others[i - 1] = (lists[i], 0);
        }
        PostingIntersection {
            lead: lists[0],
            lead_pos: 0,
            others,
            other_count: count - 1,
        }
    }

    /// The empty intersection.
    fn empty() -> Self {
        PostingIntersection {
            lead: &[],
            lead_pos: 0,
            others: [(&[], 0); MAX_INTERSECT_LISTS],
            other_count: 0,
        }
    }
}

/// Advance `cursor` to the first position in `list` with `list[cursor] >=
/// target` by galloping then binary search; returns whether the value at the
/// cursor equals `target`.
fn gallop_to(list: &[u32], cursor: &mut usize, target: u32) -> bool {
    let mut step = 1usize;
    let mut hi = *cursor;
    // Exponential probe from the cursor.
    while hi < list.len() && list[hi] < target {
        *cursor = hi + 1;
        hi += step;
        step <<= 1;
    }
    let hi = hi.min(list.len());
    // Binary search inside the bracketed window [cursor, hi).
    let offset = list[*cursor..hi].partition_point(|&v| v < target);
    *cursor += offset;
    *cursor < list.len() && list[*cursor] == target
}

impl Iterator for PostingIntersection<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        'lead: while self.lead_pos < self.lead.len() {
            let value = self.lead[self.lead_pos];
            self.lead_pos += 1;
            for (list, cursor) in self.others[..self.other_count].iter_mut() {
                if !gallop_to(list, cursor, value) {
                    if *cursor >= list.len() {
                        // One list is exhausted: nothing can intersect anymore.
                        self.lead_pos = self.lead.len();
                        return None;
                    }
                    continue 'lead;
                }
            }
            return Some(value as usize);
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (
            0,
            Some(self.lead.len() - self.lead_pos.min(self.lead.len())),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgf_data::{Attribute, AttributeBuckets, Schema};
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
            Record::new(vec![1, 3, 1]),
            Record::new(vec![2, 4, 0]),
            Record::new(vec![2, 5, 1]),
            Record::new(vec![0, 0, 1]),
            Record::new(vec![3, 2, 0]),
        ];
        Dataset::from_records_unchecked(schema, rows)
    }

    fn store(weights: &[f64]) -> InvertedIndexStore {
        let data = dataset();
        let bkt = Bucketizer::identity(data.schema());
        InvertedIndexStore::build(&data, &bkt, weights, MAX_INTERSECT_LISTS).unwrap()
    }

    /// Brute-force reference: indices agreeing with `y` on all `matched` attrs.
    fn reference(y: &Record, matched: &[usize]) -> Vec<usize> {
        dataset()
            .records()
            .iter()
            .enumerate()
            .filter(|(_, r)| matched.iter().all(|&a| r.get(a) == y.get(a)))
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn intersection_matches_brute_force() {
        let store = store(&[1.0, 2.0, 0.5]);
        for y in dataset().records() {
            for matched in [
                vec![0usize],
                vec![1],
                vec![2],
                vec![0, 1],
                vec![0, 2],
                vec![0, 1, 2],
            ] {
                let got: Vec<usize> = store.plausible_candidates(y, Some(&matched)).collect();
                assert_eq!(got, reference(y, &matched), "y={y:?} matched={matched:?}");
            }
        }
    }

    #[test]
    fn no_guarantee_returns_everything() {
        let store = store(&[1.0, 1.0, 1.0]);
        let y = Record::new(vec![0, 0, 0]);
        let all: Vec<usize> = store.plausible_candidates(&y, None).collect();
        assert_eq!(all.len(), 8);
        let empty_matched: Vec<usize> = store.plausible_candidates(&y, Some(&[])).collect();
        assert_eq!(empty_matched.len(), 8);
    }

    #[test]
    fn out_of_domain_value_yields_empty() {
        let store = store(&[1.0, 1.0, 1.0]);
        let y = Record::new(vec![9, 0, 0]);
        let got: Vec<usize> = store.plausible_candidates(&y, Some(&[0])).collect();
        assert!(got.is_empty());
    }

    #[test]
    fn bucketized_attributes_return_supersets() {
        // Bucket B into pairs {0,1}, {2,3}, {4,5}: the posting list for a
        // bucketized attribute covers every record in the same bucket, a
        // superset of the exact matches.
        let data = dataset();
        let bkt = Bucketizer::identity(data.schema())
            .with_attribute(1, AttributeBuckets::fixed_width(6, 2).unwrap())
            .unwrap();
        let store = InvertedIndexStore::build(&data, &bkt, &[0.0, 5.0, 0.0], 4).unwrap();
        let y = Record::new(vec![0, 0, 0]);
        let got: Vec<usize> = store.plausible_candidates(&y, Some(&[1])).collect();
        // Records with B in {0, 1}: indices 0, 1, 6.
        assert_eq!(got, vec![0, 1, 6]);
        for idx in reference(&y, &[1]) {
            assert!(got.contains(&idx), "exact match {idx} must survive");
        }
    }

    #[test]
    fn priority_order_limits_the_lists_used() {
        // With max_lists = 1 and B weighted highest, only B's list is used.
        let data = dataset();
        let bkt = Bucketizer::identity(data.schema());
        let store = InvertedIndexStore::build(&data, &bkt, &[0.0, 5.0, 1.0], 1).unwrap();
        let y = Record::new(vec![0, 2, 0]);
        let got: Vec<usize> = store.plausible_candidates(&y, Some(&[0, 1, 2])).collect();
        // B == 2: records 2 and 7 (C and A are ignored at max_lists = 1).
        assert_eq!(got, vec![2, 7]);
    }

    #[test]
    fn build_validates_inputs() {
        let data = dataset();
        let bkt = Bucketizer::identity(data.schema());
        assert!(InvertedIndexStore::build(&data, &bkt, &[1.0, 1.0], 4).is_err());
        assert!(InvertedIndexStore::build(&data, &bkt, &[1.0, 1.0, 1.0], 0).is_err());
        // Non-finite weights would make the priority comparator a non-total
        // order (nondeterministic list selection at best): reject at build.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                InvertedIndexStore::build(&data, &bkt, &[1.0, bad, 1.0], 4).is_err(),
                "weight {bad} must be rejected"
            );
        }
        let other_schema =
            Arc::new(Schema::new(vec![Attribute::categorical_anon("X", 2)]).unwrap());
        let other_bkt = Bucketizer::identity(&other_schema);
        assert!(InvertedIndexStore::build(&data, &other_bkt, &[1.0, 1.0, 1.0], 4).is_err());
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

    #[test]
    fn apply_delta_matches_a_fresh_build() {
        let data = dataset();
        let bkt = Bucketizer::identity(data.schema())
            .with_attribute(1, AttributeBuckets::fixed_width(6, 2).unwrap())
            .unwrap();
        let store = InvertedIndexStore::build(&data, &bkt, &[1.0, 2.0, 0.5], 2).unwrap();
        let cases: Vec<(Vec<usize>, Vec<Record>, Vec<f64>)> = vec![
            // Mixed delete + insert with a weight change that flips priority.
            (
                vec![0, 3, 7],
                vec![Record::new(vec![3, 5, 1]), Record::new(vec![0, 0, 0])],
                vec![4.0, 1.0, 0.5],
            ),
            // Pure deletes, same weights.
            (vec![1, 2], vec![], vec![1.0, 2.0, 0.5]),
            // Pure inserts.
            (
                vec![],
                vec![Record::new(vec![2, 3, 0])],
                vec![1.0, 2.0, 0.5],
            ),
            // Empty delta.
            (vec![], vec![], vec![1.0, 2.0, 0.5]),
            // Full replacement.
            (
                (0..8).collect(),
                vec![Record::new(vec![1, 1, 1]), Record::new(vec![2, 2, 0])],
                vec![0.0, 0.0, 9.0],
            ),
        ];
        for (deletes, inserts, weights) in cases {
            let before = store.clone();
            let updated = store.apply_delta(&deletes, &inserts, &weights).unwrap();
            assert_eq!(store, before, "apply_delta must leave its source untouched");
            let fresh = InvertedIndexStore::build(
                &final_dataset(&data, &deletes, &inserts),
                &bkt,
                &weights,
                2,
            )
            .unwrap();
            assert_eq!(
                updated,
                fresh,
                "delta {deletes:?}/+{} must equal a fresh build",
                inserts.len()
            );
        }
    }

    #[test]
    fn apply_delta_rejects_malformed_input() {
        let store = store(&[1.0, 1.0, 1.0]);
        let w = [1.0, 1.0, 1.0];
        // Out-of-range and unsorted delete indices.
        assert!(store.apply_delta(&[8], &[], &w).is_err());
        assert!(store.apply_delta(&[2, 1], &[], &w).is_err());
        assert!(store.apply_delta(&[1, 1], &[], &w).is_err());
        // Wrong weight arity and non-finite weights.
        assert!(store.apply_delta(&[], &[], &[1.0]).is_err());
        assert!(store.apply_delta(&[], &[], &[1.0, f64::NAN, 1.0]).is_err());
        // Inserted records must fit the schema and domains.
        assert!(store
            .apply_delta(&[], &[Record::new(vec![0, 0])], &w)
            .is_err());
        assert!(store
            .apply_delta(&[], &[Record::new(vec![9, 0, 0])], &w)
            .is_err());
    }

    #[test]
    fn posting_bytes_reflects_the_dataset() {
        let store = store(&[1.0, 1.0, 1.0]);
        // 8 records x 3 attributes x 4 bytes.
        assert_eq!(store.posting_bytes(), 8 * 3 * 4);
    }
}
