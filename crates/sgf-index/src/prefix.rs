//! The σ-prefix seed store: one range lookup per privacy test, for every ω.
//!
//! The seed-based synthesizer keeps the first `m − ω` attributes of its
//! dependency order σ and re-samples the rest.  A seed therefore has non-zero
//! generation probability for a candidate `y` only when it agrees with `y` on
//! that σ-prefix, and every seed that does agree has the *same* probability
//! (a product of conditionals of `y` alone).  The plausible set of a privacy
//! test is thus exactly "the seeds sharing `y`'s σ-prefix", and the
//! γ-partition check is vacuous.
//!
//! This store keeps the seeds' σ-tuples (their values in σ order) as a
//! sorted multiset: value columns in lexicographic order, and no seed
//! indices.  The seeds matching `y` on any σ-prefix are then one contiguous
//! range of that order, found by narrowing a binary search attribute by
//! attribute — an implicit trie whose nodes are ranges.  Lookups cost
//! O(depth · log n) whatever ω a request uses, so a single store serves every
//! ω of a session.
//!
//! The privacy test then needs only the range's length `K`: with no cap it
//! counts `min(K, limit)`, where `limit` is where the stopping rule ends the
//! count, and under a `max_check_plausible` cap it draws the plausible count
//! of a uniform cap-subset from its hypergeometric law, which `K` fixes.
//! Equal σ-tuples are interchangeable, so a deleted seed is one copy fewer
//! of its tuple and an inserted seed one copy more.
//!
//! The count shortcut ([`SeedStore::prefix_count`]) applies to a model
//! whose exact-match set is a σ-prefix and whose likelihood set lies inside
//! it (`L ⊆ EM`), the soundness argument of
//! [`ClassMatchCache`](crate::ClassMatchCache), and to a seed-independent
//! model (`L = ∅`, e.g. the marginal baseline), whose plausible set is every
//! seed.  Any other model scans: [`SeedStore::plausible_candidates`] yields
//! every seed.

use crate::store::{CandidateIter, SeedStore};
use sgf_data::{DataError, Dataset, Record};
use std::ops::Range;

/// The seeds' σ-tuples as a sorted multiset (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixIndexStore {
    /// The attribute order σ the seeds are sorted by (distinct attributes).
    order: Vec<usize>,
    /// Number of seeds: one copy of a σ-tuple each.
    len: usize,
    /// `columns[j][i]` is attribute `order[j]` of the `i`-th smallest
    /// σ-tuple: column `j` is ascending inside every range that shares the
    /// first `j` values.
    columns: Vec<Vec<u16>>,
}

impl PrefixIndexStore {
    /// Sort `seeds` by their values in attribute order `order` (typically σ,
    /// the topological order of the dependency graph).  One stable counting
    /// sort per attribute, least significant first, so the build is
    /// O(|order| · (n + domain)) with no limit on the key width.
    ///
    /// Every attribute must exist in the seed schema and appear once.
    pub fn build(seeds: &Dataset, order: &[usize]) -> Result<Self, DataError> {
        let start = std::time::Instant::now();
        check_order(order, seeds.schema().len())?;
        let raw: Vec<Vec<u16>> = order
            .iter()
            .map(|&attr| {
                let mut column = Vec::with_capacity(seeds.len());
                for rows in seeds.slices() {
                    column.extend(rows.iter().map(|r| r.get(attr)));
                }
                column
            })
            .collect();
        let mut sorted: Vec<usize> = (0..seeds.len()).collect();
        let mut scratch = vec![0; sorted.len()];
        for column in raw.iter().rev() {
            let domain = column.iter().copied().max().map_or(0, |v| v as usize + 1);
            let mut offsets = vec![0usize; domain + 1];
            for &v in column {
                offsets[v as usize + 1] += 1;
            }
            for d in 1..offsets.len() {
                offsets[d] += offsets[d - 1];
            }
            for &idx in &sorted {
                let slot = &mut offsets[column[idx] as usize];
                scratch[*slot] = idx;
                *slot += 1;
            }
            std::mem::swap(&mut sorted, &mut scratch);
        }
        let columns = raw
            .iter()
            .map(|column| sorted.iter().map(|&idx| column[idx]).collect())
            .collect();
        let store = PrefixIndexStore {
            order: order.to_vec(),
            len: seeds.len(),
            columns,
        };
        sgf_metrics::counter("index.prefix.builds").incr();
        sgf_metrics::timer("index.prefix.build").observe(start.elapsed());
        sgf_metrics::trace().record(
            "index.prefix.build",
            &[("store", "prefix")],
            &[
                ("records", store.len as u64),
                ("depth", store.order.len() as u64),
            ],
            start.elapsed(),
        );
        Ok(store)
    }

    /// Apply a seed-data delta: each of `deletes` removes one copy of its
    /// σ-tuple and each of `inserts` adds one, in any order.  Returns a store
    /// equal to a from-scratch [`build`](PrefixIndexStore::build) over the
    /// final seed dataset with the same order.  Deleting a tuple more often
    /// than the store holds it is an error.
    ///
    /// A change of σ is not a delta: rebuild the store instead.
    pub fn apply_delta(&self, deletes: &[Record], inserts: &[Record]) -> Result<Self, DataError> {
        let start = std::time::Instant::now();
        if let Some(&widest) = self.order.iter().max() {
            if let Some(short) = deletes.iter().chain(inserts).find(|r| r.len() <= widest) {
                return Err(DataError::InvalidParameter(format!(
                    "delta record has {} attributes but the order needs {}",
                    short.len(),
                    widest + 1
                )));
            }
        }
        // The `c` deletes of one tuple drop the first `c` copies of its
        // full-depth range; distinct tuples have disjoint ranges.
        let depth = self.order.len();
        let mut hits: Vec<Range<usize>> = deletes.iter().map(|r| self.range(r, depth)).collect();
        hits.sort_unstable_by_key(|run| (run.start, run.end));
        let mut dead = Vec::new();
        for group in hits.chunk_by(|a, b| a == b) {
            let held = &group[0];
            if group.len() > held.len() {
                return Err(DataError::InvalidParameter(format!(
                    "delta deletes {} copies of a σ-tuple the store holds {} times",
                    group.len(),
                    held.len()
                )));
            }
            dead.push(held.start..held.start + group.len());
        }
        // Each insert goes after every held tuple ≤ its own (the end of its
        // full-depth range), so sorted inserts reach ascending points.
        let mut fresh: Vec<&Record> = inserts.iter().collect();
        fresh.sort_unstable_by(|a, b| {
            let values = self.order.iter().map(|&attr| a.get(attr));
            values.cmp(self.order.iter().map(|&attr| b.get(attr)))
        });
        // The final order as runs of surviving positions and single inserts.
        let mut pieces = Vec::with_capacity(2 * (dead.len() + fresh.len()) + 1);
        let mut dead = dead.into_iter().peekable();
        let mut from = 0;
        for (at, record) in fresh
            .into_iter()
            .map(|record| (self.range(record, depth).end, Some(record)))
            .chain(std::iter::once((self.len, None)))
        {
            while let Some(run) = dead.next_if(|run| run.start < at) {
                if from < run.start {
                    pieces.push(Piece::Kept(from..run.start));
                }
                from = run.end;
            }
            if from < at {
                pieces.push(Piece::Kept(from..at));
                from = at;
            }
            if let Some(record) = record {
                pieces.push(Piece::Inserted(record));
            }
        }
        let len = self.len - deletes.len() + inserts.len();
        let columns = self
            .columns
            .iter()
            .zip(&self.order)
            .map(|(old, &attr)| {
                let mut column = Vec::with_capacity(len);
                for piece in &pieces {
                    match piece {
                        Piece::Kept(run) => column.extend_from_slice(&old[run.clone()]),
                        Piece::Inserted(record) => column.push(record.get(attr)),
                    }
                }
                column
            })
            .collect();
        let store = PrefixIndexStore {
            order: self.order.clone(),
            len,
            columns,
        };
        sgf_metrics::counter("index.prefix.delta_applies").incr();
        sgf_metrics::timer("index.prefix.apply_delta").observe(start.elapsed());
        Ok(store)
    }

    /// The attribute order σ the store is sorted by.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// The σ-tuples agreeing with `candidate` on the first `depth`
    /// attributes of the order, as positions into the sorted columns: each
    /// level narrows the parent range to the run of the candidate's value.
    fn range(&self, candidate: &Record, depth: usize) -> Range<usize> {
        let (mut lo, mut hi) = (0, self.len);
        for (column, &attr) in self.columns.iter().zip(&self.order[..depth]) {
            if lo == hi {
                break;
            }
            let value = candidate.get(attr);
            let run = &column[lo..hi];
            let first = run.partition_point(|&v| v < value);
            let end = first + run[first..].partition_point(|&v| v == value);
            hi = lo + end;
            lo += first;
        }
        lo..hi
    }

    /// `Some(depth)` when `attributes` is, as a set, exactly the first
    /// `depth` attributes of the order.
    fn prefix_depth(&self, attributes: &[usize]) -> Option<usize> {
        let prefix = self.order.get(..attributes.len())?;
        // Equal lengths: covering every prefix attribute rules out both
        // duplicates and attributes outside the prefix.
        (attributes == prefix || prefix.iter().all(|a| attributes.contains(a)))
            .then_some(attributes.len())
    }
}

/// One step of [`PrefixIndexStore::apply_delta`]'s merged order.
enum Piece<'r> {
    /// A run of surviving positions of the current order.
    Kept(Range<usize>),
    /// An inserted record.
    Inserted(&'r Record),
}

/// An order must list distinct attributes of the schema.
fn check_order(order: &[usize], m: usize) -> Result<(), DataError> {
    if let Some(&bad) = order.iter().find(|&&a| a >= m) {
        return Err(DataError::InvalidParameter(format!(
            "order attribute {bad} is out of range for a schema with {m} attributes"
        )));
    }
    if let Some((i, _)) = order
        .iter()
        .enumerate()
        .find(|(i, a)| order[..*i].contains(a))
    {
        return Err(DataError::InvalidParameter(format!(
            "order lists attribute {} twice",
            order[i]
        )));
    }
    Ok(())
}

impl SeedStore for PrefixIndexStore {
    fn len(&self) -> usize {
        self.len
    }

    fn kind(&self) -> &'static str {
        "prefix"
    }

    fn plausible_candidates<'s>(
        &'s self,
        _candidate: &Record,
        _match_attributes: Option<&[usize]>,
    ) -> CandidateIter<'s> {
        CandidateIter::All(0..self.len)
    }

    fn prefix_count(
        &self,
        candidate: &Record,
        likelihood_attributes: Option<&[usize]>,
        match_attributes: Option<&[usize]>,
    ) -> Option<usize> {
        let likelihood = likelihood_attributes?;
        // A seed-independent model gives every seed the same probability.
        if likelihood.is_empty() {
            return Some(self.len);
        }
        let matched = match_attributes?;
        let depth = self.prefix_depth(matched)?;
        if likelihood != matched && !likelihood.iter().all(|a| matched.contains(a)) {
            return None;
        }
        Some(self.range(candidate, depth).len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgf_data::{Attribute, Schema};
    use std::sync::Arc;

    fn dataset(rows: &[[u16; 3]]) -> Dataset {
        let schema = Arc::new(
            Schema::new(vec![
                Attribute::categorical_anon("A", 4),
                Attribute::categorical_anon("B", 6),
                Attribute::categorical_anon("C", 3),
            ])
            .unwrap(),
        );
        let records = rows.iter().map(|r| Record::new(r.to_vec())).collect();
        Dataset::from_records_unchecked(schema, records)
    }

    fn rows() -> Vec<[u16; 3]> {
        vec![
            [0, 0, 0],
            [1, 2, 0],
            [0, 1, 1],
            [1, 2, 1],
            [0, 0, 2],
            [3, 5, 0],
            [0, 0, 0],
        ]
    }

    /// Number of records agreeing with `y` on `attrs`.
    fn matching(rows: &[[u16; 3]], y: &Record, attrs: &[usize]) -> usize {
        rows.iter()
            .filter(|row| attrs.iter().all(|&a| row[a] == y.get(a)))
            .count()
    }

    #[test]
    fn build_sorts_by_order_values_then_index() {
        let store = PrefixIndexStore::build(&dataset(&rows()), &[2, 0, 1]).unwrap();
        assert_eq!(store.len(), 7);
        assert_eq!(store.kind(), "prefix");
        assert_eq!(store.order(), &[2, 0, 1]);
        // σ-tuples (C, A, B), ascending: (0,0,0) twice, (0,1,2), (0,3,5),
        // (1,0,1), (1,1,2), (2,0,0).  Equal tuples carry no seed index.
        assert_eq!(store.columns[0], vec![0, 0, 0, 0, 1, 1, 2]);
        assert_eq!(store.columns[1], vec![0, 0, 1, 3, 0, 1, 0]);
        assert_eq!(store.columns[2], vec![0, 0, 2, 5, 1, 2, 0]);
    }

    #[test]
    fn build_rejects_bad_orders() {
        let data = dataset(&rows());
        assert!(PrefixIndexStore::build(&data, &[0, 3]).is_err());
        assert!(PrefixIndexStore::build(&data, &[1, 0, 1]).is_err());
        assert!(PrefixIndexStore::build(&data, &[]).is_ok());
    }

    #[test]
    fn every_prefix_is_one_range_of_matching_seeds() {
        let rows = rows();
        let store = PrefixIndexStore::build(&dataset(&rows), &[1, 0, 2]).unwrap();
        for y in [[0u16, 0, 0], [1, 2, 1], [0, 1, 2], [2, 4, 0], [3, 5, 0]] {
            let y = Record::new(y.to_vec());
            for depth in 0..=3 {
                let kept = &store.order()[..depth];
                let got = store.prefix_count(&y, Some(kept), Some(kept));
                assert_eq!(
                    got,
                    Some(matching(&rows, &y, kept)),
                    "y {y:?} depth {depth}"
                );
            }
        }
    }

    #[test]
    fn prefix_members_requires_a_prefix_and_contained_likelihood() {
        let store = PrefixIndexStore::build(&dataset(&rows()), &[1, 0, 2]).unwrap();
        let y = Record::new(vec![0, 0, 0]);
        // The prefix as a set, in any order.
        assert!(store.prefix_count(&y, Some(&[0]), Some(&[0, 1])).is_some());
        // Not a prefix: attribute 0 alone skips σ[0] = 1.
        assert!(store.prefix_count(&y, Some(&[0]), Some(&[0])).is_none());
        // Same length as the prefix, but a duplicate hides σ[1].
        assert!(store.prefix_count(&y, Some(&[1]), Some(&[1, 1])).is_none());
        // Likelihood reads an attribute outside the exact-match set.
        assert!(store.prefix_count(&y, Some(&[2]), Some(&[1])).is_none());
        // No likelihood guarantee, or a prefix with no exact-match set.
        assert!(store.prefix_count(&y, None, Some(&[1])).is_none());
        assert!(store.prefix_count(&y, Some(&[1]), None).is_none());
        // The empty prefix, and a seed-independent model whatever its
        // exact-match set, is every seed.
        for matched in [Some(&[][..]), None, Some(&[0][..])] {
            assert_eq!(store.prefix_count(&y, Some(&[]), matched), Some(7));
        }
    }

    #[test]
    fn plausible_candidates_are_every_seed() {
        let store = PrefixIndexStore::build(&dataset(&rows()), &[1, 0, 2]).unwrap();
        let y = Record::new(vec![0, 0, 2]);
        for matched in [None, Some(&[1][..]), Some(&[1, 0, 2][..])] {
            let iter = store.plausible_candidates(&y, matched);
            assert!(!iter.is_filtered());
            assert_eq!(iter.collect::<Vec<_>>(), (0..7).collect::<Vec<_>>());
        }
    }

    /// The canonical final dataset of a delta: survivors in order, then
    /// inserts (mirrors `sgf_data::DatasetDelta::apply`).
    fn final_rows(base: &[[u16; 3]], deletes: &[usize], inserts: &[[u16; 3]]) -> Vec<[u16; 3]> {
        let mut rows: Vec<[u16; 3]> = base
            .iter()
            .enumerate()
            .filter(|(i, _)| !deletes.contains(i))
            .map(|(_, r)| *r)
            .collect();
        rows.extend_from_slice(inserts);
        rows
    }

    #[test]
    fn apply_delta_matches_a_fresh_build() {
        let base = rows();
        let store = PrefixIndexStore::build(&dataset(&base), &[1, 0, 2]).unwrap();
        let cases: Vec<(Vec<usize>, Vec<[u16; 3]>)> = vec![
            (vec![0, 3], vec![[0, 0, 0], [3, 5, 2], [0, 0, 0]]),
            (vec![], vec![[1, 0, 0]]),
            (vec![1, 2, 6], vec![]),
            (vec![], vec![]),
            ((0..7).collect(), vec![[2, 2, 2], [0, 0, 0]]),
        ];
        let record = |r: &[u16; 3]| Record::new(r.to_vec());
        for (deletes, inserts) in cases {
            // Deletes name records, not positions, and may come in any order.
            let deleted: Vec<Record> = deletes.iter().rev().map(|&i| record(&base[i])).collect();
            let records: Vec<Record> = inserts.iter().map(record).collect();
            let updated = store.apply_delta(&deleted, &records).unwrap();
            let fresh = PrefixIndexStore::build(
                &dataset(&final_rows(&base, &deletes, &inserts)),
                &[1, 0, 2],
            )
            .unwrap();
            assert_eq!(updated, fresh, "delta -{deletes:?} +{inserts:?}");
        }
    }

    #[test]
    fn apply_delta_rejects_malformed_input() {
        let store = PrefixIndexStore::build(&dataset(&rows()), &[1, 0, 2]).unwrap();
        let held = Record::new(vec![0, 0, 0]);
        // A tuple the store does not hold.
        assert!(store
            .apply_delta(&[Record::new(vec![2, 2, 2])], &[])
            .is_err());
        // More deletes of one tuple than its two copies; two are fine.
        assert!(store
            .apply_delta(&[held.clone(), held.clone()], &[])
            .is_ok());
        let thrice = [held.clone(), held.clone(), held.clone()];
        assert!(store.apply_delta(&thrice, &[]).is_err());
        // A short record, as a delete or as an insert.
        assert!(store.apply_delta(&[Record::new(vec![0, 0])], &[]).is_err());
        assert!(store.apply_delta(&[], &[Record::new(vec![0, 0])]).is_err());
    }
}
