//! The size-neutral delta generator behind the ingest workloads.
//!
//! [`LiveSet`] mirrors the server's dataset exactly: records in canonical
//! order (survivors keep their relative order, inserts append), deletes
//! retracting the first remaining occurrence of a value — the rule of
//! `sgf_data::DatasetDelta::apply`.  Each delta inserts fresh ACS draws and
//! deletes as many records drawn uniformly from the live multiset, so the
//! dataset keeps its size and no delete can ever miss.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sgf_data::acs::AcsGenerator;
use sgf_data::{Dataset, DatasetDelta, Record, Schema};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// The live dataset, kept in canonical order, plus the ACS draw stream that
/// feeds fresh inserts.
pub struct LiveSet {
    /// Every record ever present, by canonical position; `None` once deleted.
    slots: Vec<Option<Record>>,
    /// Live positions of each value, ascending (first occurrence first).
    by_value: HashMap<Record, BTreeSet<usize>>,
    /// Live positions in arbitrary order, for uniform sampling.
    live: Vec<usize>,
    /// Index of each live position inside `live`.
    where_live: HashMap<usize, usize>,
    generator: AcsGenerator,
    rng: StdRng,
    schema: Arc<Schema>,
}

impl LiveSet {
    /// Start from `dataset`; `seed` drives which records get deleted and
    /// which fresh records get inserted.
    pub fn new(dataset: &Dataset, seed: u64) -> Self {
        let mut set = LiveSet {
            slots: Vec::with_capacity(dataset.len()),
            by_value: HashMap::new(),
            live: Vec::with_capacity(dataset.len()),
            where_live: HashMap::new(),
            generator: AcsGenerator::new(),
            rng: StdRng::seed_from_u64(seed),
            schema: dataset.schema_arc(),
        };
        for record in dataset.records() {
            set.push(record.clone());
        }
        set
    }

    fn push(&mut self, record: Record) {
        let position = self.slots.len();
        self.by_value
            .entry(record.clone())
            .or_default()
            .insert(position);
        self.where_live.insert(position, self.live.len());
        self.live.push(position);
        self.slots.push(Some(record));
    }

    /// Retract the first live occurrence of `value`; false when none is live.
    fn retract(&mut self, value: &Record) -> bool {
        let Some(positions) = self.by_value.get_mut(value) else {
            return false;
        };
        let Some(first) = positions.pop_first() else {
            return false;
        };
        if positions.is_empty() {
            self.by_value.remove(value);
        }
        self.slots[first] = None;
        let at = self
            .where_live
            .remove(&first)
            .expect("a live position is indexed");
        self.live.swap_remove(at);
        if let Some(&moved) = self.live.get(at) {
            self.where_live.insert(moved, at);
        }
        true
    }

    /// Draw the next size-neutral delta (`changes` deletes of live records,
    /// `changes` fresh inserts) and apply it to the mirror.
    pub fn next_delta(&mut self, changes: usize) -> (Vec<Record>, Vec<Record>) {
        let mut deletes = Vec::with_capacity(changes);
        for _ in 0..changes.min(self.live.len()) {
            let pick = self.live[self.rng.gen_range(0..self.live.len())];
            let value = self.slots[pick]
                .clone()
                .expect("sampled positions are live");
            assert!(self.retract(&value), "a sampled value is live");
            deletes.push(value);
        }
        let inserts: Vec<Record> = (0..changes)
            .map(|_| self.generator.generate_record(&mut self.rng))
            .collect();
        for record in &inserts {
            self.push(record.clone());
        }
        (deletes, inserts)
    }

    /// The same change as a validated [`DatasetDelta`].
    pub fn to_delta(&self, deletes: &[Record], inserts: &[Record]) -> DatasetDelta {
        let mut delta = DatasetDelta::new(Arc::clone(&self.schema));
        for record in deletes {
            delta
                .delete(record.clone())
                .expect("live records are in-domain");
        }
        for record in inserts {
            delta
                .insert(record.clone())
                .expect("ACS draws are in-domain");
        }
        delta
    }

    /// The live dataset in canonical order — what a from-scratch train on the
    /// post-delta data sees.
    pub fn dataset(&self) -> Dataset {
        let records = self.slots.iter().flatten().cloned().collect();
        Dataset::from_records_unchecked(Arc::clone(&self.schema), records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgf_data::acs::generate_acs;

    #[test]
    fn deltas_never_delete_a_record_that_is_not_live() {
        // Few records and many rounds, so duplicates and re-deletes of
        // freshly inserted records both occur.
        let base = generate_acs(60, 3);
        let mut live = LiveSet::new(&base, 11);
        let mut canonical = base.clone();
        for _ in 0..300 {
            let (deletes, inserts) = live.next_delta(10);
            assert_eq!(deletes.len(), 10);
            let delta = live.to_delta(&deletes, &inserts);
            canonical = delta
                .apply(&canonical)
                .expect("every delete names a live record");
            assert_eq!(canonical.len(), base.len(), "deltas are size-neutral");
        }
        assert_eq!(live.dataset().records(), canonical.records());
    }

    #[test]
    fn the_same_seed_draws_the_same_deltas() {
        let base = generate_acs(200, 5);
        let mut a = LiveSet::new(&base, 9);
        let mut b = LiveSet::new(&base, 9);
        for _ in 0..20 {
            assert_eq!(a.next_delta(10), b.next_delta(10));
        }
    }
}
