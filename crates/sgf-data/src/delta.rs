//! Z-set-style dataset deltas (incremental seed-data updates).
//!
//! The paper's pipeline assumes a fixed input dataset, but long-lived serving
//! sessions see their seed data change: a few records arrive, a few are
//! retracted.  Following DBSP's Z-set formulation, a [`DatasetDelta`] is a
//! signed multiset of records — insertions with weight `+1` and deletions with
//! weight `-1` — validated against the schema up front so downstream consumers
//! (count merges, posting-list surgery, class moves) never see an
//! out-of-domain value.
//!
//! Applying a delta produces the *canonical final dataset*: the original
//! record order with each deletion removing the first remaining occurrence of
//! its record, and all insertions appended at the end in delta order.  Every
//! incremental consumer in the workspace maintains its state to be
//! **byte-identical** to a from-scratch rebuild on this canonical dataset,
//! which is what makes the incremental-vs-retrain equivalence provable.

use crate::error::{DataError, Result};
use crate::record::{Dataset, Record};
use crate::schema::Schema;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A signed multiset of record changes against one schema.
///
/// Deletions are matched *by value*: deleting a record removes the first
/// remaining occurrence of an identical record from the dataset, so duplicate
/// records are retracted one multiplicity at a time (Z-set semantics).  The
/// insertion order is part of the delta's identity — inserted records are
/// appended to the dataset in exactly this order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetDelta {
    schema: Arc<Schema>,
    pub(crate) inserts: Vec<Record>,
    pub(crate) deletes: Vec<Record>,
}

impl DatasetDelta {
    /// An empty delta against `schema`.
    pub fn new(schema: Arc<Schema>) -> Self {
        DatasetDelta {
            schema,
            inserts: Vec::new(),
            deletes: Vec::new(),
        }
    }

    /// Schema the delta was built against.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Stage a record insertion (weight `+1`); the record is validated against
    /// the schema immediately.
    pub fn insert(&mut self, record: Record) -> Result<()> {
        self.schema.validate_values(record.values())?;
        self.inserts.push(record);
        Ok(())
    }

    /// Stage a record deletion (weight `-1`); the record is validated against
    /// the schema immediately.
    pub fn delete(&mut self, record: Record) -> Result<()> {
        self.schema.validate_values(record.values())?;
        self.deletes.push(record);
        Ok(())
    }

    /// Records inserted by this delta, in append order.
    pub fn inserts(&self) -> &[Record] {
        &self.inserts
    }

    /// Records deleted by this delta, in retraction order.
    pub fn deletes(&self) -> &[Record] {
        &self.deletes
    }

    /// Whether the delta stages no changes.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Total number of staged changes (`|Δ|`, counting multiplicity).
    pub fn change_count(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// Check that this delta targets a dataset with the same schema.
    pub fn validate_against(&self, schema: &Schema) -> Result<()> {
        if *schema != *self.schema {
            return Err(DataError::InvalidParameter(
                "delta schema does not match the dataset schema".to_string(),
            ));
        }
        Ok(())
    }

    /// Apply the delta to `dataset`, producing the canonical final dataset:
    /// surviving records keep their original relative order, then insertions
    /// are appended in delta order.  Fails if a deletion has no remaining
    /// occurrence to retract.
    pub fn apply(&self, dataset: &Dataset) -> Result<Dataset> {
        self.validate_against(dataset.schema())?;
        retract_and_append(dataset, &self.deletes, &self.inserts).map(|(_, data)| data)
    }
}

/// Retract `deletes` from `dataset` by value and append `inserts` after the
/// survivors — [`DatasetDelta::apply`]'s rule on one dataset.  Returns the
/// **retracted** positions (ascending) together with the new dataset.
///
/// The new dataset shares every surviving record with `dataset`: each
/// retracted position splits the run it lands in, and the inserts become one
/// new run ([`Dataset`]'s rope), so no survivor is copied until the runs
/// pass their bound and compact.  Without deletes the cost is O(|inserts|)
/// ([`Dataset::with_appended`], which also validates the inserts).
/// Otherwise the deletes are resolved in one pass over the rows, read run by
/// run, so a roped dataset is never materialized.
pub fn retract_and_append(
    dataset: &Dataset,
    deletes: &[Record],
    inserts: &[Record],
) -> Result<(Vec<usize>, Dataset)> {
    if deletes.is_empty() {
        return Ok((Vec::new(), dataset.with_appended(inserts.to_vec())?));
    }
    let retracted = retracted_positions(dataset.slices(), deletes)?;
    let derived = dataset.derive(&retracted, inserts.to_vec());
    Ok((retracted, derived))
}

/// Resolve `deletes` against `records` by value, retracting the first
/// remaining occurrence of each deleted record.  Returns the indices of the
/// surviving records in ascending (original) order.
///
/// This is the shared matching rule for every incremental consumer: the index
/// stores use the complementary *deleted* index set to splice posting lists
/// and class member lists, and the model counts subtract exactly these
/// records.
pub fn apply_deletes(records: &[Record], deletes: &[Record]) -> Result<Vec<usize>> {
    let retracted = retracted_positions([records], deletes)?;
    let mut next = retracted.iter().peekable();
    Ok((0..records.len())
        .filter(|&i| next.next_if_eq(&&i).is_none())
        .collect())
}

/// The bit of a record's first value in a 64-bit mask: the cheap key rows
/// are filtered on before a full record compare.
fn first_value_bit(record: &Record) -> u64 {
    1 << (record.first_or_zero() & 63)
}

/// The positions (ascending) `deletes` retract from `runs`, read in order as
/// one sequence of rows.  Each delete retracts the first remaining
/// occurrence of its value, so one pass over the rows resolves them all: a
/// row retracts the earliest unresolved delete of its value.  The pass stops
/// as soon as every delete is resolved.  A row is compared in full only
/// with the unresolved deletes, and only when the bit of its first value is
/// in their mask, so most rows cost one load and one test; at worst the pass
/// is O(n · |deletes|), the bound of a delete-by-delete scan.
///
/// A delete with no remaining occurrence fails, naming the earliest
/// unresolved delete in delta order — the one a delete-by-delete scan stops
/// at, since the deletes of one value resolve in delta order.
fn retracted_positions<'a>(
    runs: impl IntoIterator<Item = &'a [Record]>,
    deletes: &[Record],
) -> Result<Vec<usize>> {
    if deletes.is_empty() {
        return Ok(Vec::new());
    }
    let mut pending: Vec<&Record> = deletes.iter().collect();
    let mask_of = |pending: &[&Record]| pending.iter().fold(0, |m, &del| m | first_value_bit(del));
    let mut mask = mask_of(&pending);
    let mut positions = Vec::with_capacity(deletes.len());
    let mut offset = 0;
    'runs: for run in runs {
        for (i, row) in run.iter().enumerate() {
            if mask & first_value_bit(row) == 0 {
                continue;
            }
            if let Some(k) = pending.iter().position(|&del| del == row) {
                pending.remove(k);
                positions.push(offset + i);
                if pending.is_empty() {
                    break 'runs;
                }
                mask = mask_of(&pending);
            }
        }
        offset += run.len();
    }
    match pending.first() {
        None => Ok(positions),
        Some(del) => Err(DataError::InvalidParameter(format!(
            "delta deletes a record with no remaining occurrence: {:?}",
            del.values()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;

    fn schema() -> Arc<Schema> {
        Arc::new(
            Schema::new(vec![
                Attribute::categorical_anon("A", 4),
                Attribute::categorical_anon("B", 3),
            ])
            .unwrap(),
        )
    }

    fn dataset(rows: &[[u16; 2]]) -> Dataset {
        let records = rows.iter().map(|r| Record::new(r.to_vec())).collect();
        Dataset::from_records_unchecked(schema(), records)
    }

    #[test]
    fn apply_appends_inserts_and_retracts_first_occurrences() {
        let d = dataset(&[[0, 0], [1, 1], [0, 0], [2, 2]]);
        let mut delta = DatasetDelta::new(schema());
        delta.delete(Record::new(vec![0, 0])).unwrap();
        delta.insert(Record::new(vec![3, 1])).unwrap();
        let out = delta.apply(&d).unwrap();
        let values: Vec<&[u16]> = out.records().iter().map(|r| r.values()).collect();
        assert_eq!(values, vec![&[1, 1][..], &[0, 0], &[2, 2], &[3, 1]]);
    }

    #[test]
    fn duplicate_deletes_retract_one_multiplicity_each() {
        let d = dataset(&[[0, 0], [0, 0], [1, 1]]);
        let mut delta = DatasetDelta::new(schema());
        delta.delete(Record::new(vec![0, 0])).unwrap();
        delta.delete(Record::new(vec![0, 0])).unwrap();
        let out = delta.apply(&d).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.record(0).values(), &[1, 1]);
    }

    #[test]
    fn deleting_a_missing_record_fails() {
        let d = dataset(&[[0, 0]]);
        let mut delta = DatasetDelta::new(schema());
        delta.delete(Record::new(vec![1, 1])).unwrap();
        assert!(delta.apply(&d).is_err());
        // One delete too many for the multiplicity present.
        let mut twice = DatasetDelta::new(schema());
        twice.delete(Record::new(vec![0, 0])).unwrap();
        twice.delete(Record::new(vec![0, 0])).unwrap();
        assert!(twice.apply(&d).is_err());
    }

    #[test]
    fn out_of_domain_records_are_rejected_at_staging() {
        let mut delta = DatasetDelta::new(schema());
        assert!(delta.insert(Record::new(vec![4, 0])).is_err());
        assert!(delta.delete(Record::new(vec![0, 3])).is_err());
        assert!(delta.insert(Record::new(vec![0])).is_err());
        assert!(delta.is_empty());
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let other = Arc::new(Schema::new(vec![Attribute::categorical_anon("X", 2)]).unwrap());
        let d = dataset(&[[0, 0]]);
        let mut delta = DatasetDelta::new(other);
        delta.insert(Record::new(vec![1])).unwrap();
        assert!(delta.apply(&d).is_err());
    }

    #[test]
    fn counts_and_emptiness() {
        let mut delta = DatasetDelta::new(schema());
        assert!(delta.is_empty());
        assert_eq!(delta.change_count(), 0);
        delta.insert(Record::new(vec![1, 1])).unwrap();
        delta.delete(Record::new(vec![0, 0])).unwrap();
        assert!(!delta.is_empty());
        assert_eq!(delta.change_count(), 2);
        assert_eq!(delta.inserts().len(), 1);
        assert_eq!(delta.deletes().len(), 1);
    }
}
