//! Records and datasets.
//!
//! A [`Record`] is a fixed-width vector of value indices, one per schema
//! attribute.  A [`Dataset`] bundles records with the [`Schema`] they conform
//! to and provides the sampling / splitting primitives required by the
//! synthesis pipeline (the paper's `D`, `D_S`, `D_T`, `D_P` sets).

use crate::error::{DataError, Result};
use crate::schema::Schema;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::num::NonZeroU16;
use std::sync::{Arc, OnceLock};

/// Most values a record stores inline; wider records keep theirs on the heap.
const INLINE_VALUES: usize = 15;

/// A single data record: value indices against a schema.
///
/// Records of up to 15 attributes (the ACS schema has 11) store their values
/// inline, so a record owns no heap allocation and a `Vec<Record>` is one
/// row-major arena with a 32-byte stride: cloning, copying a run of records
/// and dropping a batch never touch the allocator per record.  Wider records
/// keep their values in a `Vec<u16>`.  The storage is private and each value
/// sequence has exactly one representation, so equality and hashing are
/// those of [`values`](Record::values).
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Record {
    values: Values,
}

/// A record's value storage: inline up to [`INLINE_VALUES`], else the heap.
///
/// A sequence of at most [`INLINE_VALUES`] values is always `Inline`, and
/// the inline slots past the length are always zero, so two storages are
/// equal exactly when their value sequences are: the derived comparison of
/// two inline records is a fixed-size compare of 32 bytes.
#[derive(Clone, PartialEq, Eq)]
enum Values {
    Inline {
        values: [u16; INLINE_VALUES],
        /// The number of values plus one.  Zero never occurs here, so the
        /// enum marks its `Heap` arm with it instead of a separate tag
        /// byte: the record stays 32 bytes, and cloning an inline record
        /// copies its two fields (a tag byte beside a `u8` length measured
        /// about twice as slow to clone in bulk).
        len_plus_one: NonZeroU16,
    },
    Heap(Vec<u16>),
}

impl Record {
    /// Build a record from raw value indices (no schema validation; use
    /// [`Dataset::push`] or [`Record::validated`] when validation is required).
    pub fn new(values: Vec<u16>) -> Self {
        if values.len() > INLINE_VALUES {
            return Record {
                values: Values::Heap(values),
            };
        }
        let mut inline = [0u16; INLINE_VALUES];
        inline[..values.len()].copy_from_slice(&values);
        Record {
            values: Values::Inline {
                values: inline,
                len_plus_one: NonZeroU16::MIN.saturating_add(values.len() as u16),
            },
        }
    }

    /// Build a record and validate it against a schema.
    pub fn validated(values: Vec<u16>, schema: &Schema) -> Result<Self> {
        schema.validate_values(&values)?;
        Ok(Record::new(values))
    }

    /// Value index of attribute `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u16 {
        self.values()[i]
    }

    /// Set the value index of attribute `i`.
    #[inline]
    pub fn set(&mut self, i: usize, value: u16) {
        let values = match &mut self.values {
            Values::Inline {
                values,
                len_plus_one,
            } => &mut values[..usize::from(len_plus_one.get() - 1)],
            Values::Heap(values) => values.as_mut_slice(),
        };
        values[i] = value;
    }

    /// Number of attributes in the record.
    #[inline]
    pub fn len(&self) -> usize {
        self.values().len()
    }

    /// Whether the record has zero attributes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values().is_empty()
    }

    /// Raw value slice.
    #[inline]
    pub fn values(&self) -> &[u16] {
        match &self.values {
            Values::Inline {
                values,
                len_plus_one,
            } => &values[..usize::from(len_plus_one.get() - 1)],
            Values::Heap(values) => values,
        }
    }

    /// The first value, or 0 for a record with none: one load, without
    /// forming the value slice (an inline record's unused slots are zero).
    #[inline]
    pub(crate) fn first_or_zero(&self) -> u16 {
        match &self.values {
            Values::Inline { values, .. } => values[0],
            Values::Heap(values) => values.first().map_or(0, |&v| v),
        }
    }

    /// Number of attribute positions on which two records differ.
    pub fn hamming_distance(&self, other: &Record) -> usize {
        self.values()
            .iter()
            .zip(other.values().iter())
            .filter(|(a, b)| a != b)
            .count()
    }
}

impl Hash for Record {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // The bytes a derived hash of a `values: Vec<u16>` field feeds.
        self.values().hash(state);
    }
}

impl fmt::Debug for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Record")
            .field("values", &self.values())
            .finish()
    }
}

impl From<Vec<u16>> for Record {
    fn from(values: Vec<u16>) -> Self {
        Record::new(values)
    }
}

/// Most runs a dataset holds: a derivation that would leave more compacts
/// them into one block.
const MAX_RUNS: usize = 64;

/// A run of a dataset's records: the rows `start..end` of a shared block,
/// at dataset positions `at..at + (end - start)`.
#[derive(Debug, Clone)]
struct Run {
    block: Arc<Vec<Record>>,
    start: usize,
    end: usize,
    at: usize,
}

impl Run {
    fn rows(&self) -> &[Record] {
        &self.block[self.start..self.end]
    }
}

/// Append the rows `start..end` of `block` to `runs`, unless they are none.
fn push_run(runs: &mut Vec<Run>, block: &Arc<Vec<Record>>, start: usize, end: usize) {
    if start < end {
        let at = runs.last().map_or(0, |run| run.at + run.end - run.start);
        runs.push(Run {
            block: Arc::clone(block),
            start,
            end,
            at,
        });
    }
}

/// A dataset: a schema plus a collection of records conforming to it.
///
/// Records live in a rope of at most 64 runs, each a range of rows of a
/// block shared behind `Arc`.  Each block is a flat row arena: records store
/// their values inline (see [`Record`]), so a block is one contiguous
/// allocation, and copying or dropping a run of records makes no allocator
/// call per record.  Cloning a dataset copies its run list, and a derived
/// dataset shares every record its parent keeps:
/// [`with_appended`](Dataset::with_appended) adds one run, and
/// [`retract_and_append`](crate::retract_and_append) splits the runs its
/// deletes land in, so an incremental session update
/// (`SynthesisSession::update` in `sgf-core`) copies no surviving record.
/// A derivation past 64 runs compacts the rope into one block.  The runs are
/// invisible to readers: [`record`](Dataset::record) finds a row by a binary
/// search of the run offsets (one run: an index), [`iter`](Dataset::iter)
/// and [`slices`](Dataset::slices) walk the runs in order, and
/// [`records`](Dataset::records) returns one contiguous slice, materializing
/// (and caching) the concatenation on first use when there is more than one
/// run.
#[derive(Debug, Clone)]
pub struct Dataset {
    schema: Arc<Schema>,
    /// Non-empty runs in record order.
    runs: Vec<Run>,
    len: usize,
    /// The runs' concatenation, materialized lazily by
    /// [`records`](Dataset::records) when there is more than one run.
    /// `OnceLock<Arc<_>>` keeps clones cheap: a clone either copies the
    /// cached handle or re-materializes on demand.
    full: OnceLock<Arc<Vec<Record>>>,
}

impl Dataset {
    fn from_base(schema: Arc<Schema>, base: Vec<Record>) -> Self {
        let len = base.len();
        let mut runs = Vec::new();
        push_run(&mut runs, &Arc::new(base), 0, len);
        Dataset::from_runs(schema, runs)
    }

    /// Assemble a dataset from runs built by [`push_run`], compacting them
    /// into one block past [`MAX_RUNS`].
    fn from_runs(schema: Arc<Schema>, runs: Vec<Run>) -> Self {
        let len = runs.last().map_or(0, |run| run.at + run.end - run.start);
        let mut dataset = Dataset {
            schema,
            runs,
            len,
            full: OnceLock::new(),
        };
        if dataset.runs.len() > MAX_RUNS {
            let block = Arc::new(dataset.flattened());
            dataset.runs.clear();
            push_run(&mut dataset.runs, &block, 0, len);
        }
        dataset
    }

    /// Create an empty dataset over a schema.
    pub fn new(schema: Arc<Schema>) -> Self {
        Dataset::from_base(schema, Vec::new())
    }

    /// Create a dataset from pre-validated records.
    pub fn from_records(schema: Arc<Schema>, records: Vec<Record>) -> Result<Self> {
        for r in &records {
            schema.validate_values(r.values())?;
        }
        Ok(Dataset::from_base(schema, records))
    }

    /// Create a dataset without re-validating records.
    ///
    /// Intended for internal fast paths where the records were just produced
    /// against the same schema (e.g. by the synthesizer).
    pub fn from_records_unchecked(schema: Arc<Schema>, records: Vec<Record>) -> Self {
        Dataset::from_base(schema, records)
    }

    /// The runs' records copied into one block.
    fn flattened(&self) -> Vec<Record> {
        let mut records = Vec::with_capacity(self.len);
        for run in &self.runs {
            records.extend_from_slice(run.rows());
        }
        records
    }

    /// Derive the dataset with `extra` records appended, sharing every
    /// existing record with `self` — O(|extra|) plus a copy of the run list,
    /// the incremental-ingest fast path.  Records are validated against the
    /// schema.
    pub fn with_appended(&self, extra: Vec<Record>) -> Result<Dataset> {
        for r in &extra {
            self.schema.validate_values(r.values())?;
        }
        Ok(self.derive(&[], extra))
    }

    /// Derive the dataset without the records at `positions` (ascending,
    /// distinct, in range) and with `extra` appended.  Each retracted
    /// position splits the run it lands in, so the survivors stay shared
    /// with `self`; `extra` becomes one new run.
    pub(crate) fn derive(&self, positions: &[usize], extra: Vec<Record>) -> Dataset {
        let mut runs = Vec::with_capacity(self.runs.len() + positions.len() + 1);
        let mut positions = positions.iter().peekable();
        for run in &self.runs {
            let run_end = run.at + run.end - run.start;
            let mut from = run.start;
            while let Some(&position) = positions.next_if(|&&p| p < run_end) {
                let cut = run.start + (position - run.at);
                push_run(&mut runs, &run.block, from, cut);
                from = cut + 1;
            }
            push_run(&mut runs, &run.block, from, run.end);
        }
        let extra_len = extra.len();
        push_run(&mut runs, &Arc::new(extra), 0, extra_len);
        Dataset::from_runs(self.schema_arc(), runs)
    }

    /// The records as contiguous slices, one per run, in record order: a
    /// pass over them reads every record without materializing the
    /// concatenation, at the speed of a pass over one slice.
    pub fn slices(&self) -> impl Iterator<Item = &[Record]> {
        self.runs.iter().map(Run::rows)
    }

    /// The schema of this dataset.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Shared handle to the schema.
    pub fn schema_arc(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the dataset holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Records slice.  With more than one run this materializes (once) the
    /// contiguous concatenation; prefer [`record`](Dataset::record) for point
    /// lookups and [`iter`](Dataset::iter) for passes, which never copy.
    pub fn records(&self) -> &[Record] {
        match &self.runs[..] {
            [] => &[],
            [run] => run.rows(),
            _ => self.full.get_or_init(|| Arc::new(self.flattened())),
        }
    }

    /// The records in order, read run by run without materializing them.
    pub fn iter(&self) -> impl Iterator<Item = &Record> {
        self.slices().flatten()
    }

    /// Record at index `i`.
    ///
    /// # Panics
    ///
    /// If `i` is not below [`len`](Dataset::len).
    pub fn record(&self, i: usize) -> &Record {
        if let [run] = &self.runs[..] {
            return &run.rows()[i];
        }
        assert!(
            i < self.len,
            "record {i} out of range for {} records",
            self.len
        );
        let run = &self.runs[self.runs.partition_point(|run| run.at <= i) - 1];
        &run.block[run.start + (i - run.at)]
    }

    /// Append a record after validating it against the schema.
    pub fn push(&mut self, record: Record) -> Result<()> {
        self.schema.validate_values(record.values())?;
        self.push_unchecked(record);
        Ok(())
    }

    /// Append a record without validation (caller guarantees conformity).
    /// The runs collapse into one uniquely-owned block first, which is O(1)
    /// when this dataset is one whole block it shares with no other dataset.
    pub fn push_unchecked(&mut self, record: Record) {
        let whole = matches!(&self.runs[..], [run] if run.start == 0 && run.end == run.block.len());
        if !whole {
            let block = match self.full.take() {
                Some(full) => full,
                None => Arc::new(self.flattened()),
            };
            self.runs = vec![Run {
                block,
                start: 0,
                end: self.len,
                at: 0,
            }];
        }
        self.full = OnceLock::new();
        let run = &mut self.runs[0];
        Arc::make_mut(&mut run.block).push(record);
        run.end += 1;
        self.len += 1;
    }

    /// Iterate over the value indices of attribute `col` across all records.
    pub fn column(&self, col: usize) -> impl Iterator<Item = u16> + '_ {
        self.iter().map(move |r| r.get(col))
    }

    /// Uniformly sample one record (the seed selection step of Mechanism 1).
    pub fn sample_record<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<&Record> {
        if self.is_empty() {
            return Err(DataError::EmptyDataset);
        }
        let idx = rng.gen_range(0..self.len());
        Ok(self.record(idx))
    }

    /// Number of records whose exact value combination occurs exactly once in
    /// the dataset (Table 2's "unique records").
    pub fn singleton_count(&self) -> usize {
        use std::collections::HashMap;
        let mut counts: HashMap<&[u16], usize> = HashMap::with_capacity(self.len());
        for r in self.iter() {
            *counts.entry(r.values()).or_insert(0) += 1;
        }
        counts.values().filter(|&&c| c == 1).count()
    }

    /// Concatenate two datasets sharing the same schema.
    pub fn concat(&self, other: &Dataset) -> Result<Dataset> {
        if self.schema.as_ref() != other.schema.as_ref() {
            return Err(DataError::InvalidParameter(
                "cannot concatenate datasets with different schemas".to_string(),
            ));
        }
        let records = self.iter().chain(other.iter()).cloned().collect();
        Ok(Dataset::from_records_unchecked(self.schema_arc(), records))
    }

    /// Keep only the first `n` records.
    pub fn truncated(&self, n: usize) -> Dataset {
        Dataset::from_records_unchecked(self.schema_arc(), self.iter().take(n).cloned().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn schema() -> Arc<Schema> {
        Arc::new(
            Schema::new(vec![
                Attribute::categorical("A", &["a0", "a1", "a2"]),
                Attribute::categorical("B", &["b0", "b1"]),
            ])
            .unwrap(),
        )
    }

    fn dataset() -> Dataset {
        let s = schema();
        let mut d = Dataset::new(Arc::clone(&s));
        for (a, b) in [(0u16, 0u16), (1, 1), (2, 0), (2, 0), (0, 1)] {
            d.push(Record::new(vec![a, b])).unwrap();
        }
        d
    }

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        value.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn records_are_32_bytes() {
        assert_eq!(std::mem::size_of::<Record>(), 32);
    }

    #[test]
    fn inline_and_heap_records_agree_with_their_values() {
        for width in [3usize, 15, 16] {
            let mut values: Vec<u16> = (0..width as u16).map(|v| v * 3 + 1).collect();
            let mut record = Record::new(values.clone());
            assert_eq!(record.len(), values.len());
            assert_eq!(record.values(), values.as_slice());
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(record.get(i), v);
            }
            record.set(width - 1, 999);
            values[width - 1] = 999;
            assert_eq!(record.values(), values.as_slice());
            assert_eq!(record.get(width - 1), 999);
            assert_eq!(record, Record::from(values.clone()));
            assert_eq!(record.clone(), record);
            values[0] += 1;
            assert_ne!(record, Record::new(values));
        }
        // Records of different widths differ even where one is a prefix.
        assert_ne!(Record::new(vec![1, 2]), Record::new(vec![1, 2, 0]));
        assert!(Record::new(Vec::new()).is_empty());
    }

    #[test]
    #[should_panic]
    fn set_past_the_end_panics() {
        Record::new(vec![0, 1, 2]).set(3, 7);
    }

    #[test]
    fn equal_records_hash_equal_and_like_their_values() {
        for width in [3usize, 15, 16] {
            let values: Vec<u16> = (0..width as u16).collect();
            let a = Record::new(values.clone());
            let mut b = Record::new(vec![0; width]);
            for (i, &v) in values.iter().enumerate() {
                b.set(i, v);
            }
            assert_eq!(a, b);
            assert_eq!(hash_of(&a), hash_of(&b));
            // The bytes a derived hash over a `Vec<u16>` field feeds.
            assert_eq!(hash_of(&a), hash_of(&values));
        }
    }

    #[test]
    fn debug_prints_the_value_sequence() {
        assert_eq!(
            format!("{:?}", Record::new(vec![1, 2, 3])),
            "Record { values: [1, 2, 3] }"
        );
        let wide: Vec<u16> = (0..16).collect();
        assert_eq!(
            format!("{:?}", Record::new(wide.clone())),
            format!("Record {{ values: {wide:?} }}")
        );
    }

    #[test]
    fn push_validates_domain() {
        let mut d = Dataset::new(schema());
        assert!(d.push(Record::new(vec![0, 1])).is_ok());
        assert!(d.push(Record::new(vec![3, 0])).is_err());
        assert!(d.push(Record::new(vec![0])).is_err());
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn column_iterates_values() {
        let d = dataset();
        let col: Vec<u16> = d.column(0).collect();
        assert_eq!(col, vec![0, 1, 2, 2, 0]);
    }

    #[test]
    fn distinct_and_singleton_counts() {
        let d = dataset();
        // (2,0) appears twice, the other three exactly once.
        assert_eq!(d.singleton_count(), 3);
    }

    #[test]
    fn sampling_respects_bounds() {
        let d = dataset();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let r = d.sample_record(&mut rng).unwrap();
            assert!(r.get(0) < 3 && r.get(1) < 2);
        }
    }

    #[test]
    fn empty_dataset_sampling_errors() {
        let d = Dataset::new(schema());
        let mut rng = StdRng::seed_from_u64(1);
        assert!(d.sample_record(&mut rng).is_err());
    }

    #[test]
    fn hamming_distance_counts_differences() {
        let a = Record::new(vec![0, 1, 2, 3]);
        let b = Record::new(vec![0, 2, 2, 0]);
        assert_eq!(a.hamming_distance(&b), 2);
        assert_eq!(a.hamming_distance(&a), 0);
    }

    #[test]
    fn concat_requires_same_schema() {
        let d = dataset();
        let other_schema =
            Arc::new(Schema::new(vec![Attribute::categorical("X", &["x"])]).unwrap());
        let other = Dataset::new(other_schema);
        assert!(d.concat(&other).is_err());
        let merged = d.concat(&d).unwrap();
        assert_eq!(merged.len(), 2 * d.len());
    }

    #[test]
    fn truncated_keeps_prefix() {
        let d = dataset();
        assert_eq!(d.truncated(2).len(), 2);
        assert_eq!(d.truncated(100).len(), d.len());
    }

    #[test]
    fn with_appended_shares_the_base_and_reads_contiguously() {
        let d = dataset();
        let extra = vec![Record::new(vec![1, 0]), Record::new(vec![2, 1])];
        let appended = d.with_appended(extra.clone()).unwrap();
        // The base block is shared, not copied.
        assert!(Arc::ptr_eq(&d.runs[0].block, &appended.runs[0].block));
        assert_eq!(appended.runs.len(), 2);
        assert_eq!(appended.len(), d.len() + 2);
        // Point lookups and passes resolve without materializing the
        // concatenation.
        assert_eq!(appended.record(0), d.record(0));
        assert_eq!(appended.record(d.len()), &extra[0]);
        assert_eq!(appended.iter().count(), d.len() + 2);
        assert!(appended.full.get().is_none());
        // The contiguous view equals an explicit concatenation.
        let mut expect = d.records().to_vec();
        expect.extend(extra);
        assert_eq!(appended.records(), expect.as_slice());
        // Appending nothing is a cheap clone of the whole dataset.
        let same = d.with_appended(Vec::new()).unwrap();
        assert!(Arc::ptr_eq(&d.runs[0].block, &same.runs[0].block));
        assert_eq!(same.len(), d.len());
    }

    #[test]
    fn chained_appends_keep_sharing_the_base() {
        let d = dataset();
        let once = d.with_appended(vec![Record::new(vec![0, 0])]).unwrap();
        let twice = once.with_appended(vec![Record::new(vec![1, 1])]).unwrap();
        assert!(Arc::ptr_eq(&d.runs[0].block, &twice.runs[0].block));
        assert!(Arc::ptr_eq(&once.runs[1].block, &twice.runs[1].block));
        assert_eq!(twice.len(), d.len() + 2);
        let mut expect = d.records().to_vec();
        expect.push(Record::new(vec![0, 0]));
        expect.push(Record::new(vec![1, 1]));
        assert_eq!(twice.records(), expect.as_slice());
    }

    /// `model` after `deletes` retract the first remaining occurrence of
    /// their values and `inserts` are appended, with the retracted positions
    /// (ascending); `None` when a delete has no occurrence left.
    fn model_step(
        model: &[Record],
        deletes: &[Record],
        inserts: &[Record],
    ) -> Option<(Vec<usize>, Vec<Record>)> {
        let mut retracted = vec![false; model.len()];
        for del in deletes {
            let position = (0..model.len()).find(|&i| !retracted[i] && model[i] == *del)?;
            retracted[position] = true;
        }
        let positions = (0..model.len()).filter(|&i| retracted[i]).collect();
        let mut next: Vec<Record> = (0..model.len())
            .filter(|&i| !retracted[i])
            .map(|i| model[i].clone())
            .collect();
        next.extend_from_slice(inserts);
        Some((positions, next))
    }

    #[test]
    fn roped_chains_read_like_a_flat_vector() {
        let schema = Arc::new(
            Schema::new(vec![
                Attribute::categorical_anon("A", 40),
                Attribute::categorical_anon("B", 4),
            ])
            .unwrap(),
        );
        let mut rng = StdRng::seed_from_u64(41);
        let draw = |rng: &mut StdRng| Record::new(vec![rng.gen_range(0..40), rng.gen_range(0..4)]);
        let base: Vec<Record> = (0..300).map(|_| draw(&mut rng)).collect();
        let mut data = Dataset::from_records_unchecked(Arc::clone(&schema), base.clone());
        let mut model = base;
        let (mut compactions, mut failures) = (0, 0);
        for step in 0..600 {
            let inserts: Vec<Record> = (0..rng.gen_range(0..6)).map(|_| draw(&mut rng)).collect();
            // Deletes land on run edges, inside insert runs (every run past
            // the first), anywhere at random, and now and then on a value the
            // dataset no longer holds.
            let mut deletes = Vec::new();
            for _ in 0..rng.gen_range(0..7) {
                if data.is_empty() {
                    break;
                }
                let run = &data.runs[rng.gen_range(0..data.runs.len())];
                let position = match rng.gen_range(0..3) {
                    0 => run.at,
                    1 => run.at + run.end - run.start - 1,
                    _ => rng.gen_range(0..data.len()),
                };
                deletes.push(data.record(position).clone());
            }
            if step % 50 == 7 {
                deletes.push(draw(&mut rng));
            }
            let expected = model_step(&model, &deletes, &inserts);
            let result = if deletes.is_empty() {
                data.with_appended(inserts.clone()).map(|d| (Vec::new(), d))
            } else {
                crate::delta::retract_and_append(&data, &deletes, &inserts)
            };
            let (positions, next) = match (result, expected) {
                (Ok(derived), Some(expected)) => {
                    assert_eq!(derived.0, expected.0, "step {step}: retracted positions");
                    model = expected.1;
                    derived
                }
                (Err(_), None) => {
                    failures += 1;
                    continue;
                }
                (result, expected) => panic!(
                    "step {step}: the rope returned {:?}, the model {:?}",
                    result.map(|r| r.0),
                    expected.map(|e| e.0)
                ),
            };
            // A derivation shrinks the run count by at most one a delete;
            // dropping to one run from more than that is a compaction.
            if next.runs.len() == 1 && data.runs.len() > 1 + positions.len() {
                compactions += 1;
            }
            assert!(
                next.runs.len() <= MAX_RUNS,
                "step {step}: {} runs",
                next.runs.len()
            );
            assert_eq!(next.len(), model.len(), "step {step}");
            for (i, record) in model.iter().enumerate() {
                assert_eq!(next.record(i), record, "step {step}, record {i}");
            }
            assert!(next.iter().eq(model.iter()), "step {step}");
            assert_eq!(next.records(), model.as_slice(), "step {step}");
            data = next;
        }
        assert!(compactions >= 3, "{compactions} compactions");
        assert!(failures >= 3, "{failures} failed deletes");
    }

    #[test]
    fn with_appended_validates_and_push_after_append_flattens() {
        let d = dataset();
        assert!(d.with_appended(vec![Record::new(vec![9, 0])]).is_err());
        let mut appended = d.with_appended(vec![Record::new(vec![2, 1])]).unwrap();
        // Mutation collapses the segments without disturbing the parent.
        appended.push(Record::new(vec![0, 0])).unwrap();
        assert_eq!(appended.len(), d.len() + 2);
        assert_eq!(d.len(), 5);
        assert_eq!(
            appended.record(appended.len() - 1),
            &Record::new(vec![0, 0])
        );
    }
}
