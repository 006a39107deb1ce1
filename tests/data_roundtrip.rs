//! Property-based integration tests on the data substrate: CSV round-trips,
//! schema validation, and the delete rule of dataset deltas across crates.

use proptest::prelude::*;
use sgf::data::acs::{acs_schema, AcsGenerator};
use sgf::data::{
    apply_deletes, csv, retract_and_append, Attribute, DataError, Dataset, DatasetDelta, Record,
    Schema,
};
use std::sync::Arc;

/// Two attributes with 3 × 2 values, so random rows repeat often.
fn small_schema() -> Arc<Schema> {
    Arc::new(
        Schema::new(vec![
            Attribute::categorical_anon("A", 3),
            Attribute::categorical_anon("B", 2),
        ])
        .unwrap(),
    )
}

fn rows(pairs: &[(u16, u16)]) -> Vec<Record> {
    pairs
        .iter()
        .map(|&(a, b)| Record::new(vec![a, b]))
        .collect()
}

/// The delete rule as a delete-by-delete scan: each delete retracts the
/// first remaining occurrence of its value.  Returns the retracted
/// positions (ascending), or the error text of the first delete with no
/// remaining occurrence.
fn oracle_retracted(records: &[Record], deletes: &[Record]) -> Result<Vec<usize>, String> {
    let mut removed = vec![false; records.len()];
    for del in deletes {
        match (0..records.len()).find(|&i| !removed[i] && records[i] == *del) {
            Some(i) => removed[i] = true,
            None => {
                return Err(DataError::InvalidParameter(format!(
                    "delta deletes a record with no remaining occurrence: {:?}",
                    del.values()
                ))
                .to_string())
            }
        }
    }
    Ok((0..records.len()).filter(|&i| removed[i]).collect())
}

/// Check every delete path against the oracle on `base ++ tail`, where the
/// tail is appended with `Dataset::with_appended`.
fn check_against_oracle(base: &[(u16, u16)], tail: &[(u16, u16)], deletes: &[(u16, u16)]) {
    let schema = small_schema();
    let (base, tail, deletes) = (rows(base), rows(tail), rows(deletes));
    let inserts = rows(&[(2, 1), (0, 0)]);
    let dataset = Dataset::from_records_unchecked(Arc::clone(&schema), base)
        .with_appended(tail)
        .unwrap();
    let all = dataset.records().to_vec();
    let mut delta = DatasetDelta::new(Arc::clone(&schema));
    for del in &deletes {
        delta.delete(del.clone()).unwrap();
    }
    for ins in &inserts {
        delta.insert(ins.clone()).unwrap();
    }
    match oracle_retracted(&all, &deletes) {
        Ok(retracted) => {
            let survivors: Vec<usize> = (0..all.len()).filter(|i| !retracted.contains(i)).collect();
            let mut expected: Vec<Record> = survivors.iter().map(|&i| all[i].clone()).collect();
            expected.extend(inserts.iter().cloned());
            assert_eq!(apply_deletes(&all, &deletes).unwrap(), survivors);
            let (positions, applied) = retract_and_append(&dataset, &deletes, &inserts).unwrap();
            assert_eq!(positions, retracted);
            assert_eq!(applied.records(), expected.as_slice());
            assert_eq!(
                delta.apply(&dataset).unwrap().records(),
                expected.as_slice()
            );
        }
        Err(text) => {
            assert_eq!(apply_deletes(&all, &deletes).unwrap_err().to_string(), text);
            let err = retract_and_append(&dataset, &deletes, &inserts).unwrap_err();
            assert_eq!(err.to_string(), text);
            assert_eq!(delta.apply(&dataset).unwrap_err().to_string(), text);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any dataset of in-domain ACS records survives a CSV write/read round-trip.
    #[test]
    fn csv_roundtrip_preserves_acs_records(seed in 0u64..5000, n in 1usize..40) {
        use rand::SeedableRng;
        let generator = AcsGenerator::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data = generator.generate(n, &mut rng).unwrap();
        let mut buffer = Vec::new();
        csv::write_csv(&data, &mut buffer).unwrap();
        let parsed = csv::read_csv(generator.schema(), &buffer[..]).unwrap();
        prop_assert_eq!(parsed.records(), data.records());
    }

    /// Schema validation rejects any record with an out-of-domain value.
    #[test]
    fn out_of_domain_values_are_rejected(attr in 0usize..11, bump in 1u16..100) {
        let schema = Arc::new(acs_schema());
        let mut values: Vec<u16> = (0..11).map(|_| 0u16).collect();
        values[attr] = schema.cardinality(attr) as u16 + bump - 1;
        let mut dataset = Dataset::new(Arc::clone(&schema));
        prop_assert!(dataset.push(Record::new(values)).is_err());
    }

    /// The one-pass delete resolver retracts exactly what a delete-by-delete
    /// scan retracts, across the base and an appended tail, and fails with
    /// the same error text when a delete has no remaining occurrence.
    #[test]
    fn one_pass_deletes_match_the_per_delete_scan(
        base in proptest::collection::vec((0u16..3, 0u16..2), 0..30),
        tail in proptest::collection::vec((0u16..3, 0u16..2), 0..8),
        deletes in proptest::collection::vec((0u16..3, 0u16..2), 0..14),
    ) {
        check_against_oracle(&base, &tail, &deletes);
    }
}

#[test]
fn unresolvable_deletes_name_the_same_record_as_the_per_delete_scan() {
    // One too many copies of a duplicate: the third (1, 1) fails.
    check_against_oracle(
        &[(1, 1), (0, 0)],
        &[(1, 1)],
        &[(1, 1), (0, 0), (1, 1), (1, 1)],
    );
    // Two failing values: the scan stops at the earlier failing delete,
    // which is the second (2, 0), not the first (0, 1).
    check_against_oracle(&[(2, 0), (0, 1)], &[], &[(0, 1), (2, 0), (2, 0), (0, 1)]);
    // A value absent from the dataset.
    check_against_oracle(&[(0, 0)], &[(0, 0)], &[(0, 0), (2, 1)]);
    let err = retract_and_append(
        &Dataset::from_records_unchecked(small_schema(), rows(&[(0, 0)])),
        &rows(&[(0, 0), (0, 0)]),
        &[],
    )
    .unwrap_err();
    assert_eq!(
        err.to_string(),
        "invalid parameter: delta deletes a record with no remaining occurrence: [0, 0]"
    );
}
