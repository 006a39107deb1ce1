//! Disjoint dataset splits (Section 3 / Section 6.1).
//!
//! The pipeline samples the input dataset `D` into non-overlapping subsets:
//! `D_T` (structure learning), `D_P` (parameter learning), `D_S` (seeds for
//! synthesis) and a held-out test set used by the evaluation.  Keeping the
//! subsets disjoint is what allows the DP analysis of Section 3.5 to take the
//! *maximum* (rather than the sum) over the structure/parameter budgets.

use crate::delta::{retract_and_append, DatasetDelta};
use crate::error::{DataError, Result};
use crate::record::{Dataset, Record};
use serde::{Deserialize, Serialize};

/// Fractions of the input dataset assigned to each disjoint role.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SplitSpec {
    /// Fraction used for structure learning (`D_T`).
    pub structure: f64,
    /// Fraction used for parameter learning (`D_P`).
    pub parameters: f64,
    /// Fraction used as synthesis seeds (`D_S`).
    pub seeds: f64,
    /// Fraction held out for evaluation (never seen by the pipeline).
    pub test: f64,
}

impl SplitSpec {
    /// The proportions used in the paper's evaluation setup (Section 6.1):
    /// roughly 280k/280k/735k records for D_T/D_P/D_S out of ~1.5M plus a
    /// ~100k test set, i.e. about 19%/19%/49%/13%.
    pub fn paper_defaults() -> Self {
        SplitSpec {
            structure: 0.19,
            parameters: 0.19,
            seeds: 0.49,
            test: 0.13,
        }
    }

    /// Validate that all fractions are non-negative and sum to at most 1.
    pub fn validate(&self) -> Result<()> {
        let parts = [self.structure, self.parameters, self.seeds, self.test];
        if parts.iter().any(|p| !(0.0..=1.0).contains(p) || p.is_nan()) {
            return Err(DataError::InvalidSplit(
                "all split fractions must lie in [0, 1]".to_string(),
            ));
        }
        let total: f64 = parts.iter().sum();
        if total > 1.0 + 1e-9 {
            return Err(DataError::InvalidSplit(format!(
                "split fractions sum to {total:.3} > 1"
            )));
        }
        Ok(())
    }
}

/// The disjoint subsets produced by [`split_dataset_by_hash`].
#[derive(Debug, Clone)]
pub struct DataSplit {
    /// `D_T`: records used to learn the model structure.
    pub structure: Dataset,
    /// `D_P`: records used to learn the model parameters.
    pub parameters: Dataset,
    /// `D_S`: records used as synthesis seeds.
    pub seeds: Dataset,
    /// Held-out records for evaluation.
    pub test: Dataset,
}

impl DataSplit {
    /// Apply `delta` to this split, made by [`split_dataset_by_hash`] with
    /// `spec` and `seed`: route each ±record to the subset [`split_role`]
    /// assigns it (dropping unassigned ones, as the split does), then
    /// retract and append each subset's share ([`retract_and_append`]).
    ///
    /// Returns the new split — the hash split of the post-delta dataset,
    /// sharing every surviving record with this one — and the per-subset
    /// deltas in field order (structure, parameters, seeds, test).
    pub fn apply_delta(
        &self,
        spec: &SplitSpec,
        seed: u64,
        delta: &DatasetDelta,
    ) -> Result<(DataSplit, [DatasetDelta; 4])> {
        delta.validate_against(self.seeds.schema())?;
        let mut parts: [DatasetDelta; 4] =
            std::array::from_fn(|_| DatasetDelta::new(self.seeds.schema_arc()));
        for record in delta.deletes() {
            if let Some(slot) = split_role(spec, seed, record).slot() {
                parts[slot].deletes.push(record.clone());
            }
        }
        for record in delta.inserts() {
            if let Some(slot) = split_role(spec, seed, record).slot() {
                parts[slot].inserts.push(record.clone());
            }
        }
        let apply = |subset: &Dataset, part: &DatasetDelta| {
            retract_and_append(subset, &part.deletes, &part.inserts).map(|(_, data)| data)
        };
        let split = DataSplit {
            structure: apply(&self.structure, &parts[0])?,
            parameters: apply(&self.parameters, &parts[1])?,
            seeds: apply(&self.seeds, &parts[2])?,
            test: apply(&self.test, &parts[3])?,
        };
        Ok((split, parts))
    }
}

/// The disjoint role a record is assigned by the deterministic hash split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SplitRole {
    /// `D_T`: structure learning.
    Structure,
    /// `D_P`: parameter learning.
    Parameters,
    /// `D_S`: synthesis seeds.
    Seeds,
    /// Held-out evaluation records.
    Test,
    /// Not assigned to any subset (fractions summing below 1 leave a remainder).
    Unassigned,
}

impl SplitRole {
    /// The role's position among [`DataSplit`]'s fields (`None` for
    /// [`SplitRole::Unassigned`]).
    fn slot(self) -> Option<usize> {
        match self {
            SplitRole::Structure => Some(0),
            SplitRole::Parameters => Some(1),
            SplitRole::Seeds => Some(2),
            SplitRole::Test => Some(3),
            SplitRole::Unassigned => None,
        }
    }
}

/// FNV-1a over the record values, finished with the splitmix64 avalanche so
/// low-cardinality attribute values still spread over the full 64-bit range.
fn role_hash(seed: u64, values: &[u16]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for &v in values {
        h = (h ^ u64::from(v)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    // splitmix64 finalizer.
    h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// The role of `record` under the deterministic hash split.
///
/// The role is a pure function of the record's *values* and the split seed —
/// never of the record's position or of the rest of the dataset.  That is
/// what makes splits delta-maintainable: deleting or inserting a record moves
/// exactly that record in exactly one subset, so an incremental update and a
/// from-scratch re-split of the final dataset agree byte-for-byte.  Identical
/// records always share a role, which keeps value-matched deletions
/// unambiguous.
///
/// The record's hash is mapped to a unit-interval coordinate and compared to
/// the cumulative fractions of `spec` in declaration order
/// (structure, parameters, seeds, test); any remainder is [`SplitRole::Unassigned`].
pub fn split_role(spec: &SplitSpec, seed: u64, record: &Record) -> SplitRole {
    // 53 high bits give an exactly-representable coordinate in [0, 1).
    let unit = (role_hash(seed, record.values()) >> 11) as f64 / (1u64 << 53) as f64;
    let mut cut = spec.structure;
    if unit < cut {
        return SplitRole::Structure;
    }
    cut += spec.parameters;
    if unit < cut {
        return SplitRole::Parameters;
    }
    cut += spec.seeds;
    if unit < cut {
        return SplitRole::Seeds;
    }
    cut += spec.test;
    if unit < cut {
        return SplitRole::Test;
    }
    SplitRole::Unassigned
}

/// Partition `dataset` into the four disjoint subsets with the deterministic
/// hash split: each record's role comes from [`split_role`], and every subset
/// keeps its records in dataset order.
///
/// Subset sizes concentrate around the requested fractions (binomially) rather
/// than matching them exactly; in exchange the split commutes with dataset
/// deltas, which the incremental `update` path in `sgf-core` relies on.
pub fn split_dataset_by_hash(dataset: &Dataset, spec: &SplitSpec, seed: u64) -> Result<DataSplit> {
    spec.validate()?;
    if dataset.is_empty() {
        return Err(DataError::EmptyDataset);
    }
    let schema = dataset.schema_arc();
    let mut parts: [Vec<Record>; 4] = Default::default();
    for record in dataset.records() {
        if let Some(slot) = split_role(spec, seed, record).slot() {
            parts[slot].push(record.clone());
        }
    }
    let [structure, parameters, seeds, test] = parts;
    Ok(DataSplit {
        structure: Dataset::from_records_unchecked(schema.clone(), structure),
        parameters: Dataset::from_records_unchecked(schema.clone(), parameters),
        seeds: Dataset::from_records_unchecked(schema.clone(), seeds),
        test: Dataset::from_records_unchecked(schema, test),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Record;
    use crate::schema::{Attribute, Schema};
    use std::collections::HashSet;
    use std::sync::Arc;

    fn dataset(n: usize) -> Dataset {
        let schema =
            Arc::new(Schema::new(vec![Attribute::numerical("ID", 0, (n as i64) - 1)]).unwrap());
        let records = (0..n).map(|i| Record::new(vec![i as u16])).collect();
        Dataset::from_records_unchecked(schema, records)
    }

    #[test]
    fn paper_defaults_are_valid() {
        assert!(SplitSpec::paper_defaults().validate().is_ok());
    }

    #[test]
    fn invalid_fractions_rejected() {
        let bad = SplitSpec {
            structure: 0.5,
            parameters: 0.5,
            seeds: 0.5,
            test: 0.0,
        };
        assert!(bad.validate().is_err());
        let nan = SplitSpec {
            structure: f64::NAN,
            parameters: 0.1,
            seeds: 0.1,
            test: 0.1,
        };
        assert!(nan.validate().is_err());
    }

    #[test]
    fn splits_are_disjoint_and_sized() {
        let d = dataset(1000);
        let split = split_dataset_by_hash(&d, &SplitSpec::paper_defaults(), 3).unwrap();
        let mut seen: HashSet<u16> = HashSet::new();
        // Sizes concentrate binomially around the 19 / 19 / 49 / 13% fractions.
        for (part, expected) in [
            (&split.structure, 190.0),
            (&split.parameters, 190.0),
            (&split.seeds, 490.0),
            (&split.test, 130.0),
        ] {
            assert!(
                (part.len() as f64 - expected).abs() < 60.0,
                "{}",
                part.len()
            );
            for r in part.records() {
                assert!(seen.insert(r.get(0)), "record appears in two splits");
            }
        }
        assert_eq!(seen.len(), 1000);
    }

    #[test]
    fn empty_dataset_rejected() {
        let d = dataset(5).truncated(0);
        assert!(split_dataset_by_hash(&d, &SplitSpec::paper_defaults(), 3).is_err());
    }

    #[test]
    fn hash_split_is_deterministic_and_order_preserving() {
        let d = dataset(1000);
        let spec = SplitSpec::paper_defaults();
        let a = split_dataset_by_hash(&d, &spec, 7).unwrap();
        let b = split_dataset_by_hash(&d, &spec, 7).unwrap();
        let mut seen: HashSet<u16> = HashSet::new();
        let mut total = 0usize;
        for (x, y) in [
            (&a.structure, &b.structure),
            (&a.parameters, &b.parameters),
            (&a.seeds, &b.seeds),
            (&a.test, &b.test),
        ] {
            assert_eq!(x.records(), y.records());
            total += x.len();
            let mut last = None;
            for r in x.records() {
                assert!(seen.insert(r.get(0)), "record appears in two splits");
                // Subset order must be dataset order (values are 0..n here).
                if let Some(prev) = last {
                    assert!(r.get(0) > prev);
                }
                last = Some(r.get(0));
            }
        }
        // Paper fractions sum to 1.0, so every record is assigned.
        assert_eq!(total, 1000);
        // Sizes concentrate near the requested fractions.
        assert!((a.seeds.len() as f64 - 490.0).abs() < 60.0);
        // A different seed shuffles the assignment.
        let c = split_dataset_by_hash(&d, &spec, 8).unwrap();
        assert_ne!(a.seeds.records(), c.seeds.records());
    }

    #[test]
    fn hash_split_roles_depend_only_on_record_values() {
        let d = dataset(50);
        let spec = SplitSpec::paper_defaults();
        for r in d.records() {
            assert_eq!(split_role(&spec, 3, r), split_role(&spec, 3, r));
        }
        // Fractions below 1 leave a remainder unassigned.
        let partial = SplitSpec {
            structure: 0.0,
            parameters: 0.0,
            seeds: 0.0,
            test: 0.0,
        };
        for r in d.records() {
            assert_eq!(split_role(&partial, 3, r), SplitRole::Unassigned);
        }
    }

    #[test]
    fn hash_split_commutes_with_record_changes() {
        use crate::delta::DatasetDelta;
        let d = dataset(400);
        let spec = SplitSpec::paper_defaults();
        let before = split_dataset_by_hash(&d, &spec, 11).unwrap();

        let mut delta = DatasetDelta::new(d.schema_arc());
        delta.delete(d.record(17).clone()).unwrap();
        delta.delete(d.record(230).clone()).unwrap();
        delta.insert(Record::new(vec![17])).unwrap();
        let final_dataset = delta.apply(&d).unwrap();
        let after = split_dataset_by_hash(&final_dataset, &spec, 11).unwrap();

        // Applying the delta to the split gives the split of the final
        // dataset, and each changed record lands in its role's subset delta.
        let (applied, parts) = before.apply_delta(&spec, 11, &delta).unwrap();
        for (x, y) in [
            (&applied.structure, &after.structure),
            (&applied.parameters, &after.parameters),
            (&applied.seeds, &after.seeds),
            (&applied.test, &after.test),
        ] {
            assert_eq!(x.records(), y.records());
        }
        let routed: usize = parts
            .iter()
            .map(|p| p.deletes.len() + p.inserts.len())
            .sum();
        assert_eq!(routed, 3);

        // Re-splitting the final dataset touches only the roles of the changed
        // records: every other subset is unchanged record-for-record.
        for (x, y) in [
            (&before.structure, &after.structure),
            (&before.parameters, &after.parameters),
            (&before.seeds, &after.seeds),
            (&before.test, &after.test),
        ] {
            let changed: HashSet<u16> = [17u16, 230].into_iter().collect();
            let xs: Vec<u16> = x
                .records()
                .iter()
                .map(|r| r.get(0))
                .filter(|v| !changed.contains(v))
                .collect();
            let ys: Vec<u16> = y
                .records()
                .iter()
                .map(|r| r.get(0))
                .filter(|v| !changed.contains(v))
                .collect();
            assert_eq!(xs, ys);
        }
    }
}
