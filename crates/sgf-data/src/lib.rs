//! # sgf-data
//!
//! Dataset substrate for the SGF (Synthetic Generation Framework) reproduction
//! of *Plausible Deniability for Privacy-Preserving Data Synthesis*
//! (Bindschaedler, Shokri, Gunter — VLDB 2017).
//!
//! This crate provides:
//!
//! * [`Schema`]/[`Attribute`] — the discrete attribute model of Table 1;
//! * [`Record`]/[`Dataset`] — fixed-width records, stored as a rope of
//!   shared runs;
//! * [`split_dataset_by_hash`] — the one split into `D_T` / `D_P` / `D_S` /
//!   test, a pure function of each record's values and the split seed;
//! * [`Bucketizer`] — the `bkt()` discretization used by structure learning;
//! * CSV input/output matching the paper's tool interface;
//! * [`acs`] — a synthetic ACS-2013-like population generator standing in for
//!   the Census PUMS extract (see DESIGN.md for the substitution rationale).

pub mod acs;
pub mod bucketize;
pub mod csv;
pub mod delta;
pub mod error;
pub mod record;
pub mod schema;
pub mod split;

pub use bucketize::{AttributeBuckets, Bucketizer};
pub use delta::{apply_deletes, retract_and_append, DatasetDelta};
pub use error::{DataError, Result};
pub use record::{Dataset, Record};
pub use schema::{Attribute, AttributeKind, Schema};
pub use split::{split_dataset_by_hash, split_role, DataSplit, SplitRole, SplitSpec};
