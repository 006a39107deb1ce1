//! # sgf-index
//!
//! Indexed seed stores that make the plausible-deniability test **sublinear**
//! in the seed-dataset size.
//!
//! The privacy tests of Section 2 are the hot path of the whole generator:
//! for every candidate synthetic record they count how many seed records fall
//! into the same γ-likelihood partition, so a full scan makes the work per
//! released record grow linearly — and the total quadratically — with the
//! dataset.  This crate pre-builds an index over the seed data so each
//! per-candidate test touches only the records that can possibly be plausible
//! seeds:
//!
//! * [`SeedStore`] — the query abstraction: a *sound superset* of the records
//!   that can plausibly have generated a candidate (no false negatives, so
//!   filtering never changes a test decision);
//! * [`LinearScanStore`] — the baseline: every record, every time;
//! * [`InvertedIndexStore`] — bucketized per-value posting lists, intersected
//!   over the candidate's highest-weight matching attributes;
//! * [`PartitionIndexStore`] — seeds collapsed into likelihood-equivalence
//!   classes (identical generation probability for every candidate), so the
//!   γ-partition check runs once per class and counts with multiplicity;
//! * [`ClassMatchCache`] — an optional per-store cache of seed-independent
//!   class-match rows, shared across every request of a session, so repeated
//!   candidates with the same likelihood projection skip the per-class model
//!   evaluations entirely (decisions stay bit-identical to the uncached
//!   path);
//! * [`PrefixIndexStore`] — the seeds' values in the dependency order σ as a
//!   sorted multiset of σ-tuples, so the plausible seeds of a
//!   seed-synthesizer candidate are one contiguous range, found by binary
//!   search at every ω (the store every session release is tested against);
//!   the range's length is the exact plausible count, which a
//!   `max_check_plausible` cap also draws its subset count from.

pub mod inverted;
pub mod partition;
pub mod prefix;
pub mod store;

pub use inverted::{InvertedIndexStore, PostingIntersection, MAX_INTERSECT_LISTS};
pub use partition::{
    ClassMatchCache, ClassMatchLookup, LikelihoodClass, LikelihoodClasses, PartitionIndexStore,
    DEFAULT_CLASS_CACHE_CAP,
};
pub use prefix::PrefixIndexStore;
pub use store::{CandidateIter, LinearScanStore, SeedStore};
