//! The seed-store selection policy carried by pipeline configurations and
//! per-request overrides.

use serde::{Deserialize, Serialize};

/// Which seed store the plausible-deniability test should query.
///
/// Scan and index are **decision-equivalent**: for the same RNG seed they
/// accept and reject exactly the same candidates (the index only skips records
/// whose generation probability is provably zero), so the policy is purely a
/// performance choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SeedIndex {
    /// Always scan the full seed dataset (the baseline behaviour).
    Scan,
    /// Always query the bucketized inverted index (built at train time under
    /// this policy, on first use in a session trained with `Auto`).
    Inverted,
    /// Always query the partition-aware store of likelihood-equivalence
    /// classes (built at train time under this policy, on first use in a
    /// session trained with `Auto`).  Tests for models whose
    /// likelihood guarantee the store's keying does not cover degrade to the
    /// store's per-record class walk.
    Partition,
    /// Build the σ-prefix store ([`PrefixIndexStore`](crate::PrefixIndexStore))
    /// at train time and serve every test from it: seed-synthesizer
    /// candidates count their plausible seeds with one range lookup at any ω,
    /// other models walk the range of the longest σ-prefix their exact-match
    /// guarantee covers (the whole store without one).  The inverted and
    /// partition stores are built only if a request or accessor asks for
    /// them.
    #[default]
    Auto,
}

impl std::fmt::Display for SeedIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SeedIndex::Scan => write!(f, "scan"),
            SeedIndex::Inverted => write!(f, "inverted"),
            SeedIndex::Partition => write!(f, "partition"),
            SeedIndex::Auto => write!(f, "auto"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_auto_and_display_is_lowercase() {
        assert_eq!(SeedIndex::default(), SeedIndex::Auto);
        assert_eq!(SeedIndex::Scan.to_string(), "scan");
        assert_eq!(SeedIndex::Inverted.to_string(), "inverted");
        assert_eq!(SeedIndex::Partition.to_string(), "partition");
        assert_eq!(SeedIndex::Auto.to_string(), "auto");
    }
}
