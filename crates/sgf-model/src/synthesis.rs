//! Seed-based synthesis (Section 3.2).
//!
//! A synthetic record is produced from a real *seed* record by keeping the
//! first `m - ω` attributes (in the dependency order σ) and re-sampling the
//! remaining `ω` attributes from their conditional distributions, each new
//! value conditioning on the mix of kept (seed) values and already re-sampled
//! values (Eq. 3).  The same factorization gives the exact generation
//! probability `Pr{y = M(d)}` that the privacy test needs.

use crate::error::{ModelError, Result};
use crate::model::GenerativeModel;
use crate::parameters::CptStore;
use rand::RngCore;
use serde::{Deserialize, Serialize};
use sgf_data::{Record, Schema};
use std::ops::RangeInclusive;
use std::sync::Arc;

/// How the number of re-sampled attributes ω is chosen for each candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OmegaSpec {
    /// Always re-sample exactly this many attributes.
    Fixed(usize),
    /// Draw ω uniformly from the inclusive range for every candidate
    /// (the paper's `ω ∈R [lo - hi]` configurations).
    UniformRange {
        /// Smallest ω (inclusive).
        lo: usize,
        /// Largest ω (inclusive).
        hi: usize,
    },
}

impl OmegaSpec {
    /// Validate against the number of attributes `m`.
    pub fn validate(&self, m: usize) -> Result<()> {
        let (lo, hi) = self.range().into_inner();
        if lo == 0 || hi < lo || hi > m {
            return Err(ModelError::InvalidParameter(format!(
                "omega specification {self:?} is invalid for {m} attributes"
            )));
        }
        Ok(())
    }

    /// The ω values the spec admits, smallest first.  A release builds one
    /// synthesizer per value and draws among them uniformly per candidate.
    pub fn range(&self) -> RangeInclusive<usize> {
        match *self {
            OmegaSpec::Fixed(w) => w..=w,
            OmegaSpec::UniformRange { lo, hi } => lo..=hi,
        }
    }

    /// A short human-readable label matching the paper's notation
    /// (`ω = 10`, `ω ∈R [5 - 11]`).
    pub fn label(&self) -> String {
        match *self {
            OmegaSpec::Fixed(w) => format!("omega = {w}"),
            OmegaSpec::UniformRange { lo, hi } => format!("omega in R[{lo}-{hi}]"),
        }
    }
}

/// The seed-based synthesizer of Section 3.2 with a *fixed* ω.
///
/// The plausible-deniability mechanism needs `Pr{y = M(d)}` to be well defined
/// for the exact model that produced `y`; when ω is itself randomized
/// (`OmegaSpec::UniformRange`), the pipeline draws ω per candidate and builds
/// the corresponding fixed-ω synthesizer for that candidate's privacy test.
#[derive(Debug, Clone)]
pub struct SeedSynthesizer {
    cpts: Arc<CptStore>,
    /// Re-sampling order σ (topological order of the dependency graph).
    sigma: Vec<usize>,
    /// Number of re-sampled attributes.
    omega: usize,
}

impl SeedSynthesizer {
    /// Create a synthesizer that re-samples the last `omega` attributes of the
    /// dependency order.
    pub fn new(cpts: Arc<CptStore>, omega: usize) -> Result<Self> {
        let m = cpts.schema().len();
        OmegaSpec::Fixed(omega).validate(m)?;
        let sigma = cpts
            .graph()
            .topological_order()
            .ok_or_else(|| ModelError::InvalidGraph("dependency graph contains a cycle".into()))?;
        Ok(SeedSynthesizer { cpts, sigma, omega })
    }

    /// The number of re-sampled attributes ω.
    pub fn omega(&self) -> usize {
        self.omega
    }

    /// The re-sampling order σ.
    pub fn sigma(&self) -> &[usize] {
        &self.sigma
    }

    /// The underlying CPT store.
    pub fn cpts(&self) -> &Arc<CptStore> {
        &self.cpts
    }

    /// Attributes that are copied from the seed (the first `m - ω` in σ order).
    pub fn kept_attributes(&self) -> &[usize] {
        &self.sigma[..self.sigma.len() - self.omega]
    }

    /// Attributes that are re-sampled (the last `ω` in σ order).
    pub fn resampled_attributes(&self) -> &[usize] {
        &self.sigma[self.sigma.len() - self.omega..]
    }
}

impl GenerativeModel for SeedSynthesizer {
    fn schema(&self) -> &Schema {
        self.cpts.schema()
    }

    fn generate(&self, seed: &Record, rng: &mut dyn RngCore) -> Record {
        let mut y = seed.clone();
        for &attr in self.resampled_attributes() {
            let value = self.cpts.sample_value(attr, |j| y.get(j), rng);
            y.set(attr, value);
        }
        y
    }

    fn probability(&self, seed: &Record, y: &Record) -> f64 {
        // The kept attributes are copied verbatim, so any mismatch there means
        // this seed could not have produced y at all.
        for &attr in self.kept_attributes() {
            if seed.get(attr) != y.get(attr) {
                return 0.0;
            }
        }
        // Each re-sampled attribute contributes its conditional probability
        // given the (kept or already re-sampled) values — all of which equal
        // the candidate's values because kept attributes agree with the seed.
        let mut probability = 1.0;
        for &attr in self.resampled_attributes() {
            probability *= self
                .cpts
                .conditional_probability(attr, y.get(attr), |j| y.get(j));
            if probability == 0.0 {
                return 0.0;
            }
        }
        probability
    }

    fn exact_match_attributes(&self) -> Option<&[usize]> {
        // A candidate is reachable only from seeds agreeing with it on every
        // kept attribute (they are copied verbatim), which is what lets an
        // indexed seed store prune the plausible-deniability test.
        Some(self.kept_attributes())
    }

    fn likelihood_attributes(&self) -> Option<&[usize]> {
        // `probability` reads the seed only on the kept attributes: when they
        // all agree with `y` the result is a product of conditionals of `y`
        // alone, and when any disagrees it is zero.  Two seeds with the same
        // kept projection therefore have identical `Pr{y = M(d)}` for every
        // candidate, which lets a partition-aware seed store collapse them
        // into one likelihood-equivalence class.
        Some(self.kept_attributes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DependencyGraph;
    use crate::parameters::ParameterConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sgf_data::{Attribute, Bucketizer, Dataset, Schema as DataSchema};
    use std::sync::Arc as StdArc;

    fn cpts(n: usize) -> Arc<CptStore> {
        let schema = StdArc::new(
            DataSchema::new(vec![
                Attribute::categorical_anon("A", 3),
                Attribute::categorical_anon("B", 3),
                Attribute::categorical_anon("C", 4),
            ])
            .unwrap(),
        );
        let mut rng = StdRng::seed_from_u64(31);
        let records = (0..n)
            .map(|_| {
                let a: u16 = rng.gen_range(0..3);
                let b = if rng.gen::<f64>() < 0.9 {
                    a
                } else {
                    rng.gen_range(0..3)
                };
                let c: u16 = rng.gen_range(0..4);
                Record::new(vec![a, b, c])
            })
            .collect();
        let data = Dataset::from_records_unchecked(schema, records);
        let graph = DependencyGraph::from_parent_sets(vec![vec![], vec![0], vec![]]).unwrap();
        let bkt = Bucketizer::identity(data.schema());
        Arc::new(CptStore::learn(&data, &bkt, &graph, ParameterConfig::default()).unwrap())
    }

    #[test]
    fn omega_spec_validation_and_sampling() {
        assert!(OmegaSpec::Fixed(3).validate(5).is_ok());
        assert!(OmegaSpec::Fixed(0).validate(5).is_err());
        assert!(OmegaSpec::Fixed(6).validate(5).is_err());
        assert!(OmegaSpec::UniformRange { lo: 2, hi: 4 }.validate(5).is_ok());
        assert!(OmegaSpec::UniformRange { lo: 4, hi: 2 }
            .validate(5)
            .is_err());
        assert_eq!(OmegaSpec::UniformRange { lo: 2, hi: 4 }.range(), 2..=4);
        assert_eq!(OmegaSpec::Fixed(9).range(), 9..=9);
        assert_eq!(OmegaSpec::Fixed(9).label(), "omega = 9");
        assert_eq!(
            OmegaSpec::UniformRange { lo: 5, hi: 11 }.label(),
            "omega in R[5-11]"
        );
    }

    #[test]
    fn kept_attributes_are_copied_from_seed() {
        let synth = SeedSynthesizer::new(cpts(3000), 1).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let seed = Record::new(vec![2, 2, 3]);
        for _ in 0..50 {
            let y = synth.generate(&seed, &mut rng);
            for &attr in synth.kept_attributes() {
                assert_eq!(y.get(attr), seed.get(attr), "kept attribute {attr} changed");
            }
        }
    }

    #[test]
    fn probability_is_zero_when_kept_attributes_differ() {
        let synth = SeedSynthesizer::new(cpts(3000), 1).unwrap();
        let seed = Record::new(vec![2, 2, 3]);
        // Find a kept attribute and flip it in the candidate.
        let kept = synth.kept_attributes()[0];
        let mut y = seed.clone();
        y.set(kept, (seed.get(kept) + 1) % 3);
        assert_eq!(synth.probability(&seed, &y), 0.0);
    }

    #[test]
    fn probability_matches_empirical_generation_frequency() {
        let store = cpts(5000);
        let synth = SeedSynthesizer::new(store, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let seed = Record::new(vec![1, 0, 0]);
        // Empirical frequency of generating one specific candidate.
        let mut target_count = 0usize;
        let n = 20_000;
        let candidate = {
            // Use one generated record as the target so it has non-trivial probability.
            synth.generate(&seed, &mut rng)
        };
        for _ in 0..n {
            if synth.generate(&seed, &mut rng) == candidate {
                target_count += 1;
            }
        }
        let empirical = target_count as f64 / n as f64;
        let analytic = synth.probability(&seed, &candidate);
        assert!(
            (empirical - analytic).abs() < 0.03,
            "empirical {empirical} vs analytic {analytic}"
        );
    }

    #[test]
    fn full_resampling_ignores_seed_values() {
        let store = cpts(3000);
        let synth = SeedSynthesizer::new(store, 3).unwrap();
        assert!(synth.kept_attributes().is_empty());
        let seed_a = Record::new(vec![0, 0, 0]);
        let seed_b = Record::new(vec![2, 2, 3]);
        let y = Record::new(vec![1, 1, 2]);
        // With every attribute re-sampled, the generation probability may still
        // depend on the seed only through nothing at all — it must be equal for
        // both seeds.
        assert!((synth.probability(&seed_a, &y) - synth.probability(&seed_b, &y)).abs() < 1e-15);
    }

    #[test]
    fn exact_match_attributes_are_the_kept_attributes() {
        let synth = SeedSynthesizer::new(cpts(500), 1).unwrap();
        assert_eq!(
            synth.exact_match_attributes().unwrap(),
            synth.kept_attributes()
        );
        // Full re-sampling keeps nothing: the guarantee is the empty set.
        let full = SeedSynthesizer::new(cpts(500), 3).unwrap();
        assert_eq!(full.exact_match_attributes().unwrap(), &[] as &[usize]);
    }

    #[test]
    fn invalid_omega_rejected() {
        assert!(SeedSynthesizer::new(cpts(100), 0).is_err());
        assert!(SeedSynthesizer::new(cpts(100), 4).is_err());
    }

    #[test]
    fn probabilities_sum_to_one_over_candidates() {
        // With omega = 1 the candidate space given a seed is the domain of the
        // single re-sampled attribute; probabilities must sum to 1.
        let store = cpts(3000);
        let synth = SeedSynthesizer::new(store, 1).unwrap();
        let resampled = synth.resampled_attributes()[0];
        let seed = Record::new(vec![1, 1, 2]);
        let card = synth.schema().cardinality(resampled);
        let mut total = 0.0;
        for v in 0..card as u16 {
            let mut y = seed.clone();
            y.set(resampled, v);
            total += synth.probability(&seed, &y);
        }
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
    }
}
