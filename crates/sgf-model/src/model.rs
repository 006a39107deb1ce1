//! The generative-model abstraction shared by the plausible-deniability
//! mechanism, plus the Bayesian-network model built from a learned structure
//! and CPT store.
//!
//! The mechanism of Section 2 only needs two operations from a model `M`:
//! transform a seed into a candidate synthetic (`generate`) and evaluate
//! `Pr{y = M(d)}` for arbitrary records (`probability`).  Everything else —
//! how the model was learned, whether it is differentially private — is
//! intentionally opaque, which is what lets the framework decouple utility
//! from privacy.

use crate::graph::DependencyGraph;
use crate::parameters::CptStore;
use rand::RngCore;
use sgf_data::{Record, Schema};
use std::sync::Arc;

/// A probabilistic generative model `M` that turns a seed record into a
/// synthetic record (Section 2).
pub trait GenerativeModel: Send + Sync {
    /// Schema of the records the model produces.
    fn schema(&self) -> &Schema;

    /// Generate one candidate synthetic record from `seed`.
    fn generate(&self, seed: &Record, rng: &mut dyn RngCore) -> Record;

    /// The probability `Pr{y = M(seed)}` that the model transforms `seed`
    /// into exactly the record `y`.
    fn probability(&self, seed: &Record, y: &Record) -> f64;

    /// Whether the output distribution actually depends on the seed.  For
    /// seed-independent models (e.g. the marginal baseline) the privacy test
    /// trivially passes because every record is an equally plausible seed.
    fn is_seed_dependent(&self) -> bool {
        true
    }

    /// Attributes on which a seed must agree with a candidate *exactly* for
    /// the generation probability to be non-zero: `Some(attrs)` guarantees
    /// `probability(d, y) > 0` implies `d[a] == y[a]` for every `a` in
    /// `attrs`.  `None` (the default) makes no such guarantee.
    ///
    /// This is the hook indexed seed stores use to prune the
    /// plausible-deniability test: records disagreeing with the candidate on
    /// any listed attribute can be skipped without evaluating the model.  The
    /// seed-based synthesizer returns its kept attributes (the first `m - ω`
    /// of the dependency order, copied verbatim from the seed).
    fn exact_match_attributes(&self) -> Option<&[usize]> {
        None
    }

    /// Attributes whose projection fully determines the generation
    /// likelihood: `Some(attrs)` guarantees that any two seeds agreeing on
    /// every attribute in `attrs` satisfy `probability(d1, y) ==
    /// probability(d2, y)` for **every** candidate `y`.  `None` (the default)
    /// makes no such guarantee.
    ///
    /// This generalizes [`exact_match_attributes`]: where that hook lets a
    /// store *skip* provably non-plausible records, this one lets a
    /// partition-aware store *collapse* the seed dataset into
    /// likelihood-equivalence classes — one γ-partition check per class,
    /// counted with multiplicity — so the plausible-deniability test scales
    /// with the number of distinct classes rather than `|D_S|`.  The
    /// seed-based synthesizer returns its kept attributes (the generation
    /// probability factorizes over the re-sampled attributes of `y` alone
    /// once the kept projection agrees); seed-independent models (e.g. the
    /// marginal baseline) return the empty set — every seed is equivalent.
    ///
    /// [`exact_match_attributes`]: GenerativeModel::exact_match_attributes
    fn likelihood_attributes(&self) -> Option<&[usize]> {
        None
    }
}

/// References to a model are models themselves, so `&dyn GenerativeModel`
/// plugs into any generic mechanism or session without re-wrapping.
impl<M: GenerativeModel + ?Sized> GenerativeModel for &M {
    fn schema(&self) -> &Schema {
        (**self).schema()
    }
    fn generate(&self, seed: &Record, rng: &mut dyn RngCore) -> Record {
        (**self).generate(seed, rng)
    }
    fn probability(&self, seed: &Record, y: &Record) -> f64 {
        (**self).probability(seed, y)
    }
    fn is_seed_dependent(&self) -> bool {
        (**self).is_seed_dependent()
    }
    fn exact_match_attributes(&self) -> Option<&[usize]> {
        (**self).exact_match_attributes()
    }
    fn likelihood_attributes(&self) -> Option<&[usize]> {
        (**self).likelihood_attributes()
    }
}

/// Boxed models (including boxed trait objects) are models.
impl<M: GenerativeModel + ?Sized> GenerativeModel for Box<M> {
    fn schema(&self) -> &Schema {
        (**self).schema()
    }
    fn generate(&self, seed: &Record, rng: &mut dyn RngCore) -> Record {
        (**self).generate(seed, rng)
    }
    fn probability(&self, seed: &Record, y: &Record) -> f64 {
        (**self).probability(seed, y)
    }
    fn is_seed_dependent(&self) -> bool {
        (**self).is_seed_dependent()
    }
    fn exact_match_attributes(&self) -> Option<&[usize]> {
        (**self).exact_match_attributes()
    }
    fn likelihood_attributes(&self) -> Option<&[usize]> {
        (**self).likelihood_attributes()
    }
}

/// Shared models are models, so long-lived services can hand the same trained
/// model to many sessions.
impl<M: GenerativeModel + ?Sized> GenerativeModel for Arc<M> {
    fn schema(&self) -> &Schema {
        (**self).schema()
    }
    fn generate(&self, seed: &Record, rng: &mut dyn RngCore) -> Record {
        (**self).generate(seed, rng)
    }
    fn probability(&self, seed: &Record, y: &Record) -> f64 {
        (**self).probability(seed, y)
    }
    fn is_seed_dependent(&self) -> bool {
        (**self).is_seed_dependent()
    }
    fn exact_match_attributes(&self) -> Option<&[usize]> {
        (**self).exact_match_attributes()
    }
    fn likelihood_attributes(&self) -> Option<&[usize]> {
        (**self).likelihood_attributes()
    }
}

/// The Bayesian-network generative model of Section 3: a dependency graph plus
/// conditional probability tables.  This type offers whole-record operations
/// (ancestral sampling, likelihood, most-likely-value prediction) used by the
/// evaluation; the seed-based synthesizer of Section 3.2 lives in
/// [`crate::synthesis::SeedSynthesizer`].
#[derive(Debug, Clone)]
pub struct BayesNetModel {
    cpts: Arc<CptStore>,
}

impl BayesNetModel {
    /// Wrap a learned CPT store.
    pub fn new(cpts: Arc<CptStore>) -> Self {
        BayesNetModel { cpts }
    }

    /// The underlying CPT store.
    pub fn cpts(&self) -> &Arc<CptStore> {
        &self.cpts
    }

    /// The model schema.
    pub fn schema(&self) -> &Schema {
        self.cpts.schema()
    }

    /// The dependency graph.
    pub fn graph(&self) -> &DependencyGraph {
        self.cpts.graph()
    }

    /// Ancestral sampling: draw a full record from the joint distribution of
    /// Eq. 2 (no seed involved).
    pub fn sample_record<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> Record {
        let order = self
            .graph()
            .topological_order()
            .expect("a learned structure is always acyclic");
        let m = self.schema().len();
        let mut values = vec![0u16; m];
        for &attr in &order {
            values[attr] = self.cpts.sample_value(attr, |p| values[p], rng);
        }
        Record::new(values)
    }

    /// The most likely value of attribute `attr` given all the *other*
    /// attribute values of `record` (the probe used for Figures 1 and 2).
    ///
    /// The full conditional is proportional to the product of the factors in
    /// which `attr` appears: its own CPT entry and the CPT entries of its
    /// children (the Markov blanket of the attribute).
    pub fn predict_attribute(&self, record: &Record, attr: usize) -> u16 {
        let card = self.schema().cardinality(attr);
        let children = self.graph().children(attr);
        let mut best = (0u16, f64::NEG_INFINITY);
        for value in 0..card as u16 {
            let value_of = |j: usize| if j == attr { value } else { record.get(j) };
            let mut log_score = {
                let p = self.cpts.conditional_probability(attr, value, value_of);
                if p <= 0.0 {
                    f64::NEG_INFINITY
                } else {
                    p.ln()
                }
            };
            for &child in &children {
                if log_score == f64::NEG_INFINITY {
                    break;
                }
                let p = self
                    .cpts
                    .conditional_probability(child, record.get(child), value_of);
                if p <= 0.0 {
                    log_score = f64::NEG_INFINITY;
                } else {
                    log_score += p.ln();
                }
            }
            if log_score > best.1 {
                best = (value, log_score);
            }
        }
        best.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parameters::ParameterConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sgf_data::{Attribute, Bucketizer, Dataset, Schema as DataSchema};
    use std::sync::Arc as StdArc;

    /// A -> B (B copies A with prob 0.95), C independent coin.
    fn model(n: usize) -> BayesNetModel {
        let schema = StdArc::new(
            DataSchema::new(vec![
                Attribute::categorical_anon("A", 3),
                Attribute::categorical_anon("B", 3),
                Attribute::categorical_anon("C", 2),
            ])
            .unwrap(),
        );
        let mut rng = StdRng::seed_from_u64(1);
        let records = (0..n)
            .map(|_| {
                let a: u16 = rng.gen_range(0..3);
                let b = if rng.gen::<f64>() < 0.95 {
                    a
                } else {
                    rng.gen_range(0..3)
                };
                let c: u16 = rng.gen_range(0..2);
                Record::new(vec![a, b, c])
            })
            .collect();
        let data = Dataset::from_records_unchecked(schema, records);
        let graph = DependencyGraph::from_parent_sets(vec![vec![], vec![0], vec![]]).unwrap();
        let bkt = Bucketizer::identity(data.schema());
        let cpts = CptStore::learn(&data, &bkt, &graph, ParameterConfig::default()).unwrap();
        BayesNetModel::new(Arc::new(cpts))
    }

    #[test]
    fn ancestral_samples_respect_dependence() {
        let m = model(5000);
        let mut rng = StdRng::seed_from_u64(2);
        let mut agree = 0usize;
        let n = 2000;
        for _ in 0..n {
            let r = m.sample_record(&mut rng);
            assert!(r.get(0) < 3 && r.get(1) < 3 && r.get(2) < 2);
            if r.get(0) == r.get(1) {
                agree += 1;
            }
        }
        assert!(
            agree as f64 / n as f64 > 0.8,
            "A and B should usually agree"
        );
    }

    #[test]
    fn predict_attribute_uses_markov_blanket() {
        let m = model(5000);
        // Predicting B from A=2 should give 2 (its parent drives it)...
        assert_eq!(m.predict_attribute(&Record::new(vec![2, 0, 0]), 1), 2);
        // ...and predicting A from B=1 should give 1 (information flows back
        // through the child factor).
        assert_eq!(m.predict_attribute(&Record::new(vec![0, 1, 0]), 0), 1);
    }

    #[test]
    fn schema_and_graph_accessors() {
        let m = model(100);
        assert_eq!(m.schema().len(), 3);
        assert_eq!(m.graph().parents(1), &[0]);
        assert_eq!(m.cpts().training_records(), 100);
    }
}
