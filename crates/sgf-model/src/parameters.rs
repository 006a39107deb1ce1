//! Privacy-preserving parameter learning (Section 3.4 / 3.4.1).
//!
//! For every attribute `i` and every joint configuration `c` of its
//! (bucketized) parents, the model holds a multinomial distribution over the
//! values of `i`.  Learning places a symmetric Dirichlet prior over those
//! multinomials and updates it with the counts `n^c_i` observed in `D_P`
//! (Eq. 11–13).  Under differential privacy each count receives Laplace noise
//! with sensitivity 1 and is clamped at zero (Eq. 14).
//!
//! Tables are materialized lazily per configuration — exactly like the paper's
//! tool (Section 5) — into one write-once slot per configuration.  The noise
//! drawn for a configuration comes from an RNG seeded by a deterministic hash
//! of that configuration, so whichever worker fills a slot first computes the
//! same values: concurrent workers observe identical noisy parameters without
//! a lock, and a filled slot is read with a single atomic load.

use crate::error::{ModelError, Result};
use crate::graph::DependencyGraph;
use rand::Rng;
use serde::{Deserialize, Serialize};
use sgf_data::{Bucketizer, Dataset, Schema};
use sgf_stats::{
    advanced_composition, configuration_rng, dirichlet_posterior_mean, sample_dirichlet, DpBudget,
    Laplace,
};
use std::sync::{Arc, OnceLock};

/// Configuration of parameter learning.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ParameterConfig {
    /// Total Dirichlet prior mass per configuration (the `α` of Eq. 11),
    /// spread uniformly across the attribute's values: each cell receives
    /// `alpha / |x_i|`.  Keeping the *total* fixed means the prior stays
    /// negligible relative to the data even for wide attributes.
    pub alpha: f64,
    /// Per-count privacy parameter ε_p (Eq. 14); `None` learns exact parameters.
    pub epsilon_p: Option<f64>,
    /// Whether to *sample* the multinomial parameters from the Dirichlet
    /// posterior (Eq. 12) rather than take the posterior mean (Eq. 13).  The
    /// paper samples "to increase the variety of data samples".
    pub sample_parameters: bool,
    /// Global seed mixed into the per-configuration RNG hash.
    pub global_seed: u64,
    /// Slack δ used when composing the per-attribute budgets.
    pub delta_slack: f64,
}

impl Default for ParameterConfig {
    fn default() -> Self {
        ParameterConfig {
            alpha: 1.0,
            epsilon_p: None,
            sample_parameters: false,
            global_seed: 0,
            delta_slack: 1e-9,
        }
    }
}

impl ParameterConfig {
    /// Validate the configuration.
    pub fn validate(&self) -> Result<()> {
        if !(self.alpha.is_finite() && self.alpha > 0.0) {
            return Err(ModelError::InvalidParameter(format!(
                "Dirichlet alpha must be positive, got {}",
                self.alpha
            )));
        }
        if let Some(eps) = self.epsilon_p {
            if !(eps.is_finite() && eps > 0.0) {
                return Err(ModelError::InvalidParameter(format!(
                    "epsilon_p must be positive, got {eps}"
                )));
            }
        }
        if !(self.delta_slack > 0.0 && self.delta_slack < 1.0) {
            return Err(ModelError::InvalidParameter(
                "delta_slack must lie in (0, 1)".into(),
            ));
        }
        Ok(())
    }
}

/// Per-attribute layout of the conditional probability tables.
#[derive(Debug, Clone, PartialEq, Eq)]
struct AttributeTable {
    /// Strides used to turn parent bucket values into a configuration index.
    parent_strides: Vec<u64>,
    /// Parents of the attribute (copied from the graph for locality).
    parents: Vec<usize>,
    /// Number of joint parent configurations (`#c`).
    configurations: u64,
    /// Cardinality of the attribute itself.
    cardinality: usize,
    /// Raw counts, indexed `config * cardinality + value`.
    counts: Vec<u32>,
}

impl AttributeTable {
    /// Configuration index for a full assignment of values, reading each
    /// parent's value through `value_of`: the stride-weighted sum of the
    /// parents' buckets.
    #[inline]
    fn configuration_index(&self, bucketizer: &Bucketizer, value_of: impl Fn(usize) -> u16) -> u64 {
        let mut idx: u64 = 0;
        for (&p, &stride) in self.parents.iter().zip(self.parent_strides.iter()) {
            idx += stride * bucketizer.bucket_of(p, value_of(p)) as u64;
        }
        idx
    }

    /// The count cell `record` falls into when this is attribute `attr`'s
    /// table.  Inlined: the count fit calls it per record and attribute, where
    /// an out-of-line call is measurably slower than the loop written in place.
    #[inline]
    fn cell_of(&self, bucketizer: &Bucketizer, record: &sgf_data::Record, attr: usize) -> usize {
        let configuration = self.configuration_index(bucketizer, |p| record.get(p));
        configuration as usize * self.cardinality + record.get(attr) as usize
    }
}

/// One attribute's conditionals: a write-once slot per parent configuration,
/// holding the row `[pmf | cdf]` — the conditional, then its running sums.
/// A row is shared, so a store derived by [`CptStore::apply_delta`] carries
/// the rows the delta left alone without copying them.
type ConditionalSlots = Box<[OnceLock<Arc<[f64]>>]>;

/// The learned conditional-probability store: counts from `D_P` plus lazily
/// materialized (noisy) probability tables.
pub struct CptStore {
    schema: Arc<Schema>,
    bucketizer: Bucketizer,
    graph: DependencyGraph,
    config: ParameterConfig,
    tables: Vec<AttributeTable>,
    /// Lazily materialized conditionals: per attribute, a dense slice of
    /// write-once slots indexed by configuration, so it is ordered by
    /// construction (R2) and a filled slot is read without a lock or a
    /// refcount.  Slots start empty; [`CptStore::conditional`] fills one on
    /// first use.
    cache: Vec<ConditionalSlots>,
    budget: DpBudget,
    training_records: usize,
}

/// Equality compares the learned state (schema, bucketizer, graph, config,
/// raw counts, budget, record count) and deliberately ignores the lazy
/// conditional cache: cached entries are deterministic materializations of
/// that state, so two equal stores always expose identical conditionals no
/// matter which entries happen to be cached.
impl PartialEq for CptStore {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && self.bucketizer == other.bucketizer
            && self.graph == other.graph
            && self.config == other.config
            && self.tables == other.tables
            && self.budget == other.budget
            && self.training_records == other.training_records
    }
}

impl std::fmt::Debug for CptStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CptStore")
            .field("attributes", &self.schema.len())
            .field("training_records", &self.training_records)
            .field("budget", &self.budget)
            .finish()
    }
}

/// Summable CPT sufficient statistics: the raw contingency counts of every
/// attribute's conditional table, separated from the (noise, prior, cache)
/// machinery of [`CptStore`] so a seed-data delta is an `O(|Δ| · m)` count
/// merge instead of a full pass over `D_P`.  The table *layout* is a pure
/// function of the dependency graph and bucketizer, so merged counts only
/// stay meaningful while the graph is unchanged — a structure re-learn must
/// re-fit from the dataset instead.
#[derive(Debug, Clone, PartialEq)]
struct CptCounts {
    schema: Arc<Schema>,
    tables: Vec<AttributeTable>,
    records: usize,
}

impl CptCounts {
    /// Merge a record delta: subtract `deletes`, then add `inserts`.  The
    /// result equals [`CptStore::fit_counts`] on the post-delta dataset
    /// exactly (counting is commutative; additions saturate identically to
    /// the learning pass).
    fn apply_delta(
        &mut self,
        deletes: &[sgf_data::Record],
        inserts: &[sgf_data::Record],
        bucketizer: &Bucketizer,
    ) -> Result<()> {
        for record in deletes {
            let underflow = || {
                ModelError::InvalidParameter(format!(
                    "delta removes a record the CPT counts never saw: {:?}",
                    record.values()
                ))
            };
            self.records = self.records.checked_sub(1).ok_or_else(underflow)?;
            for attr in 0..self.tables.len() {
                let cell = self.tables[attr].cell_of(bucketizer, record, attr);
                let count = &mut self.tables[attr].counts[cell];
                *count = count.checked_sub(1).ok_or_else(underflow)?;
            }
        }
        for record in inserts {
            self.records += 1;
            for attr in 0..self.tables.len() {
                let cell = self.tables[attr].cell_of(bucketizer, record, attr);
                let count = &mut self.tables[attr].counts[cell];
                *count = count.saturating_add(1);
            }
        }
        Ok(())
    }
}

impl CptStore {
    /// Learn the CPT counts from the parameter-learning subset `D_P`.
    pub fn learn(
        dataset: &Dataset,
        bucketizer: &Bucketizer,
        graph: &DependencyGraph,
        config: ParameterConfig,
    ) -> Result<Self> {
        config.validate()?;
        let counts = Self::fit_counts(dataset, bucketizer, graph)?;
        Self::from_counts(counts, bucketizer, graph, config)
    }

    /// Fit the summable sufficient statistics (contingency counts) with one
    /// pass over `dataset`, laying the tables out for `graph`'s parent sets.
    fn fit_counts(
        dataset: &Dataset,
        bucketizer: &Bucketizer,
        graph: &DependencyGraph,
    ) -> Result<CptCounts> {
        if dataset.is_empty() {
            return Err(ModelError::EmptyTrainingData);
        }
        let schema = dataset.schema_arc();
        if graph.len() != schema.len() {
            return Err(ModelError::InvalidGraph(format!(
                "graph has {} nodes but the schema has {} attributes",
                graph.len(),
                schema.len()
            )));
        }

        let mut tables = Vec::with_capacity(schema.len());
        for attr in 0..schema.len() {
            let parents = graph.parents(attr).to_vec();
            let mut strides = Vec::with_capacity(parents.len());
            let mut configurations: u64 = 1;
            for &p in &parents {
                strides.push(configurations);
                configurations = configurations.saturating_mul(bucketizer.bucket_count(p) as u64);
            }
            let cardinality = schema.cardinality(attr);
            let cells = (configurations as usize).saturating_mul(cardinality);
            tables.push(AttributeTable {
                parent_strides: strides,
                parents,
                configurations,
                cardinality,
                counts: vec![0u32; cells],
            });
        }

        for record in dataset.iter() {
            for (attr, table) in tables.iter_mut().enumerate() {
                let cell = table.cell_of(bucketizer, record, attr);
                table.counts[cell] = table.counts[cell].saturating_add(1);
            }
        }

        Ok(CptCounts {
            schema,
            tables,
            records: dataset.len(),
        })
    }

    /// Assemble a store from (possibly delta-merged) sufficient statistics.
    /// The conditional cache starts empty.  Because noise is materialized
    /// lazily from per-configuration seeded RNGs, a store built from merged
    /// counts exposes conditionals bit-identical to a from-scratch
    /// [`Self::learn`] on a dataset with the same counts
    /// ([`Self::apply_delta`] starts from the parent's filled rows instead).
    /// Both callers pass a validated config and counts laid out for
    /// `graph`.
    fn from_counts(
        counts: CptCounts,
        bucketizer: &Bucketizer,
        graph: &DependencyGraph,
        config: ParameterConfig,
    ) -> Result<Self> {
        if counts.records == 0 {
            return Err(ModelError::EmptyTrainingData);
        }
        let CptCounts {
            schema,
            tables,
            records,
        } = counts;

        // Privacy cost: the noisy count vector of one attribute has L1
        // sensitivity 1 across *all* configurations, so each attribute costs
        // ε_p and the m attributes compose with the advanced theorem.
        let budget = match config.epsilon_p {
            None => DpBudget::pure(0.0),
            Some(eps) => advanced_composition(eps, 0.0, schema.len() as u64, config.delta_slack),
        };

        let cache = tables
            .iter()
            .map(|table| (0..table.configurations).map(|_| OnceLock::new()).collect())
            .collect();
        Ok(CptStore {
            schema,
            bucketizer: bucketizer.clone(),
            graph: graph.clone(),
            config,
            tables,
            cache,
            budget,
            training_records: records,
        })
    }

    /// Apply a record delta to this store's counts, returning a new store
    /// that carries every filled conditional row of a configuration no
    /// delta record falls in.  A row is a pure function of its attribute,
    /// its configuration, that configuration's counts and the config, so a
    /// carried row is bit-identical to the one the new store would
    /// materialize; the configurations the delta touches start empty.  The
    /// touched configurations are read off the delta records, O(|Δ| · m),
    /// and a carried row is shared, not copied.  Only valid while the
    /// dependency graph is unchanged; a structure re-learn must go through
    /// [`Self::learn`] on the new `D_P` instead.
    pub fn apply_delta(
        &self,
        deletes: &[sgf_data::Record],
        inserts: &[sgf_data::Record],
    ) -> Result<Self> {
        let mut counts = CptCounts {
            schema: Arc::clone(&self.schema),
            tables: self.tables.clone(),
            records: self.training_records,
        };
        counts.apply_delta(deletes, inserts, &self.bucketizer)?;
        let mut store = Self::from_counts(counts, &self.bucketizer, &self.graph, self.config)?;
        store.cache = self.cache.clone();
        for record in deletes.iter().chain(inserts) {
            for attr in 0..store.tables.len() {
                let configuration = store.configuration_index(attr, |p| record.get(p));
                store.cache[attr][configuration as usize].take();
            }
        }
        Ok(store)
    }

    /// The schema the store was learned over.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Shared handle to the schema.
    pub fn schema_arc(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    /// The dependency graph whose parent sets index the tables.
    pub fn graph(&self) -> &DependencyGraph {
        &self.graph
    }

    /// The bucketizer used for parent configurations.
    pub fn bucketizer(&self) -> &Bucketizer {
        &self.bucketizer
    }

    /// Differential-privacy budget spent on `D_P` (zero when `epsilon_p` is `None`).
    pub fn budget(&self) -> DpBudget {
        self.budget
    }

    /// Number of records the counts were estimated from.
    pub fn training_records(&self) -> usize {
        self.training_records
    }

    /// Number of joint parent configurations of attribute `attr`.
    pub fn configurations(&self, attr: usize) -> u64 {
        self.tables[attr].configurations
    }

    /// Configuration index of attribute `attr` for a full assignment of values,
    /// reading parent values through the accessor (value index per attribute).
    pub fn configuration_index<F: Fn(usize) -> u16>(&self, attr: usize, value_of: F) -> u64 {
        self.tables[attr].configuration_index(&self.bucketizer, value_of)
    }

    /// The (possibly noisy, possibly sampled) conditional distribution
    /// `Pr{x_attr | configuration}`, borrowed from the store.  The first call
    /// for a configuration materializes it into that configuration's slot;
    /// every later call is a lock-free read of the filled slot.
    ///
    /// # Panics
    ///
    /// If `configuration` is not below [`Self::configurations`]`(attr)`.
    pub fn conditional(&self, attr: usize, configuration: u64) -> &[f64] {
        &self.row(attr, configuration)[..self.tables[attr].cardinality]
    }

    /// The materialized `[pmf | cdf]` row of an in-range `configuration`.
    fn row(&self, attr: usize, configuration: u64) -> &[f64] {
        let slot = usize::try_from(configuration)
            .ok()
            .and_then(|index| self.cache[attr].get(index))
            .unwrap_or_else(|| {
                panic!(
                    "configuration {configuration} out of range for attribute {attr} \
                     ({} configurations)",
                    self.tables[attr].configurations
                )
            });
        slot.get_or_init(|| self.materialize(attr, configuration))
    }

    /// Compute the `[pmf | cdf]` row of an in-range `configuration`: its
    /// counts and its noise RNG are both keyed by `configuration` itself.
    fn materialize(&self, attr: usize, configuration: u64) -> Arc<[f64]> {
        let table = &self.tables[attr];
        let card = table.cardinality;
        let start = configuration as usize * card;
        let raw: Vec<f64> = table.counts[start..start + card]
            .iter()
            .map(|&c| c as f64)
            .collect();

        // Per-configuration deterministic RNG: identical noise for identical
        // configurations, regardless of which worker asks first.
        let mut rng = configuration_rng(
            self.config.global_seed,
            "sgf-parameters",
            attr,
            configuration,
        );

        let noisy: Vec<f64> = match self.config.epsilon_p {
            None => raw,
            Some(eps) => {
                let lap = Laplace::for_mechanism(1.0, eps);
                raw.iter()
                    .map(|&c| (c + lap.sample(&mut rng)).max(0.0))
                    .collect()
            }
        };

        let alphas = vec![self.config.alpha / card as f64; card];
        let mut row = if self.config.sample_parameters {
            let posterior: Vec<f64> = alphas
                .iter()
                .zip(noisy.iter())
                .map(|(&a, &n)| a + n)
                .collect();
            sample_dirichlet(&posterior, &mut rng)
        } else {
            dirichlet_posterior_mean(&alphas, &noisy)
        };
        row.reserve_exact(card);
        let mut running = 0.0;
        for value in 0..card {
            running += row[value];
            row.push(running);
        }
        row.into()
    }

    /// Conditional probability of `value` for attribute `attr` given the full
    /// assignment provided by `value_of`.
    pub fn conditional_probability<F: Fn(usize) -> u16>(
        &self,
        attr: usize,
        value: u16,
        value_of: F,
    ) -> f64 {
        let config = self.configuration_index(attr, &value_of);
        self.conditional(attr, config)[value as usize]
    }

    /// Sample a value of attribute `attr` given the assignment provided by
    /// `value_of`.  It draws as [`sgf_stats::sample_categorical`] does over
    /// the conditional — one word, the same law — but finds the value by a
    /// binary search of the row's running sums instead of a sum pass and a
    /// linear scan.
    pub fn sample_value<F: Fn(usize) -> u16, R: Rng + ?Sized>(
        &self,
        attr: usize,
        value_of: F,
        rng: &mut R,
    ) -> u16 {
        let config = self.configuration_index(attr, &value_of);
        let card = self.tables[attr].cardinality;
        let cdf = &self.row(attr, config)[card..];
        let u = rng.gen::<f64>() * cdf[card - 1];
        cdf.partition_point(|&c| c < u).min(card - 1) as u16
    }

    /// Number of CPT cells materialized so far (for diagnostics/benchmarks).
    pub fn cached_configurations(&self) -> usize {
        self.cache
            .iter()
            .flat_map(|slots| slots.iter())
            .filter(|slot| slot.get().is_some())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sgf_data::{Attribute, Record};
    use std::sync::Arc as StdArc;

    /// Two attributes: A uniform over 3 values, B = A with 90% probability.
    fn dataset(n: usize) -> Dataset {
        let schema = StdArc::new(
            sgf_data::Schema::new(vec![
                Attribute::categorical_anon("A", 3),
                Attribute::categorical_anon("B", 3),
            ])
            .unwrap(),
        );
        let mut rng = StdRng::seed_from_u64(77);
        let records = (0..n)
            .map(|_| {
                let a: u16 = rng.gen_range(0..3);
                let b = if rng.gen::<f64>() < 0.9 {
                    a
                } else {
                    rng.gen_range(0..3)
                };
                Record::new(vec![a, b])
            })
            .collect();
        Dataset::from_records_unchecked(schema, records)
    }

    fn graph() -> DependencyGraph {
        DependencyGraph::from_parent_sets(vec![vec![], vec![0]]).unwrap()
    }

    #[test]
    fn exact_conditionals_reflect_counts() {
        let d = dataset(5000);
        let bkt = Bucketizer::identity(d.schema());
        let store = CptStore::learn(&d, &bkt, &graph(), ParameterConfig::default()).unwrap();
        // B | A=1 should put ~0.9 mass on value 1 (Dirichlet(1) prior shrinks slightly).
        let config = store.configuration_index(1, |attr| if attr == 0 { 1 } else { 0 });
        let dist = store.conditional(1, config);
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(dist[1] > 0.8, "P(B=1 | A=1) = {}", dist[1]);
        // A has no parents: a single configuration, roughly uniform.
        assert_eq!(store.configurations(0), 1);
        let marginal = store.conditional(0, 0);
        assert!(marginal.iter().all(|&p| (p - 1.0 / 3.0).abs() < 0.05));
    }

    #[test]
    fn unseen_configuration_falls_back_to_prior() {
        // Build a graph where B has parent A, but only A=0 appears in data.
        let schema = StdArc::new(
            sgf_data::Schema::new(vec![
                Attribute::categorical_anon("A", 3),
                Attribute::categorical_anon("B", 2),
            ])
            .unwrap(),
        );
        let records = (0..100).map(|_| Record::new(vec![0, 1])).collect();
        let d = Dataset::from_records_unchecked(schema, records);
        let bkt = Bucketizer::identity(d.schema());
        let store = CptStore::learn(&d, &bkt, &graph(), ParameterConfig::default()).unwrap();
        // Configuration A=2 was never observed: the posterior is the flat prior.
        let config = store.configuration_index(1, |attr| if attr == 0 { 2 } else { 0 });
        let dist = store.conditional(1, config);
        assert!((dist[0] - 0.5).abs() < 1e-9 && (dist[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn noisy_parameters_are_valid_distributions() {
        let d = dataset(2000);
        let bkt = Bucketizer::identity(d.schema());
        let config = ParameterConfig {
            epsilon_p: Some(0.5),
            ..ParameterConfig::default()
        };
        let store = CptStore::learn(&d, &bkt, &graph(), config).unwrap();
        for c in 0..store.configurations(1) {
            let dist = store.conditional(1, c);
            assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(dist.iter().all(|&p| p >= 0.0));
        }
        assert!(store.budget().epsilon > 0.0);
    }

    #[test]
    fn noise_is_deterministic_per_configuration() {
        let d = dataset(2000);
        let bkt = Bucketizer::identity(d.schema());
        let config = ParameterConfig {
            epsilon_p: Some(0.2),
            sample_parameters: true,
            global_seed: 99,
            ..ParameterConfig::default()
        };
        let store_a = CptStore::learn(&d, &bkt, &graph(), config).unwrap();
        let store_b = CptStore::learn(&d, &bkt, &graph(), config).unwrap();
        for c in 0..store_a.configurations(1) {
            assert_eq!(*store_a.conditional(1, c), *store_b.conditional(1, c));
        }
        // A different global seed gives different noise.
        let other = ParameterConfig {
            global_seed: 100,
            ..config
        };
        let store_c = CptStore::learn(&d, &bkt, &graph(), other).unwrap();
        let diff = (0..store_a.configurations(1))
            .any(|c| *store_a.conditional(1, c) != *store_c.conditional(1, c));
        assert!(diff);
    }

    #[test]
    fn identically_seeded_runs_produce_identical_tables() {
        // Determinism regression (R2): two stores learned from the same data
        // with the same seed must expose byte-identical conditionals even when
        // their caches are populated in different orders.  The cache is a
        // dense slice indexed by configuration, so any traversal of it is
        // canonical by construction.
        let d = dataset(2000);
        let bkt = Bucketizer::identity(d.schema());
        let config = ParameterConfig {
            epsilon_p: Some(0.3),
            sample_parameters: true,
            global_seed: 41,
            ..ParameterConfig::default()
        };
        let store_a = CptStore::learn(&d, &bkt, &graph(), config).unwrap();
        let store_b = CptStore::learn(&d, &bkt, &graph(), config).unwrap();
        // Populate a forward, b backward.
        let configs: Vec<u64> = (0..store_a.configurations(1)).collect();
        for &c in &configs {
            let _ = store_a.conditional(1, c);
        }
        for &c in configs.iter().rev() {
            let _ = store_b.conditional(1, c);
        }
        assert_eq!(
            store_a.cached_configurations(),
            store_b.cached_configurations()
        );
        for &c in &configs {
            assert_eq!(*store_a.conditional(1, c), *store_b.conditional(1, c));
        }
    }

    #[test]
    fn sampling_and_probability_agree() {
        let d = dataset(5000);
        let bkt = Bucketizer::identity(d.schema());
        let store = CptStore::learn(&d, &bkt, &graph(), ParameterConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let mut hits = 0usize;
        let n = 5000;
        for _ in 0..n {
            let sampled = store.sample_value(1, |attr| if attr == 0 { 2 } else { 0 }, &mut rng);
            if sampled == 2 {
                hits += 1;
            }
        }
        let p = store.conditional_probability(1, 2, |attr| if attr == 0 { 2 } else { 0 });
        assert!((hits as f64 / n as f64 - p).abs() < 0.03);
    }

    /// Every `(attribute, configuration)` a record of `deletes` or `inserts`
    /// falls in.
    fn touched(store: &CptStore, deletes: &[Record], inserts: &[Record]) -> Vec<(usize, u64)> {
        let mut touched: Vec<(usize, u64)> = deletes
            .iter()
            .chain(inserts)
            .flat_map(|r| (0..3).map(|attr| (attr, store.configuration_index(attr, |p| r.get(p)))))
            .collect();
        touched.sort_unstable();
        touched.dedup();
        touched
    }

    /// Check the rows a delta-derived store holds before any read: a carried
    /// row is the parent's allocation and equals the fresh store's row, no
    /// touched configuration is carried, and no untouched filled row is
    /// dropped.  Returns how many rows were carried.
    fn check_carry(
        parent: &CptStore,
        updated: &CptStore,
        fresh: &CptStore,
        touched: &[(usize, u64)],
    ) -> std::result::Result<usize, String> {
        let mut carried = 0;
        for attr in 0..3 {
            for c in 0..updated.configurations(attr) {
                let filled = parent.cache[attr][c as usize].get();
                let is_touched = touched.contains(&(attr, c));
                match updated.cache[attr][c as usize].get() {
                    Some(row) => {
                        if **row != *fresh.row(attr, c) {
                            return Err(format!("{attr}/{c}: carried row differs"));
                        }
                        if is_touched {
                            return Err(format!("{attr}/{c}: touched row carried"));
                        }
                        if !filled.is_some_and(|old| Arc::ptr_eq(old, row)) {
                            return Err(format!("{attr}/{c}: row not shared"));
                        }
                        carried += 1;
                    }
                    None if filled.is_some() && !is_touched => {
                        return Err(format!("{attr}/{c}: untouched row dropped"));
                    }
                    None => {}
                }
            }
        }
        Ok(carried)
    }

    #[test]
    fn delta_merged_counts_rebuild_the_same_store() {
        let (d, g) = wide_dataset(1000);
        let bkt = Bucketizer::identity(d.schema());
        let deletes: Vec<Record> = d.records()[..4].to_vec();
        let inserts = vec![Record::new(vec![2, 2, 4]), Record::new(vec![0, 1, 1])];
        let mut final_records: Vec<Record> = d.records()[4..].to_vec();
        final_records.extend(inserts.iter().cloned());
        let final_dataset = Dataset::from_records_unchecked(d.schema_arc(), final_records);
        let exact = ParameterConfig::default();
        let noisy = ParameterConfig {
            epsilon_p: Some(0.3),
            global_seed: 7,
            ..exact
        };
        let sampled = ParameterConfig {
            sample_parameters: true,
            ..noisy
        };
        for config in [exact, noisy, sampled] {
            let store = CptStore::learn(&d, &bkt, &g, config).unwrap();
            // Warm every slot but one untouched configuration, so the delta
            // result must carry the untouched rows, leave the touched ones
            // to refill, and leave an empty slot empty.
            let touched = touched(&store, &deletes, &inserts);
            let cold = (0..20).find(|&c| !touched.contains(&(2, c))).unwrap();
            for attr in 0..3 {
                for c in 0..store.configurations(attr) {
                    if (attr, c) != (2, cold) {
                        let _ = store.conditional(attr, c);
                    }
                }
            }
            let updated = store.apply_delta(&deletes, &inserts).unwrap();
            let fresh = CptStore::learn(&final_dataset, &bkt, &g, config).unwrap();
            assert_eq!(updated, fresh);
            assert_eq!(updated.training_records(), 998);
            let carried = check_carry(&store, &updated, &fresh, &touched).unwrap();
            assert_eq!(carried, 25 - touched.len() - 1, "{config:?}");
            assert!(updated.cache[2][cold as usize].get().is_none());
            for attr in 0..3 {
                for c in 0..updated.configurations(attr) {
                    assert_eq!(*updated.conditional(attr, c), *fresh.conditional(attr, c));
                }
            }

            // A store that carried every filled slot would serve the stale
            // rows of the configurations whose counts moved.
            let mut mutant = store.apply_delta(&deletes, &inserts).unwrap();
            mutant.cache = store.cache.clone();
            assert!(check_carry(&store, &mutant, &fresh, &touched).is_err());
            assert!(touched
                .iter()
                .any(|&(attr, c)| mutant.conditional(attr, c) != fresh.conditional(attr, c)));
        }

        // Deleting a record that was never counted underflows and is rejected.
        let store = CptStore::learn(&d, &bkt, &g, exact).unwrap();
        let phantom = vec![Record::new(vec![2, 0, 0]); 2000];
        assert!(store.apply_delta(&phantom, &[]).is_err());
    }

    #[test]
    fn invalid_inputs_rejected() {
        let d = dataset(10);
        let bkt = Bucketizer::identity(d.schema());
        let bad_alpha = ParameterConfig {
            alpha: 0.0,
            ..ParameterConfig::default()
        };
        assert!(CptStore::learn(&d, &bkt, &graph(), bad_alpha).is_err());
        let bad_eps = ParameterConfig {
            epsilon_p: Some(-1.0),
            ..ParameterConfig::default()
        };
        assert!(CptStore::learn(&d, &bkt, &graph(), bad_eps).is_err());
        let empty = d.truncated(0);
        assert!(CptStore::learn(&empty, &bkt, &graph(), ParameterConfig::default()).is_err());
        let wrong_graph = DependencyGraph::empty(5);
        assert!(CptStore::learn(&d, &bkt, &wrong_graph, ParameterConfig::default()).is_err());
    }

    #[test]
    fn out_of_range_configuration_is_rejected_without_filling_a_slot() {
        let d = dataset(500);
        let bkt = Bucketizer::identity(d.schema());
        let config = ParameterConfig {
            epsilon_p: Some(0.3),
            sample_parameters: true,
            global_seed: 5,
            ..ParameterConfig::default()
        };
        let store = CptStore::learn(&d, &bkt, &graph(), config).unwrap();
        assert_eq!(store.configurations(1), 3);
        for configuration in [3, u64::MAX] {
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                store.conditional(1, configuration).to_vec()
            }))
            .unwrap_err();
            let message = panic.downcast_ref::<String>().unwrap();
            assert!(
                message.contains(&format!(
                    "configuration {configuration} out of range for attribute 1"
                )),
                "{message}"
            );
        }
        // The rejected calls filled nothing: the last slot is still keyed,
        // counted and seeded by its own configuration.
        assert_eq!(store.cached_configurations(), 0);
        let fresh = CptStore::learn(&d, &bkt, &graph(), config).unwrap();
        assert_eq!(store.conditional(1, 2), fresh.conditional(1, 2));
    }

    /// Three attributes with 1 + 4 + 20 parent configurations: A (4 values),
    /// B | A (5 values) and C | A, B (6 values).
    fn wide_dataset(n: usize) -> (Dataset, DependencyGraph) {
        let schema = StdArc::new(
            sgf_data::Schema::new(vec![
                Attribute::categorical_anon("A", 4),
                Attribute::categorical_anon("B", 5),
                Attribute::categorical_anon("C", 6),
            ])
            .unwrap(),
        );
        let mut rng = StdRng::seed_from_u64(3);
        let records = (0..n)
            .map(|_| {
                let a: u16 = rng.gen_range(0..4);
                let b = (a + rng.gen_range(0..2u16)) % 5;
                let c = (a + b + rng.gen_range(0..2u16)) % 6;
                Record::new(vec![a, b, c])
            })
            .collect();
        let graph = DependencyGraph::from_parent_sets(vec![vec![], vec![0], vec![0, 1]]).unwrap();
        (Dataset::from_records_unchecked(schema, records), graph)
    }

    #[test]
    fn concurrent_first_use_fills_each_slot_once_with_the_same_values() {
        let (d, g) = wide_dataset(3000);
        let bkt = Bucketizer::identity(d.schema());
        let config = ParameterConfig {
            epsilon_p: Some(0.4),
            sample_parameters: true,
            global_seed: 23,
            ..ParameterConfig::default()
        };
        let reference = CptStore::learn(&d, &bkt, &g, config).unwrap();
        let shared = CptStore::learn(&d, &bkt, &g, config).unwrap();
        let cells: Vec<(usize, u64)> = (0..3)
            .flat_map(|attr| (0..shared.configurations(attr)).map(move |c| (attr, c)))
            .collect();
        assert_eq!(cells.len(), 25);

        // Four threads start together and walk every configuration in a
        // different order (rotated, odd threads reversed).  Each records the
        // address of the slice it was handed.
        let threads = 4;
        let barrier = std::sync::Barrier::new(threads);
        let seen: Vec<Vec<((usize, u64), usize)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let (shared, cells, barrier) = (&shared, &cells, &barrier);
                    scope.spawn(move || {
                        let mut order = cells.clone();
                        order.rotate_left(t * cells.len() / threads);
                        if t % 2 == 1 {
                            order.reverse();
                        }
                        barrier.wait();
                        order
                            .into_iter()
                            .map(|(attr, c)| {
                                ((attr, c), shared.conditional(attr, c).as_ptr() as usize)
                            })
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        // Every thread was handed the same allocation: each slot was filled
        // exactly once.
        for &(attr, c) in &cells {
            let address = shared.conditional(attr, c).as_ptr() as usize;
            for thread in &seen {
                assert!(thread.contains(&((attr, c), address)), "{attr}/{c}");
            }
        }
        assert_eq!(shared.cached_configurations(), cells.len());
        // And the values equal a single-threaded store's, filled in order.
        for &(attr, c) in &cells {
            assert_eq!(shared.conditional(attr, c), reference.conditional(attr, c));
        }
        assert_eq!(reference.cached_configurations(), cells.len());
    }

    #[test]
    fn cache_grows_lazily() {
        let d = dataset(500);
        let bkt = Bucketizer::identity(d.schema());
        let store = CptStore::learn(&d, &bkt, &graph(), ParameterConfig::default()).unwrap();
        assert_eq!(store.cached_configurations(), 0);
        let _ = store.conditional(1, 0);
        let _ = store.conditional(1, 0);
        assert_eq!(store.cached_configurations(), 1);
        let _ = store.conditional(1, 1);
        assert_eq!(store.cached_configurations(), 2);
    }

    #[test]
    fn cumulative_rows_sample_what_the_categorical_scan_samples() {
        // The row's binary search must return, word for word, the value the
        // linear scan of `sample_categorical` returns over the same
        // conditional, on every slot that 10⁵ ancestral draws touch: with
        // posterior means and with noisy, Dirichlet-sampled rows.
        use rand::RngCore;
        use sgf_data::acs::{acs_bucketizer, acs_schema, generate_acs};
        let data = generate_acs(4000, 11);
        let bkt = acs_bucketizer(&acs_schema());
        let mut structure_rng = StdRng::seed_from_u64(11);
        let graph = crate::structure::learn_structure_from_counts(
            &crate::counts::StructureCounts::fit(&data, &bkt).unwrap(),
            &bkt,
            &crate::structure::StructureConfig::exact(),
            &mut structure_rng,
        )
        .unwrap()
        .graph;
        let order = graph.topological_order().unwrap();
        for config in [
            ParameterConfig::default(),
            ParameterConfig {
                epsilon_p: Some(1.0),
                sample_parameters: true,
                global_seed: 5,
                ..ParameterConfig::default()
            },
        ] {
            let store = CptStore::learn(&data, &bkt, &graph, config).unwrap();
            let mut rng = StdRng::seed_from_u64(23);
            let mut values = vec![0u16; order.len()];
            let mut calls = 0;
            while calls < 100_000 {
                for &attr in &order {
                    let mut scan = rng.clone();
                    let value = store.sample_value(attr, |p| values[p], &mut rng);
                    let row =
                        store.conditional(attr, store.configuration_index(attr, |p| values[p]));
                    assert_eq!(
                        usize::from(value),
                        sgf_stats::sample_categorical(row, &mut scan),
                        "attribute {attr}, call {calls}"
                    );
                    assert_eq!(rng.next_u64(), scan.next_u64(), "one word per draw");
                    values[attr] = value;
                    calls += 1;
                }
            }
            assert!(store.cached_configurations() > order.len());
        }
    }
}
