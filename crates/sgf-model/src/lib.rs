//! # sgf-model
//!
//! The privacy-preserving generative model of Section 3 of *Plausible
//! Deniability for Privacy-Preserving Data Synthesis* (VLDB 2017):
//!
//! * [`graph`] — dependency DAGs between attributes (Eq. 2);
//! * [`correlation`] — symmetrical-uncertainty correlation matrices, exact or
//!   with DP noisy entropies (Section 3.3.1), computed only by
//!   [`StructureCounts::matrix`];
//! * [`counts`] — the summable structure-learning counts that matrix is read
//!   from, one fit or merged deltas;
//! * [`cfs`] — Correlation-based Feature Selection with the merit score of
//!   Eq. 4 under the acyclicity and `maxcost` (Eq. 6) constraints;
//! * [`structure`] — end-to-end (privacy-preserving) structure learning;
//! * [`parameters`] — Dirichlet-multinomial CPTs with DP noisy counts (Eq. 14),
//!   materialized lazily into lock-free per-configuration slots with
//!   deterministic noise;
//! * [`model`] — the [`GenerativeModel`] abstraction plus the Bayesian-network
//!   model (ancestral sampling, likelihood, most-likely-value prediction);
//! * [`synthesis`] — the seed-based synthesizer with re-sampling order σ and
//!   ω re-sampled attributes (Section 3.2);
//! * [`marginal`] — the independent-marginals baseline.

pub mod cfs;
pub mod correlation;
pub mod counts;
pub mod error;
pub mod graph;
pub mod marginal;
pub mod model;
pub mod parameters;
pub mod structure;
pub mod synthesis;

pub use cfs::{learn_structure, merit_score, parent_set_cost, CfsConfig};
pub use correlation::{CorrelationDpConfig, CorrelationMatrix};
pub use counts::StructureCounts;
pub use error::{ModelError, Result};
pub use graph::DependencyGraph;
pub use marginal::{MarginalConfig, MarginalCounts, MarginalModel};
pub use model::{BayesNetModel, GenerativeModel};
pub use parameters::{CptStore, ParameterConfig};
pub use structure::{
    learn_structure_from_counts, structure_from_correlations, LearnedStructure, StructureConfig,
};
pub use synthesis::{OmegaSpec, SeedSynthesizer};
