//! # sgf-stats
//!
//! Statistics substrate for the SGF reproduction of *Plausible Deniability for
//! Privacy-Preserving Data Synthesis* (VLDB 2017): histograms, entropy read
//! off count vectors and the symmetrical-uncertainty correlation of Eq. 5
//! with its DP sensitivity bound, the Laplace mechanism, Gamma, Dirichlet
//! and categorical samplers for the parameter prior of Section 3.4,
//! the capped hypergeometric draw of the privacy test's examination cap,
//! total-variation distance for the utility evaluation, the DP composition
//! theorems of Appendix A, and deterministic per-configuration RNG seeding.

pub mod composition;
pub mod config_rng;
pub mod distance;
pub mod entropy;
pub mod histogram;
pub mod laplace;
pub mod sampling;

pub use composition::{
    advanced_composition, calibrate_epsilon_h, calibrate_epsilon_p, parameter_learning_budget,
    sampling_amplification, sequential_composition, structure_learning_budget, DpBudget,
};
pub use config_rng::{configuration_rng, configuration_seed, fnv1a_hash};
pub use distance::{
    attribute_distances, pairwise_distances, total_variation, total_variation_histograms,
    FiveNumberSummary,
};
pub use entropy::{
    entropy_from_counts, entropy_sensitivity, symmetrical_uncertainty_from_entropies,
};
pub use histogram::{Histogram, JointHistogram};
pub use laplace::{laplace_mechanism, Laplace};
pub use sampling::{
    dirichlet_posterior_mean, sample_capped_hypergeometric, sample_categorical, sample_dirichlet,
    sample_gamma,
};
