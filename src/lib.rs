//! # sgf — Synthetic Generation Framework
//!
//! Umbrella crate for the Rust reproduction of *Plausible Deniability for
//! Privacy-Preserving Data Synthesis* (Bindschaedler, Shokri, Gunter —
//! VLDB 2017).  It re-exports the workspace crates so applications can depend
//! on a single crate:
//!
//! * [`data`] — schemas, records, CSV I/O, bucketization, the ACS-like generator;
//! * [`stats`] — entropy, Laplace/Dirichlet sampling, statistical distance, DP composition;
//! * [`model`] — structure learning, CPTs, seed-based synthesis, marginal baseline;
//! * [`index`] — indexed seed stores making the plausible-deniability test sublinear;
//! * [`core`] — plausible-deniability tests, Mechanism 1, Theorem-1 accounting, sessions;
//! * [`serve`] — the budget-capped TCP release service over a trained session;
//! * [`ml`] — trees, forests, AdaBoost, LR/SVM, DP-ERM;
//! * [`eval`] — the table/figure reproduction harness.
//!
//! ## Quickstart
//!
//! Train a session once, then serve any number of `generate` requests from
//! the same models while the [`core::BudgetLedger`] composes the cumulative
//! (ε, δ) privacy cost:
//!
//! ```
//! use sgf::core::{GenerateRequest, PrivacyTestConfig, SynthesisEngine};
//! use sgf::data::acs::{acs_bucketizer, acs_schema, generate_acs};
//!
//! // A small ACS-like population (stand-in for the Census extract).
//! let population = generate_acs(3_000, 42);
//! let bucketizer = acs_bucketizer(&acs_schema());
//!
//! // k = 50 is the paper's default; shrink it for this tiny demo population.
//! let session = SynthesisEngine::builder()
//!     .privacy_test(PrivacyTestConfig::randomized(20, 4.0, 1.0))
//!     .seed(42)
//!     .train(&population, &bucketizer)
//!     .unwrap();
//!
//! let report = session.generate(&GenerateRequest::new(25)).unwrap();
//! println!("released {} synthetics (pass rate {:.1}%), cumulative epsilon {:.2}",
//!          report.synthetics.len(), 100.0 * report.stats.pass_rate(),
//!          session.ledger().total().epsilon);
//! ```

pub use sgf_core as core;
pub use sgf_data as data;
pub use sgf_eval as eval;
pub use sgf_index as index;
pub use sgf_metrics as metrics;
pub use sgf_ml as ml;
pub use sgf_model as model;
pub use sgf_serve as serve;
pub use sgf_stats as stats;
