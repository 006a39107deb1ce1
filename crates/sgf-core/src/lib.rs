//! # sgf-core
//!
//! The plausible-deniability framework of *Plausible Deniability for
//! Privacy-Preserving Data Synthesis* (VLDB 2017):
//!
//! * [`deniability`] — the (k, γ) criterion of Definition 1 and the seed
//!   partitions `I_d(y)` / `C_i(D, y)` underpinning the analysis;
//! * [`privacy_test`] — the deterministic Privacy Test 1 and the randomized
//!   Privacy Test 2 (Laplace-noised threshold), including the tool's
//!   early-termination knobs;
//! * [`mechanism`] — Mechanism 1 (`F`): seed sampling, candidate generation,
//!   test, release — against the full scan (the reference oracle) or any
//!   indexed seed store from [`sgf_index`].  [`Mechanism::release`] runs the
//!   session engine at one worker, so every Mechanism-1 run in the workspace
//!   goes through one loop and draws rank r's candidate from
//!   [`proposal_seed`]`(request_seed, r)`;
//! * [`dp`] — the (ε, δ) guarantees of Theorem 1, end-to-end accounting, and
//!   the cumulative [`BudgetLedger`] of a long-lived session;
//! * [`session`] — the staged **train once, serve many** API and the one
//!   release path: a [`SynthesisEngine`] trains an immutable
//!   [`SynthesisSession`] that tests every [`GenerateRequest`], batch or
//!   streamed, over any [`sgf_model::GenerativeModel`], against its σ-prefix
//!   seed store;
//! * [`pipeline`] — the configuration (the Rust counterpart of the paper's
//!   C++ tool config) and [`learn_models`], the training phase on its own:
//!   the parent-less case of the model derivation every train and update
//!   runs.
//!
//! ```
//! use sgf_core::{GenerateRequest, PrivacyTestConfig, SynthesisEngine};
//! use sgf_data::acs::{acs_bucketizer, acs_schema, generate_acs};
//!
//! let data = generate_acs(3_000, 42);
//! let bucketizer = acs_bucketizer(&acs_schema());
//! // Train once (k = 20 for this small demo dataset)...
//! let session = SynthesisEngine::builder()
//!     .privacy_test(PrivacyTestConfig::randomized(20, 4.0, 1.0))
//!     .seed(42)
//!     .train(&data, &bucketizer)
//!     .unwrap();
//! // ...then serve any number of generate requests from the same models.
//! let report = session.generate(&GenerateRequest::new(25)).unwrap();
//! assert!(report.synthetics.len() <= 25);
//! assert_eq!(session.ledger().releases, report.stats.released);
//! ```

pub mod deniability;
pub mod dp;
pub mod error;
pub mod mechanism;
pub mod pipeline;
pub mod privacy_test;
pub mod session;

pub use deniability::{partition_index, partition_size, satisfies_plausible_deniability};
pub use dp::{BudgetLedger, ReleaseBudget};
pub use error::{CoreError, Result};
pub use mechanism::{CandidateReport, Mechanism, MechanismStats};
pub use pipeline::{learn_models, PipelineConfig, TrainedModels};
pub use privacy_test::{run_privacy_test, run_with_store, PrivacyTestConfig, TestOutcome};
pub use session::{
    proposal_seed, EngineBuilder, GenerateRequest, ReleaseReport, SynthesisEngine, SynthesisSession,
};
pub use sgf_index::{
    InvertedIndexStore, LinearScanStore, PartitionIndexStore, PrefixIndexStore, SeedStore,
};
