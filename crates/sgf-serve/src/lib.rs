//! # sgf-serve
//!
//! A budget-capped release service over a trained
//! [`SynthesisSession`](sgf_core::SynthesisSession) — the deployable
//! front-end for the paper's release mechanism (Section 8 discusses composing
//! (ε, δ) across releases; the ledger's reserve/commit protocol enforces a
//! cap on that composition under concurrency).
//!
//! * [`protocol`] — the JSON-lines TCP protocol: `generate` / `status` /
//!   `ledger` / `metrics` / `trace` / `shutdown` verbs, machine-readable
//!   rejection codes;
//! * [`server`] — the std-only threaded server: accept loop, **bounded
//!   request queue with backpressure**, worker pool fanning requests onto
//!   `session.generate`, **atomic (ε, δ) admission control**, graceful
//!   drain.  Every session is served under a `session=<name>` metric scope,
//!   so the `metrics` verb reports per-session labeled cells that sum
//!   exactly to the global rollup, and the `trace` verb returns the
//!   deterministic span trees (train → generate → proposals → per-candidate
//!   privacy tests) of recent requests.  `queue_full` rejections carry a
//!   retry hint derived from the session's observed p95 service time;
//! * [`client`] — a blocking client used by the tests, the example, and the
//!   `sgf-serve --smoke` self-test;
//! * [`queue`] — the bounded MPMC queue.
//!
//! Every line on the wire is encoded and parsed by the workspace's one JSON
//! codec, [`sgf_metrics::json`]; [`json`] re-exports it under the names the
//! protocol's clients use.
//!
//! ## Quickstart
//!
//! ```no_run
//! use sgf_core::{PrivacyTestConfig, SynthesisEngine};
//! use sgf_data::acs::{acs_bucketizer, acs_schema, generate_acs};
//! use sgf_serve::{cap_admitting, serve, GenerateCall, ServeConfig, SessionEntry};
//!
//! let population = generate_acs(4_000, 42);
//! let bucketizer = acs_bucketizer(&acs_schema());
//! let session = SynthesisEngine::builder()
//!     .privacy_test(PrivacyTestConfig::randomized(20, 4.0, 1.0))
//!     .seed(42)
//!     .train(&population, &bucketizer)
//!     .unwrap();
//!
//! // Cap the session at the composed budget of 100 released records, then
//! // serve it; port 0 binds an ephemeral port.
//! let cap = cap_admitting(&session, 100).unwrap();
//! let handle = serve(
//!     ServeConfig::default(),
//!     vec![SessionEntry::new(session).capped(cap)],
//! )
//! .unwrap();
//! println!("serving on {}", handle.addr());
//!
//! let mut client = sgf_serve::Client::connect(handle.addr()).unwrap();
//! let release = client.generate(&GenerateCall::new(25)).unwrap();
//! println!("released {} records", release.records.len());
//! client.shutdown().unwrap();
//! handle.join().unwrap();
//! ```

pub mod client;
pub mod protocol;
pub mod queue;
pub mod server;

/// The wire codec: [`sgf_metrics::Json`] under the protocol's name `Value`.
pub mod json {
    pub use sgf_metrics::json::{Json as Value, ParseError};
}

pub use client::{Client, ClientError, ClientResult, Rejection, Release};
pub use protocol::{reject, GenerateCall, ModelKind, Request, UpdateCall, DEFAULT_SESSION};
pub use queue::{BoundedQueue, PushError};
pub use server::{cap_admitting, serve, ServeConfig, ServerHandle, SessionEntry, MAX_LINE};
