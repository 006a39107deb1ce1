//! Quickstart: train a synthesis session once on an ACS-like population with
//! the paper's default parameters (k = 50, γ = 4, ε0 = 1, ω = 9), then serve
//! two `generate` requests from the same trained models and print the release
//! statistics and the cumulative privacy ledger.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! A one-off release is `SynthesisEngine::builder()...train(...)` followed by
//! one `session.generate(...)`; the same session serves every later release
//! from the same model.

use sgf::core::{GenerateRequest, PrivacyTestConfig, SynthesisEngine};
use sgf::data::acs::{acs_bucketizer, acs_schema, generate_acs};

fn main() {
    // The ACS-like population stands in for the 2013 Census extract.
    let population = generate_acs(20_000, 7);
    let bucketizer = acs_bucketizer(&acs_schema());

    // Train once: validated config -> data split -> structure + parameters.
    let session = SynthesisEngine::builder()
        .privacy_test(
            PrivacyTestConfig::randomized(50, 4.0, 1.0).with_limits(Some(100), Some(5_000)),
        )
        .seed(7)
        .train(&population, &bucketizer)
        .expect("training succeeds on the generated population");

    println!("== Plausible-deniability synthesis quickstart ==");
    println!("input records          : {}", population.len());
    println!("seeds (D_S)            : {}", session.seeds().len());
    println!(
        "model structure edges  : {}",
        session.models().structure.graph.edge_count()
    );
    println!(
        "training time          : {:.2}s",
        session.training_time().as_secs_f64()
    );

    // Serve many: each request has its own target, seed, and worker count.
    let report = session
        .generate(&GenerateRequest::new(500).with_seed(7))
        .expect("generation succeeds");
    println!("\n-- request 1: 500 synthetics --");
    println!("released synthetics    : {}", report.synthetics.len());
    println!("candidates proposed    : {}", report.stats.candidates);
    println!(
        "privacy-test pass rate : {:.1}%",
        100.0 * report.stats.pass_rate()
    );
    if let Some(per_release) = report.per_release {
        println!(
            "per-release DP bound   : (epsilon = {:.3}, delta = {:.2e})  [Theorem 1]",
            per_release.epsilon, per_release.delta
        );
    }

    let second = session
        .generate(&GenerateRequest::new(250).with_seed(8).with_workers(2))
        .expect("generation succeeds");
    println!("\n-- request 2: 250 synthetics, 2 workers --");
    println!("released synthetics    : {}", second.synthetics.len());

    let ledger = session.ledger();
    println!("\ncumulative ledger      : {}", ledger.to_json());
    println!(
        "total (epsilon, delta) : ({:.3}, {:.2e}) over {} releases in {} requests",
        ledger.total().epsilon,
        ledger.total().delta,
        ledger.releases,
        ledger.requests
    );

    println!("\nfirst 5 synthetic records:");
    let schema = report.synthetics.schema();
    for record in report.synthetics.records().iter().take(5) {
        let rendered: Vec<String> = (0..schema.len())
            .map(|a| schema.attribute(a).render(record.get(a) as usize).unwrap())
            .collect();
        println!("  {}", rendered.join(", "));
    }
}
