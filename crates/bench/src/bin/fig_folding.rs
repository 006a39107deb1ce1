//! `fig_folding`: the shared class-match cache's equivalence gate.
//!
//! One trained session's partition store (which carries the class-match
//! cache) and a cache-less `PartitionIndexStore::build` over the same seeds
//! each replay the same seeded `workers = 1` requests through
//! `Mechanism::with_store`.  Both replays must release the bytes the
//! session's own (σ-prefix) release does, and the cached store must report a
//! non-zero hit rate.  The `serial` point carries the deterministic
//! `class_cache_hits` / `class_cache_misses` counters and is
//! regression-gated by `sgf-bench-track compare`.
//!
//! The binary keeps its name (and its series) from the request-folding
//! sweep it used to run beside the gate, so `serial` stays comparable with
//! its recorded baselines.

use bench::track::{BenchPoint, SeriesRecorder};
use bench::{base_population, scale_from_args, smoke_mode};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sgf_core::{
    request_worker_seed, GenerateRequest, Mechanism, MechanismStats, PartitionIndexStore,
    PrivacyTestConfig, SeedStore, SynthesisEngine, SynthesisSession,
};
use sgf_data::acs::{acs_bucketizer, acs_schema, generate_acs};
use sgf_data::Record;
use sgf_eval::TextTable;
use sgf_model::{OmegaSpec, SeedSynthesizer};
use std::sync::Arc;

/// The session under test (ω = 9, k = 20).
fn train_session(population_scale: usize) -> SynthesisSession {
    let population = generate_acs(base_population() * population_scale, 117);
    let bucketizer = acs_bucketizer(&acs_schema());
    SynthesisEngine::builder()
        .privacy_test(
            PrivacyTestConfig::randomized(20, 4.0, 1.0).with_limits(Some(40), Some(2_000)),
        )
        .omega(OmegaSpec::Fixed(9))
        .max_candidate_factor(30)
        .seed(117)
        .train(&population, &bucketizer)
        .expect("model learning on the generated population succeeds")
}

/// Replay the `workers = 1` request `request` of `session` over `store`.
fn replay(
    session: &SynthesisSession,
    synthesizer: &SeedSynthesizer,
    store: &dyn SeedStore,
    request: &GenerateRequest,
) -> (Vec<Record>, MechanismStats) {
    let config = session.config();
    let mechanism = Mechanism::with_store(synthesizer, session.seeds(), store, config.privacy_test)
        .expect("the session's seeds satisfy the privacy test");
    let mut rng = StdRng::seed_from_u64(request_worker_seed(request.seed, 0));
    mechanism
        .release_until(
            request.target,
            request.target * config.max_candidate_factor,
            &mut rng,
        )
        .expect("replay succeeds")
}

fn main() {
    let scale = scale_from_args();
    let target = if smoke_mode() { 12 } else { 25 };
    let serial_requests: u64 = 6;

    let session = train_session(scale);
    let synthesizer =
        SeedSynthesizer::new(Arc::clone(&session.models().cpts), 9).expect("omega 9 is valid");
    let cached = session
        .partition_store()
        .expect("sessions provide a partition store");
    let cold = PartitionIndexStore::build(session.seeds(), cached.attributes())
        .expect("the session's partition key is valid");

    // Byte-identical equivalence + deterministic cache counters.
    let mut recorder = SeriesRecorder::new("fig_folding", scale);
    let mut table = TextTable::new(&[
        "Request seed",
        "Released",
        "Cache hits",
        "Cache misses",
        "Partition tests",
    ]);
    let (mut hits, mut misses, mut released, mut candidates) = (0u64, 0u64, 0u64, 0u64);
    for seed in 0..serial_requests {
        let request = GenerateRequest::new(target).with_seed(seed);
        let (warm_records, warm) = replay(&session, &synthesizer, cached, &request);
        let (base_records, base) = replay(&session, &synthesizer, &cold, &request);
        assert_eq!(
            warm_records, base_records,
            "class cache changed the released records at seed {seed}"
        );
        let release = session
            .generate(&request)
            .expect("session release succeeds");
        assert_eq!(
            release.synthetics.records(),
            &warm_records[..],
            "the partition replay diverged from the session release at seed {seed}"
        );
        assert_eq!(warm.released, base.released);
        assert_eq!(warm.candidates, base.candidates);
        assert_eq!(
            base.class_cache_hits + base.class_cache_misses,
            0,
            "the cache-less store consulted a class cache"
        );
        hits += warm.class_cache_hits as u64;
        misses += warm.class_cache_misses as u64;
        released += warm.released as u64;
        candidates += warm.candidates as u64;
        table.add_row(&[
            seed.to_string(),
            warm.released.to_string(),
            warm.class_cache_hits.to_string(),
            warm.class_cache_misses.to_string(),
            warm.partition_tests.to_string(),
        ]);
    }
    assert!(
        hits > 0,
        "class cache never hit across {serial_requests} requests"
    );
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    recorder.add(
        BenchPoint::new("serial")
            .counter("requests", serial_requests)
            .counter("released", released)
            .counter("candidates", candidates)
            .counter("cache_hits", hits)
            .counter("cache_misses", misses),
    );
    println!("Class-match cache equivalence (omega = 9, k = 20, scale {scale})\n");
    println!("{}", table.render());
    println!(
        "fig_folding: byte-identical releases with class cache on vs off \
         ({serial_requests} request seeds, cache hit rate {:.1}%)\n",
        100.0 * hit_rate
    );
    recorder.finish();
}
