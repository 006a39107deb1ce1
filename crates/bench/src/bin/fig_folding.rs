//! `fig_folding`: request folding + shared class-match cache — the served
//! requests × concurrency throughput curve behind the serve-layer fold path.
//!
//! Two parts:
//!
//! 1. **Equivalence gate (deterministic).**  Two sessions trained from the
//!    same seed, one with the class-match cache enabled and one without,
//!    answer the same seeded requests through the partition store (the only
//!    store with a class cache; `Auto` serves from the σ-prefix store, which
//!    needs none); the releases must be byte-identical and the cached
//!    session must report a non-zero hit rate.  These points
//!    carry the deterministic `class_cache_hits` / `class_cache_misses`
//!    counters and are regression-gated by `sgf-bench-track compare`.
//! 2. **Folding sweep (noisy).**  Each variant is served through
//!    `sgf_serve::serve` — cache on with `max_fold = 8` versus cache off
//!    with folding disabled — and hit by 1–8 concurrent same-session
//!    clients with default (`Auto`) requests, so a fold has no cache left to
//!    warm.  Throughput and the `serve.folds` / `serve.folded_requests`
//!    deltas at > 1 client depend on thread timing, so those points are
//!    marked noisy and exempt from gating; the mechanism-counter totals
//!    remain deterministic (misses count distinct cached projections and
//!    per-request lookup counts are scheduling-independent).

use bench::track::{BenchPoint, SeriesRecorder};
use bench::{base_population, scale_from_args, smoke_mode};
use sgf_core::{GenerateRequest, PrivacyTestConfig, SeedIndex, SynthesisEngine, SynthesisSession};
use sgf_data::acs::{acs_bucketizer, acs_schema, generate_acs};
use sgf_eval::TextTable;
use sgf_model::OmegaSpec;
use sgf_serve::{serve, Client, GenerateCall, ServeConfig, SessionEntry};
use std::time::Instant;

/// Concurrent same-session clients in the folding sweep.
const CONCURRENCY: [usize; 4] = [1, 2, 4, 8];

/// Train one variant of the shared session; `cache` toggles the class-match
/// probability cache, everything else (data, split, seed) is identical.
fn train_variant(population_scale: usize, cache: bool) -> SynthesisSession {
    let population = generate_acs(base_population() * population_scale, 117);
    let bucketizer = acs_bucketizer(&acs_schema());
    SynthesisEngine::builder()
        .privacy_test(
            PrivacyTestConfig::randomized(20, 4.0, 1.0).with_limits(Some(40), Some(2_000)),
        )
        .omega(OmegaSpec::Fixed(9))
        .max_candidate_factor(30)
        .class_cache(cache)
        .seed(117)
        .train(&population, &bucketizer)
        .expect("model learning on the generated population succeeds")
}

fn main() {
    let scale = scale_from_args();
    let target = if smoke_mode() { 12 } else { 25 };
    let serial_requests: u64 = 6;
    let per_client = if smoke_mode() { 4 } else { 16 };

    let cached = train_variant(scale, true);
    let cold = train_variant(scale, false);

    // Part 1: byte-identical equivalence + deterministic cache counters.
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
        let request = GenerateRequest::new(target)
            .with_seed(seed)
            .with_seed_index(SeedIndex::Partition);
        let warm = cached.generate(&request).expect("cached release succeeds");
        let base = cold.generate(&request).expect("uncached release succeeds");
        assert_eq!(
            warm.synthetics.records(),
            base.synthetics.records(),
            "class cache changed the released records at seed {seed}"
        );
        assert_eq!(warm.stats.released, base.stats.released);
        assert_eq!(warm.stats.candidates, base.stats.candidates);
        assert_eq!(
            base.stats.class_cache_hits + base.stats.class_cache_misses,
            0,
            "uncached session consulted the class cache"
        );
        hits += warm.stats.class_cache_hits as u64;
        misses += warm.stats.class_cache_misses as u64;
        released += warm.stats.released as u64;
        candidates += warm.stats.candidates as u64;
        table.add_row(&[
            seed.to_string(),
            warm.stats.released.to_string(),
            warm.stats.class_cache_hits.to_string(),
            warm.stats.class_cache_misses.to_string(),
            warm.stats.partition_tests.to_string(),
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
    println!("Request folding: class-match cache equivalence (omega = 9, k = 20, scale {scale})\n");
    println!("{}", table.render());
    println!(
        "fig_folding: byte-identical releases with class cache on vs off \
         ({serial_requests} request seeds, cache hit rate {:.1}%)\n",
        100.0 * hit_rate
    );

    // Part 2: the served folding curve — concurrency sweep per variant.
    let mut table = TextTable::new(&[
        "Variant",
        "Clients",
        "Released",
        "Folds",
        "Folded reqs",
        "Wall (s)",
        "Throughput (req/s)",
    ]);
    for (tag, session, max_fold) in [("on", &cached, 8usize), ("off", &cold, 1usize)] {
        let config = ServeConfig {
            workers: 2,
            queue_capacity: 64,
            max_fold: Some(max_fold),
            ..ServeConfig::default()
        };
        let name = format!("folding-{tag}");
        let handle = serve(
            config,
            vec![SessionEntry::new(session.clone()).named(&name)],
        )
        .expect("server binds an ephemeral port");
        let addr = handle.addr();
        for &clients in &CONCURRENCY {
            let before = sgf_metrics::global().snapshot();
            let started = Instant::now();
            let served: usize = std::thread::scope(|scope| {
                let name = &name;
                let workers: Vec<_> = (0..clients)
                    .map(|client_idx| {
                        scope.spawn(move || {
                            let mut client =
                                Client::connect(addr).expect("client connects to the sweep server");
                            let mut served = 0usize;
                            for turn in 0..per_client {
                                let seed = 1_000 + (clients * 100 + client_idx * 10 + turn) as u64;
                                let call = GenerateCall::new(target)
                                    .with_session(name)
                                    .with_request(GenerateRequest::new(target).with_seed(seed));
                                let release =
                                    client.generate(&call).expect("sweep generate succeeds");
                                assert!(!release.records.is_empty(), "empty sweep release");
                                served += release.records.len();
                            }
                            served
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|worker| worker.join().expect("sweep client thread completes"))
                    .sum()
            });
            let seconds = started.elapsed().as_secs_f64();
            let profile = sgf_metrics::global().snapshot().delta(&before);
            let folds = profile.counter("serve.folds");
            let folded = profile.counter("serve.folded_requests");
            let requests = (clients * per_client) as u64;
            let throughput = requests as f64 / seconds.max(1e-9);
            table.add_row(&[
                tag.to_string(),
                clients.to_string(),
                served.to_string(),
                folds.to_string(),
                folded.to_string(),
                format!("{seconds:.2}"),
                format!("{throughput:.1}"),
            ]);
            let mut point = BenchPoint::new(format!("{tag}_c{clients:02}"))
                .counter("concurrency", clients as u64)
                .counter("requests", requests)
                .counter("released", served as u64)
                .counter("folds", folds)
                .counter("folded_requests", folded)
                .value("wall_seconds", seconds)
                .value("throughput_rps", throughput);
            if clients > 1 {
                point = point.noisy();
            }
            recorder.add(point);
        }
        let mut client = Client::connect(addr).expect("shutdown client connects");
        client.shutdown().expect("server accepts shutdown");
        handle.join().expect("server drains and joins");
    }
    println!("Request folding: served concurrency sweep ({per_client} requests per client)\n");
    println!("{}", table.render());
    recorder.finish();
}
