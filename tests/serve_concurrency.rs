//! Concurrency harness for the release service: a 16-thread client storm
//! against one session under an (ε, δ) cap sized so that exactly K requests
//! can be admitted.  Verifies the acceptance bar of the serve layer:
//!
//! * exactly K requests succeed, every other one is rejected with a
//!   machine-readable `budget_exhausted` reason carrying the requested/cap
//!   budgets;
//! * the ledger never exceeds the cap at any observed point (a monitor
//!   thread polls the `ledger` verb throughout the storm and checks the
//!   worst-case `reserved_epsilon`/`reserved_delta`);
//! * the final ledger equals the composed (ε, δ) of exactly the K admitted
//!   releases, with no leaked reservations;
//! * re-running the successful per-request seeds against a fresh,
//!   identically-trained session reproduces byte-identical releases.
//!
//! The storm runs the marginal model: it is seed-independent, so every
//! candidate passes the privacy test (Section 8) and each admitted request
//! releases exactly its target — which is what makes "exactly K admitted"
//! deterministic (no freed partial reservations reopening admission).

use sgf::core::{GenerateRequest, PrivacyTestConfig, SynthesisEngine, SynthesisSession};
use sgf::data::acs::{acs_bucketizer, acs_schema, generate_acs};
use sgf::serve::{
    cap_admitting, reject, serve, Client, ClientError, GenerateCall, ModelKind, ServeConfig,
    SessionEntry,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn train_session(seed: u64) -> SynthesisSession {
    let population = generate_acs(4_000, seed);
    let bucketizer = acs_bucketizer(&acs_schema());
    SynthesisEngine::builder()
        .privacy_test(
            PrivacyTestConfig::randomized(20, 4.0, 1.0).with_limits(Some(40), Some(2_000)),
        )
        .max_candidate_factor(30)
        .seed(seed)
        .train(&population, &bucketizer)
        .unwrap()
}

const STORM_CLIENTS: u64 = 16;
const ADMITTED: usize = 3; // K
const TARGET: usize = 4; // records per request

fn storm_call(seed: u64) -> GenerateCall {
    GenerateCall::new(TARGET)
        .with_model(ModelKind::Marginal)
        .with_request(GenerateRequest::new(TARGET).with_seed(seed))
}

#[test]
fn sixteen_thread_storm_admits_exactly_k_requests() {
    let session = train_session(31);
    let local = session.clone();
    let per_release = session.per_release_budget().unwrap();
    let cap = cap_admitting(&session, ADMITTED * TARGET).unwrap();
    // Exact-admission counting requires the composed release budget to
    // dominate the model budget — sanity-check the sizing assumption.
    assert!(
        (ADMITTED * TARGET) as f64 * per_release.epsilon > local.ledger().model_budget().epsilon,
        "cap sizing assumption violated: model budget dominates"
    );

    let handle = serve(
        ServeConfig {
            queue_capacity: STORM_CLIENTS as usize * 2,
            workers: 4,
            ..ServeConfig::default()
        },
        vec![SessionEntry::new(session).capped(cap)],
    )
    .unwrap();
    let addr = handle.addr();

    // Monitor: poll the ledger throughout the storm; the worst-case exposure
    // (committed + reserved) must never exceed the cap at any point.
    let stop = Arc::new(AtomicBool::new(false));
    let monitor_stop = Arc::clone(&stop);
    let monitor = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        let mut snapshots = 0usize;
        while !monitor_stop.load(Ordering::SeqCst) {
            let response = client.ledger("default").unwrap();
            let ledger = response.get("ledger").expect("ledger object");
            let reserved_epsilon = ledger
                .get("reserved_epsilon")
                .and_then(|v| v.as_f64())
                .expect("finite reserved_epsilon");
            let reserved_delta = ledger
                .get("reserved_delta")
                .and_then(|v| v.as_f64())
                .expect("finite reserved_delta");
            assert!(
                reserved_epsilon <= cap.epsilon && reserved_delta <= cap.delta,
                "observed worst case (ε = {reserved_epsilon}, δ = {reserved_delta}) \
                 over the cap (ε = {}, δ = {})",
                cap.epsilon,
                cap.delta
            );
            snapshots += 1;
            std::thread::sleep(Duration::from_millis(1));
        }
        snapshots
    });

    // The storm: one connection per client thread, all firing at once.
    let outcomes: Vec<(u64, Result<Vec<sgf::data::Record>, ClientError>)> =
        std::thread::scope(|scope| {
            (0..STORM_CLIENTS)
                .map(|seed| {
                    scope.spawn(move || {
                        let mut client = Client::connect(addr).unwrap();
                        let result = client
                            .generate(&storm_call(seed))
                            .map(|release| release.records);
                        (seed, result)
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
    stop.store(true, Ordering::SeqCst);
    let snapshots = monitor.join().unwrap();
    assert!(snapshots > 0, "the monitor must observe the storm");

    // Exactly K succeed with full targets; everyone else gets a
    // machine-readable budget rejection carrying the requested/cap budgets.
    let mut admitted = Vec::new();
    for (seed, outcome) in outcomes {
        match outcome {
            Ok(records) => {
                assert_eq!(records.len(), TARGET, "marginal model must fill the target");
                admitted.push((seed, records));
            }
            Err(ClientError::Rejected(rejection)) => {
                assert_eq!(rejection.code, reject::BUDGET_EXHAUSTED);
                let requested = rejection
                    .detail
                    .get("requested_epsilon")
                    .and_then(|v| v.as_f64())
                    .expect("rejection carries requested_epsilon");
                let capped = rejection
                    .detail
                    .get("cap_epsilon")
                    .and_then(|v| v.as_f64())
                    .expect("rejection carries cap_epsilon");
                assert!(requested > capped);
            }
            Err(other) => panic!("seed {seed}: unexpected failure {other}"),
        }
    }
    assert_eq!(
        admitted.len(),
        ADMITTED,
        "exactly K requests must be admitted"
    );

    // Final ledger: the composed (ε, δ) of exactly the K admitted releases,
    // nothing reserved, never over the cap.
    let ledger = local.ledger();
    assert_eq!(ledger.requests, ADMITTED);
    assert_eq!(ledger.releases, ADMITTED * TARGET);
    assert_eq!(ledger.reserved, 0, "reservations must not leak");
    let expected_epsilon = (ADMITTED * TARGET) as f64 * per_release.epsilon;
    assert!((ledger.cumulative_release().epsilon - expected_epsilon).abs() < 1e-9);
    assert!(ledger.total().epsilon <= cap.epsilon);
    assert!(ledger.total().delta <= cap.delta);

    let mut closer = Client::connect(addr).unwrap();
    closer.shutdown().unwrap();
    handle.join().unwrap();

    // Determinism: a fresh, identically-trained session re-serves the same
    // per-request seeds with byte-identical records.
    let replay = train_session(31);
    for (seed, records) in admitted {
        let report = replay
            .generate_with(
                &replay.models().marginal,
                &GenerateRequest::new(TARGET).with_seed(seed),
            )
            .unwrap();
        assert_eq!(
            report.synthetics.records(),
            &records[..],
            "seed {seed} must reproduce byte-identical records"
        );
    }
}

/// Backpressure: with one worker (artificially slowed), a queue of depth one,
/// and three overlapping requests, the third is rejected with `queue_full`
/// and the configured retry hint — and the two admitted requests complete.
#[test]
fn full_queue_rejects_with_retry_hint() {
    let session = train_session(32);
    // A unique session name isolates this test's observed-latency cell: the
    // storm test shares the process-global metrics registry, and a completed
    // generate on the same session name would replace the configured retry
    // constant with an observed p95.
    let handle = serve(
        ServeConfig {
            queue_capacity: 1,
            workers: 1,
            retry_after_ms: 25,
            service_delay: Some(Duration::from_millis(800)),
            ..ServeConfig::default()
        },
        vec![SessionEntry::new(session).named("backpressure")],
    )
    .unwrap();
    let addr = handle.addr();

    let wait_for = |predicate: &dyn Fn(&sgf::serve::json::Value) -> bool, what: &str| {
        let mut client = Client::connect(addr).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let status = client.status().unwrap();
            if predicate(&status) {
                return;
            }
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    };

    std::thread::scope(|scope| {
        // A occupies the (slowed) worker...
        let a = scope.spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.generate(&storm_call(1).with_session("backpressure"))
        });
        wait_for(
            &|s| s.get("busy_workers").and_then(|v| v.as_u64()) == Some(1),
            "the worker to pick up request A",
        );
        // ...B fills the queue...
        let b = scope.spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.generate(&storm_call(2).with_session("backpressure"))
        });
        wait_for(
            &|s| s.get("queue_depth").and_then(|v| v.as_u64()) == Some(1),
            "request B to be queued",
        );
        // ...so C must bounce off the full queue with the retry hint.  No
        // generate on this session has completed yet, so the hint is the
        // configured fallback constant.
        let mut client = Client::connect(addr).unwrap();
        match client.generate(&storm_call(3).with_session("backpressure")) {
            Err(ClientError::Rejected(rejection)) => {
                assert_eq!(rejection.code, reject::QUEUE_FULL);
                assert_eq!(rejection.retry_after_ms, Some(25));
            }
            other => panic!("expected queue_full, got {other:?}"),
        }
        // The admitted requests still complete normally.
        assert_eq!(a.join().unwrap().unwrap().records.len(), TARGET);
        assert_eq!(b.join().unwrap().unwrap().records.len(), TARGET);
    });

    let mut closer = Client::connect(addr).unwrap();
    closer.shutdown().unwrap();
    handle.join().unwrap();
}

/// Request folding equivalence: a folded serve run (multi-worker,
/// multi-client, under the `service_delay` chaos knob) must release
/// byte-identical records per request seed to an unfolded run against an
/// identically-trained session — folding is a pure throughput mechanism,
/// invisible in every released byte.
#[test]
fn folded_cached_serve_matches_unfolded_cold_cache_run() {
    const CLIENTS: u64 = 12;
    const FOLD_TARGET: usize = 6;
    type Outcomes = Vec<(u64, Vec<sgf::data::Record>)>;

    let run = |name: &'static str, max_fold: usize, delay: Option<Duration>| -> (Outcomes, u64) {
        let population = generate_acs(4_000, 77);
        let bucketizer = acs_bucketizer(&acs_schema());
        let session = SynthesisEngine::builder()
            .privacy_test(
                PrivacyTestConfig::randomized(20, 4.0, 1.0).with_limits(Some(40), Some(2_000)),
            )
            .max_candidate_factor(30)
            .seed(77)
            .train(&population, &bucketizer)
            .unwrap();
        let handle = serve(
            ServeConfig {
                workers: 2,
                max_fold: Some(max_fold),
                service_delay: delay,
                queue_capacity: CLIENTS as usize * 2,
                ..ServeConfig::default()
            },
            vec![SessionEntry::new(session).named(name)],
        )
        .unwrap();
        let addr = handle.addr();
        let mut results: Outcomes = std::thread::scope(|scope| {
            (0..CLIENTS)
                .map(|seed| {
                    scope.spawn(move || {
                        let mut client = Client::connect(addr).unwrap();
                        let call = GenerateCall::new(FOLD_TARGET)
                            .with_session(name)
                            .with_request(GenerateRequest::new(FOLD_TARGET).with_seed(seed));
                        (seed, client.generate(&call).unwrap().records)
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        results.sort_by_key(|(seed, _)| *seed);
        let mut client = Client::connect(addr).unwrap();
        let folded_requests = client
            .metrics(Some(name), false)
            .unwrap()
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .and_then(|c| c.get("serve.folded_requests"))
            .and_then(|v| v.as_u64())
            .unwrap_or(0);
        client.shutdown().unwrap();
        handle.join().unwrap();
        (results, folded_requests)
    };

    // Folded side: folding on, slowed workers so the queue builds up and
    // pops genuinely coalesce.  Cold side: folding off.
    let (folded, folded_requests) = run("folded", 8, Some(Duration::from_millis(150)));
    let (cold, cold_folds) = run("cold", 1, None);
    assert!(
        folded_requests > 0,
        "the folded run must actually coalesce requests"
    );
    assert_eq!(cold_folds, 0, "max_fold = 1 must disable folding");
    assert_eq!(folded.len(), cold.len());
    for ((seed_a, a), (seed_b, b)) in folded.iter().zip(&cold) {
        assert_eq!(seed_a, seed_b);
        assert!(!a.is_empty(), "seed {seed_a} released nothing");
        assert_eq!(
            a, b,
            "request seed {seed_a} must release byte-identical records"
        );
    }
}

/// Adaptive folding regression: with the default (adaptive) fold cap,
/// strictly sequential traffic — each request completing before the next is
/// sent — must never fold, because the worker always observes an empty queue
/// at pop time.  This is what keeps the sequential smoke documents
/// byte-identical to a fold-free server: no fold metrics, no fold spans, no
/// `fold` block in any provenance.
#[test]
fn sequential_traffic_never_folds_under_the_adaptive_cap() {
    let session = train_session(35);
    let handle = serve(
        ServeConfig {
            workers: 4,
            // The default: adaptive folding from observed queue depth.
            max_fold: None,
            ..ServeConfig::default()
        },
        vec![SessionEntry::new(session).named("sequential")],
    )
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    for seed in 0..8 {
        let release = client
            .generate(&storm_call(seed).with_session("sequential"))
            .unwrap();
        assert_eq!(release.records.len(), TARGET);
        assert!(
            release.provenance.get("fold").is_none(),
            "sequential request {seed} must not carry a fold block"
        );
    }
    let folds = client
        .metrics(Some("sequential"), false)
        .unwrap()
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get("serve.folds"))
        .and_then(|v| v.as_u64())
        .unwrap_or(0);
    assert_eq!(folds, 0, "an empty queue must never fold");
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Satellite of the scope-cell hygiene fix: a flood of generate requests for
/// a made-up session name is rejected with `unknown_session` and leaves the
/// process-global metrics registry without a cell for that name — scope
/// cells exist for registered sessions only, so bogus names cannot grow the
/// registry without bound.
#[test]
fn rejected_unknown_session_allocates_no_metric_scope() {
    let session = train_session(34);
    let handle = serve(
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        vec![SessionEntry::new(session).named("registered-only")],
    )
    .unwrap();
    let addr = handle.addr();
    let bogus = "bogus-session-that-never-registers";
    let bogus_key = format!("session={bogus}");
    let before = sgf::metrics::global().snapshot();
    assert!(!before.scopes.contains_key(&bogus_key));

    let mut client = Client::connect(addr).unwrap();
    for seed in 0..5 {
        match client.generate(&storm_call(seed).with_session(bogus)) {
            Err(ClientError::Rejected(rejection)) => {
                assert_eq!(rejection.code, reject::UNKNOWN_SESSION);
            }
            other => panic!("expected unknown_session, got {other:?}"),
        }
    }

    // The rejections allocated no scope cell for the bogus name (other tests
    // in this binary may touch *registered* scopes concurrently, so the
    // assertion is about the bogus key, not total snapshot equality).
    let after = sgf::metrics::global().snapshot();
    assert!(!after.scopes.contains_key(&bogus_key));
    assert!(
        after.scopes.keys().all(|key| !key.contains("bogus")),
        "no scope cell may be created for an unregistered session"
    );

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Chaos knob: once a generate on the session has completed, `queue_full`
/// rejections stop quoting the configured constant and instead carry the
/// p95 upper bound of the session's *observed* service time — which, with
/// an injected delay, is dominated by the delay itself.
#[test]
fn retry_hint_tracks_observed_service_time() {
    let session = train_session(33);
    let delay_ms: u64 = 200;
    let handle = serve(
        ServeConfig {
            queue_capacity: 1,
            workers: 1,
            retry_after_ms: 25,
            service_delay: Some(Duration::from_millis(delay_ms)),
            ..ServeConfig::default()
        },
        vec![SessionEntry::new(session).named("chaos")],
    )
    .unwrap();
    let addr = handle.addr();
    let call = |seed: u64| storm_call(seed).with_session("chaos");

    let wait_for = |predicate: &dyn Fn(&sgf::serve::json::Value) -> bool, what: &str| {
        let mut client = Client::connect(addr).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let status = client.status().unwrap();
            if predicate(&status) {
                return;
            }
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    };

    // One completed request seeds the session's service-time summary with a
    // latency dominated by the injected delay.
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.generate(&call(1)).unwrap().records.len(), TARGET);
    // The worker records the observation after writing the response; wait
    // until the session's noisy metrics cell shows it.
    {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let observed = client
                .metrics(Some("chaos"), true)
                .unwrap()
                .get("metrics")
                .and_then(|m| m.get("summaries"))
                .and_then(|s| s.get("serve.generate_ms"))
                .and_then(|s| s.get("count"))
                .and_then(|v| v.as_u64())
                .unwrap_or(0);
            if observed >= 1 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "service-time summary never recorded"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    std::thread::scope(|scope| {
        let a = scope.spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.generate(&call(2))
        });
        wait_for(
            &|s| s.get("busy_workers").and_then(|v| v.as_u64()) == Some(1),
            "the worker to pick up the occupying request",
        );
        let b = scope.spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.generate(&call(3))
        });
        wait_for(
            &|s| s.get("queue_depth").and_then(|v| v.as_u64()) == Some(1),
            "the queue-filling request to be queued",
        );
        let mut client = Client::connect(addr).unwrap();
        match client.generate(&call(4)) {
            Err(ClientError::Rejected(rejection)) => {
                assert_eq!(rejection.code, reject::QUEUE_FULL);
                let hint = rejection.retry_after_ms.expect("queue_full carries a hint");
                // Honest hint: at least the injected delay, not the config
                // constant.
                assert!(
                    hint >= delay_ms,
                    "hint {hint}ms below the {delay_ms}ms observed floor"
                );
                assert_ne!(hint, 25, "hint must come from the observed p95");
            }
            other => panic!("expected queue_full, got {other:?}"),
        }
        assert_eq!(a.join().unwrap().unwrap().records.len(), TARGET);
        assert_eq!(b.join().unwrap().unwrap().records.len(), TARGET);
    });

    let mut closer = Client::connect(addr).unwrap();
    closer.shutdown().unwrap();
    handle.join().unwrap();
}
