//! Integration tests for the staged synthesis-session API: train once, serve
//! many `generate` requests, accumulate the privacy ledger, and accept any
//! `GenerativeModel` implementation through the mechanism.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sgf::core::{
    proposal_seed, GenerateRequest, Mechanism, MechanismStats, PipelineConfig, PrivacyTestConfig,
    SeedStore, SynthesisEngine, SynthesisSession,
};
use sgf::data::acs::{acs_bucketizer, acs_schema, generate_acs};
use sgf::data::Record;
use sgf::model::{GenerativeModel, MarginalModel, OmegaSpec, SeedSynthesizer};
use sgf::stats::DpBudget;
use std::sync::Arc;

fn small_config(target: usize, seed: u64) -> PipelineConfig {
    let mut config = PipelineConfig::paper_defaults(target);
    config.privacy_test =
        PrivacyTestConfig::randomized(20, 4.0, 1.0).with_limits(Some(40), Some(2_000));
    config.max_candidate_factor = 30;
    config.seed = seed;
    config
}

/// Replay the fixed-ω request `request` of `session` rank by rank over
/// `store` — the scan oracle when `None` — as `generate` selects it.
fn replay(
    session: &SynthesisSession,
    store: Option<&dyn SeedStore>,
    request: &GenerateRequest,
) -> (Vec<Record>, MechanismStats) {
    let config = session.config();
    let OmegaSpec::Fixed(omega) = request.omega.unwrap_or(config.omega) else {
        panic!("replay covers fixed-omega requests");
    };
    let synthesizer = SeedSynthesizer::new(Arc::clone(&session.models().cpts), omega).unwrap();
    let (seeds, test) = (session.seeds(), config.privacy_test);
    let mechanism = match store {
        Some(store) => Mechanism::with_store(&synthesizer, seeds, store, test),
        None => Mechanism::new(&synthesizer, seeds, test),
    }
    .unwrap();
    let max_candidates = request.target * config.max_candidate_factor;
    let (mut released, mut stats) = (Vec::new(), MechanismStats::default());
    while released.len() < request.target && stats.candidates < max_candidates {
        // `candidates` counts the ranks proposed so far.
        let mut rng = StdRng::seed_from_u64(proposal_seed(request.seed, stats.candidates));
        let report = mechanism.propose(&mut rng).unwrap();
        stats.observe(&report.outcome);
        if report.released() {
            stats.released += 1;
            released.push(report.record);
        }
    }
    (released, stats)
}

/// A session trains exactly once and serves ≥ 3 sequential requests; the
/// ledger grows monotonically and stays consistent with the per-request stats.
#[test]
fn session_serves_three_requests_with_monotone_ledger() {
    let population = generate_acs(4_000, 21);
    let bucketizer = acs_bucketizer(&acs_schema());
    let session = SynthesisEngine::from_config(small_config(1, 21))
        .train(&population, &bucketizer)
        .unwrap();

    let mut cumulative_releases = 0usize;
    let mut last_epsilon = 0.0f64;
    for (i, request_seed) in [3u64, 5, 7].iter().enumerate() {
        let report = session
            .generate(&GenerateRequest::new(20).with_seed(*request_seed))
            .unwrap();
        assert!(!report.synthetics.is_empty());
        assert!(report.synthetics.len() <= 20);
        assert_eq!(report.synthetics.len(), report.stats.released);
        for record in report.synthetics.records() {
            population
                .schema()
                .validate_values(record.values())
                .unwrap();
        }
        cumulative_releases += report.stats.released;
        assert_eq!(report.ledger.requests, i + 1);
        assert_eq!(report.ledger.releases, cumulative_releases);
        let epsilon = report.ledger.cumulative_release().epsilon;
        assert!(
            epsilon > last_epsilon,
            "cumulative epsilon must grow with every request ({epsilon} vs {last_epsilon})"
        );
        last_epsilon = epsilon;
    }
    assert_eq!(session.ledger().releases, cumulative_releases);
    assert_eq!(session.ledger().requests, 3);
}

/// Train → one `generate` is the one release path: it releases exactly the
/// records the scan oracle releases from the same request seed, and the
/// session ledger charges the one-shot (ε, δ) for them.
#[test]
fn one_shot_run_matches_train_then_generate() {
    let population = generate_acs(3_500, 22);
    let bucketizer = acs_bucketizer(&acs_schema());
    let config = small_config(25, 22);

    let session = SynthesisEngine::from_config(config)
        .train(&population, &bucketizer)
        .unwrap();
    let request = GenerateRequest::new(25)
        .with_omega(config.omega)
        .with_seed(config.seed);
    let report = session.generate(&request).unwrap();
    let (oracle, stats) = replay(&session, None, &request);

    assert_eq!(report.synthetics.records(), &oracle[..]);
    assert_eq!(report.stats.candidates, stats.candidates);
    assert_eq!(report.stats.released, stats.released);
    assert_eq!(report.ledger.releases, stats.released);
    let per_release = report.per_release.expect("randomized test has a bound");
    assert_eq!(report.ledger.per_release, Some(per_release));
    let n = stats.released as f64;
    let releases = DpBudget::new(n * per_release.epsilon, n * per_release.delta);
    assert_eq!(
        report.ledger.total(),
        report.ledger.model_budget().max(releases)
    );
}

/// Splitting one big request into several smaller ones over the same session
/// spends the same cumulative budget as the one-shot accounting for the same
/// number of releases.
#[test]
fn ledger_matches_equivalent_one_shot_accounting() {
    let population = generate_acs(3_500, 23);
    let bucketizer = acs_bucketizer(&acs_schema());
    let session = SynthesisEngine::from_config(small_config(1, 23))
        .train(&population, &bucketizer)
        .unwrap();

    for request_seed in 0..4u64 {
        session
            .generate(&GenerateRequest::new(10).with_seed(request_seed))
            .unwrap();
    }
    let ledger = session.ledger();
    assert_eq!(ledger.requests, 4);
    // The equivalent one-shot budget over the same number of releases.
    let per_release = ledger.per_release.expect("randomized test has a bound");
    let n = ledger.releases as f64;
    let one_shot = DpBudget::new(n * per_release.epsilon, n * per_release.delta);
    assert_eq!(ledger.total(), ledger.model_budget().max(one_shot));
    assert!(
        (ledger.cumulative_release().epsilon - ledger.releases as f64 * per_release.epsilon).abs()
            < 1e-9
    );
}

/// Multi-worker requests keep the count and accounting exact, and release the
/// full target when candidates are plentiful.
#[test]
fn multi_worker_requests_keep_accounting_exact() {
    let population = generate_acs(4_000, 24);
    let bucketizer = acs_bucketizer(&acs_schema());
    let session = SynthesisEngine::from_config(small_config(1, 24))
        .train(&population, &bucketizer)
        .unwrap();

    for workers in [1usize, 2, 4] {
        let before = session.ledger().releases;
        let report = session
            .generate(
                &GenerateRequest::new(30)
                    .with_workers(workers)
                    .with_seed(workers as u64),
            )
            .unwrap();
        assert!(!report.synthetics.is_empty());
        assert!(report.synthetics.len() <= 30);
        // Accounting stays exact even when workers race for the last slots.
        assert_eq!(report.synthetics.len(), report.stats.released);
        assert!(report.stats.released <= report.stats.candidates);
        assert_eq!(session.ledger().releases, before + report.stats.released);
    }
}

/// A `GenerativeModel` trait object (the marginal baseline) passes through the
/// same mechanism and budget accounting as the seed-based synthesizer.
#[test]
fn trait_object_model_serves_through_the_session() {
    let population = generate_acs(3_000, 25);
    let bucketizer = acs_bucketizer(&acs_schema());
    let session = SynthesisEngine::from_config(small_config(1, 25))
        .train(&population, &bucketizer)
        .unwrap();

    // Both the session-owned marginal and an externally learned one work.
    let external = MarginalModel::learn(session.seeds(), Default::default()).unwrap();
    let as_object: &dyn GenerativeModel = &external;
    let report = session
        .generate_with(as_object, &GenerateRequest::new(12).with_seed(1))
        .unwrap();
    // Seed-independent model: every record is an equally plausible seed, so
    // every candidate passes (Section 8).
    assert_eq!(report.stats.released, 12);
    assert!((report.stats.pass_rate() - 1.0).abs() < 1e-12);
    assert_eq!(session.ledger().releases, 12);

    // The seed-based synthesizer path still works on the same session, and
    // keeps charging the same ledger.
    let second = session
        .generate(&GenerateRequest::new(8).with_seed(2))
        .unwrap();
    assert_eq!(session.ledger().releases, 12 + second.stats.released);
}

/// Stream `request` on `session`, collecting the records.  Every record must
/// be charged before it reaches the callback: mid-stream, `releases` counts
/// the records so far on top of `releases_before`, and the request's
/// reservation of `reserved` records (its target when uncapped) shrinks by
/// one per record, so `releases + reserved` never moves.
fn stream(
    session: &SynthesisSession,
    request: &GenerateRequest,
    reserved: Option<usize>,
) -> (Vec<Record>, MechanismStats) {
    let before = session.ledger();
    let mut streamed = Vec::new();
    let report = session
        .release_stream(request, reserved, |record| {
            streamed.push(record);
            let ledger = session.ledger();
            assert_eq!(
                ledger.releases,
                before.releases + streamed.len(),
                "every streamed record is charged as it is emitted"
            );
            assert_eq!(
                ledger.releases + ledger.reserved,
                before.releases + before.reserved + reserved.map_or(request.target, |_| 0),
                "conversion, not double-charging: the approved total never moves"
            );
            true
        })
        .unwrap();
    assert!(report.synthetics.is_empty(), "a stream buffers nothing");
    (streamed, report.stats)
}

/// A stream releases the same records as a single-worker `generate` with the
/// same request seed, charging the ledger incrementally — also when it stops
/// at its proposal cap, where it spends exactly the candidates `generate`
/// spends.
#[test]
fn release_stream_matches_generate_and_streams_budget() {
    let population = generate_acs(3_500, 26);
    let bucketizer = acs_bucketizer(&acs_schema());
    let session = SynthesisEngine::from_config(small_config(1, 26))
        .train(&population, &bucketizer)
        .unwrap();

    let request = GenerateRequest::new(10).with_seed(4).with_workers(1);
    let reference = session.generate(&request).unwrap();

    let (streamed, stats) = stream(&session, &request, None);
    assert_eq!(reference.synthetics.records(), &streamed[..]);
    assert_eq!(stats.released, streamed.len());
    assert_eq!(stats.candidates, reference.stats.candidates);
    assert_eq!(session.ledger().requests, 2);
    assert_eq!(session.ledger().reserved, 0);

    // A strict k and a tiny proposal cap: the stream ends at the cap, short
    // of its target, and still releases what the batch releases.
    let strict = SynthesisEngine::from_config(PipelineConfig {
        privacy_test: PrivacyTestConfig::randomized(120, 4.0, 1.0)
            .with_limits(Some(240), Some(2_000)),
        ..small_config(1, 26)
    })
    .train(&population, &bucketizer)
    .unwrap();
    let capped = GenerateRequest::new(20)
        .with_seed(4)
        .with_workers(1)
        .with_max_candidate_factor(2);
    let reference = strict.generate(&capped).unwrap();
    let (streamed, stats) = stream(&strict, &capped, None);
    assert_eq!(stats.candidates, 40, "the stream stops at max_candidates");
    assert_eq!(reference.stats.candidates, 40);
    assert!(stats.released < 20, "the cap must bind before the target");
    assert_eq!(reference.synthetics.records(), &streamed[..]);
    assert_eq!(stats.released, reference.stats.released);
    assert_eq!(strict.ledger().reserved, 0);
    assert_eq!(strict.ledger().releases, 2 * streamed.len());
}

/// Session clones are handles to the same logical session: a stream on a
/// clone yields byte-identical records to a single-worker `generate` on the
/// original, and both charge the one shared ledger.
#[test]
fn cloned_session_streams_identically_and_shares_the_ledger() {
    let population = generate_acs(3_500, 28);
    let bucketizer = acs_bucketizer(&acs_schema());
    let session = SynthesisEngine::from_config(small_config(1, 28))
        .train(&population, &bucketizer)
        .unwrap();
    let clone = session.clone();

    let request = GenerateRequest::new(10).with_seed(9).with_workers(1);
    let reference = session.generate(&request).unwrap();

    let (streamed, _) = stream(&clone, &request, None);
    assert_eq!(reference.synthetics.records(), &streamed[..]);

    // One ledger across both handles: two requests, double the releases.
    for handle in [&session, &clone] {
        let ledger = handle.ledger();
        assert_eq!(ledger.requests, 2);
        assert_eq!(ledger.releases, 2 * reference.stats.released);
    }
}

/// The in-process reservation API: `try_reserve` enforces the cap atomically,
/// `generate_reserved` commits actual releases and frees the rest, and failed
/// or aborted reservations never leak.
#[test]
fn reservation_api_caps_generation_without_leaks() {
    use sgf::core::CoreError;

    let population = generate_acs(3_500, 29);
    let bucketizer = acs_bucketizer(&acs_schema());
    let session = SynthesisEngine::from_config(small_config(1, 29))
        .train(&population, &bucketizer)
        .unwrap();
    let cap = sgf::serve::cap_admitting(&session, 10).unwrap();

    // The cap admits exactly 10 records' worth of reservations.
    session.try_reserve(10, cap).unwrap();
    assert!(matches!(
        session.try_reserve(1, cap),
        Err(CoreError::BudgetCapExceeded { .. })
    ));
    assert_eq!(session.ledger().reserved, 10);

    // Committing through the marginal model releases exactly the target and
    // frees the unused part of the reservation.
    let report = session
        .generate_reserved_with(
            &session.models().marginal,
            10,
            &GenerateRequest::new(8).with_seed(1),
        )
        .unwrap();
    assert_eq!(report.stats.released, 8);
    let ledger = session.ledger();
    assert_eq!((ledger.releases, ledger.reserved), (8, 0));

    // The freed budget is admissible again; aborting hands it back untouched.
    session.try_reserve(2, cap).unwrap();
    session.abort_reservation(2);
    assert!(
        session.try_reserve(3, cap).is_err(),
        "only 2 records remain"
    );
    session.try_reserve(2, cap).unwrap();

    // A reserved generate whose target exceeds the reservation fails and
    // settles (aborts) the reservation — nothing leaks.
    assert!(session
        .generate_reserved(2, &GenerateRequest::new(5).with_seed(2))
        .is_err());
    let ledger = session.ledger();
    assert_eq!((ledger.releases, ledger.reserved), (8, 0));
    assert!(ledger.total().epsilon <= cap.epsilon);
}

/// A reservation-backed stream keeps the ledger's worst case exact for the
/// whole stream: each emitted record converts one reserved record, so
/// `releases + reserved` never exceeds what admission approved.
#[test]
fn reserved_streaming_keeps_the_worst_case_exact() {
    let population = generate_acs(3_500, 30);
    let bucketizer = acs_bucketizer(&acs_schema());
    let session = SynthesisEngine::from_config(small_config(1, 30))
        .train(&population, &bucketizer)
        .unwrap();
    let target = 8usize;
    let cap = sgf::serve::cap_admitting(&session, target).unwrap();

    session.try_reserve(target, cap).unwrap();
    let mut streamed = 0usize;
    session
        .release_stream(
            &GenerateRequest::new(target).with_seed(3),
            Some(target),
            |_| {
                streamed += 1;
                let ledger = session.ledger();
                // Conversion, not double-charging: the approved total never moves.
                assert_eq!(ledger.releases, streamed);
                assert_eq!(ledger.releases + ledger.reserved, target);
                assert!(ledger.reserved_total().epsilon <= cap.epsilon);
                assert!(ledger.reserved_total().delta <= cap.delta);
                true
            },
        )
        .unwrap();
    // The stream settled the unstreamed remainder; nothing leaks.
    let ledger = session.ledger();
    assert_eq!(ledger.reserved, 0);
    assert_eq!(ledger.releases, streamed);
    assert_eq!(ledger.requests, 1);

    // A reserved stream whose target exceeds its reservation fails before
    // its first proposal and settles (aborts) the reservation on the way out.
    let wider_cap = sgf::serve::cap_admitting(&session, streamed + 3).unwrap();
    session.try_reserve(3, wider_cap).unwrap();
    assert!(session
        .release_stream(&GenerateRequest::new(4).with_seed(4), Some(3), |_| true)
        .is_err());
    assert_eq!(session.ledger().reserved, 0);
}

/// No seed-count crossover and no store policy are left to move: sessions
/// serve from the σ-prefix store at any size, and the scan oracle and the
/// partition store release the same records from the same request seed.
#[test]
fn auto_index_min_seeds_override_moves_the_crossover() {
    let population = generate_acs(4_000, 33);
    let bucketizer = acs_bucketizer(&acs_schema());

    // Paper defaults: every test goes through the prefix store.
    let indexed = SynthesisEngine::from_config(small_config(1, 33))
        .train(&population, &bucketizer)
        .unwrap();
    let request = GenerateRequest::new(10).with_seed(5);
    let indexed_report = indexed.generate(&request).unwrap();
    assert_eq!(indexed_report.stats.scan_tests, 0);
    assert_eq!(indexed_report.provenance.store, "prefix");

    // The scan oracle over the same seed store...
    let (scanned, scan_stats) = replay(&indexed, None, &request);
    assert_eq!(scan_stats.scan_tests, scan_stats.candidates);
    // ...releases byte-identical records: the store is pure performance.
    assert_eq!(indexed_report.synthetics.records(), &scanned[..]);

    // The deferred partition store is built on first use and agrees too.
    let (forced, forced_stats) = replay(
        &indexed,
        indexed.partition_store().map(|p| p as _),
        &request,
    );
    assert_eq!(forced_stats.partition_tests, forced_stats.candidates);
    assert_eq!(forced, scanned);
}

/// ω can vary per request without retraining; invalid overrides are rejected.
#[test]
fn per_request_omega_overrides_work() {
    let population = generate_acs(3_500, 27);
    let bucketizer = acs_bucketizer(&acs_schema());
    let session = SynthesisEngine::from_config(small_config(1, 27))
        .train(&population, &bucketizer)
        .unwrap();

    let fixed = session
        .generate(
            &GenerateRequest::new(10)
                .with_omega(OmegaSpec::Fixed(11))
                .with_seed(1),
        )
        .unwrap();
    assert!(!fixed.synthetics.is_empty());
    let ranged = session
        .generate(
            &GenerateRequest::new(10)
                .with_omega(OmegaSpec::UniformRange { lo: 9, hi: 11 })
                .with_seed(2),
        )
        .unwrap();
    assert!(!ranged.synthetics.is_empty());
    assert!(session
        .generate(
            &GenerateRequest::new(10)
                .with_omega(OmegaSpec::Fixed(0))
                .with_seed(3)
        )
        .is_err());
}
