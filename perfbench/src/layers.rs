//! The traced run: per-layer metrics.
//!
//! Runs in its own process, so the process-global trace ring never touches
//! an end-to-end number.  The workload's load runs in alternating untraced
//! and traced windows (their throughput ratio is the tracing overhead); the
//! traced windows' counters and client latencies give the serve-layer
//! numbers, and the recorded inputs are then replayed through each layer's
//! public entry points, timing one call at a time.

use crate::common::{
    cap, engine, mix, population, serve_config, set_up, stream, Phase, Report, Workload,
    DELTA_CHANGES, SESSION, SMALL_TARGET,
};
use crate::delta::LiveSet;
use crate::load::{self, LoadStats};
use crate::stats;
use crate::wire::{Conn, Reply};
use crate::workloads::{CONNS, DEPTH, INGEST_GENERATES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sgf_core::{
    run_with_store, GenerateRequest, LinearScanStore, MechanismStats, ReleaseReport, SeedStore,
    SynthesisSession,
};
use sgf_data::{apply_deletes, split_dataset_by_hash, split_role, Record, SplitRole};
use sgf_index::{InvertedIndexStore, PartitionIndexStore, MAX_INTERSECT_LISTS};
use sgf_metrics::Snapshot;
use sgf_model::{
    learn_structure_from_counts, CptStore, GenerativeModel, MarginalConfig, MarginalModel,
    OmegaSpec, SeedSynthesizer, StructureCounts,
};
use sgf_serve::json::Value;
use sgf_serve::protocol::{batch_end_line, batch_header_line, parse_request, record_line};
use sgf_serve::{serve, GenerateCall, SessionEntry};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One per-layer metric and the end-to-end metric it should move.
pub struct Layer {
    pub name: &'static str,
    pub moves: &'static str,
    pub on: &'static str,
}

const fn layer(name: &'static str, moves: &'static str, on: &'static str) -> Layer {
    Layer { name, moves, on }
}

/// Every per-layer metric a traced run reports, with the end-to-end metric
/// and workload it should move (mirrored in `perfbench/README.md`).
pub const PER_LAYER: [Layer; 30] = [
    layer("serve.parse_us", "gen_p50_ms", "serve_small"),
    layer("serve.encode_us", "gen_rps", "serve_small"),
    layer("serve.client_decode_us", "gen_p50_ms", "serve_small"),
    layer("serve.job_us", "gen_rps", "serve_small"),
    layer(
        "serve.outside_job_us",
        "gen_p99_ms / gen_p50_ms",
        "serve_small / ingest_mix",
    ),
    layer("serve.fold_size", "gen_rps", "serve_small"),
    layer(
        "core.generate_us",
        "gen_p50_ms / records_per_s",
        "serve_small / bulk_paper",
    ),
    layer("core.ledger_us", "gen_rps", "serve_small"),
    layer("core.candidates_per_release", "records_per_s", "bulk_paper"),
    layer("core.worker_speedup", "records_per_s", "bulk_paper"),
    layer("model.propose_us", "records_per_s", "bulk_paper"),
    layer("model.probability_us", "records_per_s", "bulk_paper"),
    layer("privacy.test_us", "records_per_s", "bulk_paper"),
    layer("index.examined_per_test", "records_per_s", "bulk_paper"),
    layer("index.inverted_share", "records_per_s", "bulk_paper"),
    layer("index.partition_share", "records_per_s", "bulk_paper"),
    layer("index.scan_share", "records_per_s", "bulk_paper"),
    layer(
        "index.class_cache_hit_rate",
        "gen_p50_ms",
        "serve_small / ingest_mix",
    ),
    layer("train.split_ms", "setup_s", "all (largest on bulk_paper)"),
    layer(
        "train.structure_ms",
        "setup_s",
        "all (largest on bulk_paper)",
    ),
    layer("train.cpts_ms", "setup_s", "all (largest on bulk_paper)"),
    layer(
        "train.marginal_ms",
        "setup_s",
        "all (largest on bulk_paper)",
    ),
    layer(
        "train.store_build_ms",
        "setup_s",
        "all (largest on bulk_paper)",
    ),
    layer("update.resolve_deletes_ms", "update_p50_ms", "ingest_mix"),
    layer("update.counts_merge_ms", "update_p50_ms", "ingest_mix"),
    layer("update.store_splice_ms", "update_p50_ms", "ingest_mix"),
    layer("update.session_ms", "update_p50_ms", "ingest_mix"),
    layer("update.first_generate_us", "gen_p99_ms", "ingest_mix"),
    layer("update.warm_generate_us", "gen_p99_ms", "ingest_mix"),
    layer("metrics.trace_overhead", "gen_rps", "serve_small"),
];

/// Untraced/traced window pairs of load.
const WINDOW_PAIRS: u64 = 3;
/// Share of `--seconds` the load windows take; replays use the rest.
const WINDOW_SHARE: f64 = 0.6;
/// Served requests replayed in process.
const REPLAYS: usize = 200;
/// Requests replayed at both worker counts, and probed proposal by proposal.
const PROBED: usize = 40;
/// Proposals timed per probed request.
const PROPOSALS: usize = 50;
/// Repetitions of the train-phase and ledger timings.
const REPS: usize = 7;
/// Sequential updates replayed in process.
const UPDATE_STEPS: usize = 20;

/// Wall time of one call, in microseconds.
fn time_us<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let started = Instant::now();
    let out = f();
    (started.elapsed().as_secs_f64() * 1e6, out)
}

/// Record a per-layer timing as the median of its samples, noting the
/// sample count and spread.
fn timing(report: &mut Report, name: &'static str, unit: &'static str, samples: &[f64]) {
    report.metric(name, stats::median(samples), unit);
    report.note(
        &format!("{name}.spread"),
        format!(
            "{:.3} over {} samples",
            stats::relative_spread(samples),
            samples.len()
        ),
    );
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Serve-layer counters over a window: job timer, admissions, folds, and
/// class-cache lookups (scoped counters also roll up globally).
#[derive(Default)]
struct ServeCounters {
    jobs: u64,
    job_nanos: u64,
    admitted: u64,
    folded: u64,
    cache_hits: u64,
    cache_misses: u64,
}

impl ServeCounters {
    fn add(&mut self, delta: &Snapshot) {
        let job = delta.timers.get("serve.job").copied().unwrap_or_default();
        self.jobs += job.count;
        self.job_nanos += job.total_nanos;
        self.admitted += delta.counter("serve.admitted");
        self.folded += delta.counter("serve.folded_requests");
        self.cache_hits += delta.counter("core.mechanism.class_cache_hits");
        self.cache_misses += delta.counter("core.mechanism.class_cache_misses");
    }

    fn job_us(&self) -> f64 {
        ratio(self.job_nanos as f64 / 1e3, self.jobs as f64)
    }
}

/// Run one traced workload.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let data = population(workload, seed);
    let trace = sgf_metrics::trace();
    trace.set_enabled(true);
    let served = workload != Workload::BulkPaper;
    let (_, session, server) = match set_up(
        workload,
        seed,
        &data,
        served.then_some(true),
        1,
        &mut report.phases.setup,
    ) {
        Ok(kept) => kept,
        Err(err) => {
            report.note("error", format!("set-up failed: {err}"));
            return report;
        }
    };

    // Alternating untraced / traced windows of the workload's own load.
    let window = Duration::from_secs_f64(seconds * WINDOW_SHARE / (2 * WINDOW_PAIRS) as f64);
    let mut live = LiveSet::new(&data.0, mix(seed, stream::DELTAS));
    let mut rps = [Vec::new(), Vec::new()];
    let mut traced_load = LoadStats::default();
    let mut counters = ServeCounters::default();
    let mut mechanism = MechanismStats::default();
    for w in 0..2 * WINDOW_PAIRS {
        let traced = w % 2 == 1;
        trace.set_enabled(traced);
        let before = sgf_metrics::global().snapshot();
        let load = match (workload, &server) {
            (Workload::ServeSmall, Some(s)) => {
                load::pipelined(s.handle.addr(), seed, w, CONNS, DEPTH, window)
            }
            (Workload::IngestMix, Some(s)) => load::ingest(
                s.handle.addr(),
                &mut live,
                seed,
                w,
                INGEST_GENERATES,
                window,
            ),
            _ => {
                let bulk = load::bulk(&session, seed, w, window);
                mechanism.merge(&bulk.mechanism);
                bulk.load
            }
        };
        report.phases.timed.attempted += load.attempted;
        report.phases.timed.failed += load.failed;
        rps[usize::from(traced)].push(load.gen_rps());
        if traced {
            counters.add(&sgf_metrics::global().snapshot().delta(&before));
            traced_load.merge(load);
        }
    }
    trace.set_enabled(true);
    report.metric(
        "metrics.trace_overhead",
        ratio(stats::median(&rps[1]), stats::median(&rps[0])),
        "ratio",
    );

    // `bulk_paper`'s load is in process, but every traced result carries
    // every per-layer metric, and a serve timing that never ran would read
    // as a constant.  So one rotation of its requests is served
    // sequentially: the serve layer's cost on 1,500-record releases.
    let bulk_lines: Vec<String> = (0..bench::paper_omegas().len())
        .map(|i| {
            let request = load::bulk_request(seed, 100, i, 2);
            GenerateCall::new(request.target)
                .with_session(SESSION)
                .with_request(request)
                .encode()
        })
        .collect();
    if workload == Workload::BulkPaper {
        let entry = SessionEntry::new(session.clone())
            .named(SESSION)
            .capped(cap());
        match serve(serve_config(true), vec![entry]) {
            Ok(handle) => {
                let before = sgf_metrics::global().snapshot();
                let probe = sequential(handle.addr(), &bulk_lines);
                counters.add(&sgf_metrics::global().snapshot().delta(&before));
                report.phases.timed.attempted += probe.attempted;
                report.phases.timed.failed += probe.failed;
                traced_load = probe;
                handle.shutdown();
                report.phases.check.record(handle.join().is_ok());
            }
            Err(_) => report.phases.check.record(false),
        }
    }
    if let Some(server) = server {
        report.phases.check.record(server.stop().is_ok());
    }
    let job_us = counters.job_us();
    report.metric("serve.job_us", job_us, "us");
    report.metric(
        "serve.outside_job_us",
        stats::mean(&traced_load.gen_ms) * 1e3 - job_us,
        "us",
    );
    report.metric(
        "serve.fold_size",
        ratio(
            counters.admitted as f64,
            counters.admitted.saturating_sub(counters.folded) as f64,
        ),
        "count",
    );

    // The replayed requests: the traced windows' generates (or one bulk
    // rotation), through the same session in process.
    let requests: Vec<GenerateRequest> = match workload {
        Workload::BulkPaper => (0..bench::paper_omegas().len())
            .map(|i| load::bulk_request(seed, 100, i, 2))
            .collect(),
        _ => traced_load
            .releases
            .iter()
            .take(REPLAYS)
            .map(|r| GenerateRequest::new(SMALL_TARGET).with_seed(r.seed))
            .collect(),
    };
    let lines: &[String] = match workload {
        Workload::BulkPaper => &bulk_lines,
        _ => &traced_load.lines,
    };
    let check = &mut report.phases.check;
    let (serve_timings, reports) = replay_requests(&session, &requests, lines, check);
    for (name, samples) in serve_timings {
        timing(&mut report, name, "us", &samples);
    }
    let mut replayed = MechanismStats::default();
    for r in &reports {
        replayed.merge(&r.stats);
    }
    report.metric(
        "core.candidates_per_release",
        ratio(replayed.candidates as f64, replayed.released as f64),
        "count",
    );
    let tests = (replayed.index_tests + replayed.partition_tests + replayed.scan_tests) as f64;
    report.metric(
        "index.examined_per_test",
        ratio(replayed.records_examined as f64, replayed.candidates as f64),
        "count",
    );
    report.metric(
        "index.inverted_share",
        ratio(replayed.index_tests as f64, tests),
        "ratio",
    );
    report.metric(
        "index.partition_share",
        ratio(replayed.partition_tests as f64, tests),
        "ratio",
    );
    report.metric(
        "index.scan_share",
        ratio(replayed.scan_tests as f64, tests),
        "ratio",
    );
    let (hits, misses) = if served {
        (counters.cache_hits, counters.cache_misses)
    } else {
        (
            (mechanism.class_cache_hits + replayed.class_cache_hits) as u64,
            (mechanism.class_cache_misses + replayed.class_cache_misses) as u64,
        )
    };
    report.metric(
        "index.class_cache_hit_rate",
        ratio(hits as f64, (hits + misses) as f64),
        "ratio",
    );

    worker_speedup(&mut report, &session, &requests);
    ledger(&mut report, &session);
    proposals(&mut report, &session, &requests, &reports);
    train(&mut report, workload, seed, &data);
    updates(&mut report, &session, &data, seed);
    report
}

/// Send `lines` (generate calls) one at a time on one connection.
fn sequential(addr: std::net::SocketAddr, lines: &[String]) -> LoadStats {
    let mut stats = LoadStats::default();
    let started = Instant::now();
    let Ok(mut conn) = Conn::connect(addr) else {
        stats.attempted = 1;
        stats.failed = 1;
        return stats;
    };
    for line in lines {
        stats.attempted += 1;
        let sent = Instant::now();
        let reply = conn
            .send(line)
            .map_err(|e| e.to_string())
            .and_then(|_| conn.reply());
        match reply {
            Ok(Reply::Release {
                seed,
                released,
                digest,
            }) => {
                stats.gen_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                stats.records += released as u64;
                stats.releases.push(load::Served {
                    seed,
                    released,
                    digest,
                    at: started.elapsed().as_secs_f64(),
                });
            }
            _ => stats.failed += 1,
        }
        stats.lines.push(line.clone());
    }
    stats.elapsed = started.elapsed();
    stats
}

/// Replay requests through `SynthesisSession::generate`, the batch
/// encoder, the client-side JSON decoder, and `parse_request`.
#[allow(clippy::type_complexity)]
fn replay_requests(
    session: &SynthesisSession,
    requests: &[GenerateRequest],
    lines: &[String],
    check: &mut Phase,
) -> (Vec<(&'static str, Vec<f64>)>, Vec<ReleaseReport>) {
    let mut generate = Vec::new();
    let mut encode = Vec::new();
    let mut decode = Vec::new();
    let mut reports = Vec::new();
    for request in requests {
        let (us, result) = time_us(|| session.generate(request));
        check.record(result.is_ok());
        let Ok(release) = result else { continue };
        generate.push(us);
        let (us, text) = time_us(|| {
            let mut text = batch_header_line(
                release.stats.released,
                &release.stats.to_json(),
                release.request_budget().epsilon,
                &release.ledger.to_json(),
                &release.provenance_json().render(),
            );
            text.push('\n');
            for record in release.synthetics.records() {
                text.push_str(&record_line(record));
                text.push('\n');
            }
            text.push_str(&batch_end_line(release.stats.released));
            text.push('\n');
            text
        });
        encode.push(us);
        let (us, parsed) = time_us(|| text.lines().map(Value::parse).all(|v| v.is_ok()));
        check.record(parsed);
        decode.push(us);
        reports.push(release);
    }
    // Lines parse in well under a microsecond: time them in passes.
    let mut parse = Vec::new();
    let passes = (2_000 / lines.len().max(1)).clamp(REPS, 400);
    for _ in 0..passes {
        let (us, ok) = time_us(|| lines.iter().all(|line| parse_request(line).is_ok()));
        check.record(ok);
        parse.push(us / lines.len().max(1) as f64);
    }
    (
        vec![
            ("core.generate_us", generate),
            ("serve.encode_us", encode),
            ("serve.client_decode_us", decode),
            ("serve.parse_us", parse),
        ],
        reports,
    )
}

/// The same requests at one worker and at two: time ratio.
fn worker_speedup(report: &mut Report, session: &SynthesisSession, requests: &[GenerateRequest]) {
    let (mut one, mut two) = (0.0, 0.0);
    for request in requests.iter().take(PROBED) {
        let (us1, r1) = time_us(|| session.generate(&request.with_workers(1)));
        let (us2, r2) = time_us(|| session.generate(&request.with_workers(2)));
        report.phases.check.record(r1.is_ok() && r2.is_ok());
        one += us1;
        two += us2;
    }
    report.metric("core.worker_speedup", ratio(one, two), "ratio");
}

/// Admission's ledger work: one reservation plus its abort.
fn ledger(report: &mut Report, session: &SynthesisSession) {
    const PAIRS: usize = 1_000;
    let cap = cap();
    let mut samples = Vec::new();
    for _ in 0..REPS {
        let (us, ok) = time_us(|| {
            (0..PAIRS).all(|_| {
                let ok = session.try_reserve(SMALL_TARGET, cap).is_ok();
                session.abort_reservation(SMALL_TARGET);
                ok
            })
        });
        report.phases.check.record(ok);
        samples.push(us / PAIRS as f64);
    }
    timing(report, "core.ledger_us", "us", &samples);
}

/// Proposal by proposal: the synthesizer's `generate` and `probability`, and
/// the privacy test against the store each release's provenance names.
fn proposals(
    report: &mut Report,
    session: &SynthesisSession,
    requests: &[GenerateRequest],
    releases: &[ReleaseReport],
) {
    let seeds = session.seeds();
    let config = session.config().privacy_test;
    let scan = LinearScanStore::new(seeds);
    let (mut propose, mut probability, mut test) = (Vec::new(), Vec::new(), Vec::new());
    for (request, release) in requests.iter().zip(releases).take(PROBED) {
        let (lo, hi) = match request.omega.unwrap_or(session.config().omega) {
            OmegaSpec::Fixed(w) => (w, w),
            OmegaSpec::UniformRange { lo, hi } => (lo, hi),
        };
        let Ok(models) = (lo..=hi)
            .map(|w| SeedSynthesizer::new(Arc::clone(&session.models().cpts), w))
            .collect::<Result<Vec<_>, _>>()
        else {
            report.phases.check.record(false);
            continue;
        };
        let store: &dyn SeedStore = match release.provenance.store {
            "partition" => match session.partition_store() {
                Some(store) => store,
                None => &scan,
            },
            "inverted" => match session.seed_store() {
                Some(store) => store,
                None => &scan,
            },
            _ => &scan,
        };
        let mut rng = StdRng::seed_from_u64(request.seed);
        for _ in 0..PROPOSALS {
            let model = &models[rng.gen_range(0..models.len())];
            let seed = seeds.record(rng.gen_range(0..seeds.len()));
            let (us, y) = time_us(|| model.generate(seed, &mut rng));
            propose.push(us);
            let (us, _) = time_us(|| model.probability(seed, &y));
            probability.push(us);
            let (us, outcome) =
                time_us(|| run_with_store(model, seeds, store, seed, &y, &config, &mut rng));
            report.phases.check.record(outcome.is_ok());
            test.push(us);
        }
    }
    timing(report, "model.propose_us", "us", &propose);
    timing(report, "model.probability_us", "us", &probability);
    timing(report, "privacy.test_us", "us", &test);
}

/// The phases of `train`, each through its own public entry point.
fn train(
    report: &mut Report,
    workload: Workload,
    seed: u64,
    data: &(sgf_data::Dataset, sgf_data::Bucketizer),
) {
    let engine = engine(workload, seed);
    let config = *engine.config();
    let (population, bucketizer) = data;
    let mut phases: [Vec<f64>; 5] = Default::default();
    for _ in 0..REPS {
        let result = (|| -> Result<[f64; 5], String> {
            let err = |e: &dyn std::fmt::Display| e.to_string();
            let (split_us, split) =
                time_us(|| split_dataset_by_hash(population, &config.split, config.seed));
            let split = split.map_err(|e| err(&e))?;
            let (structure_us, structure) = time_us(|| {
                let counts = StructureCounts::fit(&split.structure, bucketizer)?;
                let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(0x5eed));
                learn_structure_from_counts(&counts, bucketizer, &config.structure, &mut rng)
            });
            let structure = structure.map_err(|e| err(&e))?;
            let (cpts_us, cpts) = time_us(|| {
                CptStore::learn(
                    &split.parameters,
                    bucketizer,
                    &structure.graph,
                    config.parameters,
                )
            });
            let cpts = Arc::new(cpts.map_err(|e| err(&e))?);
            let marginal = MarginalConfig {
                alpha: config.parameters.alpha,
                epsilon_p: config.parameters.epsilon_p,
                global_seed: config.parameters.global_seed,
                delta_slack: config.parameters.delta_slack,
            };
            let (marginal_us, learned) =
                time_us(|| MarginalModel::learn(&split.parameters, marginal));
            learned.map_err(|e| err(&e))?;
            let lo = match config.omega {
                OmegaSpec::Fixed(w) => w,
                OmegaSpec::UniformRange { lo, .. } => lo,
            };
            let synthesizer = SeedSynthesizer::new(cpts, lo).map_err(|e| err(&e))?;
            let weights = structure.attribute_weights();
            let (store_us, built) = time_us(|| {
                let partition =
                    PartitionIndexStore::build(&split.seeds, synthesizer.kept_attributes())?
                        .with_class_cache();
                let inverted = InvertedIndexStore::build(
                    &split.seeds,
                    bucketizer,
                    &weights,
                    MAX_INTERSECT_LISTS,
                )?;
                Ok::<_, sgf_data::DataError>((partition, inverted))
            });
            built.map_err(|e| err(&e))?;
            Ok([split_us, structure_us, cpts_us, marginal_us, store_us])
        })();
        report.phases.check.record(result.is_ok());
        if let Ok(times) = result {
            for (samples, us) in phases.iter_mut().zip(times) {
                samples.push(us / 1e3);
            }
        }
    }
    let names = [
        "train.split_ms",
        "train.structure_ms",
        "train.cpts_ms",
        "train.marginal_ms",
        "train.store_build_ms",
    ];
    for (name, samples) in names.into_iter().zip(&phases) {
        timing(report, name, "ms", samples);
    }
}

fn role_slot(role: SplitRole) -> Option<usize> {
    match role {
        SplitRole::Structure => Some(0),
        SplitRole::Parameters => Some(1),
        SplitRole::Seeds => Some(2),
        SplitRole::Test => Some(3),
        SplitRole::Unassigned => None,
    }
}

/// Sequential size-neutral updates in process, each also taken apart into
/// the delete resolution, count merges and store splices it consists of.
fn updates(
    report: &mut Report,
    session: &SynthesisSession,
    data: &(sgf_data::Dataset, sgf_data::Bucketizer),
    seed: u64,
) {
    let bucketizer = &data.1;
    let mut live = LiveSet::new(&data.0, mix(seed, stream::DELTAS));
    let mut current = session.clone();
    let mut samples: [Vec<f64>; 6] = Default::default();
    for step in 0..UPDATE_STEPS {
        let (deletes, inserts) = live.next_delta(DELTA_CHANGES);
        let delta = live.to_delta(&deletes, &inserts);
        let result = (|| -> Result<(SynthesisSession, [f64; 6]), String> {
            let err = |e: &dyn std::fmt::Display| e.to_string();
            let config = *current.config();
            let mut del: [Vec<Record>; 4] = Default::default();
            let mut ins: [Vec<Record>; 4] = Default::default();
            for (records, out) in [(&deletes, &mut del), (&inserts, &mut ins)] {
                for record in records {
                    if let Some(slot) = role_slot(split_role(&config.split, config.seed, record)) {
                        out[slot].push(record.clone());
                    }
                }
            }
            let split = current.split();
            let subsets = [
                &split.structure,
                &split.parameters,
                &split.seeds,
                &split.test,
            ];
            let (resolve_us, survivors) = time_us(|| {
                subsets
                    .iter()
                    .zip(&del)
                    .map(|(subset, del)| apply_deletes(subset.records(), del))
                    .collect::<Result<Vec<_>, _>>()
            });
            let survivors = survivors.map_err(|e| err(&e))?;
            let models = current.models();
            let mut structure_counts = models.structure_counts.clone();
            let mut marginal_counts = models.marginal_counts.clone();
            let (merge_us, merged) = time_us(|| -> Result<(), String> {
                structure_counts
                    .apply_delta(&del[0], &ins[0], bucketizer)
                    .map_err(|e| err(&e))?;
                models
                    .cpts
                    .apply_delta(&del[1], &ins[1])
                    .map_err(|e| err(&e))?;
                marginal_counts
                    .apply_delta(&del[1], &ins[1])
                    .map_err(|e| err(&e))
            });
            merged?;
            let mut kept = survivors[2].iter().peekable();
            let deleted: Vec<usize> = (0..split.seeds.len())
                .filter(|i| {
                    if kept.peek() == Some(&i) {
                        kept.next();
                        false
                    } else {
                        true
                    }
                })
                .collect();
            let weights = models.structure.attribute_weights();
            let (partition, inverted) = (current.partition_store(), current.seed_store());
            let (splice_us, spliced) = time_us(|| -> Result<(), String> {
                if let Some(partition) = partition {
                    partition
                        .apply_delta(&deleted, &ins[2])
                        .map_err(|e| err(&e))?;
                }
                if let Some(inverted) = inverted {
                    inverted
                        .apply_delta(&deleted, &ins[2], &weights)
                        .map_err(|e| err(&e))?;
                }
                Ok(())
            });
            spliced?;
            let (session_us, next) = time_us(|| current.update(&delta));
            let next = next.map_err(|e| err(&e))?;
            let request = GenerateRequest::new(SMALL_TARGET).with_seed(mix(seed, step as u64));
            let (first_us, first) = time_us(|| next.generate(&request));
            let (warm_us, warm) = time_us(|| next.generate(&request));
            let same = first.map_err(|e| err(&e))?.synthetics.records()
                == warm.map_err(|e| err(&e))?.synthetics.records();
            if !same {
                return Err("a repeated request released different records".into());
            }
            Ok((
                next,
                [
                    resolve_us / 1e3,
                    merge_us / 1e3,
                    splice_us / 1e3,
                    session_us / 1e3,
                    first_us,
                    warm_us,
                ],
            ))
        })();
        report.phases.check.record(result.is_ok());
        match result {
            Ok((next, times)) => {
                for (s, t) in samples.iter_mut().zip(times) {
                    s.push(t);
                }
                current = next;
            }
            Err(err) => {
                report.note("update.error", err);
                break;
            }
        }
    }
    let names = [
        ("update.resolve_deletes_ms", "ms"),
        ("update.counts_merge_ms", "ms"),
        ("update.store_splice_ms", "ms"),
        ("update.session_ms", "ms"),
        ("update.first_generate_us", "us"),
        ("update.warm_generate_us", "us"),
    ];
    for ((name, unit), s) in names.into_iter().zip(&samples) {
        timing(report, name, unit, s);
    }
}
