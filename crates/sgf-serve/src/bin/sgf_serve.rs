//! The `sgf-serve` binary: train a demo session over the ACS-like population
//! and serve it over the JSON-lines TCP protocol.
//!
//! ```text
//! sgf-serve [--addr HOST:PORT] [--population N] [--seed S] [--k K]
//!           [--cap-releases N] [--queue N] [--workers N]
//! sgf-serve --smoke
//! ```
//!
//! `--cap-releases N` caps the session at the composed (ε, δ) of `N` released
//! records (omit to serve uncapped).  `--smoke` runs the end-to-end self-test
//! used by `scripts/repro.sh` and CI: an ephemeral-port server with two named
//! sessions, a capped-session request sequence sized so the third request
//! must be rejected over budget, batch + streaming requests against the
//! second session, `metrics` / `trace` verification (per-session cells sum
//! to the global rollup; the generate span tree is complete), and a clean
//! drain.  With `SGF_BENCH_DIR` set, the smoke writes its deterministic
//! observability documents (`SMOKE_METRICS.json`, `SMOKE_TRACE.json`,
//! `SMOKE_PROVENANCE.json`) there — two identically-seeded runs produce
//! byte-identical files.

use sgf_core::{GenerateRequest, PrivacyTestConfig, SynthesisEngine, SynthesisSession};
use sgf_data::acs::{acs_bucketizer, acs_schema, generate_acs};
use sgf_serve::json::Value;
use sgf_serve::{
    cap_admitting, reject, serve, Client, ClientError, GenerateCall, ModelKind, ServeConfig,
    SessionEntry,
};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    addr: String,
    population: usize,
    seed: u64,
    k: usize,
    cap_releases: Option<usize>,
    queue: usize,
    workers: usize,
    smoke: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            addr: "127.0.0.1:7878".to_string(),
            population: 10_000,
            seed: 42,
            k: 50,
            cap_releases: None,
            queue: 32,
            workers: 4,
            smoke: false,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("flag {name} requires a value"))
        };
        match flag.as_str() {
            "--smoke" => args.smoke = true,
            "--addr" => args.addr = value("--addr")?,
            "--population" => args.population = parse_num(&value("--population")?)?,
            "--seed" => args.seed = parse_num(&value("--seed")?)? as u64,
            "--k" => args.k = parse_num(&value("--k")?)?,
            "--cap-releases" => args.cap_releases = Some(parse_num(&value("--cap-releases")?)?),
            "--queue" => args.queue = parse_num(&value("--queue")?)?,
            "--workers" => args.workers = parse_num(&value("--workers")?)?,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn parse_num(text: &str) -> Result<usize, String> {
    text.parse::<usize>()
        .map_err(|_| format!("expected a non-negative integer, got `{text}`"))
}

fn train_demo_session(population: usize, seed: u64, k: usize) -> SynthesisSession {
    let data = generate_acs(population, seed);
    let bucketizer = acs_bucketizer(&acs_schema());
    SynthesisEngine::builder()
        .privacy_test(PrivacyTestConfig::randomized(k, 4.0, 1.0).with_limits(Some(2 * k), None))
        .seed(seed)
        .train(&data, &bucketizer)
        .expect("training the demo session failed")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("sgf-serve: {message}");
            return ExitCode::from(2);
        }
    };
    if args.smoke {
        return smoke();
    }

    eprintln!(
        "training demo session (population {}, k {}, seed {})...",
        args.population, args.k, args.seed
    );
    let session = train_demo_session(args.population, args.seed, args.k);
    eprintln!(
        "trained in {:.2}s ({} seeds); per-release epsilon {:?}",
        session.training_time().as_secs_f64(),
        session.seeds().len(),
        session.per_release_budget().map(|b| b.epsilon)
    );
    let mut entry = SessionEntry::new(session);
    if let Some(releases) = args.cap_releases {
        let cap = cap_admitting(&entry.session, releases)
            .expect("the randomized test always has a per-release budget");
        eprintln!(
            "capping the session at {} releases (epsilon {:.3})",
            releases, cap.epsilon
        );
        entry = entry.capped(cap);
    }
    let config = ServeConfig {
        addr: args.addr,
        queue_capacity: args.queue,
        workers: args.workers,
        ..ServeConfig::default()
    };
    let handle = match serve(config, vec![entry]) {
        Ok(handle) => handle,
        Err(err) => {
            eprintln!("sgf-serve: bind failed: {err}");
            return ExitCode::FAILURE;
        }
    };
    println!("sgf-serve listening on {}", handle.addr());
    match handle.join() {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("sgf-serve: {err}");
            ExitCode::FAILURE
        }
    }
}

/// Check the sum-to-rollup invariant of a counter-only `metrics` response:
/// every counter present in any session cell must sum, across cells, to
/// exactly its global rollup value (scoped handles write both).
fn assert_cells_sum_to_rollup(response: &Value) {
    let body = response.get("metrics").expect("metrics body");
    let Some(Value::Obj(global)) = body.get("counters") else {
        panic!("metrics body has no counters object");
    };
    let Some(Value::Obj(scopes)) = body.get("scopes") else {
        panic!("metrics body has no scopes object (no session served anything?)");
    };
    let mut summed: BTreeMap<String, u64> = BTreeMap::new();
    for cell in scopes.values() {
        if let Some(Value::Obj(counters)) = cell.get("counters") {
            for (name, value) in counters {
                *summed.entry(name.clone()).or_insert(0) +=
                    value.as_u64().expect("counter must be a u64");
            }
        }
    }
    assert!(!summed.is_empty(), "expected scoped counters in the cells");
    for (name, total) in &summed {
        let rollup = global.get(name).and_then(Value::as_u64).unwrap_or(0);
        assert_eq!(
            rollup, *total,
            "counter `{name}`: cells sum to {total} but the rollup is {rollup}"
        );
    }
}

/// The events array of a `trace` response.
fn trace_events(response: &Value) -> &[Value] {
    response
        .get("trace")
        .and_then(|t| t.get("events"))
        .and_then(Value::as_array)
        .expect("trace response carries an events array")
}

/// Check that a session's `trace` response contains a complete generate span
/// tree: a `core.generate` root (store label), a `core.proposals` child, and
/// per-candidate `core.privacy_test` spans carrying store + outcome labels.
fn assert_generate_span_tree(events: &[Value], session: &str) {
    let name = |e: &Value| {
        e.get("name")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string()
    };
    let label_of = |e: &Value, key: &str| {
        e.get("labels").and_then(Value::as_str).and_then(|labels| {
            labels
                .split(',')
                .find_map(|pair| pair.strip_prefix(&format!("{key}=")).map(str::to_string))
        })
    };
    let generate = events
        .iter()
        .find(|e| name(e) == "core.generate" && label_of(e, "session").as_deref() == Some(session))
        .unwrap_or_else(|| panic!("no core.generate span labeled session={session}"));
    assert!(
        label_of(generate, "store").is_some(),
        "core.generate must carry a store label"
    );
    let generate_span = generate
        .get("span")
        .and_then(Value::as_u64)
        .expect("span id");
    let proposals = events
        .iter()
        .find(|e| {
            name(e) == "core.proposals"
                && e.get("parent").and_then(Value::as_u64) == Some(generate_span)
        })
        .expect("core.generate must have a core.proposals child");
    let proposals_span = proposals
        .get("span")
        .and_then(Value::as_u64)
        .expect("span id");
    let probes: Vec<&Value> = events
        .iter()
        .filter(|e| {
            name(e) == "core.privacy_test"
                && e.get("parent").and_then(Value::as_u64) == Some(proposals_span)
        })
        .collect();
    assert!(
        !probes.is_empty(),
        "core.proposals must have per-candidate core.privacy_test children"
    );
    for probe in probes {
        let store = label_of(probe, "store").expect("privacy_test carries a store label");
        assert!(
            ["scan", "inverted", "partition", "prefix"].contains(&store.as_str()),
            "unexpected store kind `{store}`"
        );
        let outcome = label_of(probe, "outcome").expect("privacy_test carries an outcome label");
        assert!(
            outcome == "pass" || outcome == "fail",
            "unexpected outcome `{outcome}`"
        );
        assert!(
            probe
                .get("counters")
                .and_then(|c| c.get("plausible_seeds"))
                .and_then(Value::as_u64)
                .is_some(),
            "privacy_test counters must include plausible_seeds"
        );
    }
    // The serve layer adds its own span over the whole job.
    assert!(
        events
            .iter()
            .any(|e| name(e) == "serve.job" && label_of(e, "session").as_deref() == Some(session)),
        "no serve.job span labeled session={session}"
    );
}

/// Write one observability artifact into `$SGF_BENCH_DIR` (no-op when the
/// variable is unset).
fn write_artifact(name: &str, content: &str) {
    let Ok(dir) = std::env::var("SGF_BENCH_DIR") else {
        return;
    };
    if dir.is_empty() {
        return;
    }
    let path = std::path::Path::new(&dir).join(name);
    std::fs::create_dir_all(&dir).expect("creating SGF_BENCH_DIR failed");
    std::fs::write(&path, content).expect("writing smoke artifact failed");
    println!("wrote {}", path.display());
}

/// The session name the smoke's `metrics` and `trace` probes address, which
/// no session is registered under.
const UNREGISTERED: &str = "unregistered";

/// End-to-end self-test: serve two named sessions on an ephemeral port — the
/// capped one sized for exactly two of three requests — then verify the
/// machine-readable rejection, the provenance blocks, the labeled `metrics`
/// snapshot (cells sum to the rollup), the `trace` span trees, the
/// `unknown_session` refusal of both verbs, and a clean drain.
/// Single-worker server and single-worker requests keep every observability
/// document deterministic.
fn smoke() -> ExitCode {
    let target = 10usize;
    println!("== sgf-serve smoke: train ==");
    let acs = train_demo_session(3_000, 11, 20);
    let census = train_demo_session(4_000, 23, 20);
    let acs_ledger = acs.clone();
    let census_ledger = census.clone();
    let cap = cap_admitting(&acs, 2 * target).expect("randomized test has a budget");
    println!(
        "cap admits {} releases (epsilon {:.3}, delta {:.3e})",
        2 * target,
        cap.epsilon,
        cap.delta
    );

    let handle = serve(
        ServeConfig {
            queue_capacity: 8,
            // One worker → jobs execute (and commit trace batches) in
            // admission order, so the smoke's documents are deterministic.
            workers: 1,
            log_requests: true,
            ..ServeConfig::default()
        },
        vec![
            SessionEntry::new(acs).named("acs").capped(cap),
            SessionEntry::new(census).named("census"),
        ],
    )
    .expect("ephemeral bind failed");
    println!("== serving on {} ==", handle.addr());

    let mut client = Client::connect(handle.addr()).expect("connect failed");
    // The marginal model releases exactly `target` records per request
    // (Section 8: every candidate passes), so the third request must push
    // the worst case past the cap and be rejected at admission.
    for request_seed in 1..=3u64 {
        let call = GenerateCall::new(target)
            .with_session("acs")
            .with_model(ModelKind::Marginal)
            .with_request(
                GenerateRequest::new(target)
                    .with_seed(request_seed)
                    .with_workers(1),
            );
        match client.generate(&call) {
            Ok(release) => {
                assert_eq!(
                    release.records.len(),
                    target,
                    "marginal must fill the target"
                );
                println!(
                    "acs request {request_seed}: released {} records, cumulative epsilon {:.3}",
                    release.records.len(),
                    release.ledger_f64("total_epsilon").unwrap_or(f64::NAN)
                );
                assert!(
                    request_seed <= 2,
                    "request {request_seed} should have been over budget"
                );
            }
            Err(ClientError::Rejected(rejection)) => {
                println!(
                    "acs request {request_seed}: rejected with code `{}` \
                     (requested epsilon {:?}, cap epsilon {:?})",
                    rejection.code,
                    rejection
                        .detail
                        .get("requested_epsilon")
                        .and_then(|v| v.as_f64()),
                    rejection.detail.get("cap_epsilon").and_then(|v| v.as_f64()),
                );
                assert_eq!(rejection.code, reject::BUDGET_EXHAUSTED);
                assert_eq!(request_seed, 3, "only the third request may be rejected");
            }
            Err(err) => panic!("request {request_seed} failed unexpectedly: {err}"),
        }
    }

    // The second session serves the seed model, batch and streaming; its
    // provenance blocks travel in the header / trailer respectively.
    let batch = client
        .generate(
            &GenerateCall::new(target)
                .with_session("census")
                .with_request(GenerateRequest::new(target).with_seed(7).with_workers(1)),
        )
        .expect("census batch failed");
    let store = batch
        .provenance
        .get("store")
        .and_then(Value::as_str)
        .expect("batch provenance carries a store kind")
        .to_string();
    assert_eq!(
        batch.provenance.get("request_seed").and_then(Value::as_u64),
        Some(7)
    );
    assert_eq!(
        batch.provenance.get("workers").and_then(Value::as_u64),
        Some(1)
    );
    assert!(
        batch
            .provenance
            .get("trace_spans")
            .and_then(Value::as_u64)
            .unwrap_or(0)
            > 0,
        "a traced batch must commit spans"
    );
    assert!(
        batch
            .provenance
            .get("ledger")
            .and_then(|l| l.get("before"))
            .is_some(),
        "provenance must carry the before/after ledger"
    );
    println!(
        "census batch: released {} via the {store} store, {} trace spans",
        batch.released,
        batch
            .provenance
            .get("trace_spans")
            .and_then(Value::as_u64)
            .unwrap_or(0)
    );
    let stream = client
        .generate(
            &GenerateCall::new(target)
                .with_session("census")
                .with_stream(true)
                .with_request(GenerateRequest::new(target).with_seed(8).with_workers(1)),
        )
        .expect("census stream failed");
    assert!(stream.streaming);
    assert_eq!(
        stream.provenance.get("workers").and_then(Value::as_u64),
        Some(1),
        "streaming proposes on one thread"
    );
    println!("census stream: released {}", stream.released);

    // The worker commits each job's serve.job span *after* answering, so
    // wait for the last job's span before snapshotting the trace ring.  The
    // wait reads the in-process ring, not the `trace` verb, so the request
    // log holds the same requests on every run.
    let expected_jobs = 4; // 2 admitted acs + census batch + census stream
    for _ in 0..200 {
        let jobs = sgf_metrics::trace()
            .events()
            .iter()
            .filter(|event| event.name == "serve.job")
            .count();
        if jobs >= expected_jobs {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let trace_global = client.trace(None, false).expect("trace failed");
    assert!(
        trace_global
            .get("trace")
            .and_then(|t| t.get("schema_version"))
            .is_some(),
        "trace response is canonical JSON with a schema_version"
    );

    // Per-session metrics cells must sum exactly to the global rollup.
    let metrics_global = client.metrics(None, false).expect("metrics failed");
    assert_cells_sum_to_rollup(&metrics_global);
    let metrics_census = client
        .metrics(Some("census"), false)
        .expect("census metrics failed");
    let census_requests = metrics_census
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get("core.mechanism.requests"))
        .and_then(Value::as_u64);
    assert_eq!(
        census_requests,
        Some(2),
        "census served one batch and one stream"
    );
    println!("metrics: per-session cells sum to the global rollup");

    // Each session's trace view holds its complete generate span tree.
    let trace_acs = client.trace(Some("acs"), false).expect("acs trace failed");
    assert_generate_span_tree(trace_events(&trace_acs), "acs");
    let trace_census = client
        .trace(Some("census"), false)
        .expect("census trace failed");
    assert_generate_span_tree(trace_events(&trace_census), "census");
    println!("trace: complete generate span trees for both sessions");

    // Deterministic observability documents for the perf-trajectory
    // artifacts: counter-only metrics, wall-clock-free traces, and the
    // batch provenance line.
    let metrics_doc = metrics_global
        .get("metrics")
        .map(Value::render)
        .expect("metrics body");
    let trace_doc = trace_global
        .get("trace")
        .map(Value::render)
        .expect("trace body");
    write_artifact("SMOKE_METRICS.json", &format!("{metrics_doc}\n"));
    write_artifact("SMOKE_TRACE.json", &format!("{trace_doc}\n"));
    write_artifact(
        "SMOKE_PROVENANCE.json",
        &format!("{}\n", batch.provenance.render()),
    );

    // `metrics` and `trace` refuse a name no session is registered under,
    // and log the refusal under its code.  Sent after the documents are
    // written, so they do not change them.
    for probe in [
        client.metrics(Some(UNREGISTERED), false),
        client.trace(Some(UNREGISTERED), false),
    ] {
        match probe {
            Err(ClientError::Rejected(rejection)) => {
                assert_eq!(rejection.code, reject::UNKNOWN_SESSION);
            }
            other => panic!("a probe of an unregistered session must be refused: {other:?}"),
        }
    }

    // The shared ledgers (visible through the cloned handles) match: the
    // capped session committed exactly two requests, no leaked reservations.
    let ledger = acs_ledger.ledger();
    assert_eq!(ledger.requests, 2);
    assert_eq!(ledger.releases, 2 * target);
    assert_eq!(ledger.reserved, 0, "no reservation may leak");
    assert!(ledger.total().epsilon <= cap.epsilon);
    let census_ledger = census_ledger.ledger();
    assert_eq!(census_ledger.requests, 2);
    assert_eq!(census_ledger.releases, batch.released + stream.released);

    client.shutdown().expect("shutdown failed");
    handle.join().expect("drain failed");
    println!(
        "== sgf-serve smoke OK: 2 admitted + 1 over-budget reject on acs, \
         batch + stream on census, final epsilon {:.3} ==",
        ledger.total().epsilon
    );
    ExitCode::SUCCESS
}
