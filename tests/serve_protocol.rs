//! Protocol-level integration tests for `sgf-serve`: wire fidelity of
//! streamed and batched releases against the in-process session API, the
//! `status`/`ledger` verbs, machine-readable rejections, and graceful drain.

use sgf::core::{GenerateRequest, PrivacyTestConfig, SynthesisEngine, SynthesisSession};
use sgf::data::acs::{acs_bucketizer, acs_schema, generate_acs};
use sgf::serve::{reject, serve, Client, ClientError, GenerateCall, ServeConfig, SessionEntry};

fn train_session(seed: u64) -> SynthesisSession {
    let population = generate_acs(3_500, seed);
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

/// Streaming a release across the serve worker boundary (the session's
/// `release_stream` feeding record lines onto the wire) yields byte-identical
/// records to an in-process single-worker `generate` with the same seed —
/// and so does the batched protocol path.
#[test]
fn tcp_release_is_byte_identical_to_in_process_generate() {
    let session = train_session(41);
    let local = session.clone();
    let handle = serve(ServeConfig::default(), vec![SessionEntry::new(session)]).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let request = GenerateRequest::new(12).with_seed(5).with_workers(1);
    let reference = local.generate(&request).unwrap();

    // The streaming path emits each record as it passes on a serve worker;
    // the batch path fans out through generate.  Same seed, same records, on
    // both sides of the wire.
    let streamed = client
        .generate(
            &GenerateCall::new(12)
                .with_stream(true)
                .with_request(request),
        )
        .unwrap();
    assert!(streamed.streaming);
    assert_eq!(reference.synthetics.records(), &streamed.records[..]);
    assert_eq!(
        streamed.stats.get("released").and_then(|v| v.as_u64()),
        Some(streamed.records.len() as u64)
    );

    let batched = client
        .generate(&GenerateCall::new(12).with_request(request))
        .unwrap();
    assert!(!batched.streaming);
    assert_eq!(reference.synthetics.records(), &batched.records[..]);

    // All three runs charged the one shared ledger.
    let ledger = local.ledger();
    assert_eq!(ledger.requests, 3);
    assert_eq!(ledger.releases, 3 * reference.stats.released);
    assert_eq!(ledger.reserved, 0);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn status_and_ledger_verbs_report_server_state() {
    let session = train_session(42);
    let local = session.clone();
    let handle = serve(
        ServeConfig {
            queue_capacity: 7,
            workers: 2,
            ..ServeConfig::default()
        },
        vec![SessionEntry::new(session).named("census")],
    )
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let status = client.status().unwrap();
    assert_eq!(
        status.get("draining").and_then(|v| v.as_bool()),
        Some(false)
    );
    assert_eq!(
        status.get("queue_capacity").and_then(|v| v.as_u64()),
        Some(7)
    );
    assert_eq!(status.get("workers").and_then(|v| v.as_u64()), Some(2));
    let sessions: Vec<&str> = status
        .get("sessions")
        .and_then(|v| v.as_array())
        .unwrap()
        .iter()
        .filter_map(|v| v.as_str())
        .collect();
    assert_eq!(sessions, vec!["census"]);

    let release = client
        .generate(
            &GenerateCall::new(9)
                .with_session("census")
                .with_request(GenerateRequest::new(9).with_seed(2)),
        )
        .unwrap();

    // The ledger verb mirrors the in-process ledger of the shared session.
    let response = client.ledger("census").unwrap();
    let wire = response.get("ledger").unwrap();
    let ledger = local.ledger();
    assert_eq!(wire.get("requests").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(
        wire.get("releases").and_then(|v| v.as_usize()),
        Some(ledger.releases)
    );
    assert_eq!(
        wire.get("total_epsilon").and_then(|v| v.as_f64()),
        Some(ledger.total().epsilon)
    );
    // Uncapped session: the cap fields are null.
    assert_eq!(
        response.get("cap_epsilon"),
        Some(&sgf::serve::json::Value::Null)
    );
    assert_eq!(release.records.len(), ledger.releases);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// A capped streaming request over TCP settles exactly: converted records
/// count as releases, the unstreamed remainder is returned, and the cap
/// arithmetic afterwards reflects only what actually streamed.
#[test]
fn capped_streaming_settles_the_reservation_exactly() {
    use sgf::serve::cap_admitting;

    let session = train_session(45);
    let local = session.clone();
    let target = 6usize;
    let cap = cap_admitting(&session, 2 * target).unwrap();
    let handle = serve(
        ServeConfig::default(),
        vec![SessionEntry::new(session).capped(cap)],
    )
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let streamed = client
        .generate(
            &GenerateCall::new(target)
                .with_stream(true)
                .with_request(GenerateRequest::new(target).with_seed(1)),
        )
        .unwrap();
    assert!(streamed.streaming);
    assert!(!streamed.records.is_empty());

    let ledger = local.ledger();
    assert_eq!(ledger.releases, streamed.records.len());
    assert_eq!(ledger.reserved, 0, "the remainder must be handed back");
    assert!(ledger.reserved_total().epsilon <= cap.epsilon);

    // The freed remainder is admissible again: a second full-target request
    // fits under the 2×target cap no matter how short the stream fell.
    let second = client
        .generate(
            &GenerateCall::new(target).with_request(GenerateRequest::new(target).with_seed(2)),
        )
        .unwrap();
    assert!(!second.records.is_empty());
    assert!(local.ledger().total().epsilon <= cap.epsilon);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// A streaming `marginal` generate is refused at admission, before any budget
/// reservation or queue slot: nothing stays reserved on the capped session,
/// and its `serve.admitted` count does not move.
#[test]
fn streaming_marginal_generate_is_refused_at_admission() {
    use sgf::serve::{cap_admitting, ModelKind};

    let session = train_session(44);
    let local = session.clone();
    let target = 4usize;
    let cap = cap_admitting(&session, 2 * target).unwrap();
    let handle = serve(
        ServeConfig::default(),
        vec![SessionEntry::new(session).named("capped").capped(cap)],
    )
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let admitted = |client: &mut Client| {
        let metrics = client.metrics(Some("capped"), false).unwrap();
        metrics
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .and_then(|c| c.get("serve.admitted"))
            .and_then(|v| v.as_u64())
    };

    client
        .generate(
            &GenerateCall::new(target)
                .with_session("capped")
                .with_request(GenerateRequest::new(target).with_seed(1)),
        )
        .unwrap();
    assert_eq!(admitted(&mut client), Some(1));

    let err = client
        .generate(
            &GenerateCall::new(target)
                .with_session("capped")
                .with_stream(true)
                .with_model(ModelKind::Marginal),
        )
        .unwrap_err();
    let ClientError::Rejected(rejection) = err else {
        panic!("expected a rejection");
    };
    assert_eq!(rejection.code, reject::BAD_REQUEST);
    assert_eq!(rejection.message, "streaming supports the seed model only");
    assert_eq!(local.ledger().reserved, 0);
    assert_eq!(
        admitted(&mut client),
        Some(1),
        "a refused stream takes no queue slot"
    );

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// A client that hangs up mid-stream on a capped session leaves the ledger
/// settled: once the worker is idle again nothing stays reserved, no more
/// than the target was released, and the total stays under the cap.  (How
/// early the worker notices the hang-up depends on socket buffering, so the
/// release count is only bounded.)
#[test]
fn hanging_up_mid_stream_settles_the_capped_reservation() {
    use sgf::serve::cap_admitting;
    use std::io::{BufRead, BufReader, Write};
    use std::time::{Duration, Instant};

    let session = train_session(48);
    let local = session.clone();
    let target = 2_000usize;
    let cap = cap_admitting(&session, target).unwrap();
    let handle = serve(
        ServeConfig::default(),
        vec![SessionEntry::new(session).capped(cap)],
    )
    .unwrap();

    let socket = std::net::TcpStream::connect(handle.addr()).unwrap();
    let mut writer = socket.try_clone().unwrap();
    let mut reader = BufReader::new(socket);
    let call = GenerateCall::new(target)
        .with_stream(true)
        .with_request(GenerateRequest::new(target).with_seed(7));
    writeln!(writer, "{}", call.encode()).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"streaming\":true"), "{line}");
    for _ in 0..3 {
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("{\"record\":"), "{line}");
    }
    drop(reader);
    drop(writer);

    let mut client = Client::connect(handle.addr()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = client.status().unwrap();
        if status.get("busy_workers").and_then(|v| v.as_u64()) == Some(0) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the stream worker never finished"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let ledger = local.ledger();
    assert_eq!(ledger.reserved, 0, "the stream must settle its reservation");
    assert!(ledger.releases >= 3 && ledger.releases <= target);
    assert!(ledger.total().epsilon <= cap.epsilon);
    assert!(ledger.total().delta <= cap.delta);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// The server prunes per-connection state when clients disconnect (no fd
/// leak across connection churn), observable through the status verb.
#[test]
fn disconnected_clients_are_pruned_from_server_state() {
    use std::time::{Duration, Instant};

    let session = train_session(46);
    let handle = serve(ServeConfig::default(), vec![SessionEntry::new(session)]).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    // Churn a batch of short-lived connections.
    for _ in 0..8 {
        let mut ephemeral = Client::connect(handle.addr()).unwrap();
        assert!(ephemeral.status().is_ok());
    }
    // Pruning happens as each reader observes EOF; wait for it to settle to
    // just the surviving client.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let connections = client
            .status()
            .unwrap()
            .get("connections")
            .and_then(|v| v.as_u64())
            .expect("status reports connections");
        if connections == 1 {
            break;
        }
        assert!(Instant::now() < deadline, "stale connections not pruned");
        std::thread::sleep(Duration::from_millis(10));
    }

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// The observability surface over TCP: provenance blocks ride the batch
/// header and the stream trailer, the `metrics` verb exposes the session's
/// labeled cell, and the `trace` verb returns the complete generate span
/// tree — with unknown sessions rejected on both verbs.
#[test]
fn metrics_trace_and_provenance_expose_the_release_lifecycle() {
    let session = train_session(47);
    let handle = serve(
        ServeConfig::default(),
        vec![SessionEntry::new(session).named("obs")],
    )
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    // Batch: the provenance block rides the header.
    let batched = client
        .generate(
            &GenerateCall::new(8)
                .with_session("obs")
                .with_request(GenerateRequest::new(8).with_seed(3).with_workers(1)),
        )
        .unwrap();
    let store = batched
        .provenance
        .get("store")
        .and_then(|v| v.as_str())
        .expect("provenance names its seed store");
    assert!(
        ["scan", "inverted", "partition", "prefix"].contains(&store),
        "unexpected store kind {store}"
    );
    assert_eq!(
        batched
            .provenance
            .get("request_seed")
            .and_then(|v| v.as_u64()),
        Some(3)
    );
    assert!(
        batched
            .provenance
            .get("ledger")
            .and_then(|l| l.get("before"))
            .is_some(),
        "provenance carries the pre-request ledger snapshot"
    );
    assert!(
        batched
            .provenance
            .get("trace_spans")
            .and_then(|v| v.as_u64())
            .unwrap_or(0)
            > 0,
        "a traced batch generate records its span count"
    );

    // Stream: the same block rides the trailer.
    let streamed = client
        .generate(
            &GenerateCall::new(8)
                .with_session("obs")
                .with_stream(true)
                .with_request(GenerateRequest::new(8).with_seed(4).with_workers(1)),
        )
        .unwrap();
    assert!(streamed.streaming);
    assert!(
        streamed.provenance.get("store").is_some(),
        "stream trailer carries provenance"
    );

    // metrics: the session's labeled cell counts both finished requests
    // (the stream's counters flush before its trailer is written, so the
    // cell is current by the time the client reads this).
    let response = client.metrics(Some("obs"), false).unwrap();
    let counters = response
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .expect("session metrics carry counters");
    assert_eq!(
        counters
            .get("core.mechanism.requests")
            .and_then(|v| v.as_u64()),
        Some(2)
    );
    assert_eq!(
        counters
            .get("core.mechanism.released")
            .and_then(|v| v.as_u64()),
        Some((batched.released + streamed.released) as u64)
    );
    // The deterministic default is counters-only; `noisy` opts into the
    // wall-clock-bearing sections.
    let summary_count = |response: &sgf::serve::json::Value| {
        response
            .get("metrics")
            .and_then(|m| m.get("summaries"))
            .and_then(|s| s.as_object())
            .map_or(0, |entries| entries.len())
    };
    assert_eq!(summary_count(&response), 0);
    let noisy = client.metrics(Some("obs"), true).unwrap();
    assert!(summary_count(&noisy) > 0, "noisy metrics carry summaries");

    // trace: the session's span trees include a complete generate lifecycle
    // — generate root, proposals child, per-candidate privacy tests.
    let response = client.trace(Some("obs"), false).unwrap();
    assert_eq!(
        response.get("enabled").and_then(|v| v.as_bool()),
        Some(true)
    );
    let events = response
        .get("trace")
        .and_then(|t| t.get("events"))
        .and_then(|e| e.as_array())
        .expect("trace returns an event array");
    let labels_of = |event: &sgf::serve::json::Value| {
        event
            .get("labels")
            .and_then(|v| v.as_str())
            .unwrap_or_default()
            .to_string()
    };
    let generate = events
        .iter()
        .find(|e| e.get("name").and_then(|v| v.as_str()) == Some("core.generate"))
        .expect("a core.generate span for the session");
    assert!(labels_of(generate).contains("session=obs"));
    assert!(labels_of(generate).contains("store="));
    let root = generate.get("span").and_then(|v| v.as_u64()).unwrap();
    let proposals = events
        .iter()
        .find(|e| {
            e.get("name").and_then(|v| v.as_str()) == Some("core.proposals")
                && e.get("parent").and_then(|v| v.as_u64()) == Some(root)
        })
        .expect("a core.proposals child span");
    let proposals_span = proposals.get("span").and_then(|v| v.as_u64()).unwrap();
    let probes: Vec<_> = events
        .iter()
        .filter(|e| {
            e.get("name").and_then(|v| v.as_str()) == Some("core.privacy_test")
                && e.get("parent").and_then(|v| v.as_u64()) == Some(proposals_span)
        })
        .collect();
    assert!(!probes.is_empty(), "per-candidate privacy-test spans");
    for probe in probes {
        let labels = labels_of(probe);
        assert!(labels.contains("outcome=pass") || labels.contains("outcome=fail"));
    }
    // Deterministic by default: no wall clocks unless `noisy`.
    assert!(events.iter().all(|e| e.get("wall_nanos").is_none()));

    // Unknown sessions are rejected on both observability verbs.
    for result in [
        client.metrics(Some("nope"), false),
        client.trace(Some("nope"), false),
    ] {
        let err = result.unwrap_err();
        assert!(matches!(
            err,
            ClientError::Rejected(r) if r.code == reject::UNKNOWN_SESSION
        ));
    }

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Every response line is canonical JSON: parsing the wire bytes and
/// rendering them again reproduces them exactly, so a client that stores a
/// parsed block (the smoke's `SMOKE_PROVENANCE.json`) stores the server's
/// own bytes — integral floats such as `"gamma":4.0` included.
#[test]
fn served_lines_are_fixed_points_of_the_codec() {
    use sgf::serve::json::Value;
    use std::io::{BufRead, BufReader, Write};

    let handle = serve(
        ServeConfig::default(),
        vec![SessionEntry::new(train_session(45))],
    )
    .unwrap();
    let stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut read_line = || {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line.trim_end_matches('\n').to_string()
    };
    let mut send = |line: &str| writeln!(writer, "{line}").unwrap();

    send(r#"{"verb":"generate","target":6,"seed":3}"#);
    let header = read_line();
    let mut lines = vec![header.clone()];
    loop {
        let line = read_line();
        let end = line.starts_with("{\"end\"");
        lines.push(line);
        if end {
            break;
        }
    }
    for verb in ["ledger", "metrics", "status", "warp"] {
        send(&format!("{{\"verb\":\"{verb}\"}}"));
        lines.push(read_line());
    }
    for line in &lines {
        assert_eq!(&Value::parse(line).unwrap().render(), line);
    }
    let provenance = Value::parse(&header)
        .unwrap()
        .get("provenance")
        .unwrap()
        .render();
    assert!(provenance.contains("\"gamma\":4.0"), "{provenance}");
    assert!(header.contains(&provenance));

    send(r#"{"verb":"shutdown"}"#);
    assert!(read_line().contains("\"draining\":true"));
    handle.join().unwrap();
}

/// `seed_index` is no longer a `generate` field: a line that still carries
/// it releases the same record bytes as the line without it, tested against
/// the session's prefix store.
#[test]
fn retired_seed_index_field_has_no_effect() {
    use sgf::serve::json::Value;
    use std::io::{BufRead, BufReader, Write};

    let handle = serve(
        ServeConfig::default(),
        vec![SessionEntry::new(train_session(46))],
    )
    .unwrap();
    let stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    // The header's provenance store and the record lines of one release.
    let mut release = |line: &str| {
        writeln!(writer, "{line}").unwrap();
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            if line.starts_with("{\"end\"") {
                break;
            }
            lines.push(line);
        }
        let header = Value::parse(&lines.remove(0)).unwrap();
        let store = header
            .get("provenance")
            .and_then(|p| p.get("store"))
            .and_then(|s| s.as_str())
            .map(str::to_string);
        (store, lines)
    };

    let (store, plain) = release(r#"{"verb":"generate","target":8,"seed":4}"#);
    let (retired_store, retired) =
        release(r#"{"verb":"generate","target":8,"seed":4,"seed_index":"scan"}"#);
    assert!(!plain.is_empty());
    assert_eq!(plain, retired);
    assert_eq!(store.as_deref(), Some("prefix"));
    assert_eq!(retired_store.as_deref(), Some("prefix"));

    handle.shutdown();
    handle.join().unwrap();
}

#[test]
fn rejections_carry_machine_readable_codes() {
    let session = train_session(43);
    let handle = serve(ServeConfig::default(), vec![SessionEntry::new(session)]).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    // Unknown session.
    let err = client
        .generate(&GenerateCall::new(5).with_session("nope"))
        .unwrap_err();
    let ClientError::Rejected(rejection) = err else {
        panic!("expected a rejection");
    };
    assert_eq!(rejection.code, reject::UNKNOWN_SESSION);
    assert_eq!(
        rejection.detail.get("session").and_then(|v| v.as_str()),
        Some("nope")
    );
    let err = client.ledger("nope").unwrap_err();
    assert!(matches!(
        err,
        ClientError::Rejected(r) if r.code == reject::UNKNOWN_SESSION
    ));

    // Malformed and invalid requests: bad_request with a reason, and the
    // connection stays usable afterwards.
    for line in [
        r#"{"verb":"generate"}"#,
        r#"{"verb":"generate","target":0}"#,
        r#"{"verb":"warp"}"#,
        "not json at all",
    ] {
        let err = client.raw_roundtrip(line).unwrap_err();
        assert!(
            matches!(&err, ClientError::Rejected(r) if r.code == reject::BAD_REQUEST),
            "{line}: {err}"
        );
    }
    // A validation failure *inside* the session surfaces as generate_failed.
    let err = client
        .generate(
            &GenerateCall::new(5)
                .with_request(GenerateRequest::new(5).with_omega(sgf::model::OmegaSpec::Fixed(99))),
        )
        .unwrap_err();
    assert!(matches!(
        err,
        ClientError::Rejected(r) if r.code == reject::GENERATE_FAILED
    ));

    // Still healthy after every rejection.
    assert!(client.status().is_ok());
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// A request line of `MAX_LINE` bytes with no newline is answered with a
/// `bad_request` naming the limit, and the server closes that connection
/// instead of buffering more; a fresh connection still generates.
#[test]
fn oversized_lines_are_rejected_and_their_connection_closed() {
    use sgf::serve::json::Value;
    use sgf::serve::MAX_LINE;
    use std::io::{BufRead, BufReader, Write};

    let session = train_session(48);
    let handle = serve(ServeConfig::default(), vec![SessionEntry::new(session)]).unwrap();
    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    // A server that keeps buffering never answers: fail instead of hanging.
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    stream.write_all(&vec![b'x'; MAX_LINE]).unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let response = Value::parse(line.trim_end()).unwrap();
    assert_eq!(response.get("ok").and_then(|v| v.as_bool()), Some(false));
    assert_eq!(
        response.get("error").and_then(|v| v.as_str()),
        Some(reject::BAD_REQUEST)
    );
    let message = response.get("message").and_then(|v| v.as_str()).unwrap();
    assert!(message.contains(&MAX_LINE.to_string()), "{message}");
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "connection closed");

    let mut client = Client::connect(handle.addr()).unwrap();
    assert_eq!(client.generate(&GenerateCall::new(4)).unwrap().released, 4);
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// A line that is not UTF-8 gets the same `bad_request` as malformed JSON,
/// and the connection keeps serving.
#[test]
fn invalid_utf8_lines_are_rejected_and_the_connection_kept() {
    let session = train_session(49);
    let handle = serve(ServeConfig::default(), vec![SessionEntry::new(session)]).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let err = client
        .raw_roundtrip(b"{\"verb\":\"status\xff\"}")
        .unwrap_err();
    assert!(
        matches!(&err, ClientError::Rejected(r) if r.code == reject::BAD_REQUEST),
        "{err}"
    );
    assert_eq!(client.generate(&GenerateCall::new(4)).unwrap().released, 4);
    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn a_repeated_session_name_is_rejected_before_binding() {
    use sgf::serve::cap_admitting;
    use std::io::ErrorKind;

    let session = train_session(46);
    let cap = cap_admitting(&session, 4).unwrap();
    let entries = || {
        vec![
            SessionEntry::new(session.clone()).named("x").capped(cap),
            SessionEntry::new(session.clone()).named("x"),
        ]
    };
    let config = ServeConfig {
        trace: false,
        ..ServeConfig::default()
    };
    // Serving only the last "x" would silently drop the first one's cap.
    let kind = serve(config.clone(), entries()).err().map(|e| e.kind());
    assert_eq!(kind, Some(ErrorKind::InvalidInput));
    // The name check runs before the bind: an address already in use still
    // reports the duplicate.
    let taken = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let occupied = ServeConfig {
        addr: taken.local_addr().unwrap().to_string(),
        ..config
    };
    let kind = serve(occupied, entries()).err().map(|e| e.kind());
    assert_eq!(kind, Some(ErrorKind::InvalidInput));
}

#[test]
fn shutdown_drains_and_rejects_late_requests() {
    let session = train_session(44);
    let handle = serve(ServeConfig::default(), vec![SessionEntry::new(session)]).unwrap();
    let addr = handle.addr();
    let mut client = Client::connect(addr).unwrap();
    let mut late = Client::connect(addr).unwrap();

    assert_eq!(client.generate(&GenerateCall::new(4)).unwrap().released, 4);
    client.shutdown().unwrap();

    // The draining server refuses new generate requests on live connections
    // with a machine-readable reason...
    let err = late.generate(&GenerateCall::new(4)).unwrap_err();
    match err {
        ClientError::Rejected(r) => assert_eq!(r.code, reject::SHUTTING_DOWN),
        // ...unless the drain already tore the connection down, which is an
        // equally clean refusal.
        ClientError::Io(_) => {}
        other => panic!("unexpected error {other}"),
    }

    // join returns only after every server thread exited; afterwards the
    // port no longer accepts connections.
    handle.join().unwrap();
    assert!(
        Client::connect(addr).is_err() || {
            // Accepting OS-level connect-then-EOF is fine too: the listener is
            // gone, so any connect must fail, but some platforms report it lazily
            // on first IO.
            let mut probe = Client::connect(addr).unwrap();
            probe.status().is_err()
        }
    );
}

/// The `update` verb end-to-end: a served delta advances the session to its
/// next epoch, the response reports the new epoch and seed count, and a
/// post-update generate releases byte-identical records to an in-process
/// session updated with the same delta (the serve layer adds nothing to the
/// equivalence invariant).  Bad deltas are rejected with machine-readable
/// codes and leave the session serving its current epoch.
#[test]
fn update_verb_advances_the_session_epoch_over_the_wire() {
    use sgf::serve::UpdateCall;

    let population = generate_acs(3_500, 47);
    let session = train_session(47);
    let local = session.clone();
    let handle = serve(
        ServeConfig::default(),
        vec![SessionEntry::new(session).named("incremental")],
    )
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    // The same delta, applied in-process and over the wire.
    let inserts: Vec<sgf::data::Record> = generate_acs(10, 91).records().to_vec();
    let deletes: Vec<sgf::data::Record> = population.records()[..5].to_vec();
    let mut delta = sgf::data::DatasetDelta::new(population.schema_arc());
    let mut call = UpdateCall::new().with_session("incremental");
    for record in &deletes {
        delta.delete(record.clone()).unwrap();
        call = call.delete(record.clone());
    }
    for record in &inserts {
        delta.insert(record.clone()).unwrap();
        call = call.insert(record.clone());
    }
    let updated_local = local.update(&delta).unwrap();

    let response = client.update(&call).unwrap();
    assert_eq!(response.get("epoch").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(
        response.get("seeds").and_then(|v| v.as_u64()),
        Some(updated_local.seeds().len() as u64)
    );
    assert_eq!(response.get("inserts").and_then(|v| v.as_u64()), Some(10));
    assert_eq!(response.get("deletes").and_then(|v| v.as_u64()), Some(5));

    // The served session now IS the next epoch: same bytes as the in-process
    // update, and the provenance carries the epoch stamp.
    let request = GenerateRequest::new(8).with_seed(3).with_workers(1);
    let reference = updated_local.generate(&request).unwrap();
    let served = client
        .generate(
            &GenerateCall::new(8)
                .with_session("incremental")
                .with_request(request),
        )
        .unwrap();
    assert_eq!(reference.synthetics.records(), &served.records[..]);
    assert_eq!(
        served.provenance.get("epoch").and_then(|v| v.as_u64()),
        Some(1)
    );

    // A delta deleting a record the dataset does not hold fails with
    // `update_failed` and the session keeps serving epoch 1.
    let ghost = population.records()[0].clone();
    let occurrences = updated_local.seeds().len().max(population.len());
    let mut bad = UpdateCall::new().with_session("incremental");
    for _ in 0..=occurrences {
        bad = bad.delete(ghost.clone());
    }
    match client.update(&bad) {
        Err(ClientError::Rejected(r)) => assert_eq!(r.code, reject::UPDATE_FAILED),
        other => panic!("expected update_failed, got {other:?}"),
    }
    // A wrong-arity record is a bad request, not a failed update.
    let mut stub = population.records()[0].values().to_vec();
    stub.push(0);
    match client.update(
        &UpdateCall::new()
            .with_session("incremental")
            .insert(sgf::data::Record::new(stub)),
    ) {
        Err(ClientError::Rejected(r)) => assert_eq!(r.code, reject::BAD_REQUEST),
        other => panic!("expected bad_request, got {other:?}"),
    }
    // Unknown sessions are rejected by the same admission gate as generate.
    match client.update(&UpdateCall::new().with_session("nonexistent")) {
        Err(ClientError::Rejected(r)) => assert_eq!(r.code, reject::UNKNOWN_SESSION),
        other => panic!("expected unknown_session, got {other:?}"),
    }
    let after = client
        .generate(
            &GenerateCall::new(8)
                .with_session("incremental")
                .with_request(GenerateRequest::new(8).with_seed(3).with_workers(1)),
        )
        .unwrap();
    assert_eq!(after.records, served.records);

    client.shutdown().unwrap();
    handle.join().unwrap();
}
