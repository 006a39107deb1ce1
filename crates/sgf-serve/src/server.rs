//! The threaded release server: accept loop, bounded admission, worker pool,
//! and graceful drain.
//!
//! ## Request lifecycle
//!
//! 1. A connection reader thread parses one JSON line into a
//!    [`Request`] and assigns it a request id (the key tying its log lines
//!    and trace span together).  `status` / `ledger` / `metrics` / `trace` /
//!    `shutdown` are answered inline; `generate` goes through **admission**:
//!    * a draining server rejects with `shutting_down`;
//!    * a capped session must win an atomic budget reservation
//!      ([`SynthesisSession::try_reserve`]) covering the request's full
//!      target — concurrent requests can therefore never jointly overshoot
//!      the session's (ε, δ) cap, no matter how they interleave;
//!    * the job must fit the bounded queue — a full queue rejects with
//!      `queue_full` and a `retry_after_ms` hint (and releases the
//!      reservation).
//! 2. A worker pops one job per turn, runs the session's generate path
//!    (batch or streaming, seed or marginal model), settles the reservation
//!    (actual releases committed, unused budget freed; aborted on failure),
//!    and writes the response to the job's connection.  Jobs share no state
//!    (each privacy test is one prefix-store range lookup), so a turn has
//!    nothing to gain from serving several at once.
//! 3. `shutdown` (or [`ServerHandle::shutdown`]) starts the drain: admission
//!    closes, queued jobs still complete, workers then exit, and
//!    [`ServerHandle::join`] returns once every thread is down.

use crate::protocol::{
    self, reject, GenerateCall, ModelKind, Request, UpdateCall, DEFAULT_SESSION,
};
use crate::queue::{BoundedQueue, PushError};
use sgf_core::{CoreError, ReleaseReport, SynthesisSession};
use sgf_data::DatasetDelta;
use sgf_metrics::json::write_object;
use sgf_metrics::{Json, Scope, ScopedCounter, ScopedSummary, SpanId, Trace, TraceBatch};
use sgf_stats::DpBudget;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Maximum queued (admitted but not yet running) generate requests;
    /// beyond it, requests are rejected with `queue_full`.
    pub queue_capacity: usize,
    /// Worker threads executing generate requests.
    pub workers: usize,
    /// The retry hint attached to `queue_full` rejections.
    pub retry_after_ms: u64,
    /// Artificial minimum service time per generate request — a test/chaos
    /// knob making queue backpressure deterministic to exercise; `None` in
    /// production.
    pub service_delay: Option<Duration>,
    /// Ignored: every worker turn serves exactly one job.  The field stays
    /// only because the benchmark harness (`perfbench/src/common.rs`) still
    /// sets it; delete both together.
    pub max_fold: Option<usize>,
    /// Turn the process-wide deterministic trace ring on at startup, so the
    /// `trace` verb has spans to report.  (Never turned back off: the ring
    /// is shared, so one server must not blind another.)
    pub trace: bool,
    /// Emit one structured JSON log line per request (with its request id)
    /// to stderr: parse failures, admission outcomes, and completions.
    pub log_requests: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            queue_capacity: 32,
            workers: 4,
            retry_after_ms: 50,
            service_delay: None,
            max_fold: None,
            trace: true,
            log_requests: false,
        }
    }
}

/// One session offered by the server.
#[derive(Debug, Clone)]
pub struct SessionEntry {
    /// The name `generate`/`ledger` requests address it by.
    pub name: String,
    /// A handle to the trained session (clones share models, index, ledger).
    pub session: SynthesisSession,
    /// Per-session (ε, δ) cap enforced at admission; `None` serves uncapped.
    pub cap: Option<DpBudget>,
}

impl SessionEntry {
    /// Serve `session` under the [`DEFAULT_SESSION`] name, uncapped.
    pub fn new(session: SynthesisSession) -> Self {
        SessionEntry {
            name: DEFAULT_SESSION.to_string(),
            session,
            cap: None,
        }
    }

    /// Name the session.
    pub fn named(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }

    /// Cap the session's cumulative worst-case (ε, δ).
    pub fn capped(mut self, cap: DpBudget) -> Self {
        self.cap = Some(cap);
        self
    }
}

/// The smallest cap that admits `releases` records from `session` (with a
/// hair of multiplicative slack), for cap sizing in tests and demos.
///
/// Exact-admission counting additionally requires the composed release
/// budget at `releases` records to dominate the session's model budget —
/// otherwise the cap is the model budget and admits more.  Returns `None`
/// under the deterministic privacy test (no finite cap admits anything).
pub fn cap_admitting(session: &SynthesisSession, releases: usize) -> Option<DpBudget> {
    session.per_release_budget()?;
    // Derive the cap from the exact formula admission checks
    // (BudgetLedger::total_for_releases), so the two can never desync.
    let total = session.ledger().total_for_releases(releases);
    Some(DpBudget::new(
        total.epsilon * (1.0 + 1e-9),
        (total.delta * (1.0 + 1e-9)).min(1.0),
    ))
}

/// A registered session slot.  The handle sits behind a mutex so the
/// `update` verb can swap in the next session epoch while requests already
/// holding a clone keep serving the epoch they were admitted against; every
/// reader takes a cheap clone (shared `Arc` internals) and releases the lock
/// immediately.
struct Registered {
    session: Mutex<SynthesisSession>,
    cap: Option<DpBudget>,
    /// The session's metric scope (see [`session_scope`]).
    scope: Scope,
    /// The generate path's scoped handles, resolved at the first admission
    /// (see [`Registered::metrics`]).
    metrics: OnceLock<SessionMetrics>,
}

/// The scoped `serve.*` handles of one session's generate path.
struct SessionMetrics {
    /// `serve.admitted`: generate requests that entered the queue.
    admitted: ScopedCounter,
    /// `serve.generate_ms`: service time per job, the source of the p95
    /// retry hint.
    generate_ms: ScopedSummary,
}

impl Registered {
    /// Clone the current epoch's handle (models, stores, and the ledger are
    /// shared `Arc`s — this never copies trained state).
    fn session(&self) -> SynthesisSession {
        locked(&self.session).clone()
    }

    /// The generate path's handles, resolved once, by the first admission,
    /// so the session's cell holds no `serve.*` entry before it served.
    fn metrics(&self) -> &SessionMetrics {
        self.metrics.get_or_init(|| {
            let view = sgf_metrics::scoped(&self.scope);
            SessionMetrics {
                admitted: view.counter("serve.admitted"),
                generate_ms: view.summary("serve.generate_ms"),
            }
        })
    }
}

/// An admitted-but-unsettled budget reservation: aborts on drop unless the
/// worker takes it over (so a job dropped on the floor — queue overflow,
/// forced teardown — can never leak reserved budget).
struct ReservationGuard {
    session: SynthesisSession,
    records: usize,
    armed: bool,
}

impl ReservationGuard {
    fn new(session: SynthesisSession, records: usize) -> Self {
        ReservationGuard {
            session,
            records,
            armed: true,
        }
    }

    /// Disarm the guard and hand the reservation to the caller, which now
    /// owes exactly one commit or abort.
    fn take(mut self) -> usize {
        self.armed = false;
        self.records
    }
}

impl Drop for ReservationGuard {
    fn drop(&mut self) {
        if self.armed {
            self.session.abort_reservation(self.records);
        }
    }
}

/// One admitted generate request waiting for a worker.
struct Job {
    session: SynthesisSession,
    call: GenerateCall,
    reservation: Option<ReservationGuard>,
    out: Arc<Mutex<TcpStream>>,
    /// Server-assigned id tying the job's log lines and trace span together.
    request_id: u64,
}

struct ServerState {
    sessions: HashMap<String, Registered>,
    queue: BoundedQueue<Job>,
    draining: AtomicBool,
    busy_workers: AtomicUsize,
    workers: usize,
    retry_after_ms: u64,
    service_delay: Option<Duration>,
    log_requests: bool,
    addr: SocketAddr,
    next_request_id: AtomicU64,
    next_conn_id: AtomicU64,
    /// Clones of the *live* connections, keyed by connection id, for
    /// disconnecting reader threads at teardown.  Each connection removes its
    /// own entry when it closes, so a long-lived server does not accumulate
    /// dead file descriptors.
    conns: Mutex<HashMap<u64, TcpStream>>,
    /// Reader threads; finished handles are reaped on every accept.
    reader_handles: Mutex<Vec<JoinHandle<()>>>,
}

impl ServerState {
    /// Idempotently start the drain: close admission, let queued jobs finish,
    /// and wake the accept loop so it can exit.
    fn begin_drain(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        self.finish_drain();
    }

    /// The drain machinery behind the admission flag: close the queue and
    /// wake the blocking `accept` with a throwaway connection.
    fn finish_drain(&self) {
        self.queue.close();
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running server: the bound address plus the handles needed to stop it.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    accept: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Programmatic equivalent of the `shutdown` verb: start the drain.
    pub fn shutdown(&self) {
        self.state.begin_drain();
    }

    /// Wait for the server to finish: returns once the drain completes and
    /// every accept / worker / connection thread has exited.  (Blocks until
    /// something — the `shutdown` verb or [`ServerHandle::shutdown`] —
    /// starts the drain.)
    pub fn join(self) -> std::io::Result<()> {
        join_thread(self.accept)?;
        for worker in self.workers {
            join_thread(worker)?;
        }
        // Workers are done; disconnect lingering clients so their reader
        // threads observe EOF and exit.
        for (_, conn) in locked(&self.state.conns).drain() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        let readers: Vec<_> = locked(&self.state.reader_handles).drain(..).collect();
        for reader in readers {
            join_thread(reader)?;
        }
        Ok(())
    }
}

/// Lock a server-state mutex, tolerating poison (R3: panic-free serving).
///
/// Every protected structure here stays consistent across a panicking
/// holder: the conns map and reader-handle list only see single
/// insert/remove/drain/push operations, and a `TcpStream` at worst carries
/// a truncated line, which the client-side framing already treats as a
/// broken connection.  Propagating the poison (what `.expect()` did) would
/// instead cascade one worker's panic into every thread that touches the
/// lock, turning one lost request into a dead server.
fn locked<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

fn join_thread(handle: JoinHandle<()>) -> std::io::Result<()> {
    handle
        .join()
        .map_err(|_| std::io::Error::other("server thread panicked"))
}

/// Bind and start serving `sessions` under `config`; returns immediately.
///
/// Session names must be unique: a repeated name is rejected with
/// [`std::io::ErrorKind::InvalidInput`] before anything is bound.
pub fn serve(config: ServeConfig, sessions: Vec<SessionEntry>) -> std::io::Result<ServerHandle> {
    let mut map = HashMap::new();
    for entry in sessions {
        if map.contains_key(&entry.name) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("session name {:?} is registered twice", entry.name),
            ));
        }
        // Every metric a session's requests emit lands in its own labeled
        // cell (plus the global rollup) — the `metrics` verb's per-session
        // view and the p95 retry hint both read that cell.
        let scope = session_scope(&entry.name);
        let scoped = entry.session.with_scope(scope.clone());
        map.insert(
            entry.name,
            Registered {
                session: Mutex::new(scoped),
                cap: entry.cap,
                scope,
                metrics: OnceLock::new(),
            },
        );
    }
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    if config.trace {
        sgf_metrics::trace().set_enabled(true);
    }
    let workers = config.workers.max(1);
    let state = Arc::new(ServerState {
        sessions: map,
        queue: BoundedQueue::new(config.queue_capacity),
        draining: AtomicBool::new(false),
        busy_workers: AtomicUsize::new(0),
        workers,
        retry_after_ms: config.retry_after_ms,
        service_delay: config.service_delay,
        log_requests: config.log_requests,
        addr,
        next_request_id: AtomicU64::new(1),
        next_conn_id: AtomicU64::new(0),
        conns: Mutex::new(HashMap::new()),
        reader_handles: Mutex::new(Vec::new()),
    });
    let worker_handles = (0..workers)
        .map(|_| {
            let state = Arc::clone(&state);
            std::thread::spawn(move || worker_loop(&state))
        })
        .collect();
    let accept_state = Arc::clone(&state);
    let accept = std::thread::spawn(move || accept_loop(listener, &accept_state));
    Ok(ServerHandle {
        addr,
        state,
        accept,
        workers: worker_handles,
    })
}

fn accept_loop(listener: TcpListener, state: &Arc<ServerState>) {
    for conn in listener.incoming() {
        if state.draining.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else {
            // Transient accept failure (e.g. fd pressure): back off instead
            // of spinning on the error.
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        reap_finished_readers(state);
        // The protocol is small request/response lines; Nagle + delayed ACK
        // would add a ~40ms floor to every round trip on loopback.  Best
        // effort: a socket that rejects the option still works, just slower.
        let _ = stream.set_nodelay(true);
        let conn_id = state.next_conn_id.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            locked(&state.conns).insert(conn_id, clone);
        }
        let conn_state = Arc::clone(state);
        let handle = std::thread::spawn(move || {
            connection_loop(stream, &conn_state);
            // The client is gone: release the teardown clone (and its fd).
            locked(&conn_state.conns).remove(&conn_id);
        });
        locked(&state.reader_handles).push(handle);
    }
}

/// Join (and drop) reader threads that already exited, bounding the handle
/// list to live connections plus recent churn.
fn reap_finished_readers(state: &ServerState) {
    let mut handles = locked(&state.reader_handles);
    let (finished, live): (Vec<_>, Vec<_>) =
        handles.drain(..).partition(|handle| handle.is_finished());
    *handles = live;
    drop(handles);
    for handle in finished {
        let _ = handle.join();
    }
}

/// The longest request line a connection reads, its newline included:
/// 16 MiB, far above any legal request (a `generate` line is a few hundred
/// bytes, and an `update` carrying thousands of records stays under a MiB).
/// A longer line is answered with `bad_request` and its connection closed,
/// so a client sending bytes without a newline cannot grow the server's
/// memory past this bound.
pub const MAX_LINE: usize = 16 << 20;

fn connection_loop(stream: TcpStream, state: &Arc<ServerState>) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let out = Arc::new(Mutex::new(stream));
    let mut reader = BufReader::new(read_half);
    let mut buffer = Vec::new();
    let reject = |message: &str| {
        let request_id = state.next_request_id.fetch_add(1, Ordering::Relaxed);
        reject_bad_request(request_id, message, &out, state);
    };
    loop {
        buffer.clear();
        let mut limited = (&mut reader).take(MAX_LINE as u64);
        let Ok(1..) = limited.read_until(b'\n', &mut buffer) else {
            break;
        };
        if buffer.len() == MAX_LINE && !buffer.ends_with(b"\n") {
            reject(&format!("request line exceeds the {MAX_LINE}-byte limit"));
            break;
        }
        let line = buffer.strip_suffix(b"\n").unwrap_or(&buffer);
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        match std::str::from_utf8(line) {
            Ok(line) if line.trim().is_empty() => {}
            Ok(line) => handle_line(line, &out, state),
            Err(_) => reject("request line is not valid UTF-8"),
        }
    }
}

/// Write `text` (already `\n`-terminated) as one atomic unit on `out`.
fn write_response(out: &Mutex<TcpStream>, text: &str) {
    let mut stream = locked(out);
    let _ = stream.write_all(text.as_bytes());
    let _ = stream.flush();
}

fn write_line(out: &Mutex<TcpStream>, line: &str) {
    write_response(out, &format!("{line}\n"));
}

/// The scope labeling everything a session's requests emit.  Keep this the
/// single construction site: the registration (which keeps the scope for the
/// session's handles and trace labels), the `metrics` cell lookup and the
/// `trace` filter must all agree on the rendered key.
fn session_scope(name: &str) -> Scope {
    Scope::new().label("session", name)
}

/// One structured JSON log line on stderr (when `log_requests` is on).
/// Never `eprintln!`: a closed stderr must not panic a server thread (R3).
fn log_request(state: &ServerState, request_id: u64, verb: &str, session: &str, outcome: &str) {
    if !state.log_requests {
        return;
    }
    let line = Json::obj([
        ("log", "serve.request".into()),
        ("request_id", request_id.into()),
        ("verb", verb.into()),
        ("session", session.into()),
        ("outcome", outcome.into()),
    ]);
    let _ = writeln!(std::io::stderr().lock(), "{}", line.render());
}

/// The `"ok":true` answer of an inline verb: `ok`, `verb`, then `fields`.
fn ok_line<'k>(verb: &str, fields: impl IntoIterator<Item = (&'k str, Json)>) -> String {
    let head = [("ok", Json::Bool(true)), ("verb", verb.into())];
    Json::obj(head.into_iter().chain(fields)).render()
}

/// Answer a line that is no request with `bad_request` and its reason.
fn reject_bad_request(request_id: u64, message: &str, out: &Mutex<TcpStream>, state: &ServerState) {
    log_request(state, request_id, "?", "", "bad_request");
    write_line(
        out,
        &protocol::reject_line(reject::BAD_REQUEST, message, &[]),
    );
}

fn handle_line(line: &str, out: &Arc<Mutex<TcpStream>>, state: &Arc<ServerState>) {
    let request_id = state.next_request_id.fetch_add(1, Ordering::Relaxed);
    match protocol::parse_request(line) {
        Err(message) => reject_bad_request(request_id, &message, out, state),
        Ok(Request::Status) => {
            log_request(state, request_id, "status", "", "ok");
            write_line(out, &status_line(state));
        }
        Ok(Request::Ledger { session }) => match state.sessions.get(&session) {
            None => {
                log_request(state, request_id, "ledger", &session, "unknown_session");
                write_line(out, &unknown_session_line(&session));
            }
            Some(registered) => {
                log_request(state, request_id, "ledger", &session, "ok");
                write_line(out, &ledger_line(&session, registered));
            }
        },
        Ok(Request::Metrics { session, noisy }) => {
            log_request(
                state,
                request_id,
                "metrics",
                session.as_deref().unwrap_or(""),
                "ok",
            );
            write_line(out, &metrics_line(state, session.as_deref(), noisy));
        }
        Ok(Request::Trace { session, noisy }) => {
            log_request(
                state,
                request_id,
                "trace",
                session.as_deref().unwrap_or(""),
                "ok",
            );
            write_line(out, &trace_line(state, session.as_deref(), noisy));
        }
        Ok(Request::Shutdown) => {
            log_request(state, request_id, "shutdown", "", "draining");
            // Admission closes before the ack (a client that read the ack is
            // guaranteed `shutting_down` on any later request), but the drain
            // machinery — whose teardown eventually closes this connection —
            // starts only after the ack is on the wire, so the ack cannot be
            // lost to the teardown racing this write.
            let already_draining = state.draining.swap(true, Ordering::SeqCst);
            write_line(out, &ok_line("shutdown", [("draining", true.into())]));
            if !already_draining {
                state.finish_drain();
            }
        }
        Ok(Request::Generate(call)) => admit_generate(call, request_id, out, state),
        Ok(Request::Update(call)) => admit_update(call, request_id, out, state),
    }
}

/// The `update` verb: fold a ±record delta into a registered session,
/// advancing it to its next epoch.  Admission runs the same gates as
/// `generate` — a draining server rejects with `shutting_down`, an unknown
/// name with `unknown_session` — and the swap holds the session slot's lock
/// for the whole update, so concurrent updates serialize and every generate
/// request is served by exactly one epoch (the one whose handle it cloned at
/// admission; in-flight requests finish against their admitted epoch).
fn admit_update(
    call: UpdateCall,
    request_id: u64,
    out: &Arc<Mutex<TcpStream>>,
    state: &Arc<ServerState>,
) {
    if state.draining.load(Ordering::SeqCst) {
        log_request(state, request_id, "update", &call.session, "shutting_down");
        write_line(
            out,
            &protocol::reject_line(reject::SHUTTING_DOWN, "server is draining", &[]),
        );
        return;
    }
    let Some(registered) = state.sessions.get(&call.session) else {
        log_request(
            state,
            request_id,
            "update",
            &call.session,
            "unknown_session",
        );
        write_line(out, &unknown_session_line(&call.session));
        return;
    };
    let scope = &registered.scope;
    // Hold the slot for the whole update: admissions for this session wait
    // (microseconds — the update copies only what the delta touches), and
    // the epoch swap is atomic with respect to them.
    let mut slot = locked(&registered.session);
    let delta = {
        // The delta validates against the session's schema; a record of the
        // wrong arity or with out-of-domain values is a bad request, not a
        // failed update.
        let schema = slot.seeds().schema_arc();
        let mut delta = DatasetDelta::new(schema);
        let mut malformed = Ok(());
        for record in &call.deletes {
            if let Err(err) = delta.delete(record.clone()) {
                malformed = Err(err);
                break;
            }
        }
        if malformed.is_ok() {
            for record in &call.inserts {
                if let Err(err) = delta.insert(record.clone()) {
                    malformed = Err(err);
                    break;
                }
            }
        }
        match malformed {
            Ok(()) => delta,
            Err(err) => {
                drop(slot);
                log_request(state, request_id, "update", &call.session, "bad_request");
                write_line(
                    out,
                    &protocol::reject_line(reject::BAD_REQUEST, &err.to_string(), &[]),
                );
                return;
            }
        }
    };
    match slot.update(&delta) {
        Ok(next) => {
            let epoch = next.epoch();
            let seeds = next.seeds().len();
            // The retired epoch is dropped after the answer is written, so
            // freeing whatever it alone holds does not delay the client.
            let retired = std::mem::replace(&mut *slot, next);
            drop(slot);
            sgf_metrics::scoped(scope).counter("serve.updates").incr();
            log_request(state, request_id, "update", &call.session, "ok");
            let fields = [
                ("session", call.session.as_str().into()),
                ("epoch", epoch.into()),
                ("seeds", seeds.into()),
                ("inserts", call.inserts.len().into()),
                ("deletes", call.deletes.len().into()),
            ];
            write_line(out, &ok_line("update", fields));
            drop(retired);
        }
        Err(err) => {
            drop(slot);
            sgf_metrics::scoped(scope)
                .counter("serve.update_failed")
                .incr();
            log_request(state, request_id, "update", &call.session, "update_failed");
            write_line(
                out,
                &protocol::reject_line(reject::UPDATE_FAILED, &err.to_string(), &[]),
            );
        }
    }
}

/// Answer the `metrics` verb: the labeled snapshot of the process registry —
/// counter-only (deterministic) unless `noisy` — either whole (global rollup
/// plus every scope cell) or restricted to one registered session's cell.
fn metrics_line(state: &ServerState, session: Option<&str>, noisy: bool) -> String {
    let snapshot = sgf_metrics::global().snapshot();
    let snapshot = if noisy {
        snapshot
    } else {
        snapshot.counters_only()
    };
    let (filter, metrics) = match session {
        None => (None, snapshot.as_json()),
        Some(name) => {
            if !state.sessions.contains_key(name) {
                return unknown_session_line(name);
            }
            // A registered session that has served nothing yet has no cell;
            // answer with an empty snapshot rather than a rejection.
            let cell = snapshot
                .scopes
                .get(&session_scope(name).render())
                .cloned()
                .unwrap_or_default();
            (Some(("session", name.into())), cell.as_json())
        }
    };
    let fields = [("noisy", noisy.into()), ("metrics", metrics)];
    ok_line("metrics", fields.into_iter().chain(filter))
}

/// Answer the `trace` verb: recent span trees from the deterministic trace
/// ring — all of them, or only the trees rooted at spans labeled with the
/// requested session.  Wall clocks are omitted unless `noisy`.
fn trace_line(state: &ServerState, session: Option<&str>, noisy: bool) -> String {
    let trace = sgf_metrics::trace();
    let (filter, events) = match session {
        None => (None, trace.events()),
        Some(name) => {
            if !state.sessions.contains_key(name) {
                return unknown_session_line(name);
            }
            // Trace labels carry the scope-sanitized session name.
            let scope = session_scope(name);
            let value = scope.get("session").unwrap_or(name);
            (
                Some(("session", name.into())),
                trace.events_with_label("session", value),
            )
        }
    };
    let fields = [
        ("noisy", noisy.into()),
        ("enabled", trace.enabled().into()),
        ("trace", Trace::events_json(&events, noisy)),
    ];
    ok_line("trace", fields.into_iter().chain(filter))
}

fn status_line(state: &ServerState) -> String {
    let mut names: Vec<&str> = state.sessions.keys().map(String::as_str).collect();
    names.sort_unstable();
    ok_line(
        "status",
        [
            ("draining", state.draining.load(Ordering::SeqCst).into()),
            ("queue_depth", state.queue.len().into()),
            ("queue_capacity", state.queue.capacity().into()),
            (
                "busy_workers",
                state.busy_workers.load(Ordering::SeqCst).into(),
            ),
            ("workers", state.workers.into()),
            ("connections", locked(&state.conns).len().into()),
            (
                "sessions",
                Json::Arr(names.into_iter().map(Json::from).collect()),
            ),
        ],
    )
}

fn unknown_session_line(session: &str) -> String {
    protocol::reject_line(
        reject::UNKNOWN_SESSION,
        &format!("no session named `{session}` is registered"),
        &[("session", session.into())],
    )
}

fn ledger_line(name: &str, registered: &Registered) -> String {
    let ledger = registered.session().ledger();
    let mut line = String::with_capacity(448);
    write_object(&mut line, |object| {
        object
            .opt_float("cap_delta", registered.cap.map(|cap| cap.delta))
            .opt_float("cap_epsilon", registered.cap.map(|cap| cap.epsilon))
            .with("ledger", |out| ledger.write_json(out))
            .boolean("ok", true)
            .string("session", name)
            .string("verb", "ledger");
    });
    line
}

/// The `retry_after_ms` hint for a full queue: the session's observed p95
/// generate latency (from its scoped `serve.generate_ms` summary), falling
/// back to the configured constant until at least one request completed.
/// Honest backpressure: a client retrying after one typical service time
/// finds a queue slot with high probability.  Reads the registered
/// session's own handle, so no name off the wire reaches the registry.
fn retry_hint_ms(state: &ServerState, registered: &Registered) -> u64 {
    let observed = registered
        .metrics
        .get()
        .map(|metrics| metrics.generate_ms.cell_stats());
    match observed {
        Some(stats) if stats.count > 0 => stats.quantile_upper_bound(0.95).max(1),
        _ => state.retry_after_ms,
    }
}

/// Admission control for one generate request: drain check, atomic budget
/// reservation, bounded-queue push — each failure is a machine-readable
/// rejection, and a reservation never outlives a failed admission.
fn admit_generate(
    call: GenerateCall,
    request_id: u64,
    out: &Arc<Mutex<TcpStream>>,
    state: &Arc<ServerState>,
) {
    if state.draining.load(Ordering::SeqCst) {
        log_request(
            state,
            request_id,
            "generate",
            &call.session,
            "shutting_down",
        );
        write_line(
            out,
            &protocol::reject_line(reject::SHUTTING_DOWN, "server is draining", &[]),
        );
        return;
    }
    let Some(registered) = state.sessions.get(&call.session) else {
        log_request(
            state,
            request_id,
            "generate",
            &call.session,
            "unknown_session",
        );
        write_line(out, &unknown_session_line(&call.session));
        return;
    };
    // Clone the current epoch's handle once: the reservation, the queued job,
    // and the eventual generate all run against this epoch even if an
    // `update` swaps the slot while the job is queued (the shared ledger
    // keeps budget accounting exact across epochs).
    let session = registered.session();
    let reservation = match registered.cap {
        None => None,
        Some(cap) => match session.try_reserve(call.request.target, cap) {
            Ok(()) => Some(ReservationGuard::new(session.clone(), call.request.target)),
            Err(CoreError::BudgetCapExceeded { requested, cap }) => {
                sgf_metrics::scoped(&registered.scope)
                    .counter("serve.rejected_budget")
                    .incr();
                log_request(
                    state,
                    request_id,
                    "generate",
                    &call.session,
                    "budget_exhausted",
                );
                write_line(
                    out,
                    &protocol::reject_line(
                        reject::BUDGET_EXHAUSTED,
                        "admitting the request would exceed the session budget cap",
                        &[
                            ("requested_epsilon", requested.epsilon.into()),
                            ("requested_delta", requested.delta.into()),
                            ("cap_epsilon", cap.epsilon.into()),
                            ("cap_delta", cap.delta.into()),
                        ],
                    ),
                );
                return;
            }
            Err(err) => {
                log_request(state, request_id, "generate", &call.session, "bad_request");
                write_line(
                    out,
                    &protocol::reject_line(reject::BAD_REQUEST, &err.to_string(), &[]),
                );
                return;
            }
        },
    };
    let session_name = call.session.clone();
    let job = Job {
        session,
        call,
        reservation,
        out: Arc::clone(out),
        request_id,
    };
    match state.queue.try_push(job) {
        Ok(()) => {
            registered.metrics().admitted.incr();
            log_request(state, request_id, "generate", &session_name, "admitted");
        }
        Err(PushError::Full(job)) => {
            sgf_metrics::scoped(&registered.scope)
                .counter("serve.rejected_queue_full")
                .incr();
            log_request(
                state,
                request_id,
                "generate",
                &job.call.session,
                "queue_full",
            );
            // Dropping the job aborts its reservation (guard).
            let out = Arc::clone(&job.out);
            let retry_after = retry_hint_ms(state, registered);
            drop(job);
            write_line(
                &out,
                &protocol::reject_line(
                    reject::QUEUE_FULL,
                    "request queue is full, retry later",
                    &[("retry_after_ms", retry_after.into())],
                ),
            );
        }
        Err(PushError::Closed(job)) => {
            log_request(
                state,
                request_id,
                "generate",
                &job.call.session,
                "shutting_down",
            );
            let out = Arc::clone(&job.out);
            drop(job);
            write_line(
                &out,
                &protocol::reject_line(reject::SHUTTING_DOWN, "server is draining", &[]),
            );
        }
    }
}

fn worker_loop(state: &Arc<ServerState>) {
    // Resolved by the worker's first job, then kept.
    let mut job_timer = None;
    while let Some(job) = state.queue.pop() {
        state.busy_workers.fetch_add(1, Ordering::SeqCst);
        // The injected delay is part of the simulated service time, so the
        // clock starts before it: the p95 retry hint must reflect what a
        // client actually waits for.
        let started = Instant::now();
        if let Some(delay) = state.service_delay {
            std::thread::sleep(delay);
        }
        let session_name = job.call.session.clone();
        let request_id = job.request_id;
        let streaming = job.call.stream;
        job_timer
            .get_or_insert_with(|| sgf_metrics::timer("serve.job"))
            .time(|| serve_job(job));
        observe_service_time(
            state,
            &session_name,
            request_id,
            streaming,
            started.elapsed(),
        );
        state.busy_workers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Post-job observability: feed the session's observed service time into its
/// scoped `serve.generate_ms` summary (the source of the p95 retry hint),
/// commit a `serve.job` span to the trace ring, and log the completion.
/// Strictly after the job ran — none of this can perturb the release path.
fn observe_service_time(
    state: &ServerState,
    session_name: &str,
    request_id: u64,
    streaming: bool,
    elapsed: Duration,
) {
    // Admission looked the session up, so a job's session is registered.
    if let Some(registered) = state.sessions.get(session_name) {
        let millis = u64::try_from(elapsed.as_millis()).unwrap_or(u64::MAX);
        registered.metrics().generate_ms.observe(millis);
        let trace = sgf_metrics::trace();
        if trace.enabled() {
            let mut batch = TraceBatch::new();
            let root = batch.span("serve.job", SpanId::NONE);
            batch.scope_labels(root, &registered.scope);
            batch.label(root, "mode", if streaming { "stream" } else { "batch" });
            batch.counter(root, "request_id", request_id);
            batch.wall(root, elapsed);
            trace.commit(batch);
        }
    }
    log_request(state, request_id, "generate", session_name, "done");
}

fn serve_job(job: Job) {
    let Job {
        session,
        call,
        reservation,
        out,
        ..
    } = job;
    // The worker takes over the reservation: from here, the session's release
    // (or the marginal-stream rejection) settles it exactly once.
    let reserved = reservation.map(ReservationGuard::take);
    if call.stream {
        serve_stream(&session, call, reserved, &out);
    } else {
        serve_batch(&session, &call, reserved, &out);
    }
}

/// Buffer bytes a batch response needs beyond its record lines: the header
/// (stats, ledger and provenance blocks) plus the trailer.
const BATCH_FRAME_BYTES: usize = 1280;

fn serve_batch(
    session: &SynthesisSession,
    call: &GenerateCall,
    reserved: Option<usize>,
    out: &Mutex<TcpStream>,
) {
    let result: sgf_core::Result<ReleaseReport> = match (call.model, reserved) {
        (ModelKind::Seed, None) => session.generate(&call.request),
        (ModelKind::Seed, Some(r)) => session.generate_reserved(r, &call.request),
        (ModelKind::Marginal, None) => {
            session.generate_with(&session.models().marginal, &call.request)
        }
        (ModelKind::Marginal, Some(r)) => {
            session.generate_reserved_with(&session.models().marginal, r, &call.request)
        }
    };
    match result {
        Err(err) => write_line(
            out,
            &protocol::reject_line(reject::GENERATE_FAILED, &err.to_string(), &[]),
        ),
        Ok(report) => {
            // Header, records and trailer go into one buffer sized for all
            // three, and out in one write.
            let records = report.synthetics.records();
            let record_bytes = records
                .first()
                .map_or(0, |record| 16 + 6 * record.values().len());
            let mut text = String::with_capacity(BATCH_FRAME_BYTES + records.len() * record_bytes);
            protocol::push_batch_header(&mut text, &report);
            text.push('\n');
            for record in records {
                protocol::push_record_line(&mut text, record);
                text.push('\n');
            }
            protocol::push_batch_end(&mut text, report.stats.released);
            text.push('\n');
            write_response(out, &text);
        }
    }
}

fn serve_stream(
    session: &SynthesisSession,
    call: GenerateCall,
    reserved: Option<usize>,
    out: &Mutex<TcpStream>,
) {
    if call.model == ModelKind::Marginal {
        // Streaming releases through the seed synthesizer only; keep the
        // protocol surface honest about it.
        if let Some(r) = reserved {
            session.abort_reservation(r);
        }
        write_line(
            out,
            &protocol::reject_line(
                reject::BAD_REQUEST,
                "streaming supports the seed model only",
                &[],
            ),
        );
        return;
    }
    // Hold the connection for the whole stream so no other response can
    // interleave with the record lines.  The header goes out with the first
    // record (or the trailer), so a request the session rejects before any
    // release gets a bare rejection line.  Each record leaves as soon as it
    // passes, in one write of one reused buffer.
    let mut stream = locked(out);
    let mut lines = String::new();
    let mut sent = 0usize;
    let result = session.release_stream(&call.request, reserved, |record| {
        lines.clear();
        if sent == 0 {
            lines.push_str(&protocol::stream_header_line());
            lines.push('\n');
        }
        sent += 1;
        protocol::push_record_line(&mut lines, &record);
        lines.push('\n');
        // The client hung up: stop proposing — and charging the ledger for
        // — records nobody will receive.
        stream.write_all(lines.as_bytes()).is_ok()
    });
    lines.clear();
    match result {
        Ok(report) => {
            if sent == 0 {
                lines.push_str(&protocol::stream_header_line());
                lines.push('\n');
            }
            let mut provenance = String::with_capacity(512);
            report.write_provenance_json(&mut provenance);
            lines.push_str(&protocol::stream_end_line(
                report.stats.released,
                &report.stats.to_json(),
                &report.ledger.to_json(),
                &provenance,
            ));
            lines.push('\n');
        }
        Err(err) => {
            lines.push_str(&protocol::reject_line(
                reject::GENERATE_FAILED,
                &err.to_string(),
                &[],
            ));
            lines.push('\n');
            // A mid-stream failure still ends with a trailer, which the
            // client drains before it reports the rejection.
            if sent > 0 {
                let ledger = session.ledger().to_json();
                lines.push_str(&protocol::stream_end_line(sent, "null", &ledger, "null"));
                lines.push('\n');
            }
        }
    }
    let _ = stream.write_all(lines.as_bytes());
    let _ = stream.flush();
}
