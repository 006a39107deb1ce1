//! The threaded release server: accept loop, bounded admission, worker pool,
//! and graceful drain.
//!
//! ## Request lifecycle
//!
//! 1. A connection reader thread parses one JSON line into a
//!    [`Request`] and assigns it a request id (the key tying its log lines
//!    and trace span together).  `status` / `ledger` / `metrics` / `trace` /
//!    `shutdown` are answered inline; `generate` and `update` first pass the
//!    one **admission gate**: a draining server refuses with
//!    `shutting_down`, an unknown session name with `unknown_session`.  A
//!    `generate` then goes on through admission:
//!    * a stream must run the seed model, or it is refused with
//!      `bad_request`;
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
//!    nothing to gain from serving several at once.  The job carries its
//!    registered session slot, so the worker's bookkeeping never looks the
//!    session up by name.
//! 3. `shutdown` (or [`ServerHandle::shutdown`]) starts the drain: admission
//!    closes, queued jobs still complete, workers then exit, and
//!    [`ServerHandle::join`] returns once every thread is down.
//!
//! ## Refusals
//!
//! Every verb handler returns its answer or a `Refusal` (reject code,
//! message, extra fields), and one function, `conclude`, logs the outcome
//! and writes the line: a refusal is written and logged exactly once, under
//! its reject code.  The one refusal written elsewhere is a worker's
//! `generate_failed`: its request was already logged `admitted`, the worker
//! logs `done`, and a stream must write the refusal inside the connection
//! lock it holds for the whole stream.

use crate::protocol::{
    self, reject, GenerateCall, ModelKind, Request, UpdateCall, DEFAULT_SESSION,
};
use crate::queue::{BoundedQueue, PushError};
use sgf_core::{CoreError, GenerateRequest, ReleaseReport, SynthesisSession};
use sgf_data::{DatasetDelta, Schema};
use sgf_metrics::json::write_object;
use sgf_metrics::{Json, Scope, ScopedCounter, ScopedSummary, SpanId, Trace, TraceBatch};
use sgf_stats::DpBudget;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, StderrLock, Write};
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
    /// Emit structured JSON log lines to stderr, keyed by request id: one
    /// per request with its outcome (`ok`, `admitted`, `draining` or the
    /// reject code), plus a `done` line, always after its `admitted` line,
    /// when a worker finishes an admitted `generate`.
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
    /// The name requests address the session by.
    name: String,
    session: Mutex<SynthesisSession>,
    cap: Option<DpBudget>,
    /// The session's metric scope: every metric its requests emit lands in
    /// this labeled cell (plus the global rollup), and the `metrics` cell
    /// lookup and the `trace` filter read through it.
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

/// One admitted generate request waiting for a worker.
struct Job {
    /// The slot the request was admitted to: the worker records the service
    /// time, the `serve.job` span and the `done` log line against it.
    slot: Arc<Registered>,
    /// The epoch admission cloned (see [`admit_generate`]).
    session: SynthesisSession,
    request: GenerateRequest,
    model: ModelKind,
    stream: bool,
    /// Records reserved against the session's cap and not yet settled: `None`
    /// when uncapped, and once a worker took the reservation over.
    reserved: Option<usize>,
    out: Arc<Mutex<TcpStream>>,
    /// Server-assigned id tying the job's log lines and trace span together.
    request_id: u64,
}

impl Drop for Job {
    /// Abort a reservation no worker took over, so a job dropped on the
    /// floor — queue overflow, forced teardown — can never leak reserved
    /// budget.
    fn drop(&mut self) {
        if let Some(records) = self.reserved.take() {
            self.session.abort_reservation(records);
        }
    }
}

struct ServerState {
    sessions: HashMap<String, Arc<Registered>>,
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
        let scope = Scope::new().label("session", &entry.name);
        let scoped = entry.session.with_scope(scope.clone());
        let slot = Registered {
            name: entry.name.clone(),
            session: Mutex::new(scoped),
            cap: entry.cap,
            scope,
            metrics: OnceLock::new(),
        };
        map.insert(entry.name, Arc::new(slot));
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

/// The line-buffer capacity a connection keeps between requests: 64 KiB.
/// A longer line (a large `update`) grows the buffer only until the next
/// read, so an idle connection holds at most this much, not its longest
/// line.
const KEPT_LINE_CAPACITY: usize = 64 << 10;

/// Read the next request line, newline included, into `buffer`: at most
/// [`MAX_LINE`] bytes, and `Ok(0)` at EOF.  The buffer is cleared first, and
/// shrunk back to [`KEPT_LINE_CAPACITY`] if a longer line grew it.
fn read_request_line(reader: &mut impl BufRead, buffer: &mut Vec<u8>) -> std::io::Result<usize> {
    buffer.clear();
    buffer.shrink_to(KEPT_LINE_CAPACITY);
    reader.take(MAX_LINE as u64).read_until(b'\n', buffer)
}

fn connection_loop(stream: TcpStream, state: &Arc<ServerState>) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let out = Arc::new(Mutex::new(stream));
    let mut reader = BufReader::new(read_half);
    let mut buffer = Vec::new();
    while let Ok(1..) = read_request_line(&mut reader, &mut buffer) {
        if buffer.len() == MAX_LINE && !buffer.ends_with(b"\n") {
            let oversized = format!("request line exceeds the {MAX_LINE}-byte limit");
            handle_line(Err(oversized), &out, state);
            break;
        }
        let line = buffer.strip_suffix(b"\n").unwrap_or(&buffer);
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        match std::str::from_utf8(line) {
            Ok(line) if line.trim().is_empty() => {}
            Ok(line) => handle_line(Ok(line), &out, state),
            Err(_) => handle_line(Err("request line is not valid UTF-8".into()), &out, state),
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

/// A request the server takes: the outcome its log line records and the
/// line to write now (`None` for an admitted `generate`, which a worker
/// answers).
struct Answer {
    outcome: &'static str,
    line: Option<String>,
    /// For an admitted `generate` with request logs on: stderr, locked since
    /// before the job reached the queue, so the worker's `done` line cannot
    /// precede this request's `admitted` line.  Released once it is logged.
    log_hold: Option<StderrLock<'static>>,
}

impl Answer {
    /// An inline verb's `"ok":true` line.
    fn ok(line: String) -> Self {
        Answer {
            outcome: "ok",
            line: Some(line),
            log_hold: None,
        }
    }
}

/// A request the server declines: its reject code, which is also the
/// request's logged outcome, the human-readable message, and the code's
/// extra fields.
struct Refusal {
    code: &'static str,
    message: String,
    extras: Vec<(&'static str, Json)>,
}

impl Refusal {
    fn new(code: &'static str, message: impl Into<String>) -> Self {
        Refusal {
            code,
            message: message.into(),
            extras: Vec::new(),
        }
    }

    /// Attach one extra field to the reject line.
    fn with(mut self, key: &'static str, value: Json) -> Self {
        self.extras.push((key, value));
        self
    }

    fn draining() -> Self {
        Refusal::new(reject::SHUTTING_DOWN, "server is draining")
    }

    fn unknown_session(name: &str) -> Self {
        let message = format!("no session named `{name}` is registered");
        Refusal::new(reject::UNKNOWN_SESSION, message).with("session", name.into())
    }
}

/// The one place a request's answer or refusal is logged and written.
fn conclude(
    state: &ServerState,
    request_id: u64,
    verb: &str,
    session: &str,
    answer: Result<Answer, Refusal>,
    out: &Mutex<TcpStream>,
) {
    let (outcome, line, log_hold) = match answer {
        Ok(answer) => (answer.outcome, answer.line, answer.log_hold),
        Err(refusal) => {
            let line = protocol::reject_line(refusal.code, &refusal.message, &refusal.extras);
            (refusal.code, Some(line), None)
        }
    };
    // The stderr lock is reentrant: a held one does not block this thread.
    log_request(state, request_id, verb, session, outcome);
    drop(log_hold);
    if let Some(line) = line {
        write_line(out, &line);
    }
}

/// Answer one request line, or — when `line` is `Err` — the reason the
/// connection could not read one, with `bad_request`.
fn handle_line(line: Result<&str, String>, out: &Arc<Mutex<TcpStream>>, state: &ServerState) {
    let request_id = state.next_request_id.fetch_add(1, Ordering::Relaxed);
    let request = match line.and_then(protocol::parse_request) {
        Ok(request) => request,
        Err(message) => {
            let refusal = Refusal::new(reject::BAD_REQUEST, message);
            return conclude(state, request_id, "?", "", Err(refusal), out);
        }
    };
    // An `update`'s retired epoch is dropped after the answer is written, so
    // freeing whatever it alone holds does not delay the client.
    let mut retired = None;
    let mut start_drain = false;
    let (verb, session, answer) = match &request {
        Request::Status => ("status", "", Ok(Answer::ok(status_line(state)))),
        Request::Ledger { session } => {
            let answer = registered(state, session).map(|slot| Answer::ok(ledger_line(slot)));
            ("ledger", session.as_str(), answer)
        }
        Request::Metrics { session, noisy } => {
            let answer = metrics_line(state, session.as_deref(), *noisy).map(Answer::ok);
            ("metrics", session.as_deref().unwrap_or(""), answer)
        }
        Request::Trace { session, noisy } => {
            let answer = trace_line(state, session.as_deref(), *noisy).map(Answer::ok);
            ("trace", session.as_deref().unwrap_or(""), answer)
        }
        Request::Shutdown => {
            // Admission closes before the ack (a client that read the ack is
            // guaranteed `shutting_down` on any later request), but the drain
            // machinery — whose teardown eventually closes this connection —
            // starts only after the ack is on the wire, so the ack cannot be
            // lost to the teardown racing this write.
            start_drain = !state.draining.swap(true, Ordering::SeqCst);
            let ack = Answer {
                outcome: "draining",
                line: Some(ok_line("shutdown", [("draining", true.into())])),
                log_hold: None,
            };
            ("shutdown", "", Ok(ack))
        }
        Request::Generate(call) => {
            let answer = admit_generate(call, request_id, out, state);
            ("generate", call.session.as_str(), answer)
        }
        Request::Update(call) => {
            let answer = update(call, state).map(|(answer, epoch)| {
                retired = Some(epoch);
                answer
            });
            ("update", call.session.as_str(), answer)
        }
    };
    conclude(state, request_id, verb, session, answer, out);
    if start_drain {
        state.finish_drain();
    }
}

/// The registered slot named `name`, or the `unknown_session` refusal.
fn registered<'s>(state: &'s ServerState, name: &str) -> Result<&'s Arc<Registered>, Refusal> {
    state
        .sessions
        .get(name)
        .ok_or_else(|| Refusal::unknown_session(name))
}

/// The admission gate `generate` and `update` share: a draining server
/// refuses with `shutting_down`, then an unknown name with
/// `unknown_session`.
fn admit<'s>(state: &'s ServerState, name: &str) -> Result<&'s Arc<Registered>, Refusal> {
    if state.draining.load(Ordering::SeqCst) {
        return Err(Refusal::draining());
    }
    registered(state, name)
}

/// The `update` verb: fold a ±record delta into a registered session,
/// advancing it to its next epoch.  The swap holds the session slot's lock
/// for the whole update, so concurrent updates serialize and every generate
/// request is served by exactly one epoch (the one whose handle it cloned at
/// admission; in-flight requests finish against their admitted epoch).
/// Returns the answer and the retired epoch.
fn update(call: &UpdateCall, state: &ServerState) -> Result<(Answer, SynthesisSession), Refusal> {
    let slot = admit(state, &call.session)?;
    // Hold the slot for the whole update: admissions for this session wait
    // (microseconds — the update copies only what the delta touches), and
    // the epoch swap is atomic with respect to them.
    let mut current = locked(&slot.session);
    // The delta validates against the session's schema; a record of the
    // wrong arity or with out-of-domain values is a bad request, not a
    // failed update.
    let delta = delta_of(current.seeds().schema_arc(), call)
        .map_err(|err| Refusal::new(reject::BAD_REQUEST, err.to_string()))?;
    match current.update(&delta) {
        Ok(next) => {
            let epoch = next.epoch();
            let seeds = next.seeds().len();
            let retired = std::mem::replace(&mut *current, next);
            drop(current);
            sgf_metrics::scoped(&slot.scope)
                .counter("serve.updates")
                .incr();
            let fields = [
                ("session", call.session.as_str().into()),
                ("epoch", epoch.into()),
                ("seeds", seeds.into()),
                ("inserts", call.inserts.len().into()),
                ("deletes", call.deletes.len().into()),
            ];
            Ok((Answer::ok(ok_line("update", fields)), retired))
        }
        Err(err) => {
            drop(current);
            sgf_metrics::scoped(&slot.scope)
                .counter("serve.update_failed")
                .incr();
            Err(Refusal::new(reject::UPDATE_FAILED, err.to_string()))
        }
    }
}

/// The delta an `update` call names, validated against `schema`.
fn delta_of(schema: Arc<Schema>, call: &UpdateCall) -> sgf_data::Result<DatasetDelta> {
    let mut delta = DatasetDelta::new(schema);
    for record in &call.deletes {
        delta.delete(record.clone())?;
    }
    for record in &call.inserts {
        delta.insert(record.clone())?;
    }
    Ok(delta)
}

/// Answer the `metrics` verb: the labeled snapshot of the process registry —
/// counter-only (deterministic) unless `noisy` — either whole (global rollup
/// plus every scope cell) or restricted to one registered session's cell.
fn metrics_line(
    state: &ServerState,
    session: Option<&str>,
    noisy: bool,
) -> Result<String, Refusal> {
    let snapshot = sgf_metrics::global().snapshot();
    let snapshot = if noisy {
        snapshot
    } else {
        snapshot.counters_only()
    };
    let (filter, metrics) = match session {
        None => (None, snapshot.as_json()),
        Some(name) => {
            let slot = registered(state, name)?;
            // A registered session that has served nothing yet has no cell;
            // answer with an empty snapshot rather than a rejection.
            let cell = snapshot
                .scopes
                .get(&slot.scope.render())
                .cloned()
                .unwrap_or_default();
            (Some(("session", name.into())), cell.as_json())
        }
    };
    let fields = [("noisy", noisy.into()), ("metrics", metrics)];
    Ok(ok_line("metrics", fields.into_iter().chain(filter)))
}

/// Answer the `trace` verb: recent span trees from the deterministic trace
/// ring — all of them, or only the trees rooted at spans labeled with the
/// requested session.  Wall clocks are omitted unless `noisy`.
fn trace_line(state: &ServerState, session: Option<&str>, noisy: bool) -> Result<String, Refusal> {
    let trace = sgf_metrics::trace();
    let (filter, events) = match session {
        None => (None, trace.events()),
        Some(name) => {
            let slot = registered(state, name)?;
            // Trace labels carry the scope-sanitized session name.
            let value = slot.scope.get("session").unwrap_or(name);
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
    Ok(ok_line("trace", fields.into_iter().chain(filter)))
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

fn ledger_line(slot: &Registered) -> String {
    let ledger = slot.session().ledger();
    let mut line = String::with_capacity(448);
    write_object(&mut line, |object| {
        object
            .opt_float("cap_delta", slot.cap.map(|cap| cap.delta))
            .opt_float("cap_epsilon", slot.cap.map(|cap| cap.epsilon))
            .with("ledger", |out| ledger.write_json(out))
            .boolean("ok", true)
            .string("session", &slot.name)
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

/// Admission control for one generate request past the shared gate: the
/// seed-only check for streams, an atomic budget reservation, then the
/// bounded-queue push.  A reservation never outlives a refused admission.
fn admit_generate(
    call: &GenerateCall,
    request_id: u64,
    out: &Arc<Mutex<TcpStream>>,
    state: &ServerState,
) -> Result<Answer, Refusal> {
    let slot = admit(state, &call.session)?;
    if call.stream && call.model == ModelKind::Marginal {
        // Streaming releases through the seed synthesizer only; keep the
        // protocol surface honest about it.
        let message = "streaming supports the seed model only";
        return Err(Refusal::new(reject::BAD_REQUEST, message));
    }
    // Clone the current epoch's handle once: the reservation, the queued job,
    // and the eventual generate all run against this epoch even if an
    // `update` swaps the slot while the job is queued (the shared ledger
    // keeps budget accounting exact across epochs).
    let session = slot.session();
    let target = call.request.target;
    let reserved = match slot.cap {
        None => None,
        Some(cap) => match session.try_reserve(target, cap) {
            Ok(()) => Some(target),
            Err(CoreError::BudgetCapExceeded { requested, cap }) => {
                sgf_metrics::scoped(&slot.scope)
                    .counter("serve.rejected_budget")
                    .incr();
                let message = "admitting the request would exceed the session budget cap";
                return Err(Refusal::new(reject::BUDGET_EXHAUSTED, message)
                    .with("requested_epsilon", requested.epsilon.into())
                    .with("requested_delta", requested.delta.into())
                    .with("cap_epsilon", cap.epsilon.into())
                    .with("cap_delta", cap.delta.into()));
            }
            Err(err) => return Err(Refusal::new(reject::BAD_REQUEST, err.to_string())),
        },
    };
    let job = Job {
        slot: Arc::clone(slot),
        session,
        request: call.request,
        model: call.model,
        stream: call.stream,
        reserved,
        out: Arc::clone(out),
        request_id,
    };
    // Once pushed, a worker may finish the job at once; with request logs
    // on, stderr stays locked until `conclude` has logged `admitted`.
    let log_hold = state.log_requests.then(|| std::io::stderr().lock());
    match state.queue.try_push(job) {
        Ok(()) => {
            slot.metrics().admitted.incr();
            Ok(Answer {
                outcome: "admitted",
                line: None,
                log_hold,
            })
        }
        Err(PushError::Full(job)) => {
            sgf_metrics::scoped(&slot.scope)
                .counter("serve.rejected_queue_full")
                .incr();
            // Dropping the job aborts its reservation before the client reads
            // the refusal.
            drop(job);
            let retry_after = retry_hint_ms(state, slot);
            Err(
                Refusal::new(reject::QUEUE_FULL, "request queue is full, retry later")
                    .with("retry_after_ms", retry_after.into()),
            )
        }
        Err(PushError::Closed(job)) => {
            drop(job);
            Err(Refusal::draining())
        }
    }
}

fn worker_loop(state: &Arc<ServerState>) {
    // Resolved by the worker's first job, then kept.
    let mut job_timer = None;
    while let Some(mut job) = state.queue.pop() {
        state.busy_workers.fetch_add(1, Ordering::SeqCst);
        // The injected delay is part of the simulated service time, so the
        // clock starts before it: the p95 retry hint must reflect what a
        // client actually waits for.
        let started = Instant::now();
        if let Some(delay) = state.service_delay {
            std::thread::sleep(delay);
        }
        job_timer
            .get_or_insert_with(|| sgf_metrics::timer("serve.job"))
            .time(|| serve_job(&mut job));
        observe_service_time(state, &job, started.elapsed());
        state.busy_workers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Post-job observability: feed the session's observed service time into its
/// scoped `serve.generate_ms` summary (the source of the p95 retry hint),
/// commit a `serve.job` span to the trace ring, and log the completion.
/// Strictly after the job ran — none of this can perturb the release path.
fn observe_service_time(state: &ServerState, job: &Job, elapsed: Duration) {
    let slot = &job.slot;
    let millis = u64::try_from(elapsed.as_millis()).unwrap_or(u64::MAX);
    slot.metrics().generate_ms.observe(millis);
    let trace = sgf_metrics::trace();
    if trace.enabled() {
        let mut batch = TraceBatch::new();
        let root = batch.span("serve.job", SpanId::NONE);
        batch.scope_labels(root, &slot.scope);
        batch.label(root, "mode", if job.stream { "stream" } else { "batch" });
        batch.counter(root, "request_id", job.request_id);
        batch.wall(root, elapsed);
        trace.commit(batch);
    }
    log_request(state, job.request_id, "generate", &slot.name, "done");
}

fn serve_job(job: &mut Job) {
    // The worker takes over the reservation: from here, the session's release
    // settles it exactly once.
    let reserved = job.reserved.take();
    if job.stream {
        serve_stream(&job.session, &job.request, reserved, &job.out);
    } else {
        serve_batch(&job.session, &job.request, job.model, reserved, &job.out);
    }
}

/// Buffer bytes a batch response needs beyond its record lines: the header
/// (stats, ledger and provenance blocks) plus the trailer.
const BATCH_FRAME_BYTES: usize = 1280;

fn serve_batch(
    session: &SynthesisSession,
    request: &GenerateRequest,
    model: ModelKind,
    reserved: Option<usize>,
    out: &Mutex<TcpStream>,
) {
    let result: sgf_core::Result<ReleaseReport> = match (model, reserved) {
        (ModelKind::Seed, None) => session.generate(request),
        (ModelKind::Seed, Some(r)) => session.generate_reserved(r, request),
        (ModelKind::Marginal, None) => session.generate_with(&session.models().marginal, request),
        (ModelKind::Marginal, Some(r)) => {
            session.generate_reserved_with(&session.models().marginal, r, request)
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

/// Stream a seed-model release (admission refused a marginal stream).
fn serve_stream(
    session: &SynthesisSession,
    request: &GenerateRequest,
    reserved: Option<usize>,
    out: &Mutex<TcpStream>,
) {
    // Hold the connection for the whole stream so no other response can
    // interleave with the record lines.  The header goes out with the first
    // record (or the trailer), so a request the session rejects before any
    // release gets a bare rejection line.  Each record leaves as soon as it
    // passes, in one write of one reused buffer.
    let mut stream = locked(out);
    let mut lines = String::new();
    let mut sent = 0usize;
    let result = session.release_stream(request, reserved, |record| {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_long_line_leaves_no_long_buffer_behind() {
        let long = vec![b'x'; 4 * KEPT_LINE_CAPACITY];
        let input = [&long[..], b"\nshort\n"].concat();
        let mut reader = &input[..];
        let mut buffer = Vec::new();
        let read = read_request_line(&mut reader, &mut buffer).unwrap();
        assert_eq!(read, long.len() + 1);
        assert!(buffer.capacity() > KEPT_LINE_CAPACITY);
        assert_eq!(read_request_line(&mut reader, &mut buffer).unwrap(), 6);
        assert_eq!(buffer, b"short\n");
        assert!(buffer.capacity() <= KEPT_LINE_CAPACITY);
        assert_eq!(read_request_line(&mut reader, &mut buffer).unwrap(), 0);
    }

    #[test]
    fn short_lines_keep_their_buffer() {
        let mut reader = &b"first line\nsecond one\n"[..];
        let mut buffer = Vec::with_capacity(KEPT_LINE_CAPACITY);
        let capacity = buffer.capacity();
        assert_eq!(read_request_line(&mut reader, &mut buffer).unwrap(), 11);
        assert_eq!(buffer.capacity(), capacity);
        assert_eq!(read_request_line(&mut reader, &mut buffer).unwrap(), 11);
        assert_eq!(buffer, b"second one\n");
        assert_eq!(buffer.capacity(), capacity);
    }
}
