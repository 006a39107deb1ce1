//! The JSON-lines wire protocol: one JSON object per `\n`-terminated line.
//!
//! ## Requests
//!
//! | verb | fields |
//! |---|---|
//! | `generate` | `session` (default `"default"`), `target` (required), `seed`, `workers`, `max_candidate_factor`, `omega` (number or `{"lo","hi"}`), `stream` (bool), `model` (`"seed"`/`"marginal"`) |
//! | `update` | `session` (default `"default"`), `inserts` (array of records), `deletes` (array of records) — records are arrays of attribute value indices |
//! | `status` | — |
//! | `ledger` | `session` |
//! | `metrics` | `session` (optional: restrict to one session's cell), `noisy` (bool: include timers/summaries) |
//! | `trace` | `session` (optional: restrict to one session's spans), `noisy` (bool: include wall clocks) |
//! | `shutdown` | — |
//!
//! ## Responses
//!
//! Every response line carries `"ok"`.  A rejected request is a single line
//! with `"ok":false` and a machine-readable `"error"` code from [`reject`]
//! (plus code-specific fields such as `retry_after_ms` or the requested/cap
//! budgets).  A successful `generate` is a header line, one `{"record":[..]}`
//! line per released record, and an `{"end":true,...}` trailer; batch
//! responses carry stats/ledger/provenance in the header, streaming responses
//! in the trailer (the counts are only known once the stream finishes).
//!
//! Every line is canonical JSON: keys sorted, integral floats with a `.0`,
//! non-finite floats as `null`, so parsing a response line and rendering it
//! again reproduces its bytes.  The `generate` lines are written straight
//! into the response buffer through [`sgf_metrics::json::write_object`] and
//! the report's own block encoders ([`push_batch_header`],
//! [`push_record_line`], [`push_batch_end`]), with no [`Json`] tree in
//! between; the other lines are built as [`Json`] values and rendered once.
//! Both paths write the same canonical bytes.
//!
//! `metrics` and `trace` answer with one line of canonical JSON.  Both are
//! deterministic by default: `metrics` returns the counter-only labeled
//! snapshot (per-scope cells always sum exactly to the global rollup) and
//! `trace` returns span trees without wall clocks, so two identically-seeded
//! server runs answer byte-identically.  `noisy:true` opts into the
//! wall-clock-bearing variants.

use sgf_core::{GenerateRequest, ReleaseReport};
use sgf_data::Record;
use sgf_metrics::json::write_object;
use sgf_metrics::Json;
use sgf_model::OmegaSpec;
use std::fmt::Write;

/// Session name used when a `generate`/`ledger` request does not name one.
pub const DEFAULT_SESSION: &str = "default";

/// Machine-readable rejection codes (`"error"` field of `"ok":false` lines).
pub mod reject {
    /// The bounded request queue is full; retry after `retry_after_ms`.
    pub const QUEUE_FULL: &str = "queue_full";
    /// Admission would push the session ledger past its (ε, δ) cap.
    pub const BUDGET_EXHAUSTED: &str = "budget_exhausted";
    /// No session with the requested name is registered.
    pub const UNKNOWN_SESSION: &str = "unknown_session";
    /// The request line failed to parse or validate.
    pub const BAD_REQUEST: &str = "bad_request";
    /// The server is draining and admits no new generate requests.
    pub const SHUTTING_DOWN: &str = "shutting_down";
    /// The admitted request failed while generating.
    pub const GENERATE_FAILED: &str = "generate_failed";
    /// The admitted `update` delta failed to apply (e.g. deleting a record
    /// the dataset does not hold, or draining the seed subset below `k`).
    pub const UPDATE_FAILED: &str = "update_failed";
}

/// Which generative model a `generate` request runs through the mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ModelKind {
    /// The session's seed-based synthesizer (the paper's Mechanism 1 default).
    #[default]
    Seed,
    /// The session's marginal baseline (seed-independent; every candidate
    /// passes the privacy test, Section 8).
    Marginal,
}

/// A parsed `generate` request: the target session plus the core
/// [`GenerateRequest`] and serve-level options.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerateCall {
    /// Which registered session serves the request.
    pub session: String,
    /// The core request (target, seed, per-request overrides).
    pub request: GenerateRequest,
    /// Stream each record the moment it passes (through the session's
    /// `release_stream`) instead of generating the whole batch first.
    pub stream: bool,
    /// Which generative model to run.
    pub model: ModelKind,
}

impl GenerateCall {
    /// A batch seed-model call against the default session.
    pub fn new(target: usize) -> Self {
        GenerateCall {
            session: DEFAULT_SESSION.to_string(),
            request: GenerateRequest::new(target),
            stream: false,
            model: ModelKind::Seed,
        }
    }

    /// Target a named session.
    pub fn with_session(mut self, session: &str) -> Self {
        self.session = session.to_string();
        self
    }

    /// Replace the core request.
    pub fn with_request(mut self, request: GenerateRequest) -> Self {
        self.request = request;
        self
    }

    /// Stream records as they are released.
    pub fn with_stream(mut self, stream: bool) -> Self {
        self.stream = stream;
        self
    }

    /// Pick the generative model.
    pub fn with_model(mut self, model: ModelKind) -> Self {
        self.model = model;
        self
    }

    /// Encode the call as one protocol line (no trailing newline).
    pub fn encode(&self) -> String {
        let request = &self.request;
        let omega = request.omega.map(|omega| match omega {
            OmegaSpec::Fixed(w) => Json::from(w),
            OmegaSpec::UniformRange { lo, hi } => Json::obj([("lo", lo.into()), ("hi", hi.into())]),
        });
        present([
            ("verb", Some("generate".into())),
            ("session", Some(self.session.as_str().into())),
            ("target", Some(request.target.into())),
            ("seed", Some(request.seed.into())),
            ("workers", request.workers.map(Json::from)),
            (
                "max_candidate_factor",
                request.max_candidate_factor.map(Json::from),
            ),
            ("omega", omega),
            ("stream", self.stream.then_some(Json::Bool(true))),
            (
                "model",
                (self.model == ModelKind::Marginal).then(|| "marginal".into()),
            ),
        ])
    }
}

/// A parsed `update` request: a ±record delta to fold into a session,
/// advancing it to its next epoch (see `SynthesisSession::update`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UpdateCall {
    /// Which registered session to advance.
    pub session: String,
    /// Records to append (attribute value indices, validated against the
    /// session schema server-side).
    pub inserts: Vec<Record>,
    /// Records to remove (matched by value against the current dataset).
    pub deletes: Vec<Record>,
}

impl UpdateCall {
    /// An empty delta against the default session.
    pub fn new() -> Self {
        UpdateCall {
            session: DEFAULT_SESSION.to_string(),
            inserts: Vec::new(),
            deletes: Vec::new(),
        }
    }

    /// Target a named session.
    pub fn with_session(mut self, session: &str) -> Self {
        self.session = session.to_string();
        self
    }

    /// Append a record.
    pub fn insert(mut self, record: Record) -> Self {
        self.inserts.push(record);
        self
    }

    /// Remove a record (by value).
    pub fn delete(mut self, record: Record) -> Self {
        self.deletes.push(record);
        self
    }

    /// Encode the call as one protocol line (no trailing newline).
    pub fn encode(&self) -> String {
        let values =
            |r: &Record| Json::Arr(r.values().iter().map(|&v| u64::from(v).into()).collect());
        let records = |records: &[Record]| {
            (!records.is_empty()).then(|| Json::Arr(records.iter().map(values).collect()))
        };
        present([
            ("verb", Some("update".into())),
            ("session", Some(self.session.as_str().into())),
            ("inserts", records(&self.inserts)),
            ("deletes", records(&self.deletes)),
        ])
    }
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Release synthetic records from a session.
    Generate(GenerateCall),
    /// Fold a ±record delta into a session (next session epoch).
    Update(UpdateCall),
    /// Report server state (queue depth, busy workers, sessions).
    Status,
    /// Report a session's cumulative budget ledger.
    Ledger {
        /// The session to report on.
        session: String,
    },
    /// Report the labeled metrics snapshot (the whole registry, or one
    /// session's cell).
    Metrics {
        /// Restrict the snapshot to this session's scope cell (`None`
        /// returns the global rollup with every per-session cell attached).
        session: Option<String>,
        /// Include timers and summaries (wall-clock observations).  The
        /// default counter-only snapshot is deterministic across
        /// identically-seeded runs.
        noisy: bool,
    },
    /// Report recent trace span trees from the deterministic trace ring.
    Trace {
        /// Restrict to span trees rooted at spans labeled with this session
        /// (`None` returns every buffered event).
        session: Option<String>,
        /// Include noisy wall-clock durations on the spans.
        noisy: bool,
    },
    /// Drain the queue and stop the server.
    Shutdown,
}

impl Request {
    /// Encode the request as one protocol line (no trailing newline).
    pub fn encode(&self) -> String {
        let (verb, session, noisy) = match self {
            Request::Generate(call) => return call.encode(),
            Request::Update(call) => return call.encode(),
            Request::Status => ("status", None, false),
            Request::Ledger { session } => ("ledger", Some(session), false),
            Request::Metrics { session, noisy } => ("metrics", session.as_ref(), *noisy),
            Request::Trace { session, noisy } => ("trace", session.as_ref(), *noisy),
            Request::Shutdown => ("shutdown", None, false),
        };
        present([
            ("verb", Some(verb.into())),
            ("session", session.map(|s| s.as_str().into())),
            ("noisy", noisy.then_some(Json::Bool(true))),
        ])
    }
}

/// Render the object of the fields that are present (`Some`).
fn present<'k>(fields: impl IntoIterator<Item = (&'k str, Option<Json>)>) -> String {
    Json::obj(
        fields
            .into_iter()
            .filter_map(|(key, value)| Some((key, value?))),
    )
    .render()
}

/// Parse one request line.  The error string is the human-readable half of a
/// [`reject::BAD_REQUEST`] response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let value = Json::parse(line).map_err(|e| e.to_string())?;
    let verb = value
        .get("verb")
        .and_then(Json::as_str)
        .ok_or("missing string field `verb`")?;
    match verb {
        "status" => Ok(Request::Status),
        "shutdown" => Ok(Request::Shutdown),
        "ledger" => Ok(Request::Ledger {
            session: session_name(&value)?,
        }),
        "metrics" => Ok(Request::Metrics {
            session: optional_session(&value)?,
            noisy: noisy_flag(&value)?,
        }),
        "trace" => Ok(Request::Trace {
            session: optional_session(&value)?,
            noisy: noisy_flag(&value)?,
        }),
        "generate" => parse_generate(&value).map(Request::Generate),
        "update" => parse_update(&value).map(Request::Update),
        other => Err(format!("unknown verb `{other}`")),
    }
}

fn session_name(value: &Json) -> Result<String, String> {
    match value.get("session") {
        None => Ok(DEFAULT_SESSION.to_string()),
        Some(v) => v
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| "field `session` must be a string".to_string()),
    }
}

/// `session` for the observability verbs: absent means "everything", so the
/// default-session fallback of [`session_name`] does not apply.
fn optional_session(value: &Json) -> Result<Option<String>, String> {
    match value.get("session") {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| "field `session` must be a string".to_string()),
    }
}

fn noisy_flag(value: &Json) -> Result<bool, String> {
    match value.get("noisy") {
        None => Ok(false),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| "field `noisy` must be a boolean".to_string()),
    }
}

fn parse_generate(value: &Json) -> Result<GenerateCall, String> {
    let target = value
        .get("target")
        .and_then(Json::as_usize)
        .ok_or("field `target` must be a non-negative integer")?;
    if target == 0 {
        return Err("field `target` must be at least 1".to_string());
    }
    let mut request = GenerateRequest::new(target);
    if let Some(seed) = value.get("seed") {
        request.seed = seed
            .as_u64()
            .ok_or("field `seed` must be a non-negative integer")?;
    }
    if let Some(workers) = value.get("workers") {
        request.workers = Some(
            workers
                .as_usize()
                .ok_or("field `workers` must be a non-negative integer")?,
        );
    }
    if let Some(factor) = value.get("max_candidate_factor") {
        request.max_candidate_factor = Some(
            factor
                .as_usize()
                .ok_or("field `max_candidate_factor` must be a non-negative integer")?,
        );
    }
    if let Some(omega) = value.get("omega") {
        request.omega = Some(parse_omega(omega)?);
    }
    let stream = match value.get("stream") {
        None => false,
        Some(v) => v.as_bool().ok_or("field `stream` must be a boolean")?,
    };
    let model = match value.get("model") {
        None => ModelKind::Seed,
        Some(v) => match v.as_str() {
            Some("seed") => ModelKind::Seed,
            Some("marginal") => ModelKind::Marginal,
            _ => return Err("field `model` must be \"seed\" or \"marginal\"".into()),
        },
    };
    Ok(GenerateCall {
        session: session_name(value)?,
        request,
        stream,
        model,
    })
}

fn parse_update(value: &Json) -> Result<UpdateCall, String> {
    let mut call = UpdateCall::new().with_session(&session_name(value)?);
    for (key, out) in [("inserts", 0usize), ("deletes", 1usize)] {
        let records = match value.get(key) {
            None => continue,
            Some(v) => v
                .as_array()
                .ok_or_else(|| format!("field `{key}` must be an array of records"))?,
        };
        for record in records {
            let values = record
                .as_array()
                .ok_or_else(|| format!("each `{key}` record must be an array of value indices"))?
                .iter()
                .map(|v| {
                    v.as_u64()
                        .filter(|&n| n <= u16::MAX as u64)
                        .map(|n| n as u16)
                })
                .collect::<Option<Vec<u16>>>()
                .ok_or_else(|| {
                    format!("each `{key}` record value must be an integer in [0, 65535]")
                })?;
            let record = Record::new(values);
            if out == 0 {
                call.inserts.push(record);
            } else {
                call.deletes.push(record);
            }
        }
    }
    Ok(call)
}

fn parse_omega(value: &Json) -> Result<OmegaSpec, String> {
    if let Some(w) = value.as_usize() {
        return Ok(OmegaSpec::Fixed(w));
    }
    let lo = value.get("lo").and_then(Json::as_usize);
    let hi = value.get("hi").and_then(Json::as_usize);
    match (lo, hi) {
        (Some(lo), Some(hi)) => Ok(OmegaSpec::UniformRange { lo, hi }),
        _ => Err("field `omega` must be an integer or {\"lo\":..,\"hi\":..}".to_string()),
    }
}

/// An `"ok":false` rejection line: machine-readable `code` plus a
/// human-readable `message` and optional extra fields.
pub fn reject_line(code: &str, message: &str, extras: &[(&str, Json)]) -> String {
    let fields = [
        ("ok", Json::Bool(false)),
        ("error", code.into()),
        ("message", message.into()),
    ];
    Json::obj(fields.into_iter().chain(extras.iter().cloned())).render()
}

/// Header line of a successful batch `generate` response, from pre-rendered
/// canonical blocks.  The served path writes the same bytes with
/// [`push_batch_header`].
pub fn batch_header_line(
    released: usize,
    stats_json: &str,
    request_epsilon: f64,
    ledger_json: &str,
    provenance_json: &str,
) -> String {
    let mut line =
        String::with_capacity(160 + stats_json.len() + ledger_json.len() + provenance_json.len());
    write_batch_header(
        &mut line,
        released,
        |out| out.push_str(stats_json),
        request_epsilon,
        |out| out.push_str(ledger_json),
        |out| out.push_str(provenance_json),
    );
    line
}

/// Append the header line of `report`'s batch response to `out` (no
/// newline), each block written by the report's own encoder.
pub fn push_batch_header(out: &mut String, report: &ReleaseReport) {
    write_batch_header(
        out,
        report.stats.released,
        |out| report.stats.write_json(out),
        report.request_budget().epsilon,
        |out| report.ledger.write_json(out),
        |out| report.write_provenance_json(out),
    );
}

/// The batch header encoder behind [`batch_header_line`] and
/// [`push_batch_header`]: each block is written by the closure given for it.
fn write_batch_header(
    out: &mut String,
    released: usize,
    stats: impl FnOnce(&mut String),
    request_epsilon: f64,
    ledger: impl FnOnce(&mut String),
    provenance: impl FnOnce(&mut String),
) {
    write_object(out, |object| {
        object
            .with("ledger", ledger)
            .boolean("ok", true)
            .with("provenance", provenance)
            .int("released", released)
            .float("request_epsilon", request_epsilon)
            .with("stats", stats)
            .boolean("streaming", false)
            .string("verb", "generate");
    });
}

/// Header line of a successful streaming `generate` response.
pub fn stream_header_line() -> String {
    let mut line = String::with_capacity(48);
    write_object(&mut line, |object| {
        object
            .boolean("ok", true)
            .boolean("streaming", true)
            .string("verb", "generate");
    });
    line
}

/// One released record.
pub fn record_line(record: &Record) -> String {
    let mut line = String::with_capacity(16 + 6 * record.values().len());
    push_record_line(&mut line, record);
    line
}

/// Append `record`'s line to `out` (no newline).  Each value is written
/// through [`std::fmt::Write`] on the integer: no allocation, no indexing.
pub fn push_record_line(out: &mut String, record: &Record) {
    out.push_str("{\"record\":[");
    for (i, value) in record.values().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{value}");
    }
    out.push_str("]}");
}

/// Trailer of a batch `generate` response.
pub fn batch_end_line(released: usize) -> String {
    let mut line = String::with_capacity(32);
    push_batch_end(&mut line, released);
    line
}

/// Append the trailer of a batch response to `out` (no newline).
pub fn push_batch_end(out: &mut String, released: usize) {
    write_object(out, |object| {
        object.boolean("end", true).int("released", released);
    });
}

/// Trailer of a streaming `generate` response (counts are only known here),
/// from pre-rendered canonical blocks (`null` for a block a failed stream
/// does not have).
pub fn stream_end_line(
    released: usize,
    stats_json: &str,
    ledger_json: &str,
    provenance_json: &str,
) -> String {
    let mut line =
        String::with_capacity(48 + stats_json.len() + ledger_json.len() + provenance_json.len());
    write_object(&mut line, |object| {
        object
            .boolean("end", true)
            .raw("ledger", ledger_json)
            .raw("provenance", provenance_json)
            .int("released", released)
            .raw("stats", stats_json);
    });
    line
}

/// Decode a `{"record":[..]}` line into attribute value indices.
pub fn parse_record_line(value: &Json) -> Option<Vec<u16>> {
    value
        .get("record")?
        .as_array()?
        .iter()
        .map(|v| {
            v.as_u64()
                .filter(|&n| n <= u16::MAX as u64)
                .map(|n| n as u16)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_calls_round_trip_through_encode_and_parse() {
        let calls = [
            GenerateCall::new(10),
            GenerateCall::new(3)
                .with_session("census")
                .with_stream(true)
                .with_model(ModelKind::Marginal)
                .with_request(
                    GenerateRequest::new(3)
                        .with_seed(99)
                        .with_workers(4)
                        .with_max_candidate_factor(7)
                        .with_omega(OmegaSpec::Fixed(9)),
                ),
            GenerateCall::new(5).with_request(
                GenerateRequest::new(5).with_omega(OmegaSpec::UniformRange { lo: 8, hi: 11 }),
            ),
        ];
        for call in calls {
            let parsed = parse_request(&call.encode()).unwrap();
            assert_eq!(parsed, Request::Generate(call));
        }
        for request in [
            Request::Status,
            Request::Shutdown,
            Request::Ledger {
                session: "a \"quoted\" name".to_string(),
            },
            Request::Metrics {
                session: None,
                noisy: false,
            },
            Request::Metrics {
                session: Some("census".to_string()),
                noisy: true,
            },
            Request::Trace {
                session: Some("a \"quoted\" name".to_string()),
                noisy: false,
            },
            Request::Trace {
                session: None,
                noisy: true,
            },
        ] {
            assert_eq!(parse_request(&request.encode()).unwrap(), request);
        }
    }

    #[test]
    fn update_calls_round_trip_through_encode_and_parse() {
        let calls = [
            UpdateCall::new(),
            UpdateCall::new()
                .with_session("census")
                .insert(Record::new(vec![1, 2, 3]))
                .insert(Record::new(vec![0, 0, 65535]))
                .delete(Record::new(vec![4, 5, 6])),
            UpdateCall::new().delete(Record::new(vec![9])),
        ];
        for call in calls {
            let parsed = parse_request(&call.encode()).unwrap();
            assert_eq!(parsed, Request::Update(call));
        }
        // Absent arrays default to an empty delta against the default session.
        let parsed = parse_request(r#"{"verb":"update"}"#).unwrap();
        assert_eq!(parsed, Request::Update(UpdateCall::new()));
    }

    #[test]
    fn malformed_update_requests_are_rejected_with_a_reason() {
        for (line, needle) in [
            (r#"{"verb":"update","session":7}"#, "session"),
            (r#"{"verb":"update","inserts":7}"#, "inserts"),
            (r#"{"verb":"update","deletes":[7]}"#, "deletes"),
            (r#"{"verb":"update","inserts":[[-1]]}"#, "integer"),
            (r#"{"verb":"update","inserts":[[70000]]}"#, "integer"),
            (r#"{"verb":"update","deletes":[["a"]]}"#, "integer"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err} (wanted {needle})");
        }
    }

    #[test]
    fn observability_verbs_leave_the_session_filter_optional() {
        // Unlike `ledger`, an absent `session` means "the whole registry",
        // not the default session.
        let parsed = parse_request(r#"{"verb":"metrics"}"#).unwrap();
        assert_eq!(
            parsed,
            Request::Metrics {
                session: None,
                noisy: false
            }
        );
        let parsed = parse_request(r#"{"verb":"trace","session":"acs","noisy":true}"#).unwrap();
        assert_eq!(
            parsed,
            Request::Trace {
                session: Some("acs".to_string()),
                noisy: true
            }
        );
        for (line, needle) in [
            (r#"{"verb":"metrics","session":7}"#, "session"),
            (r#"{"verb":"trace","noisy":"yes"}"#, "noisy"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err} (wanted {needle})");
        }
    }

    #[test]
    fn u64_seeds_round_trip_exactly() {
        // Seeds drive the byte-identical replay guarantee, so the wire must
        // not lose a single bit of them.
        for seed in [9_007_199_254_740_993u64, u64::MAX] {
            let call = GenerateCall::new(2).with_request(GenerateRequest::new(2).with_seed(seed));
            let Request::Generate(parsed) = parse_request(&call.encode()).unwrap() else {
                panic!("expected a generate request");
            };
            assert_eq!(parsed.request.seed, seed);
        }
    }

    #[test]
    fn generate_defaults_match_the_core_request() {
        let parsed = parse_request(r#"{"verb":"generate","target":4}"#).unwrap();
        let Request::Generate(call) = parsed else {
            panic!("expected a generate request");
        };
        assert_eq!(call.session, DEFAULT_SESSION);
        assert_eq!(call.request, GenerateRequest::new(4));
        assert!(!call.stream);
        assert_eq!(call.model, ModelKind::Seed);
    }

    #[test]
    fn malformed_requests_are_rejected_with_a_reason() {
        for (line, needle) in [
            ("not json", "invalid JSON"),
            (r#"{"verb":"\ud800"}"#, "invalid JSON"),
            ("{\"verb\":\"st\u{1}atus\"}", "invalid JSON"),
            (r#"{"target":4}"#, "verb"),
            (r#"{"verb":"launch"}"#, "unknown verb"),
            (r#"{"verb":"generate"}"#, "target"),
            (r#"{"verb":"generate","target":0}"#, "at least 1"),
            (r#"{"verb":"generate","target":4,"seed":-1}"#, "seed"),
            (r#"{"verb":"generate","target":4,"omega":"nine"}"#, "omega"),
            (r#"{"verb":"generate","target":4,"model":"gpt"}"#, "model"),
            (r#"{"verb":"ledger","session":7}"#, "session"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err} (wanted {needle})");
        }
    }

    #[test]
    fn response_lines_are_valid_json() {
        use crate::json::Value;
        let reject = reject_line(
            reject::QUEUE_FULL,
            "queue is full",
            &[("retry_after_ms", 50u64.into())],
        );
        let parsed = Value::parse(&reject).unwrap();
        assert_eq!(parsed.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(
            parsed.get("error").and_then(Value::as_str),
            Some(reject::QUEUE_FULL)
        );
        assert_eq!(
            parsed.get("retry_after_ms").and_then(Value::as_u64),
            Some(50)
        );

        let header = batch_header_line(
            2,
            "{\"candidates\":5}",
            1.5,
            "{\"releases\":2}",
            "{\"store\":\"partition\"}",
        );
        let parsed = Value::parse(&header).unwrap();
        assert_eq!(parsed.get("released").and_then(Json::as_usize), Some(2));
        assert_eq!(
            parsed.get("request_epsilon").and_then(Value::as_f64),
            Some(1.5)
        );
        assert_eq!(
            parsed
                .get("provenance")
                .and_then(|p| p.get("store"))
                .and_then(Value::as_str),
            Some("partition")
        );

        let record = Record::new(vec![3, 0, 65535]);
        let parsed = Value::parse(&record_line(&record)).unwrap();
        assert_eq!(parse_record_line(&parsed), Some(vec![3, 0, 65535]));

        let end = stream_end_line(
            4,
            "{\"released\":4}",
            "{\"requests\":1}",
            "{\"store\":\"scan\"}",
        );
        let parsed = Value::parse(&end).unwrap();
        assert_eq!(parsed.get("end").and_then(Value::as_bool), Some(true));
        assert_eq!(parsed.get("released").and_then(Json::as_usize), Some(4));
        assert_eq!(
            parsed
                .get("provenance")
                .and_then(|p| p.get("store"))
                .and_then(Value::as_str),
            Some("scan")
        );
        assert_eq!(
            Value::parse(&stream_header_line())
                .unwrap()
                .get("streaming")
                .and_then(Value::as_bool),
            Some(true)
        );
        assert_eq!(
            Value::parse(&batch_end_line(9))
                .unwrap()
                .get("released")
                .and_then(Json::as_usize),
            Some(9)
        );
    }
}
