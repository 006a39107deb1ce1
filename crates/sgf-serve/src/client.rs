//! A blocking protocol client, used by the test harness, the quickstart
//! example, and the binary's smoke mode.
//!
//! One [`Client`] wraps one TCP connection and speaks the lockstep
//! request/response protocol: send a line, read the response (for `generate`,
//! the header, every record line, and the trailer).  Server-side rejections
//! surface as [`ClientError::Rejected`] with the machine-readable code.

use crate::json::Value;
use crate::protocol::{parse_record_line, GenerateCall, Request, UpdateCall};
use sgf_data::Record;
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, or unexpected EOF).
    Io(std::io::Error),
    /// The server answered, but not with the protocol shape we expected.
    Protocol(String),
    /// The server rejected the request.
    Rejected(Rejection),
}

/// A server-side rejection: the machine-readable `code` plus everything else
/// the reject line carried.
#[derive(Debug, Clone)]
pub struct Rejection {
    /// Machine-readable code (see [`crate::protocol::reject`]).
    pub code: String,
    /// Human-readable message.
    pub message: String,
    /// Retry hint attached to `queue_full` rejections, in milliseconds.
    pub retry_after_ms: Option<u64>,
    /// The full reject line for code-specific fields (budgets etc.).
    pub detail: Value,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(err) => write!(f, "transport error: {err}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Rejected(r) => write!(f, "rejected ({}): {}", r.code, r.message),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(err: std::io::Error) -> Self {
        ClientError::Io(err)
    }
}

/// Result alias for client calls.
pub type ClientResult<T> = Result<T, ClientError>;

/// A successful `generate` response.
#[derive(Debug, Clone)]
pub struct Release {
    /// The released records (value indices; schema lives with the session).
    pub records: Vec<Record>,
    /// Released-record count as reported by the server.
    pub released: usize,
    /// Whether the response was streamed.
    pub streaming: bool,
    /// The server's `stats` object for this request.
    pub stats: Value,
    /// The server's cumulative ledger snapshot after this request.
    pub ledger: Value,
    /// The server's provenance block for this request (store kind, request
    /// parameters, ledger before/after, trace span count).
    pub provenance: Value,
}

impl Release {
    /// A named `f64` field of the ledger snapshot (e.g. `total_epsilon`).
    pub fn ledger_f64(&self, key: &str) -> Option<f64> {
        self.ledger.get(key).and_then(Value::as_f64)
    }
}

/// A blocking protocol client over one TCP connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to a running server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> ClientResult<Client> {
        let writer = TcpStream::connect(addr)?;
        // Line-oriented request/response: leaving Nagle on costs a delayed-ACK
        // round trip (~40ms) per call.  Best effort, as on the server side.
        let _ = writer.set_nodelay(true);
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { reader, writer })
    }

    fn send(&mut self, line: &str) -> ClientResult<()> {
        self.send_bytes(line.as_bytes())
    }

    fn send_bytes(&mut self, line: &[u8]) -> ClientResult<()> {
        self.writer.write_all(line)?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        Ok(())
    }

    fn read_value(&mut self) -> ClientResult<Value> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        Value::parse(line.trim_end())
            .map_err(|e| ClientError::Protocol(format!("unparseable response line: {e}")))
    }

    /// Check a response line for `"ok":false` and convert it to a rejection.
    fn check_rejection(value: Value) -> ClientResult<Value> {
        if value.get("ok").and_then(Value::as_bool) == Some(false) {
            let code = value
                .get("error")
                .and_then(Value::as_str)
                .unwrap_or("unknown")
                .to_string();
            let message = value
                .get("message")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string();
            let retry_after_ms = value.get("retry_after_ms").and_then(Value::as_u64);
            return Err(ClientError::Rejected(Rejection {
                code,
                message,
                retry_after_ms,
                detail: value,
            }));
        }
        Ok(value)
    }

    /// Run one `generate` call and collect the full response.
    pub fn generate(&mut self, call: &GenerateCall) -> ClientResult<Release> {
        self.send(&call.encode())?;
        let header = Self::check_rejection(self.read_value()?)?;
        let streaming = header
            .get("streaming")
            .and_then(Value::as_bool)
            .ok_or_else(|| ClientError::Protocol("generate header missing `streaming`".into()))?;
        let mut records = Vec::new();
        let mut rejection: Option<ClientError> = None;
        let trailer = loop {
            let line = self.read_value()?;
            if line.get("end").and_then(Value::as_bool) == Some(true) {
                break line;
            }
            if let Some(values) = parse_record_line(&line) {
                records.push(Record::new(values));
                continue;
            }
            match Self::check_rejection(line) {
                // A mid-stream failure still terminates with a trailer; keep
                // draining so the connection stays usable, then report it.
                Err(err) => rejection = Some(err),
                Ok(other) => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected line in generate response: {other:?}"
                    )))
                }
            }
        };
        if let Some(err) = rejection {
            return Err(err);
        }
        let released = trailer
            .get("released")
            .and_then(Value::as_usize)
            .ok_or_else(|| ClientError::Protocol("trailer missing `released`".into()))?;
        if released != records.len() {
            return Err(ClientError::Protocol(format!(
                "trailer reports {released} records but {} arrived",
                records.len()
            )));
        }
        // Batch responses carry stats/ledger/provenance in the header,
        // streams in the trailer.
        let source = if streaming { &trailer } else { &header };
        let stats = source.get("stats").cloned().unwrap_or(Value::Null);
        let ledger = source.get("ledger").cloned().unwrap_or(Value::Null);
        let provenance = source.get("provenance").cloned().unwrap_or(Value::Null);
        Ok(Release {
            records,
            released,
            streaming,
            stats,
            ledger,
            provenance,
        })
    }

    /// Fold a ±record delta into a session (the `update` verb), advancing it
    /// to its next epoch.  Returns the full response line (`epoch`, `seeds`,
    /// `inserts`, `deletes`).
    pub fn update(&mut self, call: &UpdateCall) -> ClientResult<Value> {
        self.send(&call.encode())?;
        Self::check_rejection(self.read_value()?)
    }

    /// Send a raw protocol line (any bytes, even invalid UTF-8) and read
    /// back one response line — for protocol tests exercising malformed
    /// input; rejections surface as [`ClientError::Rejected`] like everywhere
    /// else.
    pub fn raw_roundtrip(&mut self, line: impl AsRef<[u8]>) -> ClientResult<Value> {
        self.send_bytes(line.as_ref())?;
        Self::check_rejection(self.read_value()?)
    }

    /// Fetch the server status object.
    pub fn status(&mut self) -> ClientResult<Value> {
        self.send(&Request::Status.encode())?;
        Self::check_rejection(self.read_value()?)
    }

    /// Fetch a session's ledger object (the full response line).
    pub fn ledger(&mut self, session: &str) -> ClientResult<Value> {
        self.send(
            &Request::Ledger {
                session: session.to_string(),
            }
            .encode(),
        )?;
        Self::check_rejection(self.read_value()?)
    }

    /// Fetch the labeled metrics snapshot (the full response line): the
    /// whole registry, or one session's cell when `session` is given.
    /// `noisy` opts into timers and summaries; the default counter-only
    /// document is deterministic across identically-seeded runs.
    pub fn metrics(&mut self, session: Option<&str>, noisy: bool) -> ClientResult<Value> {
        self.send(
            &Request::Metrics {
                session: session.map(str::to_string),
                noisy,
            }
            .encode(),
        )?;
        Self::check_rejection(self.read_value()?)
    }

    /// Fetch recent trace span trees (the full response line), optionally
    /// restricted to one session's trees.  `noisy` includes wall clocks.
    pub fn trace(&mut self, session: Option<&str>, noisy: bool) -> ClientResult<Value> {
        self.send(
            &Request::Trace {
                session: session.map(str::to_string),
                noisy,
            }
            .encode(),
        )?;
        Self::check_rejection(self.read_value()?)
    }

    /// Ask the server to drain and stop.
    pub fn shutdown(&mut self) -> ClientResult<()> {
        self.send(&Request::Shutdown.encode())?;
        Self::check_rejection(self.read_value()?)?;
        Ok(())
    }
}
