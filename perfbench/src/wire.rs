//! A pipelining client for the JSON-lines protocol.
//!
//! The blocking `sgf_serve::Client` waits for each response before sending
//! the next request.  The load generator instead keeps several requests in
//! flight on one connection; workers may answer them in any order, so each
//! response is matched to its request by the `provenance.request_seed` its
//! header carries ([`Pending`]).  Record lines are not decoded on the timed
//! path: they are folded into a digest of their exact bytes, which the
//! output check compares against an in-process replay ([`release_digest`]).

use sgf_data::Record;
use sgf_serve::json::Value;
use sgf_serve::protocol::record_line;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One decoded `generate` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// A release: the request seed it answers, the record count, and the
    /// digest of its record lines.
    Release {
        seed: u64,
        released: usize,
        digest: u64,
    },
    /// A rejection line, with its machine-readable code.
    Rejected(String),
}

/// FNV-1a over the record lines of a release, each terminated by `\n` —
/// the bytes a batch response carries between its header and trailer.
pub fn release_digest(records: &[Record]) -> u64 {
    let mut digest = Digest::new();
    for record in records {
        digest.line(record_line(record).as_bytes());
    }
    digest.0
}

struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn line(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(b"\n") {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Read one complete `generate` response (header, record lines, trailer).
pub fn read_reply<R: BufRead>(reader: &mut R, line: &mut String) -> Result<Reply, String> {
    let header = read_value(reader, line)?;
    if header.get("ok").and_then(Value::as_bool) != Some(true) {
        let code = header.get("error").and_then(Value::as_str).unwrap_or("?");
        return Ok(Reply::Rejected(code.to_string()));
    }
    let seed = header
        .get("provenance")
        .and_then(|p| p.get("request_seed"))
        .and_then(Value::as_u64)
        .ok_or("generate header lacks provenance.request_seed")?;
    let released = header
        .get("released")
        .and_then(Value::as_usize)
        .ok_or("generate header lacks `released`")?;
    let mut digest = Digest::new();
    for _ in 0..released {
        read_raw(reader, line)?;
        let record = line.trim_end();
        if !record.starts_with("{\"record\":") {
            return Err(format!("expected a record line, got {record}"));
        }
        digest.line(record.as_bytes());
    }
    let trailer = read_value(reader, line)?;
    if trailer.get("end").and_then(Value::as_bool) != Some(true)
        || trailer.get("released").and_then(Value::as_usize) != Some(released)
    {
        return Err(format!("bad trailer for request seed {seed}"));
    }
    Ok(Reply::Release {
        seed,
        released,
        digest: digest.0,
    })
}

fn read_raw<R: BufRead>(reader: &mut R, line: &mut String) -> Result<(), String> {
    line.clear();
    match reader.read_line(line) {
        Ok(0) => Err("server closed the connection".into()),
        Ok(_) => Ok(()),
        Err(err) => Err(err.to_string()),
    }
}

fn read_value<R: BufRead>(reader: &mut R, line: &mut String) -> Result<Value, String> {
    read_raw(reader, line)?;
    Value::parse(line.trim_end()).map_err(|err| err.to_string())
}

/// Requests in flight on one connection, keyed by request seed.
#[derive(Debug, Default)]
pub struct Pending {
    sent: HashMap<u64, Instant>,
}

impl Pending {
    /// Remember that the request with `seed` went out at `at`.
    pub fn sent(&mut self, seed: u64, at: Instant) {
        self.sent.insert(seed, at);
    }

    /// Requests still waiting for a response.
    pub fn len(&self) -> usize {
        self.sent.len()
    }

    /// Match a response to its request; the latency from send to `now`.
    pub fn complete(&mut self, seed: u64, now: Instant) -> Result<Duration, String> {
        self.sent
            .remove(&seed)
            .map(|at| now.saturating_duration_since(at))
            .ok_or_else(|| format!("response for request seed {seed}, which is not in flight"))
    }

    /// Give up on the oldest request (a rejection line names no seed).
    pub fn drop_oldest(&mut self) -> Option<u64> {
        let oldest = self
            .sent
            .iter()
            .min_by_key(|(&seed, &at)| (at, seed))
            .map(|(&seed, _)| seed)?;
        self.sent.remove(&oldest);
        Some(oldest)
    }
}

/// How long a read waits for the server.  Every reply the benchmark waits for
/// takes well under a second; a longer silence is a server fault, and the
/// run fails instead of hanging.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// One protocol connection with Nagle off, as the server sets it.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(READ_TIMEOUT))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn {
            reader,
            writer,
            line: String::new(),
        })
    }

    /// Send one request line.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.writer.write_all(&bytes)
    }

    /// Read one `generate` response.
    pub fn reply(&mut self) -> Result<Reply, String> {
        read_reply(&mut self.reader, &mut self.line)
    }

    /// Read one single-line response (`update`, `ledger`, `metrics`, ...).
    pub fn value(&mut self) -> Result<Value, String> {
        read_value(&mut self.reader, &mut self.line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgf_serve::protocol::{batch_end_line, batch_header_line, reject_line};
    use std::io::Cursor;

    fn response(seed: u64, records: &[Record]) -> String {
        let provenance = format!("{{\"request_seed\":{seed},\"store\":\"partition\"}}");
        let mut text = batch_header_line(records.len(), "{}", 0.5, "{}", &provenance);
        text.push('\n');
        for record in records {
            text.push_str(&record_line(record));
            text.push('\n');
        }
        text.push_str(&batch_end_line(records.len()));
        text.push('\n');
        text
    }

    fn records(seed: u64, n: usize) -> Vec<Record> {
        (0..n)
            .map(|i| Record::new(vec![seed as u16, i as u16, 7]))
            .collect()
    }

    #[test]
    fn pipelined_responses_match_their_requests_by_seed() {
        let t0 = Instant::now();
        let mut pending = Pending::default();
        for (i, seed) in [101u64, 102, 103, 104].into_iter().enumerate() {
            pending.sent(seed, t0 + Duration::from_millis(i as u64));
        }
        // Workers answered out of admission order.
        let order = [103u64, 101, 104, 102];
        let wire: String = order
            .iter()
            .map(|&seed| response(seed, &records(seed, seed as usize % 5 + 1)))
            .collect();
        let mut reader = Cursor::new(wire.into_bytes());
        let mut line = String::new();
        let now = t0 + Duration::from_millis(10);
        for &expected in &order {
            let reply = read_reply(&mut reader, &mut line).expect("well-formed response");
            let Reply::Release {
                seed,
                released,
                digest,
            } = reply
            else {
                panic!("unexpected rejection");
            };
            assert_eq!(seed, expected);
            let sent = records(seed, seed as usize % 5 + 1);
            assert_eq!(released, sent.len());
            assert_eq!(
                digest,
                release_digest(&sent),
                "digest covers the record bytes"
            );
            let waited = pending.complete(seed, now).expect("seed is in flight");
            assert_eq!(waited, Duration::from_millis(10 - (seed - 101)));
        }
        assert_eq!(pending.len(), 0);
        assert!(
            pending.complete(101, now).is_err(),
            "a seed matches only once"
        );
    }

    #[test]
    fn digests_differ_when_records_differ() {
        assert_ne!(
            release_digest(&records(1, 3)),
            release_digest(&records(2, 3))
        );
        assert_ne!(
            release_digest(&records(1, 3)),
            release_digest(&records(1, 2))
        );
    }

    #[test]
    fn rejections_surface_their_code() {
        let wire = format!("{}\n", reject_line("queue_full", "full", &[]));
        let mut reader = Cursor::new(wire.into_bytes());
        let reply = read_reply(&mut reader, &mut String::new()).unwrap();
        assert_eq!(reply, Reply::Rejected("queue_full".into()));
        let mut pending = Pending::default();
        let t0 = Instant::now();
        pending.sent(5, t0 + Duration::from_millis(1));
        pending.sent(9, t0);
        assert_eq!(pending.drop_oldest(), Some(9));
    }

    #[test]
    fn truncated_responses_are_errors() {
        let full = response(7, &records(7, 3));
        let cut = &full[..full.len() - 20];
        let mut reader = Cursor::new(cut.as_bytes().to_vec());
        assert!(read_reply(&mut reader, &mut String::new()).is_err());
    }
}
