//! The load generators: pipelined served generates, served ingest cycles,
//! and in-process paper requests.  Each runs a schedule fixed by the
//! workload seed until its deadline (or cycle count) is reached, and records
//! every operation's latency and outcome.

use crate::common::{mix, stream, DELTA_CHANGES, SESSION, SMALL_TARGET};
use crate::delta::LiveSet;
use crate::wire::{release_digest, Conn, Pending, Reply};
use sgf_core::{GenerateRequest, MechanismStats, SynthesisSession};
use sgf_model::OmegaSpec;
use sgf_serve::{GenerateCall, UpdateCall};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// One release as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    pub seed: u64,
    pub released: usize,
    pub digest: u64,
    /// Completion time, in seconds since the load started.
    pub at: f64,
}

/// What a load run observed.
#[derive(Debug, Default)]
pub struct LoadStats {
    /// Client-observed generate latencies, in ms.
    pub gen_ms: Vec<f64>,
    /// `update` latencies, in ms, and their completion times in seconds
    /// since the load started.
    pub update_ms: Vec<f64>,
    pub update_at: Vec<f64>,
    /// Successful releases, in completion order.
    pub releases: Vec<Served>,
    /// Request lines sent, in order (the parse replay's input).
    pub lines: Vec<String>,
    /// Operations attempted and failed (generates and updates).
    pub attempted: u64,
    pub failed: u64,
    /// Records released.
    pub records: u64,
    /// Wall time from the first send to the last response.
    pub elapsed: Duration,
    /// Epoch and seed count reported by the last `update` response.
    pub last_epoch: u64,
    pub last_seeds: u64,
    /// Updates that succeeded.
    pub updates: u64,
}

impl LoadStats {
    pub fn merge(&mut self, other: LoadStats) {
        self.gen_ms.extend(other.gen_ms);
        self.update_ms.extend(other.update_ms);
        self.update_at.extend(other.update_at);
        self.releases.extend(other.releases);
        self.lines.extend(other.lines);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.records += other.records;
        self.elapsed = self.elapsed.max(other.elapsed);
        self.last_epoch = self.last_epoch.max(other.last_epoch);
        self.last_seeds = other.last_seeds.max(self.last_seeds);
        self.updates += other.updates;
    }

    /// Completed generates per second of load.
    pub fn gen_rps(&self) -> f64 {
        self.gen_ms.len() as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Request lines kept per load for the parse replay; keeping all of them
/// would make the run's peak memory follow its throughput.
const KEPT_LINES: usize = 2_048;

fn keep_line(lines: &mut Vec<String>, line: String) {
    if lines.len() < KEPT_LINES {
        lines.push(line);
    }
}

/// The request seed of the `i`-th request of connection `conn` of `window`:
/// distinct for every request of a run, so responses match unambiguously.
pub fn request_seed(seed: u64, window: u64, conn: usize, i: usize) -> u64 {
    mix(seed, stream::REQUESTS) ^ (window << 48) ^ ((i as u64) << 4) ^ conn as u64
}

/// The protocol line of a `serve_small`/`ingest_mix` generate.
pub fn generate_line(seed: u64) -> String {
    GenerateCall::new(SMALL_TARGET)
        .with_session(SESSION)
        .with_request(GenerateRequest::new(SMALL_TARGET).with_seed(seed))
        .encode()
}

/// Closed-loop pipelined load: `conns` connections, each keeping `depth`
/// generates in flight until `duration` has passed, then draining.
pub fn pipelined(
    addr: SocketAddr,
    seed: u64,
    window: u64,
    conns: usize,
    depth: usize,
    duration: Duration,
) -> LoadStats {
    let started = Instant::now();
    let mut total = LoadStats::default();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..conns)
            .map(|conn| {
                scope.spawn(move || {
                    pipelined_conn(addr, seed, window, conn, depth, started, duration)
                })
            })
            .collect();
        for worker in workers {
            total.merge(worker.join().expect("load thread completes"));
        }
    });
    total.elapsed = started.elapsed();
    total
}

fn pipelined_conn(
    addr: SocketAddr,
    seed: u64,
    window: u64,
    conn_id: usize,
    depth: usize,
    started: Instant,
    duration: Duration,
) -> LoadStats {
    let mut stats = LoadStats::default();
    let mut conn = match Conn::connect(addr) {
        Ok(conn) => conn,
        Err(_) => {
            stats.attempted = 1;
            stats.failed = 1;
            return stats;
        }
    };
    let mut pending = Pending::default();
    let mut next = 0usize;
    let mut send = |conn: &mut Conn, pending: &mut Pending, stats: &mut LoadStats| {
        let request = request_seed(seed, window, conn_id, next);
        next += 1;
        let line = generate_line(request);
        stats.attempted += 1;
        pending.sent(request, Instant::now());
        let ok = conn.send(&line).is_ok();
        keep_line(&mut stats.lines, line);
        ok
    };
    for _ in 0..depth {
        if !send(&mut conn, &mut pending, &mut stats) {
            stats.failed += pending.len() as u64;
            return stats;
        }
    }
    while pending.len() > 0 {
        let reply = conn.reply();
        let now = Instant::now();
        match reply {
            Ok(Reply::Release {
                seed,
                released,
                digest,
            }) => {
                // A reply to a request that is not in flight leaves unknown
                // how many replies the server still owes: fail the
                // connection rather than wait for one that may never come.
                let Ok(latency) = pending.complete(seed, now) else {
                    stats.failed += pending.len() as u64;
                    return stats;
                };
                stats.gen_ms.push(latency.as_secs_f64() * 1e3);
                stats.records += released as u64;
                stats.releases.push(Served {
                    seed,
                    released,
                    digest,
                    at: now.duration_since(started).as_secs_f64(),
                });
            }
            Ok(Reply::Rejected(_)) => {
                pending.drop_oldest();
                stats.failed += 1;
            }
            Err(_) => {
                stats.failed += pending.len() as u64;
                return stats;
            }
        }
        if now.duration_since(started) < duration && !send(&mut conn, &mut pending, &mut stats) {
            stats.failed += pending.len() as u64;
            return stats;
        }
    }
    stats
}

/// Sequential ingest cycles on one connection until `duration` has passed:
/// one size-neutral `update` (from `live`, which mirrors the server's
/// dataset), then `generates` 25-record generates.
pub fn ingest(
    addr: SocketAddr,
    live: &mut LiveSet,
    seed: u64,
    window: u64,
    generates: usize,
    duration: Duration,
) -> LoadStats {
    let mut stats = LoadStats::default();
    let started = Instant::now();
    let mut conn = match Conn::connect(addr) {
        Ok(conn) => conn,
        Err(_) => {
            stats.attempted = 1;
            stats.failed = 1;
            return stats;
        }
    };
    let mut cycle = 0usize;
    while started.elapsed() < duration {
        let (deletes, inserts) = live.next_delta(DELTA_CHANGES);
        let line = UpdateCall {
            session: SESSION.to_string(),
            inserts,
            deletes,
        }
        .encode();
        stats.attempted += 1;
        let sent = Instant::now();
        let answer = conn
            .send(&line)
            .map_err(|e| e.to_string())
            .and_then(|_| conn.value());
        let latency = sent.elapsed();
        keep_line(&mut stats.lines, line);
        match answer {
            Ok(value) if value.get("ok").and_then(|v| v.as_bool()) == Some(true) => {
                stats.update_ms.push(latency.as_secs_f64() * 1e3);
                stats.update_at.push(started.elapsed().as_secs_f64());
                stats.updates += 1;
                stats.last_epoch = value.get("epoch").and_then(|v| v.as_u64()).unwrap_or(0);
                stats.last_seeds = value.get("seeds").and_then(|v| v.as_u64()).unwrap_or(0);
            }
            Ok(_) => stats.failed += 1,
            Err(_) => {
                stats.failed += 1;
                break;
            }
        }
        for g in 0..generates {
            let request = request_seed(seed, window, 0, cycle * generates + g);
            let line = generate_line(request);
            stats.attempted += 1;
            let sent = Instant::now();
            let reply = conn
                .send(&line)
                .map_err(|e| e.to_string())
                .and_then(|_| conn.reply());
            let latency = sent.elapsed();
            keep_line(&mut stats.lines, line);
            match reply {
                Ok(Reply::Release {
                    seed: answered,
                    released,
                    digest,
                }) if answered == request => {
                    stats.gen_ms.push(latency.as_secs_f64() * 1e3);
                    stats.records += released as u64;
                    stats.releases.push(Served {
                        seed: request,
                        released,
                        digest,
                        at: started.elapsed().as_secs_f64(),
                    });
                }
                Ok(_) => stats.failed += 1,
                Err(_) => {
                    stats.failed += 1;
                    break;
                }
            }
        }
        cycle += 1;
    }
    stats.elapsed = started.elapsed();
    stats
}

/// One `bulk_paper` request: the `i`-th of the schedule, rotating through
/// the paper's ω settings.
pub fn bulk_request(seed: u64, window: u64, i: usize, workers: usize) -> GenerateRequest {
    let omegas: Vec<OmegaSpec> = bench::paper_omegas();
    GenerateRequest::new(crate::common::BULK_TARGET)
        .with_omega(omegas[i % omegas.len()])
        .with_workers(workers)
        .with_seed(request_seed(seed, window, 0, i))
}

/// What the in-process paper load observed, beyond [`LoadStats`].
#[derive(Debug, Default)]
pub struct BulkStats {
    pub load: LoadStats,
    pub mechanism: MechanismStats,
}

/// In-process paper requests, in whole rotations of the five ω settings,
/// until `duration` has passed.
pub fn bulk(session: &SynthesisSession, seed: u64, window: u64, duration: Duration) -> BulkStats {
    let rotation = bench::paper_omegas().len();
    let mut stats = BulkStats::default();
    let started = Instant::now();
    let mut i = 0usize;
    while !i.is_multiple_of(rotation) || started.elapsed() < duration {
        let request = bulk_request(seed, window, i, 2);
        stats.load.attempted += 1;
        let began = Instant::now();
        let result = session.generate(&request);
        let latency = began.elapsed();
        match result {
            Ok(report) => {
                stats.load.gen_ms.push(latency.as_secs_f64() * 1e3);
                stats.load.records += report.stats.released as u64;
                stats.mechanism.merge(&report.stats);
                stats.load.releases.push(Served {
                    seed: request.seed,
                    released: report.stats.released,
                    digest: release_digest(report.synthetics.records()),
                    at: started.elapsed().as_secs_f64(),
                });
            }
            Err(_) => stats.load.failed += 1,
        }
        i += 1;
    }
    stats.load.elapsed = started.elapsed();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgf_serve::protocol::{batch_end_line, batch_header_line};
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;
    use std::sync::mpsc;

    /// A server on a local port that answers every request line with an
    /// empty release for request seed 7, which no request of the test uses.
    fn misanswering_server() -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a local port");
        let addr = listener.local_addr().expect("a bound address");
        let server = std::thread::spawn(move || {
            let Ok((stream, _)) = listener.accept() else {
                return;
            };
            let mut writer = stream.try_clone().expect("clone the socket");
            let header = batch_header_line(0, "{}", 0.5, "{}", "{\"request_seed\":7}");
            let reply = format!("{header}\n{}\n", batch_end_line(0));
            for line in BufReader::new(stream).lines() {
                if line.is_err() || writer.write_all(reply.as_bytes()).is_err() {
                    break;
                }
            }
        });
        (addr, server)
    }

    #[test]
    fn a_reply_for_a_request_not_in_flight_fails_the_connection() {
        let (addr, server) = misanswering_server();
        let depth = 4;
        assert!((0..depth).all(|i| request_seed(1, 0, 0, i) != 7));
        let (done, finished) = mpsc::channel();
        std::thread::spawn(move || {
            let long = Duration::from_secs(120);
            let _ = done.send(pipelined_conn(addr, 1, 0, 0, depth, Instant::now(), long));
        });
        let stats = finished
            .recv_timeout(Duration::from_secs(30))
            .expect("the connection gives up instead of waiting for owed replies");
        assert_eq!(stats.attempted, depth as u64);
        assert_eq!(stats.failed, depth as u64, "every request in flight fails");
        assert!(stats.releases.is_empty() && stats.gen_ms.is_empty());
        server.join().expect("the server thread ends");
    }
}
