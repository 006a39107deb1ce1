//! The untraced end-to-end runs: set-up, the timed load, and the output
//! checks.

use crate::common::{
    engine, mix, population, rss_peak_mb, set_up, stream, Phase, Report, Workload, SESSION,
    SETUP_REPS, SMALL_TARGET,
};
use crate::delta::LiveSet;
use crate::load::{self, LoadStats};
use crate::stats;
use crate::wire::{release_digest, Conn, Reply};
use sgf_core::{BudgetLedger, GenerateRequest, SynthesisSession};
use sgf_data::{Bucketizer, Dataset};
use sgf_serve::json::Value;
use sgf_serve::Request;
use std::net::SocketAddr;
use std::time::Duration;

/// Generates in flight per `serve_small` connection.
pub const DEPTH: usize = 4;
/// `serve_small` load connections.
pub const CONNS: usize = 2;
/// Generates per `ingest_mix` cycle.
pub const INGEST_GENERATES: usize = 7;

/// Run one untraced workload for `seconds` of load.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let duration = Duration::from_secs_f64(seconds);
    let data = population(workload, seed);
    let served = workload != Workload::BulkPaper;
    let setup = set_up(
        workload,
        seed,
        &data,
        served.then_some(false),
        SETUP_REPS / 2,
        &mut report.phases.setup,
    );
    let (mut setup_times, session, server) = match setup {
        Ok(kept) => kept,
        Err(err) => {
            report.note("error", format!("set-up failed: {err}"));
            return report;
        }
    };
    let addr = server.as_ref().map(|server| server.handle.addr());
    let mut live =
        (workload == Workload::IngestMix).then(|| LiveSet::new(&data.0, mix(seed, stream::DELTAS)));
    let load = match (addr, live.as_mut()) {
        (Some(addr), Some(live)) => load::ingest(addr, live, seed, 0, INGEST_GENERATES, duration),
        (Some(addr), None) => load::pipelined(addr, seed, 0, CONNS, DEPTH, duration),
        (None, _) => load::bulk(&session, seed, 0, duration).load,
    };
    report.phases.timed.attempted += load.attempted;
    report.phases.timed.failed += load.failed;
    // Taken before the checks, which train sessions of their own, so the
    // peak covers set-up and the load alone.
    report.metric("rss_peak_mb", rss_peak_mb(), "MiB");
    let phase = &mut report.phases.setup;
    let late = set_up(
        workload,
        seed,
        &data,
        served.then_some(false),
        SETUP_REPS / 2,
        phase,
    );
    if let Ok((times, _, late_server)) = late {
        setup_times.extend(times);
        if let Some(late_server) = late_server {
            phase.record(late_server.stop().is_ok());
        }
    }
    report.metric("setup_s", stats::median(&setup_times), "s");
    report.note(
        "setup_s.spread",
        format!(
            "{:.3} over {} set-ups",
            stats::relative_spread(&setup_times),
            setup_times.len()
        ),
    );

    let check = &mut report.phases.check;
    match (addr, &live) {
        (Some(addr), Some(live)) => check_ingest_mix(check, addr, live, &load, &data.1, seed),
        (Some(addr), None) => check_serve_small(check, addr, &data, seed, &load.releases),
        (None, _) => check_bulk_paper(check, &session, seed, &load.releases),
    }
    if let Some(server) = server {
        check.record(server.stop().is_ok());
    }

    let (requests, records) = match workload {
        Workload::BulkPaper => rotation_rates(&load.releases, bench::paper_omegas().len()),
        _ => window_rates(&load.releases, load.elapsed.as_secs_f64()),
    };
    report.metric("gen_rps", stats::median(&requests), "1/s");
    report.metric("records_per_s", stats::median(&records), "1/s");
    report.note(
        "gen_rps.spread",
        format!(
            "{:.3} over {} windows",
            stats::relative_spread(&requests),
            requests.len()
        ),
    );
    let gen_at: Vec<f64> = load.releases.iter().map(|r| r.at).collect();
    let (gen_at, gen_tail) = match workload {
        // A bulk run holds a few hundred requests of five kinds: its tail is
        // pooled, at p90 so that ten requests lie beyond it.
        Workload::BulkPaper => (&[][..], 90.0),
        _ => (&gen_at[..], 99.0),
    };
    latency_metrics(&mut report, &load.gen_ms, gen_at, "gen", gen_tail);
    if workload == Workload::IngestMix {
        latency_metrics(
            &mut report,
            &load.update_ms,
            &load.update_at,
            "update",
            99.0,
        );
    }
    report
}

/// Windows a tail percentile is taken over (all but `bulk_paper`'s
/// generates, which are pooled).
const TAIL_WINDOWS: usize = 5;

/// Windows the served load is cut into for its rates.
const RATE_WINDOWS: usize = 10;

/// Completed generates and released records per second, as the median over
/// equal time windows of the load: a transient stall of the shared host
/// moves one window, not the result.
fn window_rates(releases: &[load::Served], elapsed: f64) -> (Vec<f64>, Vec<f64>) {
    let width = (elapsed / RATE_WINDOWS as f64).max(1e-9);
    let mut windows = [(0.0, 0.0); RATE_WINDOWS];
    for release in releases {
        let w = ((release.at / width) as usize).min(RATE_WINDOWS - 1);
        windows[w].0 += 1.0 / width;
        windows[w].1 += release.released as f64 / width;
    }
    windows.into_iter().unzip()
}

/// The same rates as the median over whole rotations of the paper's ω
/// settings, so every sample holds the same request mix.
fn rotation_rates(releases: &[load::Served], rotation: usize) -> (Vec<f64>, Vec<f64>) {
    let mut start = 0.0;
    let (mut requests, mut records) = (Vec::new(), Vec::new());
    for chunk in releases.chunks_exact(rotation) {
        let end = chunk[rotation - 1].at;
        let span = (end - start).max(1e-9);
        requests.push(rotation as f64 / span);
        records.push(chunk.iter().map(|r| r.released as f64).sum::<f64>() / span);
        start = end;
    }
    (requests, records)
}

/// `<prefix>_p50_ms` and `<prefix>_p99_ms`; only `gen_p50_ms` is gated (see
/// `END_TO_END` in `main.rs`).  The tail is the highest
/// percentile up to `want` with ten samples beyond it: over the pooled
/// samples when `at` is empty, else the median over [`TAIL_WINDOWS`]
/// consecutive windows of equal size, in order of completion (`at` holds
/// completion times).  The percentile used is noted, with the pooled
/// deciles.
fn latency_metrics(
    report: &mut Report,
    samples: &[f64],
    at: &[f64],
    prefix: &'static str,
    want: f64,
) {
    match prefix {
        "gen" => report.metric("gen_p50_ms", stats::median(samples), "ms"),
        _ => report.ungated("update_p50_ms", stats::median(samples), "ms"),
    }
    let p99 = match prefix {
        "gen" => "gen_p99_ms",
        _ => "update_p99_ms",
    };
    let tail = if at.is_empty() {
        stats::tail(samples, want)
    } else {
        let mut order: Vec<usize> = (0..samples.len()).collect();
        order.sort_by(|&a, &b| at[a].total_cmp(&at[b]));
        let ordered: Vec<f64> = order.iter().map(|&i| samples[i]).collect();
        let n = ordered.len();
        let windows: Vec<Vec<f64>> = (0..TAIL_WINDOWS)
            .map(|w| ordered[w * n / TAIL_WINDOWS..(w + 1) * n / TAIL_WINDOWS].to_vec())
            .collect();
        stats::windowed_tail(&windows, want)
    };
    let (percentile, value) = tail.unwrap_or((100.0, f64::NAN));
    report.ungated(p99, value, "ms");
    report.note(&format!("{p99}.percentile"), percentile);
    report.note(&format!("{prefix}.samples"), samples.len());
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let deciles: Vec<String> = [10.0, 25.0, 50.0, 75.0, 90.0]
        .iter()
        .map(|&p| stats::nearest_rank(&sorted, p).map_or(f64::NAN, |(v, _)| v))
        .map(|v| format!("{v:.3}"))
        .collect();
    report.note(&format!("{prefix}.p10_p25_p50_p75_p90"), deciles.join(" "));
}

/// Every served release against an in-process replay of the same request
/// seed on a freshly trained session; then the server's ledger against the
/// replay session's, which has seen exactly the served requests.
fn check_serve_small(
    check: &mut Phase,
    addr: SocketAddr,
    data: &(Dataset, Bucketizer),
    seed: u64,
    releases: &[load::Served],
) {
    match engine(Workload::ServeSmall, seed).train(&data.0, &data.1) {
        Ok(replay) => {
            check_replays(check, &replay, releases);
            check_ledger(check, addr, Some(replay.ledger()));
        }
        Err(_) => check.record(false),
    }
}

/// Compare served releases with in-process replays of the same request
/// seeds, on two threads.
fn check_replays(phase: &mut Phase, session: &SynthesisSession, releases: &[load::Served]) {
    let halves: Vec<&[load::Served]> = releases.chunks(releases.len().div_ceil(2).max(1)).collect();
    let results: Vec<Phase> = std::thread::scope(|scope| {
        let threads: Vec<_> = halves
            .into_iter()
            .map(|half| {
                scope.spawn(move || {
                    let mut phase = Phase::default();
                    for served in half {
                        let request = GenerateRequest::new(SMALL_TARGET).with_seed(served.seed);
                        let ok = session.generate(&request).is_ok_and(|report| {
                            report.stats.released == served.released
                                && release_digest(report.synthetics.records()) == served.digest
                        });
                        phase.record(ok);
                    }
                    phase
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("replay thread completes"))
            .collect()
    });
    for result in results {
        phase.add(result);
    }
}

/// The final epoch equals the number of updates, and a served generate on it
/// matches a from-scratch train on the mirrored live dataset.
fn check_ingest_mix(
    check: &mut Phase,
    addr: SocketAddr,
    live: &LiveSet,
    load: &LoadStats,
    bucketizer: &Bucketizer,
    seed: u64,
) {
    check.record(load.last_epoch == load.updates && load.updates > 0);
    let request = mix(seed, stream::CHECK);
    let served = Conn::connect(addr)
        .map_err(|e| e.to_string())
        .and_then(|mut conn| {
            conn.send(&load::generate_line(request))
                .map_err(|e| e.to_string())?;
            conn.reply()
        });
    let fresh = engine(Workload::IngestMix, seed).train(&live.dataset(), bucketizer);
    let matches = match (served, fresh) {
        (
            Ok(Reply::Release {
                released, digest, ..
            }),
            Ok(fresh),
        ) => {
            check.record(fresh.seeds().len() as u64 == load.last_seeds);
            let request = GenerateRequest::new(SMALL_TARGET).with_seed(request);
            fresh.generate(&request).is_ok_and(|r| {
                r.stats.released == released && release_digest(r.synthetics.records()) == digest
            })
        }
        _ => false,
    };
    check.record(matches);
    check_ledger(check, addr, None);
}

/// The server's ledger after the run: nothing left reserved, ε within the
/// cap, and, when `expected` is given, the same requests, releases and
/// total ε as that ledger.
fn check_ledger(phase: &mut Phase, addr: SocketAddr, expected: Option<BudgetLedger>) {
    let answer = Conn::connect(addr)
        .map_err(|e| e.to_string())
        .and_then(|mut conn| {
            let line = Request::Ledger {
                session: SESSION.to_string(),
            }
            .encode();
            conn.send(&line).map_err(|e| e.to_string())?;
            conn.value()
        });
    let ok = answer.is_ok_and(|value| {
        let Some(ledger) = value.get("ledger") else {
            return false;
        };
        let count = |name: &str| ledger.get(name).and_then(Value::as_u64);
        let epsilon = ledger.get("total_epsilon").and_then(Value::as_f64);
        let cap = value.get("cap_epsilon").and_then(Value::as_f64);
        let settled =
            matches!((count("reserved"), epsilon, cap), (Some(0), Some(e), Some(c)) if e <= c);
        settled
            && expected.is_none_or(|l| {
                count("requests") == Some(l.requests as u64)
                    && count("releases") == Some(l.releases as u64)
                    && epsilon == Some(l.total().epsilon)
            })
    });
    phase.record(ok);
}

/// The first rotation of paper requests replays byte for byte.  The replay
/// runs at the same `workers = 2`: each worker draws from its own RNG stream
/// (`request_worker_seed` in `sgf_core::session`), so releases are
/// reproducible per worker count but differ between worker counts.
fn check_bulk_paper(
    check: &mut Phase,
    session: &SynthesisSession,
    seed: u64,
    releases: &[load::Served],
) {
    let rotation = bench::paper_omegas().len();
    for (i, served) in releases.iter().take(rotation).enumerate() {
        let request = load::bulk_request(seed, 0, i, 2);
        let ok = request.seed == served.seed
            && session.generate(&request).is_ok_and(|r| {
                r.stats.released == served.released
                    && release_digest(r.synthetics.records()) == served.digest
            });
        check.record(ok);
    }
}
