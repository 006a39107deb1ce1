//! Session settings, set-up, and run bookkeeping shared by every workload.

use sgf_core::{PrivacyTestConfig, SynthesisEngine, SynthesisSession};
use sgf_data::acs::{acs_bucketizer, acs_schema, generate_acs};
use sgf_data::{Bucketizer, Dataset};
use sgf_model::OmegaSpec;
use sgf_serve::{serve, ServeConfig, ServerHandle, SessionEntry};
use sgf_stats::DpBudget;
use std::time::{Duration, Instant};

/// ACS draws behind `serve_small` and `ingest_mix` (≈15.7k seeds).
pub const SMALL_DRAWS: usize = 32_000;
/// ACS draws behind `bulk_paper` (≈23.3k seeds).
pub const BULK_DRAWS: usize = 48_000;
/// Records per served request.
pub const SMALL_TARGET: usize = 25;
/// Records per `bulk_paper` request.
pub const BULK_TARGET: usize = 1_500;
/// Inserts (and deletes) per size-neutral update.
pub const DELTA_CHANGES: usize = 10;
/// The name the benchmark registers its session under.
pub const SESSION: &str = "bench";
/// Trains (plus binds, where served) per run; `setup_s` is their median.
/// The shared host switches between speeds up to 1.5× apart, in episodes
/// of tens of milliseconds to seconds.  Set-ups run back to back see too
/// few episodes for their median to repeat, so half run before the load and
/// half after it, each [`SETUP_GAP`] after the last.
pub const SETUP_REPS: usize = 100;
/// Pause between timed set-ups.
pub const SETUP_GAP: Duration = Duration::from_millis(20);

/// The workloads, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeSmall,
    BulkPaper,
    IngestMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ServeSmall,
        Workload::BulkPaper,
        Workload::IngestMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeSmall => "serve_small",
            Workload::BulkPaper => "bulk_paper",
            Workload::IngestMix => "ingest_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A 64-bit mix (splitmix64 finalizer): derives independent input streams
/// from the one workload seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Input streams derived from the workload seed.
pub mod stream {
    pub const POPULATION: u64 = 1;
    pub const REQUESTS: u64 = 2;
    pub const DELTAS: u64 = 3;
    pub const CHECK: u64 = 5;
}

/// The ACS population and bucketizer of a workload.
pub fn population(workload: Workload, seed: u64) -> (Dataset, Bucketizer) {
    let draws = match workload {
        Workload::BulkPaper => BULK_DRAWS,
        Workload::ServeSmall | Workload::IngestMix => SMALL_DRAWS,
    };
    let population = generate_acs(draws, mix(seed, stream::POPULATION));
    (population, acs_bucketizer(&acs_schema()))
}

/// The engine of a workload: `fig_folding`'s served settings (k = 20, γ = 4,
/// ε0 = 1, limits 40/2000, ω = 9, factor 30) or the paper's evaluation
/// configuration for `bulk_paper`.
pub fn engine(workload: Workload, seed: u64) -> SynthesisEngine {
    match workload {
        Workload::BulkPaper => {
            SynthesisEngine::from_config(bench::experiment_pipeline_config(BULK_TARGET, seed))
        }
        Workload::ServeSmall | Workload::IngestMix => SynthesisEngine::builder()
            .privacy_test(
                PrivacyTestConfig::randomized(20, 4.0, 1.0).with_limits(Some(40), Some(2_000)),
            )
            .omega(OmegaSpec::Fixed(9))
            .max_candidate_factor(30)
            .seed(seed)
            .build()
            .expect("the served configuration is valid"),
    }
}

/// A budget cap far above anything a run releases: admission still reserves
/// and settles budget on every request, but never rejects.
pub fn cap() -> DpBudget {
    DpBudget::new(1e12, 1e12)
}

/// Two workers, adaptive folding, and a queue deeper than the load's
/// outstanding requests, so nothing is ever refused.
pub fn serve_config(trace: bool) -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_capacity: 64,
        max_fold: None,
        trace,
        ..ServeConfig::default()
    }
}

/// Operation counts of one phase of a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phase {
    pub attempted: u64,
    pub failed: u64,
}

impl Phase {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn add(&mut self, other: Phase) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The set-up, timed and check phases of one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    pub setup: Phase,
    pub timed: Phase,
    pub check: Phase,
}

impl Phases {
    pub fn total(&self) -> Phase {
        let mut total = self.setup;
        total.add(self.timed);
        total.add(self.check);
        total
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports: metrics, phase counts, and free-form notes (which
/// percentile a tail metric used, spreads of per-layer medians, ...).
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Printed like `metrics` but left out of the result line, because no
    /// bound could hold them on a shared two-CPU host (see the README).
    pub ungated: Vec<Metric>,
    pub phases: Phases,
    pub notes: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn ungated(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.ungated.push(Metric { name, value, unit });
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }
}

/// A running server offering the workload's session under [`SESSION`],
/// capped at [`cap`].
pub struct Served {
    pub handle: ServerHandle,
}

impl Served {
    /// Drain and stop the server, waiting for every thread.
    pub fn stop(self) -> std::io::Result<()> {
        self.handle.shutdown();
        self.handle.join()
    }
}

/// Train `reps` times, keeping the last; returns the wall time of each
/// set-up.  `served` is `Some(trace)` to also bind a server with that
/// trace-ring setting each time (the kept one keeps serving).
pub fn set_up(
    workload: Workload,
    seed: u64,
    data: &(Dataset, Bucketizer),
    served: Option<bool>,
    reps: usize,
    phase: &mut Phase,
) -> Result<(Vec<f64>, SynthesisSession, Option<Served>), String> {
    let engine = engine(workload, seed);
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for rep in 0..reps.max(1) {
        let started = Instant::now();
        let result = engine.train(&data.0, &data.1).map_err(|e| e.to_string());
        let result = result.and_then(|session| match served {
            None => Ok((session, None)),
            Some(trace) => {
                let entry = SessionEntry::new(session.clone())
                    .named(SESSION)
                    .capped(cap());
                serve(serve_config(trace), vec![entry])
                    .map(|handle| (session, Some(Served { handle })))
                    .map_err(|e| e.to_string())
            }
        });
        let elapsed = started.elapsed();
        phase.record(result.is_ok());
        let (session, server) = result?;
        times.push(elapsed.as_secs_f64());
        if rep + 1 >= reps {
            kept = Some((session, server));
        } else {
            if let Some(server) = server {
                server.stop().map_err(|e| e.to_string())?;
            }
            std::thread::sleep(SETUP_GAP);
        }
    }
    let (session, server) = kept.expect("at least one set-up ran");
    Ok((times, session, server))
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
