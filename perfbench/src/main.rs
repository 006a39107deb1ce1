//! Release-service benchmark for the sgf workspace.
//!
//! ```text
//! perfbench --workload <serve_small|bulk_paper|ingest_mix> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload untraced and reports the end-to-end metrics;
//! `--trace 1` runs it in its own process with the trace ring on and replays
//! its inputs through each layer's public entry points for the per-layer
//! metrics.  The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; any failed operation or
//! output-check mismatch makes the process exit non-zero.

mod common;
mod delta;
mod layers;
mod load;
mod stats;
mod wire;
mod workloads;

use common::{Report, Workload};
use std::fmt::Write as _;
use std::process::ExitCode;

/// End-to-end metrics every untraced run reports in its result line.  The
/// update latencies, the tails and `error_rate` are printed beside them but
/// left out: the latencies' run-to-run spread on a shared two-CPU host
/// reaches or exceeds the largest bound a gate may use (0.25), and
/// `error_rate` is 0 on every correct run, which `failed` already says.
const END_TO_END: [&str; 5] = [
    "setup_s",
    "gen_rps",
    "records_per_s",
    "gen_p50_ms",
    "rss_peak_mb",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad seconds `{value}`"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        layers::run(args.workload, args.seed, args.seconds)
    } else {
        workloads::run(args.workload, args.seed, args.seconds)
    };
    let total = report.phases.total();
    let expected: Vec<&str> = if args.trace {
        layers::PER_LAYER.iter().map(|layer| layer.name).collect()
    } else {
        END_TO_END.to_vec()
    };
    let complete = expected.iter().all(|name| {
        report
            .metrics
            .iter()
            .any(|m| m.name == *name && m.value.is_finite())
    });
    let correct = total.failed == 0 && total.attempted > 0 && complete;
    print_report(&args, &report, correct);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_report(args: &Args, report: &Report, correct: bool) {
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for metric in &report.metrics {
        let role = if args.trace {
            layers::PER_LAYER
                .iter()
                .find(|layer| layer.name == metric.name)
                .map(|layer| format!("  (moves {} on {})", layer.moves, layer.on))
                .unwrap_or_default()
        } else {
            String::new()
        };
        println!(
            "{:<28} {:>16.6} {}{role}",
            metric.name, metric.value, metric.unit
        );
    }
    for metric in &report.ungated {
        println!(
            "{:<28} {:>16.6} {}  (not gated)",
            metric.name, metric.value, metric.unit
        );
    }
    let total = report.phases.total();
    println!(
        "{:<28} {:>16.6} ratio  (not gated)",
        "error_rate",
        total.failed as f64 / total.attempted.max(1) as f64
    );
    for (key, value) in &report.notes {
        println!("note {key} = {value}");
    }
    println!("{}", meta_json(args, report));
    let mut metrics = String::new();
    for metric in &report.metrics {
        if !metrics.is_empty() {
            metrics.push(',');
        }
        let _ = write!(
            metrics,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            metric.name,
            json_number(metric.value),
            metric.unit
        );
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        total.attempted.max(1),
        total.failed
    );
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// Run metadata: cores, source identity, seed, and per-phase op counts.
fn meta_json(args: &Args, report: &Report) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let phases = [
        ("setup", report.phases.setup),
        ("timed", report.phases.timed),
        ("check", report.phases.check),
    ]
    .iter()
    .map(|(name, phase)| {
        format!(
            "\"{name}\":{{\"attempted\":{},\"succeeded\":{},\"failed\":{}}}",
            phase.attempted,
            phase.attempted - phase.failed,
            phase.failed
        )
    })
    .collect::<Vec<_>>()
    .join(",");
    format!(
        "{{\"meta\":{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"available_parallelism\":{cores},\
         \"commit\":\"{}\",\"tree_hash\":\"{:016x}\",\"phases\":{{{phases}}}}}}}",
        args.workload.name(),
        args.seed,
        args.trace,
        commit(),
        tree_hash()
    )
}

/// The checked-out commit, when the checkout is a git repository.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let resolved = match head.strip_prefix("ref: ") {
        Some(name) => std::fs::read_to_string(format!(".git/{name}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_default(),
        None => head.to_string(),
    };
    if resolved.is_empty() {
        "unknown".to_string()
    } else {
        resolved
    }
}

/// FNV-1a over the paths and bytes of the measured sources, so results from
/// a checkout without git history still name the code they measured.
fn tree_hash() -> u64 {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "perfbench/src", "vendor"] {
        walk(std::path::Path::new(root), &mut files);
    }
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for file in files {
        let bytes = std::fs::read(&file).unwrap_or_default();
        for &b in file.to_string_lossy().as_bytes().iter().chain(&bytes) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}
