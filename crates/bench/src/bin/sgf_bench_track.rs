//! Continuous benchmark tracking for the reproduction suite.
//!
//! Subcommands:
//!
//! * `run` — execute the fig*/table* binaries (found next to this executable)
//!   with `SGF_BENCH_DIR` set, failing fast on the first nonzero exit, so one
//!   invocation refreshes every `BENCH_<series>.json` document.
//! * `compare` — gate the emitted documents against the last trajectory entry
//!   recorded at the same (smoke, scale); exits 1 on any regression.
//! * `append` — bundle the emitted documents into one line of the trajectory
//!   file (the new baseline).
//! * `notes` — regenerate the human-readable benchmark tables from the
//!   emitted documents.
//!
//! Exit codes: 0 success, 1 regression found, 2 usage or I/O error.

use bench::track::{self, BenchDoc, TrajectoryEntry};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: sgf-bench-track <command> [options]

commands:
  run      run the reproduction binaries, emitting BENCH_*.json into --dir
             [--dir DIR] [--scale N] [--smoke] [--bin NAME]...
  compare  gate the documents in --dir against the stored baseline
             [--dir DIR] [--trajectory FILE] [--tolerance FRACTION] [--gate-time]
  append   append the documents in --dir to the trajectory (new baseline)
             [--dir DIR] [--trajectory FILE]
  notes    regenerate the benchmark tables from the documents in --dir
             [--dir DIR] [--out FILE]

defaults: --dir artifacts, --trajectory BENCH_TRAJECTORY.jsonl, --tolerance 0.05";

/// The reproduction binaries `run` executes, in suite order.
const SUITE: [&str; 13] = [
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig_index",
    "fig_update",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
];

struct Options {
    dir: PathBuf,
    trajectory: PathBuf,
    tolerance: f64,
    gate_time: bool,
    scale: usize,
    smoke: bool,
    out: Option<PathBuf>,
    bins: Vec<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        dir: PathBuf::from("artifacts"),
        trajectory: PathBuf::from("BENCH_TRAJECTORY.jsonl"),
        tolerance: 0.05,
        gate_time: false,
        scale: 1,
        smoke: false,
        out: None,
        bins: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("`{name}` needs a value"))
        };
        match arg.as_str() {
            "--dir" => opts.dir = PathBuf::from(value("--dir")?),
            "--trajectory" => opts.trajectory = PathBuf::from(value("--trajectory")?),
            "--tolerance" => {
                opts.tolerance = value("--tolerance")?
                    .parse::<f64>()
                    .ok()
                    .filter(|t| t.is_finite() && *t >= 0.0)
                    .ok_or("`--tolerance` needs a non-negative fraction")?;
            }
            "--gate-time" => opts.gate_time = true,
            "--scale" => {
                opts.scale = value("--scale")?
                    .parse::<usize>()
                    .ok()
                    .filter(|&s| s > 0)
                    .ok_or("`--scale` needs a positive integer")?;
            }
            "--smoke" => opts.smoke = true,
            "--out" => opts.out = Some(PathBuf::from(value("--out")?)),
            "--bin" => opts.bins.push(value("--bin")?),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let opts = match parse_options(&args[1..]) {
        Ok(opts) => opts,
        Err(err) => {
            eprintln!("sgf-bench-track: {err}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match command.as_str() {
        "run" => cmd_run(&opts),
        "compare" => cmd_compare(&opts),
        "append" => cmd_append(&opts),
        "notes" => cmd_notes(&opts),
        other => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(err) => {
            eprintln!("sgf-bench-track: {err}");
            ExitCode::from(2)
        }
    }
}

/// Run the suite binaries found next to this executable, fail-fast.
fn cmd_run(opts: &Options) -> Result<ExitCode, String> {
    let bin_dir = std::env::current_exe()
        .map_err(|e| format!("cannot locate this executable: {e}"))?
        .parent()
        .ok_or("this executable has no parent directory")?
        .to_path_buf();
    std::fs::create_dir_all(&opts.dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.dir.display()))?;
    let bins: Vec<&str> = if opts.bins.is_empty() {
        SUITE.to_vec()
    } else {
        opts.bins.iter().map(String::as_str).collect()
    };
    for bin in bins {
        let path = bin_dir.join(bin);
        if !path.exists() {
            return Err(format!(
                "binary {} not found — build with `cargo build --release -p bench`",
                path.display()
            ));
        }
        eprintln!(
            "[bench-track] running {bin} (scale {}, smoke {})",
            opts.scale, opts.smoke
        );
        let mut command = std::process::Command::new(&path);
        command
            .arg(opts.scale.to_string())
            .env(track::BENCH_DIR_ENV, &opts.dir);
        if opts.smoke {
            command.env("SGF_SMOKE", "1");
        }
        let status = command
            .status()
            .map_err(|e| format!("cannot run {}: {e}", path.display()))?;
        if !status.success() {
            return Err(format!("{bin} failed with {status}"));
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Load the emitted documents and check they share one (smoke, scale).
fn load_run(opts: &Options) -> Result<(Vec<BenchDoc>, TrajectoryEntry), String> {
    let docs = track::read_docs(&opts.dir)?;
    if docs.is_empty() {
        return Err(format!(
            "no BENCH_*.json documents in {} — run the suite first (see `sgf-bench-track run`)",
            opts.dir.display()
        ));
    }
    let entry = TrajectoryEntry::from_docs(docs.clone())?;
    Ok((docs, entry))
}

fn cmd_compare(opts: &Options) -> Result<ExitCode, String> {
    let (docs, entry) = load_run(opts)?;
    let history = track::read_trajectory(&opts.trajectory)?;
    let Some(baseline) = track::find_baseline(&history, entry.smoke, entry.scale) else {
        println!(
            "no baseline for (smoke {}, scale {}) in {} — nothing to compare; \
             record one with `sgf-bench-track append`",
            entry.smoke,
            entry.scale,
            opts.trajectory.display()
        );
        return Ok(ExitCode::SUCCESS);
    };
    let regressions = track::compare(&docs, baseline, opts.tolerance, opts.gate_time);
    println!(
        "compared {} series against baseline commit {} (smoke {}, scale {}, tolerance {:.1}%{})",
        docs.len(),
        baseline.commit,
        entry.smoke,
        entry.scale,
        opts.tolerance * 100.0,
        if opts.gate_time { ", gating time" } else { "" }
    );
    if regressions.is_empty() {
        println!("OK: no regressions");
        return Ok(ExitCode::SUCCESS);
    }
    for regression in &regressions {
        println!("REGRESSION: {regression}");
    }
    println!("{} regression(s) found", regressions.len());
    Ok(ExitCode::from(1))
}

fn cmd_append(opts: &Options) -> Result<ExitCode, String> {
    let (_, entry) = load_run(opts)?;
    track::append_trajectory(&opts.trajectory, &entry)?;
    println!(
        "appended {} series at commit {} (smoke {}, scale {}) to {}",
        entry.series.len(),
        entry.commit,
        entry.smoke,
        entry.scale,
        opts.trajectory.display()
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_notes(opts: &Options) -> Result<ExitCode, String> {
    let (docs, entry) = load_run(opts)?;
    let notes = render_notes(&docs, &entry);
    match &opts.out {
        Some(path) => {
            std::fs::write(path, &notes)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            println!("wrote {}", path.display());
        }
        None => print!("{notes}"),
    }
    Ok(ExitCode::SUCCESS)
}

/// Render the benchmark tables (BENCH_NOTES.md) from a run's documents.
fn render_notes(docs: &[BenchDoc], entry: &TrajectoryEntry) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let mode = if entry.smoke { "smoke" } else { "full" };
    let _ = writeln!(out, "# Benchmark notes — reference wall clocks\n");
    let _ = writeln!(
        out,
        "> Generated by `sgf-bench-track notes` from the machine-readable\n\
         > `BENCH_*.json` documents emitted by the reproduction suite\n\
         > ({} mode, scale {}) on the tree at HEAD `{}` when it ran: the\n\
         > parent of the commit that records these numbers.  Do not edit the\n\
         > tables by hand — rerun `scripts/repro.sh` and `sgf-bench-track\n\
         > notes` instead.\n\
         > Wall clocks are machine-dependent; the counters are deterministic\n\
         > and gated by `sgf-bench-track compare`.\n",
        mode, entry.scale, entry.commit
    );
    let _ = writeln!(out, "## Suite totals\n");
    let _ = writeln!(
        out,
        "| series | wall clock (s) | released | candidates | records examined |"
    );
    let _ = writeln!(out, "|---|---:|---:|---:|---:|");
    for doc in docs {
        let Some(total) = doc.point("total") else {
            continue;
        };
        let count = |name: &str| match total.counters.get(name) {
            Some(v) => v.to_string(),
            None => "—".to_string(),
        };
        let _ = writeln!(
            out,
            "| {} | {:.1} | {} | {} | {} |",
            doc.series,
            total.values.get("wall_seconds").copied().unwrap_or(0.0),
            count("released"),
            count("candidates"),
            count("records_examined"),
        );
    }
    for doc in docs {
        let sweep: Vec<_> = doc.points.iter().filter(|p| p.label != "total").collect();
        if sweep.is_empty() {
            continue;
        }
        let mut counter_keys = std::collections::BTreeSet::new();
        let mut value_keys = std::collections::BTreeSet::new();
        for point in &sweep {
            counter_keys.extend(point.counters.keys().cloned());
            value_keys.extend(point.values.keys().cloned());
        }
        let _ = writeln!(out, "\n## `{}` sweep\n", doc.series);
        let _ = write!(out, "| point |");
        for key in counter_keys.iter().chain(value_keys.iter()) {
            let _ = write!(out, " {} |", key.replace('_', " "));
        }
        let _ = write!(out, "\n|---|");
        for _ in counter_keys.iter().chain(value_keys.iter()) {
            let _ = write!(out, "---:|");
        }
        let _ = writeln!(out);
        for point in &sweep {
            let noisy = if point.noisy { " \\*" } else { "" };
            let _ = write!(out, "| {}{noisy} |", point.label);
            for key in &counter_keys {
                match point.counters.get(key) {
                    Some(v) => {
                        let _ = write!(out, " {v} |");
                    }
                    None => {
                        let _ = write!(out, " — |");
                    }
                }
            }
            for key in &value_keys {
                match point.values.get(key) {
                    Some(v) => {
                        let _ = write!(out, " {v:.3} |");
                    }
                    None => {
                        let _ = write!(out, " — |");
                    }
                }
            }
            let _ = writeln!(out);
        }
        if sweep.iter().any(|p| p.noisy) {
            let _ = writeln!(
                out,
                "\n\\* noisy point: counters depend on thread timing (multi-worker run) \
                 and are exempt from regression gating; the released records themselves \
                 stay deterministic."
            );
        }
    }
    let _ = writeln!(
        out,
        "\n## Reading the tables\n\n\
         * `fig_index`: scan, inverted index, partition store, and σ-prefix\n\
         \x20 store released byte-identical records in every configuration, and\n\
         \x20 scan and σ-prefix store also under a `max_check_plausible` cap\n\
         \x20 below the seed count — asserted by the binary itself, so a\n\
         \x20 seed-store divergence fails `repro.sh` and CI.\n\
         * `fig5_workers`: the released records are identical at every\n\
         \x20 worker count. `candidates`, `selection_locks` (shared-heap\n\
         \x20 merges: one per claimed rank block that held a pass) and\n\
         \x20 `outranked_passes` (passing proposals that lost the rank race)\n\
         \x20 still depend on thread timing at more than one worker, so those\n\
         \x20 points stay noisy.\n\
         * Smoke mode (`scripts/repro.sh --smoke`) runs the same suite at\n\
         \x20 reduced sizes; its deterministic counters form the CI baseline in\n\
         \x20 `BENCH_TRAJECTORY.jsonl`."
    );
    out
}
