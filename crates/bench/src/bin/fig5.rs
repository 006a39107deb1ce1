//! Figure 5: synthetic-generation performance (model learning + synthesis
//! time against the number of synthetics produced), ω = 9, k = 50, γ = 4 —
//! plus the worker-scaling sweep (series `fig5_workers`) that tracks parallel
//! release throughput at 1–32 workers.

use bench::track::{BenchPoint, SeriesRecorder};
use bench::{base_population, experiment_pipeline_config, scale_from_args, smoke_mode};
use sgf_core::{GenerateRequest, SynthesisEngine};
use sgf_data::acs::{acs_bucketizer, acs_schema, generate_acs};
use sgf_eval::{performance_curve, TextTable};
use sgf_model::OmegaSpec;

/// Worker counts of the scaling sweep.
const WORKER_COUNTS: [usize; 6] = [1, 2, 4, 8, 16, 32];

fn main() {
    let scale = scale_from_args();
    let population = generate_acs(base_population() * scale, 105);
    let bucketizer = acs_bucketizer(&acs_schema());
    let mut config = experiment_pipeline_config(1, 105);
    config.omega = OmegaSpec::Fixed(9);

    // Smoke mode shrinks the curve alongside the population so the artifact
    // smoke suite is not dominated by this one binary.
    let base_sizes: [usize; 4] = if smoke_mode() {
        [25, 50, 100, 200]
    } else {
        [250, 500, 1000, 2000]
    };
    let sizes: Vec<usize> = base_sizes.iter().map(|s| s * scale).collect();

    let mut recorder = SeriesRecorder::new("fig5", scale);
    let points =
        performance_curve(&population, &bucketizer, &config, &sizes).expect("pipeline runs");

    let mut table = TextTable::new(&[
        "Requested",
        "Released",
        "Candidates",
        "Model learning (s)",
        "Synthesis (s)",
    ]);
    for p in &points {
        table.add_row(&[
            p.requested.to_string(),
            p.released.to_string(),
            p.candidates.to_string(),
            format!("{:.2}", p.model_learning.as_secs_f64()),
            format!("{:.2}", p.synthesis.as_secs_f64()),
        ]);
        recorder.add(
            BenchPoint::new(format!("n{:04}", p.requested))
                .counter("requested", p.requested as u64)
                .counter("released", p.released as u64)
                .counter("candidates", p.candidates as u64)
                .value("model_learning_seconds", p.model_learning.as_secs_f64())
                .value("synthesis_seconds", p.synthesis.as_secs_f64()),
        );
    }
    println!("Figure 5: Synthetic generation performance (omega = 9, k = 50, gamma = 4, scale {scale})\n");
    println!("{}", table.render());
    recorder.finish();

    // Worker-scaling sweep: the same request served at 1-32 workers from one
    // trained session.  The released records are identical at every worker
    // count, but proposal counters at >1 workers depend on thread timing, so
    // those points are marked noisy and exempt from regression gating.
    let mut recorder = SeriesRecorder::new("fig5_workers", scale);
    let target = base_sizes[1] * scale;
    let session = SynthesisEngine::from_config(config)
        .train(&population, &bucketizer)
        .expect("model learning on the generated population succeeds");

    let mut table = TextTable::new(&[
        "Workers",
        "Released",
        "Candidates",
        "Synthesis (s)",
        "Throughput (rec/s)",
    ]);
    for &workers in &WORKER_COUNTS {
        // The selection-lock / outranked-pass deltas around each request are
        // the contention profile: shared-heap merges (one per claimed rank
        // block that held a pass) and wasted passing proposals at this
        // worker count.
        let before = sgf_metrics::global().snapshot();
        let report = session
            .generate(
                &GenerateRequest::new(target)
                    .with_omega(OmegaSpec::Fixed(9))
                    .with_seed(105)
                    .with_workers(workers),
            )
            .expect("parallel release succeeds");
        let profile = sgf_metrics::global().snapshot().delta(&before);
        let seconds = report.synthesis.as_secs_f64();
        let throughput = report.stats.released as f64 / seconds.max(1e-9);
        table.add_row(&[
            workers.to_string(),
            report.stats.released.to_string(),
            report.stats.candidates.to_string(),
            format!("{seconds:.2}"),
            format!("{throughput:.0}"),
        ]);
        let mut point = BenchPoint::new(format!("w{workers:02}"))
            .counter("workers", workers as u64)
            .counter("released", report.stats.released as u64)
            .counter("candidates", report.stats.candidates as u64)
            .counter("records_examined", report.stats.records_examined as u64)
            .counter(
                "selection_locks",
                profile.counter("core.mechanism.selection_locks"),
            )
            .counter(
                "outranked_passes",
                profile.counter("core.mechanism.outranked_passes"),
            )
            .value("synthesis_seconds", seconds)
            .value("throughput_rps", throughput);
        if workers > 1 {
            point = point.noisy();
        }
        recorder.add(point);
    }
    println!("Figure 5 (cont.): worker scaling, {target} synthetics per request\n");
    println!("{}", table.render());
    recorder.finish();
}
