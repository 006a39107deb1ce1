//! Figure 6: percentage of candidate synthetics passing the privacy test for
//! various k and ω (γ = 2).
//!
//! Every k reads the same candidates (one plausible count each, see
//! `sgf_eval::pass_rate`), so each series must be non-increasing in k.  The
//! binary asserts it and prints a confirmation line, which `repro.sh` gates.

use bench::{experiment_pipeline_config, scale_from_args};
use sgf_core::SynthesisEngine;
use sgf_data::acs::{acs_bucketizer, acs_schema, generate_acs};
use sgf_eval::{pass_rate_sweep, percent, PassRateConfig, TextTable};

fn main() {
    let scale = scale_from_args();
    let recorder = bench::track::SeriesRecorder::new("fig6", scale);
    let population = generate_acs(6_000, 106);
    let bucketizer = acs_bucketizer(&acs_schema());
    let session = SynthesisEngine::from_config(experiment_pipeline_config(100, 106))
        .train(&population, &bucketizer)
        .expect("model learning on the generated population succeeds");

    let config = PassRateConfig {
        candidates_per_point: 100 * scale,
        k_values: vec![10, 25, 50, 100, 150, 250],
        ..PassRateConfig::default()
    };
    let series = pass_rate_sweep(&session.models().cpts, session.seeds(), &config, 106);

    let mut header: Vec<String> = vec!["omega \\ k".to_string()];
    header.extend(config.k_values.iter().map(|k| k.to_string()));
    let mut table = TextTable::new(&header);
    for s in &series {
        let mut row = vec![s.omega.label()];
        row.extend(s.pass_rates.iter().map(|&r| percent(r)));
        table.add_row(&row);
    }
    println!(
        "Figure 6: Percentage of candidates passing the privacy test (gamma = 2, scale {scale})\n"
    );
    println!("{}", table.render());
    for s in &series {
        assert!(
            s.pass_rates.windows(2).all(|pair| pair[0] >= pair[1]),
            "{} is not non-increasing in k: {:?}",
            s.omega.label(),
            s.pass_rates
        );
    }
    println!("every omega's pass rate is non-increasing in k");
    recorder.finish();
}
