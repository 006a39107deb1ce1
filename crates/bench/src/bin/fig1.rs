//! Figure 1: relative improvement of model accuracy over the marginals for
//! the un-noised, (ε=1)-DP, and (ε=0.1)-DP generative models.

use bench::{build_context, scale_from_args};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sgf_data::acs::SHORT_NAMES;
use sgf_eval::model_accuracy::{generative_model_accuracy, marginal_accuracy};
use sgf_eval::TextTable;
use sgf_model::{BayesNetModel, CptStore, ParameterConfig, StructureConfig};
use sgf_stats::{calibrate_epsilon_h, calibrate_epsilon_p};
use std::sync::Arc;

fn private_model(ctx: &bench::ExperimentContext, epsilon: f64, seed: u64) -> BayesNetModel {
    let m = ctx.population.schema().len();
    let eps_h = calibrate_epsilon_h(m, 0.01, 1e-9, epsilon).max(1e-4);
    let eps_p = calibrate_epsilon_p(m, 1e-9, epsilon).max(1e-4);
    let mut rng = StdRng::seed_from_u64(seed);
    let structure = sgf_model::learn_structure_from_counts(
        &ctx.models.structure_counts,
        &ctx.bucketizer,
        &StructureConfig::private(eps_h, 0.01),
        &mut rng,
    )
    .expect("structure learning succeeds");
    let cpts = CptStore::learn(
        &ctx.split.parameters,
        &ctx.bucketizer,
        &structure.graph,
        ParameterConfig {
            epsilon_p: Some(eps_p),
            global_seed: seed,
            ..ParameterConfig::default()
        },
    )
    .expect("parameter learning succeeds");
    BayesNetModel::new(Arc::new(cpts))
}

fn main() {
    let scale = scale_from_args();
    let recorder = bench::track::SeriesRecorder::new("fig1", scale);
    let ctx = build_context(scale, 101);
    let probes = 300 * scale;
    let repetitions = 3usize; // the paper averages 20 private models; reduced for wall-clock

    let mut rng = StdRng::seed_from_u64(7);
    let marg = marginal_accuracy(&ctx.models.marginal, &ctx.split.test);
    let exact = generative_model_accuracy(&ctx.models.bayes_net, &ctx.split.test, probes, &mut rng);

    let mut avg = |epsilon: f64| -> Vec<f64> {
        let mut acc = vec![0.0; ctx.population.schema().len()];
        for rep in 0..repetitions {
            let model = private_model(&ctx, epsilon, 1000 + rep as u64);
            let a = generative_model_accuracy(&model, &ctx.split.test, probes, &mut rng);
            for (s, v) in acc.iter_mut().zip(a) {
                *s += v / repetitions as f64;
            }
        }
        acc
    };
    let eps1 = avg(1.0);
    let eps01 = avg(0.1);

    let improvement = |gen: &[f64]| -> Vec<f64> {
        gen.iter()
            .zip(marg.iter())
            .map(|(&g, &m)| if m > 0.0 { (g - m) / m } else { 0.0 })
            .collect()
    };

    let mut table = TextTable::new(&["Attribute", "No Noise", "eps = 1", "eps = 0.1"]);
    let no_noise = improvement(&exact);
    let i1 = improvement(&eps1);
    let i01 = improvement(&eps01);
    for (i, name) in SHORT_NAMES.iter().enumerate() {
        table.add_row(&[
            name.to_string(),
            format!("{:+.1}%", 100.0 * no_noise[i]),
            format!("{:+.1}%", 100.0 * i1[i]),
            format!("{:+.1}%", 100.0 * i01[i]),
        ]);
    }
    println!("Figure 1: Relative improvement of model accuracy over marginals (scale {scale})\n");
    println!("{}", table.render());
    recorder.finish();
}
