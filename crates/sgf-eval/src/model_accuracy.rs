//! Model-accuracy probes (Figures 1 and 2).
//!
//! For every attribute, repeatedly pick a record uniformly at random and ask a
//! predictor for the most likely value of that attribute given the rest; the
//! model accuracy is the fraction of correct guesses.  Figure 2 compares the
//! generative model, a random forest, the marginals, and random guessing;
//! Figure 1 reports the *relative improvement* over the marginals for the
//! un-noised and ε-DP generative models.

use rand::Rng;
use sgf_data::Dataset;
use sgf_ml::{Classifier, ForestConfig, RandomForest};
use sgf_model::{BayesNetModel, MarginalModel};
use sgf_stats::Histogram;

/// Per-attribute accuracies of the four predictors of Figure 2.
#[derive(Debug, Clone, Default)]
pub struct ModelAccuracy {
    /// Accuracy of the Bayesian-network generative model.
    pub generative: Vec<f64>,
    /// Accuracy of a random forest trained to predict each attribute.
    pub random_forest: Vec<f64>,
    /// Accuracy of predicting the marginal mode.
    pub marginals: Vec<f64>,
    /// Accuracy of uniformly random guessing (1 / cardinality).
    pub random: Vec<f64>,
}

impl ModelAccuracy {
    /// Relative improvement of the generative model over the marginals,
    /// per attribute: `(acc_gen - acc_marg) / acc_marg` (Figure 1's y-axis).
    pub fn relative_improvement(&self) -> Vec<f64> {
        self.generative
            .iter()
            .zip(self.marginals.iter())
            .map(|(&g, &m)| if m > 0.0 { (g - m) / m } else { 0.0 })
            .collect()
    }
}

/// Accuracy of the generative model's most-likely-value prediction, per attribute.
pub fn generative_model_accuracy<R: Rng + ?Sized>(
    model: &BayesNetModel,
    evaluation: &Dataset,
    probes_per_attribute: usize,
    rng: &mut R,
) -> Vec<f64> {
    let m = evaluation.schema().len();
    (0..m)
        .map(|attr| {
            let mut correct = 0usize;
            for _ in 0..probes_per_attribute {
                let record = evaluation
                    .sample_record(rng)
                    .expect("evaluation dataset must not be empty");
                if model.predict_attribute(record, attr) == record.get(attr) {
                    correct += 1;
                }
            }
            correct as f64 / probes_per_attribute as f64
        })
        .collect()
}

/// Index of the largest non-NaN value (lowest index wins ties; 0 when the
/// slice is empty or all-NaN).  `total_cmp` keeps the comparator total, and
/// the NaN filter keeps a corrupted marginal cell from *winning* the argmax
/// (total_cmp orders positive NaN above +inf).
fn argmax(values: &[f64]) -> usize {
    values
        .iter()
        .enumerate()
        .filter(|(_, v)| !v.is_nan())
        .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(&a.0)))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// Accuracy of predicting each attribute by its marginal mode.
pub fn marginal_accuracy(marginal: &MarginalModel, evaluation: &Dataset) -> Vec<f64> {
    let m = evaluation.schema().len();
    (0..m)
        .map(|attr| {
            let mode = argmax(marginal.marginal(attr)) as u16;
            let hist = Histogram::from_column(evaluation, attr);
            if hist.total() == 0 {
                0.0
            } else {
                hist.count(mode as usize) as f64 / hist.total() as f64
            }
        })
        .collect()
}

/// Accuracy of uniformly random guessing per attribute (1 / cardinality).
pub fn random_guess_accuracy(evaluation: &Dataset) -> Vec<f64> {
    evaluation
        .schema()
        .cardinalities()
        .into_iter()
        .map(|c| 1.0 / c as f64)
        .collect()
}

/// Accuracy of a random forest trained (on `train`) to predict each attribute
/// from the others.  Attributes with more than two values are reduced to the
/// "is the majority value" binary task, which keeps the forest binary while
/// still measuring how informative the other attributes are.
pub fn random_forest_accuracy<R: Rng + ?Sized>(
    train: &Dataset,
    evaluation: &Dataset,
    config: &ForestConfig,
    rng: &mut R,
) -> Vec<f64> {
    let m = train.schema().len();
    (0..m)
        .map(|attr| {
            let hist = Histogram::from_column(train, attr);
            let majority = hist.mode() as u16;
            let to_binary = |dataset: &Dataset| {
                let mut ml = sgf_ml::MlDataset::default();
                for record in dataset.records() {
                    let features: Vec<f64> = (0..m)
                        .filter(|&a| a != attr)
                        .map(|a| record.get(a) as f64)
                        .collect();
                    ml.features.push(features);
                    ml.labels.push(u8::from(record.get(attr) == majority));
                }
                ml
            };
            let train_ml = to_binary(train);
            let eval_ml = to_binary(evaluation);
            let forest = RandomForest::fit(&train_ml, config, rng);
            // Translate back: "majority" prediction counts as correct when the
            // true value is the majority value and vice versa.
            let correct = eval_ml
                .features
                .iter()
                .zip(eval_ml.labels.iter())
                .filter(|(f, &l)| forest.predict(f) == l)
                .count();
            correct as f64 / eval_ml.len().max(1) as f64
        })
        .collect()
}

/// Compute all four accuracy series of Figure 2.
#[allow(clippy::too_many_arguments)]
pub fn model_accuracy<R: Rng + ?Sized>(
    model: &BayesNetModel,
    marginal: &MarginalModel,
    train: &Dataset,
    evaluation: &Dataset,
    probes_per_attribute: usize,
    forest_config: &ForestConfig,
    rng: &mut R,
) -> ModelAccuracy {
    ModelAccuracy {
        generative: generative_model_accuracy(model, evaluation, probes_per_attribute, rng),
        random_forest: random_forest_accuracy(train, evaluation, forest_config, rng),
        marginals: marginal_accuracy(marginal, evaluation),
        random: random_guess_accuracy(evaluation),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sgf_core::{learn_models, PipelineConfig};
    use sgf_data::acs::{acs_bucketizer, acs_schema, generate_acs};
    use sgf_data::{split_dataset_by_hash, SplitSpec};

    fn setup() -> (BayesNetModel, MarginalModel, Dataset, Dataset) {
        let data = generate_acs(4000, 21);
        let bkt = acs_bucketizer(&acs_schema());
        let split = split_dataset_by_hash(&data, &SplitSpec::paper_defaults(), 1).unwrap();
        let models = learn_models(&PipelineConfig::paper_defaults(1), &split, &bkt).unwrap();
        (
            models.bayes_net,
            models.marginal,
            split.parameters,
            split.test,
        )
    }

    #[test]
    fn generative_model_beats_random_guessing_on_average() {
        let (model, marginal, train, test) = setup();
        let mut rng = StdRng::seed_from_u64(2);
        let forest_cfg = ForestConfig {
            trees: 5,
            ..ForestConfig::default()
        };
        let acc = model_accuracy(&model, &marginal, &train, &test, 150, &forest_cfg, &mut rng);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert_eq!(acc.generative.len(), 11);
        assert!(
            mean(&acc.generative) > mean(&acc.random),
            "generative should beat random"
        );
        assert!(mean(&acc.marginals) >= mean(&acc.random));
        // All series are probabilities.
        for series in [
            &acc.generative,
            &acc.random_forest,
            &acc.marginals,
            &acc.random,
        ] {
            assert!(series.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
        let improvement = acc.relative_improvement();
        assert_eq!(improvement.len(), 11);
    }

    #[test]
    fn argmax_survives_nan_cells_and_breaks_ties_low() {
        // Regression: the old `max_by(partial_cmp(..).expect(..))` panicked
        // on a NaN marginal cell; a NaN must neither panic nor win.
        assert_eq!(argmax(&[0.1, f64::NAN, 0.7, 0.2]), 2);
        assert_eq!(argmax(&[f64::NAN, f64::NAN]), 0);
        assert_eq!(argmax(&[]), 0);
        assert_eq!(argmax(&[0.4, 0.4, 0.2]), 0, "ties go to the lowest index");
        assert_eq!(argmax(&[f64::NEG_INFINITY, -0.0, 0.0]), 2);
    }

    #[test]
    fn random_guess_accuracy_is_inverse_cardinality() {
        let data = generate_acs(50, 3);
        let acc = random_guess_accuracy(&data);
        assert!((acc[sgf_data::acs::attr::SEX] - 0.5).abs() < 1e-12);
        assert!((acc[sgf_data::acs::attr::AGE] - 1.0 / 80.0).abs() < 1e-12);
    }
}
