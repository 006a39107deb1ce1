//! Privacy-test pass-rate sweep (Figure 6).
//!
//! For fixed γ, vary the plausible-deniability parameter k and the number of
//! re-sampled attributes ω, and measure the fraction of candidate synthetics
//! that pass the (deterministic) privacy test.

use rand::Rng;
use sgf_core::{Mechanism, PrivacyTestConfig};
use sgf_data::Dataset;
use sgf_model::{CptStore, OmegaSpec, SeedSynthesizer};
use std::sync::Arc;

/// Pass rates for one ω setting across a sweep of k values.
#[derive(Debug, Clone)]
pub struct PassRateSeries {
    /// The ω setting the series was measured for.
    pub omega: OmegaSpec,
    /// The k values swept.
    pub k_values: Vec<usize>,
    /// Fraction of candidates passing the test at each k.
    pub pass_rates: Vec<f64>,
}

/// Configuration of the sweep.
#[derive(Debug, Clone)]
pub struct PassRateConfig {
    /// Indistinguishability parameter γ (the paper uses 2 for Figure 6).
    pub gamma: f64,
    /// k values to sweep.
    pub k_values: Vec<usize>,
    /// ω settings to sweep.
    pub omegas: Vec<OmegaSpec>,
    /// Candidates generated per (k, ω) point.
    pub candidates_per_point: usize,
    /// `max_check_plausible` early-termination knob.
    pub max_check_plausible: Option<usize>,
}

impl Default for PassRateConfig {
    fn default() -> Self {
        PassRateConfig {
            gamma: 2.0,
            k_values: vec![10, 25, 50, 100, 150, 250],
            omegas: vec![
                OmegaSpec::Fixed(7),
                OmegaSpec::Fixed(8),
                OmegaSpec::Fixed(9),
                OmegaSpec::Fixed(10),
                OmegaSpec::UniformRange { lo: 5, hi: 11 },
            ],
            candidates_per_point: 200,
            max_check_plausible: Some(100_000),
        }
    }
}

/// Run the sweep: for every ω and k, generate candidates with the seed-based
/// synthesizer and measure the deterministic-test pass rate.
pub fn pass_rate_sweep<R: Rng>(
    cpts: &Arc<CptStore>,
    seeds: &Dataset,
    config: &PassRateConfig,
    rng: &mut R,
) -> Vec<PassRateSeries> {
    let m = cpts.schema().len();
    config
        .omegas
        .iter()
        .map(|&omega| {
            omega
                .validate(m)
                .expect("omega settings must be valid for the schema");
            let mut pass_rates = Vec::with_capacity(config.k_values.len());
            for &k in &config.k_values {
                let test = PrivacyTestConfig::deterministic(k, config.gamma)
                    .with_limits(None, config.max_check_plausible);
                let mut passed = 0usize;
                for _ in 0..config.candidates_per_point {
                    let w = omega.sample(rng);
                    let synthesizer =
                        SeedSynthesizer::new(Arc::clone(cpts), w).expect("validated omega");
                    let mechanism = Mechanism::new(&synthesizer, seeds, test)
                        .expect("seed dataset is large enough for every k in the sweep");
                    if mechanism
                        .propose(rng)
                        .expect("valid test configuration")
                        .released()
                    {
                        passed += 1;
                    }
                }
                pass_rates.push(passed as f64 / config.candidates_per_point as f64);
            }
            PassRateSeries {
                omega,
                k_values: config.k_values.clone(),
                pass_rates,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sgf_data::acs::{acs_bucketizer, acs_schema, generate_acs};
    use sgf_data::{split_dataset, SplitSpec};
    use sgf_model::{learn_dependency_structure, ParameterConfig, StructureConfig};

    #[test]
    fn pass_rate_decreases_with_k_and_increases_with_omega() {
        let data = generate_acs(4000, 61);
        let bkt = acs_bucketizer(&acs_schema());
        let mut rng = StdRng::seed_from_u64(1);
        let split = split_dataset(&data, &SplitSpec::paper_defaults(), &mut rng).unwrap();
        let structure =
            learn_dependency_structure(&split.structure, &bkt, &StructureConfig::exact(), &mut rng)
                .unwrap();
        let cpts = Arc::new(
            CptStore::learn(
                &split.parameters,
                &bkt,
                &structure.graph,
                ParameterConfig::default(),
            )
            .unwrap(),
        );

        let config = PassRateConfig {
            gamma: 2.0,
            k_values: vec![5, 100],
            omegas: vec![OmegaSpec::Fixed(5), OmegaSpec::Fixed(11)],
            candidates_per_point: 60,
            max_check_plausible: Some(2000),
        };
        let series = pass_rate_sweep(&cpts, &split.seeds, &config, &mut rng);
        assert_eq!(series.len(), 2);
        for s in &series {
            assert_eq!(s.pass_rates.len(), 2);
            assert!(s.pass_rates.iter().all(|&r| (0.0..=1.0).contains(&r)));
            // Larger k is a stricter test.
            assert!(s.pass_rates[0] >= s.pass_rates[1]);
        }
        // Re-sampling every attribute (omega = m) yields seed-independent
        // candidates, which pass far more easily than omega = 5 at large k.
        let low_omega = &series[0];
        let high_omega = &series[1];
        assert!(
            high_omega.pass_rates[1] >= low_omega.pass_rates[1],
            "omega=11 at k=100 ({}) should pass at least as often as omega=5 ({})",
            high_omega.pass_rates[1],
            low_omega.pass_rates[1]
        );
    }
}
