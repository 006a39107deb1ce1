//! Privacy-test pass-rate sweep (Figure 6).
//!
//! For fixed γ (the paper uses γ = 2), vary the plausible-deniability
//! parameter k and the number of re-sampled attributes ω, and measure the
//! fraction of candidate synthetics that pass the deterministic privacy test
//! (Privacy Test 1: pass iff the plausible-seed count K reaches k).
//!
//! Per ω setting the sweep draws N candidates once, rank r from its
//! [`proposal_seed`]`(request_seed, r)` stream as a session release draws it
//! (the ω choice, then [`Mechanism::propose`]), and reads each candidate's K
//! once: the proposal is tested against a σ-prefix store built at the sweep's
//! smallest ω, whose [`SeedStore::prefix_count`] answers in closed form, under
//! a threshold of |D_S| that stops no count.  Every k shares that one K per
//! candidate: the pass at k is `K ≥ k`, so each series is non-increasing in k
//! exactly.  The scan ([`Mechanism::new`] with
//! [`PrivacyTestConfig::deterministic`]`(k, γ)`) stays the reference in the
//! tests.
//!
//! [`SeedStore::prefix_count`]: sgf_core::SeedStore::prefix_count

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sgf_core::{proposal_seed, Mechanism, PrefixIndexStore, PrivacyTestConfig};
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
    /// The plausible-seed count K of each candidate, by rank.
    pub plausible_counts: Vec<usize>,
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
    /// Candidates drawn per ω setting, shared by every k.
    pub candidates_per_point: usize,
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
        }
    }
}

/// Run the sweep: for every ω, draw the candidates of ranks
/// `0..candidates_per_point` of a request seeded with `request_seed`, and
/// report the share whose plausible count reaches each k.
pub fn pass_rate_sweep(
    cpts: &Arc<CptStore>,
    seeds: &Dataset,
    config: &PassRateConfig,
    request_seed: u64,
) -> Vec<PassRateSeries> {
    for omega in &config.omegas {
        omega
            .validate(cpts.schema().len())
            .expect("omega settings must be valid for the schema");
    }
    let smallest = config
        .omegas
        .iter()
        .map(|omega| *omega.range().start())
        .min()
        .expect("the sweep needs at least one omega setting");
    let sigma = SeedSynthesizer::new(Arc::clone(cpts), smallest).expect("validated omega");
    let store = PrefixIndexStore::build(seeds, sigma.sigma()).expect("seed schema matches");
    let count_all = PrivacyTestConfig::deterministic(seeds.len(), config.gamma);
    let n = config.candidates_per_point;
    config
        .omegas
        .iter()
        .map(|&omega| {
            let synthesizers: Vec<SeedSynthesizer> = omega
                .range()
                .map(|w| SeedSynthesizer::new(Arc::clone(cpts), w).expect("validated omega"))
                .collect();
            let mechanisms: Vec<Mechanism<'_, SeedSynthesizer>> = synthesizers
                .iter()
                .map(|model| Mechanism::with_store(model, seeds, &store, count_all))
                .collect::<Result<_, _>>()
                .expect("gamma must be valid and the seeds non-empty");
            let plausible_counts: Vec<usize> = (0..n)
                .map(|rank| {
                    let mut rng = StdRng::seed_from_u64(proposal_seed(request_seed, rank));
                    let which = match mechanisms.len() {
                        1 => 0,
                        len => rng.gen_range(0..len),
                    };
                    let report = mechanisms[which].propose(&mut rng);
                    report.expect("validated test").outcome.plausible_seeds
                })
                .collect();
            let pass_rates = config
                .k_values
                .iter()
                .map(|&k| plausible_counts.iter().filter(|&&c| c >= k).count() as f64 / n as f64)
                .collect();
            PassRateSeries {
                omega,
                k_values: config.k_values.clone(),
                pass_rates,
                plausible_counts,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgf_core::{learn_models, PipelineConfig};
    use sgf_data::acs::{acs_bucketizer, acs_schema, generate_acs};
    use sgf_data::{split_dataset_by_hash, DataSplit, SplitSpec};

    fn setup() -> (DataSplit, Arc<CptStore>) {
        let data = generate_acs(4000, 61);
        let bkt = acs_bucketizer(&acs_schema());
        let split = split_dataset_by_hash(&data, &SplitSpec::paper_defaults(), 1).unwrap();
        let models = learn_models(&PipelineConfig::paper_defaults(1), &split, &bkt).unwrap();
        (split, models.cpts)
    }

    #[test]
    fn pass_rate_decreases_with_k_and_increases_with_omega() {
        let (split, cpts) = setup();
        let config = PassRateConfig {
            gamma: 2.0,
            k_values: vec![5, 100],
            omegas: vec![OmegaSpec::Fixed(5), OmegaSpec::Fixed(11)],
            candidates_per_point: 60,
        };
        let series = pass_rate_sweep(&cpts, &split.seeds, &config, 1);
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

    #[test]
    fn sweep_decisions_match_the_scan_oracle_at_every_k() {
        let (split, cpts) = setup();
        let config = PassRateConfig {
            k_values: vec![1, 5, 10, 25, 50, 100, 150],
            omegas: vec![
                OmegaSpec::Fixed(9),
                OmegaSpec::UniformRange { lo: 7, hi: 11 },
            ],
            candidates_per_point: 40,
            ..PassRateConfig::default()
        };
        for s in pass_rate_sweep(&cpts, &split.seeds, &config, 17) {
            let synthesizers: Vec<SeedSynthesizer> = (s.omega.range())
                .map(|w| SeedSynthesizer::new(Arc::clone(&cpts), w).unwrap())
                .collect();
            for (&k, &rate) in s.k_values.iter().zip(&s.pass_rates) {
                let test = PrivacyTestConfig::deterministic(k, config.gamma);
                let mut passed = 0;
                for (rank, &count) in s.plausible_counts.iter().enumerate() {
                    // The scan oracle replays the rank as a session release does.
                    let mut rng = StdRng::seed_from_u64(proposal_seed(17, rank));
                    let which = match synthesizers.len() {
                        1 => 0,
                        len => rng.gen_range(0..len),
                    };
                    let mechanism = Mechanism::new(&synthesizers[which], &split.seeds, test);
                    let released = mechanism.unwrap().propose(&mut rng).unwrap().released();
                    let label = s.omega.label();
                    assert_eq!(
                        released,
                        count >= k,
                        "{label}, rank {rank}, k {k}, K {count}"
                    );
                    passed += usize::from(released);
                }
                assert_eq!(rate, passed as f64 / 40.0);
            }
            // The k grid moves decisions, so the agreement is not vacuous.
            assert!(s.pass_rates[0] > s.pass_rates[s.pass_rates.len() - 1]);
        }
    }
}
