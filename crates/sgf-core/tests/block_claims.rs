//! Multi-rank block claims at `workers > 1` release exactly what one worker
//! and a stream release, though a block merges several passes per
//! selection lock.

use sgf_core::{GenerateRequest, PrivacyTestConfig, SynthesisEngine};
use sgf_data::acs::{acs_bucketizer, acs_schema, generate_acs};
use sgf_data::Record;
use sgf_model::OmegaSpec;

#[test]
fn multi_rank_blocks_release_the_one_worker_records() {
    // A 400-record target claims blocks of 12, 6 and 3 ranks at 2, 4 and 8
    // workers; the capped test (cap 2,000 of the seeds) draws each pass's
    // plausible count from its law.
    let data = generate_acs(4000, 44);
    let bkt = acs_bucketizer(&acs_schema());
    let session = SynthesisEngine::builder()
        .privacy_test(PrivacyTestConfig::randomized(20, 4.0, 1.0).with_limits(Some(40), Some(2000)))
        .omega(OmegaSpec::Fixed(9))
        .max_candidate_factor(30)
        .seed(44)
        .build()
        .unwrap()
        .train(&data, &bkt)
        .unwrap();
    for omega in [
        OmegaSpec::Fixed(9),
        OmegaSpec::UniformRange { lo: 8, hi: 11 },
    ] {
        let base = GenerateRequest::new(400).with_seed(3).with_omega(omega);
        let single = session.generate(&base.with_workers(1)).unwrap();
        assert_eq!(single.synthetics.records().len(), 400);
        let mut streamed: Vec<Record> = Vec::new();
        session
            .release_stream(&base, None, |record| {
                streamed.push(record);
                true
            })
            .unwrap();
        assert_eq!(single.synthetics.records(), &streamed[..]);
        for workers in [2usize, 4, 8] {
            let parallel = session.generate(&base.with_workers(workers)).unwrap();
            assert_eq!(
                parallel.synthetics.records(),
                single.synthetics.records(),
                "workers = {workers} must release the one-worker records"
            );
            assert_eq!(parallel.stats.released, 400);
        }
    }
}
