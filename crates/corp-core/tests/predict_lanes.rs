//! Lane identity of the CORP prediction stage: predicting many jobs as
//! lanes of one batch ([`CorpJobPredictor::predict_jobs_in`]) must give,
//! job for job, the bits and the fallback-ladder counts of predicting them
//! one at a time ([`CorpJobPredictor::predict_job_in`]) — on mixed batches
//! where some lanes are poisoned (NaN / ±∞ samples), some jobs have no
//! history, and one resource's `sigma_hat` has blown up — and must not
//! depend on where the batch is cut into lanes.

use corp_core::{CorpConfig, CorpJobPredictor, FallbackCounters, PredictionScratch};
use corp_sim::ResourceVector;
use corp_trace::NUM_RESOURCES;
use proptest::prelude::*;

type Job = (Vec<ResourceVector>, ResourceVector);

/// One sample component: mostly finite, sometimes poisoned.
fn component() -> impl Strategy<Value = f64> {
    (0u8..24, 0.0f64..50.0).prop_map(|(kind, v)| match kind {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 0.0,
        _ => v,
    })
}

/// A job: 0..14 slots of unused history (empty = no history yet) and its
/// request.
fn job() -> impl Strategy<Value = Job> {
    (
        prop::collection::vec((component(), component(), component()), 0..14),
        (0.5f64..60.0, 0.5f64..60.0, 0.5f64..60.0),
    )
        .prop_map(|(recent, (a, b, c))| {
            (
                recent
                    .into_iter()
                    .map(|(x, y, z)| ResourceVector::new([x, y, z]))
                    .collect(),
                ResourceVector::new([a, b, c]),
            )
        })
}

fn predictor(trained: bool, blown_sigma: bool) -> CorpJobPredictor {
    let mut p = CorpJobPredictor::new(&CorpConfig::fast());
    if trained {
        let hs: Vec<Vec<f64>> = (0..10)
            .map(|j| (0..30).map(|t| 6.0 + ((t + j) % 3) as f64 * 0.3).collect())
            .collect();
        p.pretrain(&[hs.clone(), hs.clone(), hs]);
    }
    if blown_sigma {
        // Wild finite outcomes push resource 1's normalized error spread
        // far past SIGMA_BLOWUP: every lane of that resource takes the
        // ladder while resources 0 and 2 stay on the DNN path.
        for i in 0..20 {
            let (a, pr) = if i % 2 == 0 { (1e6, 0.0) } else { (0.0, 1e6) };
            p.record_outcome_scaled(1, a, pr, 1.0);
        }
    }
    p
}

/// Job-by-job reference: values and the counters they leave behind.
fn one_by_one(p: &CorpJobPredictor, jobs: &[Job]) -> (Vec<ResourceVector>, FallbackCounters) {
    let mut scratch = PredictionScratch::new();
    let out = jobs
        .iter()
        .map(|(recent, requested)| {
            let series: Vec<Vec<f64>> = (0..NUM_RESOURCES)
                .map(|k| recent.iter().map(|u| u[k]).collect())
                .collect();
            p.predict_job_in(&series, requested, &mut scratch)
        })
        .collect();
    (out, scratch.fallbacks)
}

/// The many-job entry, cut into lanes of `width` through one scratch.
fn in_lanes(
    p: &CorpJobPredictor,
    jobs: &[Job],
    width: usize,
) -> (Vec<ResourceVector>, FallbackCounters) {
    let mut scratch = PredictionScratch::new();
    let mut out = vec![ResourceVector::ZERO; jobs.len()];
    for (lane, slots) in jobs.chunks(width).zip(out.chunks_mut(width)) {
        p.predict_jobs_in(
            lane.iter().map(|(recent, req)| (recent.as_slice(), req)),
            slots,
            &mut scratch,
        );
    }
    (out, scratch.fallbacks)
}

fn bits(out: &[ResourceVector]) -> Vec<[u64; NUM_RESOURCES]> {
    out.iter()
        .map(|u| std::array::from_fn(|k| u[k].to_bits()))
        .collect()
}

proptest! {
    // Every case builds (and half of them pre-train) a predictor.
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn many_job_entry_equals_job_by_job(
        jobs in prop::collection::vec(job(), 1..100),
        trained in 0u8..2,
        blown_sigma in 0u8..2,
        width in 1usize..80,
    ) {
        let p = predictor(trained == 1, blown_sigma == 1);
        let (want, want_counters) = one_by_one(&p, &jobs);
        for width in [jobs.len(), width] {
            let (got, counters) = in_lanes(&p, &jobs, width);
            prop_assert_eq!(bits(&got), bits(&want), "lanes of {}", width);
            prop_assert_eq!(&counters, &want_counters, "lanes of {}", width);
        }
        if blown_sigma == 1 && jobs.iter().any(|(recent, _)| !recent.is_empty()) {
            prop_assert!(want_counters.dnn_rejected > 0, "the ladder must have run");
        }
    }
}
