//! Integration of the full CORP prediction pipeline: DNN + HMM + confidence
//! interval + Eq. 21 gate, trained on workload-generator histories.

#![allow(clippy::needless_range_loop)]

use corp_bench::{historical_histories, Environment};
use corp_core::{CorpConfig, CorpJobPredictor, PredictionScratch};
use corp_sim::ResourceVector;
use corp_trace::NUM_RESOURCES;

fn pretrained() -> CorpJobPredictor {
    let mut p = CorpJobPredictor::new(&CorpConfig::fast());
    p.pretrain(&historical_histories(Environment::Cluster, 40));
    p
}

#[test]
fn pretraining_trains_and_warms_the_gate() {
    let p = pretrained();
    assert!(p.is_trained());
    for k in 0..NUM_RESOURCES {
        assert!(
            p.gate().samples(k) > 0,
            "resource {k} gate got no warm-up evidence"
        );
    }
}

#[test]
fn predictions_track_the_recent_unused_level() {
    let p = pretrained();
    let mut scratch = PredictionScratch::new();
    let low: Vec<Vec<f64>> = (0..NUM_RESOURCES).map(|_| vec![0.5; 12]).collect();
    let high: Vec<Vec<f64>> = (0..NUM_RESOURCES).map(|_| vec![5.0; 12]).collect();
    let req = ResourceVector::new([8.0, 8.0, 8.0]);
    let u_low = p.predict_job_in(&low, &req, &mut scratch);
    let u_high = p.predict_job_in(&high, &req, &mut scratch);
    for k in 0..NUM_RESOURCES {
        assert!(
            u_high[k] > u_low[k],
            "resource {k}: high-unused series must predict more unused ({} vs {})",
            u_high[k],
            u_low[k]
        );
    }
}

#[test]
fn higher_confidence_predicts_less_unused() {
    // Eq. 19's mechanism, end to end through the pipeline.
    let predict_at = |eta: f64| {
        let mut cfg = CorpConfig::fast();
        cfg.confidence_level = eta;
        let mut p = CorpJobPredictor::new(&cfg);
        p.pretrain(&historical_histories(Environment::Cluster, 40));
        let recent: Vec<Vec<f64>> = (0..NUM_RESOURCES).map(|_| vec![3.0; 12]).collect();
        p.predict_job_in(
            &recent,
            &ResourceVector::new([8.0, 8.0, 8.0]),
            &mut PredictionScratch::new(),
        )
    };
    let conservative = predict_at(0.95);
    let aggressive = predict_at(0.5);
    let sum = |v: ResourceVector| v[0] + v[1] + v[2];
    assert!(
        sum(conservative) < sum(aggressive),
        "higher confidence must shave more: {conservative:?} vs {aggressive:?}"
    );
}

#[test]
fn gate_relocks_under_systematic_overestimation() {
    let mut p = pretrained();
    let initially_unlocked = p.unlocked(0);
    for _ in 0..80 {
        // Predictions of 10 when only 1 was unused: severe over-estimation.
        p.record_outcome_scaled(0, 1.0, 10.0, 8.0);
    }
    assert!(
        !p.unlocked(0),
        "gate must close on bad evidence (was {initially_unlocked})"
    );
}

#[test]
fn online_training_path_matches_pretraining_path() {
    // Feeding histories through add_history + maybe_train must reach the
    // same trained state as pretrain.
    let mut cfg = CorpConfig::fast();
    cfg.min_training_histories = 8;
    let mut p = CorpJobPredictor::new(&cfg);
    let histories = historical_histories(Environment::Cluster, 12);
    for i in 0..12 {
        let per_job: Vec<Vec<f64>> = (0..NUM_RESOURCES)
            .map(|k| histories[k][i].clone())
            .collect();
        p.add_history(&per_job);
    }
    assert!(p.maybe_train());
    assert!(p.is_trained());
}
