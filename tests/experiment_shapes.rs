//! Shape assertions for the reproduced evaluation: who wins on which
//! metric, per the paper's Figs. 6-14. These are the contract the
//! experiment harness must keep; absolute values are simulator-specific.

use corp_bench::{env::run_cell, env::SchemeParams, Environment, SchemeKind};
use corp_sim::SimulationReport;

fn report(env: Environment, scheme: SchemeKind, jobs: usize, seed: u64) -> SimulationReport {
    let params = SchemeParams {
        fast_dnn: true,
        seed,
        ..Default::default()
    };
    run_cell(env, scheme, jobs, &params, false)
}

/// Fig. 6 shape: prediction error rate CORP < RCCR, CloudScale < DRA.
#[test]
fn fig6_shape_prediction_error_ordering() {
    let corp = report(Environment::Cluster, SchemeKind::Corp, 200, 7);
    let rccr = report(Environment::Cluster, SchemeKind::Rccr, 200, 7);
    let cloudscale = report(Environment::Cluster, SchemeKind::CloudScale, 200, 7);
    let dra = report(Environment::Cluster, SchemeKind::Dra, 200, 7);
    assert!(
        corp.prediction_error_rate < rccr.prediction_error_rate,
        "CORP {} !< RCCR {}",
        corp.prediction_error_rate,
        rccr.prediction_error_rate
    );
    assert!(
        corp.prediction_error_rate < cloudscale.prediction_error_rate,
        "CORP {} !< CloudScale {}",
        corp.prediction_error_rate,
        cloudscale.prediction_error_rate
    );
    assert!(
        rccr.prediction_error_rate < dra.prediction_error_rate,
        "RCCR {} !< DRA {}",
        rccr.prediction_error_rate,
        dra.prediction_error_rate
    );
    assert!(
        cloudscale.prediction_error_rate < dra.prediction_error_rate,
        "CloudScale {} !< DRA {}",
        cloudscale.prediction_error_rate,
        dra.prediction_error_rate
    );
}

/// Fig. 7 shape: overall utilization CORP > RCCR, CloudScale > DRA
/// (cluster).
#[test]
fn fig7_shape_utilization_ordering_cluster() {
    let corp = report(Environment::Cluster, SchemeKind::Corp, 200, 7);
    let rccr = report(Environment::Cluster, SchemeKind::Rccr, 200, 7);
    let cloudscale = report(Environment::Cluster, SchemeKind::CloudScale, 200, 7);
    let dra = report(Environment::Cluster, SchemeKind::Dra, 200, 7);
    assert!(
        corp.overall_utilization > rccr.overall_utilization,
        "CORP {} !> RCCR {}",
        corp.overall_utilization,
        rccr.overall_utilization
    );
    assert!(
        corp.overall_utilization > cloudscale.overall_utilization,
        "CORP {} !> CloudScale {}",
        corp.overall_utilization,
        cloudscale.overall_utilization
    );
    assert!(
        rccr.overall_utilization > dra.overall_utilization + 0.03,
        "RCCR {} !>> DRA {}",
        rccr.overall_utilization,
        dra.overall_utilization
    );
    assert!(
        cloudscale.overall_utilization > dra.overall_utilization + 0.03,
        "CloudScale {} !>> DRA {}",
        cloudscale.overall_utilization,
        dra.overall_utilization
    );
}

/// Fig. 9 shape (levels): under heavy load, CORP violates least and DRA
/// most.
#[test]
fn fig9_shape_slo_levels_cluster() {
    let corp = report(Environment::Cluster, SchemeKind::Corp, 300, 7);
    let dra = report(Environment::Cluster, SchemeKind::Dra, 300, 7);
    assert!(
        corp.slo_violation_rate < dra.slo_violation_rate,
        "CORP {} !< DRA {}",
        corp.slo_violation_rate,
        dra.slo_violation_rate
    );
    assert!(
        dra.slo_violation_rate > 0.02,
        "heavy load must hurt DRA: {}",
        dra.slo_violation_rate
    );
}

/// Fig. 8 shape: within CORP, loosening (eta, P_th) raises utilization.
#[test]
fn fig8_shape_corp_frontier_moves_with_knob() {
    let conservative = run_cell(
        Environment::Cluster,
        SchemeKind::Corp,
        200,
        &SchemeParams {
            fast_dnn: true,
            confidence: 0.95,
            prob_threshold: 0.99,
            ..Default::default()
        },
        false,
    );
    let aggressive = run_cell(
        Environment::Cluster,
        SchemeKind::Corp,
        200,
        &SchemeParams {
            fast_dnn: true,
            confidence: 0.5,
            prob_threshold: 0.4,
            ..Default::default()
        },
        false,
    );
    assert!(
        aggressive.overall_utilization > conservative.overall_utilization,
        "aggressive {} !> conservative {}",
        aggressive.overall_utilization,
        conservative.overall_utilization
    );
}

/// Fig. 11 shape: EC2 mirrors the cluster's utilization ordering.
#[test]
fn fig11_shape_utilization_ordering_ec2() {
    let corp = report(Environment::Ec2, SchemeKind::Corp, 200, 7);
    let dra = report(Environment::Ec2, SchemeKind::Dra, 200, 7);
    assert!(
        corp.overall_utilization > dra.overall_utilization + 0.03,
        "CORP {} !>> DRA {}",
        corp.overall_utilization,
        dra.overall_utilization
    );
}

/// Fig. 12 shape: the Fig. 8 frontier on EC2 — loosening CORP's
/// (eta, P_th) buys a clear utilization gap, on every seed.
#[test]
fn fig12_shape_corp_frontier_moves_with_knob_ec2() {
    for seed in [7, 8, 9] {
        let corp_at = |confidence, prob_threshold| {
            let params = SchemeParams {
                fast_dnn: true,
                confidence,
                prob_threshold,
                seed,
                ..Default::default()
            };
            run_cell(Environment::Ec2, SchemeKind::Corp, 200, &params, false)
        };
        let conservative = corp_at(0.95, 0.99);
        let aggressive = corp_at(0.5, 0.4);
        assert!(
            aggressive.overall_utilization > conservative.overall_utilization + 0.05,
            "seed {seed}: aggressive {} !>> conservative {}",
            aggressive.overall_utilization,
            conservative.overall_utilization
        );
    }
}

/// Fig. 13 shape (levels): under heavy load on EC2, CORP violates less
/// than DRA and no more than RCCR, on every seed.
#[test]
fn fig13_shape_slo_levels_ec2() {
    for seed in [7, 8, 9] {
        let corp = report(Environment::Ec2, SchemeKind::Corp, 300, seed);
        let rccr = report(Environment::Ec2, SchemeKind::Rccr, 300, seed);
        let dra = report(Environment::Ec2, SchemeKind::Dra, 300, seed);
        assert!(
            corp.slo_violation_rate < dra.slo_violation_rate,
            "seed {seed}: CORP {} !< DRA {}",
            corp.slo_violation_rate,
            dra.slo_violation_rate
        );
        assert!(
            corp.slo_violation_rate <= rccr.slo_violation_rate,
            "seed {seed}: CORP {} !<= RCCR {}",
            corp.slo_violation_rate,
            rccr.slo_violation_rate
        );
    }
}

/// Figs. 10/14 shape: the same workload costs more to schedule on EC2 than
/// on the cluster (communication overhead), for every scheme.
#[test]
fn fig10_fig14_shape_ec2_overhead_exceeds_cluster() {
    for scheme in [SchemeKind::Corp, SchemeKind::Dra] {
        let params = SchemeParams {
            fast_dnn: true,
            ..Default::default()
        };
        let cluster = run_cell(Environment::Cluster, scheme, 100, &params, false);
        let ec2 = run_cell(Environment::Ec2, scheme, 100, &params, false);
        assert!(
            ec2.overhead_ms > cluster.overhead_ms,
            "{scheme:?}: EC2 {} !> cluster {}",
            ec2.overhead_ms,
            cluster.overhead_ms
        );
    }
}

/// Storage is not the bottleneck resource: its wastage exceeds CPU's under
/// reservation-style DRA (paper Fig. 11 discussion).
#[test]
fn storage_is_not_the_bottleneck() {
    let dra = report(Environment::Cluster, SchemeKind::Dra, 200, 7);
    // No strict per-resource assertion (workload mixes vary), but all
    // three utilizations must be in a sane band and reported.
    for (k, u) in dra.utilization.iter().enumerate() {
        assert!(
            (0.2..=1.0).contains(u),
            "resource {k} utilization {u} out of band"
        );
    }
}
