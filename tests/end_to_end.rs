//! End-to-end integration: trace generation -> cluster simulation -> every
//! provisioner -> report invariants.

use corp_bench::{run_cell, Environment, SchemeKind, SchemeParams, ALL_SCHEMES};
use corp_core::{CorpConfig, CorpProvisioner};
use corp_sim::{Cluster, EnvironmentProfile, Simulation, SimulationOptions, StaticPeakProvisioner};
use corp_trace::{WorkloadConfig, WorkloadGenerator};

fn fast_params(seed: u64) -> SchemeParams {
    SchemeParams {
        fast_dnn: true,
        seed,
        ..Default::default()
    }
}

#[test]
fn every_scheme_terminates_all_jobs_in_both_environments() {
    for env in [Environment::Cluster, Environment::Ec2] {
        for scheme in ALL_SCHEMES {
            let report = run_cell(env, scheme, 60, &fast_params(11), false);
            assert_eq!(
                report.completed + report.rejected + report.unfinished,
                60,
                "{scheme:?} on {env:?} lost jobs: {report:?}"
            );
            assert_eq!(
                report.invalid_actions, 0,
                "{scheme:?} on {env:?}: {report:?}"
            );
            assert!(report.slots_run > 0);
        }
    }
}

#[test]
fn reports_carry_consistent_metrics() {
    let report = run_cell(
        Environment::Cluster,
        SchemeKind::Corp,
        80,
        &fast_params(13),
        false,
    );
    assert!((0.0..=1.0).contains(&report.overall_utilization));
    assert!((0.0..=1.0).contains(&report.slo_violation_rate));
    assert!((0.0..=1.0).contains(&report.prediction_error_rate));
    assert!(report.utilization.iter().all(|u| (0.0..=1.0).contains(u)));
    assert!(report.violated <= report.completed);
    assert_eq!(report.provisioner, "CORP");
}

#[test]
fn corp_run_is_deterministic() {
    let a = run_cell(
        Environment::Cluster,
        SchemeKind::Corp,
        50,
        &fast_params(17),
        false,
    );
    let b = run_cell(
        Environment::Cluster,
        SchemeKind::Corp,
        50,
        &fast_params(17),
        false,
    );
    assert_eq!(
        a.overall_utilization.to_bits(),
        b.overall_utilization.to_bits()
    );
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.violated, b.violated);
    assert_eq!(a.predictions_resolved, b.predictions_resolved);
}

#[test]
fn corp_reclaims_meaningfully_versus_static_peak() {
    // The headline claim, end to end: opportunistic reallocation beats
    // reservation-based allocation on utilization.
    let cluster = || Cluster::from_profile(EnvironmentProfile::palmetto_cluster().with_num_pms(8));
    let jobs = || {
        WorkloadGenerator::new(
            WorkloadConfig {
                num_jobs: 120,
                ..WorkloadConfig::default()
            },
            23,
        )
        .generate()
    };
    let opts = SimulationOptions {
        measure_decision_time: false,
        ..Default::default()
    };

    let mut corp = CorpProvisioner::new(CorpConfig::fast());
    corp.pretrain(&corp_bench::historical_histories(Environment::Cluster, 40));
    let corp_report = Simulation::new(cluster(), jobs(), opts.clone()).run(&mut corp);
    let peak_report = Simulation::new(cluster(), jobs(), opts).run(&mut StaticPeakProvisioner);

    assert!(
        corp_report.overall_utilization > peak_report.overall_utilization + 0.02,
        "CORP {} vs static peak {}",
        corp_report.overall_utilization,
        peak_report.overall_utilization
    );
}

#[test]
fn overhead_is_reported_and_ec2_costs_more() {
    let cluster = run_cell(
        Environment::Cluster,
        SchemeKind::Corp,
        80,
        &fast_params(29),
        false,
    );
    let ec2 = run_cell(
        Environment::Ec2,
        SchemeKind::Corp,
        80,
        &fast_params(29),
        false,
    );
    // Comm-only overhead (decision time disabled): EC2's per-message
    // latency is 12x the cluster's.
    assert!(cluster.overhead_ms > 0.0);
    assert!(
        ec2.overhead_ms > cluster.overhead_ms,
        "EC2 {} vs cluster {}",
        ec2.overhead_ms,
        cluster.overhead_ms
    );
}
