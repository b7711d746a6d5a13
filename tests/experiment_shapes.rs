//! Shape assertions for the reproduced evaluation: who wins on which
//! metric, per the paper's Figs. 6-14. These are the contract the
//! experiment harness must keep; absolute values are simulator-specific.
//! The absolute values are pinned too, by a golden of every figure
//! (`fast_figures_match_the_golden`) and one of the sharded serving
//! reports (`serve_reports_match_the_golden`).

use corp_bench::{
    run_cell, run_resilience, run_serve_sharded, serve_workload, Environment, FigureTable,
    ResilienceArgs, SchemeKind, SchemeParams, TextTable, RUNNERS,
};
use corp_serve::ServeConfig;
use corp_sim::SimulationReport;

/// What `corp-exp --fast --json all` prints, one figure per line, with
/// the cells that time the host blanked.
const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/corp_exp_fast.json"
);

/// `(figure, column)` cells measured on the wall clock: they change from
/// run to run and between debug and release builds.
const WALL_CLOCK_COLUMNS: [(&str, &str); 4] = [
    ("fig10", "latency (ms)"),
    ("fig14", "latency (ms)"),
    ("scalability", "throughput (jobs/s)"),
    ("scalability", "latency (ms)"),
];

/// `figure` with its wall-clock cells emptied, and the core count in the
/// scalability note (it names the host) replaced by `N`.
fn without_host(figure: FigureTable) -> FigureTable {
    let FigureTable { id, table, notes } = figure;
    let wall_clock: Vec<bool> = table
        .header()
        .iter()
        .map(|h| WALL_CLOCK_COLUMNS.contains(&(id.as_str(), h.as_str())))
        .collect();
    let header: Vec<&str> = table.header().iter().map(String::as_str).collect();
    let mut blanked = TextTable::new(table.title(), &header);
    for row in table.rows() {
        let cells = row.iter().zip(&wall_clock);
        blanked.push_row(
            cells
                .map(|(c, &wall)| if wall { String::new() } else { c.clone() })
                .collect(),
        );
    }
    let notes = notes
        .into_iter()
        .map(|n| match n.strip_prefix("host parallelism: ") {
            Some(rest) => format!(
                "host parallelism: N{}",
                rest.trim_start_matches(char::is_numeric)
            ),
            None => n,
        })
        .collect();
    FigureTable {
        id,
        table: blanked,
        notes,
    }
}

fn fast_figures_json() -> String {
    let lines: Vec<String> = RUNNERS
        .iter()
        .map(|(_, run)| serde::json::to_string(&without_host(run(true))))
        .collect();
    format!("[\n{}\n]\n", lines.join(",\n"))
}

/// Every number of every figure `corp-exp --fast` regenerates, against
/// the committed golden. A change that moves one on purpose (a decision
/// or numerics epoch) re-baselines it in the same commit with
/// `cargo test -p corp-bench --test experiment_shapes -- --ignored regenerate_fast_figures_golden`.
#[test]
fn fast_figures_match_the_golden() {
    let golden = std::fs::read_to_string(GOLDEN).expect("tests/golden/corp_exp_fast.json");
    let now = fast_figures_json();
    for (line, (now, golden)) in now.lines().zip(golden.lines()).enumerate() {
        assert_eq!(now, golden, "figure line {line} differs from the golden");
    }
    assert_eq!(now, golden);
}

#[test]
#[ignore = "rewrites tests/golden/corp_exp_fast.json"]
fn regenerate_fast_figures_golden() {
    std::fs::write(GOLDEN, fast_figures_json()).expect("write the golden");
}

/// One serialized `ServeReport` per line, for the sharded serving paths.
const SERVE_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/serve_fast.json"
);

/// `corp-exp --fast resilience`, the same with `--shards 2 --intensity 2`,
/// and `corp-exp --fast serve --shards 3 --jobs 120`: breaker
/// transitions, the supervisor's recovery counters and arbitration under
/// control-plane faults, as report bytes.
fn serve_reports_json() -> String {
    let chaos = |args: ResilienceArgs| run_resilience(true, &args, None).0.report;
    let env = Environment::Cluster;
    let params = SchemeParams {
        fast_dnn: true,
        ..Default::default()
    };
    let jobs = serve_workload(env, 120, params.seed);
    let config = ServeConfig::default();
    let (served, _) = run_serve_sharded(env, SchemeKind::Corp, jobs, &params, 3, config);
    let reports = [
        chaos(ResilienceArgs::default()),
        chaos(ResilienceArgs {
            shards: 2,
            intensity: 2.0,
            ..ResilienceArgs::default()
        }),
        served.report,
    ];
    reports
        .iter()
        .map(|r| serde::json::to_string(r) + "\n")
        .collect()
}

/// The sharded serving reports against the committed golden; re-baseline
/// with `cargo test -p corp-bench --test experiment_shapes -- --ignored
/// regenerate_serve_golden`.
#[test]
fn serve_reports_match_the_golden() {
    let golden = std::fs::read_to_string(SERVE_GOLDEN).expect("tests/golden/serve_fast.json");
    let now = serve_reports_json();
    for (line, (now, golden)) in now.lines().zip(golden.lines()).enumerate() {
        assert_eq!(now, golden, "serve report {line} differs from the golden");
    }
    assert_eq!(now, golden);
}

#[test]
#[ignore = "rewrites tests/golden/serve_fast.json"]
fn regenerate_serve_golden() {
    std::fs::write(SERVE_GOLDEN, serve_reports_json()).expect("write the golden");
}

fn report(env: Environment, scheme: SchemeKind, jobs: usize, seed: u64) -> SimulationReport {
    let params = SchemeParams {
        fast_dnn: true,
        seed,
        ..Default::default()
    };
    run_cell(env, scheme, jobs, &params, false)
}

/// Fig. 6 shape: prediction error rate CORP < RCCR, CloudScale < DRA, on
/// every seed.
#[test]
fn fig6_shape_prediction_error_ordering() {
    for seed in [7, 8, 9] {
        let corp = report(Environment::Cluster, SchemeKind::Corp, 200, seed);
        let rccr = report(Environment::Cluster, SchemeKind::Rccr, 200, seed);
        let cloudscale = report(Environment::Cluster, SchemeKind::CloudScale, 200, seed);
        let dra = report(Environment::Cluster, SchemeKind::Dra, 200, seed);
        assert!(
            corp.prediction_error_rate < rccr.prediction_error_rate,
            "seed {seed}: CORP {} !< RCCR {}",
            corp.prediction_error_rate,
            rccr.prediction_error_rate
        );
        assert!(
            corp.prediction_error_rate < cloudscale.prediction_error_rate,
            "seed {seed}: CORP {} !< CloudScale {}",
            corp.prediction_error_rate,
            cloudscale.prediction_error_rate
        );
        assert!(
            rccr.prediction_error_rate < dra.prediction_error_rate,
            "seed {seed}: RCCR {} !< DRA {}",
            rccr.prediction_error_rate,
            dra.prediction_error_rate
        );
        assert!(
            cloudscale.prediction_error_rate < dra.prediction_error_rate,
            "seed {seed}: CloudScale {} !< DRA {}",
            cloudscale.prediction_error_rate,
            dra.prediction_error_rate
        );
    }
}

/// Fig. 7 shape: overall utilization CORP > RCCR, CloudScale > DRA
/// (cluster), on every seed.
#[test]
fn fig7_shape_utilization_ordering_cluster() {
    for seed in [7, 8, 9] {
        let corp = report(Environment::Cluster, SchemeKind::Corp, 200, seed);
        let rccr = report(Environment::Cluster, SchemeKind::Rccr, 200, seed);
        let cloudscale = report(Environment::Cluster, SchemeKind::CloudScale, 200, seed);
        let dra = report(Environment::Cluster, SchemeKind::Dra, 200, seed);
        assert!(
            corp.overall_utilization > rccr.overall_utilization,
            "seed {seed}: CORP {} !> RCCR {}",
            corp.overall_utilization,
            rccr.overall_utilization
        );
        assert!(
            corp.overall_utilization > cloudscale.overall_utilization,
            "seed {seed}: CORP {} !> CloudScale {}",
            corp.overall_utilization,
            cloudscale.overall_utilization
        );
        assert!(
            rccr.overall_utilization > dra.overall_utilization + 0.03,
            "seed {seed}: RCCR {} !>> DRA {}",
            rccr.overall_utilization,
            dra.overall_utilization
        );
        assert!(
            cloudscale.overall_utilization > dra.overall_utilization + 0.03,
            "seed {seed}: CloudScale {} !>> DRA {}",
            cloudscale.overall_utilization,
            dra.overall_utilization
        );
    }
}

/// Fig. 9 shape (levels): under heavy load, CORP violates least and DRA
/// most, on every seed.
#[test]
fn fig9_shape_slo_levels_cluster() {
    for seed in [7, 8, 9] {
        let corp = report(Environment::Cluster, SchemeKind::Corp, 300, seed);
        let dra = report(Environment::Cluster, SchemeKind::Dra, 300, seed);
        assert!(
            corp.slo_violation_rate < dra.slo_violation_rate,
            "seed {seed}: CORP {} !< DRA {}",
            corp.slo_violation_rate,
            dra.slo_violation_rate
        );
        assert!(
            dra.slo_violation_rate > 0.02,
            "seed {seed}: heavy load must hurt DRA: {}",
            dra.slo_violation_rate
        );
    }
}

/// Fig. 8 shape: within CORP, loosening (eta, P_th) raises utilization, on
/// every seed.
#[test]
fn fig8_shape_corp_frontier_moves_with_knob() {
    for seed in [7, 8, 9] {
        let corp_at = |confidence, prob_threshold| {
            let params = SchemeParams {
                fast_dnn: true,
                confidence,
                prob_threshold,
                seed,
                ..Default::default()
            };
            run_cell(Environment::Cluster, SchemeKind::Corp, 200, &params, false)
        };
        let conservative = corp_at(0.95, 0.99);
        let aggressive = corp_at(0.5, 0.4);
        assert!(
            aggressive.overall_utilization > conservative.overall_utilization,
            "seed {seed}: aggressive {} !> conservative {}",
            aggressive.overall_utilization,
            conservative.overall_utilization
        );
    }
}

/// Fig. 11 shape: EC2 mirrors the cluster's utilization ordering, on every
/// seed.
#[test]
fn fig11_shape_utilization_ordering_ec2() {
    for seed in [7, 8, 9] {
        let corp = report(Environment::Ec2, SchemeKind::Corp, 200, seed);
        let dra = report(Environment::Ec2, SchemeKind::Dra, 200, seed);
        assert!(
            corp.overall_utilization > dra.overall_utilization + 0.03,
            "seed {seed}: CORP {} !>> DRA {}",
            corp.overall_utilization,
            dra.overall_utilization
        );
    }
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
/// on the cluster (communication overhead), for every scheme and seed.
/// `overhead_ms` is simulated, so it repeats exactly.
#[test]
fn fig10_fig14_shape_ec2_overhead_exceeds_cluster() {
    for seed in [7, 8, 9] {
        for scheme in [SchemeKind::Corp, SchemeKind::Dra] {
            let cluster = report(Environment::Cluster, scheme, 100, seed);
            let ec2 = report(Environment::Ec2, scheme, 100, seed);
            assert!(
                ec2.overhead_ms > cluster.overhead_ms,
                "seed {seed}, {scheme:?}: EC2 {} !> cluster {}",
                ec2.overhead_ms,
                cluster.overhead_ms
            );
        }
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
