//! Baseline face-off: all four schemes of the paper's evaluation on one
//! workload, printed side by side — a one-command miniature of Figs. 6-10.
//!
//! ```sh
//! cargo run --release --example baseline_faceoff [num_jobs]
//! ```

use corp_bench::{run_cell, Environment, SchemeParams, ALL_SCHEMES};

fn main() {
    let num_jobs: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(200);

    println!("== Face-off: {num_jobs} short-lived jobs on the cluster profile ==\n");
    println!(
        "{:<12} {:>12} {:>12} {:>14} {:>14}",
        "scheme", "utilization", "SLO viol.", "pred. error", "overhead (ms)"
    );
    for scheme in ALL_SCHEMES {
        let params = SchemeParams {
            fast_dnn: true,
            ..Default::default()
        };
        let r = run_cell(Environment::Cluster, scheme, num_jobs, &params, true);
        println!(
            "{:<12} {:>12.3} {:>11.1}% {:>13.1}% {:>14.1}",
            r.provisioner,
            r.overall_utilization,
            r.slo_violation_rate * 100.0,
            r.prediction_error_rate * 100.0,
            r.overhead_ms,
        );
    }
    println!(
        "\nExpected shape (paper Figs. 6-10): CORP leads utilization and prediction accuracy,\nDRA trails both and violates most SLOs; CORP pays a small scheduling-latency premium."
    );
}
