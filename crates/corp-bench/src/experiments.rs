//! Runners that regenerate every table and figure of the paper's
//! evaluation.
//!
//! Each runner sweeps the same axis the paper sweeps, executes one
//! deterministic simulation per cell (fanning cells out over OS threads),
//! and returns a [`FigureTable`] whose rows mirror the figure's series.
//! Absolute values belong to our simulator, not the authors' testbed; the
//! *shapes* — who wins, what the trend direction is — are the reproduction
//! target, and `tests/experiment_shapes.rs` asserts them.

use crate::env::{
    cell_simulation, run_cell, run_cell_averaged, run_cell_faulty, run_cell_sharded, Environment,
    SchemeKind, SchemeParams, ALL_SCHEMES,
};
use crate::table::TextTable;
use corp_core::CorpConfig;
use corp_faults::FaultConfig;
use corp_sim::SimulationReport;
use serde::Serialize;

/// A regenerated figure/table plus free-form notes.
#[derive(Debug, Clone, Serialize)]
pub struct FigureTable {
    /// Paper artifact id, e.g. `"fig6"`.
    pub id: String,
    /// The regenerated rows.
    pub table: TextTable,
    /// Observations worth surfacing next to the table.
    pub notes: Vec<String>,
}

impl std::fmt::Display for FigureTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.table)?;
        for n in &self.notes {
            writeln!(f, "  note: {n}")?;
        }
        Ok(())
    }
}

/// Job counts swept by the #jobs figures (paper: "varied the number of jobs
/// from 50 to 300 with step size of 50").
pub const JOB_COUNTS: [usize; 6] = [50, 100, 150, 200, 250, 300];

/// Jobs in each Fig. 9/13 cell.
pub(crate) const CONFIDENCE_JOBS: usize = 300;

/// Confidence levels swept by Figs. 9/13 (Table II: 50%-90%).
pub const CONFIDENCE_LEVELS: [f64; 5] = [0.5, 0.6, 0.7, 0.8, 0.9];

/// Workload seeds averaged by the small-count (SLO-rate) figures.
pub const AVERAGING_SEEDS: [u64; 3] = [7, 1007, 2007];

/// A figure runner; its argument selects the small DNN (`--fast`).
pub type Runner = fn(bool) -> FigureTable;

/// Every experiment `corp-exp`'s figure loop knows, in `all` order.
pub const RUNNERS: [(&str, Runner); 13] = [
    ("table2", |_| table2()),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("ablations", ablations),
    ("scalability", scalability),
    ("faults", availability),
];

/// Runs `work` items in parallel, preserving order.
pub(crate) fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let f = &f;
    std::thread::scope(|scope| {
        let workers: Vec<_> = items
            .into_iter()
            .map(|item| scope.spawn(move || f(item)))
            .collect();
        // Joined in spawn order, so results land in item order; a worker's
        // panic goes on to the caller.
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
}

pub(crate) fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

fn three(x: f64) -> String {
    format!("{x:.3}")
}

/// Table II: parameter settings of the reproduction (values match the
/// paper's Table II where given).
pub fn table2() -> FigureTable {
    let cfg = CorpConfig::default();
    let mut table = TextTable::new(
        "Table II — Parameter settings",
        &["parameter", "value", "paper"],
    );
    let mut row = |p: &str, v: String, paper: &str| {
        table.push_row(vec![p.to_string(), v, paper.to_string()]);
    };
    row(
        "N_p (servers, cluster env)",
        "8 (scaled; see EXPERIMENTS.md)".into(),
        "30-50",
    );
    row("N_v (VMs, cluster env)", "32".into(), "100-400");
    row("N_v (VMs, EC2 env)", "30".into(), "30 nodes");
    row("|J| (jobs)", "50-300 step 50".into(), "50-300");
    row("l (resource types)", "3".into(), "3");
    row("P_th", format!("{}", cfg.prob_threshold), "0.95");
    row("h (DNN layers)", format!("{}", cfg.dnn_layers), "4");
    row("N_n (units/layer)", format!("{}", cfg.dnn_units), "50");
    row("H (HMM states)", "3".into(), "3");
    row(
        "theta (significance)",
        "5%-50% (eta = 50%-95%)".into(),
        "5%-30%",
    );
    row("eta (confidence)", "50%-90%".into(), "50%-90%");
    row(
        "L (prediction window)",
        format!("{} slots (1 min of 10 s slots)", cfg.window_slots),
        "1 min",
    );
    FigureTable {
        id: "table2".into(),
        table,
        notes: vec![],
    }
}

/// Fig. 6: prediction error rate vs number of jobs (cluster).
pub fn fig6(fast: bool) -> FigureTable {
    jobs_sweep_figure(
        "fig6",
        "Fig. 6 — Prediction error rate vs #jobs (cluster)",
        Environment::Cluster,
        fast,
        |r| pct(r.prediction_error_rate),
    )
}

/// Fig. 7: per-resource utilization vs number of jobs (cluster).
pub fn fig7(fast: bool) -> FigureTable {
    utilization_figure("fig7", Environment::Cluster, fast)
}

/// Fig. 11: per-resource utilization vs number of jobs (EC2).
pub fn fig11(fast: bool) -> FigureTable {
    utilization_figure("fig11", Environment::Ec2, fast)
}

fn jobs_sweep_figure(
    id: &str,
    title: &str,
    env: Environment,
    fast: bool,
    metric: impl Fn(&SimulationReport) -> String + Sync,
) -> FigureTable {
    let cells: Vec<(SchemeKind, usize)> = ALL_SCHEMES
        .iter()
        .flat_map(|&s| JOB_COUNTS.iter().map(move |&n| (s, n)))
        .collect();
    let reports = parallel_map(cells, |(scheme, n)| {
        let params = SchemeParams {
            fast_dnn: fast,
            ..Default::default()
        };
        run_cell(env, scheme, n, &params, false)
    });
    let mut table = TextTable::new(title, &["#jobs", "CORP", "RCCR", "CloudScale", "DRA"]);
    for (j, &n) in JOB_COUNTS.iter().enumerate() {
        let mut row = vec![n.to_string()];
        for (s, _) in ALL_SCHEMES.iter().enumerate() {
            row.push(metric(&reports[s * JOB_COUNTS.len() + j]));
        }
        table.push_row(row);
    }
    FigureTable {
        id: id.into(),
        table,
        notes: vec![],
    }
}

fn utilization_figure(id: &str, env: Environment, fast: bool) -> FigureTable {
    let title = format!(
        "Fig. {} — Resource utilization vs #jobs ({}); cells: CPU / MEM / STORAGE / overall",
        if id == "fig7" { "7" } else { "11(a-c)" },
        env.name()
    );
    jobs_sweep_figure(id, &title, env, fast, |r| {
        format!(
            "{:.2}/{:.2}/{:.2}/{:.2}",
            r.utilization[0], r.utilization[1], r.utilization[2], r.overall_utilization
        )
    })
}

/// Aggressiveness grid per scheme for the utilization-vs-SLO trade-off of
/// Figs. 8/12 (the paper "varied the probability threshold P_th").
fn aggressiveness_grid(scheme: SchemeKind) -> Vec<SchemeParams> {
    match scheme {
        SchemeKind::Corp => [
            (0.95, 0.99),
            (0.9, 0.95),
            (0.8, 0.9),
            (0.7, 0.8),
            (0.6, 0.6),
            (0.5, 0.4),
        ]
        .iter()
        .map(|&(eta, p_th)| SchemeParams {
            confidence: eta,
            prob_threshold: p_th,
            ..Default::default()
        })
        .collect(),
        SchemeKind::Rccr => [0.95, 0.9, 0.8, 0.7, 0.6, 0.5]
            .iter()
            .map(|&eta| SchemeParams {
                confidence: eta,
                ..Default::default()
            })
            .collect(),
        SchemeKind::CloudScale => [2.0, 1.5, 1.0, 0.6, 0.3, 0.1]
            .iter()
            .map(|&a| SchemeParams {
                aggressiveness: a,
                ..Default::default()
            })
            .collect(),
        SchemeKind::Dra => [1.0, 0.9, 0.8, 0.7, 0.6, 0.5]
            .iter()
            .map(|&a| SchemeParams {
                aggressiveness: a,
                ..Default::default()
            })
            .collect(),
    }
}

/// Fig. 8: overall utilization vs SLO violation rate (cluster).
pub fn fig8(fast: bool) -> FigureTable {
    tradeoff_figure("fig8", Environment::Cluster, fast)
}

/// Fig. 12: overall utilization vs SLO violation rate (EC2).
pub fn fig12(fast: bool) -> FigureTable {
    tradeoff_figure("fig12", Environment::Ec2, fast)
}

fn tradeoff_figure(id: &str, env: Environment, fast: bool) -> FigureTable {
    const JOBS: usize = 300;
    let cells: Vec<(SchemeKind, SchemeParams)> = ALL_SCHEMES
        .iter()
        .flat_map(|&s| {
            aggressiveness_grid(s).into_iter().map(move |mut p| {
                p.fast_dnn = fast;
                (s, p)
            })
        })
        .collect();
    let reports = parallel_map(cells.clone(), |(scheme, params)| {
        run_cell_averaged(env, scheme, JOBS, &params, false, &AVERAGING_SEEDS)
    });
    let mut table = TextTable::new(
        format!(
            "Fig. {} — Overall utilization vs SLO violation rate ({}, 300 jobs)",
            if id == "fig8" { "8" } else { "12" },
            env.name()
        ),
        &["scheme", "knob", "SLO violation", "overall utilization"],
    );
    for ((scheme, params), r) in cells.iter().zip(&reports) {
        let knob = match scheme {
            SchemeKind::Corp => format!(
                "eta={:.2},P_th={:.2}",
                params.confidence, params.prob_threshold
            ),
            SchemeKind::Rccr => format!("eta={:.2}", params.confidence),
            SchemeKind::CloudScale => format!("pad={:.1}", params.aggressiveness),
            SchemeKind::Dra => format!("overcommit={:.1}", params.aggressiveness),
        };
        table.push_row(vec![
            scheme.name().to_string(),
            knob,
            pct(r.slo_violation_rate),
            three(r.overall_utilization),
        ]);
    }
    FigureTable { id: id.into(), table, notes: vec![
        "each scheme's knob trades conservatism for utilization; read per-scheme rows as one curve".into(),
    ] }
}

/// Fig. 9: SLO violation rate vs confidence level (cluster).
pub fn fig9(fast: bool) -> FigureTable {
    confidence_figure("fig9", Environment::Cluster, fast)
}

/// Fig. 13: SLO violation rate vs confidence level (EC2).
pub fn fig13(fast: bool) -> FigureTable {
    confidence_figure("fig13", Environment::Ec2, fast)
}

fn confidence_figure(id: &str, env: Environment, fast: bool) -> FigureTable {
    const JOBS: usize = CONFIDENCE_JOBS;
    let cells: Vec<(SchemeKind, f64)> = ALL_SCHEMES
        .iter()
        .flat_map(|&s| CONFIDENCE_LEVELS.iter().map(move |&c| (s, c)))
        .collect();
    let reports = parallel_map(cells, |(scheme, confidence)| {
        let params = SchemeParams {
            confidence,
            fast_dnn: fast,
            ..Default::default()
        };
        run_cell_averaged(env, scheme, JOBS, &params, false, &AVERAGING_SEEDS)
    });
    let mut table = TextTable::new(
        format!(
            "Fig. {} — SLO violation rate vs confidence level ({}, 300 jobs)",
            if id == "fig9" { "9" } else { "13" },
            env.name()
        ),
        &["confidence", "CORP", "RCCR", "CloudScale", "DRA"],
    );
    for (c, &eta) in CONFIDENCE_LEVELS.iter().enumerate() {
        let mut row = vec![pct(eta)];
        for (s, _) in ALL_SCHEMES.iter().enumerate() {
            row.push(pct(
                reports[s * CONFIDENCE_LEVELS.len() + c].slo_violation_rate
            ));
        }
        table.push_row(row);
    }
    FigureTable {
        id: id.into(),
        table,
        notes: vec![
            "CloudScale and DRA have no confidence machinery; their columns are flat by design (paper Fig. 9 discussion)".into(),
        ],
    }
}

/// Fig. 10: allocation overhead for 300 jobs (cluster).
pub fn fig10(fast: bool) -> FigureTable {
    overhead_figure("fig10", Environment::Cluster, fast)
}

/// Fig. 14: allocation overhead for 300 jobs (EC2).
pub fn fig14(fast: bool) -> FigureTable {
    overhead_figure("fig14", Environment::Ec2, fast)
}

fn overhead_figure(id: &str, env: Environment, fast: bool) -> FigureTable {
    const JOBS: usize = 300;
    let reports = parallel_map(ALL_SCHEMES.to_vec(), |scheme| {
        let params = SchemeParams {
            fast_dnn: fast,
            ..Default::default()
        };
        run_cell(env, scheme, JOBS, &params, true)
    });
    let mut table = TextTable::new(
        format!(
            "Fig. {} — Overhead: latency to allocate resources to 300 jobs ({})",
            if id == "fig10" { "10" } else { "14" },
            env.name()
        ),
        &["scheme", "latency (ms)", "decision + comms"],
    );
    for (scheme, r) in ALL_SCHEMES.iter().zip(&reports) {
        table.push_row(vec![
            scheme.name().to_string(),
            format!("{:.1}", r.overhead_ms),
            format!("completed {} / violated {}", r.completed, r.violated),
        ]);
    }
    FigureTable { id: id.into(), table, notes: vec![
        "CORP pays for DNN inference; the EC2 profile adds 12x the per-message communication latency".into(),
    ] }
}

/// Shard counts swept by the control-plane scalability experiment.
pub const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Control-plane scalability: the CORP pipeline behind 1→8 scheduler
/// shards coordinated through the placement store (`corp-cluster`). Cells
/// run sequentially — not fanned out — so each wall-clock throughput
/// measurement owns the machine's cores. Each cell's coordinator phase
/// split (rebase, propose, arbitrate) goes to stderr, not into the table.
pub fn scalability(fast: bool) -> FigureTable {
    const JOBS: usize = 300;
    let params = SchemeParams {
        fast_dnn: fast,
        ..Default::default()
    };
    let mut table = TextTable::new(
        "Scalability — CORP behind a sharded control plane (cluster, 300 jobs)",
        &[
            "shards",
            "throughput (jobs/s)",
            "conflict rate",
            "retries",
            "latency (ms)",
            "overall utilization",
            "SLO violation",
        ],
    );
    for &shards in &SHARD_COUNTS {
        let (r, wall, phases) = run_cell_sharded(
            Environment::Cluster,
            SchemeKind::Corp,
            JOBS,
            &params,
            shards,
            true,
        );
        // Invariant: `ShardedProvisioner::control_plane_stats` is always `Some`.
        let cp = r
            .control_plane
            .as_ref()
            .expect("sharded runs report control-plane stats");
        let throughput = cp.commits as f64 / wall.max(1e-9);
        // Wall-clock, so on stderr with the progress lines, never in the
        // table: the coordinator's own time against its shards'.
        let split: Vec<String> = phases
            .named()
            .iter()
            .map(|(phase, time)| format!("{phase} {:.1} ms", time.as_secs_f64() * 1e3))
            .collect();
        eprintln!(
            "[scalability, {shards} shard(s): coordinator {}]",
            split.join(", ")
        );
        table.push_row(vec![
            shards.to_string(),
            format!("{throughput:.0}"),
            pct(cp.conflict_rate()),
            cp.retries.to_string(),
            format!("{:.1}", r.overhead_ms),
            three(r.overall_utilization),
            pct(r.slo_violation_rate),
        ]);
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    FigureTable {
        id: "scalability".into(),
        table,
        notes: vec![
            "throughput = committed placements / simulation wall-clock; conflict rate = refused / (admitted + refused) reservations at the placement store".into(),
            "one shard reproduces the monolithic scheduler's decisions exactly (same seed, same report)".into(),
            format!(
                "host parallelism: {cores} core(s) — shard speedup needs at least as many cores as shards; below that the sweep measures pure coordination overhead"
            ),
        ],
    }
}

/// Fault intensities swept by the availability experiment: multiples of
/// the default scenario's event rates (0.0 = fault-free control row).
pub const FAULT_INTENSITIES: [f64; 4] = [0.0, 0.5, 1.0, 2.0];

/// Seed of the fault schedules (fixed: every scheme at a given intensity
/// faces the identical crash/degrade/poison/kill sequence).
pub const FAULT_SEED: u64 = 0xFA17;

/// Availability under injected faults: every scheme behind a supervised
/// 2-shard control plane, swept over fault intensity. Reports SLO and
/// utilization damage next to the recovery machinery's work (jobs killed
/// by crashes, re-placement latency, worker restarts, inline-scheduled
/// slots).
pub fn availability(fast: bool) -> FigureTable {
    const JOBS: usize = 120;
    const SHARDS: usize = 2;
    let cells: Vec<(SchemeKind, f64)> = ALL_SCHEMES
        .iter()
        .flat_map(|&s| FAULT_INTENSITIES.iter().map(move |&i| (s, i)))
        .collect();
    let reports = parallel_map(cells.clone(), |(scheme, intensity)| {
        let params = SchemeParams {
            fast_dnn: fast,
            ..Default::default()
        };
        let cfg = FaultConfig::scenario(FAULT_SEED, intensity);
        run_cell_faulty(Environment::Cluster, scheme, JOBS, &params, SHARDS, &cfg)
    });
    let mut table = TextTable::new(
        "Availability — schemes under deterministic fault injection (cluster, 120 jobs, 2 shards)",
        &[
            "scheme",
            "intensity",
            "SLO violation",
            "overall utilization",
            "VM crashes",
            "jobs killed",
            "replaced",
            "replace latency (slots)",
            "restarts",
            "inline slots",
            "dropped msgs",
        ],
    );
    for ((scheme, intensity), r) in cells.iter().zip(&reports) {
        let f = r.faults.clone().unwrap_or_default();
        let cp = r.control_plane.clone().unwrap_or_default();
        table.push_row(vec![
            scheme.name().to_string(),
            format!("{intensity:.1}x"),
            pct(r.slo_violation_rate),
            three(r.overall_utilization),
            f.vm_crashes.to_string(),
            f.jobs_killed.to_string(),
            f.replacements.to_string(),
            format!("{:.1}", f.mean_replacement_latency_slots),
            cp.worker_restarts.to_string(),
            cp.inline_slots.to_string(),
            cp.messages_dropped.to_string(),
        ]);
    }
    FigureTable {
        id: "faults".into(),
        table,
        notes: vec![
            "identical fault schedule per intensity across schemes (same seed); 0.0x is the fault-free control".into(),
            "jobs killed by VM crashes lose all progress and re-enter the queue; replace latency is kill-to-replacement in slots".into(),
            "restarts/inline/dropped count the shard supervisor's recovery work under scheduled worker kills and message chaos".into(),
        ],
    }
}

/// Jobs in each ablation cell.
pub(crate) const ABLATION_JOBS: usize = 200;

/// Switches one CORP component off.
pub(crate) type ConfigTweak = Box<dyn Fn(&mut CorpConfig) + Send + Sync>;

/// The ablation variants, full CORP first, each named by what it removes.
pub(crate) fn ablation_variants() -> Vec<(&'static str, ConfigTweak)> {
    vec![
        ("full CORP", Box::new(|_| {})),
        (
            "no HMM correction",
            Box::new(|c| c.use_hmm_correction = false),
        ),
        (
            "no confidence interval",
            Box::new(|c| c.use_confidence_interval = false),
        ),
        ("no packing", Box::new(|c| c.use_packing = false)),
        (
            "random placement",
            Box::new(|c| c.use_volume_placement = false),
        ),
    ]
}

/// CORP with `tweak` applied, pretrained as every ablation cell is; it runs
/// on the cluster cell of [`ABLATION_JOBS`] jobs at seed 7.
pub(crate) fn ablation_corp(fast: bool, tweak: &ConfigTweak) -> corp_core::CorpProvisioner {
    let mut config = if fast {
        CorpConfig::fast()
    } else {
        CorpConfig::default()
    };
    tweak(&mut config);
    let mut corp = corp_core::CorpProvisioner::new(config);
    corp.pretrain(&crate::env::historical_histories(Environment::Cluster, 40));
    corp
}

/// Ablations of CORP's design choices (DESIGN.md §6): each row disables one
/// component and reports the damage.
pub fn ablations(fast: bool) -> FigureTable {
    let variants = ablation_variants();
    let names: Vec<&'static str> = variants.iter().map(|(n, _)| *n).collect();
    let reports = parallel_map(variants, |(_, tweak)| {
        let mut corp = ablation_corp(fast, &tweak);
        cell_simulation(Environment::Cluster, ABLATION_JOBS, 7, false).run(&mut corp)
    });
    let mut table = TextTable::new(
        format!("Ablations — CORP components (cluster, {ABLATION_JOBS} jobs)"),
        &[
            "variant",
            "overall utilization",
            "SLO violation",
            "prediction error",
        ],
    );
    for (name, r) in names.iter().zip(&reports) {
        table.push_row(vec![
            name.to_string(),
            three(r.overall_utilization),
            pct(r.slo_violation_rate),
            pct(r.prediction_error_rate),
        ]);
    }
    FigureTable {
        id: "ablations".into(),
        table,
        notes: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_lists_paper_parameters() {
        let t = table2();
        assert!(t.table.len() >= 10);
        let rendered = t.table.to_string();
        assert!(rendered.contains("P_th"));
        assert!(rendered.contains("0.95"));
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..32).collect::<Vec<usize>>(), |x| x * 2);
        assert_eq!(out, (0..32).map(|x| x * 2).collect::<Vec<usize>>());
    }

    #[test]
    fn aggressiveness_grids_have_six_points_each() {
        for s in ALL_SCHEMES {
            assert_eq!(aggressiveness_grid(s).len(), 6, "{s:?}");
        }
    }
}
