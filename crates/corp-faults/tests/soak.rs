//! Chaos soak: full end-to-end runs under escalating fault intensity.
//!
//! Every cell drives the real pipeline — fault-schedule expansion, the
//! supervised sharded control plane rebuilding killed workers, the engine
//! crashing and recovering VMs, poisoned monitoring views hitting the
//! predictors — and checks the graceful-degradation contract: no panics,
//! no lost jobs, no overcommit, no non-finite action reaching the engine,
//! and (at hostile intensities) nonzero recovery counters proving the
//! supervisor actually worked.
//!
//! These runs are deliberately heavy, so they are `#[ignore]`d from the
//! default test pass. Run them with:
//!
//! ```text
//! cargo test -p corp-faults --release -- --ignored soak
//! ```

use corp_cluster::{ProvisionerFactory, ShardConfig, ShardedProvisioner};
use corp_core::{
    shard_seed, CloudScaleProvisioner, CorpConfig, CorpProvisioner, DraProvisioner, RccrProvisioner,
};
use corp_faults::{generate, FaultConfig};
use corp_sim::{
    Cluster, EnvironmentProfile, Provisioner, Simulation, SimulationOptions, SimulationReport,
};
use corp_trace::{JobSpec, WorkloadConfig, WorkloadGenerator};
use std::sync::Arc;

const EPS: f64 = 1e-9;
const JOBS: usize = 160;
const SHARDS: usize = 3;

fn cluster() -> Cluster {
    Cluster::from_profile(EnvironmentProfile::palmetto_cluster().with_num_pms(8))
}

fn workload(num_jobs: usize, seed: u64) -> Vec<JobSpec> {
    WorkloadGenerator::new(
        WorkloadConfig {
            num_jobs,
            mean_interarrival_slots: 45.0 / num_jobs.max(1) as f64,
            demand_scale: 1.5,
            ..WorkloadConfig::default()
        },
        seed,
    )
    .generate()
}

/// Per-resource unused-series training data for CORP's pretraining, drawn
/// from a seed disjoint from every measured run.
fn histories() -> Vec<Vec<Vec<f64>>> {
    let jobs = workload(40, 0xC0B9);
    (0..corp_trace::NUM_RESOURCES)
        .map(|k| {
            jobs.iter()
                .map(|j| (0..j.duration_slots).map(|s| j.unused_at(s, k)).collect())
                .collect()
        })
        .collect()
}

/// One shard's pipeline of `scheme` at `seed`.
fn shard_for(scheme: &str, seed: u64, histories: &[Vec<Vec<f64>>]) -> Box<dyn Provisioner + Send> {
    match scheme {
        "CORP" => {
            let mut corp = CorpProvisioner::new(CorpConfig {
                seed,
                ..CorpConfig::fast()
            });
            corp.pretrain(histories);
            Box::new(corp)
        }
        "RCCR" => Box::new(RccrProvisioner::new(0.9, seed)),
        "CloudScale" => Box::new(CloudScaleProvisioner::new(seed)),
        _ => Box::new(DraProvisioner::new(seed)),
    }
}

/// One restart factory per shard, each at its decorrelated seed; CORP's
/// shards share one pretraining corpus.
fn factories_for(scheme: &'static str, seed: u64) -> Vec<ProvisionerFactory> {
    let histories = Arc::new(histories());
    (0..SHARDS)
        .map(|shard| {
            let seed = shard_seed(seed, shard);
            let histories = Arc::clone(&histories);
            Box::new(move || shard_for(scheme, seed, &histories)) as ProvisionerFactory
        })
        .collect()
}

/// Runs one chaos cell end-to-end and checks the per-run contract.
fn soak_cell(scheme: &'static str, seed: u64, intensity: f64) -> SimulationReport {
    let cluster = cluster();
    let schedule = generate(
        &FaultConfig::scenario(seed, intensity),
        cluster.vms.len(),
        SHARDS,
    );
    let mut provisioner = ShardedProvisioner::with_factories(
        scheme,
        factories_for(scheme, seed),
        ShardConfig {
            fault_plan: Some(schedule.control),
        },
    );
    let mut sim = Simulation::new(
        cluster,
        workload(JOBS, seed),
        SimulationOptions {
            measure_decision_time: false,
            ..Default::default()
        },
    )
    .with_fault_timeline(schedule.timeline);
    let report = sim.run(&mut provisioner);
    let label = format!("{scheme} seed={seed} intensity={intensity}");

    // Job conservation: every job ends exactly one way.
    assert_eq!(
        report.completed + report.rejected + report.unfinished,
        JOBS,
        "{label}: jobs lost or duplicated: {report:?}"
    );
    assert!(
        report.completed > 0,
        "{label}: nothing completed: {report:?}"
    );
    // The supervisor's arbitration refuses non-finite proposals before
    // they reach the engine, poisoned views or not.
    assert_eq!(
        report.nonfinite_actions, 0,
        "{label}: non-finite action leaked through arbitration"
    );
    // The placement store's ledger never overcommitted.
    let store = provisioner.store().expect("store exists after first slot");
    assert!(
        store.holds_invariants(EPS),
        "{label}: store invariant broken"
    );
    // Aggregate metrics stayed numbers.
    assert!(
        report.overall_utilization.is_finite() && report.slo_violation_rate.is_finite(),
        "{label}: non-finite report metric: {report:?}"
    );
    report
}

#[test]
#[ignore = "chaos soak: heavy end-to-end runs, see module docs"]
fn soak_all_schemes_survive_escalating_chaos() {
    let mut worker_kills = 0u64;
    let mut worker_restarts = 0u64;
    let mut inline_slots = 0u64;
    let mut vm_crashes = 0u64;
    let mut vm_recoveries = 0u64;
    for scheme in ["CORP", "RCCR", "CloudScale", "DRA"] {
        for seed in [1u64, 7, 0xFA17] {
            for intensity in [0.5, 1.0, 2.0, 4.0] {
                let report = soak_cell(scheme, seed, intensity);
                if let Some(cp) = &report.control_plane {
                    worker_kills += cp.worker_kills;
                    worker_restarts += cp.worker_restarts;
                    inline_slots += cp.inline_slots;
                }
                if let Some(f) = &report.faults {
                    vm_crashes += f.vm_crashes;
                    vm_recoveries += f.vm_recoveries;
                }
            }
        }
    }
    // The sweep as a whole must actually have exercised recovery: faults
    // fired, workers died, and the supervisor rebuilt them.
    assert!(vm_crashes > 0, "no VM ever crashed across the sweep");
    assert!(vm_recoveries > 0, "no VM ever recovered across the sweep");
    assert!(worker_kills > 0, "no shard worker was ever killed");
    assert!(
        worker_restarts > 0,
        "killed workers were never restarted ({worker_kills} kills)"
    );
    assert!(inline_slots > 0, "no slot was ever scheduled inline");
}

#[test]
#[ignore = "chaos soak: heavy end-to-end runs, see module docs"]
fn soak_chaos_replays_are_byte_identical() {
    // The whole point of schedule-as-data: one hostile cell replayed twice
    // produces the same report bytes, recoveries and all.
    let a = soak_cell("RCCR", 0xFA17, 2.0);
    let b = soak_cell("RCCR", 0xFA17, 2.0);
    assert_eq!(
        serde::json::to_string(&a),
        serde::json::to_string(&b),
        "chaos replay diverged"
    );
}
