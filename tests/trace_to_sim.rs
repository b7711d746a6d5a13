//! Integration of the trace pipeline with the simulator: Google-format
//! records -> filter -> re-slot -> job specs -> simulation.

use corp_sim::{Cluster, EnvironmentProfile, Simulation, SimulationOptions, StaticPeakProvisioner};
use corp_trace::{
    filter_short_lived, parse_csv, resample_trace, to_csv, JobSpec, TaskRecord, WorkloadConfig,
    WorkloadGenerator,
};

/// Serializes generated jobs into the Google-trace format (5-minute
/// records), as if they had been collected by the paper's monitoring.
fn jobs_to_records(jobs: &[JobSpec]) -> Vec<TaskRecord> {
    let mut records = Vec::new();
    for j in jobs {
        // One coarse record per 30 fine slots (300 s at 10 s slots).
        let coarse_chunks = j.demand.chunks(30);
        for (c, chunk) in coarse_chunks.enumerate() {
            let n = chunk.len() as f64;
            let mean = |r: usize| chunk.iter().map(|d| d[r]).sum::<f64>() / n;
            let start = j.arrival_slot * 10 + (c as u64) * 300;
            records.push(TaskRecord {
                start_secs: start,
                end_secs: start + (chunk.len() as u64) * 10,
                job_id: j.id,
                task_index: 0,
                cpu: mean(0),
                memory: mean(1),
                storage: mean(2),
            });
        }
    }
    records
}

#[test]
fn full_trace_pipeline_round_trips_through_csv() {
    let jobs = WorkloadGenerator::new(
        WorkloadConfig {
            num_jobs: 20,
            ..WorkloadConfig::default()
        },
        31,
    )
    .generate();
    let records = jobs_to_records(&jobs);
    assert!(!records.is_empty());

    // Serialize -> parse -> filter long jobs -> re-slot to 10 s.
    let parsed = parse_csv(&to_csv(&records)).expect("round trip");
    assert_eq!(parsed.len(), records.len());
    let short = filter_short_lived(&parsed, 300);
    let fine = resample_trace(&short, 10);
    assert!(fine.iter().all(|r| r.end_secs - r.start_secs <= 10));

    // Every surviving job's fine records cover its full coarse span.
    for job_id in short
        .iter()
        .map(|r| r.job_id)
        .collect::<std::collections::HashSet<_>>()
    {
        let coarse: u64 = short
            .iter()
            .filter(|r| r.job_id == job_id)
            .map(|r| r.end_secs - r.start_secs)
            .sum();
        let fine_total: u64 = fine
            .iter()
            .filter(|r| r.job_id == job_id)
            .map(|r| r.end_secs - r.start_secs)
            .sum();
        assert_eq!(
            coarse, fine_total,
            "job {job_id} lost coverage in re-slotting"
        );
    }
}

#[test]
fn generated_workload_runs_on_every_profile() {
    for profile in [
        EnvironmentProfile::palmetto_cluster(),
        EnvironmentProfile::amazon_ec2(),
    ] {
        let scale = if profile.vms_per_pm == 1 { 0.3 } else { 1.0 };
        let jobs = WorkloadGenerator::new(
            WorkloadConfig {
                num_jobs: 40,
                demand_scale: scale,
                ..WorkloadConfig::default()
            },
            37,
        )
        .generate();
        let name = profile.name.clone();
        let mut sim = Simulation::new(
            Cluster::from_profile(profile),
            jobs,
            SimulationOptions {
                measure_decision_time: false,
                ..Default::default()
            },
        );
        let report = sim.run(&mut StaticPeakProvisioner);
        assert_eq!(
            report.completed + report.rejected + report.unfinished,
            40,
            "{name}"
        );
        assert_eq!(
            report.rejected, 0,
            "{name}: no job should exceed VM capacity"
        );
    }
}

#[test]
fn workload_statistics_match_the_papers_premises() {
    let jobs = WorkloadGenerator::new(
        WorkloadConfig {
            num_jobs: 300,
            ..WorkloadConfig::default()
        },
        41,
    )
    .generate();
    // Short-lived: all durations within the 5-minute timeout.
    assert!(jobs.iter().all(|j| j.duration_slots as f64 * 10.0 <= 300.0));
    // Over-provisioned: mean demand well below the request on average.
    let mut ratio_sum = 0.0;
    for j in &jobs {
        ratio_sum += j.mean_demand(0) / j.requested[0];
    }
    let mean_ratio = ratio_sum / jobs.len() as f64;
    assert!(
        (0.3..0.75).contains(&mean_ratio),
        "mean demand/request ratio {mean_ratio} outside the over-provisioning regime"
    );
}
