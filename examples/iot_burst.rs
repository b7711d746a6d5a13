//! IoT burst scenario: a flash crowd of very short queries.
//!
//! The paper motivates CORP with "short-lived queries in the applications
//! of Internet-of-Things and online data processing [that] typically run
//! for seconds or minutes". This example models an IoT ingestion spike: a
//! bursty arrival process dumps hundreds of second-scale queries onto a
//! small fleet, and we compare how CORP and a reservation allocator absorb
//! it.
//!
//! ```sh
//! cargo run --release --example iot_burst
//! ```

use corp_core::{CorpConfig, CorpProvisioner};
use corp_sim::{Cluster, EnvironmentProfile, Simulation, SimulationOptions, StaticPeakProvisioner};
use corp_trace::{BurstyArrivals, WorkloadConfig, WorkloadGenerator, NUM_RESOURCES};

fn main() {
    let config = WorkloadConfig {
        num_jobs: 250,
        // Second-scale queries: 10-60 s.
        min_duration_secs: 10.0,
        max_duration_secs: 60.0,
        // Mostly CPU-bound analytics with some balanced work.
        class_weights: [3.0, 1.0, 0.5, 1.0],
        ..WorkloadConfig::default()
    };

    // Bursty arrivals: flash crowds of ~12 queries separated by quiet gaps.
    let mut arrivals = BurstyArrivals::new(12.0, 8.0, 99);
    let slots = arrivals.arrivals(config.num_jobs);
    let mut generator = WorkloadGenerator::new(config, 4242);
    let jobs: Vec<_> = slots
        .into_iter()
        .map(|slot| generator.generate_one(slot))
        .collect();

    // Pretraining history from a calmer period of the same service.
    let hist = WorkloadGenerator::new(
        WorkloadConfig {
            num_jobs: 40,
            ..WorkloadConfig::default()
        },
        17,
    )
    .generate();
    let histories: Vec<Vec<Vec<f64>>> = (0..NUM_RESOURCES)
        .map(|k| {
            hist.iter()
                .map(|j| (0..j.duration_slots).map(|s| j.unused_at(s, k)).collect())
                .collect()
        })
        .collect();

    let cluster = || Cluster::from_profile(EnvironmentProfile::palmetto_cluster().with_num_pms(6));
    let opts = SimulationOptions {
        measure_decision_time: false,
        ..Default::default()
    };

    let mut corp = CorpProvisioner::new(CorpConfig::fast());
    corp.pretrain(&histories);
    let corp_report = Simulation::new(cluster(), jobs.clone(), opts.clone()).run(&mut corp);
    let peak_report = Simulation::new(cluster(), jobs, opts).run(&mut StaticPeakProvisioner);

    println!("== IoT flash crowd: 250 second-scale queries, bursty arrivals, 24 VMs ==\n");
    for r in [&corp_report, &peak_report] {
        println!(
            "{:<12} mean response {:>5.1} slots   SLO violations {:>5.1}%   overall utilization {:.3}",
            r.provisioner,
            r.mean_response_slots,
            r.slo_violation_rate * 100.0,
            r.overall_utilization,
        );
    }
    println!(
        "\nDuring bursts the reservation allocator runs out of placeable capacity and queues\nqueries; CORP's reclaimed headroom absorbs the spike.",
    );
}
