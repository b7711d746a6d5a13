//! Shard-safe construction of provisioner fleets.
//!
//! A sharded control plane (the `corp-cluster` crate) runs N independent
//! copies of a scheduling pipeline, one per shard. Two rules keep that
//! reproducible:
//!
//! * **Decorrelated randomness** — each shard's RNG stream must differ, or
//!   every shard makes the same "random" choice (e.g. RCCR's random
//!   fitting VM) and contention is artificially inflated. [`shard_seed`]
//!   derives per-shard seeds with a golden-ratio stride.
//! * **Shard 0 keeps the base seed** — so a one-shard fleet reproduces the
//!   monolithic scheduler bit-for-bit: `shard_seed(base, 0) == base`.
//!
//! Every sharded builder applies both rules. [`corp_fleet`] is CORP's: its
//! shards are pretrained on the *same* shared historical corpus — in
//! production every scheduler bootstraps from the same trace archive; only
//! online learning diverges, and it diverges deterministically because job
//! ownership is deterministic.

use crate::config::CorpConfig;
use crate::scheduler::CorpProvisioner;
use corp_sim::Provisioner;

/// Golden-ratio stride (2^64 / phi), the usual odd constant for
/// decorrelating seed sequences.
const SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Seed for `shard` derived from `base`. Shard 0 keeps `base` unchanged so
/// single-shard fleets reproduce monolithic runs exactly.
pub fn shard_seed(base: u64, shard: usize) -> u64 {
    base.wrapping_add(SEED_STRIDE.wrapping_mul(shard as u64))
}

/// `shards` CORP pipelines with per-shard decorrelated seeds, each
/// pretrained on the shared historical corpus `histories_per_resource`
/// (same layout as [`CorpProvisioner::pretrain`]).
pub fn corp_fleet(
    config: &CorpConfig,
    histories_per_resource: &[Vec<Vec<f64>>],
    shards: usize,
) -> Vec<Box<dyn Provisioner + Send>> {
    (0..shards)
        .map(|shard| {
            let mut corp = CorpProvisioner::new(CorpConfig {
                seed: shard_seed(config.seed, shard),
                ..config.clone()
            });
            corp.pretrain(histories_per_resource);
            Box::new(corp) as Box<dyn Provisioner + Send>
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_zero_keeps_the_base_seed() {
        assert_eq!(shard_seed(0xC0DE, 0), 0xC0DE);
    }

    #[test]
    fn shard_seeds_are_distinct() {
        let seeds: Vec<u64> = (0..16).map(|s| shard_seed(7, s)).collect();
        for (i, a) in seeds.iter().enumerate() {
            for b in &seeds[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn corp_fleet_builds_pretrained_shards() {
        let cfg = CorpConfig::fast();
        // A minimal corpus: enough identical histories per resource to
        // clear the training threshold.
        let histories: Vec<Vec<Vec<f64>>> = (0..corp_sim::RESOURCE_WEIGHTS.len())
            .map(|_| vec![vec![0.5; 32]; 8])
            .collect();
        let fleet = corp_fleet(&cfg, &histories, 2);
        assert_eq!(fleet.len(), 2);
        assert_eq!(fleet[0].name(), "CORP");
    }

    #[test]
    fn a_fleet_built_at_width_1_equals_one_built_at_the_default_width() {
        use corp_sim::{Cluster, EnvironmentProfile, Simulation, SimulationOptions};
        use corp_trace::{WorkloadConfig, WorkloadGenerator};
        let histories: Vec<Vec<Vec<f64>>> = (0..corp_sim::RESOURCE_WEIGHTS.len())
            .map(|k| {
                (0..10)
                    .map(|j| {
                        (0..30)
                            .map(|t| 1.0 + k as f64 + ((t + j) % 4) as f64 * 0.3)
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let fleet = |width| {
            let cfg = CorpConfig {
                prediction_pool_width: width,
                ..CorpConfig::fast()
            };
            corp_fleet(&cfg, &histories, 2)
        };
        let run = |shard: &mut Box<dyn Provisioner + Send>| {
            let jobs = WorkloadConfig {
                num_jobs: 40,
                ..WorkloadConfig::default()
            };
            let mut sim = Simulation::new(
                Cluster::from_profile(EnvironmentProfile::palmetto_cluster()),
                WorkloadGenerator::new(jobs, 5).generate(),
                SimulationOptions {
                    measure_decision_time: false,
                    ..Default::default()
                },
            );
            format!("{:?}", sim.run(shard.as_mut()))
        };
        for (mut serial, mut wide) in fleet(Some(1)).into_iter().zip(fleet(None)) {
            assert_eq!(run(&mut serial), run(&mut wide));
        }
    }
}
