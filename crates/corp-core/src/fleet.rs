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
//! The `*_factories` constructors apply both rules for the four schemes
//! and return one [`ShardFactory`] per shard, ready to hand to a sharded
//! coordinator, which invokes each once to build the shard and again to
//! rebuild it after a crash; a fleet is its factories invoked once
//! ([`corp_fleet`]). CORP shards are pretrained on the *same* shared
//! historical corpus — in production every scheduler bootstraps from the
//! same trace archive; only online learning diverges, and it diverges
//! deterministically because job ownership is deterministic.

use crate::config::CorpConfig;
use crate::scheduler::{CloudScaleProvisioner, CorpProvisioner, DraProvisioner, RccrProvisioner};
use corp_sim::Provisioner;
use std::sync::Arc;

/// A closure rebuilding one shard's scheduler pipeline from scratch —
/// structurally identical to the sharded coordinator's
/// `ProvisionerFactory`, so `*_factories` fleets plug straight into
/// supervised (restartable) control planes. Factories are deterministic:
/// every invocation yields the same freshly-initialized pipeline.
pub type ShardFactory = Box<dyn Fn() -> Box<dyn Provisioner + Send> + Send>;

/// Golden-ratio stride (2^64 / phi), the usual odd constant for
/// decorrelating seed sequences.
const SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Seed for `shard` derived from `base`. Shard 0 keeps `base` unchanged so
/// single-shard fleets reproduce monolithic runs exactly.
pub fn shard_seed(base: u64, shard: usize) -> u64 {
    base.wrapping_add(SEED_STRIDE.wrapping_mul(shard as u64))
}

/// One restart factory per shard; each invocation rebuilds the shard's
/// pipeline from the same decorrelated seed (factories are deterministic).
fn seeded_factories<P, F>(base: u64, shards: usize, build: F) -> Vec<ShardFactory>
where
    P: Provisioner + Send + 'static,
    F: Fn(u64) -> P + Clone + Send + 'static,
{
    (0..shards)
        .map(|shard| {
            let s = shard_seed(base, shard);
            let build = build.clone();
            Box::new(move || Box::new(build(s)) as Box<dyn Provisioner + Send>) as ShardFactory
        })
        .collect()
}

/// Builds one shard's pretrained CORP pipeline from its decorrelated seed.
fn corp_shard(config: &CorpConfig, histories: &[Vec<Vec<f64>>], seed: u64) -> CorpProvisioner {
    let mut p = CorpProvisioner::new(CorpConfig {
        seed,
        ..config.clone()
    });
    p.pretrain(histories);
    p
}

/// One factory per CORP shard, with per-shard decorrelated seeds: each
/// builds its shard's pipeline pretrained on the shared historical corpus
/// `histories_per_resource` (same layout as [`CorpProvisioner::pretrain`]).
/// The corpus is shared and immutable, so a restarted shard bootstraps
/// exactly like the original did — only its online learning since the
/// crash is lost.
pub fn corp_factories(
    config: &CorpConfig,
    histories_per_resource: &[Vec<Vec<f64>>],
    shards: usize,
) -> Vec<ShardFactory> {
    let histories = Arc::new(histories_per_resource.to_vec());
    let config = config.clone();
    let base = config.seed;
    seeded_factories(base, shards, move |s| corp_shard(&config, &histories, s))
}

/// `shards` CORP pipelines: [`corp_factories`], each invoked once.
pub fn corp_fleet(
    config: &CorpConfig,
    histories_per_resource: &[Vec<Vec<f64>>],
    shards: usize,
) -> Vec<Box<dyn Provisioner + Send>> {
    let factories = corp_factories(config, histories_per_resource, shards);
    factories.iter().map(|build| build()).collect()
}

/// One factory per RCCR baseline shard, with per-shard decorrelated seeds.
pub fn rccr_factories(confidence: f64, seed: u64, shards: usize) -> Vec<ShardFactory> {
    seeded_factories(seed, shards, move |s| RccrProvisioner::new(confidence, s))
}

/// One factory per CloudScale baseline shard, with per-shard decorrelated seeds.
pub fn cloudscale_factories(seed: u64, shards: usize) -> Vec<ShardFactory> {
    seeded_factories(seed, shards, CloudScaleProvisioner::new)
}

/// One factory per DRA baseline shard, with per-shard decorrelated seeds.
pub fn dra_factories(seed: u64, shards: usize) -> Vec<ShardFactory> {
    seeded_factories(seed, shards, DraProvisioner::new)
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
    fn fleets_have_the_requested_size() {
        assert_eq!(rccr_factories(0.9, 7, 4).len(), 4);
        assert_eq!(cloudscale_factories(7, 3).len(), 3);
        assert_eq!(dra_factories(7, 2).len(), 2);
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
}
