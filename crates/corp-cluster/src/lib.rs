//! Sharded multi-scheduler control plane for the CORP reproduction.
//!
//! CORP's evaluation runs one scheduler for the whole cluster; at larger
//! fleets a single decision loop becomes the bottleneck. This crate scales
//! the control plane out without giving up CORP's safety property (never
//! overcommit a VM beyond capacity) or the repo's reproducibility bar
//! (same seed → same report):
//!
//! * [`PlacementStore`] — the centralized capacity arbiter: one lock
//!   around one ledger. A claim is a fused commit: it admission-checks the
//!   request against `committed + reserved` and commits it in one
//!   acquisition, or misses and changes nothing. The two-phase
//!   `reserve` / `confirm` / `abort` with its holds is kept for the tests
//!   and the benchmark's store kernel. Racing callers can interleave
//!   arbitrarily; no interleaving can overcommit a VM.
//! * job ownership — each job belongs to one shard
//!   (`job_id % num_shards`), so shards contend only on capacity, never on
//!   the same job. Ownership is a predicate a shard reads the engine's
//!   fleet views through, not a filtered copy of them.
//! * [`ShardedProvisioner`] — the coordinator adapting N independent
//!   scheduler shards (each a full `Provisioner` pipeline the coordinator
//!   owns) to the engine's interface: the shards propose in parallel —
//!   one pool call a slot, the calling thread running a shard itself —
//!   then deterministic sequential arbitration through the store — the
//!   store's only caller — which commits each placement on its proposed
//!   VM or, after a capacity conflict, on its one Eq. 22 best-fit retry.
//!
//! With one shard the coordinator reproduces the wrapped scheduler's
//! decisions exactly; with many it reports throughput and contention via
//! [`corp_sim::ControlPlaneStats`] in the simulation report.
//!
//! The coordinator also supervises its shards: every call into a pipeline
//! runs under `catch_unwind`, scheduled chaos (a
//! [`corp_faults::ControlFaultPlan`]) can kill shards and drop or delay
//! their slots, and every failure is either recovered (factory rebuild +
//! inline scheduling for the missed slot) or recorded as a typed
//! [`ClusterError`] — never a panic.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod error;
mod health;
mod provisioner;
mod shard;
mod store;

pub use error::ClusterError;
pub use health::{ShardHealth, ShardSlotOutcome};
pub use provisioner::{CoordinatorPhases, ProvisionerFactory, ShardConfig, ShardedProvisioner};
pub use store::{
    FastPathMiss, PlacementStore, ReservationId, ReserveError, StoreCounters, TxnError,
};
