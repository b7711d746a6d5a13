//! Discrete-time multi-resource cluster/cloud simulator for the CORP
//! reproduction.
//!
//! The paper evaluates on a 50-server slice of Clemson's Palmetto cluster
//! and on 30 Amazon EC2 nodes. Neither is available here, so this crate is
//! the substitution (DESIGN.md §5): a slot-stepped simulator of physical
//! machines, VMs, and short-lived jobs that reproduces everything the
//! paper's metrics actually measure:
//!
//! * per-slot allocated (`r_ij,t`) vs. demanded (`d_ij,t`) resources and the
//!   derived utilization/wastage ratios (Eqs. 1-4), per slot in
//!   [`UtilizationSample`] and per run in [`SimulationReport`];
//! * SLO accounting — a job violates its SLO when its response time
//!   (queueing + possibly-throttled execution) exceeds its threshold;
//! * an allocation-overhead model combining the *measured* wall-clock cost
//!   of each provisioning decision with a per-message communication latency
//!   drawn from the environment profile (higher on EC2), which is what
//!   separates paper Figs. 10 and 14;
//! * prediction bookkeeping: provisioners register unused-resource
//!   predictions and the engine resolves them against actuals, yielding the
//!   prediction-error rate of Fig. 6.
//!
//! Scheduling policy itself lives outside: anything implementing
//! [`Provisioner`] can drive the simulation (CORP and its baselines live in
//! the `corp-core` crate).
//!
//! ## Execution model
//!
//! Allocations are strict reservations: a running job progresses each slot
//! by `min(1, min_r r/d, vm congestion factor)` — under-allocating a job
//! (aggressive reclaim) or overcommitting a VM (total demand beyond
//! capacity) slows the affected jobs and pushes them toward SLO violations,
//! while over-allocating wastes resources and lowers utilization. This is
//! precisely the tension the paper's prediction machinery navigates.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cluster;
mod control_plane;
mod engine;
mod faults;
mod job;
mod metrics;
mod provisioner;
mod resources;
mod ring;
mod store;
mod streaming;
mod vm_set;

pub use cluster::{Cluster, EnvironmentProfile, VmDescriptor};
pub use control_plane::{BreakerStateName, BreakerTransition, ControlPlaneStats, ShardStats};
pub use engine::{
    PhaseTimes, Simulation, SimulationOptions, SimulationReport, SlotEngine, SlotOutcome,
};
pub use faults::FaultStats;
pub use job::{JobId, JobState, RunningJob};
pub use metrics::UtilizationSample;
pub use provisioner::{
    JobCompletion, JobShare, PendingJobView, Placement, PredictionRecord, ProvisionPlan,
    Provisioner, RunningJobView, SlotContext, StaticPeakProvisioner, VmView, VIEW_HISTORY_CAP,
};
pub use resources::{FreeLanes, ResourceVector, LANES, RESOURCE_WEIGHTS};
pub use store::JobStore;
pub use streaming::StreamingSimulation;
