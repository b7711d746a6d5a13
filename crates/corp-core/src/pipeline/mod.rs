//! The staged provisioning pipeline every scheme is a configuration of.
//!
//! CORP's Section III is naturally a staged pipeline — predict unused
//! resources (DNN, Eqs. 5–8), correct fluctuations (HMM, Eqs. 9–17),
//! subtract the confidence margin (Eqs. 18–19), gate preemption (Eq. 21),
//! pack complementary jobs by `DV(j, i)`, and best-fit place by Eq. 22.
//! This module decomposes that pipeline into four stage traits and one
//! driver, so a scheme is a *configuration*, not a copy of the slot loop:
//!
//! | stage                | trait                | paper equations        |
//! |----------------------|----------------------|------------------------|
//! | 1. predict + correct | [`UsagePredictor`]   | Eqs. 5–19 (forecast), Eq. 20 (outcome scoring) |
//! | 2. reallocate        | [`ReallocationGate`] | Eq. 21 gate / baseline padding |
//! | 3. pack              | [`JobPacker`]        | Section III-C `DV(j, i)` pairing |
//! | 4. place             | [`PlacementBackend`] | Eq. 22 volume best-fit |
//!
//! [`ProvisioningPipeline`] composes the four behind the engine's
//! [`corp_sim::Provisioner`] interface. The monolithic schemes
//! ([`crate::CorpProvisioner`] and the three baselines) are type aliases
//! over concrete stage sets; the
//! sharded control plane (`corp-cluster`) runs the *same* pipelines inside
//! its shard workers, and its arbitration settles capacity conflicts
//! between their proposals against its `PlacementStore`.
//!
//! Determinism is a stage contract: predictors fan out through the
//! `PredictRuntime` (the calling thread plus persistent pool workers)
//! writing by task index, gates mutate pools in fleet scan order, and
//! backends draw from the pipeline RNG only when their policy does — so
//! reports are byte-identical across thread counts and the
//! monolithic/sharded split (pinned by the determinism suite in
//! `corp-bench`).

#![warn(missing_docs)]

mod backend;
mod driver;
mod gate;
mod pack;
mod pool;
mod predict;

pub use backend::{AdmissionPolicy, Claim, DirectBackend, PlacementBackend, VmSelector};
pub use driver::ProvisioningPipeline;
pub use gate::{BaselineReclaimGate, CorpReclaimGate, ReallocationGate, RecordOnlyGate};
pub use pack::{JobPacker, Packing};
pub use pool::{configured_pool_width, hardware_parallelism, per_task, WorkerPool};
pub use predict::{
    CorpUsagePredictor, FiniteGuard, PendingOutcome, UsagePredictor, VmPredictorCore,
    VmWindowPredictor, WindowForecast,
};
