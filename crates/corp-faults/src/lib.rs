//! Seeded, fully deterministic fault schedules for the CORP reproduction.
//!
//! Availability claims are meaningless on a perfectly healthy fleet: the
//! paper's conservatism machinery (CI lower bound, the Eq. 21 preemption
//! gate) earns its keep exactly when predictions are wrong and machines
//! misbehave. This crate generates *pre-computed* fault schedules from a
//! seed so chaos runs replay byte-identically — the schedule is data, not
//! runtime randomness, which keeps every determinism test meaningful under
//! failure injection.
//!
//! Fault taxonomy:
//!
//! - **VM crash/recovery windows** ([`FaultEvent::VmCrash`] /
//!   [`FaultEvent::VmRecover`]): capacity leaves and rejoins the fleet;
//!   running jobs on the crashed VM are killed and re-enqueued by the
//!   engine.
//! - **Capacity degradation** ([`FaultEvent::VmDegrade`] /
//!   [`FaultEvent::VmRestore`]): a straggler VM delivers only a fraction
//!   of its nominal capacity, throttling the jobs it hosts without
//!   changing commitment arithmetic.
//! - **Predictor poisoning** ([`FaultEvent::PoisonViews`]): the monitoring
//!   tails a provisioner sees for one VM on one slot are corrupted with
//!   NaN or a multiplicative spike; ground truth is untouched.
//! - **Control-plane chaos** ([`ControlFaultPlan`]): scheduled shard-worker
//!   kills, provision-request drops, and reply delays consumed by the
//!   `corp-cluster` supervisor.
//! - **Arrival storms** ([`StormPlan`]): demand-side chaos — monotone slot
//!   compression windows that pack arrivals into bursts, consumed by the
//!   `corp-serve` resilience experiment.
//!
//! [`generate`] expands a [`FaultConfig`] (one fixed fault mix whose
//! expected event counts scale with its intensity) into a
//! [`FaultSchedule`]; intensity `0.0` yields an empty schedule, and a fixed
//! seed always yields the same bytes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod control;
mod events;
mod schedule;
mod storm;

pub use config::FaultConfig;
pub use control::{ControlFaultPlan, SlotShard};
pub use events::{FaultEvent, FaultTimeline, PoisonKind, TimedFault};
pub use schedule::{generate, FaultSchedule};
pub use storm::{StormPlan, StormWindow};
