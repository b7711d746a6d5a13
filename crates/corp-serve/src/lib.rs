//! Online provisioning daemon for the CORP reproduction.
//!
//! The paper's evaluation runs its four schemes in a lockstep slot loop,
//! but the system it describes is a live control plane: short-lived jobs
//! arrive on a stream, admission happens under backpressure, and placement
//! latency is a first-class SLO. This crate is that serving mode
//! (DESIGN.md §12), built from three pieces:
//!
//! * [`ServeDaemon`] — the slot loop, driving the *same*
//!   [`corp_sim::SlotEngine`] the batch simulation uses: each slot, the
//!   arrivals that are due go to the admission queue, then the tick
//!   expires, drains, steps the engine and records placement latency.
//!   Time is virtual (slot × 10 s), so runs are reproducible bit for bit.
//!   At unbounded queue capacity and infinite speed it reproduces the
//!   batch run byte for byte — same jobs on the same VMs — which is what
//!   makes serving mode a mode, not a fork.
//! * [`AdmissionQueue`] — a bounded FIFO between arrivals and the engine with
//!   three backpressure ladders (block, shed-oldest, reject-new) and full
//!   admission/shed/high-water accounting.
//! * [`ReplaySpeed`] — pacing: `inf` serves the trace as fast
//!   as the host allows (the byte-deterministic batch mode), `N` paces one
//!   virtual second per `1/N` wall seconds without ever feeding wall
//!   readings back into the simulation.
//!
//! Overload is a first-class concern (DESIGN.md §13), handled by three
//! cooperating layers, each deterministic and fully accounted:
//!
//! * [`DeadlineConfig`] — placement deadlines: jobs that out-wait their
//!   deadline in the queue are expired before ever reaching the engine,
//!   and placements are classified as deadline hits or misses.
//! * [`BrownoutConfig`] — an adaptive degradation ladder watching queue depth
//!   and per-tick placement latency, trading scheduling quality for
//!   survival one explicit rung at a time (skip the reallocation gate →
//!   skip forecasting → reject new work) and stepping back down after
//!   consecutive calm ticks.
//! * [`BreakerSupervisor`] — per-shard circuit breakers over the `corp-cluster`
//!   coordinator: K consecutive failure fallbacks isolate a shard (forced
//!   inline, its pipeline not run) until a half-open probe in
//!   virtual-slot backoff succeeds.
//!
//! Reports ([`ServeReport`]) extend the engine report with placement-
//! latency percentiles (p50/p95/p99 via the GK sketch in `corp-stats`),
//! queue-depth high-water marks, deadline and brownout accounting, and
//! event totals; wall-clock throughput rides outside the report in
//! [`ServeOutcome`] so serialization stays deterministic.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod admission;
mod breaker;
mod brownout;
mod clock;
mod daemon;
mod report;
mod slo;

pub use admission::{Admission, AdmissionQueue, BackpressurePolicy, QueueStats, QueuedJob};
pub use breaker::BreakerSupervisor;
pub use brownout::{
    BrownoutConfig, BrownoutLevel, BrownoutSummary, BrownoutTransition, BrownoutTrigger,
};
pub use clock::ReplaySpeed;
pub use daemon::{ServeConfig, ServeDaemon};
pub use report::{LatencySummary, ServeOutcome, ServeReport};
pub use slo::{DeadlineConfig, SloStats};
