//! Experiment harness for the CORP reproduction.
//!
//! One runner per table/figure of the paper's evaluation (Section IV),
//! listed by name in [`RUNNERS`]:
//!
//! | paper artifact | runner | what it sweeps |
//! |---|---|---|
//! | Table II | `table2` | parameter settings |
//! | Fig. 6  | `fig6`  | prediction error rate vs #jobs (cluster) |
//! | Fig. 7  | `fig7`  | per-resource utilization vs #jobs (cluster) |
//! | Fig. 8  | `fig8`  | overall utilization vs SLO violation rate (cluster) |
//! | Fig. 9  | `fig9`  | SLO violation rate vs confidence level (cluster) |
//! | Fig. 10 | `fig10` | allocation overhead for 300 jobs (cluster) |
//! | Fig. 11 | `fig11` | per-resource utilization vs #jobs (EC2) |
//! | Fig. 12 | `fig12` | overall utilization vs SLO violation rate (EC2) |
//! | Fig. 13 | `fig13` | SLO violation rate vs confidence level (EC2) |
//! | Fig. 14 | `fig14` | allocation overhead for 300 jobs (EC2) |
//! | DESIGN.md §6 | `ablations` | CORP component ablations |
//! | DESIGN.md §2 (corp-cluster) | `scalability` | throughput/conflicts vs scheduler shard count |
//!
//! Sweeps fan out across OS threads with `std::thread::scope` — every cell
//! of a figure is an independent, deterministic simulation, so the fan-out
//! is embarrassingly parallel and data-race-free by construction.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Numerical kernels index several same-length arrays in lockstep; the
// index-based loops are clearer than zipped iterator chains there.
#![allow(clippy::needless_range_loop)]

mod env;
mod experiments;
mod flags;
mod ledger;
mod resilience;
mod scale;
mod serve;
mod table;

pub use env::{
    build_provisioner, build_sharded_provisioner, historical_histories, run_cell, run_cell_faulty,
    run_cell_sharded, Environment, SchemeKind, SchemeParams, ALL_SCHEMES,
};
pub use experiments::{FigureTable, RUNNERS};
pub use ledger::attribute_experiment;
pub use resilience::{resilience_experiment, run_resilience, ResilienceArgs};
pub use scale::{scale_experiment, ScaleArgs};
pub use serve::{run_serve, run_serve_sharded, serve_experiment, serve_workload, ServeArgs};
pub use table::TextTable;
