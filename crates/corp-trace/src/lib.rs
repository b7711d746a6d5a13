//! Workload substrate for the CORP reproduction.
//!
//! The paper drives all experiments from the 2011 Google cluster trace:
//! task resource requirements and usage sampled every 5 minutes, long-lived
//! jobs removed, and the remainder re-sampled onto 10-second slots. That
//! trace is not redistributable and is unavailable offline, so this crate
//! provides the closest synthetic equivalent plus the exact pipeline the
//! paper describes:
//!
//! * [`workload`] — a generator of short-lived jobs (10 s to the paper's
//!   5-minute timeout) whose per-slot multi-resource usage *fluctuates
//!   without periodic patterns* (random walk + bursts + occasional peaks and
//!   valleys), stratified by resource-intensity class (CPU-, memory-, or
//!   storage-dominant) so the complementary-packing machinery has real work
//!   to do.
//! * [`arrival`] — a bursty (flash-crowd) arrival process for submission
//!   times; the generator's own clock is Poisson.
//! * [`google`] — a Google-trace-like record format with CSV parsing and
//!   serialization, the 5-minute to 10-second re-slotting transform, and
//!   the long-job filter from Section IV.
//! * [`series`] — time-series helpers shared with the HMM quantizer:
//!   window fluctuation spreads (the `Delta_j` of the paper's
//!   observation-symbol construction).
//! * [`recorded`] — a versioned on-disk text format for generated
//!   workloads, so the `corp-serve` daemon can replay the exact same
//!   arrival stream across runs and machines.
//!
//! Everything is seeded ([`rand::rngs::StdRng`]) so experiment runs are
//! reproducible bit-for-bit.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Numerical kernels index several same-length arrays in lockstep; the
// index-based loops are clearer than zipped iterator chains there.
#![allow(clippy::needless_range_loop)]

pub mod arrival;
pub mod google;
pub mod longlived;
pub mod recorded;
pub mod series;
pub mod source;
pub mod stream;
pub mod workload;

pub use arrival::BurstyArrivals;
pub use google::{
    filter_short_lived, parse_csv, parse_line, resample_trace, to_csv, TaskRecord, TraceError,
    GOOGLE_FIELDS,
};
pub use longlived::{LongLivedConfig, LongLivedGenerator};
pub use recorded::{
    format_trace, load_trace, parse_trace, save_trace, RecordedTraceError, TRACE_HEADER,
};
pub use series::{fluctuation_spreads, window_spread};
pub use source::{
    records_to_jobs, IngestConfig, IntoSpecs, JobSource, JobWindow, JobWindows, SyntheticSource,
    TraceJobSource,
};
pub use stream::{GoogleCsvReader, ReadError};
pub use workload::{
    IntensityClass, JobSpec, ResourceKind, WorkloadConfig, WorkloadGenerator, NUM_RESOURCES,
};
