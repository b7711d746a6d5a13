//! Serving-mode reports.
//!
//! [`ServeReport`] extends the engine's `SimulationReport` with the
//! request-level view only a driver with a front door has: placement-latency
//! percentiles, admission-queue counters, and event totals. Everything in
//! it is derived from virtual time and deterministic counters, so two runs
//! with the same seed and trace serialize to identical bytes — the
//! property the serve determinism tests pin. Wall-clock throughput is
//! deliberately *not* in the report: [`ServeOutcome`] carries it alongside
//! (the same split `run_cell_sharded` uses for its wall-seconds
//! measurement).

use crate::admission::QueueStats;
use crate::brownout::BrownoutSummary;
use crate::slo::SloStats;
use corp_sim::SimulationReport;
use corp_stats::QuantileSketch;
use serde::Serialize;

/// Placement-latency percentiles in virtual microseconds, measured from a
/// job's arrival event to the tick that placed it on a VM.
#[derive(Debug, Clone, Serialize)]
pub struct LatencySummary {
    /// Number of placements measured.
    pub count: u64,
    /// Median latency.
    pub p50_micros: f64,
    /// 95th-percentile latency.
    pub p95_micros: f64,
    /// 99th-percentile latency.
    pub p99_micros: f64,
    /// Worst observed latency (exact).
    pub max_micros: f64,
}

impl LatencySummary {
    /// Summarizes a latency sketch; an empty sketch yields zeroed
    /// percentiles with `count = 0`.
    pub(crate) fn from_sketch(sketch: &QuantileSketch) -> Self {
        LatencySummary {
            count: sketch.count(),
            p50_micros: sketch.query(0.50).unwrap_or(0.0),
            p95_micros: sketch.query(0.95).unwrap_or(0.0),
            p99_micros: sketch.query(0.99).unwrap_or(0.0),
            max_micros: sketch.max().unwrap_or(0.0),
        }
    }
}

/// The serving daemon's run report: the engine report plus request-level
/// latency and admission accounting. Byte-deterministic for a given seed,
/// trace, and configuration.
#[derive(Debug, Clone, Serialize)]
pub struct ServeReport {
    /// The underlying engine report (utilization, SLOs, predictions,
    /// faults — everything the batch mode reports).
    pub sim: SimulationReport,
    /// Placement-latency percentiles over all placed jobs.
    pub placement_latency: LatencySummary,
    /// Admission-queue counters and depth high-water mark.
    pub queue: QueueStats,
    /// Deadline accounting (hits, misses, queue expiries); all zero when
    /// the run has no deadlines configured.
    pub slo: SloStats,
    /// Degradation-ladder summary (final/max rung and every transition);
    /// empty when the controller is disabled or never triggered.
    pub brownout: BrownoutSummary,
    /// Total events processed (arrivals, ticks, completions, drain,
    /// shutdown).
    pub events_processed: u64,
    /// Provisioning ticks executed (slots stepped).
    pub ticks: u64,
    /// Virtual time at shutdown, in microseconds.
    pub virtual_end_micros: u64,
}

/// A [`ServeReport`] plus the wall-clock measurements that must stay out
/// of it (they vary run to run; the report must not).
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// The deterministic report.
    pub report: ServeReport,
    /// Wall-clock duration of the run in seconds.
    pub wall_secs: f64,
    /// Events processed per wall-clock second.
    pub events_per_sec: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sketch_summarizes_to_zeroes() {
        let s = LatencySummary::from_sketch(&QuantileSketch::new(0.01));
        assert_eq!(s.count, 0);
        assert_eq!(s.p50_micros, 0.0);
        assert_eq!(s.max_micros, 0.0);
    }

    #[test]
    fn percentiles_are_ordered() {
        let mut q = QuantileSketch::new(0.005);
        for i in 0..1000 {
            q.insert((i % 97) as f64 * 1000.0);
        }
        let s = LatencySummary::from_sketch(&q);
        assert_eq!(s.count, 1000);
        assert!(s.p50_micros <= s.p95_micros);
        assert!(s.p95_micros <= s.p99_micros);
        assert!(s.p99_micros <= s.max_micros);
    }
}
