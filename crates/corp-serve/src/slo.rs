//! Placement deadlines: the admission SLO and its accounting.
//!
//! A short-lived job that waits too long for placement is often worthless
//! by the time it runs — the paper's motivation for treating placement
//! latency as a first-class SLO. [`DeadlineConfig`] is an optional
//! placement deadline (virtual microseconds from arrival), the same for
//! every [`IntensityClass`](corp_trace::IntensityClass); the daemon consults it twice:
//!
//! * **At every tick, before draining**: a queued job whose wait already
//!   *exceeds* its deadline is expired — removed from the queue, counted
//!   in [`SloStats::expired`], and never submitted to the engine. Shedding
//!   it early frees queue capacity for jobs that can still make it.
//! * **At placement**: the measured latency is classified as a deadline
//!   hit (`latency <= deadline`) or miss. Without a deadline nothing is
//!   classified.
//!
//! With no deadline (the default) nothing expires, nothing is
//! classified, and serve reports stay byte-identical to pre-deadline
//! builds modulo the zeroed counters — the acceptance bar for this layer.

use serde::Serialize;

/// Optional placement deadline, in virtual microseconds from the arrival
/// event; every intensity class gets the same one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeadlineConfig {
    deadline_micros: Option<u64>,
}

impl DeadlineConfig {
    /// No deadlines: nothing expires, nothing is classified.
    pub fn unbounded() -> Self {
        DeadlineConfig::default()
    }

    /// The same deadline for every class.
    pub fn uniform(micros: u64) -> Self {
        DeadlineConfig {
            deadline_micros: Some(micros),
        }
    }

    /// The deadline every job gets, if there is one.
    pub(crate) fn deadline(&self) -> Option<u64> {
        self.deadline_micros
    }

    /// True when no class has a deadline (the fast path: the daemon skips
    /// expiry scans entirely).
    pub(crate) fn is_unbounded(&self) -> bool {
        self.deadline_micros.is_none()
    }
}

/// Deadline accounting, serialized into the `ServeReport`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct SloStats {
    /// Placements within the class deadline (`latency <= deadline`).
    pub deadline_hits: u64,
    /// Placements past the class deadline.
    pub deadline_misses: u64,
    /// Jobs shed while queued because their wait exceeded the deadline;
    /// they never reached the engine.
    pub expired: u64,
}

impl SloStats {
    /// Classifies one placement latency against `deadline` (no-op when the
    /// class has no deadline).
    pub(crate) fn record_placement(&mut self, latency_micros: u64, deadline: Option<u64>) {
        match deadline {
            Some(d) if latency_micros <= d => self.deadline_hits += 1,
            Some(_) => self.deadline_misses += 1,
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_has_no_deadlines() {
        let cfg = DeadlineConfig::unbounded();
        assert!(cfg.is_unbounded());
        assert_eq!(cfg.deadline(), None);
    }

    #[test]
    fn uniform_applies_to_every_class() {
        let cfg = DeadlineConfig::uniform(5_000_000);
        assert!(!cfg.is_unbounded());
        assert_eq!(cfg.deadline(), Some(5_000_000));
    }

    #[test]
    fn placement_classification() {
        let mut stats = SloStats::default();
        stats.record_placement(10, Some(10)); // on the line: a hit
        stats.record_placement(11, Some(10));
        stats.record_placement(999, None); // no deadline: unclassified
        assert_eq!(stats.deadline_hits, 1);
        assert_eq!(stats.deadline_misses, 1);
        assert_eq!(stats.expired, 0);
    }
}
