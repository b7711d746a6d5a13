//! Runtime job state.
//!
//! Wraps a [`corp_trace::JobSpec`] with everything the engine tracks while
//! the job moves through the system: queueing, placement, fractional
//! progress under throttling, and the observed demand history that
//! provisioners learn from.

use crate::resources::ResourceVector;
use corp_trace::JobSpec;
use serde::{Deserialize, Serialize};

/// Identifies a job within one simulation (the spec's id).
pub type JobId = u64;

/// Lifecycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum JobState {
    /// Submitted, waiting for placement.
    Pending,
    /// Placed on a VM and executing.
    Running {
        /// Hosting VM.
        vm: usize,
    },
    /// Finished; `violated` records the SLO outcome.
    Completed {
        /// Slot at which the job finished.
        finish_slot: u64,
        /// Whether the response time exceeded the SLO threshold.
        violated: bool,
    },
    /// Rejected on arrival (request larger than any VM — cannot ever run).
    Rejected,
}

/// A job plus its runtime bookkeeping.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunningJob {
    /// The immutable workload description.
    pub spec: JobSpec,
    /// Current lifecycle state.
    pub state: JobState,
    /// Fractional execution progress in slots of work completed.
    pub progress: f64,
    /// Slot at which the job was first placed on a VM, if ever.
    pub placed_slot: Option<u64>,
    /// VM hosting the most recent placement, if ever placed. Unlike the
    /// `Running { vm }` state this survives completion, so cross-mode
    /// equivalence tests can compare job→VM maps after the run.
    pub placed_vm: Option<usize>,
    /// Demand actually exhibited at each past slot while running (what a
    /// monitoring agent would have observed) — provisioners train on this.
    /// Empty throughout under a provisioner whose
    /// [`full_view_period`](crate::Provisioner::full_view_period) is
    /// `u64::MAX`: nothing would read it.
    pub observed_demand: Vec<ResourceVector>,
    /// Unused allocated resource observed at each past running slot
    /// (`allocation - demand`, clamped at zero), the series the paper's
    /// DNN+HMM predicts. Kept under the same rule as `observed_demand`.
    pub observed_unused: Vec<ResourceVector>,
}

impl RunningJob {
    /// Wraps a spec in the pending state.
    pub fn new(spec: JobSpec) -> Self {
        RunningJob {
            spec,
            state: JobState::Pending,
            progress: 0.0,
            placed_slot: None,
            placed_vm: None,
            observed_demand: Vec::new(),
            observed_unused: Vec::new(),
        }
    }

    /// The job id.
    pub fn id(&self) -> JobId {
        self.spec.id
    }

    /// Requested (peak) resources as a vector.
    pub fn requested(&self) -> ResourceVector {
        ResourceVector::new(self.spec.requested)
    }

    /// True demand at the job's current (integer) progress point.
    pub fn current_demand(&self) -> ResourceVector {
        ResourceVector::new(self.spec.demand_at(self.progress as usize))
    }

    /// Whether the job has completed all its work.
    pub fn work_done(&self) -> bool {
        self.progress + 1e-9 >= self.spec.duration_slots as f64
    }

    /// Response time in slots if the job finished at `finish_slot`.
    pub fn response_slots(&self, finish_slot: u64) -> u64 {
        finish_slot.saturating_sub(self.spec.arrival_slot) + 1
    }

    /// Whether finishing at `finish_slot` violates the SLO.
    pub fn violates_slo(&self, finish_slot: u64) -> bool {
        self.response_slots(finish_slot) > self.spec.slo_slots as u64
    }

    /// Unused series for one resource index, freshly allocated: what the
    /// engine's reused completion records are checked against.
    #[cfg(test)]
    pub fn unused_series(&self, resource: usize) -> Vec<f64> {
        self.observed_unused.iter().map(|u| u[resource]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corp_trace::{WorkloadConfig, WorkloadGenerator};

    fn sample_job() -> RunningJob {
        let mut g = WorkloadGenerator::new(
            WorkloadConfig {
                num_jobs: 1,
                ..WorkloadConfig::default()
            },
            1,
        );
        RunningJob::new(g.generate().remove(0))
    }

    #[test]
    fn new_job_is_pending_with_zero_progress() {
        let j = sample_job();
        assert_eq!(j.state, JobState::Pending);
        assert_eq!(j.progress, 0.0);
    }

    #[test]
    fn work_done_threshold() {
        let mut j = sample_job();
        assert!(!j.work_done());
        j.progress = j.spec.duration_slots as f64;
        assert!(j.work_done());
        j.progress = j.spec.duration_slots as f64 - 0.5;
        assert!(!j.work_done());
    }

    #[test]
    fn response_time_counts_inclusive_slots() {
        let mut j = sample_job();
        j.spec.arrival_slot = 10;
        assert_eq!(
            j.response_slots(10),
            1,
            "arriving and finishing same slot = 1 slot"
        );
        assert_eq!(j.response_slots(14), 5);
    }

    #[test]
    fn slo_violation_is_strict_excess() {
        let mut j = sample_job();
        j.spec.arrival_slot = 0;
        j.spec.slo_slots = 10;
        assert!(!j.violates_slo(9), "response 10 == threshold 10 is fine");
        assert!(j.violates_slo(10), "response 11 > 10 violates");
    }

    #[test]
    fn series_extraction_matches_observations() {
        let mut j = sample_job();
        j.observed_unused.push(ResourceVector::new([1.0, 2.0, 3.0]));
        j.observed_unused.push(ResourceVector::new([4.0, 5.0, 6.0]));
        assert_eq!(j.unused_series(0), vec![1.0, 4.0]);
        assert_eq!(j.unused_series(2), vec![3.0, 6.0]);
    }

    #[test]
    fn current_demand_tracks_progress() {
        let mut j = sample_job();
        let d0 = j.current_demand();
        assert_eq!(d0.as_array(), &j.spec.demand[0]);
        if j.spec.duration_slots > 1 {
            j.progress = 1.2;
            assert_eq!(j.current_demand().as_array(), &j.spec.demand[1]);
        }
    }
}
