//! Runtime job state.
//!
//! The engine keeps a resident job as two records in two arena columns
//! ([`JobStore`](crate::JobStore)):
//!
//! * [`RunningJob`], the cold half — identity, request, SLO and lifecycle
//!   state, read at admission, placement, view and completion time;
//! * `HotJob`, the hot half — everything advance reads every slot the
//!   job runs: allocation, this slot's demand row, progress, duration,
//!   the demand series and the headers of the two observed histories
//!   provisioners learn from. It is 128 bytes on two cache lines, so
//!   advance reaches one record per job, and the congestion sum over a
//!   VM's jobs only its first line.
//!
//! A running job is also on its VM's job list, which keeps its two
//! neighbours and its newest unused sample in columns beside the arena.
//!
//! A job leaves the engine when it completes or is rejected: what it
//! leaves behind is its share of the report's counts and the
//! [`SlotOutcome`](crate::SlotOutcome) entry of the slot it left in.

use crate::resources::ResourceVector;
use corp_trace::{JobSpec, NUM_RESOURCES};

/// Identifies a job within one simulation (the spec's id).
pub type JobId = u64;

/// Lifecycle state of a job in the engine. Completion and rejection are
/// not states: they are the moments a job leaves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JobState {
    /// Submitted, waiting for placement.
    Pending,
    /// Placed on a VM and executing.
    Running {
        /// Hosting VM.
        vm: usize,
    },
}

/// The cold half of a resident job: what identifies it and what its
/// response is judged against. One cache line.
#[derive(Debug, Clone)]
#[repr(align(64))]
pub struct RunningJob {
    /// The spec's id.
    pub id: JobId,
    /// Slot the job arrived.
    pub arrival_slot: u64,
    /// The job's SLO threshold in slots.
    pub slo_slots: usize,
    /// Requested (peak) resources.
    pub requested: ResourceVector,
    /// Current lifecycle state.
    pub state: JobState,
}

impl RunningJob {
    /// Splits a spec into its cold half, in the pending state, and its
    /// hot half, which takes the spec's demand series and the history
    /// buffers handed in (cleared, their capacity kept).
    pub(crate) fn new(spec: JobSpec, histories: [Vec<ResourceVector>; 2]) -> (Self, HotJob) {
        let [mut observed_demand, mut observed_unused] = histories;
        observed_demand.clear();
        observed_unused.clear();
        let cold = RunningJob {
            id: spec.id,
            arrival_slot: spec.arrival_slot,
            slo_slots: spec.slo_slots,
            requested: ResourceVector::new(spec.requested),
            state: JobState::Pending,
        };
        let mut hot = HotJob {
            allocation: ResourceVector::ZERO,
            demand_now: ResourceVector::ZERO,
            progress: 0.0,
            duration: spec.duration_slots as f64,
            demand: spec.demand.into_boxed_slice(),
            observed_demand,
            observed_unused,
        };
        hot.demand_now = hot.current_demand();
        (cold, hot)
    }

    /// The job id.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Response time in slots if the job finished at `finish_slot`.
    pub(crate) fn response_slots(&self, finish_slot: u64) -> u64 {
        finish_slot.saturating_sub(self.arrival_slot) + 1
    }

    /// Whether finishing at `finish_slot` violates the SLO.
    pub(crate) fn violates_slo(&self, finish_slot: u64) -> bool {
        self.response_slots(finish_slot) > self.slo_slots as u64
    }
}

/// The hot half of a resident job: what advance reads each slot, in one
/// 128-byte record; the first line holds the scalars, the second the
/// series.
#[derive(Debug, Clone, Default)]
#[repr(C, align(64))]
pub(crate) struct HotJob {
    /// Current allocation `r_ij`.
    pub allocation: ResourceVector,
    /// [`current_demand`](Self::current_demand), kept current wherever
    /// `progress` changes: the row the job demands on the next slot it
    /// runs, read without following `demand`.
    pub demand_now: ResourceVector,
    /// Fractional execution progress in slots of work completed.
    pub progress: f64,
    /// The spec's `duration_slots`, as the float progress is compared
    /// with.
    pub duration: f64,
    /// True demand per running slot (the spec's series).
    pub demand: Box<[[f64; NUM_RESOURCES]]>,
    /// Demand actually exhibited at each past slot while running (what a
    /// monitoring agent would have observed) — provisioners train on this.
    /// Empty throughout under a provisioner whose
    /// [`full_view_period`](crate::Provisioner::full_view_period) is
    /// `u64::MAX`: nothing would read it. On a full-view slot the engine
    /// lends the buffer to the job's view for the `provision` call.
    pub observed_demand: Vec<ResourceVector>,
    /// Unused allocated resource observed at each past running slot
    /// (`allocation - demand`, clamped at zero), the series the paper's
    /// DNN+HMM predicts. Kept and lent under the same rules as
    /// `observed_demand`.
    pub observed_unused: Vec<ResourceVector>,
}

impl HotJob {
    /// True demand at the job's current (integer) progress point; past
    /// the series' end, its last row; zero for an empty series.
    #[inline]
    pub(crate) fn current_demand(&self) -> ResourceVector {
        let row = match self.demand.len() {
            0 => [0.0; NUM_RESOURCES],
            n => self.demand[(self.progress as usize).min(n - 1)],
        };
        ResourceVector::new(row)
    }

    /// Whether the job has completed all its work.
    #[inline]
    pub(crate) fn work_done(&self) -> bool {
        self.progress + 1e-9 >= self.duration
    }

    /// Unused series for one resource index, freshly allocated: what the
    /// engine's reused completion records are checked against.
    #[cfg(test)]
    pub(crate) fn unused_series(&self, resource: usize) -> Vec<f64> {
        self.observed_unused.iter().map(|u| u[resource]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corp_trace::{WorkloadConfig, WorkloadGenerator};

    fn sample_spec() -> JobSpec {
        let mut g = WorkloadGenerator::new(
            WorkloadConfig {
                num_jobs: 1,
                ..WorkloadConfig::default()
            },
            1,
        );
        g.generate().remove(0)
    }

    fn sample_job() -> (RunningJob, HotJob) {
        RunningJob::new(sample_spec(), Default::default())
    }

    #[test]
    fn new_job_is_pending_with_zero_progress() {
        let (j, hot) = sample_job();
        assert_eq!(j.state, JobState::Pending);
        assert_eq!(hot.progress, 0.0);
        assert_eq!(hot.allocation, ResourceVector::ZERO);
    }

    #[test]
    fn work_done_threshold() {
        let spec = sample_spec();
        let duration = spec.duration_slots as f64;
        let (_, mut hot) = RunningJob::new(spec, Default::default());
        assert!(!hot.work_done());
        hot.progress = duration;
        assert!(hot.work_done());
        hot.progress = duration - 0.5;
        assert!(!hot.work_done());
    }

    #[test]
    fn response_time_counts_inclusive_slots() {
        let (mut j, _) = sample_job();
        j.arrival_slot = 10;
        assert_eq!(
            j.response_slots(10),
            1,
            "arriving and finishing same slot = 1 slot"
        );
        assert_eq!(j.response_slots(14), 5);
    }

    #[test]
    fn slo_violation_is_strict_excess() {
        let (mut j, _) = sample_job();
        j.arrival_slot = 0;
        j.slo_slots = 10;
        assert!(!j.violates_slo(9), "response 10 == threshold 10 is fine");
        assert!(j.violates_slo(10), "response 11 > 10 violates");
    }

    #[test]
    fn series_extraction_matches_observations() {
        // Buffers handed in are cleared, their room kept for the tenant.
        let stale = vec![ResourceVector::splat(9.0); 40];
        let (_, mut hot) = RunningJob::new(sample_spec(), [stale.clone(), stale]);
        assert!(hot.observed_unused.is_empty() && hot.observed_unused.capacity() >= 40);
        hot.observed_unused
            .push(ResourceVector::new([1.0, 2.0, 3.0]));
        hot.observed_unused
            .push(ResourceVector::new([4.0, 5.0, 6.0]));
        assert_eq!(hot.unused_series(0), vec![1.0, 4.0]);
        assert_eq!(hot.unused_series(2), vec![3.0, 6.0]);
    }

    #[test]
    fn current_demand_tracks_progress() {
        // The same rows `JobSpec::demand_at` reads, clamped past the end.
        let spec = sample_spec();
        let (_, mut hot) = RunningJob::new(spec.clone(), Default::default());
        for progress in [0.0, 1.2, 2.9, spec.duration_slots as f64 + 5.0] {
            hot.progress = progress;
            let row = spec.demand_at(progress as usize);
            assert_eq!(hot.current_demand().as_array(), &row, "{progress}");
        }
        hot.demand = Box::default();
        assert_eq!(hot.current_demand(), ResourceVector::ZERO);
    }

    #[test]
    fn records_fill_whole_cache_lines() {
        // Beside the records, an arena slot's list columns hold its two
        // neighbours and its newest unused sample: 32 bytes.
        assert_eq!(std::mem::size_of::<RunningJob>(), 64);
        assert_eq!(std::mem::size_of::<HotJob>(), 128);
        let links = 2 * std::mem::size_of::<u32>() + std::mem::size_of::<ResourceVector>();
        assert_eq!(links, 32);
    }
}
