//! Generational slab job store: one cold and one hot record per job.
//!
//! [`JobStore`] holds the jobs the engine has admitted and not yet seen
//! leave, as an arena addressed by [`JobHandle`]s (index + generation, so
//! a recycled slot invalidates stale handles) with two columns:
//!
//! * [`RunningJob`] — identity, request, SLO, lifecycle state;
//! * `HotJob` — allocation, this slot's demand row, progress, duration,
//!   the demand series and the two history buffers: everything the
//!   engine's advance phase reads, in one record;
//!
//! and one dense column, the newest unused sample of each job, which
//! advance writes and the same slot's prediction scoring reads.
//!
//! A job that completes or is rejected releases its slot and demand
//! series at once; its history buffers stay in the slot, cleared, for the
//! next tenant, and the next insert reuses the slot. The arena's
//! high-water mark is the peak number of resident jobs, whatever the
//! trace length.

use crate::job::{HotJob, RunningJob};
use crate::resources::ResourceVector;
use corp_trace::JobSpec;

/// Stable reference to a job slot: arena index plus the generation the
/// slot had when the job was inserted. A handle whose generation no
/// longer matches the slot's is *stale* — its job released the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobHandle {
    index: u32,
    generation: u32,
}

impl JobHandle {
    /// The arena index this handle points at.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.index as usize
    }
}

/// The arena job store backing a [`SlotEngine`](crate::SlotEngine).
#[derive(Debug, Default)]
pub struct JobStore {
    jobs: Vec<RunningJob>,
    hot: Vec<HotJob>,
    /// The unused allocation each job showed on the newest slot it ran:
    /// written by advance, read only by the same slot's prediction
    /// scoring, so a dense column that stays in cache.
    last_unused: Vec<ResourceVector>,
    generations: Vec<u32>,
    free: Vec<u32>,
    live: usize,
    total_inserted: usize,
}

/// What a released slot's cold record holds until reused: an id no
/// workload generates.
const TOMBSTONE: RunningJob = RunningJob {
    id: u64::MAX,
    arrival_slot: 0,
    slo_slots: 0,
    requested: ResourceVector::ZERO,
    state: crate::job::JobState::Pending,
};

impl JobStore {
    /// An empty store.
    pub(crate) fn new() -> Self {
        JobStore::default()
    }

    /// Inserts a job in the pending state and returns its handle. A
    /// recycled slot's history buffers go to the new job.
    pub(crate) fn insert(&mut self, spec: JobSpec) -> JobHandle {
        self.total_inserted += 1;
        self.live += 1;
        if let Some(index) = self.free.pop() {
            let i = index as usize;
            let slot = &mut self.hot[i];
            let histories = [
                std::mem::take(&mut slot.observed_demand),
                std::mem::take(&mut slot.observed_unused),
            ];
            (self.jobs[i], self.hot[i]) = RunningJob::new(spec, histories);
            self.last_unused[i] = ResourceVector::ZERO;
            JobHandle {
                index,
                generation: self.generations[i],
            }
        } else {
            let index = self.jobs.len() as u32;
            let (cold, hot) = RunningJob::new(spec, Default::default());
            self.jobs.push(cold);
            self.hot.push(hot);
            self.last_unused.push(ResourceVector::ZERO);
            self.generations.push(0);
            JobHandle {
                index,
                generation: 0,
            }
        }
    }

    /// Releases a terminal job's slot: the cold record becomes a
    /// tombstone, the hot one drops its demand series and empties its
    /// histories (keeping their room; the next insert rewrites the rest),
    /// and the generation bumps, staling every outstanding handle. The
    /// next insert reuses the slot.
    pub(crate) fn release(&mut self, h: JobHandle) {
        debug_assert!(self.is_live(h), "releasing a stale handle");
        self.live -= 1;
        let i = h.index();
        self.jobs[i] = TOMBSTONE;
        let hot = &mut self.hot[i];
        hot.demand = Box::default();
        hot.observed_demand.clear();
        hot.observed_unused.clear();
        self.generations[i] = self.generations[i].wrapping_add(1);
        self.free.push(h.index);
    }

    /// Whether `h` still addresses the job it was minted for.
    #[inline]
    pub(crate) fn is_live(&self, h: JobHandle) -> bool {
        self.generations
            .get(h.index())
            .is_some_and(|&g| g == h.generation)
    }

    /// The cold record behind a live handle.
    #[inline]
    pub(crate) fn job(&self, h: JobHandle) -> &RunningJob {
        debug_assert!(self.is_live(h), "stale job handle");
        &self.jobs[h.index()]
    }

    /// Mutable access to the cold record behind a live handle.
    #[inline]
    pub(crate) fn job_mut(&mut self, h: JobHandle) -> &mut RunningJob {
        debug_assert!(self.is_live(h), "stale job handle");
        &mut self.jobs[h.index()]
    }

    /// The hot record behind a live handle.
    #[inline]
    pub(crate) fn hot(&self, h: JobHandle) -> &HotJob {
        debug_assert!(self.is_live(h), "stale job handle");
        &self.hot[h.index()]
    }

    /// Mutable access to the hot record behind a live handle.
    #[inline]
    pub(crate) fn hot_mut(&mut self, h: JobHandle) -> &mut HotJob {
        debug_assert!(self.is_live(h), "stale job handle");
        &mut self.hot[h.index()]
    }

    /// The job's admission-time peak request.
    #[inline]
    pub(crate) fn requested(&self, h: JobHandle) -> ResourceVector {
        self.job(h).requested
    }

    /// The job's current allocation.
    #[inline]
    pub(crate) fn allocation(&self, h: JobHandle) -> ResourceVector {
        self.hot(h).allocation
    }

    /// Overwrites the job's current allocation.
    #[inline]
    pub(crate) fn set_allocation(&mut self, h: JobHandle, v: ResourceVector) {
        self.hot_mut(h).allocation = v;
    }

    /// The unused allocation the job showed on the newest slot it ran:
    /// what job-targeted predictions are scored against, whether or not
    /// the engine keeps the job's history.
    #[inline]
    pub(crate) fn last_unused(&self, h: JobHandle) -> ResourceVector {
        debug_assert!(self.is_live(h), "stale job handle");
        self.last_unused[h.index()]
    }

    /// Records the unused allocation the job showed this slot.
    #[inline]
    pub(crate) fn set_last_unused(&mut self, h: JobHandle, v: ResourceVector) {
        debug_assert!(self.is_live(h), "stale job handle");
        self.last_unused[h.index()] = v;
    }

    /// Jobs currently resident: inserted and not yet released.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// Every job ever inserted, including slots since recycled.
    pub fn total_inserted(&self) -> usize {
        self.total_inserted
    }

    /// Arena slots currently allocated: the resident high-water mark.
    pub fn capacity(&self) -> usize {
        self.jobs.len()
    }

    /// The arena's cold records as a slice, one entry per slot: resident
    /// jobs, and tombstones (id `u64::MAX`) in released slots until they
    /// are reused. Order carries no meaning.
    pub(crate) fn as_slice(&self) -> &[RunningJob] {
        &self.jobs
    }

    /// The arena's hot records, indexed like [`as_slice`](Self::as_slice).
    #[cfg(test)]
    pub(crate) fn hot_slice(&self) -> &[HotJob] {
        &self.hot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corp_trace::WorkloadGenerator;

    fn specs(n: usize) -> Vec<JobSpec> {
        let mut g = WorkloadGenerator::with_seed(9);
        (0..n).map(|_| g.generate_next()).collect()
    }

    #[test]
    fn reclaim_mode_recycles_slots_and_stales_handles() {
        let mut store = JobStore::new();
        let specs = specs(3);
        let h0 = store.insert(specs[0].clone());
        let h1 = store.insert(specs[1].clone());
        assert_eq!(store.requested(h1), ResourceVector::new(specs[1].requested));
        store.release(h0);
        assert!(!store.is_live(h0), "released handle must go stale");
        assert!(store.is_live(h1));
        assert_eq!(store.live(), 1);
        let tombstone = &store.as_slice()[h0.index()];
        assert_eq!(tombstone.id(), u64::MAX);
        let released = &store.hot_slice()[h0.index()];
        assert!(
            released.demand.is_empty(),
            "the released job's demand series is dropped"
        );
        let h2 = store.insert(specs[2].clone());
        assert_eq!(h2.index(), h0.index(), "slot recycled");
        assert_eq!(store.hot(h2).demand.len(), specs[2].demand.len());
        assert_ne!(h2, h0, "a recycled slot mints a new handle");
        assert!(store.is_live(h2));
        assert_eq!(store.capacity(), 2, "arena bounded by live jobs");
        assert_eq!(store.total_inserted(), 3);
        assert_eq!(store.job(h2).id(), specs[2].id);
    }

    #[test]
    fn allocation_and_unused_columns_track_writes_and_reset_on_reuse() {
        let mut store = JobStore::new();
        let h = store.insert(specs(1).remove(0));
        assert_eq!(store.allocation(h), ResourceVector::ZERO);
        assert_eq!(store.last_unused(h), ResourceVector::ZERO);
        store.set_allocation(h, ResourceVector::splat(2.0));
        store.set_last_unused(h, ResourceVector::splat(0.5));
        assert_eq!(store.allocation(h), ResourceVector::splat(2.0));
        assert_eq!(store.last_unused(h), ResourceVector::splat(0.5));
        store.release(h);
        let reused = store.insert(specs(1).remove(0));
        assert_eq!(reused.index(), h.index());
        assert_eq!(store.last_unused(reused), ResourceVector::ZERO);
        assert_eq!(store.allocation(reused), ResourceVector::ZERO);
    }

    #[test]
    fn a_released_slot_keeps_its_history_buffers_for_the_next_tenant() {
        let mut store = JobStore::new();
        let h = store.insert(specs(1).remove(0));
        let hot = store.hot_mut(h);
        hot.observed_demand.extend([ResourceVector::splat(1.0); 30]);
        hot.observed_unused.extend([ResourceVector::splat(2.0); 30]);
        let rooms = [hot.observed_demand.as_ptr(), hot.observed_unused.as_ptr()];
        store.release(h);
        let released = &store.hot_slice()[h.index()];
        assert!(released.observed_demand.is_empty() && released.observed_unused.is_empty());
        let next = store.insert(specs(2).remove(1));
        let hot = store.hot(next);
        assert!(hot.observed_demand.is_empty() && hot.observed_unused.is_empty());
        assert!(hot.observed_unused.capacity() >= 30);
        assert_eq!(
            [hot.observed_demand.as_ptr(), hot.observed_unused.as_ptr()],
            rooms,
            "the same buffers, not new ones"
        );
    }

    #[test]
    fn detached_handle_is_never_live() {
        // A handle this arena never minted — one past its end, from a
        // larger store — resolves to nothing, not to an index out of range.
        let mut store = JobStore::new();
        store.insert(specs(1).remove(0));
        let mut larger = JobStore::new();
        let foreign: Vec<_> = specs(2).into_iter().map(|s| larger.insert(s)).collect();
        assert!(!store.is_live(foreign[1]));
    }
}
