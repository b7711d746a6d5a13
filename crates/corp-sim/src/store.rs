//! Generational slab job store with SoA resource columns.
//!
//! [`JobStore`] holds the jobs the engine has admitted and not yet seen
//! leave:
//!
//! * an arena of [`RunningJob`] records addressed by [`JobHandle`]s
//!   (index + generation, so a recycled slot invalidates stale handles);
//! * SoA columns for the hot per-slot scalars — `requested`,
//!   `allocation` and the newest unused sample as parallel
//!   `ResourceVector` arrays the engine and view builder index directly.
//!
//! A job that completes or is rejected releases its slot, demand series
//! and histories at once, and the next insert reuses the slot, so the
//! arena's high-water mark is the peak number of resident jobs, whatever
//! the trace length.

use crate::job::RunningJob;
use crate::resources::ResourceVector;
use corp_trace::{IntensityClass, JobSpec};

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
    pub fn index(self) -> usize {
        self.index as usize
    }

    /// The slot generation this handle was minted with.
    #[inline]
    pub fn generation(self) -> u32 {
        self.generation
    }
}

/// The arena + SoA job store backing a [`SlotEngine`](crate::SlotEngine).
#[derive(Debug, Default)]
pub struct JobStore {
    jobs: Vec<RunningJob>,
    generations: Vec<u32>,
    requested: Vec<ResourceVector>,
    allocation: Vec<ResourceVector>,
    last_unused: Vec<ResourceVector>,
    free: Vec<u32>,
    live: usize,
    total_inserted: usize,
}

/// What a released slot holds until reused: an id no workload generates,
/// zero extent, no history.
fn tombstone() -> RunningJob {
    RunningJob::new(JobSpec {
        id: u64::MAX,
        arrival_slot: 0,
        duration_slots: 0,
        class: IntensityClass::Balanced,
        requested: [0.0; 3],
        demand: Vec::new(),
        slo_slots: 0,
        bandwidth_mbps: 0.0,
    })
}

impl JobStore {
    /// An empty store.
    pub fn new() -> Self {
        JobStore::default()
    }

    /// Inserts a job in the pending state and returns its handle.
    pub fn insert(&mut self, spec: JobSpec) -> JobHandle {
        self.total_inserted += 1;
        self.live += 1;
        let requested = ResourceVector::new(spec.requested);
        if let Some(index) = self.free.pop() {
            let i = index as usize;
            self.jobs[i] = RunningJob::new(spec);
            self.requested[i] = requested;
            self.allocation[i] = ResourceVector::ZERO;
            self.last_unused[i] = ResourceVector::ZERO;
            JobHandle {
                index,
                generation: self.generations[i],
            }
        } else {
            let index = self.jobs.len() as u32;
            self.jobs.push(RunningJob::new(spec));
            self.generations.push(0);
            self.requested.push(requested);
            self.allocation.push(ResourceVector::ZERO);
            self.last_unused.push(ResourceVector::ZERO);
            JobHandle {
                index,
                generation: 0,
            }
        }
    }

    /// Releases a terminal job's slot: the record is replaced by a
    /// tombstone (dropping its demand series and histories), the columns
    /// are zeroed and the generation bumps, staling every outstanding
    /// handle. The next insert reuses the slot.
    pub fn release(&mut self, h: JobHandle) {
        debug_assert!(self.is_live(h), "releasing a stale handle");
        self.live -= 1;
        let i = h.index();
        self.jobs[i] = tombstone();
        self.allocation[i] = ResourceVector::ZERO;
        self.last_unused[i] = ResourceVector::ZERO;
        self.requested[i] = ResourceVector::ZERO;
        self.generations[i] = self.generations[i].wrapping_add(1);
        self.free.push(h.index);
    }

    /// Whether `h` still addresses the job it was minted for.
    #[inline]
    pub fn is_live(&self, h: JobHandle) -> bool {
        self.generations
            .get(h.index())
            .is_some_and(|&g| g == h.generation)
    }

    /// The job behind a live handle.
    #[inline]
    pub fn job(&self, h: JobHandle) -> &RunningJob {
        debug_assert!(self.is_live(h), "stale job handle");
        &self.jobs[h.index()]
    }

    /// Mutable access to the job behind a live handle.
    #[inline]
    pub fn job_mut(&mut self, h: JobHandle) -> &mut RunningJob {
        debug_assert!(self.is_live(h), "stale job handle");
        &mut self.jobs[h.index()]
    }

    /// The job's admission-time peak request (SoA column read).
    #[inline]
    pub fn requested(&self, h: JobHandle) -> ResourceVector {
        self.requested[h.index()]
    }

    /// The job's current allocation (SoA column read).
    #[inline]
    pub fn allocation(&self, h: JobHandle) -> ResourceVector {
        self.allocation[h.index()]
    }

    /// Overwrites the job's current allocation (SoA column write).
    #[inline]
    pub fn set_allocation(&mut self, h: JobHandle, v: ResourceVector) {
        self.allocation[h.index()] = v;
    }

    /// The unused allocation the job showed on the newest slot it ran
    /// (SoA column read): what job-targeted predictions are scored
    /// against, whether or not the engine keeps the job's history.
    #[inline]
    pub fn last_unused(&self, h: JobHandle) -> ResourceVector {
        self.last_unused[h.index()]
    }

    /// Records the unused allocation the job showed this slot (SoA column
    /// write).
    #[inline]
    pub fn set_last_unused(&mut self, h: JobHandle, v: ResourceVector) {
        self.last_unused[h.index()] = v;
    }

    /// Jobs currently resident: inserted and not yet released.
    pub fn live(&self) -> usize {
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

    /// The arena as a slice, one entry per slot: resident jobs, and
    /// tombstones (id `u64::MAX`) in released slots until they are
    /// reused. Order carries no meaning.
    pub fn as_slice(&self) -> &[RunningJob] {
        &self.jobs
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
        assert!(
            tombstone.spec.demand.capacity() == 0,
            "the released job's demand series is dropped"
        );
        let h2 = store.insert(specs[2].clone());
        assert_eq!(h2.index(), h0.index(), "slot recycled");
        assert_ne!(h2.generation(), h0.generation());
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
