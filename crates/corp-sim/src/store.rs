//! Generational slab job store with SoA resource columns.
//!
//! The engine used to keep every job in one append-only
//! `Vec<RunningJob>`, so a soak run's memory grew with the total number
//! of jobs ever submitted and the per-slot hot loops (view building,
//! adjustment application, congestion math) chased allocations through
//! full `RunningJob` structs. [`JobStore`] splits the layout:
//!
//! * an arena of [`RunningJob`] records addressed by [`JobHandle`]s
//!   (index + generation, so a recycled slot invalidates stale handles);
//! * SoA columns for the hot per-slot scalars — `requested` and
//!   `allocation` as parallel `ResourceVector` arrays the engine and
//!   view builder index directly.
//!
//! In the default append-only mode handles are submission-ordered indices
//! and [`as_slice`](JobStore::as_slice) is exactly the old `Vec` —
//! byte-identical behavior for every existing driver. With
//! [`reclaim`](JobStore::new) enabled, terminal jobs release their slots
//! for reuse, bounding memory by *active* jobs instead of trace length
//! (the `corp-exp scale` soak mode).

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
    free: Vec<u32>,
    live: usize,
    total_inserted: usize,
    reclaim: bool,
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
    /// An empty store. `reclaim` controls whether
    /// [`release`](Self::release) recycles slots (soak mode) or leaves the
    /// arena
    /// append-only (default; keeps [`as_slice`](Self::as_slice)
    /// submission-ordered for post-run inspection).
    pub fn new(reclaim: bool) -> Self {
        JobStore {
            reclaim,
            ..JobStore::default()
        }
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
            JobHandle {
                index,
                generation: 0,
            }
        }
    }

    /// Releases a terminal job's slot. In reclaim mode the slot's
    /// generation bumps (staling every outstanding handle) and the arena
    /// record is replaced by a tombstone; append-only mode keeps the
    /// record for post-run inspection and only updates the live count.
    pub fn release(&mut self, h: JobHandle) {
        debug_assert!(self.is_live(h), "releasing a stale handle");
        self.live -= 1;
        if self.reclaim {
            let i = h.index();
            self.jobs[i] = tombstone();
            self.allocation[i] = ResourceVector::ZERO;
            self.requested[i] = ResourceVector::ZERO;
            self.generations[i] = self.generations[i].wrapping_add(1);
            self.free.push(h.index);
        }
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

    /// Jobs currently resident (admitted or terminal-but-unreclaimed).
    pub fn live(&self) -> usize {
        self.live
    }

    /// Every job ever inserted, including slots since recycled.
    pub fn total_inserted(&self) -> usize {
        self.total_inserted
    }

    /// Arena slots currently allocated (the resident high-water mark in
    /// reclaim mode).
    pub fn capacity(&self) -> usize {
        self.jobs.len()
    }

    /// The arena as a slice. In the default append-only mode this is the
    /// submission-ordered job list the pre-arena engine exposed; in
    /// reclaim mode released slots hold tombstones (id `u64::MAX`) until
    /// reused, so order and occupancy carry no meaning.
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
    fn append_only_mode_preserves_submission_order() {
        let mut store = JobStore::new(false);
        let specs = specs(5);
        let handles: Vec<JobHandle> = specs.iter().cloned().map(|s| store.insert(s)).collect();
        for (i, (h, s)) in handles.iter().zip(&specs).enumerate() {
            assert_eq!(h.index(), i);
            assert_eq!(store.job(*h).id(), s.id);
            assert_eq!(store.requested(*h), ResourceVector::new(s.requested));
        }
        store.release(handles[2]);
        assert_eq!(store.live(), 4);
        assert_eq!(store.total_inserted(), 5);
        // Append-only: the record survives release, no slot reuse.
        assert_eq!(store.as_slice().len(), 5);
        assert_eq!(store.as_slice()[2].id(), specs[2].id);
        let h = store.insert(specs[0].clone());
        assert_eq!(h.index(), 5);
    }

    #[test]
    fn reclaim_mode_recycles_slots_and_stales_handles() {
        let mut store = JobStore::new(true);
        let specs = specs(3);
        let h0 = store.insert(specs[0].clone());
        let h1 = store.insert(specs[1].clone());
        store.release(h0);
        assert!(!store.is_live(h0), "released handle must go stale");
        assert!(store.is_live(h1));
        let h2 = store.insert(specs[2].clone());
        assert_eq!(h2.index(), h0.index(), "slot recycled");
        assert_ne!(h2.generation(), h0.generation());
        assert!(store.is_live(h2));
        assert_eq!(store.capacity(), 2, "arena bounded by live jobs");
        assert_eq!(store.total_inserted(), 3);
        assert_eq!(store.job(h2).id(), specs[2].id);
    }

    #[test]
    fn allocation_column_tracks_writes() {
        let mut store = JobStore::new(false);
        let h = store.insert(specs(1).remove(0));
        assert_eq!(store.allocation(h), ResourceVector::ZERO);
        store.set_allocation(h, ResourceVector::splat(2.0));
        assert_eq!(store.allocation(h), ResourceVector::splat(2.0));
    }

    #[test]
    fn detached_handle_is_never_live() {
        // A handle this arena never minted — one past its end, from a
        // larger store — resolves to nothing, not to an index out of range.
        let mut store = JobStore::new(true);
        store.insert(specs(1).remove(0));
        let mut larger = JobStore::new(true);
        let foreign: Vec<_> = specs(2).into_iter().map(|s| larger.insert(s)).collect();
        assert!(!store.is_live(foreign[1]));
    }
}
