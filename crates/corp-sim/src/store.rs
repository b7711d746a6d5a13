//! The engine's job state: a generational arena of every resident job,
//! and the running ones as one list per VM threaded through it.
//!
//! [`JobStore`] holds the jobs the engine has admitted and not yet seen
//! leave, as an arena addressed by [`JobHandle`]s (index + generation, so
//! a recycled slot invalidates stale handles) with two columns:
//!
//! * [`RunningJob`] — identity, request, SLO, lifecycle state;
//! * `HotJob` — allocation, this slot's demand row, progress, duration,
//!   the demand series and the two history buffers: everything the
//!   engine's advance phase reads, in one record.
//!
//! A job that completes or is rejected releases its slot and demand
//! series at once; its history buffers stay in the slot, cleared, for the
//! next tenant, and the next insert reuses the slot. The arena's
//! high-water mark is the peak number of resident jobs, whatever the
//! trace length.
//!
//! [`RunLists`] lists each VM's running jobs, in the order they were
//! placed, with `Vec::swap_remove` order on completion (the VM's last job
//! takes the finished one's place) and an in-order drain on a crash. That
//! is the order advance sums in, so the f64 totals and the completion
//! batch come out as from per-VM `Vec`s, without a `Vec` header and heap
//! block per VM: a VM costs two `u32`s (its first and last job) and a job
//! slot two more (its neighbours), plus the slot's newest unused sample.

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
            JobHandle {
                index,
                generation: self.generations[i],
            }
        } else {
            let index = self.jobs.len() as u32;
            let (cold, hot) = RunningJob::new(spec, Default::default());
            self.jobs.push(cold);
            self.hot.push(hot);
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

    /// The handle of the job in arena slot `index` now.
    #[inline]
    pub(crate) fn handle_at(&self, index: usize) -> JobHandle {
        JobHandle {
            index: index as u32,
            generation: self.generations[index],
        }
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

    /// The job's current allocation: zero until it is placed.
    #[inline]
    pub(crate) fn allocation(&self, h: JobHandle) -> ResourceVector {
        self.hot(h).allocation
    }

    /// The job's admission-time peak request.
    #[inline]
    pub(crate) fn requested(&self, h: JobHandle) -> ResourceVector {
        self.job(h).requested
    }

    /// Jobs currently resident: inserted and not yet released.
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

/// A list end, or a job slot that is on no list. Every other link is an
/// arena index plus one, so a new column is all `END` and `vec![END; n]`
/// leaves the pages of VMs that never run a job untouched.
const END: u32 = 0;

/// The running jobs as one doubly linked list per VM, threaded through
/// the arena (see the module docs). Every method takes arena indices
/// ([`JobHandle::index`]); a job is on at most one list.
#[derive(Debug)]
pub(crate) struct RunLists {
    /// Per VM: links to its first and to its last running job, `END`
    /// while it runs none.
    first: Vec<u32>,
    last: Vec<u32>,
    /// Per arena slot: links to the next and the previous job on the same
    /// VM's list, `END` past either end and for a job on no list. Grown on
    /// demand, so they never outrun the arena.
    next: Vec<u32>,
    prev: Vec<u32>,
    /// Per arena slot: the unused allocation the job showed on the newest
    /// slot it ran — written by advance, read by the same slot's
    /// prediction scoring.
    pub unused: Vec<ResourceVector>,
    /// Jobs on some list.
    running: usize,
}

/// The arena index `link` points at, `None` for `END`.
#[inline]
fn linked(link: u32) -> Option<usize> {
    link.checked_sub(1).map(|i| i as usize)
}

/// The link that points at arena index `i`.
#[inline]
fn link(i: usize) -> u32 {
    i as u32 + 1
}

impl RunLists {
    /// Empty lists for `num_vms` VMs.
    pub(crate) fn new(num_vms: usize) -> Self {
        RunLists {
            first: vec![END; num_vms],
            last: vec![END; num_vms],
            next: Vec::new(),
            prev: Vec::new(),
            unused: Vec::new(),
            running: 0,
        }
    }

    /// Jobs on some list.
    #[inline]
    pub(crate) fn running(&self) -> usize {
        self.running
    }

    /// `vm`'s first job.
    #[inline]
    pub(crate) fn first(&self, vm: usize) -> Option<usize> {
        linked(self.first[vm])
    }

    /// The job after `i` on its VM's list.
    #[inline]
    pub(crate) fn next(&self, i: usize) -> Option<usize> {
        linked(self.next[i])
    }

    /// `vm`'s jobs, in list order.
    pub(crate) fn jobs(&self, vm: usize) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(self.first(vm), |&i| self.next(i))
    }

    /// Appends job `i` to `vm`'s list.
    pub(crate) fn push(&mut self, vm: usize, i: usize) {
        if i >= self.next.len() {
            self.next.resize(i + 1, END);
            self.prev.resize(i + 1, END);
            self.unused.resize(i + 1, ResourceVector::ZERO);
        }
        let tail = self.last[vm];
        match linked(tail) {
            Some(t) => self.next[t] = link(i),
            None => self.first[vm] = link(i),
        }
        (self.prev[i], self.next[i]) = (tail, END);
        self.last[vm] = link(i);
        self.running += 1;
    }

    /// Takes job `i` off `vm`'s list the way `Vec::swap_remove` would:
    /// the list's last job takes its place. Returns the job now in that
    /// place, `None` if `i` was the last — what a walk that removes as it
    /// goes looks at next.
    pub(crate) fn swap_remove(&mut self, vm: usize, i: usize) -> Option<usize> {
        self.running -= 1;
        // Unlink the tail; unless it is `i`, it then takes `i`'s links.
        // Invariant: `i` is on `vm`'s list, so the list is not empty.
        let tail = linked(self.last[vm]).expect("a job on vm's list");
        let before = self.prev[tail];
        match linked(before) {
            Some(b) => self.next[b] = END,
            None => self.first[vm] = END,
        }
        self.last[vm] = before;
        self.prev[tail] = END;
        if tail == i {
            return None;
        }
        let (p, n) = (self.prev[i], self.next[i]);
        (self.prev[tail], self.next[tail]) = (p, n);
        match linked(p) {
            Some(p) => self.next[p] = link(tail),
            None => self.first[vm] = link(tail),
        }
        match linked(n) {
            Some(n) => self.prev[n] = link(tail),
            None => self.last[vm] = link(tail),
        }
        (self.prev[i], self.next[i]) = (END, END);
        Some(tail)
    }

    /// Takes `vm`'s first job off its list.
    pub(crate) fn pop_front(&mut self, vm: usize) -> Option<usize> {
        let head = self.first(vm)?;
        let after = std::mem::replace(&mut self.next[head], END);
        self.first[vm] = after;
        match linked(after) {
            Some(a) => self.prev[a] = END,
            None => self.last[vm] = END,
        }
        self.running -= 1;
        Some(head)
    }

    /// Walks every list from its `first` and panics, naming `slot`, at
    /// the first link that disagrees: a `prev` that is not the job walked
    /// before, a `last` that is not where the walk ended, a job on two
    /// lists or twice on one, a count that is not `running`, or a job on
    /// no list that keeps a link.
    pub(crate) fn check_links(&self, slot: u64) {
        let mut listed = vec![false; self.next.len()];
        let mut count = 0;
        for vm in 0..self.first.len() {
            let mut before = END;
            for i in self.jobs(vm) {
                assert!(
                    !std::mem::replace(&mut listed[i], true),
                    "job slot {i} listed twice (VM {vm}) at slot {slot}"
                );
                assert_eq!(self.prev[i], before, "VM {vm}: prev of {i} at slot {slot}");
                before = link(i);
                count += 1;
            }
            assert_eq!(self.last[vm], before, "VM {vm}'s last at slot {slot}");
        }
        assert_eq!(count, self.running, "listed jobs at slot {slot}");
        for i in (0..listed.len()).filter(|&i| !listed[i]) {
            assert_eq!(
                (self.next[i], self.prev[i]),
                (END, END),
                "job slot {i} is on no list but keeps links at slot {slot}"
            );
        }
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

    /// `vm`'s jobs, walked from its list, as handles.
    fn listed(lists: &RunLists, store: &JobStore, vm: usize) -> Vec<JobHandle> {
        lists.jobs(vm).map(|i| store.handle_at(i)).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Random placements, completions and crashes on four VMs, against
        /// per-VM `Vec`s kept the obvious way: pushed on placement,
        /// `swap_remove`d on completion, drained on a crash. A completion
        /// walks the list as the engine's completion phase does and
        /// releases the job's arena slot, which a later placement reuses
        /// under a new handle; a crashed job waits to be placed again.
        /// After every operation each VM's list is its `Vec`, the walk over
        /// all VMs in ascending id is the `Vec`s concatenated, the links
        /// check, and a fifth VM no operation names still has both of its
        /// links at `END`, the zero `RunLists::new` left there.
        #[test]
        fn lists_match_per_vm_vecs_through_random_operations(
            ops in proptest::collection::vec((0u8..4, 0usize..4, 0u8..=255), 1..120),
        ) {
            const VMS: usize = 4;
            let mut generator = WorkloadGenerator::with_seed(9);
            let mut store = JobStore::new();
            let mut lists = RunLists::new(VMS + 1);
            let mut model: Vec<Vec<JobHandle>> = vec![Vec::new(); VMS];
            let mut crashed: Vec<JobHandle> = Vec::new();
            for (step, &(kind, vm, pick)) in ops.iter().enumerate() {
                // Kinds and picks nearer zero place and complete more, so
                // a shrunk case keeps doing both.
                match kind {
                    // Place a crashed job again, or a new one.
                    0 | 3 => {
                        let h = if kind == 0 && !crashed.is_empty() {
                            crashed.swap_remove(pick as usize % crashed.len())
                        } else {
                            store.insert(generator.generate_next())
                        };
                        lists.push(vm, h.index());
                        model[vm].push(h);
                    }
                    // Complete the jobs whose slot's bit is clear in `pick`.
                    1 => {
                        let done = |h: JobHandle| (pick >> (h.index() % 8)) & 1 == 0;
                        let mut at = lists.first(vm);
                        while let Some(i) = at {
                            let h = store.handle_at(i);
                            if done(h) {
                                at = lists.swap_remove(vm, i);
                                store.release(h);
                            } else {
                                at = lists.next(i);
                            }
                        }
                        let jobs = &mut model[vm];
                        let mut r = 0;
                        while r < jobs.len() {
                            if done(jobs[r]) {
                                jobs.swap_remove(r);
                            } else {
                                r += 1;
                            }
                        }
                    }
                    // Crash: drain the list in order.
                    _ => {
                        let drained: Vec<JobHandle> = std::iter::from_fn(|| lists.pop_front(vm))
                            .map(|i| store.handle_at(i))
                            .collect();
                        proptest::prop_assert_eq!(&drained, &model[vm], "VM {}'s drain", vm);
                        crashed.append(&mut model[vm]);
                    }
                }
                lists.check_links(step as u64);
                for (v, jobs) in model.iter().enumerate() {
                    proptest::prop_assert_eq!(
                        &listed(&lists, &store, v),
                        jobs,
                        "VM {} after step {}",
                        v,
                        step
                    );
                }
                let walk: Vec<JobHandle> = (0..VMS).flat_map(|v| listed(&lists, &store, v)).collect();
                proptest::prop_assert_eq!(&walk, &model.concat(), "walk after step {}", step);
                proptest::prop_assert_eq!(lists.running(), walk.len());
                proptest::prop_assert_eq!((lists.first[VMS], lists.last[VMS]), (END, END));
            }
        }
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
