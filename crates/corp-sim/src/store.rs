//! The engine's job state: a generational arena of every resident job,
//! and a dense table of the running ones in the order the slot loop
//! walks them.
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
//! [`RunTable`] lists the running jobs, a row each — the handle, the VM,
//! and the unused sample advance wrote for the job this slot — in VM id
//! order, and within a VM in the order its jobs were placed, with
//! `swap_remove` on completion. That is the order advance sums in, so
//! the f64 totals and the completion batch come out the same as from
//! per-VM job lists, while every phase that walks running jobs reads one
//! contiguous run of rows per VM instead of a list per VM. A dense
//! `row_of` column, indexed by arena slot, finds a handle's row.
//! Each VM's rows are a block with room at its end: a completion or a
//! crash vacates rows in place, and the VM's next placement fills one
//! ([`RunTable::place`]). Placements into full blocks land in one pass
//! per slot, which doubles those blocks and moves the rows after them
//! only as far as it takes to absorb spare vacant rows
//! ([`RunTable::insert_staged`]); the blocks of idle VMs are dropped in
//! one pass once vacant rows outnumber running ones ([`RunTable::trim`]).

use crate::job::{HotJob, RunningJob};
use crate::resources::ResourceVector;
use corp_trace::JobSpec;
use std::ops::Range;

/// Stable reference to a job slot: arena index plus the generation the
/// slot had when the job was inserted. A handle whose generation no
/// longer matches the slot's is *stale* — its job released the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobHandle {
    index: u32,
    generation: u32,
}

impl JobHandle {
    /// What a vacant row of the run table holds: no arena has a slot at
    /// its index, so it is never live.
    pub(crate) const VACANT: JobHandle = JobHandle {
        index: u32::MAX,
        generation: u32::MAX,
    };

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

/// `row_of` entry of an arena slot whose job is not running.
const NO_ROW: u32 = u32::MAX;

/// The running jobs, one row each, in slot-loop order (see the module
/// docs). Each VM that has hosted a job owns a block of rows: its running
/// jobs first, in order, then vacant rows its departed jobs left, which
/// its next placements fill in place. The columns are public to the
/// engine, which reads them and writes the unused samples in place; rows
/// are added, vacated and moved only through the methods, which keep
/// `row_of` in step.
#[derive(Debug, Default)]
pub(crate) struct RunTable {
    /// Per row: the unused allocation the job showed on the newest slot
    /// it ran — written by advance, read by the same slot's prediction
    /// scoring.
    pub unused: Vec<ResourceVector>,
    /// Per row: the job's handle; `JobHandle::VACANT` in a vacant row.
    pub handle: Vec<JobHandle>,
    /// Per row: the VM whose block the row is in. Non-decreasing down the
    /// table.
    pub vm: Vec<u32>,
    /// Rows holding a running job.
    live: usize,
    /// Per arena slot: the row of the slot's job while it runs, `NO_ROW`
    /// otherwise. Grows on demand, so it never outruns the arena.
    row_of: Vec<u32>,
    /// Placements that found no vacant row in their VM's block, waiting
    /// for [`insert_staged`](Self::insert_staged): `(vm, handle)` in
    /// application order.
    staged: Vec<(u32, JobHandle)>,
}

impl RunTable {
    /// Rows, vacant ones included.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.vm.len()
    }

    /// Rows holding a running job.
    #[inline]
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// The row of a running job, `None` for any other.
    #[inline]
    pub(crate) fn row_of(&self, h: JobHandle) -> Option<usize> {
        match self.row_of.get(h.index()) {
            Some(&r) if r != NO_ROW => Some(r as usize),
            _ => None,
        }
    }

    /// `vm`'s running rows, and the end of its block, looked for from row
    /// `start` on: blocks of lower VMs in between must hold no running
    /// job. Walking VMs in ascending id and starting each from the
    /// previous block's end visits every row once.
    #[inline]
    pub(crate) fn run_from(&self, start: usize, vm: usize) -> (Range<usize>, usize) {
        let vm = vm as u32;
        let below = self.vm[start..].iter().take_while(|&&v| v < vm).count();
        let start = start + below;
        debug_assert!(self.handle[start - below..start]
            .iter()
            .all(|&h| h == JobHandle::VACANT));
        let block = self.vm[start..].iter().take_while(|&&v| v == vm).count();
        let running = self.handle[start..start + block]
            .iter()
            .take_while(|&&h| h != JobHandle::VACANT)
            .count();
        (start..start + running, start + block)
    }

    /// `vm`'s running rows and the end of its block, found by binary
    /// search.
    fn block_of(&self, vm: usize) -> (Range<usize>, usize) {
        let start = self.vm.partition_point(|&v| (v as usize) < vm);
        self.run_from(start, vm)
    }

    /// `vm`'s running rows, found by binary search.
    pub(crate) fn run_of(&self, vm: usize) -> Range<usize> {
        self.block_of(vm).0
    }

    /// Gives a job placed on `vm` the first vacant row of `vm`'s block,
    /// after its running rows. With none, the job waits for
    /// [`insert_staged`](Self::insert_staged), which puts it after the
    /// block and after the jobs staged for `vm` before it.
    pub(crate) fn place(&mut self, vm: usize, h: JobHandle) {
        let (run, end) = self.block_of(vm);
        if run.end == end {
            self.staged.push((vm as u32, h));
            return;
        }
        let r = run.end;
        self.handle[r] = h;
        self.live += 1;
        self.point(h, r);
    }

    /// Gives every staged job its row at the end of its VM's block. A
    /// block that grows grows to a power of two rows, at least two, so a
    /// VM's next placements find room in place. The rows after a growing
    /// block move down only as far as it takes to absorb as many spare
    /// vacant rows of later blocks — rows whose block keeps another — or
    /// to the table's end, which grows by the rest: one read-only pass
    /// finds those rows, one pass back up moves each row in between once,
    /// a run at a time.
    pub(crate) fn insert_staged(&mut self) {
        if self.staged.is_empty() {
            return;
        }
        // A stable sort: jobs staged for one VM keep their placement order.
        self.staged.sort_by_key(|&(vm, ..)| vm);
        let mut staged = std::mem::take(&mut self.staged);
        self.live += staged.len();
        // Per staged VM: where its block ends, and the rows it gains.
        let groups: Vec<(usize, usize)> = staged
            .chunk_by(|a, b| a.0 == b.0)
            .map(|group| {
                let (run, end) = self.block_of(group[0].0 as usize);
                let size = (run.len() + group.len()).next_power_of_two().max(2);
                (end, size - run.len())
            })
            .collect();
        // Down the table: the vacant rows the new ones absorb.
        let mut absorbed = Vec::new();
        let (mut shift, mut next, mut pos) = (0, 0, groups[0].0);
        loop {
            while next < groups.len() && groups[next].0 == pos {
                shift += groups[next].1;
                next += 1;
            }
            if shift == 0 {
                match groups.get(next) {
                    Some(&(at, _)) => pos = at,
                    None => break,
                }
            } else if pos == self.len() {
                break;
            } else {
                // A vacant row is absorbed only if its block keeps another:
                // taking a block's last room would stage its next job.
                let spare = |r: usize| self.handle.get(r) == Some(&JobHandle::VACANT);
                if spare(pos) && spare(pos + 1) && self.vm[pos + 1] == self.vm[pos] {
                    absorbed.push(pos);
                    shift -= 1;
                }
                pos += 1;
            }
        }
        // The rest of the shift grows the table: holes after its end.
        let grown = self.len() + shift;
        self.unused.resize(grown, ResourceVector::ZERO);
        self.handle.resize(grown, JobHandle::VACANT);
        self.vm.resize(grown, 0);
        // Back up the table: rows from `done` on are placed, and the
        // `shift` rows from `done` are holes for what is still to place.
        let mut done = pos;
        let mut jobs = staged.chunk_by(|a, b| a.0 == b.0).rev();
        let mut groups = groups.iter().rev().peekable();
        let mut absorbed = absorbed.iter().rev().peekable();
        loop {
            // The next event up: an absorbed row, or a block's end, which
            // comes before an absorbed row at the same place.
            let row = absorbed.peek().map(|&&q| q);
            let end = groups.peek().map(|&&(at, _)| at);
            let (from, absorbs) = match (row, end) {
                (Some(q), Some(at)) if q >= at => (q + 1, true),
                (Some(q), None) => (q + 1, true),
                (_, Some(at)) => (at, false),
                (None, None) => break,
            };
            self.shift_down(from..done, shift);
            done = from;
            if absorbs {
                absorbed.next();
                done -= 1;
                shift += 1;
            } else if let (Some(&(_, gained)), Some(group)) = (groups.next(), jobs.next()) {
                let vm = group[0].0;
                let mut r = done + shift - gained;
                for &(_, h) in group.iter() {
                    self.unused[r] = ResourceVector::ZERO;
                    self.handle[r] = h;
                    self.point(h, r);
                    r += 1;
                }
                self.handle[r..done + shift].fill(JobHandle::VACANT);
                self.vm[done + shift - gained..done + shift].fill(vm);
                shift -= gained;
            }
        }
        debug_assert_eq!(shift, 0);
        staged.clear();
        self.staged = staged;
    }

    /// Moves `rows` down by `by` rows into the holes right after them,
    /// which come out at their start.
    fn shift_down(&mut self, rows: Range<usize>, by: usize) {
        if by == 0 || rows.is_empty() {
            return;
        }
        let span = rows.start..rows.end + by;
        self.unused[span.clone()].rotate_right(by);
        self.handle[span.clone()].rotate_right(by);
        self.vm[span].rotate_right(by);
        for r in rows.start + by..rows.end + by {
            let h = self.handle[r];
            if h != JobHandle::VACANT {
                self.point(h, r);
            }
        }
    }

    /// Vacates row `r`; its job no longer has one. A block's running
    /// rows must be a prefix of it again by the next walk: vacate its
    /// last running row, or all of them (a crash).
    pub(crate) fn vacate(&mut self, r: usize) {
        let h = std::mem::replace(&mut self.handle[r], JobHandle::VACANT);
        self.row_of[h.index()] = NO_ROW;
        self.live -= 1;
    }

    /// Takes row `r`'s job out the way `Vec::swap_remove` would within
    /// its block: the block's last running row, `last`, moves into `r`
    /// and is left vacant.
    pub(crate) fn swap_remove(&mut self, r: usize, last: usize) {
        debug_assert_eq!(self.vm[r], self.vm[last]);
        self.row_of[self.handle[r].index()] = NO_ROW;
        if r != last {
            self.unused[r] = self.unused[last];
            self.handle[r] = self.handle[last];
            self.point(self.handle[r], r);
        }
        self.handle[last] = JobHandle::VACANT;
        self.live -= 1;
    }

    /// Once vacant rows outnumber running ones, drops the blocks of VMs
    /// that run no job and cuts every other block back to the size it
    /// would have grown to, in one pass: afterwards no more than half the
    /// rows are vacant.
    pub(crate) fn trim(&mut self) {
        if self.len() - self.live <= self.live {
            return;
        }
        let (mut write, mut read) = (0, 0);
        while read < self.len() {
            let (run, end) = self.run_from(read, self.vm[read] as usize);
            let kept = if run.is_empty() {
                0
            } else {
                run.len().next_power_of_two().max(2).min(end - read)
            };
            for from in read..read + kept {
                if from != write {
                    self.move_row(from, write);
                }
                write += 1;
            }
            read = end;
        }
        self.unused.truncate(write);
        self.handle.truncate(write);
        self.vm.truncate(write);
    }

    /// Moves row `from` into row `to`, a vacant row; `from` is left
    /// vacant.
    fn move_row(&mut self, from: usize, to: usize) {
        self.unused[to] = self.unused[from];
        self.vm[to] = self.vm[from];
        let h = std::mem::replace(&mut self.handle[from], JobHandle::VACANT);
        self.handle[to] = h;
        if h != JobHandle::VACANT {
            self.point(h, to);
        }
    }

    /// Records that `h`'s job is in row `r`.
    fn point(&mut self, h: JobHandle, r: usize) {
        let i = h.index();
        if i >= self.row_of.len() {
            self.row_of.resize(i + 1, NO_ROW);
        }
        self.row_of[i] = r as u32;
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

    /// `(vm, job id)` of every row, top to bottom, checking `row_of`;
    /// `None` for a vacant row.
    fn rows(table: &RunTable, store: &JobStore) -> Vec<(u32, Option<u64>)> {
        (0..table.len())
            .map(|r| {
                let h = table.handle[r];
                if h == JobHandle::VACANT {
                    return (table.vm[r], None);
                }
                assert_eq!(table.row_of(h), Some(r), "row_of of row {r}");
                (table.vm[r], Some(store.job(h).id))
            })
            .collect()
    }

    #[test]
    fn rows_keep_vm_order_and_placement_order_within_a_vm() {
        let mut store = JobStore::new();
        let mut table = RunTable::default();
        let handles: Vec<JobHandle> = specs(10).into_iter().map(|s| store.insert(s)).collect();
        let ids: Vec<u64> = handles.iter().map(|&h| store.job(h).id).collect();
        // `(vm, job index)` per row, `None` for a vacant one.
        let expect = |pairs: &[(u32, Option<usize>)]| -> Vec<(u32, Option<u64>)> {
            pairs
                .iter()
                .map(|&(vm, i)| (vm, i.map(|i| ids[i])))
                .collect()
        };
        let (o, x) = (Some, None::<usize>);
        let place = |table: &mut RunTable, vm: usize, i: usize| table.place(vm, handles[i]);
        // Slot one: every block is new, so each placement waits for the
        // pass, and each block gets at least two rows.
        for (vm, i) in [(5, 0), (2, 1), (5, 2)] {
            place(&mut table, vm, i);
        }
        assert_eq!(table.len(), 0);
        table.insert_staged();
        assert_eq!(
            rows(&table, &store),
            expect(&[(2, o(1)), (2, x), (5, o(0)), (5, o(2))])
        );
        // Slot two: VM 2's job lands in its block's room at once; VM 5's
        // full block doubles.
        for (vm, i) in [(3, 3), (5, 4), (0, 5), (2, 6), (9, 7)] {
            place(&mut table, vm, i);
        }
        assert_eq!(table.run_of(2), 0..2);
        table.insert_staged();
        let placed = [(0, o(5)), (0, x), (2, o(1)), (2, o(6)), (3, o(3)), (3, x)];
        let placed = [
            &placed[..],
            &[(5, o(0)), (5, o(2)), (5, o(4)), (5, x), (9, o(7)), (9, x)],
        ];
        assert_eq!(rows(&table, &store), expect(&placed.concat()));
        assert_eq!(
            (table.live(), table.run_of(5), table.run_of(4)),
            (8, 6..9, 6..6)
        );
        assert_eq!(table.run_from(6, 5), (6..9, 10));
        // VM 5's first job leaves the way `Vec::swap_remove` would and VM
        // 2 loses its last: the vacated rows stay as room in their blocks,
        // and VM 5's next job takes one.
        table.swap_remove(6, 8);
        table.vacate(3);
        assert_eq!(table.row_of(handles[0]), None);
        place(&mut table, 5, 8);
        let left = [(0, o(5)), (0, x), (2, o(1)), (2, x), (3, o(3)), (3, x)];
        let left = [
            &left[..],
            &[(5, o(4)), (5, o(2)), (5, o(8)), (5, x), (9, o(7)), (9, x)],
        ];
        assert_eq!(rows(&table, &store), expect(&left.concat()));
        // A walk steps over a block left with no running row.
        table.vacate(0);
        assert_eq!(table.run_from(0, 2), (2..3, 4));
        // Once vacant rows outnumber running ones, idle blocks go and the
        // rest are cut back to two rows, or a power of two.
        for r in [4, 8] {
            table.vacate(r);
        }
        assert_eq!(table.live(), 4);
        table.trim();
        let trimmed = [(2, o(1)), (2, x), (5, o(4)), (5, o(2)), (9, o(7)), (9, x)];
        assert_eq!(rows(&table, &store), expect(&trimmed));
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
