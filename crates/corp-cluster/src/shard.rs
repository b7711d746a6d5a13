//! Job-to-shard partitioning and per-shard context construction.
//!
//! Every job is owned by exactly one shard for its whole lifetime —
//! `owner = job_id % num_shards` — so racing shards never propose
//! conflicting actions for the *same* job; the only contention left is
//! capacity, which the [`PlacementStore`](crate::PlacementStore)
//! arbitrates. Each shard receives a narrowed [`corp_sim::SlotContext`]:
//! the full VM fleet (capacity and commitment truth is global) but with
//! each VM's running-job views and the pending queue filtered to the jobs
//! the shard owns. VM-level series (`unused_history`) stay global, so
//! VM-granular predictors see the physical signal regardless of sharding.

use corp_sim::{JobId, PendingJobView, RunningJobView, VmView};

/// The shard that owns `job` in an `num_shards`-way partition.
pub fn owner_of(job: JobId, num_shards: usize) -> usize {
    debug_assert!(num_shards > 0);
    (job % num_shards as u64) as usize
}

/// One shard's pending queue: the jobs it owns, arrival order preserved.
pub fn shard_pending(
    pending: &[PendingJobView],
    shard: usize,
    num_shards: usize,
) -> Vec<PendingJobView> {
    pending
        .iter()
        .filter(|j| owner_of(j.id, num_shards) == shard)
        .cloned()
        .collect()
}

/// One shard's view of the fleet: global capacity/commitment and VM-level
/// history, with running-job views filtered to the shard's own jobs. Each
/// shard thread builds its own view from the shared fleet snapshot, so the
/// copying cost parallelizes with the shard count.
pub fn shard_vm_views(vms: &[VmView], shard: usize, num_shards: usize) -> Vec<VmView> {
    let mut views = Vec::new();
    shard_vm_views_into(vms, shard, num_shards, &mut views);
    views
}

/// [`shard_vm_views`] into a caller-owned buffer, reusing every inner
/// allocation (per-VM job vectors, per-job history tails) from the previous
/// slot — long-lived shard workers narrow the fleet snapshot once per slot,
/// and with buffer reuse the steady-state cost is pure copying, no
/// allocator traffic.
pub fn shard_vm_views_into(vms: &[VmView], shard: usize, num_shards: usize, out: &mut Vec<VmView>) {
    out.truncate(vms.len());
    let filled = out.len();
    for (dst, src) in out.iter_mut().zip(vms) {
        dst.id = src.id;
        dst.capacity = src.capacity;
        dst.committed = src.committed;
        dst.free = src.free;
        copy_owned_jobs_into(&src.jobs, shard, num_shards, &mut dst.jobs);
        dst.unused_history.clear();
        dst.unused_history.extend_from_slice(&src.unused_history);
    }
    for src in &vms[filled..] {
        out.push(VmView {
            id: src.id,
            capacity: src.capacity,
            committed: src.committed,
            free: src.free,
            jobs: src
                .jobs
                .iter()
                .filter(|j| owner_of(j.id, num_shards) == shard)
                .cloned()
                .collect(),
            unused_history: src.unused_history.clone(),
        });
    }
}

/// Filters `src` to the shard's own jobs, cloning into `dst` while reusing
/// its job entries' history allocations.
fn copy_owned_jobs_into(
    src: &[RunningJobView],
    shard: usize,
    num_shards: usize,
    dst: &mut Vec<RunningJobView>,
) {
    let mut kept = 0usize;
    for job in src.iter().filter(|j| owner_of(j.id, num_shards) == shard) {
        if kept < dst.len() {
            let slot = &mut dst[kept];
            slot.id = job.id;
            slot.requested = job.requested;
            slot.allocation = job.allocation;
            slot.recent_demand.clear();
            slot.recent_demand.extend_from_slice(&job.recent_demand);
            slot.recent_unused.clear();
            slot.recent_unused.extend_from_slice(&job.recent_unused);
        } else {
            dst.push(job.clone());
        }
        kept += 1;
    }
    dst.truncate(kept);
}

/// Copies a whole fleet snapshot into a caller-owned buffer, reusing inner
/// allocations — the coordinator's per-slot snapshot of the engine's views,
/// recycled across slots instead of freshly cloned.
pub fn copy_vm_views_into(vms: &[VmView], out: &mut Vec<VmView>) {
    out.truncate(vms.len());
    let filled = out.len();
    for (dst, src) in out.iter_mut().zip(vms) {
        dst.id = src.id;
        dst.capacity = src.capacity;
        dst.committed = src.committed;
        dst.free = src.free;
        copy_jobs_into(&src.jobs, &mut dst.jobs);
        dst.unused_history.clear();
        dst.unused_history.extend_from_slice(&src.unused_history);
    }
    for src in &vms[filled..] {
        out.push(src.clone());
    }
}

fn copy_jobs_into(src: &[RunningJobView], dst: &mut Vec<RunningJobView>) {
    dst.truncate(src.len());
    let filled = dst.len();
    for (slot, job) in dst.iter_mut().zip(src) {
        slot.id = job.id;
        slot.requested = job.requested;
        slot.allocation = job.allocation;
        slot.recent_demand.clear();
        slot.recent_demand.extend_from_slice(&job.recent_demand);
        slot.recent_unused.clear();
        slot.recent_unused.extend_from_slice(&job.recent_unused);
    }
    for job in &src[filled..] {
        dst.push(job.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corp_sim::{ResourceVector, RunningJobView};

    fn pending(id: JobId) -> PendingJobView {
        PendingJobView {
            id,
            requested: ResourceVector::splat(1.0),
            arrival_slot: 0,
            slo_slots: 10,
            handle: corp_sim::JobHandle::DETACHED,
        }
    }

    fn running(id: JobId) -> RunningJobView {
        RunningJobView {
            id,
            requested: ResourceVector::splat(1.0),
            allocation: ResourceVector::splat(1.0),
            recent_demand: Vec::new(),
            recent_unused: Vec::new(),
        }
    }

    #[test]
    fn ownership_partitions_all_jobs_exactly_once() {
        let jobs: Vec<PendingJobView> = (0..23).map(pending).collect();
        let parts: Vec<_> = (0..4).map(|s| shard_pending(&jobs, s, 4)).collect();
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), jobs.len());
        for (shard, part) in parts.iter().enumerate() {
            for j in part {
                assert_eq!(owner_of(j.id, 4), shard);
            }
        }
    }

    #[test]
    fn single_shard_owns_everything_in_order() {
        let jobs: Vec<PendingJobView> = [5, 2, 9].into_iter().map(pending).collect();
        let ids: Vec<JobId> = shard_pending(&jobs, 0, 1).iter().map(|j| j.id).collect();
        assert_eq!(ids, vec![5, 2, 9], "arrival order preserved");
    }

    #[test]
    fn vm_views_filter_jobs_but_keep_global_state() {
        let vm = VmView {
            id: 0,
            capacity: ResourceVector::splat(8.0),
            committed: ResourceVector::splat(3.0),
            free: ResourceVector::splat(5.0),
            jobs: vec![running(0), running(1), running(2)],
            unused_history: vec![ResourceVector::splat(0.5)],
        };
        let fleet = [vm];
        let per_shard = [shard_vm_views(&fleet, 0, 2), shard_vm_views(&fleet, 1, 2)];
        assert_eq!(
            per_shard[0][0]
                .jobs
                .iter()
                .map(|j| j.id)
                .collect::<Vec<_>>(),
            vec![0, 2]
        );
        assert_eq!(
            per_shard[1][0]
                .jobs
                .iter()
                .map(|j| j.id)
                .collect::<Vec<_>>(),
            vec![1]
        );
        for views in &per_shard {
            assert_eq!(views[0].committed, ResourceVector::splat(3.0));
            assert_eq!(views[0].unused_history.len(), 1);
        }
    }

    #[test]
    fn reused_buffers_match_fresh_narrowing() {
        let fleet = |n: usize, hist: usize| -> Vec<VmView> {
            (0..n)
                .map(|id| VmView {
                    id,
                    capacity: ResourceVector::splat(8.0),
                    committed: ResourceVector::splat(id as f64),
                    free: ResourceVector::splat(8.0 - id as f64),
                    jobs: (0..id as u64).map(running).collect(),
                    unused_history: vec![ResourceVector::splat(0.5); hist],
                })
                .collect()
        };
        // Narrow a big deep fleet into the buffer, then a smaller shallow
        // one: stale entries, jobs, and history tails must all be dropped.
        let mut buf = Vec::new();
        shard_vm_views_into(&fleet(6, 4), 0, 2, &mut buf);
        let second = fleet(3, 1);
        shard_vm_views_into(&second, 0, 2, &mut buf);
        assert_eq!(
            format!("{buf:?}"),
            format!("{:?}", shard_vm_views(&second, 0, 2))
        );
        // Whole-snapshot copy: same reuse contract.
        let mut snap = Vec::new();
        copy_vm_views_into(&fleet(2, 3), &mut snap);
        copy_vm_views_into(&second, &mut snap);
        assert_eq!(format!("{snap:?}"), format!("{second:?}"));
    }
}
