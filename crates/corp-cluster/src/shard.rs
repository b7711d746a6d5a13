//! Job-to-shard ownership and the one piece of a slot a shard gets by copy.
//!
//! Every job is owned by exactly one shard for its whole lifetime —
//! `owner = job_id % num_shards`, the rule [`corp_sim::JobShare`] defines —
//! so racing shards never propose conflicting actions for the *same* job;
//! the only contention left is capacity, which the
//! [`PlacementStore`](crate::PlacementStore) arbitrates. A shard reads the
//! engine's fleet views in place: its [`corp_sim::SlotContext`] carries the
//! shard's share, and every pipeline walks a VM's running jobs through
//! [`corp_sim::SlotContext::owned_jobs`]. VM-level state (capacity,
//! commitment, `unused_history`) is global truth either way, so VM-granular
//! predictors see the physical signal regardless of sharding. Only the
//! pending queue — a few small records a slot — is narrowed by copy.

use corp_sim::{JobId, JobShare, PendingJobView};

/// The shard that owns `job` in an `num_shards`-way partition.
pub fn owner_of(job: JobId, num_shards: usize) -> usize {
    JobShare::owner_of(job, num_shards)
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

/// Test oracle: the fleet as a filtered *copy* — running-job views narrowed
/// to the shard's own jobs, everything else cloned. A pipeline reading the
/// engine's views through its share must plan exactly as it would on this.
#[cfg(test)]
pub(crate) fn shard_vm_views(
    vms: &[corp_sim::VmView],
    shard: usize,
    num_shards: usize,
) -> Vec<corp_sim::VmView> {
    let owned = |j: &&corp_sim::RunningJobView| owner_of(j.id, num_shards) == shard;
    vms.iter()
        .map(|vm| corp_sim::VmView {
            id: vm.id,
            capacity: vm.capacity,
            committed: vm.committed,
            free: vm.free,
            jobs: vm.jobs.iter().filter(owned).cloned().collect(),
            unused_history: vm.unused_history.clone(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use corp_core::{
        shard_seed, CloudScaleProvisioner, CorpConfig, DraProvisioner, RccrProvisioner,
    };
    use corp_sim::{
        JobCompletion, ProvisionPlan, Provisioner, ResourceVector, RunningJobView, SlotContext,
        VmView,
    };
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn pending(id: JobId) -> PendingJobView {
        PendingJobView {
            id,
            requested: ResourceVector::splat(1.0),
            arrival_slot: 0,
            slo_slots: 10,
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
        for (shard, owned) in [vec![0, 2], vec![1]].into_iter().enumerate() {
            let ctx = context(0, &fleet, &[], JobShare { shard, of: 2 });
            let ids = |vm| ctx.owned_jobs(vm).map(|j| j.id).collect::<Vec<JobId>>();
            assert_eq!(ids(&fleet[0]), owned, "the predicate, view order kept");
            let copy = shard_vm_views(&fleet, shard, 2);
            let ids: Vec<JobId> = copy[0].jobs.iter().map(|j| j.id).collect();
            assert_eq!(ids, owned, "the oracle agrees");
            assert_eq!(copy[0].committed, ResourceVector::splat(3.0));
            assert_eq!(copy[0].unused_history.len(), 1);
        }
    }

    fn context<'a>(
        slot: u64,
        vms: &'a [VmView],
        pending: &'a [PendingJobView],
        share: JobShare,
    ) -> SlotContext<'a> {
        SlotContext {
            slot,
            vms,
            pending,
            max_vm_capacity: CAPACITY,
            share,
        }
    }

    // ---- differential test: the ownership predicate against the copy ----

    const CAPACITY: ResourceVector = ResourceVector([4.0, 16.0, 180.0]);
    const SLOTS: u64 = 20; // windows start at slots 0, 6, 12 and 18

    /// A small engine stand-in: a fleet of uneven occupancy whose jobs come,
    /// run with random usage for a few slots, and go.
    struct World {
        rng: StdRng,
        vms: Vec<VmView>,
        pending: Vec<PendingJobView>,
        next_id: JobId,
        /// Slot each running job completes at.
        ends: std::collections::HashMap<JobId, u64>,
    }

    impl World {
        fn new(seed: u64) -> Self {
            let vms = (0..10).map(|id| VmView {
                id,
                capacity: CAPACITY,
                committed: ResourceVector::ZERO,
                free: CAPACITY,
                jobs: Vec::new(),
                unused_history: Vec::new(),
            });
            World {
                rng: StdRng::seed_from_u64(seed),
                vms: vms.collect(),
                pending: Vec::new(),
                next_id: 0,
                ends: Default::default(),
            }
        }

        /// A few arrivals.
        fn arrive(&mut self, slot: u64) {
            for _ in 0..self.rng.gen_range(0..6) {
                let size = self.rng.gen_range(0.05..0.4);
                self.pending.push(PendingJobView {
                    id: self.next_id,
                    requested: CAPACITY.scaled(size),
                    arrival_slot: slot,
                    slo_slots: 10,
                });
                self.next_id += 1;
            }
        }

        /// Applies the shards' plans the way arbitration and the engine
        /// would (first claim wins; VMs 8 and 9 refuse everything, so the
        /// fleet keeps empty VMs), completes due jobs, and records one
        /// slot of usage. Jobs with `id % 5 == 4` never report any, so they
        /// reach the window boundaries with empty histories.
        fn step(&mut self, slot: u64, plans: &[ProvisionPlan]) -> Vec<JobCompletion> {
            for a in plans.iter().flat_map(|p| &p.adjustments) {
                for j in self.vms[a.vm].jobs.iter_mut().filter(|j| j.id == a.job) {
                    j.allocation = a.allocation;
                }
            }
            for p in plans.iter().flat_map(|p| &p.placements) {
                let Some(at) = self.pending.iter().position(|j| j.id == p.job) else {
                    continue;
                };
                if p.vm >= 8 || !p.allocation.fits_within(&self.vms[p.vm].free) {
                    continue;
                }
                let job = self.pending.remove(at);
                self.vms[p.vm].free -= p.allocation;
                self.ends
                    .insert(job.id, slot + self.rng.gen_range(3..14u64));
                self.vms[p.vm].jobs.push(RunningJobView {
                    allocation: p.allocation,
                    requested: job.requested,
                    ..running(job.id)
                });
            }
            let mut completed = Vec::new();
            for vm in &mut self.vms {
                let mut unused_total = ResourceVector::ZERO;
                for j in vm.jobs.iter_mut().filter(|j| j.id % 5 != 4) {
                    let demand = j.allocation.scaled(self.rng.gen_range(0.2..1.0));
                    j.recent_demand.push(demand);
                    j.recent_unused.push(j.allocation - demand);
                    unused_total += j.allocation - demand;
                }
                vm.unused_history.push(unused_total);
                let ends = &self.ends;
                let (done, keep) = vm.jobs.drain(..).partition(|j| ends[&j.id] <= slot);
                vm.jobs = keep;
                completed.extend(done.into_iter().map(|j: RunningJobView| {
                    JobCompletion {
                        job: j.id,
                        unused_history: (0..3)
                            .map(|k| j.recent_unused.iter().map(|u| u[k]).collect())
                            .collect(),
                    }
                }));
                vm.committed = vm
                    .jobs
                    .iter()
                    .fold(ResourceVector::ZERO, |c, j| c + j.allocation);
                vm.free = vm.capacity - vm.committed;
            }
            completed
        }
    }

    type Fleet = Vec<Box<dyn Provisioner + Send>>;

    /// Every scheduling pipeline a shard can run, `shards` of each.
    fn pipelines(shards: usize) -> Vec<(&'static str, Fleet)> {
        let corpus: Vec<Vec<Vec<f64>>> = (0..3)
            .map(|k| {
                let wave = |j: usize, t: usize| 0.3 + 0.2 * ((j + k + t) as f64).sin();
                (0..8)
                    .map(|j| (0..32).map(|t| wave(j, t)).collect())
                    .collect()
            })
            .collect();
        let seeded = |build: &dyn Fn(u64) -> Box<dyn Provisioner + Send>| -> Fleet {
            (0..shards).map(|s| build(shard_seed(7, s))).collect()
        };
        vec![
            (
                "corp",
                corp_core::corp_fleet(&CorpConfig::fast(), &corpus, shards),
            ),
            (
                "rccr",
                seeded(&|seed| Box::new(RccrProvisioner::new(0.9, seed))),
            ),
            (
                "cloudscale",
                seeded(&|seed| Box::new(CloudScaleProvisioner::new(seed))),
            ),
            ("dra", seeded(&|seed| Box::new(DraProvisioner::new(seed)))),
        ]
    }

    #[test]
    fn plans_over_the_engines_views_match_plans_over_narrowed_copies() {
        for shards in 1..=4usize {
            let in_place = pipelines(shards);
            let on_copies = pipelines(shards);
            for ((name, mut in_place), (_, mut on_copies)) in in_place.into_iter().zip(on_copies) {
                let mut world = World::new(shards as u64);
                for slot in 0..SLOTS {
                    world.arrive(slot);
                    let mut plans = Vec::new();
                    for shard in 0..shards {
                        let mine = shard_pending(&world.pending, shard, shards);
                        let share = JobShare { shard, of: shards };
                        let ctx = context(slot, &world.vms, &mine, share);
                        let plan = in_place[shard].provision(&ctx);
                        let copy = shard_vm_views(&world.vms, shard, shards);
                        let ctx = context(slot, &copy, &mine, JobShare::ALL);
                        let expected = on_copies[shard].provision(&ctx);
                        // `{:?}` prints an f64 exactly: equal text is
                        // equal bits, field for field.
                        assert_eq!(
                            format!("{plan:?}"),
                            format!("{expected:?}"),
                            "{name}: shard {shard} of {shards}, slot {slot}"
                        );
                        plans.push(plan);
                    }
                    for c in world.step(slot, &plans) {
                        let owner = owner_of(c.job, shards);
                        in_place[owner].on_jobs_completed(std::slice::from_ref(&c));
                        on_copies[owner].on_jobs_completed(std::slice::from_ref(&c));
                    }
                }
                let ran = world.next_id - world.pending.len() as u64;
                assert!(ran > 20, "{name}: the fleet stayed idle ({ran} jobs ran)");
            }
        }
    }
}
