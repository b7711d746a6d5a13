//! The serving daemon: the engine's slot loop with a front door.
//!
//! The batch `Simulation` submits each slot's arrivals straight to the
//! [`SlotEngine`] and steps it; the daemon runs the same loop with a
//! bounded admission queue in between. Each slot it offers the arrivals
//! that are due to the queue, expires the waiters whose deadline has
//! passed, drains the queue into the engine, steps it, and records how
//! long each placed job waited. Virtual time (slot × [`SLOT_MICROS`])
//! keeps the whole thing byte-deterministic; wall time appears only as
//! optional replay pacing ([`ReplaySpeed`]) and in the measured throughput
//! that travels *outside* the report.
//!
//! At unbounded queue capacity and `speed = inf`, a recorded workload
//! replayed here makes exactly the decisions the batch simulation makes —
//! same jobs on the same VMs — because both drivers feed the identical
//! engine in the identical order. The cross-mode equivalence test in
//! corp-bench pins this.

use crate::admission::{Admission, AdmissionQueue, BackpressurePolicy, QueuedJob};
use crate::brownout::{BrownoutConfig, BrownoutController, BrownoutLevel};
use crate::clock::ReplaySpeed;
use crate::report::{LatencySummary, ServeOutcome, ServeReport};
use crate::slo::{DeadlineConfig, SloStats};
use corp_faults::FaultTimeline;
use corp_sim::{Cluster, JobId, Provisioner, SimulationOptions, SlotEngine};
use corp_stats::QuantileSketch;
use corp_trace::JobSpec;
use std::collections::HashMap;
use std::time::Instant;

/// Virtual microseconds per provisioning slot: 10 s, the paper's slot
/// length.
pub const SLOT_MICROS: u64 = 10_000_000;

/// Rank accuracy of the placement-latency percentile sketch.
const LATENCY_EPS: f64 = 0.005;

/// Daemon knobs. The defaults describe the paper's setting: an
/// effectively open admission queue, no pacing, no deadlines, no
/// degradation ladder.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Admission-queue capacity (requests buffered between ticks).
    pub queue_capacity: usize,
    /// What happens when an arrival finds the queue full.
    pub policy: BackpressurePolicy,
    /// Replay pacing against the wall clock.
    pub speed: ReplaySpeed,
    /// Placement deadline; unbounded by default (nothing
    /// expires, nothing is classified).
    pub deadlines: DeadlineConfig,
    /// Overload degradation ladder; `None` (the default) disables the
    /// controller entirely.
    pub brownout: Option<BrownoutConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 4096,
            policy: BackpressurePolicy::Block,
            speed: ReplaySpeed::Infinite,
            deadlines: DeadlineConfig::unbounded(),
            brownout: None,
        }
    }
}

/// The long-running provisioning daemon.
pub struct ServeDaemon {
    engine: SlotEngine,
    config: ServeConfig,
}

impl ServeDaemon {
    /// Builds a daemon over `cluster`. `options` is the engine
    /// configuration shared with batch mode (slot cap, arena reclaim, …).
    pub fn new(cluster: Cluster, options: SimulationOptions, config: ServeConfig) -> Self {
        ServeDaemon {
            engine: SlotEngine::new(cluster, options),
            config,
        }
    }

    /// Read access to every submitted job's state, submission-ordered —
    /// the same view [`corp_sim::Simulation::jobs`] exposes, so cross-mode
    /// tests can compare job→VM placement maps between the two drivers.
    pub fn jobs(&self) -> &[corp_sim::RunningJob] {
        self.engine.jobs()
    }

    /// Arms the daemon to replay `timeline` alongside the workload —
    /// the exact fault machinery batch mode uses, unchanged, because the
    /// timeline lives inside the shared engine.
    pub fn with_fault_timeline(mut self, timeline: FaultTimeline) -> Self {
        self.engine = self.engine.with_fault_timeline(timeline);
        self
    }

    /// Replays `jobs` through the slot loop under `provisioner` and
    /// returns the report plus wall-clock throughput.
    ///
    /// `jobs` is any arrival stream — a `Vec`, a generator adapter, a
    /// decoded trace reader — pulled lazily, at most one spec ahead of the
    /// slot being served, so memory stays O(1) in the trace length. The
    /// stream is expected in arrival order (every recorded or generated
    /// workload is); a spec arriving out of order is already due when it
    /// is read, so it is stamped with the slot the stream had reached, the
    /// way a live front door would see it — a daemon cannot admit into the
    /// past.
    pub fn run<I>(&mut self, provisioner: &mut dyn Provisioner, jobs: I) -> ServeOutcome
    where
        I: IntoIterator<Item = JobSpec>,
    {
        let wall_start = Instant::now();
        let deadlines = self.config.deadlines;
        let base_policy = self.config.policy;
        let mut admission = AdmissionQueue::new(self.config.queue_capacity, base_policy);
        let mut latency = QuantileSketch::new(LATENCY_EPS);
        let mut slo = SloStats::default();
        let mut ladder = self.config.brownout.clone().map(BrownoutController::new);
        // Virtual arrival stamp and class deadline of each job still
        // waiting for its first placement; removed on placement (latency
        // measured once — a crash-induced re-placement is replacement
        // latency, a fault metric, not admission latency).
        let mut arrival_stamp: HashMap<JobId, (u64, Option<u64>)> = HashMap::new();
        // Per-tick reusable buffers: the loop drains and expires without
        // allocating at steady state.
        let mut drain_buf: Vec<QueuedJob> = Vec::new();
        let mut expired_buf: Vec<JobId> = Vec::new();

        let mut arrivals = jobs.into_iter().peekable();
        // Newest arrival slot pulled so far; the slot cap is measured from
        // it, the batch driver's `max_slots + last_arrival` horizon.
        let mut last_arrival: u64 = 0;
        let mut pulled: u64 = 0;
        let mut completed: u64 = 0;
        let mut ticks: u64 = 0;
        let virtual_end_micros = loop {
            let slot = self.engine.slot();
            let time = slot.saturating_mul(SLOT_MICROS);
            self.config.speed.pace(wall_start, time);

            // The slot's arrivals reach the door before its tick drains it.
            while let Some(spec) = arrivals.next_if(|s| s.arrival_slot <= slot) {
                last_arrival = last_arrival.max(spec.arrival_slot);
                pulled += 1;
                arrival_stamp.insert(spec.id, (time, deadlines.deadline_for(spec.class)));
                match admission.offer(Box::new(spec), time) {
                    Admission::EnqueuedAfterShed(id) | Admission::Rejected(id) => {
                        arrival_stamp.remove(&id);
                    }
                    Admission::Enqueued | Admission::Blocked => {}
                }
            }

            // Depth before the drain is the demand signal the brownout
            // controller keys on: how much piled up since the last tick.
            let depth_before = admission.depth();
            if !deadlines.is_unbounded() {
                expired_buf.clear();
                admission.expire(time, &deadlines, &mut expired_buf);
                for id in &expired_buf {
                    arrival_stamp.remove(id);
                }
                slo.expired += expired_buf.len() as u64;
            }
            drain_buf.clear();
            admission.drain_into(&mut drain_buf);
            for queued in drain_buf.drain(..) {
                self.engine.submit(*queued.spec);
            }
            let outcome = self.engine.step(provisioner);
            ticks += 1;
            completed += outcome.completed.len() as u64;
            let mut tick_max_latency: u64 = 0;
            for (job, _vm) in &outcome.placements {
                if let Some((stamp, deadline)) = arrival_stamp.remove(job) {
                    let waited = time.saturating_sub(stamp);
                    latency.insert(waited as f64);
                    slo.record_placement(waited, deadline);
                    tick_max_latency = tick_max_latency.max(waited);
                }
            }
            for job in &outcome.rejected {
                arrival_stamp.remove(job);
            }
            if let Some(controller) = ladder.as_mut() {
                let p95 = latency.query(0.95).unwrap_or(0.0);
                if let Some(level) =
                    controller.observe_tick(time, depth_before, tick_max_latency, p95)
                {
                    provisioner.set_service_level(level.service_level());
                    admission.set_policy(if level == BrownoutLevel::RejectNew {
                        BackpressurePolicy::RejectNew
                    } else {
                        base_policy
                    });
                }
            }
            let drained = self.engine.active() == 0 && admission.is_idle();
            if arrivals.peek().is_none() && (drained || self.engine.past_cap(last_arrival)) {
                break time;
            }
        };

        // A slot-cap stop can leave requests parked in the admission
        // queue. Register them with the engine (without stepping) so the
        // report counts every admitted job, exactly as the batch driver
        // does.
        for queued in admission.drain() {
            self.engine.submit(*queued.spec);
        }

        // One event per arrival, tick and completion, plus the drain and
        // shutdown that close the stream.
        let events_processed = pulled + ticks + completed + 2;
        let report = ServeReport {
            sim: self.engine.report(provisioner),
            placement_latency: LatencySummary::from_sketch(&latency),
            queue: admission.stats().clone(),
            slo,
            brownout: ladder
                .map(BrownoutController::into_summary)
                .unwrap_or_default(),
            events_processed,
            ticks,
            virtual_end_micros,
        };
        let wall_secs = wall_start.elapsed().as_secs_f64();
        ServeOutcome {
            events_per_sec: events_processed as f64 / wall_secs.max(1e-9),
            report,
            wall_secs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corp_sim::{EnvironmentProfile, StaticPeakProvisioner};
    use corp_trace::{WorkloadConfig, WorkloadGenerator};

    fn cluster() -> Cluster {
        Cluster::from_profile(EnvironmentProfile::palmetto_cluster())
    }

    fn workload(n: usize, seed: u64) -> Vec<JobSpec> {
        WorkloadGenerator::new(
            WorkloadConfig {
                num_jobs: n,
                ..WorkloadConfig::default()
            },
            seed,
        )
        .generate()
    }

    fn quiet_options() -> SimulationOptions {
        SimulationOptions {
            measure_decision_time: false,
            ..SimulationOptions::default()
        }
    }

    #[test]
    fn serve_completes_a_workload_and_reports_latency() {
        let mut daemon = ServeDaemon::new(cluster(), quiet_options(), ServeConfig::default());
        let out = daemon.run(&mut StaticPeakProvisioner, workload(40, 1));
        let r = &out.report;
        assert_eq!(r.sim.completed, 40, "{r:?}");
        assert_eq!(r.sim.unfinished, 0);
        assert_eq!(r.placement_latency.count, 40);
        assert_eq!(r.queue.admitted, 40);
        assert_eq!(r.queue.shed, 0);
        assert!(r.queue.high_water >= 1);
        assert_eq!(r.ticks, r.sim.slots_run);
        // Arrivals + ticks + completions + drain + shutdown.
        assert_eq!(r.events_processed, 40 + r.ticks + 40 + 2);
        assert!(out.wall_secs > 0.0);
        assert!(out.events_per_sec > 0.0);
    }

    #[test]
    fn serve_matches_batch_simulation_byte_for_byte() {
        let jobs = workload(35, 2);
        let mut sim = corp_sim::Simulation::new(cluster(), jobs.clone(), quiet_options());
        let batch = sim.run(&mut StaticPeakProvisioner);
        let mut daemon = ServeDaemon::new(cluster(), quiet_options(), ServeConfig::default());
        let served = daemon.run(&mut StaticPeakProvisioner, jobs);
        assert_eq!(
            serde::json::to_string(&batch),
            serde::json::to_string(&served.report.sim),
            "serve mode must reproduce the batch engine report exactly"
        );
    }

    #[test]
    fn empty_workload_shuts_down_after_one_tick() {
        let mut daemon = ServeDaemon::new(cluster(), quiet_options(), ServeConfig::default());
        let out = daemon.run(&mut StaticPeakProvisioner, Vec::new());
        assert_eq!(out.report.ticks, 1);
        assert_eq!(out.report.placement_latency.count, 0);
        // One tick + drain + shutdown.
        assert_eq!(out.report.events_processed, 3);
    }

    #[test]
    fn queued_arrivals_accumulate_latency() {
        // Several same-slot arrivals on a tiny queue under Block: the
        // overflow waits a full slot at the door, showing up in p-max.
        let mut jobs = workload(6, 3);
        for j in &mut jobs {
            j.arrival_slot = 0;
        }
        let config = ServeConfig {
            queue_capacity: 2,
            ..ServeConfig::default()
        };
        let mut daemon = ServeDaemon::new(cluster(), quiet_options(), config);
        let out = daemon.run(&mut StaticPeakProvisioner, jobs);
        let r = &out.report;
        assert_eq!(r.sim.completed, 6, "blocking loses nobody: {r:?}");
        assert_eq!(r.queue.blocked, 4);
        assert_eq!(r.queue.high_water, 2);
        assert!(
            r.placement_latency.max_micros >= 10_000_000.0,
            "door-blocked arrivals wait at least one slot: {r:?}"
        );
    }

    #[test]
    fn shed_oldest_drops_jobs_under_overload() {
        let mut jobs = workload(8, 4);
        for j in &mut jobs {
            j.arrival_slot = 0;
        }
        let config = ServeConfig {
            queue_capacity: 3,
            policy: BackpressurePolicy::ShedOldest,
            ..ServeConfig::default()
        };
        let mut daemon = ServeDaemon::new(cluster(), quiet_options(), config);
        let out = daemon.run(&mut StaticPeakProvisioner, jobs);
        let r = &out.report;
        assert_eq!(r.queue.shed, 5);
        assert_eq!(r.sim.num_jobs, 3, "shed jobs never reach the engine");
        assert_eq!(r.sim.completed, 3);
    }

    #[test]
    fn reject_new_turns_overflow_away() {
        let mut jobs = workload(8, 5);
        for j in &mut jobs {
            j.arrival_slot = 0;
        }
        let config = ServeConfig {
            queue_capacity: 3,
            policy: BackpressurePolicy::RejectNew,
            ..ServeConfig::default()
        };
        let mut daemon = ServeDaemon::new(cluster(), quiet_options(), config);
        let out = daemon.run(&mut StaticPeakProvisioner, jobs);
        let r = &out.report;
        assert_eq!(r.queue.rejected, 5);
        assert_eq!(r.sim.num_jobs, 3);
        assert_eq!(r.placement_latency.count, 3);
    }

    #[test]
    fn deadlines_expire_door_blocked_jobs_with_full_accounting() {
        use crate::slo::DeadlineConfig;
        // Six same-slot arrivals through a 2-deep queue under Block: the
        // first tick places two; the four door-blocked jobs out-wait a
        // 5-second deadline before the next tick and are expired, never
        // reaching the engine.
        let mut jobs = workload(6, 9);
        for j in &mut jobs {
            j.arrival_slot = 0;
        }
        let config = ServeConfig {
            queue_capacity: 2,
            deadlines: DeadlineConfig::uniform(5_000_000),
            ..ServeConfig::default()
        };
        let mut daemon = ServeDaemon::new(cluster(), quiet_options(), config);
        let out = daemon.run(&mut StaticPeakProvisioner, jobs);
        let r = &out.report;
        assert_eq!(r.slo.expired, 4, "{r:?}");
        assert_eq!(r.queue.expired, 4);
        assert_eq!(r.sim.num_jobs, 2, "expired jobs never reach the engine");
        assert_eq!(r.sim.completed, 2);
        assert_eq!(r.slo.deadline_hits, 2, "same-tick placements hit");
        assert_eq!(r.slo.deadline_misses, 0);
        // Conservation: offered == engine jobs + expired.
        assert_eq!(r.sim.num_jobs + r.slo.expired as usize, 6);
    }

    #[test]
    fn unbounded_deadlines_change_nothing() {
        let jobs = workload(20, 10);
        let run = |config: ServeConfig| {
            let mut daemon = ServeDaemon::new(cluster(), quiet_options(), config);
            let out = daemon.run(&mut StaticPeakProvisioner, jobs.clone());
            serde::json::to_string(&out.report)
        };
        let plain = run(ServeConfig::default());
        let unbounded = run(ServeConfig {
            deadlines: crate::slo::DeadlineConfig::unbounded(),
            ..ServeConfig::default()
        });
        assert_eq!(plain, unbounded);
    }

    /// Never places; records every service-level change it is told about.
    struct LevelProbe {
        levels: Vec<u8>,
    }
    impl Provisioner for LevelProbe {
        fn name(&self) -> &str {
            "level-probe"
        }
        fn provision(&mut self, _: &corp_sim::SlotContext<'_>) -> corp_sim::ProvisionPlan {
            corp_sim::ProvisionPlan::default()
        }
        fn set_service_level(&mut self, level: u8) {
            self.levels.push(level);
        }
    }

    #[test]
    fn brownout_ladder_escalates_and_recovers_deterministically() {
        use crate::brownout::{BrownoutConfig, BrownoutTrigger};
        // Five same-slot arrivals trip the depth trigger on the first
        // tick; the queue is empty afterwards (everything drained into the
        // engine), so the controller steps back down after two calm ticks.
        let mut jobs = workload(5, 11);
        for j in &mut jobs {
            j.arrival_slot = 0;
        }
        let config = ServeConfig {
            brownout: Some(BrownoutConfig {
                high_depth: 4,
                low_depth: 0,
                latency_high_micros: u64::MAX,
                recovery_ticks: 2,
            }),
            ..ServeConfig::default()
        };
        let options = SimulationOptions {
            max_slots: 6,
            measure_decision_time: false,
            ..SimulationOptions::default()
        };
        let mut probe = LevelProbe { levels: Vec::new() };
        let mut daemon = ServeDaemon::new(cluster(), options, config);
        let out = daemon.run(&mut probe, jobs);
        let b = &out.report.brownout;
        assert_eq!(b.escalations, 1, "{b:?}");
        assert_eq!(b.recoveries, 1);
        assert_eq!(b.max_rung, 1);
        assert_eq!(b.final_rung, 0);
        assert_eq!(b.transitions.len(), 2);
        assert_eq!(b.transitions[0].trigger, BrownoutTrigger::QueueDepth);
        assert_eq!(b.transitions[0].at_micros, 0, "tripped on the first tick");
        assert_eq!(b.transitions[1].trigger, BrownoutTrigger::Recovery);
        assert_eq!(
            probe.levels,
            vec![1, 0],
            "provisioner told to degrade, then restored"
        );
    }

    #[test]
    fn reject_new_rung_overrides_the_admission_policy() {
        use crate::brownout::BrownoutConfig;
        // A steady two-per-slot arrival stream against a depth trigger of
        // 1 climbs the whole ladder; once RejectNew is reached, later
        // queue-full arrivals are rejected even though the configured
        // policy is Block.
        let mut jobs = workload(16, 12);
        for (i, j) in jobs.iter_mut().enumerate() {
            j.arrival_slot = (i / 2) as u64;
        }
        let config = ServeConfig {
            queue_capacity: 1,
            policy: BackpressurePolicy::Block,
            brownout: Some(BrownoutConfig {
                high_depth: 1,
                low_depth: 0,
                latency_high_micros: u64::MAX,
                recovery_ticks: 100,
            }),
            ..ServeConfig::default()
        };
        let options = SimulationOptions {
            max_slots: 12,
            measure_decision_time: false,
            ..SimulationOptions::default()
        };
        let mut probe = LevelProbe { levels: Vec::new() };
        let mut daemon = ServeDaemon::new(cluster(), options, config);
        let out = daemon.run(&mut probe, jobs);
        let r = &out.report;
        assert_eq!(r.brownout.max_rung, 3, "{r:?}");
        assert!(
            r.queue.rejected > 0,
            "reject-new rung must turn arrivals away: {r:?}"
        );
        assert!(r.queue.blocked > 0, "pre-escalation arrivals blocked");
        assert_eq!(
            probe.levels,
            vec![1, 2, 2],
            "service level saturates at 2 while the ladder reaches rung 3"
        );
    }

    #[test]
    fn run_accepts_any_arrival_iterator() {
        // The same stream fed as a Vec and as a boxed lazy iterator must
        // produce byte-identical reports.
        let jobs = workload(25, 13);
        let from_vec = {
            let mut daemon = ServeDaemon::new(cluster(), quiet_options(), ServeConfig::default());
            let out = daemon.run(&mut StaticPeakProvisioner, jobs.clone());
            serde::json::to_string(&out.report)
        };
        let from_iter = {
            let mut daemon = ServeDaemon::new(cluster(), quiet_options(), ServeConfig::default());
            let mut stream = jobs.clone().into_iter();
            let out = daemon.run(
                &mut StaticPeakProvisioner,
                std::iter::from_fn(move || stream.next()),
            );
            serde::json::to_string(&out.report)
        };
        assert_eq!(from_vec, from_iter);
    }

    #[test]
    fn out_of_order_arrivals_clamp_to_the_stream_frontier() {
        // A straggler spec behind the frontier is admitted at the frontier
        // (a live daemon cannot admit into the past) and still completes.
        let mut jobs = workload(4, 14);
        jobs[0].arrival_slot = 5;
        jobs[1].arrival_slot = 2; // behind the frontier: clamps to 5
        jobs[2].arrival_slot = 6;
        jobs[3].arrival_slot = 6;
        let mut daemon = ServeDaemon::new(cluster(), quiet_options(), ServeConfig::default());
        let out = daemon.run(&mut StaticPeakProvisioner, jobs);
        let r = &out.report;
        assert_eq!(r.sim.completed, 4, "{r:?}");
        assert_eq!(r.queue.admitted, 4);
        // Stamped at the frontier and placed by its tick: a stamp at the
        // spec's own slot 2 would read as three slots of waiting.
        let placed: Vec<_> = daemon.jobs().iter().map(|j| j.placed_slot).collect();
        assert_eq!(placed, [Some(5), Some(5), Some(6), Some(6)]);
        assert_eq!(r.placement_latency.max_micros, 0.0, "{r:?}");
    }

    #[test]
    fn arrivals_of_a_slot_are_offered_before_its_tick_and_no_earlier() {
        // The job stamped slot 3 is in the queue when tick 3 drains it
        // (placed by that tick, latency 0); the one stamped slot 4 is not
        // (an early offer would place it at 3, a late one would make the
        // first wait a slot).
        let mut jobs = workload(2, 15);
        jobs[0].arrival_slot = 3;
        jobs[1].arrival_slot = 4;
        let mut daemon = ServeDaemon::new(cluster(), quiet_options(), ServeConfig::default());
        let out = daemon.run(&mut StaticPeakProvisioner, jobs);
        let r = &out.report;
        let placed: Vec<_> = daemon.jobs().iter().map(|j| j.placed_slot).collect();
        assert_eq!(placed, [Some(3), Some(4)]);
        assert_eq!(r.placement_latency.count, 2);
        assert_eq!(r.placement_latency.max_micros, 0.0, "{r:?}");
        assert_eq!(r.queue.high_water, 1, "never both in the queue: {r:?}");
    }

    #[test]
    fn every_arrival_tick_and_completion_is_one_event() {
        // Six arrivals at slot 0 and four at slot 5 (a gap of several
        // slots) through a 2-deep queue: whatever the door does with an
        // arrival — admit, block, shed, reject, expire — it counts once,
        // and the run ends on the last tick's time.
        let mut jobs = workload(10, 16);
        for (i, j) in jobs.iter_mut().enumerate() {
            j.arrival_slot = if i < 6 { 0 } else { 5 };
        }
        let policies = [
            BackpressurePolicy::Block,
            BackpressurePolicy::ShedOldest,
            BackpressurePolicy::RejectNew,
        ];
        for policy in policies {
            for deadlines in [
                DeadlineConfig::unbounded(),
                DeadlineConfig::uniform(5_000_000),
            ] {
                let config = ServeConfig {
                    queue_capacity: 2,
                    policy,
                    deadlines,
                    ..ServeConfig::default()
                };
                let mut daemon = ServeDaemon::new(cluster(), quiet_options(), config);
                let out = daemon.run(&mut StaticPeakProvisioner, jobs.clone());
                let r = &out.report;
                let case = format!("{policy:?} {deadlines:?}: {r:?}");
                assert_eq!(
                    r.events_processed,
                    10 + r.ticks + r.sim.completed as u64 + 2,
                    "{case}"
                );
                assert_eq!(r.virtual_end_micros, (r.ticks - 1) * SLOT_MICROS, "{case}");
                let q = &r.queue;
                let (turned_away, lost) = match policy {
                    BackpressurePolicy::Block => (q.blocked, q.expired),
                    BackpressurePolicy::ShedOldest => (q.shed, q.shed),
                    BackpressurePolicy::RejectNew => (q.rejected, q.rejected),
                };
                assert!(turned_away > 0, "{case}");
                assert_eq!(
                    lost > 0,
                    policy != BackpressurePolicy::Block || !deadlines.is_unbounded(),
                    "{case}"
                );
                assert_eq!(r.sim.num_jobs as u64 + lost, 10, "{case}");
            }
        }
    }

    #[test]
    fn fault_timeline_runs_unchanged_in_serving_mode() {
        use corp_faults::{FaultEvent, TimedFault};
        let jobs = workload(10, 6);
        let num_vms = cluster().vms.len();
        let timeline = || {
            let mut ev = Vec::new();
            for vm in 0..num_vms {
                ev.push(TimedFault {
                    slot: 3,
                    event: FaultEvent::VmCrash { vm },
                });
                ev.push(TimedFault {
                    slot: 20,
                    event: FaultEvent::VmRecover { vm },
                });
            }
            FaultTimeline::new(ev)
        };
        let mut sim = corp_sim::Simulation::new(cluster(), jobs.clone(), quiet_options())
            .with_fault_timeline(timeline());
        let batch = sim.run(&mut StaticPeakProvisioner);
        let mut daemon = ServeDaemon::new(cluster(), quiet_options(), ServeConfig::default())
            .with_fault_timeline(timeline());
        let served = daemon.run(&mut StaticPeakProvisioner, jobs);
        assert_eq!(
            serde::json::to_string(&batch),
            serde::json::to_string(&served.report.sim),
            "fault scenarios must play out identically in serve mode"
        );
        let faults = served.report.sim.faults.expect("fault stats present");
        assert!(faults.jobs_killed > 0);
    }

    #[test]
    fn paced_replay_matches_virtual_time_results() {
        // A tiny workload at a very high pacing multiplier: slow enough to
        // exercise the sleep path, fast enough for CI. The report must be
        // byte-identical to the unpaced run — pacing only stretches wall
        // time.
        let mut jobs = workload(3, 7);
        for j in &mut jobs {
            j.arrival_slot = 0;
        }
        let run = |speed| {
            let config = ServeConfig {
                speed,
                ..ServeConfig::default()
            };
            let mut daemon = ServeDaemon::new(cluster(), quiet_options(), config);
            let out = daemon.run(&mut StaticPeakProvisioner, jobs.clone());
            serde::json::to_string(&out.report)
        };
        let unpaced = run(ReplaySpeed::Infinite);
        let paced = run(ReplaySpeed::Times(2_000_000.0));
        assert_eq!(unpaced, paced);
    }

    #[test]
    fn slot_cap_registers_stragglers_like_batch_mode() {
        /// Never places anything.
        struct DoNothing;
        impl Provisioner for DoNothing {
            fn name(&self) -> &str {
                "noop"
            }
            fn provision(&mut self, _: &corp_sim::SlotContext<'_>) -> corp_sim::ProvisionPlan {
                corp_sim::ProvisionPlan::default()
            }
        }
        let jobs = workload(5, 8);
        let options = SimulationOptions {
            max_slots: 10,
            measure_decision_time: false,
            ..SimulationOptions::default()
        };
        let mut sim = corp_sim::Simulation::new(cluster(), jobs.clone(), options.clone());
        let batch = sim.run(&mut DoNothing);
        let mut daemon = ServeDaemon::new(cluster(), options, ServeConfig::default());
        let served = daemon.run(&mut DoNothing, jobs);
        assert_eq!(served.report.sim.unfinished, 5);
        assert_eq!(
            serde::json::to_string(&batch),
            serde::json::to_string(&served.report.sim)
        );
    }
}
