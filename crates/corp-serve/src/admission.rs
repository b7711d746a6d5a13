//! Bounded admission queue with configurable backpressure.
//!
//! Arrivals land here between provisioning ticks; each tick drains the
//! queue into the engine in FIFO order. The queue is bounded — when an
//! arrival finds it full, the configured [`BackpressurePolicy`] decides
//! who pays:
//!
//! * [`Block`](BackpressurePolicy::Block) — the arrival waits at the door
//!   (a side FIFO) and enters the queue as soon as a drain frees space;
//!   nobody is lost, latency absorbs the stall.
//! * [`ShedOldest`](BackpressurePolicy::ShedOldest) — the oldest queued
//!   request is dropped to make room for the newcomer (tail-latency
//!   protection: the oldest entry is the most likely to be a lost cause).
//! * [`RejectNew`](BackpressurePolicy::RejectNew) — the newcomer is turned
//!   away immediately (fail-fast admission control).
//!
//! Independently of the full-queue policy, [`AdmissionQueue::expire`]
//! sheds waiting jobs whose placement deadline (see [`crate::slo`]) has
//! already passed — there is no point burning engine capacity on a job
//! that has missed its window before ever being drained.
//!
//! Every decision increments a counter in [`QueueStats`], and the queue
//! records its depth high-water mark; both land in the `ServeReport`.

use corp_sim::JobId;
use corp_trace::JobSpec;
use serde::Serialize;
use std::collections::VecDeque;

/// What to do when an arrival finds the admission queue full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackpressurePolicy {
    /// Hold the arrival at the door until a drain frees space.
    Block,
    /// Drop the oldest queued request to admit the newcomer.
    ShedOldest,
    /// Turn the newcomer away.
    RejectNew,
}

impl BackpressurePolicy {
    /// Parses a CLI-style policy name.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "block" => Ok(BackpressurePolicy::Block),
            "shed-oldest" | "shed" => Ok(BackpressurePolicy::ShedOldest),
            "reject-new" | "reject" => Ok(BackpressurePolicy::RejectNew),
            _ => Err(format!(
                "invalid backpressure policy `{s}`: expected block, shed-oldest, or reject-new"
            )),
        }
    }

    /// Canonical name (the `parse` spelling).
    pub fn name(&self) -> &'static str {
        match self {
            BackpressurePolicy::Block => "block",
            BackpressurePolicy::ShedOldest => "shed-oldest",
            BackpressurePolicy::RejectNew => "reject-new",
        }
    }
}

/// Admission-queue counters, serialized into the `ServeReport`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct QueueStats {
    /// Requests that entered the queue (including after a block or a
    /// shed made room).
    pub admitted: u64,
    /// Queued requests dropped by [`BackpressurePolicy::ShedOldest`].
    pub shed: u64,
    /// Arrivals turned away by [`BackpressurePolicy::RejectNew`].
    pub rejected: u64,
    /// Arrivals that had to wait at the door under
    /// [`BackpressurePolicy::Block`].
    pub blocked: u64,
    /// Waiting jobs dropped because their placement deadline passed
    /// before a tick could drain them (see [`AdmissionQueue::expire`]).
    pub expired: u64,
    /// Deepest the queue ever got (bounded by the configured capacity).
    pub high_water: u64,
}

/// A job waiting for admission, stamped with its arrival's virtual time
/// (the clock latency percentiles start from).
#[derive(Debug)]
pub struct QueuedJob {
    /// The job itself.
    pub spec: Box<JobSpec>,
    /// Virtual time of the arrival event, in microseconds.
    pub arrival_micros: u64,
}

/// What [`AdmissionQueue::offer`] did with an arrival.
#[derive(Debug, PartialEq, Eq)]
pub enum Admission {
    /// Entered the queue.
    Enqueued,
    /// Entered the queue after this older job was shed.
    EnqueuedAfterShed(JobId),
    /// Turned away.
    Rejected(JobId),
    /// Waiting at the door until space frees.
    Blocked,
}

/// The bounded FIFO between arrival events and the engine.
#[derive(Debug)]
pub struct AdmissionQueue {
    queue: VecDeque<QueuedJob>,
    door: VecDeque<QueuedJob>,
    capacity: usize,
    policy: BackpressurePolicy,
    stats: QueueStats,
}

impl AdmissionQueue {
    /// A queue holding at most `capacity` requests (min 1).
    pub fn new(capacity: usize, policy: BackpressurePolicy) -> Self {
        AdmissionQueue {
            queue: VecDeque::new(),
            door: VecDeque::new(),
            capacity: capacity.max(1),
            policy,
            stats: QueueStats::default(),
        }
    }

    /// Offers one arrival to the queue.
    pub fn offer(&mut self, spec: Box<JobSpec>, arrival_micros: u64) -> Admission {
        let job = QueuedJob {
            spec,
            arrival_micros,
        };
        if self.queue.len() < self.capacity {
            self.enqueue(job);
            return Admission::Enqueued;
        }
        match self.policy {
            BackpressurePolicy::Block => {
                self.stats.blocked += 1;
                self.door.push_back(job);
                Admission::Blocked
            }
            BackpressurePolicy::ShedOldest => {
                // Invariant: `queue.len() >= capacity >= 1` here (`new` clamps the cap to 1).
                let victim = self.queue.pop_front().expect("full queue is non-empty");
                self.stats.shed += 1;
                self.enqueue(job);
                Admission::EnqueuedAfterShed(victim.spec.id)
            }
            BackpressurePolicy::RejectNew => {
                self.stats.rejected += 1;
                Admission::Rejected(job.spec.id)
            }
        }
    }

    fn enqueue(&mut self, job: QueuedJob) {
        self.queue.push_back(job);
        self.stats.admitted += 1;
        self.stats.high_water = self.stats.high_water.max(self.queue.len() as u64);
    }

    /// Empties the queue (FIFO) for submission to the engine, then lets
    /// door-blocked arrivals claim the freed space, oldest first.
    pub(crate) fn drain(&mut self) -> Vec<QueuedJob> {
        let mut drained = Vec::new();
        self.drain_into(&mut drained);
        drained
    }

    /// `drain` into a caller-owned buffer: appends the
    /// queued jobs (FIFO) to `out` without allocating, then lets
    /// door-blocked arrivals claim the freed space, oldest first. The
    /// daemon calls this once per tick with one reused buffer, so steady
    /// state drains allocation-free.
    pub fn drain_into(&mut self, out: &mut Vec<QueuedJob>) {
        out.extend(self.queue.drain(..));
        while self.queue.len() < self.capacity {
            match self.door.pop_front() {
                Some(job) => self.enqueue(job),
                None => break,
            }
        }
    }

    /// Sheds every waiting job (queued or door-blocked) whose wait at
    /// `now_micros` strictly exceeds its class deadline. Expired jobs are
    /// counted in [`QueueStats::expired`] and their ids appended to
    /// `expired_ids`; space they free is immediately offered to
    /// door-blocked survivors, oldest first.
    pub fn expire(
        &mut self,
        now_micros: u64,
        deadlines: &crate::slo::DeadlineConfig,
        expired_ids: &mut Vec<JobId>,
    ) {
        let Some(deadline) = deadlines.deadline() else {
            return;
        };
        let before = expired_ids.len();
        let overdue = |job: &QueuedJob| now_micros.saturating_sub(job.arrival_micros) > deadline;
        self.queue.retain(|job| {
            if overdue(job) {
                expired_ids.push(job.spec.id);
                false
            } else {
                true
            }
        });
        self.door.retain(|job| {
            if overdue(job) {
                expired_ids.push(job.spec.id);
                false
            } else {
                true
            }
        });
        self.stats.expired += (expired_ids.len() - before) as u64;
        while self.queue.len() < self.capacity {
            match self.door.pop_front() {
                Some(job) => self.enqueue(job),
                None => break,
            }
        }
    }

    /// Swaps the backpressure policy at runtime — the brownout ladder's
    /// reject-new rung uses this, restoring the configured policy on
    /// recovery.
    pub(crate) fn set_policy(&mut self, policy: BackpressurePolicy) {
        self.policy = policy;
    }

    /// The policy currently in force.
    #[cfg(test)]
    pub(crate) fn policy(&self) -> BackpressurePolicy {
        self.policy
    }

    /// Requests currently queued (not counting those blocked at the door).
    pub fn depth(&self) -> usize {
        self.queue.len()
    }

    /// Requests blocked at the door (the [`BackpressurePolicy::Block`]
    /// side FIFO), waiting for a drain to free queue space.
    pub fn door_depth(&self) -> usize {
        self.door.len()
    }

    /// Whether both the queue and the door are empty.
    pub(crate) fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.door.is_empty()
    }

    /// The counters so far.
    pub fn stats(&self) -> &QueueStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corp_trace::IntensityClass;

    fn spec(id: u64) -> Box<JobSpec> {
        Box::new(JobSpec {
            id,
            arrival_slot: 0,
            duration_slots: 1,
            class: IntensityClass::Balanced,
            requested: [1.0, 1.0, 1.0],
            demand: vec![[0.5, 0.5, 0.5]],
            slo_slots: 5,
            bandwidth_mbps: 0.02,
        })
    }

    #[test]
    fn policy_parsing() {
        assert_eq!(
            BackpressurePolicy::parse("block"),
            Ok(BackpressurePolicy::Block)
        );
        assert_eq!(
            BackpressurePolicy::parse("SHED-OLDEST"),
            Ok(BackpressurePolicy::ShedOldest)
        );
        assert_eq!(
            BackpressurePolicy::parse("reject"),
            Ok(BackpressurePolicy::RejectNew)
        );
        assert!(BackpressurePolicy::parse("yolo").is_err());
    }

    #[test]
    fn fifo_below_capacity() {
        let mut q = AdmissionQueue::new(8, BackpressurePolicy::RejectNew);
        for id in 0..5 {
            assert_eq!(q.offer(spec(id), id * 10), Admission::Enqueued);
        }
        assert_eq!(q.depth(), 5);
        let drained = q.drain();
        assert_eq!(
            drained.iter().map(|j| j.spec.id).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert_eq!(drained[3].arrival_micros, 30);
        assert!(q.is_idle());
        assert_eq!(q.stats().high_water, 5);
        assert_eq!(q.stats().admitted, 5);
    }

    #[test]
    fn shed_oldest_drops_the_front() {
        let mut q = AdmissionQueue::new(2, BackpressurePolicy::ShedOldest);
        q.offer(spec(1), 0);
        q.offer(spec(2), 0);
        assert_eq!(q.offer(spec(3), 1), Admission::EnqueuedAfterShed(1));
        let ids: Vec<u64> = q.drain().iter().map(|j| j.spec.id).collect();
        assert_eq!(ids, vec![2, 3]);
        assert_eq!(q.stats().shed, 1);
        assert_eq!(q.stats().high_water, 2, "shedding never exceeds capacity");
    }

    #[test]
    fn reject_new_turns_the_newcomer_away() {
        let mut q = AdmissionQueue::new(1, BackpressurePolicy::RejectNew);
        q.offer(spec(1), 0);
        assert_eq!(q.offer(spec(2), 1), Admission::Rejected(2));
        let ids: Vec<u64> = q.drain().iter().map(|j| j.spec.id).collect();
        assert_eq!(ids, vec![1]);
        assert_eq!(q.stats().rejected, 1);
    }

    #[test]
    fn drain_into_reuses_the_buffer() {
        let mut q = AdmissionQueue::new(8, BackpressurePolicy::Block);
        let mut buf = Vec::new();
        q.offer(spec(1), 0);
        q.offer(spec(2), 0);
        q.drain_into(&mut buf);
        assert_eq!(buf.iter().map(|j| j.spec.id).collect::<Vec<_>>(), [1, 2]);
        buf.clear();
        q.offer(spec(3), 1);
        q.drain_into(&mut buf);
        assert_eq!(buf.len(), 1, "clear-then-refill leaves only new jobs");
        assert_eq!(buf[0].spec.id, 3);
    }

    #[test]
    fn expire_sheds_overdue_jobs_from_queue_and_door() {
        use crate::slo::DeadlineConfig;
        let mut q = AdmissionQueue::new(2, BackpressurePolicy::Block);
        q.offer(spec(1), 0);
        q.offer(spec(2), 40);
        assert_eq!(q.offer(spec(3), 45), Admission::Blocked);
        let deadlines = DeadlineConfig::uniform(10);
        let mut expired = Vec::new();
        // At t=50: job 1 waited 50 (> 10, expired), job 2 waited 10 (on
        // the line, kept), door job 3 waited 5 (kept and admitted into the
        // freed slot).
        q.expire(50, &deadlines, &mut expired);
        assert_eq!(expired, vec![1]);
        assert_eq!(q.stats().expired, 1);
        assert_eq!(q.depth(), 2, "door job claimed the freed slot");
        let ids: Vec<u64> = q.drain().iter().map(|j| j.spec.id).collect();
        assert_eq!(ids, vec![2, 3]);
        // Unbounded deadlines: expire is a no-op fast path.
        q.offer(spec(4), 0);
        q.expire(1_000, &DeadlineConfig::unbounded(), &mut expired);
        assert_eq!(q.depth(), 1);
        assert_eq!(expired.len(), 1);
    }

    #[test]
    fn policy_can_be_swapped_at_runtime() {
        let mut q = AdmissionQueue::new(1, BackpressurePolicy::Block);
        q.offer(spec(1), 0);
        q.set_policy(BackpressurePolicy::RejectNew);
        assert_eq!(q.policy(), BackpressurePolicy::RejectNew);
        assert_eq!(q.offer(spec(2), 1), Admission::Rejected(2));
        q.set_policy(BackpressurePolicy::Block);
        assert_eq!(q.offer(spec(3), 2), Admission::Blocked);
    }

    #[test]
    fn blocked_arrivals_enter_after_a_drain() {
        let mut q = AdmissionQueue::new(1, BackpressurePolicy::Block);
        q.offer(spec(1), 0);
        assert_eq!(q.offer(spec(2), 5), Admission::Blocked);
        assert!(!q.is_idle());
        let first: Vec<u64> = q.drain().iter().map(|j| j.spec.id).collect();
        assert_eq!(first, vec![1]);
        // The drain let job 2 through the door with its original stamp.
        assert_eq!(q.depth(), 1);
        let second = q.drain();
        assert_eq!(second[0].spec.id, 2);
        assert_eq!(second[0].arrival_micros, 5, "blocking keeps the stamp");
        assert!(q.is_idle());
        assert_eq!(q.stats().blocked, 1);
        assert_eq!(q.stats().admitted, 2);
    }
}
