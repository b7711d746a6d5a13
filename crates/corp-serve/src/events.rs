//! The daemon's event queue: a binary min-heap over virtual timestamps
//! with a deterministic total order.
//!
//! Events at the same virtual time are ordered by class — arrivals land
//! before the provisioning tick that would admit them, completions are
//! notifications emitted *by* a tick and sort after it, and drain/shutdown
//! close the stream — and within a class by insertion sequence. The
//! sequence number makes the order total, so a heap pop never depends on
//! allocator or hash state: identical pushes ⇒ identical pops ⇒
//! byte-identical runs.

use corp_sim::JobId;
use corp_trace::JobSpec;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One daemon event.
#[derive(Debug)]
pub enum ServeEvent {
    /// A job hits the front door (carries its spec).
    Arrival(Box<JobSpec>),
    /// A job finished — emitted by the tick that completed it, consumed as
    /// a notification (counters, completion hooks for external observers).
    Completion(JobId),
    /// A provisioning-window tick: drain the admission queue into the
    /// engine and run one slot.
    Tick,
    /// The workload is exhausted: verify nothing is left queued.
    Drain,
    /// Stop the event loop.
    Shutdown,
}

impl ServeEvent {
    /// Same-timestamp ordering class (lower pops first).
    fn class(&self) -> u8 {
        match self {
            ServeEvent::Arrival(_) => 0,
            ServeEvent::Tick => 1,
            ServeEvent::Completion(_) => 2,
            ServeEvent::Drain => 3,
            ServeEvent::Shutdown => 4,
        }
    }
}

/// An event stamped with its virtual due time and insertion sequence.
#[derive(Debug)]
struct QueuedEvent {
    time: u64,
    class: u8,
    seq: u64,
    event: ServeEvent,
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for QueuedEvent {}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest
        // (time, class, seq) on top.
        (other.time, other.class, other.seq).cmp(&(self.time, self.class, self.seq))
    }
}

/// Deterministic min-heap of [`ServeEvent`]s.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<QueuedEvent>,
    next_seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at virtual time `time`.
    pub fn push(&mut self, time: u64, event: ServeEvent) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(QueuedEvent {
            time,
            class: event.class(),
            seq,
            event,
        });
    }

    /// Pops the earliest event: `(time, event)`.
    pub fn pop(&mut self) -> Option<(u64, ServeEvent)> {
        self.heap.pop().map(|q| (q.time, q.event))
    }

    /// Number of events currently queued.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(id: u64) -> Box<JobSpec> {
        Box::new(JobSpec {
            id,
            arrival_slot: 0,
            duration_slots: 1,
            class: corp_trace::IntensityClass::Balanced,
            requested: [1.0, 1.0, 1.0],
            demand: vec![[0.5, 0.5, 0.5]],
            slo_slots: 5,
            bandwidth_mbps: 0.02,
        })
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, ServeEvent::Tick);
        q.push(10, ServeEvent::Tick);
        q.push(20, ServeEvent::Tick);
        let times: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn same_time_orders_by_class_then_seq() {
        let mut q = EventQueue::new();
        q.push(10, ServeEvent::Shutdown);
        q.push(10, ServeEvent::Tick);
        q.push(10, ServeEvent::Arrival(spec(1)));
        q.push(10, ServeEvent::Arrival(spec(2)));
        q.push(10, ServeEvent::Drain);
        q.push(10, ServeEvent::Completion(9));
        let order: Vec<String> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                ServeEvent::Arrival(s) => format!("arrival{}", s.id),
                ServeEvent::Tick => "tick".into(),
                ServeEvent::Completion(_) => "completion".into(),
                ServeEvent::Drain => "drain".into(),
                ServeEvent::Shutdown => "shutdown".into(),
            })
            .collect();
        assert_eq!(
            order,
            vec![
                "arrival1".to_string(),
                "arrival2".to_string(),
                "tick".to_string(),
                "completion".to_string(),
                "drain".to_string(),
                "shutdown".to_string(),
            ],
            "arrivals (FIFO) before the tick, notifications after, drain/shutdown last"
        );
    }

    #[test]
    fn counters_track_pushes() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(1, ServeEvent::Tick);
        q.push(2, ServeEvent::Tick);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }
}
