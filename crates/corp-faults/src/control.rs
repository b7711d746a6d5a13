//! Control-plane chaos: the schedule of shard kills, dropped requests,
//! and delayed replies consumed by the `corp-cluster` shard supervisor.

use serde::{Deserialize, Serialize};

/// A (slot, shard) coordinate in the control-plane fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SlotShard {
    /// Slot at which the fault fires.
    pub slot: u64,
    /// Shard it targets.
    pub shard: usize,
}

/// Scheduled control-plane faults, each a sorted, deduplicated list of
/// (slot, shard) coordinates the supervisor looks up by binary search.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ControlFaultPlan {
    /// The shard loses its pipeline (and all it learned) at the start of
    /// this slot, as if crashed.
    pub kills: Vec<SlotShard>,
    /// The provision request to this shard is lost; the coordinator
    /// schedules the shard inline.
    pub drop_requests: Vec<SlotShard>,
    /// The shard runs the slot but its reply arrives after the slot
    /// deadline; the coordinator schedules inline and discards the plan.
    pub delay_replies: Vec<SlotShard>,
}

impl ControlFaultPlan {
    /// Builds a plan, sorting and deduplicating each list.
    pub fn new(
        mut kills: Vec<SlotShard>,
        mut drop_requests: Vec<SlotShard>,
        mut delay_replies: Vec<SlotShard>,
    ) -> Self {
        for list in [&mut kills, &mut drop_requests, &mut delay_replies] {
            list.sort();
            list.dedup();
        }
        Self {
            kills,
            drop_requests,
            delay_replies,
        }
    }

    fn scheduled(list: &[SlotShard], slot: u64, shard: usize) -> bool {
        list.binary_search(&SlotShard { slot, shard }).is_ok()
    }

    /// True when this shard is scheduled to die at `slot`.
    pub fn kill_scheduled(&self, slot: u64, shard: usize) -> bool {
        Self::scheduled(&self.kills, slot, shard)
    }

    /// True when the provision request to this shard is lost at `slot`.
    pub fn drop_scheduled(&self, slot: u64, shard: usize) -> bool {
        Self::scheduled(&self.drop_requests, slot, shard)
    }

    /// True when this shard's reply misses the slot deadline at `slot`.
    pub fn delay_scheduled(&self, slot: u64, shard: usize) -> bool {
        Self::scheduled(&self.delay_replies, slot, shard)
    }

    /// True when no control-plane fault is scheduled at all.
    pub fn is_empty(&self) -> bool {
        self.kills.is_empty() && self.drop_requests.is_empty() && self.delay_replies.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookups_find_exactly_the_scheduled_coordinates() {
        let plan = ControlFaultPlan::new(
            vec![
                SlotShard { slot: 9, shard: 1 },
                SlotShard { slot: 3, shard: 0 },
                SlotShard { slot: 3, shard: 0 },
            ],
            vec![SlotShard { slot: 4, shard: 2 }],
            vec![],
        );
        assert_eq!(plan.kills.len(), 2, "duplicates removed");
        assert!(plan.kill_scheduled(3, 0));
        assert!(plan.kill_scheduled(9, 1));
        assert!(!plan.kill_scheduled(3, 1));
        assert!(plan.drop_scheduled(4, 2));
        assert!(!plan.delay_scheduled(4, 2));
        assert!(!plan.is_empty());
        assert!(ControlFaultPlan::default().is_empty());
    }
}
