//! Control-plane telemetry for sharded (multi-scheduler) provisioners.
//!
//! A distributed control plane — several scheduler shards racing to place
//! jobs through a shared capacity arbiter — has health metrics a monolithic
//! scheduler does not: how often optimistic reservations conflict, how many
//! placements abort after exhausting retries, how deep each shard's queue
//! runs. [`ControlPlaneStats`] carries those counters into the
//! [`SimulationReport`](crate::SimulationReport) so scalability experiments
//! can report commit-conflict rates alongside utilization and SLO metrics.
//!
//! The types live here (rather than in the control-plane crate) so the
//! engine can embed them in its report without depending on any particular
//! control-plane implementation; provisioners surface them through
//! [`Provisioner::control_plane_stats`](crate::Provisioner::control_plane_stats),
//! which defaults to `None` for monolithic schedulers.

use serde::{Deserialize, Serialize};

/// Counters for one scheduler shard.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Placement proposals this shard emitted.
    pub proposals: u64,
    /// Proposals that committed (possibly after retries).
    pub commits: u64,
    /// Reservation conflicts this shard's proposals hit.
    pub conflicts: u64,
    /// Retry attempts after a conflict.
    pub retries: u64,
    /// Proposals abandoned after the retry budget was exhausted.
    pub aborts: u64,
    /// Deepest pending-job queue this shard saw in any slot.
    pub max_queue_depth: usize,
    /// Times this shard was rebuilt after dying.
    pub restarts: u64,
    /// Slots where the coordinator scheduled this shard inline because no
    /// plan arrived from it (dead shard, dropped request, or late reply).
    pub inline_slots: u64,
    /// Slots where a circuit breaker held this shard isolated: the
    /// coordinator scheduled it inline *by design*, without running its
    /// pipeline.
    pub isolated_slots: u64,
}

/// A circuit-breaker state, as surfaced in reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BreakerStateName {
    /// The shard's pipeline runs normally.
    Closed,
    /// The shard is isolated; its slots are scheduled inline.
    Open,
    /// One probe slot is being allowed through to test recovery.
    HalfOpen,
}

/// One deterministic breaker state transition, recorded at the slot it
/// happened.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BreakerTransition {
    /// Slot index of the transition.
    pub slot: u64,
    /// Shard whose breaker moved.
    pub shard: usize,
    /// State before.
    pub from: BreakerStateName,
    /// State after.
    pub to: BreakerStateName,
}

/// Aggregate counters for a sharded control plane plus its shared store.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ControlPlaneStats {
    /// Number of scheduler shards.
    pub shards: usize,
    /// Reservations opened on the placement store (phase 1 of 2PC).
    pub reservations: u64,
    /// Reservations confirmed (phase 2 commit).
    pub commits: u64,
    /// Reservation attempts refused because they would overcommit a VM.
    pub conflicts: u64,
    /// Reservations explicitly rolled back.
    pub aborts: u64,
    /// Placement retries across all shards.
    pub retries: u64,
    /// Claims committed on the VM their shard proposed, through the
    /// store's fused commit (both 2PC phases in one lock acquisition).
    pub fast_path_hits: u64,
    /// Arbitration slots where at least one claim no longer fit the VM its
    /// shard proposed — a capacity conflict — and went through the full
    /// 2PC claim (reserve, bounded best-fit retry, confirm).
    pub fallback_rounds: u64,
    /// Always 0: the store mechanism this counted (a per-VM writer mark
    /// that refused fused commits) is gone. The field is kept only because
    /// `benchmark/` reads it; the next `benchmark` PR may drop it.
    pub stripe_conflicts: u64,
    /// Deepest store-wide pending queue observed in any slot.
    pub max_queue_depth: usize,
    /// Shards killed by the fault schedule.
    pub worker_kills: u64,
    /// Shard pipeline panics caught by the supervisor.
    pub worker_panics: u64,
    /// Shards rebuilt from their provisioner factories.
    pub worker_restarts: u64,
    /// Slots where the coordinator scheduled a shard inline for lack of a
    /// plan from it.
    pub inline_slots: u64,
    /// Control-plane messages lost (scheduled request drops plus, per
    /// slot, each dead shard's batch of completion notifications).
    pub messages_dropped: u64,
    /// Shard replies delayed past their slot deadline by the schedule.
    pub messages_delayed: u64,
    /// Always 0: there is no reply to wait for any more — shards run
    /// inside the coordinator's per-slot pool call, which returns when they
    /// do — and the timeout this counted could only delay a hang (its
    /// recovery joined the thread it had just declared wedged). The field
    /// stays serialized so reports keep their bytes and because
    /// `benchmark/` compiles against it.
    pub recv_timeouts: u64,
    /// Slots a circuit breaker held a shard isolated (scheduled inline by
    /// design rather than by failure).
    pub isolated_slots: u64,
    /// Circuit-breaker trips (Closed/HalfOpen → Open).
    pub breaker_opens: u64,
    /// Half-open probes issued (Open → HalfOpen).
    pub breaker_half_opens: u64,
    /// Breaker recoveries (HalfOpen → Closed).
    pub breaker_closes: u64,
    /// Every breaker state transition, slot-ordered. Empty when no breaker
    /// layer is configured.
    pub breaker_transitions: Vec<BreakerTransition>,
    /// Per-shard breakdowns, shard-index ordered.
    pub per_shard: Vec<ShardStats>,
}

impl ControlPlaneStats {
    /// Fraction of reservation attempts that conflicted:
    /// `conflicts / (reservations + conflicts)`. Zero when no attempts were
    /// made.
    pub fn conflict_rate(&self) -> f64 {
        let attempts = self.reservations + self.conflicts;
        if attempts == 0 {
            0.0
        } else {
            self.conflicts as f64 / attempts as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conflict_rate_handles_zero_attempts() {
        assert_eq!(ControlPlaneStats::default().conflict_rate(), 0.0);
    }

    #[test]
    fn conflict_rate_is_fraction_of_attempts() {
        let stats = ControlPlaneStats {
            reservations: 75,
            conflicts: 25,
            ..Default::default()
        };
        assert!((stats.conflict_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn stats_serialize_with_per_shard_breakdown() {
        let stats = ControlPlaneStats {
            shards: 2,
            reservations: 10,
            commits: 9,
            conflicts: 1,
            aborts: 1,
            retries: 1,
            max_queue_depth: 4,
            per_shard: vec![ShardStats {
                shard: 0,
                proposals: 5,
                ..Default::default()
            }],
            ..Default::default()
        };
        let json = serde::json::to_string(&stats);
        assert!(json.contains("\"per_shard\":[{\"shard\":0"), "{json}");
        assert!(json.contains("\"conflicts\":1"), "{json}");
    }
}
