//! Per-shard circuit breakers over the sharded control plane.
//!
//! corp-cluster's supervisor already *recovers* from shard failures —
//! rebuild the shard, schedule the missed slot inline — but it retries a
//! flapping shard every single slot, paying a failed attempt, a rebuild
//! and an inline fallback each time. [`BreakerSupervisor`] layers the
//! classic circuit-breaker state machine on top:
//!
//! * **Closed** — normal operation; consecutive failure fallbacks
//!   ([`ShardSlotOutcome::FellBack`]) are counted.
//! * **Open** — after [`FAILURE_THRESHOLD`] consecutive
//!   fallbacks the shard is isolated via
//!   [`ShardedProvisioner::set_forced_inline`]: the coordinator schedules
//!   its jobs inline *without* running the shard's pipeline, for a
//!   backoff of [`BACKOFF_SLOTS`] virtual slots (deterministic by
//!   construction — no wall clocks anywhere).
//! * **Half-open** — when the backoff expires the shard gets one probe
//!   slot. Success closes the breaker and resets the backoff; another
//!   fallback reopens it with the backoff doubled (capped at
//!   [`MAX_BACKOFF_SLOTS`]).
//!
//! A shard the coordinator marks permanently `failed` latches Open forever
//! — no point probing a shard that cannot be rebuilt. Every transition
//! is a [`corp_sim::BreakerTransition`] carried in the control-plane stats
//! of the serve report, alongside open/half-open/close counters.
//!
//! The supervisor is itself a [`Provisioner`], so it drops into either
//! driver (serve daemon or batch simulation) unchanged; everything else —
//! completions, service levels, view periods — forwards to the inner
//! coordinator.

use corp_cluster::{ShardSlotOutcome, ShardedProvisioner};
use corp_sim::{
    BreakerStateName, BreakerTransition, ControlPlaneStats, JobCompletion, JobId, ProvisionPlan,
    Provisioner, SlotContext,
};

/// Consecutive failure fallbacks that trip a Closed breaker.
pub const FAILURE_THRESHOLD: u32 = 3;
/// Initial Open backoff, in virtual slots (deterministic units, not
/// seconds).
pub const BACKOFF_SLOTS: u64 = 4;
/// Cap of the backoff, which doubles each time a half-open probe fails.
pub const MAX_BACKOFF_SLOTS: u64 = 32;

/// One shard's breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    Closed { consecutive_failures: u32 },
    Open { until_slot: u64, backoff: u64 },
    HalfOpen { backoff: u64 },
}

impl BreakerState {
    fn name(&self) -> BreakerStateName {
        match self {
            BreakerState::Closed { .. } => BreakerStateName::Closed,
            BreakerState::Open { .. } => BreakerStateName::Open,
            BreakerState::HalfOpen { .. } => BreakerStateName::HalfOpen,
        }
    }
}

/// A [`ShardedProvisioner`] wrapped in per-shard circuit breakers.
pub struct BreakerSupervisor {
    inner: ShardedProvisioner,
    states: Vec<BreakerState>,
    transitions: Vec<BreakerTransition>,
    opens: u64,
    half_opens: u64,
    closes: u64,
}

impl BreakerSupervisor {
    /// Wraps `inner` with breakers in the Closed state.
    pub fn new(inner: ShardedProvisioner) -> Self {
        let shards = inner.num_shards();
        BreakerSupervisor {
            inner,
            states: vec![
                BreakerState::Closed {
                    consecutive_failures: 0
                };
                shards
            ],
            transitions: Vec::new(),
            opens: 0,
            half_opens: 0,
            closes: 0,
        }
    }

    /// The wrapped coordinator (for error and recovery inspection).
    pub fn inner(&self) -> &ShardedProvisioner {
        &self.inner
    }

    /// Breaker transitions so far, in slot order.
    pub fn transitions(&self) -> &[BreakerTransition] {
        &self.transitions
    }

    /// `(opens, half_opens, closes)` counters so far.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.opens, self.half_opens, self.closes)
    }

    fn transition(&mut self, slot: u64, shard: usize, to: BreakerState) {
        let from = self.states[shard].name();
        let to_name = to.name();
        if from != to_name {
            match to_name {
                BreakerStateName::Open => self.opens += 1,
                BreakerStateName::HalfOpen => self.half_opens += 1,
                BreakerStateName::Closed => self.closes += 1,
            }
            self.transitions.push(BreakerTransition {
                slot,
                shard,
                from,
                to: to_name,
            });
        }
        self.states[shard] = to;
    }

    /// Expires Open backoffs before the slot runs: an expired breaker goes
    /// half-open and its shard gets one probe dispatch.
    fn pre_slot(&mut self, slot: u64) {
        for shard in 0..self.states.len() {
            if let BreakerState::Open {
                until_slot,
                backoff,
            } = self.states[shard]
            {
                if until_slot != u64::MAX && slot >= until_slot {
                    self.inner.set_forced_inline(shard, false);
                    self.transition(slot, shard, BreakerState::HalfOpen { backoff });
                }
            }
        }
    }

    /// Folds the slot's health snapshot into the state machines.
    fn post_slot(&mut self, slot: u64) {
        let health = self.inner.shard_health();
        for h in health {
            let shard = h.shard;
            // A permanently failed worker can never serve a probe: latch
            // Open so the coordinator stops even pretending to dispatch.
            if h.failed {
                if !matches!(self.states[shard], BreakerState::Open { .. }) {
                    self.inner.set_forced_inline(shard, true);
                    self.transition(
                        slot,
                        shard,
                        BreakerState::Open {
                            until_slot: u64::MAX,
                            backoff: MAX_BACKOFF_SLOTS,
                        },
                    );
                }
                continue;
            }
            match (self.states[shard], h.last_outcome) {
                (BreakerState::Closed { .. }, ShardSlotOutcome::Served) => {
                    self.states[shard] = BreakerState::Closed {
                        consecutive_failures: 0,
                    };
                }
                (
                    BreakerState::Closed {
                        consecutive_failures,
                    },
                    ShardSlotOutcome::FellBack,
                ) => {
                    let failures = consecutive_failures + 1;
                    if failures >= FAILURE_THRESHOLD {
                        self.inner.set_forced_inline(shard, true);
                        self.transition(
                            slot,
                            shard,
                            BreakerState::Open {
                                until_slot: slot + BACKOFF_SLOTS,
                                backoff: BACKOFF_SLOTS,
                            },
                        );
                    } else {
                        self.states[shard] = BreakerState::Closed {
                            consecutive_failures: failures,
                        };
                    }
                }
                (BreakerState::HalfOpen { .. }, ShardSlotOutcome::Served) => {
                    self.transition(
                        slot,
                        shard,
                        BreakerState::Closed {
                            consecutive_failures: 0,
                        },
                    );
                }
                (BreakerState::HalfOpen { backoff }, ShardSlotOutcome::FellBack) => {
                    let backoff = (backoff * 2).min(MAX_BACKOFF_SLOTS);
                    self.inner.set_forced_inline(shard, true);
                    self.transition(
                        slot,
                        shard,
                        BreakerState::Open {
                            until_slot: slot + backoff,
                            backoff,
                        },
                    );
                }
                // Open shards report Isolated; Idle means the slot never
                // reached the shard. Neither moves the machine.
                _ => {}
            }
        }
    }
}

impl Provisioner for BreakerSupervisor {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn provision(&mut self, ctx: &SlotContext<'_>) -> ProvisionPlan {
        self.pre_slot(ctx.slot);
        let plan = self.inner.provision(ctx);
        self.post_slot(ctx.slot);
        plan
    }

    fn on_job_completed(&mut self, job: JobId, unused_history: &[Vec<f64>]) {
        self.inner.on_job_completed(job, unused_history);
    }

    fn on_jobs_completed(&mut self, completed: &[JobCompletion]) {
        self.inner.on_jobs_completed(completed);
    }

    fn control_plane_stats(&self) -> Option<ControlPlaneStats> {
        let mut stats = self.inner.control_plane_stats()?;
        stats.breaker_opens = self.opens;
        stats.breaker_half_opens = self.half_opens;
        stats.breaker_closes = self.closes;
        stats.breaker_transitions = self.transitions.clone();
        Some(stats)
    }

    fn set_service_level(&mut self, level: u8) {
        self.inner.set_service_level(level);
    }

    fn full_view_period(&self) -> u64 {
        self.inner.full_view_period()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corp_cluster::ShardConfig;
    use corp_sim::StaticPeakProvisioner;

    // State-machine tests drive `transition`/`pre_slot` directly against a
    // one-shard coordinator with hand-set states; the end-to-end behavior
    // (breakers tripping over a real flapping shard) lives in the
    // corp-bench serve_runtime suite where a full cluster and fault plan
    // exist.

    fn bare(state: BreakerState) -> BreakerSupervisor {
        let inner = ShardedProvisioner::new(
            "test",
            vec![Box::new(StaticPeakProvisioner)],
            ShardConfig::default(),
        );
        let mut s = BreakerSupervisor::new(inner);
        s.states = vec![state];
        s
    }

    #[test]
    fn open_expires_into_half_open() {
        let mut s = bare(BreakerState::Open {
            until_slot: 5,
            backoff: 4,
        });
        s.pre_slot(4);
        assert_eq!(s.states[0].name(), BreakerStateName::Open, "not yet");
        s.pre_slot(5);
        assert_eq!(s.states[0].name(), BreakerStateName::HalfOpen);
        assert_eq!(s.half_opens, 1);
        assert_eq!(
            s.transitions,
            vec![BreakerTransition {
                slot: 5,
                shard: 0,
                from: BreakerStateName::Open,
                to: BreakerStateName::HalfOpen,
            }]
        );
    }

    #[test]
    fn latched_open_never_probes() {
        let mut s = bare(BreakerState::Open {
            until_slot: u64::MAX,
            backoff: 32,
        });
        s.pre_slot(1_000_000);
        assert_eq!(s.states[0].name(), BreakerStateName::Open);
        assert!(s.transitions.is_empty());
    }

    #[test]
    fn same_state_updates_do_not_count_as_transitions() {
        let mut s = bare(BreakerState::Closed {
            consecutive_failures: 0,
        });
        s.transition(
            3,
            0,
            BreakerState::Closed {
                consecutive_failures: 2,
            },
        );
        assert!(
            s.transitions.is_empty(),
            "Closed→Closed is not a transition"
        );
        assert_eq!(s.closes, 0);
        match s.states[0] {
            BreakerState::Closed {
                consecutive_failures,
            } => assert_eq!(consecutive_failures, 2),
            other => panic!("unexpected state {other:?}"),
        }
    }
}
