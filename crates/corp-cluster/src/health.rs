//! Per-shard health snapshots for external supervisors.
//!
//! The coordinator already recovers from shard failures on its own
//! (rebuild + inline scheduling, see [`crate::provisioner`]); this module
//! is the *observability* side of that machinery. After every slot the
//! coordinator records what actually happened on each shard — did the
//! shard's plan arrive, did the coordinator fall back inline, or was the
//! shard deliberately isolated — and exposes it through
//! [`ShardedProvisioner::shard_health`](crate::ShardedProvisioner::shard_health).
//!
//! The corp-serve circuit-breaker layer consumes these snapshots between
//! slots: K consecutive [`ShardSlotOutcome::FellBack`] outcomes trip a
//! breaker, which then holds the shard isolated via
//! [`ShardedProvisioner::set_forced_inline`](crate::ShardedProvisioner::set_forced_inline)
//! until a half-open probe succeeds. Keeping the state machine outside
//! this crate keeps the coordinator's own recovery policy unchanged; the
//! breaker is strictly layered on top.

/// What one shard did in the most recent provisioning slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardSlotOutcome {
    /// No slot has run yet.
    Idle,
    /// The shard's plan arrived and was arbitrated normally.
    Served,
    /// The coordinator had to schedule the shard inline: dead shard,
    /// dropped request, delayed reply — a *failure* fallback.
    FellBack,
    /// The shard was deliberately isolated (forced inline) by an external
    /// supervisor; its pipeline was not run.
    Isolated,
}

/// Snapshot of one shard's supervision state after a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardHealth {
    /// Shard index.
    pub shard: usize,
    /// Whether the shard has a pipeline to run (it has not been killed or
    /// panicked since its last rebuild).
    pub alive: bool,
    /// Dead with no way back (no factory): the shard schedules inline
    /// forever.
    pub failed: bool,
    /// What happened on the most recent slot.
    pub last_outcome: ShardSlotOutcome,
}
