//! Typed control-plane failures.
//!
//! The coordinator never panics on a sick shard: every failure is either
//! recovered in place (rebuild + inline scheduling) or recorded here and
//! surfaced through [`ShardedProvisioner::errors`](crate::ShardedProvisioner::errors).

use std::fmt;

/// A control-plane failure observed by the shard supervisor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// A shard died (panic or scheduled kill) and no factory was
    /// registered to rebuild its provisioner, so the coordinator schedules
    /// the shard inline permanently.
    WorkerUnrecoverable {
        /// Shard left without a pipeline.
        shard: usize,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::WorkerUnrecoverable { shard } => {
                write!(
                    f,
                    "shard {shard} worker died with no factory to rebuild it; scheduling inline"
                )
            }
        }
    }
}

impl std::error::Error for ClusterError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_the_shard_involved() {
        let e = ClusterError::WorkerUnrecoverable { shard: 3 };
        assert!(e.to_string().contains("shard 3"));
    }
}
