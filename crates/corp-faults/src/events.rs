//! Engine-facing fault events and the sorted timeline that carries them.

/// How a poisoned monitoring sample is corrupted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PoisonKind {
    /// The sample becomes NaN — the classic broken-exporter signal.
    Nan,
    /// The sample is replaced by `(|v| + 1) * scale` — a finite but
    /// absurd spike that stresses robustness without tripping NaN guards.
    Spike(f64),
}

impl PoisonKind {
    /// The corrupted value a poisoned sample reads as.
    pub fn corrupt(&self, value: f64) -> f64 {
        match *self {
            PoisonKind::Nan => f64::NAN,
            PoisonKind::Spike(scale) => (value.abs() + 1.0) * scale,
        }
    }
}

/// One fault taking effect at a scheduled slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// The VM goes down: capacity leaves the fleet and its running jobs
    /// are killed and re-enqueued.
    VmCrash {
        /// Index of the crashing VM.
        vm: usize,
    },
    /// The VM rejoins the fleet with its full nominal capacity.
    VmRecover {
        /// Index of the recovering VM.
        vm: usize,
    },
    /// The VM becomes a straggler delivering only `factor` of its
    /// nominal capacity (commitments are honored; jobs throttle).
    VmDegrade {
        /// Index of the degraded VM.
        vm: usize,
        /// Effective-capacity multiplier in `(0, 1)`.
        factor: f64,
    },
    /// The VM's effective capacity returns to nominal.
    VmRestore {
        /// Index of the restored VM.
        vm: usize,
    },
    /// For this slot only, the monitoring tails (per-job demand/unused and
    /// the VM unused series) the provisioner sees for this VM are
    /// corrupted. Ground truth is untouched.
    PoisonViews {
        /// Index of the VM whose views are poisoned.
        vm: usize,
        /// How the tail samples are corrupted.
        kind: PoisonKind,
    },
}

/// A [`FaultEvent`] bound to the slot where it fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedFault {
    /// Slot at which the event takes effect (applied before arrivals).
    pub slot: u64,
    /// The fault itself.
    pub event: FaultEvent,
}

/// A slot-sorted sequence of faults, consumed front-to-back by the engine.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultTimeline {
    events: Vec<TimedFault>,
}

impl FaultTimeline {
    /// Builds a timeline, stably sorting events by slot (generation order
    /// breaks ties, keeping replay deterministic).
    pub fn new(mut events: Vec<TimedFault>) -> Self {
        events.sort_by_key(|e| e.slot);
        Self { events }
    }

    /// The sorted events.
    pub fn events(&self) -> &[TimedFault] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no fault is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_sorts_stably_by_slot() {
        let t = FaultTimeline::new(vec![
            TimedFault {
                slot: 5,
                event: FaultEvent::VmCrash { vm: 1 },
            },
            TimedFault {
                slot: 2,
                event: FaultEvent::VmRecover { vm: 0 },
            },
            TimedFault {
                slot: 5,
                event: FaultEvent::VmRestore { vm: 2 },
            },
        ]);
        let slots: Vec<u64> = t.events().iter().map(|e| e.slot).collect();
        assert_eq!(slots, vec![2, 5, 5]);
        // Ties preserve insertion order.
        assert_eq!(t.events()[1].event, FaultEvent::VmCrash { vm: 1 });
        assert_eq!(t.events()[2].event, FaultEvent::VmRestore { vm: 2 });
    }

    #[test]
    fn poison_kinds_corrupt_as_documented() {
        assert!(PoisonKind::Nan.corrupt(3.0).is_nan());
        let spiked = PoisonKind::Spike(50.0).corrupt(-2.0);
        assert!(spiked.is_finite());
        assert_eq!(spiked, 150.0);
    }
}
