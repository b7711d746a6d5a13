//! Property tests for the fault-schedule expansion.
//!
//! The determinism contract generalized over the whole input space: for
//! *any* seed, intensity, fleet size, and shard count, expanding the same
//! config twice yields byte-identical schedules; every drawn event stays
//! inside the fleet and the horizon; and zero intensity always expands to
//! an empty schedule.

use corp_faults::{generate, FaultConfig, FaultEvent};
use proptest::prelude::*;

proptest! {
    #[test]
    fn schedules_are_byte_identical_for_a_fixed_seed(
        seed in 0u64..u64::MAX,
        intensity in 0.0f64..4.0,
        vms in 0usize..40,
        shards in 0usize..8,
    ) {
        let config = FaultConfig::scenario(seed, intensity);
        let a = generate(&config, vms, shards);
        let b = generate(&config, vms, shards);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "printed schedules differ for one seed"
        );
    }

    #[test]
    fn every_event_stays_in_bounds(
        seed in 0u64..u64::MAX,
        intensity in 0.0f64..4.0,
        vms in 1usize..40,
        shards in 1usize..8,
    ) {
        let config = FaultConfig::scenario(seed, intensity);
        let schedule = generate(&config, vms, shards);
        for e in schedule.timeline.events() {
            prop_assert!(e.slot >= 1 && e.slot < config.horizon_slots);
            let vm = match e.event {
                FaultEvent::VmCrash { vm }
                | FaultEvent::VmRecover { vm }
                | FaultEvent::VmRestore { vm }
                | FaultEvent::VmDegrade { vm, .. }
                | FaultEvent::PoisonViews { vm, .. } => vm,
            };
            prop_assert!(vm < vms, "event targets vm {} of {}", vm, vms);
            if let FaultEvent::VmDegrade { factor, .. } = e.event {
                prop_assert!((0.05..=1.0).contains(&factor));
            }
        }
        // Timeline is slot-sorted: the engine consumes it front-to-back.
        let slots: Vec<u64> = schedule.timeline.events().iter().map(|e| e.slot).collect();
        prop_assert!(slots.windows(2).all(|w| w[0] <= w[1]));
        for c in schedule
            .control
            .kills
            .iter()
            .chain(&schedule.control.drop_requests)
            .chain(&schedule.control.delay_replies)
        {
            prop_assert!(c.slot >= 1 && c.slot < config.horizon_slots);
            prop_assert!(c.shard < shards, "fault targets shard {} of {}", c.shard, shards);
        }
    }

    #[test]
    fn crash_and_degrade_windows_alternate_per_vm(
        seed in 0u64..u64::MAX,
        intensity in 0.5f64..6.0,
        vms in 1usize..8,
    ) {
        // Within one VM, begin/end events of each window kind must strictly
        // alternate — a VM never crashes while already down, never recovers
        // while up (and likewise for degradation windows).
        let config = FaultConfig::scenario(seed, intensity);
        let schedule = generate(&config, vms, 2);
        let mut down = vec![false; vms];
        let mut degraded = vec![false; vms];
        for e in schedule.timeline.events() {
            match e.event {
                FaultEvent::VmCrash { vm } => {
                    prop_assert!(!down[vm], "vm {} crashed while down", vm);
                    down[vm] = true;
                }
                FaultEvent::VmRecover { vm } => {
                    prop_assert!(down[vm], "vm {} recovered while up", vm);
                    down[vm] = false;
                }
                FaultEvent::VmDegrade { vm, .. } => {
                    prop_assert!(!degraded[vm], "vm {} degraded twice", vm);
                    degraded[vm] = true;
                }
                FaultEvent::VmRestore { vm } => {
                    prop_assert!(degraded[vm], "vm {} restored while nominal", vm);
                    degraded[vm] = false;
                }
                FaultEvent::PoisonViews { .. } => {}
            }
        }
    }

    #[test]
    fn zero_intensity_is_always_empty(
        seed in 0u64..u64::MAX,
        vms in 0usize..40,
        shards in 0usize..8,
    ) {
        let schedule = generate(&FaultConfig::disabled(seed), vms, shards);
        prop_assert!(schedule.is_empty());
        prop_assert_eq!(schedule.timeline.len(), 0);
        prop_assert!(schedule.control.is_empty());
    }
}
