//! Deterministic expansion of a [`FaultConfig`] into a concrete schedule.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{
    ControlFaultPlan, FaultConfig, FaultEvent, FaultTimeline, PoisonKind, SlotShard, TimedFault,
};

/// A fully expanded fault schedule: the engine-facing timeline plus the
/// control-plane chaos plan. Pure data — replaying it is byte-identical.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    /// VM-level events consumed by the simulation engine.
    pub timeline: FaultTimeline,
    /// Shard-level chaos consumed by the control-plane supervisor.
    pub control: ControlFaultPlan,
}

impl FaultSchedule {
    /// True when nothing at all is scheduled.
    pub fn is_empty(&self) -> bool {
        self.timeline.is_empty() && self.control.is_empty()
    }
}

/// The fault mix at intensity 1: expected events over the horizon, across
/// the whole fleet. [`generate`] multiplies each by the intensity.
const EXPECTED_CRASHES: f64 = 6.0;
const EXPECTED_DEGRADATIONS: f64 = 8.0;
const EXPECTED_POISONS: f64 = 30.0;
const EXPECTED_SHARD_KILLS: f64 = 4.0;
const EXPECTED_REQUEST_DROPS: f64 = 6.0;
const EXPECTED_REPLY_DELAYS: f64 = 6.0;

/// Inclusive crash-window lengths in slots.
const CRASH_DURATION: (u64, u64) = (20, 60);
/// Inclusive straggler-window lengths in slots, and the range of
/// effective-capacity multipliers a straggler runs at.
const DEGRADE_DURATION: (u64, u64) = (15, 45);
const DEGRADE_FACTOR: (f64, f64) = (0.3, 0.8);
/// Share of poisons that inject NaN; the rest inject spikes of
/// `(|v| + 1) * SPIKE_SCALE`.
const NAN_FRACTION: f64 = 0.5;
const SPIKE_SCALE: f64 = 50.0;

/// Resolves a fractional expected count into a concrete one with a single
/// seeded coin flip (always drawn, so the rng stream shape is stable).
fn draw_count(rng: &mut StdRng, expected: f64) -> usize {
    let expected = expected.max(0.0);
    let base = expected.floor() as usize;
    let fract = (expected - base as f64).clamp(0.0, 1.0);
    base + usize::from(rng.gen_bool(fract))
}

/// Draws `(start, duration)` windows on random VMs, skipping candidates
/// that overlap an existing window on the same VM, and emits the paired
/// begin/end events. The end event is omitted when the window runs past
/// the horizon (the fault is permanent for that run).
#[allow(clippy::too_many_arguments)]
fn draw_windows(
    rng: &mut StdRng,
    events: &mut Vec<TimedFault>,
    busy: &mut [Vec<(u64, u64)>],
    count: usize,
    horizon: u64,
    (shortest, longest): (u64, u64),
    begin: impl Fn(&mut StdRng, usize) -> FaultEvent,
    end: impl Fn(usize) -> FaultEvent,
) {
    let num_vms = busy.len();
    for _ in 0..count {
        let vm = rng.gen_range(0..num_vms);
        let dur = rng.gen_range(shortest..=longest);
        let start = rng.gen_range(1..horizon);
        let stop = start.saturating_add(dur);
        let event = begin(rng, vm);
        if busy[vm].iter().any(|&(s, e)| start <= e && s <= stop) {
            continue;
        }
        busy[vm].push((start, stop));
        events.push(TimedFault { slot: start, event });
        if stop < horizon {
            events.push(TimedFault {
                slot: stop,
                event: end(vm),
            });
        }
    }
}

fn draw_coords(rng: &mut StdRng, count: usize, horizon: u64, num_shards: usize) -> Vec<SlotShard> {
    (0..count)
        .map(|_| SlotShard {
            slot: rng.gen_range(1..horizon),
            shard: rng.gen_range(0..num_shards),
        })
        .collect()
}

/// Expands `config` into a concrete [`FaultSchedule`] for a fleet of
/// `num_vms` VMs managed by `num_shards` scheduler shards. The expansion
/// is a pure function of `(config, num_vms, num_shards)`; a zero-intensity
/// config yields an empty schedule.
pub fn generate(config: &FaultConfig, num_vms: usize, num_shards: usize) -> FaultSchedule {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let horizon = config.horizon_slots;
    let intensity = config.intensity.max(0.0);
    let mut events = Vec::new();

    if num_vms > 0 && horizon > 1 {
        let crashes = draw_count(&mut rng, EXPECTED_CRASHES * intensity);
        let mut crash_busy = vec![Vec::new(); num_vms];
        draw_windows(
            &mut rng,
            &mut events,
            &mut crash_busy,
            crashes,
            horizon,
            CRASH_DURATION,
            |_, vm| FaultEvent::VmCrash { vm },
            |vm| FaultEvent::VmRecover { vm },
        );

        let degradations = draw_count(&mut rng, EXPECTED_DEGRADATIONS * intensity);
        let (f_lo, f_hi) = DEGRADE_FACTOR;
        let mut degrade_busy = vec![Vec::new(); num_vms];
        draw_windows(
            &mut rng,
            &mut events,
            &mut degrade_busy,
            degradations,
            horizon,
            DEGRADE_DURATION,
            |rng, vm| FaultEvent::VmDegrade {
                vm,
                factor: rng.gen_range(f_lo..=f_hi).clamp(0.05, 1.0),
            },
            |vm| FaultEvent::VmRestore { vm },
        );

        let poisons = draw_count(&mut rng, EXPECTED_POISONS * intensity);
        for _ in 0..poisons {
            let slot = rng.gen_range(1..horizon);
            let vm = rng.gen_range(0..num_vms);
            let kind = if rng.gen_bool(NAN_FRACTION) {
                PoisonKind::Nan
            } else {
                PoisonKind::Spike(SPIKE_SCALE)
            };
            events.push(TimedFault {
                slot,
                event: FaultEvent::PoisonViews { vm, kind },
            });
        }
    }

    let control = if num_shards > 0 && horizon > 1 {
        let kills = draw_count(&mut rng, EXPECTED_SHARD_KILLS * intensity);
        let drops = draw_count(&mut rng, EXPECTED_REQUEST_DROPS * intensity);
        let delays = draw_count(&mut rng, EXPECTED_REPLY_DELAYS * intensity);
        ControlFaultPlan::new(
            draw_coords(&mut rng, kills, horizon, num_shards),
            draw_coords(&mut rng, drops, horizon, num_shards),
            draw_coords(&mut rng, delays, horizon, num_shards),
        )
    } else {
        ControlFaultPlan::default()
    };

    FaultSchedule {
        timeline: FaultTimeline::new(events),
        control,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_intensity_expands_to_an_empty_schedule() {
        let schedule = generate(&FaultConfig::disabled(99), 32, 4);
        assert!(schedule.is_empty());
    }

    #[test]
    fn same_seed_same_schedule() {
        let config = FaultConfig::scenario(0xFA11, 1.5);
        let a = generate(&config, 16, 4);
        let b = generate(&config, 16, 4);
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn events_respect_fleet_and_horizon_bounds() {
        let config = FaultConfig::scenario(3, 2.0);
        let schedule = generate(&config, 8, 2);
        assert!(!schedule.is_empty());
        for e in schedule.timeline.events() {
            assert!(e.slot >= 1 && e.slot < config.horizon_slots);
            let vm = match e.event {
                FaultEvent::VmCrash { vm }
                | FaultEvent::VmRecover { vm }
                | FaultEvent::VmRestore { vm }
                | FaultEvent::VmDegrade { vm, .. }
                | FaultEvent::PoisonViews { vm, .. } => vm,
            };
            assert!(vm < 8);
            if let FaultEvent::VmDegrade { factor, .. } = e.event {
                assert!((0.05..=1.0).contains(&factor));
            }
        }
        for c in schedule
            .control
            .kills
            .iter()
            .chain(&schedule.control.drop_requests)
            .chain(&schedule.control.delay_replies)
        {
            assert!(c.slot >= 1 && c.slot < config.horizon_slots);
            assert!(c.shard < 2);
        }
    }

    #[test]
    fn crash_windows_never_overlap_on_one_vm() {
        // About 40 crash windows on three VMs: most candidates collide.
        let config = FaultConfig::scenario(17, 7.0);
        let schedule = generate(&config, 3, 1);
        let mut down = [false; 3];
        for e in schedule.timeline.events() {
            match e.event {
                FaultEvent::VmCrash { vm } => {
                    assert!(!down[vm], "vm {vm} crashed while already down");
                    down[vm] = true;
                }
                FaultEvent::VmRecover { vm } => {
                    assert!(down[vm], "vm {vm} recovered while up");
                    down[vm] = false;
                }
                _ => {}
            }
        }
    }
}
