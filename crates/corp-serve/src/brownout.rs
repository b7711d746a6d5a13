//! The adaptive degradation ladder: trade scheduling quality for survival.
//!
//! Under sustained overload a serving system that keeps doing full-quality
//! work simply falls further behind. The brownout controller watches two
//! overload signals every tick — admission-queue depth and the worst
//! placement latency observed in that tick — and steps through an explicit
//! ladder of [`BrownoutLevel`]s, each one shedding a well-defined slice of
//! work:
//!
//! * [`SkipGate`](BrownoutLevel::SkipGate) — the provisioning pipeline
//!   skips the opportunistic reallocation gate (service level 1): no more
//!   window rewrites, and no forecast, since the pipeline forecasts only
//!   for the gate.
//! * [`CheapPredict`](BrownoutLevel::CheapPredict) — forecasting itself is
//!   skipped (service level 2). The provisioning pipeline already does
//!   that at level 1, so there the two rungs behave alike; a provisioner
//!   that forecasts for more than the gate could tell them apart.
//! * [`RejectNew`](BrownoutLevel::RejectNew) — the admission queue's
//!   backpressure policy is overridden to reject-new: queue-full arrivals
//!   fail fast instead of piling up at the door.
//!
//! Escalation is immediate (one level per hot tick); recovery requires
//! [`BrownoutConfig::recovery_ticks`] consecutive calm ticks below the low
//! watermark, then steps down one level at a time. Every transition is a
//! deterministic [`BrownoutTransition`] — virtual timestamp, trigger, and
//! the latency-sketch p95 at that moment — recorded in the report, so a
//! chaos run explains *when* and *why* it degraded, byte-identically on
//! every replay.

use serde::Serialize;

/// One rung of the degradation ladder, cheapest-to-serve last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum BrownoutLevel {
    /// Full service.
    Normal,
    /// Pipeline skips the reallocation gate and the forecast that feeds it
    /// (service level 1).
    SkipGate,
    /// Forecasting skipped (service level 2): for the pipeline, the same
    /// as level 1.
    CheapPredict,
    /// Admission backpressure overridden to reject-new.
    RejectNew,
}

impl BrownoutLevel {
    const LADDER: [BrownoutLevel; 4] = [
        BrownoutLevel::Normal,
        BrownoutLevel::SkipGate,
        BrownoutLevel::CheapPredict,
        BrownoutLevel::RejectNew,
    ];

    /// Ladder rung index (0 = full service).
    pub(crate) fn rung(self) -> u8 {
        match self {
            BrownoutLevel::Normal => 0,
            BrownoutLevel::SkipGate => 1,
            BrownoutLevel::CheapPredict => 2,
            BrownoutLevel::RejectNew => 3,
        }
    }

    /// The [`ServeDaemon`](crate::ServeDaemon)-to-provisioner service level for this rung:
    /// rung 3 is an admission-side measure, so the provisioner stays at
    /// its level-2 posture.
    pub(crate) fn service_level(self) -> u8 {
        self.rung().min(2)
    }

    fn up(self) -> BrownoutLevel {
        Self::LADDER[(self.rung() as usize + 1).min(Self::LADDER.len() - 1)]
    }

    fn down(self) -> BrownoutLevel {
        Self::LADDER[(self.rung() as usize).saturating_sub(1)]
    }
}

/// Why a transition fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum BrownoutTrigger {
    /// Queue depth reached the high watermark.
    QueueDepth,
    /// The tick's worst placement latency crossed the threshold.
    Latency,
    /// Enough consecutive calm ticks: stepping back down.
    Recovery,
}

/// One deterministic ladder transition, recorded in the serve report.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BrownoutTransition {
    /// Virtual time of the tick that fired the transition.
    pub at_micros: u64,
    /// Level before.
    pub from: BrownoutLevel,
    /// Level after.
    pub to: BrownoutLevel,
    /// What fired it.
    pub trigger: BrownoutTrigger,
    /// Admission-queue depth at the decision point.
    pub queue_depth: u64,
    /// All-time placement-latency p95 from the GK sketch at that moment
    /// (context for the reader; the *windowed* signal drives decisions).
    pub latency_p95_micros: f64,
}

/// Controller thresholds. All signals are in deterministic units (queue
/// entries, virtual microseconds, ticks), so identical runs transition
/// identically.
#[derive(Debug, Clone, PartialEq)]
pub struct BrownoutConfig {
    /// Queue depth at or above which a tick counts as overloaded.
    pub high_depth: usize,
    /// Queue depth at or below which a tick can count as calm
    /// (hysteresis: between the watermarks nothing moves).
    pub low_depth: usize,
    /// A tick whose worst placement latency reaches this is overloaded.
    pub latency_high_micros: u64,
    /// Consecutive calm ticks required before stepping down one level.
    pub recovery_ticks: u32,
}

impl Default for BrownoutConfig {
    /// Overload at 64 queued / 30 virtual seconds of placement wait; step
    /// down after 3 calm ticks at depth ≤ 8.
    fn default() -> Self {
        BrownoutConfig {
            high_depth: 64,
            low_depth: 8,
            latency_high_micros: 30_000_000,
            recovery_ticks: 3,
        }
    }
}

/// Ladder summary, serialized into the `ServeReport`.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct BrownoutSummary {
    /// Level at shutdown (rung index; 0 = recovered / never degraded).
    pub final_rung: u8,
    /// Deepest rung reached.
    pub max_rung: u8,
    /// Upward steps taken.
    pub escalations: u64,
    /// Downward steps taken.
    pub recoveries: u64,
    /// Every transition in tick order.
    pub transitions: Vec<BrownoutTransition>,
}

/// The per-tick overload controller.
#[derive(Debug)]
pub struct BrownoutController {
    config: BrownoutConfig,
    level: BrownoutLevel,
    calm_ticks: u32,
    summary: BrownoutSummary,
}

impl BrownoutController {
    /// A controller at full service.
    pub(crate) fn new(config: BrownoutConfig) -> Self {
        BrownoutController {
            config,
            level: BrownoutLevel::Normal,
            calm_ticks: 0,
            summary: BrownoutSummary::default(),
        }
    }

    /// Feeds one tick's signals; returns the new level if this tick moved
    /// the ladder. `tick_max_latency_micros` is the worst placement
    /// latency measured in *this* tick (0 when nothing placed);
    /// `sketch_p95_micros` is recorded into the transition for context.
    pub(crate) fn observe_tick(
        &mut self,
        at_micros: u64,
        queue_depth: usize,
        tick_max_latency_micros: u64,
        sketch_p95_micros: f64,
    ) -> Option<BrownoutLevel> {
        let depth_hot = queue_depth >= self.config.high_depth.max(1);
        let latency_hot = tick_max_latency_micros >= self.config.latency_high_micros.max(1);
        if depth_hot || latency_hot {
            self.calm_ticks = 0;
            let to = self.level.up();
            if to == self.level {
                return None;
            }
            let trigger = if depth_hot {
                BrownoutTrigger::QueueDepth
            } else {
                BrownoutTrigger::Latency
            };
            return Some(self.transition(at_micros, to, trigger, queue_depth, sketch_p95_micros));
        }
        if self.level == BrownoutLevel::Normal {
            return None;
        }
        if queue_depth > self.config.low_depth {
            // Between the watermarks: hold position, restart the calm count.
            self.calm_ticks = 0;
            return None;
        }
        self.calm_ticks += 1;
        if self.calm_ticks < self.config.recovery_ticks.max(1) {
            return None;
        }
        self.calm_ticks = 0;
        let to = self.level.down();
        Some(self.transition(
            at_micros,
            to,
            BrownoutTrigger::Recovery,
            queue_depth,
            sketch_p95_micros,
        ))
    }

    fn transition(
        &mut self,
        at_micros: u64,
        to: BrownoutLevel,
        trigger: BrownoutTrigger,
        queue_depth: usize,
        latency_p95_micros: f64,
    ) -> BrownoutLevel {
        if to > self.level {
            self.summary.escalations += 1;
        } else {
            self.summary.recoveries += 1;
        }
        self.summary.transitions.push(BrownoutTransition {
            at_micros,
            from: self.level,
            to,
            trigger,
            queue_depth: queue_depth as u64,
            latency_p95_micros,
        });
        self.level = to;
        self.summary.max_rung = self.summary.max_rung.max(to.rung());
        to
    }

    /// Consumes the controller into its report summary.
    pub(crate) fn into_summary(mut self) -> BrownoutSummary {
        self.summary.final_rung = self.level.rung();
        self.summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> BrownoutConfig {
        BrownoutConfig {
            high_depth: 4,
            low_depth: 1,
            latency_high_micros: 50,
            recovery_ticks: 2,
        }
    }

    #[test]
    fn escalates_one_rung_per_hot_tick_and_saturates() {
        let mut c = BrownoutController::new(quick());
        assert_eq!(c.observe_tick(0, 4, 0, 0.0), Some(BrownoutLevel::SkipGate));
        assert_eq!(
            c.observe_tick(10, 9, 0, 0.0),
            Some(BrownoutLevel::CheapPredict)
        );
        assert_eq!(
            c.observe_tick(20, 9, 0, 0.0),
            Some(BrownoutLevel::RejectNew)
        );
        assert_eq!(c.observe_tick(30, 9, 0, 0.0), None, "ladder saturates");
        let s = c.into_summary();
        assert_eq!(s.escalations, 3);
        assert_eq!(s.max_rung, 3);
        assert_eq!(s.final_rung, 3);
        assert_eq!(s.transitions[0].trigger, BrownoutTrigger::QueueDepth);
    }

    #[test]
    fn latency_alone_escalates() {
        let mut c = BrownoutController::new(quick());
        assert_eq!(c.observe_tick(0, 0, 60, 0.0), Some(BrownoutLevel::SkipGate));
        assert_eq!(
            c.into_summary().transitions[0].trigger,
            BrownoutTrigger::Latency
        );
    }

    #[test]
    fn recovery_needs_consecutive_calm_ticks_below_the_low_watermark() {
        let mut c = BrownoutController::new(quick());
        c.observe_tick(0, 4, 0, 0.0);
        assert_eq!(c.observe_tick(10, 1, 0, 0.0), None, "1 of 2 calm ticks");
        assert_eq!(
            c.observe_tick(20, 3, 0, 0.0),
            None,
            "hysteresis resets calm"
        );
        assert_eq!(c.observe_tick(30, 1, 0, 0.0), None);
        assert_eq!(
            c.observe_tick(40, 0, 0, 0.0),
            Some(BrownoutLevel::Normal),
            "2 consecutive calm ticks step down"
        );
        let s = c.into_summary();
        assert_eq!(s.recoveries, 1);
        assert_eq!(s.final_rung, 0);
        assert_eq!(s.max_rung, 1);
        assert_eq!(s.transitions[1].trigger, BrownoutTrigger::Recovery);
    }

    #[test]
    fn service_level_caps_at_two() {
        assert_eq!(BrownoutLevel::Normal.service_level(), 0);
        assert_eq!(BrownoutLevel::SkipGate.service_level(), 1);
        assert_eq!(BrownoutLevel::CheapPredict.service_level(), 2);
        assert_eq!(BrownoutLevel::RejectNew.service_level(), 2);
    }
}
