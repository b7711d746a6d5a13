//! Virtual time for the serving daemon.
//!
//! All event timestamps are virtual microseconds from daemon start; one
//! provisioning slot spans [`SLOT_MICROS`](crate::daemon::SLOT_MICROS) of
//! virtual time (10 s, the paper's slot length). Virtual time
//! is what reports and latency percentiles are measured in, so runs are
//! byte-identical no matter how fast the host executes them. Wall time
//! enters only through [`ReplaySpeed`] pacing, which *sleeps* to slow a
//! replay down to N× real time but never feeds wall readings back into the
//! simulation.

use std::time::{Duration, Instant};

/// Virtual microseconds per simulated second.
pub const MICROS_PER_SEC: u64 = 1_000_000;

/// How fast to replay virtual time against the wall clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplaySpeed {
    /// No pacing: consume events as fast as the host allows (virtual-time
    /// batch mode, the only mode the determinism gates exercise).
    Infinite,
    /// N× real time: one virtual second passes in `1/N` wall seconds.
    Times(f64),
}

impl ReplaySpeed {
    /// Parses a CLI-style speed: `inf`/`infinite`/`max` or a positive
    /// multiplier like `1`, `10`, `0.5`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "inf" | "infinite" | "max" => Ok(ReplaySpeed::Infinite),
            other => match other.parse::<f64>() {
                Ok(v) if v.is_finite() && v > 0.0 => Ok(ReplaySpeed::Times(v)),
                _ => Err(format!(
                    "invalid replay speed `{s}`: expected `inf` or a positive number"
                )),
            },
        }
    }
}

/// The daemon's clock: monotone virtual time plus optional wall pacing.
#[derive(Debug)]
pub struct VirtualClock {
    now_micros: u64,
    slot_micros: u64,
    speed: ReplaySpeed,
    wall_start: Instant,
}

impl VirtualClock {
    /// Starts a clock at virtual time zero.
    pub fn new(slot_micros: u64, speed: ReplaySpeed) -> Self {
        VirtualClock {
            now_micros: 0,
            slot_micros: slot_micros.max(1),
            speed,
            wall_start: Instant::now(),
        }
    }

    /// Current virtual time in microseconds.
    pub fn now(&self) -> u64 {
        self.now_micros
    }

    /// Virtual microseconds per slot.
    pub fn slot_micros(&self) -> u64 {
        self.slot_micros
    }

    /// The virtual timestamp at which `slot` begins.
    pub fn time_of_slot(&self, slot: u64) -> u64 {
        slot.saturating_mul(self.slot_micros)
    }

    /// Advances virtual time to `micros` (monotone: earlier targets are
    /// no-ops) and, when paced, sleeps until the wall clock catches up to
    /// `virtual elapsed / speed`.
    pub fn advance_to(&mut self, micros: u64) {
        if micros > self.now_micros {
            self.now_micros = micros;
        }
        if let ReplaySpeed::Times(speed) = self.speed {
            let target_wall = Duration::from_secs_f64(self.now_micros as f64 / 1e6 / speed);
            let elapsed = self.wall_start.elapsed();
            if target_wall > elapsed {
                std::thread::sleep(target_wall - elapsed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_inf_and_positive_numbers() {
        assert_eq!(ReplaySpeed::parse("inf"), Ok(ReplaySpeed::Infinite));
        assert_eq!(ReplaySpeed::parse("MAX"), Ok(ReplaySpeed::Infinite));
        assert_eq!(ReplaySpeed::parse("10"), Ok(ReplaySpeed::Times(10.0)));
        assert_eq!(ReplaySpeed::parse("0.5"), Ok(ReplaySpeed::Times(0.5)));
        assert!(ReplaySpeed::parse("0").is_err());
        assert!(ReplaySpeed::parse("-3").is_err());
        assert!(ReplaySpeed::parse("NaN").is_err());
        assert!(ReplaySpeed::parse("warp").is_err());
    }

    #[test]
    fn virtual_time_is_monotone_and_slot_math_holds() {
        let mut c = VirtualClock::new(10 * MICROS_PER_SEC, ReplaySpeed::Infinite);
        assert_eq!(c.now(), 0);
        assert_eq!(c.time_of_slot(3), 30 * MICROS_PER_SEC);
        c.advance_to(5_000_000);
        assert_eq!(c.now(), 5_000_000);
        c.advance_to(1_000_000); // going backwards is a no-op
        assert_eq!(c.now(), 5_000_000);
    }

    #[test]
    fn paced_clock_sleeps_towards_wall_target() {
        // 1 virtual second at 100x => ~10ms wall.
        let mut c = VirtualClock::new(MICROS_PER_SEC, ReplaySpeed::Times(100.0));
        let start = Instant::now();
        c.advance_to(MICROS_PER_SEC);
        assert!(
            start.elapsed() >= Duration::from_millis(8),
            "pacing must actually sleep"
        );
    }
}
