//! Replay pacing for the serving daemon.
//!
//! The daemon's time is virtual: slot `s` begins at
//! `s × `[`SLOT_MICROS`](crate::daemon::SLOT_MICROS) microseconds (10 s a
//! slot, the paper's slot length), and that is what reports and latency
//! percentiles are measured in, so runs are byte-identical no matter how
//! fast the host executes them. Wall time enters only through
//! [`ReplaySpeed`] pacing, which *sleeps* to slow a replay down to N× real
//! time but never feeds wall readings back into the simulation.

use std::time::{Duration, Instant};

/// How fast to replay virtual time against the wall clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplaySpeed {
    /// No pacing: serve slots as fast as the host allows (virtual-time
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

    /// Sleeps until a replay started at `wall_start` is due to reach
    /// virtual time `micros` at this speed; returns at once when unpaced
    /// or already late.
    pub(crate) fn pace(self, wall_start: Instant, micros: u64) {
        if let ReplaySpeed::Times(speed) = self {
            let due = Duration::from_secs_f64(micros as f64 / 1e6 / speed);
            if let Some(early) = due.checked_sub(wall_start.elapsed()) {
                std::thread::sleep(early);
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
    fn paced_clock_sleeps_towards_wall_target() {
        // 1 virtual second at 100x => ~10ms wall.
        let start = Instant::now();
        ReplaySpeed::Times(100.0).pace(start, 1_000_000);
        assert!(
            start.elapsed() >= Duration::from_millis(8),
            "pacing must actually sleep"
        );
        // Unpaced never sleeps, however far ahead virtual time is.
        ReplaySpeed::Infinite.pace(start, u64::MAX);
    }
}
