//! The clock around one driver run: wall time, and how much of it the
//! hypervisor withheld.
//!
//! The benchmark host is a small guest with noisy neighbours. In some
//! minutes a fifth of a run's wall time is *steal* — a vCPU that wants to
//! run and is not scheduled — and the same binary on the same inputs takes
//! 4.3 s or 5.8 s. `/proc/stat` counts steal, so a run is reported net of
//! the delay it caused: the time the run would have taken had the host
//! given it its vCPUs. On a host that steals nothing (or counts nothing)
//! the net time is the wall time.

use std::time::Instant;

/// Ticks per second of `/proc/stat` (`USER_HZ`, 100 on every Linux ABI).
const TICKS_PER_SEC: f64 = 100.0;

/// Guest-wide CPU ticks since boot.
#[derive(Clone, Copy)]
struct Ticks {
    /// user + nice + system + irq + softirq.
    busy: u64,
    steal: u64,
}

impl Ticks {
    /// The aggregate `cpu` line of `/proc/stat`; `None` where there is none.
    fn now() -> Option<Ticks> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let mut fields = stat
            .lines()
            .next()?
            .strip_prefix("cpu ")?
            .split_whitespace();
        let mut next = || fields.next()?.parse::<u64>().ok();
        let (user, nice, system, _idle, _iowait, irq, softirq, steal) = (
            next()?,
            next()?,
            next()?,
            next()?,
            next()?,
            next()?,
            next()?,
            next()?,
        );
        Some(Ticks {
            busy: user + nice + system + irq + softirq,
            steal,
        })
    }
}

/// How long one driver run took.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunTime {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Seconds of it the run waited for a stolen vCPU (estimated).
    pub stolen_s: f64,
}

impl RunTime {
    /// Wall time net of steal: what every throughput metric divides by.
    pub fn net_s(&self) -> f64 {
        self.wall_s - self.stolen_s
    }
}

impl std::ops::AddAssign for RunTime {
    fn add_assign(&mut self, other: RunTime) {
        self.wall_s += other.wall_s;
        self.stolen_s += other.stolen_s;
    }
}

pub struct RunClock {
    start: Instant,
    ticks: Option<Ticks>,
}

impl RunClock {
    pub fn start() -> Self {
        RunClock {
            ticks: Ticks::now(),
            start: Instant::now(),
        }
    }

    pub fn stop(self) -> RunTime {
        let wall_s = self.start.elapsed().as_secs_f64();
        let stolen_s = match (self.ticks, Ticks::now()) {
            (Some(before), Some(after)) => {
                let steal = (after.steal - before.steal) as f64 / TICKS_PER_SEC;
                let busy = (after.busy - before.busy) as f64 / TICKS_PER_SEC;
                // Steal only accrues on a vCPU that wants to run. While
                // `p` vCPUs want to run, a second of waiting shows up as
                // `p` seconds of steal: a serial stretch is delayed by all
                // the steal it saw, a stretch on two threads by half of it.
                // `p` is the mean number of vCPUs wanted over the run.
                let wanted = ((busy + steal) / wall_s).max(1.0);
                // Never more than the run minus its busy share per vCPU:
                // the accounting is in 10 ms ticks and not exact.
                (steal / wanted).min(wall_s - busy / wanted).max(0.0)
            }
            _ => 0.0,
        };
        RunTime { wall_s, stolen_s }
    }
}
