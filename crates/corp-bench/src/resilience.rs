//! The `corp-exp resilience` subcommand: chaos-serve.
//!
//! The serving daemon's overload machinery (DESIGN.md §13) is only worth
//! trusting if it holds up under *combined* chaos: control-plane faults
//! (worker kills, dropped requests, delayed replies) on the supply side
//! and arrival storms on the demand side, at the same time, with
//! deadlines, the brownout ladder, and per-shard circuit breakers all
//! armed. This runner builds exactly that cell:
//!
//! * the standard cluster workload with its arrival slots compressed
//!   through a seeded [`StormPlan`] (thundering herds, monotone so the
//!   daemon's lazy arrival feed stays in order),
//! * the [`FaultConfig::scenario`] control plan *plus* a fixed burst of
//!   request drops aimed at the last shard — eight consecutive losses
//!   that deterministically trip its breaker (3 fallbacks → Open),
//!   fail its first half-open probe, and let the second probe close it,
//! * the engine-side fault timeline (VM crashes, stragglers, poisoned
//!   views) from the same schedule,
//! * a supervised sharded provisioner wrapped in [`BreakerSupervisor`].
//!
//! Everything is expanded from the seed before the run starts, so the
//! whole catastrophe replays byte-identically — `--smoke` asserts that
//! (two full runs, compared as serialized bytes) along with the
//! zero-jobs-lost conservation law and a full breaker cycle
//! (`scripts/check.sh resilience-smoke`).

use crate::env::{build_sharded_provisioner, Environment, SchemeKind, SchemeParams};
use crate::flags::Flags;
use crate::serve::{cell_daemon, parse_seed, serve_workload};
use crate::FigureTable;
use crate::TextTable;
use corp_faults::{generate, ControlFaultPlan, FaultConfig, SlotShard, StormConfig, StormPlan};
use corp_serve::{
    BackpressurePolicy, BreakerSupervisor, BrownoutConfig, DeadlineConfig, ReplaySpeed,
    ServeConfig, ServeOutcome,
};
use corp_trace::JobSpec;

/// The guaranteed breaker exercise: eight consecutive request drops on one
/// shard, slots 2..=9. Three fallbacks trip the breaker at slot 4 (Open
/// until 8), the half-open probe at slot 8 hits another drop (Open until
/// 16, backoff doubled), and the probe at slot 16 lands after the burst
/// and closes it — a full trip/reprobe/recover cycle on every run,
/// whatever the seeded schedule adds on top.
const DROP_BURST_SLOTS: std::ops::RangeInclusive<u64> = 2..=9;

/// Parsed `corp-exp resilience` flags.
#[derive(Debug, Clone)]
pub struct ResilienceArgs {
    /// Seed for the workload, the storm plan, and the fault schedule
    /// (`--seed S`, non-zero).
    pub seed: u64,
    /// Synthesized workload size (`--jobs N`).
    pub jobs: usize,
    /// Scheduler shards behind the supervised control plane
    /// (`--shards K`).
    pub shards: usize,
    /// Chaos intensity for the seeded fault scenario (`--intensity X`);
    /// the fixed drop burst rides on top regardless.
    pub intensity: f64,
    /// Worker-pool width override (`--width W`).
    pub width: Option<usize>,
    /// Assert determinism + conservation after the run (`--smoke`).
    pub smoke: bool,
}

impl Default for ResilienceArgs {
    fn default() -> Self {
        ResilienceArgs {
            seed: SchemeParams::default().seed,
            jobs: 120,
            shards: 3,
            intensity: 1.0,
            width: None,
            smoke: false,
        }
    }
}

impl ResilienceArgs {
    /// Parses the flags following `resilience` on the command line. Bad
    /// flags produce an error string for the caller to print (exit 2).
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut out = ResilienceArgs::default();
        let mut flags = Flags::new("resilience", args);
        while let Some(flag) = flags.next_flag() {
            match flag {
                "--seed" => out.seed = parse_seed(flags.value(flag)?)?,
                "--jobs" => out.jobs = flags.count(flag, 0)?,
                "--shards" => out.shards = flags.count(flag, 1)?,
                "--intensity" => {
                    let x: f64 = flags.parsed(flag, "a number")?;
                    if !x.is_finite() || x < 0.0 {
                        return Err("invalid --intensity: must be finite and >= 0".to_string());
                    }
                    out.intensity = x;
                }
                "--width" => out.width = Some(flags.count(flag, 1)?),
                "--smoke" => out.smoke = true,
                other => return Err(flags.unknown(other)),
            }
        }
        Ok(out)
    }
}

/// The storm-compressed workload: the standard cluster workload with its
/// arrival slots mapped through the seeded storm plan. Compression is
/// monotone, so the stream stays arrival-ordered for the daemon's lazy
/// feed.
pub fn chaos_workload(env: Environment, jobs: usize, seed: u64) -> Vec<JobSpec> {
    let base = serve_workload(env, jobs, seed);
    let last = base.iter().map(|j| j.arrival_slot).max().unwrap_or(0);
    let storm = StormPlan::generate(&StormConfig::scenario(seed, last + 1));
    base.into_iter()
        .map(|mut j| {
            j.arrival_slot = storm.compress(j.arrival_slot);
            j
        })
        .collect()
}

/// The serve configuration a chaos run uses: a tight queue, uniform
/// 30-second placement deadlines, and a hair-trigger brownout ladder, so
/// the overload machinery actually engages under the storm bursts instead
/// of idling through them.
fn chaos_config() -> ServeConfig {
    ServeConfig {
        queue_capacity: 12,
        policy: BackpressurePolicy::Block,
        speed: ReplaySpeed::Infinite,
        deadlines: DeadlineConfig::uniform(30_000_000),
        brownout: Some(BrownoutConfig {
            high_depth: 6,
            low_depth: 2,
            latency_high_micros: 20_000_000,
            recovery_ticks: 2,
        }),
    }
}

/// Runs one chaos-serve cell and returns the outcome plus every
/// unrecovered control-plane error the coordinator surfaced (stringified
/// — [`corp_cluster::ClusterError`] is not serializable and the list is
/// usually empty).
pub fn run_resilience(fast: bool, args: &ResilienceArgs) -> (ServeOutcome, Vec<String>) {
    let env = Environment::Cluster;
    let jobs = chaos_workload(env, args.jobs, args.seed);
    let compressed_last = jobs.iter().map(|j| j.arrival_slot).max().unwrap_or(0);

    // One schedule drives both planes: the engine timeline (VM crashes,
    // stragglers, poisoned views) and the control plan (kills, drops,
    // delays), with the fixed drop burst folded into the latter.
    let mut fault_config = FaultConfig::scenario(args.seed, args.intensity);
    fault_config.horizon_slots = (compressed_last + 24).max(32);
    let schedule = generate(&fault_config, env.cluster().vms.len(), args.shards);
    let mut drops = schedule.control.drop_requests.clone();
    drops.extend(DROP_BURST_SLOTS.map(|slot| SlotShard {
        slot,
        shard: args.shards - 1,
    }));
    let control = ControlFaultPlan::new(
        schedule.control.kills.clone(),
        drops,
        schedule.control.delay_replies.clone(),
    );

    let params = SchemeParams {
        fast_dnn: fast,
        seed: args.seed,
        pool_width: args.width,
        ..Default::default()
    };
    let inner =
        build_sharded_provisioner(SchemeKind::Corp, env, &params, args.shards, Some(control));
    let mut breaker = BreakerSupervisor::new(inner);
    let outcome = cell_daemon(env, chaos_config())
        .with_fault_timeline(schedule.timeline)
        .run(&mut breaker, jobs);
    let errors = breaker
        .inner()
        .errors()
        .iter()
        .map(|e| e.to_string())
        .collect();
    (outcome, errors)
}

/// Jobs the run lost track of: offered minus every terminal bucket
/// (engine terminal states plus the admission queue's shed / rejected /
/// expired). Zero on every correct run — this is the conservation law the
/// admission proptests pin per-operation, checked end to end.
fn jobs_lost(offered: usize, outcome: &ServeOutcome) -> i64 {
    let r = &outcome.report;
    let accounted = (r.sim.completed + r.sim.rejected + r.sim.unfinished) as i64
        + (r.queue.shed + r.queue.rejected + r.queue.expired) as i64;
    offered as i64 - accounted
}

/// Executes `corp-exp resilience` end to end and renders the report
/// table. Returns an error string (for exit 2) on failed smoke
/// assertions.
pub fn resilience_experiment(fast: bool, args: &ResilienceArgs) -> Result<FigureTable, String> {
    let (outcome, errors) = run_resilience(fast, args);
    let serialized = serde::json::to_string(&outcome.report);
    let r = &outcome.report;
    let lost = jobs_lost(args.jobs, &outcome);
    let cp = r.sim.control_plane.clone().unwrap_or_default();

    // Replay the whole catastrophe and require identical bytes: the
    // schedule, the storm, the breakers, and the ladder are all pure
    // functions of the seed, so a single differing byte is a bug.
    if args.smoke {
        let (again, _) = run_resilience(fast, args);
        if serde::json::to_string(&again.report) != serialized {
            return Err("resilience smoke: rerun produced a different report".to_string());
        }
        if lost != 0 {
            return Err(format!("resilience smoke: {lost} jobs lost (conservation)"));
        }
        if cp.breaker_opens == 0 || cp.breaker_closes == 0 {
            return Err(format!(
                "resilience smoke: breaker never cycled (opens {}, closes {})",
                cp.breaker_opens, cp.breaker_closes
            ));
        }
        if r.placement_latency.count == 0 {
            return Err("resilience smoke: no placement latencies measured".to_string());
        }
    }

    let mut table = TextTable::new(
        format!(
            "Chaos-serve: {} jobs (storm-compressed), {} shards, intensity {}, \
             deadlines + brownout + breakers armed",
            args.jobs, args.shards, args.intensity
        ),
        &["metric", "value"],
    );
    let mut row = |k: &str, v: String| table.push_row(vec![k.to_string(), v]);
    row("jobs offered", format!("{}", args.jobs));
    row("jobs lost (conservation)", format!("{lost}"));
    row(
        "completed / unfinished / engine-rejected",
        format!(
            "{} / {} / {}",
            r.sim.completed, r.sim.unfinished, r.sim.rejected
        ),
    );
    row(
        "queue shed / rejected / expired",
        format!(
            "{} / {} / {}",
            r.queue.shed, r.queue.rejected, r.queue.expired
        ),
    );
    row(
        "deadline hits / misses",
        format!("{} / {}", r.slo.deadline_hits, r.slo.deadline_misses),
    );
    row(
        "brownout max rung / escalations / recoveries",
        format!(
            "{} / {} / {}",
            r.brownout.max_rung, r.brownout.escalations, r.brownout.recoveries
        ),
    );
    row(
        "breaker opens / half-opens / closes",
        format!(
            "{} / {} / {}",
            cp.breaker_opens, cp.breaker_half_opens, cp.breaker_closes
        ),
    );
    row("breaker-isolated slots", format!("{}", cp.isolated_slots));
    row(
        "worker kills / restarts / inline slots",
        format!(
            "{} / {} / {}",
            cp.worker_kills, cp.worker_restarts, cp.inline_slots
        ),
    );
    row(
        "messages dropped / delayed",
        format!("{} / {}", cp.messages_dropped, cp.messages_delayed),
    );
    row(
        "placement latency p95",
        format!("{:.1} s", r.placement_latency.p95_micros / 1e6),
    );
    row("queue high-water", format!("{}", r.queue.high_water));
    row("ticks (slots)", format!("{}", r.ticks));
    row(
        "unrecovered control-plane errors",
        format!("{}", errors.len()),
    );
    for e in &errors {
        row("error", e.clone());
    }

    Ok(FigureTable {
        id: "resilience".to_string(),
        table,
        notes: vec![
            format!(
                "Rerun byte-identity {}; every fault, storm window, and breaker \
                 transition is a pure function of seed {}.",
                if args.smoke {
                    "verified"
                } else {
                    "not checked (pass --smoke)"
                },
                args.seed
            ),
            "Zero-jobs-lost: offered == completed + unfinished + engine-rejected \
             + shed + queue-rejected + expired, end to end under combined chaos."
                .to_string(),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn resilience_args_parse_full_flag_set() {
        let args = ResilienceArgs::parse(&strings(&[
            "--seed",
            "11",
            "--jobs",
            "50",
            "--shards",
            "2",
            "--intensity",
            "0.5",
            "--width",
            "2",
            "--smoke",
        ]))
        .expect("parse");
        assert_eq!(args.seed, 11);
        assert_eq!(args.jobs, 50);
        assert_eq!(args.shards, 2);
        assert_eq!(args.intensity, 0.5);
        assert_eq!(args.width, Some(2));
        assert!(args.smoke);
    }

    #[test]
    fn resilience_args_reject_bad_values() {
        assert!(ResilienceArgs::parse(&strings(&["--shards", "0"]))
            .unwrap_err()
            .contains("--shards"));
        assert!(ResilienceArgs::parse(&strings(&["--intensity", "-1"]))
            .unwrap_err()
            .contains("--intensity"));
        assert!(ResilienceArgs::parse(&strings(&["--frobnicate"]))
            .unwrap_err()
            .contains("unknown resilience flag"));
    }

    #[test]
    fn chaos_workload_is_deterministic_ordered_and_compressed() {
        let a = chaos_workload(Environment::Cluster, 60, 7);
        let b = chaos_workload(Environment::Cluster, 60, 7);
        assert_eq!(
            serde::json::to_string(&a),
            serde::json::to_string(&b),
            "same seed must yield the same compressed workload"
        );
        for pair in a.windows(2) {
            assert!(
                pair[0].arrival_slot <= pair[1].arrival_slot,
                "compression must preserve arrival order"
            );
        }
        let plain = serve_workload(Environment::Cluster, 60, 7);
        let plain_total: u64 = plain.iter().map(|j| j.arrival_slot).sum();
        let chaos_total: u64 = a.iter().map(|j| j.arrival_slot).sum();
        assert!(
            chaos_total < plain_total,
            "storm compression must actually pull arrivals earlier"
        );
    }
}
