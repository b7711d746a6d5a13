//! The `corp-exp scale` subcommand: a streaming soak that drives the
//! arena/SoA data model at fleet scale.
//!
//! The figure runners materialize their workloads — hundreds of jobs, so
//! who cares. This runner exists to prove the opposite regime: tens of
//! thousands of VMs and a million-job arrival stream pulled lazily through
//! [`StreamingSimulation`] with
//! [`reclaim_completed`](SimulationOptions::reclaim_completed) on, where
//! engine memory must stay bounded by *concurrently live* jobs no matter
//! how long the trace runs. The run reports throughput (slots/s, jobs/s),
//! the arena high-water mark, the process peak RSS, and the engine's
//! deterministic work count (VM entries visited per slot beside the VMs
//! actually occupied); `--smoke` replays a small configuration and
//! asserts the memory-boundedness invariant and that the slot loop's work
//! tracks occupied VMs, not the fleet (`scripts/check.sh scale-smoke`).
//! Citable numbers for this regime come from the `soak-50k` workload of
//! `benchmark/`, not from here.

use crate::flags::Flags;
use crate::serve::parse_seed;
use crate::{FigureTable, TextTable};
use corp_cluster::{ShardConfig, ShardedProvisioner};
use corp_sim::{
    Cluster, EnvironmentProfile, Provisioner, SimulationOptions, StaticPeakProvisioner,
    StreamingSimulation, VIEW_HISTORY_CAP,
};
use corp_trace::{JobSource, SyntheticSource, WorkloadConfig};

/// Parsed `corp-exp scale` flags.
#[derive(Debug, Clone)]
pub struct ScaleArgs {
    /// Target VM fleet size (`--vms N`; rounded up to whole PMs).
    pub vms: usize,
    /// Jobs to stream through the fleet (`--jobs N`).
    pub jobs: usize,
    /// Workload seed (`--seed S`, non-zero).
    pub seed: u64,
    /// Run the soak behind a `K`-shard control plane (coordinator plus 2PC
    /// placement store) instead of the direct monolithic provisioner
    /// (`--shards K`; `None` = monolithic).
    pub shards: Option<usize>,
    /// Small CI configuration plus invariant assertions (`--smoke`).
    pub smoke: bool,
}

impl Default for ScaleArgs {
    fn default() -> Self {
        ScaleArgs {
            vms: 50_000,
            jobs: 1_000_000,
            seed: 0x5CA1E,
            shards: None,
            smoke: false,
        }
    }
}

impl ScaleArgs {
    /// Parses the flags following `scale` on the command line. Unknown
    /// flags and malformed values produce an error string for the caller
    /// to print (exit 2), never a panic.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut out = ScaleArgs::default();
        let mut flags = Flags::new("scale", args);
        while let Some(flag) = flags.next_flag() {
            match flag {
                "--vms" => out.vms = flags.count(flag, 1)?,
                "--jobs" => out.jobs = flags.count(flag, 1)?,
                "--seed" => out.seed = parse_seed(flags.value(flag)?)?,
                "--shards" => out.shards = Some(flags.count(flag, 1)?),
                "--smoke" => {
                    // The CI configuration: small enough to finish in
                    // seconds, large enough that an unbounded arena would
                    // be unmistakable against the concurrency level.
                    out.smoke = true;
                    out.vms = 256;
                    out.jobs = 5_000;
                }
                other => return Err(flags.unknown(other)),
            }
        }
        Ok(out)
    }
}

/// What one soak run measured.
#[derive(Debug, Clone)]
pub struct ScaleResult {
    /// Actual VM fleet size driven.
    pub vms: usize,
    /// Jobs pulled from the stream and submitted.
    pub jobs: usize,
    /// Scheduler shards the soak ran behind (0 = direct monolithic
    /// provisioner, no control plane).
    pub shards: usize,
    /// Claims the placement store committed on the VM their shard proposed
    /// (0 for monolithic runs); the rest met a capacity conflict there.
    pub fast_path_hits: u64,
    /// Wall-clock seconds of the simulation loop.
    pub run_secs: f64,
    /// Slots simulated.
    pub slots_run: u64,
    /// Simulated slots per wall-clock second.
    pub slots_per_sec: f64,
    /// Completed jobs per wall-clock second.
    pub jobs_per_sec: f64,
    /// Completed job count.
    pub completed: usize,
    /// Arrival-time rejections.
    pub rejected: usize,
    /// Jobs unfinished at the slot cap (0 for a drained soak).
    pub unfinished: usize,
    /// Arena high-water mark: job slots ever allocated. With reclaim on,
    /// this is bounded by peak *concurrent* jobs — the memory-boundedness
    /// headline — while `jobs` counts everything that streamed through.
    pub arena_slots: usize,
    /// `arena_slots / jobs`: how far below trace scale the store stayed.
    pub arena_ratio: f64,
    /// Process peak resident set (VmHWM) in MB; 0 where unavailable.
    pub peak_rss_mb: f64,
    /// Mean VMs hosting a job per slot, over the slots after the first
    /// [`VIEW_HISTORY_CAP`] (0 for a run no longer than that).
    pub occupied_vms_per_slot: f64,
    /// Mean VM entries the engine's slot loop touched per slot
    /// ([`SlotEngine::vm_visits`](corp_sim::SlotEngine::vm_visits)) over
    /// the same slots. Deterministic for a fixed seed.
    pub vm_visits_per_slot: f64,
}

/// `--smoke` bound on VM visits per occupied VM after warm-up. A settled
/// slot visits each occupied VM twice (view, advance), once more if a job
/// finished there, and a just-vacated one twice more; a completion scan
/// of every occupied VM would read 3 or more, a fleet walk on a fleet
/// eight times the concurrency 8 or more.
const VISITS_PER_OCCUPIED_VM_BOUND: f64 = 3.0;

/// Process peak resident set in KB from `/proc/self/status` (`VmHWM`);
/// `None` off Linux or if the field is missing.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The soak fleet: Palmetto-profile PMs (4 VMs each), scaled to cover the
/// requested VM count.
fn scale_fleet(vms: usize) -> Cluster {
    let profile = EnvironmentProfile::palmetto_cluster();
    let vms_per_pm = profile.vms_per_pm.max(1);
    Cluster::from_profile(profile.with_num_pms(vms.div_ceil(vms_per_pm)))
}

/// The soak workload mix: long short-lived jobs (2–5 min
/// durations, scaled demand) with the arrival rate chosen so steady-state
/// concurrency saturates roughly an eighth of the fleet — enough pressure
/// that the arena is exercised, bounded enough that the soak drains.
fn scale_config(vms: usize, jobs: usize) -> WorkloadConfig {
    let base = WorkloadConfig {
        num_jobs: jobs,
        min_duration_secs: 120.0,
        max_duration_secs: 300.0,
        demand_scale: 1.5,
        ..WorkloadConfig::default()
    };
    let mean_duration_slots =
        (base.min_duration_secs + base.max_duration_secs) / 2.0 / base.slot_seconds;
    let target_concurrency = (vms as f64 / 8.0).max(8.0);
    WorkloadConfig {
        mean_interarrival_slots: mean_duration_slots / target_concurrency,
        ..base
    }
}

/// Runs one soak: streams the workload through the reclaiming engine and
/// measures throughput, the arena high-water mark, and peak RSS. Pure
/// measurement — no assertions — so tests can drive it directly.
pub fn run_scale(args: &ScaleArgs) -> ScaleResult {
    let cluster = scale_fleet(args.vms);
    let vms = cluster.vms.len();
    let source = SyntheticSource::with_total(scale_config(vms, args.jobs), args.seed, args.jobs)
        .into_specs();
    let mut sim = StreamingSimulation::new(
        cluster,
        source,
        SimulationOptions {
            measure_decision_time: false,
            reclaim_completed: true,
            ..Default::default()
        },
    );
    let mut provisioner: Box<dyn Provisioner + Send> = match args.shards {
        Some(k) => {
            let inners: Vec<Box<dyn Provisioner + Send>> = (0..k)
                .map(|_| Box::new(StaticPeakProvisioner) as _)
                .collect();
            Box::new(ShardedProvisioner::new(
                "static-peak",
                inners,
                ShardConfig::default(),
            ))
        }
        None => Box::new(StaticPeakProvisioner),
    };
    // Engine work past the first `VIEW_HISTORY_CAP` slots, while views
    // are still filling: slots, occupied VMs summed over them, and the
    // visit count they start from.
    let (mut steady_slots, mut occupied_sum, mut warm_up_visits) = (0u64, 0u64, 0u64);
    let started = std::time::Instant::now();
    let report = sim.run_inspecting(provisioner.as_mut(), |engine| {
        if engine.slot() <= VIEW_HISTORY_CAP as u64 {
            warm_up_visits = engine.vm_visits();
        } else {
            steady_slots += 1;
            occupied_sum += engine.occupied_vms() as u64;
        }
    });
    let run_secs = started.elapsed().as_secs_f64();
    let steady_visits = sim.engine().vm_visits() - warm_up_visits;
    let per_steady_slot = |total: u64| total as f64 / steady_slots.max(1) as f64;
    let wall = run_secs.max(1e-9);
    let arena_slots = sim.engine().store().capacity();
    let cp = report.control_plane.as_ref();
    ScaleResult {
        vms,
        jobs: sim.submitted(),
        shards: args.shards.unwrap_or(0),
        fast_path_hits: cp.map_or(0, |c| c.fast_path_hits),
        run_secs,
        slots_run: report.slots_run,
        slots_per_sec: report.slots_run as f64 / wall,
        jobs_per_sec: report.completed as f64 / wall,
        completed: report.completed,
        rejected: report.rejected,
        unfinished: report.unfinished,
        arena_slots,
        arena_ratio: arena_slots as f64 / args.jobs.max(1) as f64,
        peak_rss_mb: peak_rss_kb().map_or(0.0, |kb| kb as f64 / 1024.0),
        occupied_vms_per_slot: per_steady_slot(occupied_sum),
        vm_visits_per_slot: per_steady_slot(steady_visits),
    }
}

/// The `--smoke` invariants: the stream drained, jobs are conserved, the
/// arena stayed far below trace length, and throughput is sane.
fn check_smoke(result: &ScaleResult, args: &ScaleArgs) -> Result<(), String> {
    if result.jobs != args.jobs {
        return Err(format!(
            "scale smoke: stream truncated — submitted {} of {} jobs",
            result.jobs, args.jobs
        ));
    }
    if result.completed + result.rejected + result.unfinished != args.jobs {
        return Err(format!(
            "scale smoke: job conservation violated ({} + {} + {} != {})",
            result.completed, result.rejected, result.unfinished, args.jobs
        ));
    }
    if result.unfinished != 0 {
        return Err(format!(
            "scale smoke: {} jobs unfinished — the soak must drain",
            result.unfinished
        ));
    }
    // The tentpole invariant: the arena's high-water mark tracks peak
    // concurrency, not trace length. A store that kept terminal jobs
    // would sit at exactly `jobs` slots.
    if result.arena_ratio >= 0.25 {
        return Err(format!(
            "scale smoke: arena grew to {} slots for {} streamed jobs \
             (ratio {:.2}) — reclaim is not bounding memory",
            result.arena_slots, args.jobs, result.arena_ratio
        ));
    }
    // The engine's slot loop walks occupied VMs, not the fleet. Both sides
    // are deterministic counts, so this is exact, not a timing.
    if result.occupied_vms_per_slot <= 0.0
        || result.vm_visits_per_slot > VISITS_PER_OCCUPIED_VM_BOUND * result.occupied_vms_per_slot
    {
        return Err(format!(
            "scale smoke: the slot loop visited {:.1} VM entries/slot for {:.1} occupied \
             VMs/slot after the first {VIEW_HISTORY_CAP} slots (bound {VISITS_PER_OCCUPIED_VM_BOUND}x, \
             fleet {} VMs) — per-slot engine work is tracking the fleet again",
            result.vm_visits_per_slot, result.occupied_vms_per_slot, result.vms
        ));
    }
    let positive = |v: f64| v.is_finite() && v > 0.0;
    if !positive(result.slots_per_sec) || !positive(result.jobs_per_sec) {
        return Err(format!(
            "scale smoke: degenerate throughput ({:.1} slots/s, {:.1} jobs/s)",
            result.slots_per_sec, result.jobs_per_sec
        ));
    }
    Ok(())
}

/// Executes `corp-exp scale` end to end: runs the soak, applies the
/// `--smoke` assertions, and renders the summary table. Returns an error
/// string (for exit 2) on a failed assertion.
pub fn scale_experiment(args: &ScaleArgs) -> Result<FigureTable, String> {
    let result = run_scale(args);
    // Job conservation holds for every configuration, sharded or not: a
    // control plane losing (or double-placing) jobs would show up here
    // before any throughput number means anything.
    if result.completed + result.rejected + result.unfinished != result.jobs {
        return Err(format!(
            "scale: job conservation violated ({} + {} + {} != {})",
            result.completed, result.rejected, result.unfinished, result.jobs
        ));
    }
    if args.smoke {
        check_smoke(&result, args)?;
    }
    let arm = match args.shards {
        Some(k) => format!("{k}-shard control plane"),
        None => "static-peak".to_string(),
    };
    let mut table = TextTable::new(
        format!(
            "Scale — streaming soak, {} VMs, {} jobs, reclaiming arena ({arm})",
            result.vms, result.jobs
        ),
        &["metric", "value"],
    );
    let mut row = |k: &str, v: String| table.push_row(vec![k.to_string(), v]);
    row("sim wall (s)", format!("{:.3}", result.run_secs));
    row("slots simulated", format!("{}", result.slots_run));
    row("slots/s", format!("{:.0}", result.slots_per_sec));
    row("jobs/s", format!("{:.0}", result.jobs_per_sec));
    row(
        "completed / rejected / unfinished",
        format!(
            "{} / {} / {}",
            result.completed, result.rejected, result.unfinished
        ),
    );
    row(
        "arena high-water (job slots)",
        format!("{}", result.arena_slots),
    );
    row("arena / trace ratio", format!("{:.4}", result.arena_ratio));
    row("peak RSS (MB)", format!("{:.1}", result.peak_rss_mb));
    row(
        "occupied VMs / slot",
        format!("{:.1}", result.occupied_vms_per_slot),
    );
    row(
        "engine VM visits / slot",
        format!("{:.1}", result.vm_visits_per_slot),
    );
    if result.shards > 0 {
        row("shards", format!("{}", result.shards));
        row(
            "claims committed on the proposed VM",
            format!("{}", result.fast_path_hits),
        );
    }
    Ok(FigureTable {
        id: "scale".into(),
        table,
        notes: vec![
            "arena high-water counts job slots ever allocated; with reclaim on it is \
             bounded by peak concurrent jobs, independent of trace length"
                .into(),
            format!(
                "occupied VMs and engine VM visits (views written + VMs advanced + VMs \
                 scanned for completions) are per-slot means after the first \
                 {VIEW_HISTORY_CAP} slots; both are deterministic for a fixed seed"
            ),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_smoke_shrinks_the_configuration() {
        let args =
            ScaleArgs::parse(&["--smoke".to_string(), "--seed".to_string(), "7".to_string()])
                .unwrap();
        assert!(args.smoke);
        assert_eq!(args.vms, 256);
        assert_eq!(args.jobs, 5_000);
        assert_eq!(args.seed, 7);
    }

    #[test]
    fn parse_rejects_unknown_flags_and_zero_values() {
        assert!(ScaleArgs::parse(&["--bogus".to_string()]).is_err());
        assert!(ScaleArgs::parse(&["--vms".to_string(), "0".to_string()]).is_err());
        assert!(ScaleArgs::parse(&["--jobs".to_string()]).is_err());
    }

    #[test]
    fn fleet_covers_the_requested_vm_count() {
        assert!(scale_fleet(10).vms.len() >= 10);
        assert_eq!(scale_fleet(256).vms.len(), 256);
    }

    #[test]
    fn parse_shards_selects_the_striped_control_plane() {
        let args = ScaleArgs::parse(&["--shards".to_string(), "4".to_string()]).unwrap();
        assert_eq!(args.shards, Some(4));
        assert!(ScaleArgs::parse(&["--shards".to_string(), "0".to_string()]).is_err());
    }

    #[test]
    fn tiny_sharded_soak_conserves_jobs_and_uses_the_fast_path() {
        let args = ScaleArgs {
            vms: 32,
            jobs: 400,
            seed: 11,
            shards: Some(2),
            smoke: true,
        };
        let result = run_scale(&args);
        check_smoke(&result, &args).expect("sharded smoke soak must pass the invariants");
        assert_eq!(result.shards, 2);
        assert!(
            result.fast_path_hits > 0,
            "sharded soak never committed a claim as proposed: {result:?}"
        );
    }

    #[test]
    fn tiny_soak_drains_and_bounds_the_arena() {
        let args = ScaleArgs {
            vms: 32,
            jobs: 400,
            seed: 11,
            shards: None,
            smoke: true,
        };
        let result = run_scale(&args);
        check_smoke(&result, &args).expect("tiny smoke soak must pass the invariants");
        assert!(
            result.arena_slots < args.jobs / 4,
            "arena {} slots for {} jobs",
            result.arena_slots,
            args.jobs
        );
    }
}
