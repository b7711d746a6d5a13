//! Serving-mode determinism and cross-mode equivalence.
//!
//! The corp-serve daemon's contract (DESIGN.md §12): for a fixed seed and
//! trace the serialized [`corp_serve::ServeReport`] is byte-identical
//! across repeated runs, across prediction pool widths, and across replay
//! speeds — and at infinite speed with an open queue, the daemon places
//! the same jobs on the same VMs as the batch slot-loop simulation. A
//! single differing byte fails the suite.

use corp_bench::{
    build_provisioner, run_resilience, run_serve, serve_workload, Environment, ResilienceArgs,
    SchemeKind, SchemeParams,
};
use corp_core::pipeline::hardware_parallelism;
use corp_serve::{ReplaySpeed, ServeConfig, ServeDaemon, ServeOutcome};
use corp_sim::{Simulation, SimulationOptions, SlotEngine, SlotOutcome};

const JOBS: usize = 30;
const SEED: u64 = 7;

fn outcome(width: Option<usize>, speed: ReplaySpeed) -> ServeOutcome {
    let params = SchemeParams {
        fast_dnn: true,
        pool_width: width,
        seed: SEED,
        ..Default::default()
    };
    let config = ServeConfig {
        speed,
        ..ServeConfig::default()
    };
    let env = Environment::Cluster;
    run_serve(
        env,
        SchemeKind::Corp,
        serve_workload(env, JOBS, SEED),
        &params,
        config,
    )
}

fn report_json(width: Option<usize>, speed: ReplaySpeed) -> String {
    serde::json::to_string(&outcome(width, speed).report)
}

#[test]
fn serve_reports_are_byte_identical_across_runs() {
    let first = report_json(None, ReplaySpeed::Infinite);
    assert_eq!(
        report_json(None, ReplaySpeed::Infinite),
        first,
        "same seed + trace must reproduce the ServeReport byte for byte"
    );
    assert!(first.contains("placement_latency"));
}

#[test]
fn serve_reports_are_byte_identical_across_pool_widths() {
    let baseline = report_json(Some(1), ReplaySpeed::Infinite);
    for width in [Some(2), Some(hardware_parallelism()), None] {
        assert_eq!(
            report_json(width, ReplaySpeed::Infinite),
            baseline,
            "serve report diverged at pool width {width:?}"
        );
    }
}

#[test]
fn serve_reports_are_byte_identical_across_replay_speeds() {
    // Pacing sleeps against the wall clock but never feeds wall readings
    // into the simulation; a very fast paced replay must match the
    // virtual-time batch replay exactly. (10^7 x real time: a 10 s slot
    // paces at ~1 us, so the full run stays well under a second.)
    assert_eq!(
        report_json(None, ReplaySpeed::Times(1e7)),
        report_json(None, ReplaySpeed::Infinite),
        "paced replay diverged from infinite-speed replay"
    );
}

/// Collects `(slot, job, vm)` for every placement a driver applies.
fn recorder(placements: &mut Vec<(u64, u64, usize)>) -> impl FnMut(&SlotEngine, &SlotOutcome) + '_ {
    |engine, outcome| {
        let slot = engine.slot() - 1;
        placements.extend(outcome.placements.iter().map(|&(job, vm)| (slot, job, vm)));
    }
}

#[test]
fn serve_at_infinite_speed_matches_the_batch_slot_loop() {
    let env = Environment::Cluster;
    let params = SchemeParams {
        fast_dnn: true,
        seed: SEED,
        ..Default::default()
    };
    let workload = serve_workload(env, JOBS, SEED);

    // Batch arm: the slot-loop simulation, exactly as run_cell drives it.
    let mut batch_provisioner = build_provisioner(SchemeKind::Corp, env, &params);
    let mut sim = Simulation::new(
        env.cluster(),
        workload.clone(),
        SimulationOptions {
            measure_decision_time: false,
            ..Default::default()
        },
    );
    let mut batch_placements = Vec::new();
    let batch_report = serde::json::to_string(
        &sim.run_inspecting(batch_provisioner.as_mut(), recorder(&mut batch_placements)),
    );

    // Serve arm: fresh provisioner (same seed), same workload, through the
    // event loop.
    let mut serve_provisioner = build_provisioner(SchemeKind::Corp, env, &params);
    let mut daemon = ServeDaemon::new(
        env.cluster(),
        SimulationOptions {
            measure_decision_time: false,
            ..Default::default()
        },
        ServeConfig::default(),
    );
    let mut served_placements = Vec::new();
    let outcome = daemon.run_inspecting(
        serve_provisioner.as_mut(),
        workload,
        recorder(&mut served_placements),
    );

    assert_eq!(
        serde::json::to_string(&outcome.report.sim),
        batch_report,
        "serving mode diverged from the batch simulation report"
    );
    assert_eq!(
        served_placements, batch_placements,
        "serving mode placed jobs on different VMs or slots than the batch loop"
    );
    // The comparison must be about real placements: at this load the
    // scheme places essentially everything.
    let placed = served_placements.len();
    assert!(placed > JOBS / 2, "only {placed}/{JOBS} jobs ever placed");
    // Both drivers released every job and grew the same arena.
    assert_eq!(daemon.jobs().len(), sim.jobs().len());
    assert!(daemon.jobs().iter().all(|j| j.id() == u64::MAX));
}

// --- chaos-serve: determinism and accounting under combined faults ---

fn chaos_args() -> ResilienceArgs {
    ResilienceArgs {
        jobs: 40,
        shards: 2,
        ..ResilienceArgs::default()
    }
}

fn chaos_report_json(width: Option<usize>) -> String {
    serde::json::to_string(&run_resilience(true, &chaos_args(), width).0.report)
}

#[test]
fn chaos_serve_reports_are_byte_identical_across_reruns() {
    // Storms, fault schedules, breakers, and the brownout ladder are all
    // pure functions of the seed: replaying the same catastrophe twice
    // must serialize to the same bytes, worker threads and all.
    let first = chaos_report_json(None);
    assert_eq!(chaos_report_json(None), first, "chaos-serve rerun diverged");
    assert!(first.contains("breaker_transitions"));
}

#[test]
fn chaos_serve_reports_are_byte_identical_across_pool_widths() {
    let baseline = chaos_report_json(Some(1));
    for width in [Some(2), None] {
        assert_eq!(
            chaos_report_json(width),
            baseline,
            "chaos-serve report diverged at pool width {width:?}"
        );
    }
}

#[test]
fn chaos_serve_loses_no_jobs_and_cycles_the_breakers() {
    let args = chaos_args();
    let (outcome, errors) = run_resilience(true, &args, None);
    let r = &outcome.report;

    // Zero jobs lost: every offered job lands in exactly one terminal
    // bucket, even with VMs crashing, workers dying, and arrivals
    // storming.
    assert_eq!(
        r.sim.completed
            + r.sim.rejected
            + r.sim.unfinished
            + (r.queue.shed + r.queue.rejected + r.queue.expired) as usize,
        args.jobs,
        "conservation violated under chaos"
    );

    // The fixed drop burst guarantees a full breaker cycle: trip, a
    // failed half-open probe, and a recovery — all recorded as
    // transitions in the report's control-plane stats.
    let cp = r.sim.control_plane.as_ref().expect("sharded run has stats");
    assert!(cp.breaker_opens >= 2, "breaker never tripped");
    assert!(cp.breaker_half_opens >= 2, "breaker never probed");
    assert!(cp.breaker_closes >= 1, "breaker never recovered");
    assert!(
        !cp.breaker_transitions.is_empty(),
        "transitions must be recorded in the report"
    );
    assert_eq!(
        cp.breaker_opens + cp.breaker_half_opens + cp.breaker_closes,
        cp.breaker_transitions.len() as u64,
        "counters must agree with the transition log"
    );
    assert!(cp.isolated_slots > 0, "open breakers must isolate slots");
    assert!(
        errors.is_empty(),
        "supervisor should recover from scheduled chaos: {errors:?}"
    );
}

// --- the CLI: a trace the engine could not serve exits before it runs ---

#[test]
fn serve_refuses_a_recorded_trace_that_repeats_a_job_id() {
    let path = std::env::temp_dir().join(format!(
        "corp-serve-duplicate-id-{}.trace",
        std::process::id()
    ));
    std::fs::write(
        &path,
        "corp-trace-v1\n\
         job,1,0,2,cpu,3,0.02,1,1,1\nd,0.5,0.5,0.5\nd,0.5,0.5,0.5\n\
         job,1,0,2,cpu,3,0.02,1,1,1\nd,0.5,0.5,0.5\nd,0.5,0.5,0.5\n",
    )
    .expect("write trace");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_corp-exp"))
        .args(["serve", "--fast", "--trace"])
        .arg(&path)
        .output()
        .expect("run corp-exp");
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing was served");
    assert_eq!(
        String::from_utf8_lossy(&out.stderr).trim_end(),
        format!(
            "--trace {}: line 5: job id already used by an earlier job",
            path.display()
        )
    );
}
