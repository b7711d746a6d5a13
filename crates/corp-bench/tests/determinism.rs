//! Determinism regression tests: identical seed + config must yield
//! byte-identical serialized `SimulationReport`s, with and without the
//! sharded control plane, and one shard must reproduce the monolithic
//! scheduler's numbers exactly.
//!
//! Decision wall-clock measurement is off throughout — it is the one
//! intentionally non-deterministic report input.

use corp_bench::{
    build_provisioner, build_sharded_provisioner, run_cell, run_cell_faulty, run_cell_sharded,
    Environment, SchemeKind, SchemeParams, ALL_SCHEMES,
};
use corp_faults::FaultConfig;
use corp_sim::{
    ControlPlaneStats, JobCompletion, ProvisionPlan, Provisioner, Simulation, SimulationOptions,
    SlotContext, StaticPeakProvisioner,
};

const JOBS: usize = 40;

fn params() -> SchemeParams {
    SchemeParams {
        fast_dnn: true,
        ..Default::default()
    }
}

#[test]
fn single_shard_reports_are_byte_identical_across_runs() {
    let p = params();
    let (a, _, _) = run_cell_sharded(Environment::Cluster, SchemeKind::Corp, JOBS, &p, 1, false);
    let (b, _, _) = run_cell_sharded(Environment::Cluster, SchemeKind::Corp, JOBS, &p, 1, false);
    assert_eq!(serde::json::to_string(&a), serde::json::to_string(&b));
}

#[test]
fn multi_shard_reports_are_byte_identical_across_runs() {
    // Four real scheduler threads racing through the placement store must
    // still merge into a bit-reproducible report: proposal generation is
    // per-shard deterministic and arbitration order is fixed.
    for scheme in [SchemeKind::Corp, SchemeKind::Rccr] {
        let p = params();
        let (a, _, _) = run_cell_sharded(Environment::Cluster, scheme, JOBS, &p, 4, false);
        let (b, _, _) = run_cell_sharded(Environment::Cluster, scheme, JOBS, &p, 4, false);
        assert_eq!(
            serde::json::to_string(&a),
            serde::json::to_string(&b),
            "{scheme:?} not deterministic at 4 shards"
        );
    }
}

#[test]
fn one_shard_reproduces_the_monolithic_scheduler() {
    // Acceptance bar for the sharded control plane: with shards = 1 the
    // coordinator must be a transparent wrapper. Every report field except
    // the provisioner label and the control-plane block matches exactly,
    // at every setting of the knobs the shards are built with.
    let aggressive = SchemeParams {
        aggressiveness: 0.5,
        ..params()
    };
    for (p, scheme) in [params(), aggressive]
        .iter()
        .flat_map(|p| ALL_SCHEMES.map(|scheme| (p, scheme)))
    {
        let label = format!("{scheme:?} at aggressiveness {}", p.aggressiveness);
        let mono = run_cell(Environment::Cluster, scheme, JOBS, p, false);
        let (sharded, _, _) = run_cell_sharded(Environment::Cluster, scheme, JOBS, p, 1, false);
        assert_eq!(sharded.provisioner, format!("{}x1", mono.provisioner));
        assert_eq!(sharded.environment, mono.environment, "{label}");
        assert_eq!(sharded.num_jobs, mono.num_jobs, "{label}");
        assert_eq!(sharded.utilization, mono.utilization, "{label}");
        assert_eq!(
            sharded.overall_utilization, mono.overall_utilization,
            "{label}"
        );
        assert_eq!(
            sharded.slo_violation_rate, mono.slo_violation_rate,
            "{label}"
        );
        assert_eq!(
            sharded.prediction_error_rate, mono.prediction_error_rate,
            "{label}"
        );
        assert_eq!(
            sharded.predictions_resolved, mono.predictions_resolved,
            "{label}"
        );
        assert_eq!(sharded.overhead_ms, mono.overhead_ms, "{label}");
        assert_eq!(sharded.completed, mono.completed, "{label}");
        assert_eq!(sharded.violated, mono.violated, "{label}");
        assert_eq!(sharded.rejected, mono.rejected, "{label}");
        assert_eq!(sharded.unfinished, mono.unfinished, "{label}");
        assert_eq!(sharded.slots_run, mono.slots_run, "{label}");
        assert_eq!(
            sharded.mean_response_slots, mono.mean_response_slots,
            "{label}"
        );
        assert_eq!(sharded.invalid_actions, 0, "{label}");
        assert_eq!(mono.invalid_actions, 0, "{label}");
        let cp = sharded
            .control_plane
            .expect("sharded run reports control-plane stats");
        assert_eq!(cp.shards, 1);
        assert_eq!(
            cp.conflicts, 0,
            "{label}: a lone shard cannot conflict with itself"
        );
        assert!(mono.control_plane.is_none());
    }
}

#[test]
fn hot_path_optimizations_do_not_change_a_single_decision() {
    // The perf tier must be invisible in the results: fan-out prediction
    // across pool threads plus the fused DNN kernels must reproduce the
    // serial, reference-kernel run byte for byte, for every scheme. This is
    // the transparency bar the kernel rewrite is held to — any reordering
    // of a floating-point reduction would show up here.
    for scheme in [
        SchemeKind::Corp,
        SchemeKind::Rccr,
        SchemeKind::CloudScale,
        SchemeKind::Dra,
    ] {
        let tuned = params();
        let baseline = SchemeParams {
            pool_width: Some(1),
            reference_dnn: true,
            ..params()
        };
        let a = run_cell(Environment::Cluster, scheme, JOBS, &tuned, false);
        let b = run_cell(Environment::Cluster, scheme, JOBS, &baseline, false);
        assert_eq!(
            serde::json::to_string(&a),
            serde::json::to_string(&b),
            "{scheme:?}: optimized hot path diverged from the serial reference run"
        );
    }
}

/// Forwards everything to the wrapped provisioner but declares a view
/// period of 1, so the engine hands it full-depth history tails on every
/// slot instead of only on the slots the provisioner declared.
struct FullDepthViews(Box<dyn Provisioner + Send>);

impl Provisioner for FullDepthViews {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn provision(&mut self, ctx: &SlotContext<'_>) -> ProvisionPlan {
        self.0.provision(ctx)
    }
    fn on_job_completed(&mut self, job: u64, unused_history: &[Vec<f64>]) {
        self.0.on_job_completed(job, unused_history);
    }
    fn on_jobs_completed(&mut self, completed: &[JobCompletion]) {
        self.0.on_jobs_completed(completed);
    }
    fn control_plane_stats(&self) -> Option<ControlPlaneStats> {
        self.0.control_plane_stats()
    }
    fn set_service_level(&mut self, level: u8) {
        self.0.set_service_level(level);
    }
    fn full_view_period(&self) -> u64 {
        1
    }
}

/// Static peak that declares a six-slot view period and then, three slots
/// into every window, trims each running job it finds listed to 90 % of
/// its request — a read of `vm.jobs` its declaration says it never makes.
struct OffPeriodJobReader;

impl Provisioner for OffPeriodJobReader {
    fn name(&self) -> &str {
        "off-period-job-reader"
    }
    fn provision(&mut self, ctx: &SlotContext<'_>) -> ProvisionPlan {
        let mut plan = StaticPeakProvisioner.provision(ctx);
        if ctx.slot % 6 == 3 {
            let listed = ctx.vms.iter().flat_map(|vm| &vm.jobs);
            plan.adjustments
                .extend(listed.map(|job| (job.id, job.requested.scaled(0.9))));
        }
        plan
    }
    fn full_view_period(&self) -> u64 {
        6
    }
}

#[test]
fn declared_view_periods_hide_nothing_the_provisioners_read() {
    // A provisioner that declares `full_view_period() == L` promises that
    // on the other L - 1 slots of every window it reads no per-job view
    // and no history deeper than the newest VM sample, and the engine
    // skips building them. Handing the same provisioner full views on
    // every slot must therefore not change a byte — for the four schemes
    // (the baselines declare their 6-slot window, CORP its configured
    // one), for the sharded coordinator, which declares the gcd of its
    // workers' periods, and for static peak, which declares that it never
    // reads either. A provisioner that breaks the promise is caught.
    let env = Environment::Cluster;
    let p = params();
    let report = |provisioner: &mut dyn Provisioner| {
        let mut sim = Simulation::new(
            env.cluster(),
            env.workload(JOBS, p.seed.wrapping_add(JOBS as u64)),
            SimulationOptions {
                measure_decision_time: false,
                ..Default::default()
            },
        );
        serde::json::to_string(&sim.run(provisioner))
    };
    // The report under the views the provisioner declared, and under full
    // views on every slot.
    let both = |label: &str, build: &dyn Fn() -> Box<dyn Provisioner + Send>| {
        let mut declared = build();
        assert!(
            declared.full_view_period() > 1,
            "{label}: nothing to check unless the provisioner declares a window"
        );
        let mut full_depth = FullDepthViews(build());
        (report(declared.as_mut()), report(&mut full_depth))
    };
    let check = |label: &str, build: &dyn Fn() -> Box<dyn Provisioner + Send>| {
        let (declared, full_depth) = both(label, build);
        assert_eq!(
            declared, full_depth,
            "{label}: reads deeper views than its full_view_period declares"
        );
    };
    for scheme in ALL_SCHEMES {
        check(&format!("{scheme:?}"), &|| {
            build_provisioner(scheme, env, &p)
        });
    }
    check("2-shard CORP", &|| {
        Box::new(build_sharded_provisioner(
            SchemeKind::Corp,
            env,
            &p,
            2,
            None,
        ))
    });
    check("static peak", &|| Box::new(StaticPeakProvisioner));
    let (declared, full_depth) = both("cheater", &|| Box::new(OffPeriodJobReader));
    assert_ne!(
        declared, full_depth,
        "an off-period read of `vm.jobs` must show up as a diverging report"
    );
}

#[test]
fn faulty_runs_are_byte_identical_across_runs() {
    // Chaos must be deterministic: the same fault seed and intensity must
    // reproduce the same kills, the same recoveries, and the same report
    // bytes — crashes included.
    let p = params();
    let cfg = FaultConfig::scenario(0xFA17, 2.0);
    let a = run_cell_faulty(Environment::Cluster, SchemeKind::Corp, JOBS, &p, 2, &cfg);
    let b = run_cell_faulty(Environment::Cluster, SchemeKind::Corp, JOBS, &p, 2, &cfg);
    assert_eq!(serde::json::to_string(&a), serde::json::to_string(&b));
    // The scenario actually bites: faults happened and were recovered.
    let f = a.faults.as_ref().expect("fault stats present");
    assert!(f.vm_crashes > 0, "{f:?}");
    let cp = a.control_plane.as_ref().expect("control-plane stats");
    assert!(
        cp.worker_kills > 0 && cp.worker_restarts > 0,
        "supervisor recovery exercised: {cp:?}"
    );
    assert_eq!(a.invalid_actions, 0, "no overcommit under faults");
}

#[test]
fn disabled_faults_match_the_fault_free_supervised_run() {
    // Intensity 0.0 must be a no-op: the supervised coordinator with an
    // empty fault plan reproduces the plain sharded run's numbers exactly
    // (the report differs only in carrying zeroed fault stats).
    for scheme in [SchemeKind::Corp, SchemeKind::Dra] {
        let p = params();
        let cfg = FaultConfig::disabled(0xFA17);
        let faulty = run_cell_faulty(Environment::Cluster, scheme, JOBS, &p, 2, &cfg);
        let (plain, _, _) = run_cell_sharded(Environment::Cluster, scheme, JOBS, &p, 2, false);
        assert_eq!(faulty.utilization, plain.utilization, "{scheme:?}");
        assert_eq!(
            faulty.overall_utilization, plain.overall_utilization,
            "{scheme:?}"
        );
        assert_eq!(
            faulty.slo_violation_rate, plain.slo_violation_rate,
            "{scheme:?}"
        );
        assert_eq!(faulty.completed, plain.completed, "{scheme:?}");
        assert_eq!(faulty.violated, plain.violated, "{scheme:?}");
        assert_eq!(faulty.slots_run, plain.slots_run, "{scheme:?}");
        assert_eq!(
            faulty.mean_response_slots, plain.mean_response_slots,
            "{scheme:?}"
        );
        let f = faulty.faults.as_ref().expect("zeroed fault stats present");
        assert_eq!(*f, corp_sim::FaultStats::default(), "{scheme:?}");
        assert!(plain.faults.is_none());
    }
}

#[test]
fn multi_shard_never_overcommits_and_reports_contention() {
    let p = params();
    let (r, _, _) = run_cell_sharded(Environment::Cluster, SchemeKind::Corp, 120, &p, 4, false);
    // The engine independently validates every action; a store-approved
    // plan must never be rejected downstream.
    assert_eq!(r.invalid_actions, 0, "{r:?}");
    let cp = r.control_plane.expect("control-plane stats present");
    assert_eq!(cp.shards, 4);
    assert_eq!(
        cp.commits + cp.aborts,
        cp.reservations,
        "every reservation resolved"
    );
    assert!(cp.per_shard.len() == 4);
    assert!(r.completed > 0);
}
