//! Pool-runtime equivalence: the persistent worker-pool path must
//! reproduce the legacy scoped-thread path byte for byte, at every fan-out
//! width, for every scheme.
//!
//! This is the determinism contract of DESIGN.md §11: chunking is
//! contiguous and width-deterministic, results land by task index, and
//! worker scratch only carries buffers that are fully overwritten before
//! they are read (plus order-independent counters). A single differing
//! byte in a serialized report fails the suite.

use corp_bench::env::{
    historical_histories, run_cell, Environment, SchemeKind, SchemeParams, ALL_SCHEMES,
};
use corp_core::pipeline::hardware_parallelism;
use corp_core::{CorpConfig, CorpProvisioner};
use corp_faults::{FaultEvent, FaultTimeline, PoisonKind, TimedFault};
use corp_sim::{Simulation, SimulationOptions};

const JOBS: usize = 30;

/// Runs one small cluster cell and serializes the full report.
fn report_json(scheme: SchemeKind, scoped: bool, width: Option<usize>) -> String {
    let params = SchemeParams {
        fast_dnn: true,
        scoped_runtime: scoped,
        pool_width: width,
        ..Default::default()
    };
    serde::json::to_string(&run_cell(
        Environment::Cluster,
        scheme,
        JOBS,
        &params,
        false,
    ))
}

#[test]
fn pooled_widths_match_scoped_for_every_scheme() {
    for scheme in ALL_SCHEMES {
        let scoped = report_json(scheme, true, None);
        for width in [Some(1), Some(2), Some(hardware_parallelism())] {
            assert_eq!(
                report_json(scheme, false, width),
                scoped,
                "{scheme:?}: pooled at width {width:?} diverged from scoped"
            );
        }
        assert_eq!(
            report_json(scheme, false, None),
            scoped,
            "{scheme:?}: pooled at the default width diverged from scoped"
        );
    }
}

#[test]
fn pinned_width_matches_default_width_under_scoped_mode() {
    // The width knob must be inert in scoped mode too (it only shapes the
    // pooled chunking; scoped fan-out derives its width from the host).
    for scheme in [SchemeKind::Corp, SchemeKind::Rccr] {
        assert_eq!(
            report_json(scheme, true, Some(2)),
            report_json(scheme, true, None),
            "{scheme:?}: width override changed the scoped-mode report"
        );
    }
}

/// Runs CORP on the small cluster cell with a third of the fleet's views
/// poisoned every slot — NaN and finite-spike corruption alternating — and
/// serializes the report together with the predictor's fallback counters.
fn poisoned_corp_json(scoped: bool, width: Option<usize>) -> String {
    const POISONED_SLOTS: u64 = 400;
    let env = Environment::Cluster;
    let config = CorpConfig {
        pooled_runtime: !scoped,
        prediction_pool_width: width,
        ..CorpConfig::fast()
    };
    let mut corp = CorpProvisioner::new(config);
    corp.pretrain(&historical_histories(env, 40));
    let cluster = env.cluster();
    let vms = cluster.vms.len() as u64;
    let events = (0..POISONED_SLOTS)
        .flat_map(|slot| {
            (0..vms)
                .filter(move |vm| (slot + vm) % 3 == 0)
                .map(move |vm| TimedFault {
                    slot,
                    event: FaultEvent::PoisonViews {
                        vm: vm as usize,
                        kind: if (slot + vm) % 2 == 0 {
                            PoisonKind::Nan
                        } else {
                            PoisonKind::Spike(1e6)
                        },
                    },
                })
        })
        .collect();
    let report = Simulation::new(
        cluster,
        env.workload(JOBS, 7),
        SimulationOptions {
            measure_decision_time: false,
            ..Default::default()
        },
    )
    .with_fault_timeline(FaultTimeline::new(events))
    .run(&mut corp);
    let fallbacks = corp.predictor().fallbacks();
    assert!(
        fallbacks.dnn_rejected > 0 && fallbacks.hmm_last_value > 0,
        "poisoned views must have sent lanes down the ladder: {fallbacks:?}"
    );
    format!(
        "{}\n{}",
        serde::json::to_string(&report),
        serde::json::to_string(fallbacks)
    )
}

#[test]
fn poisoned_lanes_take_the_same_ladder_in_every_mode_and_width() {
    // A lane-batched forecast routes each unhealthy lane (NaN sample, or a
    // spike-blown sigma_hat) to the fallback ladder and batches the rest;
    // which lanes share a batch depends on the chunking. Reports *and*
    // fallback counters must not.
    let scoped = poisoned_corp_json(true, None);
    for width in [1, 2, 3] {
        assert_eq!(
            poisoned_corp_json(false, Some(width)),
            scoped,
            "pooled at width {width} diverged from scoped under view poisoning"
        );
        assert_eq!(
            poisoned_corp_json(true, Some(width)),
            scoped,
            "scoped with width {width} pinned diverged under view poisoning"
        );
    }
}
