//! Pool-runtime equivalence: every fan-out width must reproduce width 1 —
//! the serial path, everything on the calling thread — byte for byte, for
//! every scheme.
//!
//! This is the determinism contract of DESIGN.md §9: chunks are contiguous
//! runs of tasks, results land by task index, and worker scratch only
//! carries buffers that are fully overwritten before they are read (plus
//! order-independent counters). A single differing byte in a serialized
//! report fails the suite.

use corp_bench::env::{
    historical_histories, run_cell, Environment, SchemeKind, SchemeParams, ALL_SCHEMES,
};
use corp_core::pipeline::hardware_parallelism;
use corp_core::{CorpConfig, CorpProvisioner};
use corp_faults::{FaultEvent, FaultTimeline, PoisonKind, TimedFault};
use corp_sim::{Simulation, SimulationOptions};

const JOBS: usize = 30;

/// Runs one small cluster cell and serializes the full report.
fn report_json(scheme: SchemeKind, width: Option<usize>) -> String {
    let params = SchemeParams {
        fast_dnn: true,
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
fn every_width_matches_width_one_for_every_scheme() {
    for scheme in ALL_SCHEMES {
        let serial = report_json(scheme, Some(1));
        for width in [Some(2), Some(3), Some(hardware_parallelism()), None] {
            assert_eq!(
                report_json(scheme, width),
                serial,
                "{scheme:?}: width {width:?} diverged from width 1"
            );
        }
    }
}

/// Runs CORP on the small cluster cell with a third of the fleet's views
/// poisoned every slot — NaN and finite-spike corruption alternating — and
/// serializes the report together with the predictor's fallback counters.
fn poisoned_corp_json(width: Option<usize>) -> String {
    const POISONED_SLOTS: u64 = 400;
    let env = Environment::Cluster;
    let config = CorpConfig {
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
fn poisoned_lanes_take_the_same_ladder_at_every_width() {
    // A lane-batched forecast routes each unhealthy lane (NaN sample, or a
    // spike-blown sigma_hat) to the fallback ladder and batches the rest;
    // which lanes share a claimed chunk, and which thread claims it,
    // depends on the width. Reports *and* fallback counters must not.
    let serial = poisoned_corp_json(Some(1));
    for width in [Some(2), Some(3), None] {
        assert_eq!(
            poisoned_corp_json(width),
            serial,
            "width {width:?} diverged from width 1 under view poisoning"
        );
    }
}
