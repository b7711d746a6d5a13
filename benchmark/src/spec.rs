//! What the benchmark declares: its workloads and its metrics, by name.
//! `BENCHMARK.json` at the repo root says the same; a unit test keeps the
//! two equal.

/// Which way a metric gets better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "corp-steady-1k",
        why: "CORP at the paper's settings on 1024 saturated VMs: the predict layer (DNN, HMM, CI) does most of the work, the engine barely matters",
    },
    Workload {
        name: "baselines-1k",
        why: "RCCR, CloudScale and DRA back to back on the same fleet and jobs: same pipeline driver and engine, cheap predictors, random placement, no packing",
    },
    Workload {
        name: "soak-50k",
        why: "static-peak through the streaming, reclaiming engine on 50000 VMs: engine views, job arena and trace source do the work; predictor changes must not show",
    },
    Workload {
        name: "sharded-2-1k",
        why: "small-DNN CORP behind the 2-shard coordinator and striped 2PC store: the control plane dominates, fast path and fallback both run",
    },
    Workload {
        name: "serve-storm-1k",
        why: "CORP behind the serving daemon under storm-compressed arrivals: admission queue, deadline expiry, brownout ladder and degraded pipeline levels all work",
    },
];

/// A metric a user of the system would see. `bound` is the share of the
/// parent's median by which it may get worse before that is a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    /// Simulated outcome: exactly repeatable for a seed. The others are
    /// host times.
    pub simulated: bool,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        simulated: false,
    },
    EndToEnd {
        name: "slots_per_sec",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        simulated: false,
    },
    EndToEnd {
        name: "jobs_per_sec",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        simulated: false,
    },
    EndToEnd {
        name: "decision_ms_p95",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        simulated: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.05,
        simulated: false,
    },
    EndToEnd {
        name: "overall_utilization",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.04,
        simulated: true,
    },
    EndToEnd {
        name: "slo_met_rate",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.015,
        simulated: true,
    },
    EndToEnd {
        name: "completed_share",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.03,
        simulated: true,
    },
    EndToEnd {
        name: "placement_wait_mean_slots",
        unit: "slots",
        better: Better::Lower,
        bound: 0.25,
        simulated: true,
    },
];

/// A metric of one layer. No bound: it explains an end-to-end change, it
/// is not judged itself. A workload that does not run the layer reads 0.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// The per-layer metrics one repetition measured, by declared name.
#[derive(Default)]
pub struct Layers(pub std::collections::BTreeMap<String, f64>);

impl Layers {
    pub fn put(&mut self, name: &str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|l| l.name == name),
            "`{name}` is not a declared per-layer metric"
        );
        self.0.insert(name.to_string(), value);
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

pub const PER_LAYER: &[PerLayer] = &[
    // corp-trace: the job source.
    layer("trace.next_s", "s", Lower),
    layer("trace.jobs", "count", Higher),
    layer("trace.us_per_job", "us", Lower),
    // corp-sim: the slot engine (run minus provisioner minus source).
    layer("engine.self_s", "s", Lower),
    layer("engine.slots", "count", Lower),
    layer("engine.us_per_slot", "us", Lower),
    layer("engine.arena_slots", "count", Lower),
    layer("engine.invalid_actions", "count", Lower),
    // corp-core: the pipeline driver.
    layer("pipeline.provision_s", "s", Lower),
    layer("pipeline.self_s", "s", Lower),
    layer("pipeline.decision_ms_p50", "ms", Lower),
    layer("pipeline.decision_ms_p99", "ms", Lower),
    layer("pipeline.placement_wait_p99_slots", "slots", Lower),
    // Predict stage, and its kernels.
    layer("predict.ingest_s", "s", Lower),
    layer("predict.forecast_s", "s", Lower),
    layer("predict.forecast_calls", "count", Lower),
    layer("predict.tasks", "count", Lower),
    layer("predict.us_per_task", "us", Lower),
    layer("predict.absorb_s", "s", Lower),
    layer("predict.job_ns", "ns", Lower),
    layer("dnn.forward_ns", "ns", Lower),
    layer("hmm.adjust_ns", "ns", Lower),
    layer("dnn.pretrain_s", "s", Lower),
    // Reallocation gate.
    layer("gate.reallocate_s", "s", Lower),
    layer("gate.adjustments", "count", Higher),
    // Packing stage.
    layer("pack.pack_s", "s", Lower),
    layer("pack.jobs_in", "count", Lower),
    layer("pack.entities_out", "count", Lower),
    layer("pack.paired_ratio", "ratio", Higher),
    layer("pack.us_per_100_jobs", "us", Lower),
    // Placement backend.
    layer("place.begin_slot_s", "s", Lower),
    layer("place.choose_s", "s", Lower),
    layer("place.debit_s", "s", Lower),
    layer("place.attempts", "count", Lower),
    layer("place.placed_ratio", "ratio", Higher),
    layer("index.rebuild_us", "us", Lower),
    layer("index.best_fit_ns", "ns", Lower),
    // corp-cluster: coordinator and shards.
    layer("coordinator.provision_s", "s", Lower),
    layer("coordinator.unsharded_provision_s", "s", Lower),
    layer("shard.busy_sum_s", "s", Lower),
    layer("shard.critical_path_s", "s", Lower),
    layer("coordinator.self_s", "s", Lower),
    layer("coordinator.conflicts", "count", Lower),
    layer("coordinator.retries", "count", Lower),
    layer("coordinator.aborts", "count", Lower),
    // corp-cluster: placement store.
    layer("store.reservations", "count", Lower),
    layer("store.fast_path_ratio", "ratio", Higher),
    layer("store.stripe_conflicts", "count", Lower),
    layer("store.fallback_rounds", "count", Lower),
    layer("store.fast_commit_ns", "ns", Lower),
    layer("store.reserve_confirm_ns", "ns", Lower),
    // corp-serve: daemon, admission queue, brownout ladder.
    layer("daemon.engine_self_s", "s", Lower),
    layer("daemon.events", "count", Lower),
    layer("daemon.ticks", "count", Lower),
    layer("admission.admitted", "count", Higher),
    layer("admission.blocked", "count", Lower),
    layer("admission.rejected", "count", Lower),
    layer("admission.expired", "count", Lower),
    layer("admission.shed", "count", Lower),
    layer("admission.high_water", "count", Lower),
    layer("brownout.escalations", "count", Lower),
    layer("brownout.degraded_ticks", "count", Lower),
    layer("slo.deadline_miss_ratio", "ratio", Lower),
    layer("admission.offer_ns", "ns", Lower),
    layer("admission.expire_ns_per_waiter", "ns", Lower),
    layer("sketch.insert_ns", "ns", Lower),
    // The three schemes of `baselines-1k`, one by one.
    layer("rccr.run_s", "s", Lower),
    layer("rccr.overall_utilization", "ratio", Higher),
    layer("rccr.slo_violation_rate", "ratio", Lower),
    layer("cloudscale.run_s", "s", Lower),
    layer("cloudscale.overall_utilization", "ratio", Higher),
    layer("cloudscale.slo_violation_rate", "ratio", Lower),
    layer("dra.run_s", "s", Lower),
    layer("dra.overall_utilization", "ratio", Higher),
    layer("dra.slo_violation_rate", "ratio", Lower),
    // The host: the share of the run's wall time lost to vCPU steal.
    layer("host.steal_ratio", "ratio", Lower),
    // Tracing itself: traced run time over untraced.
    layer("trace.overhead_ratio", "ratio", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use std::collections::BTreeSet;

    const BENCHMARK_JSON: &str =
        include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));

    fn entries<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
        match doc.get(key) {
            Some(Value::Arr(items)) => items,
            other => panic!("BENCHMARK.json `{key}` is not a list: {other:?}"),
        }
    }

    fn text<'a>(entry: &'a Value, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("{entry:?} lacks the string `{key}`"))
    }

    fn keys(entry: &Value) -> Vec<&str> {
        entry
            .as_obj()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect()
    }

    fn is_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        s.len() <= 64 && s.starts_with(|c: char| c.is_ascii_alphanumeric()) && s.chars().all(ok)
    }

    fn is_unit(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        (1..=16).contains(&s.len()) && s.chars().all(ok)
    }

    /// What the binary emits is what `spec` declares: the driver form
    /// prints exactly `END_TO_END` or `PER_LAYER`, and a repetition that
    /// reports a name outside `PER_LAYER` fails the run. So the declared
    /// names equal the emitted ones when `spec` equals `BENCHMARK.json`.
    #[test]
    fn spec_equals_benchmark_json() {
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        assert_eq!(
            keys(&doc),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let declared: Vec<_> = entries(&doc, "workloads")
            .iter()
            .map(|w| (keys(w), text(w, "name"), text(w, "why")))
            .collect();
        let expected: Vec<_> = WORKLOADS
            .iter()
            .map(|w| (vec!["name", "why"], w.name, w.why))
            .collect();
        assert_eq!(declared, expected);

        let declared: Vec<_> = entries(&doc, "end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Value::as_f64).expect("a bound");
                (
                    keys(m),
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better"),
                    bound,
                )
            })
            .collect();
        let expected: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                let keys = vec!["name", "unit", "better", "bound"];
                (keys, m.name, m.unit, m.better.as_str(), m.bound)
            })
            .collect();
        assert_eq!(declared, expected);

        let declared: Vec<_> = entries(&doc, "per_layer")
            .iter()
            .map(|m| (keys(m), text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let expected: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    vec!["name", "unit", "better"],
                    m.name,
                    m.unit,
                    m.better.as_str(),
                )
            })
            .collect();
        assert_eq!(declared, expected);
    }

    #[test]
    fn declarations_stay_inside_the_contract() {
        let names: Vec<&str> = (WORKLOADS.iter().map(|w| w.name))
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for name in &names {
            assert!(is_name(name), "`{name}` is not a contract name");
        }
        let unique: BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");

        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let units = (END_TO_END.iter().map(|m| m.unit)).chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(is_unit(unit), "`{unit}` is not a contract unit");
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert_eq!(
            setup.bound,
            END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max),
            "setup_s has the largest bound"
        );
    }
}
