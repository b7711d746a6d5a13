//! Repetitions and what is made of them. Every repetition runs in a child
//! process of its own, so `VmHWM` is the peak of that one run and no
//! allocator or cache state leaks from one repetition into the next; the
//! parent only starts children, checks that they agree, and takes medians.

use crate::json::{self, Value};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats;
use crate::workloads::{self, Rep, Sizes, Trace};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::Instant;

/// One repetition, as its child process reported it.
pub struct ChildRep {
    pub e2e: BTreeMap<String, f64>,
    pub layers: BTreeMap<String, f64>,
    pub digest: String,
    pub offered: u64,
    pub failed: u64,
    pub run_s: f64,
}

/// Peak resident set of this process in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The nine end-to-end metrics of one repetition.
fn end_to_end(rep: &Rep) -> Result<BTreeMap<&'static str, f64>, String> {
    let values = [
        ("setup_s", rep.setup_s),
        ("slots_per_sec", rep.slots as f64 / rep.run.net_s()),
        ("jobs_per_sec", rep.completed as f64 / rep.run.net_s()),
        ("decision_ms_p95", rep.decision_ms_p95),
        ("peak_rss_mb", peak_rss_mb()?),
        ("overall_utilization", rep.utilization),
        ("slo_met_rate", 1.0 - rep.slo_violation_rate),
        ("completed_share", rep.completed as f64 / rep.offered as f64),
        ("placement_wait_mean_slots", rep.placement_wait_mean_slots),
    ];
    debug_assert!(values
        .iter()
        .map(|v| v.0)
        .eq(END_TO_END.iter().map(|m| m.name)));
    Ok(values.into_iter().collect())
}

/// A JSON object of numbers.
fn numbers<K: Into<String>>(map: impl IntoIterator<Item = (K, f64)>) -> Value {
    Value::obj(map.into_iter().map(|(k, v)| (k, Value::Num(v))))
}

/// Body of the `child` subcommand: one repetition, reported as one line
/// of JSON on standard output.
pub fn child_main(
    workload: &str,
    seed: u64,
    quick: bool,
    trace: Option<Trace>,
) -> Result<(), String> {
    let sizes = if quick { Sizes::QUICK } else { Sizes::FULL };
    let rep = workloads::run(workload, seed, sizes, trace)?;
    let e2e = end_to_end(&rep)?;
    let line = Value::obj([
        ("e2e", numbers(e2e)),
        ("layers", numbers(rep.layers.0)),
        ("digest", Value::Str(rep.digest)),
        ("offered", Value::Num(rep.offered as f64)),
        ("failed", Value::Num(rep.failed as f64)),
        ("run_s", Value::Num(rep.run.net_s())),
    ]);
    println!("{}", line.compact());
    Ok(())
}

/// Runs one repetition in a child process and waits for it.
fn spawn_child(
    workload: &str,
    seed: u64,
    quick: bool,
    trace: Option<Trace>,
) -> Result<ChildRep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let flag = |on: bool| if on { "1" } else { "0" };
    let output = Command::new(exe)
        .args(["child", "--workload", workload, "--seed", &seed.to_string()])
        .args(["--trace", flag(trace.is_some())])
        .args(["--kernels", flag(trace.is_some_and(|t| t.kernels))])
        .args(quick.then_some("--quick"))
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the child process: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload}: repetition failed ({})", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let value = json::parse(line)?;
    let map_of = |key: &str| -> Result<BTreeMap<String, f64>, String> {
        value
            .get(key)
            .and_then(Value::as_obj)
            .ok_or_else(|| format!("child output lacks `{key}`"))?
            .iter()
            .map(|(k, v)| {
                let n = v.as_f64().ok_or_else(|| format!("`{k}` is not a number"));
                n.map(|n| (k.clone(), n))
            })
            .collect()
    };
    let number = |key: &str| {
        value
            .get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("child output lacks `{key}`"))
    };
    Ok(ChildRep {
        e2e: map_of("e2e")?,
        layers: map_of("layers")?,
        digest: value
            .get("digest")
            .and_then(Value::as_str)
            .ok_or("child output lacks `digest`")?
            .to_string(),
        offered: number("offered")? as u64,
        failed: number("failed")? as u64,
        run_s: number("run_s")?,
    })
}

/// All repetitions of one workload under one seed.
pub struct Measurement {
    pub workload: &'static str,
    pub untraced: Vec<ChildRep>,
    pub traced: Vec<ChildRep>,
}

impl Measurement {
    fn new(workload: &'static str) -> Self {
        Measurement {
            workload,
            untraced: Vec::new(),
            traced: Vec::new(),
        }
    }

    /// A fixed number of repetitions: optionally one discarded warm-up,
    /// `reps` untraced ones, then one traced one with the kernel timings.
    pub fn fixed(
        workload: &'static str,
        seed: u64,
        quick: bool,
        warm_up: bool,
        reps: usize,
    ) -> Result<Self, String> {
        let mut m = Measurement::new(workload);
        if warm_up {
            spawn_child(workload, seed, quick, None)?;
        }
        for _ in 0..reps {
            m.untraced.push(spawn_child(workload, seed, quick, None)?);
        }
        m.traced.push(spawn_child(
            workload,
            seed,
            quick,
            Some(Trace { kernels: true }),
        )?);
        m.check()?;
        Ok(m)
    }

    /// Repetitions for `seconds`: it stops before the repetition that
    /// would overrun, but not before `MIN_REPS` untraced ones (one pair
    /// when traced). Untraced only, or alternating with traced ones, the
    /// first of which also times the kernels.
    pub fn timed(
        workload: &'static str,
        seed: u64,
        seconds: f64,
        traced: bool,
    ) -> Result<Self, String> {
        const MIN_REPS: usize = 3;
        let mut m = Measurement::new(workload);
        let start = Instant::now();
        let mut longest_round: f64 = 0.0;
        loop {
            let round = Instant::now();
            m.untraced.push(spawn_child(workload, seed, false, None)?);
            if traced {
                let kernels = m.traced.is_empty();
                m.traced
                    .push(spawn_child(workload, seed, false, Some(Trace { kernels }))?);
            }
            longest_round = longest_round.max(round.elapsed().as_secs_f64());
            let enough = traced || m.untraced.len() >= MIN_REPS;
            if enough && start.elapsed().as_secs_f64() + longest_round > seconds {
                break;
            }
        }
        m.check()?;
        Ok(m)
    }

    /// The checks no single repetition can make: every repetition, traced
    /// or not, serialized the same report (a decorator that changes a
    /// decision shows here), and the counts repeat exactly.
    fn check(&self) -> Result<(), String> {
        let mut reps = self.untraced.iter().chain(&self.traced);
        let first = reps.next().ok_or("no repetition ran")?;
        if let Some(other) = reps.find(|r| r.digest != first.digest) {
            return Err(format!(
                "{}: report digests differ between repetitions ({} vs {}): \
                 the run is not repeatable, or tracing changed a decision",
                self.workload, first.digest, other.digest
            ));
        }
        for rep in &self.traced {
            if let Some(name) = rep
                .layers
                .keys()
                .find(|name| PER_LAYER.iter().all(|l| l.name != name.as_str()))
            {
                return Err(format!(
                    "{}: a repetition reported the undeclared metric `{name}`",
                    self.workload
                ));
            }
        }
        for layer in PER_LAYER.iter().filter(|l| l.unit == "count") {
            let mut values = self.traced.iter().filter_map(|r| r.layers.get(layer.name));
            if let Some(first) = values.next() {
                if values.any(|v| v != first) {
                    return Err(format!(
                        "{}: count `{}` differs between traced repetitions",
                        self.workload, layer.name
                    ));
                }
            }
        }
        Ok(())
    }

    /// One value per untraced repetition.
    pub fn samples(&self, metric: &str) -> Vec<f64> {
        self.untraced
            .iter()
            .filter_map(|r| r.e2e.get(metric).copied())
            .collect()
    }

    /// A per-layer metric: the median over the traced repetitions that
    /// measured it; 0 when the workload does not run the layer.
    pub fn layer(&self, metric: &str) -> f64 {
        if metric == "trace.overhead_ratio" {
            let wall = |reps: &[ChildRep]| {
                stats::median(&mut reps.iter().map(|r| r.run_s).collect::<Vec<_>>())
            };
            return wall(&self.traced) / wall(&self.untraced);
        }
        let mut values: Vec<f64> = self
            .traced
            .iter()
            .filter_map(|r| r.layers.get(metric).copied())
            .collect();
        stats::median(&mut values)
    }

    /// Jobs offered, over the untraced repetitions.
    pub fn attempted(&self) -> u64 {
        self.untraced.iter().map(|r| r.offered).sum()
    }

    /// Jobs the engine rejected or left unfinished, and plan actions it
    /// dropped, over the untraced repetitions.
    pub fn failed(&self) -> u64 {
        self.untraced.iter().map(|r| r.failed).sum()
    }
}
