//! The benchmark record (`results/latest.json`): who measured, with what
//! seed and how often, and per workload × metric the median with its
//! spread. Also what reads it back: the printed table, and `compare`.

use crate::json::{self, Value};
use crate::measure::Measurement;
use crate::spec::{Better, END_TO_END, PER_LAYER};
use crate::stats;
use std::fmt::Write as _;
use std::process::Command;

pub const SCHEMA: &str = "corp-benchmark/1";
pub const DEFAULT_OUT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/results/latest.json");

/// First line of a command's standard output, or "unknown".
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host a record was measured on. Thread counts are the program's own
/// defaults; the benchmark itself generates load from one thread.
fn host() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Value::obj([
        (
            "nproc",
            Value::Num(corp_core::pipeline::hardware_parallelism() as f64),
        ),
        ("cpu", Value::Str(cpu)),
        ("rustc", Value::Str(first_line("rustc", &["--version"]))),
        (
            "commit",
            Value::Str(first_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "pool_width",
            Value::Num(corp_core::pipeline::configured_pool_width() as f64),
        ),
    ])
}

/// Builds the record of one `run`.
pub fn build(seed: u64, quick: bool, measurements: &[Measurement]) -> Value {
    let workloads = measurements.iter().map(|m| {
        let end_to_end = END_TO_END.iter().map(|e| {
            let mut samples = m.samples(e.name);
            let median = stats::median(&mut samples);
            let (q1, q3) = stats::quartiles(&samples).unwrap_or((median, median));
            let entry = Value::obj([
                ("unit", Value::Str(e.unit.to_string())),
                ("better", Value::Str(e.better.as_str().to_string())),
                ("bound", Value::Num(e.bound)),
                ("simulated", Value::Bool(e.simulated)),
                ("median", Value::Num(median)),
                ("min", Value::Num(samples.first().copied().unwrap_or(0.0))),
                ("max", Value::Num(samples.last().copied().unwrap_or(0.0))),
                ("q1", Value::Num(q1)),
                ("q3", Value::Num(q3)),
                ("n", Value::Num(samples.len() as f64)),
            ]);
            (e.name, entry)
        });
        let per_layer = PER_LAYER.iter().map(|l| {
            let entry = Value::obj([
                ("unit", Value::Str(l.unit.to_string())),
                ("better", Value::Str(l.better.as_str().to_string())),
                ("value", Value::Num(m.layer(l.name))),
            ]);
            (l.name, entry)
        });
        let entry = Value::obj([
            ("digest", Value::Str(m.untraced[0].digest.clone())),
            ("attempted", Value::Num(m.attempted() as f64)),
            ("failed", Value::Num(m.failed() as f64)),
            ("end_to_end", Value::obj(end_to_end)),
            ("per_layer", Value::obj(per_layer)),
        ]);
        (m.workload, entry)
    });
    Value::obj([
        ("schema", Value::Str(SCHEMA.to_string())),
        ("host", host()),
        ("seed", Value::Num(seed as f64)),
        ("quick", Value::Bool(quick)),
        (
            "repetitions",
            Value::Num(measurements.first().map_or(0, |m| m.untraced.len()) as f64),
        ),
        ("workloads", Value::obj(workloads)),
    ])
}

pub fn write(path: &str, record: &Value) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, record.pretty()).map_err(|e| format!("{path}: {e}"))
}

pub fn read(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let record = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if record.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        return Err(format!("{path}: not a `{SCHEMA}` record"));
    }
    Ok(record)
}

fn workloads(record: &Value) -> Result<&[(String, Value)], String> {
    record
        .get("workloads")
        .and_then(Value::as_obj)
        .ok_or_else(|| "record has no `workloads`".to_string())
}

fn field(entry: &Value, key: &str) -> Result<f64, String> {
    entry
        .get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("record entry lacks `{key}`"))
}

/// Every metric of a record by name, with unit, median, min, max and
/// sample count.
pub fn table(record: &Value) -> Result<String, String> {
    let unit = |entry: &Value| {
        let unit = entry.get("unit").and_then(Value::as_str);
        unit.unwrap_or("?").to_string()
    };
    let mut out = String::new();
    if let Some(host) = record.get("host") {
        writeln!(out, "host: {}", host.compact()).expect("String");
    }
    for (name, workload) in workloads(record)? {
        writeln!(
            out,
            "\n== {name}\n{:<28} {:>6} {:>14} {:>14} {:>14} {:>3}",
            "end-to-end", "unit", "median", "min", "max", "n"
        )
        .expect("String");
        let metrics = workload.get("end_to_end").and_then(Value::as_obj);
        for (metric, entry) in metrics.ok_or("workload lacks `end_to_end`")? {
            writeln!(
                out,
                "{:<28} {:>6} {:>14.6} {:>14.6} {:>14.6} {:>3}",
                metric,
                unit(entry),
                field(entry, "median")?,
                field(entry, "min")?,
                field(entry, "max")?,
                field(entry, "n")?,
            )
            .expect("String");
        }
        writeln!(
            out,
            "{:<36} {:>6} {:>14}",
            "per-layer (traced)", "unit", "value"
        )
        .expect("String");
        let layers = workload.get("per_layer").and_then(Value::as_obj);
        for (metric, entry) in layers.ok_or("workload lacks `per_layer`")? {
            let value = field(entry, "value")?;
            // A layer the workload does not run reads 0: leave it out.
            if value != 0.0 {
                writeln!(out, "{:<36} {:>6} {:>14.6}", metric, unit(entry), value).expect("String");
            }
        }
    }
    Ok(out)
}

/// Compares record `b` (the change) against record `a` (the parent), row
/// by workload × end-to-end metric, with the bounds the benchmark fixed. A
/// row whose own run-to-run spread (quartile distance over median, the
/// wider of the two records) exceeds its bound is `unresolved`, not `ok`.
/// Returns the report and whether every row is `ok`.
pub fn compare(a: &Value, b: &Value) -> Result<(String, bool), String> {
    let mut out = String::new();
    let mut agree = true;
    writeln!(
        out,
        "{:<16} {:<26} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse", "spread", "bound"
    )
    .expect("String");
    let b_workloads = workloads(b)?;
    for (name, wa) in workloads(a)? {
        let Some((_, wb)) = b_workloads.iter().find(|(n, _)| n == name) else {
            writeln!(out, "{name:<16} missing from B").expect("String");
            agree = false;
            continue;
        };
        for metric in END_TO_END {
            let entry = |w: &Value| {
                w.get("end_to_end")
                    .and_then(|e| e.get(metric.name))
                    .cloned()
                    .ok_or_else(|| format!("{name}: record lacks `{}`", metric.name))
            };
            let (ea, eb) = (entry(wa)?, entry(wb)?);
            let (ma, mb) = (field(&ea, "median")?, field(&eb, "median")?);
            let spread = |e: &Value| -> Result<f64, String> {
                Ok((field(e, "q3")? - field(e, "q1")?) / field(e, "median")?.abs().max(1e-300))
            };
            let spread = spread(&ea)?.max(spread(&eb)?);
            let change = (mb - ma) / ma.abs().max(1e-300);
            let worse = match metric.better {
                Better::Higher => -change,
                Better::Lower => change,
            };
            let verdict = if spread > metric.bound {
                "unresolved"
            } else if worse > metric.bound {
                "REGRESSION"
            } else if ma == mb {
                "ok (identical)"
            } else {
                "ok"
            };
            agree &= verdict.starts_with("ok");
            writeln!(
                out,
                "{:<16} {:<26} {:>14.6} {:>14.6} {:>+7.2}% {:>6.2}% {:>6.2}%  {}",
                name,
                metric.name,
                ma,
                mb,
                worse * 100.0,
                spread * 100.0,
                metric.bound * 100.0,
                verdict
            )
            .expect("String");
        }
        // Counts are exact: list the ones that moved, as information.
        for layer in PER_LAYER.iter().filter(|l| l.unit == "count") {
            let value = |w: &Value| {
                w.get("per_layer")
                    .and_then(|p| p.get(layer.name))
                    .and_then(|e| e.get("value"))
                    .and_then(Value::as_f64)
            };
            if let (Some(ca), Some(cb)) = (value(wa), value(wb)) {
                if ca != cb {
                    writeln!(out, "{name:<16} count {} moved: {ca} -> {cb}", layer.name)
                        .expect("String");
                }
            }
        }
    }
    Ok((out, agree))
}
