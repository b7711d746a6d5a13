//! The CORP benchmark. See `benchmark/README.md`.
//!
//! ```text
//! corp-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, one JSON line
//! corp-benchmark run [--seed N] [--quick] [--out PATH]            every workload, a table and a record
//! corp-benchmark compare A.json B.json                            two records against the bounds
//! ```

mod clock;
mod json;
mod kernels;
mod measure;
mod record;
mod spec;
mod stats;
mod timed;
mod workloads;

use json::Value;
use measure::Measurement;
use spec::{END_TO_END, PER_LAYER, WORKLOADS};
use std::process::ExitCode;
use workloads::Trace;

/// The seed `run` uses when none is given.
const DEFAULT_SEED: u64 = 11;

/// `--name value` pairs and bare words of a command line.
struct Args {
    flags: Vec<(String, String)>,
    words: Vec<String>,
}

impl Args {
    /// `switches` are the flags that take no value.
    fn parse(args: &[String], switches: &[&str]) -> Result<Self, String> {
        let mut parsed = Args {
            flags: Vec::new(),
            words: Vec::new(),
        };
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            match arg.strip_prefix("--") {
                Some(name) if switches.contains(&name) => {
                    parsed.flags.push((name.to_string(), "1".to_string()));
                }
                Some(name) => {
                    let value = rest.next().ok_or(format!("`{arg}` needs a value"))?;
                    parsed.flags.push((name.to_string(), value.clone()));
                }
                None => parsed.words.push(arg.clone()),
            }
        }
        Ok(parsed)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("bad value `{v}` for --{name}"))
            })
            .transpose()
    }

    fn required<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.number(name)?.ok_or(format!("--{name} is required"))
    }

    fn switch(&self, name: &str) -> Result<bool, String> {
        Ok(self.number::<u8>(name)?.unwrap_or(0) != 0)
    }
}

fn declared_workload(name: &str) -> Result<&'static str, String> {
    WORKLOADS
        .iter()
        .map(|w| w.name)
        .find(|w| *w == name)
        .ok_or_else(|| {
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            format!(
                "unknown workload `{name}`; the workloads are {}",
                names.join(", ")
            )
        })
}

/// The contract form: one workload measured for `--seconds`, and one JSON
/// object as the last line of standard output — the end-to-end metrics
/// from untraced repetitions, or with `--trace 1` the per-layer ones.
fn driver(args: &Args) -> Result<(), String> {
    let workload = declared_workload(args.get("workload").ok_or("--workload is required")?)?;
    let seed: u64 = args.required("seed")?;
    let seconds: f64 = args.required("seconds")?;
    let traced = args.switch("trace")?;
    let m = Measurement::timed(workload, seed, seconds, traced)?;
    let metric = |value: f64, unit: &str| {
        Value::obj([
            ("value", Value::Num(value)),
            ("unit", Value::Str(unit.to_string())),
        ])
    };
    let metrics = if traced {
        Value::obj(
            PER_LAYER
                .iter()
                .map(|l| (l.name, metric(m.layer(l.name), l.unit))),
        )
    } else {
        Value::obj(END_TO_END.iter().map(|e| {
            let value = stats::median(&mut m.samples(e.name));
            (e.name, metric(value, e.unit))
        }))
    };
    let line = Value::obj([
        ("correct", Value::Bool(true)),
        ("attempted", Value::Num(m.attempted() as f64)),
        ("failed", Value::Num(m.failed() as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", line.compact());
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    let seed = args.number("seed")?.unwrap_or(DEFAULT_SEED);
    let quick = args.switch("quick")?;
    let out = args.get("out").unwrap_or(record::DEFAULT_OUT);
    if quick {
        println!("--quick: a twentieth of the jobs, one repetition. It checks names, schema and");
        println!("correctness; its timings are NOT comparable with anything.\n");
    }
    let (warm_up, reps) = if quick { (false, 1) } else { (true, 5) };
    let mut measurements = Vec::new();
    for workload in WORKLOADS {
        eprintln!("{}: {}", workload.name, workload.why);
        measurements.push(Measurement::fixed(
            workload.name,
            seed,
            quick,
            warm_up,
            reps,
        )?);
    }
    let record = record::build(seed, quick, &measurements);
    print!("{}", record::table(&record)?);
    record::write(out, &record)?;
    println!("\nrecord written to {out}");
    Ok(())
}

fn compare(args: &Args) -> Result<bool, String> {
    let [a, b] = args.words.as_slice() else {
        return Err("usage: compare A.json B.json".to_string());
    };
    let (text, agree) = record::compare(&record::read(a)?, &record::read(b)?)?;
    print!("{text}");
    Ok(agree)
}

fn child(args: &Args) -> Result<(), String> {
    let trace = args.switch("trace")?.then_some(Trace {
        kernels: args.switch("kernels")?,
    });
    measure::child_main(
        args.get("workload").ok_or("--workload is required")?,
        args.required("seed")?,
        args.switch("quick")?,
        trace,
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(word) if !word.starts_with("--") => (word, &argv[1..]),
        _ => ("", &argv[..]),
    };
    let outcome = Args::parse(rest, &["quick"]).and_then(|args| match command {
        "" => driver(&args).map(|()| true),
        "run" => run(&args).map(|()| true),
        "compare" => compare(&args),
        "child" => child(&args).map(|()| true),
        other => Err(format!(
            "unknown command `{other}` (run, compare, or --workload ...)"
        )),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("corp-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
