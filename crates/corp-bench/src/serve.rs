//! The `corp-exp serve` subcommand: CLI parsing, the serving-mode
//! experiment cell, and its report table.
//!
//! `serve` is a different shape from the figure runners: it takes flags
//! (`--replay`, `--speed`, `--seed`, …), so `corp_exp` special-cases it
//! before the figure loop and hands the raw argument list to
//! [`ServeArgs::parse`]. The actual run goes through [`run_serve`] (or
//! [`run_serve_sharded`] under `--shards`, which also surfaces coordinator
//! errors and recovery counters), which tests reuse to pin
//! byte-determinism across pool widths and replay speeds and cross-mode
//! equivalence against the batch simulation.

use crate::env::{
    build_provisioner, build_sharded_provisioner, Environment, SchemeKind, SchemeParams,
};
use crate::flags::Flags;
use crate::FigureTable;
use crate::TextTable;
use corp_serve::{BackpressurePolicy, ReplaySpeed, ServeConfig, ServeDaemon, ServeOutcome};
use corp_sim::SimulationOptions;
use corp_trace::JobSpec;
use std::cell::{Cell, RefCell};
use std::path::PathBuf;
use std::rc::Rc;

/// Validates a `--seed` value: it must parse as `u64` and be non-zero
/// (seed 0 is reserved as "unset" by several vendored-RNG call sites, and
/// a silently-defaulted seed would defeat the reproducibility contract).
pub fn parse_seed(s: &str) -> Result<u64, String> {
    match s.trim().parse::<u64>() {
        Ok(0) => Err("invalid --seed `0`: seed must be non-zero".to_string()),
        Ok(v) => Ok(v),
        Err(_) => Err(format!(
            "invalid --seed `{s}`: expected a non-zero unsigned integer"
        )),
    }
}

/// Parsed `corp-exp serve` flags.
#[derive(Debug, Clone)]
pub struct ServeArgs {
    /// External trace to stream (`--trace PATH`): a recorded corp trace
    /// (loaded whole — the format is line-oriented jobs) or a Google-style
    /// task-event CSV, decoded lazily through the `JobSource` pipeline so
    /// arbitrarily long CSVs feed the daemon in bounded memory.
    pub trace: Option<PathBuf>,
    /// Recorded trace to replay (`--replay PATH`); synthesized workload
    /// when absent.
    pub replay: Option<PathBuf>,
    /// Record the (synthesized) workload to this path before serving
    /// (`--record PATH`).
    pub record: Option<PathBuf>,
    /// Replay pacing (`--speed inf|N`).
    pub speed: ReplaySpeed,
    /// Workload/scheme seed (`--seed S`, non-zero).
    pub seed: u64,
    /// Synthesized workload size (`--jobs N`).
    pub jobs: usize,
    /// Admission-queue capacity (`--queue-cap C`).
    pub queue_cap: usize,
    /// Backpressure policy (`--policy block|shed-oldest|reject-new`).
    pub policy: BackpressurePolicy,
    /// Worker-pool width override (`--width W`).
    pub width: Option<usize>,
    /// Run behind a sharded control plane (`--shards K`); monolithic when
    /// absent. Sharded runs surface coordinator errors and recovery
    /// counters in the summary.
    pub shards: Option<usize>,
    /// Assert the smoke invariants after the run (`--smoke`).
    pub smoke: bool,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            trace: None,
            replay: None,
            record: None,
            speed: ReplaySpeed::Infinite,
            seed: SchemeParams::default().seed,
            jobs: 200,
            queue_cap: ServeConfig::default().queue_capacity,
            policy: BackpressurePolicy::Block,
            width: None,
            shards: None,
            smoke: false,
        }
    }
}

impl ServeArgs {
    /// Parses the flags following `serve` on the command line. Unknown
    /// flags and malformed values produce an error string for the caller
    /// to print (exit 2), never a panic.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut out = ServeArgs::default();
        let mut flags = Flags::new("serve", args);
        while let Some(flag) = flags.next_flag() {
            match flag {
                "--trace" => out.trace = Some(PathBuf::from(flags.value(flag)?)),
                "--replay" => out.replay = Some(PathBuf::from(flags.value(flag)?)),
                "--record" => out.record = Some(PathBuf::from(flags.value(flag)?)),
                "--speed" => out.speed = ReplaySpeed::parse(flags.value(flag)?)?,
                "--seed" => out.seed = parse_seed(flags.value(flag)?)?,
                "--jobs" => out.jobs = flags.count(flag, 0)?,
                "--queue-cap" => out.queue_cap = flags.count(flag, 1)?,
                "--policy" => out.policy = BackpressurePolicy::parse(flags.value(flag)?)?,
                "--width" => out.width = Some(flags.count(flag, 1)?),
                "--shards" => out.shards = Some(flags.count(flag, 1)?),
                "--smoke" => out.smoke = true,
                other => return Err(flags.unknown(other)),
            }
        }
        Ok(out)
    }
}

/// The daemon one serving cell runs on: the environment's fleet, engine
/// decision timing off (serve reports are byte-deterministic).
pub(crate) fn cell_daemon(env: Environment, config: ServeConfig) -> ServeDaemon {
    let options = SimulationOptions {
        measure_decision_time: false,
        ..Default::default()
    };
    ServeDaemon::new(env.cluster(), options, config)
}

/// Runs one serving-mode cell: builds the scheme provisioner exactly as
/// `run_cell` does (same seeding, same pool knobs) and replays `jobs`
/// through the daemon. The pool width rides in through `params`, so the
/// serve determinism tests sweep it the same way `tests/pool_runtime.rs`
/// does for batch mode.
pub fn run_serve(
    env: Environment,
    scheme: SchemeKind,
    jobs: impl IntoIterator<Item = JobSpec>,
    params: &SchemeParams,
    config: ServeConfig,
) -> ServeOutcome {
    let mut provisioner = build_provisioner(scheme, env, params);
    cell_daemon(env, config).run(provisioner.as_mut(), jobs)
}

/// Like [`run_serve`], but behind a `shards`-way sharded control plane.
/// Also returns the coordinator's unrecovered errors, stringified — they
/// live on the provisioner, not in the report, and the summary prints
/// them when nonzero.
pub fn run_serve_sharded(
    env: Environment,
    scheme: SchemeKind,
    jobs: impl IntoIterator<Item = JobSpec>,
    params: &SchemeParams,
    shards: usize,
    config: ServeConfig,
) -> (ServeOutcome, Vec<String>) {
    let mut provisioner = build_sharded_provisioner(scheme, env, params, shards, None);
    let outcome = cell_daemon(env, config).run(&mut provisioner, jobs);
    let errors = provisioner.errors().iter().map(|e| e.to_string()).collect();
    (outcome, errors)
}

/// The workload a `serve` invocation uses when not replaying a recorded
/// file: the standard CORP cluster workload under the CLI seed (the same
/// generator `run_cell` drives, so cross-mode comparisons are meaningful).
pub fn serve_workload(env: Environment, num_jobs: usize, seed: u64) -> Vec<JobSpec> {
    env.workload(num_jobs, seed.wrapping_add(num_jobs as u64))
}

/// Where a lazily decoded `--trace` feed leaves the error that ended it.
type DecodeFailure = Rc<RefCell<Option<String>>>;

/// `error` as the failure of `flag PATH`: every path-taking flag names
/// itself and its path in front of what went wrong.
fn path_error(flag: &str, path: &std::path::Path, error: impl std::fmt::Display) -> String {
    format!("{flag} {}: {error}", path.display())
}

/// Opens `--trace PATH` as a job feed: a recorded corp trace (sniffed by
/// its header line, loaded whole — the format is one job per few lines)
/// or a Google-style task-event CSV decoded lazily through the
/// `JobSource` pipeline, so arbitrarily long CSVs stream into the daemon
/// in bounded memory. The daemon's arrival stream cannot carry an error,
/// so a malformed CSV row ends the feed there and leaves its message
/// (path, line number, byte offset) in `failed` for the caller to return
/// once the stream has been consumed.
fn open_trace_feed(
    path: &std::path::Path,
    failed: &DecodeFailure,
) -> Result<Box<dyn Iterator<Item = JobSpec>>, String> {
    use std::io::BufRead;
    let open = || std::fs::File::open(path).map_err(|e| path_error("--trace", path, e));
    // The recorded format allows comment/blank preamble lines before the
    // header, so sniff past them.
    let mut header = String::new();
    for line in std::io::BufReader::new(open()?).lines() {
        let line = line.map_err(|e| path_error("--trace", path, e))?;
        let t = line.trim();
        if !t.is_empty() && !t.starts_with('#') {
            header = t.to_string();
            break;
        }
    }
    if header == corp_trace::TRACE_HEADER {
        let jobs = corp_trace::load_trace(path).map_err(|e| path_error("--trace", path, e))?;
        Ok(Box::new(jobs.into_iter()))
    } else {
        let records = corp_trace::GoogleCsvReader::new(std::io::BufReader::new(open()?));
        let source = corp_trace::TraceJobSource::new(records, corp_trace::IngestConfig::default());
        let (failed, path) = (Rc::clone(failed), path.to_path_buf());
        Ok(Box::new(source.map_while(move |spec| {
            spec.map_err(|e| *failed.borrow_mut() = Some(path_error("--trace", &path, e)))
                .ok()
        })))
    }
}

/// Executes `corp-exp serve` end to end and renders the report table.
/// Returns an error string (for exit 2) on unreadable traces or failed
/// smoke assertions.
pub fn serve_experiment(fast: bool, args: &ServeArgs) -> Result<FigureTable, String> {
    let env = Environment::Cluster;
    if args.trace.is_some() && args.replay.is_some() {
        return Err("pick one of --trace / --replay".to_string());
    }
    let failed = DecodeFailure::default();
    let feed: Box<dyn Iterator<Item = JobSpec>> = match (&args.trace, &args.replay) {
        (Some(path), _) => open_trace_feed(path, &failed)?,
        (None, Some(path)) => Box::new(
            corp_trace::load_trace(path)
                .map_err(|e| path_error("--replay", path, e))?
                .into_iter(),
        ),
        (None, None) => Box::new(serve_workload(env, args.jobs, args.seed).into_iter()),
    };
    // The feed is consumed lazily, so the job count — and whether a
    // `--trace` row failed to decode — is only known once the stream has
    // been drained; count arrivals as they pass.
    let submitted = Rc::new(Cell::new(0usize));
    let counter = Rc::clone(&submitted);
    let feed = feed.inspect(move |_| counter.set(counter.get() + 1));
    let decode_failure = || match failed.borrow_mut().take() {
        Some(e) => Err(format!("{e} (after {} jobs)", submitted.get())),
        None => Ok(()),
    };
    // Recording needs the whole workload in hand, so it materializes the
    // feed — it also doubles as a CSV → recorded-trace converter.
    let feed: Box<dyn Iterator<Item = JobSpec>> = if let Some(path) = &args.record {
        let jobs: Vec<JobSpec> = feed.collect();
        decode_failure()?;
        corp_trace::save_trace(path, &jobs).map_err(|e| path_error("--record", path, e))?;
        Box::new(jobs.into_iter())
    } else {
        Box::new(feed)
    };
    let params = SchemeParams {
        fast_dnn: fast,
        seed: args.seed,
        pool_width: args.width,
        ..Default::default()
    };
    let config = ServeConfig {
        queue_capacity: args.queue_cap,
        policy: args.policy,
        speed: args.speed,
        ..ServeConfig::default()
    };
    let (outcome, errors) = match args.shards {
        Some(shards) => run_serve_sharded(env, SchemeKind::Corp, feed, &params, shards, config),
        None => (
            run_serve(env, SchemeKind::Corp, feed, &params, config),
            Vec::new(),
        ),
    };
    decode_failure()?;
    let num_jobs = submitted.get();
    let r = &outcome.report;

    if args.smoke {
        // The serve-smoke gate: at low load the daemon must measure a
        // latency for every placed job and shed nothing.
        if r.placement_latency.count == 0 {
            return Err("serve smoke: no placement latencies measured".to_string());
        }
        if r.queue.shed != 0 || r.queue.rejected != 0 {
            return Err(format!(
                "serve smoke: lossless low-load run shed {} / rejected {}",
                r.queue.shed, r.queue.rejected
            ));
        }
        if r.sim.completed + r.sim.rejected + r.sim.unfinished != num_jobs {
            return Err("serve smoke: job conservation violated".to_string());
        }
    }

    let mut table = TextTable::new(
        format!(
            "Serving mode: {} jobs, queue cap {}, policy {}, CORP on the cluster profile",
            num_jobs,
            args.queue_cap,
            args.policy.name()
        ),
        &["metric", "value"],
    );
    let mut row = |k: &str, v: String| table.push_row(vec![k.to_string(), v]);
    row(
        "placements measured",
        format!("{}", r.placement_latency.count),
    );
    row(
        "placement latency p50",
        format!("{:.1} s", r.placement_latency.p50_micros / 1e6),
    );
    row(
        "placement latency p95",
        format!("{:.1} s", r.placement_latency.p95_micros / 1e6),
    );
    row(
        "placement latency p99",
        format!("{:.1} s", r.placement_latency.p99_micros / 1e6),
    );
    row(
        "placement latency max",
        format!("{:.1} s", r.placement_latency.max_micros / 1e6),
    );
    row("queue high-water", format!("{}", r.queue.high_water));
    row(
        "admitted / blocked / shed / rejected",
        format!(
            "{} / {} / {} / {}",
            r.queue.admitted, r.queue.blocked, r.queue.shed, r.queue.rejected
        ),
    );
    row(
        "overall utilization",
        format!("{:.3}", r.sim.overall_utilization),
    );
    row(
        "SLO violation rate",
        format!("{:.1}%", r.sim.slo_violation_rate * 100.0),
    );
    row(
        "completed / unfinished",
        format!("{} / {}", r.sim.completed, r.sim.unfinished),
    );
    row("ticks (slots)", format!("{}", r.ticks));
    row("events processed", format!("{}", r.events_processed));
    row(
        "virtual time served",
        format!("{:.0} s", r.virtual_end_micros as f64 / 1e6),
    );
    row(
        "throughput (wall)",
        format!("{:.0} events/s", outcome.events_per_sec),
    );
    // Sharded runs expose the control plane's failure/recovery accounting
    // — printed only when something actually happened, so the healthy
    // monolithic summary stays unchanged.
    if let Some(cp) = &r.sim.control_plane {
        if cp.worker_kills + cp.worker_panics + cp.worker_restarts > 0 {
            row(
                "worker kills / panics / restarts",
                format!(
                    "{} / {} / {}",
                    cp.worker_kills, cp.worker_panics, cp.worker_restarts
                ),
            );
        }
        if cp.inline_slots + cp.isolated_slots > 0 {
            row(
                "inline / breaker-isolated slots",
                format!("{} / {}", cp.inline_slots, cp.isolated_slots),
            );
        }
        if cp.breaker_opens + cp.breaker_half_opens + cp.breaker_closes > 0 {
            row(
                "breaker opens / half-opens / closes",
                format!(
                    "{} / {} / {}",
                    cp.breaker_opens, cp.breaker_half_opens, cp.breaker_closes
                ),
            );
        }
    }
    if !errors.is_empty() {
        row(
            "unrecovered control-plane errors",
            format!("{}", errors.len()),
        );
        for e in &errors {
            row("error", e.clone());
        }
    }

    Ok(FigureTable {
        id: "serve".to_string(),
        table,
        notes: vec![
            format!(
                "Report serialization is byte-deterministic for a fixed seed/trace; \
                 wall throughput ({:.2}s total) deliberately rides outside it.",
                outcome.wall_secs
            ),
            "At infinite speed and open queue capacity, serve mode places the same jobs \
             on the same VMs as the slot-loop simulation (pinned by tests/serve_runtime.rs)."
                .to_string(),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_validation_accepts_nonzero_integers() {
        assert_eq!(parse_seed("7"), Ok(7));
        assert_eq!(parse_seed(" 42 "), Ok(42));
        assert_eq!(parse_seed(&u64::MAX.to_string()), Ok(u64::MAX));
    }

    #[test]
    fn seed_validation_rejects_zero_and_garbage() {
        assert!(parse_seed("0").unwrap_err().contains("non-zero"));
        assert!(parse_seed("abc").unwrap_err().contains("invalid --seed"));
        assert!(parse_seed("-3").unwrap_err().contains("invalid --seed"));
        assert!(parse_seed("1.5").unwrap_err().contains("invalid --seed"));
        assert!(parse_seed("").unwrap_err().contains("invalid --seed"));
    }

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn serve_args_parse_full_flag_set() {
        let args = ServeArgs::parse(&strings(&[
            "--replay",
            "/tmp/t.trace",
            "--speed",
            "inf",
            "--seed",
            "9",
            "--queue-cap",
            "32",
            "--policy",
            "shed-oldest",
            "--width",
            "2",
            "--smoke",
        ]))
        .expect("parse");
        assert_eq!(args.replay, Some(PathBuf::from("/tmp/t.trace")));
        assert_eq!(args.speed, ReplaySpeed::Infinite);
        assert_eq!(args.seed, 9);
        assert_eq!(args.queue_cap, 32);
        assert_eq!(args.policy, BackpressurePolicy::ShedOldest);
        assert_eq!(args.width, Some(2));
        assert!(args.smoke);
    }

    #[test]
    fn serve_args_reject_bad_values_without_panicking() {
        assert!(ServeArgs::parse(&strings(&["--seed", "0"]))
            .unwrap_err()
            .contains("non-zero"));
        assert!(ServeArgs::parse(&strings(&["--seed"]))
            .unwrap_err()
            .contains("requires a value"));
        assert!(ServeArgs::parse(&strings(&["--speed", "-1"]))
            .unwrap_err()
            .contains("replay speed"));
        assert!(ServeArgs::parse(&strings(&["--queue-cap", "0"]))
            .unwrap_err()
            .contains("queue-cap"));
        assert!(ServeArgs::parse(&strings(&["--frobnicate"]))
            .unwrap_err()
            .contains("unknown serve flag"));
    }

    #[test]
    fn trace_flag_parses_and_conflicts_with_replay() {
        let args = ServeArgs::parse(&strings(&["--trace", "/tmp/t.csv"])).expect("parse");
        assert_eq!(args.trace, Some(PathBuf::from("/tmp/t.csv")));
        let both = ServeArgs {
            trace: Some(PathBuf::from("a")),
            replay: Some(PathBuf::from("b")),
            ..ServeArgs::default()
        };
        assert!(serve_experiment(true, &both)
            .unwrap_err()
            .contains("pick one"));
    }

    #[test]
    fn trace_feed_decodes_google_csv_and_recorded_traces() {
        let dir = std::env::temp_dir();
        // A Google-style CSV: two short tasks of one job, 100 s lifetime.
        let csv = dir.join("corp-serve-test.csv");
        std::fs::write(
            &csv,
            "# start,end,job_id,task_index,cpu,memory,storage\n\
             0,100,1,0,1.0,2.0,3.0\n\
             0,100,1,1,0.5,1.0,1.5\n",
        )
        .unwrap();
        let failed = DecodeFailure::default();
        let feed = |path| open_trace_feed(path, &failed).expect("trace feed");
        let jobs: Vec<JobSpec> = feed(&csv).collect();
        assert_eq!(jobs.len(), 1, "two tasks of one job assemble to one spec");
        assert_eq!(jobs[0].id, 1);
        // The same jobs via the recorded format must round-trip.
        let recorded = dir.join("corp-serve-test.trace");
        corp_trace::save_trace(&recorded, &jobs).unwrap();
        let replayed: Vec<JobSpec> = feed(&recorded).collect();
        assert_eq!(
            serde::json::to_string(&jobs),
            serde::json::to_string(&replayed),
            "recorded round-trip diverged from the CSV decode"
        );
        assert_eq!(*failed.borrow(), None);
    }

    #[test]
    fn a_malformed_trace_row_is_an_error_not_a_panic() {
        let csv = std::env::temp_dir().join("corp-serve-test-malformed.csv");
        std::fs::write(&csv, "0,100,1,0,1.0,2.0,3.0\n0,100,2,0,1,2,3\nbad,row\n").unwrap();
        let args = ServeArgs {
            trace: Some(csv.clone()),
            ..ServeArgs::default()
        };
        let err = serve_experiment(true, &args).unwrap_err();
        assert_eq!(
            err,
            format!(
                "--trace {}: trace decode failed: line 3 (byte 38): \
                 expected 7 fields, found 2 (after 1 jobs)",
                csv.display()
            )
        );
    }

    #[test]
    fn an_unreadable_replay_names_the_flag_and_the_path() {
        let args = ServeArgs {
            replay: Some(PathBuf::from("/nonexistent/t.trace")),
            ..ServeArgs::default()
        };
        let err = serve_experiment(true, &args).unwrap_err();
        assert!(err.starts_with("--replay /nonexistent/t.trace: "), "{err}");
    }

    #[test]
    fn an_unwritable_record_names_the_flag_and_the_path() {
        let args = ServeArgs {
            record: Some(PathBuf::from("/nonexistent/t.trace")),
            jobs: 3,
            ..ServeArgs::default()
        };
        let err = serve_experiment(true, &args).unwrap_err();
        assert!(err.starts_with("--record /nonexistent/t.trace: "), "{err}");
    }

    #[test]
    fn smoke_run_passes_at_low_load() {
        let args = ServeArgs {
            jobs: 30,
            smoke: true,
            ..ServeArgs::default()
        };
        let figure = serve_experiment(true, &args).expect("smoke must pass at low load");
        assert_eq!(figure.id, "serve");
        assert!(!figure.table.is_empty());
    }
}
