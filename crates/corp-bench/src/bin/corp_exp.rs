//! `corp-exp` — regenerate the paper's tables and figures from the command
//! line.
//!
//! ```text
//! corp-exp all            # every artifact (slow: trains the paper DNN)
//! corp-exp fig6 fig7      # specific figures
//! corp-exp --fast all     # small DNN, quick smoke pass
//! corp-exp scalability    # sharded-control-plane sweep (1..8 shards)
//! corp-exp faults         # availability under deterministic fault injection
//! corp-exp --json fig6    # machine-readable output (one JSON array)
//! ```
//!
//! Unknown flags and unknown experiment names exit 2 with the list of
//! available experiments, before anything runs. Nothing here writes a
//! file unless a flag names one (`serve --record PATH`); performance
//! numbers come from `benchmark/`, not from this binary.
//!
//! `serve` runs the serving daemon and takes its own flags
//! (`--replay PATH`, `--record PATH`, `--speed inf|N`, `--seed S`,
//! `--jobs N`, `--queue-cap C`, `--policy block|shed-oldest|reject-new`,
//! `--width W`, `--shards K`, `--smoke`):
//!
//! ```text
//! corp-exp serve --fast --jobs 120 --speed inf --seed 7
//! corp-exp serve --replay t.trace --policy shed-oldest --queue-cap 16
//! ```
//!
//! `resilience` is chaos-serve: the daemon under combined control-plane
//! faults and arrival storms with deadlines, the brownout ladder, and
//! per-shard circuit breakers armed (`--seed S`, `--jobs N`,
//! `--shards K`, `--intensity X`, `--width W`, `--smoke`):
//!
//! ```text
//! corp-exp resilience --fast --smoke     # rerun byte-identity + conservation
//! corp-exp resilience --intensity 2 --shards 4
//! ```
//!
//! `scale` is the streaming soak: a lazily-pulled synthetic arrival
//! stream through the reclaiming arena engine, reporting throughput,
//! arena high-water, and peak RSS (`--vms N`, `--jobs N`, `--seed S`,
//! `--shards K`, `--smoke`):
//!
//! ```text
//! corp-exp scale --smoke        # CI configuration + invariant checks
//! corp-exp scale                # 50k VMs, 1M jobs
//! corp-exp scale --shards 8     # soak behind the sharded control plane
//! ```

use corp_bench::experiments;
use corp_bench::resilience::{resilience_experiment, ResilienceArgs};
use corp_bench::scale::{scale_experiment, ScaleArgs};
use corp_bench::serve::{serve_experiment, ServeArgs};
use corp_bench::FigureTable;

type Runner = fn(bool) -> FigureTable;

/// Every experiment the figure loop knows, in `all` order.
const RUNNERS: [(&str, Runner); 13] = [
    ("table2", |_| experiments::table2()),
    ("fig6", experiments::fig6),
    ("fig7", experiments::fig7),
    ("fig8", experiments::fig8),
    ("fig9", experiments::fig9),
    ("fig10", experiments::fig10),
    ("fig11", experiments::fig11),
    ("fig12", experiments::fig12),
    ("fig13", experiments::fig13),
    ("fig14", experiments::fig14),
    ("ablations", experiments::ablations),
    ("scalability", experiments::scalability),
    ("faults", experiments::availability),
];

/// The figure loop's command line: `[--fast] [--json] [all | NAME...]`.
#[derive(Debug, PartialEq)]
struct FigureArgs {
    fast: bool,
    json: bool,
    /// Experiments to run; empty (or containing `all`) means every one.
    wanted: Vec<String>,
}

impl FigureArgs {
    /// Parses the whole command line, rejecting any flag or experiment
    /// name the loop would otherwise silently skip.
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut out = FigureArgs {
            fast: false,
            json: false,
            wanted: Vec::new(),
        };
        for arg in args {
            match arg.as_str() {
                "--fast" => out.fast = true,
                "--json" => out.json = true,
                flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
                name if name == "all" || RUNNERS.iter().any(|(n, _)| *n == name) => {
                    out.wanted.push(name.to_string());
                }
                name => return Err(format!("unknown experiment `{name}`")),
            }
        }
        Ok(out)
    }

    fn wants(&self, name: &str) -> bool {
        self.wanted.is_empty() || self.wanted.iter().any(|w| w == "all" || w == name)
    }
}

/// The first argument that is not a global flag, and the arguments after
/// it: where a subcommand's name stands, `--fast` / `--json` on either
/// side of it.
fn first_word(args: &[String]) -> Option<(&str, &[String])> {
    let at = args
        .iter()
        .position(|a| !matches!(a.as_str(), "--fast" | "--json"))?;
    Some((&args[at], &args[at + 1..]))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let json = args.iter().any(|a| a == "--json");
    if first_word(&args).is_some_and(|(name, rest)| run_subcommand(name, rest, fast, json)) {
        return;
    }
    let parsed = FigureArgs::parse(&args).unwrap_or_else(|e| {
        let names: Vec<&str> = RUNNERS.iter().map(|(n, _)| *n).collect();
        eprintln!(
            "{e}; available: {}, all (subcommands: serve, resilience, scale)",
            names.join(", ")
        );
        std::process::exit(2);
    });
    let mut collected: Vec<FigureTable> = Vec::new();
    for (name, run) in RUNNERS.iter().filter(|(n, _)| parsed.wants(n)) {
        let started = std::time::Instant::now();
        let figure = run(parsed.fast);
        if parsed.json {
            collected.push(figure);
        } else {
            println!("{figure}");
        }
        eprintln!(
            "[{name} regenerated in {:.1}s]",
            started.elapsed().as_secs_f64()
        );
    }
    if parsed.json {
        println!("{}", serde::json::to_string(&collected));
    }
}

/// Runs `name` if it is one of the flag-taking subcommands and renders its
/// table; returns `false` for anything else. Bad flags and failed smoke
/// assertions exit 2, matching the unknown-experiment path.
fn run_subcommand(name: &str, rest: &[String], fast: bool, json: bool) -> bool {
    let started = std::time::Instant::now();
    let result = match name {
        "serve" => ServeArgs::parse(rest).and_then(|a| serve_experiment(fast, &a)),
        "resilience" => ResilienceArgs::parse(rest).and_then(|a| resilience_experiment(fast, &a)),
        "scale" => ScaleArgs::parse(rest).and_then(|a| scale_experiment(&a)),
        _ => return false,
    };
    match result {
        Ok(figure) => {
            if json {
                println!("{}", serde::json::to_string(&vec![figure]));
            } else {
                println!("{figure}");
            }
            eprintln!(
                "[{name} regenerated in {:.1}s]",
                started.elapsed().as_secs_f64()
            );
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<FigureArgs, String> {
        FigureArgs::parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn known_flags_and_names_parse() {
        let args = parse(&["--fast", "--json", "table2", "fig6"]).unwrap();
        assert!(args.fast && args.json);
        assert!(args.wants("fig6") && args.wants("table2") && !args.wants("fig7"));
        let everything = parse(&[]).unwrap();
        assert!(RUNNERS.iter().all(|(n, _)| everything.wants(n)));
        assert!(parse(&["fig6", "all"]).unwrap().wants("faults"));
    }

    #[test]
    fn a_subcommand_may_follow_the_global_flags() {
        let strings = |args: &[&str]| args.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        // `--fast serve --jobs 10` used to be "unknown experiment `serve`".
        let args = strings(&["--fast", "--json", "serve", "--jobs", "10", "--fast"]);
        assert_eq!(first_word(&args), Some(("serve", &args[3..])));
        assert_eq!(first_word(&args[2..]), Some(("serve", &args[3..])));
        let figures = strings(&["--fast", "fig6", "fig7"]);
        assert_eq!(first_word(&figures), Some(("fig6", &figures[2..])));
        assert_eq!(first_word(&strings(&["--json", "--fast"])), None);
        assert_eq!(first_word(&[]), None);
    }

    #[test]
    fn unknown_flag_is_rejected_not_dropped() {
        // `--fsat all` used to train the full DNN for every figure.
        assert_eq!(
            parse(&["--fsat", "all"]),
            Err("unknown flag `--fsat`".to_string())
        );
        // Flags of the retired runners are unknown too.
        assert!(parse(&["--shards", "2"]).is_err());
        assert!(parse(&["--e2e"]).is_err());
    }

    #[test]
    fn unknown_experiment_is_rejected_even_next_to_a_known_one() {
        // `fig6 nosuch` used to run fig6 and exit 0.
        assert_eq!(
            parse(&["fig6", "nosuch"]),
            Err("unknown experiment `nosuch`".to_string())
        );
        assert!(parse(&["perf"]).is_err());
        assert!(parse(&["e2e"]).is_err());
    }
}
