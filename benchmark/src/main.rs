//! The benchmark's command line.
//!
//! ```text
//! frappe-benchmark run (--all | --workload NAME) [--seed N] [--seconds N]
//!                      [--trace 0|1 | --traced] [--out DIR]
//! frappe-benchmark compare --base PATH... --new PATH...
//! ```
//!
//! `run --workload` runs one workload in this process and prints its
//! metrics, then one JSON summary as the last line. `run --all` runs each
//! workload in a child process of its own. Both exit 1 when a check
//! failed. `compare` exits 1 when a metric regressed.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use frappe_benchmark::compare;
use frappe_benchmark::report::{RunResult, SummaryLine};
use frappe_benchmark::workloads::{self, RunConfig, Workload, DEFAULT_SECONDS, DEFAULT_SEED};
use synth_workload::ScenarioConfig;

const USAGE: &str = "usage:
  frappe-benchmark run (--all | --workload NAME) [--seed N] [--seconds N] [--trace 0|1 | --traced] [--out DIR]
  frappe-benchmark compare --base PATH... --new PATH...
workloads: edge_read, edge_ingest_swap, router_ingest_swap, catalog_refresh";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => compare_cmd(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("{message}");
        ExitCode::from(2)
    })
}

struct RunArgs {
    workload: Option<Workload>,
    all: bool,
    seed: u64,
    seconds: u64,
    traced: bool,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        all: false,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--all" => parsed.all = true,
            "--traced" => parsed.traced = true,
            "--workload" => {
                let name = value()?;
                parsed.workload =
                    Some(Workload::parse(name).ok_or(format!("unknown workload {name}\n{USAGE}"))?);
            }
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|_| format!("bad --seed\n{USAGE}"))?
            }
            "--seconds" => {
                parsed.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .ok_or(format!("--seconds needs a positive whole number\n{USAGE}"))?;
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1\n{USAGE}")),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if parsed.all == parsed.workload.is_some() {
        return Err(format!("give exactly one of --all and --workload\n{USAGE}"));
    }
    Ok(parsed)
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let parsed = parse_run(args)?;
    match parsed.workload {
        Some(workload) => run_one(workload, &parsed),
        None => run_all(&parsed),
    }
}

fn run_one(workload: Workload, args: &RunArgs) -> Result<ExitCode, String> {
    let config = RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        scenario: ScenarioConfig::paper_scale(),
        scenario_name: "paper_scale".to_string(),
    };
    let result = workloads::run(&config)?;
    if let Some(dir) = &args.out {
        let path = write_result(dir, &result)?;
        eprintln!("wrote {}", path.display());
    }
    print!("{}", result.render());
    let line = serde_json::to_string(&result.summary_line()).map_err(|e| e.to_string())?;
    println!("{line}");
    Ok(if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Writes `<workload>-<mode>-seed<seed>-r<n>.json` with the first free `n`.
fn write_result(dir: &PathBuf, result: &RunResult) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mode = if result.header.traced {
        "traced"
    } else {
        "untraced"
    };
    let stem = format!(
        "{}-{mode}-seed{}",
        result.header.workload, result.header.seed
    );
    let path = (1..)
        .map(|n| dir.join(format!("{stem}-r{n}.json")))
        .find(|p| !p.exists())
        .expect("some run number is free");
    let text = serde_json::to_string_pretty(result).map_err(|e| e.to_string())?;
    std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Runs every workload in a child process of its own, one after another.
fn run_all(args: &RunArgs) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    let mut summaries = Vec::new();
    for workload in Workload::ALL {
        let mut child = Command::new(&exe);
        child.args(["run", "--workload", workload.name()]);
        child.args([
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
        ]);
        child.args(["--trace", if args.traced { "1" } else { "0" }]);
        if let Some(dir) = &args.out {
            child.arg("--out").arg(dir);
        }
        let output = child
            .output()
            .map_err(|e| format!("{}: {e}", workload.name()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        let mut lines: Vec<&str> = stdout.lines().collect();
        let summary = lines
            .pop()
            .and_then(|last| serde_json::from_str::<SummaryLine>(last).ok());
        for line in lines {
            println!("{line}");
        }
        all_correct &= output.status.success() && summary.as_ref().is_some_and(|s| s.correct);
        summaries.push((workload, summary));
    }
    println!("summary:");
    for (workload, summary) in &summaries {
        match summary {
            Some(s) => println!(
                "  {:<20} correct={} attempted={} failed={}",
                workload.name(),
                s.correct,
                s.attempted,
                s.failed
            ),
            None => println!("  {:<20} no result", workload.name()),
        }
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_cmd(args: &[String]) -> Result<ExitCode, String> {
    let (mut base, mut new) = (Vec::new(), Vec::new());
    let mut side: Option<&mut Vec<PathBuf>> = None;
    for arg in args {
        match arg.as_str() {
            "--base" => side = Some(&mut base),
            "--new" => side = Some(&mut new),
            path => side
                .as_mut()
                .ok_or(format!("paths follow --base or --new\n{USAGE}"))?
                .push(PathBuf::from(path)),
        }
    }
    if base.is_empty() || new.is_empty() {
        return Err(format!("compare needs --base and --new paths\n{USAGE}"));
    }
    let rows = compare::compare(&compare::load(&base)?, &compare::load(&new)?);
    print!("{}", compare::render(&rows));
    let regressed = rows.iter().any(|r| r.verdict == compare::Verdict::Worse);
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
