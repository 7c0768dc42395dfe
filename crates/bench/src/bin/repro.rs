//! `repro` — regenerates the paper's tables and figures.
//!
//! ```text
//! repro list                  # show available experiments
//! repro table5 fig3 ...       # run specific experiments
//! repro all                   # run everything and write EXPERIMENTS.md
//! repro --small <ids|all>     # use the fast test-scale world
//! repro --profile <ids|all>   # also print the per-stage span profile
//! repro --bench-out FILE      # time serial-vs-parallel training, write JSON
//! repro --lifecycle-bench-out FILE
//!                             # time retrain / shadow, write JSON
//! repro --shard-bench-out FILE
//!                             # time shard-group scaling at K in {1,2,4,8}
//! repro --gauntlet-bench-out FILE
//!                             # time the adversarial gauntlet scenarios, write JSON
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use frappe_bench::experiments::{find, registry};
use frappe_bench::Lab;
use serde::Serialize;
use synth_workload::ScenarioConfig;

/// One quick bench: its `--*-bench-out FILE` flag, the banner printed
/// while it runs, and the run itself, returning the rendered summary and
/// the JSON report. Each builds its own world (or none), so they run
/// standalone, in table order, before any experiment.
struct Bench {
    flag: &'static str,
    banner: &'static str,
    run: fn(bool) -> (String, String),
}

fn pretty(report: &impl Serialize) -> String {
    serde_json::to_string_pretty(report).expect("report serializes")
}

const BENCHES: [Bench; 4] = [
    Bench {
        flag: "--bench-out",
        banner: "timing serial vs parallel training",
        run: |quick| {
            let r = frappe_bench::trainbench::run(quick);
            (r.render(), pretty(&r))
        },
    },
    Bench {
        flag: "--lifecycle-bench-out",
        banner: "timing retrain / shadow",
        run: |quick| {
            let r = frappe_bench::lifebench::run(quick);
            (r.render(), pretty(&r))
        },
    },
    Bench {
        flag: "--shard-bench-out",
        banner: "timing shard-group scaling at K in {1, 2, 4, 8}",
        run: |quick| {
            let r = frappe_bench::shardbench::run(quick);
            (r.render(), pretty(&r))
        },
    },
    Bench {
        flag: "--gauntlet-bench-out",
        banner: "timing the adversarial gauntlet scenarios",
        run: |quick| {
            let r = frappe_bench::gauntletbench::run(quick);
            (r.render(), pretty(&r))
        },
    },
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut small = false;
    let mut profile = false;
    let mut seed: Option<u64> = None;
    let mut bench_outs: Vec<Option<String>> = vec![None; BENCHES.len()];
    let mut ids: Vec<String> = Vec::new();
    let mut args_iter = args.into_iter();
    while let Some(arg) = args_iter.next() {
        if let Some(i) = BENCHES.iter().position(|b| b.flag == arg) {
            match args_iter.next() {
                Some(path) => bench_outs[i] = Some(path),
                None => {
                    eprintln!("{arg} expects a file path");
                    std::process::exit(2);
                }
            }
            continue;
        }
        match arg.as_str() {
            "--small" => small = true,
            "--profile" => {
                profile = true;
                frappe_obs::set_spans_enabled(true);
            }
            "--seed" => {
                let value = args_iter.next().unwrap_or_default();
                match value.parse::<u64>() {
                    Ok(s) => seed = Some(s),
                    Err(_) => {
                        eprintln!("--seed expects an integer, got {value:?}");
                        std::process::exit(2);
                    }
                }
            }
            "list" => {
                for (id, _) in registry() {
                    println!("{id}");
                }
                return;
            }
            other => ids.push(other.to_string()),
        }
    }
    // The benches need no shared world: run every requested one first,
    // and exit cleanly if they are all that was asked for.
    for (bench, path) in BENCHES.iter().zip(&bench_outs) {
        let Some(path) = path else { continue };
        eprintln!(
            "{} ({} mode)...",
            bench.banner,
            if small { "quick" } else { "full" }
        );
        let (rendered, json) = (bench.run)(small);
        println!("{rendered}");
        match std::fs::write(path, json) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("could not write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if ids.is_empty() {
        if bench_outs.iter().any(Option::is_some) {
            return;
        }
        let flags: String = BENCHES
            .iter()
            .map(|b| format!(" [{} FILE]", b.flag))
            .collect();
        eprintln!("usage: repro [--small] [--profile] [--seed N]{flags} <experiment ...|all|list>");
        eprintln!(
            "experiments: {}",
            registry()
                .iter()
                .map(|(i, _)| *i)
                .collect::<Vec<_>>()
                .join(", ")
        );
        std::process::exit(2);
    }

    let run_all = ids.iter().any(|i| i == "all");
    let selected: Vec<&'static str> = if run_all {
        registry().iter().map(|(id, _)| *id).collect()
    } else {
        let mut sel = Vec::new();
        for id in &ids {
            match registry().iter().find(|(name, _)| name == id) {
                Some((name, _)) => sel.push(*name),
                None => {
                    eprintln!("unknown experiment: {id} (try `repro list`)");
                    std::process::exit(2);
                }
            }
        }
        sel
    };

    let mut config = if small {
        ScenarioConfig::small()
    } else {
        ScenarioConfig::paper_scale()
    };
    if let Some(s) = seed {
        config.seed = s;
    }
    eprintln!(
        "building world (seed {}, {} users, {} apps)...",
        config.seed,
        config.users,
        config.benign_apps + config.malicious_apps
    );
    let t0 = Instant::now();
    let lab = Lab::build(&config);
    eprintln!("world ready in {:.1?}\n", t0.elapsed());

    let mut md = String::new();
    let _ = writeln!(md, "# EXPERIMENTS — paper vs. measured\n");
    let _ = writeln!(
        md,
        "Generated by `repro {}` on a synthetic world at ~1/10 population scale \
         (seed {}). Shapes and relative magnitudes are the comparison target; \
         population-scaled absolute counts are expected to be ~1/10 of the \
         paper's (external-world absolutes — clicks, MAU, WOT scores — are \
         unscaled). See DESIGN.md §1 for the substitution argument.\n",
        if run_all {
            "all".to_string()
        } else {
            selected.join(" ")
        },
        config.seed
    );

    for id in &selected {
        let f = find(id).expect("selected from registry");
        let t = Instant::now();
        let result = f(&lab);
        println!("{result}");
        println!("  [{:.2?}]\n", t.elapsed());

        let _ = writeln!(md, "## {} (`{}`)\n", result.title, result.id);
        let _ = writeln!(md, "**Paper:** {}\n", result.paper_claim);
        let _ = writeln!(md, "**Measured:**\n");
        let _ = writeln!(md, "```text");
        for line in &result.lines {
            let _ = writeln!(md, "{line}");
        }
        let _ = writeln!(md, "```\n");
    }

    if run_all {
        match std::fs::write("EXPERIMENTS.md", &md) {
            Ok(()) => eprintln!("wrote EXPERIMENTS.md"),
            Err(e) => eprintln!("could not write EXPERIMENTS.md: {e}"),
        }
    }

    if profile {
        println!("per-stage profile (world build + experiments):\n");
        print!("{}", frappe_obs::Profiler::global().snapshot().render());
    }
}
