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
//!                             # time retrain / hot-swap / shadow, write JSON
//! repro --edge-bench-out FILE # time the network edge over real sockets
//! repro --shard-bench-out FILE
//!                             # time shard-group scaling at K in {1,2,4,8}
//! repro --scoring-bench-out FILE
//!                             # time scalar/SIMD kernel scoring, write JSON
//! repro --gauntlet-bench-out FILE
//!                             # time the adversarial gauntlet scenarios, write JSON
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use frappe_bench::experiments::{find, registry};
use frappe_bench::Lab;
use synth_workload::ScenarioConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut small = false;
    let mut profile = false;
    let mut seed: Option<u64> = None;
    let mut bench_out: Option<String> = None;
    let mut lifecycle_bench_out: Option<String> = None;
    let mut edge_bench_out: Option<String> = None;
    let mut shard_bench_out: Option<String> = None;
    let mut scoring_bench_out: Option<String> = None;
    let mut gauntlet_bench_out: Option<String> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut args_iter = args.into_iter();
    while let Some(arg) = args_iter.next() {
        match arg.as_str() {
            "--small" => small = true,
            "--bench-out" => match args_iter.next() {
                Some(path) => bench_out = Some(path),
                None => {
                    eprintln!("--bench-out expects a file path");
                    std::process::exit(2);
                }
            },
            "--lifecycle-bench-out" => match args_iter.next() {
                Some(path) => lifecycle_bench_out = Some(path),
                None => {
                    eprintln!("--lifecycle-bench-out expects a file path");
                    std::process::exit(2);
                }
            },
            "--edge-bench-out" => match args_iter.next() {
                Some(path) => edge_bench_out = Some(path),
                None => {
                    eprintln!("--edge-bench-out expects a file path");
                    std::process::exit(2);
                }
            },
            "--shard-bench-out" => match args_iter.next() {
                Some(path) => shard_bench_out = Some(path),
                None => {
                    eprintln!("--shard-bench-out expects a file path");
                    std::process::exit(2);
                }
            },
            "--scoring-bench-out" => match args_iter.next() {
                Some(path) => scoring_bench_out = Some(path),
                None => {
                    eprintln!("--scoring-bench-out expects a file path");
                    std::process::exit(2);
                }
            },
            "--gauntlet-bench-out" => match args_iter.next() {
                Some(path) => gauntlet_bench_out = Some(path),
                None => {
                    eprintln!("--gauntlet-bench-out expects a file path");
                    std::process::exit(2);
                }
            },
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
    // The training benchmark needs no world: run it first, and exit
    // cleanly if it is all that was asked for.
    if let Some(path) = &bench_out {
        eprintln!(
            "timing serial vs parallel training ({} mode)...",
            if small { "quick" } else { "full" }
        );
        let report = frappe_bench::trainbench::run(small);
        println!("{}", report.render());
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        match std::fs::write(path, json) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("could not write {path}: {e}");
                std::process::exit(1);
            }
        }
        if ids.is_empty()
            && lifecycle_bench_out.is_none()
            && edge_bench_out.is_none()
            && shard_bench_out.is_none()
            && scoring_bench_out.is_none()
            && gauntlet_bench_out.is_none()
        {
            return;
        }
    }
    // The lifecycle benchmark builds its own small world; like the
    // training bench it runs standalone and exits early if asked alone.
    if let Some(path) = &lifecycle_bench_out {
        eprintln!(
            "timing retrain / hot-swap / shadow ({} mode)...",
            if small { "quick" } else { "full" }
        );
        let report = frappe_bench::lifebench::run(small);
        println!("{}", report.render());
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        match std::fs::write(path, json) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("could not write {path}: {e}");
                std::process::exit(1);
            }
        }
        if ids.is_empty()
            && edge_bench_out.is_none()
            && shard_bench_out.is_none()
            && scoring_bench_out.is_none()
            && gauntlet_bench_out.is_none()
        {
            return;
        }
    }
    // The edge benchmark hosts its own server on an ephemeral loopback
    // port; same standalone-and-exit-early contract as the other two.
    if let Some(path) = &edge_bench_out {
        eprintln!(
            "timing the network edge over loopback sockets ({} mode)...",
            if small { "quick" } else { "full" }
        );
        let report = frappe_bench::edgebench::run(small);
        println!("{}", report.render());
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        match std::fs::write(path, json) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("could not write {path}: {e}");
                std::process::exit(1);
            }
        }
        if ids.is_empty()
            && shard_bench_out.is_none()
            && scoring_bench_out.is_none()
            && gauntlet_bench_out.is_none()
        {
            return;
        }
    }
    // The shard-group scaling benchmark builds its own small world; same
    // standalone-and-exit-early contract as the other benches.
    if let Some(path) = &shard_bench_out {
        eprintln!(
            "timing shard-group scaling at K in {{1, 2, 4, 8}} ({} mode)...",
            if small { "quick" } else { "full" }
        );
        let report = frappe_bench::shardbench::run(small);
        println!("{}", report.render());
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        match std::fs::write(path, json) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("could not write {path}: {e}");
                std::process::exit(1);
            }
        }
        if ids.is_empty() && scoring_bench_out.is_none() && gauntlet_bench_out.is_none() {
            return;
        }
    }
    // The scoring-kernel benchmark trains its own synthetic model; same
    // standalone-and-exit-early contract as the other benches.
    if let Some(path) = &scoring_bench_out {
        eprintln!(
            "timing scalar vs SIMD kernel scoring ({} mode)...",
            if small { "quick" } else { "full" }
        );
        let report = frappe_bench::scoringbench::run(small);
        println!("{}", report.render());
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        match std::fs::write(path, json) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("could not write {path}: {e}");
                std::process::exit(1);
            }
        }
        if ids.is_empty() && gauntlet_bench_out.is_none() {
            return;
        }
    }
    // The gauntlet benchmark runs the built-in adversarial scenarios end
    // to end; same standalone-and-exit-early contract as the others.
    if let Some(path) = &gauntlet_bench_out {
        eprintln!(
            "timing the adversarial gauntlet scenarios ({} mode)...",
            if small { "quick" } else { "full" }
        );
        let report = frappe_bench::gauntletbench::run(small);
        println!("{}", report.render());
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        match std::fs::write(path, json) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("could not write {path}: {e}");
                std::process::exit(1);
            }
        }
        if ids.is_empty() {
            return;
        }
    }
    if ids.is_empty() {
        eprintln!(
            "usage: repro [--small] [--profile] [--seed N] [--bench-out FILE] \
             [--lifecycle-bench-out FILE] [--edge-bench-out FILE] \
             [--shard-bench-out FILE] [--scoring-bench-out FILE] \
             [--gauntlet-bench-out FILE] <experiment ...|all|list>"
        );
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
