//! `compare`: a regression diff of two sets of result files.
//!
//! One row per (end-to-end metric, workload): each side's median and
//! quartiles, the share of (base, new) run pairs the new side wins, and
//! one verdict:
//!
//! * **unresolved** — the run-to-run spread of either side is wider than
//!   the metric's bound and the runs do not all separate;
//! * **worse** — the new median is worse than the base median by more
//!   than the bound;
//! * **better** — the new side wins at least nine tenths of the pairs and
//!   its median moved by more than the base side's quartile spread;
//! * **no-worse** — otherwise.

use std::path::{Path, PathBuf};

use crate::metrics::{self, Better, Bound, EndToEnd};
use crate::report::RunResult;
use crate::stats::quartiles;

/// A row's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Separated and improved.
    Better,
    /// Within the bound.
    NoWorse,
    /// Regressed beyond the bound.
    Worse,
    /// Too noisy to tell.
    Unresolved,
}

impl Verdict {
    /// Printed form.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::NoWorse => "no-worse",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median and quartiles of one side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Runs.
    pub n: usize,
}

impl Side {
    fn of(values: &[f64]) -> Option<Side> {
        let (q1, median, q3) = quartiles(values)?;
        Some(Side {
            q1,
            median,
            q3,
            n: values.len(),
        })
    }
}

/// One row of the diff.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: &'static EndToEnd,
    /// Base side.
    pub base: Side,
    /// New side.
    pub new: Side,
    /// Share of (base, new) pairs where new is better; ties count for
    /// neither side.
    pub win_share: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// How much worse `new` is than `base` in the bound's terms (negative:
/// better).
fn worse_by(metric: &EndToEnd, base: f64, new: f64) -> f64 {
    let delta = match metric.better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    match metric.bound {
        Bound::Relative(_) => delta / base.abs().max(f64::MIN_POSITIVE),
        Bound::Absolute(_) => delta,
    }
}

fn bound_of(metric: &EndToEnd) -> f64 {
    match metric.bound {
        Bound::Relative(b) | Bound::Absolute(b) => b,
    }
}

/// A side's quartile spread in the bound's terms.
fn spread(metric: &EndToEnd, side: &Side) -> f64 {
    let width = side.q3 - side.q1;
    match metric.bound {
        Bound::Relative(_) => width / side.median.abs().max(f64::MIN_POSITIVE),
        Bound::Absolute(_) => width,
    }
}

/// Judges one metric from its base and new run values.
pub fn judge(metric: &EndToEnd, base: &[f64], new: &[f64]) -> Option<(Side, Side, f64, Verdict)> {
    let (b, n) = (Side::of(base)?, Side::of(new)?);
    let better = |x: f64, than: f64| match metric.better {
        Better::Lower => x < than,
        Better::Higher => x > than,
    };
    let pairs = (base.len() * new.len()) as f64;
    let wins = base.iter().flat_map(|&x| new.iter().map(move |&y| (x, y)));
    let win_share = wins.clone().filter(|&(x, y)| better(y, x)).count() as f64 / pairs;
    let all_better = wins.clone().all(|(x, y)| better(y, x));
    let all_worse = wins.clone().all(|(x, y)| better(x, y));
    let bound = bound_of(metric);
    let noisy = spread(metric, &b) > bound || spread(metric, &n) > bound;
    let verdict = if noisy && !all_better && !all_worse {
        Verdict::Unresolved
    } else if worse_by(metric, b.median, n.median) > bound {
        Verdict::Worse
    } else if win_share >= 0.9 && (n.median - b.median).abs() > b.q3 - b.q1 {
        Verdict::Better
    } else {
        Verdict::NoWorse
    };
    Some((b, n, win_share, verdict))
}

/// Every (metric, workload) row the two sides share, untraced runs only.
pub fn compare(base: &[RunResult], new: &[RunResult]) -> Vec<Row> {
    let mut workloads: Vec<&str> = base.iter().map(|r| r.header.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut rows = Vec::new();
    for workload in workloads {
        let values = |side: &[RunResult], name: &str| -> Vec<f64> {
            side.iter()
                .filter(|r| r.header.workload == workload && !r.header.traced)
                .filter_map(|r| r.metrics.get(name).map(|m| m.value))
                .filter(|v| v.is_finite())
                .collect()
        };
        for metric in metrics::END_TO_END {
            let (b, n) = (values(base, metric.name), values(new, metric.name));
            if let Some((base, new, win_share, verdict)) = judge(metric, &b, &n) {
                rows.push(Row {
                    workload: workload.to_string(),
                    metric,
                    base,
                    new,
                    win_share,
                    verdict,
                });
            }
        }
    }
    rows
}

/// Reads result files; a directory contributes every `*.json` in it.
pub fn load(paths: &[PathBuf]) -> Result<Vec<RunResult>, String> {
    let mut files = Vec::new();
    for path in paths {
        if path.is_dir() {
            let entries =
                std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))?;
            let mut jsons: Vec<PathBuf> = entries
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "json"))
                .collect();
            jsons.sort();
            files.extend(jsons);
        } else {
            files.push(path.clone());
        }
    }
    files.iter().map(|f| read(f)).collect()
}

fn read(path: &Path) -> Result<RunResult, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The printed table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<20} {:<20} {:>26} {:>26} {:>5}  verdict\n",
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "win"
    );
    for r in rows {
        let side = |s: &Side| format!("{:.4} [{:.4}, {:.4}]", s.median, s.q1, s.q3);
        out.push_str(&format!(
            "{:<20} {:<20} {:>26} {:>26} {:>4.0}%  {} ({} {}, n={}/{})\n",
            r.workload,
            r.metric.name,
            side(&r.base),
            side(&r.new),
            r.win_share * 100.0,
            r.verdict.as_str(),
            match r.metric.bound {
                Bound::Relative(b) => format!("bound {:.0}%", b * 100.0),
                Bound::Absolute(b) => format!("bound ±{b}"),
            },
            r.metric.unit,
            r.base.n,
            r.new.n,
        ));
    }
    out
}
