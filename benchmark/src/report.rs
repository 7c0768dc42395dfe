//! Result files and the lines the benchmark prints.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::metrics;

/// The run header every result file carries.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Header {
    /// Workload name.
    pub workload: String,
    /// `--seed` (the world seed and the traffic seed).
    pub seed: u64,
    /// Window length, seconds.
    pub seconds: u64,
    /// Scenario scale the world was built at.
    pub scenario: String,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Source revision, `unknown` outside a git checkout.
    pub git_rev: String,
    /// Uncommitted changes to tracked files, when known.
    pub git_dirty: Option<bool>,
    /// Build profile of the benchmark binary.
    pub profile: String,
    /// CPU model.
    pub cpu: String,
    /// Threads the machine offers.
    pub nproc: usize,
    /// Scoring dispatch (`frappe::scoring::describe()`).
    pub scoring: String,
    /// `FRAPPE_JOBS`, if set.
    pub frappe_jobs: Option<String>,
    /// `FRAPPE_SIMD`, if set.
    pub frappe_simd: Option<String>,
    /// Set-ups timed for `setup_s`.
    pub setups: usize,
    /// Whether the peak-RSS mark could be reset before the window (if not,
    /// `peak_rss_mb` includes input generation).
    pub peak_rss_reset: bool,
}

/// One step of a socket window.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StepReport {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Whether the step ran (a ladder stops after a step falls far behind).
    pub ran: bool,
    /// Requests sent.
    pub attempted: u64,
    /// Requests answered correctly.
    pub served: u64,
    /// `attempted - served`.
    pub failed: u64,
    /// Median latency from the due time, µs.
    pub p50_us: Option<f64>,
    /// 99th-percentile latency from the due time, µs (`None` with fewer
    /// than ten samples beyond it).
    pub p99_us: Option<f64>,
    /// 99th-percentile generator lateness (send minus due), µs.
    pub late_p99_us: Option<f64>,
    /// Worst generator lateness, µs.
    pub late_max_us: f64,
    /// Age of the oldest unanswered request when the step ended, ms.
    pub backlog_ms: Option<f64>,
    /// The generator kept to its schedule (never more than 50 ms late).
    pub valid: bool,
    /// Valid, p99 within the limit, failures within the limit, and no
    /// backlog beyond 50 ms at the step's end.
    pub meets_slo: bool,
}

/// One correctness check.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub passed: bool,
    /// What was seen.
    pub detail: String,
}

/// A measured value with its unit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Metric {
    /// The value, with all its digits.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// Metrics by name.
pub type Metrics = BTreeMap<String, Metric>;

/// Inserts `value` under `name` with the unit the metric table gives it.
pub fn put(metrics: &mut Metrics, name: &str, value: f64) {
    let unit =
        metrics::unit_of(name).unwrap_or_else(|| panic!("{name} is not in the metric table"));
    metrics.insert(
        name.to_string(),
        Metric {
            value,
            unit: unit.to_string(),
        },
    );
}

/// One workload run, as stored by `run --out` and read by `compare`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// The run header.
    pub header: Header,
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed, plus one per failed check.
    pub failed: u64,
    /// End-to-end metrics this workload reports (untraced runs).
    pub metrics: Metrics,
    /// Per-layer metrics (traced runs).
    pub layers: Metrics,
    /// Socket window steps (empty for in-process workloads).
    pub steps: Vec<StepReport>,
    /// Correctness checks.
    pub checks: Vec<Check>,
}

/// The last line of a run's standard output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SummaryLine {
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// With `--trace 0` every `BENCHMARK.json` end-to-end metric, with
    /// `--trace 1` every per-layer metric.
    pub metrics: Metrics,
}

impl RunResult {
    /// The summary line: the end-to-end metrics `BENCHMARK.json` lists,
    /// or the per-layer table of a traced run.
    pub fn summary_line(&self) -> SummaryLine {
        let metrics = if self.header.traced {
            self.layers.clone()
        } else {
            self.metrics
                .iter()
                .filter(|(name, _)| metrics::end_to_end(name).is_some_and(|m| m.gated))
                .map(|(name, m)| (name.clone(), m.clone()))
                .collect()
        };
        SummaryLine {
            correct: self.correct,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
        }
    }

    /// Human-readable lines: every metric with its unit (a layer metric
    /// also names the end-to-end metric it should move), then the steps and
    /// the checks.
    pub fn render(&self) -> String {
        let mut out = format!(
            "workload {} seed {} window {}s {} (rev {}{}, {} threads, {})\n",
            self.header.workload,
            self.header.seed,
            self.header.seconds,
            if self.header.traced {
                "traced"
            } else {
                "untraced"
            },
            self.header
                .git_rev
                .get(..12)
                .unwrap_or(&self.header.git_rev),
            if self.header.git_dirty == Some(true) {
                "+dirty"
            } else {
                ""
            },
            self.header.nproc,
            self.header.scoring,
        );
        let shown = if self.header.traced {
            &self.layers
        } else {
            &self.metrics
        };
        for (name, m) in shown {
            let moves = metrics::PER_LAYER
                .iter()
                .find(|l| l.name == name)
                .map(|l| format!("  moves {}", l.moves))
                .unwrap_or_default();
            out.push_str(&format!(
                "  {name:<32} {:>14.4} {:<6}{moves}\n",
                m.value, m.unit
            ));
        }
        for (i, s) in self.steps.iter().filter(|s| s.ran).enumerate() {
            let q = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.0}"));
            out.push_str(&format!(
                "  step {i} {:>6.0} req/s  n={:<6} failed={:<3} p50={}us p99={}us late_max={:.0}us backlog={}ms{}{}\n",
                s.rate,
                s.attempted,
                s.failed,
                q(s.p50_us),
                q(s.p99_us),
                s.late_max_us,
                s.backlog_ms.map_or("-".to_string(), |b| format!("{b:.1}")),
                if s.valid { "" } else { " INVALID" },
                if s.meets_slo { " slo:ok" } else { " slo:miss" },
            ));
        }
        for c in &self.checks {
            out.push_str(&format!(
                "  check {:<28} {} {}\n",
                c.name,
                if c.passed { "ok  " } else { "FAIL" },
                c.detail
            ));
        }
        out
    }
}
