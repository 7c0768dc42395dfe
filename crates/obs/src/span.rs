//! Scoped span timers aggregated into a per-stage profile table.
//!
//! A [`Span`] is an RAII guard: creating it pushes a segment onto a
//! thread-local path stack and starts a clock, dropping it records the
//! elapsed time against the full `outer/inner` path in a [`Profiler`].
//! Aggregation keeps only count/total/min/max per path, so memory stays
//! bounded no matter how hot the instrumented loop is.
//!
//! One runtime toggle keeps the overhead honest: it is initialised from
//! the [`ENV_TOGGLE`] environment variable and overridable with
//! [`set_spans_enabled`], and while it is off a span creation is a single
//! relaxed atomic load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// Environment variable consulted (once, lazily) for the runtime toggle.
/// Set it to `1`, `true`, or `on` to enable span recording.
pub const ENV_TOGGLE: &str = "FRAPPE_OBS";

const STATE_UNSET: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static SPAN_STATE: AtomicU8 = AtomicU8::new(STATE_UNSET);

/// Whether spans currently record.
pub fn spans_enabled() -> bool {
    match SPAN_STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => {
            let on = std::env::var(ENV_TOGGLE)
                .map(|v| matches!(v.to_ascii_lowercase().as_str(), "1" | "true" | "on"))
                .unwrap_or(false);
            SPAN_STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
            on
        }
    }
}

/// Override the runtime toggle (wins over the environment variable).
pub fn set_spans_enabled(on: bool) {
    SPAN_STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

thread_local! {
    /// Segments of the currently open spans on this thread, outermost first.
    static SPAN_PATH: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Aggregated timings for one span path.
#[derive(Debug, Clone, Copy)]
struct StageStats {
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

impl StageStats {
    fn record(&mut self, elapsed_ns: u64) {
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(elapsed_ns);
        self.min_ns = self.min_ns.min(elapsed_ns);
        self.max_ns = self.max_ns.max(elapsed_ns);
    }
}

/// Thread-safe sink for span timings.
#[derive(Default)]
pub struct Profiler {
    stages: Mutex<BTreeMap<String, StageStats>>,
}

impl Profiler {
    /// An empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide profiler that [`span`] records into.
    pub fn global() -> &'static Profiler {
        static GLOBAL: OnceLock<Profiler> = OnceLock::new();
        GLOBAL.get_or_init(Profiler::new)
    }

    /// Open a span against this profiler. Records on drop if spans are
    /// enabled; otherwise the guard is inert.
    pub fn span<'p>(&'p self, name: &'static str) -> Span<'p> {
        if !spans_enabled() {
            return Span { active: None };
        }
        let path = SPAN_PATH.with(|stack| {
            let mut stack = stack.borrow_mut();
            stack.push(name);
            stack.join("/")
        });
        Span {
            active: Some(ActiveSpan {
                profiler: self,
                path,
                start: Instant::now(),
            }),
        }
    }

    /// Record one timing directly (what a [`Span`] does on drop).
    pub fn record(&self, path: &str, elapsed_ns: u64) {
        let mut stages = self.stages.lock();
        match stages.get_mut(path) {
            Some(stats) => stats.record(elapsed_ns),
            None => {
                stages.insert(
                    path.to_owned(),
                    StageStats {
                        count: 1,
                        total_ns: elapsed_ns,
                        min_ns: elapsed_ns,
                        max_ns: elapsed_ns,
                    },
                );
            }
        }
    }

    /// Discard all aggregated timings.
    pub fn reset(&self) {
        self.stages.lock().clear();
    }

    /// Copy the per-stage table, sorted by path.
    pub fn snapshot(&self) -> ProfileSnapshot {
        let stages = self.stages.lock();
        ProfileSnapshot {
            stages: stages
                .iter()
                .map(|(path, s)| StageRow {
                    path: path.clone(),
                    count: s.count,
                    total_ns: s.total_ns,
                    mean_ns: s.total_ns.checked_div(s.count).unwrap_or(0),
                    min_ns: s.min_ns,
                    max_ns: s.max_ns,
                })
                .collect(),
        }
    }
}

/// Open a span against the global profiler.
///
/// Bind the result to a named variable (`let _span = obs::span(..)`), not
/// `_`, which would drop it immediately and record a zero-length stage.
#[must_use = "a span records on drop; binding to _ drops it immediately"]
pub fn span(name: &'static str) -> Span<'static> {
    Profiler::global().span(name)
}

struct ActiveSpan<'p> {
    profiler: &'p Profiler,
    path: String,
    start: Instant,
}

/// RAII timing guard returned by [`span`] / [`Profiler::span`].
#[must_use = "a span records on drop; binding to _ drops it immediately"]
pub struct Span<'p> {
    active: Option<ActiveSpan<'p>>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(active) = self.active.take() {
            let elapsed_ns = active.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            active.profiler.record(&active.path, elapsed_ns);
            SPAN_PATH.with(|stack| {
                stack.borrow_mut().pop();
            });
        }
    }
}

/// One row of the per-stage profile table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageRow {
    /// Slash-joined span path, e.g. `scenario/day/sweep`.
    pub path: String,
    /// Number of completed spans on this path.
    pub count: u64,
    /// Total wall time across all spans, in nanoseconds.
    pub total_ns: u64,
    /// `total_ns / count`.
    pub mean_ns: u64,
    /// Fastest single span.
    pub min_ns: u64,
    /// Slowest single span.
    pub max_ns: u64,
}

/// The aggregated profile table, sorted by span path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileSnapshot {
    /// One row per distinct span path.
    pub stages: Vec<StageRow>,
}

impl ProfileSnapshot {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Render as an aligned text table (path, count, total, mean,
    /// min, max).
    pub fn render(&self) -> String {
        if self.stages.is_empty() {
            return "(no spans recorded — set FRAPPE_OBS=1 or pass --profile)\n".to_owned();
        }
        let header = ["stage", "count", "total", "mean", "min", "max"];
        let rows: Vec<[String; 6]> = self
            .stages
            .iter()
            .map(|s| {
                [
                    s.path.clone(),
                    s.count.to_string(),
                    fmt_ns(s.total_ns),
                    fmt_ns(s.mean_ns),
                    fmt_ns(s.min_ns),
                    fmt_ns(s.max_ns),
                ]
            })
            .collect();
        let mut widths = [0usize; 6];
        for (i, h) in header.iter().enumerate() {
            widths[i] = h.len();
        }
        for row in &rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let emit = |out: &mut String, cells: [&str; 6], widths: &[usize; 6]| {
            // first column left-aligned, numbers right-aligned
            out.push_str(&format!("{:<w$}", cells[0], w = widths[0]));
            for i in 1..6 {
                out.push_str(&format!("  {:>w$}", cells[i], w = widths[i]));
            }
            out.push('\n');
        };
        emit(
            &mut out,
            [
                header[0], header[1], header[2], header[3], header[4], header[5],
            ],
            &widths,
        );
        for row in &rows {
            emit(
                &mut out,
                [&row[0], &row[1], &row[2], &row[3], &row[4], &row[5]],
                &widths,
            );
        }
        out
    }
}

/// Human-scale duration: picks ns/µs/ms/s to keep the mantissa short.
fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The runtime toggle is process-global; tests that flip it must not
    /// overlap.
    static TOGGLE_GUARD: Mutex<()> = Mutex::new(());

    #[test]
    fn nested_spans_build_slash_paths() {
        let _guard = TOGGLE_GUARD.lock();
        set_spans_enabled(true);
        let p = Profiler::new();
        {
            let _outer = p.span("outer");
            let _inner = p.span("inner");
        }
        {
            let _solo = p.span("solo");
        }
        let snap = p.snapshot();
        let paths: Vec<&str> = snap.stages.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, vec!["outer", "outer/inner", "solo"]);
        for row in &snap.stages {
            assert_eq!(row.count, 1);
            assert!(row.min_ns <= row.max_ns);
        }
        set_spans_enabled(false);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = TOGGLE_GUARD.lock();
        set_spans_enabled(false);
        let p = Profiler::new();
        {
            let _s = p.span("quiet");
        }
        assert!(p.snapshot().is_empty());
    }

    #[test]
    fn record_aggregates_count_total_min_max() {
        let p = Profiler::new();
        p.record("stage", 10);
        p.record("stage", 30);
        p.record("stage", 20);
        let snap = p.snapshot();
        assert_eq!(snap.stages.len(), 1);
        let row = &snap.stages[0];
        assert_eq!(
            (row.count, row.total_ns, row.mean_ns, row.min_ns, row.max_ns),
            (3, 60, 20, 10, 30)
        );
        p.reset();
        assert!(p.snapshot().is_empty());
    }

    #[test]
    fn render_is_aligned_and_complete() {
        let p = Profiler::new();
        p.record("a/b", 1_500);
        p.record("a", 2_000_000);
        let table = p.snapshot().render();
        assert!(table.contains("stage"));
        assert!(table.contains("a/b"));
        assert!(table.contains("1.5µs"));
        assert!(table.contains("2.0ms"));
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_500), "1.5µs");
        assert_eq!(fmt_ns(2_500_000), "2.5ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }
}
