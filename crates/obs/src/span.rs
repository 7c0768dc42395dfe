//! The one span guard: timers aggregated into a per-stage profile
//! table, optionally joined to a per-request trace.
//!
//! A [`Span`] is an RAII guard. While the runtime toggle is on, dropping
//! it records its [`Instant`]-measured duration in [`Profiler::global`],
//! which keeps only count/total/min/max per key, so memory stays bounded no
//! matter how hot the instrumented loop is. [`span`] nests: it keys its
//! row by the `outer/inner` path of the spans open on this thread.
//! [`span_in`] keys by its own name and leaves that path alone, so its
//! guard may be dropped on any thread; when the request carries a
//! [`TraceHandle`] it also opens a child span in that trace, closed on
//! drop.
//!
//! The toggle is initialised from the [`ENV_TOGGLE`] environment
//! variable and overridable with [`set_spans_enabled`]. While it is off
//! and no trace rides along, creating a span is one relaxed atomic load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::trace::{SpanId, TraceHandle};

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

/// Thread-safe sink for span timings. Spans record into
/// [`Profiler::global`]; a private instance aggregates direct
/// [`record`](Self::record) calls.
#[derive(Default)]
pub struct Profiler {
    stages: Mutex<BTreeMap<String, StageStats>>,
}

impl Profiler {
    /// An empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide profiler every [`Span`] records into.
    pub fn global() -> &'static Profiler {
        static GLOBAL: OnceLock<Profiler> = OnceLock::new();
        GLOBAL.get_or_init(Profiler::new)
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

/// Open a scoped span, keyed by the `outer/inner` path of the spans open
/// on this thread. Drop it on the thread that opened it.
///
/// Bind the result to a named variable (`let _span = obs::span(..)`), not
/// `_`, which would drop it immediately and record a zero-length stage.
#[must_use = "a span records on drop; binding to _ drops it immediately"]
pub fn span(name: &'static str) -> Span {
    let timing = spans_enabled().then(|| {
        let path = SPAN_PATH.with(|stack| {
            let mut stack = stack.borrow_mut();
            stack.push(name);
            stack.join("/")
        });
        Timing {
            key: Key::Path(path),
            start: Instant::now(),
        }
    });
    Span {
        timing,
        trace: None,
    }
}

/// Open a request span, keyed by `name` alone, so it may be dropped on
/// any thread. With `Some((handle, parent))` it also opens `name` under
/// `parent` in that trace.
#[must_use = "a span records on drop; binding to _ drops it immediately"]
pub fn span_in(name: &'static str, trace: Option<(&TraceHandle, Option<SpanId>)>) -> Span {
    Span {
        timing: spans_enabled().then(|| Timing {
            key: Key::Name(name),
            start: Instant::now(),
        }),
        trace: trace.map(|(handle, parent)| (handle.clone(), handle.open_span(name, parent))),
    }
}

struct Timing {
    key: Key,
    start: Instant,
}

/// The profile row a guard records into.
enum Key {
    /// A scoped span's joined thread path; popped off the stack on drop.
    Path(String),
    /// A request span's own name; the stack is never touched.
    Name(&'static str),
}

/// RAII span guard returned by [`span`] and [`span_in`]: records its
/// duration into [`Profiler::global`] and closes its trace span on drop.
#[must_use = "a span records on drop; binding to _ drops it immediately"]
pub struct Span {
    timing: Option<Timing>,
    trace: Option<(TraceHandle, SpanId)>,
}

impl Span {
    /// This span's id in the trace it joined, for parenting children;
    /// `None` when no trace rides along.
    pub fn id(&self) -> Option<SpanId> {
        self.trace.as_ref().map(|(_, id)| *id)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let timing = self.timing.take().map(|t| (t.start.elapsed(), t));
        if let Some((handle, id)) = self.trace.take() {
            handle.close_span(id);
        }
        if let Some((elapsed, timing)) = timing {
            let elapsed_ns = elapsed.as_nanos().min(u64::MAX as u128) as u64;
            let profiler = Profiler::global();
            match timing.key {
                Key::Path(path) => {
                    profiler.record(&path, elapsed_ns);
                    SPAN_PATH.with(|stack| {
                        stack.borrow_mut().pop();
                    });
                }
                Key::Name(name) => profiler.record(name, elapsed_ns),
            }
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
        let header = ["stage", "count", "total", "mean", "min", "max"].map(str::to_owned);
        let rows: Vec<[String; 6]> = std::iter::once(header)
            .chain(self.stages.iter().map(|s| {
                [
                    s.path.clone(),
                    s.count.to_string(),
                    fmt_ns(s.total_ns),
                    fmt_ns(s.mean_ns),
                    fmt_ns(s.min_ns),
                    fmt_ns(s.max_ns),
                ]
            }))
            .collect();
        let widths: [usize; 6] =
            std::array::from_fn(|i| rows.iter().map(|row| row[i].len()).max().unwrap_or(0));
        let mut out = String::new();
        for row in &rows {
            // first column left-aligned, numbers right-aligned
            out.push_str(&format!("{:<w$}", row[0], w = widths[0]));
            for (cell, w) in row.iter().zip(widths).skip(1) {
                out.push_str(&format!("  {cell:>w$}"));
            }
            out.push('\n');
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

    /// Rows of the process-wide profile whose path starts with `prefix`:
    /// each test records under names of its own.
    fn rows(prefix: &str) -> Vec<StageRow> {
        let stages = Profiler::global().snapshot().stages;
        stages
            .into_iter()
            .filter(|s| s.path.starts_with(prefix))
            .collect()
    }

    #[test]
    fn nested_spans_build_slash_paths() {
        let _guard = TOGGLE_GUARD.lock();
        set_spans_enabled(true);
        {
            let _outer = span("nested");
            let _inner = span("inner");
        }
        {
            let _solo = span("nested_solo");
        }
        let rows = rows("nested");
        let paths: Vec<&str> = rows.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, vec!["nested", "nested/inner", "nested_solo"]);
        for row in &rows {
            assert_eq!(row.count, 1);
            assert!(row.min_ns <= row.max_ns);
        }
        set_spans_enabled(false);
    }

    #[test]
    fn traced_guard_keys_by_name_and_leaves_the_path_stack_alone() {
        let _guard = TOGGLE_GUARD.lock();
        set_spans_enabled(true);
        let clock = std::sync::Arc::new(crate::ManualClock::at(0));
        let tc = crate::TraceCollector::with_clock(crate::TraceConfig::default(), clock.clone());
        let t = tc.begin("classify");
        {
            let _outer = span("traced");
            let score = span_in("traced_score", Some((&t, None)));
            let _inner = span("inner"); // nests under `traced` alone
            clock.advance(9);
            std::thread::scope(|scope| {
                scope.spawn(move || drop(score));
            });
        }
        let paths: Vec<String> = rows("traced").into_iter().map(|s| s.path).collect();
        assert_eq!(paths, vec!["traced", "traced/inner", "traced_score"]);
        SPAN_PATH.with(|stack| assert!(stack.borrow().is_empty(), "stack unwound"));
        t.flag(crate::TraceFlag::Slow);
        t.finish("ok");
        let score = tc.snapshot()[0].span("traced_score").cloned().unwrap();
        assert_eq!(
            (score.start_us, score.end_us),
            (0, 9),
            "closed on the other thread"
        );
        set_spans_enabled(false);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = TOGGLE_GUARD.lock();
        set_spans_enabled(false);
        {
            let _s = span("quiet");
            let _r = span_in("quiet_request", None);
        }
        assert!(rows("quiet").is_empty());
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
