//! Per-request distributed-style tracing with tail-based sampling.
//!
//! A [`TraceCollector`] mints [`TraceHandle`]s at the request edge; the
//! handle travels with the request (cloned across the scorer-pool
//! boundary) and accumulates causally-linked spans (`parent` pointers)
//! and point events. When the response is written the trace is
//! *finished* and a keep decision is made:
//!
//! * **Head sampling** — a deterministic hash of the trace id against a
//!   seed keeps 1 in [`TraceConfig::head_every`] traces regardless of
//!   what happened to them, giving an unbiased baseline sample.
//! * **Tail sampling** — any trace carrying a [`TraceFlag`] is *always*
//!   kept: 429 sheds, accept-gate sheds, stale-epoch cache retries,
//!   requests slower than [`TraceConfig::slow_us`], and requests that
//!   were in flight during a promote/rollback/drain. The interesting
//!   1% is never lost to sampling.
//!
//! Kept traces land in a bounded ring (oldest overwritten) and export
//! as JSONL or Chrome `trace_event` JSON (load the latter in
//! `chrome://tracing` / Perfetto). Lifecycle transitions flag every
//! in-flight trace and are appended to them as events, so a trace shows
//! *why* it straddled a swap; drift alarms capture recent kept trace
//! ids as exemplars so an alarm links to concrete requests.
//!
//! Determinism: with a [`ManualClock`](crate::ManualClock) and a fixed
//! seed, the kept-trace set is a pure function of the event stream —
//! independent of thread count or interleaving (each trace's keep
//! decision depends only on its own id and flags).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::clock::{Clock, WallClock};

/// Identifier of one trace, unique within its collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The raw id.
    pub fn as_u64(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Identifier of one span within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(pub u32);

/// Why a trace is interesting enough to always keep (tail sampling).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFlag {
    /// Rejected by the scorer-pool admission control (HTTP 429).
    Shed429,
    /// Rejected at the accept gate before a connection existed (503).
    ShedAcceptGate,
    /// In flight while a model promote committed.
    InFlightSwap,
    /// In flight while a rollback committed.
    InFlightRollback,
    /// In flight while the edge was draining.
    InFlightDrain,
    /// Verdict-cache entry existed but was minted under an older model
    /// epoch or store generation (a stale-epoch retry).
    StaleEpoch,
    /// Duration at or above [`TraceConfig::slow_us`] (the p99 SLO edge).
    Slow,
}

impl TraceFlag {
    const ALL: [TraceFlag; 7] = [
        TraceFlag::Shed429,
        TraceFlag::ShedAcceptGate,
        TraceFlag::InFlightSwap,
        TraceFlag::InFlightRollback,
        TraceFlag::InFlightDrain,
        TraceFlag::StaleEpoch,
        TraceFlag::Slow,
    ];

    fn bit(self) -> u32 {
        match self {
            TraceFlag::Shed429 => 1 << 0,
            TraceFlag::ShedAcceptGate => 1 << 1,
            TraceFlag::InFlightSwap => 1 << 2,
            TraceFlag::InFlightRollback => 1 << 3,
            TraceFlag::InFlightDrain => 1 << 4,
            TraceFlag::StaleEpoch => 1 << 5,
            TraceFlag::Slow => 1 << 6,
        }
    }

    /// Stable wire name for this flag.
    pub fn name(self) -> &'static str {
        match self {
            TraceFlag::Shed429 => "shed_429",
            TraceFlag::ShedAcceptGate => "shed_accept_gate",
            TraceFlag::InFlightSwap => "in_flight_swap",
            TraceFlag::InFlightRollback => "in_flight_rollback",
            TraceFlag::InFlightDrain => "in_flight_drain",
            TraceFlag::StaleEpoch => "stale_epoch",
            TraceFlag::Slow => "slow",
        }
    }
}

fn flag_names(bits: u32) -> Vec<String> {
    TraceFlag::ALL
        .iter()
        .filter(|f| bits & f.bit() != 0)
        .map(|f| f.name().to_owned())
        .collect()
}

/// Lifecycle transitions the collector broadcasts onto in-flight traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleEvent {
    /// A model promote committed.
    Promote,
    /// A rollback committed.
    Rollback,
    /// The edge began draining in-flight work.
    DrainBegin,
    /// The edge resumed normal intake.
    DrainEnd,
    /// A drift detector crossed its alarm threshold.
    DriftAlarm,
}

impl LifecycleEvent {
    /// Stable wire name for this event.
    pub fn name(self) -> &'static str {
        match self {
            LifecycleEvent::Promote => "lifecycle/promote",
            LifecycleEvent::Rollback => "lifecycle/rollback",
            LifecycleEvent::DrainBegin => "lifecycle/drain_begin",
            LifecycleEvent::DrainEnd => "lifecycle/drain_end",
            LifecycleEvent::DriftAlarm => "lifecycle/drift_alarm",
        }
    }

    fn flag(self) -> Option<TraceFlag> {
        match self {
            LifecycleEvent::Promote => Some(TraceFlag::InFlightSwap),
            LifecycleEvent::Rollback => Some(TraceFlag::InFlightRollback),
            LifecycleEvent::DrainBegin => Some(TraceFlag::InFlightDrain),
            LifecycleEvent::DrainEnd | LifecycleEvent::DriftAlarm => None,
        }
    }
}

/// Collector tuning knobs.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Completed-trace ring capacity (oldest kept traces are
    /// overwritten beyond this).
    pub capacity: usize,
    /// Head sampling rate: keep 1 in `head_every` traces by id hash.
    /// `0` disables head sampling (tail-only); `1` keeps everything.
    pub head_every: u64,
    /// Seed mixed into the head-sampling hash, so two collectors can
    /// keep disjoint baselines.
    pub seed: u64,
    /// Tail-keep any trace whose total duration reaches this many
    /// microseconds (set it to the latency SLO's p99 bound).
    pub slow_us: u64,
    /// Per-trace span + event budget; recording beyond it is dropped
    /// (the trace notes the truncation) so one pathological request
    /// cannot balloon memory.
    pub max_items: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            capacity: 256,
            head_every: 64,
            seed: 0x5eed_f00d,
            slow_us: 10_000,
            max_items: 64,
        }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
/// One completed, closed span inside a [`CompletedTrace`].
pub struct CompletedSpan {
    /// Span id, unique within the trace.
    pub id: u32,
    /// Parent span id (`None` for roots) — the causal link.
    pub parent: Option<u32>,
    /// Span name, e.g. `edge/request` or `serve/score`.
    pub name: String,
    /// Start timestamp (collector-clock microseconds).
    pub start_us: u64,
    /// End timestamp (collector-clock microseconds).
    pub end_us: u64,
}

/// A point event attached to a trace.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct TraceEvent {
    /// Timestamp (collector-clock microseconds).
    pub ts_us: u64,
    /// Event name, e.g. `cache_miss`.
    pub name: String,
    /// Free-form detail (may be empty).
    pub detail: String,
}

/// A finished, kept trace as exported.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct CompletedTrace {
    /// Trace id.
    pub id: u64,
    /// Trace kind, e.g. `edge` or `classify`.
    pub kind: String,
    /// Start timestamp (collector-clock microseconds).
    pub started_us: u64,
    /// Total duration in microseconds.
    pub duration_us: u64,
    /// Terminal outcome, e.g. `200`, `429`, `overloaded`.
    pub outcome: String,
    /// Whether the unbiased head sample kept this trace (tail flags may
    /// *also* have kept it).
    pub head_sampled: bool,
    /// Tail-sampling flag names that were set (see [`TraceFlag`]).
    pub flags: Vec<String>,
    /// Spans, in creation order, with parent links.
    pub spans: Vec<CompletedSpan>,
    /// Point events, in recording order.
    pub events: Vec<TraceEvent>,
}

impl CompletedTrace {
    /// Whether the named flag was set on this trace.
    pub fn has_flag(&self, flag: TraceFlag) -> bool {
        self.flags.iter().any(|f| f == flag.name())
    }

    /// The span with the given name, if present.
    pub fn span(&self, name: &str) -> Option<&CompletedSpan> {
        self.spans.iter().find(|s| s.name == name)
    }
}

/// A drift (or other) alarm with exemplar trace ids attached.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct AlarmRecord {
    /// Timestamp (collector-clock microseconds).
    pub ts_us: u64,
    /// Alarm name, e.g. `psi_drift`.
    pub name: String,
    /// Free-form detail (e.g. the worst lane and its PSI).
    pub detail: String,
    /// Recently kept trace ids, newest first — concrete requests that
    /// crossed the detector around alarm time.
    pub exemplar_trace_ids: Vec<u64>,
}

/// Counters describing collector activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceStats {
    /// Traces minted.
    pub started: u64,
    /// Traces finished.
    pub finished: u64,
    /// Finished traces kept (head or tail).
    pub kept: u64,
    /// Kept traces that the head sample selected.
    pub head_kept: u64,
    /// Kept traces that only tail flags selected.
    pub tail_kept: u64,
}

#[derive(Debug)]
struct SpanRec {
    id: u32,
    parent: Option<u32>,
    name: &'static str,
    start_us: u64,
    end_us: Option<u64>,
}

#[derive(Debug, Default)]
struct ActiveBody {
    spans: Vec<SpanRec>,
    events: Vec<(u64, &'static str, String)>,
    next_span: u32,
    truncated: bool,
}

/// A trace being recorded. Shared between the edge, the router and the
/// serve layer via [`TraceHandle`] clones.
pub struct ActiveTrace {
    id: u64,
    kind: &'static str,
    started_us: u64,
    head_sampled: bool,
    flags: AtomicU32,
    finished: AtomicBool,
    body: Mutex<ActiveBody>,
}

struct Shared {
    clock: Arc<dyn Clock>,
    config: TraceConfig,
    next_id: AtomicU64,
    slots: Box<[Mutex<Option<CompletedTrace>>]>,
    cursor: AtomicU64,
    active: Mutex<Vec<Weak<ActiveTrace>>>,
    recent_kept: Mutex<VecDeque<u64>>,
    alarms: Mutex<Vec<AlarmRecord>>,
    started: AtomicU64,
    finished: AtomicU64,
    kept: AtomicU64,
    head_kept: AtomicU64,
    tail_kept: AtomicU64,
}

/// The tail-sampling trace collector. Cheap to clone (all clones share
/// state).
#[derive(Clone)]
pub struct TraceCollector {
    shared: Arc<Shared>,
}

impl TraceCollector {
    /// A collector on real time.
    pub fn new(config: TraceConfig) -> Self {
        Self::with_clock(config, Arc::new(WallClock::new()))
    }

    /// A collector on an injected clock (deterministic in tests).
    pub fn with_clock(config: TraceConfig, clock: Arc<dyn Clock>) -> Self {
        let capacity = config.capacity.max(1);
        let slots = (0..capacity).map(|_| Mutex::new(None)).collect();
        Self {
            shared: Arc::new(Shared {
                clock,
                config,
                next_id: AtomicU64::new(1),
                slots,
                cursor: AtomicU64::new(0),
                active: Mutex::new(Vec::new()),
                recent_kept: Mutex::new(VecDeque::new()),
                alarms: Mutex::new(Vec::new()),
                started: AtomicU64::new(0),
                finished: AtomicU64::new(0),
                kept: AtomicU64::new(0),
                head_kept: AtomicU64::new(0),
                tail_kept: AtomicU64::new(0),
            }),
        }
    }

    /// The clock this collector stamps with.
    pub fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.shared.clock)
    }

    /// Current collector time in microseconds.
    pub fn now_micros(&self) -> u64 {
        self.shared.clock.now_micros()
    }

    /// Mint a new trace of the given kind and return its handle.
    pub fn begin(&self, kind: &'static str) -> TraceHandle {
        let s = &self.shared;
        let id = s.next_id.fetch_add(1, Ordering::Relaxed);
        s.started.fetch_add(1, Ordering::Relaxed);
        let head_sampled = match s.config.head_every {
            0 => false,
            n => splitmix64(id ^ s.config.seed).is_multiple_of(n),
        };
        let trace = Arc::new(ActiveTrace {
            id,
            kind,
            started_us: s.clock.now_micros(),
            head_sampled,
            flags: AtomicU32::new(0),
            finished: AtomicBool::new(false),
            body: Mutex::new(ActiveBody::default()),
        });
        {
            let mut active = s.active.lock();
            if active.len() >= 64 && active.len().is_multiple_of(64) {
                active.retain(|w| w.strong_count() > 0);
            }
            active.push(Arc::downgrade(&trace));
        }
        TraceHandle {
            trace,
            collector: Arc::clone(&self.shared),
        }
    }

    /// Broadcast a lifecycle transition: flags every in-flight trace
    /// (per [`LifecycleEvent`] semantics) and appends the event to each
    /// so the exported trace shows what it straddled.
    pub fn lifecycle_event(&self, event: LifecycleEvent, detail: &str) {
        let ts = self.shared.clock.now_micros();
        let flag = event.flag();
        let mut active = self.shared.active.lock();
        active.retain(|w| w.strong_count() > 0);
        for weak in active.iter() {
            let Some(trace) = weak.upgrade() else {
                continue;
            };
            if trace.finished.load(Ordering::Acquire) {
                continue;
            }
            if let Some(flag) = flag {
                trace.flags.fetch_or(flag.bit(), Ordering::Relaxed);
            }
            let mut body = trace.body.lock();
            if body.spans.len() + body.events.len() < self.shared.config.max_items {
                body.events.push((ts, event.name(), detail.to_owned()));
            }
        }
    }

    /// Record an alarm carrying up to `max_exemplars` recently kept
    /// trace ids (newest first) and return it.
    pub fn alarm(&self, name: &str, detail: &str, max_exemplars: usize) -> AlarmRecord {
        let record = AlarmRecord {
            ts_us: self.shared.clock.now_micros(),
            name: name.to_owned(),
            detail: detail.to_owned(),
            exemplar_trace_ids: self.recent_kept_ids(max_exemplars),
        };
        self.shared.alarms.lock().push(record.clone());
        record
    }

    /// All alarms recorded so far, oldest first.
    pub fn alarms(&self) -> Vec<AlarmRecord> {
        self.shared.alarms.lock().clone()
    }

    /// Kept traces currently in the ring, oldest first.
    pub fn snapshot(&self) -> Vec<CompletedTrace> {
        let s = &self.shared;
        let cap = s.slots.len() as u64;
        let cursor = s.cursor.load(Ordering::Acquire);
        let mut out = Vec::new();
        for i in cursor..cursor + cap {
            let slot = s.slots[(i % cap) as usize].lock();
            if let Some(trace) = slot.as_ref() {
                out.push(trace.clone());
            }
        }
        out
    }

    /// Export kept traces as JSONL, one trace object per line, oldest
    /// first.
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for trace in self.snapshot() {
            out.push_str(&serde_json::to_string(&trace).expect("trace serializes"));
            out.push('\n');
        }
        out
    }

    /// Export kept traces in Chrome `trace_event` format (a JSON array
    /// of `ph:"X"` complete spans and `ph:"i"` instant events; open in
    /// `chrome://tracing` or Perfetto). Each trace renders as one
    /// `tid` row.
    pub fn export_chrome_trace(&self) -> String {
        let mut events = Vec::new();
        for trace in self.snapshot() {
            for span in &trace.spans {
                events.push(serde_json::json!({
                    "name": span.name,
                    "cat": trace.kind,
                    "ph": "X",
                    "ts": span.start_us,
                    "dur": span.end_us.saturating_sub(span.start_us),
                    "pid": 1,
                    "tid": trace.id,
                    "args": {
                        "trace_id": format!("{:016x}", trace.id),
                        "parent": span.parent,
                        "outcome": trace.outcome,
                        "flags": trace.flags,
                    },
                }));
            }
            for event in &trace.events {
                events.push(serde_json::json!({
                    "name": event.name,
                    "ph": "i",
                    "s": "t",
                    "ts": event.ts_us,
                    "pid": 1,
                    "tid": trace.id,
                    "args": { "detail": event.detail },
                }));
            }
        }
        serde_json::to_string(&events).expect("chrome trace serializes")
    }

    /// Activity counters.
    pub fn stats(&self) -> TraceStats {
        let s = &self.shared;
        TraceStats {
            started: s.started.load(Ordering::Relaxed),
            finished: s.finished.load(Ordering::Relaxed),
            kept: s.kept.load(Ordering::Relaxed),
            head_kept: s.head_kept.load(Ordering::Relaxed),
            tail_kept: s.tail_kept.load(Ordering::Relaxed),
        }
    }

    /// Publish activity counters and ring occupancy onto a registry as
    /// `trace_*` gauges (call at scrape time).
    pub fn publish_metrics(&self, registry: &crate::Registry) {
        let stats = self.stats();
        registry.gauge("trace_started").set(stats.started as i64);
        registry.gauge("trace_finished").set(stats.finished as i64);
        registry.gauge("trace_kept").set(stats.kept as i64);
        registry
            .gauge("trace_head_kept")
            .set(stats.head_kept as i64);
        registry
            .gauge("trace_tail_kept")
            .set(stats.tail_kept as i64);
    }

    /// The most recently kept trace ids, newest first.
    pub fn recent_kept_ids(&self, n: usize) -> Vec<u64> {
        let recent = self.shared.recent_kept.lock();
        recent.iter().rev().take(n).copied().collect()
    }
}

/// A cloneable handle onto one in-flight trace.
#[derive(Clone)]
pub struct TraceHandle {
    trace: Arc<ActiveTrace>,
    collector: Arc<Shared>,
}

impl TraceHandle {
    /// This trace's id.
    pub fn id(&self) -> TraceId {
        TraceId(self.trace.id)
    }

    /// Collector-clock "now", for callers that need to stamp retro
    /// spans consistently with the trace's own timestamps.
    pub fn now_micros(&self) -> u64 {
        self.collector.clock.now_micros()
    }

    /// Open a span starting now; [`crate::span_in`] is the public way in,
    /// and its guard closes the span on drop.
    pub(crate) fn open_span(&self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = self.collector.clock.now_micros();
        self.push_span(name, parent, now, None)
    }

    /// Record an already-closed span with explicit timestamps (for
    /// phases measured before the recording point, e.g. queue wait).
    pub fn span_at(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        start_us: u64,
        end_us: u64,
    ) -> SpanId {
        self.push_span(name, parent, start_us, Some(end_us.max(start_us)))
    }

    fn push_span(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        start_us: u64,
        end_us: Option<u64>,
    ) -> SpanId {
        let mut body = self.trace.body.lock();
        let id = body.next_span;
        body.next_span += 1;
        if body.spans.len() + body.events.len() >= self.collector.config.max_items {
            body.truncated = true;
            return SpanId(id);
        }
        body.spans.push(SpanRec {
            id,
            parent: parent.map(|p| p.0),
            name,
            start_us,
            end_us,
        });
        SpanId(id)
    }

    /// Close an open span now (a [`crate::Span`] guard's drop). Unknown
    /// or already-closed ids — and every id once the trace has finished —
    /// are ignored.
    pub(crate) fn close_span(&self, span: SpanId) {
        let now = self.collector.clock.now_micros();
        let mut body = self.trace.body.lock();
        if let Some(rec) = body.spans.iter_mut().find(|s| s.id == span.0) {
            if rec.end_us.is_none() {
                rec.end_us = Some(now.max(rec.start_us));
            }
        }
    }

    /// Attach a point event (timestamped now).
    pub fn event(&self, name: &'static str, detail: impl Into<String>) {
        let now = self.collector.clock.now_micros();
        let mut body = self.trace.body.lock();
        if body.spans.len() + body.events.len() >= self.collector.config.max_items {
            body.truncated = true;
            return;
        }
        body.events.push((now, name, detail.into()));
    }

    /// Set a tail-sampling flag; the trace will always be kept.
    pub fn flag(&self, flag: TraceFlag) {
        self.trace.flags.fetch_or(flag.bit(), Ordering::Relaxed);
    }

    /// Finish the trace: close every still-open span at this timestamp
    /// (guards dropped later change nothing), apply the latency tail rule,
    /// decide keep-or-drop, and (if kept) publish into the ring.
    /// Idempotent — only the first call wins. Returns whether the trace
    /// was kept.
    pub fn finish(&self, outcome: &str) -> bool {
        if self.trace.finished.swap(true, Ordering::AcqRel) {
            return false;
        }
        let s = &self.collector;
        let now = s.clock.now_micros();
        let duration = now.saturating_sub(self.trace.started_us);
        if s.config.slow_us > 0 && duration >= s.config.slow_us {
            self.trace
                .flags
                .fetch_or(TraceFlag::Slow.bit(), Ordering::Relaxed);
        }
        s.finished.fetch_add(1, Ordering::Relaxed);

        let flags = self.trace.flags.load(Ordering::Relaxed);
        let keep = self.trace.head_sampled || flags != 0;
        if !keep {
            return false;
        }
        s.kept.fetch_add(1, Ordering::Relaxed);
        if self.trace.head_sampled {
            s.head_kept.fetch_add(1, Ordering::Relaxed);
        } else {
            s.tail_kept.fetch_add(1, Ordering::Relaxed);
        }

        let mut body = self.trace.body.lock();
        let truncated = body.truncated;
        let spans: Vec<CompletedSpan> = body
            .spans
            .iter()
            .map(|rec| CompletedSpan {
                id: rec.id,
                parent: rec.parent,
                name: rec.name.to_owned(),
                start_us: rec.start_us,
                end_us: rec.end_us.unwrap_or(now),
            })
            .collect();
        let mut events: Vec<TraceEvent> = body
            .events
            .drain(..)
            .map(|(ts_us, name, detail)| TraceEvent {
                ts_us,
                name: name.to_owned(),
                detail,
            })
            .collect();
        body.spans.clear();
        drop(body);
        if truncated {
            events.push(TraceEvent {
                ts_us: now,
                name: "truncated".to_owned(),
                detail: "span/event budget exhausted".to_owned(),
            });
        }

        let completed = CompletedTrace {
            id: self.trace.id,
            kind: self.trace.kind.to_owned(),
            started_us: self.trace.started_us,
            duration_us: duration,
            outcome: outcome.to_owned(),
            head_sampled: self.trace.head_sampled,
            flags: flag_names(flags),
            spans,
            events,
        };

        {
            let mut recent = s.recent_kept.lock();
            if recent.len() >= 64 {
                recent.pop_front();
            }
            recent.push_back(self.trace.id);
        }
        let cap = s.slots.len() as u64;
        let idx = s.cursor.fetch_add(1, Ordering::AcqRel) % cap;
        *s.slots[idx as usize].lock() = Some(completed);
        true
    }
}

/// SplitMix64 finalizer — the head-sampling hash. Deterministic and
/// well-mixed so `id % N` biases don't leak into the sample.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::span::span_in;

    fn collector(config: TraceConfig) -> (TraceCollector, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::at(1_000));
        (
            TraceCollector::with_clock(config, Arc::clone(&clock) as Arc<dyn Clock>),
            clock,
        )
    }

    fn tail_only() -> TraceConfig {
        TraceConfig {
            head_every: 0,
            ..TraceConfig::default()
        }
    }

    #[test]
    fn unflagged_traces_are_dropped_without_head_sampling() {
        let (tc, _) = collector(tail_only());
        let t = tc.begin("edge");
        assert!(!t.finish("200"));
        assert!(tc.snapshot().is_empty());
        let stats = tc.stats();
        assert_eq!((stats.started, stats.finished, stats.kept), (1, 1, 0));
    }

    #[test]
    fn flagged_traces_are_always_kept_with_causal_spans() {
        let (tc, clock) = collector(tail_only());
        let t = tc.begin("edge");
        let request = span_in("edge/request", Some((&t, None)));
        clock.advance(10);
        let score = span_in("serve/score", Some((&t, request.id())));
        t.event("cache_miss", "gen=1");
        clock.advance(20);
        drop(score);
        t.flag(TraceFlag::Shed429);
        clock.advance(5);
        assert!(t.finish("429"));

        let kept = tc.snapshot();
        assert_eq!(kept.len(), 1);
        let trace = &kept[0];
        assert!(trace.has_flag(TraceFlag::Shed429));
        assert!(!trace.head_sampled);
        assert_eq!(trace.duration_us, 35);
        let root = trace.span("edge/request").unwrap();
        let score = trace.span("serve/score").unwrap();
        assert_eq!(score.parent, Some(root.id), "causal link");
        assert!(score.start_us >= root.start_us);
        assert_eq!(score.end_us - score.start_us, 20);
        assert_eq!(
            root.end_us,
            trace.started_us + trace.duration_us,
            "open spans close at finish"
        );
        assert_eq!(trace.events[0].name, "cache_miss");
    }

    #[test]
    fn finish_closes_every_open_span_at_the_finish_timestamp() {
        let (tc, clock) = collector(tail_only());
        let t = tc.begin("edge");
        let outer = span_in("edge/request", Some((&t, None)));
        clock.advance(3);
        let inner = span_in("serve/score", Some((&t, outer.id())));
        clock.advance(4);
        t.flag(TraceFlag::Shed429);
        assert!(t.finish("429"));
        clock.advance(50); // guards outliving the finish change nothing
        drop((inner, outer));
        let ends: Vec<u64> = tc.snapshot()[0].spans.iter().map(|s| s.end_us).collect();
        assert_eq!(ends, vec![1_007, 1_007]);
    }

    #[test]
    fn guard_dropped_on_an_early_return_closes_its_span() {
        let (tc, clock) = collector(tail_only());
        let t = tc.begin("edge");
        let lookup = |found: bool| -> Result<(), ()> {
            let _eval = span_in("serve/model_eval", Some((&t, None)));
            clock.advance(5);
            found.then_some(()).ok_or(())?;
            clock.advance(100);
            Ok(())
        };
        assert!(lookup(false).is_err());
        clock.advance(20);
        t.flag(TraceFlag::Shed429);
        assert!(t.finish("404"));
        let eval = tc.snapshot()[0].span("serve/model_eval").cloned().unwrap();
        assert_eq!(
            (eval.start_us, eval.end_us),
            (1_000, 1_005),
            "closed by the guard"
        );
    }

    #[test]
    fn slow_traces_tail_sample_at_threshold() {
        let (tc, clock) = collector(TraceConfig {
            head_every: 0,
            slow_us: 100,
            ..TraceConfig::default()
        });
        let fast = tc.begin("edge");
        clock.advance(99);
        assert!(!fast.finish("200"));
        let slow = tc.begin("edge");
        clock.advance(100);
        assert!(slow.finish("200"));
        assert!(tc.snapshot()[0].has_flag(TraceFlag::Slow));
    }

    #[test]
    fn head_sampling_is_a_pure_function_of_id_and_seed() {
        let cfg = TraceConfig {
            head_every: 4,
            slow_us: 0,
            ..TraceConfig::default()
        };
        let run = || {
            let (tc, _) = collector(cfg.clone());
            let mut kept = Vec::new();
            for _ in 0..64 {
                let t = tc.begin("edge");
                if t.finish("200") {
                    kept.push(t.id().as_u64());
                }
            }
            kept
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed + same stream = same kept set");
        assert!(
            !a.is_empty() && a.len() < 64,
            "sampling, not all-or-nothing"
        );
    }

    #[test]
    fn finish_is_idempotent_and_first_call_wins() {
        let (tc, _) = collector(tail_only());
        let t = tc.begin("edge");
        let t2 = t.clone();
        t.flag(TraceFlag::StaleEpoch);
        assert!(t.finish("200"));
        assert!(!t2.finish("500"), "second finish is a no-op");
        assert_eq!(tc.snapshot().len(), 1);
        assert_eq!(tc.snapshot()[0].outcome, "200");
    }

    #[test]
    fn ring_overwrites_oldest() {
        let (tc, _) = collector(TraceConfig {
            capacity: 2,
            head_every: 1,
            slow_us: 0,
            ..TraceConfig::default()
        });
        for _ in 0..5 {
            tc.begin("edge").finish("200");
        }
        let kept = tc.snapshot();
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].id + 1, kept[1].id, "oldest first");
        assert_eq!(kept[1].id, 5);
    }

    #[test]
    fn lifecycle_events_flag_in_flight_traces_only() {
        let (tc, _) = collector(tail_only());
        let before = tc.begin("edge");
        before.finish("200");
        let in_flight = tc.begin("edge");
        tc.lifecycle_event(LifecycleEvent::Promote, "v2");
        let after = tc.begin("edge");
        assert!(in_flight.finish("200"));
        assert!(!after.finish("200"), "started after the event — unflagged");

        let kept = tc.snapshot();
        assert_eq!(kept.len(), 1);
        assert!(kept[0].has_flag(TraceFlag::InFlightSwap));
        assert_eq!(kept[0].events[0].name, "lifecycle/promote");
        assert_eq!(kept[0].events[0].detail, "v2");
    }

    #[test]
    fn alarms_capture_recent_kept_exemplars() {
        let (tc, _) = collector(tail_only());
        let ids: Vec<u64> = (0..3)
            .map(|_| {
                let t = tc.begin("edge");
                t.flag(TraceFlag::Shed429);
                t.finish("429");
                t.id().as_u64()
            })
            .collect();
        let alarm = tc.alarm("psi_drift", "lane=posts psi=0.31", 2);
        assert_eq!(alarm.exemplar_trace_ids, vec![ids[2], ids[1]]);
        assert_eq!(tc.alarms().len(), 1);
    }

    #[test]
    fn jsonl_roundtrips_and_chrome_export_parses() {
        let (tc, clock) = collector(tail_only());
        let t = tc.begin("edge");
        let root = span_in("edge/request", Some((&t, None)));
        clock.advance(7);
        drop(root);
        t.flag(TraceFlag::InFlightDrain);
        t.finish("200");

        let jsonl = tc.export_jsonl();
        let parsed: CompletedTrace =
            serde_json::from_str(jsonl.lines().next().unwrap()).expect("line parses");
        assert_eq!(parsed.id, 1);
        assert_eq!(parsed.spans[0].name, "edge/request");

        let chrome: Vec<serde_json::Value> =
            serde_json::from_str(&tc.export_chrome_trace()).expect("chrome json parses");
        let first = &chrome[0];
        assert_eq!(first.get_field("ph").and_then(|v| v.as_str()), Some("X"));
        assert_eq!(first.get_field("dur").and_then(|v| v.as_u64()), Some(7));
        assert_eq!(first.get_field("tid").and_then(|v| v.as_u64()), Some(1));
    }

    #[test]
    fn span_budget_truncates_and_marks() {
        let (tc, _) = collector(TraceConfig {
            head_every: 1,
            max_items: 2,
            slow_us: 0,
            ..TraceConfig::default()
        });
        let t = tc.begin("edge");
        for _ in 0..5 {
            let _span = span_in("edge/request", Some((&t, None)));
        }
        t.finish("200");
        let kept = tc.snapshot();
        assert_eq!(kept[0].spans.len(), 2);
        assert_eq!(kept[0].events.last().unwrap().name, "truncated");
    }
}
