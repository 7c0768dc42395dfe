//! # frappe-obs — workspace observability
//!
//! The paper is a measurement study: §4–§6 are tables of counts, rates,
//! and per-feature evidence. This crate gives the reproduction's pipeline
//! (crawler → pagekeeper → feature extraction → SVM → serve) the same
//! accounting discipline at runtime, in six modules:
//!
//! * [`metrics`] + [`registry`] — atomic counters, gauges, and
//!   fixed-bucket histograms behind named `Arc` handles; registration
//!   takes a short lock once, recording is lock-free and allocation-free.
//!   Snapshots export as Prometheus text.
//! * [`mod@span`] — the one span guard, [`Span`]. Every guard records
//!   into a bounded per-stage profile table; [`span()`] nests by
//!   `outer/inner` thread path, and [`span_in`] also opens a child span
//!   in the request's trace and closes it on drop. A runtime toggle (env
//!   var [`ENV_TOGGLE`], or [`set_spans_enabled`]) reduces an untraced,
//!   disabled guard to one relaxed atomic load.
//! * [`audit`] — structured verdict records carrying per-feature
//!   contributions (`weight × value`) that sum, with the bias, back to
//!   the decision value. Linear kernels only; producers skip records for
//!   kernels that do not decompose.
//! * [`trace`] — per-request traces with causally-linked spans, minted
//!   at the edge and finished at response write. Deterministic head
//!   sampling plus always-keep tail sampling (429s, sheds, stale-epoch
//!   retries, p99+ latency, requests straddling a promote/rollback/
//!   drain) into a bounded ring, exported as JSONL or Chrome
//!   `trace_event` JSON.
//! * [`slo`] — rolling per-second windows turning request outcomes into
//!   burn-rate and error-budget-remaining gauges (`slo_*`).
//! * [`clock`] — the injectable time source traces, SLO windows and
//!   stamped metric exports use, so they are byte-deterministic under a
//!   [`ManualClock`] (span durations in the profile table are wall time).
//!
//! Spans record into the process-wide [`Profiler::global`]. Metric
//! consumers share [`Registry::global`] or create private registries
//! where isolation matters (each `frappe-serve` service owns its registry
//! so concurrent services — and tests — never share counters).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod clock;
pub mod metrics;
pub mod registry;
pub mod slo;
pub mod span;
pub mod trace;

pub use audit::{AuditLog, AuditRecord, AuditSource, FeatureContribution};
pub use clock::{Clock, ManualClock, WallClock};
pub use metrics::{Counter, ExemplarSnapshot, Gauge, Histogram, HistogramSnapshot};
pub use registry::{escape_label_value, MetricSnapshot, MetricValue, Registry, RegistrySnapshot};
pub use slo::{SloConfig, SloReport, SloWindow};
pub use span::{
    set_spans_enabled, span, span_in, spans_enabled, ProfileSnapshot, Profiler, Span, StageRow,
    ENV_TOGGLE,
};
pub use trace::{
    AlarmRecord, CompletedSpan, CompletedTrace, LifecycleEvent, SpanId, TraceCollector,
    TraceConfig, TraceEvent, TraceFlag, TraceHandle, TraceId, TraceStats,
};
