//! The [`ScoringBackend`] abstraction over "one service" vs "K groups".
//!
//! Everything upstream of the serving layer — the network edge
//! (`frappe-net`) and the lifecycle manager (`frappe-lifecycle`) — used
//! to hold a concrete [`FrappeService`]. With shard groups there are two
//! deployment shapes: the single-instance service and the
//! [`ShardRouter`] fronting K partition-owning groups. [`ScoringBackend`]
//! is the one surface both expose, so the edge and the lifecycle loop
//! are written once and run unchanged against either.
//!
//! The trait is deliberately the *intersection semantics*, not the
//! union: `ingest_event` is fallible because router mailboxes are
//! bounded (the single service simply never fails it), `flush_ingest`
//! is a barrier because routed ingest is asynchronous (a no-op when
//! ingest is synchronous), and `exposition` is "the whole deployment's
//! scrape" (one registry, or the merged per-group view).

use std::sync::Arc;

use frappe::{AppFeatures, FrappeModel, SharedModel, VersionedModel};
use frappe_obs::{Registry, RegistrySnapshot, SpanId, TraceCollector, TraceHandle};
use osn_types::ids::AppId;

use crate::event::ServeEvent;
use crate::metrics::MetricsSnapshot;
use crate::router::ShardRouter;
use crate::service::{FrappeService, PendingVerdict, ServeError, Verdict};

/// One serving deployment, whatever its shape: a single
/// [`FrappeService`] or a [`ShardRouter`] over K shard groups.
pub trait ScoringBackend: Send + Sync {
    /// Applies one event. Fallible: a shard-group deployment forwards
    /// through a bounded mailbox and sheds with
    /// [`ServeError::Overloaded`] when the owner group's mailbox is
    /// full; a single service applies synchronously and never fails.
    fn ingest_event(&self, event: &ServeEvent) -> Result<(), ServeError>;

    /// Barrier: returns once every event accepted before this call is
    /// visible to classify. A no-op for synchronous ingest.
    fn flush_ingest(&self);

    /// Classifies one app, blocking until a scorer answers.
    fn classify(&self, app: AppId) -> Result<Verdict, ServeError>;

    /// Submits a classification without waiting, threading an optional
    /// edge-minted trace through to the scorer's spans.
    fn classify_traced(
        &self,
        app: AppId,
        edge_trace: Option<(TraceHandle, Option<SpanId>)>,
    ) -> Result<PendingVerdict, ServeError>;

    /// Current feature row for one app (the parity-test window).
    fn features(&self, app: AppId) -> Option<AppFeatures>;

    /// Grows the known-malicious collision list; returns whether the
    /// normalized name was new. Observed by the whole deployment.
    fn flag_name(&self, name: &str) -> bool;

    /// Hot-swaps the scoring model deployment-wide (one shared epoch
    /// pointer — atomic across all groups), returning the displaced
    /// model.
    fn swap_model(&self, model: Arc<FrappeModel>, version: u64) -> Arc<VersionedModel>;

    /// The shared model handle the deployment scores through.
    fn model_handle(&self) -> SharedModel;

    /// Eagerly drops every cached verdict, returning the eviction count.
    fn clear_verdict_cache(&self) -> usize;

    /// Requests waiting in scoring queues (summed across groups).
    fn queue_depth(&self) -> usize;

    /// Total scoring-queue capacity (summed across groups) — the edge's
    /// resume-hysteresis denominator.
    fn queue_capacity(&self) -> usize;

    /// Retry hint handed to rejected callers, in milliseconds.
    fn retry_after_ms(&self) -> u64;

    /// Point-in-time metrics for the whole deployment (summed across
    /// groups where additive).
    fn metrics(&self) -> MetricsSnapshot;

    /// The base registry: where transport layers register their own
    /// instruments so one scrape shows the whole process.
    fn obs_registry(&self) -> &Arc<Registry>;

    /// The deployment's full scrape: the base registry plus, for a
    /// router, every group's families merged in per-group lanes.
    fn exposition(&self) -> RegistrySnapshot;

    /// Attach a trace collector (in-process classifies mint traces).
    fn set_trace_collector(&self, collector: TraceCollector);

    /// The attached trace collector, if any (clones share state).
    fn trace_collector(&self) -> Option<TraceCollector>;

    /// Apps the deployment has evidence for, sorted.
    fn tracked_apps(&self) -> Vec<AppId>;

    /// Number of shard groups (1 for a single service).
    fn group_count(&self) -> usize;

    /// The group that owns `app` (always 0 for a single service).
    fn group_of(&self, app: AppId) -> usize;
}

impl ScoringBackend for FrappeService {
    fn ingest_event(&self, event: &ServeEvent) -> Result<(), ServeError> {
        self.ingest(event);
        Ok(())
    }

    fn flush_ingest(&self) {}

    fn classify(&self, app: AppId) -> Result<Verdict, ServeError> {
        FrappeService::classify(self, app)
    }

    fn classify_traced(
        &self,
        app: AppId,
        edge_trace: Option<(TraceHandle, Option<SpanId>)>,
    ) -> Result<PendingVerdict, ServeError> {
        FrappeService::classify_traced(self, app, edge_trace)
    }

    fn features(&self, app: AppId) -> Option<AppFeatures> {
        FrappeService::features(self, app)
    }

    fn flag_name(&self, name: &str) -> bool {
        FrappeService::flag_name(self, name)
    }

    fn swap_model(&self, model: Arc<FrappeModel>, version: u64) -> Arc<VersionedModel> {
        FrappeService::swap_model(self, model, version)
    }

    fn model_handle(&self) -> SharedModel {
        FrappeService::model_handle(self)
    }

    fn clear_verdict_cache(&self) -> usize {
        FrappeService::clear_verdict_cache(self)
    }

    fn queue_depth(&self) -> usize {
        FrappeService::queue_depth(self)
    }

    fn queue_capacity(&self) -> usize {
        self.config().queue_capacity
    }

    fn retry_after_ms(&self) -> u64 {
        self.config().retry_after_ms
    }

    fn metrics(&self) -> MetricsSnapshot {
        FrappeService::metrics(self)
    }

    fn obs_registry(&self) -> &Arc<Registry> {
        FrappeService::obs_registry(self)
    }

    fn exposition(&self) -> RegistrySnapshot {
        let _ = FrappeService::metrics(self); // refresh the queue-depth gauge
        FrappeService::obs_registry(self).snapshot()
    }

    fn set_trace_collector(&self, collector: TraceCollector) {
        FrappeService::set_trace_collector(self, collector)
    }

    fn trace_collector(&self) -> Option<TraceCollector> {
        FrappeService::trace_collector(self)
    }

    fn tracked_apps(&self) -> Vec<AppId> {
        FrappeService::tracked_apps(self)
    }

    fn group_count(&self) -> usize {
        1
    }

    fn group_of(&self, _app: AppId) -> usize {
        0
    }
}

impl ScoringBackend for ShardRouter {
    fn ingest_event(&self, event: &ServeEvent) -> Result<(), ServeError> {
        ShardRouter::ingest(self, event)
    }

    fn flush_ingest(&self) {
        ShardRouter::flush(self)
    }

    fn classify(&self, app: AppId) -> Result<Verdict, ServeError> {
        ShardRouter::classify(self, app)
    }

    fn classify_traced(
        &self,
        app: AppId,
        edge_trace: Option<(TraceHandle, Option<SpanId>)>,
    ) -> Result<PendingVerdict, ServeError> {
        ShardRouter::classify_traced(self, app, edge_trace)
    }

    fn features(&self, app: AppId) -> Option<AppFeatures> {
        ShardRouter::features(self, app)
    }

    fn flag_name(&self, name: &str) -> bool {
        ShardRouter::flag_name(self, name)
    }

    fn swap_model(&self, model: Arc<FrappeModel>, version: u64) -> Arc<VersionedModel> {
        ShardRouter::swap_model(self, model, version)
    }

    fn model_handle(&self) -> SharedModel {
        ShardRouter::model_handle(self)
    }

    fn clear_verdict_cache(&self) -> usize {
        ShardRouter::clear_verdict_cache(self)
    }

    fn queue_depth(&self) -> usize {
        ShardRouter::queue_depth(self)
    }

    fn queue_capacity(&self) -> usize {
        self.config().group.queue_capacity * self.group_count()
    }

    fn retry_after_ms(&self) -> u64 {
        self.config().group.retry_after_ms
    }

    fn metrics(&self) -> MetricsSnapshot {
        ShardRouter::metrics(self)
    }

    fn obs_registry(&self) -> &Arc<Registry> {
        ShardRouter::obs_registry(self)
    }

    fn exposition(&self) -> RegistrySnapshot {
        ShardRouter::exposition(self)
    }

    fn set_trace_collector(&self, collector: TraceCollector) {
        ShardRouter::set_trace_collector(self, collector)
    }

    fn trace_collector(&self) -> Option<TraceCollector> {
        ShardRouter::trace_collector(self)
    }

    fn tracked_apps(&self) -> Vec<AppId> {
        ShardRouter::tracked_apps(self)
    }

    fn group_count(&self) -> usize {
        ShardRouter::group_count(self)
    }

    fn group_of(&self, app: AppId) -> usize {
        ShardRouter::group_of(self, app)
    }
}
