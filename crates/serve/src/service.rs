//! The service façade: one struct that owns the store, the cache, the
//! scorer pool, the known-malicious-names list, and the metrics, and
//! exposes the two verbs that matter — `ingest(event)` and
//! `classify(app)`.
//!
//! ## Concurrency shape
//!
//! * **Ingest** is wait-free apart from one shard write lock; it never
//!   touches the cache (invalidation is by generation stamp, see
//!   [`crate::cache`]).
//! * **Classify** goes through the bounded scoring queue. When the queue
//!   is full the call is *rejected immediately* with
//!   [`ServeError::Overloaded`] carrying a retry-after hint — the paper's
//!   "FRAppE as a service" must degrade by shedding queries, not by
//!   stalling the event stream.
//! * **Known-name growth** ([`FrappeService::flag_name`]) takes the one
//!   write lock and bumps the global known-generation, lazily
//!   invalidating every cached verdict (a new name can flip any app's
//!   collision bit).

use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError};
use frappe::features::aggregation::KnownMaliciousNames;
use frappe::{AppFeatures, FrappeModel, SharedKnownNames, VersionedModel};
use frappe_obs::{
    AuditLog, AuditSource, Registry, Span, SpanId, TraceCollector, TraceFlag, TraceHandle,
};
use osn_types::ids::AppId;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use url_services::shortener::Shortener;

use crate::cache::{CacheLookup, VerdictCache};
use crate::control::ControlPlane;
use crate::event::ServeEvent;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::pool::ScorerPool;
use crate::store::{FeatureSnapshot, FeatureStore};

/// Tuning knobs for one service instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Feature-store and cache shards (lock granularity).
    pub shards: usize,
    /// Scorer threads.
    pub workers: usize,
    /// Bounded scoring-queue capacity; beyond it queries are rejected.
    pub queue_capacity: usize,
    /// Max requests a worker drains per wake-up.
    pub batch_size: usize,
    /// Retry hint handed to rejected callers (ms).
    pub retry_after_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 4,
            workers: 2,
            queue_capacity: 256,
            batch_size: 16,
            retry_after_ms: 5,
        }
    }
}

/// The service's answer for one app.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Verdict {
    /// The classified app.
    pub app: AppId,
    /// FRAppE's call: malicious?
    pub malicious: bool,
    /// Raw SVM decision value (positive ⇒ malicious); ranks severity.
    pub decision_value: f64,
    /// Feature-store generation the verdict scored — pin it to the
    /// evidence it was based on.
    pub generation: u64,
    /// Registry version of the model that scored it — pins the verdict
    /// to the model across hot swaps.
    pub model_version: u64,
}

/// Why a classify call did not produce a verdict.
///
/// Serializes externally tagged — `{"UnknownApp": 404}`,
/// `{"Overloaded": {"retry_after_ms": 5}}`, `"ShuttingDown"` — which is
/// the wire format the network edge's [`ErrorEnvelope`] carries; the
/// envelope test pins it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServeError {
    /// No event has ever mentioned this app.
    UnknownApp(AppId),
    /// The scoring queue is full; retry after the hinted delay.
    Overloaded {
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u64,
    },
    /// The service is shutting down.
    ShuttingDown,
}

/// The stable JSON error body every transport shares: the HTTP edge
/// (`frappe-net`) writes it, socket clients (the edge tests, curl users)
/// read it back, and the wire format is pinned by a unit test here so
/// neither side can drift.
///
/// `retry_after_ms` is hoisted to the top level for [`ServeError::Overloaded`]
/// (and `null` otherwise) so a client can honour backpressure without
/// knowing the full error vocabulary.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorEnvelope {
    /// The error, externally tagged (see [`ServeError`]).
    pub error: ServeError,
    /// Copy of the retry hint when the error is `Overloaded`.
    pub retry_after_ms: Option<u64>,
}

impl ErrorEnvelope {
    /// Wraps an error, hoisting the retry hint.
    pub fn new(error: ServeError) -> Self {
        let retry_after_ms = match &error {
            ServeError::Overloaded { retry_after_ms } => Some(*retry_after_ms),
            _ => None,
        };
        ErrorEnvelope {
            error,
            retry_after_ms,
        }
    }
}

impl From<ServeError> for ErrorEnvelope {
    fn from(error: ServeError) -> Self {
        ErrorEnvelope::new(error)
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownApp(app) => write!(f, "app {app:?} has never been observed"),
            ServeError::Overloaded { retry_after_ms } => {
                write!(f, "scoring queue full; retry after {retry_after_ms}ms")
            }
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

impl ServeError {
    /// The outcome a trace finishes with when this error ends it.
    pub(crate) fn outcome(&self) -> &'static str {
        match self {
            ServeError::UnknownApp(_) => "unknown_app",
            ServeError::Overloaded { .. } => "overloaded",
            ServeError::ShuttingDown => "shutting_down",
        }
    }
}

/// Trace context that rides a queued request across the pool boundary.
///
/// `submitted_us` is stamped (on the collector clock) when the request
/// enters the queue, so the worker can record the queue-wait as a
/// retroactive span; `parent` is the span the serve-side spans hang off
/// (the edge's request span, or the self-minted classify root).
pub(crate) struct TraceCtx {
    pub(crate) handle: TraceHandle,
    pub(crate) parent: Option<SpanId>,
    pub(crate) submitted_us: u64,
}

/// Everything a scorer worker needs, shared once behind an `Arc`.
pub(crate) struct ScoreEngine {
    control: Arc<ControlPlane>,
    store: FeatureStore,
    cache: VerdictCache,
    shortener: Shortener,
    metrics: Metrics,
    audit: RwLock<Option<Arc<AuditLog>>>,
    trace: RwLock<Option<TraceCollector>>,
}

impl ScoreEngine {
    /// Cache-or-score one app, recording serve-side spans into the
    /// request's trace when one rides along. Runs on a pool worker.
    pub(crate) fn score_traced(
        &self,
        app: AppId,
        trace: Option<&TraceCtx>,
    ) -> Result<Verdict, ServeError> {
        if let Some(ctx) = trace {
            // the time between submit and this wake-up is queue wait
            ctx.handle.span_at(
                "serve/queue",
                ctx.parent,
                ctx.submitted_us,
                ctx.handle.now_micros(),
            );
        }
        let score = frappe_obs::span_in("serve/score", trace.map(|ctx| (&ctx.handle, ctx.parent)));
        // fast path: generation probe + cache lookup, no feature build
        let app_gen = self
            .store
            .generation_of(app)
            .ok_or(ServeError::UnknownApp(app))?;
        let known_gen = self.control.known.generation();
        let model_epoch = self.control.model.epoch();
        match self.cache.lookup(app, app_gen, known_gen, model_epoch) {
            CacheLookup::Hit(hit) => {
                self.metrics.cache_hit();
                if let Some(ctx) = trace {
                    ctx.handle
                        .event("cache_hit", format!("gen={app_gen} epoch={model_epoch}"));
                }
                return Ok(hit);
            }
            CacheLookup::MissCold => {
                self.metrics.cache_miss();
                if let Some(ctx) = trace {
                    ctx.handle.event("cache_miss", "cold");
                }
            }
            CacheLookup::MissStale { epoch_stale } => {
                self.metrics.cache_miss();
                if epoch_stale {
                    self.metrics.stale_epoch_rescore();
                }
                if let Some(ctx) = trace {
                    // a stale-epoch re-score is tail-sampling-interesting:
                    // it is the request that pays for a hot swap
                    if epoch_stale {
                        ctx.handle.flag(TraceFlag::StaleEpoch);
                    }
                    ctx.handle.event(
                        "cache_miss",
                        if epoch_stale {
                            "stale_epoch"
                        } else {
                            "stale_generation"
                        },
                    );
                }
            }
        }

        // slow path: pin the model once (version, epoch, and weights stay
        // consistent even if a swap lands mid-score), then snapshot under
        // the known-names read lock so the generation we stamp matches
        // the set we actually consulted
        let eval = frappe_obs::span_in(
            "serve/model_eval",
            trace.map(|ctx| (&ctx.handle, score.id())),
        );
        let vm = self.control.model.current();
        let (snapshot, known_gen) = self
            .control
            .known
            .with(|known, known_gen| (self.store.snapshot(app, known), known_gen));
        let FeatureSnapshot {
            features,
            generation,
        } = snapshot.ok_or(ServeError::UnknownApp(app))?;
        self.metrics.lanes_unobserved(&features);
        // Scores on the packed engine (warmed at install/swap time).
        let decision_value = vm.model().decision_value(&features);
        drop(eval);
        let verdict = Verdict {
            app,
            malicious: decision_value >= 0.0,
            decision_value,
            generation,
            model_version: vm.version(),
        };
        // Fresh scores are auditable: linear models decompose into
        // per-feature contributions (cache hits replay an already-audited
        // score, so they do not re-emit).
        if let Some(log) = self.audit.read().clone() {
            if let Some(explanation) = vm.model().explain(&features) {
                let mut record =
                    explanation.into_audit_record(AuditSource::Online, Some(generation));
                record.model_version = Some(vm.version());
                log.record(record);
            }
        }
        self.cache
            .put(app, verdict.clone(), generation, known_gen, vm.epoch());
        Ok(verdict)
    }

    pub(crate) fn metrics(&self) -> &Metrics {
        &self.metrics
    }
}

/// A classification submitted to the scorer pool but not yet answered.
///
/// The handle is how a caller that must stay responsive (a network
/// edge's connection thread) rides the pool:
/// [`wait_timeout`](Self::wait_timeout) parks until the worker's reply
/// wakes it or the timeout lapses, [`wait`](Self::wait) parks until the
/// verdict arrives. Either way the query-latency histogram is fed
/// exactly once, measured from submission. Dropping the handle abandons
/// the query (the worker's reply goes nowhere, which is fine).
pub struct PendingVerdict {
    reply: Receiver<Result<Verdict, ServeError>>,
    engine: Arc<ScoreEngine>,
    start: Instant,
    /// The trace riding with this query, if any.
    trace: Option<TraceHandle>,
    /// Root guard of a trace this handle minted (`serve/classify`, or the
    /// router's `route/classify`). `Some` means the trace is ours to
    /// finish when the verdict settles; an edge-minted trace is finished
    /// by the edge after the response is written.
    root: Option<Span>,
    /// The router's `route/group_score` guard when the query was
    /// forwarded across a shard-group mailbox: it closes when the
    /// verdict settles, so it measures the full forward-to-verdict
    /// residence inside the group.
    group_span: Option<Span>,
}

impl PendingVerdict {
    fn settle(&mut self, outcome: &Result<Verdict, ServeError>) {
        if outcome.is_ok() {
            let exemplar = self.trace.as_ref().map_or(0, |h| h.id().as_u64());
            self.engine
                .metrics()
                .query_served_traced(self.start.elapsed(), exemplar);
        }
        self.group_span = None;
        if let Some(handle) = &self.trace {
            match outcome {
                Ok(v) => handle.event(
                    "verdict",
                    format!(
                        "malicious={} model_version={}",
                        v.malicious, v.model_version
                    ),
                ),
                Err(e) => handle.event("serve_error", e.to_string()),
            }
            // `finish` closes the root at its own timestamp; the guard
            // drops after it, recording only the profile row
            if let Some(_root) = self.root.take() {
                handle.finish(match outcome {
                    Ok(_) => "ok",
                    Err(e) => e.outcome(),
                });
            }
        }
    }

    /// The verdict, waiting at most `timeout` for it: the scorer's reply
    /// wakes the caller directly, and `None` means it is still in the
    /// queue or being scored when the timeout lapses (`Duration::ZERO`
    /// checks without blocking). A pool that shut down mid-flight
    /// surfaces [`ServeError::ShuttingDown`].
    pub fn wait_timeout(&mut self, timeout: Duration) -> Option<Result<Verdict, ServeError>> {
        let outcome = match self.reply.recv_timeout(timeout) {
            Ok(outcome) => outcome,
            Err(RecvTimeoutError::Timeout) => return None,
            Err(RecvTimeoutError::Disconnected) => Err(ServeError::ShuttingDown),
        };
        self.settle(&outcome);
        Some(outcome)
    }

    /// Blocks until the verdict arrives.
    pub fn wait(mut self) -> Result<Verdict, ServeError> {
        let outcome = self.reply.recv().unwrap_or(Err(ServeError::ShuttingDown));
        self.settle(&outcome);
        outcome
    }

    /// Hands this query the forwarding [`crate::router::ShardRouter`]'s
    /// guards: its `route/classify` root when it minted the trace (so it,
    /// not the group, finishes it at settle) and its `route/group_score`.
    pub(crate) fn set_route_spans(&mut self, root: Option<Span>, group_span: Span) {
        self.root = root;
        self.group_span = Some(group_span);
    }
}

impl Drop for PendingVerdict {
    /// An abandoned query (handle dropped before the verdict) still
    /// closes its self-minted trace so the collector never accumulates
    /// forever-open traces. Settling took the root, so a settled handle
    /// finishes nothing here.
    fn drop(&mut self) {
        if let (Some(handle), Some(_)) = (&self.trace, &self.root) {
            handle.finish("abandoned");
        }
    }
}

/// The trace a classify call rides: the edge's `(handle, parent)`, else
/// a `classify` trace minted on `collector` under an owned `root` guard.
/// Returns the handle, the parent for further spans, and that guard.
pub(crate) fn join_or_mint(
    edge_trace: Option<(TraceHandle, Option<SpanId>)>,
    collector: &RwLock<Option<TraceCollector>>,
    root: &'static str,
) -> (Option<TraceHandle>, Option<SpanId>, Option<Span>) {
    if let Some((handle, parent)) = edge_trace {
        return (Some(handle), parent, None);
    }
    let minted = collector.read().as_ref().map(|c| c.begin("classify"));
    match minted {
        Some(handle) => {
            let root = frappe_obs::span_in(root, Some((&handle, None)));
            (Some(handle), root.id(), Some(root))
        }
        None => (None, None, None),
    }
}

/// The online FRAppE classification service.
///
/// Dropping the service shuts the scorer pool down (queue closed, workers
/// joined); in-flight queries get [`ServeError::ShuttingDown`].
pub struct FrappeService {
    engine: Arc<ScoreEngine>,
    pool: ScorerPool,
    config: ServeConfig,
}

impl FrappeService {
    /// Builds a service around a pre-trained model.
    ///
    /// `known` seeds the name-collision list (it grows via
    /// [`flag_name`](Self::flag_name)); `shortener` resolves shortened
    /// links at ingest, exactly as the batch extractor does. The service
    /// owns its [`ControlPlane`]; the model is installed (and packed for
    /// scoring) as version 1.
    ///
    /// `workers == 0` is allowed as a deliberately *stalled* pool:
    /// requests queue but are never drained, which is the deterministic
    /// way to exercise the backpressure path (the edge integration test
    /// saturates a one-slot queue this way).
    ///
    /// # Panics
    /// Panics if `config` has zero shards, queue capacity, or batch size.
    pub fn new(
        model: FrappeModel,
        known: KnownMaliciousNames,
        shortener: Shortener,
        config: ServeConfig,
    ) -> Self {
        Self::with_control_plane(
            &Arc::new(ControlPlane::new(model, known)),
            shortener,
            config,
        )
    }

    /// Builds a service that scores through `control`'s model pointer
    /// and name set. This is how a router replicates its one control
    /// plane into every shard group: one swap (or one flagged name) is
    /// observed by all groups at the same instant and every group's
    /// cached verdicts die together.
    pub(crate) fn with_control_plane(
        control: &Arc<ControlPlane>,
        shortener: Shortener,
        config: ServeConfig,
    ) -> Self {
        assert!(config.queue_capacity > 0, "need a non-empty queue");
        assert!(config.batch_size > 0, "batches hold at least one request");
        let engine = Arc::new(ScoreEngine {
            control: Arc::clone(control),
            store: FeatureStore::new(config.shards),
            cache: VerdictCache::new(config.shards),
            shortener,
            metrics: Metrics::default(),
            audit: RwLock::new(None),
            trace: RwLock::new(None),
        });
        engine
            .metrics
            .set_model_version(engine.control.model.version());
        let pool = ScorerPool::new(
            config.workers,
            config.queue_capacity,
            config.batch_size,
            config.retry_after_ms,
            Arc::clone(&engine),
        );
        FrappeService {
            engine,
            pool,
            config,
        }
    }

    /// The configuration this instance runs with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Applies one event to the incremental feature store.
    pub fn ingest(&self, event: &ServeEvent) {
        let _span = frappe_obs::span("serve/ingest");
        self.engine.store.apply(event, &self.engine.shortener);
        self.engine.metrics.event_ingested();
    }

    /// Classifies one app, blocking until a scorer answers.
    ///
    /// Returns [`ServeError::Overloaded`] *without blocking* when the
    /// scoring queue is full — the caller owns the retry policy.
    pub fn classify(&self, app: AppId) -> Result<Verdict, ServeError> {
        self.classify_traced(app, None)?.wait()
    }

    /// Submits a classification without waiting for the answer.
    ///
    /// This is the entry point for callers that bound their wait: the
    /// network edge's connection threads submit through
    /// [`Deployment::classify_traced`](crate::Deployment::classify_traced)
    /// and wait on the returned [`PendingVerdict`] with a timeout.
    /// Queue-full rejection is identical to [`classify`](Self::classify):
    /// immediate [`ServeError::Overloaded`] with the retry hint, counted
    /// in the rejected metric.
    ///
    /// The edge passes its own `(handle, parent span)` so
    /// serve-side spans (`serve/queue`, `serve/score`, `serve/model_eval`)
    /// land causally under the edge's request span; with `None` and a
    /// collector attached (see
    /// [`set_trace_collector`](Self::set_trace_collector)) the service
    /// mints a `classify` trace of its own and finishes it when the
    /// verdict settles.
    ///
    /// A query shed with [`ServeError::Overloaded`] always flags the
    /// trace [`Shed429`](frappe_obs::TraceFlag::Shed429), so shed
    /// requests are tail-sampled no matter what the head-sampling rate
    /// says.
    pub fn classify_traced(
        &self,
        app: AppId,
        edge_trace: Option<(TraceHandle, Option<SpanId>)>,
    ) -> Result<PendingVerdict, ServeError> {
        let start = Instant::now();
        let (trace, parent, root) = join_or_mint(edge_trace, &self.engine.trace, "serve/classify");
        let ctx = trace.as_ref().map(|handle| TraceCtx {
            handle: handle.clone(),
            parent,
            submitted_us: handle.now_micros(),
        });
        let reply = match self.pool.submit(app, ctx) {
            Ok(reply) => reply,
            Err(err) => {
                let overloaded = matches!(err, ServeError::Overloaded { .. });
                if overloaded {
                    self.engine.metrics.rejected();
                }
                if let Some(handle) = &trace {
                    if overloaded {
                        handle.flag(TraceFlag::Shed429);
                    }
                    handle.event("shed", err.to_string());
                    if root.is_some() {
                        handle.finish(err.outcome());
                    }
                }
                return Err(err);
            }
        };
        Ok(PendingVerdict {
            reply,
            engine: Arc::clone(&self.engine),
            start,
            trace,
            root,
            group_span: None,
        })
    }

    /// Requests currently waiting in the scoring queue (not yet picked up
    /// by a worker). The network edge reads this to decide when to pause
    /// connection reads; unlike [`metrics`](Self::metrics) it samples one
    /// channel length and builds nothing.
    pub fn queue_depth(&self) -> usize {
        self.pool.queue_depth()
    }

    /// Adds an app name to the known-malicious collision list (§4.2.1's
    /// online growth: flag an app, catch its look-alikes immediately).
    /// Returns whether the normalized name was new.
    ///
    /// Bumps the known-generation, so every cached verdict is invalidated
    /// lazily — a new name can flip any app's collision feature.
    pub fn flag_name(&self, name: &str) -> bool {
        self.engine.control.flag_name(name)
    }

    /// Hot-swaps the scoring model (a promotion or a rollback), returning
    /// the displaced `(version, epoch, model)` triple. The epoch bump
    /// lazily invalidates every cached verdict — in-flight scores finish
    /// on whichever model they pinned, but their cache entries can never
    /// satisfy a post-swap lookup. Also republishes the model-version
    /// gauge and bumps the swap counter.
    pub fn swap_model(&self, model: Arc<FrappeModel>, version: u64) -> Arc<VersionedModel> {
        let old = self.engine.control.swap_model(model, version);
        self.engine.metrics.model_swapped(version);
        old
    }

    /// Books a model swap that already happened on the shared epoch
    /// pointer (a [`ControlPlane`] swap is one pointer store observed by
    /// every group). Each group records the swap in its own metrics lane
    /// without touching the pointer again — K groups must report K
    /// *views* of one swap, not K swaps of the model.
    pub(crate) fn record_external_swap(&self, version: u64) {
        self.engine.metrics.model_swapped(version);
    }

    /// The installed `(version, epoch, model)` triple.
    pub fn current_model(&self) -> Arc<VersionedModel> {
        self.engine.control.current_model()
    }

    /// Eagerly drops every cached verdict (fresh or stale), returning the
    /// eviction count. Stale entries normally die lazily by stamp
    /// mismatch; this reclaims their memory after a model retires.
    pub fn clear_verdict_cache(&self) -> usize {
        let dropped = self.engine.cache.clear();
        self.engine.metrics.cache_evicted(dropped as u64);
        dropped
    }

    /// Shared handle to the known-malicious name set the service scores
    /// against. Batch extraction over the same corpus should read through
    /// this handle (not a private copy), so a name flagged mid-stream
    /// flips the collision feature identically on both paths — the
    /// asymmetry `tests/serve_parity.rs` guards against.
    pub fn known_names(&self) -> SharedKnownNames {
        self.engine.control.known_names()
    }

    /// Current feature row for one app, bypassing the scorer pool.
    /// This is the parity-test window into the incremental store.
    pub fn features(&self, app: AppId) -> Option<AppFeatures> {
        self.engine
            .control
            .known
            .with(|known, _| self.engine.store.snapshot(app, known))
            .map(|s| s.features)
    }

    /// Apps the store has evidence for, sorted.
    pub fn tracked_apps(&self) -> Vec<AppId> {
        self.engine.store.tracked_apps()
    }

    /// Point-in-time metrics (samples the live queue depth).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.engine.metrics.snapshot(self.pool.queue_depth())
    }

    /// The instance's metric registry, for Prometheus-text export. Call [`Self::metrics`] first to refresh the queue-depth
    /// gauge if you need it current.
    pub fn obs_registry(&self) -> &Arc<Registry> {
        self.engine.metrics.registry()
    }

    /// Attach an audit sink: every *freshly scored* verdict (cache misses
    /// only) emits a per-feature contribution record, provided the model
    /// has a linear kernel. Non-linear models (the paper's RBF default)
    /// emit nothing — their decision values have no exact per-feature
    /// decomposition.
    pub fn set_audit_log(&self, log: Arc<AuditLog>) {
        *self.engine.audit.write() = Some(log);
    }

    /// Detach the audit sink, returning it if one was attached.
    pub fn take_audit_log(&self) -> Option<Arc<AuditLog>> {
        self.engine.audit.write().take()
    }

    /// Attach a trace collector: every in-process
    /// [`classify`](Self::classify) call, and every
    /// [`classify_traced`](Self::classify_traced) call without an edge
    /// trace, mints a `classify` trace (edges pass their own trace
    /// instead and are unaffected). Tracing only observes — verdicts are bit-identical
    /// with and without a collector attached.
    pub fn set_trace_collector(&self, collector: TraceCollector) {
        *self.engine.trace.write() = Some(collector);
    }

    /// The attached trace collector, if any (clones share state).
    pub fn trace_collector(&self) -> Option<TraceCollector> {
        self.engine.trace.read().clone()
    }

    #[cfg(test)]
    pub(crate) fn engine_for_test(&self) -> Arc<ScoreEngine> {
        Arc::clone(&self.engine)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use frappe::features::aggregation::AggregationFeatures;
    use frappe::{FeatureSet, OnDemandFeatures};
    use frappe_obs::TraceConfig;

    fn prototypes() -> (AppFeatures, AppFeatures) {
        let benign = AppFeatures {
            app: AppId(1),
            on_demand: OnDemandFeatures {
                has_category: Some(true),
                has_company: Some(true),
                has_description: Some(true),
                has_profile_posts: Some(true),
                permission_count: Some(6),
                client_id_mismatch: Some(false),
                redirect_wot_score: Some(94.0),
            },
            aggregation: AggregationFeatures {
                name_matches_known_malicious: false,
                external_link_ratio: Some(0.0),
            },
        };
        let malicious = AppFeatures {
            app: AppId(2),
            on_demand: OnDemandFeatures {
                has_category: Some(false),
                has_company: Some(false),
                has_description: Some(false),
                has_profile_posts: Some(false),
                permission_count: Some(1),
                client_id_mismatch: Some(true),
                redirect_wot_score: Some(-1.0),
            },
            aggregation: AggregationFeatures {
                name_matches_known_malicious: true,
                external_link_ratio: Some(1.0),
            },
        };
        (benign, malicious)
    }

    pub(crate) fn tiny_model() -> FrappeModel {
        let (benign, malicious) = prototypes();
        let samples: Vec<AppFeatures> = (0..4).flat_map(|_| [benign, malicious]).collect();
        let labels: Vec<bool> = (0..4).flat_map(|_| [false, true]).collect();
        FrappeModel::train(&samples, &labels, FeatureSet::Full, None)
    }

    /// Same prototypes, labels flipped: calls textbook-malicious apps
    /// benign. Swapping to it must visibly change verdicts.
    fn inverted_model() -> FrappeModel {
        let (benign, malicious) = prototypes();
        let samples: Vec<AppFeatures> = (0..4).flat_map(|_| [benign, malicious]).collect();
        let labels: Vec<bool> = (0..4).flat_map(|_| [true, false]).collect();
        FrappeModel::train(&samples, &labels, FeatureSet::Full, None)
    }

    fn service() -> FrappeService {
        FrappeService::new(
            tiny_model(),
            KnownMaliciousNames::from_names(["profile viewer"]),
            Shortener::bitly(),
            ServeConfig {
                shards: 2,
                workers: 2,
                queue_capacity: 8,
                batch_size: 4,
                retry_after_ms: 1,
            },
        )
    }

    /// A zero-worker service whose one queue slot admits a query that
    /// nothing ever drains; `app` is registered, so it is classifiable.
    fn stalled_service(app: AppId) -> FrappeService {
        let svc = FrappeService::new(
            tiny_model(),
            KnownMaliciousNames::default(),
            Shortener::bitly(),
            ServeConfig {
                shards: 1,
                workers: 0,
                queue_capacity: 1,
                batch_size: 1,
                retry_after_ms: 9,
            },
        );
        svc.ingest(&ServeEvent::Registered {
            app,
            name: "stuck".into(),
        });
        svc
    }

    fn feed_malicious(svc: &FrappeService, app: AppId) {
        svc.ingest(&ServeEvent::Registered {
            app,
            name: "Profile Viewer".into(),
        });
        svc.ingest(&ServeEvent::OnDemand {
            app,
            features: OnDemandFeatures {
                has_category: Some(false),
                has_company: Some(false),
                has_description: Some(false),
                has_profile_posts: Some(false),
                permission_count: Some(1),
                client_id_mismatch: Some(true),
                redirect_wot_score: Some(-1.0),
            },
        });
        for _ in 0..3 {
            svc.ingest(&ServeEvent::Post {
                app,
                link: Some(osn_types::url::Url::parse("http://scam.com/x").unwrap()),
            });
        }
    }

    #[test]
    fn classify_answers_and_caches() {
        let svc = service();
        let app = AppId(7);
        feed_malicious(&svc, app);
        let v1 = svc.classify(app).unwrap();
        assert!(v1.malicious, "textbook-malicious evidence");
        let v2 = svc.classify(app).unwrap();
        assert_eq!(v1, v2);
        let m = svc.metrics();
        assert_eq!(m.queries_served, 2);
        assert_eq!(m.cache_misses, 1);
        assert_eq!(m.cache_hits, 1);
        assert!((m.cache_hit_ratio - 0.5).abs() < 1e-12);
        assert_eq!(m.events_ingested, 5);
    }

    #[test]
    fn unknown_app_is_an_error_not_a_guess() {
        let svc = service();
        assert_eq!(
            svc.classify(AppId(404)),
            Err(ServeError::UnknownApp(AppId(404)))
        );
    }

    #[test]
    fn new_evidence_invalidates_the_cached_verdict() {
        let svc = service();
        let app = AppId(3);
        feed_malicious(&svc, app);
        let _ = svc.classify(app).unwrap();
        svc.ingest(&ServeEvent::Post { app, link: None }); // bumps generation
        let _ = svc.classify(app).unwrap();
        let m = svc.metrics();
        assert_eq!(m.cache_misses, 2, "second query re-scored");
        assert_eq!(m.cache_hits, 0);
    }

    #[test]
    fn flagging_a_name_flips_lookalikes_and_invalidates() {
        let svc = service();
        let app = AppId(11);
        svc.ingest(&ServeEvent::Registered {
            app,
            name: "Totally Fine Game".into(),
        });
        let before = svc.features(app).unwrap();
        assert!(!before.aggregation.name_matches_known_malicious);
        let _ = svc.classify(app).unwrap();

        assert!(svc.flag_name("TOTALLY  fine game"));
        assert!(!svc.flag_name("totally fine game"), "already known");
        let after = svc.features(app).unwrap();
        assert!(after.aggregation.name_matches_known_malicious);

        let _ = svc.classify(app).unwrap();
        let m = svc.metrics();
        assert_eq!(m.cache_misses, 2, "known-generation bump evicted");
    }

    #[test]
    fn mid_stream_model_swap_serves_no_stale_verdicts() {
        let svc = service();
        let app = AppId(41);
        feed_malicious(&svc, app);
        let v1 = svc.classify(app).unwrap();
        assert!(v1.malicious, "incumbent flags the evidence");
        assert_eq!(v1.model_version, 1);
        let _ = svc.classify(app).unwrap(); // warm hit on the incumbent

        let old = svc.swap_model(Arc::new(inverted_model()), 2);
        assert_eq!(old.version(), 1);
        assert_eq!(old.epoch(), 0);

        let v2 = svc.classify(app).unwrap();
        assert_eq!(
            v2.model_version, 2,
            "post-swap verdict carries the new version"
        );
        assert!(!v2.malicious, "the inverted model flips the call");
        let m = svc.metrics();
        assert_eq!(m.cache_misses, 2, "the swap forced a re-score");
        assert_eq!(
            m.cache_hits, 1,
            "only the pre-swap hit; zero stale hits after"
        );
        assert_eq!(m.model_swaps, 1);
        assert_eq!(m.model_version, 2);
    }

    #[test]
    fn clearing_the_cache_counts_evictions() {
        let svc = service();
        for raw in [51u64, 52, 53] {
            let app = AppId(raw);
            feed_malicious(&svc, app);
            let _ = svc.classify(app).unwrap();
        }
        assert_eq!(svc.clear_verdict_cache(), 3);
        assert_eq!(svc.clear_verdict_cache(), 0, "already empty");
        assert_eq!(svc.metrics().cache_evictions, 3);
    }

    #[test]
    fn rbf_service_emits_no_audit_records() {
        // tiny_model trains the paper-default RBF kernel, which has no
        // per-feature decomposition — the sink must stay silent.
        let svc = service();
        let log = Arc::new(AuditLog::default());
        svc.set_audit_log(Arc::clone(&log));
        let app = AppId(21);
        feed_malicious(&svc, app);
        let _ = svc.classify(app).unwrap();
        assert!(log.is_empty());
        assert!(svc.take_audit_log().is_some());
        assert!(svc.take_audit_log().is_none());
    }

    #[test]
    fn registry_export_tracks_service_counters() {
        let svc = service();
        let app = AppId(31);
        feed_malicious(&svc, app);
        let _ = svc.classify(app).unwrap();
        let _ = svc.metrics();
        let text = svc.obs_registry().snapshot().to_prometheus_text();
        assert!(text.contains("serve_events_ingested 5"));
        assert!(text.contains("serve_queries_served 1"));
        assert!(text.contains("serve_query_latency_micros_count 1"));
    }

    /// The envelope is a wire contract between the HTTP edge and every
    /// client (the edge tests, curl users): these exact byte strings
    /// are what travels, so a serde or field-order change here is a
    /// breaking API change and must fail loudly.
    #[test]
    fn error_envelope_wire_format_is_pinned() {
        let overloaded = ErrorEnvelope::new(ServeError::Overloaded { retry_after_ms: 7 });
        let json = serde_json::to_string(&overloaded).unwrap();
        assert_eq!(
            json,
            r#"{"error":{"Overloaded":{"retry_after_ms":7}},"retry_after_ms":7}"#
        );
        assert_eq!(
            serde_json::from_str::<ErrorEnvelope>(&json).unwrap(),
            overloaded
        );

        let unknown = ErrorEnvelope::new(ServeError::UnknownApp(AppId(404)));
        let json = serde_json::to_string(&unknown).unwrap();
        assert_eq!(
            json,
            r#"{"error":{"UnknownApp":404},"retry_after_ms":null}"#
        );
        assert_eq!(
            serde_json::from_str::<ErrorEnvelope>(&json).unwrap(),
            unknown
        );

        let down = ErrorEnvelope::new(ServeError::ShuttingDown);
        let json = serde_json::to_string(&down).unwrap();
        assert_eq!(json, r#"{"error":"ShuttingDown","retry_after_ms":null}"#);
        assert_eq!(serde_json::from_str::<ErrorEnvelope>(&json).unwrap(), down);
    }

    #[test]
    fn nonblocking_classify_polls_to_the_same_verdict() {
        let svc = service();
        let app = AppId(61);
        feed_malicious(&svc, app);
        let blocking = svc.classify(app).unwrap();
        let mut pending = svc.classify_traced(app, None).unwrap();
        let polled = pending
            .wait_timeout(Duration::from_secs(30))
            .expect("the worker's reply wakes the waiter")
            .unwrap();
        assert_eq!(polled, blocking, "cache answers both paths identically");
        assert_eq!(svc.metrics().queries_served, 2, "both paths feed latency");
    }

    #[test]
    fn zero_workers_is_a_stalled_pool() {
        let app = AppId(71);
        let svc = stalled_service(app);
        let mut first = svc.classify_traced(app, None).expect("one slot admits");
        assert!(
            first.wait_timeout(Duration::from_millis(20)).is_none(),
            "nothing ever drains a 0-worker pool"
        );
        assert_eq!(
            svc.classify_traced(app, None).err(),
            Some(ServeError::Overloaded { retry_after_ms: 9 }),
            "the queue saturates deterministically"
        );
        assert_eq!(svc.queue_depth(), 1);
        assert_eq!(svc.metrics().rejected, 1);
    }

    #[test]
    fn tracked_apps_are_sorted() {
        let svc = service();
        for raw in [9u64, 2, 5] {
            svc.ingest(&ServeEvent::Registered {
                app: AppId(raw),
                name: format!("app {raw}"),
            });
        }
        assert_eq!(svc.tracked_apps(), vec![AppId(2), AppId(5), AppId(9)]);
    }

    #[test]
    fn traced_classify_records_causal_spans_and_cache_events() {
        let svc = service();
        let tc = TraceCollector::new(TraceConfig {
            head_every: 1, // keep everything — this test is about structure
            slow_us: 0,
            ..TraceConfig::default()
        });
        svc.set_trace_collector(tc.clone());
        let app = AppId(81);
        feed_malicious(&svc, app);
        let v1 = svc.classify(app).unwrap();
        let v2 = svc.classify(app).unwrap();
        assert_eq!(v1, v2, "tracing only observes");

        let kept = tc.snapshot();
        assert_eq!(kept.len(), 2);
        let fresh = &kept[0];
        assert_eq!(fresh.kind, "classify");
        assert_eq!(fresh.outcome, "ok");
        let root = fresh.span("serve/classify").unwrap();
        let queue = fresh.span("serve/queue").unwrap();
        let score = fresh.span("serve/score").unwrap();
        let eval = fresh.span("serve/model_eval").unwrap();
        assert_eq!(queue.parent, Some(root.id));
        assert_eq!(score.parent, Some(root.id));
        assert_eq!(eval.parent, Some(score.id), "model eval nests under score");
        assert!(fresh
            .events
            .iter()
            .any(|e| e.name == "cache_miss" && e.detail == "cold"));
        assert!(fresh.events.iter().any(|e| e.name == "verdict"));
        assert!(kept[1].events.iter().any(|e| e.name == "cache_hit"));

        // the settled latency observation carried the trace id, so the
        // scraped histogram names a real request per bucket
        let text = svc.obs_registry().snapshot().to_prometheus_text();
        assert!(
            text.contains("# {trace_id="),
            "latency bucket exemplar rendered:\n{text}"
        );
    }

    #[test]
    fn shed_queries_are_always_tail_sampled() {
        let tc = TraceCollector::new(TraceConfig {
            head_every: 0, // tail-only: nothing survives without a flag
            slow_us: 0,
            ..TraceConfig::default()
        });
        let app = AppId(91);
        let svc = stalled_service(app); // the second submit must shed
        svc.set_trace_collector(tc.clone());
        let first = svc.classify_traced(app, None).expect("one slot admits");
        assert_eq!(
            svc.classify_traced(app, None).err(),
            Some(ServeError::Overloaded { retry_after_ms: 9 })
        );
        let kept = tc.snapshot();
        assert_eq!(kept.len(), 1, "only the shed query is kept");
        assert!(kept[0].has_flag(TraceFlag::Shed429));
        assert_eq!(kept[0].outcome, "overloaded");
        drop(first); // abandoned and unflagged — sampling drops it
        assert_eq!(tc.snapshot().len(), 1);
    }

    #[test]
    fn a_reply_lost_to_shutdown_settles_its_trace() {
        let keep_all = TraceConfig {
            head_every: 1,
            ..TraceConfig::default()
        };
        let tc = TraceCollector::with_clock(keep_all, Arc::new(frappe_obs::ManualClock::at(0)));
        let app = AppId(97);
        let svc = stalled_service(app); // the query is still queued at shutdown
        svc.set_trace_collector(tc.clone());
        let pending = svc.classify_traced(app, None).expect("one slot admits");
        drop(svc);
        assert_eq!(pending.wait(), Err(ServeError::ShuttingDown));
        let kept = tc.snapshot();
        assert_eq!((kept.len(), kept[0].outcome.as_str()), (1, "shutting_down"));
        assert!(kept[0].events.iter().any(|e| e.name == "serve_error"));
    }

    #[test]
    fn untraced_classify_feeds_the_profile_table() {
        frappe_obs::set_spans_enabled(true);
        let svc = service();
        feed_malicious(&svc, AppId(99));
        svc.classify(AppId(99)).unwrap();
        let stages = frappe_obs::Profiler::global().snapshot().stages;
        let profiled = |name: &str| stages.iter().any(|row| row.path == name);
        assert!(
            profiled("serve/score") && profiled("serve/model_eval"),
            "{stages:?}"
        );
    }

    #[test]
    fn stale_epoch_rescore_is_tail_sampled_after_a_swap() {
        let svc = service();
        let tc = TraceCollector::new(TraceConfig {
            head_every: 0,
            slow_us: 0,
            ..TraceConfig::default()
        });
        svc.set_trace_collector(tc.clone());
        let app = AppId(95);
        feed_malicious(&svc, app);
        let _ = svc.classify(app).unwrap(); // cold miss: no flag, dropped
        svc.swap_model(Arc::new(inverted_model()), 2);
        let _ = svc.classify(app).unwrap(); // pays for the swap: tail-kept
        let kept = tc.snapshot();
        assert_eq!(kept.len(), 1);
        assert!(kept[0].has_flag(TraceFlag::StaleEpoch));
        assert!(kept[0].events.iter().any(|e| e.detail == "stale_epoch"));
        let text = svc.obs_registry().snapshot().to_prometheus_text();
        assert!(text.contains("serve_stale_epoch_rescores 1"));
    }
}
