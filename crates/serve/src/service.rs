//! The service façade: one struct that owns the store, the cache, the
//! known-malicious-names list, the in-flight count and the metrics, and
//! exposes the two verbs that matter — `ingest(event)` and
//! `classify(app)`.
//!
//! ## Concurrency shape
//!
//! * **Ingest** is wait-free apart from one shard write lock; it never
//!   touches the cache (invalidation is by generation stamp, see
//!   [`crate::cache`]).
//! * **Classify** runs on the caller's thread: admit, score, settle.
//!   Admission takes one slot of an atomic in-flight count capped at
//!   [`ServeConfig::max_in_flight`]; past the cap the call is *rejected
//!   immediately* with [`ServeError::Overloaded`] carrying a retry-after
//!   hint — the paper's "FRAppE as a service" must degrade by shedding
//!   queries, not by stalling the event stream. Scoring concurrency is
//!   the number of callers (the network edge bounds it with its
//!   connection cap).
//! * **Known-name growth** ([`FrappeService::flag_name`]) takes the one
//!   write lock and bumps the global known-generation, lazily
//!   invalidating every cached verdict (a new name can flip any app's
//!   collision bit).
//! * **Observation** happens in the scorer, on the caller's thread,
//!   before `classify` returns: every answered query — fresh score or
//!   cache hit — goes to the control plane's [`VerdictObserver`] when one
//!   is attached (see the crate docs). With none attached the scorer
//!   reads one flag.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use frappe::features::aggregation::KnownMaliciousNames;
use frappe::{AppFeatures, FrappeModel, SharedKnownNames, VersionedModel};
use frappe_obs::{Registry, Span, SpanId, TraceCollector, TraceFlag, TraceHandle};
use osn_types::ids::AppId;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use url_services::shortener::Shortener;

use crate::cache::{CacheLookup, VerdictCache};
use crate::control::{ControlPlane, VerdictObserver};
use crate::event::ServeEvent;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::store::{FeatureSnapshot, FeatureStore};

/// Tuning knobs for one service instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Feature-store and cache shards (lock granularity).
    pub shards: usize,
    /// Classifies scored at once; beyond it queries are rejected.
    pub max_in_flight: usize,
    /// Retry hint handed to rejected callers (ms).
    pub retry_after_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 4,
            max_in_flight: 256,
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
    /// Every in-flight slot is taken; retry after the hinted delay.
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
                write!(
                    f,
                    "too many classifies in flight; retry after {retry_after_ms}ms"
                )
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

/// Everything a classify reads: the scoring state behind the façade.
pub(crate) struct ScoreEngine {
    control: Arc<ControlPlane>,
    store: FeatureStore,
    cache: VerdictCache,
    shortener: Shortener,
    metrics: Metrics,
    trace: RwLock<Option<TraceCollector>>,
}

impl ScoreEngine {
    /// Cache-or-score one app, recording serve-side spans into the
    /// request's `(handle, parent)` trace when one rides along. Runs on
    /// the caller's thread.
    pub(crate) fn score_traced(
        &self,
        app: AppId,
        trace: Option<(&TraceHandle, Option<SpanId>)>,
    ) -> Result<Verdict, ServeError> {
        let score = frappe_obs::span_in("serve/score", trace);
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
                if let Some((handle, _)) = trace {
                    handle.event("cache_hit", format!("gen={app_gen} epoch={model_epoch}"));
                }
                if let Some(observer) = self.control.observer() {
                    self.observe_hit(&*observer, &hit, (app_gen, known_gen, model_epoch));
                }
                return Ok(hit);
            }
            CacheLookup::MissCold => {
                self.metrics.cache_miss();
                if let Some((handle, _)) = trace {
                    handle.event("cache_miss", "cold");
                }
            }
            CacheLookup::MissStale { epoch_stale } => {
                self.metrics.cache_miss();
                if epoch_stale {
                    self.metrics.stale_epoch_rescore();
                }
                if let Some((handle, _)) = trace {
                    // a stale-epoch re-score is tail-sampling-interesting:
                    // it is the request that pays for a hot swap
                    if epoch_stale {
                        handle.flag(TraceFlag::StaleEpoch);
                    }
                    handle.event(
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
        let eval = frappe_obs::span_in("serve/model_eval", trace.map(|(h, _)| (h, score.id())));
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
        if let Some(observer) = self.control.observer() {
            observer.observe(&features, &verdict, &vm, true);
        }
        self.cache
            .put(app, verdict.clone(), generation, known_gen, vm.epoch());
        Ok(verdict)
    }

    /// Hands a cache hit to the observer with the row it was scored on:
    /// the row is re-read from the store and observed only while its app
    /// generation, the known-names generation and the model epoch still
    /// equal the `stamps` the hit matched. Otherwise the evidence moved
    /// since the lookup; the next query re-scores the app and is observed
    /// then.
    fn observe_hit(&self, observer: &dyn VerdictObserver, hit: &Verdict, stamps: (u64, u64, u64)) {
        let (app_gen, known_gen, model_epoch) = stamps;
        let vm = self.control.model.current();
        let (snapshot, known_now) = self
            .control
            .known
            .with(|known, gen| (self.store.snapshot(hit.app, known), gen));
        if let Some(snapshot) = snapshot {
            if (snapshot.generation, known_now, vm.epoch()) == (app_gen, known_gen, model_epoch) {
                observer.observe(&snapshot.features, hit, &vm, false);
            }
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

/// Finishes a trace [`join_or_mint`] minted (`root` is its guard) with
/// the classify's outcome; an edge's trace is the edge's to finish.
pub(crate) fn finish_minted(
    handle: Option<&TraceHandle>,
    root: Option<Span>,
    outcome: &Result<Verdict, ServeError>,
) {
    if let (Some(h), Some(_root)) = (handle, root) {
        // `finish` closes the root at its own timestamp; the guard drops
        // after it, recording only the profile row
        h.finish(match outcome {
            Ok(_) => "ok",
            Err(e) => e.outcome(),
        });
    }
}

/// One admitted classify's slot in the in-flight count; dropping it
/// gives the slot back.
struct InFlight<'a>(&'a AtomicUsize);

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The online FRAppE classification service.
///
/// Classifies run on their callers' threads; the service starts no
/// threads of its own.
pub struct FrappeService {
    engine: ScoreEngine,
    in_flight: AtomicUsize,
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
    /// # Panics
    /// Panics if `config` has zero `max_in_flight`.
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
        assert!(config.max_in_flight > 0, "admit at least one classify");
        let engine = ScoreEngine {
            control: Arc::clone(control),
            store: FeatureStore::new(config.shards),
            cache: VerdictCache::new(config.shards),
            shortener,
            metrics: Metrics::default(),
            trace: RwLock::new(None),
        };
        engine
            .metrics
            .set_model_version(engine.control.model.version());
        FrappeService {
            engine,
            in_flight: AtomicUsize::new(0),
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

    /// Classifies one app on the calling thread.
    ///
    /// Returns [`ServeError::Overloaded`] *without scoring* when every
    /// in-flight slot is taken — the caller owns the retry policy.
    pub fn classify(&self, app: AppId) -> Result<Verdict, ServeError> {
        self.classify_traced(app, None)
    }

    /// [`classify`](Self::classify), with explicit trace plumbing.
    ///
    /// Three steps, all on the calling thread: **admit** (take an
    /// in-flight slot, or shed with [`ServeError::Overloaded`] and the
    /// retry hint, counted in the rejected metric), **score** (cache
    /// lookup, and on a miss a fresh score; the observer runs here), and
    /// **settle** (feed the latency histogram, record the verdict on the
    /// trace, and finish a trace this call minted).
    ///
    /// The edge passes its own `(handle, parent span)` so serve-side
    /// spans (`serve/queue` for admission, `serve/score`,
    /// `serve/model_eval`) land causally under the edge's request span;
    /// with `None` and a collector attached (see
    /// [`set_trace_collector`](Self::set_trace_collector)) the service
    /// mints a `classify` trace of its own and finishes it before
    /// returning.
    ///
    /// A query shed with [`ServeError::Overloaded`] always flags the
    /// trace [`Shed429`](frappe_obs::TraceFlag::Shed429), so shed
    /// requests are tail-sampled no matter what the head-sampling rate
    /// says.
    pub fn classify_traced(
        &self,
        app: AppId,
        edge_trace: Option<(TraceHandle, Option<SpanId>)>,
    ) -> Result<Verdict, ServeError> {
        let start = Instant::now();
        let (handle, parent, root) = join_or_mint(edge_trace, &self.engine.trace, "serve/classify");
        let trace = handle.as_ref().map(|h| (h, parent));
        // the slot is held until the closure returns
        let outcome = self.admit(trace).and_then(|_slot| {
            let outcome = self.engine.score_traced(app, trace);
            if outcome.is_ok() {
                let exemplar = handle.as_ref().map_or(0, |h| h.id().as_u64());
                self.engine
                    .metrics
                    .query_served_traced(start.elapsed(), exemplar);
            }
            if let Some(h) = &handle {
                match &outcome {
                    Ok(v) => h.event(
                        "verdict",
                        format!(
                            "malicious={} model_version={}",
                            v.malicious, v.model_version
                        ),
                    ),
                    Err(e) => h.event("serve_error", e.to_string()),
                }
            }
            outcome
        });
        finish_minted(handle.as_ref(), root, &outcome);
        outcome
    }

    /// Takes an in-flight slot, recording the admission as the
    /// `serve/queue` span; past [`ServeConfig::max_in_flight`] the query
    /// is shed instead (counted, and its trace flagged `Shed429`).
    fn admit(
        &self,
        trace: Option<(&TraceHandle, Option<SpanId>)>,
    ) -> Result<InFlight<'_>, ServeError> {
        let entered_us = trace.map(|(h, _)| h.now_micros());
        let cap = self.config.max_in_flight;
        let admitted = self
            .in_flight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < cap).then_some(n + 1)
            })
            .is_ok();
        if !admitted {
            let err = ServeError::Overloaded {
                retry_after_ms: self.config.retry_after_ms,
            };
            self.engine.metrics.rejected();
            if let Some((h, _)) = trace {
                h.flag(TraceFlag::Shed429);
                h.event("shed", err.to_string());
            }
            return Err(err);
        }
        if let (Some((h, parent)), Some(entered_us)) = (trace, entered_us) {
            h.span_at("serve/queue", parent, entered_us, h.now_micros());
        }
        Ok(InFlight(&self.in_flight))
    }

    /// Classifies in flight (admitted, not yet answered). The network
    /// edge reads this to decide when to pause connection reads; unlike
    /// [`metrics`](Self::metrics) it loads one atomic and builds nothing.
    pub fn queue_depth(&self) -> usize {
        self.in_flight.load(Ordering::Acquire)
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

    /// Current feature row for one app, bypassing classification.
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

    /// Point-in-time metrics (samples the live in-flight count).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.engine.metrics.snapshot(self.queue_depth())
    }

    /// The instance's metric registry, for Prometheus-text export. Call
    /// [`Self::metrics`] first to refresh the in-flight gauge if you need
    /// it current.
    pub fn obs_registry(&self) -> &Arc<Registry> {
        self.engine.metrics.registry()
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

    /// The control plane this service scores through.
    pub(crate) fn control(&self) -> &ControlPlane {
        &self.engine.control
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
                max_in_flight: 8,
                retry_after_ms: 1,
            },
        )
    }

    /// A service admitting `max_in_flight` classifies at once, with a
    /// 9 ms retry hint; `app` is registered, so it is classifiable.
    fn capped_service(app: AppId, max_in_flight: usize) -> Arc<FrappeService> {
        let svc = FrappeService::new(
            tiny_model(),
            KnownMaliciousNames::default(),
            Shortener::bitly(),
            ServeConfig {
                shards: 1,
                max_in_flight,
                retry_after_ms: 9,
            },
        );
        svc.ingest(&ServeEvent::Registered {
            app,
            name: "stuck".into(),
        });
        Arc::new(svc)
    }

    /// Records the thread every observation runs on, and parks the
    /// observations `parks` selects until the sender [`Parker::new`]
    /// returns is dropped: the way to hold a classify in flight.
    struct Parker {
        parks: Box<dyn Fn(AppId) -> bool + Send + Sync>,
        gate: crossbeam::channel::Receiver<()>,
        threads: parking_lot::Mutex<Vec<std::thread::ThreadId>>,
    }

    impl Parker {
        fn new(
            parks: impl Fn(AppId) -> bool + Send + Sync + 'static,
        ) -> (Arc<Parker>, crossbeam::channel::Sender<()>) {
            let (release, gate) = crossbeam::channel::bounded(0);
            let parker = Parker {
                parks: Box::new(parks),
                gate,
                threads: parking_lot::Mutex::default(),
            };
            (Arc::new(parker), release)
        }
    }

    impl VerdictObserver for Parker {
        fn observe(&self, _: &AppFeatures, verdict: &Verdict, _: &VersionedModel, _: bool) {
            self.threads.lock().push(std::thread::current().id());
            if (self.parks)(verdict.app) {
                // returns once the release sender is dropped
                let _ = self.gate.recv();
            }
        }
    }

    /// Polls until `ready` holds.
    fn wait_until(ready: impl Fn() -> bool) {
        while !ready() {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
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

    /// Keeps everything the scorer hands over: (row, verdict, model
    /// version, fresh).
    #[derive(Default)]
    struct Recorder(parking_lot::Mutex<Vec<(AppFeatures, Verdict, u64, bool)>>);

    impl VerdictObserver for Recorder {
        fn observe(
            &self,
            row: &AppFeatures,
            verdict: &Verdict,
            model: &VersionedModel,
            fresh: bool,
        ) {
            self.0
                .lock()
                .push((*row, verdict.clone(), model.version(), fresh));
        }
    }

    #[test]
    fn the_scorer_observes_every_answered_query_with_the_row_it_scored() {
        let svc = service();
        let recorder = Arc::new(Recorder::default());
        assert!(svc.control().set_observer(Some(recorder.clone())).is_none());
        let app = AppId(23);
        feed_malicious(&svc, app);
        let fresh = svc.classify(app).unwrap();
        let hit = svc.classify(app).unwrap();
        assert!(svc.classify(AppId(404)).is_err(), "unanswered: unobserved");

        let row = svc.features(app).unwrap();
        assert_eq!(
            fresh.decision_value,
            svc.current_model().model().decision_value(&row)
        );
        assert_eq!(
            *recorder.0.lock(),
            vec![(row, fresh, 1, true), (row, hit, 1, false)],
            "a fresh score, then a hit, both before the reply"
        );

        assert!(svc.control().set_observer(None).is_some());
        svc.classify(app).unwrap();
        assert_eq!(recorder.0.lock().len(), 2, "detached");
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
    fn classify_scores_on_the_callers_thread() {
        let caller = std::thread::current().id();

        // a service: the observer runs on the thread that called classify
        let app = AppId(71);
        let svc = capped_service(app, 2);
        let deployment = crate::Deployment::from(Arc::clone(&svc));
        let (parker, release) = Parker::new(|_| true);
        deployment.set_observer(Some(parker.clone()));
        drop(release); // nothing parks yet
        svc.classify(app).unwrap();
        assert_eq!(*parker.threads.lock(), vec![caller], "scored on the caller");

        // fill every in-flight slot with a parked classify
        let (parker, release) = Parker::new(|_| true);
        deployment.set_observer(Some(parker.clone()));
        let holders: Vec<_> = (0..2)
            .map(|_| {
                let svc = Arc::clone(&svc);
                std::thread::spawn(move || (svc.classify(app), std::thread::current().id()))
            })
            .collect();
        wait_until(|| svc.queue_depth() == 2);
        assert_eq!(
            svc.classify(app),
            Err(ServeError::Overloaded { retry_after_ms: 9 }),
            "the cap sheds with the configured hint"
        );
        assert_eq!(svc.metrics().rejected, 1);
        assert!(!deployment.queues_at_most_half_full());
        drop(release);
        for holder in holders {
            let (outcome, holder_thread) = holder.join().unwrap();
            outcome.expect("admitted before the cap filled");
            assert!(parker.threads.lock().contains(&holder_thread));
        }
        assert!(deployment.queues_at_most_half_full(), "slots given back");
        assert_eq!(svc.queue_depth(), 0);
        svc.classify(app).expect("admitted again after release");

        // a router group: the same, on the group that owns the app
        let router = Arc::new(crate::ShardRouter::new(
            tiny_model(),
            KnownMaliciousNames::default(),
            Shortener::bitly(),
            crate::ShardConfig {
                groups: 2,
                mailbox_capacity: 8,
                group: ServeConfig {
                    shards: 1,
                    max_in_flight: 1,
                    retry_after_ms: 9,
                },
            },
        ));
        let (a, b) = (AppId(1), AppId(2));
        let shedding = router.group_of(a);
        assert_ne!(
            shedding,
            router.group_of(b),
            "the fixture spans both groups"
        );
        for app in [a, b] {
            router
                .ingest(&ServeEvent::Registered {
                    app,
                    name: format!("app {}", app.raw()),
                })
                .unwrap();
        }
        router.flush();
        let deployment = crate::Deployment::from(Arc::clone(&router));
        let (parker, release) =
            Parker::new(move |app| crate::router::group_index(app, 2) == shedding);
        deployment.set_observer(Some(parker.clone()));
        router.classify(b).unwrap();
        assert_eq!(*parker.threads.lock(), vec![caller], "scored on the caller");

        let holder = std::thread::spawn({
            let router = Arc::clone(&router);
            move || router.classify(a)
        });
        wait_until(|| router.queue_depth() == 1);
        assert_eq!(
            router.classify(a),
            Err(ServeError::Overloaded { retry_after_ms: 9 })
        );
        assert!(!deployment.queues_at_most_half_full());
        router.classify(b).expect("the other group still admits");
        drop(release);
        holder
            .join()
            .unwrap()
            .expect("admitted before the cap filled");
        assert!(deployment.queues_at_most_half_full());
        router.classify(a).expect("admitted again after release");
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
        let svc = capped_service(app, 1); // the second classify must shed
        svc.set_trace_collector(tc.clone());
        let (parker, release) = Parker::new(|_| true);
        svc.control().set_observer(Some(parker));
        let first = std::thread::spawn({
            let svc = Arc::clone(&svc);
            move || svc.classify(app)
        });
        wait_until(|| svc.queue_depth() == 1);
        assert_eq!(
            svc.classify_traced(app, None).err(),
            Some(ServeError::Overloaded { retry_after_ms: 9 })
        );
        let kept = tc.snapshot();
        assert_eq!(kept.len(), 1, "only the shed query is kept");
        assert!(kept[0].has_flag(TraceFlag::Shed429));
        assert_eq!(kept[0].outcome, "overloaded");
        drop(release);
        // answered and unflagged — sampling drops it
        first.join().unwrap().expect("admitted before the shed");
        assert_eq!(tc.snapshot().len(), 1);
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
