//! [`Deployment`]: the one handle the network edge (`frappe-net`) and the
//! lifecycle manager (`frappe-lifecycle`) hold onto a running serving
//! deployment.
//!
//! There are exactly two deployment shapes — a single [`FrappeService`]
//! or a [`ShardRouter`] over K shard groups — so the handle is a closed
//! enum, not a trait object. Every verb forwards to the shape's inherent
//! method; where the shapes differ (the merged exposition, the retry
//! hint, the per-group in-flight check) the difference lives in that
//! verb's match arms and nowhere else.

use std::sync::Arc;

use frappe::{FrappeModel, VersionedModel};
use frappe_obs::{Registry, RegistrySnapshot, SpanId, TraceCollector, TraceHandle};
use osn_types::ids::AppId;

use crate::control::{ControlPlane, VerdictObserver};
use crate::event::ServeEvent;
use crate::router::ShardRouter;
use crate::service::{FrappeService, ServeError, Verdict};

/// A running serving deployment: one service, or K shard groups behind
/// a router. Cloning clones the `Arc`.
#[derive(Clone)]
pub enum Deployment {
    /// A single service instance.
    Service(Arc<FrappeService>),
    /// K partition-owning shard groups behind a hashing router.
    Router(Arc<ShardRouter>),
}

impl From<Arc<FrappeService>> for Deployment {
    fn from(service: Arc<FrappeService>) -> Self {
        Deployment::Service(service)
    }
}

impl From<Arc<ShardRouter>> for Deployment {
    fn from(router: Arc<ShardRouter>) -> Self {
        Deployment::Router(router)
    }
}

impl Deployment {
    /// Applies one event on the calling thread, in the service that owns
    /// the app; when it returns, the next read sees the event.
    pub fn ingest(&self, event: &ServeEvent) {
        match self {
            Deployment::Service(s) => s.ingest(event),
            Deployment::Router(r) => r.group_service(event.app()).ingest(event),
        }
    }

    /// Classifies on the calling thread, threading an optional
    /// edge-minted trace through to the scorer's spans.
    pub fn classify_traced(
        &self,
        app: AppId,
        edge_trace: Option<(TraceHandle, Option<SpanId>)>,
    ) -> Result<Verdict, ServeError> {
        match self {
            Deployment::Service(s) => s.classify_traced(app, edge_trace),
            Deployment::Router(r) => r.classify_traced(app, edge_trace),
        }
    }

    /// Attaches `observer` to every scorer of the deployment — the one
    /// service, or all K groups, which share one control plane — or
    /// detaches it with `None`. Returns the previous occupant of the slot.
    pub fn set_observer(
        &self,
        observer: Option<Arc<dyn VerdictObserver>>,
    ) -> Option<Arc<dyn VerdictObserver>> {
        self.control().set_observer(observer)
    }

    fn control(&self) -> &ControlPlane {
        match self {
            Deployment::Service(s) => s.control(),
            Deployment::Router(r) => r.control(),
        }
    }

    /// Hot-swaps the scoring model deployment-wide, returning the
    /// displaced model. On a router the epoch pointer is shared, so the
    /// swap is atomic across all groups.
    pub fn swap_model(&self, model: Arc<FrappeModel>, version: u64) -> Arc<VersionedModel> {
        match self {
            Deployment::Service(s) => s.swap_model(model, version),
            Deployment::Router(r) => r.swap_model(model, version),
        }
    }

    /// The installed `(version, epoch, model)` triple the deployment
    /// scores with.
    pub fn current_model(&self) -> Arc<VersionedModel> {
        match self {
            Deployment::Service(s) => s.current_model(),
            Deployment::Router(r) => r.current_model(),
        }
    }

    /// Whether every in-flight count is at most half its cap — the edge's
    /// read-resume test. On a router each group is checked against its
    /// own cap: a shed comes from one group's full count, which a sum
    /// over groups would hide.
    pub fn queues_at_most_half_full(&self) -> bool {
        let half = |s: &FrappeService| s.queue_depth() * 2 <= s.config().max_in_flight;
        match self {
            Deployment::Service(s) => half(s),
            Deployment::Router(r) => r.group_services().all(half),
        }
    }

    /// Retry hint handed to rejected callers, in milliseconds.
    pub fn retry_after_ms(&self) -> u64 {
        match self {
            Deployment::Service(s) => s.config().retry_after_ms,
            Deployment::Router(r) => r.config().group.retry_after_ms,
        }
    }

    /// The base registry: where transport and lifecycle layers register
    /// their own instruments so one scrape shows the whole process.
    pub fn obs_registry(&self) -> &Arc<Registry> {
        match self {
            Deployment::Service(s) => s.obs_registry(),
            Deployment::Router(r) => r.obs_registry(),
        }
    }

    /// The deployment's full scrape: a service's registry (with its
    /// in-flight gauge refreshed), or a router's base registry plus
    /// every group's families merged in per-group lanes.
    pub fn exposition(&self) -> RegistrySnapshot {
        match self {
            Deployment::Service(s) => {
                let _ = s.metrics(); // refresh the in-flight gauge
                s.obs_registry().snapshot()
            }
            Deployment::Router(r) => r.exposition(),
        }
    }

    /// The attached trace collector, if any (clones share state).
    pub fn trace_collector(&self) -> Option<TraceCollector> {
        match self {
            Deployment::Service(s) => s.trace_collector(),
            Deployment::Router(r) => r.trace_collector(),
        }
    }

    /// Number of shard groups (1 for a single service).
    pub fn group_count(&self) -> usize {
        match self {
            Deployment::Service(_) => 1,
            Deployment::Router(r) => r.group_count(),
        }
    }

    /// The group that owns `app` (always 0 for a single service).
    pub fn group_of(&self, app: AppId) -> usize {
        match self {
            Deployment::Service(_) => 0,
            Deployment::Router(r) => r.group_of(app),
        }
    }
}
