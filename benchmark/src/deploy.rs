//! The serving deployment under test — one `FrappeService`, or a
//! `ShardRouter` over four shard groups — optionally behind the network
//! edge, and how the benchmark stands it up.

use std::io;
use std::sync::Arc;
use std::time::Duration;

use frappe::FrappeModel;
use frappe_net::{NetConfig, Server};
use frappe_obs::{MetricValue, RegistrySnapshot, TraceCollector, TraceConfig};
use frappe_serve::{
    FrappeService, MetricsSnapshot, ServeConfig, ServeError, ServeEvent, ShardConfig, ShardRouter,
    Verdict,
};
use osn_types::ids::AppId;

use crate::client::BlockingClient;
use crate::inputs::Inputs;

/// Which deployment a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One `FrappeService` with the default configuration.
    Service,
    /// `ShardRouter` over [`router_config`].
    Router,
}

/// The router deployment of `router_ingest_swap`.
pub fn router_config() -> ShardConfig {
    ShardConfig {
        groups: 4,
        mailbox_capacity: 4096,
        group: ServeConfig::default(),
    }
}

/// A running deployment's in-process handle.
#[derive(Clone)]
pub enum Backend {
    /// A single service.
    Service(Arc<FrappeService>),
    /// K shard groups behind a router.
    Router(Arc<ShardRouter>),
}

impl Backend {
    /// A fresh, empty deployment scoring with the full-data model at
    /// version 1.
    pub fn new(shape: Shape, inputs: &Inputs) -> Backend {
        let model = inputs.model_full.model.clone();
        let known = inputs.known.clone();
        let shortener = inputs.shortener.clone();
        match shape {
            Shape::Service => Backend::Service(Arc::new(FrappeService::new(
                model,
                known,
                shortener,
                ServeConfig::default(),
            ))),
            Shape::Router => Backend::Router(Arc::new(ShardRouter::new(
                model,
                known,
                shortener,
                router_config(),
            ))),
        }
    }

    /// Applies one event, waiting out a full router mailbox.
    pub fn ingest(&self, event: &ServeEvent) {
        match self {
            Backend::Service(s) => s.ingest(event),
            Backend::Router(r) => {
                while let Err(ServeError::Overloaded { .. }) = r.ingest(event) {
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
        }
    }

    /// Returns once every accepted event is visible to classify.
    pub fn flush(&self) {
        if let Backend::Router(r) = self {
            r.flush();
        }
    }

    /// Classifies in process, blocking for the verdict.
    pub fn classify(&self, app: AppId) -> Result<Verdict, ServeError> {
        match self {
            Backend::Service(s) => s.classify(app),
            Backend::Router(r) => r.classify(app),
        }
    }

    /// Hot-swaps the scoring model (unfenced).
    pub fn swap_model(&self, model: Arc<FrappeModel>, version: u64) {
        match self {
            Backend::Service(s) => drop(s.swap_model(model, version)),
            Backend::Router(r) => drop(r.swap_model(model, version)),
        }
    }

    /// Apps the deployment tracks, sorted.
    pub fn tracked_apps(&self) -> Vec<AppId> {
        match self {
            Backend::Service(s) => s.tracked_apps(),
            Backend::Router(r) => r.tracked_apps(),
        }
    }

    /// Requests waiting in scoring queues.
    pub fn queue_depth(&self) -> usize {
        match self {
            Backend::Service(s) => s.queue_depth(),
            Backend::Router(r) => r.queue_depth(),
        }
    }

    /// Events waiting in router mailboxes (0 for a single service).
    pub fn mailbox_depth(&self) -> usize {
        match self {
            Backend::Service(_) => 0,
            Backend::Router(r) => r.mailbox_depth(),
        }
    }

    /// Serving metrics, summed over groups.
    pub fn metrics(&self) -> MetricsSnapshot {
        match self {
            Backend::Service(s) => s.metrics(),
            Backend::Router(r) => r.metrics(),
        }
    }

    /// The deployment's whole scrape.
    fn scrape(&self) -> RegistrySnapshot {
        match self {
            Backend::Service(s) => s.obs_registry().snapshot(),
            Backend::Router(r) => r.exposition(),
        }
    }

    /// A counter's deployment-wide total: its unlabelled series where the
    /// scrape has one, else the sum of its per-group lanes.
    pub fn counter(&self, name: &str) -> u64 {
        let scrape = self.scrape();
        let value = |m: &frappe_obs::MetricSnapshot| match m.value {
            MetricValue::Counter(v) => v,
            _ => 0,
        };
        let series: Vec<_> = scrape.metrics.iter().filter(|m| m.name == name).collect();
        match series.iter().find(|m| m.labels.is_empty()) {
            Some(total) => value(total),
            None => series
                .iter()
                .filter(|m| m.labels.iter().any(|(k, _)| k == "group"))
                .map(|m| value(m))
                .sum(),
        }
    }

    /// Attaches a trace collector (before binding, so the edge uses it).
    pub fn set_trace_collector(&self, collector: TraceCollector) {
        match self {
            Backend::Service(s) => s.set_trace_collector(collector),
            Backend::Router(r) => r.set_trace_collector(collector),
        }
    }

    /// Binds the network edge on an ephemeral loopback port.
    pub fn bind(&self) -> io::Result<Server> {
        match self {
            Backend::Service(s) => Server::bind(Arc::clone(s), "127.0.0.1:0", NetConfig::default()),
            Backend::Router(r) => Server::bind(Arc::clone(r), "127.0.0.1:0", NetConfig::default()),
        }
    }
}

/// The collector of a traced run: keeps every trace (`head_every = 1`)
/// in a ring large enough for a whole base step.
pub fn trace_collector() -> TraceCollector {
    TraceCollector::new(TraceConfig {
        capacity: 16_384,
        head_every: 1,
        ..TraceConfig::default()
    })
}

/// A deployment and, for socket workloads, its edge.
pub struct Deployment {
    /// In-process handle.
    pub backend: Backend,
    /// The edge, when the workload talks over a socket.
    pub server: Option<Server>,
}

/// Stands a deployment up: build it, attach `trace`, prime it with
/// `prime`, and — when `socket` — bind the edge and wait until it
/// answers `/healthz`. This is what `setup_s` times.
pub fn stand_up(
    shape: Shape,
    inputs: &Inputs,
    prime: &[ServeEvent],
    socket: bool,
    trace: Option<TraceCollector>,
) -> io::Result<Deployment> {
    let backend = Backend::new(shape, inputs);
    if let Some(collector) = trace {
        backend.set_trace_collector(collector);
    }
    for event in prime {
        backend.ingest(event);
    }
    backend.flush();
    let server = if socket {
        let server = backend.bind()?;
        let response =
            BlockingClient::connect(server.local_addr())?.send(b"GET /healthz HTTP/1.1\r\n\r\n")?;
        if response.status != 200 {
            return Err(io::Error::other(format!(
                "edge answered /healthz with {}",
                response.status
            )));
        }
        Some(server)
    } else {
        None
    };
    Ok(Deployment { backend, server })
}
