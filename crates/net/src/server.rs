//! The server: an accept thread plus one blocking thread per accepted
//! connection, routing HTTP requests into a [`Deployment`] — a single
//! [`frappe_serve::FrappeService`] or a [`frappe_serve::ShardRouter`]
//! over K shard groups.
//!
//! ## Routes
//!
//! | route | verb | body | answer |
//! |---|---|---|---|
//! | `/v1/events` | POST | NDJSON [`ServeEvent`] lines | `202 {"ingested":n}` once every event is applied, or a `400` that applies none (a malformed line, or a `Registered` name over [`MAX_APP_NAME_BYTES`]) |
//! | `/v1/classify/{app_id}` | GET | — | `200` [`frappe_serve::Verdict`] JSON |
//! | `/metrics` | GET | — | `200` Prometheus text |
//! | `/healthz` | GET | — | `200 {"status":"ok"}` |
//!
//! Every error a classify can produce travels as the shared
//! [`ErrorEnvelope`]: `UnknownApp → 404`, `Overloaded → 429` with a
//! `Retry-After` header (whole seconds, rounded up from the envelope's
//! exact millisecond hint).
//!
//! ## Backpressure, in two rings
//!
//! 1. **Accept gate** — beyond [`NetConfig::max_connections`] live
//!    connections (so at most that many connection threads), new ones
//!    get a best-effort `503` + `Retry-After` and are closed immediately.
//! 2. **Read pause** — a connection whose classify is rejected with
//!    [`ServeError::Overloaded`] got its `429` *and* stops being read:
//!    its thread waits out the envelope's `retry_after_ms` hint, then
//!    re-checks, so its buffered pipeline waits and TCP pushes back on
//!    the client. Reads resume once every in-flight count has fallen to
//!    half its cap — on a router, each group's own count (hysteresis, so
//!    the edge does not flap).
//!
//! A connection's thread serves its pipelined requests one at a time, in
//! order, and scores its own classifies; the OS scheduler shares the
//! machine between connections.
//!
//! ## Drain protocol
//!
//! [`EdgeHandle::drain`] stops every connection from *starting* a
//! request, while requests already started finish and their responses
//! are written; it blocks until none is in flight and returns the drain
//! latency. Both the in-flight count and the drain command live under
//! one lock, and a connection thread takes its in-flight slot under that
//! lock only while the edge runs, so no request starts during a drain.
//! Connections stay open throughout (one accepted mid-drain waits too) —
//! after [`EdgeHandle::resume`], buffered requests pick up where they
//! left off. [`EdgeHandle`] implements [`SwapFence`], so installing it
//! on a [`frappe_lifecycle::LifecycleManager`] wraps every model
//! promotion and rollback in exactly this drain/swap/resume cycle — the
//! "zero dropped responses across a hot swap" guarantee `tests/edge.rs`
//! exercises.

use std::collections::HashMap;
use std::io::{self, Write as _};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use frappe_lifecycle::SwapFence;
use frappe_obs::{
    Clock, Counter, Gauge, Histogram, LifecycleEvent, SloConfig, SloWindow, Span, TraceCollector,
    TraceFlag, TraceHandle, WallClock,
};
use frappe_serve::metrics::LATENCY_BOUNDS_MICROS;
use frappe_serve::{Deployment, ErrorEnvelope, ServeError, ServeEvent};
use osn_types::ids::AppId;

use crate::http::{Method, Request, Response};

/// The longest app name a `Registered` event may carry over
/// `POST /v1/events`. Names are attacker-authored and each app's name
/// is kept in its feature state, so without this bound one event could
/// park a string as large as the whole request body per app. Real names
/// (the paper's fake-app and look-alike names included) are a few dozen
/// bytes.
pub const MAX_APP_NAME_BYTES: usize = 256;

/// Edge tuning knobs. Request byte budgets are
/// [`crate::http::Limits::default`] (`431`/`413` beyond).
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Live-connection cap; beyond it accepts are answered `503` and
    /// closed (ring 1 of the backpressure story).
    pub max_connections: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_connections: 1024,
        }
    }
}

/// What the control plane has asked the edge to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    Running,
    Draining,
    Shutdown,
}

/// The edge's one lock: the drain/shutdown command, the requests in
/// flight, and the live connections.
struct EdgeState {
    command: Command,
    /// Requests admitted past the drain gate whose responses are not yet
    /// written.
    in_flight: usize,
    /// A `try_clone` of every live connection's stream, so shutdown can
    /// unblock its thread; the map's length is what the accept gate caps.
    conns: HashMap<u64, TcpStream>,
    next_conn: u64,
}

/// Connection-level metrics, registered on the service's own obs
/// registry so one `/metrics` scrape shows serving, lifecycle, *and*
/// edge state.
pub(crate) struct NetMetrics {
    accepted: Arc<Counter>,
    rejected: Arc<Counter>,
    active: Arc<Gauge>,
    pub(crate) bytes_read: Arc<Counter>,
    bytes_written: Arc<Counter>,
    pub(crate) read_stalls: Arc<Counter>,
    pub(crate) requests: Arc<Counter>,
    responses_429: Arc<Counter>,
    /// Submit-time 429s attributed to the shard group that shed them
    /// (a distinct family from `net_http_429`, which stays the
    /// deployment-wide total — same name plus labels would double-count
    /// in a merged scrape). One lane per group; single-service edges get
    /// exactly one.
    responses_429_by_group: Vec<Arc<Counter>>,
    request_latency: Arc<Histogram>,
    drains: Arc<Counter>,
    drain_micros: Arc<Histogram>,
}

impl NetMetrics {
    fn new(registry: &frappe_obs::Registry, group_count: usize) -> NetMetrics {
        NetMetrics {
            accepted: registry.counter("net_conns_accepted"),
            rejected: registry.counter("net_conns_rejected"),
            active: registry.gauge("net_conns_active"),
            bytes_read: registry.counter("net_bytes_read"),
            bytes_written: registry.counter("net_bytes_written"),
            read_stalls: registry.counter("net_read_stalls"),
            requests: registry.counter("net_http_requests"),
            responses_429: registry.counter("net_http_429"),
            responses_429_by_group: (0..group_count.max(1))
                .map(|g| {
                    registry.counter_with("net_http_429_by_group", &[("group", &g.to_string())])
                })
                .collect(),
            request_latency: registry
                .histogram("net_request_latency_micros", &LATENCY_BOUNDS_MICROS),
            drains: registry.counter("net_drains"),
            drain_micros: registry.histogram("net_drain_micros", &LATENCY_BOUNDS_MICROS),
        }
    }

    /// Books one shed request against its owning group's 429 lane.
    fn shed(&self, group: usize) {
        self.responses_429.inc();
        if let Some(lane) = self.responses_429_by_group.get(group) {
            lane.inc();
        }
    }
}

/// Everything the accept thread, the connection threads and the control
/// handle share.
pub(crate) struct Edge {
    service: Deployment,
    config: NetConfig,
    state: Mutex<EdgeState>,
    cond: Condvar,
    pub(crate) metrics: NetMetrics,
    overload_response: Vec<u8>,
    /// Request tracer (the service's collector, captured at bind).
    trace: Option<TraceCollector>,
    /// Rolling SLO windows fed by every completed response.
    slo_1m: SloWindow,
    slo_5m: SloWindow,
}

/// One admitted request's slot in the in-flight count; dropping it (the
/// response written, or the thread unwinding) releases the slot and
/// wakes a waiting drain.
pub(crate) struct InFlight<'a>(&'a Edge);

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        state.in_flight -= 1;
        if state.in_flight == 0 {
            self.0.cond.notify_all();
        }
    }
}

impl Edge {
    fn lock(&self) -> MutexGuard<'_, EdgeState> {
        self.state.lock().expect("edge state lock")
    }

    /// The drain gate: waits out a drain, then takes an in-flight slot.
    /// `None` once the edge is shutting down.
    pub(crate) fn admit(&self) -> Option<InFlight<'_>> {
        let state = self.lock();
        let mut state = self
            .cond
            .wait_while(state, |s| s.command == Command::Draining)
            .expect("edge state lock");
        if state.command == Command::Shutdown {
            return None;
        }
        state.in_flight += 1;
        Some(InFlight(self))
    }

    /// Ring 2: holds a shed connection's reads. Waits out the retry
    /// `hint`, then re-checks the in-flight counts, until every count is
    /// at most half its cap (`true`) or the edge shuts down (`false`).
    pub(crate) fn pause_reads(&self, hint: Duration) -> bool {
        loop {
            let state = self.lock();
            let (state, _) = self
                .cond
                .wait_timeout_while(state, hint, |s| s.command != Command::Shutdown)
                .expect("edge state lock");
            if state.command == Command::Shutdown {
                return false;
            }
            drop(state);
            if self.service.queues_at_most_half_full() {
                return true;
            }
        }
    }

    /// Drops a finished connection's stream clone (closing the socket
    /// for good) and republishes the live count.
    pub(crate) fn deregister(&self, id: u64) {
        let mut state = self.lock();
        state.conns.remove(&id);
        self.metrics.active.set(state.conns.len() as i64);
    }

    fn accept_loop(self: Arc<Self>, listener: TcpListener) {
        let mut threads: Vec<JoinHandle<()>> = Vec::new();
        for stream in listener.incoming() {
            // transient per-connection failures (e.g. ECONNABORTED)
            let Ok(stream) = stream else { continue };
            // reap finished connection threads (a panicked one has already
            // reported through the panic hook; the others keep serving)
            for done in threads.extract_if(.., |t| t.is_finished()) {
                let _ = done.join();
            }
            let mut state = self.lock();
            if state.command == Command::Shutdown {
                break;
            }
            let active = state.conns.len();
            if active >= self.config.max_connections {
                drop(state);
                self.reject(stream, active);
                continue;
            }
            let Ok(clone) = stream.try_clone() else {
                continue;
            };
            let id = state.next_conn;
            state.next_conn += 1;
            state.conns.insert(id, clone);
            self.metrics.accepted.inc();
            self.metrics.active.set(state.conns.len() as i64);
            drop(state);
            let _ = stream.set_nodelay(true);
            let edge = Arc::clone(&self);
            let spawned = std::thread::Builder::new()
                .name("frappe-net-conn".into())
                .spawn(move || crate::conn::serve(&edge, stream, id));
            match spawned {
                Ok(thread) => threads.push(thread),
                Err(_) => self.deregister(id),
            }
        }
        for thread in threads {
            let _ = thread.join();
        }
    }

    /// Ring 1: over the gate — canned 503, then close. A fresh socket's
    /// buffer swallows this small write, so best-effort is near-certain
    /// delivery, and the write never blocks the accept thread.
    fn reject(&self, mut stream: TcpStream, active: usize) {
        self.metrics.rejected.inc();
        if let Some(tc) = &self.trace {
            // no connection ever exists, so the trace is born finished —
            // and always tail-kept
            let t = tc.begin("edge");
            t.flag(TraceFlag::ShedAcceptGate);
            t.event("accept_gate", format!("active={active}"));
            t.finish("503");
        }
        let _ = stream.set_nonblocking(true);
        let _ = stream.write(&self.overload_response);
    }

    /// Mints the request's trace (when a collector is attached): a
    /// retroactive `edge/accept` span on the connection's first request,
    /// then the open `edge/request` root span everything downstream
    /// parents under.
    pub(crate) fn begin_request_trace(
        &self,
        accepted_at: &mut Option<Instant>,
        request: &Request,
    ) -> Option<(TraceHandle, Span)> {
        let tc = self.trace.as_ref()?;
        let handle = tc.begin("edge");
        if let Some(accepted_at) = accepted_at.take() {
            let now = handle.now_micros();
            let elapsed = u64::try_from(accepted_at.elapsed().as_micros()).unwrap_or(u64::MAX);
            handle.span_at("edge/accept", None, now.saturating_sub(elapsed), now);
        }
        let root = frappe_obs::span_in("edge/request", Some((&handle, None)));
        let verb = match request.method {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Other => "?",
        };
        handle.event("http_request", format!("{verb} {}", request.path));
        Some((handle, root))
    }

    /// Answers one request on the calling connection thread. The
    /// `Duration` is the 429 backpressure signal: the retry hint to wait
    /// out before reading the connection again.
    pub(crate) fn route(
        &self,
        request: &Request,
        trace: Option<&(TraceHandle, Span)>,
    ) -> (Response, Option<Duration>) {
        let done = |response| (response, None);
        match (request.method, request.path.as_str()) {
            (Method::Get, "/healthz") => done(Response::json(200, &br#"{"status":"ok"}"#[..])),
            (Method::Get, "/metrics") => {
                // Publish edge-side state into the deployment's *base*
                // registry first; `exposition()` then snapshots it and —
                // for a router — merges every group's registry
                // in per-group lanes without double-counting shared
                // families. One scrape, whole deployment.
                let registry = self.service.obs_registry();
                if let Some(tc) = &self.trace {
                    tc.publish_metrics(registry);
                }
                self.slo_1m.publish(registry, "1m");
                self.slo_5m.publish(registry, "5m");
                let text = self.service.exposition().to_prometheus_text();
                done(Response::text(200, text.into_bytes()))
            }
            (Method::Get, "/v1/traces") => done(match &self.trace {
                Some(tc) => Response::text(200, tc.export_jsonl().into_bytes()),
                None => Response::json(404, &br#"{"error":"tracing disabled"}"#[..]),
            }),
            (Method::Get, "/v1/traces/chrome") => done(match &self.trace {
                Some(tc) => Response::json(200, tc.export_chrome_trace().into_bytes()),
                None => Response::json(404, &br#"{"error":"tracing disabled"}"#[..]),
            }),
            (Method::Post, "/v1/events") => done(self.ingest_events(&request.body)),
            (Method::Get, path) if path.starts_with("/v1/classify/") => {
                let raw = &path["/v1/classify/".len()..];
                let Ok(app) = raw.parse::<AppId>() else {
                    let body = format!(
                        "{{\"error\":{}}}",
                        serde_json::to_string(&format!("unparsable app id: {raw}"))
                            .expect("strings serialize")
                    );
                    return done(Response::json(400, body.into_bytes()));
                };
                let edge_trace = trace.map(|(handle, root)| (handle.clone(), root.id()));
                match self.service.classify_traced(app, edge_trace) {
                    Ok(verdict) => done(Response::json(
                        200,
                        serde_json::to_string(&verdict)
                            .expect("verdicts serialize")
                            .into_bytes(),
                    )),
                    Err(err) => {
                        let pause = match err {
                            ServeError::Overloaded { retry_after_ms } => {
                                // the classify site is the one place both
                                // the app and the shed are known — attribute
                                // the 429 to the group that owns the app
                                self.metrics.shed(self.service.group_of(app));
                                // a zero hint must not spin the re-check
                                Some(Duration::from_millis(retry_after_ms.max(1)))
                            }
                            _ => None,
                        };
                        (error_response(err), pause)
                    }
                }
            }
            (_, "/healthz" | "/metrics" | "/v1/events" | "/v1/traces" | "/v1/traces/chrome") => {
                done(Response::json(
                    405,
                    &br#"{"error":"method not allowed"}"#[..],
                ))
            }
            (_, path) if path.starts_with("/v1/classify/") => done(Response::json(
                405,
                &br#"{"error":"method not allowed"}"#[..],
            )),
            _ => done(Response::json(404, &br#"{"error":"no such route"}"#[..])),
        }
    }

    /// `POST /v1/events`: NDJSON, all-or-nothing. Every line must parse,
    /// and every `Registered` name fit in [`MAX_APP_NAME_BYTES`], before
    /// any event is applied, so a `400` moves no feature. Then every event
    /// is applied on this thread, so a `202` means all of them are
    /// visible to the next classify.
    fn ingest_events(&self, body: &[u8]) -> Response {
        let Ok(text) = std::str::from_utf8(body) else {
            return Response::json(400, &br#"{"error":"body is not UTF-8"}"#[..]);
        };
        let mut events = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let bad_line = |what: String| {
                let msg = format!("line {}: {what}", lineno + 1);
                let body = format!(
                    "{{\"error\":{}}}",
                    serde_json::to_string(&msg).expect("strings serialize")
                );
                Response::json(400, body.into_bytes())
            };
            match serde_json::from_str::<ServeEvent>(line) {
                Ok(ServeEvent::Registered { name, .. }) if name.len() > MAX_APP_NAME_BYTES => {
                    return bad_line(format!(
                        "app name is {} bytes, over the {MAX_APP_NAME_BYTES}-byte limit",
                        name.len()
                    ));
                }
                Ok(event) => events.push(event),
                Err(err) => return bad_line(err.to_string()),
            }
        }
        for event in &events {
            self.service.ingest(event);
        }
        Response::json(
            202,
            format!("{{\"ingested\":{}}}", events.len()).into_bytes(),
        )
    }

    /// Renders `response` and writes it to `stream`, booking latency
    /// (parse-complete to response-rendered) and the SLO windows, and
    /// finishing the request's trace once the bytes are written. Returns
    /// whether the write succeeded.
    pub(crate) fn respond(
        &self,
        stream: &mut TcpStream,
        response: &Response,
        started: Option<Instant>,
        trace: Option<(TraceHandle, Span)>,
    ) -> bool {
        let mut out = Vec::new();
        response.write_into(&mut out);
        let status = response.status;
        if let Some(started) = started {
            let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
            // latency bucket exemplars name a real traced request
            let exemplar = trace.as_ref().map_or(0, |(h, _)| h.id().as_u64());
            self.metrics
                .request_latency
                .observe_with_exemplar(micros, exemplar);
            // "bad" for SLO purposes: shed (429) or server-side failure
            let bad = status == 429 || status >= 500;
            self.slo_1m.record(micros, bad);
            self.slo_5m.record(micros, bad);
        }
        let write = trace.as_ref().map(|(handle, root)| {
            if status == 429 {
                handle.flag(TraceFlag::Shed429);
            }
            frappe_obs::span_in("edge/write", Some((handle, root.id())))
        });
        let written = stream.write_all(&out).is_ok();
        if written {
            self.metrics.bytes_written.add(out.len() as u64);
        }
        if let Some((handle, _root)) = trace {
            // `finish` closes the trace at the moment the last byte left;
            // the `edge/write` and `edge/request` guards drop after it
            let status = status.to_string();
            handle.finish(if written { &status } else { "aborted" });
            drop(write);
        }
        written
    }
}

/// Control handle onto a running [`Server`]: drain, resume, and the
/// [`SwapFence`] implementation that fences lifecycle hot-swaps.
#[derive(Clone)]
pub struct EdgeHandle {
    edge: Arc<Edge>,
}

impl EdgeHandle {
    /// Stops starting requests, waits until every request already
    /// started is answered (its response written), and returns how long
    /// that took. Idempotent while already draining. Connections stay
    /// open; pair with [`resume`](Self::resume).
    pub fn drain(&self) -> Duration {
        let start = Instant::now();
        let edge = &self.edge;
        if let Some(tc) = &edge.trace {
            // every in-flight trace gets flagged + the event appended,
            // so exported traces show what they straddled
            tc.lifecycle_event(LifecycleEvent::DrainBegin, "edge drain");
        }
        let mut state = edge.lock();
        if state.command == Command::Running {
            state.command = Command::Draining;
        }
        let state = edge
            .cond
            .wait_while(state, |s| s.command == Command::Draining && s.in_flight > 0)
            .expect("edge state lock");
        drop(state);
        let took = start.elapsed();
        edge.metrics.drains.inc();
        edge.metrics
            .drain_micros
            .observe(u64::try_from(took.as_micros()).unwrap_or(u64::MAX));
        took
    }

    /// Reopens the edge after a [`drain`](Self::drain): buffered and
    /// held requests resume.
    pub fn resume(&self) {
        if let Some(tc) = &self.edge.trace {
            tc.lifecycle_event(LifecycleEvent::DrainEnd, "edge resume");
        }
        let mut state = self.edge.lock();
        if state.command == Command::Draining {
            state.command = Command::Running;
            self.edge.cond.notify_all();
        }
    }
}

impl SwapFence for EdgeHandle {
    /// Drain → swap → resume. Installed on a
    /// [`frappe_lifecycle::LifecycleManager`], this runs every model
    /// promotion and rollback with zero responses mid-flight.
    fn fenced(&self, swap: &mut dyn FnMut()) {
        self.drain();
        swap();
        self.resume();
    }
}

/// The network edge: owns the accept thread, which owns the connection
/// threads. Dropping the server shuts every connection down and joins
/// every thread (open connections are closed without ceremony — drain
/// first for grace).
pub struct Server {
    local_addr: SocketAddr,
    handle: EdgeHandle,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port), registers the
    /// edge's `net_*` metrics on the deployment's base obs registry, and
    /// spawns the accept thread. Takes an `Arc<FrappeService>`, an
    /// `Arc<ShardRouter>`, or a [`Deployment`].
    pub fn bind<A: ToSocketAddrs>(
        service: impl Into<Deployment>,
        addr: A,
        config: NetConfig,
    ) -> io::Result<Server> {
        let service = service.into();
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let metrics = NetMetrics::new(service.obs_registry(), service.group_count());
        // The collector attached to the service (if any) becomes the
        // edge's tracer: captured at bind, so attach it *before* binding.
        let trace = service.trace_collector();

        // SLO windows share the collector's clock so traced tests can
        // drive both deterministically; untraced edges run on wall time.
        let slo_clock: Arc<dyn Clock> = trace
            .as_ref()
            .map(TraceCollector::clock)
            .unwrap_or_else(|| Arc::new(WallClock::new()));
        let slo_1m = SloWindow::new(
            SloConfig {
                window_secs: 60,
                ..SloConfig::default()
            },
            Arc::clone(&slo_clock),
        );
        let slo_5m = SloWindow::new(
            SloConfig {
                window_secs: 300,
                ..SloConfig::default()
            },
            slo_clock,
        );

        let edge = Arc::new(Edge {
            overload_response: accept_gate_response(service.retry_after_ms()),
            service,
            config,
            state: Mutex::new(EdgeState {
                command: Command::Running,
                in_flight: 0,
                conns: HashMap::new(),
                next_conn: 0,
            }),
            cond: Condvar::new(),
            metrics,
            trace,
            slo_1m,
            slo_5m,
        });
        let accept_edge = Arc::clone(&edge);
        let accept = std::thread::Builder::new()
            .name("frappe-net".into())
            .spawn(move || accept_edge.accept_loop(listener))?;
        Ok(Server {
            local_addr,
            handle: EdgeHandle { edge },
            accept: Some(accept),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A cloneable control handle (drain/resume/[`SwapFence`]).
    pub fn handle(&self) -> EdgeHandle {
        self.handle.clone()
    }

    /// Convenience for [`EdgeHandle::drain`].
    pub fn drain(&self) -> Duration {
        self.handle.drain()
    }

    /// Convenience for [`EdgeHandle::resume`].
    pub fn resume(&self) {
        self.handle.resume()
    }
}

impl Drop for Server {
    /// Shuts every connection down and joins the accept thread, which
    /// joins every connection thread. A connection thread runs its
    /// ingest and its classify inline, observer included, so a
    /// [`frappe_serve::VerdictObserver`] stalled in `observe` holds this
    /// drop until it returns: observers must return promptly.
    fn drop(&mut self) {
        let edge = &self.handle.edge;
        {
            // under the lock the accept thread registers under, so no
            // connection slips in after the sweep
            let mut state = edge.lock();
            state.command = Command::Shutdown;
            for stream in state.conns.values() {
                // unblocks a thread parked in `read` or `write`
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        // wakes threads held by a drain, a read pause or the gate
        edge.cond.notify_all();
        // the accept thread is parked in `accept`: hand it a connection
        let _ = TcpStream::connect(wake_addr(self.local_addr));
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

/// Where a loopback connect reaches the listener: its own address, with
/// an unspecified IP replaced by the loopback of the same family.
fn wake_addr(local: SocketAddr) -> SocketAddr {
    let mut addr = local;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// Pre-rendered `503` for connections beyond the accept gate, reusing
/// the standard envelope so even gate rejections parse uniformly.
fn accept_gate_response(retry_after_ms: u64) -> Vec<u8> {
    let envelope = ErrorEnvelope::new(ServeError::Overloaded { retry_after_ms });
    let mut response = Response::json(503, envelope_json(&envelope));
    response.retry_after_secs = Some(retry_secs(retry_after_ms));
    response.close = true;
    let mut bytes = Vec::new();
    response.write_into(&mut bytes);
    bytes
}

fn envelope_json(envelope: &ErrorEnvelope) -> Vec<u8> {
    serde_json::to_string(envelope)
        .expect("the envelope wire format is pinned by a frappe-serve test")
        .into_bytes()
}

/// `Retry-After` is whole seconds; round the millisecond hint up so the
/// header never promises an earlier retry than the envelope.
fn retry_secs(retry_after_ms: u64) -> u64 {
    retry_after_ms.div_ceil(1000).max(1)
}

/// Maps a [`ServeError`] onto its status + envelope body. The 429
/// carries both the exact millisecond hint (envelope) and the
/// rounded-up `Retry-After` header.
fn error_response(err: ServeError) -> Response {
    let (status, retry_after_secs) = match &err {
        ServeError::UnknownApp(_) => (404, None),
        ServeError::Overloaded { retry_after_ms } => (429, Some(retry_secs(*retry_after_ms))),
    };
    let mut response = Response::json(status, envelope_json(&ErrorEnvelope::new(err)));
    response.retry_after_secs = retry_after_secs;
    response
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_after_header_rounds_milliseconds_up_to_at_least_one_second() {
        assert_eq!(retry_secs(1), 1);
        assert_eq!(retry_secs(999), 1);
        assert_eq!(retry_secs(1000), 1);
        assert_eq!(retry_secs(1001), 2);
    }

    #[test]
    fn serve_errors_map_onto_status_envelope_and_header() {
        let r = error_response(ServeError::Overloaded { retry_after_ms: 7 });
        assert_eq!(r.status, 429);
        assert_eq!(r.retry_after_secs, Some(1));
        assert_eq!(
            r.body,
            br#"{"error":{"Overloaded":{"retry_after_ms":7}},"retry_after_ms":7}"#
        );
        assert!(!r.close);

        let r = error_response(ServeError::UnknownApp(AppId(404)));
        assert_eq!(r.status, 404);
        assert_eq!(r.retry_after_secs, None);
    }
}
