//! The server: one event-loop thread driving listener + connections over
//! the [`crate::reactor`], routing HTTP requests into a [`Deployment`] —
//! a single [`frappe_serve::FrappeService`] or a
//! [`frappe_serve::ShardRouter`] over K shard groups.
//!
//! ## Routes
//!
//! | route | verb | body | answer |
//! |---|---|---|---|
//! | `/v1/events` | POST | NDJSON [`ServeEvent`] lines | `202 {"ingested":n}` (parse is all-or-nothing) |
//! | `/v1/classify/{app_id}` | GET | — | `200` [`frappe_serve::Verdict`] JSON |
//! | `/metrics` | GET | — | `200` Prometheus text |
//! | `/healthz` | GET | — | `200 {"status":"ok"}` |
//!
//! Every error a classify can produce travels as the shared
//! [`ErrorEnvelope`]: `UnknownApp → 404`, `Overloaded → 429` with a
//! `Retry-After` header (whole seconds, rounded up from the envelope's
//! exact millisecond hint), `ShuttingDown → 503`.
//!
//! ## Backpressure, in three rings
//!
//! 1. **Accept gate** — beyond [`NetConfig::max_connections`] live
//!    connections, new ones get a best-effort `503` + `Retry-After` and
//!    are closed immediately.
//! 2. **Read pause** — a connection whose classify is rejected with
//!    [`ServeError::Overloaded`] got its `429` *and* stops being read:
//!    its buffered pipeline waits and TCP pushes back on the client.
//!    Reads resume once every scorer queue has fallen to half its
//!    capacity — on a router, each group's own queue (hysteresis, so the
//!    edge does not flap).
//! 3. **Pipelining guard** — at most four (`MAX_REQUESTS_PER_WAKE`)
//!    buffered requests are served per connection per wake-up, so one
//!    pipelining client cannot starve the rest of the loop.
//!
//! ## Drain protocol
//!
//! [`EdgeHandle::drain`] asks the loop to stop accepting and stop
//! *starting* requests, while in-flight scores finish and responses
//! flush; it blocks until the loop reports every connection quiesced
//! (phase idle, output flushed) and returns the drain latency.
//! Connections stay open throughout — after [`EdgeHandle::resume`],
//! buffered requests pick up where they left off. [`EdgeHandle`]
//! implements [`SwapFence`], so installing it on a
//! [`frappe_lifecycle::LifecycleManager`] wraps every model promotion
//! and rollback in exactly this drain/swap/resume cycle — the "zero
//! dropped responses across a hot swap" guarantee `tests/edge.rs`
//! exercises.

use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use frappe_lifecycle::SwapFence;
use frappe_obs::{
    Clock, Counter, Gauge, Histogram, LifecycleEvent, SloConfig, SloWindow, Span, TraceCollector,
    TraceFlag, TraceHandle, WallClock,
};
use frappe_serve::metrics::LATENCY_BOUNDS_MICROS;
use frappe_serve::{Deployment, ErrorEnvelope, PendingVerdict, ServeError, ServeEvent, Verdict};
use osn_types::ids::AppId;

use crate::conn::{Conn, IoStep, PendingWrite, Phase};
use crate::http::{Method, Request, Response};
use crate::reactor::{Reactor, Readiness, Waker};

/// The listener's reactor token; connections use `slot index + 1`.
const LISTENER_TOKEN: u64 = 0;

/// Buffered requests served per connection per wake-up (ring 3).
const MAX_REQUESTS_PER_WAKE: usize = 4;

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

/// What the control plane has asked the loop to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    Running,
    Draining,
    Shutdown,
}

struct EdgeState {
    command: Command,
    /// Loop-reported: every connection quiesced (only meaningful while
    /// `command == Draining`).
    drained: bool,
}

struct Shared {
    state: Mutex<EdgeState>,
    cond: Condvar,
}

impl Default for Shared {
    fn default() -> Self {
        Shared {
            state: Mutex::new(EdgeState {
                command: Command::Running,
                drained: false,
            }),
            cond: Condvar::new(),
        }
    }
}

/// Connection-level metrics, registered on the service's own obs
/// registry so one `/metrics` scrape shows serving, lifecycle, *and*
/// edge state.
struct NetMetrics {
    accepted: Arc<Counter>,
    rejected: Arc<Counter>,
    active: Arc<Gauge>,
    bytes_read: Arc<Counter>,
    bytes_written: Arc<Counter>,
    read_stalls: Arc<Counter>,
    requests: Arc<Counter>,
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

/// Control handle onto a running [`Server`]: drain, resume, and the
/// [`SwapFence`] implementation that fences lifecycle hot-swaps.
#[derive(Clone)]
pub struct EdgeHandle {
    shared: Arc<Shared>,
    waker: Waker,
    drains: Arc<Counter>,
    drain_micros: Arc<Histogram>,
    trace: Option<TraceCollector>,
}

impl EdgeHandle {
    /// Stops accepting and starting requests, waits until every
    /// connection is quiesced (in-flight verdicts answered, responses
    /// flushed), and returns how long that took. Idempotent while
    /// already draining. Connections stay open; pair with
    /// [`resume`](Self::resume).
    pub fn drain(&self) -> Duration {
        let start = Instant::now();
        if let Some(tc) = &self.trace {
            // every in-flight trace gets flagged + the event appended,
            // so exported traces show what they straddled
            tc.lifecycle_event(LifecycleEvent::DrainBegin, "edge drain");
        }
        let mut state = self.shared.state.lock().expect("edge state lock");
        if state.command == Command::Running {
            state.command = Command::Draining;
            state.drained = false;
        }
        self.waker.wake();
        while state.command == Command::Draining && !state.drained {
            // Timed wait so a dead loop thread cannot park us forever.
            let (guard, _) = self
                .shared
                .cond
                .wait_timeout(state, Duration::from_millis(50))
                .expect("edge state lock");
            state = guard;
        }
        drop(state);
        let took = start.elapsed();
        self.drains.inc();
        self.drain_micros
            .observe(u64::try_from(took.as_micros()).unwrap_or(u64::MAX));
        took
    }

    /// Reopens the edge after a [`drain`](Self::drain): accepting
    /// restarts and buffered requests resume.
    pub fn resume(&self) {
        if let Some(tc) = &self.trace {
            tc.lifecycle_event(LifecycleEvent::DrainEnd, "edge resume");
        }
        let mut state = self.shared.state.lock().expect("edge state lock");
        if state.command == Command::Draining {
            state.command = Command::Running;
            state.drained = false;
        }
        drop(state);
        self.waker.wake();
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

/// The network edge: owns the listener and the event-loop thread.
/// Dropping the server shuts the loop down and joins it (open
/// connections are closed without ceremony — drain first for grace).
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    waker: Waker,
    handle: EdgeHandle,
    thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port), registers the
    /// edge's `net_*` metrics on the deployment's base obs registry, and
    /// spawns the event-loop thread. Takes an `Arc<FrappeService>`, an
    /// `Arc<ShardRouter>`, or a [`Deployment`].
    pub fn bind<A: ToSocketAddrs>(
        service: impl Into<Deployment>,
        addr: A,
        config: NetConfig,
    ) -> io::Result<Server> {
        let service = service.into();
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let reactor = Reactor::new(256)?;
        reactor.register_read(listener.as_raw_fd(), LISTENER_TOKEN)?;
        let waker = reactor.waker();
        let shared = Arc::new(Shared::default());
        let metrics = NetMetrics::new(service.obs_registry(), service.group_count());
        // The collector attached to the service (if any) becomes the
        // edge's tracer: captured at bind, so attach it *before* binding.
        let trace = service.trace_collector();
        let handle = EdgeHandle {
            shared: Arc::clone(&shared),
            waker: waker.clone(),
            drains: Arc::clone(&metrics.drains),
            drain_micros: Arc::clone(&metrics.drain_micros),
            trace: trace.clone(),
        };

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

        let event_loop = EventLoop {
            overload_response: accept_gate_response(service.retry_after_ms()),
            service,
            listener,
            reactor,
            shared: Arc::clone(&shared),
            config,
            conns: Vec::new(),
            free: Vec::new(),
            active: 0,
            accept_ready: true, // connections may predate registration
            paused_any: false,
            metrics,
            trace,
            slo_1m,
            slo_5m,
        };
        let thread = std::thread::Builder::new()
            .name("frappe-net".into())
            .spawn(move || event_loop.run())?;
        Ok(Server {
            local_addr,
            shared,
            waker,
            handle,
            thread: Some(thread),
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
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("edge state lock");
            state.command = Command::Shutdown;
        }
        self.shared.cond.notify_all();
        self.waker.wake();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
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

/// Where a routed request goes next.
enum Routed {
    /// Answer immediately; `pause_reads` is the 429 backpressure signal.
    Done {
        response: Response,
        pause_reads: bool,
    },
    /// A classify rode the scorer queue; poll the handle from the loop.
    Score(PendingVerdict),
}

struct EventLoop {
    service: Deployment,
    listener: TcpListener,
    reactor: Reactor,
    shared: Arc<Shared>,
    config: NetConfig,
    /// Slab of connections; reactor token = index + 1.
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    active: usize,
    /// Edge-trigger memo for the listener.
    accept_ready: bool,
    /// Any connection read-paused (enables the resume check + busy tick).
    paused_any: bool,
    metrics: NetMetrics,
    overload_response: Vec<u8>,
    /// Request tracer (the service's collector, captured at bind).
    trace: Option<TraceCollector>,
    /// Rolling SLO windows fed by every completed response.
    slo_1m: SloWindow,
    slo_5m: SloWindow,
}

impl EventLoop {
    fn run(mut self) {
        let mut events: Vec<Readiness> = Vec::new();
        loop {
            let command = self.shared.state.lock().expect("edge state lock").command;
            if command == Command::Shutdown {
                break;
            }
            let running = command == Command::Running;

            self.maybe_resume_paused();
            if running {
                self.accept_new();
            }
            for idx in 0..self.conns.len() {
                self.pump(idx, running);
            }
            self.publish_drained(command);

            // In-flight verdicts and paused reads have no fd edge to wake
            // us — tick; otherwise sleep until the kernel or a waker says.
            let busy = self.paused_any || self.conns.iter().flatten().any(Conn::in_flight);
            let timeout = busy.then(|| Duration::from_millis(1));
            events.clear();
            if self.reactor.poll(timeout, &mut events).is_err() {
                continue;
            }
            for event in &events {
                if event.token == LISTENER_TOKEN {
                    self.accept_ready = true;
                    continue;
                }
                let idx = (event.token - 1) as usize;
                if let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) {
                    if event.readable || event.hangup {
                        // hangup delivers the final bytes + EOF via read
                        conn.readable = true;
                    }
                    if event.writable {
                        conn.writable = true;
                    }
                }
            }
        }
        for idx in 0..self.conns.len() {
            if let Some(mut conn) = self.conns[idx].take() {
                conn.abort_write_traces();
                self.reactor.deregister(conn.stream.as_raw_fd());
            }
        }
        self.active = 0;
        self.metrics.active.set(0);
    }

    /// Hysteresis: 429-paused connections resume once every scorer queue
    /// has fallen to half its capacity, not the instant one slot frees —
    /// so the edge does not flap between pause and reject.
    fn maybe_resume_paused(&mut self) {
        if !self.paused_any {
            return;
        }
        if self.service.queues_at_most_half_full() {
            for conn in self.conns.iter_mut().flatten() {
                conn.paused = false;
            }
            self.paused_any = false;
        }
    }

    fn accept_new(&mut self) {
        while self.accept_ready {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if self.active >= self.config.max_connections {
                        // ring 1: over the gate — canned 503, then close.
                        // A fresh socket's buffer swallows this small
                        // write, so best-effort is near-certain delivery.
                        self.metrics.rejected.inc();
                        if let Some(tc) = &self.trace {
                            // no connection ever exists, so the trace is
                            // born finished — and always tail-kept
                            let t = tc.begin("edge");
                            t.flag(TraceFlag::ShedAcceptGate);
                            t.event("accept_gate", format!("active={}", self.active));
                            t.finish("503");
                        }
                        let _ = stream.set_nonblocking(true);
                        let _ = io::Write::write(&mut &stream, &self.overload_response);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let idx = self.free.pop().unwrap_or_else(|| {
                        self.conns.push(None);
                        self.conns.len() - 1
                    });
                    let token = idx as u64 + 1;
                    if self.reactor.register(stream.as_raw_fd(), token).is_err() {
                        self.free.push(idx);
                        continue;
                    }
                    self.conns[idx] = Some(Conn::new(stream));
                    self.active += 1;
                    self.metrics.accepted.inc();
                    self.metrics.active.set(self.active as i64);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.accept_ready = false;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // transient per-connection failures (e.g. ECONNABORTED)
                Err(_) => {}
            }
        }
    }

    fn pump(&mut self, idx: usize, running: bool) {
        let Some(mut conn) = self.conns[idx].take() else {
            return;
        };
        let gone = self.pump_conn(&mut conn, running);
        let finished = conn.closing && conn.is_quiesced();
        if gone || finished {
            // a vanished peer leaves responses unflushed; their traces
            // still finish (as `aborted`) so nothing dangles
            conn.abort_write_traces();
            self.reactor.deregister(conn.stream.as_raw_fd());
            self.free.push(idx);
            self.active -= 1;
            self.metrics.active.set(self.active as i64);
        } else {
            self.conns[idx] = Some(conn);
        }
    }

    /// One connection's turn; `true` means the peer is gone.
    fn pump_conn(&mut self, conn: &mut Conn, running: bool) -> bool {
        if conn.writable && conn.has_pending_output() {
            match conn.flush_out() {
                IoStep::Progress(n) => self.flushed(conn, n),
                IoStep::Gone => return true,
            }
        }

        if let Phase::Scoring {
            pending,
            keep_alive,
            started,
            trace,
        } = &mut conn.phase
        {
            if let Some(outcome) = pending.poll() {
                let (keep_alive, started, trace) = (*keep_alive, *started, trace.take());
                let response = self.verdict_response(outcome);
                self.enqueue(conn, response, keep_alive, Some(started), trace);
            }
        }

        if running && !conn.closing && !conn.paused && matches!(conn.phase, Phase::Idle) {
            if conn.readable {
                match conn.fill() {
                    IoStep::Progress(n) => self.metrics.bytes_read.add(n as u64),
                    // EOF: serve what's buffered, flush, then retire
                    IoStep::Gone => conn.closing = true,
                }
            }
            self.serve_buffered(conn);
        }

        if conn.writable && conn.has_pending_output() {
            match conn.flush_out() {
                IoStep::Progress(n) => self.flushed(conn, n),
                IoStep::Gone => return true,
            }
        }
        false
    }

    /// Books `n` flushed bytes: byte counter, watermark, and any traces
    /// whose responses just made it fully onto the wire.
    fn flushed(&self, conn: &mut Conn, n: usize) {
        self.metrics.bytes_written.add(n as u64);
        conn.flushed_total += n as u64;
        conn.complete_flushed_writes();
    }

    /// Parses and serves buffered requests, bounded by the pipelining
    /// guard, stopping at an in-flight classify or a read pause.
    fn serve_buffered(&mut self, conn: &mut Conn) {
        for _ in 0..MAX_REQUESTS_PER_WAKE {
            if conn.closing && conn.parser.buffered() == 0 {
                break;
            }
            if !matches!(conn.phase, Phase::Idle) || conn.paused {
                break;
            }
            match conn.parser.next_request() {
                Ok(None) => break,
                Ok(Some(request)) => {
                    let started = Instant::now();
                    self.metrics.requests.inc();
                    let trace = self.begin_request_trace(conn, &request);
                    match self.route(&request, trace.as_ref()) {
                        Routed::Done {
                            response,
                            pause_reads,
                        } => {
                            self.enqueue(conn, response, request.keep_alive, Some(started), trace);
                            if pause_reads {
                                // ring 2: this client just got a 429 —
                                // stop reading it until the queue recovers
                                conn.paused = true;
                                self.paused_any = true;
                                self.metrics.read_stalls.inc();
                            }
                        }
                        Routed::Score(pending) => {
                            conn.phase = Phase::Scoring {
                                pending: Box::new(pending),
                                keep_alive: request.keep_alive,
                                started,
                                trace,
                            };
                        }
                    }
                }
                Err(err) => {
                    // framing is broken — answer and close
                    self.metrics.requests.inc();
                    let (status, _) = err.status();
                    let body = format!(
                        "{{\"error\":{}}}",
                        serde_json::to_string(err.detail()).expect("strings serialize")
                    );
                    let response = Response::json(status, body.into_bytes());
                    self.enqueue(conn, response, false, None, None);
                    break;
                }
            }
        }
    }

    /// Mints the request's trace (when a collector is attached): a
    /// retroactive `edge/accept` span on the connection's first request,
    /// then the open `edge/request` root span everything downstream
    /// parents under.
    fn begin_request_trace(
        &self,
        conn: &mut Conn,
        request: &Request,
    ) -> Option<(TraceHandle, Span)> {
        let tc = self.trace.as_ref()?;
        let handle = tc.begin("edge");
        if !conn.accept_traced {
            conn.accept_traced = true;
            let now = handle.now_micros();
            let elapsed = u64::try_from(conn.accepted_at.elapsed().as_micros()).unwrap_or(u64::MAX);
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

    fn route(&self, request: &Request, trace: Option<&(TraceHandle, Span)>) -> Routed {
        let done = |response| Routed::Done {
            response,
            pause_reads: false,
        };
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
                    Ok(pending) => Routed::Score(pending),
                    Err(err) => {
                        let pause_reads = matches!(err, ServeError::Overloaded { .. });
                        if pause_reads {
                            // the submit site is the one place both the
                            // app and the shed are known — attribute the
                            // 429 to the group that owns the app
                            self.metrics.shed(self.service.group_of(app));
                        }
                        Routed::Done {
                            response: error_response(err),
                            pause_reads,
                        }
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

    /// `POST /v1/events`: NDJSON. Parsing is all-or-nothing — every line
    /// must parse before any event is forwarded, so a *malformed* batch
    /// moves no feature. Forwarding can still shed on a router (a full
    /// group mailbox answers 429 with `Retry-After`). Events before the
    /// shed point stay applied, and the 429 envelope carries no count of
    /// them: the client cannot tell from the answer which events landed.
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
            match serde_json::from_str::<ServeEvent>(line) {
                Ok(event) => events.push(event),
                Err(err) => {
                    let msg = format!("line {}: {err}", lineno + 1);
                    let body = format!(
                        "{{\"error\":{}}}",
                        serde_json::to_string(&msg).expect("strings serialize")
                    );
                    return Response::json(400, body.into_bytes());
                }
            }
        }
        for event in &events {
            if let Err(err) = self.service.ingest(event) {
                if matches!(err, ServeError::Overloaded { .. }) {
                    self.metrics.shed(self.service.group_of(event.app()));
                }
                return error_response(err);
            }
        }
        Response::json(
            202,
            format!("{{\"ingested\":{}}}", events.len()).into_bytes(),
        )
    }

    fn verdict_response(&self, outcome: Result<Verdict, ServeError>) -> Response {
        match outcome {
            Ok(verdict) => Response::json(
                200,
                serde_json::to_string(&verdict)
                    .expect("verdicts serialize")
                    .into_bytes(),
            ),
            Err(err) => {
                if matches!(err, ServeError::Overloaded { .. }) {
                    self.metrics.responses_429.inc();
                }
                error_response(err)
            }
        }
    }

    fn enqueue(
        &self,
        conn: &mut Conn,
        mut response: Response,
        keep_alive: bool,
        started: Option<Instant>,
        trace: Option<(TraceHandle, Span)>,
    ) {
        if !keep_alive {
            response.close = true;
        }
        if response.close {
            conn.closing = true;
        }
        let status = response.status;
        let before = conn.out.len();
        response.write_into(&mut conn.out);
        conn.enqueued_total += (conn.out.len() - before) as u64;
        conn.phase = Phase::Idle;
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
        if let Some((handle, root)) = trace {
            if status == 429 {
                handle.flag(TraceFlag::Shed429);
            }
            // the response is buffered, not yet on the wire: the trace
            // finishes when the flush watermark passes `target`
            let write = frappe_obs::span_in("edge/write", Some((&handle, root.id())));
            conn.write_traces.push(PendingWrite {
                handle,
                _root: root,
                _write: write,
                outcome: status.to_string(),
                target: conn.enqueued_total,
            });
        }
    }

    fn publish_drained(&self, command: Command) {
        if command != Command::Draining {
            return;
        }
        let drained = self.conns.iter().flatten().all(Conn::is_quiesced);
        let mut state = self.shared.state.lock().expect("edge state lock");
        if state.command == command && state.drained != drained {
            state.drained = drained;
            self.shared.cond.notify_all();
        }
    }
}

/// Maps a [`ServeError`] onto its status + envelope body. The 429
/// carries both the exact millisecond hint (envelope) and the
/// rounded-up `Retry-After` header; 503 closes the connection.
fn error_response(err: ServeError) -> Response {
    let status = match &err {
        ServeError::UnknownApp(_) => 404,
        ServeError::Overloaded { .. } => 429,
        ServeError::ShuttingDown => 503,
    };
    let retry_after_secs = match &err {
        ServeError::Overloaded { retry_after_ms } => Some(retry_secs(*retry_after_ms)),
        _ => None,
    };
    let close = matches!(err, ServeError::ShuttingDown);
    let mut response = Response::json(status, envelope_json(&ErrorEnvelope::new(err)));
    response.retry_after_secs = retry_after_secs;
    response.close = close;
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

        let r = error_response(ServeError::ShuttingDown);
        assert_eq!(r.status, 503);
        assert!(r.close, "no point keeping a connection to a dying service");
    }
}
