//! Network-edge wall-clock benchmark: what `frappe-net` delivers over
//! real loopback sockets.
//!
//! Like [`crate::trainbench`] and [`crate::lifebench`], this module
//! produces one machine-readable [`EdgeBenchReport`] that `repro
//! --edge-bench-out` serializes to `BENCH_edge.json`:
//!
//! * **ingest** — NDJSON `POST /v1/events` replay of the small world's
//!   full event stream, in events per second over the socket;
//! * **classify** — concurrent keep-alive connections hammering
//!   `GET /v1/classify/{app}`, with the merged latency distribution
//!   (p50/p99/p999) and the `429` shed count/rate the clients observed;
//! * **shed** — the accept gate's canned-`503` fast path, measured as
//!   connection rejections per second against a 1-connection edge;
//! * **drain** — the quiesce-for-hot-swap protocol, timed over many
//!   drain/resume cycles while a background client keeps one classify
//!   in flight.
//!
//! Honesty note: every number is whatever *this machine* delivers over
//! loopback — `threads_available` is recorded alongside, and a 1-core
//! box serializes the client threads against the event loop.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use frappe::{FeatureSet, FrappeModel};
use frappe_net::client::Client;
use frappe_net::{NetConfig, Server};
use frappe_obs::{TraceCollector, TraceConfig};
use frappe_serve::{serve_events, FrappeService, ServeConfig};
use serde::{Deserialize, Serialize};
use synth_workload::ScenarioConfig;

use crate::lab::{Archive, Lab};

/// `p`-th quantile of an already-sorted latency vector, in microseconds.
pub fn quantile_us(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)] as f64
}

/// Socket-ingest throughput: the small world's event stream replayed as
/// NDJSON batches through `POST /v1/events`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IngestBench {
    /// Events replayed.
    pub events: usize,
    /// NDJSON batches (requests) they were split into.
    pub batches: usize,
    /// Wall-clock of the replay, milliseconds.
    pub wall_ms: f64,
    /// Events ingested per second, over the socket.
    pub events_per_sec: f64,
}

/// Concurrent classify latency over real connections.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassifyBench {
    /// Concurrent keep-alive connections.
    pub connections: usize,
    /// Total requests issued across all connections.
    pub requests: usize,
    /// Wall-clock of the run, milliseconds.
    pub wall_ms: f64,
    /// Requests served per second (all connections together).
    pub requests_per_sec: f64,
    /// Median response latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile response latency, microseconds.
    pub p99_us: f64,
    /// 99.9th-percentile response latency, microseconds.
    pub p999_us: f64,
    /// `429 Too Many Requests` responses observed (shed load).
    pub responses_429: usize,
    /// `responses_429 / requests`.
    pub rate_429: f64,
}

/// Accept-gate shedding: rejections per second from a full edge.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShedBench {
    /// Connection attempts against the full edge.
    pub attempts: usize,
    /// Attempts answered with the canned `503` and closed.
    pub rejected: usize,
    /// Rejections per second (the canned-response fast path).
    pub rejects_per_sec: f64,
}

/// Tracing overhead: the classify phase re-run against a second edge
/// whose collector traces every request end to end, compared against the
/// untraced main run. The acceptance bar is a p99 within a few percent.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceOverheadBench {
    /// Head-sampling rate the traced edge ran with (1 in `head_every`).
    pub head_every: u64,
    /// Untraced classify p50, microseconds (the main classify phase).
    pub untraced_p50_us: f64,
    /// Untraced classify p99, microseconds.
    pub untraced_p99_us: f64,
    /// Traced classify p50, microseconds.
    pub traced_p50_us: f64,
    /// Traced classify p99, microseconds.
    pub traced_p99_us: f64,
    /// `traced_p99_us / untraced_p99_us` — 1.0 means free.
    pub p99_overhead_ratio: f64,
    /// Kept traces reported by `GET /v1/traces` after the run.
    pub kept_traces: usize,
}

/// Drain/resume latency while a background client keeps traffic coming.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DrainBench {
    /// Drain/resume cycles timed.
    pub drains: usize,
    /// Mean drain latency, microseconds.
    pub mean_us: f64,
    /// 99th-percentile drain latency, microseconds.
    pub p99_us: f64,
    /// Worst drain latency, microseconds.
    pub max_us: f64,
    /// Requests the background client completed during the cycles.
    pub background_requests: usize,
}

/// The full edge benchmark report (`BENCH_edge.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EdgeBenchReport {
    /// `std::thread::available_parallelism()` on the measuring machine —
    /// read this before reading any throughput.
    pub threads_available: usize,
    /// Quick mode (CI-sized sweeps) or the full configuration.
    pub quick: bool,
    /// NDJSON ingest throughput over the socket.
    pub ingest: IngestBench,
    /// Concurrent classify latency and 429 shed rate.
    pub classify: ClassifyBench,
    /// The same classify phase against a tracing edge, with the overhead
    /// it cost relative to the untraced run.
    pub trace: TraceOverheadBench,
    /// Accept-gate rejection throughput.
    pub shed: ShedBench,
    /// Drain protocol latency under background load.
    pub drain: DrainBench,
}

/// The concurrent classify phase: `connections` threads, one keep-alive
/// connection each, rotating through `apps`. 429s are counted, not
/// retried — the shed answer is itself a served response.
fn classify_phase(
    addr: SocketAddr,
    apps: &[u64],
    connections: usize,
    requests_per_conn: usize,
) -> ClassifyBench {
    let t = Instant::now();
    let mut latencies: Vec<u64> = Vec::with_capacity(connections * requests_per_conn);
    let mut responses_429 = 0usize;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..connections {
            handles.push(scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect query client");
                let mut lat = Vec::with_capacity(requests_per_conn);
                let mut shed = 0usize;
                for i in 0..requests_per_conn {
                    let app = apps[(c + i * connections) % apps.len()];
                    let t = Instant::now();
                    let response = client
                        .get(&format!("/v1/classify/{app}"))
                        .expect("classify over the socket");
                    let us = t.elapsed().as_micros() as u64;
                    match response.status {
                        200 => lat.push(us),
                        429 => shed += 1,
                        other => panic!("unexpected classify status {other}"),
                    }
                }
                (lat, shed)
            }));
        }
        for handle in handles {
            let (lat, shed) = handle.join().expect("query thread joins");
            latencies.extend(lat);
            responses_429 += shed;
        }
    });
    let wall = t.elapsed().as_secs_f64();
    latencies.sort_unstable();
    let requests = connections * requests_per_conn;
    ClassifyBench {
        connections,
        requests,
        wall_ms: wall * 1e3,
        requests_per_sec: requests as f64 / wall.max(1e-9),
        p50_us: quantile_us(&latencies, 0.50),
        p99_us: quantile_us(&latencies, 0.99),
        p999_us: quantile_us(&latencies, 0.999),
        responses_429,
        rate_429: responses_429 as f64 / requests.max(1) as f64,
    }
}

/// Runs the edge benchmark on the small deterministic world. `quick`
/// shrinks request and cycle counts to CI size.
pub fn run(quick: bool) -> EdgeBenchReport {
    let threads_available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (connections, requests_per_conn, drains, shed_attempts) = if quick {
        (4usize, 100usize, 25usize, 200usize)
    } else {
        (8, 2000, 200, 2000)
    };

    let lab = Lab::build(&ScenarioConfig::small());
    let (samples, labels) = lab.labelled_features(
        &lab.bundle.d_sample.malicious,
        &lab.bundle.d_sample.benign,
        Archive::Extended,
    );
    let model = FrappeModel::train(&samples, &labels, FeatureSet::Full, None);
    let service = Arc::new(FrappeService::new(
        model.clone(),
        lab.known_malicious_names(),
        lab.world.shortener.clone(),
        ServeConfig::default(),
    ));
    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0", NetConfig::default())
        .expect("bind the edge on loopback");
    let addr = server.local_addr();

    // Ingest: the whole event stream as NDJSON batches over one
    // connection. The store behind the socket is the same one the
    // classify phase reads from.
    let events = serve_events(&lab.world);
    let lines: Vec<String> = events
        .iter()
        .map(|e| serde_json::to_string(e).expect("events serialize"))
        .collect();
    let mut feeder = Client::connect(addr).expect("connect ingest client");
    let t = Instant::now();
    let mut batches = 0usize;
    for chunk in lines.chunks(400) {
        let response = feeder
            .post("/v1/events", &chunk.join("\n"))
            .expect("ingest batch");
        assert_eq!(
            response.status, 202,
            "ingest must be accepted: {}",
            response.body
        );
        batches += 1;
    }
    let wall = t.elapsed().as_secs_f64();
    let ingest = IngestBench {
        events: events.len(),
        batches,
        wall_ms: wall * 1e3,
        events_per_sec: events.len() as f64 / wall.max(1e-9),
    };

    // Classify: `connections` threads, one keep-alive connection each,
    // rotating through every tracked app. 429s are counted, not retried
    // — the shed answer is itself a served response.
    let apps: Vec<u64> = service.tracked_apps().iter().map(|a| a.raw()).collect();
    assert!(!apps.is_empty(), "ingest must leave classifiable apps");
    let classify = classify_phase(addr, &apps, connections, requests_per_conn);

    // Trace overhead: the identical classify phase against a second edge
    // over the same replayed world, whose collector (attached before
    // bind) traces every request socket-to-verdict at the default head
    // sampling rate.
    let traced_service = Arc::new(FrappeService::new(
        model.clone(),
        lab.known_malicious_names(),
        lab.world.shortener.clone(),
        ServeConfig::default(),
    ));
    traced_service.set_trace_collector(TraceCollector::new(TraceConfig::default()));
    let traced_server = Server::bind(
        Arc::clone(&traced_service),
        "127.0.0.1:0",
        NetConfig::default(),
    )
    .expect("bind the traced edge");
    let traced_addr = traced_server.local_addr();
    let mut feeder = Client::connect(traced_addr).expect("connect traced ingest client");
    for chunk in lines.chunks(400) {
        let response = feeder
            .post("/v1/events", &chunk.join("\n"))
            .expect("traced ingest batch");
        assert_eq!(response.status, 202);
    }
    let traced_classify = classify_phase(traced_addr, &apps, connections, requests_per_conn);
    let mut prober = Client::connect(traced_addr).expect("connect trace reader");
    let traces = prober.get("/v1/traces").expect("fetch kept traces");
    assert_eq!(
        traces.status, 200,
        "the traced edge serves its trace export"
    );
    let trace = TraceOverheadBench {
        head_every: TraceConfig::default().head_every,
        untraced_p50_us: classify.p50_us,
        untraced_p99_us: classify.p99_us,
        traced_p50_us: traced_classify.p50_us,
        traced_p99_us: traced_classify.p99_us,
        p99_overhead_ratio: traced_classify.p99_us / classify.p99_us.max(1.0),
        kept_traces: traces.body.lines().filter(|l| !l.is_empty()).count(),
    };
    drop(prober);
    drop(traced_server);

    // Shed: a second edge capped at one connection, its only slot held
    // by a parked client, so every further connect is answered by the
    // accept gate's canned 503 and closed.
    let shed_service = Arc::new(FrappeService::new(
        model,
        lab.known_malicious_names(),
        lab.world.shortener.clone(),
        ServeConfig::default(),
    ));
    let shed_server = Server::bind(
        Arc::clone(&shed_service),
        "127.0.0.1:0",
        NetConfig {
            max_connections: 1,
            ..NetConfig::default()
        },
    )
    .expect("bind the shed edge");
    let shed_addr = shed_server.local_addr();
    let mut parked = Client::connect(shed_addr).expect("park the only slot");
    let probe = parked.get("/healthz").expect("parked probe");
    assert_eq!(probe.status, 200, "the parked connection holds a live slot");
    let t = Instant::now();
    let mut rejected = 0usize;
    for _ in 0..shed_attempts {
        let mut client = Client::connect(shed_addr).expect("connect past the gate");
        match client.read_response() {
            Ok(response) if response.status == 503 => rejected += 1,
            Ok(response) => panic!("gate answered {}, expected 503", response.status),
            // the gate may close before the canned bytes are observed
            Err(_) => {}
        }
    }
    let wall = t.elapsed().as_secs_f64();
    let shed = ShedBench {
        attempts: shed_attempts,
        rejected,
        rejects_per_sec: rejected as f64 / wall.max(1e-9),
    };
    drop(parked);
    drop(shed_server);

    // Drain: cycle the quiesce protocol on the main edge while one
    // background client keeps classify traffic in flight, so each drain
    // pays the real cost of waiting out in-flight work.
    let stop = Arc::new(AtomicBool::new(false));
    let background_requests = Arc::new(AtomicU64::new(0));
    let handle = server.handle();
    let mut drain_us: Vec<u64> = Vec::with_capacity(drains);
    std::thread::scope(|scope| {
        let stop_bg = Arc::clone(&stop);
        let count = Arc::clone(&background_requests);
        let apps = &apps;
        scope.spawn(move || {
            let mut client = Client::connect(addr).expect("connect background client");
            let mut i = 0usize;
            while !stop_bg.load(Ordering::Relaxed) {
                let app = apps[i % apps.len()];
                let status = client
                    .get(&format!("/v1/classify/{app}"))
                    .expect("background classify")
                    .status;
                assert!(status == 200 || status == 429, "background got {status}");
                count.fetch_add(1, Ordering::Relaxed);
                i += 1;
            }
        });
        for _ in 0..drains {
            let waited = handle.drain();
            handle.resume();
            drain_us.push(waited.as_micros() as u64);
            std::thread::sleep(Duration::from_micros(200));
        }
        stop.store(true, Ordering::Relaxed);
    });
    drain_us.sort_unstable();
    let drain = DrainBench {
        drains,
        mean_us: drain_us.iter().sum::<u64>() as f64 / drains.max(1) as f64,
        p99_us: quantile_us(&drain_us, 0.99),
        max_us: quantile_us(&drain_us, 1.0),
        background_requests: background_requests.load(Ordering::Relaxed) as usize,
    };

    EdgeBenchReport {
        threads_available,
        quick,
        ingest,
        classify,
        trace,
        shed,
        drain,
    }
}

impl EdgeBenchReport {
    /// Human-readable summary (what `repro --edge-bench-out` prints).
    pub fn render(&self) -> String {
        format!(
            "edge bench ({} mode, {} threads available)\n\
             ingest       {} events in {} batches: {:.1} ms ({:.0} events/s over the socket)\n\
             classify     {} connections x {} requests: {:.0} req/s; \
             p50 {:.0} us, p99 {:.0} us, p999 {:.0} us; {} x 429 ({:.4} rate)\n\
             trace        traced p50 {:.0} us, p99 {:.0} us vs untraced p99 {:.0} us \
             ({:.3}x p99, 1/{} head sampling, {} traces kept)\n\
             shed         {}/{} connects rejected by the accept gate ({:.0} rejects/s)\n\
             drain        {} cycles under load: mean {:.0} us, p99 {:.0} us, max {:.0} us \
             ({} background requests completed)",
            if self.quick { "quick" } else { "full" },
            self.threads_available,
            self.ingest.events,
            self.ingest.batches,
            self.ingest.wall_ms,
            self.ingest.events_per_sec,
            self.classify.connections,
            self.classify.requests / self.classify.connections.max(1),
            self.classify.requests_per_sec,
            self.classify.p50_us,
            self.classify.p99_us,
            self.classify.p999_us,
            self.classify.responses_429,
            self.classify.rate_429,
            self.trace.traced_p50_us,
            self.trace.traced_p99_us,
            self.trace.untraced_p99_us,
            self.trace.p99_overhead_ratio,
            self.trace.head_every,
            self.trace.kept_traces,
            self.shed.rejected,
            self.shed.attempts,
            self.shed.rejects_per_sec,
            self.drain.drains,
            self.drain.mean_us,
            self.drain.p99_us,
            self.drain.max_us,
            self.drain.background_requests,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_runs_and_roundtrips() {
        let report = run(true);
        assert!(report.ingest.events > 0);
        assert!(report.ingest.events_per_sec > 0.0);
        assert_eq!(report.classify.requests, 400);
        assert!(report.classify.p50_us > 0.0);
        assert!(report.classify.p999_us >= report.classify.p99_us);
        assert!(report.classify.p99_us >= report.classify.p50_us);
        assert!(report.trace.traced_p50_us > 0.0);
        assert!(report.trace.p99_overhead_ratio > 0.0);
        assert!(
            report.trace.kept_traces > 0,
            "400 traced requests at 1/{} head sampling keep something",
            report.trace.head_every
        );
        assert!(report.shed.rejected > 0);
        assert!(report.shed.rejected <= report.shed.attempts);
        assert_eq!(report.drain.drains, 25);
        assert!(report.drain.background_requests > 0);
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: EdgeBenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.classify.requests, report.classify.requests);
        assert_eq!(back.drain.drains, report.drain.drains);
        assert!(!report.render().is_empty());
    }

    #[test]
    fn quantiles_pick_sane_points() {
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile_us(&sorted, 0.0), 1.0);
        assert_eq!(quantile_us(&sorted, 0.5), 501.0);
        assert_eq!(quantile_us(&sorted, 1.0), 1000.0);
        assert_eq!(quantile_us(&[], 0.5), 0.0);
    }
}
