//! Load generator for the online serving layer.
//!
//! Replays a synthetic scenario's event stream into a `frappe-serve`
//! instance from a dedicated ingest thread while query threads hammer
//! `classify`, then prints the run summary and the service's own metrics
//! snapshot as JSON.
//!
//! ```text
//! cargo run --release -p frappe-bench --bin loadgen -- \
//!     [--shards N] [--workers N] [--query-threads N] [--queries N] [--paper-scale] \
//!     [--linear] [--profile] [--metrics-out PATH] [--trace-out PATH] \
//!     [--swap-every N] [--shard-groups K] [--connect ADDR|self] [--rate N] [--seed N]
//! ```
//!
//! Verdicts are exact kernel sums on the engine CPU detection picks;
//! `FRAPPE_SIMD=0` pins the portable scalar engine. The banner discloses
//! what actually dispatched (see `frappe::scoring`).
//!
//! `--shard-groups K` deploys the serving layer as K shared-nothing
//! shard groups behind a hashing `ShardRouter` instead of one
//! `FrappeService` — in both in-process and `--connect self` modes.
//! Ingest then goes through bounded per-group mailboxes (loadgen honours
//! the reject-with-retry-after contract), the exit metrics are the
//! merged whole-deployment scrape, and `--swap-every` exercises the
//! shared control plane's globally atomic hot swap. The audit log is a
//! single-service feature and is skipped when sharded.
//!
//! On exit the run always prints the service registry as Prometheus text;
//! `--metrics-out` additionally dumps it as JSONL, `--profile` enables the
//! span profiler and prints the per-stage table, and `--linear` swaps the
//! RBF kernel for a linear one so every fresh verdict lands in the audit
//! log with per-feature contributions. `--swap-every N` hot-swaps the
//! live model every N queries (alternating the full-batch model with one
//! trained on half the data, each at a fresh version), exercising the
//! lifecycle layer's epoch-pointer swap under full query load.
//! `--trace-out PATH` attaches a request-trace collector (default head
//! sampling plus tail keeps) and dumps the kept traces as JSONL on exit;
//! against an external edge it fetches `GET /v1/traces` instead.
//!
//! `--connect` switches to **socket mode**: instead of calling the
//! service in-process, loadgen drives a `frappe-net` edge over real TCP
//! connections — NDJSON event ingest through `POST /v1/events`, then an
//! open-loop classify workload with seeded exponential inter-arrival
//! times (`--rate` requests/s across `--query-threads` connections,
//! `--seed` for the arrival RNG), reporting p50/p99/p999 latency and the
//! `429` shed rate. `--connect self` hosts the edge in-process on an
//! ephemeral loopback port; any other value is dialled as `host:port`.

use std::collections::BTreeSet;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use frappe::{FeatureSet, FrappeModel};
use frappe_bench::edgebench::quantile_us;
use frappe_bench::lab::{Archive, Lab};
use frappe_net::client::Client;
use frappe_net::{NetConfig, Server};
use frappe_obs::{AuditLog, TraceCollector, TraceConfig};
use frappe_serve::{
    serve_events, Deployment, FrappeService, ServeConfig, ServeError, ServeEvent, ShardConfig,
    ShardRouter,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use svm::{Kernel, SvmParams};

struct Options {
    shards: usize,
    workers: usize,
    query_threads: usize,
    queries: usize,
    paper_scale: bool,
    linear: bool,
    profile: bool,
    metrics_out: Option<String>,
    trace_out: Option<String>,
    swap_every: Option<usize>,
    shard_groups: Option<usize>,
    connect: Option<String>,
    rate: f64,
    seed: u64,
}

fn parse_options() -> Options {
    let mut opts = Options {
        shards: 4,
        workers: 2,
        query_threads: 4,
        queries: 20_000,
        paper_scale: false,
        linear: false,
        profile: false,
        metrics_out: None,
        trace_out: None,
        swap_every: None,
        shard_groups: None,
        connect: None,
        rate: 2000.0,
        seed: 7,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut numeric = |name: &str| -> usize {
            args.next()
                .and_then(|v| v.parse().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| {
                    eprintln!("{name} needs a positive number");
                    std::process::exit(2);
                })
        };
        match arg.as_str() {
            "--shards" => opts.shards = numeric("--shards"),
            "--workers" => opts.workers = numeric("--workers"),
            "--query-threads" => opts.query_threads = numeric("--query-threads"),
            "--queries" => opts.queries = numeric("--queries"),
            "--swap-every" => opts.swap_every = Some(numeric("--swap-every")),
            "--shard-groups" => opts.shard_groups = Some(numeric("--shard-groups")),
            "--seed" => opts.seed = numeric("--seed") as u64,
            "--rate" => {
                opts.rate = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&r: &f64| r > 0.0)
                    .unwrap_or_else(|| {
                        eprintln!("--rate needs a positive number of requests/s");
                        std::process::exit(2);
                    });
            }
            "--connect" => {
                opts.connect = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--connect needs an address (host:port) or `self`");
                    std::process::exit(2);
                }));
            }
            "--paper-scale" => opts.paper_scale = true,
            "--linear" => opts.linear = true,
            "--profile" => opts.profile = true,
            "--metrics-out" => {
                opts.metrics_out = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--metrics-out needs a path");
                    std::process::exit(2);
                }));
            }
            "--trace-out" => {
                opts.trace_out = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--trace-out needs a path");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: loadgen [--shards N] [--workers N] [--query-threads N] \
                     [--queries N] [--paper-scale] [--linear] [--profile] \
                     [--metrics-out PATH] [--trace-out PATH] [--swap-every N] \
                     [--shard-groups K] [--connect ADDR|self] [--rate N] [--seed N]"
                );
                std::process::exit(2);
            }
        }
    }
    opts
}

/// Per-group serving knobs from the CLI (the whole config under one
/// service; each group's copy under `--shard-groups`).
fn serve_config(opts: &Options) -> ServeConfig {
    ServeConfig {
        shards: opts.shards,
        workers: opts.workers,
        ..ServeConfig::default()
    }
}

/// Builds the serving deployment the options ask for: one
/// `FrappeService`, or K shared-nothing shard groups behind the hashing
/// router. The audit log is a single-service hook, so it only attaches
/// to the unsharded shape.
fn build_backend(
    opts: &Options,
    model: FrappeModel,
    lab: &Lab,
    audit: Option<&Arc<AuditLog>>,
) -> Deployment {
    match opts.shard_groups {
        Some(groups) => Deployment::Router(Arc::new(ShardRouter::new(
            model,
            lab.known_malicious_names(),
            lab.world.shortener.clone(),
            ShardConfig {
                groups,
                mailbox_capacity: 4096,
                group: serve_config(opts),
            },
        ))),
        None => {
            let service = Arc::new(FrappeService::new(
                model,
                lab.known_malicious_names(),
                lab.world.shortener.clone(),
                serve_config(opts),
            ));
            if let Some(audit) = audit {
                service.set_audit_log(Arc::clone(audit));
            }
            Deployment::Service(service)
        }
    }
}

/// Forwards one event into the deployment, honouring the backpressure
/// contract: a full group mailbox answers `Overloaded` with a retry
/// hint (a single service never rejects ingest).
fn ingest_backend(service: &Deployment, event: &ServeEvent) {
    loop {
        match service.ingest(event) {
            Ok(()) => return,
            Err(ServeError::Overloaded { retry_after_ms }) => {
                std::thread::sleep(Duration::from_millis(retry_after_ms));
            }
            Err(err) => panic!("ingest failed: {err}"),
        }
    }
}

/// Socket mode: ingest the scenario's events over `POST /v1/events`,
/// then run an open-loop classify workload with seeded exponential
/// inter-arrival times against a real `frappe-net` edge.
fn run_connect(opts: &Options, target: &str) {
    let lab = if opts.paper_scale {
        Lab::paper_scale()
    } else {
        Lab::small()
    };
    let events = serve_events(&lab.world);

    // `self` hosts the edge in-process (full stack: model training,
    // service, epoll loop); anything else is dialled as host:port and
    // only needs the event stream.
    let hosted: Option<(Server, Deployment)> = if target == "self" {
        let (samples, labels) = lab.labelled_features(
            &lab.bundle.d_sample.malicious,
            &lab.bundle.d_sample.benign,
            Archive::Extended,
        );
        let model = FrappeModel::train(&samples, &labels, FeatureSet::Full, None);
        let service = build_backend(opts, model, &lab, None);
        if opts.trace_out.is_some() {
            // Before bind, so the edge mints the trace at the socket.
            service.set_trace_collector(TraceCollector::new(TraceConfig::default()));
        }
        let server = Server::bind(service.clone(), "127.0.0.1:0", NetConfig::default())
            .expect("bind the edge on loopback");
        Some((server, service))
    } else {
        None
    };
    let addr: SocketAddr = match &hosted {
        Some((server, _)) => server.local_addr(),
        None => target
            .to_socket_addrs()
            .ok()
            .and_then(|mut addrs| addrs.next())
            .unwrap_or_else(|| {
                eprintln!("--connect: cannot resolve {target:?} (expected host:port or `self`)");
                std::process::exit(2);
            }),
    };
    println!(
        "connect mode: edge at {addr} ({}), {} events to ingest",
        if hosted.is_some() {
            "self-hosted"
        } else {
            "external"
        },
        events.len()
    );

    // Ingest over the socket in NDJSON batches.
    let mut feeder = Client::connect(addr).expect("connect ingest client");
    let t = Instant::now();
    for chunk in events.chunks(400) {
        let body = chunk
            .iter()
            .map(|e| serde_json::to_string(e).expect("events serialize"))
            .collect::<Vec<_>>()
            .join("\n");
        let response = feeder.post("/v1/events", &body).expect("ingest batch");
        assert_eq!(
            response.status, 202,
            "ingest must be accepted: {}",
            response.body
        );
    }
    let ingest_wall = t.elapsed().as_secs_f64();
    println!(
        "ingested {} events in {:.2}s ({:.0} events/s over the socket)",
        events.len(),
        ingest_wall,
        events.len() as f64 / ingest_wall.max(1e-9)
    );

    // Candidate apps: everything the stream mentioned minus deletions,
    // then a one-request probe keeps only the classifiable ones (the
    // probe doubles as a cache warm-up).
    let mut seen: BTreeSet<u64> = BTreeSet::new();
    for event in &events {
        match event {
            ServeEvent::Registered { app, .. }
            | ServeEvent::Post { app, .. }
            | ServeEvent::OnDemand { app, .. } => {
                seen.insert(app.raw());
            }
            ServeEvent::Deleted { app } => {
                seen.remove(&app.raw());
            }
        }
    }
    let mut apps: Vec<u64> = Vec::new();
    for app in seen {
        let probe = feeder
            .get(&format!("/v1/classify/{app}"))
            .expect("probe classify");
        if probe.status == 200 {
            apps.push(app);
        }
    }
    assert!(!apps.is_empty(), "no classifiable apps behind {addr}");
    println!("{} classifiable apps behind the edge", apps.len());

    // Open loop: each connection schedules arrivals on its own seeded
    // exponential clock at rate/threads, so the offered load is `--rate`
    // regardless of how fast the edge answers.
    let threads = opts.query_threads;
    let per_conn = (opts.queries / threads).max(1);
    let per_conn_rate = opts.rate / threads as f64;
    let issued = threads * per_conn;
    println!(
        "offering {:.0} req/s across {threads} connections ({issued} requests, seed {})...",
        opts.rate, opts.seed
    );
    let t = Instant::now();
    let mut latencies: Vec<u64> = Vec::with_capacity(issued);
    let mut responses_429 = 0usize;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for tid in 0..threads {
            let apps = &apps;
            let seed = opts.seed;
            handles.push(scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(seed ^ (tid as u64).wrapping_mul(0x9e37));
                let mut client = Client::connect(addr).expect("connect query client");
                let start = Instant::now();
                let mut due_s = 0.0f64;
                let mut lat = Vec::with_capacity(per_conn);
                let mut shed = 0usize;
                for i in 0..per_conn {
                    let u: f64 = rng.gen();
                    due_s += -(1.0 - u).ln() / per_conn_rate;
                    let due = Duration::from_secs_f64(due_s);
                    let elapsed = start.elapsed();
                    if due > elapsed {
                        std::thread::sleep(due - elapsed);
                    }
                    let app = apps[(tid + i * threads) % apps.len()];
                    let t = Instant::now();
                    let response = client
                        .get(&format!("/v1/classify/{app}"))
                        .expect("classify over the socket");
                    match response.status {
                        200 => lat.push(t.elapsed().as_micros() as u64),
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
    println!(
        "\ndone: {issued} requests in {wall:.2}s ({:.0} req/s achieved vs {:.0} offered)",
        issued as f64 / wall.max(1e-9),
        opts.rate
    );
    println!(
        "latency: p50 {:.0} us, p99 {:.0} us, p999 {:.0} us over {} answered; \
         {responses_429} x 429 ({:.4} shed rate)",
        quantile_us(&latencies, 0.50),
        quantile_us(&latencies, 0.99),
        quantile_us(&latencies, 0.999),
        latencies.len(),
        responses_429 as f64 / issued.max(1) as f64,
    );

    if let Some(path) = &opts.trace_out {
        // Self-hosted: read the collector directly. External edge: ask
        // it for its export over the socket.
        let jsonl = match &hosted {
            Some((_, service)) => service
                .trace_collector()
                .map(|tc| tc.export_jsonl())
                .unwrap_or_default(),
            None => {
                let mut client = Client::connect(addr).expect("connect trace reader");
                match client.get("/v1/traces") {
                    Ok(response) if response.status == 200 => response.body,
                    Ok(response) => {
                        eprintln!(
                            "edge answered {} for /v1/traces (tracing disabled?)",
                            response.status
                        );
                        String::new()
                    }
                    Err(e) => {
                        eprintln!("could not fetch /v1/traces: {e}");
                        String::new()
                    }
                }
            }
        };
        match std::fs::write(path, &jsonl) {
            Ok(()) => eprintln!(
                "wrote {} kept traces to {path}",
                jsonl.lines().filter(|l| !l.is_empty()).count()
            ),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }

    if let Some((_, service)) = &hosted {
        // The self-hosted edge registers its net_* metrics on the
        // deployment's base registry, so they ride along in the merged
        // whole-deployment exposition.
        println!(
            "\nprometheus:\n{}",
            service.exposition().to_prometheus_text()
        );
    }
}

fn main() {
    let opts = parse_options();
    if opts.profile {
        frappe_obs::set_spans_enabled(true);
    }
    if let Some(target) = opts.connect.clone() {
        run_connect(&opts, &target);
        return;
    }
    println!(
        "loadgen: shards={} workers={} query-threads={} queries={} scenario={} kernel={} groups={} scoring={}",
        opts.shards,
        opts.workers,
        opts.query_threads,
        opts.queries,
        if opts.paper_scale { "paper" } else { "small" },
        if opts.linear { "linear" } else { "rbf" },
        opts.shard_groups.unwrap_or(1),
        frappe::scoring::describe(),
    );

    let lab = if opts.paper_scale {
        Lab::paper_scale()
    } else {
        Lab::small()
    };
    let (samples, labels) = lab.labelled_features(
        &lab.bundle.d_sample.malicious,
        &lab.bundle.d_sample.benign,
        Archive::Extended,
    );
    let params = opts
        .linear
        .then(|| SvmParams::with_kernel(Kernel::linear()));
    let model = FrappeModel::train(&samples, &labels, FeatureSet::Full, params);
    // Under --swap-every, alternate the live model with a sibling trained
    // on every other labelled row — distinct enough that swaps matter,
    // close enough that verdict quality stays sane mid-run.
    let swap_models = opts.swap_every.map(|_| {
        let half_samples: Vec<_> = samples.iter().step_by(2).cloned().collect();
        let half_labels: Vec<bool> = labels.iter().step_by(2).copied().collect();
        let half = FrappeModel::train(&half_samples, &half_labels, FeatureSet::Full, params);
        [Arc::new(model.clone()), Arc::new(half)]
    });
    let events = serve_events(&lab.world);
    println!(
        "world ready: {} events, {} labelled apps, {} support vectors",
        events.len(),
        samples.len(),
        model.support_vector_count()
    );

    // With a linear kernel every fresh verdict is explainable; the log
    // stays empty under RBF (explain() returns None) but costs nothing.
    let audit = Arc::new(AuditLog::default());
    let service = build_backend(&opts, model, &lab, Some(&audit));
    if opts.trace_out.is_some() {
        service.set_trace_collector(TraceCollector::new(TraceConfig::default()));
    }

    // prime the store with one full replay so every app is classifiable
    // (flushing the group mailboxes when sharded), then keep the ingest
    // thread replaying for the whole measurement
    for event in &events {
        ingest_backend(&service, event);
    }
    service.flush();
    let apps = Arc::new(service.tracked_apps());

    let stop = Arc::new(AtomicBool::new(false));
    let ingester = {
        let service = service.clone();
        let events = events.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut replayed = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for event in &events {
                    ingest_backend(&service, event);
                    replayed += 1;
                }
            }
            replayed
        })
    };

    let issued = Arc::new(AtomicUsize::new(0));
    let flagged = Arc::new(AtomicU64::new(0));
    let retries = Arc::new(AtomicU64::new(0));
    let swap_version = Arc::new(AtomicU64::new(1));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..opts.query_threads {
            let service = service.clone();
            let apps = Arc::clone(&apps);
            let issued = Arc::clone(&issued);
            let flagged = Arc::clone(&flagged);
            let retries = Arc::clone(&retries);
            let swap_models = swap_models.clone();
            let swap_version = Arc::clone(&swap_version);
            scope.spawn(move || loop {
                let i = issued.fetch_add(1, Ordering::Relaxed);
                if i >= opts.queries {
                    break;
                }
                if let (Some(every), Some(models)) = (opts.swap_every, &swap_models) {
                    // Whichever query thread lands on the boundary swaps;
                    // the version counter keeps epochs strictly increasing.
                    if i > 0 && i.is_multiple_of(every) {
                        let v = swap_version.fetch_add(1, Ordering::Relaxed) + 1;
                        service.swap_model(Arc::clone(&models[(v % 2) as usize]), v);
                    }
                }
                let app = apps[i % apps.len()];
                loop {
                    match service.classify(app) {
                        Ok(verdict) => {
                            if verdict.malicious {
                                flagged.fetch_add(1, Ordering::Relaxed);
                            }
                            break;
                        }
                        Err(ServeError::Overloaded { retry_after_ms }) => {
                            // honour the service's backpressure contract
                            retries.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(Duration::from_millis(retry_after_ms));
                        }
                        Err(err) => panic!("query failed: {err}"),
                    }
                }
            });
        }
    });
    let elapsed = start.elapsed();
    stop.store(true, Ordering::Relaxed);
    let replayed = ingester.join().expect("ingester joins");

    let qps = opts.queries as f64 / elapsed.as_secs_f64();
    let eps = replayed as f64 / elapsed.as_secs_f64();
    println!(
        "\ndone: {} queries in {:.2?} ({qps:.0} q/s) against {:.0} events/s concurrent ingest",
        opts.queries, elapsed, eps
    );
    println!(
        "verdicts: {} malicious, {} retries after backpressure",
        flagged.load(Ordering::Relaxed),
        retries.load(Ordering::Relaxed)
    );
    if opts.swap_every.is_some() {
        let m = service.metrics();
        println!(
            "hot swaps under load: {} (serving model version {})",
            m.model_swaps, m.model_version
        );
    }
    println!(
        "\nmetrics: {}",
        serde_json::to_string_pretty(&service.metrics()).expect("metrics serialize")
    );

    // The merged exposition refreshes the depth gauges and, when
    // sharded, folds every group's registry into one scrape.
    let registry = service.exposition();
    if let Some(path) = &opts.metrics_out {
        match std::fs::write(path, registry.to_jsonl()) {
            Ok(()) => eprintln!("wrote metrics JSONL to {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
    if let Some(path) = &opts.trace_out {
        if let Some(collector) = service.trace_collector() {
            let stats = collector.stats();
            match std::fs::write(path, collector.export_jsonl()) {
                Ok(()) => eprintln!(
                    "wrote trace JSONL to {path} ({} started, {} kept: {} head + {} tail)",
                    stats.started, stats.kept, stats.head_kept, stats.tail_kept
                ),
                Err(e) => eprintln!("could not write {path}: {e}"),
            }
        }
    }
    println!("\nprometheus:\n{}", registry.to_prometheus_text());

    let records = audit.snapshot();
    if opts.shard_groups.is_some() {
        println!("audit: skipped (the audit log is a single-service hook)");
    } else if records.is_empty() {
        println!("audit: no records (run with --linear for per-feature contributions)");
    } else {
        let consistent = records.iter().all(|r| r.is_consistent(1e-6));
        println!(
            "audit: {} records (contribution sums match decision values: {consistent}), first 3:",
            records.len()
        );
        for record in records.iter().take(3) {
            println!(
                "{}",
                serde_json::to_string(record).expect("audit record serializes")
            );
        }
    }

    if opts.profile {
        println!(
            "\nper-stage profile:\n{}",
            frappe_obs::Profiler::global().snapshot().render()
        );
    }
}
