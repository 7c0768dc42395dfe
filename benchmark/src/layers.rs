//! Per-layer metrics of a traced run.
//!
//! Every number is taken from outside the program: spans the existing
//! trace collector recorded during the window (self time = a span's
//! duration minus the part of it its child spans cover), counter deltas
//! and sampled depths, and a probe after the window that times calls
//! into each layer's public functions on a fresh, idle deployment.
//!
//! Where the window has no spans of a kind (`catalog_refresh` has no
//! edge), the span metrics come from the probe's traced edge instead.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use frappe_lifecycle::SwapFence;
use frappe_net::http::{Limits, RequestParser};
use frappe_obs::{CompletedSpan, CompletedTrace, TraceCollector};
use frappe_serve::cache::VerdictCache;
use frappe_serve::{FeatureStore, ServeEvent, Verdict};
use osn_types::ids::AppId;

use crate::client::{classify_request, ingest_request, BlockingClient};
use crate::deploy::{stand_up, trace_collector, Backend, Deployment, Shape};
use crate::inputs::{retrain, Inputs};
use crate::report::{put, Metrics};
use crate::schedule::{self, Planned};
use crate::stats::{median, Histogram};

/// Counters the program keeps, read before and after the window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    queries: u64,
    batches: u64,
    hits: u64,
    misses: u64,
    stale_epoch: u64,
    responses_429: u64,
    read_stalls: u64,
}

impl Counters {
    /// Reads the deployment's counters now.
    pub fn read(backend: &Backend) -> Counters {
        let m = backend.metrics();
        Counters {
            queries: m.queries_served,
            batches: m.batches_scored,
            hits: m.cache_hits,
            misses: m.cache_misses,
            stale_epoch: backend.counter("serve_stale_epoch_rescores"),
            responses_429: backend.counter("net_http_429"),
            read_stalls: backend.counter("net_read_stalls"),
        }
    }
}

/// What the window recorded for the per-layer table.
pub struct WindowObservations {
    /// Traces the collector kept (socket workloads: by the end of the
    /// base step).
    pub traces: Vec<CompletedTrace>,
    /// Fenced swaps in the window (drain + swap + resume), µs.
    pub fences_us: Vec<f64>,
    /// Largest sampled scoring-queue depth.
    pub queue_depth_max: usize,
    /// Largest sampled router mailbox depth.
    pub mailbox_depth_max: usize,
    /// Counters when the window opened.
    pub before: Counters,
    /// Counters when it closed.
    pub after: Counters,
}

/// Span durations and self times, by kind.
#[derive(Default)]
pub struct SpanStats {
    /// `edge/request` minus the part its children cover, classify 200s.
    pub request_self: Histogram,
    /// `edge/write`.
    pub write: Histogram,
    /// `serve/queue`.
    pub queue_wait: Histogram,
    /// `serve/model_eval`.
    pub model_eval: Histogram,
}

fn duration_ns(span: &CompletedSpan) -> u64 {
    span.end_us.saturating_sub(span.start_us) * 1_000
}

/// The part of `[start, end]` (µs) covered by the union of `children`.
pub fn covered_us(start: u64, end: u64, children: &[&CompletedSpan]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_us.max(start), c.end_us.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, start);
    for (s, e) in intervals {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Collects span statistics from kept traces.
pub fn span_stats(traces: &[CompletedTrace]) -> SpanStats {
    let mut stats = SpanStats::default();
    for trace in traces {
        for span in &trace.spans {
            match span.name.as_str() {
                "serve/queue" => stats.queue_wait.record(duration_ns(span)),
                "serve/model_eval" => stats.model_eval.record(duration_ns(span)),
                "edge/write" => stats.write.record(duration_ns(span)),
                _ => {}
            }
        }
        let is_classify = trace
            .events
            .iter()
            .any(|e| e.name == "http_request" && e.detail.starts_with("GET /v1/classify/"));
        if trace.kind != "edge" || trace.outcome != "200" || !is_classify {
            continue;
        }
        if let Some(root) = trace.span("edge/request") {
            let children: Vec<&CompletedSpan> = trace
                .spans
                .iter()
                .filter(|s| s.parent == Some(root.id))
                .collect();
            let covered = covered_us(root.start_us, root.end_us, &children);
            stats
                .request_self
                .record((root.end_us - root.start_us - covered) * 1_000);
        }
    }
    stats
}

/// Mean nanoseconds per call of `f` over `0..n`.
fn per_call_ns<T>(n: usize, mut f: impl FnMut(usize) -> T) -> f64 {
    let started = Instant::now();
    for i in 0..n {
        black_box(f(black_box(i)));
    }
    started.elapsed().as_nanos() as f64 / n.max(1) as f64
}

fn time_us(f: impl FnOnce()) -> f64 {
    let started = Instant::now();
    f();
    started.elapsed().as_secs_f64() * 1e6
}

/// Classifies every app once (warming the cache), then `passes` more
/// times, recording each call.
fn warm_classify(backend: &Backend, apps: &[AppId], passes: usize) -> Histogram {
    for &app in apps {
        let _ = backend.classify(app);
    }
    let mut latency = Histogram::default();
    for _ in 0..passes {
        for &app in apps {
            let started = Instant::now();
            let _ = black_box(backend.classify(app));
            latency.record(started.elapsed().as_nanos() as u64);
        }
    }
    latency
}

fn p50(h: &Histogram) -> f64 {
    h.quantile_us(0.5).unwrap_or(f64::NAN)
}

fn p99(h: &Histogram) -> f64 {
    h.quantile_us(0.99).unwrap_or(f64::NAN)
}

/// Round trips against idle edges, one request at a time, alternating an
/// untraced and a traced edge so drift cancels: `(untraced, traced)`.
fn idle_round_trips(
    untraced: &Deployment,
    traced: &Deployment,
    apps: &[AppId],
) -> (Histogram, Histogram) {
    let addr = |d: &Deployment| {
        d.server
            .as_ref()
            .expect("probe edges are bound")
            .local_addr()
    };
    let (Ok(mut plain), Ok(mut tracing)) = (
        BlockingClient::connect(addr(untraced)),
        BlockingClient::connect(addr(traced)),
    ) else {
        return (Histogram::default(), Histogram::default());
    };
    let (mut a, mut b) = (Histogram::default(), Histogram::default());
    for pass in 0..2 {
        for &app in apps {
            for (client, latency) in [(&mut plain, &mut a), (&mut tracing, &mut b)] {
                let started = Instant::now();
                let ok = client.classify(app.raw()).is_ok();
                // the first pass warms both caches
                if pass == 1 && ok {
                    latency.record(started.elapsed().as_nanos() as u64);
                }
            }
        }
    }
    (a, b)
}

/// The per-layer table of a traced run.
pub fn measure(
    inputs: &Inputs,
    plan: &[Planned],
    bodies: &[String],
    window: &WindowObservations,
) -> Metrics {
    let mut m = Metrics::new();
    let events = &inputs.events;
    let tail = &events[inputs.half..];
    let apps = inputs.reference.tracked_apps();

    // serve.store and svm on a bench-owned store
    let store = FeatureStore::new(4);
    for event in &events[..inputs.half] {
        store.apply(event, &inputs.shortener);
    }
    put(
        &mut m,
        "serve.store_apply_ns",
        per_call_ns(tail.len(), |i| store.apply(&tail[i], &inputs.shortener)),
    );
    put(
        &mut m,
        "serve.store_snapshot_ns",
        per_call_ns(apps.len(), |i| store.snapshot(apps[i], &inputs.known)),
    );
    let rows: Vec<_> = apps
        .iter()
        .filter_map(|&a| store.snapshot(a, &inputs.known).map(|s| s.features))
        .collect();
    let model = &inputs.model_full.model;
    put(
        &mut m,
        "svm.decision_value_ns",
        per_call_ns(rows.len(), |i| model.decision_value(&rows[i])),
    );

    // net: parsing the workload's request bytes, decoding its NDJSON
    let mut requests: Vec<String> = plan
        .iter()
        .take(4096)
        .map(|p| classify_request(p.app))
        .collect();
    requests.extend(bodies.iter().take(64).map(|b| ingest_request(b)));
    let mut parser = RequestParser::new(Limits {
        max_head_bytes: 8 * 1024,
        max_body_bytes: 1024 * 1024,
    });
    put(
        &mut m,
        "net.http_parse_ns",
        per_call_ns(requests.len(), |i| {
            parser.push(requests[i].as_bytes());
            parser.next_request()
        }),
    );
    let lines: Vec<String> = tail
        .iter()
        .take(20_000)
        .map(|e| serde_json::to_string(e).expect("events serialize"))
        .collect();
    put(
        &mut m,
        "net.ndjson_decode_ns",
        per_call_ns(lines.len(), |i| {
            serde_json::from_str::<ServeEvent>(&lines[i])
        }),
    );

    // serve.cache on a bench-owned cache
    let cache = VerdictCache::new(4);
    for &app in &apps {
        let verdict = Verdict {
            app,
            malicious: false,
            decision_value: 0.0,
            generation: 1,
            model_version: 1,
        };
        cache.put(app, verdict, 1, 0, 0);
    }
    let cache_lookup_ns = per_call_ns(apps.len(), |i| cache.lookup(apps[i], 1, 0, 0));
    put(&mut m, "serve.cache_lookup_ns", cache_lookup_ns);

    // probe deployments: a service behind an untraced and a traced edge,
    // and a router
    let probe = |trace: Option<TraceCollector>| {
        stand_up(Shape::Service, inputs, events, true, trace).expect("probe edge stands up")
    };
    let untraced = probe(None);
    let collector = trace_collector();
    let traced = probe(Some(collector.clone()));

    let inproc = warm_classify(&untraced.backend, &apps, 2);
    let inproc_p50 = p50(&inproc);
    put(&mut m, "serve.classify_inproc_us.p50", inproc_p50);
    put(&mut m, "serve.classify_inproc_us.p99", p99(&inproc));
    put(
        &mut m,
        "serve.pool_hop_us",
        inproc_p50 - cache_lookup_ns / 1e3,
    );

    let sample = schedule::sample(0x5eed, &apps, 500);
    let (plain_rtt, traced_rtt) = idle_round_trips(&untraced, &traced, &sample);
    put(&mut m, "net.edge_self_us", p50(&plain_rtt) - inproc_p50);
    put(
        &mut m,
        "obs.trace_overhead_us",
        p50(&traced_rtt) - p50(&plain_rtt),
    );

    let router =
        stand_up(Shape::Router, inputs, &events[..inputs.half], false, None).expect("probe router");
    let started = Instant::now();
    for event in tail {
        router.backend.ingest(event);
    }
    router.backend.flush();
    put(
        &mut m,
        "serve.router_ingest_ns",
        started.elapsed().as_nanos() as f64 / tail.len().max(1) as f64,
    );
    let routed = warm_classify(&router.backend, &apps, 1);
    put(&mut m, "serve.router_hop_us", p50(&routed) - inproc_p50);
    drop(router);

    // lifecycle
    let retrains: Vec<f64> = (0..3)
        .map(|_| time_us(|| drop(retrain(&inputs.full))) / 1e3)
        .collect();
    put(&mut m, "lifecycle.retrain_ms", median(&retrains));
    let models = [
        Arc::new(inputs.model_half.model.clone()),
        Arc::new(inputs.model_full.model.clone()),
    ];
    let swaps: Vec<f64> = (0..20u64)
        .map(|k| {
            time_us(|| {
                untraced
                    .backend
                    .swap_model(Arc::clone(&models[k as usize % 2]), k + 2)
            })
        })
        .collect();
    put(&mut m, "lifecycle.swap_us", median(&swaps));
    let fences = if window.fences_us.is_empty() {
        let edge = untraced.server.as_ref().expect("probe edge").handle();
        (0..10u64)
            .map(|k| {
                time_us(|| {
                    edge.fenced(&mut || {
                        untraced
                            .backend
                            .swap_model(Arc::clone(&models[k as usize % 2]), k + 22)
                    })
                })
            })
            .collect()
    } else {
        window.fences_us.clone()
    };
    put(&mut m, "lifecycle.fenced_swap_us.p50", median(&fences));
    put(
        &mut m,
        "lifecycle.fenced_swap_us.max",
        fences.iter().copied().fold(f64::NAN, f64::max),
    );

    // spans: the window's, else the probe's traced edge
    let from_window = span_stats(&window.traces);
    let from_probe = span_stats(&collector.snapshot());
    let pick = |f: fn(&SpanStats) -> &Histogram| {
        if f(&from_window).count() > 0 {
            f(&from_window).clone()
        } else {
            f(&from_probe).clone()
        }
    };
    let request_self = pick(|s| &s.request_self);
    put(&mut m, "net.request_self_us.p50", p50(&request_self));
    put(&mut m, "net.request_self_us.p99", p99(&request_self));
    put(&mut m, "net.write_us.p50", p50(&pick(|s| &s.write)));
    let queue = pick(|s| &s.queue_wait);
    put(&mut m, "serve.queue_wait_us.p50", p50(&queue));
    put(&mut m, "serve.queue_wait_us.p99", p99(&queue));
    put(
        &mut m,
        "svm.model_eval_us.p50",
        p50(&pick(|s| &s.model_eval)),
    );
    drop(traced);
    drop(untraced);

    // counters and samples of the window
    let (b, a) = (window.before, window.after);
    put(
        &mut m,
        "net.responses_429",
        (a.responses_429 - b.responses_429) as f64,
    );
    put(
        &mut m,
        "net.read_stalls",
        (a.read_stalls - b.read_stalls) as f64,
    );
    put(
        &mut m,
        "serve.queue_depth_max",
        window.queue_depth_max as f64,
    );
    put(
        &mut m,
        "serve.mailbox_depth_max",
        window.mailbox_depth_max as f64,
    );
    put(
        &mut m,
        "serve.stale_epoch_rescores",
        (a.stale_epoch - b.stale_epoch) as f64,
    );
    let (queries, batches) = (a.queries - b.queries, a.batches - b.batches);
    put(
        &mut m,
        "serve.mean_batch_size",
        queries as f64 / batches.max(1) as f64,
    );
    let (hits, misses) = (a.hits - b.hits, a.misses - b.misses);
    put(
        &mut m,
        "serve.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    m
}
