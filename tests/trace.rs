//! End-to-end request tracing over real sockets (`frappe-net` +
//! `frappe-serve` + `frappe-lifecycle` + the `frappe-obs` collector):
//!
//! * a classify shed with `429` is **always** tail-sampled — even with
//!   head sampling disabled — and its exported trace carries causally
//!   ordered spans from socket accept to response write;
//! * a request in flight across a fenced promote is flagged
//!   `in_flight_swap` and kept, with the serve-side spans parented under
//!   the edge's request span and the `lifecycle/promote` event recorded
//!   on the trace it straddled;
//! * `/v1/traces` (JSONL) and `/v1/traces/chrome` serve the collector's
//!   export, and answer `404` when tracing is not attached;
//! * verdict bodies over the socket are **byte-identical** with tracing
//!   on (keep-everything sampling) and off — observation never perturbs
//!   the result.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use frappe::features::aggregation::{AggregationFeatures, KnownMaliciousNames};
use frappe::{AppFeatures, FeatureSet, FrappeModel, OnDemandFeatures};
use frappe_lifecycle::{
    DriftConfig, DriftDetector, LifecycleManager, ModelSource, PromotionGate, PromotionOutcome,
};
use frappe_net::client::Client;
use frappe_net::{NetConfig, Server};
use frappe_obs::{CompletedTrace, TraceCollector, TraceConfig, TraceFlag};
use frappe_serve::{FrappeService, ServeConfig, ServeEvent, ShardConfig, ShardRouter};
use osn_types::ids::AppId;
use url_services::shortener::Shortener;

#[path = "support/hold.rs"]
mod hold;
use hold::Held;

// ---------------------------------------------------------------- fixtures

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

fn tiny_model() -> FrappeModel {
    let (benign, malicious) = prototypes();
    let samples: Vec<AppFeatures> = (0..4).flat_map(|_| [benign, malicious]).collect();
    let labels: Vec<bool> = (0..4).flat_map(|_| [false, true]).collect();
    FrappeModel::train(&samples, &labels, FeatureSet::Full, None)
}

fn feed_app(service: &FrappeService, app: AppId, shady: bool, posts: usize) {
    let name = if shady {
        "Profile Viewer".to_string()
    } else {
        format!("wholesome game {}", app.raw())
    };
    service.ingest(&ServeEvent::Registered { app, name });
    let (benign, malicious) = prototypes();
    let features = if shady {
        malicious.on_demand
    } else {
        benign.on_demand
    };
    service.ingest(&ServeEvent::OnDemand { app, features });
    for _ in 0..posts {
        let link = if shady {
            Some(osn_types::url::Url::parse("http://scam.example/x").unwrap())
        } else {
            Some(osn_types::url::Url::parse("http://fine.example/y").unwrap())
        };
        service.ingest(&ServeEvent::Post { app, link });
    }
}

/// Tail-only collector: head sampling and the slow-keep both off, so a
/// trace survives only if a tail flag kept it.
fn tail_only_collector() -> TraceCollector {
    TraceCollector::new(TraceConfig {
        head_every: 0,
        slow_us: 0,
        ..TraceConfig::default()
    })
}

/// Returns once the hammer threads answer one more request, so a
/// promote lands among live traffic: the loop that promotes scores on
/// its own thread and can otherwise outrun the hammers' connects.
fn await_traffic(served: &AtomicUsize) {
    let seen = served.load(Ordering::Relaxed);
    while served.load(Ordering::Relaxed) == seen {
        std::thread::yield_now();
    }
}

/// `GET path` over `client`, as `(status, body)`.
fn get(client: &mut Client, path: &str) -> (u16, String) {
    let response = client.get(path).expect("GET over the socket");
    (response.status, response.body)
}

/// The causal skeleton every finished edge trace must have when the
/// request was the connection's first: `edge/accept` precedes the
/// `edge/request` root, which parents the `edge/write` span, and the
/// write ends no earlier than the request starts.
fn assert_accept_to_write(trace: &CompletedTrace) {
    let accept = trace.span("edge/accept").expect("accept span recorded");
    let request = trace.span("edge/request").expect("request root recorded");
    let write = trace.span("edge/write").expect("write span recorded");
    assert_eq!(request.parent, None, "edge/request is the root");
    assert_eq!(
        write.parent,
        Some(request.id),
        "the response write is caused by the request"
    );
    assert!(accept.start_us <= request.start_us, "accept precedes parse");
    assert!(request.start_us <= write.start_us, "parse precedes write");
    assert!(write.start_us <= write.end_us, "write span is well-formed");
}

// ------------------------------------------------------------------- tests

#[test]
fn shed_429_is_always_tail_sampled_from_accept_to_response_write() {
    // One in-flight slot, held by an in-process classify parked in the
    // scorer — the socket classify is deterministically shed with a 429.
    let service = Arc::new(FrappeService::new(
        tiny_model(),
        KnownMaliciousNames::from_names(["profile viewer"]),
        Shortener::bitly(),
        ServeConfig {
            shards: 1,
            max_in_flight: 1,
            retry_after_ms: 9,
        },
    ));
    feed_app(&service, AppId(7), true, 2);
    let collector = tail_only_collector();
    service.set_trace_collector(collector.clone());
    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0", NetConfig::default()).unwrap();
    let held = Held::classify(Arc::clone(&service), AppId(7));

    let mut shed = Client::connect(server.local_addr()).unwrap();
    let (status, _) = get(&mut shed, "/v1/classify/7");
    assert_eq!(status, 429);

    // With head sampling off, only the tail keeps a trace — and the shed
    // MUST be kept, finished at the moment its 429 hit the wire. The
    // client can read the response a hair before the loop thread books
    // the flushed write, so poll with a deadline instead of racing it.
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    let trace = loop {
        let kept = collector.snapshot();
        if let Some(trace) = kept.into_iter().find(|t| t.has_flag(TraceFlag::Shed429)) {
            break trace;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "a 429 shed is always tail-sampled"
        );
        std::thread::sleep(Duration::from_millis(1));
    };
    let trace = &trace;
    assert_eq!(trace.kind, "edge");
    assert_eq!(trace.outcome, "429");
    assert!(!trace.head_sampled, "kept by the tail, not by luck");
    assert_accept_to_write(trace);
    assert!(
        trace.events.iter().any(|e| e.name == "shed"),
        "the serve layer recorded why: {:?}",
        trace.events
    );

    // The shed trace's id is attached to a latency bucket as an exemplar.
    // Check this FIRST: exemplars are latest-writer-wins per bucket, so
    // any traced request we make below could land in the shed's bucket
    // and replace its id.
    let mut reader = Client::connect(server.local_addr()).unwrap();
    let (status, metrics) = get(&mut reader, "/metrics");
    assert_eq!(status, 200);
    assert!(
        metrics.contains(&format!("trace_id=\"{:016x}\"", trace.id)),
        "histogram exemplar points at the kept trace"
    );

    // The export routes serve the same story over the socket.
    let (status, jsonl) = get(&mut reader, "/v1/traces");
    assert_eq!(status, 200);
    assert!(jsonl.contains("shed_429"), "{jsonl}");
    assert!(jsonl.contains("\"outcome\":\"429\""), "{jsonl}");
    let (status, chrome) = get(&mut reader, "/v1/traces/chrome");
    assert_eq!(status, 200);
    assert!(chrome.trim_start().starts_with('['), "{chrome}");
    assert!(chrome.contains("edge/write"), "{chrome}");
    held.release().expect("the held classify is answered");
}

#[test]
fn requests_in_flight_across_a_fenced_promote_are_tail_sampled() {
    let service = Arc::new(FrappeService::new(
        tiny_model(),
        KnownMaliciousNames::from_names(["profile viewer"]),
        Shortener::bitly(),
        ServeConfig::default(),
    ));
    let apps: Vec<AppId> = (1..=4).map(AppId).collect();
    for (i, &app) in apps.iter().enumerate() {
        feed_app(&service, app, i % 2 == 0, 1 + i % 3);
    }
    let collector = tail_only_collector();
    service.set_trace_collector(collector.clone());
    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.local_addr();

    let manager = LifecycleManager::new(
        Arc::clone(&service),
        ModelSource::default(),
        // The gate is exercised elsewhere; here it should never hold.
        PromotionGate {
            min_scored: 1,
            max_disagreement_rate: 1.0,
            max_false_positive_increase: 1.0,
            max_false_negative_increase: 1.0,
        },
        DriftDetector::new(DriftConfig::default()),
    );
    manager.set_swap_fence(Arc::new(server.handle()));

    // Hammer the edge from fresh connections (one request each, so every
    // trace carries its own accept span) while promotes land mid-flight.
    let stop = Arc::new(AtomicBool::new(false));
    let served = Arc::new(AtomicUsize::new(0));
    let hammers: Vec<_> = (0..2)
        .map(|tid| {
            let (stop, served) = (Arc::clone(&stop), Arc::clone(&served));
            let apps = apps.clone();
            std::thread::spawn(move || {
                let mut i = tid;
                while !stop.load(Ordering::Relaxed) {
                    let mut client = Client::connect(addr).unwrap();
                    let app = apps[i % apps.len()];
                    let (status, _) = get(&mut client, &format!("/v1/classify/{}", app.raw()));
                    assert!(status == 200 || status == 429, "got {status}");
                    served.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            })
        })
        .collect();

    // The promote event fires before the fence drains, so any socket
    // request still in flight at that instant is flagged and — because
    // the drain waits for its response to flush — kept by the time
    // `try_promote` returns. One attempt nearly always catches one; the
    // retry bound makes the test deterministic in practice.
    let flagged_edge_trace = |collector: &TraceCollector| {
        collector
            .snapshot()
            .into_iter()
            .find(|t| t.kind == "edge" && t.has_flag(TraceFlag::InFlightSwap))
    };
    manager.record_label(apps[0], true);
    let mut found = None;
    for attempt in 0.. {
        assert!(attempt < 50, "no promote ever straddled a live request");
        await_traffic(&served);
        let version = manager.begin_shadow(Arc::new(tiny_model()), ModelSource::default());
        service.classify(apps[0]).unwrap();
        assert_eq!(manager.try_promote(), PromotionOutcome::Promoted(version));
        if let Some(trace) = flagged_edge_trace(&collector) {
            found = Some(trace);
            break;
        }
    }
    stop.store(true, Ordering::Relaxed);
    for hammer in hammers {
        hammer.join().expect("hammer thread");
    }

    let trace = found.expect("bounded retry loop either found one or panicked");
    assert_eq!(trace.outcome, "200", "the straddled request completed");
    assert!(!trace.head_sampled);
    assert_accept_to_write(&trace);
    assert!(
        trace.events.iter().any(|e| e.name == "lifecycle/promote"),
        "the trace records the transition it straddled: {:?}",
        trace.events
    );
    // Serve-side spans hang off the edge's request root: the causal
    // chain runs socket → queue → score without a break.
    let root = trace.span("edge/request").unwrap().id;
    let queue = trace.span("serve/queue").expect("queue span recorded");
    let score = trace.span("serve/score").expect("score span recorded");
    assert_eq!(queue.parent, Some(root));
    assert_eq!(score.parent, Some(root));
}

#[test]
fn tracing_on_and_off_serve_bit_identical_verdict_bytes() {
    let build = |traced: bool| {
        let service = Arc::new(FrappeService::new(
            tiny_model(),
            KnownMaliciousNames::from_names(["profile viewer"]),
            Shortener::bitly(),
            ServeConfig::default(),
        ));
        let apps: Vec<AppId> = (1..=6).map(AppId).collect();
        for (i, &app) in apps.iter().enumerate() {
            feed_app(&service, app, i % 2 == 0, 1 + i % 4);
        }
        if traced {
            // Keep-everything sampling: every request pays the maximum
            // tracing cost on this edge.
            service.set_trace_collector(TraceCollector::new(TraceConfig {
                head_every: 1,
                ..TraceConfig::default()
            }));
        }
        let server =
            Server::bind(Arc::clone(&service), "127.0.0.1:0", NetConfig::default()).unwrap();
        (service, server, apps)
    };
    let (service_on, server_on, apps) = build(true);
    let (service_off, server_off, _) = build(false);

    let mut on = Client::connect(server_on.local_addr()).unwrap();
    let mut off = Client::connect(server_off.local_addr()).unwrap();
    for round in 0..3 {
        for &app in &apps {
            let path = format!("/v1/classify/{}", app.raw());
            let (status_on, body_on) = get(&mut on, &path);
            let (status_off, body_off) = get(&mut off, &path);
            assert_eq!(status_on, 200);
            assert_eq!(status_off, 200);
            assert_eq!(
                body_on, body_off,
                "round {round}: tracing changed the verdict bytes for {app:?}"
            );
        }
    }
    // The in-process decision values are bit-equal too.
    for &app in &apps {
        assert_eq!(
            service_on.classify(app).unwrap().decision_value.to_bits(),
            service_off.classify(app).unwrap().decision_value.to_bits()
        );
    }

    // The traced edge kept every request; the untraced one answers 404.
    let (status, jsonl) = get(&mut on, "/v1/traces");
    assert_eq!(status, 200);
    assert!(
        jsonl.lines().filter(|l| !l.is_empty()).count() >= 3 * apps.len(),
        "head_every=1 keeps every finished classify"
    );
    let (status, body) = get(&mut off, "/v1/traces");
    assert_eq!(status, 404);
    assert_eq!(body, r#"{"error":"tracing disabled"}"#);
}

/// Feeds the same fixture traffic through a router's mailboxes (the
/// sharded analogue of [`feed_app`]), then flushes so classify sees it.
fn feed_app_routed(router: &ShardRouter, app: AppId, shady: bool, posts: usize) {
    let name = if shady {
        "Profile Viewer".to_string()
    } else {
        format!("wholesome game {}", app.raw())
    };
    router
        .ingest(&ServeEvent::Registered { app, name })
        .expect("mailbox has room");
    let (benign, malicious) = prototypes();
    let features = if shady {
        malicious.on_demand
    } else {
        benign.on_demand
    };
    router
        .ingest(&ServeEvent::OnDemand { app, features })
        .expect("mailbox has room");
    for _ in 0..posts {
        let link = if shady {
            Some(osn_types::url::Url::parse("http://scam.example/x").unwrap())
        } else {
            Some(osn_types::url::Url::parse("http://fine.example/y").unwrap())
        };
        router
            .ingest(&ServeEvent::Post { app, link })
            .expect("mailbox has room");
    }
}

/// The shard-group continuity story, end to end over real sockets: a
/// request forwarded across a group mailbox keeps its edge-minted trace
/// (route spans parent the owning group's serve spans in one tree), and
/// a fenced promote over K groups still tail-samples whatever straddled
/// it — with every group already serving the new model version by the
/// time the promote returns.
#[test]
fn forwarded_requests_keep_the_edge_trace_across_a_multi_group_promote() {
    let router = Arc::new(ShardRouter::new(
        tiny_model(),
        KnownMaliciousNames::from_names(["profile viewer"]),
        Shortener::bitly(),
        ShardConfig {
            groups: 3,
            mailbox_capacity: 64,
            group: ServeConfig::default(),
        },
    ));
    let apps: Vec<AppId> = (1..=6).map(AppId).collect();
    for (i, &app) in apps.iter().enumerate() {
        feed_app_routed(&router, app, i % 2 == 0, 1 + i % 3);
    }
    router.flush();
    assert!(
        apps.iter()
            .map(|&a| router.group_of(a))
            .collect::<std::collections::BTreeSet<_>>()
            .len()
            > 1,
        "the fixture must actually span multiple groups"
    );
    let collector = tail_only_collector();
    router.set_trace_collector(collector.clone());
    let server = Server::bind(Arc::clone(&router), "127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.local_addr();

    let manager = LifecycleManager::new(
        Arc::clone(&router),
        ModelSource::default(),
        PromotionGate {
            min_scored: 1,
            max_disagreement_rate: 1.0,
            max_false_positive_increase: 1.0,
            max_false_negative_increase: 1.0,
        },
        DriftDetector::new(DriftConfig::default()),
    );
    manager.set_swap_fence(Arc::new(server.handle()));

    let stop = Arc::new(AtomicBool::new(false));
    let served = Arc::new(AtomicUsize::new(0));
    let hammers: Vec<_> = (0..2)
        .map(|tid| {
            let (stop, served) = (Arc::clone(&stop), Arc::clone(&served));
            let apps = apps.clone();
            std::thread::spawn(move || {
                let mut i = tid;
                while !stop.load(Ordering::Relaxed) {
                    let mut client = Client::connect(addr).unwrap();
                    let app = apps[i % apps.len()];
                    let (status, _) = get(&mut client, &format!("/v1/classify/{}", app.raw()));
                    assert!(status == 200 || status == 429, "got {status}");
                    served.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            })
        })
        .collect();

    let flagged_edge_trace = |collector: &TraceCollector| {
        collector
            .snapshot()
            .into_iter()
            .find(|t| t.kind == "edge" && t.has_flag(TraceFlag::InFlightSwap))
    };
    manager.record_label(apps[0], true);
    let mut found = None;
    let mut version = 0;
    for attempt in 0.. {
        assert!(attempt < 50, "no promote ever straddled a live request");
        await_traffic(&served);
        version = manager.begin_shadow(Arc::new(tiny_model()), ModelSource::default());
        router.classify(apps[0]).unwrap();
        assert_eq!(manager.try_promote(), PromotionOutcome::Promoted(version));
        if let Some(trace) = flagged_edge_trace(&collector) {
            found = Some(trace);
            break;
        }
    }
    stop.store(true, Ordering::Relaxed);
    for hammer in hammers {
        hammer.join().expect("hammer thread");
    }

    // The swap was globally atomic: every group immediately serves the
    // promoted version (one shared epoch pointer, fresh caches).
    for &app in &apps {
        assert_eq!(router.classify(app).unwrap().model_version, version);
    }

    let trace = found.expect("bounded retry loop either found one or panicked");
    assert_eq!(trace.outcome, "200", "the straddled request completed");
    assert!(!trace.head_sampled);
    assert_accept_to_write(&trace);
    assert!(
        trace.events.iter().any(|e| e.name == "lifecycle/promote"),
        "the trace records the promote it straddled: {:?}",
        trace.events
    );
    // The router recorded which group owned the request…
    assert!(
        trace
            .events
            .iter()
            .any(|e| e.name == "route" && e.detail.starts_with("group=")),
        "the routing decision is on the trace: {:?}",
        trace.events
    );
    // …and the trace tree crosses into the group unbroken: the edge
    // root parents the router's spans, which parent the group's spans.
    let root = trace.span("edge/request").unwrap().id;
    let forward = trace.span("route/forward").expect("forward span recorded");
    let group_score = trace
        .span("route/group_score")
        .expect("group residence span recorded");
    let queue = trace.span("serve/queue").expect("queue span recorded");
    let score = trace.span("serve/score").expect("score span recorded");
    assert_eq!(forward.parent, Some(root));
    assert_eq!(group_score.parent, Some(root));
    assert_eq!(queue.parent, Some(group_score.id));
    assert_eq!(score.parent, Some(group_score.id));
}
