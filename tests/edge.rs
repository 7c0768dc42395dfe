//! End-to-end tests of the network edge (`frappe-net`) over real
//! sockets on an ephemeral loopback port:
//!
//! * every route answers, and HTTP-ingested events feed the same store
//!   HTTP classifies read from;
//! * verdicts served over the socket are **byte-identical** to
//!   in-process [`FrappeService::classify`], under concurrent clients;
//! * a full in-flight cap yields a deterministic `429` with a
//!   `Retry-After` header and the pinned [`ErrorEnvelope`] body;
//! * a full accept gate answers a canned `503` with a `Retry-After`
//!   header and the same envelope, and always tail-keeps its trace;
//! * a lifecycle hot-swap (promote, then rollback) fenced by the edge's
//!   drain protocol loses **zero** responses under mid-load traffic, and
//!   every response body is one of the known-good per-version strings —
//!   nothing stale, nothing garbled;
//! * dropping a server joins every connection thread, wherever each one
//!   is blocked: in a 429 read pause, or in `read`;
//! * a drain does not wait for a request that is only half sent, and
//!   that request is answered after the resume;
//! * socket traffic alone feeds a lifecycle manager's drift window,
//!   shadow tally and audit log, behind a single service and behind a
//!   4-group router — the manager observes the scoring site itself;
//! * an over-long attacker-authored app name is refused with a `400`
//!   naming its line, and nothing from that batch is applied.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use frappe::features::aggregation::{AggregationFeatures, KnownMaliciousNames};
use frappe::{AppFeatures, FeatureSet, FrappeModel, OnDemandFeatures};
use frappe_lifecycle::{
    DriftConfig, DriftDetector, LifecycleManager, ModelSource, PromotionGate, PromotionOutcome,
};
use frappe_net::client::Client;
use frappe_net::{NetConfig, Server, MAX_APP_NAME_BYTES};
use frappe_obs::{AuditLog, TraceCollector, TraceConfig, TraceFlag};
use frappe_serve::{Deployment, FrappeService, ServeConfig, ServeEvent, ShardConfig, ShardRouter};
use osn_types::ids::AppId;
use svm::{Kernel, SvmParams};
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

fn service_with(config: ServeConfig) -> FrappeService {
    FrappeService::new(
        tiny_model(),
        KnownMaliciousNames::from_names(["profile viewer"]),
        Shortener::bitly(),
        config,
    )
}

/// One app's evidence; `shady` picks the malicious prototype and
/// `posts` varies the evidence volume so apps get distinct verdicts.
fn app_events(app: AppId, shady: bool, posts: usize) -> Vec<ServeEvent> {
    let name = if shady {
        "Profile Viewer".to_string()
    } else {
        format!("wholesome game {}", app.raw())
    };
    let (benign, malicious) = prototypes();
    let features = if shady {
        malicious.on_demand
    } else {
        benign.on_demand
    };
    let mut events = vec![
        ServeEvent::Registered { app, name },
        ServeEvent::OnDemand { app, features },
    ];
    for i in 0..posts {
        let link = if shady {
            Some(osn_types::url::Url::parse("http://scam.example/x").unwrap())
        } else {
            (i % 2 == 0).then(|| osn_types::url::Url::parse("http://fine.example/y").unwrap())
        };
        events.push(ServeEvent::Post { app, link });
    }
    events
}

fn feed_app(service: &FrappeService, app: AppId, shady: bool, posts: usize) {
    for event in app_events(app, shady, posts) {
        service.ingest(&event);
    }
}

// ------------------------------------------------------------------- tests

#[test]
fn every_route_answers_and_http_ingest_feeds_http_classify() {
    let service = Arc::new(service_with(ServeConfig::default()));
    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0", NetConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(health.body, r#"{"status":"ok"}"#);

    // ingest over HTTP: NDJSON of the real ServeEvent wire format
    let app = AppId(42);
    let events = [
        ServeEvent::Registered {
            app,
            name: "Profile Viewer".into(),
        },
        ServeEvent::OnDemand {
            app,
            features: prototypes().1.on_demand,
        },
        ServeEvent::Post {
            app,
            link: Some(osn_types::url::Url::parse("http://scam.example/z").unwrap()),
        },
    ];
    let ndjson: String = events
        .iter()
        .map(|e| serde_json::to_string(e).unwrap() + "\n")
        .collect();
    let ingested = client.request("POST", "/v1/events", &ndjson).unwrap();
    assert_eq!(ingested.status, 202);
    assert_eq!(ingested.body, r#"{"ingested":3}"#);

    // the events just ingested answer a classify on the same connection
    let verdict = client.get("/v1/classify/app:42").unwrap();
    assert_eq!(verdict.status, 200);
    let in_process = service.classify(app).unwrap();
    assert_eq!(
        verdict.body,
        serde_json::to_string(&in_process).unwrap(),
        "HTTP body is byte-identical to the in-process verdict"
    );

    // unknown app: 404 with the pinned envelope
    let unknown = client.get("/v1/classify/999").unwrap();
    assert_eq!(unknown.status, 404);
    assert_eq!(
        unknown.body,
        r#"{"error":{"UnknownApp":999},"retry_after_ms":null}"#
    );

    // bad NDJSON is all-or-nothing: 400, nothing ingested
    let before = service.metrics().events_ingested;
    let bad = client
        .request(
            "POST",
            "/v1/events",
            "{\"Registered\":{\"app\":1,\"name\":\"x\"}}\nnot json\n",
        )
        .unwrap();
    assert_eq!(bad.status, 400);
    assert!(bad.body.contains("line 2"));
    assert_eq!(service.metrics().events_ingested, before, "nothing moved");

    // metrics scrape shows serve *and* edge counters in one text
    let metrics = client.get("/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    assert!(metrics.body.contains("serve_events_ingested 3"));
    assert!(metrics.body.contains("net_conns_accepted 1"));
    assert!(metrics.body.contains("net_http_requests"));

    // routing edges
    assert_eq!(client.get("/nope").unwrap().status, 404);
    assert_eq!(
        client.request("DELETE", "/healthz", "").unwrap().status,
        405
    );
    assert_eq!(client.get("/v1/classify/not-a-number").unwrap().status, 400);

    // wrong HTTP version: 505 and the connection closes
    let mut old = Client::connect(server.local_addr()).unwrap();
    old.send_raw(b"GET /healthz HTTP/1.0\r\n\r\n").unwrap();
    let response = old.read_response().unwrap();
    assert_eq!(response.status, 505);
    assert_eq!(response.header("connection"), Some("close"));
}

#[test]
fn concurrent_socket_verdicts_are_byte_identical_to_in_process() {
    let service = Arc::new(service_with(ServeConfig::default()));
    let apps: Vec<AppId> = (1..=8).map(AppId).collect();
    for (i, &app) in apps.iter().enumerate() {
        feed_app(&service, app, i % 2 == 0, 1 + i % 4);
    }
    let expected: Vec<String> = apps
        .iter()
        .map(|&app| serde_json::to_string(&service.classify(app).unwrap()).unwrap())
        .collect();

    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.local_addr();
    let expected = Arc::new(expected);
    let apps = Arc::new(apps);

    let clients: Vec<_> = (0..4)
        .map(|worker| {
            let (expected, apps) = (Arc::clone(&expected), Arc::clone(&apps));
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for round in 0..20 {
                    for (i, app) in apps.iter().enumerate() {
                        // exercise both accepted id spellings
                        let path = if (round + i + worker) % 2 == 0 {
                            format!("/v1/classify/app:{}", app.raw())
                        } else {
                            format!("/v1/classify/{}", app.raw())
                        };
                        let response = client.get(&path).unwrap();
                        assert_eq!(response.status, 200);
                        assert_eq!(
                            response.body, expected[i],
                            "socket verdict differs from in-process for {app:?}"
                        );
                    }
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }
}

#[test]
fn saturated_scorer_pool_answers_429_with_retry_after() {
    // One in-flight slot, held by a classify parked in the scorer, so
    // the socket classify is rejected deterministically.
    let service = Arc::new(service_with(ServeConfig {
        shards: 1,
        max_in_flight: 1,
        retry_after_ms: 9,
    }));
    feed_app(&service, AppId(7), true, 2);
    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0", NetConfig::default()).unwrap();
    let held = Held::classify(Arc::clone(&service), AppId(7));

    let mut shed = Client::connect(server.local_addr()).unwrap();
    let response = shed.get("/v1/classify/7").unwrap();
    assert_eq!(response.status, 429);
    assert_eq!(
        response.header("retry-after"),
        Some("1"),
        "9ms rounds up to the 1-second header floor"
    );
    assert_eq!(
        response.body,
        r#"{"error":{"Overloaded":{"retry_after_ms":9}},"retry_after_ms":9}"#
    );

    let snapshot = service.obs_registry().snapshot().to_prometheus_text();
    assert!(snapshot.contains("net_http_429 1"), "{snapshot}");
    assert!(
        snapshot.contains("net_read_stalls 1"),
        "the shed connection is read-paused: {snapshot}"
    );
    assert_eq!(service.metrics().rejected, 1);
    held.release().expect("the held classify is answered");
}

#[test]
fn full_accept_gate_answers_503_and_tail_keeps_the_shed() {
    let service = Arc::new(service_with(ServeConfig {
        retry_after_ms: 9,
        ..ServeConfig::default()
    }));
    // tail-only: a kept trace proves the tail flag kept it
    let collector = TraceCollector::new(TraceConfig {
        head_every: 0,
        slow_us: 0,
        ..TraceConfig::default()
    });
    service.set_trace_collector(collector.clone());
    let server = Server::bind(
        Arc::clone(&service),
        "127.0.0.1:0",
        NetConfig { max_connections: 1 },
    )
    .unwrap();

    // a served request proves the parked client holds the only slot
    let mut parked = Client::connect(server.local_addr()).unwrap();
    assert_eq!(parked.get("/healthz").unwrap().status, 200);

    let mut shed = Client::connect(server.local_addr()).unwrap();
    let response = shed
        .get("/healthz")
        .expect("the gate's canned 503 reaches the client");
    assert_eq!(response.status, 503);
    assert_eq!(
        response.header("retry-after"),
        Some("1"),
        "9ms rounds up to the 1-second header floor"
    );
    assert_eq!(
        response.body,
        r#"{"error":{"Overloaded":{"retry_after_ms":9}},"retry_after_ms":9}"#
    );

    let scrape = service.obs_registry().snapshot().to_prometheus_text();
    assert!(scrape.contains("net_conns_rejected 1\n"), "{scrape}");
    let kept: Vec<_> = collector
        .snapshot()
        .into_iter()
        .filter(|t| t.has_flag(TraceFlag::ShedAcceptGate))
        .collect();
    assert_eq!(kept.len(), 1, "one shed, one tail-kept trace: {kept:?}");
    assert_eq!(kept[0].outcome, "503");
    assert!(!kept[0].head_sampled);
}

#[test]
fn router_read_pause_holds_while_the_shedding_group_is_full() {
    // Two groups with one in-flight slot each. A 429 comes from one
    // group's full count; summed over groups the slots are only half
    // taken, yet the shed connection must stay paused until *its* group
    // frees its slot — which here happens only after the checks.
    let router = Arc::new(ShardRouter::new(
        tiny_model(),
        KnownMaliciousNames::from_names(["profile viewer"]),
        Shortener::bitly(),
        ShardConfig {
            groups: 2,
            mailbox_capacity: 64,
            group: ServeConfig {
                shards: 1,
                max_in_flight: 1,
                retry_after_ms: 9,
            },
        },
    ));
    for event in app_events(AppId(7), true, 2) {
        router.ingest(&event).unwrap();
    }
    router.flush();
    let server = Server::bind(Arc::clone(&router), "127.0.0.1:0", NetConfig::default()).unwrap();
    // parks only classifies into app 7's group
    let held = Held::classify(Arc::clone(&router), AppId(7));

    // Three pipelined classifies into the full group: the first is shed,
    // the other two must wait behind the read pause.
    let mut shed = Client::connect(server.local_addr()).unwrap();
    for _ in 0..3 {
        shed.send("GET", "/v1/classify/7", "").unwrap();
    }
    assert_eq!(shed.read_response().unwrap().status, 429);
    std::thread::sleep(Duration::from_millis(50));

    let scrape = router.exposition().to_prometheus_text();
    assert!(scrape.contains("net_http_429 1\n"), "{scrape}");
    assert!(
        scrape.contains("net_read_stalls 1\n"),
        "the shed connection stays read-paused: {scrape}"
    );
    held.release().expect("the held classify is answered");
}

#[test]
fn fenced_hot_swap_under_load_drops_and_stales_nothing() {
    // Lifecycle-managed service: promotions swap the model the edge serves.
    let incumbent = tiny_model();
    let candidate = Arc::new(tiny_model()); // identical weights, new version
    let service = Arc::new(FrappeService::new(
        incumbent,
        KnownMaliciousNames::from_names(["profile viewer"]),
        Shortener::bitly(),
        ServeConfig::default(),
    ));
    let apps: Vec<AppId> = (1..=6).map(AppId).collect();
    for (i, &app) in apps.iter().enumerate() {
        feed_app(&service, app, i % 2 == 0, 1 + i % 3);
    }

    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.local_addr();
    let manager = LifecycleManager::new(
        Arc::clone(&service),
        ModelSource::default(),
        PromotionGate {
            min_scored: 100,
            ..PromotionGate::default()
        },
        DriftDetector::new(DriftConfig::default()),
    );
    // THE point of this test: the edge's drain protocol fences the swap
    manager.set_swap_fence(Arc::new(server.handle()));

    // shadow the candidate and let it earn its promotion on live queries
    // (the manager observes every query the service answers)
    manager.begin_shadow(Arc::clone(&candidate), ModelSource::default());
    for (i, &app) in apps.iter().enumerate() {
        manager.record_label(app, i % 2 == 0); // feed_app's shady pattern
    }
    for i in 0..120 {
        service.classify(apps[i % apps.len()]).unwrap();
    }

    // known-good response bodies for the incumbent (version 1)
    let v1: Vec<String> = apps
        .iter()
        .map(|&app| serde_json::to_string(&service.classify(app).unwrap()).unwrap())
        .collect();

    const CLIENTS: usize = 4;
    const REQUESTS: usize = 240;
    let progress = Arc::new(AtomicUsize::new(0));
    let apps = Arc::new(apps);
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let (progress, apps) = (Arc::clone(&progress), Arc::clone(&apps));
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut bodies = Vec::with_capacity(REQUESTS);
                for i in 0..REQUESTS {
                    let app = apps[i % apps.len()];
                    let response = client.get(&format!("/v1/classify/{}", app.raw())).unwrap();
                    assert_eq!(response.status, 200, "{}", response.body);
                    bodies.push((i % apps.len(), response.body));
                    progress.fetch_add(1, Ordering::Relaxed);
                }
                bodies
            })
        })
        .collect();

    let wait_until = |count: usize| {
        while progress.load(Ordering::Relaxed) < count {
            std::thread::sleep(Duration::from_millis(1));
        }
    };

    // promote mid-load (drain → swap → resume), grab version-2 bodies,
    // then roll back mid-load too
    wait_until(CLIENTS * REQUESTS / 4);
    let outcome = manager.try_promote();
    assert_eq!(outcome, PromotionOutcome::Promoted(2));
    let v2: Vec<String> = apps
        .iter()
        .map(|&app| serde_json::to_string(&service.classify(app).unwrap()).unwrap())
        .collect();
    wait_until(CLIENTS * REQUESTS / 2);
    assert_eq!(manager.rollback().unwrap(), 1);

    for client in clients {
        let bodies = client.join().expect("client thread");
        assert_eq!(bodies.len(), REQUESTS, "zero dropped responses");
        for (app_idx, body) in bodies {
            assert!(
                body == v1[app_idx] || body == v2[app_idx],
                "response is neither version's known-good body (stale or \
                 garbled): {body}"
            );
        }
    }

    // every verdict after the dust settles matches in-process exactly
    let mut client = Client::connect(addr).unwrap();
    for (i, &app) in apps.iter().enumerate() {
        let response = client.get(&format!("/v1/classify/{}", app.raw())).unwrap();
        assert_eq!(response.body, v1[i], "post-rollback parity");
    }

    let snapshot = service.obs_registry().snapshot().to_prometheus_text();
    assert!(snapshot.contains("net_drains 2"), "{snapshot}");
    assert!(snapshot.contains("lifecycle_promotions 1"));
    assert!(snapshot.contains("lifecycle_rollbacks 1"));
    let metrics = service.metrics();
    assert_eq!(metrics.model_swaps, 2);
}

/// Runs `f` on a thread of its own and waits up to `secs` for it, so a
/// call that never returns fails the test instead of hanging it.
fn within<T: Send + 'static>(secs: u64, what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(secs))
        .unwrap_or_else(|_| panic!("{what} did not return within {secs} s"))
}

#[test]
fn dropping_the_server_joins_every_connection_thread() {
    // As in the 429 test: an in-process classify holds the only
    // in-flight slot until after the drop, so the socket one is shed.
    let service = Arc::new(service_with(ServeConfig {
        shards: 1,
        max_in_flight: 1,
        retry_after_ms: 9,
    }));
    feed_app(&service, AppId(7), true, 2);
    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.local_addr();
    let held = Held::classify(Arc::clone(&service), AppId(7));

    // 1. read-paused after its 429 (the slot is not freed before the drop)
    let mut paused = Client::connect(addr).unwrap();
    assert_eq!(paused.get("/v1/classify/7").unwrap().status, 429);
    // 2. idle keep-alive, blocked in `read`
    let mut idle = Client::connect(addr).unwrap();
    assert_eq!(idle.get("/healthz").unwrap().status, 200);
    let scrape = service.obs_registry().snapshot().to_prometheus_text();
    assert!(scrape.contains("net_conns_active 2\n"), "{scrape}");

    within(10, "dropping the server", move || drop(server));

    // every thread is gone: its connection is closed and deregistered
    for (name, mut client) in [("paused", paused), ("idle", idle)] {
        assert!(
            client.read_response().is_err(),
            "the {name} connection was closed by the shutdown"
        );
    }
    let scrape = service.obs_registry().snapshot().to_prometheus_text();
    assert!(scrape.contains("net_conns_active 0\n"), "{scrape}");
    held.release().expect("the held classify is answered");
}

#[test]
fn drain_skips_a_half_sent_request_and_resume_answers_it() {
    let service = Arc::new(service_with(ServeConfig::default()));
    feed_app(&service, AppId(7), true, 2);
    let expected = serde_json::to_string(&service.classify(AppId(7)).unwrap()).unwrap();
    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0", NetConfig::default()).unwrap();
    let handle = server.handle();

    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(client.get("/healthz").unwrap().status, 200);
    client
        .send_raw(b"GET /v1/classify/7 HTTP/1.1\r\ncontent-")
        .unwrap();
    let drainer = handle.clone();
    within(10, "a drain beside a half-sent head", move || {
        drainer.drain()
    });

    // the head completes mid-drain: the request is parsed but held
    client.send_raw(b"length: 0\r\n\r\n").unwrap();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(client.read_response().map(|r| (r.status, r.body)));
    });
    assert!(
        rx.recv_timeout(Duration::from_millis(100)).is_err(),
        "no request starts while the edge is drained"
    );

    handle.resume();
    let (status, body) = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the held request is answered after the resume")
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(body, expected);
    let scrape = service.obs_registry().snapshot().to_prometheus_text();
    assert!(scrape.contains("net_drains 1\n"), "{scrape}");
}

#[test]
fn over_long_registered_names_are_refused_and_nothing_lands() {
    let service = Arc::new(service_with(ServeConfig::default()));
    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0", NetConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let ndjson = |name: String| {
        let events = [
            ServeEvent::Registered {
                app: AppId(5),
                name: "Profile Viewer".into(),
            },
            ServeEvent::Registered {
                app: AppId(6),
                name,
            },
        ];
        events
            .iter()
            .map(|e| serde_json::to_string(e).unwrap() + "\n")
            .collect::<String>()
    };

    let refused = client
        .post("/v1/events", &ndjson("x".repeat(MAX_APP_NAME_BYTES + 1)))
        .unwrap();
    assert_eq!(refused.status, 400);
    assert!(refused.body.contains("line 2"), "{}", refused.body);
    assert_eq!(service.metrics().events_ingested, 0, "nothing applied");
    assert_eq!(client.get("/v1/classify/6").unwrap().status, 404);
    assert_eq!(client.get("/v1/classify/5").unwrap().status, 404);

    // a name of exactly the limit is fine
    let accepted = client
        .post("/v1/events", &ndjson("x".repeat(MAX_APP_NAME_BYTES)))
        .unwrap();
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    assert_eq!(client.get("/v1/classify/6").unwrap().status, 200);
}

/// The prototypes under a linear kernel, whose verdicts decompose into
/// per-feature audit records.
fn linear_model() -> FrappeModel {
    let (benign, malicious) = prototypes();
    let samples: Vec<AppFeatures> = (0..4).flat_map(|_| [benign, malicious]).collect();
    let labels: Vec<bool> = (0..4).flat_map(|_| [false, true]).collect();
    let params = SvmParams::with_kernel(Kernel::linear());
    FrappeModel::train(&samples, &labels, FeatureSet::Full, Some(params))
}

/// §7's adaptation: attacker apps whose summary fields are all filled in,
/// everything else as shady as before. The drift baseline was a half
/// benign, half malicious training population.
fn summary_filling_events(app: AppId) -> Vec<ServeEvent> {
    let mut features = prototypes().1.on_demand;
    features.has_category = Some(true);
    features.has_company = Some(true);
    features.has_description = Some(true);
    features.has_profile_posts = Some(true);
    let scam = osn_types::url::Url::parse("http://scam.example/w").unwrap();
    vec![
        ServeEvent::Registered {
            app,
            name: format!("Profile Viewer {}", app.raw()),
        },
        ServeEvent::OnDemand { app, features },
        ServeEvent::Post {
            app,
            link: Some(scam.clone()),
        },
        ServeEvent::Post {
            app,
            link: Some(scam),
        },
    ]
}

/// Drives `deployment` only through `/v1/events` and `/v1/classify`
/// (`settle` is the router's ingest barrier) and checks what a lifecycle
/// manager on it observed. `fresh_scores` reads the deployment's cache
/// misses.
fn socket_traffic_feeds_the_manager(
    deployment: Deployment,
    settle: &dyn Fn(),
    fresh_scores: &dyn Fn() -> u64,
) {
    let shape = format!("{} group(s)", deployment.group_count());
    let server = Server::bind(deployment.clone(), "127.0.0.1:0", NetConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let apps: Vec<AppId> = (101..=160).map(AppId).collect();
    let manager = LifecycleManager::new(
        deployment.clone(),
        ModelSource::default(),
        PromotionGate {
            min_scored: apps.len() as u64,
            ..PromotionGate::default()
        },
        DriftDetector::new(DriftConfig::default()),
    );
    let (benign, malicious) = prototypes();
    let baseline: Vec<AppFeatures> = (0..50).flat_map(|_| [benign, malicious]).collect();
    manager.refit_drift_baseline(&baseline);
    let log = Arc::new(AuditLog::new(10_000));
    manager.set_audit_log(Arc::clone(&log));

    let ndjson: String = apps
        .iter()
        .flat_map(|&app| summary_filling_events(app))
        .map(|e| serde_json::to_string(&e).unwrap() + "\n")
        .collect();
    let ingested = client.post("/v1/events", &ndjson).unwrap();
    assert_eq!(ingested.status, 202, "{shape}: {}", ingested.body);
    settle();
    let mut sweep = || {
        for &app in &apps {
            let response = client.get(&format!("/v1/classify/{}", app.raw())).unwrap();
            assert_eq!(response.status, 200, "{shape}: {}", response.body);
        }
    };

    // Drift: one fresh sweep and one cache-hit sweep fill the window.
    assert!(!manager.check_drift().is_drifted(), "{shape}: empty window");
    sweep();
    sweep();
    let drift = manager.check_drift();
    assert_eq!(drift.window_samples, 2 * apps.len() as u64, "{shape}");
    assert!(drift.is_drifted(), "{shape}: max PSI {}", drift.max_psi());
    for lane in ["category", "company", "description", "profile_posts"] {
        assert!(
            drift.drifted.contains(&lane),
            "{shape}: {:?}",
            drift.drifted
        );
    }

    // Shadow: labels arrive, a candidate rides along, and socket queries
    // alone earn its promotion.
    for &app in &apps {
        manager.record_label(app, true);
    }
    let version = manager.begin_shadow(Arc::new(linear_model()), ModelSource::default());
    sweep();
    let report = manager.shadow_report().expect("shadow riding");
    assert_eq!(report.scored, apps.len() as u64, "{shape}");
    assert_eq!(report.labelled_malicious, apps.len() as u64, "{shape}");
    assert_eq!(report.disagreements, 0, "{shape}: identical weights");
    assert_eq!(manager.try_promote(), PromotionOutcome::Promoted(version));

    // Audit: the promotion forces one more fresh sweep, on the candidate.
    sweep();
    let records = log.snapshot();
    assert_eq!(records.len() as u64, fresh_scores(), "{shape}");
    assert_eq!(records.len(), 2 * apps.len(), "{shape}");
    assert!(records.iter().all(|r| r.is_consistent(1e-9)), "{shape}");
    let on_candidate = records
        .iter()
        .filter(|r| r.model_version == Some(version))
        .count();
    assert_eq!(on_candidate, apps.len(), "{shape}");
}

#[test]
fn socket_traffic_alone_feeds_drift_shadow_and_audit() {
    let known = || KnownMaliciousNames::from_names(["profile viewer"]);
    let service = Arc::new(FrappeService::new(
        linear_model(),
        known(),
        Shortener::bitly(),
        ServeConfig::default(),
    ));
    let misses = Arc::clone(&service);
    socket_traffic_feeds_the_manager(Deployment::from(service), &|| {}, &|| {
        misses.metrics().cache_misses
    });

    let router = Arc::new(ShardRouter::new(
        linear_model(),
        known(),
        Shortener::bitly(),
        ShardConfig {
            groups: 4,
            ..ShardConfig::default()
        },
    ));
    socket_traffic_feeds_the_manager(
        Deployment::from(Arc::clone(&router)),
        &|| router.flush(),
        &|| router.metrics().cache_misses,
    );
}
