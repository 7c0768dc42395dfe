//! Shard-group lifecycle: fenced swaps and shared control state across
//! K partition-owning groups.
//!
//! Two scenarios pin the tentpole invariants of the shared-nothing
//! refactor at the lifecycle layer:
//!
//! * a **fenced promotion and rollback land on every group at once**,
//!   under concurrent classify load — no hammer thread ever observes a
//!   model version going backwards (the stale-epoch signature), the
//!   installed [`SwapFence`] runs exactly once per transition, and the
//!   whole deployment's lifecycle counters surface in one merged scrape;
//! * a **mid-stream known-names flip** reaches every group exactly like
//!   it reaches a single service: verdicts stay bit-identical between a
//!   one-service deployment and a K-group router before the flip, right
//!   after it (warm caches invalidated everywhere), and over the rest of
//!   the stream.
//!
//! A third pins the one install path for a service and for routers: the
//! registry's v1 *is* the served model, and every install is packed.
//!
//! Each test sweeps the group counts in [`GROUP_COUNTS`] in-process: the
//! degenerate single group, three (so apps genuinely span a group
//! boundary), and four.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use frappe::features::aggregation::KnownMaliciousNames;
use frappe::{AppFeatures, FrappeModel};
use frappe_lifecycle::{
    DriftConfig, DriftDetector, LifecycleManager, ModelSource, PromotionGate, PromotionOutcome,
    SwapFence,
};
use frappe_serve::{
    serve_events, Deployment, FeatureStore, FrappeService, ServeConfig, ServeEvent, ShardConfig,
    ShardRouter,
};
use osn_types::ids::AppId;
use synth_workload::scenario::ScenarioWorld;
use synth_workload::{run_scenario, ScenarioConfig};

/// Group counts every test sweeps.
const GROUP_COUNTS: [usize; 3] = [1, 3, 4];

fn shard_config(groups: usize) -> ShardConfig {
    ShardConfig {
        groups,
        mailbox_capacity: 4096,
        group: ServeConfig::default(),
    }
}

/// Known-malicious name list from the world's ground truth.
fn known_names(world: &ScenarioWorld) -> KnownMaliciousNames {
    KnownMaliciousNames::from_names(
        world
            .truth
            .malicious
            .iter()
            .filter_map(|&a| world.platform.app(a))
            .map(|r| r.name().to_string()),
    )
}

/// Labelled feature rows computed through the incremental store (how a
/// retraining driver assembles its batch).
fn labelled_rows(
    world: &ScenarioWorld,
    known: &KnownMaliciousNames,
) -> (Vec<AppFeatures>, Vec<bool>) {
    let store = FeatureStore::new(4);
    for event in serve_events(world) {
        store.apply(&event, &world.shortener);
    }
    let mut samples = Vec::new();
    let mut labels = Vec::new();
    for app in store.tracked_apps() {
        let snap = store.snapshot(app, known).expect("tracked app has state");
        samples.push(snap.features);
        labels.push(world.truth.malicious.contains(&app));
    }
    (samples, labels)
}

/// Forwards one event into the router, retrying while its owner group's
/// mailbox is full (the reject-with-retry-after contract; tests spin
/// rather than sleep the hint).
fn ingest_routed(router: &ShardRouter, event: &ServeEvent) {
    while router.ingest(event).is_err() {
        std::thread::yield_now();
    }
}

/// A [`SwapFence`] that drains every group's scoring queue before
/// letting the swap run — the in-process analogue of the network edge's
/// drain/resume protocol — and counts how often it ran.
struct DrainFence {
    router: Arc<ShardRouter>,
    entered: AtomicU64,
}

impl SwapFence for DrainFence {
    fn fenced(&self, swap: &mut dyn FnMut()) {
        self.entered.fetch_add(1, Ordering::SeqCst);
        // Best-effort quiesce: under sustained load the queues may never
        // be simultaneously empty, and the fence contract requires the
        // swap to run regardless.
        let deadline = Instant::now() + Duration::from_secs(1);
        while self.router.queue_depth() > 0 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        swap();
    }
}

#[test]
fn fenced_promote_and_rollback_are_atomic_across_groups_under_load() {
    let world = run_scenario(&ScenarioConfig::small());
    let known = known_names(&world);
    let (samples, labels) = labelled_rows(&world, &known);
    let apps: Vec<AppId> = samples.iter().map(|s| s.app).collect();

    // Incumbent trained on a stale half of the batch (every other row);
    // the candidate gets all of it.
    let half_samples: Vec<AppFeatures> = samples.iter().step_by(2).cloned().collect();
    let half_labels: Vec<bool> = labels.iter().step_by(2).copied().collect();
    let incumbent = FrappeModel::train(&half_samples, &half_labels, frappe::FeatureSet::Full, None);
    let candidate = FrappeModel::train(&samples, &labels, frappe::FeatureSet::Full, None);

    for groups in GROUP_COUNTS {
        let router = Arc::new(ShardRouter::new(
            incumbent.clone(),
            known.clone(),
            world.shortener.clone(),
            shard_config(groups),
        ));
        for event in serve_events(&world) {
            ingest_routed(&router, &event);
        }
        router.flush();
        let groups_hit: std::collections::BTreeSet<usize> =
            apps.iter().map(|&a| router.group_of(a)).collect();
        assert_eq!(
            groups_hit.len(),
            router.group_count().min(apps.len()),
            "the world's apps must exercise every group"
        );

        let manager = LifecycleManager::new(
            Arc::clone(&router),
            ModelSource::default(),
            // The gate is not under test — let the shadow through.
            PromotionGate {
                min_scored: 10,
                max_disagreement_rate: 1.0,
                max_false_positive_increase: 1.0,
                max_false_negative_increase: 1.0,
            },
            DriftDetector::new(DriftConfig::default()),
        );
        let fence = Arc::new(DrainFence {
            router: Arc::clone(&router),
            entered: AtomicU64::new(0),
        });
        manager.set_swap_fence(Arc::clone(&fence) as Arc<dyn SwapFence>);

        assert_eq!(
            manager.begin_shadow(Arc::new(candidate.clone()), ModelSource::default()),
            2
        );
        for (&app, &label) in apps.iter().zip(&labels) {
            manager.record_label(app, label);
            router.classify(app).expect("tracked app");
        }

        // Hammer every group while the promotion lands. The zero-stale
        // invariant, per thread: once any verdict carries v2, no later one
        // may carry v1 — the swap is one shared pointer, and the epoch bump
        // kills every pre-swap cache entry in every group.
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..3)
                .map(|t| {
                    let router = &router;
                    let apps = &apps;
                    let stop = &stop;
                    s.spawn(move || {
                        let mut versions = Vec::new();
                        let mut i = t;
                        while !stop.load(Ordering::Relaxed) {
                            let app = apps[i % apps.len()];
                            i += 7;
                            match router.classify(app) {
                                Ok(v) => versions.push(v.model_version),
                                Err(_) => std::thread::yield_now(),
                            }
                        }
                        versions
                    })
                })
                .collect();
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(manager.try_promote(), PromotionOutcome::Promoted(2));
            std::thread::sleep(Duration::from_millis(20));
            stop.store(true, Ordering::Relaxed);
            for worker in workers {
                let versions = worker.join().expect("hammer thread");
                assert!(!versions.is_empty(), "thread observed no verdicts");
                for pair in versions.windows(2) {
                    assert!(
                        pair[0] <= pair[1],
                        "stale-epoch verdict: v{} served after v{}",
                        pair[1],
                        pair[0]
                    );
                }
                assert_eq!(*versions.last().unwrap(), 2, "promotion reached the thread");
            }
        });
        assert_eq!(fence.entered.load(Ordering::SeqCst), 1, "promote fenced");

        // Settled: every app, whatever its owner group, serves the candidate
        // bit-exactly.
        for &app in &apps {
            let verdict = router.classify(app).expect("tracked app");
            assert_eq!(verdict.model_version, 2);
            assert_eq!(
                verdict.decision_value.to_bits(),
                candidate
                    .decision_value(&router.features(app).expect("tracked"))
                    .to_bits(),
                "post-swap verdicts come from the candidate"
            );
        }

        // Rollback runs through the same fence; v1 serves again at a fresh
        // epoch, so nothing cached under v2 survives in any group.
        let epoch_before = router.control_stamp().model_epoch;
        assert_eq!(manager.rollback().expect("history has v1"), 1);
        assert_eq!(fence.entered.load(Ordering::SeqCst), 2, "rollback fenced");
        let stamp = router.control_stamp();
        assert_eq!(stamp.model_version, 1);
        assert_eq!(stamp.model_epoch, epoch_before + 1);
        for &app in &apps {
            assert_eq!(router.classify(app).expect("tracked").model_version, 1);
        }

        // Merged metrics: each group booked the two shared swaps once (max,
        // not sum), and the lifecycle counters — which live on the router's
        // base registry — surface in the one merged scrape.
        let merged = router.metrics();
        assert_eq!(merged.model_swaps, 2);
        assert_eq!(merged.model_version, 1);
        let text = router.exposition().to_prometheus_text();
        assert!(text.contains("lifecycle_promotions 1"), "scrape: {text}");
        assert!(text.contains("lifecycle_rollbacks 1"));
        assert!(text.contains("control_model_version 1"));
        assert!(text.contains(&format!("route_groups {}", router.group_count())));
    }
}

#[test]
fn a_mid_stream_name_flip_reaches_every_group_exactly_like_a_single_service() {
    let world = run_scenario(&ScenarioConfig::small());
    // Both deployments start with NO known names — the flip arrives live,
    // against warm caches.
    let (samples, labels) = labelled_rows(&world, &KnownMaliciousNames::default());
    let model = FrappeModel::train(&samples, &labels, frappe::FeatureSet::Full, None);

    let events: Vec<ServeEvent> = serve_events(&world);
    let (first, second) = events.split_at(events.len() / 2);
    for groups in GROUP_COUNTS {
        let single = FrappeService::new(
            model.clone(),
            KnownMaliciousNames::default(),
            world.shortener.clone(),
            ServeConfig::default(),
        );
        let router = ShardRouter::new(
            model.clone(),
            KnownMaliciousNames::default(),
            world.shortener.clone(),
            shard_config(groups),
        );

        for event in first {
            single.ingest(event);
            ingest_routed(&router, event);
        }
        router.flush();

        let parity = |phase: &str| {
            let tracked = router.tracked_apps();
            assert_eq!(tracked, single.tracked_apps(), "{phase}: same ownership");
            for app in tracked {
                let a = single.classify(app).expect("tracked on the service");
                let b = router.classify(app).expect("tracked on the router");
                assert_eq!(
                    (
                        a.decision_value.to_bits(),
                        a.malicious,
                        a.generation,
                        a.model_version
                    ),
                    (
                        b.decision_value.to_bits(),
                        b.malicious,
                        b.generation,
                        b.model_version
                    ),
                    "{phase}: app {app:?} diverged across the group boundary"
                );
            }
        };
        parity("pre-flip");

        // Flag a tracked app's own name on both deployments: its collision
        // feature must flip, in whichever group owns it.
        let victim = router.tracked_apps()[0];
        let flagged = world
            .platform
            .app(victim)
            .expect("tracked apps exist in the platform")
            .name()
            .to_string();
        assert!(single.flag_name(&flagged), "fresh name on the service");
        assert!(router.flag_name(&flagged), "fresh name on the shared plane");
        assert_eq!(router.control_stamp().known_generation, 1);
        assert!(
            router
                .features(victim)
                .expect("tracked")
                .aggregation
                .name_matches_known_malicious,
            "the flip reached the victim's owner group"
        );
        parity("post-flip (warm caches invalidated everywhere)");

        // The rest of the stream lands on post-flip state; parity must hold
        // through it.
        for event in second {
            single.ingest(event);
            ingest_routed(&router, event);
        }
        router.flush();
        parity("post-flip, stream complete");
    }
}

#[test]
fn registry_seed_is_the_served_model_and_every_install_is_packed() {
    let world = run_scenario(&ScenarioConfig::small());
    let known = known_names(&world);
    let (samples, labels) = labelled_rows(&world, &known);
    // Never installed itself, so this model and its clones are unpacked.
    let model = FrappeModel::train(&samples, &labels, frappe::FeatureSet::Full, None);
    let service = Arc::new(FrappeService::new(
        model.clone(),
        known.clone(),
        world.shortener.clone(),
        ServeConfig::default(),
    ));
    let routers = GROUP_COUNTS.map(|groups| {
        Deployment::from(Arc::new(ShardRouter::new(
            model.clone(),
            known.clone(),
            world.shortener.clone(),
            shard_config(groups),
        )))
    });
    for deployment in std::iter::once(Deployment::from(service)).chain(routers) {
        let shape = format!("{} group(s)", deployment.group_count());
        let manager = LifecycleManager::new(
            deployment.clone(),
            ModelSource::default(),
            // The gate is not under test — let an unscored shadow through.
            PromotionGate {
                min_scored: 0,
                ..PromotionGate::default()
            },
            DriftDetector::new(DriftConfig::default()),
        );
        let seed = deployment.current_model();
        assert!(
            Arc::ptr_eq(&manager.registry().model(1).unwrap(), seed.model()),
            "{shape}: the registry's v1 is the served model, not a copy"
        );
        assert!(
            seed.model().is_warm(),
            "{shape}: construction installs packed"
        );

        let candidate = Arc::new(model.clone());
        assert!(!candidate.is_warm());
        manager.begin_shadow(Arc::clone(&candidate), ModelSource::default());
        assert_eq!(manager.try_promote(), PromotionOutcome::Promoted(2));
        let promoted = deployment.current_model();
        assert!(Arc::ptr_eq(promoted.model(), &candidate), "{shape}");
        assert!(candidate.is_warm(), "{shape}: promote installs packed");

        assert_eq!(manager.rollback().unwrap(), 1);
        let restored = deployment.current_model();
        assert!(
            Arc::ptr_eq(restored.model(), seed.model()),
            "{shape}: rollback reinstalls the seed entry itself"
        );
        assert_eq!((restored.version(), restored.epoch()), (1, 2), "{shape}");
    }
}
