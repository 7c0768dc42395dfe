//! Randomized catalog parity: for *arbitrary* seeded event streams,
//! ingested concurrently, the online feature vectors must equal the
//! batch-extracted vectors bit-for-bit — for every app, every
//! [`FeatureSet`], and every shard count.
//!
//! `tests/serve_parity.rs` checks parity on one realistic scenario; this
//! test attacks the same invariant property-style: random app scripts
//! (registrations, posts with raw/shortened/unresolvable/facebook links,
//! on-demand crawls, deletions), random name collisions, clustered app
//! ids, ingest interleaved across threads, and shard counts {1, 4, 16}
//! (the sweep `ci.sh` pins). Everything is seeded; no wall-clock input
//! anywhere, so a failure replays exactly.
//!
//! Since the serving store folds the same catalog updaters the batch
//! extractors fold, a mismatch here means a feature definition itself is
//! inconsistent — not that two copies drifted apart.

use fb_platform::crawler::PermissionCrawl;
use fb_platform::graph_api::AppSummary;
use fb_platform::post::{Post, PostKind};
use frappe::features::aggregation::{extract_aggregation, KnownMaliciousNames};
use frappe::features::on_demand::{extract_on_demand, OnDemandInput};
use frappe::{AppFeatures, FeatureSet, Imputation};
use frappe_serve::{FeatureStore, ServeEvent};
use osn_types::ids::{AppId, PostId, UserId};
use osn_types::permission::{Permission, PermissionSet};
use osn_types::time::SimTime;
use osn_types::url::Url;
use osn_types::Domain;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use url_services::shortener::Shortener;
use url_services::wot::WotRegistry;

const SHARD_COUNTS: [usize; 3] = [1, 4, 16];
const GROUP_COUNTS: [usize; 4] = [1, 2, 4, 8];
const INGEST_THREADS: usize = 4;

/// The comparable fields of one verdict: app, decision-value bits,
/// label, cache generation, model version.
type VerdictRow = (AppId, u64, bool, u64, u64);

/// Everything the batch reference needs to re-derive one app's row.
#[derive(Default)]
struct AppScript {
    app: AppId,
    events: Vec<ServeEvent>,
    name: String,
    posts: Vec<Post>,
    /// Last crawl artifacts (`None` = never crawled). Wiped by deletion:
    /// re-crawling a deleted app observes nothing.
    crawl: Option<(AppSummary, PermissionCrawl, Vec<Post>)>,
}

fn summary(app: AppId, rng: &mut SmallRng) -> AppSummary {
    AppSummary {
        id: app,
        name: format!("summary {}", app.raw()),
        description: rng.gen_bool(0.5).then(|| "described".to_string()),
        company: rng.gen_bool(0.5).then(|| "Acme".to_string()),
        category: rng.gen_bool(0.5).then(|| "Games".to_string()),
        profile_link: Url::parse("https://www.facebook.com/apps/application.php?id=1").unwrap(),
        monthly_active_users: rng.gen_range(0..1_000),
        created_at: SimTime::ZERO,
    }
}

fn permission_crawl(app: AppId, rng: &mut SmallRng) -> PermissionCrawl {
    let mut perms = PermissionSet::from_iter([Permission::PublishStream]);
    for p in Permission::ALL.iter().take(rng.gen_range(0..4)) {
        perms.insert(*p);
    }
    let redirect = ["http://scamhost.com/x", "http://fine.example.com/cb"];
    PermissionCrawl {
        permissions: perms,
        // sometimes the app's own id, sometimes a mismatched client
        client_id: if rng.gen_bool(0.5) {
            app
        } else {
            AppId(rng.gen_range(1..50))
        },
        redirect_uri: Url::parse(redirect[rng.gen_range(0..redirect.len())]).unwrap(),
    }
}

fn profile_feed(app: AppId, next_post: &mut u64, rng: &mut SmallRng) -> Vec<Post> {
    (0..rng.gen_range(0..3))
        .map(|_| {
            *next_post += 1;
            post(*next_post, app, None)
        })
        .collect()
}

fn post(id: u64, app: AppId, link: Option<Url>) -> Post {
    Post {
        id: PostId(id),
        wall_owner: UserId(0),
        author: UserId(0),
        app: Some(app),
        profile_of: None,
        kind: PostKind::App,
        message: "m".into(),
        link,
        created_at: SimTime::ZERO,
        likes: 0,
        comments: 0,
    }
}

/// A seeded world: shortener with facebook-bound / scam-bound /
/// unresolvable short links, a WOT registry with partial coverage, a
/// name pool with forced collisions, and one random event script per app.
struct RandomWorld {
    shortener: Shortener,
    wot: WotRegistry,
    known: KnownMaliciousNames,
    scripts: Vec<AppScript>,
}

fn random_world(seed: u64, apps: usize) -> RandomWorld {
    let mut rng = SmallRng::seed_from_u64(seed);

    let mut shortener = Shortener::bitly();
    let short_facebook = shortener.shorten(&Url::parse("https://apps.facebook.com/game/").unwrap());
    let short_scam = shortener.shorten(&Url::parse("http://scam.com/payload").unwrap());
    let short_dead = shortener.shorten(&Url::parse("http://dead.com/x").unwrap());
    shortener.set_unresolvable(&short_dead);

    let mut wot = WotRegistry::new();
    wot.set_score(&Domain::parse("scamhost.com").unwrap(), 4);
    wot.set_score(&Domain::parse("fine.example.com").unwrap(), 87);

    let names = [
        "Profile Viewer",
        "Who Stalks You",
        "Happy Farm",
        "Daily Horoscope",
        "Free Gift Cards",
        "Photo Fun",
    ];
    let known = KnownMaliciousNames::from_names(["profile viewer", "free gift cards"]);

    let link_pool: Vec<Option<Url>> = vec![
        None,
        Some(Url::parse("http://scam.com/a").unwrap()),
        Some(Url::parse("https://apps.facebook.com/x/").unwrap()),
        Some(short_facebook),
        Some(short_scam),
        Some(short_dead),
    ];

    let mut next_post = 0u64;
    let mut scripts = Vec::with_capacity(apps);
    for i in 0..apps {
        // clustered ids: a stride-16 block plus a far-away prefixed block,
        // adversarial for modulo sharding
        let app = if i % 2 == 0 {
            AppId(1_000 + (i as u64) * 16)
        } else {
            AppId((1 << 40) + (i as u64) * 64)
        };
        let mut script = AppScript {
            app,
            ..AppScript::default()
        };

        if rng.gen_bool(0.9) {
            let name = names[rng.gen_range(0..names.len())].to_string();
            script.events.push(ServeEvent::Registered {
                app,
                name: name.clone(),
            });
            script.name = name;
        }
        for _ in 0..rng.gen_range(0..6) {
            if rng.gen_bool(0.65) {
                next_post += 1;
                let link = link_pool[rng.gen_range(0..link_pool.len())].clone();
                script.posts.push(post(next_post, app, link.clone()));
                script.events.push(ServeEvent::Post { app, link });
            } else {
                let s = summary(app, &mut rng);
                let p = permission_crawl(app, &mut rng);
                let feed = profile_feed(app, &mut next_post, &mut rng);
                let input = OnDemandInput {
                    summary: Some(&s),
                    permissions: Some(&p),
                    profile_feed: Some(&feed),
                };
                script.events.push(ServeEvent::OnDemand {
                    app,
                    features: extract_on_demand(app, &input, &wot),
                });
                script.crawl = Some((s, p, feed));
            }
        }
        if rng.gen_bool(0.2) {
            // deletion is terminal: nothing can be observed afterwards,
            // and a batch re-crawl comes back empty-handed
            script.events.push(ServeEvent::Deleted { app });
            script.crawl = None;
        }
        scripts.push(script);
    }

    RandomWorld {
        shortener,
        wot,
        known,
        scripts,
    }
}

/// The batch reference row: offline extractors over the script's
/// artifacts — the exact semantics `tests/serve_parity.rs` uses against
/// the scenario worlds.
fn batch_row(world: &RandomWorld, script: &AppScript) -> AppFeatures {
    let input = match &script.crawl {
        Some((s, p, feed)) => OnDemandInput {
            summary: Some(s),
            permissions: Some(p),
            profile_feed: Some(feed.as_slice()),
        },
        None => OnDemandInput::default(),
    };
    let on_demand = extract_on_demand(script.app, &input, &world.wot);
    let refs: Vec<&Post> = script.posts.iter().collect();
    let aggregation = extract_aggregation(&script.name, &refs, &world.known, &world.shortener);
    AppFeatures {
        app: script.app,
        on_demand,
        aggregation,
    }
}

/// Ingests every script, apps partitioned round-robin across threads.
/// Per-app event order is preserved (one thread owns one app); the
/// cross-app interleaving is whatever the scheduler does — parity must
/// hold regardless.
fn ingest_concurrently(world: &RandomWorld, store: &FeatureStore) {
    std::thread::scope(|scope| {
        for t in 0..INGEST_THREADS {
            let store = &store;
            let world = &world;
            scope.spawn(move || {
                for script in world.scripts.iter().skip(t).step_by(INGEST_THREADS) {
                    for event in &script.events {
                        store.apply(event, &world.shortener);
                    }
                }
            });
        }
    });
}

fn every_feature_set() -> Vec<FeatureSet> {
    let mut sets = vec![
        FeatureSet::Lite,
        FeatureSet::Full,
        FeatureSet::Robust,
        FeatureSet::Obfuscatable,
    ];
    sets.extend(
        FeatureSet::Full
            .features()
            .into_iter()
            .map(FeatureSet::Single),
    );
    sets
}

#[test]
fn random_streams_are_parity_exact_for_every_set_and_shard_count() {
    for seed in [11u64, 4242, 990_017] {
        let world = random_world(seed, 64);
        let batch: Vec<AppFeatures> = world.scripts.iter().map(|s| batch_row(&world, s)).collect();
        let imputations = [Imputation::zeroes(), Imputation::fit_medians(&batch)];

        for shards in SHARD_COUNTS {
            let store = FeatureStore::new(shards);
            ingest_concurrently(&world, &store);

            for (script, batch_row) in world.scripts.iter().zip(&batch) {
                let online = store
                    .snapshot(script.app, &world.known)
                    .expect("every scripted app has at least zero events applied... if it had any")
                    .features;
                assert_eq!(
                    online, *batch_row,
                    "seed {seed}, {shards} shards: raw row drift for {:?}",
                    script.app
                );
                for set in every_feature_set() {
                    for imp in &imputations {
                        let online_vec = imp.encode(set, &online);
                        let batch_vec = imp.encode(set, batch_row);
                        // Vec<f64> equality: exact, lane for lane
                        assert_eq!(
                            online_vec, batch_vec,
                            "seed {seed}, {shards} shards, {set:?}: vector drift for {:?}",
                            script.app
                        );
                    }
                }
            }
        }
    }
}

/// Ingests every script through a router's bounded mailboxes, apps
/// round-robin across threads (per-app order preserved: one thread per
/// app, one owner group, FIFO mailbox, one consumer), then flushes all
/// groups so classify observes everything.
fn ingest_routed_concurrently(world: &RandomWorld, router: &frappe_serve::ShardRouter) {
    std::thread::scope(|scope| {
        for t in 0..INGEST_THREADS {
            let router = &router;
            let world = &world;
            scope.spawn(move || {
                for script in world.scripts.iter().skip(t).step_by(INGEST_THREADS) {
                    for event in &script.events {
                        // The mailboxes are sized to hold the whole
                        // stream; spin on the (unexpected) reject so a
                        // shed can never masquerade as a parity bug.
                        while router.ingest(event).is_err() {
                            std::thread::yield_now();
                        }
                    }
                }
            });
        }
    });
    router.flush();
}

/// The tentpole invariant: partitioning the serving stack into K
/// thread-isolated shard groups is *pure topology* — for every group
/// count, every app's verdict is bit-for-bit what the single-group
/// deployment produces (decision value compared as raw f64 bits), and a
/// hot swap + rollback through the shared control plane leaves every
/// group on the same epoch with no stale verdict surviving anywhere.
#[test]
fn verdicts_are_bit_identical_for_every_group_count() {
    use frappe_serve::{ServeConfig, ShardConfig, ShardRouter};

    // A second deterministic model for the swap leg: trained on rows
    // from an unrelated seeded world with a narrower feature set, so v2
    // genuinely scores differently from v1.
    let other_model = || {
        let world = random_world(3, 8);
        let rows: Vec<AppFeatures> = world.scripts.iter().map(|s| batch_row(&world, s)).collect();
        let labels: Vec<bool> = (0..rows.len()).map(|i| i % 2 == 0).collect();
        frappe::FrappeModel::train(&rows, &labels, FeatureSet::Lite, None)
    };

    for seed in [11u64, 4242] {
        let world = random_world(seed, 48);
        let mut reference: Option<Vec<VerdictRow>> = None;

        for groups in GROUP_COUNTS {
            let router = ShardRouter::new(
                tiny_model(),
                world.known.clone(),
                world.shortener.clone(),
                ShardConfig {
                    groups,
                    mailbox_capacity: 4096,
                    group: ServeConfig::default(),
                },
            );
            ingest_routed_concurrently(&world, &router);

            let observed: Vec<VerdictRow> = world
                .scripts
                .iter()
                .filter(|s| !s.events.is_empty())
                .map(|s| {
                    let v = router.classify(s.app).expect("tracked app");
                    (
                        s.app,
                        v.decision_value.to_bits(),
                        v.malicious,
                        v.generation,
                        v.model_version,
                    )
                })
                .collect();
            match &reference {
                None => reference = Some(observed),
                Some(reference) => assert_eq!(
                    reference, &observed,
                    "seed {seed}: {groups} groups diverged from the 1-group verdicts"
                ),
            }

            // Promote: one shared pointer swap reaches every group at
            // once — no classify anywhere may answer with the old
            // version (a stale cached verdict would carry version 1).
            let displaced = router.swap_model(std::sync::Arc::new(other_model()), 2);
            assert_eq!(displaced.version(), 1);
            for s in world.scripts.iter().filter(|s| !s.events.is_empty()) {
                let v = router.classify(s.app).expect("tracked app");
                assert_eq!(
                    v.model_version, 2,
                    "{groups} groups: stale post-swap verdict for {:?}",
                    s.app
                );
            }

            // Roll back to the original weights: decisions must return
            // bit-exactly to the pre-swap reference (same model ⇒ same
            // bits), at the rollback version — v2 verdicts die too.
            let displaced = router.swap_model(std::sync::Arc::new(tiny_model()), 3);
            assert_eq!(displaced.version(), 2);
            for (s, (_, bits, malicious, _, _)) in world
                .scripts
                .iter()
                .filter(|s| !s.events.is_empty())
                .zip(reference.as_ref().unwrap())
            {
                let v = router.classify(s.app).expect("tracked app");
                assert_eq!(v.model_version, 3);
                assert_eq!(v.malicious, *malicious);
                assert_eq!(
                    v.decision_value.to_bits(),
                    *bits,
                    "{groups} groups: rollback did not restore v1 decisions for {:?}",
                    s.app
                );
            }
        }
    }
}

#[test]
fn empty_scripts_yield_no_snapshot() {
    let world = random_world(7, 16);
    let store = FeatureStore::new(4);
    ingest_concurrently(&world, &store);
    for script in &world.scripts {
        let snap = store.snapshot(script.app, &world.known);
        assert_eq!(
            snap.is_some(),
            !script.events.is_empty(),
            "snapshot existence must track whether the app was ever mentioned"
        );
    }
}

// ---------------------------------------------------------------------------
// deletion semantics through the catalog
// ---------------------------------------------------------------------------

fn tiny_model() -> frappe::FrappeModel {
    use frappe::features::aggregation::AggregationFeatures;
    use frappe::OnDemandFeatures;
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
    let samples: Vec<AppFeatures> = (0..4).flat_map(|_| [benign, malicious]).collect();
    let labels: Vec<bool> = (0..4).flat_map(|_| [false, true]).collect();
    frappe::FrappeModel::train(&samples, &labels, FeatureSet::Full, None)
}

#[test]
fn deleted_apps_lose_on_demand_lanes_identically_on_both_paths() {
    use frappe_serve::{FrappeService, ServeConfig};

    let svc = FrappeService::new(
        tiny_model(),
        KnownMaliciousNames::from_names(["profile viewer"]),
        Shortener::bitly(),
        ServeConfig::default(),
    );
    let app = AppId(77);
    let mut rng = SmallRng::seed_from_u64(5);
    let s = summary(app, &mut rng);
    let p = permission_crawl(app, &mut rng);
    let wot = WotRegistry::new();
    svc.ingest(&ServeEvent::Registered {
        app,
        name: "Profile Viewer".into(),
    });
    svc.ingest(&ServeEvent::OnDemand {
        app,
        features: extract_on_demand(
            app,
            &OnDemandInput {
                summary: Some(&s),
                permissions: Some(&p),
                profile_feed: None,
            },
            &wot,
        ),
    });
    svc.ingest(&ServeEvent::Post {
        app,
        link: Some(Url::parse("http://scam.com/a").unwrap()),
    });

    let verdict_before = svc.classify(app).expect("tracked app");
    let cached = svc.classify(app).expect("tracked app");
    assert_eq!(verdict_before, cached, "second query served from cache");
    assert_eq!(svc.metrics().cache_misses, 1);
    let before = svc.features(app).unwrap();
    assert!(before.on_demand.permission_count.is_some());

    svc.ingest(&ServeEvent::Deleted { app });

    // Online: the on-demand lanes go unobserved; aggregation evidence stays.
    let after = svc.features(app).unwrap();
    assert_eq!(after.on_demand, frappe::OnDemandFeatures::default());
    assert_eq!(after.aggregation, before.aggregation);

    // Batch re-extraction of a deleted app: every crawl lane fails, so
    // the on-demand input is empty — identical `None` lanes.
    let batch_recrawl = extract_on_demand(app, &OnDemandInput::default(), &wot);
    assert_eq!(after.on_demand, batch_recrawl);

    // The deletion bumped the app's generation, so the cached verdict is
    // stale: the next classify re-scores (a cache miss), on the None-lane
    // row via imputation.
    let verdict_after = svc.classify(app).expect("tombstoned apps still answer");
    assert_eq!(svc.metrics().cache_misses, 2, "deletion invalidated cache");
    assert_eq!(verdict_after.generation, verdict_before.generation + 1);
}
