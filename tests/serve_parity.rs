//! Online/offline parity: the serving layer's incremental features and
//! verdicts must coincide *exactly* with the batch pipeline on the same
//! world. Incrementality buys latency, never drift — this is the
//! load-bearing invariant of `frappe-serve`.

use frappe::features::aggregation::{extract_aggregation, KnownMaliciousNames};
use frappe::features::on_demand::{extract_on_demand, OnDemandInput};
use frappe::{AppFeatures, FeatureSet, FrappeModel};
use frappe_serve::{service_from_world, ServeConfig};
use osn_types::AppId;
use synth_workload::scenario::ScenarioWorld;
use synth_workload::{build_datasets, run_scenario, ScenarioConfig};

/// The reference implementation: the exact batch path the end-to-end
/// tests use (crawl archive → on-demand lanes, monitored posts →
/// aggregation lanes).
fn batch_features(world: &ScenarioWorld, app: AppId, known: &KnownMaliciousNames) -> AppFeatures {
    let crawl = world.extended_archive.get(&app);
    let input = OnDemandInput {
        summary: crawl.and_then(|c| c.summary.as_ref()),
        permissions: crawl.and_then(|c| c.permissions.as_ref()),
        profile_feed: crawl.and_then(|c| c.profile_feed.as_deref()),
    };
    let on_demand = extract_on_demand(app, &input, &world.wot);
    let posts: Vec<&fb_platform::Post> = world
        .mpk
        .monitored_posts()
        .iter()
        .filter_map(|&pid| world.platform.post(pid))
        .filter(|p| p.app == Some(app))
        .collect();
    let name = world.platform.app(app).map(|r| r.name()).unwrap_or("");
    let aggregation = extract_aggregation(name, &posts, known, &world.shortener);
    AppFeatures {
        app,
        on_demand,
        aggregation,
    }
}

fn known_names(world: &ScenarioWorld) -> KnownMaliciousNames {
    let bundle = build_datasets(world);
    KnownMaliciousNames::from_names(
        bundle
            .d_sample
            .malicious
            .iter()
            .filter_map(|&a| world.platform.app(a))
            .map(|r| r.name().to_string()),
    )
}

fn train_on_world(world: &ScenarioWorld, known: &KnownMaliciousNames) -> FrappeModel {
    let bundle = build_datasets(world);
    let mut samples = Vec::new();
    let mut labels = Vec::new();
    for &a in &bundle.d_sample.malicious {
        samples.push(batch_features(world, a, known));
        labels.push(true);
    }
    for &a in &bundle.d_sample.benign {
        samples.push(batch_features(world, a, known));
        labels.push(false);
    }
    FrappeModel::train(&samples, &labels, FeatureSet::Full, None)
}

#[test]
fn incremental_features_equal_batch_extraction_for_every_app() {
    let world = run_scenario(&ScenarioConfig::small());
    let known = known_names(&world);
    let model = train_on_world(&world, &known);
    let service = service_from_world(&world, model, known.clone(), ServeConfig::default());

    let mut checked = 0usize;
    for record in world.platform.apps() {
        let online = service
            .features(record.id)
            .expect("every registered app is tracked");
        let batch = batch_features(&world, record.id, &known);
        // PartialEq on AppFeatures compares the f64 ratio exactly —
        // bit-for-bit parity, not approximate agreement.
        assert_eq!(online, batch, "feature drift for app {:?}", record.id);
        checked += 1;
    }
    assert!(checked > 100, "only {checked} apps in the small scenario?");
    assert_eq!(service.tracked_apps().len(), checked);
}

#[test]
fn online_verdicts_match_batch_predictions() {
    let world = run_scenario(&ScenarioConfig::small());
    let known = known_names(&world);
    let model = train_on_world(&world, &known);
    let service = service_from_world(&world, model.clone(), known.clone(), ServeConfig::default());

    let mut malicious_seen = 0usize;
    for record in world.platform.apps() {
        let verdict = service.classify(record.id).expect("tracked app");
        let batch = batch_features(&world, record.id, &known);
        assert_eq!(
            verdict.malicious,
            model.predict(&batch),
            "verdict drift for app {:?}",
            record.id
        );
        assert_eq!(
            verdict.decision_value,
            model.decision_value(&batch),
            "decision-value drift for app {:?}",
            record.id
        );
        if verdict.malicious {
            malicious_seen += 1;
        }
    }
    assert!(
        malicious_seen > 10,
        "the scenario's campaigns should be visible online, saw {malicious_seen}"
    );

    // second sweep is answered from cache: no new misses
    let before = service.metrics();
    for record in world.platform.apps() {
        let _ = service.classify(record.id).expect("tracked app");
    }
    let after = service.metrics();
    assert_eq!(
        after.cache_misses, before.cache_misses,
        "no evidence arrived between sweeps — all hits"
    );
    assert_eq!(
        after.cache_hits,
        before.cache_hits + service.tracked_apps().len() as u64
    );
}

#[test]
fn mid_stream_flag_reaches_batch_through_the_shared_handle() {
    // Regression for the known-names asymmetry: batch extraction used to
    // need a manually mirrored copy of the name set (see the test below,
    // kept as the legacy spelling). With `FrappeService::known_names`
    // both paths observe the *same* state object, so a name inserted
    // mid-stream flips the collision feature identically on both paths
    // with no mirroring step anywhere.
    let world = run_scenario(&ScenarioConfig::small());
    let seed = known_names(&world);
    let model = train_on_world(&world, &seed);
    let service = service_from_world(&world, model, seed, ServeConfig::default());
    let shared = service.known_names();

    let fresh = world
        .platform
        .apps()
        .find(|r| !shared.contains(r.name()))
        .expect("some app name is not yet known-malicious");

    // before the flag: both paths agree the name is clean
    let before_online = service.features(fresh.id).unwrap();
    let before_batch = shared.with(|known, _| batch_features(&world, fresh.id, known));
    assert_eq!(before_online, before_batch);
    assert!(!before_online.aggregation.name_matches_known_malicious);

    let generation_before = shared.generation();
    assert!(service.flag_name(fresh.name()));
    assert_eq!(shared.generation(), generation_before + 1);

    // after: the one insert is visible to both paths — nothing was copied
    for record in world.platform.apps() {
        let online = service.features(record.id).unwrap();
        let batch = shared.with(|known, _| batch_features(&world, record.id, known));
        assert_eq!(
            online, batch,
            "post-flag feature drift for app {:?}",
            record.id
        );
    }
    assert!(
        service
            .features(fresh.id)
            .unwrap()
            .aggregation
            .name_matches_known_malicious
    );
}

#[test]
fn flagging_a_name_online_matches_batch_with_the_grown_set() {
    let world = run_scenario(&ScenarioConfig::small());
    let mut known = known_names(&world);
    let model = train_on_world(&world, &known);
    let service = service_from_world(&world, model, known.clone(), ServeConfig::default());

    // pick an app whose name is not yet on the collision list
    let fresh = world
        .platform
        .apps()
        .find(|r| !known.contains(r.name()))
        .expect("some app name is not yet known-malicious");

    assert!(service.flag_name(fresh.name()));
    known.insert(fresh.name()); // grow the batch set the same way

    for record in world.platform.apps() {
        let online = service.features(record.id).unwrap();
        let batch = batch_features(&world, record.id, &known);
        assert_eq!(
            online, batch,
            "post-growth feature drift for app {:?}",
            record.id
        );
    }
}
