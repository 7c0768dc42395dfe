//! Live triage: FRAppE as the always-on service of §8.
//!
//! Stands `frappe-serve` up over a small synthetic world, streams the
//! world's observation history through it, and triages every app the
//! monitor ever saw — printing verdicts as an analyst would consume them,
//! then the service's own metrics.
//!
//! Run with: `cargo run --release --example live_triage`

use frappe::features::aggregation::{extract_aggregation, KnownMaliciousNames};
use frappe::features::on_demand::{extract_on_demand, OnDemandInput};
use frappe::{AppFeatures, FeatureSet, FrappeModel};
use frappe_serve::{serve_events, FrappeService, ServeConfig};
use osn_types::AppId;
use synth_workload::scenario::ScenarioWorld;
use synth_workload::{build_datasets, run_scenario, ScenarioConfig};

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

fn main() {
    println!("=== FRAppE live triage ===\n");

    // 1. A world to monitor, and a model trained offline on its labelled
    //    sample — the serving layer never trains, it only scores.
    let world = run_scenario(&ScenarioConfig::small());
    let bundle = build_datasets(&world);
    let known = KnownMaliciousNames::from_names(
        bundle
            .d_sample
            .malicious
            .iter()
            .filter_map(|&a| world.platform.app(a))
            .map(|r| r.name().to_string()),
    );
    let mut samples = Vec::new();
    let mut labels = Vec::new();
    for &a in &bundle.d_sample.malicious {
        samples.push(batch_features(&world, a, &known));
        labels.push(true);
    }
    for &a in &bundle.d_sample.benign {
        samples.push(batch_features(&world, a, &known));
        labels.push(false);
    }
    let model = FrappeModel::train(&samples, &labels, FeatureSet::Full, None);
    println!(
        "offline: trained FRAppE Full on {} labelled apps ({} support vectors)",
        samples.len(),
        model.support_vector_count()
    );

    // 2. Stand the service up and stream the world's history through it.
    let service = FrappeService::new(
        model,
        known,
        world.shortener.clone(),
        ServeConfig::default(),
    );
    let events = serve_events(&world);
    println!(
        "online:  streaming {} events into the service...",
        events.len()
    );
    for event in &events {
        service.ingest(event);
    }

    // 3. Triage every app the monitor ever saw.
    let mut flagged: Vec<(f64, AppId)> = Vec::new();
    for app in service.tracked_apps() {
        let verdict = service.classify(app).expect("tracked app");
        if verdict.malicious {
            flagged.push((verdict.decision_value, app));
        }
    }
    flagged.sort_by(|a, b| b.0.total_cmp(&a.0));

    let hits = flagged
        .iter()
        .filter(|(_, app)| world.truth.malicious.contains(app))
        .count();
    println!(
        "\nflagged {} of {} tracked apps as malicious ({} confirmed by ground truth, precision {:.1}%)",
        flagged.len(),
        service.tracked_apps().len(),
        hits,
        100.0 * hits as f64 / flagged.len().max(1) as f64
    );

    println!("\nworst offenders (by SVM decision value):");
    for (decision, app) in flagged.iter().take(10) {
        let name = world.platform.app(*app).map(|r| r.name()).unwrap_or("?");
        let truth = if world.truth.malicious.contains(app) {
            "malicious"
        } else {
            "benign (!)"
        };
        println!("  {decision:+.3}  {app:?}  {name:40}  truth: {truth}");
    }

    // 4. Feed the flagged names back: look-alikes registered later are
    //    caught by the collision feature immediately (§4.2.1).
    let mut new_names = 0usize;
    for (_, app) in &flagged {
        if let Some(record) = world.platform.app(*app) {
            if service.flag_name(record.name()) {
                new_names += 1;
            }
        }
    }
    println!("\nfed {new_names} newly-flagged names back into the collision list");

    // 5. The service's own view of the session.
    let metrics = service.metrics();
    println!(
        "\nmetrics: {}",
        serde_json::to_string_pretty(&metrics).expect("metrics serialize")
    );
}
