//! Audit-log faithfulness: a linear-kernel explanation is not a story
//! *about* the verdict, it **is** the verdict — bias plus the per-feature
//! contributions must reconstruct the decision value exactly, for the
//! batch pipeline and for online serving alike.

use frappe::features::aggregation::{extract_aggregation, KnownMaliciousNames};
use frappe::features::on_demand::{extract_on_demand, OnDemandInput};
use frappe::{AppFeatures, FeatureSet, FrappeModel};
use frappe_lifecycle::{DriftConfig, DriftDetector, LifecycleManager, ModelSource, PromotionGate};
use frappe_obs::{AuditLog, AuditRecord, AuditSource};
use frappe_serve::{service_from_world, ServeConfig};
use osn_types::AppId;
use std::sync::Arc;
use svm::{Kernel, SvmParams};
use synth_workload::scenario::ScenarioWorld;
use synth_workload::{build_datasets, run_scenario, ScenarioConfig};

/// The reference batch extraction path (same as `serve_parity.rs`).
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

fn linear_model_on_world(
    world: &ScenarioWorld,
    known: &KnownMaliciousNames,
) -> (FrappeModel, Vec<AppFeatures>) {
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
    let model = FrappeModel::train(
        &samples,
        &labels,
        FeatureSet::Full,
        Some(SvmParams::with_kernel(Kernel::linear())),
    );
    (model, samples)
}

#[test]
fn batch_contributions_sum_to_decision_value() {
    let world = run_scenario(&ScenarioConfig::small());
    let known = known_names(&world);
    let (model, samples) = linear_model_on_world(&world, &known);

    for features in &samples {
        let explanation = model
            .explain(features)
            .expect("linear kernel always explains");
        let direct = model.decision_value(features);
        // explain() scores via the same code path, so the decision value
        // itself is bit-identical; the contribution sum only reassociates
        // floating-point terms.
        assert_eq!(explanation.decision_value, direct);
        assert_eq!(explanation.malicious, model.predict(features));
        let sum = explanation.contribution_sum();
        assert!(
            (sum - direct).abs() <= 1e-9 * direct.abs().max(1.0),
            "contribution sum {sum} drifts from decision value {direct} for {:?}",
            features.app
        );
    }
}

#[test]
fn online_audit_records_reconstruct_every_fresh_verdict() {
    let world = run_scenario(&ScenarioConfig::small());
    let known = known_names(&world);
    let (model, _) = linear_model_on_world(&world, &known);
    let service = Arc::new(service_from_world(
        &world,
        model,
        known,
        ServeConfig::default(),
    ));

    // The audit sink hangs off the lifecycle manager's observer, which
    // sees every verdict the service answers.
    let manager = LifecycleManager::new(
        Arc::clone(&service),
        ModelSource::default(),
        PromotionGate::default(),
        DriftDetector::new(DriftConfig::default()),
    );
    let apps = service.tracked_apps();
    let log = Arc::new(AuditLog::new(apps.len()));
    manager.set_audit_log(Arc::clone(&log));

    let mut verdicts = std::collections::BTreeMap::new();
    for &app in &apps {
        let verdict = service.classify(app).expect("tracked app");
        verdicts.insert(verdict.app.raw(), verdict);
    }

    let records = log.snapshot();
    assert_eq!(
        records.len(),
        apps.len(),
        "every first classify is a cache miss and must be audited"
    );
    for record in &records {
        assert_eq!(record.source, AuditSource::Online);
        let verdict = &verdicts[&record.app];
        // The audit path scores the same scaled vector through the same
        // kernel loop, so these agree exactly — not approximately.
        assert_eq!(record.decision_value, verdict.decision_value);
        assert_eq!(record.malicious, verdict.malicious);
        assert_eq!(record.generation, Some(verdict.generation));
        assert!(
            record.is_consistent(1e-9),
            "contribution sum {} drifts from decision value {} for app {}",
            record.contribution_sum(),
            record.decision_value,
            record.app
        );
    }

    // cache hits replay an audited score and must not re-emit
    for &app in &apps {
        let _ = service.classify(app).expect("tracked app");
    }
    assert_eq!(log.snapshot().len(), apps.len());
}

#[test]
fn audit_records_roundtrip_through_jsonl() {
    let world = run_scenario(&ScenarioConfig::small());
    let known = known_names(&world);
    let (model, samples) = linear_model_on_world(&world, &known);

    let log = AuditLog::default();
    for features in samples.iter().take(8) {
        let explanation = model.explain(features).expect("linear kernel");
        log.record(explanation.into_audit_record(AuditSource::Batch, None));
    }
    let jsonl = log.to_jsonl();
    let parsed: Vec<AuditRecord> = jsonl
        .lines()
        .map(|line| serde_json::from_str(line).expect("each line is one record"))
        .collect();
    assert_eq!(parsed, log.snapshot());
    assert!(parsed.iter().all(|r| r.source == AuditSource::Batch));
    assert!(parsed.iter().all(|r| r.is_consistent(1e-9)));
}
