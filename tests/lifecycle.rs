//! End-to-end lifecycle: a running service retrains behind itself.
//!
//! The scenarios here are the crate's acceptance criteria in executable
//! form:
//!
//! * a retrained candidate shadow-scores live traffic, passes the
//!   promotion gate, and takes over **mid-sweep** with zero stale
//!   verdicts (every post-swap verdict carries the new model version and
//!   is freshly scored);
//! * rollback restores the previous version at a *new* epoch, so
//!   pre-rollback verdicts are dead too;
//! * the drift detector fires on the drifting-campaign scenario and
//!   stays quiet on a stationary re-draw of the training world;
//! * checkpoints of real trained models round-trip byte-identically on a
//!   fresh temp dir, with bit-equal decisions, and truncated or legacy
//!   `rff`-carrying checkpoints are refused with a typed error;
//! * retraining is bit-identical across `frappe-jobs` pool sizes.

use std::collections::HashSet;
use std::sync::Arc;

use frappe::features::aggregation::KnownMaliciousNames;
use frappe::{AppFeatures, FrappeModel};
use frappe_jobs::JobPool;
use frappe_lifecycle::{
    load_model, parse_model, retrain_on, save_model, write_model, CheckpointError, DriftConfig,
    DriftDetector, LifecycleManager, ModelSource, PromotionGate, PromotionOutcome, RetrainConfig,
};
use frappe_serve::{serve_events, FeatureStore, FrappeService, ServeConfig};
use osn_types::ids::AppId;
use synth_workload::scenario::ScenarioWorld;
use synth_workload::{drifting_config, run_scenario, stationary_config, ScenarioConfig};

/// Known-malicious name list from the world's ground truth (the
/// PageKeeper vantage the lifecycle loop consumes).
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

/// Labelled feature rows for every app in the world, computed through
/// the same incremental store the service uses (no service needed — this
/// is how a retraining driver would assemble its batch).
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

/// Stands up a service over a world, returning it with the incumbent's
/// lineage for the manager's registry.
fn lifecycle_stack(
    world: &ScenarioWorld,
    incumbent: FrappeModel,
    known: KnownMaliciousNames,
) -> (Arc<FrappeService>, ModelSource) {
    let source = ModelSource {
        seed: world.config.seed,
        training_size: 0,
        ..ModelSource::default()
    };
    let service = Arc::new(FrappeService::new(
        incumbent,
        known,
        world.shortener.clone(),
        ServeConfig::default(),
    ));
    for event in serve_events(world) {
        service.ingest(&event);
    }
    (service, source)
}

#[test]
fn shadow_promote_and_rollback_serve_no_stale_verdicts() {
    let world = run_scenario(&ScenarioConfig::small());
    let known = known_names(&world);
    let (samples, labels) = labelled_rows(&world, &known);
    let apps: Vec<AppId> = samples.iter().map(|s| s.app).collect();

    // Incumbent trained on a stale half of the batch (every other row —
    // tracked apps are ID-sorted, so a prefix would be single-class);
    // the candidate gets all of it.
    let half_samples: Vec<AppFeatures> = samples.iter().step_by(2).cloned().collect();
    let half_labels: Vec<bool> = labels.iter().step_by(2).copied().collect();
    let incumbent = FrappeModel::train(&half_samples, &half_labels, frappe::FeatureSet::Full, None);
    let (service, source) = lifecycle_stack(&world, incumbent, known);
    let manager = LifecycleManager::new(
        Arc::clone(&service),
        source,
        PromotionGate {
            min_scored: 100,
            ..PromotionGate::default()
        },
        DriftDetector::new(DriftConfig::default()),
    );
    manager.refit_drift_baseline(&half_samples);

    // Sweep 1: incumbent serves; no shadow yet. The manager observes
    // every query the service answers.
    for &app in &apps {
        let verdict = service.classify(app).expect("tracked app");
        assert_eq!(verdict.model_version, 1);
    }
    assert!(manager.shadow_report().is_none());
    assert_eq!(manager.try_promote(), PromotionOutcome::NoShadow);

    // Retrain on the full labelled batch and start shadowing it.
    let outcome = retrain_on(
        &JobPool::with_threads(2),
        &samples,
        &labels,
        &RetrainConfig::default(),
    );
    assert!(
        outcome.cv.accuracy > 0.9,
        "cv accuracy {}",
        outcome.cv.accuracy
    );
    let candidate = manager.begin_shadow(Arc::new(outcome.model.clone()), outcome.source(Some(1)));
    assert_eq!(candidate, 2);

    // Sweep 2: labels have arrived; the shadow mirrors every query.
    for (&app, &label) in apps.iter().zip(&labels) {
        manager.record_label(app, label);
    }
    for &app in &apps {
        service.classify(app).expect("tracked app");
    }
    let report = manager.shadow_report().expect("shadow riding along");
    assert_eq!(report.scored, apps.len() as u64);
    assert!(
        report.disagreement_rate() <= 0.05,
        "candidate diverged: {}",
        report.disagreement_rate()
    );

    // Sweep 3, with a promotion MID-SWEEP: the first chunk is served by
    // v1, then the gate passes and every later verdict must be v2 —
    // including re-queries of apps scored seconds ago under v1.
    let before = service.metrics();
    let (first, rest) = apps.split_at(apps.len() / 3);
    for &app in first {
        assert_eq!(service.classify(app).unwrap().model_version, 1);
    }
    let promoted = manager.try_promote();
    assert_eq!(promoted, PromotionOutcome::Promoted(2));
    assert!(manager.shadow_report().is_none(), "slot cleared on promote");
    for &app in rest {
        let verdict = service.classify(app).expect("tracked app");
        assert_eq!(verdict.model_version, 2, "stale verdict after swap");
        assert_eq!(
            verdict.decision_value,
            outcome
                .model
                .decision_value(&service.features(app).unwrap()),
            "post-swap verdicts come from the candidate, bit-exactly"
        );
    }
    for &app in first {
        assert_eq!(
            service.classify(app).unwrap().model_version,
            2,
            "pre-swap cache entry served after the swap"
        );
    }
    let after = service.metrics();
    assert_eq!(after.model_swaps, before.model_swaps + 1);
    assert_eq!(after.model_version, 2);
    assert_eq!(
        after.cache_misses - before.cache_misses,
        apps.len() as u64,
        "every app was rescored exactly once after the swap — \
         no stale hits, no redundant misses"
    );

    // Rollback: v1 serves again, at a new epoch — nothing cached under
    // v2 (or under v1's earlier epoch) survives.
    let rolled = manager.rollback().expect("history has v1");
    assert_eq!(rolled, 1);
    assert_eq!(manager.registry().active_version(), 1);
    let miss_floor = service.metrics().cache_misses;
    for &app in &apps {
        assert_eq!(service.classify(app).unwrap().model_version, 1);
    }
    assert_eq!(
        service.metrics().cache_misses - miss_floor,
        apps.len() as u64
    );
    assert_eq!(service.metrics().model_swaps, before.model_swaps + 2);

    // Lifecycle counters surfaced on the service's own obs registry.
    let obs = service.obs_registry();
    assert_eq!(obs.counter("lifecycle_promotions").get(), 1);
    assert_eq!(obs.counter("lifecycle_rollbacks").get(), 1);
    // The shadow mirrored all of sweep 2 plus sweep 3's pre-promotion
    // chunk; after promotion the slot is gone and nothing mirrors.
    assert_eq!(
        obs.counter("lifecycle_shadow_scored").get(),
        (apps.len() + first.len()) as u64
    );
    assert_eq!(obs.gauge("lifecycle_active_version").get(), 1);
}

#[test]
fn drift_fires_on_the_drifting_campaign_and_stays_quiet_when_stationary() {
    let base_world = run_scenario(&stationary_config(42));
    let base_known = known_names(&base_world);
    let (base_rows, _) = labelled_rows(&base_world, &base_known);

    let mut detector = DriftDetector::new(DriftConfig::default());
    detector.fit_baseline(&base_rows);

    // Stationary control: the same population re-drawn under a new seed.
    let quiet_world = run_scenario(&stationary_config(4242));
    let quiet_known = known_names(&quiet_world);
    let (quiet_rows, _) = labelled_rows(&quiet_world, &quiet_known);
    for row in &quiet_rows {
        detector.observe(row);
    }
    let quiet = detector.report();
    assert!(quiet.window_samples >= 100);
    assert!(
        !quiet.is_drifted(),
        "stationary re-draw fired on {:?} (max PSI {})",
        quiet.drifted,
        quiet.max_psi()
    );

    // The §7 adaptation: summary-filling campaign surge.
    detector.reset_window();
    let drift_world = run_scenario(&drifting_config(4242));
    let drift_known = known_names(&drift_world);
    let (drift_rows, _) = labelled_rows(&drift_world, &drift_known);
    for row in &drift_rows {
        detector.observe(row);
    }
    let drifted = detector.report();
    assert!(
        drifted.is_drifted(),
        "drifting campaign went unnoticed (max PSI {})",
        drifted.max_psi()
    );
    assert!(
        drifted.max_psi() > quiet.max_psi() * 3.0,
        "signal ({}) should dwarf the stationary noise floor ({})",
        drifted.max_psi(),
        quiet.max_psi()
    );
}

#[test]
fn checkpoints_roundtrip_byte_identically_on_a_fresh_temp_dir() {
    let world = run_scenario(&ScenarioConfig::small());
    let known = known_names(&world);
    let (samples, labels) = labelled_rows(&world, &known);
    let model = FrappeModel::train(&samples, &labels, frappe::FeatureSet::Full, None);

    let dir = std::env::temp_dir().join(format!("frappe-lifecycle-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.ckpt");
    save_model(&path, &model).unwrap();
    let reloaded = load_model(&path).unwrap();

    // save → load → save is byte-identical…
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(write_model(&reloaded), text);
    assert_eq!(write_model(&model), text);

    // …and decisions are bit-equal on every app in the world.
    for row in &samples {
        assert_eq!(
            model.decision_value(row).to_bits(),
            reloaded.decision_value(row).to_bits()
        );
    }

    // A checkpoint written under a different catalog is refused.
    let hash = frappe::catalog::schema_hash();
    let tampered = text.replacen(
        &format!("schema {hash:016x}"),
        &format!("schema {:016x}", hash ^ 1),
        1,
    );
    assert!(matches!(
        parse_model(&tampered),
        Err(CheckpointError::SchemaMismatch { .. })
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Checkpoints written before the random-Fourier scorer was removed may
/// carry an `rff` section after the support vectors. Loading one is a
/// typed refusal that names the section's line — never a silent skip.
#[test]
fn legacy_rff_checkpoint_sections_are_refused_with_a_parse_error() {
    let world = run_scenario(&ScenarioConfig::small());
    let known = known_names(&world);
    let (samples, labels) = labelled_rows(&world, &known);
    let model = FrappeModel::train(&samples, &labels, frappe::FeatureSet::Full, None);
    let text = write_model(&model);
    let body = text
        .strip_suffix("end\n")
        .expect("checkpoints end with the marker");

    // A minimal legacy section: header plus one Fourier feature row.
    let dim = frappe::FeatureSet::Full.dim();
    let one = format!("{:016x}", 1.0f64.to_bits());
    let row = vec![one.as_str(); dim + 2].join(" ");
    let legacy = format!("{body}rff 1 {dim} 4104822287 {one} {one}\n{row}\nend\n");
    let rff_line = body.lines().count() + 1;
    match parse_model(&legacy) {
        Err(CheckpointError::Parse { line, what }) => {
            assert_eq!(line, rff_line, "names the `rff` line");
            assert!(what.contains("no longer supported"), "{what}");
        }
        other => panic!("expected a Parse error, got {other:?}"),
    }
}

/// A checkpoint cut short at any line boundary is a typed error, never a
/// partial load: every section's count is checked against the lines that
/// actually follow it.
#[test]
fn real_checkpoints_truncated_at_any_line_boundary_fail_to_load() {
    let world = run_scenario(&ScenarioConfig::small());
    let known = known_names(&world);
    let (samples, labels) = labelled_rows(&world, &known);
    let model = FrappeModel::train(&samples, &labels, frappe::FeatureSet::Full, None);
    let text = write_model(&model);
    let lines: Vec<&str> = text.lines().collect();
    for keep in 0..lines.len() {
        let truncated: String = lines[..keep].iter().map(|l| format!("{l}\n")).collect();
        assert!(
            parse_model(&truncated).is_err(),
            "loaded a checkpoint cut after {keep} of {} lines",
            lines.len()
        );
    }
    assert!(parse_model(&text).is_ok());
}

#[test]
fn lifecycle_transitions_flag_in_flight_traces_and_drift_alarms_carry_exemplars() {
    use frappe_obs::{TraceCollector, TraceConfig, TraceFlag};

    // Service over the drifting-campaign world; drift baseline frozen on
    // a stationary draw, so `check_drift` genuinely fires (same signal
    // the detector-level test proves).
    let base_world = run_scenario(&stationary_config(42));
    let (base_rows, _) = labelled_rows(&base_world, &known_names(&base_world));

    let world = run_scenario(&drifting_config(4242));
    let known = known_names(&world);
    let (samples, labels) = labelled_rows(&world, &known);
    let apps: Vec<AppId> = samples.iter().map(|s| s.app).collect();
    let incumbent = FrappeModel::train(&samples, &labels, frappe::FeatureSet::Full, None);
    let (service, source) = lifecycle_stack(&world, incumbent.clone(), known);

    // Tail-only sampling: nothing is kept unless something flags it.
    let collector = TraceCollector::new(TraceConfig {
        head_every: 0,
        slow_us: 0,
        ..TraceConfig::default()
    });
    service.set_trace_collector(collector.clone());

    let manager = LifecycleManager::new(
        Arc::clone(&service),
        source,
        // The gate is not under test here — let everything through.
        PromotionGate {
            min_scored: 10,
            max_disagreement_rate: 1.0,
            max_false_positive_increase: 1.0,
            max_false_negative_increase: 1.0,
        },
        DriftDetector::new(DriftConfig {
            min_samples: 10,
            ..DriftConfig::default()
        }),
    );
    manager.refit_drift_baseline(&base_rows);
    manager.begin_shadow(Arc::new(incumbent), ModelSource::default());
    for &app in apps.iter().take(50) {
        service.classify(app).expect("tracked app");
    }

    // A request whose trace is still open when the promote lands is
    // flagged (and therefore tail-sampled) even with head sampling off.
    // The trace stays open across the transition the way the edge's
    // request trace does until its response is written.
    let in_flight = collector.begin("classify");
    service
        .classify_traced(apps[0], Some((in_flight.clone(), None)))
        .expect("tracked app");
    assert_eq!(manager.try_promote(), PromotionOutcome::Promoted(2));
    in_flight.finish("ok");

    let in_flight = collector.begin("classify");
    service
        .classify_traced(apps[1], Some((in_flight.clone(), None)))
        .expect("tracked app");
    let rolled = manager.rollback().expect("history has v1");
    assert_eq!(rolled, 1);
    in_flight.finish("ok");

    let kept = collector.snapshot();
    let swap = kept
        .iter()
        .find(|t| t.has_flag(TraceFlag::InFlightSwap))
        .expect("the promote-straddling trace is always kept");
    assert!(
        swap.events.iter().any(|e| e.name == "lifecycle/promote"),
        "the trace records the transition it straddled: {:?}",
        swap.events
    );
    let rollback = kept
        .iter()
        .find(|t| t.has_flag(TraceFlag::InFlightRollback))
        .expect("the rollback-straddling trace is always kept");
    assert!(rollback
        .events
        .iter()
        .any(|e| e.name == "lifecycle/rollback"));

    // Drift over the stationary baseline fires, and the alarm carries
    // exemplar trace ids pointing at recently kept traces.
    let report = manager.check_drift();
    assert!(report.is_drifted(), "max PSI {}", report.max_psi());
    let alarms = collector.alarms();
    assert_eq!(alarms.len(), 1);
    assert_eq!(alarms[0].name, "psi_drift");
    assert!(alarms[0].detail.starts_with("max_psi="));
    assert!(
        alarms[0].exemplar_trace_ids.contains(&swap.id),
        "exemplars point at kept traces: {:?}",
        alarms[0].exemplar_trace_ids
    );
    assert_eq!(
        service
            .obs_registry()
            .counter("lifecycle_drift_triggers")
            .get(),
        1
    );
}

#[test]
fn retraining_is_bit_identical_across_pool_sizes() {
    let world = run_scenario(&ScenarioConfig::small());
    let known = known_names(&world);
    let (samples, labels) = labelled_rows(&world, &known);
    let config = RetrainConfig::default();
    let a = retrain_on(&JobPool::with_threads(1), &samples, &labels, &config);
    let b = retrain_on(&JobPool::with_threads(8), &samples, &labels, &config);
    assert_eq!(write_model(&a.model), write_model(&b.model));
    assert_eq!(a.cv, b.cv);

    // And the batch itself is a real two-class problem, not a degenerate
    // pass: both labels present in bulk.
    let classes: HashSet<bool> = labels.iter().copied().collect();
    assert_eq!(classes.len(), 2);
}
