//! The round engine: one attacker against one defended deployment.
//!
//! [`run_spec_on`] stands up the full serving + lifecycle stack from a
//! spec's given-clause, lets the attack's [`Strategy`](crate::Strategy)
//! play `when.rounds` rounds against it, and judges the then-clause
//! over the recorded [`ScenarioReport`]. One round is:
//!
//! ```text
//! feedback (last round's verdicts on the attacker's own apps)
//!   → strategy.plan_round → expand to events (ordered pool fan-out)
//!   → ingest → classification sweep (sorted app order; labels were
//!     recorded once, so every query feeds drift and the shadow tally)
//!   → verified name flagging → check_drift
//!   → [drifted?] retrain on tracked rows → begin_shadow
//!   → try_promote → [promoted?] drift baseline ← candidate's rows
//!   → window reset against the serving model's training baseline
//! ```
//!
//! Determinism: the only parallelism is `frappe_jobs` ordered fan-out
//! (traffic expansion, retraining CV folds), both bit-identical at any
//! pool size; every iteration the engine does itself is over sorted
//! ids or plan order; and the report carries no wall-clock or thread
//! state. Same spec → byte-identical canonical JSON at `FRAPPE_JOBS=1`
//! and `=8`.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use frappe::features::aggregation::KnownMaliciousNames;
use frappe::AppFeatures;
use frappe_jobs::JobPool;
use frappe_lifecycle::{
    retrain_on, DriftConfig, DriftDetector, LifecycleManager, PromotionOutcome, RetrainConfig,
};
use frappe_serve::{FeatureStore, FrappeService, ServeConfig, ServeEvent};
use osn_types::ids::AppId;
use url_services::Shortener;

use crate::report::{Outcome, RoundRecord, ScenarioReport};
use crate::spec::ScenarioSpec;
use crate::strategies::strategy_for;
use crate::strategy::{AppAction, Feedback};
use crate::traffic;

/// Runs `spec` with a pool sized by the `FRAPPE_JOBS` environment
/// variable (see [`JobPool::from_env`]).
pub fn run_spec(spec: &ScenarioSpec) -> ScenarioReport {
    run_spec_on(&JobPool::from_env(), spec)
}

/// Runs `spec` on an explicit pool. The returned report's canonical
/// JSON is byte-identical for any pool size.
pub fn run_spec_on(pool: &JobPool, spec: &ScenarioSpec) -> ScenarioReport {
    let g = &spec.given;
    let shortener = Shortener::bitly();

    // --- Given: bootstrap population, incumbent model, defended stack.
    let bootstrap = traffic::bootstrap_events(pool, g.seed, g.benign_apps, g.training_malicious);
    let known = KnownMaliciousNames::from_names(traffic::known_name_pool(g.training_malicious));
    // Assemble the incumbent's training batch through the same
    // incremental store the service uses (the tests/lifecycle.rs idiom).
    let store = FeatureStore::new(4);
    for event in &bootstrap {
        store.apply(event, &shortener);
    }
    let mut samples: Vec<AppFeatures> = Vec::new();
    let mut labels: Vec<bool> = Vec::new();
    for app in store.tracked_apps() {
        let snap = store.snapshot(app, &known).expect("tracked app has state");
        samples.push(snap.features);
        labels.push(app.0 > g.benign_apps as u64);
    }
    let incumbent = retrain_on(
        pool,
        &samples,
        &labels,
        &RetrainConfig {
            seed: g.seed,
            ..RetrainConfig::default()
        },
    );
    let service = Arc::new(FrappeService::new(
        incumbent.model.clone(),
        known,
        shortener,
        ServeConfig::default(),
    ));
    for event in &bootstrap {
        service.ingest(event);
    }
    // The training-time malicious apps are enforced (deleted) before
    // round 1: the incumbent learned from them, but only the attacker's
    // own apps are ever swept again.
    for i in 0..g.training_malicious {
        let app = AppId(1 + (g.benign_apps + i) as u64);
        service.ingest(&ServeEvent::Deleted { app });
    }
    let manager = LifecycleManager::new(
        Arc::clone(&service),
        incumbent.source(None),
        g.gate,
        DriftDetector::new(DriftConfig {
            psi_threshold: g.psi_threshold,
            min_samples: g.drift_min_samples,
        }),
    );
    manager.refit_drift_baseline(&samples);
    // Ground truth is recorded once per app: the benign population now,
    // each attacker app when it registers. The shadow tally reads it on
    // every query the service answers.
    let benign: Vec<AppId> = (1..=g.benign_apps as u64).map(AppId).collect();
    for &app in &benign {
        manager.record_label(app, false);
    }

    // --- When: the adaptive rounds.
    let first_attacker_id = (g.benign_apps + g.training_malicious + 1) as u64;
    let mut strategy = strategy_for(&spec.when.attack, g.seed, first_attacker_id);
    let mut live: BTreeSet<AppId> = BTreeSet::new();
    let mut names: BTreeMap<AppId, String> = BTreeMap::new();
    let mut prev_verdicts: BTreeMap<AppId, bool> = BTreeMap::new();
    // Rows the serving model was trained on — the drift baseline. The
    // window is re-zeroed against it every round, so each round's PSI
    // reads "this round's population vs. the incumbent's training
    // population".
    let mut baseline_rows = samples;
    let mut candidate_rows: Option<Vec<AppFeatures>> = None;

    let mut rounds: Vec<RoundRecord> = Vec::new();
    let mut first_drift_round: Option<u32> = None;
    let mut promoted_round: Option<u32> = None;
    let mut appnet_edges: Vec<(u64, u64)> = Vec::new();

    for round in 1..=spec.when.rounds {
        // 1. The attacker observes its verdicts and plans.
        let feedback = Feedback {
            round,
            flagged: std::mem::take(&mut prev_verdicts),
        };
        let plan = strategy.plan_round(&feedback);
        for action in &plan.actions {
            match action {
                AppAction::Register { app, spec } => {
                    manager.record_label(*app, true);
                    live.insert(*app);
                    names.insert(*app, spec.name.clone());
                }
                AppAction::Retire { app } => {
                    live.remove(app);
                }
                AppAction::PromotePeer { promoter, target } => {
                    appnet_edges.push((promoter.0, target.0));
                }
                AppAction::Recrawl { .. } | AppAction::PostBurst { .. } => {}
            }
        }

        // 2. Plan + benign background chatter become serving events.
        let mut events = traffic::expand_actions(pool, g.seed, round, &plan.actions);
        events.extend(traffic::benign_background(
            pool,
            g.seed,
            round,
            g.benign_apps,
        ));
        for event in &events {
            service.ingest(event);
        }

        // 3. Classification sweep, sorted order: benign population
        // first, then the attacker's live apps. Every query feeds the
        // drift window and (when riding) the shadow.
        let mut false_positives = 0usize;
        for &app in &benign {
            let verdict = service.classify(app).expect("bootstrap apps stay tracked");
            if verdict.malicious {
                false_positives += 1;
            }
        }
        let mut attacker_flagged = 0usize;
        let mut names_flagged = 0usize;
        for &app in &live {
            let verdict = service
                .classify(app)
                .expect("registered attacker apps are tracked");
            prev_verdicts.insert(app, verdict.malicious);
            if verdict.malicious {
                attacker_flagged += 1;
                // Verified flagging (the MyPageKeeper step): the name
                // joins the known-malicious list only when ground truth
                // agrees with the verdict.
                if g.flag_verified_names {
                    if let Some(name) = names.get(&app) {
                        if service.flag_name(name) {
                            names_flagged += 1;
                        }
                    }
                }
            }
        }

        // 4. Drift check, and the defender's reaction to it.
        let drift = manager.check_drift();
        let drift_fired = drift.is_drifted();
        if drift_fired && first_drift_round.is_none() {
            first_drift_round = Some(round);
        }
        let mut retrained = false;
        if drift_fired && g.retrain_on_drift && manager.shadow_report().is_none() {
            // The retraining batch is the population actually being
            // served — the benign apps plus the attacker's live apps,
            // with PageKeeper-vantage ground-truth labels. (Tombstoned
            // apps are excluded: rows that can never be queried again
            // would only skew the candidate and its drift baseline.)
            let mut batch: Vec<AppFeatures> = Vec::new();
            let mut batch_labels: Vec<bool> = Vec::new();
            for &app in benign.iter().chain(live.iter()) {
                if let Some(features) = service.features(app) {
                    batch.push(features);
                    batch_labels.push(app.0 > g.benign_apps as u64);
                }
            }
            let outcome = retrain_on(
                pool,
                &batch,
                &batch_labels,
                &RetrainConfig {
                    seed: g.seed ^ u64::from(round),
                    ..RetrainConfig::default()
                },
            );
            let parent = manager.registry().active_version();
            manager.begin_shadow(
                Arc::new(outcome.model.clone()),
                outcome.source(Some(parent)),
            );
            candidate_rows = Some(batch);
            retrained = true;
        }
        let mut promoted_version = None;
        let mut gate_holds = Vec::new();
        match manager.try_promote() {
            PromotionOutcome::Promoted(version) => {
                promoted_version = Some(version);
                promoted_round = Some(round);
                if let Some(rows) = candidate_rows.take() {
                    // The candidate now serves: its training rows are
                    // the new normal the window is judged against.
                    baseline_rows = rows;
                }
            }
            PromotionOutcome::Held(holds) => gate_holds = holds,
            PromotionOutcome::NoShadow => {}
        }
        let shadow_riding = manager.shadow_report().is_some();

        // 5. Record the round and re-zero the window for the next one.
        let attacker_live = live.len();
        let detection_rate = if attacker_live == 0 {
            1.0
        } else {
            attacker_flagged as f64 / attacker_live as f64
        };
        rounds.push(RoundRecord {
            round,
            attacker_live,
            attacker_flagged,
            detection_rate,
            benign_scored: benign.len(),
            false_positives,
            fp_rate: false_positives as f64 / benign.len().max(1) as f64,
            fn_rate: 1.0 - detection_rate,
            max_psi: drift.max_psi(),
            drifted_lanes: drift.drifted.iter().map(|k| (*k).to_string()).collect(),
            drift_fired,
            retrained,
            shadow_riding,
            gate_holds,
            promoted_version,
            events_ingested: events.len(),
            names_flagged,
        });
        manager.refit_drift_baseline(&baseline_rows);
    }

    // --- Then: judge the record against the declared criteria.
    let mut report = ScenarioReport {
        scenario: spec.name.clone(),
        seed: g.seed,
        spec: spec.clone(),
        rounds,
        first_drift_round,
        promoted_round,
        appnet_edges,
        outcome: Outcome {
            passed: false,
            failures: Vec::new(),
        },
    };
    report.outcome = report.judge(spec);
    report
}
