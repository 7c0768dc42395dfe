//! The benchmark's inputs, built from `--seed` before anything is timed.
//!
//! A synthetic world at the configured scale (the world seed replaced by
//! `--seed`) yields the serving event stream and the labelled D-Sample
//! apps. A bench-owned [`FeatureStore`] fed the whole stream supplies the
//! training rows (serve parity pins it bit-identical to batch
//! extraction) and is the serial reference every final verdict is
//! checked against.

use std::collections::BTreeSet;

use frappe::features::aggregation::KnownMaliciousNames;
use frappe::{AppFeatures, FrappeModel};
use frappe_jobs::JobPool;
use frappe_lifecycle::{retrain_on, write_model, RetrainConfig};
use frappe_serve::{serve_events, FeatureStore, ServeEvent};
use osn_types::ids::AppId;
use synth_workload::{build_datasets, run_scenario, ScenarioConfig};

/// Events per NDJSON ingest post.
pub const BATCH_EVENTS: usize = 100;

/// Threads of the retraining pool (the machine the benchmark was sized
/// on has two).
pub const RETRAIN_THREADS: usize = 2;

/// A labelled training set.
pub struct Labelled {
    /// Feature rows.
    pub rows: Vec<AppFeatures>,
    /// `true` = malicious, one per row.
    pub labels: Vec<bool>,
}

impl Labelled {
    /// Every second row of each class: a smaller set with both classes.
    pub fn half(&self) -> Labelled {
        let mut taken = [0usize; 2];
        let (rows, labels) = self
            .rows
            .iter()
            .zip(&self.labels)
            .filter(|(_, &label)| {
                taken[usize::from(label)] += 1;
                taken[usize::from(label)] % 2 == 1
            })
            .map(|(row, &label)| (*row, label))
            .unzip();
        Labelled { rows, labels }
    }
}

/// A model trained by the lifecycle layer, with its checkpoint text —
/// the byte form retrain determinism is checked on.
pub struct Trained {
    /// The model.
    pub model: FrappeModel,
    /// `write_model` of it.
    pub checkpoint: String,
}

/// Trains `set` with `retrain_on` on the benchmark's pool.
pub fn retrain(set: &Labelled) -> Trained {
    let outcome = retrain_on(
        &JobPool::with_threads(RETRAIN_THREADS),
        &set.rows,
        &set.labels,
        &RetrainConfig::default(),
    );
    let checkpoint = write_model(&outcome.model);
    Trained {
        model: outcome.model,
        checkpoint,
    }
}

/// Everything a workload needs, derived from one seed.
pub struct Inputs {
    /// The whole serving event stream, in arrival order.
    pub events: Vec<ServeEvent>,
    /// Index of the first tail event: priming for the mixed workloads is
    /// `events[..half]`, and the tail is what they post during the window.
    pub half: usize,
    /// The world's link shortener (the service resolves short links at
    /// ingest exactly as the batch extractor did).
    pub shortener: url_services::shortener::Shortener,
    /// Known-malicious names: the labelled malicious apps' names.
    pub known: KnownMaliciousNames,
    /// D-Sample rows read from the reference store.
    pub full: Labelled,
    /// Every second row of each class of `full`.
    pub half_set: Labelled,
    /// Model trained on `full` — the serving model at start.
    pub model_full: Trained,
    /// Model trained on `half_set`.
    pub model_half: Trained,
    /// Whether retraining `full` again reproduced `model_full`'s
    /// checkpoint byte for byte.
    pub retrain_deterministic: bool,
    /// The serial reference store, fed the whole stream.
    pub reference: FeatureStore,
    /// Apps tracked after priming the first half, sorted: the classify
    /// population of every socket workload.
    pub population: Vec<u64>,
}

impl Inputs {
    /// Builds the inputs for `config` (its seed already set).
    pub fn prepare(config: &ScenarioConfig) -> Inputs {
        let world = run_scenario(config);
        let bundle = build_datasets(&world);
        let events = serve_events(&world);
        let known = KnownMaliciousNames::from_names(
            bundle
                .d_sample
                .malicious
                .iter()
                .filter_map(|&app| world.platform.app(app))
                .map(|record| record.name().to_string()),
        );
        let shortener = world.shortener.clone();
        drop(world);

        let reference = FeatureStore::new(4);
        for event in &events {
            reference.apply(event, &shortener);
        }
        let row = |app: &AppId| {
            reference
                .snapshot(*app, &known)
                .expect("every labelled app posted, so the stream tracks it")
                .features
        };
        let sample = &bundle.d_sample;
        let full = Labelled {
            rows: sample
                .malicious
                .iter()
                .chain(&sample.benign)
                .map(row)
                .collect(),
            labels: (sample.malicious.iter().map(|_| true))
                .chain(sample.benign.iter().map(|_| false))
                .collect(),
        };
        let half_set = full.half();
        let model_full = retrain(&full);
        let model_half = retrain(&half_set);
        let retrain_deterministic = retrain(&full).checkpoint == model_full.checkpoint;

        let half = events.len() / 2;
        let population: BTreeSet<u64> = events[..half].iter().map(|e| e.app().raw()).collect();
        Inputs {
            events,
            half,
            shortener,
            known,
            full,
            half_set,
            model_full,
            model_half,
            retrain_deterministic,
            reference,
            population: population.into_iter().collect(),
        }
    }

    /// The tail as NDJSON post bodies of [`BATCH_EVENTS`] events each.
    pub fn tail_bodies(&self) -> Vec<String> {
        self.events[self.half..]
            .chunks(BATCH_EVENTS)
            .map(|chunk| {
                chunk
                    .iter()
                    .map(|e| serde_json::to_string(e).expect("events serialize"))
                    .collect::<Vec<_>>()
                    .join("\n")
            })
            .collect()
    }

    /// The reference verdict for `app` under `model`: the serial store's
    /// row scored directly.
    pub fn reference_decision(&self, app: AppId, model: &FrappeModel) -> Option<f64> {
        self.reference
            .snapshot(app, &self.known)
            .map(|s| model.decision_value(&s.features))
    }
}
