//! The FRAppE classifiers.
//!
//! A thin, opinionated layer over the workspace [`svm`] crate: the paper's
//! hyperparameters (RBF kernel, libsvm defaults, `C = 1`, `gamma =
//! 1/num_features`), min–max scaling fitted on training data, median
//! imputation for missing lanes, and the 5-fold stratified
//! cross-validation protocol of §5.1 (including the benign:malicious
//! ratio subsampling of Table 5).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

use frappe_obs::{AuditRecord, AuditSource, FeatureContribution};
use osn_types::ids::AppId;
use serde::{Deserialize, Serialize};
use svm::{cross_validate, train, CrossValReport, Dataset, Scaler, SvmModel, SvmParams};

use crate::features::vectorize::{AppFeatures, FeatureSet, Imputation};

/// A trained FRAppE model (any of the paper's variants, per its
/// [`FeatureSet`]).
///
/// Serializable: a model trained offline on the batch pipeline can be
/// shipped to the online serving layer (`frappe-serve`) and reloaded
/// without retraining.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FrappeModel {
    set: FeatureSet,
    imputation: Imputation,
    scaler: Scaler,
    model: SvmModel,
}

/// Builds the numeric dataset for a feature set (+1 = malicious).
fn build_dataset(
    samples: &[AppFeatures],
    labels: &[bool],
    set: FeatureSet,
    imputation: &Imputation,
) -> Dataset {
    assert_eq!(samples.len(), labels.len(), "one label per sample");
    let xs: Vec<Vec<f64>> = samples.iter().map(|s| imputation.encode(set, s)).collect();
    let ys: Vec<f64> = labels.iter().map(|&m| if m { 1.0 } else { -1.0 }).collect();
    Dataset::new(xs, ys).expect("encoded features are rectangular and finite")
}

impl FrappeModel {
    /// Trains a model.
    ///
    /// `params` defaults to the paper's configuration (RBF, `C = 1`,
    /// `gamma = 1/dim`). Imputation medians are fitted on `samples`.
    ///
    /// # Panics
    /// Panics if the training set is empty or single-class.
    pub fn train(
        samples: &[AppFeatures],
        labels: &[bool],
        set: FeatureSet,
        params: Option<SvmParams>,
    ) -> Self {
        let params = params.unwrap_or_else(|| SvmParams::paper_defaults(set.dim()));
        let imputation = Imputation::fit_medians(samples);
        let raw = build_dataset(samples, labels, set, &imputation);
        let scaler = Scaler::fit(&raw);
        let scaled = scaler.transform_dataset(&raw);
        let model = train(&scaled, &params);
        FrappeModel {
            set,
            imputation,
            scaler,
            model,
        }
    }

    /// The feature set this model uses.
    pub fn feature_set(&self) -> FeatureSet {
        self.set
    }

    /// Raw SVM decision value (positive ⇒ malicious); useful for ranking.
    ///
    /// Evaluated by the packed SIMD engine.
    pub fn decision_value(&self, features: &AppFeatures) -> f64 {
        let x = self
            .scaler
            .transform(&self.imputation.encode(self.set, features));
        self.model.decision_value(&x)
    }

    /// Predicts whether an app is malicious.
    pub fn predict(&self, features: &AppFeatures) -> bool {
        self.decision_value(features) >= 0.0
    }

    /// Per-feature decomposition of the decision value, for linear-kernel
    /// models only.
    ///
    /// Each contribution is `wⱼ · xⱼ` over the *scaled, imputed* input
    /// (the value the weight is actually applied to), so
    /// `bias + Σⱼ contributionⱼ` reconstructs [`Self::decision_value`] up
    /// to floating-point reassociation. Returns `None` for non-linear
    /// kernels (the paper's RBF default included), which have no exact
    /// per-feature additive form.
    ///
    /// Contribution ordering and feature names both come from the
    /// [feature catalog](crate::features::catalog::CATALOG) via
    /// [`FeatureSet::features`] — the same single order used by encoding
    /// and min–max scaling, so `contributions[j]` always describes the
    /// lane the SVM's `weights[j]` was trained on.
    pub fn explain(&self, features: &AppFeatures) -> Option<Explanation> {
        let weights = self.model.linear_weights()?;
        let x = self
            .scaler
            .transform(&self.imputation.encode(self.set, features));
        let names = self.set.features();
        debug_assert_eq!(weights.len(), names.len());
        let contributions: Vec<FeatureContribution> = names
            .iter()
            .zip(weights.iter().zip(&x))
            .map(|(id, (&weight, &value))| FeatureContribution {
                feature: id.name().to_owned(),
                weight,
                value,
                contribution: weight * value,
            })
            .collect();
        let decision_value = self.model.decision_value(&x);
        Some(Explanation {
            app: features.app,
            decision_value,
            malicious: decision_value >= 0.0,
            bias: -self.model.rho(),
            contributions,
        })
    }

    /// Classifies a batch, returning the apps flagged malicious.
    ///
    /// Candidates are scored in parallel on the `FRAPPE_JOBS`-sized pool;
    /// each verdict is a pure function of one row, and the flagged set is
    /// assembled in candidate order before sorting, so the result is
    /// identical at any thread count.
    pub fn flag_malicious(&self, candidates: &[AppFeatures]) -> Vec<AppId> {
        let _span = frappe_obs::span("classify/batch");
        let verdicts = frappe_jobs::par_map_indexed(candidates, |_, f| self.predict(f));
        let mut flagged: Vec<AppId> = candidates
            .iter()
            .zip(verdicts)
            .filter(|&(_, malicious)| malicious)
            .map(|(f, _)| f.app)
            .collect();
        flagged.sort_unstable();
        flagged
    }

    /// Number of support vectors (diagnostics/benching).
    pub fn support_vector_count(&self) -> usize {
        self.model.support_vector_count()
    }

    /// Reassembles a model from its four components (checkpoint restore).
    /// The inverse of the component accessors below; no validation beyond
    /// what the components themselves enforce, so only feed it parts that
    /// came out of a trained model.
    pub fn from_parts(
        set: FeatureSet,
        imputation: Imputation,
        scaler: Scaler,
        model: SvmModel,
    ) -> Self {
        FrappeModel {
            set,
            imputation,
            scaler,
            model,
        }
    }

    /// The fitted imputation table (checkpoint serialization).
    pub fn imputation(&self) -> &Imputation {
        &self.imputation
    }

    /// The fitted min–max scaler (checkpoint serialization).
    pub fn scaler(&self) -> &Scaler {
        &self.scaler
    }

    /// The trained SVM decision function (checkpoint serialization).
    pub fn svm_model(&self) -> &SvmModel {
        &self.model
    }

    /// Builds the packed scoring representation eagerly so the first
    /// verdict after an install or a hot swap doesn't pay the flatten.
    pub fn warm(&self) {
        self.model.warm();
    }

    /// Whether the packed scoring representation is already built.
    pub fn is_warm(&self) -> bool {
        self.model.is_warm()
    }
}

// ---------------------------------------------------------------------------
// shared, hot-swappable model state
// ---------------------------------------------------------------------------

/// One immutable `(version, epoch, model)` triple: a model as installed at
/// a particular point in a [`SharedModel`]'s history.
///
/// `version` is the registry-assigned identity of the model (stable across
/// promote/rollback — rolling back to version 3 re-installs version 3);
/// `epoch` is the handle-local swap counter (strictly increasing on every
/// swap, including rollbacks), which is what verdict caches stamp — two
/// installs of the same version are still different epochs, so verdicts
/// scored before a rollback can never be served after it.
#[derive(Debug, Clone)]
pub struct VersionedModel {
    version: u64,
    epoch: u64,
    model: Arc<FrappeModel>,
}

impl VersionedModel {
    /// Registry-assigned model version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Swap counter at install time (0 for the seed model).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The model itself.
    pub fn model(&self) -> &Arc<FrappeModel> {
        &self.model
    }
}

/// The trained model as **shared, hot-swappable state**: an atomic
/// epoch-pointer that a serving layer scores through while a lifecycle
/// layer retrains, promotes, and rolls back behind it.
///
/// Mirrors [`SharedKnownNames`](crate::features::catalog::SharedKnownNames):
/// clones share one slot, a swap is one pointer write under a short lock,
/// and a monotonic epoch counter lets verdict caches invalidate lazily —
/// a swap is O(0) on every cached verdict, exactly like new evidence.
#[derive(Debug, Clone)]
pub struct SharedModel {
    inner: Arc<SharedModelInner>,
}

#[derive(Debug)]
struct SharedModelInner {
    current: RwLock<Arc<VersionedModel>>,
    // mirror of current.epoch, readable without the lock: the serve fast
    // path probes this on every score
    epoch: AtomicU64,
}

impl SharedModel {
    /// Installs `model` as `version` at epoch 0, packed for scoring.
    pub fn new(model: FrappeModel, version: u64) -> Self {
        model.warm();
        SharedModel {
            inner: Arc::new(SharedModelInner {
                current: RwLock::new(Arc::new(VersionedModel {
                    version,
                    epoch: 0,
                    model: Arc::new(model),
                })),
                epoch: AtomicU64::new(0),
            }),
        }
    }

    /// The installed `(version, epoch, model)` triple, consistent by
    /// construction (one immutable `Arc` behind one pointer read).
    pub fn current(&self) -> Arc<VersionedModel> {
        Arc::clone(
            &self
                .inner
                .current
                .read()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }

    /// Current swap counter without taking the lock — the cache-probe
    /// fast path. Bumps on every [`swap`](Self::swap).
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::Acquire)
    }

    /// Registry-assigned version of the installed model.
    pub fn version(&self) -> u64 {
        self.current().version
    }

    /// Atomically installs `model` as `version`, returning the triple it
    /// replaced. The model is packed before the write lock is taken, so
    /// neither readers nor the first verdict wait on the flatten. The
    /// epoch bumps under the write lock, so `current()` never observes a
    /// torn `(version, epoch)` pair.
    pub fn swap(&self, model: Arc<FrappeModel>, version: u64) -> Arc<VersionedModel> {
        model.warm();
        let mut slot = self
            .inner
            .current
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        let next = Arc::new(VersionedModel {
            version,
            epoch: slot.epoch + 1,
            model,
        });
        self.inner.epoch.store(next.epoch, Ordering::Release);
        std::mem::replace(&mut *slot, next)
    }
}

/// An explained verdict: the paper's "top distinguishing features" table
/// (§5.3) computed for one concrete app instead of over the whole corpus.
///
/// Produced by [`FrappeModel::explain`]; convert with
/// [`Explanation::into_audit_record`] to feed an [`frappe_obs::AuditLog`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Explanation {
    /// The app the verdict is about.
    pub app: AppId,
    /// The SVM decision value (positive ⇒ malicious).
    pub decision_value: f64,
    /// `decision_value >= 0.0`, matching [`FrappeModel::predict`].
    pub malicious: bool,
    /// `-rho`: the constant term of the linear decision function.
    pub bias: f64,
    /// One term per feature, in the model's [`FeatureSet`] order.
    pub contributions: Vec<FeatureContribution>,
}

impl Explanation {
    /// `bias + Σ contributions` — reconstructs the decision value.
    pub fn contribution_sum(&self) -> f64 {
        self.bias
            + self
                .contributions
                .iter()
                .map(|c| c.contribution)
                .sum::<f64>()
    }

    /// Repackage as an audit-log record. `model_version` starts unset;
    /// producers that score through a [`SharedModel`] stamp it before
    /// recording.
    pub fn into_audit_record(self, source: AuditSource, generation: Option<u64>) -> AuditRecord {
        AuditRecord {
            app: self.app.raw(),
            source,
            decision_value: self.decision_value,
            malicious: self.malicious,
            bias: self.bias,
            contributions: self.contributions,
            generation,
            model_version: None,
        }
    }
}

/// The §5.1 evaluation protocol: optional benign:malicious subsampling,
/// then stratified 5-fold cross-validation.
///
/// `neg_per_pos` reproduces Table 5's ratio sweep — `Some(7)` samples a
/// 7:1 benign:malicious subset before validation; `None` uses the data as
/// given.
///
/// # Panics
/// Panics if (after subsampling) either class has fewer than `k` examples.
pub fn cross_validate_frappe(
    samples: &[AppFeatures],
    labels: &[bool],
    set: FeatureSet,
    neg_per_pos: Option<usize>,
    k: usize,
    seed: u64,
) -> CrossValReport {
    let params = SvmParams::paper_defaults(set.dim());
    let imputation = Imputation::fit_medians(samples);
    let mut data = build_dataset(samples, labels, set, &imputation);
    if let Some(ratio) = neg_per_pos {
        data = data.sample_with_ratio(ratio, seed ^ 0x5A17);
    }
    cross_validate(&data, &params, k, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::aggregation::AggregationFeatures;
    use crate::features::on_demand::OnDemandFeatures;
    use crate::features::vectorize::FeatureId;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Synthesizes feature rows with the paper's class-conditional rates.
    fn synth_rows(n_benign: usize, n_malicious: usize, seed: u64) -> (Vec<AppFeatures>, Vec<bool>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut samples = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n_benign + n_malicious {
            let malicious = i >= n_benign;
            let (desc_p, one_perm_p, mismatch_p) = if malicious {
                (0.014, 0.97, 0.78)
            } else {
                (0.93, 0.62, 0.01)
            };
            let wot = if malicious {
                if rng.gen_bool(0.8) {
                    -1.0
                } else {
                    rng.gen_range(0.0..5.0)
                }
            } else if rng.gen_bool(0.8) {
                94.0
            } else {
                rng.gen_range(40.0..100.0)
            };
            samples.push(AppFeatures {
                app: AppId(i as u64),
                on_demand: OnDemandFeatures {
                    has_category: Some(rng.gen_bool(if malicious { 0.06 } else { 0.90 })),
                    has_company: Some(rng.gen_bool(if malicious { 0.04 } else { 0.81 })),
                    has_description: Some(rng.gen_bool(desc_p)),
                    has_profile_posts: Some(rng.gen_bool(if malicious { 0.03 } else { 0.85 })),
                    permission_count: Some(if rng.gen_bool(one_perm_p) {
                        1
                    } else {
                        rng.gen_range(2..12)
                    }),
                    client_id_mismatch: Some(rng.gen_bool(mismatch_p)),
                    redirect_wot_score: Some(wot),
                },
                aggregation: AggregationFeatures {
                    name_matches_known_malicious: rng.gen_bool(if malicious { 0.87 } else { 0.02 }),
                    external_link_ratio: Some(if malicious {
                        rng.gen_range(0.3..1.0)
                    } else if rng.gen_bool(0.8) {
                        0.0
                    } else {
                        rng.gen_range(0.0..0.3)
                    }),
                },
            });
            labels.push(malicious);
        }
        (samples, labels)
    }

    #[test]
    fn full_model_separates_paper_shaped_classes() {
        let (samples, labels) = synth_rows(300, 300, 1);
        let report = cross_validate_frappe(&samples, &labels, FeatureSet::Full, None, 5, 7);
        assert!(
            report.accuracy() > 0.97,
            "FRAppE should reach high accuracy, got {}",
            report.accuracy()
        );
    }

    #[test]
    fn lite_is_good_but_full_is_better_or_equal() {
        let (samples, labels) = synth_rows(400, 400, 2);
        let lite = cross_validate_frappe(&samples, &labels, FeatureSet::Lite, None, 5, 7);
        let full = cross_validate_frappe(&samples, &labels, FeatureSet::Full, None, 5, 7);
        assert!(lite.accuracy() > 0.95, "lite acc {}", lite.accuracy());
        assert!(
            full.accuracy() >= lite.accuracy() - 0.01,
            "full ({}) should not lose to lite ({})",
            full.accuracy(),
            lite.accuracy()
        );
    }

    #[test]
    fn robust_subset_still_classifies_well() {
        let (samples, labels) = synth_rows(400, 400, 3);
        let robust = cross_validate_frappe(&samples, &labels, FeatureSet::Robust, None, 5, 7);
        assert!(robust.accuracy() > 0.9, "robust acc {}", robust.accuracy());
    }

    #[test]
    fn description_is_the_strongest_single_feature() {
        // Table 6's headline: description alone reaches ~97.8%, while
        // company alone suffers heavy false positives.
        let (samples, labels) = synth_rows(500, 500, 4);
        let desc = cross_validate_frappe(
            &samples,
            &labels,
            FeatureSet::Single(FeatureId::Description),
            None,
            5,
            7,
        );
        let company = cross_validate_frappe(
            &samples,
            &labels,
            FeatureSet::Single(FeatureId::Company),
            None,
            5,
            7,
        );
        assert!(
            desc.accuracy() > 0.93,
            "description acc {}",
            desc.accuracy()
        );
        assert!(
            desc.accuracy() > company.accuracy(),
            "description ({}) should beat company ({})",
            desc.accuracy(),
            company.accuracy()
        );
        assert!(
            company.false_positive_rate() > desc.false_positive_rate(),
            "company should have the higher FP rate (Table 6)"
        );
    }

    #[test]
    fn ratio_subsampling_shifts_toward_fewer_false_positives() {
        let (samples, labels) = synth_rows(1000, 120, 5);
        let balanced = cross_validate_frappe(&samples, &labels, FeatureSet::Lite, Some(1), 5, 7);
        let skewed = cross_validate_frappe(&samples, &labels, FeatureSet::Lite, Some(7), 5, 7);
        // more benign mass => optimizer favours fewer FPs
        assert!(
            skewed.false_positive_rate() <= balanced.false_positive_rate() + 0.01,
            "7:1 FP {} vs 1:1 FP {}",
            skewed.false_positive_rate(),
            balanced.false_positive_rate()
        );
    }

    #[test]
    fn prediction_api_roundtrip() {
        let (samples, labels) = synth_rows(100, 100, 6);
        let model = FrappeModel::train(&samples, &labels, FeatureSet::Full, None);
        assert_eq!(model.feature_set(), FeatureSet::Full);
        assert!(model.support_vector_count() > 0);
        let flagged = model.flag_malicious(&samples);
        // most of the malicious half should be flagged
        let hits = flagged.iter().filter(|a| a.raw() >= 100).count();
        assert!(hits > 90, "only {hits} of 100 malicious flagged");
        // decision values agree with predictions
        for s in samples.iter().take(20) {
            assert_eq!(model.predict(s), model.decision_value(s) >= 0.0);
        }
    }

    #[test]
    fn serialized_model_predicts_identically() {
        let (samples, labels) = synth_rows(80, 80, 9);
        let model = FrappeModel::train(&samples, &labels, FeatureSet::Full, None);
        let text = serde_json::to_string(&model).unwrap();
        let back: FrappeModel = serde_json::from_str(&text).unwrap();
        assert_eq!(back.feature_set(), model.feature_set());
        assert_eq!(back.support_vector_count(), model.support_vector_count());
        for s in &samples {
            assert_eq!(back.predict(s), model.predict(s));
            assert!(
                (back.decision_value(s) - model.decision_value(s)).abs() < 1e-12,
                "decision values must survive the round-trip"
            );
        }
    }

    #[test]
    fn linear_explanations_sum_to_decision_value() {
        let (samples, labels) = synth_rows(120, 120, 10);
        let params = SvmParams::with_kernel(svm::Kernel::linear());
        let model = FrappeModel::train(&samples, &labels, FeatureSet::Full, Some(params));
        for s in &samples {
            let ex = model.explain(s).expect("linear model explains");
            assert_eq!(ex.app, s.app);
            assert_eq!(ex.contributions.len(), FeatureSet::Full.dim());
            let dv = model.decision_value(s);
            assert!(
                (ex.contribution_sum() - dv).abs() < 1e-9 * dv.abs().max(1.0),
                "bias + Σ contributions = {} but decision value = {dv}",
                ex.contribution_sum()
            );
            assert_eq!(ex.malicious, model.predict(s));
        }
    }

    #[test]
    fn explanation_converts_to_audit_record() {
        let (samples, labels) = synth_rows(60, 60, 12);
        let params = SvmParams::with_kernel(svm::Kernel::linear());
        let model = FrappeModel::train(&samples, &labels, FeatureSet::Lite, Some(params));
        let record = model
            .explain(&samples[0])
            .expect("linear model explains")
            .into_audit_record(frappe_obs::AuditSource::Batch, None);
        assert_eq!(record.app, samples[0].app.raw());
        assert!(record.is_consistent(1e-9));
        assert_eq!(record.generation, None);
    }

    #[test]
    fn rbf_models_do_not_explain() {
        let (samples, labels) = synth_rows(60, 60, 11);
        let model = FrappeModel::train(&samples, &labels, FeatureSet::Full, None);
        assert!(
            model.explain(&samples[0]).is_none(),
            "paper-default RBF kernel has no per-feature decomposition"
        );
    }

    #[test]
    fn from_parts_roundtrips_the_component_accessors() {
        let (samples, labels) = synth_rows(80, 80, 13);
        let model = FrappeModel::train(&samples, &labels, FeatureSet::Full, None);
        let rebuilt = FrappeModel::from_parts(
            model.feature_set(),
            model.imputation().clone(),
            model.scaler().clone(),
            model.svm_model().clone(),
        );
        for s in &samples {
            assert_eq!(
                rebuilt.decision_value(s).to_bits(),
                model.decision_value(s).to_bits(),
                "component roundtrip must be bit-exact"
            );
        }
    }

    #[test]
    fn shared_model_swaps_bump_the_epoch_and_share_state() {
        let (samples, labels) = synth_rows(60, 60, 14);
        let a = FrappeModel::train(&samples, &labels, FeatureSet::Full, None);
        let b = FrappeModel::train(&samples, &labels, FeatureSet::Robust, None);

        assert!(!b.is_warm(), "a freshly trained model is not packed yet");
        let shared = SharedModel::new(a, 1);
        assert!(shared.current().model().is_warm(), "new() installs packed");
        let other_handle = shared.clone();
        assert_eq!(shared.epoch(), 0);
        assert_eq!(shared.version(), 1);
        assert_eq!(shared.current().model().feature_set(), FeatureSet::Full);

        let old = shared.swap(Arc::new(b), 2);
        assert!(shared.current().model().is_warm(), "swap() installs packed");
        assert_eq!(old.version(), 1);
        assert_eq!(old.epoch(), 0);
        assert_eq!(other_handle.epoch(), 1, "clones share the slot");
        assert_eq!(other_handle.version(), 2);

        // rolling back to the old version is a new epoch: stamps from the
        // first install can never validate a cache entry again
        let rolled = shared.swap(Arc::clone(old.model()), old.version());
        assert_eq!(rolled.version(), 2);
        assert_eq!(shared.version(), 1);
        assert_eq!(shared.epoch(), 2);
        assert_eq!(shared.current().epoch(), 2);
    }

    #[test]
    fn missing_lanes_are_handled_at_prediction_time() {
        let (samples, labels) = synth_rows(150, 150, 8);
        let model = FrappeModel::train(&samples, &labels, FeatureSet::Lite, None);
        let mut incomplete = samples[0];
        incomplete.on_demand.permission_count = None;
        incomplete.on_demand.redirect_wot_score = None;
        // must not panic; the imputed row is still classifiable
        let _ = model.predict(&incomplete);
    }
}
