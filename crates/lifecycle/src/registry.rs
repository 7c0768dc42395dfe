//! Versioned model registry: the deployment's model history.
//!
//! The registry keeps the lineage of every model a deployment has ever
//! considered — who trained it, on how much data, with what seed, how it
//! cross-validated, and which version it was retrained from — plus the
//! promote/retire state machine and the rollback stack. It is pure
//! bookkeeping: it never holds the served model pointer. Promotion and
//! rollback hand the chosen model to a caller-supplied install closure,
//! which the [`LifecycleManager`](crate::manager::LifecycleManager) (the
//! registry's only writer) routes to the deployment's one install path,
//! `frappe_serve::Deployment::swap_model`.
//!
//! Two counters with different jobs:
//!
//! * **version** — registry identity. Assigned once at registration,
//!   stable forever: rolling back to v1 serves v1, not "v3 that happens
//!   to equal v1". Verdicts and audit records carry it.
//! * **epoch** — the served pointer's swap counter. Strictly increasing
//!   on every install, *including* rollbacks, so cache entries from
//!   before a rollback stay dead.
//!
//! The registry persists to a directory: one [`crate::checkpoint`] file
//! per version plus a `lineage.json` manifest, so a restarted deployment
//! reloads its full history and resumes at the same active version.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::Path;
use std::sync::Arc;

use frappe::{FrappeModel, VersionedModel};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use svm::CrossValReport;

use crate::checkpoint::{self, CheckpointError};

/// Cross-validation summary attached to a model's lineage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CvMetrics {
    /// Pooled k-fold accuracy.
    pub accuracy: f64,
    /// Pooled false-positive rate (benign flagged malicious).
    pub false_positive_rate: f64,
    /// Pooled false-negative rate (malicious missed).
    pub false_negative_rate: f64,
}

impl From<&CrossValReport> for CvMetrics {
    fn from(report: &CrossValReport) -> Self {
        CvMetrics {
            accuracy: report.accuracy(),
            false_positive_rate: report.false_positive_rate(),
            false_negative_rate: report.false_negative_rate(),
        }
    }
}

/// Where a registered model came from — the caller-supplied half of its
/// lineage. The registry fills in the version and schema hash itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModelSource {
    /// Version this model was retrained from, if any.
    pub parent: Option<u64>,
    /// RNG seed of the training run (fold shuffling etc.).
    pub seed: u64,
    /// Number of labelled samples it was trained on.
    pub training_size: usize,
    /// Cross-validation metrics from the training run.
    pub cv: Option<CvMetrics>,
}

/// Full provenance of a registered model version.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelLineage {
    /// Registry version (1-based, assigned at registration).
    pub version: u64,
    /// Version this model was retrained from, if any.
    pub parent: Option<u64>,
    /// RNG seed of the training run.
    pub seed: u64,
    /// Number of labelled samples it was trained on.
    pub training_size: usize,
    /// Feature-catalog schema hash at registration time.
    pub schema_hash: u64,
    /// Cross-validation metrics from the training run.
    pub cv: Option<CvMetrics>,
}

/// Where a version sits in the promote/retire state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelStatus {
    /// Currently installed in the scoring handle.
    Active,
    /// Registered as a candidate; may be shadow-scoring live traffic.
    Shadow,
    /// Was active once, then promoted past or rolled back from.
    Retired,
}

/// Why a registry operation failed.
#[derive(Debug)]
pub enum LifecycleError {
    /// No model registered under that version.
    UnknownVersion(u64),
    /// Promoting the version that is already active is a no-op the caller
    /// probably didn't mean.
    AlreadyActive(u64),
    /// Rollback with no previously-active version to return to.
    NoPreviousVersion,
    /// Checkpoint persistence failed.
    Checkpoint(CheckpointError),
    /// Registry manifest was missing or malformed.
    Manifest(String),
}

impl fmt::Display for LifecycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LifecycleError::UnknownVersion(v) => write!(f, "no model registered as version {v}"),
            LifecycleError::AlreadyActive(v) => write!(f, "version {v} is already active"),
            LifecycleError::NoPreviousVersion => {
                write!(f, "no previously-active version to roll back to")
            }
            LifecycleError::Checkpoint(err) => write!(f, "checkpoint persistence failed: {err}"),
            LifecycleError::Manifest(what) => write!(f, "registry manifest error: {what}"),
        }
    }
}

impl std::error::Error for LifecycleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LifecycleError::Checkpoint(err) => Some(err),
            _ => None,
        }
    }
}

impl From<CheckpointError> for LifecycleError {
    fn from(err: CheckpointError) -> Self {
        LifecycleError::Checkpoint(err)
    }
}

struct Entry {
    model: Arc<FrappeModel>,
    lineage: ModelLineage,
    status: ModelStatus,
}

struct Inner {
    entries: BTreeMap<u64, Entry>,
    next_version: u64,
    active: u64,
    /// Previously-active versions, oldest first — the rollback stack.
    history: Vec<u64>,
}

impl Inner {
    /// Marks `version` active and the displaced version retired,
    /// returning the model to install.
    fn activate(&mut self, version: u64) -> Result<Arc<FrappeModel>, LifecycleError> {
        let model = self
            .entries
            .get(&version)
            .map(|e| Arc::clone(&e.model))
            .ok_or(LifecycleError::UnknownVersion(version))?;
        for (v, status) in [
            (self.active, ModelStatus::Retired),
            (version, ModelStatus::Active),
        ] {
            if let Some(entry) = self.entries.get_mut(&v) {
                entry.status = status;
            }
        }
        self.active = version;
        Ok(model)
    }
}

/// The versioned model registry.
///
/// Thread-safe. Readers and persistence are public; every mutation goes
/// through the [`LifecycleManager`](crate::manager::LifecycleManager).
pub struct ModelRegistry {
    inner: Mutex<Inner>,
}

/// On-disk manifest, one row per version (checkpoints live alongside).
#[derive(Serialize, Deserialize)]
struct Manifest {
    active: u64,
    history: Vec<u64>,
    next_version: u64,
    entries: Vec<ManifestEntry>,
}

#[derive(Serialize, Deserialize)]
struct ManifestEntry {
    lineage: ModelLineage,
    status: ModelStatus,
}

fn checkpoint_name(version: u64) -> String {
    format!("model-v{version}.ckpt")
}

fn lineage(version: u64, source: ModelSource) -> ModelLineage {
    ModelLineage {
        version,
        parent: source.parent,
        seed: source.seed,
        training_size: source.training_size,
        schema_hash: frappe::catalog::schema_hash(),
        cv: source.cv,
    }
}

impl ModelRegistry {
    /// Creates a registry whose active entry is the installed `seed`:
    /// the entry shares the served model's `Arc` and keeps its version.
    pub(crate) fn new(seed: &VersionedModel, source: ModelSource) -> Self {
        let version = seed.version();
        let mut entries = BTreeMap::new();
        entries.insert(
            version,
            Entry {
                model: Arc::clone(seed.model()),
                lineage: lineage(version, source),
                status: ModelStatus::Active,
            },
        );
        ModelRegistry {
            inner: Mutex::new(Inner {
                entries,
                next_version: version.saturating_add(1),
                active: version,
                history: Vec::new(),
            }),
        }
    }

    /// The currently-active version.
    pub fn active_version(&self) -> u64 {
        self.inner.lock().active
    }

    /// Registers a candidate model (status [`ModelStatus::Shadow`]) and
    /// returns its assigned version. The counter saturates instead of
    /// overflowing; [`load_from_dir`](Self::load_from_dir) keeps it
    /// within `i64`, some 2^63 registrations short of saturation.
    pub(crate) fn register(&self, model: Arc<FrappeModel>, source: ModelSource) -> u64 {
        let mut inner = self.inner.lock();
        let version = inner.next_version;
        inner.next_version = version.saturating_add(1);
        inner.entries.insert(
            version,
            Entry {
                model,
                lineage: lineage(version, source),
                status: ModelStatus::Shadow,
            },
        );
        version
    }

    /// Promotes `version` to active, handing its model to `install` —
    /// the manager passes the deployment's
    /// [`swap_model`](frappe_serve::Deployment::swap_model) here.
    ///
    /// Returns the displaced [`VersionedModel`] (the previous pointer).
    pub(crate) fn promote(
        &self,
        version: u64,
        install: impl FnOnce(Arc<FrappeModel>, u64) -> Arc<VersionedModel>,
    ) -> Result<Arc<VersionedModel>, LifecycleError> {
        let mut inner = self.inner.lock();
        if inner.active == version {
            return Err(LifecycleError::AlreadyActive(version));
        }
        let previous = inner.active;
        let model = inner.activate(version)?;
        inner.history.push(previous);
        Ok(install(model, version))
    }

    /// Rolls back to the previously-active version, handing its model to
    /// `install` (see [`Self::promote`]). Returns the version rolled back
    /// *to*.
    ///
    /// The restored model is re-installed at a **new epoch**, so verdicts
    /// cached before the rollback are still invalidated — serving "the
    /// same model as before" is not the same as serving its stale cache.
    pub(crate) fn rollback(
        &self,
        install: impl FnOnce(Arc<FrappeModel>, u64) -> Arc<VersionedModel>,
    ) -> Result<u64, LifecycleError> {
        let mut inner = self.inner.lock();
        let target = *inner
            .history
            .last()
            .ok_or(LifecycleError::NoPreviousVersion)?;
        let model = inner.activate(target)?;
        inner.history.pop();
        install(model, target);
        Ok(target)
    }

    fn read<T>(&self, version: u64, f: impl FnOnce(&Entry) -> T) -> Result<T, LifecycleError> {
        let inner = self.inner.lock();
        inner
            .entries
            .get(&version)
            .map(f)
            .ok_or(LifecycleError::UnknownVersion(version))
    }

    /// The model registered under `version`.
    pub fn model(&self, version: u64) -> Result<Arc<FrappeModel>, LifecycleError> {
        self.read(version, |e| Arc::clone(&e.model))
    }

    /// Lineage of `version`.
    pub fn lineage(&self, version: u64) -> Result<ModelLineage, LifecycleError> {
        self.read(version, |e| e.lineage.clone())
    }

    /// Status of `version`.
    pub fn status(&self, version: u64) -> Result<ModelStatus, LifecycleError> {
        self.read(version, |e| e.status)
    }

    /// All registered versions, ascending.
    pub fn versions(&self) -> Vec<u64> {
        self.inner.lock().entries.keys().copied().collect()
    }

    /// Persists the registry: one checkpoint per version plus a
    /// `lineage.json` manifest, all under `dir` (created if absent).
    pub fn save_to_dir(&self, dir: &Path) -> Result<(), LifecycleError> {
        std::fs::create_dir_all(dir).map_err(CheckpointError::Io)?;
        let inner = self.inner.lock();
        for (version, entry) in &inner.entries {
            checkpoint::save_model(&dir.join(checkpoint_name(*version)), &entry.model)?;
        }
        let manifest = Manifest {
            active: inner.active,
            history: inner.history.clone(),
            next_version: inner.next_version,
            entries: inner
                .entries
                .values()
                .map(|e| ManifestEntry {
                    lineage: e.lineage.clone(),
                    status: e.status,
                })
                .collect(),
        };
        let json = serde_json::to_string_pretty(&manifest)
            .map_err(|e| LifecycleError::Manifest(e.to_string()))?;
        let path = dir.join("lineage.json");
        let tmp = dir.join("lineage.json.tmp");
        std::fs::write(&tmp, json).map_err(CheckpointError::Io)?;
        std::fs::rename(&tmp, &path).map_err(CheckpointError::Io)?;
        Ok(())
    }

    /// Reloads a registry saved by [`Self::save_to_dir`]. Every
    /// checkpoint is schema-checked on load, so a registry written under
    /// a different feature catalog is refused rather than mis-wired. An
    /// inconsistent manifest is a [`LifecycleError::Manifest`] (see
    /// `Manifest::check`), so the next `register` is always a new version.
    pub fn load_from_dir(dir: &Path) -> Result<Self, LifecycleError> {
        let manifest = std::fs::read(dir.join("lineage.json")).map_err(CheckpointError::Io)?;
        Self::from_manifest(&manifest, |version| {
            Ok(Arc::new(checkpoint::load_model(
                &dir.join(checkpoint_name(version)),
            )?))
        })
    }

    /// The parse step of [`Self::load_from_dir`]: checks and decodes the
    /// `lineage.json` bytes, then assembles the registry from the model
    /// `checkpoint` yields for each listed version.
    fn from_manifest(
        manifest: &[u8],
        mut checkpoint: impl FnMut(u64) -> Result<Arc<FrappeModel>, CheckpointError>,
    ) -> Result<Self, LifecycleError> {
        let text = std::str::from_utf8(manifest)
            .map_err(|e| LifecycleError::Manifest(format!("not UTF-8: {e}")))?;
        let manifest: Manifest =
            serde_json::from_str(text).map_err(|e| LifecycleError::Manifest(e.to_string()))?;
        manifest.check().map_err(LifecycleError::Manifest)?;
        let mut entries = BTreeMap::new();
        for row in manifest.entries {
            let version = row.lineage.version;
            entries.insert(
                version,
                Entry {
                    model: checkpoint(version)?,
                    lineage: row.lineage,
                    status: row.status,
                },
            );
        }
        Ok(ModelRegistry {
            inner: Mutex::new(Inner {
                entries,
                next_version: manifest.next_version,
                active: manifest.active,
                history: manifest.history,
            }),
        })
    }
}

impl Manifest {
    /// What [`ModelRegistry::save_to_dir`] always writes: unique
    /// versions, `active` and `history` versions with entries, and a
    /// `next_version` above every version that fits the `i64` gauges.
    fn check(&self) -> Result<(), String> {
        let mut versions = BTreeSet::new();
        for version in self.entries.iter().map(|row| row.lineage.version) {
            if !versions.insert(version) {
                return Err(format!("version {version} is listed twice"));
            }
        }
        if let Some(v) = std::iter::once(&self.active)
            .chain(&self.history)
            .find(|v| !versions.contains(v))
        {
            return Err(format!("version {v} has no manifest entry"));
        }
        let top = versions.last().copied().unwrap_or(0);
        if self.next_version <= top || self.next_version > i64::MAX as u64 {
            return Err(format!(
                "next_version {} is not in ({top}, i64::MAX]",
                self.next_version
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::tests::tiny_model;
    use crate::checkpoint::write_model;
    use frappe::features::aggregation::KnownMaliciousNames;
    use frappe::FeatureSet;
    use frappe_serve::ControlPlane;

    /// The deployment's install path (a control plane serving v1) and a
    /// registry seeded from what it serves.
    fn deployed() -> (ControlPlane, ModelRegistry) {
        let plane = ControlPlane::new(tiny_model(FeatureSet::Full), KnownMaliciousNames::default());
        let source = ModelSource {
            seed: 7,
            training_size: 8,
            ..ModelSource::default()
        };
        let reg = ModelRegistry::new(&plane.current_model(), source);
        (plane, reg)
    }

    fn register_candidate(reg: &ModelRegistry) -> u64 {
        let cv = CvMetrics {
            accuracy: 0.99,
            false_positive_rate: 0.01,
            false_negative_rate: 0.02,
        };
        let source = ModelSource {
            parent: Some(1),
            seed: 8,
            training_size: 8,
            cv: Some(cv),
        };
        reg.register(Arc::new(tiny_model(FeatureSet::Robust)), source)
    }

    /// A registry with v2 promoted over v1, saved under a fresh temp dir.
    fn saved(name: &str) -> (ModelRegistry, std::path::PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("frappe-registry-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (plane, reg) = deployed();
        let v2 = register_candidate(&reg);
        reg.promote(v2, |m, v| plane.swap_model(m, v)).unwrap();
        reg.save_to_dir(&dir).unwrap();
        (reg, dir)
    }

    #[test]
    fn register_promote_rollback_walks_the_state_machine() {
        let (plane, reg) = deployed();
        let install = |m, v| plane.swap_model(m, v);
        assert_eq!(reg.active_version(), 1);
        assert_eq!(reg.status(1).unwrap(), ModelStatus::Active);
        assert!(
            Arc::ptr_eq(&reg.model(1).unwrap(), plane.current_model().model()),
            "the seed entry is the served model, not a copy"
        );

        let v2 = register_candidate(&reg);
        assert_eq!(v2, 2);
        assert_eq!(reg.status(2).unwrap(), ModelStatus::Shadow);
        assert_eq!(reg.lineage(2).unwrap().parent, Some(1));

        let displaced = reg.promote(2, install).unwrap();
        assert_eq!(displaced.version(), 1);
        assert_eq!(reg.active_version(), 2);
        assert_eq!(reg.status(1).unwrap(), ModelStatus::Retired);
        assert_eq!(plane.current_model().version(), 2);
        let epoch_after_promote = plane.current_model().epoch();

        let back = reg.rollback(install).unwrap();
        assert_eq!(back, 1);
        assert_eq!(reg.active_version(), 1);
        assert_eq!(reg.status(1).unwrap(), ModelStatus::Active);
        assert_eq!(reg.status(2).unwrap(), ModelStatus::Retired);
        assert_eq!(plane.current_model().version(), 1);
        assert!(
            plane.current_model().epoch() > epoch_after_promote,
            "rollback re-installs at a NEW epoch so pre-rollback verdicts stay dead"
        );
    }

    #[test]
    fn bad_transitions_are_typed_errors() {
        let (plane, reg) = deployed();
        let install = |m, v| plane.swap_model(m, v);
        assert!(matches!(
            reg.promote(1, install),
            Err(LifecycleError::AlreadyActive(1))
        ));
        assert!(matches!(
            reg.promote(9, install),
            Err(LifecycleError::UnknownVersion(9))
        ));
        assert!(matches!(
            reg.rollback(install),
            Err(LifecycleError::NoPreviousVersion)
        ));
        assert!(matches!(
            reg.model(9),
            Err(LifecycleError::UnknownVersion(9))
        ));
        assert_eq!(plane.current_model().epoch(), 0, "no failed call installed");
    }

    #[test]
    fn save_and_reload_preserve_models_lineage_and_active_pointer() {
        let (reg, dir) = saved("roundtrip");
        let reloaded = ModelRegistry::load_from_dir(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();

        assert_eq!(reloaded.active_version(), 2);
        assert_eq!(reloaded.versions(), vec![1, 2]);
        assert_eq!(reloaded.status(1).unwrap(), ModelStatus::Retired);
        assert_eq!(reloaded.lineage(2).unwrap().cv.unwrap().accuracy, 0.99);
        for v in [1, 2] {
            assert_eq!(
                write_model(&reloaded.model(v).unwrap()),
                write_model(&reg.model(v).unwrap()),
                "reloaded v{v} is byte-identical"
            );
        }
        let plane = ControlPlane::new(
            tiny_model(FeatureSet::Robust),
            KnownMaliciousNames::default(),
        );
        let back = reloaded.rollback(|m, v| plane.swap_model(m, v));
        assert_eq!(back.unwrap(), 1, "history survives reload");
    }

    #[test]
    fn inconsistent_manifests_are_refused() {
        let (_, dir) = saved("forged");
        let path = dir.join("lineage.json");
        let pristine = std::fs::read_to_string(&path).unwrap();
        let load = |edit: fn(&mut Manifest)| {
            let mut manifest: Manifest = serde_json::from_str(&pristine).unwrap();
            edit(&mut manifest);
            std::fs::write(&path, serde_json::to_string_pretty(&manifest).unwrap()).unwrap();
            ModelRegistry::load_from_dir(&dir)
        };
        assert!(load(|_| {}).is_ok(), "the pristine manifest loads");
        let forgeries: [fn(&mut Manifest); 6] = [
            |m| {
                let lineage = m.entries[0].lineage.clone(); // a second v1
                m.entries.push(ManifestEntry {
                    lineage,
                    status: ModelStatus::Retired,
                });
            },
            |m| m.active = 9,
            |m| m.history.push(9),
            |m| m.next_version = 2, // would overwrite v2
            |m| m.next_version = 0,
            |m| m.next_version = u64::MAX,
        ];
        for (i, edit) in forgeries.into_iter().enumerate() {
            let loaded = load(edit);
            assert!(
                matches!(loaded, Err(LifecycleError::Manifest(_))),
                "forgery {i} must be refused"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_or_bit_flipped_manifests_never_panic_or_reuse_a_version() {
        // The property is checked on bytes in memory: the manifest and
        // its checkpoints are read from disk once, then every mutation
        // goes through the same parse step `load_from_dir` runs.
        let (reg, dir) = saved("mutated");
        let pristine = std::fs::read(dir.join("lineage.json")).unwrap();
        let checkpoints: BTreeMap<u64, Arc<FrappeModel>> = reg
            .versions()
            .into_iter()
            .map(|v| {
                let model = checkpoint::load_model(&dir.join(checkpoint_name(v))).unwrap();
                (v, Arc::new(model))
            })
            .collect();
        std::fs::remove_dir_all(&dir).unwrap();
        let checkpoint = |version| {
            checkpoints
                .get(&version)
                .cloned()
                .ok_or_else(|| CheckpointError::Io(std::io::ErrorKind::NotFound.into()))
        };
        let truncations = (0..pristine.len()).map(|n| pristine[..n].to_vec());
        let flips = (0..pristine.len() * 8).map(|bit| {
            let mut bytes = pristine.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            bytes
        });
        let model = Arc::new(tiny_model(FeatureSet::Robust));
        let (mut loaded, mut refused) = (0, 0);
        for bytes in truncations.chain(flips) {
            let Ok(reg) = ModelRegistry::from_manifest(&bytes, checkpoint) else {
                refused += 1;
                continue;
            };
            let before = reg.versions();
            let fresh = reg.register(Arc::clone(&model), ModelSource::default());
            assert!(!before.contains(&fresh), "register reused v{fresh}");
            assert_eq!(reg.versions().len(), before.len() + 1);
            loaded += 1;
        }
        assert!(
            loaded > 0 && refused > 0,
            "{loaded} loaded, {refused} refused"
        );
    }
}
