//! The replicated control plane.
//!
//! Before shard groups existed, `FrappeService` *was* the control plane:
//! it privately owned the model epoch pointer and the known-malicious
//! name list, so "swap the model" and "flag a name" had exactly one
//! observer. With K partition-owning groups those two pieces of state
//! must be **shared by construction**, not copied — a copy per group
//! would let a hot swap land on group 0 while group 3 still scores the
//! old epoch, and the tentpole invariant is that no group ever serves a
//! mix of epochs.
//!
//! [`ControlPlane`] is that shared state made explicit:
//!
//! * the **model epoch pointer** ([`frappe::SharedModel`]) — one atomic
//!   swap is observed by every group simultaneously, because every
//!   group's scorer pins the *same* `Arc` cell. Every deployment owns
//!   one control plane, and [`ControlPlane::swap_model`] is the only way
//!   a model is installed;
//! * the **known-malicious names** ([`frappe::SharedKnownNames`]) — one
//!   insert bumps the one generation every group stamps verdicts with;
//! * a monotonically increasing **revision** counting control mutations
//!   (swaps + name flags), exported for dashboards and used by tests to
//!   assert "the groups saw the same control history";
//! * the one **verdict observer** slot ([`VerdictObserver`]): every
//!   group's scorer hands each answered query to whatever is attached
//!   here, so a lifecycle layer sees a single service's traffic and all
//!   K groups' traffic through the same hook.
//!
//! Because every group's [`crate::cache::VerdictCache`] stamps entries
//! with `(app generation, known generation, model epoch)` read through
//! these shared handles, a swap or a flag lazily kills pre-mutation
//! verdicts *everywhere* — globally atomic invalidation with zero
//! cross-group coordination.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use frappe::features::aggregation::KnownMaliciousNames;
use frappe::{AppFeatures, FrappeModel, SharedKnownNames, SharedModel, VersionedModel};
use frappe_obs::Registry;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

use crate::service::Verdict;

/// Sees every verdict the deployment answers, at the one place verdicts
/// are produced: the scorer, for a single service and for every shard
/// group alike.
///
/// The scorer calls [`observe`](Self::observe) on the classify caller's
/// thread, so `classify` returns only after its query was observed. A
/// fresh score hands over the exact row it just scored; a cache hit
/// hands over the row re-read from the store, and only when that row
/// still carries the stamps the hit matched (so the row is the one the
/// cached verdict was scored on).
///
/// An observer must return promptly. It runs inside every `classify`,
/// so a stalled `observe` stalls its caller — and when that caller is a
/// network edge's connection thread, it also holds up dropping the
/// edge's `Server`, which joins every connection thread.
pub trait VerdictObserver: Send + Sync {
    /// One answered query: the feature row behind `verdict`, the model
    /// installed when it was answered, and whether the verdict was
    /// freshly scored (`false` for a cache hit).
    fn observe(&self, row: &AppFeatures, verdict: &Verdict, model: &VersionedModel, fresh: bool);
}

/// Versioned serving-control state shared by every shard group.
///
/// Constructed once per deployment, wrapped in an `Arc`, and handed to
/// each group: clones of the inner handles *share state*, so mutations
/// through the control plane are visible to all groups at the same
/// instant.
pub struct ControlPlane {
    // Crate-visible so scorers read the pointer and the name set in
    // place; outside the crate, `swap_model` is the only writer.
    pub(crate) model: SharedModel,
    pub(crate) known: SharedKnownNames,
    revision: AtomicU64,
    observer: RwLock<Option<Arc<dyn VerdictObserver>>>,
    // mirror of `observer.is_some()`, so a deployment with nothing
    // attached pays one load per query, never the lock
    observed: AtomicBool,
}

/// A consistent-enough reading of the control plane's version vector.
///
/// The fields are read individually (no global lock), which is the same
/// trade every metrics snapshot in this workspace makes; each field is
/// itself monotonic, so a stamp never goes backwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ControlStamp {
    /// Control mutations applied so far (model swaps + name flags).
    pub revision: u64,
    /// Version of the model currently scoring.
    pub model_version: u64,
    /// Swap epoch of the model pointer (bumps on every swap).
    pub model_epoch: u64,
    /// Generation of the known-malicious name set.
    pub known_generation: u64,
}

impl ControlPlane {
    /// A control plane seeded with a freshly trained model at version 1.
    pub fn new(model: FrappeModel, known: KnownMaliciousNames) -> Self {
        ControlPlane {
            model: SharedModel::new(model, 1),
            known: SharedKnownNames::new(known),
            revision: AtomicU64::new(0),
            observer: RwLock::new(None),
            observed: AtomicBool::new(false),
        }
    }

    /// Attaches `observer` to every scorer of the deployment (or, with
    /// `None`, detaches whatever is attached), returning the previous
    /// occupant of the slot. [`crate::Deployment::set_observer`] is the
    /// public verb.
    pub(crate) fn set_observer(
        &self,
        observer: Option<Arc<dyn VerdictObserver>>,
    ) -> Option<Arc<dyn VerdictObserver>> {
        let mut slot = self.observer.write();
        self.observed.store(observer.is_some(), Ordering::Release);
        std::mem::replace(&mut *slot, observer)
    }

    /// The attached observer, if any.
    pub(crate) fn observer(&self) -> Option<Arc<dyn VerdictObserver>> {
        if !self.observed.load(Ordering::Acquire) {
            return None;
        }
        self.observer.read().clone()
    }

    /// The installed `(version, epoch, model)` triple.
    pub fn current_model(&self) -> Arc<VersionedModel> {
        self.model.current()
    }

    /// The shared known-malicious name set. Clones share the list and
    /// its generation counter.
    pub fn known_names(&self) -> SharedKnownNames {
        self.known.clone()
    }

    /// Hot-swaps the scoring model for **every** group at once (the
    /// epoch pointer is shared; the model is packed before it flips),
    /// returning the displaced model. The epoch bump lazily invalidates
    /// every cached verdict in every group's cache; in-flight scores
    /// finish on whichever model they pinned but can never satisfy a
    /// post-swap lookup.
    pub fn swap_model(&self, model: Arc<FrappeModel>, version: u64) -> Arc<VersionedModel> {
        let old = self.model.swap(model, version);
        self.revision.fetch_add(1, Ordering::Release);
        old
    }

    /// Adds a name to the known-malicious collision list, bumping the
    /// shared known-generation (and the control revision when the name
    /// was new). Every group's cached verdicts are lazily invalidated —
    /// a new name can flip any app's collision bit.
    pub fn flag_name(&self, name: &str) -> bool {
        let fresh = self.known.insert(name);
        if fresh {
            self.revision.fetch_add(1, Ordering::Release);
        }
        fresh
    }

    /// Control mutations applied so far.
    pub fn revision(&self) -> u64 {
        self.revision.load(Ordering::Acquire)
    }

    /// Current version vector.
    pub fn stamp(&self) -> ControlStamp {
        ControlStamp {
            revision: self.revision(),
            model_version: self.model.version(),
            model_epoch: self.model.epoch(),
            known_generation: self.known.generation(),
        }
    }

    /// Publishes the version vector as `control_*` gauges — the
    /// router's base registry carries these so the merged exposition
    /// reports shared control state exactly once (never summed across
    /// groups, where it would be counted K times).
    pub fn publish(&self, registry: &Registry) {
        let stamp = self.stamp();
        let clamp = |v: u64| v.min(i64::MAX as u64) as i64;
        registry
            .gauge("control_revision")
            .set(clamp(stamp.revision));
        registry
            .gauge("control_model_version")
            .set(clamp(stamp.model_version));
        registry
            .gauge("control_model_epoch")
            .set(clamp(stamp.model_epoch));
        registry
            .gauge("control_known_generation")
            .set(clamp(stamp.known_generation));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::tests::tiny_model;

    #[test]
    fn mutations_bump_the_revision_monotonically() {
        let cp = ControlPlane::new(tiny_model(), KnownMaliciousNames::default());
        assert_eq!(cp.stamp().revision, 0);
        assert_eq!(cp.stamp().model_version, 1);

        assert!(cp.flag_name("profile viewer"));
        assert_eq!(cp.stamp().revision, 1);
        assert!(!cp.flag_name("PROFILE  viewer"), "already known");
        assert_eq!(cp.stamp().revision, 1, "duplicate flags do not mutate");

        let old = cp.swap_model(Arc::new(tiny_model()), 2);
        assert_eq!(old.version(), 1);
        let stamp = cp.stamp();
        assert_eq!(stamp.revision, 2);
        assert_eq!(stamp.model_version, 2);
        assert_eq!(stamp.model_epoch, 1, "swap bumped the shared epoch");
        // The shared set bumps its generation on every insert (duplicates
        // included — cache invalidation stays conservative); the control
        // *revision* is what dedups.
        assert_eq!(stamp.known_generation, 2);
    }

    #[test]
    fn handles_share_state_with_the_plane() {
        let cp = ControlPlane::new(tiny_model(), KnownMaliciousNames::default());
        let model = cp.model.clone();
        let known = cp.known_names();
        cp.swap_model(Arc::new(tiny_model()), 7);
        assert_eq!(model.version(), 7, "clone observes the swap");
        cp.flag_name("free gift cards");
        assert_eq!(known.generation(), 1, "clone observes the flag");
    }

    #[test]
    fn publish_exports_the_version_vector() {
        let cp = ControlPlane::new(tiny_model(), KnownMaliciousNames::default());
        cp.swap_model(Arc::new(tiny_model()), 3);
        cp.flag_name("profile viewer");
        let registry = Registry::new();
        cp.publish(&registry);
        let text = registry.snapshot().to_prometheus_text();
        assert!(text.contains("control_revision 2"));
        assert!(text.contains("control_model_version 3"));
        assert!(text.contains("control_model_epoch 1"));
        assert!(text.contains("control_known_generation 1"));
    }
}
