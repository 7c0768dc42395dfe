//! # frappe-lifecycle — keeping the deployed model honest
//!
//! The paper trains FRAppE once, on a frozen nine-month trace. A deployed
//! "FRAppE as a service" (§8) cannot stop there: hackers adapt (§7's
//! summary-filling analysis is exactly a *feature-drift* forecast), labels
//! keep arriving from the MyPageKeeper vantage, and every retrained model
//! must earn its way into production without ever serving a stale or
//! unvetted verdict. This crate is that loop, in four pieces:
//!
//! * [`checkpoint`] — deterministic, schema-hashed model serialization.
//!   Every `f64` is written as its exact bit pattern, so save → load →
//!   save is **byte-identical** and a loaded model's decision values are
//!   **bit-equal** to the original's. The embedded catalog schema hash
//!   makes a checkpoint refuse to load against a feature catalog whose
//!   lane order or membership changed (a silent mismatch would mis-wire
//!   every SVM weight).
//! * [`registry`] — versioned models with lineage metadata (training-set
//!   size, seed, cross-validation metrics, parent version): the history
//!   only. The served pointer belongs to the deployment's control plane
//!   in `frappe-serve`; the [`LifecycleManager`], the registry's only
//!   writer, promotes and rolls back through
//!   [`frappe_serve::Deployment::swap_model`], one pointer swap whose
//!   epoch bump lazily invalidates every cached verdict.
//! * [`shadow`] + [`manager`] — a candidate model rides along as a
//!   *shadow*: it scores the same live traffic as the incumbent while
//!   `frappe-obs` counters accumulate the disagreement rate and labelled
//!   FP/FN deltas. The manager sees that traffic at the one place
//!   verdicts are produced: it attaches a
//!   [`frappe_serve::VerdictObserver`] to the deployment's scorers, so
//!   every answered query — in process, over the socket edge, through a
//!   router group — feeds drift and the shadow, and every fresh score
//!   feeds the audit log. A configurable [`PromotionGate`] decides when the
//!   shadow may take over; explicit rollback restores the previous
//!   version at a *new* epoch, so pre-rollback verdicts can never be
//!   served again.
//! * [`drift`] — per-catalog-feature rolling histograms compared against
//!   a training-time baseline via the population-stability index. PSI
//!   over threshold on any lane is the retraining trigger (and a metric).
//! * [`mod@retrain`] — the retraining driver: fits imputation + scaling +
//!   SVM on fresh PageKeeper-style labels, fanning the cross-validation
//!   folds over a `frappe-jobs` pool with bit-identical results at any
//!   thread count, and hands back the lineage a registry entry needs.
//!
//! The end-to-end story (`tests/lifecycle.rs`): replay a world into a
//! service, shadow-score a retrained candidate on live queries, promote
//! when the gate passes, observe that post-swap verdicts carry the new
//! model version with zero stale cache hits, and roll back just as
//! cheaply.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod drift;
pub mod manager;
pub mod registry;
pub mod retrain;
pub mod shadow;

pub use checkpoint::{load_model, parse_model, save_model, write_model, CheckpointError};
pub use drift::{DriftConfig, DriftDetector, DriftReport, LanePsi};
pub use manager::{LifecycleManager, PromotionOutcome, SwapFence};
pub use registry::{
    CvMetrics, LifecycleError, ModelLineage, ModelRegistry, ModelSource, ModelStatus,
};
pub use retrain::{retrain, retrain_on, RetrainConfig, RetrainOutcome};
pub use shadow::{GateDecision, PromotionGate, ShadowReport, ShadowState};
