//! The lifecycle manager: one façade wiring registry, shadow, drift, and
//! a running serving [`Deployment`] together.
//!
//! The manager owns the deployment loop the rest of the crate only
//! provides parts for:
//!
//! ```text
//!  classify(app) ──► incumbent verdict (served)
//!        │                 │
//!        ├── drift.observe(features)      every query feeds the window
//!        └── shadow.predict(features) ──► tallies only, never served
//!                                          │
//!  check_drift() ► PSI over threshold ► retrain ► begin_shadow(candidate)
//!                                          │
//!  try_promote() ► gate passes ► registry.promote ► service.swap_model
//!                                          │ (one pointer swap; epoch
//!  rollback()  ◄───────────────────────────┘  bump kills cached verdicts)
//! ```
//!
//! Everything observable is a `frappe-obs` metric on the service's own
//! registry, so one Prometheus scrape shows serving *and* lifecycle
//! state: shadow traffic and disagreements, promotions, rollbacks, drift
//! triggers, the active and shadow versions, the worst per-lane PSI
//! (`lifecycle_max_psi_milli`), and the full per-lane PSI map
//! (`lifecycle_psi_milli{lane=…}`).

use std::sync::Arc;

use frappe::FrappeModel;
use frappe_obs::{Counter, Gauge, LifecycleEvent};
use frappe_serve::{Deployment, ServeError, Verdict};
use osn_types::ids::AppId;
use parking_lot::Mutex;

use crate::drift::{DriftDetector, DriftReport};
use crate::registry::{LifecycleError, ModelRegistry, ModelSource};
use crate::shadow::{PromotionGate, ShadowReport, ShadowState};

/// What [`LifecycleManager::try_promote`] decided.
#[derive(Debug, Clone, PartialEq)]
pub enum PromotionOutcome {
    /// The shadow passed the gate and now serves as this version.
    Promoted(u64),
    /// The gate held, with its reasons; the shadow keeps riding along.
    Held(Vec<String>),
    /// No shadow is registered.
    NoShadow,
}

/// A barrier a transport edge can put around the model swap itself.
///
/// The epoch-pointer swap is atomic for *scoring* (in-flight scores pin
/// the model they started on), but a network edge additionally wants no
/// response to be mid-flight across the swap — its drain protocol stops
/// accepting, flushes every in-flight response, runs the swap, then
/// resumes. Installing the edge as the manager's fence
/// ([`LifecycleManager::set_swap_fence`]) routes every promotion and
/// rollback through that protocol; without a fence, swaps run bare.
pub trait SwapFence: Send + Sync {
    /// Runs `swap` inside the fence. Implementations must call `swap`
    /// exactly once, even when their quiesce step fails or times out —
    /// skipping it would silently drop a promotion.
    fn fenced(&self, swap: &mut dyn FnMut());
}

struct ShadowSlot {
    state: ShadowState,
    model: Arc<FrappeModel>,
}

struct LifecycleMetrics {
    shadow_scored: Arc<Counter>,
    shadow_disagreements: Arc<Counter>,
    promotions: Arc<Counter>,
    rollbacks: Arc<Counter>,
    drift_triggers: Arc<Counter>,
    active_version: Arc<Gauge>,
    shadow_version: Arc<Gauge>,
    max_psi_milli: Arc<Gauge>,
    /// One `lifecycle_psi_milli{lane=<catalog key>}` gauge per catalog
    /// lane, in catalog order (the same order [`DriftReport::lanes`]
    /// uses), so a scrape shows the whole per-lane PSI map — not just
    /// the worst lane.
    psi_milli: Vec<Arc<Gauge>>,
}

/// Wires a [`ModelRegistry`] and a [`DriftDetector`] to a running
/// [`Deployment`] — a single [`frappe_serve::FrappeService`] or a
/// [`frappe_serve::ShardRouter`] over K shard groups; see the module
/// docs for the loop it runs. Either shape feeds one drift window, so a
/// sharded deployment produces exactly one PSI verdict.
pub struct LifecycleManager {
    service: Deployment,
    registry: ModelRegistry,
    gate: PromotionGate,
    shadow: Mutex<Option<ShadowSlot>>,
    drift: Mutex<DriftDetector>,
    fence: Mutex<Option<Arc<dyn SwapFence>>>,
    metrics: LifecycleMetrics,
}

impl LifecycleManager {
    /// Wires the pieces together around an `Arc<FrappeService>`, an
    /// `Arc<ShardRouter>`, or a [`Deployment`]. The registry is seeded
    /// with the model the deployment serves right now — the entry shares
    /// its `Arc` and keeps its version — and `source` is that model's
    /// lineage.
    pub fn new(
        service: impl Into<Deployment>,
        source: ModelSource,
        gate: PromotionGate,
        drift: DriftDetector,
    ) -> Self {
        let service = service.into();
        let registry = ModelRegistry::new(&service.current_model(), source);
        let obs = service.obs_registry();
        let metrics = LifecycleMetrics {
            shadow_scored: obs.counter("lifecycle_shadow_scored"),
            shadow_disagreements: obs.counter("lifecycle_shadow_disagreements"),
            promotions: obs.counter("lifecycle_promotions"),
            rollbacks: obs.counter("lifecycle_rollbacks"),
            drift_triggers: obs.counter("lifecycle_drift_triggers"),
            active_version: obs.gauge("lifecycle_active_version"),
            shadow_version: obs.gauge("lifecycle_shadow_version"),
            max_psi_milli: obs.gauge("lifecycle_max_psi_milli"),
            psi_milli: frappe::CATALOG
                .iter()
                .map(|def| obs.gauge_with("lifecycle_psi_milli", &[("lane", def.key)]))
                .collect(),
        };
        metrics
            .active_version
            .set(registry.active_version().min(i64::MAX as u64) as i64);
        LifecycleManager {
            service,
            registry,
            gate,
            shadow: Mutex::new(None),
            drift: Mutex::new(drift),
            fence: Mutex::new(None),
            metrics,
        }
    }

    /// Installs a [`SwapFence`] that every promotion and rollback runs
    /// inside (e.g. a network edge's drain/resume cycle). Returns the
    /// previously installed fence, if any.
    pub fn set_swap_fence(&self, fence: Arc<dyn SwapFence>) -> Option<Arc<dyn SwapFence>> {
        self.fence.lock().replace(fence)
    }

    /// Runs `swap` through the installed fence (or bare when none is
    /// installed), handing back what `swap` produced.
    fn fenced_swap<R>(&self, swap: impl FnOnce() -> R) -> R {
        let fence = self.fence.lock().clone();
        match fence {
            None => swap(),
            Some(fence) => {
                // `fenced` takes FnMut so it stays object-safe; route the
                // one-shot closure and its result through Options.
                let mut swap = Some(swap);
                let mut result = None;
                fence.fenced(&mut || {
                    if let Some(swap) = swap.take() {
                        result = Some(swap());
                    }
                });
                result.expect("a SwapFence must invoke the swap exactly once")
            }
        }
    }

    /// The registry (lineage queries, persistence).
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// Classifies unlabelled traffic; see [`Self::classify_labelled`].
    pub fn classify(&self, app: AppId) -> Result<Verdict, ServeError> {
        self.classify_labelled(app, None)
    }

    /// Classifies `app` through the service (the verdict actually
    /// served), then feeds the same feature row to the drift window and —
    /// when a shadow is riding along — mirrors the query to it, tallying
    /// agreement and, if `label` carries ground truth, FP/FN evidence.
    pub fn classify_labelled(
        &self,
        app: AppId,
        label: Option<bool>,
    ) -> Result<Verdict, ServeError> {
        let verdict = self.service.classify(app)?;
        if let Some(features) = self.service.features(app) {
            self.drift.lock().observe(&features);
            let mut slot = self.shadow.lock();
            if let Some(slot) = slot.as_mut() {
                let shadow_verdict = slot.model.predict(&features);
                slot.state.record(verdict.malicious, shadow_verdict, label);
                self.metrics.shadow_scored.inc();
                if shadow_verdict != verdict.malicious {
                    self.metrics.shadow_disagreements.inc();
                }
            }
        }
        Ok(verdict)
    }

    /// Registers `model` as a candidate and starts mirroring live traffic
    /// to it. Replaces any previous shadow (its tallies are discarded).
    /// Returns the assigned version.
    pub fn begin_shadow(&self, model: Arc<FrappeModel>, source: ModelSource) -> u64 {
        let version = self.registry.register(Arc::clone(&model), source);
        *self.shadow.lock() = Some(ShadowSlot {
            state: ShadowState::new(version),
            model,
        });
        self.metrics
            .shadow_version
            .set(version.min(i64::MAX as u64) as i64);
        version
    }

    /// Tallies of the current shadow run, if one is riding along.
    pub fn shadow_report(&self) -> Option<ShadowReport> {
        self.shadow.lock().as_ref().map(|s| s.state.report())
    }

    /// Evaluates the shadow against the promotion gate; on pass, promotes
    /// it through the service (one pointer swap — serve's swap counter
    /// and version gauge fire, and the epoch bump invalidates every
    /// cached verdict).
    pub fn try_promote(&self) -> PromotionOutcome {
        let mut slot = self.shadow.lock();
        let Some(shadow) = slot.as_ref() else {
            return PromotionOutcome::NoShadow;
        };
        let report = shadow.state.report();
        let decision = self.gate.evaluate(&report);
        if !decision.promote {
            return PromotionOutcome::Held(decision.holds);
        }
        let version = report.version;
        // Announce before the fence runs: every request still in flight
        // while the edge drains for the swap gets flagged (and therefore
        // tail-sampled) by the trace collector.
        if let Some(trace) = self.service.trace_collector() {
            trace.lifecycle_event(
                LifecycleEvent::Promote,
                &format!("promote shadow version {version}"),
            );
        }
        self.fenced_swap(|| {
            self.registry
                .promote(version, |model, v| self.service.swap_model(model, v))
        })
        .expect("a shadow slot always holds a registered, non-active version");
        *slot = None;
        self.metrics.promotions.inc();
        self.metrics
            .active_version
            .set(version.min(i64::MAX as u64) as i64);
        self.metrics.shadow_version.set(0);
        PromotionOutcome::Promoted(version)
    }

    /// Rolls back to the previously-active version through the service.
    /// The restored model is installed at a new epoch, so verdicts cached
    /// before the rollback can never be served. Returns the version
    /// rolled back to.
    pub fn rollback(&self) -> Result<u64, LifecycleError> {
        // As with promotion: flag in-flight requests before the fence so
        // the collector tail-samples everything the rollback touched.
        if let Some(trace) = self.service.trace_collector() {
            trace.lifecycle_event(
                LifecycleEvent::Rollback,
                &format!("rollback from version {}", self.registry.active_version()),
            );
        }
        let version = self.fenced_swap(|| {
            self.registry
                .rollback(|model, v| self.service.swap_model(model, v))
        })?;
        self.metrics.rollbacks.inc();
        self.metrics
            .active_version
            .set(version.min(i64::MAX as u64) as i64);
        Ok(version)
    }

    /// Re-freezes the drift baseline (call when a model trained on fresh
    /// rows takes over) and clears the live window.
    pub fn refit_drift_baseline(&self, rows: &[frappe::AppFeatures]) {
        self.drift.lock().fit_baseline(rows);
    }

    /// Computes the drift report over the live window, publishes the
    /// worst per-lane PSI as a gauge (in thousandths), and counts a
    /// trigger when any lane is over threshold. The caller decides what a
    /// trigger means — typically: retrain and [`Self::begin_shadow`].
    pub fn check_drift(&self) -> DriftReport {
        let report = self.drift.lock().report();
        self.metrics
            .max_psi_milli
            .set((report.max_psi() * 1000.0).round().min(i64::MAX as f64) as i64);
        // Publish the full per-lane PSI map: `lifecycle_psi_milli{lane=…}`
        // (thousandths, like the max gauge). Lanes and gauges are both in
        // catalog order by construction.
        for (lane, gauge) in report.lanes.iter().zip(&self.metrics.psi_milli) {
            gauge.set((lane.psi * 1000.0).round().min(i64::MAX as f64) as i64);
        }
        if report.is_drifted() {
            self.metrics.drift_triggers.inc();
            // Raise a trace alarm carrying exemplar trace IDs from the
            // window the drift was computed over, so an operator can jump
            // from "PSI fired" straight to concrete traced requests.
            if let Some(trace) = self.service.trace_collector() {
                trace.alarm(
                    "psi_drift",
                    &format!(
                        "max_psi={:.3} lanes={}",
                        report.max_psi(),
                        report.drifted.join(",")
                    ),
                    8,
                );
            }
        }
        report
    }
}
