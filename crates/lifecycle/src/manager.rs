//! The lifecycle manager: one façade wiring registry, shadow, drift, and
//! a running serving [`Deployment`] together.
//!
//! The manager owns the deployment loop the rest of the crate only
//! provides parts for. It observes traffic at the one place verdicts
//! are produced: [`LifecycleManager::new`] attaches an observer to the
//! deployment's scorers (one service, or all K shard groups), so every
//! answered query — in-process, over the socket edge, through a router
//! — feeds it, whoever asked:
//!
//! ```text
//!  any classify ──► scorer ──► verdict (served)
//!                     │  observe(row, verdict), before the reply
//!                     ├── drift.observe(row)        every answered query
//!                     ├── shadow.predict(row) ──►   tallies only, never
//!                     │     (+ label from record_label)       served
//!                     └── audit.record(..)          fresh scores only
//!
//!  check_drift() ► PSI over threshold ► retrain ► begin_shadow(candidate)
//!                                          │
//!  try_promote() ► gate passes ► registry.promote ► service.swap_model
//!                                          │ (one pointer swap; epoch
//!  rollback()  ◄───────────────────────────┘  bump kills cached verdicts)
//! ```
//!
//! Drift bins and shadow tallies are integer atomics, so their totals
//! are order-free — the same at any pool size and group count — and no
//! lock on the per-query path is exclusive. Dropping the manager detaches
//! the observer.
//!
//! Everything observable is a `frappe-obs` metric on the service's own
//! registry, so one Prometheus scrape shows serving *and* lifecycle
//! state: shadow traffic and disagreements, promotions, rollbacks, drift
//! triggers, the active and shadow versions, the worst per-lane PSI
//! (`lifecycle_max_psi_milli`), and the full per-lane PSI map
//! (`lifecycle_psi_milli{lane=…}`).

use std::collections::HashMap;
use std::sync::Arc;

use frappe::{AppFeatures, FrappeModel, VersionedModel};
use frappe_obs::{AuditLog, AuditSource, Counter, Gauge, LifecycleEvent};
use frappe_serve::{Deployment, Verdict, VerdictObserver};
use osn_types::ids::AppId;
use parking_lot::{Mutex, RwLock};

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

/// What the manager attaches to the deployment's scorers: every
/// answered query feeds the drift window and, while a candidate rides
/// along, the shadow tally; fresh scores also feed the audit sink.
struct Observer {
    drift: RwLock<DriftDetector>,
    shadow: RwLock<Option<Arc<ShadowSlot>>>,
    labels: RwLock<HashMap<AppId, bool>>,
    audit: RwLock<Option<Arc<AuditLog>>>,
    shadow_scored: Arc<Counter>,
    shadow_disagreements: Arc<Counter>,
}

impl VerdictObserver for Observer {
    fn observe(&self, row: &AppFeatures, verdict: &Verdict, model: &VersionedModel, fresh: bool) {
        self.drift.read().observe(row);
        // The shadow predicts outside the slot's lock, so `begin_shadow`
        // and `try_promote` never wait on a prediction.
        let shadow = self.shadow.read().clone();
        if let Some(slot) = shadow {
            let shadow_verdict = slot.model.predict(row);
            let label = self.labels.read().get(&verdict.app).copied();
            slot.state.record(verdict.malicious, shadow_verdict, label);
            self.shadow_scored.inc();
            if shadow_verdict != verdict.malicious {
                self.shadow_disagreements.inc();
            }
        }
        // Fresh scores are auditable: linear models decompose into
        // per-feature contributions (cache hits replay an already-audited
        // score, so they do not re-emit).
        if fresh {
            if let Some(log) = self.audit.read().clone() {
                if let Some(explanation) = model.model().explain(row) {
                    let mut record = explanation
                        .into_audit_record(AuditSource::Online, Some(verdict.generation));
                    record.model_version = Some(model.version());
                    log.record(record);
                }
            }
        }
    }
}

struct LifecycleMetrics {
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
///
/// A deployment has one observer slot, so it has one manager at a time:
/// a second manager's construction takes the slot over, and dropping
/// either empties it.
pub struct LifecycleManager {
    service: Deployment,
    registry: ModelRegistry,
    gate: PromotionGate,
    observer: Arc<Observer>,
    fence: Mutex<Option<Arc<dyn SwapFence>>>,
    metrics: LifecycleMetrics,
}

impl LifecycleManager {
    /// Wires the pieces together around an `Arc<FrappeService>`, an
    /// `Arc<ShardRouter>`, or a [`Deployment`]. The registry is seeded
    /// with the model the deployment serves right now — the entry shares
    /// its `Arc` and keeps its version — and `source` is that model's
    /// lineage. The manager's observer is attached to the deployment's
    /// scorers before this returns.
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
        let observer = Arc::new(Observer {
            drift: RwLock::new(drift),
            shadow: RwLock::new(None),
            labels: RwLock::new(HashMap::new()),
            audit: RwLock::new(None),
            shadow_scored: obs.counter("lifecycle_shadow_scored"),
            shadow_disagreements: obs.counter("lifecycle_shadow_disagreements"),
        });
        service.set_observer(Some(Arc::clone(&observer) as Arc<dyn VerdictObserver>));
        LifecycleManager {
            service,
            registry,
            gate,
            observer,
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

    /// Records ground truth for `app` (a PageKeeper-style label). While a
    /// shadow rides along, every later query for the app counts toward
    /// the shadow's and the incumbent's labelled FP/FN tallies.
    pub fn record_label(&self, app: AppId, malicious: bool) {
        self.observer.labels.write().insert(app, malicious);
    }

    /// Attaches an audit sink: every *freshly scored* verdict (cache
    /// misses only, from every group of the deployment) emits a
    /// per-feature contribution record, provided the serving model has
    /// a linear kernel. Non-linear models (the paper's RBF default) emit
    /// nothing — their decision values have no exact per-feature
    /// decomposition. Returns the previously attached sink, if any.
    pub fn set_audit_log(&self, log: Arc<AuditLog>) -> Option<Arc<AuditLog>> {
        self.observer.audit.write().replace(log)
    }

    /// Registers `model` as a candidate and starts mirroring live traffic
    /// to it. Replaces any previous shadow (its tallies are discarded).
    /// Returns the assigned version.
    pub fn begin_shadow(&self, model: Arc<FrappeModel>, source: ModelSource) -> u64 {
        let version = self.registry.register(Arc::clone(&model), source);
        *self.observer.shadow.write() = Some(Arc::new(ShadowSlot {
            state: ShadowState::new(version),
            model,
        }));
        self.metrics
            .shadow_version
            .set(version.min(i64::MAX as u64) as i64);
        version
    }

    /// Tallies of the current shadow run, if one is riding along.
    pub fn shadow_report(&self) -> Option<ShadowReport> {
        self.observer
            .shadow
            .read()
            .as_ref()
            .map(|s| s.state.report())
    }

    /// Evaluates the shadow against the promotion gate; on pass, promotes
    /// it through the service (one pointer swap — serve's swap counter
    /// and version gauge fire, and the epoch bump invalidates every
    /// cached verdict).
    pub fn try_promote(&self) -> PromotionOutcome {
        // Empty the slot and release its lock before the fenced swap:
        // the fence waits for in-flight queries, and their scorers take
        // the slot's read lock as they are observed.
        let version = {
            let mut slot = self.observer.shadow.write();
            let Some(shadow) = slot.as_ref() else {
                return PromotionOutcome::NoShadow;
            };
            let decision = self.gate.evaluate(&shadow.state.report());
            if !decision.promote {
                return PromotionOutcome::Held(decision.holds);
            }
            let version = shadow.state.version();
            *slot = None;
            version
        };
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
    pub fn refit_drift_baseline(&self, rows: &[AppFeatures]) {
        self.observer.drift.write().fit_baseline(rows);
    }

    /// Computes the drift report over the live window, publishes the
    /// worst per-lane PSI as a gauge (in thousandths), and counts a
    /// trigger when any lane is over threshold. The caller decides what a
    /// trigger means — typically: retrain and [`Self::begin_shadow`].
    pub fn check_drift(&self) -> DriftReport {
        let report = self.observer.drift.read().report();
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

impl Drop for LifecycleManager {
    /// Detaches the observer: the deployment's scorers stop feeding it.
    fn drop(&mut self) {
        self.service.set_observer(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::tests::tiny_model;
    use crate::drift::DriftConfig;
    use frappe::features::aggregation::KnownMaliciousNames;
    use frappe::FeatureSet;
    use frappe_serve::{FrappeService, ServeConfig, ServeEvent};
    use url_services::shortener::Shortener;

    fn managed_service() -> (Arc<FrappeService>, LifecycleManager) {
        let service = Arc::new(FrappeService::new(
            tiny_model(FeatureSet::Full),
            KnownMaliciousNames::default(),
            Shortener::bitly(),
            ServeConfig::default(),
        ));
        service.ingest(&ServeEvent::Registered {
            app: AppId(21),
            name: "quiz of the day".into(),
        });
        let manager = LifecycleManager::new(
            Arc::clone(&service),
            ModelSource::default(),
            PromotionGate::default(),
            DriftDetector::new(DriftConfig::default()),
        );
        (service, manager)
    }

    #[test]
    fn rbf_incumbent_emits_no_audit_records() {
        // tiny_model trains the paper-default RBF kernel, which has no
        // per-feature decomposition — the sink must stay silent.
        let (service, manager) = managed_service();
        let log = Arc::new(AuditLog::default());
        assert!(manager.set_audit_log(Arc::clone(&log)).is_none());
        service.classify(AppId(21)).unwrap();
        assert!(log.is_empty());
        assert!(manager.set_audit_log(Arc::default()).is_some());
    }

    #[test]
    fn dropping_the_manager_detaches_its_observer() {
        let (service, manager) = managed_service();
        service.classify(AppId(21)).unwrap();
        assert_eq!(manager.check_drift().window_samples, 1);
        drop(manager);
        assert!(
            Deployment::from(service).set_observer(None).is_none(),
            "the slot is empty once the manager is gone"
        );
    }
}
