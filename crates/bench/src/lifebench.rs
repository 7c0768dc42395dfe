//! Lifecycle wall-clock benchmark: retraining, and the cost of
//! shadow-scoring live traffic.
//!
//! Like [`crate::trainbench`], this module produces one machine-readable
//! [`LifecycleBenchReport`] that `repro --lifecycle-bench-out` serializes
//! to `BENCH_lifecycle.json`: the wall-clock of a full retraining pass
//! (CV included) at one and many threads, and the per-query cost of a
//! warm classify through a service with a [`LifecycleManager`] attached,
//! without and with a shadow candidate riding along.
//!
//! Honesty note: the retrain numbers are one unrepeated pass on *this
//! machine*. The shadow leg is repeated and reports each side's median
//! and interquartile range; it names an overhead only when the two
//! ranges do not overlap. `threads_available` is recorded alongside
//! everything.

use std::sync::Arc;
use std::time::Instant;

use frappe::{AppFeatures, FrappeModel};
use frappe_jobs::JobPool;
use frappe_lifecycle::{
    retrain_on, write_model, DriftConfig, DriftDetector, LifecycleManager, ModelSource,
    PromotionGate, RetrainConfig,
};
use frappe_serve::{serve_events, FrappeService, ServeConfig};
use serde::{Deserialize, Serialize};
use synth_workload::ScenarioConfig;

use crate::lab::{Archive, Lab};
use crate::render::quantile_us;

/// Retraining wall-clock: a full `retrain_on` pass (median imputation,
/// scaling, 5-fold CV, final fit) at one thread vs many, plus the
/// bit-identity verdict between the two models.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RetrainBench {
    /// Labelled examples in the batch.
    pub examples: usize,
    /// Cross-validation folds.
    pub folds: usize,
    /// Wall-clock of the 1-thread retrain, milliseconds.
    pub serial_ms: f64,
    /// Wall-clock of the parallel retrain, milliseconds.
    pub parallel_ms: f64,
    /// Thread count of the parallel run (after the machine clamp).
    pub parallel_threads: usize,
    /// How the "parallel" retrain actually executed — `"parallel(N)"`,
    /// or `"serial"` when the machine clamp degraded it to the inline
    /// path (single-core CI boxes; see [`JobPool::for_machine`]).
    pub parallel_mode: String,
    /// Whether the two retrains produced byte-identical checkpoints.
    pub identical: bool,
    /// Cross-validated accuracy of the retrained model.
    pub cv_accuracy: f64,
}

/// Median and interquartile range of a repeated measurement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Spread {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Spread {
    /// The spread of `values` (nearest-rank quartiles); all zero when
    /// empty.
    pub fn of(values: &[f64]) -> Spread {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Spread {
            q1: quantile_us(&sorted, 0.25),
            median: quantile_us(&sorted, 0.5),
            q3: quantile_us(&sorted, 0.75),
        }
    }

    /// Whether the two interquartile ranges share any value.
    pub fn overlaps(&self, other: &Spread) -> bool {
        self.q1 <= other.q3 && other.q1 <= self.q3
    }
}

/// Shadow-scoring overhead: warm classify sweeps through one service
/// with a lifecycle manager attached, with no shadow and with a
/// candidate mirroring every query. Repeats alternate between the two
/// sides; each times `queries` classifies.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShadowBench {
    /// Queries per timed repeat.
    pub queries: usize,
    /// Timed repeats per side.
    pub repeats: usize,
    /// Warm classify with no shadow riding, microseconds per query.
    pub plain_us_per_query: Spread,
    /// Warm classify with the shadow mirroring every query,
    /// microseconds per query.
    pub shadowed_us_per_query: Spread,
    /// Median shadowed minus median plain, microseconds per query; `None`
    /// when the two interquartile ranges overlap (no measurable cost).
    pub overhead_us_per_query: Option<f64>,
}

/// The full lifecycle benchmark report (`BENCH_lifecycle.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LifecycleBenchReport {
    /// `std::thread::available_parallelism()` on the measuring machine —
    /// read this before reading any timing.
    pub threads_available: usize,
    /// Quick mode (CI-sized sweeps) or the full configuration.
    pub quick: bool,
    /// Retraining wall-clock.
    pub retrain: RetrainBench,
    /// Shadow-evaluation overhead on the serving path.
    pub shadow: ShadowBench,
}

/// Runs the lifecycle benchmark on the small deterministic world.
/// `quick` shrinks the shadow leg to CI size; the retraining batch (the
/// small world's full labelled population) is the same in both modes.
pub fn run(quick: bool) -> LifecycleBenchReport {
    let threads_available = std::thread::available_parallelism().map_or(1, |n| n.get());
    // (classify sweeps per timed repeat, repeats per side)
    let (sweeps, repeats) = if quick { (1usize, 5usize) } else { (10, 11) };

    let lab = Lab::build(&ScenarioConfig::small());
    let (samples, labels) = lab.labelled_features(
        &lab.bundle.d_sample.malicious,
        &lab.bundle.d_sample.benign,
        Archive::Extended,
    );
    let config = RetrainConfig::default();

    // Retrain wall-clock, serial vs parallel, with the identity check the
    // lifecycle layer's determinism contract promises.
    let t = Instant::now();
    let serial = retrain_on(&JobPool::with_threads(1), &samples, &labels, &config);
    let serial_ms = t.elapsed().as_secs_f64() * 1e3;
    // request 8 threads, take what the machine honestly has — a 1-core
    // box runs this serially and says so in `parallel_mode`
    let pool = JobPool::for_machine(8);
    let t = Instant::now();
    let parallel = retrain_on(&pool, &samples, &labels, &config);
    let parallel_ms = t.elapsed().as_secs_f64() * 1e3;
    let retrain = RetrainBench {
        examples: samples.len(),
        folds: config.folds,
        serial_ms,
        parallel_ms,
        parallel_threads: pool.threads(),
        parallel_mode: pool.mode(),
        identical: write_model(&serial.model) == write_model(&parallel.model),
        cv_accuracy: serial.cv.accuracy,
    };

    // A service over the same world, plus a candidate (trained on every
    // other row) to shadow.
    let alt_samples: Vec<AppFeatures> = samples.iter().step_by(2).cloned().collect();
    let alt_labels: Vec<bool> = labels.iter().step_by(2).copied().collect();
    let alt = Arc::new(FrappeModel::train(
        &alt_samples,
        &alt_labels,
        frappe::FeatureSet::Full,
        None,
    ));
    let service = Arc::new(FrappeService::new(
        serial.model.clone(),
        lab.known_malicious_names(),
        lab.world.shortener.clone(),
        ServeConfig::default(),
    ));
    for event in serve_events(&lab.world) {
        service.ingest(&event);
    }
    let apps = service.tracked_apps();
    let queries = sweeps * apps.len();
    let sweep = || {
        for &app in &apps {
            service.classify(app).expect("tracked app");
        }
    };
    // One repeat: a fresh manager observes the service (with the
    // candidate riding along when `with_shadow`) while `sweeps` warm sweeps
    // are timed; dropping it detaches its observer again.
    let time = |with_shadow: bool| {
        let manager = LifecycleManager::new(
            Arc::clone(&service),
            serial.source(None),
            PromotionGate::default(),
            DriftDetector::new(DriftConfig::default()),
        );
        if with_shadow {
            manager.begin_shadow(Arc::clone(&alt), ModelSource::default());
        }
        let t = Instant::now();
        for _ in 0..sweeps {
            sweep();
        }
        t.elapsed().as_secs_f64() * 1e6 / queries.max(1) as f64
    };

    // Warm the cache, then interleave the two sides on the same service
    // and workers, alternating which goes first, so drift in the
    // machine's speed lands on both.
    sweep();
    let (mut plain, mut shadowed) = (Vec::new(), Vec::new());
    for repeat in 0..repeats {
        let order = if repeat % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for with_shadow in order {
            let us = time(with_shadow);
            if with_shadow {
                shadowed.push(us);
            } else {
                plain.push(us);
            }
        }
    }
    let (plain, shadowed) = (Spread::of(&plain), Spread::of(&shadowed));
    let shadow = ShadowBench {
        queries,
        repeats,
        plain_us_per_query: plain,
        shadowed_us_per_query: shadowed,
        overhead_us_per_query: (!plain.overlaps(&shadowed))
            .then_some(shadowed.median - plain.median),
    };

    LifecycleBenchReport {
        threads_available,
        quick,
        retrain,
        shadow,
    }
}

impl LifecycleBenchReport {
    /// Human-readable summary (what `repro --lifecycle-bench-out` prints).
    pub fn render(&self) -> String {
        let shadow = &self.shadow;
        let overhead = match shadow.overhead_us_per_query {
            Some(us) => format!("{us:.2} us/query overhead"),
            None => "ranges overlap: no measurable overhead".to_string(),
        };
        format!(
            "lifecycle bench ({} mode, {} threads available)\n\
             retrain      {} examples x {} folds: serial {:.0} ms, \
             {} {:.0} ms, identical: {}, cv acc {:.3}\n\
             shadow       {} repeats x {} queries, us/query median [IQR]: \
             {:.2} [{:.2}, {:.2}] plain vs {:.2} [{:.2}, {:.2}] shadowed ({overhead})",
            if self.quick { "quick" } else { "full" },
            self.threads_available,
            self.retrain.examples,
            self.retrain.folds,
            self.retrain.serial_ms,
            self.retrain.parallel_mode,
            self.retrain.parallel_ms,
            self.retrain.identical,
            self.retrain.cv_accuracy,
            shadow.repeats,
            shadow.queries,
            shadow.plain_us_per_query.median,
            shadow.plain_us_per_query.q1,
            shadow.plain_us_per_query.q3,
            shadow.shadowed_us_per_query.median,
            shadow.shadowed_us_per_query.q1,
            shadow.shadowed_us_per_query.q3,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_runs_and_roundtrips() {
        let report = run(true);
        assert!(report.retrain.identical, "retrains must be bit-identical");
        assert!(report.retrain.cv_accuracy > 0.8);
        assert!(report.shadow.queries > 0);
        assert!(report.shadow.repeats >= 5);
        let plain = report.shadow.plain_us_per_query;
        assert!(plain.q1 <= plain.median && plain.median <= plain.q3);
        assert_eq!(
            report.shadow.overhead_us_per_query.is_some(),
            !plain.overlaps(&report.shadow.shadowed_us_per_query)
        );
        assert!(
            report.retrain.parallel_mode == "serial"
                || report.retrain.parallel_mode
                    == format!("parallel({})", report.retrain.parallel_threads)
        );
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: LifecycleBenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.shadow.plain_us_per_query, plain);
        assert!(!report.render().is_empty());
    }

    #[test]
    fn spreads_overlap_only_when_their_ranges_meet() {
        let low = Spread::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((low.q1, low.median, low.q3), (2.0, 3.0, 4.0));
        assert!(low.overlaps(&Spread::of(&[3.0, 4.0, 5.0])));
        assert!(!low.overlaps(&Spread::of(&[6.0, 7.0, 8.0])));
    }
}
