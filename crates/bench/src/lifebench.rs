//! Lifecycle wall-clock benchmark: retraining, hot-swap latency, and the
//! cost of shadow-scoring live traffic.
//!
//! Like [`crate::trainbench`], this module produces one machine-readable
//! [`LifecycleBenchReport`] that `repro --lifecycle-bench-out` serializes
//! to `BENCH_lifecycle.json`: the wall-clock of a full retraining pass
//! (CV included) at one and many threads, the latency distribution of
//! the epoch-pointer model swap itself, the price of the first rescoring
//! sweep after a swap (every verdict is a cache miss), and the per-query
//! overhead a riding shadow candidate adds to a warm serving path.
//!
//! Honesty note: all numbers are whatever *this machine* delivers in one
//! unrepeated pass, so the report carries no ratio between them; the
//! swap itself is a pointer store behind an `ArcSwap`-style cell, so its
//! latency is reported in nanosecond-scale microseconds and dominated by
//! clock overhead. `threads_available` is recorded alongside everything.

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

/// Hot-swap latency: the epoch-pointer store itself, and the rescoring
/// sweep the cache invalidation forces afterwards.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SwapBench {
    /// Number of swaps timed.
    pub swaps: usize,
    /// Mean per-swap latency, microseconds.
    pub mean_us: f64,
    /// 99th-percentile per-swap latency, microseconds.
    pub p99_us: f64,
    /// Worst per-swap latency, microseconds.
    pub max_us: f64,
    /// Full classify sweep right after a swap (every app a cache miss),
    /// milliseconds.
    pub cold_sweep_ms: f64,
    /// The same sweep again with the cache warm, milliseconds.
    pub warm_sweep_ms: f64,
    /// Apps per sweep.
    pub apps: usize,
}

/// Shadow-scoring overhead: a warm classify sweep with no shadow vs the
/// same sweep with a candidate mirroring every query.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShadowBench {
    /// Queries per timed sweep.
    pub queries: usize,
    /// Warm sweep with no shadow riding, milliseconds.
    pub baseline_ms: f64,
    /// Warm sweep with the shadow mirroring every query, milliseconds.
    pub shadowed_ms: f64,
    /// `(shadowed_ms - baseline_ms) / queries`, microseconds per query.
    pub overhead_us_per_query: f64,
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
    /// Hot-swap latency and post-swap rescoring cost.
    pub swap: SwapBench,
    /// Shadow-evaluation overhead on the serving path.
    pub shadow: ShadowBench,
}

/// Runs the lifecycle benchmark on the small deterministic world.
/// `quick` shrinks sweep and swap counts to CI size; the retraining
/// batch (the small world's full labelled population) is the same in
/// both modes.
pub fn run(quick: bool) -> LifecycleBenchReport {
    let threads_available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (sweeps, swaps) = if quick {
        (2usize, 200usize)
    } else {
        (20, 2000)
    };

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

    // A registry-backed service over the same world, plus a second model
    // (trained on every other row) to alternate swaps against.
    let alt_samples: Vec<AppFeatures> = samples.iter().step_by(2).cloned().collect();
    let alt_labels: Vec<bool> = labels.iter().step_by(2).copied().collect();
    let alt = Arc::new(FrappeModel::train(
        &alt_samples,
        &alt_labels,
        frappe::FeatureSet::Full,
        None,
    ));
    let main = Arc::new(serial.model.clone());
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

    // Shadow overhead first (while the service's verdict cache maps the
    // incumbent): warm the cache, time plain sweeps, then time the same
    // sweeps with the candidate mirroring every query.
    let manager = LifecycleManager::new(
        Arc::clone(&service),
        serial.source(None),
        PromotionGate::default(),
        DriftDetector::new(DriftConfig::default()),
    );
    for &app in &apps {
        manager.classify(app).expect("tracked app");
    }
    let t = Instant::now();
    for _ in 0..sweeps {
        for &app in &apps {
            manager.classify(app).expect("tracked app");
        }
    }
    let baseline_ms = t.elapsed().as_secs_f64() * 1e3;
    manager.begin_shadow(Arc::clone(&alt), ModelSource::default());
    let t = Instant::now();
    for _ in 0..sweeps {
        for &app in &apps {
            manager.classify(app).expect("tracked app");
        }
    }
    let shadowed_ms = t.elapsed().as_secs_f64() * 1e3;
    let queries = sweeps * apps.len();
    let shadow = ShadowBench {
        queries,
        baseline_ms,
        shadowed_ms,
        overhead_us_per_query: (shadowed_ms - baseline_ms) * 1e3 / queries.max(1) as f64,
    };

    // Swap latency: alternate the two models through the live handle,
    // timing each pointer swap, then price the rescoring sweep the final
    // swap's cache invalidation forces.
    let mut latencies_us = Vec::with_capacity(swaps);
    for i in 0..swaps {
        let model = if i % 2 == 0 {
            Arc::clone(&alt)
        } else {
            Arc::clone(&main)
        };
        let t = Instant::now();
        service.swap_model(model, 1000 + i as u64);
        latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    latencies_us.sort_by(|a, b| a.total_cmp(b));
    let mean_us = latencies_us.iter().sum::<f64>() / swaps.max(1) as f64;
    let p99_us = quantile_us(&latencies_us, 0.99);
    let max_us = *latencies_us.last().unwrap_or(&0.0);
    let t = Instant::now();
    for &app in &apps {
        service.classify(app).expect("tracked app");
    }
    let cold_sweep_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    for &app in &apps {
        service.classify(app).expect("tracked app");
    }
    let warm_sweep_ms = t.elapsed().as_secs_f64() * 1e3;
    let swap = SwapBench {
        swaps,
        mean_us,
        p99_us,
        max_us,
        cold_sweep_ms,
        warm_sweep_ms,
        apps: apps.len(),
    };

    LifecycleBenchReport {
        threads_available,
        quick,
        retrain,
        swap,
        shadow,
    }
}

impl LifecycleBenchReport {
    /// Human-readable summary (what `repro --lifecycle-bench-out` prints).
    pub fn render(&self) -> String {
        format!(
            "lifecycle bench ({} mode, {} threads available)\n\
             retrain      {} examples x {} folds: serial {:.0} ms, \
             {} {:.0} ms, identical: {}, cv acc {:.3}\n\
             hot swap     {} swaps: mean {:.2} us, p99 {:.2} us, max {:.2} us; \
             post-swap rescore of {} apps {:.1} ms cold vs {:.1} ms warm\n\
             shadow       {} queries: {:.1} ms plain vs {:.1} ms shadowed \
             ({:.1} us/query overhead)",
            if self.quick { "quick" } else { "full" },
            self.threads_available,
            self.retrain.examples,
            self.retrain.folds,
            self.retrain.serial_ms,
            self.retrain.parallel_mode,
            self.retrain.parallel_ms,
            self.retrain.identical,
            self.retrain.cv_accuracy,
            self.swap.swaps,
            self.swap.mean_us,
            self.swap.p99_us,
            self.swap.max_us,
            self.swap.apps,
            self.swap.cold_sweep_ms,
            self.swap.warm_sweep_ms,
            self.shadow.queries,
            self.shadow.baseline_ms,
            self.shadow.shadowed_ms,
            self.shadow.overhead_us_per_query,
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
        assert!(report.swap.swaps > 0);
        assert!(report.swap.cold_sweep_ms > 0.0);
        assert!(report.shadow.queries > 0);
        assert!(
            report.retrain.parallel_mode == "serial"
                || report.retrain.parallel_mode
                    == format!("parallel({})", report.retrain.parallel_threads)
        );
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: LifecycleBenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.swap.swaps, report.swap.swaps);
        assert!(!report.render().is_empty());
    }
}
