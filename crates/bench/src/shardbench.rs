//! Shard-group scaling benchmark: the shared-nothing router vs itself.
//!
//! This module produces one machine-readable [`ShardBenchReport`] that
//! `repro --shard-bench-out` serializes to `BENCH_shard.json`: ingest
//! throughput (events/s of one feeder thread applying through the hashing
//! router) and classify throughput with p50/p99 latency, each
//! measured at group counts {1, 2, 4, 8} over the same world, the same
//! model, and the same per-group configuration — so the only variable is
//! K. A final leg hammers classify across repeated hot swaps on the
//! largest deployment and counts **stale-epoch verdicts** (a model
//! version observed going backwards on any thread); the tentpole
//! invariant is that the count is zero.
//!
//! Honesty note: the scaling curve is whatever *this machine* delivers —
//! a box with fewer cores than the hammer threads flattens early, which
//! is why `threads_available` and `parallel_mode` ride along in the
//! report (same convention as the other BENCH files). It records no
//! speedup between group counts: each timing is one unrepeated pass, and
//! a ratio of two such passes is inside their noise.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use frappe::{FeatureSet, FrappeModel};
use frappe_jobs::JobPool;
use frappe_serve::{serve_events, ShardConfig, ShardRouter};
use osn_types::ids::AppId;
use serde::{Deserialize, Serialize};

use crate::lab::{Archive, Lab};
use crate::render::quantile_us;

/// Group counts every sweep measures.
pub const GROUP_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One group-count point on the scaling curve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GroupRunBench {
    /// Shard groups (K).
    pub groups: usize,
    /// Events applied through the router.
    pub ingest_events: usize,
    /// Wall-clock of applying the whole stream, milliseconds.
    pub ingest_wall_ms: f64,
    /// `ingest_events / ingest_wall`.
    pub ingest_events_per_s: f64,
    /// Blocking classify calls issued across all hammer threads.
    pub classify_queries: usize,
    /// Hammer threads issuing them.
    pub classify_threads: usize,
    /// Wall-clock of the classify sweep, milliseconds.
    pub classify_wall_ms: f64,
    /// `classify_queries / classify_wall`.
    pub classify_per_s: f64,
    /// Median per-call classify latency, microseconds.
    pub classify_p50_us: f64,
    /// 99th-percentile per-call classify latency, microseconds.
    pub classify_p99_us: f64,
}

/// The hot-swap-under-load leg: repeated promotions against concurrent
/// classify traffic on the largest deployment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SwapUnderLoadBench {
    /// Shard groups the leg ran with.
    pub groups: usize,
    /// Hot swaps applied while the hammer threads ran.
    pub swaps: usize,
    /// Verdicts observed across all hammer threads.
    pub verdicts_observed: u64,
    /// Verdicts whose model version went *backwards* on some thread —
    /// the stale-epoch signature. The shared control plane makes this
    /// structurally zero; the report carries the measured count so the
    /// claim is checked, not assumed.
    pub stale_epoch_verdicts: u64,
}

/// The full shard-group benchmark report (`BENCH_shard.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardBenchReport {
    /// `std::thread::available_parallelism()` on the measuring machine —
    /// read this before reading the scaling curve.
    pub threads_available: usize,
    /// Quick mode (CI-sized sweeps) or the full configuration.
    pub quick: bool,
    /// How a `for_machine(8)` job pool would execute here (the same
    /// machine-clamp disclosure the other reports carry).
    pub parallel_mode: String,
    /// The scaling curve, one entry per group count in [`GROUP_COUNTS`].
    pub runs: Vec<GroupRunBench>,
    /// Zero-stale proof under repeated hot swaps.
    pub swap_under_load: SwapUnderLoadBench,
}

fn shard_config(groups: usize) -> ShardConfig {
    ShardConfig {
        groups,
        ..ShardConfig::default()
    }
}

/// Runs the shard-group benchmark on the small deterministic world.
/// `quick` shrinks the classify sweep and swap counts to CI size; the
/// ingest leg always replays the world's full event stream.
pub fn run(quick: bool) -> ShardBenchReport {
    let threads_available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (queries_per_k, swaps) = if quick {
        (2_000usize, 25usize)
    } else {
        (40_000, 250)
    };

    let lab = Lab::build(&synth_workload::ScenarioConfig::small());
    let (samples, labels) = lab.labelled_features(
        &lab.bundle.d_sample.malicious,
        &lab.bundle.d_sample.benign,
        Archive::Extended,
    );
    let model = FrappeModel::train(&samples, &labels, FeatureSet::Full, None);
    // The alternate model for the swap leg: trained on every other row.
    let half_samples: Vec<_> = samples.iter().step_by(2).cloned().collect();
    let half_labels: Vec<bool> = labels.iter().step_by(2).copied().collect();
    let alt = Arc::new(FrappeModel::train(
        &half_samples,
        &half_labels,
        FeatureSet::Full,
        None,
    ));
    let main = Arc::new(model.clone());
    let events = serve_events(&lab.world);

    let hammer_threads = threads_available.clamp(2, 8);
    let mut runs: Vec<GroupRunBench> = Vec::with_capacity(GROUP_COUNTS.len());
    let mut largest: Option<Arc<ShardRouter>> = None;
    for &groups in &GROUP_COUNTS {
        let router = Arc::new(ShardRouter::new(
            model.clone(),
            lab.known_malicious_names(),
            lab.world.shortener.clone(),
            shard_config(groups),
        ));

        // Ingest: one feeder applies the whole stream, each event in its
        // owner group's store on the feeder's own thread.
        let t = Instant::now();
        for event in &events {
            router.ingest(event).unwrap();
        }
        let ingest_wall_ms = t.elapsed().as_secs_f64() * 1e3;

        // Classify: hammer threads walk the tracked apps with coprime
        // strides, so every group stays busy. One warm-up sweep first —
        // the curve compares groups, not cold caches.
        let apps = router.tracked_apps();
        for &app in &apps {
            router.classify(app).expect("tracked app");
        }
        let per_thread = queries_per_k.div_ceil(hammer_threads);
        let t = Instant::now();
        let mut latencies: Vec<f64> = Vec::with_capacity(hammer_threads * per_thread);
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..hammer_threads)
                .map(|tid| {
                    let router = &router;
                    let apps = &apps;
                    s.spawn(move || {
                        let mut lat = Vec::with_capacity(per_thread);
                        let mut i = tid;
                        for _ in 0..per_thread {
                            let app = apps[i % apps.len()];
                            i += 7;
                            let t = Instant::now();
                            router.classify(app).expect("tracked app");
                            lat.push(t.elapsed().as_micros() as f64);
                        }
                        lat
                    })
                })
                .collect();
            for worker in workers {
                latencies.extend(worker.join().expect("hammer thread"));
            }
        });
        let classify_wall_ms = t.elapsed().as_secs_f64() * 1e3;
        latencies.sort_by(f64::total_cmp);

        let classify_per_s = latencies.len() as f64 / (classify_wall_ms / 1e3).max(1e-9);
        runs.push(GroupRunBench {
            groups,
            ingest_events: events.len(),
            ingest_wall_ms,
            ingest_events_per_s: events.len() as f64 / (ingest_wall_ms / 1e3).max(1e-9),
            classify_queries: latencies.len(),
            classify_threads: hammer_threads,
            classify_wall_ms,
            classify_per_s,
            classify_p50_us: quantile_us(&latencies, 0.50),
            classify_p99_us: quantile_us(&latencies, 0.99),
        });
        largest = Some(router);
    }

    // Swap-under-load: repeated hot swaps on the largest deployment with
    // every hammer thread recording the version of every verdict it sees.
    // A version observed going backwards would mean some group served a
    // pre-swap epoch after another group served the post-swap one.
    let router = largest.expect("GROUP_COUNTS is non-empty");
    let apps = router.tracked_apps();
    let stop = AtomicBool::new(false);
    let observed = AtomicU64::new(0);
    let stale = AtomicU64::new(0);
    std::thread::scope(|s| {
        for tid in 0..hammer_threads {
            let router = &router;
            let apps: &[AppId] = &apps;
            let (stop, observed, stale) = (&stop, &observed, &stale);
            s.spawn(move || {
                let mut last = 0u64;
                let mut i = tid;
                while !stop.load(Ordering::Relaxed) {
                    let app = apps[i % apps.len()];
                    i += 7;
                    let verdict = router.classify(app).expect("tracked app");
                    observed.fetch_add(1, Ordering::Relaxed);
                    if verdict.model_version < last {
                        stale.fetch_add(1, Ordering::Relaxed);
                    }
                    last = verdict.model_version;
                }
            });
        }
        for i in 0..swaps {
            let next = if i % 2 == 0 { &alt } else { &main };
            router.swap_model(Arc::clone(next), 2 + i as u64);
            std::thread::sleep(Duration::from_millis(2));
        }
        stop.store(true, Ordering::Relaxed);
    });
    let swap_under_load = SwapUnderLoadBench {
        groups: router.group_count(),
        swaps,
        verdicts_observed: observed.load(Ordering::Relaxed),
        stale_epoch_verdicts: stale.load(Ordering::Relaxed),
    };

    ShardBenchReport {
        threads_available,
        quick,
        parallel_mode: JobPool::for_machine(8).mode(),
        runs,
        swap_under_load,
    }
}

impl ShardBenchReport {
    /// Human-readable summary (what `repro --shard-bench-out` prints).
    pub fn render(&self) -> String {
        let mut out = format!(
            "shard bench ({} mode, {} threads available, {})\n",
            if self.quick { "quick" } else { "full" },
            self.threads_available,
            self.parallel_mode,
        );
        for run in &self.runs {
            out.push_str(&format!(
                "  K={}: ingest {:.0} events/s; classify {:.0}/s \
                 (p50 {:.0} us, p99 {:.0} us)\n",
                run.groups,
                run.ingest_events_per_s,
                run.classify_per_s,
                run.classify_p50_us,
                run.classify_p99_us,
            ));
        }
        out.push_str(&format!(
            "  hot swap under load (K={}): {} swaps, {} verdicts, {} stale-epoch",
            self.swap_under_load.groups,
            self.swap_under_load.swaps,
            self.swap_under_load.verdicts_observed,
            self.swap_under_load.stale_epoch_verdicts,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_runs_and_roundtrips() {
        let report = run(true);
        assert_eq!(report.runs.len(), GROUP_COUNTS.len());
        for (run, &groups) in report.runs.iter().zip(&GROUP_COUNTS) {
            assert_eq!(run.groups, groups);
            assert!(run.ingest_events > 0);
            assert!(run.classify_queries > 0);
            assert!(run.classify_p50_us <= run.classify_p99_us);
        }
        assert!(report.swap_under_load.verdicts_observed > 0);
        assert_eq!(
            report.swap_under_load.stale_epoch_verdicts, 0,
            "a hot swap leaked a stale epoch across groups"
        );
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: ShardBenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.runs.len(), report.runs.len());
        assert!(!report.render().is_empty());
    }
}
