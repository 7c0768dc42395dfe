//! Training-pipeline wall-clock benchmark: serial vs parallel grid search
//! and SMO solver throughput.
//!
//! Unlike the Criterion micro-benchmarks (statistical, report-oriented),
//! this module produces one machine-readable [`TrainingBenchReport`] that
//! `repro --bench-out` serializes to `BENCH_training.json`: one timed
//! pass of the serial path and one of the `frappe-jobs` fan-out, an
//! explicit bit-identity verdict between the two, and the SMO
//! cache/iteration statistics the allocation-free hot loop is judged by.
//!
//! Honesty note: each timing is one unrepeated pass on *this machine*, so
//! the report carries no ratio between them. On a single-core container
//! the parallel path degenerates to the serial one (by design — `JobPool`
//! clamps to available parallelism only when `FRAPPE_JOBS` is unset),
//! which `parallel_mode` and `threads_available` record.

use std::time::Instant;

use frappe_jobs::JobPool;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use svm::smo::train_with_stats;
use svm::{grid_search_on, Dataset, Kernel, SvmParams};

/// Grid-search timing: one serial run vs one 8-thread run of the same
/// search, plus the bit-identity verdict between their results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GridBench {
    /// Grid points evaluated (|C axis| × |γ axis|).
    pub points: usize,
    /// Cross-validation folds per point.
    pub folds: usize,
    /// Training examples in the dataset.
    pub examples: usize,
    /// Wall-clock of the 1-thread run, milliseconds.
    pub serial_ms: f64,
    /// Wall-clock of the parallel run, milliseconds.
    pub parallel_ms: f64,
    /// Thread count of the parallel run (after the machine clamp).
    pub parallel_threads: usize,
    /// How the "parallel" run actually executed — `"parallel(N)"`, or
    /// `"serial"` when the machine clamp degraded it to the inline path
    /// (single-core CI boxes; see [`JobPool::for_machine`]).
    pub parallel_mode: String,
    /// Whether serial and parallel results compared equal (`==` over the
    /// full `GridSearchResult`, i.e. bit-identical confusion counts).
    pub identical: bool,
}

/// SMO solver throughput and row-cache behaviour on one training run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SmoBench {
    /// Training examples.
    pub examples: usize,
    /// Optimization iterations performed.
    pub iterations: usize,
    /// Wall-clock of the run, milliseconds.
    pub train_ms: f64,
    /// Iterations per second.
    pub iterations_per_sec: f64,
    /// Kernel-row cache hits.
    pub cache_hits: u64,
    /// Kernel-row cache misses.
    pub cache_misses: u64,
    /// Kernel-row cache evictions.
    pub cache_evictions: u64,
}

/// The full training benchmark report (`BENCH_training.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainingBenchReport {
    /// `std::thread::available_parallelism()` on the measuring machine —
    /// read this before reading any timing.
    pub threads_available: usize,
    /// Quick mode (CI-sized) or the full 4×4 × 5-fold configuration.
    pub quick: bool,
    /// Serial-vs-parallel grid search.
    pub grid: GridBench,
    /// SMO solver throughput.
    pub smo: SmoBench,
}

/// Paper-shaped, 7-dimensional, noisily-separable data (same generator as
/// the Criterion benches, so numbers are comparable across harnesses).
pub fn synth_dataset(n: usize, seed: u64) -> Dataset {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut xs = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    for i in 0..n {
        let malicious = i % 2 == 0;
        let centre = if malicious { 1.0 } else { -1.0 };
        xs.push(
            (0..7)
                .map(|_| centre + rng.gen::<f64>() * 1.5 - 0.75)
                .collect::<Vec<f64>>(),
        );
        ys.push(if malicious { 1.0 } else { -1.0 });
    }
    Dataset::new(xs, ys).expect("generated data is valid")
}

/// Runs the training benchmark. `quick` shrinks the dataset and grid to
/// CI size (a few seconds); otherwise the acceptance configuration runs:
/// a 4×4 `(C, γ)` grid with 5-fold CV.
pub fn run(quick: bool) -> TrainingBenchReport {
    let threads_available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (n, cs, gammas, folds): (usize, &[f64], &[f64], usize) = if quick {
        (120, &[0.5, 1.0], &[0.1, 0.4], 3)
    } else {
        (1200, &[0.25, 0.5, 1.0, 2.0], &[0.05, 0.1, 0.2, 0.4], 5)
    };
    let data = synth_dataset(n, 42);

    let t = Instant::now();
    let serial = grid_search_on(&JobPool::with_threads(1), &data, cs, gammas, folds, 7);
    let serial_ms = t.elapsed().as_secs_f64() * 1e3;

    // request 8 threads, take what the machine honestly has — a 1-core
    // box runs this serially and says so in `parallel_mode`
    let pool = JobPool::for_machine(8);
    let t = Instant::now();
    let parallel = grid_search_on(&pool, &data, cs, gammas, folds, 7);
    let parallel_ms = t.elapsed().as_secs_f64() * 1e3;

    let grid = GridBench {
        points: cs.len() * gammas.len(),
        folds,
        examples: n,
        serial_ms,
        parallel_ms,
        parallel_threads: pool.threads(),
        parallel_mode: pool.mode(),
        identical: serial == parallel,
    };

    let smo_n = if quick { 200 } else { 1000 };
    let smo_data = synth_dataset(smo_n, 43);
    let params = SvmParams::with_kernel(Kernel::rbf_default_gamma(7));
    let t = Instant::now();
    let (_, stats) = train_with_stats(&smo_data, &params);
    let train_ms = t.elapsed().as_secs_f64() * 1e3;
    let smo = SmoBench {
        examples: smo_n,
        iterations: stats.iterations,
        train_ms,
        iterations_per_sec: stats.iterations as f64 / (train_ms / 1e3).max(1e-9),
        cache_hits: stats.cache.hits,
        cache_misses: stats.cache.misses,
        cache_evictions: stats.cache.evictions,
    };

    TrainingBenchReport {
        threads_available,
        quick,
        grid,
        smo,
    }
}

impl TrainingBenchReport {
    /// Human-readable summary (what `repro --bench-out` prints).
    pub fn render(&self) -> String {
        format!(
            "training bench ({} mode, {} threads available)\n\
             grid search  {} points x {} folds on {} examples: \
             serial {:.0} ms, {} {:.0} ms, identical: {}\n\
             smo solve    {} examples: {} iterations in {:.0} ms \
             ({:.0} iter/s; cache {} hits / {} misses / {} evictions)",
            if self.quick { "quick" } else { "full" },
            self.threads_available,
            self.grid.points,
            self.grid.folds,
            self.grid.examples,
            self.grid.serial_ms,
            self.grid.parallel_mode,
            self.grid.parallel_ms,
            self.grid.identical,
            self.smo.examples,
            self.smo.iterations,
            self.smo.train_ms,
            self.smo.iterations_per_sec,
            self.smo.cache_hits,
            self.smo.cache_misses,
            self.smo.cache_evictions,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_runs_and_is_identical() {
        let report = run(true);
        assert!(
            report.grid.identical,
            "serial and parallel grids must match"
        );
        assert!(report.grid.serial_ms > 0.0);
        assert!(report.smo.iterations > 0);
        assert!(report.smo.cache_misses > 0);
        assert!(
            report.grid.parallel_mode == "serial"
                || report.grid.parallel_mode
                    == format!("parallel({})", report.grid.parallel_threads)
        );
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: TrainingBenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.grid.points, report.grid.points);
        assert_eq!(back.grid.parallel_mode, report.grid.parallel_mode);
        assert!(!report.render().is_empty());
    }
}
