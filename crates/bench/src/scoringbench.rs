//! Batch-scoring kernel throughput: legacy scalar loop vs the packed
//! engines.
//!
//! Like [`crate::trainbench`], this module produces one machine-readable
//! [`ScoringBenchReport`] that `repro --scoring-bench-out` serializes to
//! `BENCH_scoring.json`. Three evaluation paths score the same query
//! stream against the same trained RBF model at batch sizes 1, 64, and
//! 4096:
//!
//! * **scalar-legacy** — the pre-SIMD decision loop, reconstructed here
//!   verbatim: one `Kernel`-style pairwise evaluation per support vector,
//!   with the platform `exp`. This is the baseline the acceptance
//!   criterion's "≥ 3× batch-scoring throughput" is measured against.
//! * **fallback** — [`svm::PackedModel`] on the portable 4-lane scalar
//!   engine ([`svm::simd::Engine::Scalar`]).
//! * **simd** — the same packed model on the best engine the CPU offers
//!   (AVX2+FMA where detected; identical to fallback otherwise, and
//!   `detected_isa` in the report says which you got).
//!
//! The report also carries the fallback-vs-SIMD bit-identity verdict over
//! the whole query stream — the property that makes the engine swap
//! invisible to checkpoint and parity tests.

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use svm::simd::{self, Engine};
use svm::{train, Dataset, Kernel, SvmModel, SvmParams};

/// One (path, batch size) timing cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScoringBenchPoint {
    /// Evaluation path: `scalar-legacy`, `fallback`, or `simd`.
    pub path: String,
    /// Engine label actually dispatching (e.g. `avx2/deterministic`).
    pub engine: String,
    /// Queries scored back-to-back per timing rep.
    pub batch: usize,
    /// Nanoseconds per query, averaged over the whole run.
    pub ns_per_query: f64,
    /// Queries per second (1e9 / `ns_per_query`).
    pub queries_per_sec: f64,
}

/// The full scoring benchmark report (`BENCH_scoring.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScoringBenchReport {
    /// What the CPU offered: `avx2+fma` or `scalar-only`. Read this
    /// before reading any speedup — on a scalar-only box the `simd` rows
    /// measure the fallback engine.
    pub detected_isa: String,
    /// SIMD lane width of the packed layout (f64 lanes per block).
    pub lane_width: usize,
    /// `std::thread::available_parallelism()` on the measuring machine.
    pub threads_available: usize,
    /// Quick mode (CI-sized) or the full acceptance configuration.
    pub quick: bool,
    /// Support vectors in the benchmarked model.
    pub support_vectors: usize,
    /// Feature dimension of the benchmarked model.
    pub dim: usize,
    /// `scalar-legacy` ns/query ÷ `simd` ns/query at the largest batch —
    /// the acceptance criterion's headline number.
    pub simd_vs_legacy_speedup: f64,
    /// Whether fallback and simd produced bit-identical decision values
    /// for every query in the stream.
    pub fallback_bit_identical: bool,
    /// Every (path, batch) timing cell.
    pub points: Vec<ScoringBenchPoint>,
}

/// Heavily-overlapping two-class data: the class centres sit well inside
/// each other's noise band, so a large fraction of the training set ends
/// up on the margin as support vectors. That is the regime batch scoring
/// cost is about (decision cost scales with `n_sv`, not training size) —
/// the cleanly-separable generator the training benches use would give a
/// 28-SV model whose per-query cost is all dispatch overhead.
fn synth_overlapping(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut xs = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    for i in 0..n {
        let malicious = i % 2 == 0;
        let centre = if malicious { 0.4 } else { -0.4 };
        xs.push(
            (0..dim)
                .map(|_| centre + rng.gen::<f64>() * 3.0 - 1.5)
                .collect::<Vec<f64>>(),
        );
        ys.push(if malicious { 1.0 } else { -1.0 });
    }
    Dataset::new(xs, ys).expect("generated data is valid")
}

/// The pre-SIMD decision loop: pairwise kernel per support vector with
/// the platform `exp`/`powi`, summed left to right. Kept here (not in
/// `svm`) so the production crate has exactly one evaluation engine.
fn legacy_decision_value(model: &SvmModel, x: &[f64]) -> f64 {
    fn dot(x: &[f64], y: &[f64]) -> f64 {
        x.iter().zip(y).map(|(a, b)| a * b).sum()
    }
    let k = |sv: &[f64]| match model.kernel() {
        Kernel::Linear => dot(sv, x),
        Kernel::Polynomial {
            degree,
            gamma,
            coef0,
        } => (gamma * dot(sv, x) + coef0).powi(degree as i32),
        Kernel::Rbf { gamma } => {
            let d2: f64 = sv.iter().zip(x).map(|(a, b)| (a - b) * (a - b)).sum();
            (-gamma * d2).exp()
        }
        Kernel::Sigmoid { gamma, coef0 } => (gamma * dot(sv, x) + coef0).tanh(),
    };
    model
        .support_vectors()
        .iter()
        .zip(model.dual_coefs())
        .map(|(sv, c)| c * k(sv))
        .sum::<f64>()
        - model.rho()
}

/// Times `f` over `reps` passes of `batch` queries and returns ns/query.
///
/// The whole measurement runs three times and the **minimum** wins:
/// scheduler preemption and frequency wobble only ever inflate a
/// sample, so min-of-runs estimates the undisturbed cost far more
/// stably than a single mean — which matters on the shared 1-core CI
/// box where the `simd_vs_legacy_speedup` ratio is an acceptance gate.
fn time_path(queries: &[Vec<f64>], batch: usize, reps: usize, mut f: impl FnMut(&[f64])) -> f64 {
    // Warm once so lazy packing and page faults land outside the clock.
    f(&queries[0]);
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        let mut scored = 0usize;
        for rep in 0..reps {
            for i in 0..batch {
                f(&queries[(rep + i) % queries.len()]);
                scored += 1;
            }
        }
        best = best.min(t.elapsed().as_nanos() as f64 / scored.max(1) as f64);
    }
    best
}

/// Runs the scoring benchmark. `quick` shrinks the training set and rep
/// counts to CI size; batch sizes stay at the acceptance trio {1, 64,
/// 4096} in both modes so the cells are comparable.
pub fn run(quick: bool) -> ScoringBenchReport {
    let threads_available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (train_n, target_queries) = if quick {
        (400, 20_000)
    } else {
        (3000, 100_000)
    };
    let dim = 7;

    let data = synth_overlapping(train_n, dim, 42);
    let params = SvmParams::with_kernel(Kernel::rbf_default_gamma(dim));
    let model = train(&data, &params);
    model.warm();

    // Query pool disjoint from the training draw: production-shaped
    // traffic where most apps are decisively benign or decisively
    // malicious. The timing is distribution-independent (every path does
    // the same work per query).
    let pool = crate::trainbench::synth_dataset(4096, 7701);
    let queries: Vec<Vec<f64>> = pool.features().to_vec();

    let fallback = Engine::Scalar;
    let best = Engine::best();

    let fallback_bit_identical = queries.iter().all(|q| {
        model.decision_value_with(fallback, q).to_bits()
            == model.decision_value_with(best, q).to_bits()
    });

    let mut points = Vec::new();
    let mut cell = |path: &str, engine: String, batch: usize, ns: f64| {
        points.push(ScoringBenchPoint {
            path: path.to_string(),
            engine,
            batch,
            ns_per_query: ns,
            queries_per_sec: 1e9 / ns.max(1e-9),
        });
    };

    let mut legacy_at_max = f64::NAN;
    let mut simd_at_max = f64::NAN;
    let batches = [1usize, 64, 4096];
    for &batch in &batches {
        let reps = (target_queries / batch).max(1);
        let ns = time_path(&queries, batch, reps, |q| {
            std::hint::black_box(legacy_decision_value(&model, q));
        });
        cell("scalar-legacy", "scalar-naive/libm".to_string(), batch, ns);
        if batch == batches[batches.len() - 1] {
            legacy_at_max = ns;
        }

        let ns = time_path(&queries, batch, reps, |q| {
            std::hint::black_box(model.decision_value_with(fallback, q));
        });
        cell("fallback", fallback.describe().to_string(), batch, ns);

        let ns = time_path(&queries, batch, reps, |q| {
            std::hint::black_box(model.decision_value_with(best, q));
        });
        cell("simd", best.describe().to_string(), batch, ns);
        if batch == batches[batches.len() - 1] {
            simd_at_max = ns;
        }
    }

    ScoringBenchReport {
        detected_isa: simd::detected_isa().to_string(),
        lane_width: simd::LANES,
        threads_available,
        quick,
        support_vectors: model.support_vector_count(),
        dim,
        simd_vs_legacy_speedup: legacy_at_max / simd_at_max.max(1e-9),
        fallback_bit_identical,
        points,
    }
}

impl ScoringBenchReport {
    /// Human-readable summary (what `repro --scoring-bench-out` prints).
    pub fn render(&self) -> String {
        let mut out = format!(
            "scoring bench ({} mode, isa {}, {} f64 lanes, {} threads available)\n\
             model: {} support vectors x {} features\n\
             simd vs legacy at batch 4096: {:.2}x; \
             fallback/simd bit-identical: {}\n",
            if self.quick { "quick" } else { "full" },
            self.detected_isa,
            self.lane_width,
            self.threads_available,
            self.support_vectors,
            self.dim,
            self.simd_vs_legacy_speedup,
            self.fallback_bit_identical,
        );
        for p in &self.points {
            out.push_str(&format!(
                "  {:>13}  batch {:>4}: {:>9.1} ns/query  ({:>12.0} q/s)  [{}]\n",
                p.path, p.batch, p.ns_per_query, p.queries_per_sec, p.engine
            ));
        }
        out.pop();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_runs_and_discloses_its_isa() {
        let report = run(true);
        assert!(report.detected_isa == "avx2+fma" || report.detected_isa == "scalar-only");
        assert_eq!(report.lane_width, svm::simd::LANES);
        assert!(report.fallback_bit_identical);
        assert_eq!(report.points.len(), 9);
        assert!(report.points.iter().all(|p| p.ns_per_query > 0.0));
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: ScoringBenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.points.len(), report.points.len());
        assert!(!report.render().is_empty());
    }

    #[test]
    fn legacy_loop_matches_the_packed_engine_closely() {
        let data = synth_overlapping(120, 7, 42);
        let params = SvmParams::with_kernel(Kernel::rbf_default_gamma(7));
        let model = train(&data, &params);
        for q in synth_overlapping(32, 7, 7).features() {
            let legacy = legacy_decision_value(&model, q);
            let packed = model.decision_value(q);
            assert!(
                (legacy - packed).abs() <= 1e-9 * legacy.abs().max(1.0),
                "legacy {legacy} vs packed {packed}"
            );
        }
    }
}
