//! SVM micro-benchmarks: SMO training and prediction throughput at the
//! dataset sizes the paper's cross-validation operates on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use frappe_jobs::JobPool;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use svm::smo::train_with_stats;
use svm::{grid_search_on, train, Dataset, Kernel, SvmParams};

/// Paper-shaped, 7-dimensional, noisily-separable data.
fn synth(n: usize, seed: u64) -> Dataset {
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

fn bench_training(c: &mut Criterion) {
    let mut group = c.benchmark_group("smo_train");
    group.sample_size(10);
    for &n in &[200usize, 500, 1000, 2000] {
        let data = synth(n, 42);
        group.bench_with_input(BenchmarkId::new("rbf_c1", n), &data, |b, data| {
            b.iter(|| train(data, &SvmParams::paper_defaults(7)));
        });
    }
    // kernel ablation at fixed size (DESIGN.md §4)
    let data = synth(500, 43);
    group.bench_function("linear_c1_500", |b| {
        b.iter(|| train(&data, &SvmParams::with_kernel(Kernel::linear())));
    });
    group.finish();
}

fn bench_prediction(c: &mut Criterion) {
    let data = synth(1000, 44);
    let model = train(&data, &SvmParams::paper_defaults(7));
    let probe: Vec<f64> = vec![0.3; 7];
    c.bench_function("svm_predict_single", |b| {
        b.iter(|| model.predict(&probe));
    });
}

/// Kernel-scoring throughput across the evaluation engines: the portable
/// 4-lane scalar fallback, the best engine the CPU offers (AVX2+FMA where
/// detected — the label on the console says which you got), at the
/// acceptance batch trio {1, 64, 4096}. `repro --scoring-bench-out` produces the same comparison as
/// machine-readable JSON; this group is the statistical view.
fn bench_kernel_scoring(c: &mut Criterion) {
    use svm::simd::Engine;

    let data = synth(800, 47);
    let model = train(&data, &SvmParams::paper_defaults(7));
    model.warm();
    let queries = synth(4096, 48);
    let queries = queries.features();
    println!(
        "kernel_scoring: {} support vectors, isa {}, engines fallback={} best={}",
        model.support_vector_count(),
        svm::simd::detected_isa(),
        Engine::Scalar.describe(),
        Engine::best().describe(),
    );

    let mut group = c.benchmark_group("kernel_scoring");
    group.sample_size(20);
    for &batch in &[1usize, 64, 4096] {
        let slice = &queries[..batch];
        group.bench_with_input(BenchmarkId::new("fallback", batch), &slice, |b, qs| {
            b.iter(|| {
                qs.iter()
                    .map(|q| model.decision_value_with(Engine::Scalar, q))
                    .sum::<f64>()
            });
        });
        group.bench_with_input(BenchmarkId::new("simd", batch), &slice, |b, qs| {
            let best = Engine::best();
            b.iter(|| {
                qs.iter()
                    .map(|q| model.decision_value_with(best, q))
                    .sum::<f64>()
            });
        });
    }
    group.finish();
}

/// Serial vs parallel `(C, γ)` grid search — the tentpole speedup. The
/// thread counts bracket the determinism suite's {1, 8}; on a single-core
/// runner the two collapse to the same wall-clock by design.
fn bench_grid_search(c: &mut Criterion) {
    let data = synth(150, 45);
    let cs = [0.5, 1.0, 2.0];
    let gammas = [0.1, 0.2, 0.4];
    let mut group = c.benchmark_group("grid_search_3x3x3fold");
    group.sample_size(10);
    for threads in [1usize, 8] {
        let pool = JobPool::with_threads(threads);
        group.bench_with_input(BenchmarkId::new("threads", threads), &pool, |b, pool| {
            b.iter(|| grid_search_on(pool, &data, &cs, &gammas, 3, 7));
        });
    }
    group.finish();
}

/// SMO iteration throughput — what the allocation-free row-cache hot loop
/// buys. Criterion reports wall-clock per solve; divide by the printed
/// iteration count for iterations/sec.
fn bench_smo_iterations(c: &mut Criterion) {
    let mut group = c.benchmark_group("smo_iterations");
    group.sample_size(10);
    for &n in &[500usize, 1000] {
        let data = synth(n, 46);
        let params = SvmParams::paper_defaults(7);
        let (_, stats) = train_with_stats(&data, &params);
        println!(
            "smo_iterations/{n}: {} iterations per solve \
             (cache {} hits / {} misses / {} evictions)",
            stats.iterations, stats.cache.hits, stats.cache.misses, stats.cache.evictions
        );
        group.bench_with_input(BenchmarkId::new("solve", n), &data, |b, data| {
            b.iter(|| train_with_stats(data, &params));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_training,
    bench_prediction,
    bench_kernel_scoring,
    bench_grid_search,
    bench_smo_iterations
);
criterion_main!(benches);
