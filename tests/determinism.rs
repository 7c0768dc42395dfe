//! Reproducibility: the whole pipeline is a pure function of the config.
//!
//! The second half of this suite pins the `frappe-jobs` determinism
//! contract: grid search, cross-validation and batch feature extraction
//! return **bit-identical** results at thread counts {1, 2, 8} and under
//! the `FRAPPE_JOBS` override. CI runs the whole suite twice, once with
//! `FRAPPE_JOBS=1` and once with `FRAPPE_JOBS=8`.

use frappe_jobs::JobPool;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use svm::{cross_validate_on, grid_search_on, Dataset, Kernel, SvmParams};
use synth_workload::{build_datasets, run_scenario, ScenarioConfig};

/// Noisily separable 5-dimensional training data.
fn training_data(n: usize, seed: u64) -> Dataset {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut xs = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    for i in 0..n {
        let malicious = i % 2 == 0;
        let centre = if malicious { 0.8 } else { -0.8 };
        xs.push(
            (0..5)
                .map(|_| centre + rng.gen::<f64>() * 2.0 - 1.0)
                .collect::<Vec<f64>>(),
        );
        ys.push(if malicious { 1.0 } else { -1.0 });
    }
    Dataset::new(xs, ys).expect("generated data is valid")
}

#[test]
fn same_config_same_world_same_datasets() {
    let config = ScenarioConfig::small();
    let w1 = run_scenario(&config);
    let w2 = run_scenario(&config);

    assert_eq!(w1.platform.posts().len(), w2.platform.posts().len());
    assert_eq!(w1.mpk.flagged_posts(), w2.mpk.flagged_posts());
    assert_eq!(w1.platform.deleted_apps(), w2.platform.deleted_apps());
    assert_eq!(w1.observed_apps(), w2.observed_apps());

    let b1 = build_datasets(&w1);
    let b2 = build_datasets(&w2);
    assert_eq!(b1.d_sample.malicious, b2.d_sample.malicious);
    assert_eq!(b1.d_sample.benign, b2.d_sample.benign);
    assert_eq!(b1.d_complete.malicious, b2.d_complete.malicious);

    // crawl archives agree lane-by-lane
    assert_eq!(w1.crawl_archive.len(), w2.crawl_archive.len());
    for (a, m1) in &w1.crawl_archive {
        let m2 = &w2.crawl_archive[a];
        assert_eq!(m1.summary.is_some(), m2.summary.is_some());
        assert_eq!(m1.permissions.is_some(), m2.permissions.is_some());
        assert_eq!(m1.profile_feed.is_some(), m2.profile_feed.is_some());
    }
}

#[test]
fn different_seed_different_world() {
    let mut config = ScenarioConfig::small();
    let w1 = run_scenario(&config);
    config.seed ^= 0xDEAD_BEEF;
    let w2 = run_scenario(&config);
    // overwhelmingly unlikely to coincide
    assert_ne!(w1.mpk.flagged_posts(), w2.mpk.flagged_posts());
}

/// Observability must be read-only: spans measure time, metrics count
/// events, and neither feeds back into the simulation. Enabling the
/// profiler must therefore leave every experiment output untouched.
#[test]
fn instrumentation_does_not_change_outputs() {
    let config = ScenarioConfig::small();

    frappe_obs::set_spans_enabled(false);
    let plain = run_scenario(&config);

    frappe_obs::set_spans_enabled(true);
    let instrumented = run_scenario(&config);
    let profile = frappe_obs::Profiler::global().snapshot();
    frappe_obs::set_spans_enabled(false);

    // the profiler actually saw the run...
    assert!(
        profile.stages.iter().any(|s| s.path == "scenario"),
        "spans were enabled, the scenario stage should be profiled"
    );

    // ...and the run itself is bit-for-bit the same world
    assert_eq!(
        plain.platform.posts().len(),
        instrumented.platform.posts().len()
    );
    assert_eq!(plain.mpk.flagged_posts(), instrumented.mpk.flagged_posts());
    assert_eq!(
        plain.platform.deleted_apps(),
        instrumented.platform.deleted_apps()
    );
    assert_eq!(plain.observed_apps(), instrumented.observed_apps());

    let b1 = build_datasets(&plain);
    let b2 = build_datasets(&instrumented);
    assert_eq!(b1.d_sample.malicious, b2.d_sample.malicious);
    assert_eq!(b1.d_sample.benign, b2.d_sample.benign);
    assert_eq!(b1.d_complete.malicious, b2.d_complete.malicious);
}

#[test]
fn cross_validation_bit_identical_across_thread_counts() {
    let data = training_data(100, 7);
    let params = SvmParams::with_kernel(Kernel::rbf(0.5));
    let reference = cross_validate_on(&JobPool::with_threads(1), &data, &params, 5, 42);
    for threads in [2usize, 8] {
        let pool = JobPool::with_threads(threads);
        let report = cross_validate_on(&pool, &data, &params, 5, 42);
        assert_eq!(report, reference, "threads = {threads}");
    }
}

#[test]
fn grid_search_bit_identical_across_thread_counts() {
    let data = training_data(80, 11);
    let cs = [0.5, 1.0, 2.0];
    let gammas = [0.1, 0.5];
    let reference = grid_search_on(&JobPool::with_threads(1), &data, &cs, &gammas, 3, 9);
    for threads in [2usize, 8] {
        let pool = JobPool::with_threads(threads);
        let result = grid_search_on(&pool, &data, &cs, &gammas, 3, 9);
        assert_eq!(result, reference, "threads = {threads}");
    }
    // per-point reports are themselves fold-complete and ordered
    assert_eq!(reference.points.len(), cs.len() * gammas.len());
    for point in &reference.points {
        assert_eq!(point.report.folds.len(), 3);
    }
}

#[test]
fn batch_extraction_bit_identical_across_thread_counts() {
    // Real extraction over a real (synthetic) world: one on-demand feature
    // row per observed app, then the encoded f64 vectors the SVM consumes.
    let world = run_scenario(&ScenarioConfig::small());
    let apps = world.observed_apps();
    assert!(apps.len() > 10, "world too small to exercise the fan-out");
    let extract = |a: &osn_types::AppId| {
        let crawl = world.crawl_archive.get(a);
        let input = frappe::OnDemandInput {
            summary: crawl.and_then(|c| c.summary.as_ref()),
            permissions: crawl.and_then(|c| c.permissions.as_ref()),
            profile_feed: crawl.and_then(|c| c.profile_feed.as_deref()),
        };
        frappe::extract_on_demand(*a, &input, &world.wot)
    };
    let reference = frappe::extract_batch_with(&JobPool::with_threads(1), &apps, extract);
    for threads in [2usize, 8] {
        let pool = JobPool::with_threads(threads);
        let rows = frappe::extract_batch_with(&pool, &apps, extract);
        assert_eq!(rows, reference, "threads = {threads}");
    }

    // The numeric encoding downstream is bit-identical too.
    let samples: Vec<frappe::AppFeatures> = apps
        .iter()
        .zip(&reference)
        .map(|(&app, od)| frappe::AppFeatures {
            app,
            on_demand: *od,
            aggregation: frappe::AggregationFeatures::default(),
        })
        .collect();
    let imputation = frappe::Imputation::fit_medians(&samples);
    let encode = |s: &frappe::AppFeatures| imputation.encode(frappe::FeatureSet::Lite, s);
    let encoded_serial = frappe::extract_batch_with(&JobPool::with_threads(1), &samples, encode);
    let encoded_parallel = frappe::extract_batch_with(&JobPool::with_threads(8), &samples, encode);
    for (a, b) in encoded_serial.iter().zip(&encoded_parallel) {
        assert_eq!(a.len(), b.len());
        for (&va, &vb) in a.iter().zip(b) {
            assert_eq!(va.to_bits(), vb.to_bits(), "encoded lanes differ bitwise");
        }
    }
}

#[test]
fn frappe_jobs_env_override_is_invisible_in_results() {
    // Whatever FRAPPE_JOBS says, the env-sized entry points must agree
    // with the explicit 1-thread pool bit for bit.
    let data = training_data(60, 13);
    let params = SvmParams::with_kernel(Kernel::rbf(0.5));
    let reference = cross_validate_on(&JobPool::with_threads(1), &data, &params, 5, 3);
    for setting in ["1", "8"] {
        std::env::set_var(frappe_jobs::ENV_THREADS, setting);
        let report = svm::cross_validate(&data, &params, 5, 3);
        assert_eq!(report, reference, "FRAPPE_JOBS = {setting}");
    }
    std::env::remove_var(frappe_jobs::ENV_THREADS);
}

#[test]
fn click_totals_are_stable() {
    let config = ScenarioConfig::small();
    let t1: u64 = run_scenario(&config)
        .shortener
        .links()
        .map(|l| l.clicks)
        .sum();
    let t2: u64 = run_scenario(&config)
        .shortener
        .links()
        .map(|l| l.clicks)
        .sum();
    assert_eq!(t1, t2);
}

#[test]
fn trace_sampling_keeps_an_identical_set_at_any_thread_count() {
    use frappe_obs::{ManualClock, TraceCollector, TraceConfig};
    use std::sync::Arc;

    // Head sampling is a pure function of (trace id, seed), so for a
    // fixed event stream the kept set must be identical however many
    // threads finish the traces — the same contract `frappe-jobs` pins
    // for training, applied to observability. CI re-runs this suite
    // under FRAPPE_JOBS=1 and FRAPPE_JOBS=8; the explicit sweep below
    // makes the property hold regardless of the env.
    const TRACES: u64 = 1000;
    let kept_ids = |threads: usize| -> Vec<u64> {
        let collector = TraceCollector::with_clock(
            TraceConfig {
                capacity: 1024,
                head_every: 8,
                seed: 99,
                slow_us: 0,
                ..TraceConfig::default()
            },
            Arc::new(ManualClock::at(0)),
        );
        // Begin sequentially so ids are assigned 0..TRACES in order —
        // the "event stream" — then finish from `threads` workers in
        // whatever order the scheduler picks.
        let handles: Vec<_> = (0..TRACES).map(|_| collector.begin("load")).collect();
        std::thread::scope(|scope| {
            for chunk in handles.chunks(TRACES as usize / threads + 1) {
                scope.spawn(move || {
                    for handle in chunk {
                        let work = frappe_obs::span_in("work", Some((handle, None)));
                        handle.event("step", "done");
                        drop(work);
                        handle.finish("ok");
                    }
                });
            }
        });
        let mut ids: Vec<u64> = collector.snapshot().iter().map(|t| t.id).collect();
        ids.sort_unstable();
        ids
    };

    let serial = kept_ids(1);
    assert!(!serial.is_empty(), "1 in 8 of 1000 traces keeps something");
    assert!(serial.len() < TRACES as usize, "sampling actually drops");
    for threads in [2, 8] {
        assert_eq!(
            kept_ids(threads),
            serial,
            "kept set diverged at {threads} threads"
        );
    }
}

#[test]
fn piggyback_ring_appnet_edges_bit_identical_across_thread_counts() {
    // The gauntlet's piggyback-ring scenario drives the whole stack —
    // strategy RNG, ordered traffic fan-out, serving ingest, drift
    // window — and records every promoter→promotee post as an AppNet
    // edge. The recorded edge list (order included) must not depend on
    // the pool size, same as every other fan-out in this suite.
    let spec = frappe_gauntlet::piggyback_ring();
    let serial = frappe_gauntlet::run_spec_on(&JobPool::with_threads(1), &spec);
    let parallel = frappe_gauntlet::run_spec_on(&JobPool::with_threads(8), &spec);
    assert!(
        !serial.appnet_edges.is_empty(),
        "the ring must actually promote"
    );
    assert_eq!(
        serial.appnet_edges, parallel.appnet_edges,
        "AppNet edges diverged between 1 and 8 threads"
    );
    // And the reports agree wholesale, bytes included.
    assert_eq!(serial.to_canonical_json(), parallel.to_canonical_json());
}
