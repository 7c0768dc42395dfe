//! The four workloads: set-up, the measured window, the correctness
//! checks, and the end-to-end metrics.
//!
//! | workload | loop | stresses |
//! |---|---|---|
//! | `edge_read` | open loop, reads only | edge, pool hop, cache hits |
//! | `edge_ingest_swap` | open loop + paced NDJSON posts + fenced swaps | store apply/snapshot, model eval, drains |
//! | `router_ingest_swap` | same traffic, through four shard groups | router mailboxes and group threads |
//! | `catalog_refresh` | in-process closed loop: retrain, swap, rescore | lifecycle retrain, pool, model eval |

use std::sync::Arc;
use std::time::{Duration, Instant};

use frappe::FrappeModel;
use frappe_obs::{CompletedTrace, TraceCollector};
use osn_types::ids::AppId;
use synth_workload::ScenarioConfig;

use crate::client::{self, BlockingClient, OpenLoopReport, PostOutcome};
use crate::deploy::{stand_up, trace_collector, Backend, Deployment, Shape};
use crate::inputs::{self, Inputs, BATCH_EVENTS};
use crate::layers::{self, Counters, WindowObservations};
use crate::report::{put, Check, Header, Metrics, RunResult, StepReport};
use crate::schedule::{self, Planned, Step};
use crate::stats::{median, Histogram, Sliced};
use crate::sys;

/// The latency limit on classify p99, µs.
pub const SLO_P99_US: f64 = 5_000.0;
/// The failure limit: failed / attempted.
pub const SLO_FAIL_RATIO: f64 = 0.001;
/// A step whose generator ran later than this (or ended with an older
/// unanswered request) does not count.
pub const MAX_LATE: Duration = Duration::from_millis(50);
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 9;
/// Fenced hot swaps per mixed-workload window, evenly spaced (every
/// 2.9 s of the default 20 s window).
pub const SWAPS: u64 = 6;
/// The default seed: the paper-scale world's own seed (`0xF4A99E`), so
/// the default world is the one the repository's experiments use.
pub const DEFAULT_SEED: u64 = 16_034_206;
/// The default window, seconds (`run_seconds` of `BENCHMARK.json`).
pub const DEFAULT_SECONDS: u64 = 20;
/// Apps classified over the socket by the final parity check.
pub const PARITY_SAMPLE: usize = 500;
/// How often the window samples queue and mailbox depths.
const SAMPLE_EVERY: Duration = Duration::from_millis(2);

/// A workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Reads only, over the edge, after the whole stream is primed.
    EdgeRead,
    /// Reads beside paced ingest and fenced hot swaps, one service.
    EdgeIngestSwap,
    /// The same traffic through a four-group shard router.
    RouterIngestSwap,
    /// In-process retrain, swap and rescore of every tracked app.
    CatalogRefresh,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::EdgeRead,
        Workload::EdgeIngestSwap,
        Workload::RouterIngestSwap,
        Workload::CatalogRefresh,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EdgeRead => "edge_read",
            Workload::EdgeIngestSwap => "edge_ingest_swap",
            Workload::RouterIngestSwap => "router_ingest_swap",
            Workload::CatalogRefresh => "catalog_refresh",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn shape(self) -> Shape {
        match self {
            Workload::RouterIngestSwap => Shape::Router,
            _ => Shape::Service,
        }
    }

    fn socket(self) -> bool {
        self != Workload::CatalogRefresh
    }

    fn mixed(self) -> bool {
        matches!(self, Workload::EdgeIngestSwap | Workload::RouterIngestSwap)
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// World and traffic seed.
    pub seed: u64,
    /// Window length, seconds.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub traced: bool,
    /// The world's configuration; its seed is replaced by `seed`.
    pub scenario: ScenarioConfig,
    /// Name of the scenario scale, for the header.
    pub scenario_name: String,
}

/// Operations and failures of a run, plus its checks.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    checks: Vec<Check>,
}

impl Tally {
    fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    fn check(&mut self, name: &str, passed: bool, detail: String) {
        if !passed {
            self.failed += 1;
        }
        self.checks.push(Check {
            name: name.to_string(),
            passed,
            detail,
        });
    }
}

fn header(config: &RunConfig, peak_rss_reset: bool) -> Header {
    let (git_rev, git_dirty) = sys::git_revision();
    Header {
        workload: config.workload.name().to_string(),
        seed: config.seed,
        seconds: config.seconds,
        scenario: config.scenario_name.clone(),
        traced: config.traced,
        git_rev,
        git_dirty,
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
        .to_string(),
        cpu: sys::cpu_model(),
        nproc: sys::nproc(),
        scoring: frappe::scoring::describe(),
        frappe_jobs: std::env::var(frappe_jobs::ENV_THREADS).ok(),
        frappe_simd: std::env::var("FRAPPE_SIMD").ok(),
        setups: SETUPS,
        peak_rss_reset,
    }
}

/// The serving model and its version, as the window leaves them.
struct Serving {
    model: Arc<FrappeModel>,
    version: u64,
}

/// Runs one workload end to end: inputs, timed set-ups, the window, the
/// checks, and (traced) the per-layer probe.
pub fn run(config: &RunConfig) -> Result<RunResult, String> {
    let workload = config.workload;
    let mut scenario = config.scenario.clone();
    scenario.seed = config.seed;
    let mut inputs = Inputs::prepare(&scenario);
    let mut tally = Tally::default();
    tally.check(
        "retrain_deterministic",
        inputs.retrain_deterministic,
        "retrain_on twice on the full labelled set: identical checkpoints".to_string(),
    );

    // set-up: build, prime, bind — several times, keeping the last
    let prime_len = if workload.mixed() {
        inputs.half
    } else {
        inputs.events.len()
    };
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut deployment: Option<Deployment> = None;
    let mut collector = None;
    for _ in 0..SETUPS {
        drop(deployment.take());
        let trace = config.traced.then(trace_collector);
        let started = Instant::now();
        let stood = stand_up(
            workload.shape(),
            &inputs,
            &inputs.events[..prime_len],
            workload.socket(),
            trace.clone(),
        )
        .map_err(|e| format!("set-up failed: {e}"))?;
        setup_s.push(started.elapsed().as_secs_f64());
        deployment = Some(stood);
        collector = trace;
    }
    let deployment = deployment.expect("SETUPS > 0");

    let steps = schedule::window_steps(config.seconds);
    let plan = schedule::classify_schedule(config.seed, &inputs.population, &steps);
    let bodies = if workload.mixed() {
        inputs.tail_bodies()
    } else {
        Vec::new()
    };

    // the window holds only what the workload needs: the stream has been
    // primed (and the tail rendered), so an untraced run lets it go
    if !config.traced {
        inputs.events = Vec::new();
    }
    sys::release_free_memory();
    let peak_rss_reset = sys::reset_peak_rss();

    let mut metrics = Metrics::new();
    let mut steps_out = Vec::new();
    let before = Counters::read(&deployment.backend);
    let (serving, observed) = if workload.socket() {
        let half = Arc::new(inputs.model_half.model.clone());
        let full = Arc::new(inputs.model_full.model.clone());
        let window = socket_window(
            &deployment,
            &plan,
            &steps,
            &bodies,
            config,
            [&half, &full],
            collector.as_ref(),
        )?;
        let (base, sliced) = step_reports(&plan, &steps, &window.open_loop, &inputs, &mut tally);
        let posts = post_metrics(&window.posts, &bodies, &mut tally);
        tally.ops(window.fences.len() as u64, 0);
        check_versions(&window, &mut tally);
        put_classify(&mut metrics, &sliced);
        put(&mut metrics, "max_rps_under_slo", max_rps_under_slo(&base));
        if let Some(p99) = posts {
            put(&mut metrics, "ingest_p99_us", p99);
        }
        steps_out = base;
        let observed = WindowObservations {
            traces: window.traces,
            fences_us: window.fences.iter().map(|f| f.took_us).collect(),
            queue_depth_max: window.queue_depth_max,
            mailbox_depth_max: window.mailbox_depth_max,
            before,
            after: Counters::read(&deployment.backend),
        };
        (window.serving, observed)
    } else {
        let window = refresh_window(&deployment.backend, &inputs, config.seconds, &mut tally);
        put_classify(&mut metrics, &window.classify);
        put(&mut metrics, "refresh_ms", median(&window.refresh_ms));
        put(
            &mut metrics,
            "rescore_apps_per_s",
            window.rescored as f64 / window.rescore_s,
        );
        let observed = WindowObservations {
            traces: collector
                .as_ref()
                .map(TraceCollector::snapshot)
                .unwrap_or_default(),
            fences_us: Vec::new(),
            queue_depth_max: 0,
            mailbox_depth_max: 0,
            before,
            after: Counters::read(&deployment.backend),
        };
        (window.serving, observed)
    };

    check_final_state(&deployment, &inputs, &serving, config.seed, &mut tally);
    let peak_rss = sys::peak_rss_mb();
    drop(deployment);

    if let Some(peak) = peak_rss {
        put(&mut metrics, "peak_rss_mb", peak);
    }
    put(&mut metrics, "setup_s", median(&setup_s));
    let failed_share = tally.failed as f64 / tally.attempted.max(1) as f64;
    put(&mut metrics, "fail_ratio", failed_share);

    let layers = if config.traced {
        layers::measure(&inputs, &plan, &bodies, &observed)
    } else {
        Metrics::new()
    };
    let correct = tally.checks.iter().all(|c| c.passed);
    Ok(RunResult {
        header: header(config, peak_rss_reset),
        correct,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        layers,
        steps: steps_out,
        checks: tally.checks,
    })
}

/// `classify_p50_us` and `classify_p99_us`: medians over the window's
/// slices.
fn put_classify(metrics: &mut Metrics, sliced: &Sliced) {
    if let Some(p50) = sliced.p50_us() {
        put(metrics, "classify_p50_us", p50);
    }
    if let Some(p99) = sliced.p99_us() {
        put(metrics, "classify_p99_us", p99);
    }
}

/// A fenced swap as the window saw it.
struct Fence {
    /// When `fenced` returned, ns after the window opened.
    returned_ns: u64,
    /// The version it installed.
    version: u64,
    /// Drain + swap + resume, µs.
    took_us: f64,
}

struct SocketWindow {
    open_loop: OpenLoopReport,
    posts: Vec<PostOutcome>,
    fences: Vec<Fence>,
    /// The serving model when the window closed.
    serving: Serving,
    queue_depth_max: usize,
    mailbox_depth_max: usize,
    /// Traces kept by the end of the base step (traced runs).
    traces: Vec<CompletedTrace>,
}

/// The socket window: thread A runs the classify schedule, thread B (mixed
/// workloads) posts the tail, and this thread fences [`SWAPS`] evenly
/// spaced swaps and samples queue depths. Lasts at least `seconds`.
/// `by_parity` holds the half-data and the full-data model: version `v`
/// serves `by_parity[v % 2]`, so swaps alternate and version 1 is the
/// full-data model the deployment started with.
fn socket_window(
    deployment: &Deployment,
    plan: &[Planned],
    steps: &[Step],
    bodies: &[String],
    config: &RunConfig,
    by_parity: [&Arc<FrappeModel>; 2],
    collector: Option<&TraceCollector>,
) -> Result<SocketWindow, String> {
    let server = deployment
        .server
        .as_ref()
        .expect("socket workloads bind an edge");
    let addr = server.local_addr();
    let edge = server.handle();
    let backend = &deployment.backend;
    let window_ns = config.seconds * 1_000_000_000;
    let post_due = schedule::ingest_due(bodies.len(), window_ns);
    // a short lead lets both threads connect before the first request is due
    let t0 = Instant::now() + Duration::from_millis(50);

    std::thread::scope(|scope| {
        let a = scope.spawn(|| client::open_loop(addr, plan, steps, t0));
        let b = (!bodies.is_empty())
            .then(|| scope.spawn(|| client::paced_posts(addr, bodies, &post_due, t0)));

        let mut serving = Serving {
            model: Arc::clone(by_parity[1]),
            version: 1,
        };
        let mut fences = Vec::new();
        let mut swaps_done = 0u64;
        let swap_at = |k: u64| (k + 1) * window_ns / (SWAPS + 1);
        let (mut queue_depth_max, mut mailbox_depth_max) = (0, 0);
        let mut traces = None;
        let since = || {
            u64::try_from(Instant::now().saturating_duration_since(t0).as_nanos())
                .unwrap_or(u64::MAX)
        };
        loop {
            let now = since();
            let busy = !a.is_finished() || b.as_ref().is_some_and(|b| !b.is_finished());
            if now >= window_ns && !busy {
                break;
            }
            std::thread::sleep(SAMPLE_EVERY);
            queue_depth_max = queue_depth_max.max(backend.queue_depth());
            mailbox_depth_max = mailbox_depth_max.max(backend.mailbox_depth());
            if traces.is_none() && now >= steps[0].end_ns {
                traces = Some(collector.map(TraceCollector::snapshot).unwrap_or_default());
            }
            if config.workload.mixed() && swaps_done < SWAPS && now >= swap_at(swaps_done) {
                let version = serving.version + 1;
                let model = Arc::clone(by_parity[(version % 2) as usize]);
                let started = Instant::now();
                frappe_lifecycle::SwapFence::fenced(&edge, &mut || {
                    backend.swap_model(Arc::clone(&model), version)
                });
                serving = Serving { model, version };
                fences.push(Fence {
                    returned_ns: since(),
                    version,
                    took_us: started.elapsed().as_secs_f64() * 1e6,
                });
                swaps_done += 1;
            }
        }
        let open_loop = a
            .join()
            .map_err(|_| "the classify generator panicked".to_string())?
            .map_err(|e| format!("classify connection failed: {e}"))?;
        let posts = match b {
            Some(b) => b
                .join()
                .map_err(|_| "the ingest generator panicked".to_string())?
                .map_err(|e| format!("ingest connection failed: {e}"))?,
            None => Vec::new(),
        };
        Ok(SocketWindow {
            open_loop,
            posts,
            fences,
            serving,
            queue_depth_max,
            mailbox_depth_max,
            traces: traces.unwrap_or_default(),
        })
    })
}

/// Per-step reports of the classify schedule, and the base step's
/// latencies in slices; books classify operations.
fn step_reports(
    plan: &[Planned],
    steps: &[Step],
    report: &OpenLoopReport,
    inputs: &Inputs,
    tally: &mut Tally,
) -> (Vec<StepReport>, Sliced) {
    let served_ok = |i: usize| match report.outcomes[i].status {
        200 => true,
        // tombstones keep deleted apps classifiable, so a 404 can only be
        // right for an app the stream deleted
        404 => inputs.reference.is_deleted(AppId(plan[i].app)),
        _ => false,
    };
    let mut out = Vec::with_capacity(steps.len());
    let mut base_ns = Vec::new();
    for (index, step) in steps.iter().enumerate() {
        let mut latency = Histogram::default();
        let mut late = Histogram::default();
        let (mut attempted, mut served) = (0u64, 0u64);
        for (i, planned) in plan.iter().enumerate().take(report.enqueued) {
            if planned.step != index {
                continue;
            }
            attempted += 1;
            let outcome = &report.outcomes[i];
            if let Some(sent) = outcome.sent_ns {
                late.record(sent.saturating_sub(planned.due_ns));
            }
            if served_ok(i) {
                served += 1;
                let done = outcome.done_ns.expect("a served request has a response");
                let ns = done.saturating_sub(planned.due_ns);
                latency.record(ns);
                if index == 0 {
                    base_ns.push(ns);
                }
            }
        }
        let failed = attempted - served;
        let backlog_ms = report.backlog_at_end_ns[index].map(|ns| ns as f64 / 1e6);
        let ran = attempted > 0 && backlog_ms.is_some();
        let late_max_us = late.max_ns() as f64 / 1e3;
        let valid = ran && late_max_us * 1e3 <= MAX_LATE.as_nanos() as f64;
        let p99_us = latency.quantile_us(0.99);
        let meets_slo = valid
            && report.stopped_at != Some(index)
            && p99_us.is_some_and(|p| p <= SLO_P99_US)
            && failed as f64 <= SLO_FAIL_RATIO * attempted as f64
            && backlog_ms.is_some_and(|b| b <= MAX_LATE.as_secs_f64() * 1e3);
        tally.ops(attempted, failed);
        out.push(StepReport {
            rate: step.rate,
            ran,
            attempted,
            served,
            failed,
            p50_us: latency.quantile_us(0.5),
            p99_us,
            late_p99_us: late.quantile_us(0.99),
            late_max_us,
            backlog_ms,
            valid,
            meets_slo,
        });
    }
    let skipped = plan.len() - report.enqueued;
    let detail = match report.stopped_at {
        Some(step) => format!("ladder stopped at step {step}; {skipped} later requests not sent"),
        None => "every step ran".to_string(),
    };
    let base_ok = out[0].valid;
    tally.check(
        "base_step_valid",
        base_ok,
        format!("base step generator lateness within {MAX_LATE:?}; {detail}"),
    );
    (out, Sliced::of_samples(&base_ns))
}

/// The highest ladder rate that met the SLO; the base rate when none did
/// but the base step did, else 0.
fn max_rps_under_slo(steps: &[StepReport]) -> f64 {
    steps[1..]
        .iter()
        .filter(|s| s.meets_slo)
        .map(|s| s.rate)
        .fold(None, |best: Option<f64>, r| {
            Some(best.map_or(r, |b| b.max(r)))
        })
        .or(steps[0].meets_slo.then_some(steps[0].rate))
        .unwrap_or(0.0)
}

/// Books ingest posts and checks every batch was taken whole; returns
/// the post latency p99 from the due time, µs.
fn post_metrics(posts: &[PostOutcome], bodies: &[String], tally: &mut Tally) -> Option<f64> {
    if bodies.is_empty() {
        return None;
    }
    let mut latency = Histogram::default();
    let mut whole = 0u64;
    let expected = |k: usize| bodies[k].lines().count();
    for (k, post) in posts.iter().enumerate() {
        if post.status == 202 && post.ingested == Some(expected(k)) {
            whole += 1;
            if let Some(done) = post.done_ns {
                latency.record(done.saturating_sub(post.due_ns));
            }
        }
    }
    let attempted = bodies.len() as u64;
    tally.ops(attempted, attempted - whole);
    tally.check(
        "ingest_batches_whole",
        whole == attempted,
        format!("{whole}/{attempted} posts answered 202 with ingested = batch size (≤ {BATCH_EVENTS} events)"),
    );
    latency.quantile_us(0.99)
}

/// The classify connection never sees `model_version` go backwards, and
/// every request sent after a fence returned carries at least the
/// version that fence installed.
fn check_versions(window: &SocketWindow, tally: &mut Tally) {
    let mut last = 0u64;
    let mut backwards = 0usize;
    let mut stale = 0usize;
    let mut fence = 0usize;
    let mut floor = 1u64;
    for outcome in window
        .open_loop
        .outcomes
        .iter()
        .take(window.open_loop.enqueued)
    {
        if outcome.status != 200 {
            continue;
        }
        if outcome.model_version < last {
            backwards += 1;
        }
        last = last.max(outcome.model_version);
        let sent = outcome.sent_ns.unwrap_or(0);
        while fence < window.fences.len() && window.fences[fence].returned_ns < sent {
            floor = window.fences[fence].version;
            fence += 1;
        }
        if outcome.model_version < floor {
            stale += 1;
        }
    }
    tally.check(
        "no_stale_epochs",
        backwards == 0 && stale == 0,
        format!(
            "{} fences; {backwards} version decreases, {stale} post-fence responses on an older version",
            window.fences.len()
        ),
    );
}

/// Final-state parity: every tracked app's in-process verdict is bit-equal
/// to the serial reference store scored with the serving model; for
/// socket workloads a seeded sample over the socket must match too.
fn check_final_state(
    deployment: &Deployment,
    inputs: &Inputs,
    serving: &Serving,
    seed: u64,
    tally: &mut Tally,
) {
    let backend = &deployment.backend;
    backend.flush();
    let reference_apps = inputs.reference.tracked_apps();
    let tracked = backend.tracked_apps();
    tally.check(
        "tracked_apps_match",
        tracked == reference_apps,
        format!(
            "{} tracked, {} in the reference store",
            tracked.len(),
            reference_apps.len()
        ),
    );
    let expected = |app: AppId| {
        inputs
            .reference_decision(app, &serving.model)
            .map(f64::to_bits)
    };
    let mismatched = reference_apps
        .iter()
        .filter(|&&app| {
            !backend.classify(app).is_ok_and(|v| {
                Some(v.decision_value.to_bits()) == expected(app)
                    && v.model_version == serving.version
            })
        })
        .count();
    tally.check(
        "final_state_parity",
        mismatched == 0,
        format!(
            "{mismatched}/{} in-process verdicts differ from the reference at version {}",
            reference_apps.len(),
            serving.version
        ),
    );

    let Some(server) = &deployment.server else {
        return;
    };
    let sample = schedule::sample(seed, &reference_apps, PARITY_SAMPLE);
    let mismatched = match BlockingClient::connect(server.local_addr()) {
        Ok(mut client) => sample
            .iter()
            .filter(|&&app| {
                !client.classify(app.raw()).is_ok_and(|(status, verdict)| {
                    status == 200
                        && verdict.is_some_and(|v| {
                            Some(v.decision_value.to_bits()) == expected(app)
                                && v.model_version == serving.version
                        })
                })
            })
            .count(),
        Err(_) => sample.len(),
    };
    tally.check(
        "socket_sample_parity",
        mismatched == 0,
        format!(
            "{mismatched}/{} socket verdicts differ from the reference",
            sample.len()
        ),
    );
}

struct RefreshWindow {
    /// Rescore latency, one slice per rescore pass.
    classify: Sliced,
    refresh_ms: Vec<f64>,
    rescored: u64,
    rescore_s: f64,
    serving: Serving,
}

/// `catalog_refresh`: retrain (alternating the full and half labelled
/// sets), swap, and classify every tracked app on two threads, until the
/// window is over. Every rescore is a stale-epoch miss.
fn refresh_window(
    backend: &Backend,
    inputs: &Inputs,
    seconds: u64,
    tally: &mut Tally,
) -> RefreshWindow {
    let apps = backend.tracked_apps();
    let sets = [
        (&inputs.full, &inputs.model_full.checkpoint),
        (&inputs.half_set, &inputs.model_half.checkpoint),
    ];
    let mut classify = Sliced::default();
    let mut refresh_ms = Vec::new();
    let (mut rescored, mut rescore_s) = (0u64, 0.0);
    let mut version = 1u64;
    let mut model = Arc::new(inputs.model_full.model.clone());
    let (mut drifted, mut wrong) = (0usize, 0u64);
    let window = Duration::from_secs(seconds);
    let started = Instant::now();
    let mut iteration = 0usize;
    while started.elapsed() < window {
        let (set, checkpoint) = sets[iteration % 2];
        let t = Instant::now();
        let trained = frappe_lifecycle::retrain_on(
            &frappe_jobs::JobPool::with_threads(inputs::RETRAIN_THREADS),
            &set.rows,
            &set.labels,
            &frappe_lifecycle::RetrainConfig::default(),
        );
        let retrain_s = t.elapsed().as_secs_f64();
        if frappe_lifecycle::write_model(&trained.model) != *checkpoint {
            drifted += 1;
        }

        version += 1;
        model = Arc::new(trained.model);
        let t = Instant::now();
        backend.swap_model(Arc::clone(&model), version);
        let swap_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let parts: Vec<(Histogram, u64)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2)
                .map(|k| {
                    let apps = &apps;
                    scope.spawn(move || {
                        let mut latency = Histogram::default();
                        let mut wrong = 0u64;
                        for &app in apps.iter().skip(k).step_by(2) {
                            let t = Instant::now();
                            let verdict = backend.classify(app);
                            latency.record(t.elapsed().as_nanos() as u64);
                            if !verdict.is_ok_and(|v| v.model_version == version) {
                                wrong += 1;
                            }
                        }
                        (latency, wrong)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("rescore thread"))
                .collect()
        });
        let rescore = t.elapsed().as_secs_f64();
        let mut pass = Histogram::default();
        for (latency, bad) in &parts {
            pass.merge(latency);
            wrong += bad;
        }
        classify.add(&pass);
        rescored += apps.len() as u64;
        rescore_s += rescore;
        refresh_ms.push((retrain_s + swap_s + rescore) * 1e3);
        iteration += 1;
    }
    // each iteration: one retrain, one swap, one classify per app
    tally.ops(iteration as u64 * 2 + rescored, wrong);
    tally.check(
        "retrain_deterministic_each_iteration",
        drifted == 0,
        format!(
            "{drifted}/{iteration} retrains differ from the first checkpoint of their labelled set"
        ),
    );
    tally.check(
        "rescores_fresh",
        wrong == 0,
        format!("{wrong}/{rescored} rescores failed or carried a version other than the one just swapped in"),
    );
    RefreshWindow {
        classify,
        refresh_ms,
        rescored,
        rescore_s,
        serving: Serving { model, version },
    }
}
