//! Every metric the benchmark reports: name, unit, direction, the bound
//! by which an end-to-end metric may worsen before `compare` calls it a
//! regression, and, for a layer metric, the end-to-end metric it should
//! move. `BENCHMARK.json` repeats the gated subset; a test keeps
//! the two in step.

use Better::{Higher, Lower};

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory, failures).
    Lower,
    /// Larger values are better (rates).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How far an end-to-end metric may worsen before it is a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the base median.
    Relative(f64),
    /// An absolute amount in the metric's unit.
    Absolute(f64),
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name, as printed and stored.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound.
    pub bound: Bound,
    /// Whether `BENCHMARK.json` lists it: every workload reports it and
    /// it repeats from run to run. The rest are specific to some
    /// workloads, or too much at the mercy of the host to gate on.
    pub gated: bool,
}

/// One per-layer metric (traced runs).
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Metric name, `layer.what[.quantile]`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The end-to-end metric (and workload) it should move.
    pub moves: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: Bound,
    gated: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        gated,
    }
}

/// End-to-end metrics.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Better::Lower, Bound::Relative(0.25), true),
    // in-process rescore latency (catalog_refresh) moves ~8% between runs
    // on a shared two-vCPU host
    e2e(
        "classify_p50_us",
        "us",
        Better::Lower,
        Bound::Relative(0.20),
        true,
    ),
    // not gated: in a stretch of host stalls (a descheduled vCPU stops
    // every thread for 10-20 ms) a run's p99 jumps several-fold
    e2e(
        "classify_p99_us",
        "us",
        Better::Lower,
        Bound::Relative(0.20),
        false,
    ),
    e2e(
        "peak_rss_mb",
        "MB",
        Better::Lower,
        Bound::Relative(0.10),
        true,
    ),
    e2e(
        "fail_ratio",
        "ratio",
        Better::Lower,
        Bound::Absolute(0.001),
        false,
    ),
    // one ladder step: each step doubles the rate
    e2e(
        "max_rps_under_slo",
        "req/s",
        Better::Higher,
        Bound::Relative(0.5),
        false,
    ),
    e2e(
        "ingest_p99_us",
        "us",
        Better::Lower,
        Bound::Relative(0.10),
        false,
    ),
    e2e(
        "refresh_ms",
        "ms",
        Better::Lower,
        Bound::Relative(0.10),
        false,
    ),
    e2e(
        "rescore_apps_per_s",
        "apps/s",
        Better::Higher,
        Bound::Relative(0.10),
        false,
    ),
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

/// Per-layer metrics, all reported by every traced run.
pub const PER_LAYER: &[Layer] = &[
    layer(
        "net.http_parse_ns",
        "ns",
        Lower,
        "classify_p50_us @ edge_read, as a small share",
    ),
    layer(
        "net.ndjson_decode_ns",
        "ns",
        Lower,
        "ingest_p99_us @ edge_ingest_swap",
    ),
    layer(
        "net.edge_self_us",
        "us",
        Lower,
        "classify_p50_us, max_rps_under_slo @ edge_read",
    ),
    layer(
        "net.request_self_us.p50",
        "us",
        Lower,
        "classify_p50_us @ edge_read",
    ),
    layer(
        "net.request_self_us.p99",
        "us",
        Lower,
        "classify_p50_us @ edge_read",
    ),
    layer(
        "net.write_us.p50",
        "us",
        Lower,
        "classify_p50_us @ edge_read",
    ),
    layer(
        "net.responses_429",
        "count",
        Lower,
        "fail_ratio @ mixed workloads",
    ),
    layer(
        "net.read_stalls",
        "count",
        Lower,
        "fail_ratio @ mixed workloads",
    ),
    layer(
        "serve.classify_inproc_us.p50",
        "us",
        Lower,
        "classify_p50_us @ edge_read",
    ),
    layer(
        "serve.classify_inproc_us.p99",
        "us",
        Lower,
        "classify_p50_us @ edge_read",
    ),
    layer(
        "serve.pool_hop_us",
        "us",
        Lower,
        "classify_p50_us @ edge_read; rescore_apps_per_s @ catalog_refresh",
    ),
    layer(
        "serve.queue_wait_us.p50",
        "us",
        Lower,
        "classify_p99_us @ edge_ingest_swap",
    ),
    layer(
        "serve.queue_wait_us.p99",
        "us",
        Lower,
        "classify_p99_us @ edge_ingest_swap",
    ),
    layer(
        "serve.queue_depth_max",
        "count",
        Lower,
        "classify_p99_us, fail_ratio",
    ),
    layer(
        "serve.mean_batch_size",
        "count",
        Higher,
        "rescore_apps_per_s @ catalog_refresh",
    ),
    layer(
        "serve.cache_hit_ratio",
        "ratio",
        Higher,
        "classify_p50_us @ edge_ingest_swap vs edge_read",
    ),
    layer(
        "serve.cache_lookup_ns",
        "ns",
        Lower,
        "classify_p50_us @ edge_read",
    ),
    layer(
        "serve.stale_epoch_rescores",
        "count",
        Lower,
        "classify_p99_us @ edge_ingest_swap",
    ),
    layer(
        "serve.store_apply_ns",
        "ns",
        Lower,
        "ingest_p99_us @ edge_ingest_swap",
    ),
    layer(
        "serve.store_snapshot_ns",
        "ns",
        Lower,
        "classify_p50_us @ edge_ingest_swap; rescore_apps_per_s",
    ),
    layer(
        "serve.router_hop_us",
        "us",
        Lower,
        "classify_p50_us @ router_ingest_swap only",
    ),
    layer(
        "serve.router_ingest_ns",
        "ns",
        Lower,
        "ingest_p99_us @ router_ingest_swap",
    ),
    layer(
        "serve.mailbox_depth_max",
        "count",
        Lower,
        "classify_p99_us @ router_ingest_swap",
    ),
    layer(
        "svm.decision_value_ns",
        "ns",
        Lower,
        "rescore_apps_per_s; classify_p50_us @ edge_ingest_swap",
    ),
    layer(
        "svm.model_eval_us.p50",
        "us",
        Lower,
        "rescore_apps_per_s; classify_p50_us @ edge_ingest_swap",
    ),
    layer("lifecycle.retrain_ms", "ms", Lower, "refresh_ms"),
    layer("lifecycle.swap_us", "us", Lower, "refresh_ms"),
    layer(
        "lifecycle.fenced_swap_us.p50",
        "us",
        Lower,
        "classify_p99_us @ mixed workloads",
    ),
    layer(
        "lifecycle.fenced_swap_us.max",
        "us",
        Lower,
        "classify_p99_us @ mixed workloads",
    ),
    layer(
        "obs.trace_overhead_us",
        "us",
        Lower,
        "none expected; reported",
    ),
];

/// The end-to-end definition of `name`.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The unit of any metric, end-to-end or per-layer.
pub fn unit_of(name: &str) -> Option<&'static str> {
    end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}
