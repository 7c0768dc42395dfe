//! Service observability, served from the shared [`frappe_obs`] registry.
//!
//! The instruments themselves live in [`frappe_obs`]: relaxed-atomic
//! counters, an in-flight gauge, and a fixed-bucket latency histogram —
//! metrics must never become the bottleneck they are supposed to
//! diagnose. This module binds them under well-known `serve_*` names and
//! keeps the original [`MetricsSnapshot`] export as a thin view, so
//! existing consumers (the benchmark, the parity tests) see the same
//! serde shape while new consumers read the registry directly in
//! Prometheus text form.
//!
//! Each [`Metrics`] owns its own [`Registry`] by default: service
//! instances (and tests) count independently instead of bleeding into a
//! process-wide namespace. Snapshots are *not* a consistent cut (counters
//! are read one by one), which is the standard trade for zero
//! coordination.

use std::sync::Arc;
use std::time::Duration;

use frappe_obs::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};
use serde::{Deserialize, Serialize};

/// Upper bounds (µs) of the latency buckets; one extra overflow bucket
/// catches everything slower. Roughly logarithmic from 1µs to 10ms —
/// in-process scoring lives at the low end, contention shows up at the top.
pub const LATENCY_BOUNDS_MICROS: [u64; 13] = [
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000,
];

/// Exported histogram state. `counts` has one entry per bound plus a
/// final overflow bucket.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencySnapshot {
    /// Bucket upper bounds in µs (parallel to `counts[..counts.len()-1]`).
    pub bounds_micros: Vec<u64>,
    /// Observations per bucket; last entry is the overflow bucket.
    pub counts: Vec<u64>,
    /// Sum of all observed latencies (µs).
    pub total_micros: u64,
    /// Number of observations.
    pub count: u64,
}

impl LatencySnapshot {
    /// View of a registry histogram snapshot under the legacy field names.
    pub fn from_histogram(h: &HistogramSnapshot) -> Self {
        LatencySnapshot {
            bounds_micros: h.bounds.clone(),
            counts: h.counts.clone(),
            total_micros: h.sum,
            count: h.count,
        }
    }
}

/// Live instruments for one service instance, registered under `serve_*`
/// names in the instance's [`Registry`].
pub struct Metrics {
    registry: Arc<Registry>,
    events_ingested: Arc<Counter>,
    queries_served: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    rejected: Arc<Counter>,
    stale_epoch_rescores: Arc<Counter>,
    model_swaps: Arc<Counter>,
    cache_evictions: Arc<Counter>,
    model_version: Arc<Gauge>,
    queue_depth: Arc<Gauge>,
    latency: Arc<Histogram>,
    /// One counter per catalog feature, in catalog order: how often that
    /// lane was unobserved (imputed) in a freshly scored row.
    feature_unobserved: Vec<Arc<Counter>>,
}

impl Metrics {
    /// Binds the service instruments in `registry`. The per-feature
    /// `serve_feature_unobserved_*` counter names are derived from the
    /// [feature catalog](frappe::features::catalog)'s stable keys — no
    /// hand-maintained metric-name list.
    pub fn new(registry: Arc<Registry>) -> Self {
        Metrics {
            events_ingested: registry.counter("serve_events_ingested"),
            queries_served: registry.counter("serve_queries_served"),
            cache_hits: registry.counter("serve_cache_hits"),
            cache_misses: registry.counter("serve_cache_misses"),
            rejected: registry.counter("serve_rejected"),
            stale_epoch_rescores: registry.counter("serve_stale_epoch_rescores"),
            model_swaps: registry.counter("serve_model_swaps"),
            cache_evictions: registry.counter("serve_cache_evictions"),
            model_version: registry.gauge("serve_model_version"),
            queue_depth: registry.gauge("serve_queue_depth"),
            latency: registry.histogram("serve_query_latency_micros", &LATENCY_BOUNDS_MICROS),
            feature_unobserved: frappe::catalog::all()
                .map(|def| registry.counter(&format!("serve_feature_unobserved_{}", def.key)))
                .collect(),
            registry,
        }
    }

    /// The registry backing these instruments (for Prometheus text
    /// export alongside anything else registered there).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// One event applied to the feature store.
    pub fn event_ingested(&self) {
        self.events_ingested.inc();
    }

    /// One classify call answered (records end-to-end latency).
    pub fn query_served(&self, latency: Duration) {
        self.query_served_traced(latency, 0);
    }

    /// Like [`query_served`](Self::query_served), additionally attaching
    /// `trace_id` as the latency bucket's exemplar (0 = no exemplar) —
    /// the scraped histogram can then name a real traced request that
    /// landed in each bucket.
    pub fn query_served_traced(&self, latency: Duration, trace_id: u64) {
        self.queries_served.inc();
        let micros = latency.as_micros().min(u64::MAX as u128) as u64;
        self.latency.observe_with_exemplar(micros, trace_id);
    }

    /// Verdict answered from cache.
    pub fn cache_hit(&self) {
        self.cache_hits.inc();
    }

    /// Verdict had to be scored.
    pub fn cache_miss(&self) {
        self.cache_misses.inc();
    }

    /// Query rejected by backpressure.
    pub fn rejected(&self) {
        self.rejected.inc();
    }

    /// A cache miss whose entry existed but was minted under an older
    /// model epoch — the re-score a hot swap forced.
    pub fn stale_epoch_rescore(&self) {
        self.stale_epoch_rescores.inc();
    }

    /// Publishes the version of the model currently scoring (set at
    /// construction and on every swap).
    pub fn set_model_version(&self, version: u64) {
        self.model_version.set(version.min(i64::MAX as u64) as i64);
    }

    /// One hot swap of the scoring model (promotion or rollback); also
    /// republishes the version gauge.
    pub fn model_swapped(&self, new_version: u64) {
        self.model_swaps.inc();
        self.set_model_version(new_version);
    }

    /// `n` verdicts eagerly evicted from the cache.
    pub fn cache_evicted(&self, n: u64) {
        self.cache_evictions.add(n);
    }

    /// Records which lanes of a freshly scored row were unobserved
    /// (scored from imputation instead of evidence), one counter per
    /// catalog feature. The unobserved test is the catalog's own encode
    /// rule, so these counters can never disagree with what the model saw.
    pub fn lanes_unobserved(&self, features: &frappe::AppFeatures) {
        for (def, counter) in frappe::catalog::all().zip(&self.feature_unobserved) {
            if def.raw_value(features).is_none() {
                counter.inc();
            }
        }
    }

    /// Exports current values. `queue_depth` (classifies in flight) is
    /// sampled by the caller (the service holds the count; the counters
    /// do not) and is also published to the `serve_queue_depth` gauge.
    pub fn snapshot(&self, queue_depth: usize) -> MetricsSnapshot {
        self.queue_depth
            .set(queue_depth.min(i64::MAX as usize) as i64);
        let hits = self.cache_hits.get();
        let misses = self.cache_misses.get();
        let looked_up = hits + misses;
        MetricsSnapshot {
            events_ingested: self.events_ingested.get(),
            queries_served: self.queries_served.get(),
            cache_hits: hits,
            cache_misses: misses,
            cache_hit_ratio: if looked_up == 0 {
                0.0
            } else {
                hits as f64 / looked_up as f64
            },
            rejected: self.rejected.get(),
            batches_scored: looked_up,
            model_version: self.model_version.get().max(0) as u64,
            model_swaps: self.model_swaps.get(),
            cache_evictions: self.cache_evictions.get(),
            queue_depth,
            latency: LatencySnapshot::from_histogram(&self.latency.snapshot()),
        }
    }
}

impl Default for Metrics {
    /// Instruments bound in a fresh private registry.
    fn default() -> Self {
        Metrics::new(Arc::new(Registry::new()))
    }
}

/// A point-in-time export of every service metric; serializable for
/// dashboards and the load generator's report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Events applied to the feature store.
    pub events_ingested: u64,
    /// Classify calls answered.
    pub queries_served: u64,
    /// Verdicts answered from cache.
    pub cache_hits: u64,
    /// Verdicts scored fresh.
    pub cache_misses: u64,
    /// `cache_hits / (cache_hits + cache_misses)`, 0 when nothing looked up.
    pub cache_hit_ratio: f64,
    /// Queries rejected by backpressure.
    pub rejected: u64,
    /// Scoring passes: every classify that reached the cache scores one
    /// request, so this is `cache_hits + cache_misses`.
    pub batches_scored: u64,
    /// Version of the model currently scoring.
    pub model_version: u64,
    /// Hot swaps of the scoring model (promotions + rollbacks).
    pub model_swaps: u64,
    /// Verdicts eagerly evicted from the cache (lazy invalidation by
    /// generation stamp is not counted here — those die by overwrite).
    pub cache_evictions: u64,
    /// Classifies in flight when the snapshot was taken.
    pub queue_depth: usize,
    /// Query-latency histogram.
    pub latency: LatencySnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_ratio_accumulate() {
        let m = Metrics::default();
        m.event_ingested();
        m.event_ingested();
        m.cache_hit();
        m.cache_miss();
        m.cache_miss();
        m.cache_miss();
        m.rejected();
        m.query_served(Duration::from_micros(30));
        m.set_model_version(1);
        m.model_swapped(2);
        m.cache_evicted(4);
        let s = m.snapshot(5);
        assert_eq!(s.events_ingested, 2);
        assert_eq!(s.queries_served, 1);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 3);
        assert!((s.cache_hit_ratio - 0.25).abs() < 1e-12);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.batches_scored, 4, "one pass per lookup");
        assert_eq!(s.model_version, 2, "swap republished the gauge");
        assert_eq!(s.model_swaps, 1);
        assert_eq!(s.cache_evictions, 4);
        assert_eq!(s.queue_depth, 5);
        assert_eq!(s.latency.count, 1);
    }

    #[test]
    fn unobserved_lane_counters_follow_the_catalog() {
        let m = Metrics::default();
        // default row: every on-demand lane and the link ratio unobserved;
        // name collision is always observed (it is a plain bool)
        m.lanes_unobserved(&frappe::AppFeatures::default());
        let text = m.registry().snapshot().to_prometheus_text();
        for def in frappe::catalog::all() {
            let expected = if def.id == frappe::FeatureId::NameCollision {
                0
            } else {
                1
            };
            assert!(
                text.contains(&format!("serve_feature_unobserved_{} {expected}", def.key)),
                "missing per-feature counter for {}:\n{text}",
                def.key
            );
        }
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let m = Metrics::default();
        m.query_served(Duration::from_micros(120));
        m.cache_miss();
        let s = m.snapshot(0);
        let text = serde_json::to_string(&s).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn registry_sees_the_same_counts() {
        let m = Metrics::default();
        m.event_ingested();
        m.query_served(Duration::from_micros(40));
        let _ = m.snapshot(3); // publishes the in-flight gauge
        let text = m.registry().snapshot().to_prometheus_text();
        assert!(text.contains("serve_events_ingested 1"));
        assert!(text.contains("serve_queries_served 1"));
        assert!(text.contains("serve_queue_depth 3"));
        assert!(text.contains("serve_query_latency_micros_count 1"));
    }
}
