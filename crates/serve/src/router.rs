//! The hashing router in front of K shard groups.
//!
//! [`ShardRouter`] is the shared-nothing deployment of the serving
//! stack: it partitions the app-id space across K shard groups with a
//! seeded hash, each group a complete private [`FrappeService`] (store,
//! cache, in-flight cap, registry). Ingest and classify both run on the
//! caller's thread, in the owner group's service, exactly as they do on
//! a single [`FrappeService`]; the router owns no threads. Control state
//! (model pointer, known names) lives in one shared [`ControlPlane`], so
//! swaps and name flags stay globally atomic across groups.
//!
//! ```text
//!  ingest(event) ──hash──┐
//!  classify(app) ──hash──┴─► owner group's service, on the caller's thread
//!                             group 0 … group K-1 (store+cache+in-flight cap, private)
//!                             └── ControlPlane (model epoch ptr + known names), shared
//! ```
//!
//! ## Why the router hash is *not* the store hash
//!
//! Each group internally re-shards its partition with
//! `store::shard_index`. If the router used the same mixer with
//! the same seed, then for group count K and inner shard count S with
//! `gcd(K, S) > 1` the two hashes would correlate perfectly: every app
//! owned by group `g` satisfies `h ≡ g (mod K)`, so at `K == S` all of a
//! group's apps land on **one** inner shard and the group's lock
//! striping degenerates to a single lock. `group_index` therefore runs
//! the same rotate–xor–multiply mixer under a different seed, which
//! decorrelates the two partitions (a unit test pins this).
//!
//! ## Metrics
//!
//! Every group owns a private registry (its `serve_*` lanes count only
//! its partition). The router owns a base registry for `route_*` and
//! `control_*` families, and [`ShardRouter::exposition`] merges all of
//! them into one scrape: base families verbatim, each group's families
//! re-labelled `group="<idx>"`, plus an unlabelled sum per additive
//! family. Non-additive families (gauges, and counters that are K views
//! of one shared mutation, like `serve_model_swaps`) are exempt from
//! summing — that is the no-double-count rule, pinned byte-exactly in a
//! test below.

use std::collections::BTreeMap;
use std::sync::Arc;

use frappe::features::aggregation::KnownMaliciousNames;
use frappe::{AppFeatures, FrappeModel, VersionedModel};
use frappe_obs::{
    Counter, Gauge, HistogramSnapshot, MetricSnapshot, MetricValue, Registry, RegistrySnapshot,
    SpanId, TraceCollector, TraceHandle,
};
use osn_types::ids::AppId;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use url_services::shortener::Shortener;

use crate::control::{ControlPlane, ControlStamp};
use crate::event::ServeEvent;
use crate::metrics::{LatencySnapshot, MetricsSnapshot};
use crate::service::{
    finish_minted, join_or_mint, FrappeService, ServeConfig, ServeError, Verdict,
};

/// Counter families that every group bumps once per *shared* control
/// mutation: summing them across groups would report one swap K times.
/// They still appear per group; the control plane's `control_*` gauges
/// carry the authoritative shared value.
const SHARED_FAMILIES: &[&str] = &["serve_model_swaps"];

/// Maps an app id onto its owner group.
///
/// Same rotate–xor–multiply mixer as [`crate::store::shard_index`] but
/// under a distinct seed, so group ownership and a group's *inner* store
/// sharding are decorrelated (see the module docs for why reusing the
/// store seed degenerates at `groups == shards`). Pure arithmetic on the
/// id and a compile-time seed: deterministic across runs and processes.
pub(crate) fn group_index(app: AppId, groups: usize) -> usize {
    const SEED: u64 = 0xC2B2_AE3D_27D4_EB4F; // distinct from the store seed
    const FX: u64 = 0x517C_C1B7_2722_0A95; // FxHash 64-bit multiplier
    let mut h = (SEED.rotate_left(5) ^ app.raw()).wrapping_mul(FX);
    h ^= h >> 32;
    h = h.wrapping_mul(FX);
    h ^= h >> 32;
    (h % groups as u64) as usize
}

/// Tuning knobs for a shard-group deployment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShardConfig {
    /// Partition-owning shard groups (K).
    pub groups: usize,
    /// Read by nothing: ingest applies on the caller's thread, so there
    /// is no mailbox to size. Kept only because the benchmark sets it;
    /// ROADMAP item 3 (the benchmark revision) deletes it.
    pub mailbox_capacity: usize,
    /// Per-group serving configuration (inner shards, in-flight cap,
    /// retry hint). Every group gets an identical copy.
    pub group: ServeConfig,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            groups: 2,
            mailbox_capacity: 1024,
            group: ServeConfig::default(),
        }
    }
}

/// Router-level instruments, registered in the router's base registry.
struct RouterMetrics {
    classify_forwarded: Vec<Arc<Counter>>,
    queue_depth: Arc<Gauge>,
}

impl RouterMetrics {
    fn new(registry: &Registry, groups: usize) -> Self {
        registry
            .gauge("route_groups")
            .set(groups.min(i64::MAX as usize) as i64);
        RouterMetrics {
            classify_forwarded: (0..groups)
                .map(|g| {
                    registry.counter_with("route_classify_forwarded", &[("group", &g.to_string())])
                })
                .collect(),
            queue_depth: registry.gauge("route_queue_depth"),
        }
    }
}

/// K shard groups behind one hashing front door.
///
/// The router exposes the same verbs as [`FrappeService`] — `ingest`,
/// `classify`, `classify_traced`, `flag_name`, `swap_model` — and runs
/// each on the calling thread in the one group that owns the app. It
/// starts no threads, so dropping it joins nothing.
pub struct ShardRouter {
    control: Arc<ControlPlane>,
    groups: Vec<FrappeService>,
    config: ShardConfig,
    registry: Arc<Registry>,
    metrics: RouterMetrics,
    trace: RwLock<Option<TraceCollector>>,
}

impl ShardRouter {
    /// Builds a router around a freshly trained model at version 1.
    ///
    /// # Panics
    /// Panics if `config` has zero groups or a per-group config with
    /// zero `max_in_flight`.
    pub fn new(
        model: FrappeModel,
        known: KnownMaliciousNames,
        shortener: Shortener,
        config: ShardConfig,
    ) -> Self {
        assert!(config.groups > 0, "a router needs at least one group");
        let control = Arc::new(ControlPlane::new(model, known));
        let groups = (0..config.groups)
            .map(|_| FrappeService::with_control_plane(&control, shortener.clone(), config.group))
            .collect();
        let registry = Arc::new(Registry::new());
        let metrics = RouterMetrics::new(&registry, config.groups);
        control.publish(&registry);
        ShardRouter {
            control,
            groups,
            config,
            registry,
            metrics,
            trace: RwLock::new(None),
        }
    }

    /// The configuration this router runs with.
    pub fn config(&self) -> &ShardConfig {
        &self.config
    }

    /// Number of shard groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The group that owns `app`.
    pub fn group_of(&self, app: AppId) -> usize {
        group_index(app, self.groups.len())
    }

    /// The service of the group that owns `app`.
    pub(crate) fn group_service(&self, app: AppId) -> &FrappeService {
        &self.groups[self.group_of(app)]
    }

    /// The control plane every group scores through.
    pub(crate) fn control(&self) -> &ControlPlane {
        &self.control
    }

    /// Current control version vector.
    pub fn control_stamp(&self) -> ControlStamp {
        self.control.stamp()
    }

    /// Applies one event on the calling thread, in its owner group's
    /// store, exactly as [`FrappeService::ingest`] does: when it returns,
    /// the next read sees the event.
    ///
    /// Always `Ok`. The `Result` is kept only because the benchmark
    /// matches on it; ROADMAP item 3 (the benchmark revision) drops it.
    pub fn ingest(&self, event: &ServeEvent) -> Result<(), ServeError> {
        self.group_service(event.app()).ingest(event);
        Ok(())
    }

    /// Returns at once: every accepted event is already applied. Kept
    /// only because the benchmark calls it; ROADMAP item 3 (the benchmark
    /// revision) deletes it.
    pub fn flush(&self) {}

    /// Classifies one app on the calling thread, in its owner group.
    pub fn classify(&self, app: AppId) -> Result<Verdict, ServeError> {
        self.classify_traced(app, None)
    }

    /// [`classify`](Self::classify) with explicit trace plumbing,
    /// mirroring [`FrappeService::classify_traced`].
    ///
    /// The request keeps its edge-minted trace across the group
    /// boundary: the router records `route/forward` (the routing
    /// decision) and `route/group_score` (the owner group's classify,
    /// closed when it returns), and the group's own `serve/queue` /
    /// `serve/score` spans nest causally under `route/group_score` — one
    /// trace tree from socket accept to verdict.
    pub fn classify_traced(
        &self,
        app: AppId,
        edge_trace: Option<(TraceHandle, Option<SpanId>)>,
    ) -> Result<Verdict, ServeError> {
        let (handle, parent, root) = join_or_mint(edge_trace, &self.trace, "route/classify");
        let trace = handle.as_ref().map(|h| (h, parent));
        let forward = frappe_obs::span_in("route/forward", trace);
        let g = self.group_of(app);
        if let Some(h) = &handle {
            h.event("route", format!("group={g}"));
        }
        drop(forward);
        let group_span = frappe_obs::span_in("route/group_score", trace);
        let outcome =
            self.groups[g].classify_traced(app, handle.clone().map(|h| (h, group_span.id())));
        drop(group_span);
        if !matches!(outcome, Err(ServeError::Overloaded { .. })) {
            self.metrics.classify_forwarded[g].inc();
        }
        // the group recorded its events on the handle; a trace the router
        // minted is the router's to finish
        finish_minted(handle.as_ref(), root, &outcome);
        outcome
    }

    /// Current feature row for one app, read from its owner group.
    pub fn features(&self, app: AppId) -> Option<AppFeatures> {
        self.group_service(app).features(app)
    }

    /// Adds a name to the shared known-malicious list (observed by every
    /// group at once). Returns whether the normalized name was new.
    pub fn flag_name(&self, name: &str) -> bool {
        self.control.flag_name(name)
    }

    /// Hot-swaps the scoring model for every group **atomically**: the
    /// epoch pointer is shared, so there is exactly one swap, observed
    /// by all groups at the same instant — no group ever serves a mix of
    /// epochs, and pre-swap cached verdicts die in every group's cache.
    /// Each group books the swap in its own metrics lane.
    pub fn swap_model(&self, model: Arc<FrappeModel>, version: u64) -> Arc<VersionedModel> {
        let old = self.control.swap_model(model, version);
        for group in &self.groups {
            group.record_external_swap(version);
        }
        old
    }

    /// The installed `(version, epoch, model)` triple every group
    /// scores with.
    pub fn current_model(&self) -> Arc<VersionedModel> {
        self.control.current_model()
    }

    /// Eagerly drops every cached verdict in every group, returning the
    /// total eviction count.
    pub fn clear_verdict_cache(&self) -> usize {
        self.groups.iter().map(|g| g.clear_verdict_cache()).sum()
    }

    /// Classifies in flight, summed across groups.
    pub fn queue_depth(&self) -> usize {
        self.groups.iter().map(|g| g.queue_depth()).sum()
    }

    /// Always 0: no event waits between `ingest` and its store. Kept
    /// only because the benchmark samples it; ROADMAP item 3 (the
    /// benchmark revision) deletes it.
    pub fn mailbox_depth(&self) -> usize {
        0
    }

    /// Apps tracked by any group, sorted (each app has one owner, so
    /// this is a disjoint union).
    pub fn tracked_apps(&self) -> Vec<AppId> {
        let mut apps: Vec<AppId> = self.groups.iter().flat_map(|g| g.tracked_apps()).collect();
        apps.sort_unstable();
        apps
    }

    /// Point-in-time metrics summed across groups (and refreshing the
    /// router's in-flight gauge). Counters and the latency histogram add;
    /// `model_version` comes from the control plane and `model_swaps`
    /// is the per-group maximum — every group books each shared swap
    /// once, so the sum would count one swap K times.
    pub fn metrics(&self) -> MetricsSnapshot {
        let stamp = self.control.stamp();
        let mut merged = MetricsSnapshot {
            events_ingested: 0,
            queries_served: 0,
            cache_hits: 0,
            cache_misses: 0,
            cache_hit_ratio: 0.0,
            rejected: 0,
            batches_scored: 0,
            model_version: stamp.model_version,
            model_swaps: 0,
            cache_evictions: 0,
            queue_depth: 0,
            latency: LatencySnapshot {
                bounds_micros: Vec::new(),
                counts: Vec::new(),
                total_micros: 0,
                count: 0,
            },
        };
        for group in &self.groups {
            let s = group.metrics();
            merged.events_ingested += s.events_ingested;
            merged.queries_served += s.queries_served;
            merged.cache_hits += s.cache_hits;
            merged.cache_misses += s.cache_misses;
            merged.rejected += s.rejected;
            merged.batches_scored += s.batches_scored;
            merged.model_swaps = merged.model_swaps.max(s.model_swaps);
            merged.cache_evictions += s.cache_evictions;
            merged.queue_depth += s.queue_depth;
            if merged.latency.bounds_micros.is_empty() {
                merged.latency = s.latency;
            } else {
                debug_assert_eq!(merged.latency.bounds_micros, s.latency.bounds_micros);
                for (acc, c) in merged
                    .latency
                    .counts
                    .iter_mut()
                    .zip(s.latency.counts.iter())
                {
                    *acc += c;
                }
                merged.latency.total_micros += s.latency.total_micros;
                merged.latency.count += s.latency.count;
            }
        }
        let looked_up = merged.cache_hits + merged.cache_misses;
        if looked_up > 0 {
            merged.cache_hit_ratio = merged.cache_hits as f64 / looked_up as f64;
        }
        self.metrics
            .queue_depth
            .set(merged.queue_depth.min(i64::MAX as usize) as i64);
        merged
    }

    /// The router's base registry (`route_*` + `control_*` families).
    /// Group `serve_*` lanes live in per-group registries; use
    /// [`exposition`](Self::exposition) for the merged scrape.
    pub fn obs_registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// One merged Prometheus scrape for the whole deployment: the base
    /// registry verbatim, every group family re-labelled
    /// `group="<idx>"`, plus an unlabelled sum per additive family (see
    /// the module docs for the no-double-count rule).
    pub fn exposition(&self) -> RegistrySnapshot {
        let _ = self.metrics(); // refresh in-flight gauges everywhere
        self.control.publish(&self.registry);
        let group_snaps: Vec<RegistrySnapshot> = self
            .groups
            .iter()
            .map(|g| g.obs_registry().snapshot())
            .collect();
        merge_expositions(self.registry.snapshot(), &group_snaps, SHARED_FAMILIES)
    }

    /// Attach a trace collector: in-process classifies mint
    /// `route/classify` traces, and edge-forwarded requests keep their
    /// own handles (the groups never mint — they only contribute child
    /// spans). Tracing only observes; verdicts are bit-identical with
    /// and without it.
    pub fn set_trace_collector(&self, collector: TraceCollector) {
        *self.trace.write() = Some(collector);
    }

    /// The attached trace collector, if any (clones share state).
    pub fn trace_collector(&self) -> Option<TraceCollector> {
        self.trace.read().clone()
    }

    /// Every group's service, in group order.
    pub(crate) fn group_services(&self) -> impl Iterator<Item = &FrappeService> {
        self.groups.iter()
    }
}

/// Merges per-group registry snapshots into one exposition.
///
/// * `base` families pass through untouched (router-owned, exactly one
///   writer — never doubled).
/// * every group metric is re-emitted with a `group="<idx>"` label
///   appended, one lane per group.
/// * additive families — counters and histograms not listed in
///   `shared` — additionally get an unlabelled sum, *unless* the family
///   name already exists in `base` (summing into a base family would
///   double-count it). Gauges never sum: a level is not additive in
///   general, and the shared ones (model version) would multiply by K.
fn merge_expositions(
    base: RegistrySnapshot,
    groups: &[RegistrySnapshot],
    shared: &[&str],
) -> RegistrySnapshot {
    let base_families: std::collections::BTreeSet<&str> =
        base.metrics.iter().map(|m| m.name.as_str()).collect();
    let mut totals: BTreeMap<(String, Vec<(String, String)>), MetricValue> = BTreeMap::new();
    let mut merged = Vec::new();
    for (g, snap) in groups.iter().enumerate() {
        for m in &snap.metrics {
            let aggregates = !base_families.contains(m.name.as_str())
                && !shared.contains(&m.name.as_str())
                && !matches!(m.value, MetricValue::Gauge(_));
            if aggregates {
                let key = (m.name.clone(), m.labels.clone());
                match totals.entry(key) {
                    std::collections::btree_map::Entry::Vacant(slot) => {
                        slot.insert(m.value.clone());
                    }
                    std::collections::btree_map::Entry::Occupied(mut slot) => {
                        accumulate(slot.get_mut(), &m.value);
                    }
                }
            }
            let mut labels = m.labels.clone();
            labels.push(("group".to_owned(), g.to_string()));
            merged.push(MetricSnapshot {
                name: m.name.clone(),
                labels,
                value: m.value.clone(),
            });
        }
    }
    merged.extend(base.metrics);
    merged.extend(
        totals
            .into_iter()
            .map(|((name, labels), value)| MetricSnapshot {
                name,
                labels,
                value,
            }),
    );
    merged.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
    RegistrySnapshot { metrics: merged }
}

/// Folds `next` into `acc`; both sides must be the same kind (they come
/// from identically constructed per-group registries).
fn accumulate(acc: &mut MetricValue, next: &MetricValue) {
    match (acc, next) {
        (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
        (MetricValue::Histogram(a), MetricValue::Histogram(b)) => merge_histograms(a, b),
        (acc, next) => {
            debug_assert!(false, "metric kind mismatch: {acc:?} vs {next:?}");
        }
    }
}

fn merge_histograms(acc: &mut HistogramSnapshot, next: &HistogramSnapshot) {
    debug_assert_eq!(acc.bounds, next.bounds, "same family, same bounds");
    for (a, b) in acc.counts.iter_mut().zip(next.counts.iter()) {
        *a += b;
    }
    for (a, b) in acc.exemplars.iter_mut().zip(next.exemplars.iter()) {
        if a.is_none() {
            *a = *b;
        }
    }
    acc.sum += next.sum;
    acc.count += next.count;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::shard_index;

    #[test]
    fn group_index_is_deterministic_and_in_range() {
        for groups in [1usize, 2, 4, 8, 13] {
            for raw in [0u64, 1, 42, u64::MAX, 1 << 33] {
                let a = group_index(AppId(raw), groups);
                let b = group_index(AppId(raw), groups);
                assert_eq!(a, b, "same app, same group, every time");
                assert!(a < groups);
            }
        }
    }

    /// The router-balance satellite: clustered/sequential app ids (the
    /// stride-allocated ranges that broke modulo sharding in PR 3) must
    /// spread ≤2× uniform across groups, for every supported group
    /// count.
    #[test]
    fn clustered_app_ids_spread_within_2x_of_uniform_across_groups() {
        for groups in [2usize, 4, 8] {
            for (stride, offset) in [(1u64, 0u64), (16, 0), (64, 3), (1 << 20, 7)] {
                let n = 256u64;
                let mut occupancy = vec![0usize; groups];
                for i in 0..n {
                    occupancy[group_index(AppId(offset + i * stride), groups)] += 1;
                }
                let mean = n as usize / groups;
                let mut occupied = 0;
                for (g, &got) in occupancy.iter().enumerate() {
                    assert!(
                        got <= 2 * mean,
                        "groups={groups} stride={stride}: group {g} holds {got}, \
                         2x-uniform bound is {}",
                        2 * mean
                    );
                    occupied += usize::from(got > 0);
                }
                assert!(
                    occupied > groups / 2,
                    "groups={groups} stride={stride}: only {occupied}/{groups} groups used"
                );
            }
        }
    }

    /// The reason [`group_index`] has its own seed: with the store's
    /// seed, an app's group and its inner shard would satisfy
    /// `group ≡ shard (mod gcd(K, S))`, collapsing each group's
    /// partition onto a single inner shard at `K == S`. With the
    /// distinct seed, every group's apps must keep using *most* of its
    /// inner shards.
    #[test]
    fn group_hash_is_decorrelated_from_the_inner_store_hash() {
        let groups = 4usize;
        let shards = 4usize; // the degenerate case for a shared seed
        let mut inner: Vec<std::collections::BTreeSet<usize>> = vec![Default::default(); groups];
        for raw in 0..512u64 {
            let app = AppId(raw);
            inner[group_index(app, groups)].insert(shard_index(app, shards));
        }
        for (g, used) in inner.iter().enumerate() {
            assert!(
                used.len() >= shards - 1,
                "group {g} funnels into only {} of {shards} inner shards",
                used.len()
            );
        }
    }

    /// The merged-exposition contract, pinned byte-exactly (the
    /// multi-group analogue of the registry's own escaping test): base
    /// families verbatim, per-group lanes labelled `group="i"`, additive
    /// families summed once, shared counters and gauges never summed.
    #[test]
    fn merged_exposition_bytes_are_pinned() {
        let base = Registry::new();
        base.counter("route_classify_forwarded").add(2);
        base.gauge("control_model_version").set(3);

        let g0 = Registry::new();
        g0.counter("serve_queries_served").add(5);
        g0.counter("serve_model_swaps").add(1); // shared: one swap, K views
        g0.gauge("serve_queue_depth").set(4);
        let h0 = g0.histogram("serve_query_latency_micros", &[10, 100]);
        h0.observe(7);
        h0.observe_with_exemplar(50, 0xabc);

        let g1 = Registry::new();
        g1.counter("serve_queries_served").add(3);
        g1.counter("serve_model_swaps").add(1);
        g1.gauge("serve_queue_depth").set(1);
        let h1 = g1.histogram("serve_query_latency_micros", &[10, 100]);
        h1.observe(5_000);

        let merged = merge_expositions(
            base.snapshot(),
            &[g0.snapshot(), g1.snapshot()],
            &["serve_model_swaps"],
        );
        assert_eq!(
            merged.to_prometheus_text(),
            "# TYPE control_model_version gauge\n\
             control_model_version 3\n\
             # TYPE route_classify_forwarded counter\n\
             route_classify_forwarded 2\n\
             # TYPE serve_model_swaps counter\n\
             serve_model_swaps{group=\"0\"} 1\n\
             serve_model_swaps{group=\"1\"} 1\n\
             # TYPE serve_queries_served counter\n\
             serve_queries_served 8\n\
             serve_queries_served{group=\"0\"} 5\n\
             serve_queries_served{group=\"1\"} 3\n\
             # TYPE serve_query_latency_micros histogram\n\
             serve_query_latency_micros_bucket{le=\"10\"} 1\n\
             serve_query_latency_micros_bucket{le=\"100\"} 2 # {trace_id=\"0000000000000abc\"} 50\n\
             serve_query_latency_micros_bucket{le=\"+Inf\"} 3\n\
             serve_query_latency_micros_sum 5057\n\
             serve_query_latency_micros_count 3\n\
             serve_query_latency_micros_bucket{group=\"0\",le=\"10\"} 1\n\
             serve_query_latency_micros_bucket{group=\"0\",le=\"100\"} 2 # {trace_id=\"0000000000000abc\"} 50\n\
             serve_query_latency_micros_bucket{group=\"0\",le=\"+Inf\"} 2\n\
             serve_query_latency_micros_sum{group=\"0\"} 57\n\
             serve_query_latency_micros_count{group=\"0\"} 2\n\
             serve_query_latency_micros_bucket{group=\"1\",le=\"10\"} 0\n\
             serve_query_latency_micros_bucket{group=\"1\",le=\"100\"} 0\n\
             serve_query_latency_micros_bucket{group=\"1\",le=\"+Inf\"} 1\n\
             serve_query_latency_micros_sum{group=\"1\"} 5000\n\
             serve_query_latency_micros_count{group=\"1\"} 1\n\
             # TYPE serve_queue_depth gauge\n\
             serve_queue_depth{group=\"0\"} 4\n\
             serve_queue_depth{group=\"1\"} 1\n"
        );
    }

    /// A base-registry family with the same name as a group family must
    /// suppress the aggregate — summing into it would double-count.
    #[test]
    fn base_families_suppress_the_group_aggregate() {
        let base = Registry::new();
        base.counter("serve_queries_served").add(100);
        let g0 = Registry::new();
        g0.counter("serve_queries_served").add(5);
        let merged = merge_expositions(base.snapshot(), &[g0.snapshot()], &[]);
        assert_eq!(
            merged.to_prometheus_text(),
            "# TYPE serve_queries_served counter\n\
             serve_queries_served 100\n\
             serve_queries_served{group=\"0\"} 5\n"
        );
    }
}
