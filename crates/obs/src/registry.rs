//! Named metric registry with a Prometheus text exporter.
//!
//! A [`Registry`] hands out `Arc` handles to instruments keyed by name
//! plus an optional label set. Callers register once (taking a short
//! lock) and then record through the handle with no registry
//! involvement, so the hot path stays lock-free. One process-wide
//! registry is available via [`Registry::global`]; subsystems that need
//! isolated counting (e.g. one serving instance per test) create their
//! own with [`Registry::new`].
//!
//! Label values are escaped per the Prometheus text exposition rules
//! (`\` → `\\`, `"` → `\"`, newline → `\n`) — the encoding is pinned
//! byte-exactly by a test below.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};

#[derive(Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

type MetricKey = (String, Vec<(String, String)>);

fn key(name: &str, labels: &[(&str, &str)]) -> MetricKey {
    (
        name.to_owned(),
        labels
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect(),
    )
}

/// A collection of named instruments.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<MetricKey, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide registry shared by all instrumented crates.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Get or create the counter registered under `name` (no labels).
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_with(name, &[])
    }

    /// Get or create the counter registered under `name` with the given
    /// label set. Each distinct label set is its own instrument in the
    /// same family.
    ///
    /// # Panics
    /// If the same name + labels is registered as a different kind.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let mut metrics = self.metrics.lock();
        let metric = metrics
            .entry(key(name, labels))
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())));
        match metric {
            Metric::Counter(c) => Arc::clone(c),
            other => panic!("metric {name:?} is a {}, not a counter", other.kind()),
        }
    }

    /// Get or create the gauge registered under `name` (no labels).
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_with(name, &[])
    }

    /// Get or create the gauge registered under `name` with the given
    /// label set.
    ///
    /// # Panics
    /// If the same name + labels is registered as a different kind.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let mut metrics = self.metrics.lock();
        let metric = metrics
            .entry(key(name, labels))
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())));
        match metric {
            Metric::Gauge(g) => Arc::clone(g),
            other => panic!("metric {name:?} is a {}, not a gauge", other.kind()),
        }
    }

    /// Get or create the histogram registered under `name` (no labels)
    /// with the given finite bucket bounds.
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument kind, or
    /// as a histogram with different bounds.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Arc<Histogram> {
        self.histogram_with(name, &[], bounds)
    }

    /// Get or create the histogram registered under `name` with the
    /// given label set and finite bucket bounds.
    ///
    /// # Panics
    /// If the same name + labels is registered as a different kind, or
    /// as a histogram with different bounds.
    pub fn histogram_with(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        bounds: &[u64],
    ) -> Arc<Histogram> {
        let mut metrics = self.metrics.lock();
        let metric = metrics
            .entry(key(name, labels))
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new(bounds))));
        match metric {
            Metric::Histogram(h) => {
                assert!(
                    h.bounds() == bounds,
                    "metric {name:?} already registered with different bounds"
                );
                Arc::clone(h)
            }
            other => panic!("metric {name:?} is a {}, not a histogram", other.kind()),
        }
    }

    /// Point-in-time copy of every registered instrument, sorted by
    /// name then label set.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let metrics = self.metrics.lock();
        RegistrySnapshot {
            metrics: metrics
                .iter()
                .map(|((name, labels), metric)| MetricSnapshot {
                    name: name.clone(),
                    labels: labels.clone(),
                    value: match metric {
                        Metric::Counter(c) => MetricValue::Counter(c.get()),
                        Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                        Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                    },
                })
                .collect(),
        }
    }
}

/// One instrument's state at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricSnapshot {
    /// Registered metric name.
    pub name: String,
    /// Label pairs (empty for unlabelled instruments).
    pub labels: Vec<(String, String)>,
    /// Kind-tagged value.
    pub value: MetricValue,
}

/// The value side of a [`MetricSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MetricValue {
    /// Monotonic count.
    Counter(u64),
    /// Instantaneous level.
    Gauge(i64),
    /// Bucketed distribution.
    Histogram(HistogramSnapshot),
}

/// All registered instruments at one point in time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegistrySnapshot {
    /// Per-instrument snapshots, sorted by name then labels.
    pub metrics: Vec<MetricSnapshot>,
}

impl RegistrySnapshot {
    /// Render in the Prometheus text exposition format (one `# TYPE`
    /// header per metric family; histograms expand to cumulative
    /// `_bucket` series plus `_sum` and `_count`; bucket exemplars
    /// render in the OpenMetrics `# {trace_id="…"} value` form).
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        let mut last_family: Option<&str> = None;
        for m in &self.metrics {
            let name = sanitize_metric_name(&m.name);
            let labels = render_labels(&m.labels);
            if last_family != Some(m.name.as_str()) {
                let kind = match &m.value {
                    MetricValue::Counter(_) => "counter",
                    MetricValue::Gauge(_) => "gauge",
                    MetricValue::Histogram(_) => "histogram",
                };
                let _ = writeln!(out, "# TYPE {name} {kind}");
                last_family = Some(m.name.as_str());
            }
            match &m.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{name}{labels} {v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{name}{labels} {v}");
                }
                MetricValue::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for (i, &c) in h.counts.iter().enumerate() {
                        cumulative += c;
                        let le = match h.bounds.get(i) {
                            Some(b) => b.to_string(),
                            None => "+Inf".to_owned(),
                        };
                        let bucket_labels = render_bucket_labels(&m.labels, &le);
                        let _ = write!(out, "{name}_bucket{bucket_labels} {cumulative}");
                        if let Some(Some(ex)) = h.exemplars.get(i) {
                            let _ = write!(
                                out,
                                " # {{trace_id=\"{:016x}\"}} {}",
                                ex.trace_id, ex.value
                            );
                        }
                        out.push('\n');
                    }
                    let _ = writeln!(out, "{name}_sum{labels} {}", h.sum);
                    let _ = writeln!(out, "{name}_count{labels} {}", h.count);
                }
            }
        }
        out
    }
}

/// Render `{k="v",…}` with escaped values, or nothing when unlabelled.
fn render_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{}=\"{}\"",
            sanitize_metric_name(k),
            escape_label_value(v)
        );
    }
    out.push('}');
    out
}

/// Bucket labels: the instrument's own labels plus the `le` bound.
fn render_bucket_labels(labels: &[(String, String)], le: &str) -> String {
    let mut all: Vec<(String, String)> = labels.to_vec();
    all.push(("le".to_owned(), le.to_owned()));
    render_labels(&all)
}

/// Escape a label value per the Prometheus text format: backslash,
/// double-quote, and newline get backslash escapes; everything else
/// passes through.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Map a registry name onto the Prometheus identifier charset
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
fn sanitize_metric_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_none_or(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_same_instrument() {
        let r = Registry::new();
        let a = r.counter("requests");
        let b = r.counter("requests");
        a.inc();
        b.add(2);
        assert_eq!(r.counter("requests").get(), 3);
    }

    #[test]
    fn label_sets_are_distinct_instruments_in_one_family() {
        let r = Registry::new();
        r.counter_with("hits", &[("route", "/a")]).inc();
        r.counter_with("hits", &[("route", "/b")]).add(2);
        assert_eq!(r.counter_with("hits", &[("route", "/a")]).get(), 1);
        assert_eq!(r.counter_with("hits", &[("route", "/b")]).get(), 2);
        let text = r.snapshot().to_prometheus_text();
        assert_eq!(
            text.matches("# TYPE hits counter").count(),
            1,
            "one TYPE header per family"
        );
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("x");
        let _ = r.gauge("x");
    }

    #[test]
    fn prometheus_text_has_cumulative_buckets() {
        let r = Registry::new();
        r.counter("hits").add(3);
        r.gauge("depth").set(-2);
        let h = r.histogram("lat", &[10, 100]);
        h.observe(5);
        h.observe(50);
        h.observe(5_000);
        let text = r.snapshot().to_prometheus_text();
        assert!(text.contains("# TYPE hits counter\nhits 3"));
        assert!(text.contains("# TYPE depth gauge\ndepth -2"));
        assert!(text.contains("lat_bucket{le=\"10\"} 1"));
        assert!(text.contains("lat_bucket{le=\"100\"} 2"));
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("lat_sum 5055"));
        assert!(text.contains("lat_count 3"));
    }

    #[test]
    fn label_value_escaping_is_pinned_byte_exact() {
        let r = Registry::new();
        r.counter_with("odd", &[("path", "a\\b\"c\nd")]).add(7);
        r.gauge_with("level", &[("zone", "eu-west"), ("tier", "\"hot\"")])
            .set(3);
        let h = r.histogram_with("lat", &[("op", "score\\")], &[10]);
        h.observe(4);
        h.observe_with_exemplar(99, 0xabc);
        assert_eq!(
            r.snapshot().to_prometheus_text(),
            "# TYPE lat histogram\n\
             lat_bucket{op=\"score\\\\\",le=\"10\"} 1\n\
             lat_bucket{op=\"score\\\\\",le=\"+Inf\"} 2 # {trace_id=\"0000000000000abc\"} 99\n\
             lat_sum{op=\"score\\\\\"} 103\n\
             lat_count{op=\"score\\\\\"} 2\n\
             # TYPE level gauge\n\
             level{zone=\"eu-west\",tier=\"\\\"hot\\\"\"} 3\n\
             # TYPE odd counter\n\
             odd{path=\"a\\\\b\\\"c\\nd\"} 7\n"
        );
    }

    #[test]
    fn sanitizes_awkward_names() {
        assert_eq!(sanitize_metric_name("serve/score.p99"), "serve_score_p99");
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
    }
}
