//! Primitive metric instruments: counters, gauges, and fixed-bucket
//! histograms.
//!
//! Every instrument is a plain bundle of atomics updated with `Relaxed`
//! ordering, so recording on a hot path is a handful of uncontended
//! atomic RMW operations — no locks, no allocation. Snapshots are only
//! approximately consistent across instruments, which is the usual (and
//! acceptable) trade for monitoring data.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

/// Monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter starting at zero.
    pub const fn new() -> Self {
        Self {
            value: AtomicU64::new(0),
        }
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A value that can move in both directions (queue depths, pool sizes).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A gauge starting at zero.
    pub const fn new() -> Self {
        Self {
            value: AtomicI64::new(0),
        }
    }

    /// Overwrite the current value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Add `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Fixed-bucket histogram over `u64` observations (typically microseconds).
///
/// `bounds` are the inclusive upper edges of the finite buckets; one extra
/// overflow bucket catches everything above the last bound. Bucket layout is
/// fixed at construction so recording never allocates.
#[derive(Debug)]
pub struct Histogram {
    bounds: Box<[u64]>,
    buckets: Box<[AtomicU64]>,
    // Per-bucket exemplar slots: the most recent (value, trace id)
    // observed into the bucket via `observe_with_exemplar`. An id of 0
    // means "no exemplar yet".
    exemplar_values: Box<[AtomicU64]>,
    exemplar_ids: Box<[AtomicU64]>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// Build a histogram from strictly ascending finite bucket bounds.
    ///
    /// # Panics
    /// If `bounds` is empty or not strictly ascending.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        let exemplar_values = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        let exemplar_ids = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Self {
            bounds: bounds.into(),
            buckets,
            exemplar_values,
            exemplar_ids,
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// The finite bucket bounds this histogram was built with.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Record one observation.
    pub fn observe(&self, value: u64) {
        self.bucket_for(value);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one observation and attach `trace_id` as the bucket's
    /// exemplar (latest writer wins; an id of 0 records no exemplar).
    /// Lets a scraped histogram answer "show me a real request that
    /// landed in this latency bucket".
    pub fn observe_with_exemplar(&self, value: u64, trace_id: u64) {
        let idx = self.bucket_for(value);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        if trace_id != 0 {
            self.exemplar_values[idx].store(value, Ordering::Relaxed);
            self.exemplar_ids[idx].store(trace_id, Ordering::Relaxed);
        }
    }

    fn bucket_for(&self, value: u64) -> usize {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        idx
    }

    /// Point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let exemplars = self
            .exemplar_ids
            .iter()
            .zip(self.exemplar_values.iter())
            .map(|(id, value)| {
                let trace_id = id.load(Ordering::Relaxed);
                (trace_id != 0).then(|| ExemplarSnapshot {
                    value: value.load(Ordering::Relaxed),
                    trace_id,
                })
            })
            .collect();
        HistogramSnapshot {
            bounds: self.bounds.to_vec(),
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            exemplars,
            sum: self.sum.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// One bucket's exemplar: a real observation and the trace that made it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExemplarSnapshot {
    /// The observed value.
    pub value: u64,
    /// The trace id attached to the observation.
    pub trace_id: u64,
}

/// Serializable copy of a [`Histogram`]'s state.
///
/// `counts` has one more entry than `bounds`: the final slot is the
/// overflow bucket for observations above the last finite bound.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Inclusive upper edges of the finite buckets.
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts (last entry = overflow bucket).
    pub counts: Vec<u64>,
    /// Per-bucket exemplars, aligned with `counts` (`None` for buckets
    /// that never saw an exemplar-carrying observation).
    pub exemplars: Vec<Option<ExemplarSnapshot>>,
    /// Sum of all observed values.
    pub sum: u64,
    /// Total number of observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Mean observed value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing quantile `q` (clamped to
    /// `[0, 1]`).
    ///
    /// Observations that land in the unbounded overflow bucket are
    /// reported as the last *finite* bound — the histogram cannot resolve
    /// beyond its top edge, so it answers with the tightest bound it can
    /// defend instead of extrapolating or refusing. Returns `None` only
    /// when the histogram is empty.
    pub fn quantile_bound(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let i = i.min(self.bounds.len() - 1);
                return Some(self.bounds[i]);
            }
        }
        self.bounds.last().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);

        let g = Gauge::new();
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn histogram_buckets_observations() {
        let h = Histogram::new(&[10, 100, 1_000]);
        for v in [1, 10, 11, 100, 5_000] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.counts, vec![2, 2, 0, 1]);
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 5_122);
        assert!((s.mean() - 1_024.4).abs() < 1e-9);
    }

    #[test]
    fn quantiles_walk_cumulative_counts() {
        let h = Histogram::new(&[10, 100, 1_000]);
        for v in [1, 2, 3, 50, 60, 70, 80, 500, 600, 700] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile_bound(0.0), Some(10));
        assert_eq!(s.quantile_bound(0.3), Some(10));
        assert_eq!(s.quantile_bound(0.5), Some(100));
        assert_eq!(s.quantile_bound(0.9), Some(1_000));
    }

    #[test]
    fn overflow_quantile_reports_last_finite_bound() {
        // regression: quantiles landing in the +Inf bucket used to be
        // unanswerable; they must clamp to the top finite edge instead.
        let h = Histogram::new(&[10, 100]);
        h.observe(5);
        h.observe(99_999);
        let s = h.snapshot();
        assert_eq!(s.quantile_bound(1.0), Some(100));
        assert_eq!(s.quantile_bound(0.5), Some(10));
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let s = Histogram::new(&[10]).snapshot();
        assert_eq!(s.quantile_bound(0.5), None);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_bounds_rejected() {
        let _ = Histogram::new(&[10, 10]);
    }

    #[test]
    fn exemplars_track_latest_per_bucket() {
        let h = Histogram::new(&[10, 100]);
        h.observe(5); // no exemplar
        assert!(h.snapshot().exemplars.iter().all(Option::is_none));

        h.observe_with_exemplar(7, 0x11);
        h.observe_with_exemplar(9, 0x22); // same bucket, latest wins
        h.observe_with_exemplar(5_000, 0x33); // overflow bucket
        let s = h.snapshot();
        assert_eq!(
            s.exemplars[0],
            Some(ExemplarSnapshot {
                value: 9,
                trace_id: 0x22
            })
        );
        assert_eq!(s.exemplars[1], None);
        assert_eq!(
            s.exemplars[2],
            Some(ExemplarSnapshot {
                value: 5_000,
                trace_id: 0x33
            })
        );
        assert_eq!(s.count, 4);
        let roundtrip: HistogramSnapshot =
            serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
        assert_eq!(roundtrip, s);
    }
}
