//! Latency distributions and the quantile rule.
//!
//! A percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it; with fewer, the tail is a handful of events and its value
//! would not repeat, so it is `None` (`null` in result files).
//!
//! [`Histogram`] keeps a fixed memory footprint however many samples a
//! run records: log-linear buckets, 128 per power of two, so a reported
//! quantile is within 0.8% of the sample it stands for. A run that gets
//! faster records more samples without growing the process.

/// Samples a reported percentile needs beyond it.
pub const MIN_BEYOND: u64 = 10;

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Values up to 2^40 ns (about 18 minutes) are bucketed exactly; larger
/// ones land in the top bucket.
const MAX_BITS: u32 = 40;
const BUCKETS: usize = ((MAX_BITS - SUB_BITS + 1) as usize + 1) * SUB as usize;

/// 1-based nearest rank of quantile `q` among `n` samples, if the rule
/// allows reporting it.
pub fn reportable_rank(n: u64, q: f64) -> Option<u64> {
    if n == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    (n - rank >= MIN_BEYOND).then_some(rank)
}

/// `(q1, median, q3)` as Python's `statistics.quantiles(values, n=4)`
/// computes them (the default "exclusive" method), which is how run-to-run
/// spread is judged. With one value all three are that value.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => None,
        1 => Some((sorted[0], sorted[0], sorted[0])),
        n => {
            let at = |p: f64| {
                // position (n + 1) * p, 1-based, clamped to the data
                let m = (n as f64 + 1.0) * p;
                let j = (m.floor() as usize).clamp(1, n - 1);
                let delta = m - j as f64;
                sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
            };
            Some((at(0.25), at(0.5), at(0.75)))
        }
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Samples per slice when a socket step is cut into slices: enough for a
/// reportable p99.
pub const SLICE: usize = 1000;

/// Quantiles of a run reported as the median over its slices of each
/// slice's quantile. A host stall (a descheduled virtual CPU stops every
/// thread for 10–20 ms) lands in a minority of slices and leaves the
/// median where it was; a change that moves most slices moves it.
#[derive(Debug, Clone, Default)]
pub struct Sliced {
    p50: Vec<f64>,
    p99: Vec<f64>,
}

impl Sliced {
    /// Cuts `ns` (in arrival order) into as many equal consecutive slices
    /// of at least [`SLICE`] samples as fit (one when there are fewer).
    pub fn of_samples(ns: &[u64]) -> Sliced {
        let n = ns.len();
        let k = (n / SLICE).max(1);
        let mut sliced = Sliced::default();
        for i in 0..k {
            let mut slice = Histogram::default();
            for &v in &ns[i * n / k..(i + 1) * n / k] {
                slice.record(v);
            }
            sliced.add(&slice);
        }
        sliced
    }

    /// Adds one slice.
    pub fn add(&mut self, slice: &Histogram) {
        self.p50.extend(slice.quantile_us(0.5));
        self.p99.extend(slice.quantile_us(0.99));
    }

    /// Median over slices of the slice medians, µs.
    pub fn p50_us(&self) -> Option<f64> {
        (!self.p50.is_empty()).then(|| median(&self.p50))
    }

    /// Median over slices of the slice p99s, µs (slices too small for a
    /// p99 do not count).
    pub fn p99_us(&self) -> Option<f64> {
        (!self.p99.is_empty()).then(|| median(&self.p99))
    }
}

/// A log-linear histogram of nanosecond values.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

fn bucket_of(value: u64) -> usize {
    if value < SUB {
        return value as usize;
    }
    let top = 63 - value.leading_zeros();
    if top > MAX_BITS {
        return BUCKETS - 1;
    }
    let shift = top - SUB_BITS;
    let sub = (value >> shift) - SUB;
    ((shift as u64 + 1) * SUB + sub) as usize
}

/// `[lo, hi)` of a bucket.
fn bucket_bounds(bucket: usize) -> (u64, u64) {
    let b = bucket as u64;
    if b < SUB {
        return (b, b + 1);
    }
    let shift = (b / SUB - 1) as u32;
    let sub = b % SUB;
    let lo = (SUB + sub) << shift;
    (lo, lo + (1 << shift))
}

impl Histogram {
    /// Records one value in nanoseconds.
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
        self.min = self.min.min(ns);
        self.max = self.max.max(ns);
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Largest sample, in nanoseconds (0 when empty).
    pub fn max_ns(&self) -> u64 {
        self.max
    }

    /// Quantile `q` in nanoseconds under the quantile rule. The value is
    /// placed inside its bucket by the rank's position among the
    /// bucket's samples, and clamped to the observed range.
    pub fn quantile_ns(&self, q: f64) -> Option<f64> {
        let rank = reportable_rank(self.total, q)?;
        let mut seen = 0u64;
        for (bucket, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if seen + count >= rank {
                let (lo, hi) = bucket_bounds(bucket);
                let within = (rank - seen) as f64 - 0.5;
                let value = lo as f64 + (hi - lo) as f64 * within / count as f64;
                return Some(value.clamp(self.min as f64, self.max as f64));
            }
            seen += count;
        }
        None
    }

    /// Quantile `q` in microseconds under the quantile rule.
    pub fn quantile_us(&self, q: f64) -> Option<f64> {
        self.quantile_ns(q).map(|ns| ns / 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_values_in_order() {
        let mut last = 0;
        for v in (0..5000u64).chain([1 << 20, (1 << 20) + 12345, 1 << 39]) {
            let b = bucket_of(v);
            assert!(b >= last, "bucket order at {v}");
            let (lo, hi) = bucket_bounds(b);
            assert!(lo <= v && v < hi, "{v} outside [{lo}, {hi})");
            last = b;
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn histogram_quantiles_are_within_a_bucket() {
        let mut h = Histogram::default();
        for v in 1..=100_000u64 {
            h.record(v * 10);
        }
        let p50 = h.quantile_ns(0.5).unwrap();
        assert!((p50 - 500_000.0).abs() / 500_000.0 < 0.008, "{p50}");
        let p99 = h.quantile_ns(0.99).unwrap();
        assert!((p99 - 990_000.0).abs() / 990_000.0 < 0.008, "{p99}");
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
    }
}
