//! Seeded traffic: Poisson arrivals, Zipf app picks, the socket window's
//! steps and the ingest pacing.
//!
//! Everything here is a pure function of `--seed` and the window length,
//! computed before the window opens. The generator owns its random
//! stream (splitmix64) rather than borrowing the repository's, so a
//! change to the program cannot change the traffic it is measured with.

/// Offered classify rate of the base step, requests per second.
pub const BASE_RATE: f64 = 500.0;

/// Offered rates of the ladder that follows the base step.
pub const LADDER_RATES: [f64; 5] = [1000.0, 2000.0, 4000.0, 8000.0, 16000.0];

/// Zipf exponent of the classify app picks.
pub const ZIPF_S: f64 = 1.0;

/// splitmix64: tiny, fast, and fully specified, so the traffic for a
/// seed never changes under the benchmark.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream for `seed`, decorrelated from other streams of the same
    /// seed by `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = SplitMix64(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// Sub-stream ids, so each use of the seed draws its own numbers.
const STREAM_ARRIVALS: u64 = 1;
const STREAM_PERMUTATION: u64 = 2;
const STREAM_ZIPF: u64 = 3;
const STREAM_SAMPLE: u64 = 4;

/// Fisher–Yates shuffle of `items` driven by `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// Zipf(`s`) over ranks `0..n`: rank `k` has weight `1 / (k + 1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n > 0` ranks.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// The rank a uniform `u` in `[0, 1)` maps to.
    pub fn rank(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// One rate step of a socket window, as offsets from the window start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// Offered classify rate, requests per second.
    pub rate: f64,
    /// Step start, nanoseconds after the window opens.
    pub start_ns: u64,
    /// Step end (exclusive).
    pub end_ns: u64,
}

/// The socket window for `seconds`: a base step at [`BASE_RATE`] for
/// half of it, then every [`LADDER_RATES`] step for a tenth each.
pub fn window_steps(seconds: u64) -> Vec<Step> {
    let total = seconds * 1_000_000_000;
    let base_end = total / 2;
    let ladder_len = total / 10;
    let mut steps = vec![Step {
        rate: BASE_RATE,
        start_ns: 0,
        end_ns: base_end,
    }];
    for (i, &rate) in LADDER_RATES.iter().enumerate() {
        let start_ns = base_end + i as u64 * ladder_len;
        steps.push(Step {
            rate,
            start_ns,
            end_ns: start_ns + ladder_len,
        });
    }
    steps
}

/// One scheduled classify request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Planned {
    /// When it is due, nanoseconds after the window opens.
    pub due_ns: u64,
    /// The app it asks about.
    pub app: u64,
    /// Index of its step in the window.
    pub step: usize,
}

/// The classify schedule: Poisson arrivals at each step's rate, apps
/// drawn Zipf(1) over a seeded permutation of `population` (the apps
/// tracked after priming, sorted). Identical for every workload that
/// shares the seed, population and steps.
pub fn classify_schedule(seed: u64, population: &[u64], steps: &[Step]) -> Vec<Planned> {
    let mut ranked = population.to_vec();
    shuffle(&mut ranked, &mut SplitMix64::new(seed, STREAM_PERMUTATION));
    let zipf = Zipf::new(ranked.len(), ZIPF_S);
    let mut arrivals = SplitMix64::new(seed, STREAM_ARRIVALS);
    let mut picks = SplitMix64::new(seed, STREAM_ZIPF);
    let mut out = Vec::new();
    for (index, step) in steps.iter().enumerate() {
        let mut t = step.start_ns as f64;
        loop {
            // exponential gap; 1 - u lies in (0, 1], so ln is finite
            t += -(1.0 - arrivals.next_f64()).ln() / step.rate * 1e9;
            if t >= step.end_ns as f64 {
                break;
            }
            out.push(Planned {
                due_ns: t as u64,
                app: ranked[zipf.rank(picks.next_f64())],
                step: index,
            });
        }
    }
    out
}

/// Due times of `batches` ingest posts paced evenly over `window_ns`.
pub fn ingest_due(batches: usize, window_ns: u64) -> Vec<u64> {
    (0..batches as u64)
        .map(|k| k * window_ns / batches.max(1) as u64)
        .collect()
}

/// A seeded sample of `k` distinct items of `items` (all of them when
/// there are fewer), in sampled order.
pub fn sample<T: Copy>(seed: u64, items: &[T], k: usize) -> Vec<T> {
    let mut all = items.to_vec();
    shuffle(&mut all, &mut SplitMix64::new(seed, STREAM_SAMPLE));
    all.truncate(k);
    all
}
