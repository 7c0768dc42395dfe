//! Runtime-dispatched SIMD math primitives for batch scoring.
//!
//! Everything the packed scoring engine ([`crate::packed`]) computes bottoms
//! out in the handful of primitives defined here: dot products, squared
//! distances, a vectorizable exponential, and two block kernels over the
//! lane-transposed support-vector layout. Each primitive exists in two
//! engines:
//!
//! * **AVX2** (`x86_64` only, behind runtime ISA detection): explicit
//!   `core::arch` intrinsics, four `f64` lanes per register, with
//!   `maskload` tails so ragged dimensions need no copying.
//! * **Scalar**: a portable unrolled fallback that mirrors the AVX2 lane
//!   structure *exactly* — four accumulator lanes, the same per-lane
//!   operation order, the same horizontal-reduction tree, and zero-filled
//!   masked tail lanes. Both engines perform the identical sequence of
//!   IEEE-754 operations, so their results are **bit-identical**, not
//!   merely close.
//!
//! There is one arithmetic: every multiply-add is a rounded multiply then
//! a rounded add, never a fused one. The engine picks which instructions
//! run, never which results come out, so a model trained or scored on one
//! machine has the same bits on every other.
//!
//! The libm `exp` is replaced by [`exp`]: a branch-free Cody–Waite
//! range reduction plus polynomial that performs the same operation
//! sequence in scalar and 4-wide form. This is what makes the RBF kernel
//! vectorizable at all — with a scalar libm call per support vector the
//! exponential dominates the per-query cost and no amount of distance
//! vectorization reaches the throughput target.
//!
//! Engine selection: [`active`] is fixed once per process from the
//! `FRAPPE_SIMD` environment variable (`0`/`off`/`scalar` forces the
//! fallback) and otherwise auto-detection (AVX2+FMA if the CPU has it).
//! Code that must compare engines side by side — tests, benches — passes an
//! explicit [`Engine`] to the `*_with` variants.

#![allow(unsafe_code)]

use std::sync::OnceLock;

/// Number of `f64` lanes per SIMD register (AVX2: 256 bits / 64 bits).
pub const LANES: usize = 4;

/// Which instruction set evaluates the primitives. Both compute
/// bit-identical results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Portable unrolled scalar code mirroring the AVX2 lane structure.
    Scalar,
    /// AVX2 intrinsics (`x86_64`, when runtime detection finds AVX2 and
    /// FMA). On a CPU without them the entry points run the scalar engine
    /// instead.
    Avx2,
}

impl Engine {
    /// The fastest engine the running CPU supports.
    pub fn best() -> Engine {
        if avx2_available() {
            Engine::Avx2
        } else {
            Engine::Scalar
        }
    }

    /// Human-readable label, used by benches and the serve banner.
    pub fn describe(self) -> &'static str {
        match self {
            Engine::Scalar => "scalar-4lane/deterministic",
            Engine::Avx2 => "avx2/deterministic",
        }
    }
}

/// `true` when the running CPU supports the AVX2+FMA engine.
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// One-word description of the detected ISA, for bench reports.
pub fn detected_isa() -> &'static str {
    if avx2_available() {
        "avx2+fma"
    } else {
        "scalar-only"
    }
}

/// The engine every non-`_with` entry point uses, read once per process
/// from `FRAPPE_SIMD` and the CPU.
pub fn active() -> Engine {
    static ACTIVE: OnceLock<Engine> = OnceLock::new();
    *ACTIVE.get_or_init(|| dispatch_for(std::env::var("FRAPPE_SIMD").ok().as_deref()))
}

/// The engine a `FRAPPE_SIMD` setting selects on this CPU.
fn dispatch_for(setting: Option<&str>) -> Engine {
    match setting {
        Some("0") | Some("off") | Some("scalar") => Engine::Scalar,
        _ => Engine::best(),
    }
}

/// Packs `rows` (each of length `dim`) into the lane-transposed block
/// layout the block primitives consume: rows are grouped four at a time,
/// and within a block element `j` of the four rows sits contiguously, so
/// one 256-bit load fetches feature `j` of four vectors at once. The last
/// block is zero-padded.
///
/// Layout: `data[(block * dim + j) * LANES + lane] = rows[block*LANES + lane][j]`.
///
/// # Panics
/// Panics if any row's length differs from `dim`.
pub fn pack_lanes<R: AsRef<[f64]>>(rows: &[R], dim: usize) -> Vec<f64> {
    let blocks = rows.len().div_ceil(LANES);
    let mut data = vec![0.0; blocks * dim * LANES];
    for (i, row) in rows.iter().enumerate() {
        let row = row.as_ref();
        assert_eq!(row.len(), dim, "packed row length mismatch");
        let (block, lane) = (i / LANES, i % LANES);
        for (j, &v) in row.iter().enumerate() {
            data[(block * dim + j) * LANES + lane] = v;
        }
    }
    data
}

/// The horizontal reduction both engines share: `(l0 + l2) + (l1 + l3)`,
/// the exact tree the AVX2 `extractf128`/`unpackhi` sequence computes.
#[inline]
pub fn reduce_lanes(acc: [f64; LANES]) -> f64 {
    (acc[0] + acc[2]) + (acc[1] + acc[3])
}

#[inline]
fn muladd(a: f64, b: f64, acc: f64) -> f64 {
    acc + a * b
}

// ---------------------------------------------------------------------------
// deterministic exponential
// ---------------------------------------------------------------------------

const LOG2E: f64 = std::f64::consts::LOG2_E;
// Cody–Waite split of ln 2: LN2_HI has zeroed low mantissa bits, so
// `n * LN2_HI` is exact for the |n| ≤ 1075 this reduction produces.
const LN2_HI: f64 = f64::from_bits(0x3FE6_2E42_FEE0_0000);
const LN2_LO: f64 = f64::from_bits(0x3DEA_39EF_3579_3C76);
// 1.5 · 2^52: adding then subtracting rounds to the nearest integer
// (ties-to-even) in round-to-nearest mode — the same trick in both engines
// so the quotient n is identical everywhere.
const ROUND_MAGIC: f64 = 6755399441055744.0;
// 2^52 + 1023: `(n + EXP2_BIAS).to_bits() << 52` builds the bit pattern of
// 2^n for integral n in the normal range.
const EXP2_BIAS: f64 = 4503599627370496.0 + 1023.0;
const EXP_UNDERFLOW: f64 = -708.0;
const EXP_OVERFLOW: f64 = 709.0;
// Taylor coefficients 1/k!; degree 13 leaves the |r| ≤ ln2/2 remainder
// below 10^-17 relative, well under one ULP.
const EXP_COEFFS: [f64; 14] = [
    1.0,
    1.0,
    0.5,
    1.0 / 6.0,
    1.0 / 24.0,
    1.0 / 120.0,
    1.0 / 720.0,
    1.0 / 5040.0,
    1.0 / 40320.0,
    1.0 / 362880.0,
    1.0 / 3628800.0,
    1.0 / 39916800.0,
    1.0 / 479001600.0,
    1.0 / 6227020800.0,
];

/// `e^x` with an operation sequence that exists in identical scalar and
/// 4-wide AVX2 forms, replacing libm's (scalar-only, platform-varying)
/// `exp` in the RBF kernel. Accuracy is within a couple of ULP of libm;
/// inputs below −708 flush to `0.0`, above 709 to `+∞`, NaN propagates.
pub fn exp(x: f64) -> f64 {
    if x < EXP_UNDERFLOW {
        return 0.0;
    }
    if x > EXP_OVERFLOW {
        return f64::INFINITY;
    }
    let t = x * LOG2E;
    let n = (t + ROUND_MAGIC) - ROUND_MAGIC;
    let r = (x - n * LN2_HI) - n * LN2_LO;
    // Estrin tree over the degree-13 Taylor polynomial: 4 dependent
    // levels instead of Horner's 13. The RBF hot loop is latency-bound on
    // exactly this chain, and the AVX2 `exp4` mirrors the tree
    // step-for-step so both engines still produce identical bits.
    // `c0 = c1 = 1` keeps `exp(±0) = 1` exact: every power of r is +0, so
    // each level collapses to its leading pair and `p0 = 1 + 1·(±0) = 1`.
    let step = |a: f64, b: f64, c: f64| muladd(b, c, a);
    let r2 = r * r;
    let r4 = r2 * r2;
    let r8 = r4 * r4;
    let p0 = step(EXP_COEFFS[0], EXP_COEFFS[1], r);
    let p1 = step(EXP_COEFFS[2], EXP_COEFFS[3], r);
    let p2 = step(EXP_COEFFS[4], EXP_COEFFS[5], r);
    let p3 = step(EXP_COEFFS[6], EXP_COEFFS[7], r);
    let p4 = step(EXP_COEFFS[8], EXP_COEFFS[9], r);
    let p5 = step(EXP_COEFFS[10], EXP_COEFFS[11], r);
    let p6 = step(EXP_COEFFS[12], EXP_COEFFS[13], r);
    let q0 = step(p0, p1, r2);
    let q1 = step(p2, p3, r2);
    let q2 = step(p4, p5, r2);
    let s0 = step(q0, q1, r4);
    let s1 = step(q2, p6, r4);
    let p = step(s0, s1, r8);
    let scale = f64::from_bits((n + EXP2_BIAS).to_bits() << 52);
    p * scale
}

// ---------------------------------------------------------------------------
// scalar engine — the unrolled mirror of the AVX2 lane structure
// ---------------------------------------------------------------------------

fn dot_scalar(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len();
    let chunks = n / LANES;
    let mut acc = [0.0f64; LANES];
    for c in 0..chunks {
        let xs = &x[c * LANES..(c + 1) * LANES];
        let ys = &y[c * LANES..(c + 1) * LANES];
        for ((a, &xv), &yv) in acc.iter_mut().zip(xs).zip(ys) {
            *a = muladd(xv, yv, *a);
        }
    }
    if !n.is_multiple_of(LANES) {
        // Mirror the masked tail load: lanes beyond the data contribute a
        // 0·0 product, exactly as `maskload` feeds zeros into the multiply-add.
        for (l, a) in acc.iter_mut().enumerate() {
            let i = chunks * LANES + l;
            let (xv, yv) = if i < n { (x[i], y[i]) } else { (0.0, 0.0) };
            *a = muladd(xv, yv, *a);
        }
    }
    reduce_lanes(acc)
}

fn squared_distance_scalar(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len();
    let chunks = n / LANES;
    let mut acc = [0.0f64; LANES];
    for c in 0..chunks {
        let xs = &x[c * LANES..(c + 1) * LANES];
        let ys = &y[c * LANES..(c + 1) * LANES];
        for ((a, &xv), &yv) in acc.iter_mut().zip(xs).zip(ys) {
            let d = xv - yv;
            *a = muladd(d, d, *a);
        }
    }
    if !n.is_multiple_of(LANES) {
        for (l, a) in acc.iter_mut().enumerate() {
            let i = chunks * LANES + l;
            let d = if i < n { x[i] - y[i] } else { 0.0 };
            *a = muladd(d, d, *a);
        }
    }
    reduce_lanes(acc)
}

fn rbf_sum_scalar(packed: &[f64], dim: usize, coefs: &[f64], gamma: f64, x: &[f64]) -> f64 {
    let blocks = coefs.len() / LANES;
    // Two interleaved accumulator streams: even blocks land in `sum0`,
    // odd blocks in `sum1`, merged lane-wise at the end. The per-block
    // work (squared distance, exp) is a long dependency chain, and the
    // split keeps two of them in flight — the AVX2 engine carries the
    // identical structure so the bits still match.
    let mut sum0 = [0.0f64; LANES];
    let mut sum1 = [0.0f64; LANES];
    for b in 0..blocks {
        let base = b * dim * LANES;
        let mut d2 = [0.0f64; LANES];
        for (j, &xj) in x.iter().enumerate() {
            let svs = &packed[base + j * LANES..base + (j + 1) * LANES];
            for (a, &s) in d2.iter_mut().zip(svs) {
                let d = xj - s;
                *a = muladd(d, d, *a);
            }
        }
        let cs = &coefs[b * LANES..(b + 1) * LANES];
        let sum = if b.is_multiple_of(2) {
            &mut sum0
        } else {
            &mut sum1
        };
        for ((acc, &d2l), &c) in sum.iter_mut().zip(&d2).zip(cs) {
            let e = exp(d2l * -gamma);
            *acc = muladd(c, e, *acc);
        }
    }
    for (a, &b) in sum0.iter_mut().zip(&sum1) {
        *a += b;
    }
    reduce_lanes(sum0)
}

fn dots_into_scalar(packed: &[f64], dim: usize, x: &[f64], out: &mut [f64]) {
    let blocks = out.len() / LANES;
    for b in 0..blocks {
        let base = b * dim * LANES;
        let mut acc = [0.0f64; LANES];
        for (j, &xj) in x.iter().enumerate() {
            let svs = &packed[base + j * LANES..base + (j + 1) * LANES];
            for (a, &s) in acc.iter_mut().zip(svs) {
                *a = muladd(xj, s, *a);
            }
        }
        out[b * LANES..(b + 1) * LANES].copy_from_slice(&acc);
    }
}

// ---------------------------------------------------------------------------
// AVX2 engine
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{
        EXP2_BIAS, EXP_COEFFS, EXP_OVERFLOW, EXP_UNDERFLOW, LANES, LN2_HI, LN2_LO, LOG2E,
        ROUND_MAGIC,
    };
    use core::arch::x86_64::*;

    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn step_mul(acc: __m256d, a: __m256d, b: __m256d) -> __m256d {
        _mm256_add_pd(acc, _mm256_mul_pd(a, b))
    }

    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn hsum(v: __m256d) -> f64 {
        let lo = _mm256_castpd256_pd128(v);
        let hi = _mm256_extractf128_pd::<1>(v);
        let s = _mm_add_pd(lo, hi); // [l0+l2, l1+l3]
        let odd = _mm_unpackhi_pd(s, s); // [l1+l3, l1+l3]
        _mm_cvtsd_f64(_mm_add_sd(s, odd)) // (l0+l2) + (l1+l3)
    }

    // Mask with the first `rem` (1..=3) lanes active, for `maskload` tails.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn tail_mask(rem: usize) -> __m256i {
        let lane = |l: usize| if l < rem { -1i64 } else { 0 };
        _mm256_setr_epi64x(lane(0), lane(1), lane(2), lane(3))
    }

    #[target_feature(enable = "avx2,fma")]
    pub fn dot(x: &[f64], y: &[f64]) -> f64 {
        let n = x.len();
        let chunks = n / LANES;
        let rem = n % LANES;
        let mut acc = _mm256_setzero_pd();
        for c in 0..chunks {
            // SAFETY: `c * LANES + LANES <= n` holds for every chunk.
            let (a, b) = unsafe {
                (
                    _mm256_loadu_pd(x.as_ptr().add(c * LANES)),
                    _mm256_loadu_pd(y.as_ptr().add(c * LANES)),
                )
            };
            acc = step_mul(acc, a, b);
        }
        if rem != 0 {
            let m = tail_mask(rem);
            // SAFETY: the mask only touches the `rem` in-bounds lanes.
            let (a, b) = unsafe {
                (
                    _mm256_maskload_pd(x.as_ptr().add(chunks * LANES), m),
                    _mm256_maskload_pd(y.as_ptr().add(chunks * LANES), m),
                )
            };
            acc = step_mul(acc, a, b);
        }
        hsum(acc)
    }

    #[target_feature(enable = "avx2,fma")]
    pub fn squared_distance(x: &[f64], y: &[f64]) -> f64 {
        let n = x.len();
        let chunks = n / LANES;
        let rem = n % LANES;
        let mut acc = _mm256_setzero_pd();
        for c in 0..chunks {
            // SAFETY: `c * LANES + LANES <= n` holds for every chunk.
            let (a, b) = unsafe {
                (
                    _mm256_loadu_pd(x.as_ptr().add(c * LANES)),
                    _mm256_loadu_pd(y.as_ptr().add(c * LANES)),
                )
            };
            let d = _mm256_sub_pd(a, b);
            acc = step_mul(acc, d, d);
        }
        if rem != 0 {
            let m = tail_mask(rem);
            // SAFETY: the mask only touches the `rem` in-bounds lanes.
            let (a, b) = unsafe {
                (
                    _mm256_maskload_pd(x.as_ptr().add(chunks * LANES), m),
                    _mm256_maskload_pd(y.as_ptr().add(chunks * LANES), m),
                )
            };
            let d = _mm256_sub_pd(a, b);
            acc = step_mul(acc, d, d);
        }
        hsum(acc)
    }

    /// 4-wide mirror of [`super::exp`] — same constants, same operation
    /// order, lane-parallel.
    #[target_feature(enable = "avx2,fma")]
    pub fn exp4(x: __m256d) -> __m256d {
        let under = _mm256_cmp_pd::<_CMP_LT_OQ>(x, _mm256_set1_pd(EXP_UNDERFLOW));
        let over = _mm256_cmp_pd::<_CMP_GT_OQ>(x, _mm256_set1_pd(EXP_OVERFLOW));
        let magic = _mm256_set1_pd(ROUND_MAGIC);
        let t = _mm256_mul_pd(x, _mm256_set1_pd(LOG2E));
        let n = _mm256_sub_pd(_mm256_add_pd(t, magic), magic);
        let r = _mm256_sub_pd(
            _mm256_sub_pd(x, _mm256_mul_pd(n, _mm256_set1_pd(LN2_HI))),
            _mm256_mul_pd(n, _mm256_set1_pd(LN2_LO)),
        );
        // Same Estrin tree as the scalar `exp`, lane-parallel.
        let c = |k: usize| _mm256_set1_pd(EXP_COEFFS[k]);
        let r2 = _mm256_mul_pd(r, r);
        let r4 = _mm256_mul_pd(r2, r2);
        let r8 = _mm256_mul_pd(r4, r4);
        let p0 = step_mul(c(0), c(1), r);
        let p1 = step_mul(c(2), c(3), r);
        let p2 = step_mul(c(4), c(5), r);
        let p3 = step_mul(c(6), c(7), r);
        let p4 = step_mul(c(8), c(9), r);
        let p5 = step_mul(c(10), c(11), r);
        let p6 = step_mul(c(12), c(13), r);
        let q0 = step_mul(p0, p1, r2);
        let q1 = step_mul(p2, p3, r2);
        let q2 = step_mul(p4, p5, r2);
        let s0 = step_mul(q0, q1, r4);
        let s1 = step_mul(q2, p6, r4);
        let p = step_mul(s0, s1, r8);
        let biased = _mm256_add_pd(n, _mm256_set1_pd(EXP2_BIAS));
        let scale = _mm256_castsi256_pd(_mm256_slli_epi64::<52>(_mm256_castpd_si256(biased)));
        // Out-of-range lanes computed garbage above; the blends overwrite
        // them with the exact values the scalar early-returns produce.
        let out = _mm256_mul_pd(p, scale);
        let out = _mm256_blendv_pd(out, _mm256_setzero_pd(), under);
        _mm256_blendv_pd(out, _mm256_set1_pd(f64::INFINITY), over)
    }

    #[target_feature(enable = "avx2,fma")]
    pub fn rbf_sum(packed: &[f64], dim: usize, coefs: &[f64], gamma: f64, x: &[f64]) -> f64 {
        let blocks = coefs.len() / LANES;
        let neg_gamma = _mm256_set1_pd(-gamma);
        // Mirror of the scalar engine's two interleaved accumulator
        // streams (even blocks → sum0, odd → sum1, lane-wise merge).
        // Blocks are processed four at a time so four distance chains
        // and four inlined `exp4` polynomial trees run interleaved —
        // per-block dataflow (and therefore every bit) is unchanged
        // (sum0 still takes even blocks in increasing order, sum1 odd);
        // only the instruction schedule gains parallelism.
        let mut sum0 = _mm256_setzero_pd();
        let mut sum1 = _mm256_setzero_pd();
        let mut b = 0usize;
        while b + 3 < blocks {
            let stride = dim * LANES;
            let base = b * stride;
            let mut d2 = [_mm256_setzero_pd(); 4];
            for j in 0..dim {
                // SAFETY: callers assert `packed.len() == blocks*dim*LANES`
                // and `x.len() == dim`.
                let xj = unsafe { _mm256_set1_pd(*x.get_unchecked(j)) };
                for (u, acc) in d2.iter_mut().enumerate() {
                    // SAFETY: as above; block `b + u` is in range.
                    let s = unsafe {
                        _mm256_loadu_pd(packed.as_ptr().add(base + u * stride + j * LANES))
                    };
                    let d = _mm256_sub_pd(xj, s);
                    *acc = step_mul(*acc, d, d);
                }
            }
            let e0 = exp4(_mm256_mul_pd(d2[0], neg_gamma));
            let e1 = exp4(_mm256_mul_pd(d2[1], neg_gamma));
            let e2 = exp4(_mm256_mul_pd(d2[2], neg_gamma));
            let e3 = exp4(_mm256_mul_pd(d2[3], neg_gamma));
            // SAFETY: `coefs.len() == blocks * LANES`.
            let c = |u: usize| unsafe { _mm256_loadu_pd(coefs.as_ptr().add((b + u) * LANES)) };
            sum0 = step_mul(sum0, c(0), e0);
            sum1 = step_mul(sum1, c(1), e1);
            sum0 = step_mul(sum0, c(2), e2);
            sum1 = step_mul(sum1, c(3), e3);
            b += 4;
        }
        while b < blocks {
            let base = b * dim * LANES;
            let mut d2 = _mm256_setzero_pd();
            for j in 0..dim {
                // SAFETY: as above.
                let (xj, s) = unsafe {
                    (
                        _mm256_set1_pd(*x.get_unchecked(j)),
                        _mm256_loadu_pd(packed.as_ptr().add(base + j * LANES)),
                    )
                };
                let d = _mm256_sub_pd(xj, s);
                d2 = step_mul(d2, d, d);
            }
            let e = exp4(_mm256_mul_pd(d2, neg_gamma));
            // SAFETY: `coefs.len() == blocks * LANES`.
            let cv = unsafe { _mm256_loadu_pd(coefs.as_ptr().add(b * LANES)) };
            if b.is_multiple_of(2) {
                sum0 = step_mul(sum0, cv, e);
            } else {
                sum1 = step_mul(sum1, cv, e);
            }
            b += 1;
        }
        hsum(_mm256_add_pd(sum0, sum1))
    }

    #[target_feature(enable = "avx2,fma")]
    pub fn dots_into(packed: &[f64], dim: usize, x: &[f64], out: &mut [f64]) {
        let blocks = out.len() / LANES;
        for b in 0..blocks {
            let base = b * dim * LANES;
            let mut acc = _mm256_setzero_pd();
            for j in 0..dim {
                // SAFETY: callers assert the packed/x dimensions.
                let (xj, s) = unsafe {
                    (
                        _mm256_set1_pd(*x.get_unchecked(j)),
                        _mm256_loadu_pd(packed.as_ptr().add(base + j * LANES)),
                    )
                };
                acc = step_mul(acc, xj, s);
            }
            // SAFETY: `out.len() == blocks * LANES`.
            unsafe { _mm256_storeu_pd(out.as_mut_ptr().add(b * LANES), acc) };
        }
    }
}

// ---------------------------------------------------------------------------
// dispatched entry points
// ---------------------------------------------------------------------------

/// Dot product `xᵀy` on the given engine.
///
/// # Panics
/// Panics if the slice lengths differ (release builds included — the AVX2
/// path reads through raw pointers, so this is a safety boundary).
pub fn dot_with(engine: Engine, x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    match engine {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard confirms AVX2+FMA on the running CPU.
        Engine::Avx2 if avx2_available() => unsafe { avx2::dot(x, y) },
        _ => dot_scalar(x, y),
    }
}

/// Dot product on the [`active`] engine.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    dot_with(active(), x, y)
}

/// Squared Euclidean distance `‖x−y‖²` on the given engine.
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn squared_distance_with(engine: Engine, x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "squared_distance: length mismatch");
    match engine {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard confirms AVX2+FMA on the running CPU.
        Engine::Avx2 if avx2_available() => unsafe { avx2::squared_distance(x, y) },
        _ => squared_distance_scalar(x, y),
    }
}

/// Squared Euclidean distance on the [`active`] engine.
pub fn squared_distance(x: &[f64], y: &[f64]) -> f64 {
    squared_distance_with(active(), x, y)
}

/// RBF block kernel over a [`pack_lanes`] matrix:
/// `Σᵢ coefᵢ · exp(−γ‖svᵢ − x‖²)`.
///
/// # Panics
/// Panics unless `coefs.len()` is a multiple of [`LANES`],
/// `packed.len() == coefs.len() * dim` and `x.len() == dim`.
pub fn rbf_sum_with(
    engine: Engine,
    packed: &[f64],
    dim: usize,
    coefs: &[f64],
    gamma: f64,
    x: &[f64],
) -> f64 {
    assert_eq!(coefs.len() % LANES, 0, "rbf_sum: unpadded coefficients");
    assert_eq!(packed.len(), coefs.len() * dim, "rbf_sum: packed size");
    assert_eq!(x.len(), dim, "rbf_sum: query dimension");
    match engine {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard confirms AVX2+FMA on the running CPU, and the
        // asserts above establish the pointer bounds.
        Engine::Avx2 if avx2_available() => unsafe { avx2::rbf_sum(packed, dim, coefs, gamma, x) },
        _ => rbf_sum_scalar(packed, dim, coefs, gamma, x),
    }
}

/// Per-row dot products over a [`pack_lanes`] matrix, written to `out`
/// (padded rows produce the dot of the zero vector).
///
/// # Panics
/// Panics unless `out.len()` is a multiple of [`LANES`],
/// `packed.len() == out.len() * dim` and `x.len() == dim`.
pub fn dots_into_with(engine: Engine, packed: &[f64], dim: usize, x: &[f64], out: &mut [f64]) {
    assert_eq!(out.len() % LANES, 0, "dots_into: unpadded output");
    assert_eq!(packed.len(), out.len() * dim, "dots_into: packed size");
    assert_eq!(x.len(), dim, "dots_into: query dimension");
    match engine {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard confirms AVX2+FMA on the running CPU, and the
        // asserts above establish the pointer bounds.
        Engine::Avx2 if avx2_available() => unsafe { avx2::dots_into(packed, dim, x, out) },
        _ => dots_into_scalar(packed, dim, x, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize, salt: f64) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.37 + salt).sin() * 3.0)
            .collect()
    }

    #[test]
    fn scalar_dot_matches_naive_sum() {
        let x = ramp(19, 0.1);
        let y = ramp(19, 1.7);
        let naive: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        let got = dot_with(Engine::Scalar, &x, &y);
        assert!((got - naive).abs() < 1e-12 * naive.abs().max(1.0));
    }

    #[test]
    fn exp_matches_libm_within_tolerance() {
        let mut worst: f64 = 0.0;
        let mut x: f64 = -30.0;
        while x < 30.0 {
            let got = exp(x);
            let want = x.exp();
            let rel = ((got - want) / want).abs();
            worst = worst.max(rel);
            x += 0.0371;
        }
        assert!(worst < 1e-13, "exp relative error {worst:e}");
    }

    #[test]
    fn exp_edge_cases() {
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        assert_eq!(exp(-1000.0), 0.0);
        assert_eq!(exp(1000.0), f64::INFINITY);
        assert!(exp(f64::NAN).is_nan());
    }

    #[test]
    fn avx2_matches_scalar_bit_for_bit_when_available() {
        if !avx2_available() {
            eprintln!("skipping: no AVX2 on this host");
            return;
        }
        for dim in [1, 3, 4, 7, 8, 19, 32] {
            let x = ramp(dim, 0.3);
            let y = ramp(dim, 2.9);
            assert_eq!(
                dot_with(Engine::Scalar, &x, &y).to_bits(),
                dot_with(Engine::Avx2, &x, &y).to_bits(),
                "dot dim {dim}"
            );
            assert_eq!(
                squared_distance_with(Engine::Scalar, &x, &y).to_bits(),
                squared_distance_with(Engine::Avx2, &x, &y).to_bits(),
                "sqdist dim {dim}"
            );
        }
    }

    #[test]
    fn env_spellings_select_the_documented_dispatch() {
        for off in ["0", "off", "scalar"] {
            assert_eq!(dispatch_for(Some(off)), Engine::Scalar);
        }
        // The retired fused-math spellings select the best engine like any
        // other value: no setting picks a second arithmetic.
        for other in [None, Some("1"), Some("fast"), Some("fma"), Some("fused")] {
            assert_eq!(dispatch_for(other), Engine::best(), "{other:?}");
        }
        assert_eq!(active(), active(), "fixed for the process lifetime");
    }

    #[test]
    fn pack_lanes_layout() {
        let rows = [vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let packed = pack_lanes(&rows, 2);
        // One block of 4 lanes × 2 features; lane 3 zero-padded.
        assert_eq!(
            packed,
            vec![1.0, 3.0, 5.0, 0.0, 2.0, 4.0, 6.0, 0.0],
            "feature-major, lane-minor"
        );
    }
}
