//! The scoring math primitives, in one deterministic arithmetic.
//!
//! Everything the packed scoring engine ([`crate::packed`]) and the SMO
//! solver compute bottoms out in the handful of primitives defined here:
//! dot products, squared distances, an exponential, and two block kernels
//! over the lane-transposed support-vector layout.
//!
//! Each primitive is portable unrolled scalar code with a fixed lane
//! structure: four accumulator lanes, a fixed per-lane operation order,
//! one horizontal-reduction tree ([`reduce_lanes`]), and zero-filled tail
//! lanes for ragged dimensions. Every multiply-add is a rounded multiply
//! then a rounded add, never a fused one. The operation sequence is a pure
//! function of the inputs, so a model trained or scored on one machine
//! has the same bits on every other, and the compiler is free to
//! vectorize the four independent lanes.
//!
//! The libm `exp` is replaced by [`exp`]: a branch-free Cody–Waite
//! range reduction plus polynomial. Unlike libm's, its operation sequence
//! is fixed here, so RBF kernel values do not vary with the platform's
//! math library.

/// Number of `f64` accumulator lanes (one 256-bit register's worth).
pub const LANES: usize = 4;

/// Packs `rows` (each of length `dim`) into the lane-transposed block
/// layout the block primitives consume: rows are grouped four at a time,
/// and within a block element `j` of the four rows sits contiguously, so
/// one block step reads feature `j` of four vectors from one cache line.
/// The last block is zero-padded.
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

/// The horizontal reduction every primitive ends with:
/// `(l0 + l2) + (l1 + l3)`.
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
// (ties-to-even) in round-to-nearest mode, so the quotient n is identical
// everywhere.
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

/// `e^x` with a fixed operation sequence, replacing libm's
/// (platform-varying) `exp` in the RBF kernel. Accuracy is within a couple of ULP of libm;
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
    // exactly this chain.
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
// lane-structured primitives
// ---------------------------------------------------------------------------

/// Dot product `xᵀy`.
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
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
        // Tail lanes beyond the data contribute a 0·0 product, so every
        // lane takes the same number of multiply-adds.
        for (l, a) in acc.iter_mut().enumerate() {
            let i = chunks * LANES + l;
            let (xv, yv) = if i < n { (x[i], y[i]) } else { (0.0, 0.0) };
            *a = muladd(xv, yv, *a);
        }
    }
    reduce_lanes(acc)
}

/// Squared Euclidean distance `‖x−y‖²`.
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn squared_distance(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "squared_distance: length mismatch");
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

/// RBF block kernel over a [`pack_lanes`] matrix:
/// `Σᵢ coefᵢ · exp(−γ‖svᵢ − x‖²)`.
///
/// # Panics
/// Panics unless `coefs.len()` is a multiple of [`LANES`],
/// `packed.len() == coefs.len() * dim` and `x.len() == dim`.
pub fn rbf_sum(packed: &[f64], dim: usize, coefs: &[f64], gamma: f64, x: &[f64]) -> f64 {
    assert_eq!(coefs.len() % LANES, 0, "rbf_sum: unpadded coefficients");
    assert_eq!(packed.len(), coefs.len() * dim, "rbf_sum: packed size");
    assert_eq!(x.len(), dim, "rbf_sum: query dimension");
    let blocks = coefs.len() / LANES;
    // Two interleaved accumulator streams: even blocks land in `sum0`,
    // odd blocks in `sum1`, merged lane-wise at the end. The per-block
    // work (squared distance, exp) is a long dependency chain, and the
    // split keeps two of them in flight.
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

/// Per-row dot products over a [`pack_lanes`] matrix, written to `out`
/// (padded rows produce the dot of the zero vector).
///
/// # Panics
/// Panics unless `out.len()` is a multiple of [`LANES`],
/// `packed.len() == out.len() * dim` and `x.len() == dim`.
pub fn dots_into(packed: &[f64], dim: usize, x: &[f64], out: &mut [f64]) {
    assert_eq!(out.len() % LANES, 0, "dots_into: unpadded output");
    assert_eq!(packed.len(), out.len() * dim, "dots_into: packed size");
    assert_eq!(x.len(), dim, "dots_into: query dimension");
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
        let got = dot(&x, &y);
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
