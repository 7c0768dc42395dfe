//! Scoring arithmetic suite: the properties that keep every trained and
//! served bit fixed.
//!
//! * The packed engine computes the textbook decision function
//!   `Σᵢ coefᵢ·K(svᵢ, x) − ρ` for every kernel and every ragged shape
//!   (within floating-point tolerance: it sums in lane order).
//! * The one arithmetic is pinned: a digest over the scalar primitives
//!   (`dot`, `squared_distance`, `exp`) and over packed decisions at
//!   ragged shapes must land on recorded constants. Any change to the
//!   4-lane accumulation order, the reduction tree or the Cody–Waite
//!   `exp` moves it.
//! * A trained model's bits are pinned: SMO evaluates its kernel on the
//!   same primitives, so `rho`, the dual coefficients and every decision
//!   value must land on recorded constants.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use svm::simd;
use svm::{train, Dataset, Kernel, PackedModel, SvmParams};

/// Paper-shaped, noisily-separable data at an arbitrary dimension.
fn synth(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut xs = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    for i in 0..n {
        let malicious = i % 2 == 0;
        let centre = if malicious { 1.0 } else { -1.0 };
        xs.push(
            (0..dim)
                .map(|_| centre + rng.gen::<f64>() * 1.5 - 0.75)
                .collect::<Vec<f64>>(),
        );
        ys.push(if malicious { 1.0 } else { -1.0 });
    }
    Dataset::new(xs, ys).expect("generated data is valid")
}

/// A random packed-model shape: `n_sv` support vectors of dimension `dim`,
/// their dual coefficients and one query.
fn ragged(rng: &mut SmallRng, n_sv: usize, dim: usize) -> (Vec<Vec<f64>>, Vec<f64>, Vec<f64>) {
    let svs: Vec<Vec<f64>> = (0..n_sv)
        .map(|_| (0..dim).map(|_| rng.gen::<f64>() * 4.0 - 2.0).collect())
        .collect();
    let coefs: Vec<f64> = (0..n_sv).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
    let x: Vec<f64> = (0..dim).map(|_| rng.gen::<f64>() * 4.0 - 2.0).collect();
    (svs, coefs, x)
}

/// The four kernels the packed engine scores, at libsvm's default gamma.
fn kernels(dim: usize) -> [Kernel; 4] {
    let gamma = 1.0 / dim as f64;
    [
        Kernel::Linear,
        Kernel::Rbf { gamma },
        Kernel::Polynomial {
            degree: 3,
            gamma,
            coef0: 0.0,
        },
        Kernel::Sigmoid { gamma, coef0: 0.0 },
    ]
}

proptest! {
    /// Packed decision values equal the naive per-support-vector kernel
    /// sum for every kernel, including ragged support-vector counts that
    /// leave partial lane blocks.
    #[test]
    fn packed_decision_values_match_the_naive_kernel_sum(
        seed in 0u64..1_000_000,
        n_sv in 1usize..=23,
        dim in 1usize..=24,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (svs, coefs, x) = ragged(&mut rng, n_sv, dim);
        for kernel in kernels(dim) {
            let packed = PackedModel::pack(kernel, &svs, &coefs, 0.25);
            let terms: Vec<f64> = svs
                .iter()
                .zip(&coefs)
                .map(|(sv, &c)| c * kernel.compute(sv, &x))
                .collect();
            let naive = terms.iter().sum::<f64>() - 0.25;
            let scale = 1.0 + terms.iter().map(|t| t.abs()).sum::<f64>();
            let got = packed.decision_value(&x);
            prop_assert!(
                (got - naive).abs() <= 1e-12 * scale,
                "kernel {:?}: packed {} vs naive {}", kernel, got, naive
            );
        }
    }
}

/// The fused linear path folds the support-vector expansion into one
/// weight vector: its decision must equal `dot(w, x) − rho` bit-for-bit.
#[test]
fn fused_linear_decision_is_one_dot_product() {
    let data = synth(200, 9, 44);
    let model = train(&data, &SvmParams::with_kernel(Kernel::linear()));
    let packed = model.packed();
    let w = packed.fused_weights().expect("linear models fold weights");
    assert_eq!(w.len(), 9);
    for q in synth(64, 9, 8).features() {
        let direct = simd::dot(w, q) - packed.rho();
        let through = packed.decision_value(q);
        assert_eq!(direct.to_bits(), through.to_bits());
    }
    // And `linear_weights` (what `explain` reads) is the same vector.
    assert_eq!(model.linear_weights().as_deref(), Some(w));
}

/// Shape errors fail loudly in every build profile: a query of the wrong
/// dimension panics instead of reading garbage lanes.
#[test]
#[should_panic(expected = "feature dimension mismatch")]
fn wrong_length_query_panics() {
    let data = synth(60, 7, 47);
    let model = train(&data, &SvmParams::paper_defaults(7));
    model.decision_value(&[0.0; 6]);
}

/// FNV-1a over the little-endian bytes of each `u64`.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The scoring arithmetic itself is pinned. The primitives digest covers
/// `dot`, `squared_distance` and `exp` at every dimension 1..=40 (every
/// ragged lane tail); the packed digest covers all four kernels at every
/// shape n_sv 1..=23 × dim 1..=24. A change to the lane order, the
/// reduction tree or the exponential moves a digest even where the
/// result stays within tolerance of the naive sum.
#[test]
fn scalar_primitives_and_packed_decisions_are_pinned() {
    let mut rng = SmallRng::seed_from_u64(0x5CA1_A2F0);
    let mut primitives = Vec::new();
    for dim in 1..=40 {
        let x: Vec<f64> = (0..dim).map(|_| rng.gen::<f64>() * 20.0 - 10.0).collect();
        let y: Vec<f64> = (0..dim).map(|_| rng.gen::<f64>() * 20.0 - 10.0).collect();
        let d2 = simd::squared_distance(&x, &y);
        primitives.push(simd::dot(&x, &y).to_bits());
        primitives.push(d2.to_bits());
        primitives.push(simd::exp(-d2 / dim as f64).to_bits());
        primitives.push(simd::exp(rng.gen::<f64>() * 80.0 - 40.0).to_bits());
    }
    let mut decisions = Vec::new();
    for n_sv in 1..=23 {
        for dim in 1..=24 {
            let (svs, coefs, x) = ragged(&mut rng, n_sv, dim);
            for kernel in kernels(dim) {
                let packed = PackedModel::pack(kernel, &svs, &coefs, 0.25);
                decisions.push(packed.decision_value(&x).to_bits());
            }
        }
    }
    assert_eq!(
        (fnv1a(primitives), fnv1a(decisions)),
        (0x621e_f563_0b35_378e, 0xdd6f_7353_6011_947b),
        "(primitives digest, packed digest)"
    );
}

/// The trained model's bits are pinned: SMO evaluates its kernel on the
/// scoring primitives, so any change to their arithmetic would fork
/// `rho`, the dual coefficients and every decision value.
#[test]
fn trained_model_bits_are_pinned() {
    let data = synth(400, 7, 17);
    let model = train(&data, &SvmParams::paper_defaults(7));
    let decisions = data.features().iter().map(|q| model.decision_value(q));
    let digest = fnv1a(
        model
            .dual_coefs()
            .iter()
            .copied()
            .chain(decisions)
            .map(f64::to_bits),
    );
    assert_eq!(model.support_vector_count(), 25);
    assert_eq!(model.rho().to_bits(), 0x3f74_f194_c031_253a);
    assert_eq!(digest, 0x3ebb_c9ed_25f5_9e2f);
}
