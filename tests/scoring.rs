//! Scoring-engine equivalence suite: the properties that make the SIMD
//! engine swap invisible.
//!
//! * The portable 4-lane scalar engine and the AVX2 engine produce
//!   **bit-identical** results — dots, squared distances, full decision
//!   values, every kernel, every ragged tail. This is the property that
//!   lets checkpoint byte-determinism and serve parity hold regardless of
//!   which engine a machine dispatches.
//! * A trained model's bits are pinned: SMO evaluates its kernel on the
//!   active engine, and the pinned digest must come out the same under
//!   every `FRAPPE_SIMD` setting the suite is run with.
//!
//! On a machine without AVX2 both engines resolve to the scalar path and
//! the cross-engine assertions hold trivially — the suite still exercises
//! the lane-mirrored scalar path.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use svm::simd::{self, Engine};
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

proptest! {
    /// Primitive agreement at the acceptance dims {3, 8, 19, 32} plus
    /// every ragged length in between is bit-exact.
    #[test]
    fn dot_and_squared_distance_agree_across_engines(
        seed in 0u64..1_000_000,
        dim in 1usize..40,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let x: Vec<f64> = (0..dim).map(|_| rng.gen::<f64>() * 20.0 - 10.0).collect();
        let y: Vec<f64> = (0..dim).map(|_| rng.gen::<f64>() * 20.0 - 10.0).collect();
        prop_assert_eq!(
            simd::dot_with(Engine::Scalar, &x, &y).to_bits(),
            simd::dot_with(Engine::best(), &x, &y).to_bits()
        );
        prop_assert_eq!(
            simd::squared_distance_with(Engine::Scalar, &x, &y).to_bits(),
            simd::squared_distance_with(Engine::best(), &x, &y).to_bits()
        );
    }

    /// Full packed decision values are bit-identical across engines for
    /// every kernel, including ragged
    /// support-vector counts that leave partial lane blocks.
    #[test]
    fn packed_decision_values_are_bit_identical_across_engines(
        seed in 0u64..1_000_000,
        n_sv in 1usize..23,
        dim in 1usize..24,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let svs: Vec<Vec<f64>> = (0..n_sv)
            .map(|_| (0..dim).map(|_| rng.gen::<f64>() * 4.0 - 2.0).collect())
            .collect();
        let coefs: Vec<f64> = (0..n_sv).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
        let x: Vec<f64> = (0..dim).map(|_| rng.gen::<f64>() * 4.0 - 2.0).collect();
        let gamma = 1.0 / dim as f64;
        for kernel in [
            Kernel::Linear,
            Kernel::Rbf { gamma },
            Kernel::Polynomial { degree: 3, gamma, coef0: 0.0 },
            Kernel::Sigmoid { gamma, coef0: 0.0 },
        ] {
            let packed = PackedModel::pack(kernel, &svs, &coefs, 0.25);
            let a = packed.decision_value_with(Engine::Scalar, &x);
            let b = packed.decision_value_with(Engine::best(), &x);
            prop_assert_eq!(a.to_bits(), b.to_bits(), "kernel {:?}", kernel);
        }
    }
}

/// A trained model's decision surface is bit-identical between the
/// fallback and the best engine at the paper's dimensionality — the
/// exact path serve parity and checkpoints rely on.
#[test]
fn trained_model_decisions_are_engine_independent() {
    for dim in [3usize, 8, 19, 32] {
        let data = synth(160, dim, 42 + dim as u64);
        let model = train(&data, &SvmParams::paper_defaults(dim));
        for q in synth(64, dim, 7).features() {
            let a = model.decision_value_with(Engine::Scalar, q);
            let b = model.decision_value_with(Engine::best(), q);
            assert_eq!(a.to_bits(), b.to_bits(), "dim {dim}");
        }
    }
}

/// The fused linear path folds the support-vector expansion into one
/// weight vector: its decision must equal `dot(w, x) − rho` bit-for-bit,
/// on both engines.
#[test]
fn fused_linear_decision_is_one_dot_product() {
    let data = synth(200, 9, 44);
    let model = train(&data, &SvmParams::with_kernel(Kernel::linear()));
    let packed = model.packed();
    let w = packed.fused_weights().expect("linear models fold weights");
    assert_eq!(w.len(), 9);
    for q in synth(64, 9, 8).features() {
        for engine in [Engine::Scalar, Engine::best()] {
            let direct = simd::dot_with(engine, w, q) - packed.rho();
            let through = packed.decision_value_with(engine, q);
            assert_eq!(direct.to_bits(), through.to_bits());
        }
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

/// The trained model itself is engine-independent: SMO evaluates its
/// kernel on the active engine, so a second arithmetic anywhere would
/// fork `rho`, the dual coefficients and every decision value. The
/// constants pin one training run; the suite runs once per `FRAPPE_SIMD`
/// setting, and every run must land on the same bits.
#[test]
fn trained_model_bits_are_pinned_under_every_engine() {
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
