//! Scoring-engine equivalence suite: the properties that make the SIMD
//! engine swap invisible.
//!
//! * In **deterministic** math mode the portable 4-lane scalar engine and
//!   the AVX2 engine produce **bit-identical** results — dots, squared
//!   distances, full decision values, every kernel, every ragged tail.
//!   This is the property that lets checkpoint byte-determinism and serve
//!   parity hold regardless of which engine a machine dispatches.
//! * In **fused** math mode the engines stay within 1 ULP of each other
//!   (both use exactly-rounded FMA in the same lane structure, so in
//!   practice they also match bit-for-bit; the contract is ≤ 1 ULP).
//!
//! On a machine without AVX2 both dispatches resolve to the scalar
//! engine and the cross-engine assertions hold trivially — the suite
//! still exercises the lane-mirrored scalar path.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use svm::simd::{self, Dispatch, MathMode};
use svm::{train, Dataset, Kernel, PackedModel, SvmParams};

/// Absolute ULP distance between two finite f64s.
fn ulp_distance(a: f64, b: f64) -> u64 {
    // Map the sign-magnitude bit patterns onto a monotone integer line.
    fn key(x: f64) -> i64 {
        let bits = x.to_bits() as i64;
        if bits < 0 {
            i64::MIN.wrapping_add(1).wrapping_sub(bits).wrapping_sub(1)
        } else {
            bits
        }
    }
    key(a).abs_diff(key(b))
}

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

/// The four dispatches under comparison: (reference, candidate, mode).
fn engine_pairs() -> [(Dispatch, Dispatch, MathMode); 2] {
    [
        (
            Dispatch::scalar_deterministic(),
            Dispatch::best(MathMode::Deterministic),
            MathMode::Deterministic,
        ),
        (
            Dispatch {
                engine: simd::Engine::Scalar,
                mode: MathMode::Fused,
            },
            Dispatch::best(MathMode::Fused),
            MathMode::Fused,
        ),
    ]
}

proptest! {
    /// Primitive agreement at the acceptance dims {3, 8, 19, 32} plus
    /// every ragged length in between: deterministic mode is bit-exact,
    /// fused mode is within 1 ULP.
    #[test]
    fn dot_and_squared_distance_agree_across_engines(
        seed in 0u64..1_000_000,
        dim in 1usize..40,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let x: Vec<f64> = (0..dim).map(|_| rng.gen::<f64>() * 20.0 - 10.0).collect();
        let y: Vec<f64> = (0..dim).map(|_| rng.gen::<f64>() * 20.0 - 10.0).collect();
        for (reference, candidate, mode) in engine_pairs() {
            let (d0, d1) = (
                simd::dot_with(reference, &x, &y),
                simd::dot_with(candidate, &x, &y),
            );
            let (s0, s1) = (
                simd::squared_distance_with(reference, &x, &y),
                simd::squared_distance_with(candidate, &x, &y),
            );
            match mode {
                MathMode::Deterministic => {
                    prop_assert_eq!(d0.to_bits(), d1.to_bits());
                    prop_assert_eq!(s0.to_bits(), s1.to_bits());
                }
                MathMode::Fused => {
                    prop_assert!(ulp_distance(d0, d1) <= 1, "dot {} vs {}", d0, d1);
                    prop_assert!(ulp_distance(s0, s1) <= 1, "sqdist {} vs {}", s0, s1);
                }
            }
        }
    }

    /// Full packed decision values are bit-identical across engines in
    /// deterministic mode for every kernel, including ragged
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
            let a = packed.decision_value_with(Dispatch::scalar_deterministic(), &x);
            let b = packed.decision_value_with(Dispatch::best(MathMode::Deterministic), &x);
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
            let a = model.decision_value_with(Dispatch::scalar_deterministic(), q);
            let b = model.decision_value_with(Dispatch::best(MathMode::Deterministic), q);
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
        for d in [
            Dispatch::scalar_deterministic(),
            Dispatch::best(MathMode::Deterministic),
        ] {
            let direct = simd::dot_with(d, w, q) - packed.rho();
            let through = packed.decision_value_with(d, q);
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
