//! The packed scoring engine: a trained model flattened into lane blocks.
//!
//! [`SvmModel`](crate::SvmModel) stores support vectors the way the solver
//! produces them — `Vec<Vec<f64>>`, one heap allocation per vector, row
//! pointers scattered across the heap. That layout is cache-hostile and
//! un-vectorizable. [`PackedModel`] flattens the whole decision function
//! into three contiguous arrays at pack time:
//!
//! * `data` — the support vectors in the lane-transposed block layout of
//!   [`simd::pack_lanes`]: groups of four vectors interleaved
//!   feature-major, so feature `j` of four vectors sits contiguously.
//!   The last block is zero-padded.
//! * `coefs` — dual coefficients, zero-padded to the same block count
//!   (a zero coefficient contributes exactly `0.0` to every kernel sum).
//! * `linear_w` — for linear kernels only, the primal weight vector
//!   `w = Σ coefᵢ·svᵢ` folded out at pack time, so a linear verdict is a
//!   single dot product and `explain` reads the very same weights.
//!
//! Packing is cached per model behind [`PackedCache`], a
//! serialization-transparent `OnceLock`: the first verdict (or an explicit
//! `warm()`) pays the one-time flatten, every later verdict reuses it, and
//! checkpoint/JSON round-trips simply rebuild it lazily.

use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Error, Serialize, Value};

use crate::kernel::Kernel;
use crate::simd::{self, LANES};

/// A trained model flattened into contiguous lane-blocked arrays.
#[derive(Debug, Clone)]
pub struct PackedModel {
    kernel: Kernel,
    dim: usize,
    n_sv: usize,
    data: Vec<f64>,
    coefs: Vec<f64>,
    rho: f64,
    linear_w: Option<Vec<f64>>,
}

impl PackedModel {
    /// Flattens solver output into the packed layout.
    ///
    /// # Panics
    /// Panics if `support_vectors` and `dual_coefs` lengths differ, or if
    /// the support vectors are not all of one dimension.
    pub fn pack(
        kernel: Kernel,
        support_vectors: &[Vec<f64>],
        dual_coefs: &[f64],
        rho: f64,
    ) -> PackedModel {
        assert_eq!(
            support_vectors.len(),
            dual_coefs.len(),
            "one dual coefficient per support vector"
        );
        let n_sv = support_vectors.len();
        let dim = support_vectors.first().map_or(0, Vec::len);
        let data = simd::pack_lanes(support_vectors, dim);
        let blocks = n_sv.div_ceil(LANES);
        let mut coefs = vec![0.0; blocks * LANES];
        coefs[..n_sv].copy_from_slice(dual_coefs);
        // The primal fold runs in fixed sequential order, not lane order:
        // `explain` and every checkpoint must see the same weight bytes on
        // every machine.
        let linear_w = (kernel == Kernel::Linear).then(|| {
            let mut w = vec![0.0; dim];
            for (sv, &coef) in support_vectors.iter().zip(dual_coefs) {
                for (wj, &xj) in w.iter_mut().zip(sv) {
                    *wj += coef * xj;
                }
            }
            w
        });
        PackedModel {
            kernel,
            dim,
            n_sv,
            data,
            coefs,
            rho,
            linear_w,
        }
    }

    /// The kernel the model was trained with.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Feature dimension (0 for an empty model).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of (real, unpadded) support vectors.
    pub fn support_vector_count(&self) -> usize {
        self.n_sv
    }

    /// The bias term `rho`.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// The folded primal weights (linear kernels only).
    pub fn fused_weights(&self) -> Option<&[f64]> {
        self.linear_w.as_deref()
    }

    /// Decision value `f(x)`.
    ///
    /// # Panics
    /// Panics — in release builds too — if `x.len()` differs from the
    /// model's feature dimension (unless the model has no support vectors,
    /// in which case `f(x) = −rho` for any input).
    pub fn decision_value(&self, x: &[f64]) -> f64 {
        if self.n_sv == 0 {
            return -self.rho;
        }
        assert_eq!(
            x.len(),
            self.dim,
            "feature dimension mismatch: model expects {}, query has {}",
            self.dim,
            x.len()
        );
        match self.kernel {
            Kernel::Linear => {
                let w = self.linear_w.as_deref().expect("linear weights packed");
                simd::dot(w, x) - self.rho
            }
            Kernel::Rbf { gamma } => {
                simd::rbf_sum(&self.data, self.dim, &self.coefs, gamma, x) - self.rho
            }
            Kernel::Polynomial {
                degree,
                gamma,
                coef0,
            } => self.transformed_sum(x, |t| (gamma * t + coef0).powi(degree as i32)) - self.rho,
            Kernel::Sigmoid { gamma, coef0 } => {
                self.transformed_sum(x, |t| (gamma * t + coef0).tanh()) - self.rho
            }
        }
    }

    // Dot-based kernels without a primal form: blocked dot products, then a
    // per-lane transform accumulated in the canonical lane order.
    fn transformed_sum(&self, x: &[f64], f: impl Fn(f64) -> f64) -> f64 {
        let mut dots = vec![0.0; self.coefs.len()];
        simd::dots_into(&self.data, self.dim, x, &mut dots);
        let mut lanes = [0.0; LANES];
        for (i, (&t, &c)) in dots.iter().zip(&self.coefs).enumerate() {
            lanes[i % LANES] += c * f(t);
        }
        simd::reduce_lanes(lanes)
    }
}

/// A lazily packed [`PackedModel`] that is transparent to serde: it
/// serializes as `null`, deserializes as an empty cache, and compares equal
/// to every other cache, so the owning model keeps its plain derives and
/// its serialized form stays a pure function of the mathematical content.
#[derive(Debug, Default, Clone)]
pub struct PackedCache(OnceLock<Arc<PackedModel>>);

impl PackedCache {
    /// The cached packed model, packing on first use.
    pub fn get_or_pack(&self, pack: impl FnOnce() -> PackedModel) -> &Arc<PackedModel> {
        self.0.get_or_init(|| Arc::new(pack()))
    }

    /// Whether the model has been packed yet.
    pub fn is_packed(&self) -> bool {
        self.0.get().is_some()
    }
}

impl PartialEq for PackedCache {
    fn eq(&self, _: &PackedCache) -> bool {
        true // a cache is derived state, never part of model identity
    }
}

impl Serialize for PackedCache {
    fn serialize(&self) -> Value {
        Value::Null
    }
}

impl Deserialize for PackedCache {
    fn deserialize(_: &Value) -> Result<Self, Error> {
        Ok(PackedCache::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn svs() -> (Vec<Vec<f64>>, Vec<f64>) {
        let svs = vec![
            vec![1.0, 0.5, -0.25],
            vec![-1.0, 2.0, 0.75],
            vec![0.5, -0.5, 1.5],
            vec![2.0, 1.0, -1.0],
            vec![-0.75, 0.25, 0.5],
        ];
        let coefs = vec![0.8, -1.0, 0.3, -0.6, 0.5];
        (svs, coefs)
    }

    #[test]
    fn packed_matches_naive_decision_function() {
        let (svs, coefs) = svs();
        for kernel in [
            Kernel::linear(),
            Kernel::rbf(0.3),
            Kernel::poly(0.5),
            Kernel::Sigmoid {
                gamma: 0.25,
                coef0: 0.1,
            },
        ] {
            let packed = PackedModel::pack(kernel, &svs, &coefs, 0.125);
            let x = [0.4, -1.2, 0.9];
            let naive: f64 = svs
                .iter()
                .zip(&coefs)
                .map(|(sv, &c)| c * kernel.compute(sv, &x))
                .sum::<f64>()
                - 0.125;
            let got = packed.decision_value(&x);
            assert!(
                (got - naive).abs() < 1e-9,
                "{kernel:?}: packed {got} vs naive {naive}"
            );
        }
    }

    #[test]
    fn empty_model_scores_minus_rho() {
        let packed = PackedModel::pack(Kernel::rbf(1.0), &[], &[], 0.25);
        assert_eq!(packed.decision_value(&[1.0, 2.0]), -0.25);
    }

    #[test]
    #[should_panic(expected = "feature dimension mismatch")]
    fn wrong_dimension_panics_in_release_too() {
        let (svs, coefs) = svs();
        let packed = PackedModel::pack(Kernel::rbf(0.3), &svs, &coefs, 0.0);
        packed.decision_value(&[1.0, 2.0]);
    }

    #[test]
    fn fused_linear_weights_match_explain_weights() {
        let (svs, coefs) = svs();
        let packed = PackedModel::pack(Kernel::linear(), &svs, &coefs, 0.0);
        let w = packed.fused_weights().expect("linear");
        let mut expect = [0.0; 3];
        for (sv, &c) in svs.iter().zip(&coefs) {
            for (j, &v) in sv.iter().enumerate() {
                expect[j] += c * v;
            }
        }
        assert_eq!(w, &expect[..], "bit-identical fold");
    }
}
