//! Trained SVM models.

use serde::{Deserialize, Serialize};

use crate::kernel::Kernel;
use crate::packed::{PackedCache, PackedModel};
use crate::simd::Engine;

/// A trained C-SVC model.
///
/// The decision function is
///
/// ```text
///   f(x) = Σᵢ coefᵢ · K(svᵢ, x) − rho
/// ```
///
/// where `coefᵢ = yᵢ·αᵢ` are the signed dual coefficients of the support
/// vectors, and the predicted label is `sign(f(x))` (`+1` on ties, which in
/// FRAppE errs on the side of flagging).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SvmModel {
    kernel: Kernel,
    support_vectors: Vec<Vec<f64>>,
    dual_coefs: Vec<f64>,
    rho: f64,
    packed: PackedCache,
}

impl SvmModel {
    /// Assembles a model from solver output.
    ///
    /// # Panics
    /// Panics if `support_vectors` and `dual_coefs` lengths differ, or if
    /// the support vectors do not all share one dimension.
    pub fn new(
        kernel: Kernel,
        support_vectors: Vec<Vec<f64>>,
        dual_coefs: Vec<f64>,
        rho: f64,
    ) -> Self {
        assert_eq!(
            support_vectors.len(),
            dual_coefs.len(),
            "one dual coefficient per support vector"
        );
        let dim = support_vectors.first().map_or(0, Vec::len);
        assert!(
            support_vectors.iter().all(|sv| sv.len() == dim),
            "support vectors must share one dimension"
        );
        SvmModel {
            kernel,
            support_vectors,
            dual_coefs,
            rho,
            packed: PackedCache::default(),
        }
    }

    /// The SIMD-packed form of this model, flattening on first use.
    ///
    /// All scoring goes through this representation; the row-major
    /// `Vec<Vec<f64>>` form is kept as the canonical serialized shape.
    pub fn packed(&self) -> &PackedModel {
        self.packed.get_or_pack(|| {
            PackedModel::pack(
                self.kernel,
                &self.support_vectors,
                &self.dual_coefs,
                self.rho,
            )
        })
    }

    /// Builds the packed representation eagerly, so the first real verdict
    /// doesn't pay the flatten (the serve path calls this on install).
    pub fn warm(&self) {
        let _ = self.packed();
    }

    /// Whether the packed representation is already built.
    pub fn is_warm(&self) -> bool {
        self.packed.is_packed()
    }

    /// The kernel the model was trained with.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Number of support vectors.
    pub fn support_vector_count(&self) -> usize {
        self.support_vectors.len()
    }

    /// The support vectors themselves (row-major, one `Vec` per vector).
    ///
    /// Exposed so model checkpoints can serialize the decision function
    /// exactly; pair each row with the matching entry of
    /// [`dual_coefs`](Self::dual_coefs).
    pub fn support_vectors(&self) -> &[Vec<f64>] {
        &self.support_vectors
    }

    /// Signed dual coefficients (`yᵢ·αᵢ`).
    pub fn dual_coefs(&self) -> &[f64] {
        &self.dual_coefs
    }

    /// The bias term `rho`.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// Primal weight vector `w = Σᵢ coefᵢ·svᵢ`, defined for linear
    /// kernels only (`f(x) = w·x − rho`).
    ///
    /// This is what makes verdicts explainable: each `wⱼ·xⱼ` term is one
    /// feature's contribution to the decision value. Non-linear kernels
    /// have no finite-dimensional `w`, so they return `None`.
    ///
    /// The weights come straight from the packed engine's fused-linear
    /// fold, so `explain` reads the very same bytes a verdict multiplies.
    pub fn linear_weights(&self) -> Option<Vec<f64>> {
        self.packed().fused_weights().map(<[f64]>::to_vec)
    }

    /// Raw decision value `f(x)`; positive means class `+1`.
    ///
    /// Evaluated by the packed SIMD engine on the [`crate::simd::active`]
    /// engine: a single fused dot product for linear kernels, blocked
    /// lane-parallel kernel sums otherwise.
    ///
    /// # Panics
    /// Panics (release builds included) if `x.len()` differs from the
    /// model's feature dimension — a short query used to zip-truncate
    /// silently in release builds.
    pub fn decision_value(&self, x: &[f64]) -> f64 {
        self.packed().decision_value(x)
    }

    /// [`Self::decision_value`] on an explicit engine; used by
    /// tests and benches to compare engines side by side without touching
    /// the process-wide selection.
    pub fn decision_value_with(&self, engine: Engine, x: &[f64]) -> f64 {
        self.packed().decision_value_with(engine, x)
    }

    /// Predicted label: `+1.0` if `f(x) ≥ 0`, else `-1.0`.
    pub fn predict(&self, x: &[f64]) -> f64 {
        if self.decision_value(x) >= 0.0 {
            1.0
        } else {
            -1.0
        }
    }

    /// Predicts a batch of examples.
    pub fn predict_batch<'a, I>(&self, xs: I) -> Vec<f64>
    where
        I: IntoIterator<Item = &'a [f64]>,
    {
        xs.into_iter().map(|x| self.predict(x)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built linear model: f(x) = 1·K(sv1,x) − 1·K(sv2,x) − 0
    /// with sv1 = (1,0), sv2 = (−1,0)  ⇒  f(x) = 2·x₀.
    fn hand_model() -> SvmModel {
        SvmModel::new(
            Kernel::linear(),
            vec![vec![1.0, 0.0], vec![-1.0, 0.0]],
            vec![1.0, -1.0],
            0.0,
        )
    }

    #[test]
    fn decision_value_matches_hand_computation() {
        let m = hand_model();
        assert!((m.decision_value(&[3.0, 5.0]) - 6.0).abs() < 1e-12);
        assert!((m.decision_value(&[-2.0, 1.0]) + 4.0).abs() < 1e-12);
    }

    #[test]
    fn predict_signs() {
        let m = hand_model();
        assert_eq!(m.predict(&[0.5, 0.0]), 1.0);
        assert_eq!(m.predict(&[-0.5, 0.0]), -1.0);
        // tie goes to +1
        assert_eq!(m.predict(&[0.0, 9.0]), 1.0);
    }

    #[test]
    fn rho_shifts_boundary() {
        let m = SvmModel::new(
            Kernel::linear(),
            vec![vec![1.0, 0.0], vec![-1.0, 0.0]],
            vec![1.0, -1.0],
            1.0,
        );
        // f(x) = 2x₀ − 1: boundary at x₀ = 0.5
        assert_eq!(m.predict(&[0.4, 0.0]), -1.0);
        assert_eq!(m.predict(&[0.6, 0.0]), 1.0);
    }

    #[test]
    fn batch_prediction() {
        let m = hand_model();
        let a = [1.0, 0.0];
        let b = [-1.0, 0.0];
        assert_eq!(m.predict_batch([&a[..], &b[..]]), vec![1.0, -1.0]);
    }

    #[test]
    #[should_panic(expected = "one dual coefficient per support vector")]
    fn mismatched_lengths_panic() {
        SvmModel::new(Kernel::linear(), vec![vec![1.0]], vec![], 0.0);
    }

    #[test]
    fn linear_weights_reproduce_decision_value() {
        let m = SvmModel::new(
            Kernel::linear(),
            vec![vec![1.0, 2.0], vec![-0.5, 1.0]],
            vec![0.75, -1.25],
            0.125,
        );
        let w = m.linear_weights().expect("linear model has weights");
        for x in [[0.3, -0.7], [2.0, 4.5], [-1.0, 0.0]] {
            let via_w = w[0] * x[0] + w[1] * x[1] - m.rho();
            assert!((via_w - m.decision_value(&x)).abs() < 1e-12);
        }
    }

    #[test]
    fn nonlinear_kernels_have_no_weights() {
        let m = SvmModel::new(
            Kernel::Rbf { gamma: 0.5 },
            vec![vec![1.0, 0.0]],
            vec![1.0],
            0.0,
        );
        assert!(m.linear_weights().is_none());
    }
}
