//! Kernel functions — libsvm's catalogue.
//!
//! The paper uses "the default parameter values in libsvm such as radial
//! basis function as kernel with degree 3, coef0 = 0 and C = 1" (§5.1).
//! libsvm's default `gamma` is `1 / num_features`, which
//! [`Kernel::rbf_default_gamma`] reproduces.

use serde::{Deserialize, Serialize};

use crate::simd;

/// A kernel function `K(x, y)` over dense feature vectors.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Kernel {
    /// `K(x,y) = xᵀy`
    Linear,
    /// `K(x,y) = (γ·xᵀy + coef0)^degree`
    Polynomial {
        /// Polynomial degree (libsvm default 3).
        degree: u32,
        /// Scale on the inner product.
        gamma: f64,
        /// Additive constant (libsvm default 0).
        coef0: f64,
    },
    /// `K(x,y) = exp(−γ‖x−y‖²)` — the paper's kernel.
    Rbf {
        /// Width parameter (libsvm default `1/num_features`).
        gamma: f64,
    },
    /// `K(x,y) = tanh(γ·xᵀy + coef0)`
    Sigmoid {
        /// Scale on the inner product.
        gamma: f64,
        /// Additive constant.
        coef0: f64,
    },
}

impl Kernel {
    /// Linear kernel.
    pub const fn linear() -> Kernel {
        Kernel::Linear
    }

    /// RBF kernel with explicit `gamma`.
    pub const fn rbf(gamma: f64) -> Kernel {
        Kernel::Rbf { gamma }
    }

    /// RBF kernel with libsvm's default `gamma = 1/num_features`.
    pub fn rbf_default_gamma(num_features: usize) -> Kernel {
        assert!(num_features > 0, "need at least one feature");
        Kernel::Rbf {
            gamma: 1.0 / num_features as f64,
        }
    }

    /// Polynomial kernel with libsvm defaults (`degree 3`, `coef0 0`) and
    /// the given `gamma`.
    pub const fn poly(gamma: f64) -> Kernel {
        Kernel::Polynomial {
            degree: 3,
            gamma,
            coef0: 0.0,
        }
    }

    /// Evaluates `K(x, y)` on the [`simd`] primitives: the one arithmetic
    /// shared with the packed scorer and the SMO solver's kernel rows.
    ///
    /// # Panics
    /// Panics (release builds included) if `x` and `y` have different
    /// lengths, instead of zip-truncating the longer one.
    pub fn compute(&self, x: &[f64], y: &[f64]) -> f64 {
        match *self {
            Kernel::Linear => simd::dot(x, y),
            Kernel::Polynomial {
                degree,
                gamma,
                coef0,
            } => (gamma * simd::dot(x, y) + coef0).powi(degree as i32),
            Kernel::Rbf { gamma } => simd::exp(simd::squared_distance(x, y) * -gamma),
            Kernel::Sigmoid { gamma, coef0 } => (gamma * simd::dot(x, y) + coef0).tanh(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn linear_is_dot_product() {
        assert_eq!(Kernel::linear().compute(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn rbf_identity_is_one() {
        let k = Kernel::rbf(0.5);
        let x = [1.0, -2.0, 3.5];
        assert!((k.compute(&x, &x) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn rbf_decays_with_distance() {
        let k = Kernel::rbf(1.0);
        let near = k.compute(&[0.0, 0.0], &[0.1, 0.0]);
        let far = k.compute(&[0.0, 0.0], &[2.0, 0.0]);
        assert!(near > far);
        assert!(far > 0.0);
    }

    #[test]
    fn default_gamma_matches_libsvm() {
        if let Kernel::Rbf { gamma } = Kernel::rbf_default_gamma(8) {
            assert_eq!(gamma, 0.125);
        } else {
            panic!("expected RBF");
        }
    }

    #[test]
    fn polynomial_known_value() {
        // (0.5 * 4 + 1)^2 = 9
        let k = Kernel::Polynomial {
            degree: 2,
            gamma: 0.5,
            coef0: 1.0,
        };
        assert!((k.compute(&[2.0], &[2.0]) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn sigmoid_bounded() {
        let k = Kernel::Sigmoid {
            gamma: 1.0,
            coef0: 0.0,
        };
        let v = k.compute(&[100.0], &[100.0]);
        assert!((-1.0..=1.0).contains(&v));
    }

    fn vec3() -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec(-5.0f64..5.0, 3)
    }

    proptest! {
        #[test]
        fn kernels_are_symmetric(x in vec3(), y in vec3(), gamma in 0.01f64..2.0) {
            for k in [
                Kernel::linear(),
                Kernel::rbf(gamma),
                Kernel::poly(gamma),
                Kernel::Sigmoid { gamma, coef0: 0.0 },
            ] {
                let xy = k.compute(&x, &y);
                let yx = k.compute(&y, &x);
                prop_assert!((xy - yx).abs() < 1e-12);
            }
        }

        #[test]
        fn rbf_in_unit_interval(x in vec3(), y in vec3(), gamma in 0.01f64..2.0) {
            let v = Kernel::rbf(gamma).compute(&x, &y);
            prop_assert!((0.0..=1.0).contains(&v));
        }

        #[test]
        fn rbf_cauchy_schwarz(x in vec3(), y in vec3(), gamma in 0.01f64..2.0) {
            // For a PSD kernel, K(x,y)^2 <= K(x,x) * K(y,y).
            let k = Kernel::rbf(gamma);
            let kxy = k.compute(&x, &y);
            let kxx = k.compute(&x, &x);
            let kyy = k.compute(&y, &y);
            prop_assert!(kxy * kxy <= kxx * kyy + 1e-12);
        }
    }
}
