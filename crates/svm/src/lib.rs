//! # svm — a from-scratch Support Vector Machine
//!
//! FRAppE's classifier is an SVM "widely used for binary classification in
//! security and other disciplines", trained with libsvm's default
//! parameters: RBF kernel, `C = 1` (§5.1). The Rust ML ecosystem offers no
//! libsvm equivalent we are permitted to depend on, so this crate implements
//! the whole stack from scratch:
//!
//! * [`kernel`] — linear, polynomial, RBF and sigmoid kernels (libsvm's
//!   catalogue), with libsvm's `gamma = 1/num_features` default.
//! * [`smo`] — the Sequential Minimal Optimization solver for the C-SVC
//!   dual, with maximal-violating-pair working-set selection, an LRU kernel
//!   row cache, and libsvm's two-variable analytic subproblem update.
//! * [`model`] — the trained model: support vectors, dual coefficients and
//!   the bias term, with decision values and sign prediction.
//! * [`simd`] — runtime-dispatched scoring primitives: AVX2 intrinsics
//!   with a bit-identical unrolled-scalar fallback, plus a deterministic
//!   vectorizable exponential. One arithmetic: `FRAPPE_SIMD` picks the
//!   instructions, never the results, so training and scoring produce the
//!   same bits under every setting.
//! * [`packed`] — the model flattened into contiguous lane-transposed
//!   arrays; all scoring runs here, including a fused single-dot-product
//!   path for linear kernels.
//! * [`scale`] — per-feature min–max scaling to `[-1, 1]` (what `svm-scale`
//!   does; essential for RBF kernels over mixed-unit features).
//! * [`dataset`] — labelled datasets, class-ratio subsampling (the paper's
//!   1:1 / 4:1 / 7:1 / 10:1 benign-to-malicious sweeps) and shuffling.
//! * [`crossval`] — stratified k-fold cross-validation (the paper uses
//!   5-fold throughout); folds run in parallel on a `frappe-jobs` pool
//!   with bit-identical results at any thread count.
//! * [`metrics`] — confusion matrices and the three metrics the paper
//!   reports: accuracy, false-positive rate and false-negative rate.
//! * [`grid`] — grid search over `(C, γ)` for the ablation benches,
//!   parallel over the flattened points × folds task list.
//!
//! ## Quick example
//!
//! ```
//! use svm::{Dataset, SvmParams, Kernel, train};
//!
//! // A linearly separable toy problem.
//! let xs = vec![
//!     vec![0.0, 0.0], vec![0.1, 0.2], vec![0.2, 0.1],
//!     vec![1.0, 1.0], vec![0.9, 0.8], vec![0.8, 1.0],
//! ];
//! let ys = vec![-1.0, -1.0, -1.0, 1.0, 1.0, 1.0];
//! let data = Dataset::new(xs, ys).unwrap();
//! let model = train(&data, &SvmParams::with_kernel(Kernel::linear()));
//! assert_eq!(model.predict(&[0.05, 0.1]), -1.0);
//! assert_eq!(model.predict(&[0.95, 0.9]), 1.0);
//! ```

// Unsafe code is denied crate-wide and allowed back in exactly one place:
// the `simd` module's AVX2 intrinsics, each behind runtime ISA detection
// with a bit-identical safe scalar fallback.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod crossval;
pub mod dataset;
pub mod grid;
pub mod kernel;
pub mod metrics;
pub mod model;
pub mod packed;
pub mod scale;
pub mod simd;
pub mod smo;

pub use crossval::{cross_validate, cross_validate_on, CrossValReport};
pub use dataset::Dataset;
pub use grid::{grid_search, grid_search_on, GridPoint, GridSearchResult};
pub use kernel::Kernel;
pub use metrics::ConfusionMatrix;
pub use model::SvmModel;
pub use packed::PackedModel;
pub use scale::Scaler;
pub use simd::Engine;
pub use smo::{train, CacheStats, SvmParams};
