//! The scoring engine label shown in banners and bench headers.
//!
//! Every verdict is an exact kernel sum on the packed engine. Which
//! instruction set evaluates it is fixed once per process by CPU detection
//! plus the `FRAPPE_SIMD` environment variable (see
//! [`svm::simd::active`]); nothing changes it at runtime. Every engine
//! computes the same bits, so the label names the instructions, never a
//! different arithmetic.

/// Banner label: `exact+` plus the engine actually dispatching, e.g.
/// `exact+avx2/deterministic` or `exact+scalar-4lane/deterministic`.
pub fn describe() -> String {
    format!("exact+{}", svm::simd::active().describe())
}

#[cfg(test)]
mod tests {
    #[test]
    fn describe_names_the_exact_engine() {
        let label = super::describe();
        let engine = label.strip_prefix("exact+").expect("always exact");
        assert_eq!(engine, svm::simd::active().describe());
    }
}
