//! The scoring engine label shown in banners and bench headers.
//!
//! Every verdict is an exact kernel sum on the packed engine, evaluated by
//! the one four-lane scalar arithmetic of [`svm::simd`]. There is nothing
//! to select at runtime, so the label is a constant.

/// Banner label: `exact+scalar-4lane/deterministic`.
pub fn describe() -> String {
    "exact+scalar-4lane/deterministic".to_string()
}

#[cfg(test)]
mod tests {
    #[test]
    fn describe_names_the_exact_engine() {
        assert_eq!(super::describe(), "exact+scalar-4lane/deterministic");
    }
}
