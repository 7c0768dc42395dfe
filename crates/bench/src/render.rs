//! Small text-rendering helpers shared by the experiments.

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Fraction of `values` at or below `x`.
pub fn cdf_at(values: &[f64], x: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().filter(|&&v| v <= x).count() as f64 / values.len() as f64
}

/// Fraction of `values` strictly above `x`.
pub fn ccdf_at(values: &[f64], x: f64) -> f64 {
    1.0 - cdf_at(values, x)
}

/// Renders a CDF as probe lines over log-spaced x values
/// (`10^lo .. 10^hi`), one line per decade.
pub fn cdf_probe_lines(label: &str, values: &[f64], lo: i32, hi: i32) -> Vec<String> {
    let mut lines = Vec::new();
    for exp in lo..=hi {
        let x = 10f64.powi(exp);
        lines.push(format!(
            "  {label}: P(x <= 1e{exp}) = {}",
            pct(cdf_at(values, x))
        ));
    }
    lines
}

/// The median of a sample (lower median for even counts); 0 on empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    v[(v.len() - 1) / 2]
}

/// `p`-th quantile of an already-sorted latency sample (nearest rank,
/// rounded); 0 on empty.
pub fn quantile_us(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.135), "13.5%");
        assert_eq!(pct(1.0), "100.0%");
    }

    #[test]
    fn cdf_and_ccdf() {
        let v = [1.0, 10.0, 100.0, 1000.0];
        assert_eq!(cdf_at(&v, 10.0), 0.5);
        assert_eq!(ccdf_at(&v, 10.0), 0.5);
        assert_eq!(cdf_at(&[], 5.0), 0.0);
    }

    #[test]
    fn median_lower() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quantiles_pick_sane_points() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile_us(&sorted, 0.0), 1.0);
        assert_eq!(quantile_us(&sorted, 0.5), 501.0);
        assert_eq!(quantile_us(&sorted, 1.0), 1000.0);
        assert_eq!(quantile_us(&[], 0.5), 0.0);
    }

    #[test]
    fn probe_lines_cover_decades() {
        let lines = cdf_probe_lines("clicks", &[50.0, 5000.0], 1, 4);
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("1e1"));
        assert!(lines[3].contains("100.0%"));
    }
}
