//! Classification audit log: structured, explainable verdict records.
//!
//! The paper's "top distinguishing features" table (§5.3) is a static
//! artifact of model inspection; the audit log makes it live. For a
//! linear SVM the decision value decomposes exactly as
//! `f(x) = Σⱼ wⱼ·xⱼ + bias`, so every verdict can carry the per-feature
//! terms that produced it. Non-linear kernels (the paper's default RBF
//! among them) do not decompose this way — producers emit records only
//! when the model is linear.

use std::collections::VecDeque;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// Which pipeline produced a verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AuditSource {
    /// Offline batch classification (`FrappeModel::predict` and friends).
    Batch,
    /// The online serving layer's score path.
    Online,
}

/// One feature's term in a linear decision function.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureContribution {
    /// Canonical feature name. This crate stores whatever the producer
    /// passes; in this workspace producers take it from the feature
    /// catalog (`frappe::catalog`), so names and record order match the
    /// encoder's lane order exactly.
    pub feature: String,
    /// Learned weight for this feature.
    pub weight: f64,
    /// The scaled feature value the weight was applied to.
    pub value: f64,
    /// `weight * value`.
    pub contribution: f64,
}

/// A fully attributed verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditRecord {
    /// Numeric app identifier.
    pub app: u64,
    /// Batch or online origin.
    pub source: AuditSource,
    /// The decision value the verdict reported.
    pub decision_value: f64,
    /// Whether the verdict flagged the app malicious.
    pub malicious: bool,
    /// Kernel-independent offset (`-rho` for an SVM).
    pub bias: f64,
    /// Per-feature terms, in the model's feature order.
    pub contributions: Vec<FeatureContribution>,
    /// Feature-store generation the score was computed against
    /// (online verdicts only).
    pub generation: Option<u64>,
    /// Version of the model that produced the verdict (online verdicts
    /// only) — keeps audit trails attributable across hot swaps.
    #[serde(default)]
    pub model_version: Option<u64>,
}

impl AuditRecord {
    /// `bias + Σ contributions` — reconstructs the decision value.
    pub fn contribution_sum(&self) -> f64 {
        self.bias
            + self
                .contributions
                .iter()
                .map(|c| c.contribution)
                .sum::<f64>()
    }

    /// Whether the contributions explain the reported decision value to
    /// within `tol` (absolute, after scaling by the value's magnitude).
    pub fn is_consistent(&self, tol: f64) -> bool {
        let scale = self.decision_value.abs().max(1.0);
        (self.contribution_sum() - self.decision_value).abs() <= tol * scale
    }

    /// Contributions sorted by descending `|contribution|`, strongest
    /// evidence first.
    pub fn top_contributions(&self) -> Vec<&FeatureContribution> {
        let mut sorted: Vec<&FeatureContribution> = self.contributions.iter().collect();
        sorted.sort_by(|a, b| {
            b.contribution
                .abs()
                .partial_cmp(&a.contribution.abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        sorted
    }
}

/// Bounded, thread-safe sink for [`AuditRecord`]s.
///
/// Keeps the most recent `capacity` records; older ones are dropped so an
/// always-on service cannot grow without bound.
pub struct AuditLog {
    records: Mutex<VecDeque<AuditRecord>>,
    capacity: usize,
}

impl AuditLog {
    /// A log retaining at most `capacity` records (min 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            records: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
        }
    }

    /// Append a record, evicting the oldest if at capacity.
    pub fn record(&self, record: AuditRecord) {
        let mut records = self.records.lock();
        if records.len() == self.capacity {
            records.pop_front();
        }
        records.push_back(record);
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.lock().len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.records.lock().is_empty()
    }

    /// Copy of the retained records, oldest first.
    pub fn snapshot(&self) -> Vec<AuditRecord> {
        self.records.lock().iter().cloned().collect()
    }

    /// Remove and return all retained records, oldest first.
    pub fn drain(&self) -> Vec<AuditRecord> {
        self.records.lock().drain(..).collect()
    }

    /// Render the retained records as JSONL, one record per line.
    pub fn to_jsonl(&self) -> String {
        let records = self.records.lock();
        let mut out = String::new();
        for r in records.iter() {
            out.push_str(&serde_json::to_string(r).expect("audit record serializes"));
            out.push('\n');
        }
        out
    }
}

impl Default for AuditLog {
    /// A log retaining 1024 records.
    fn default() -> Self {
        Self::new(1024)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(app: u64, dv: f64) -> AuditRecord {
        AuditRecord {
            app,
            source: AuditSource::Batch,
            decision_value: dv,
            malicious: dv > 0.0,
            bias: 0.25,
            contributions: vec![
                FeatureContribution {
                    feature: "category".into(),
                    weight: 0.5,
                    value: 1.0,
                    contribution: 0.5,
                },
                FeatureContribution {
                    feature: "wot_score".into(),
                    weight: -2.0,
                    value: 0.5,
                    contribution: -1.0,
                },
            ],
            generation: None,
            model_version: None,
        }
    }

    #[test]
    fn contribution_sum_reconstructs_decision() {
        let r = record(7, -0.25);
        assert!((r.contribution_sum() - (-0.25)).abs() < 1e-12);
        assert!(r.is_consistent(1e-9));
        let mut bad = r.clone();
        bad.decision_value = 3.0;
        assert!(!bad.is_consistent(1e-9));
    }

    #[test]
    fn top_contributions_sorted_by_magnitude() {
        let r = record(7, -0.25);
        let top = r.top_contributions();
        assert_eq!(top[0].feature, "wot_score");
        assert_eq!(top[1].feature, "category");
    }

    #[test]
    fn log_is_a_ring() {
        let log = AuditLog::new(2);
        for app in 0..5 {
            log.record(record(app, 0.1));
        }
        let kept = log.snapshot();
        assert_eq!(kept.len(), 2);
        assert_eq!((kept[0].app, kept[1].app), (3, 4));
        assert_eq!(log.drain().len(), 2);
        assert!(log.is_empty());
    }

    #[test]
    fn jsonl_roundtrips() {
        let log = AuditLog::default();
        log.record(record(42, 1.5));
        let jsonl = log.to_jsonl();
        let line = jsonl.lines().next().expect("one line");
        let parsed: AuditRecord = serde_json::from_str(line).expect("parses back");
        assert_eq!(parsed.app, 42);
        assert_eq!(parsed.source, AuditSource::Batch);
        assert_eq!(parsed.contributions.len(), 2);
    }
}
