//! Shadow evaluation and the promotion gate.
//!
//! A retrained candidate never takes over on cross-validation numbers
//! alone: offline folds are drawn from the *training* distribution, and
//! the whole reason we retrained is that live traffic may have left it
//! (§7's summary-filling forecast). So the candidate first rides along as
//! a **shadow** — it scores the same queries as the incumbent, its
//! verdicts are tallied but never served — until the [`PromotionGate`]
//! is satisfied on live evidence:
//!
//! * enough scored queries to mean anything (`min_scored`),
//! * incumbent/shadow disagreement below a ceiling (a near-identical
//!   model is a safe swap; a wildly different one demands scrutiny),
//! * on queries where ground truth arrives (PageKeeper-style labels),
//!   the shadow's false-positive and false-negative rates may not exceed
//!   the incumbent's by more than a configured margin. FPs are the
//!   paper's explicit worry — "flagging a benign app hurts developers" —
//!   which is why the default FP margin is as tight as the FN margin.
//!
//! The tallies are integer atomics: [`ShadowState`] is the accumulator
//! every scoring thread records into through `&self` (the
//! [`LifecycleManager`](crate::manager::LifecycleManager)'s observer
//! does, on every answered query), and [`ShadowReport`] the frozen view
//! the gate evaluates. Addition is order-free, so a report is the same
//! whatever the interleaving of the queries it counted.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

/// Thresholds a shadow must clear before promotion.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PromotionGate {
    /// Minimum live queries the shadow must have scored.
    pub min_scored: u64,
    /// Maximum fraction of queries where shadow and incumbent disagree.
    pub max_disagreement_rate: f64,
    /// Maximum increase of the labelled false-positive rate over the
    /// incumbent's (absolute, e.g. `0.01` = one point).
    pub max_false_positive_increase: f64,
    /// Maximum increase of the labelled false-negative rate over the
    /// incumbent's (absolute).
    pub max_false_negative_increase: f64,
}

impl Default for PromotionGate {
    fn default() -> Self {
        PromotionGate {
            min_scored: 200,
            max_disagreement_rate: 0.05,
            max_false_positive_increase: 0.01,
            max_false_negative_increase: 0.01,
        }
    }
}

/// What the gate decided, with the reasons it held if it did.
#[derive(Debug, Clone, PartialEq)]
pub struct GateDecision {
    /// Whether the shadow may be promoted.
    pub promote: bool,
    /// Human-readable reasons the gate held (empty when promoting).
    pub holds: Vec<String>,
}

/// Live tally of a shadow run, fed concurrently.
#[derive(Debug, Default)]
pub struct ShadowState {
    version: u64,
    scored: AtomicU64,
    disagreements: AtomicU64,
    labelled_benign: AtomicU64,
    labelled_malicious: AtomicU64,
    incumbent_fp: AtomicU64,
    incumbent_fn: AtomicU64,
    shadow_fp: AtomicU64,
    shadow_fn: AtomicU64,
}

fn bump(counter: &AtomicU64, when: bool) {
    if when {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

impl ShadowState {
    /// Fresh tally for candidate `version`.
    pub fn new(version: u64) -> Self {
        ShadowState {
            version,
            ..ShadowState::default()
        }
    }

    /// Candidate version this tally belongs to.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Records one mirrored query: both verdicts, plus ground truth when
    /// a label has arrived for the app (`None` = unlabelled traffic).
    pub fn record(&self, incumbent: bool, shadow: bool, label: Option<bool>) {
        bump(&self.scored, true);
        bump(&self.disagreements, incumbent != shadow);
        match label {
            Some(true) => {
                bump(&self.labelled_malicious, true);
                bump(&self.incumbent_fn, !incumbent);
                bump(&self.shadow_fn, !shadow);
            }
            Some(false) => {
                bump(&self.labelled_benign, true);
                bump(&self.incumbent_fp, incumbent);
                bump(&self.shadow_fp, shadow);
            }
            None => {}
        }
    }

    /// Frozen view for the gate (and for metrics export).
    pub fn report(&self) -> ShadowReport {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        ShadowReport {
            version: self.version,
            scored: load(&self.scored),
            disagreements: load(&self.disagreements),
            labelled_benign: load(&self.labelled_benign),
            labelled_malicious: load(&self.labelled_malicious),
            incumbent_fp: load(&self.incumbent_fp),
            incumbent_fn: load(&self.incumbent_fn),
            shadow_fp: load(&self.shadow_fp),
            shadow_fn: load(&self.shadow_fn),
        }
    }
}

/// Immutable snapshot of a shadow run's tallies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShadowReport {
    /// Candidate version under evaluation.
    pub version: u64,
    /// Mirrored queries scored by both models.
    pub scored: u64,
    /// Queries where the verdicts differed.
    pub disagreements: u64,
    /// Scored queries whose app carries a benign label.
    pub labelled_benign: u64,
    /// Scored queries whose app carries a malicious label.
    pub labelled_malicious: u64,
    /// Incumbent false positives on labelled-benign queries.
    pub incumbent_fp: u64,
    /// Incumbent false negatives on labelled-malicious queries.
    pub incumbent_fn: u64,
    /// Shadow false positives on labelled-benign queries.
    pub shadow_fp: u64,
    /// Shadow false negatives on labelled-malicious queries.
    pub shadow_fn: u64,
}

fn rate(hits: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

impl ShadowReport {
    /// Fraction of scored queries where the two models disagreed.
    pub fn disagreement_rate(&self) -> f64 {
        rate(self.disagreements, self.scored)
    }

    /// Shadow FP rate minus incumbent FP rate on labelled-benign traffic
    /// (positive = shadow flags more benign apps).
    pub fn false_positive_delta(&self) -> f64 {
        rate(self.shadow_fp, self.labelled_benign) - rate(self.incumbent_fp, self.labelled_benign)
    }

    /// Shadow FN rate minus incumbent FN rate on labelled-malicious
    /// traffic (positive = shadow misses more malicious apps).
    pub fn false_negative_delta(&self) -> f64 {
        rate(self.shadow_fn, self.labelled_malicious)
            - rate(self.incumbent_fn, self.labelled_malicious)
    }
}

impl PromotionGate {
    /// Evaluates a shadow run against the gate.
    pub fn evaluate(&self, report: &ShadowReport) -> GateDecision {
        let mut holds = Vec::new();
        if report.scored < self.min_scored {
            holds.push(format!(
                "only {} of {} required queries scored",
                report.scored, self.min_scored
            ));
        }
        let disagreement = report.disagreement_rate();
        if disagreement > self.max_disagreement_rate {
            holds.push(format!(
                "disagreement rate {:.4} exceeds ceiling {:.4}",
                disagreement, self.max_disagreement_rate
            ));
        }
        let fp_delta = report.false_positive_delta();
        if fp_delta > self.max_false_positive_increase {
            holds.push(format!(
                "false-positive rate up {:.4} (max allowed {:.4})",
                fp_delta, self.max_false_positive_increase
            ));
        }
        let fn_delta = report.false_negative_delta();
        if fn_delta > self.max_false_negative_increase {
            holds.push(format!(
                "false-negative rate up {:.4} (max allowed {:.4})",
                fn_delta, self.max_false_negative_increase
            ));
        }
        GateDecision {
            promote: holds.is_empty(),
            holds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate() -> PromotionGate {
        PromotionGate {
            min_scored: 10,
            ..PromotionGate::default()
        }
    }

    #[test]
    fn agreeing_shadow_with_enough_traffic_passes() {
        let state = ShadowState::new(2);
        for i in 0..20 {
            let malicious = i % 2 == 0;
            state.record(malicious, malicious, Some(malicious));
        }
        let decision = gate().evaluate(&state.report());
        assert!(decision.promote, "held on: {:?}", decision.holds);
    }

    #[test]
    fn too_little_traffic_holds() {
        let state = ShadowState::new(2);
        state.record(true, true, None);
        let decision = gate().evaluate(&state.report());
        assert!(!decision.promote);
        assert_eq!(decision.holds.len(), 1);
        assert!(decision.holds[0].contains("required queries"));
    }

    #[test]
    fn disagreement_over_ceiling_holds() {
        let state = ShadowState::new(2);
        for i in 0..20 {
            // 10% disagreement against a 5% ceiling.
            state.record(false, i % 10 == 0, None);
        }
        let report = state.report();
        assert!((report.disagreement_rate() - 0.10).abs() < 1e-12);
        let decision = gate().evaluate(&report);
        assert!(!decision.promote);
        assert!(decision.holds.iter().any(|h| h.contains("disagreement")));
    }

    #[test]
    fn regressed_error_rates_hold_independently() {
        // Shadow flags 2 of 10 labelled-benign apps the incumbent cleared,
        // and misses 2 of 10 labelled-malicious apps the incumbent caught.
        let state = ShadowState::new(2);
        for i in 0..10 {
            state.record(false, i < 2, Some(false));
            state.record(true, i >= 2, Some(true));
        }
        let report = state.report();
        assert!((report.false_positive_delta() - 0.2).abs() < 1e-12);
        assert!((report.false_negative_delta() - 0.2).abs() < 1e-12);
        let decision = gate().evaluate(&report);
        assert!(!decision.promote);
        assert!(decision.holds.iter().any(|h| h.contains("false-positive")));
        assert!(decision.holds.iter().any(|h| h.contains("false-negative")));
    }

    #[test]
    fn unlabelled_traffic_never_counts_toward_error_deltas() {
        let state = ShadowState::new(2);
        for _ in 0..50 {
            state.record(true, false, None); // disagree, but no labels
        }
        let report = state.report();
        assert_eq!(report.labelled_benign + report.labelled_malicious, 0);
        assert_eq!(report.false_positive_delta(), 0.0);
        assert_eq!(report.false_negative_delta(), 0.0);
    }
}
