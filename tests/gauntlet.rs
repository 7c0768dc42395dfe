//! The gauntlet's acceptance criteria in executable form:
//!
//! * all five built-in scenarios pass their declared then-clauses;
//! * a whole run is deterministic — byte-identical canonical-JSON
//!   [`ScenarioReport`]s at `FRAPPE_JOBS=1` and `=8` pool sizes;
//! * the summary-filling scenario demonstrates the full loop: the
//!   attacker escalates, drift fires, the defender retrains, the
//!   shadow gate promotes the candidate, and the final-round error
//!   rates come back within bounds;
//! * every built-in report is pinned by a digest of its canonical JSON,
//!   so a refactor of the serving or lifecycle stack that moves a
//!   single verdict, drift reading or gate decision fails loudly.

use frappe_gauntlet::{builtin_scenarios, run_spec_on, summary_filling, ScenarioReport};
use frappe_jobs::JobPool;

#[test]
fn all_builtin_scenarios_pass() {
    for spec in builtin_scenarios() {
        let report = run_spec_on(&JobPool::with_threads(2), &spec);
        assert!(
            report.outcome.passed,
            "{} failed: {:?}",
            spec.name, report.outcome.failures
        );
        assert_eq!(report.rounds.len(), spec.when.rounds as usize);
    }
}

#[test]
fn reports_are_byte_identical_across_pool_sizes() {
    for spec in builtin_scenarios() {
        let serial = run_spec_on(&JobPool::with_threads(1), &spec);
        let parallel = run_spec_on(&JobPool::with_threads(8), &spec);
        assert_eq!(
            serial.to_canonical_json(),
            parallel.to_canonical_json(),
            "{} must be pool-size invariant",
            spec.name
        );
    }
}

/// FNV-1a-64 over the bytes of a canonical report.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The canonical JSON of each built-in scenario, in `builtin_scenarios`
/// order, digested. Reports are pool-size invariant, so these hold at
/// any `FRAPPE_JOBS`; only a deliberate change to the world, the model
/// or the lifecycle rules should re-pin them.
const PINNED_REPORTS: [(&str, u64); 5] = [
    ("summary_filling", 0xce2f_ae82_e74c_aaac),
    ("name_mimicry", 0x8ca4_918a_8915_f3c7),
    ("piggyback_ring", 0xb23f_d514_05f4_d07f),
    ("fake_like_inflation", 0x5a59_9451_100d_440c),
    ("install_churn", 0x3710_6613_8372_5e0d),
];

#[test]
fn builtin_reports_are_pinned() {
    let digests: Vec<(String, u64)> = builtin_scenarios()
        .iter()
        .map(|spec| {
            let report = run_spec_on(&JobPool::with_threads(2), spec);
            (
                spec.name.clone(),
                fnv1a(report.to_canonical_json().as_bytes()),
            )
        })
        .collect();
    let pinned: Vec<(String, u64)> = PINNED_REPORTS
        .iter()
        .map(|&(name, digest)| (name.to_string(), digest))
        .collect();
    assert_eq!(digests, pinned, "a built-in scenario report moved");
}

#[test]
fn summary_filling_walks_the_full_lifecycle_loop() {
    let spec = summary_filling();
    let report: ScenarioReport = run_spec_on(&JobPool::with_threads(2), &spec);
    assert!(report.outcome.passed, "{:?}", report.outcome.failures);

    // The attacker's escalation blinded the incumbent at some point…
    let worst_fn = report
        .rounds
        .iter()
        .map(|r| r.fn_rate)
        .fold(0.0f64, f64::max);
    assert!(
        worst_fn > 0.35,
        "escalation never hurt the incumbent (worst FN {worst_fn})"
    );
    // …drift fired, a retrain began shadowing, the gate promoted…
    let drift_round = report.first_drift_round.expect("drift must fire");
    let retrain_round = report
        .rounds
        .iter()
        .find(|r| r.retrained)
        .expect("defender must retrain")
        .round;
    let promoted_round = report.promoted_round.expect("gate must promote");
    assert!(drift_round <= retrain_round && retrain_round <= promoted_round);
    let promoted = &report.rounds[promoted_round as usize - 1];
    assert!(promoted.promoted_version.is_some());
    // …and the final round is back within the declared bounds.
    let last = report.rounds.last().unwrap();
    assert!(last.fn_rate <= 0.35, "final FN {}", last.fn_rate);
    assert!(last.fp_rate <= 0.05, "final FP {}", last.fp_rate);
}
