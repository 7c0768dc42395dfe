//! Every workload end to end on the small world with one-second windows:
//! every correctness check must pass.

use frappe_benchmark::workloads::{run, RunConfig, Workload};
use synth_workload::ScenarioConfig;

fn smoke(workload: Workload, traced: bool) {
    let config = RunConfig {
        workload,
        seed: 42,
        seconds: 1,
        traced,
        scenario: ScenarioConfig::small(),
        scenario_name: "small".to_string(),
    };
    let result = run(&config).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    let failed: Vec<_> = result.checks.iter().filter(|c| !c.passed).collect();
    assert!(
        failed.is_empty(),
        "{}: failed checks {failed:?}",
        workload.name()
    );
    assert!(result.correct);
    assert!(result.attempted > 0);
    assert_eq!(result.failed, 0, "{}", workload.name());
    let summary = result.summary_line();
    if traced {
        assert_eq!(
            summary.metrics.len(),
            frappe_benchmark::metrics::PER_LAYER.len()
        );
    } else {
        assert!(summary.metrics.contains_key("setup_s"));
        assert!(summary.metrics.contains_key("classify_p50_us"));
    }
}

#[test]
fn every_workload_passes_its_checks() {
    for workload in Workload::ALL {
        smoke(workload, false);
    }
}

#[test]
fn a_traced_run_reports_every_layer_metric() {
    smoke(Workload::EdgeIngestSwap, true);
    smoke(Workload::CatalogRefresh, true);
}
