//! Smoke e2e for the `sketchtree-loadgen` harness (the `loadgen-smoke`
//! gate in scripts/check.sh): one short mixed run against an in-process
//! server must produce a schema-valid report with real latency samples
//! for every op kind, pushed standing-query updates with monotone
//! epochs, and a populated batch sweep.

use sketchtree_metrics::json::Json;
use sketchtree_loadgen::{report, schema, RunConfig, Scenario};

#[test]
fn short_mixed_run_produces_a_schema_valid_report() {
    let scenario = Scenario::parse("dblp-steady").expect("known scenario");
    let cfg = RunConfig::smoke(scenario);
    let output = sketchtree_loadgen::run(&cfg).expect("run completes");
    let report = &output.report;

    // The contract the BENCH trajectory depends on.
    if let Err(errs) = schema::validate(report) {
        panic!("smoke report fails schema: {errs:?}");
    }

    // Re-validate through a disk-format round trip, exactly as the gate
    // and cross-PR diff tooling will read it.
    let text = report.render_pretty();
    let parsed = Json::parse(&text).expect("rendered report parses");
    assert!(schema::validate(&parsed).is_ok());

    let num =
        |p: &[&str]| report.get_path(p).and_then(Json::as_f64).unwrap_or_else(|| panic!("{p:?}"));

    // Every op kind in the default mix actually executed, error-free
    // enough to measure, and its histogram is non-empty (p999 and max
    // are only nonzero when samples landed).
    for kind in ["ingest", "count", "expr", "subscribe"] {
        let count = num(&["ops", kind, "count"]);
        let errors = num(&["ops", kind, "errors"]);
        assert!(count >= 1.0, "{kind}: no ops completed");
        assert_eq!(errors, 0.0, "{kind}: {errors} errors");
        assert!(num(&["ops", kind, "latency_us", "max"]) > 0.0, "{kind}: empty histogram");
        let p50 = num(&["ops", kind, "latency_us", "p50"]);
        let p999 = num(&["ops", kind, "latency_us", "p999"]);
        assert!(p50 <= p999, "{kind}: p50 {p50} > p999 {p999}");
    }

    // Standing queries: updates flowed and epochs never went backwards
    // on any subscription (guarded server-side by the broadcast gate).
    assert!(num(&["push", "updates"]) >= 1.0, "no pushed updates");
    assert!(num(&["push", "max_epoch"]) >= 1.0);
    assert_eq!(
        report.get_path(&["push", "epochs_monotone"]).and_then(Json::as_bool),
        Some(true),
        "subscriber saw epochs regress"
    );

    // Ingest volume flowed and the closed-loop sweep produced rows.
    assert!(num(&["ingest", "trees"]) >= 1.0);
    match report.get("batch_sweep") {
        Some(Json::Arr(rows)) => assert!(!rows.is_empty(), "sweep produced no rows"),
        other => panic!("batch_sweep missing or not an array: {other:?}"),
    }

    // The scheduled window completed (hard stop untripped) — otherwise
    // the box is too slow for the smoke preset and the preset should
    // shrink, not the assertion.
    assert_eq!(
        report.get_path(&["completed_all_scheduled"]).and_then(Json::as_bool),
        Some(true),
        "smoke run abandoned scheduled ops"
    );

    // File-name contract the committed BENCH files follow.
    assert_eq!(report::bench_path("dblp-steady"), "BENCH_loadgen_dblp-steady.json");
}
