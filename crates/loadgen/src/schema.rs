//! Schema validation for `BENCH_loadgen_<scenario>.json` reports.
//!
//! The trajectory only works if every PR emits the *same shape*: a report
//! missing `p999` because a refactor dropped a field would silently break
//! cross-PR diffs.  [`validate`] checks the full contract documented in
//! docs/benchmarks.md and returns **every** violation, not just the
//! first, so a malformed report is diagnosable in one pass.  The
//! `loadgen-smoke` gate in scripts/check.sh runs this over a fresh run's
//! output.

use sketchtree_metrics::json::Json;

/// `schema` field every report must carry.
pub const SCHEMA_NAME: &str = "sketchtree-loadgen-report";
/// Current `schema_version`.
pub const SCHEMA_VERSION: f64 = 1.0;

/// Percentile fields every latency block must provide, in µs.
pub const PERCENTILE_FIELDS: &[&str] = &["p50", "p90", "p99", "p999", "max", "mean"];

/// Fields every per-operation block must provide besides `latency_us`.
const OP_FIELDS: &[&str] = &["count", "errors", "throughput_per_sec"];

/// Validates a parsed report; `Err` carries one message per violation.
pub fn validate(report: &Json) -> Result<(), Vec<String>> {
    let mut errs = Vec::new();
    fn need_num(errs: &mut Vec<String>, report: &Json, path: &[&str]) {
        if report.get_path(path).and_then(Json::as_f64).is_none() {
            errs.push(format!("missing or non-numeric field: {}", path.join(".")));
        }
    }

    match report.get("schema").and_then(Json::as_str) {
        Some(SCHEMA_NAME) => {}
        Some(other) => errs.push(format!("schema is {other:?}, want {SCHEMA_NAME:?}")),
        None => errs.push("missing field: schema".to_string()),
    }
    match report.get("schema_version").and_then(Json::as_f64) {
        Some(v) if v == SCHEMA_VERSION => {}
        Some(v) => errs.push(format!("schema_version is {v}, want {SCHEMA_VERSION}")),
        None => errs.push("missing field: schema_version".to_string()),
    }
    for key in ["scenario", "dataset", "arrival"] {
        match report.get(key).and_then(Json::as_str) {
            Some(s) if !s.is_empty() => {}
            _ => errs.push(format!("missing or empty field: {key}")),
        }
    }
    need_num(&mut errs, report, &["elapsed_secs"]);
    for key in ["duration_secs", "target_rate", "threads", "batch", "subscribers", "seed"] {
        need_num(&mut errs, report, &["config", key]);
    }

    // Per-operation blocks: at least ingest and count must be present
    // (every scenario mixes them in); whatever blocks exist must be
    // complete.
    match report.get("ops") {
        Some(Json::Obj(entries)) => {
            for required in ["ingest", "count"] {
                if !entries.iter().any(|(k, _)| k == required) {
                    errs.push(format!("ops.{required} block missing"));
                }
            }
            for (name, block) in entries {
                for field in OP_FIELDS {
                    if block.get(field).and_then(Json::as_f64).is_none() {
                        errs.push(format!("ops.{name}.{field} missing or non-numeric"));
                    }
                }
                check_latency_block(&mut errs, &format!("ops.{name}"), block.get("latency_us"));
            }
        }
        _ => errs.push("ops object missing".to_string()),
    }

    // Push-lag block for subscribers.
    match report.get("push") {
        Some(push) => {
            for field in ["updates", "max_epoch"] {
                if push.get(field).and_then(Json::as_f64).is_none() {
                    errs.push(format!("push.{field} missing or non-numeric"));
                }
            }
            if push.get("epochs_monotone").and_then(Json::as_bool).is_none() {
                errs.push("push.epochs_monotone missing or non-boolean".to_string());
            }
            check_latency_block(&mut errs, "push", push.get("lag_us"));
        }
        None => errs.push("push object missing".to_string()),
    }

    // Ingest volume + the throughput-vs-batch-size table.
    for key in ["trees", "patterns", "trees_per_sec"] {
        need_num(&mut errs, report, &["ingest", key]);
    }
    match report.get("batch_sweep") {
        Some(Json::Arr(rows)) => {
            for (i, row) in rows.iter().enumerate() {
                for field in ["batch", "trees_per_sec", "p99_us"] {
                    if row.get(field).and_then(Json::as_f64).is_none() {
                        errs.push(format!("batch_sweep[{i}].{field} missing or non-numeric"));
                    }
                }
            }
        }
        Some(_) => errs.push("batch_sweep must be an array".to_string()),
        None => {} // optional: sweeps can be disabled
    }

    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

/// Requires a complete latency/lag block at `ctx`.
///
/// Every percentile key must be *present*; its value may be numeric or
/// `null` (a histogram with no samples has no latency distribution, and
/// the emitter says so explicitly rather than fabricating 0 µs).
fn check_latency_block(errs: &mut Vec<String>, ctx: &str, block: Option<&Json>) {
    let Some(block) = block else {
        errs.push(format!("{ctx}: latency block missing"));
        return;
    };
    for field in PERCENTILE_FIELDS {
        match block.get(field) {
            None => errs.push(format!("{ctx}: percentile field {field} missing")),
            Some(Json::Null) => {}
            Some(v) if v.as_f64().is_some() => {}
            Some(_) => {
                errs.push(format!("{ctx}: percentile field {field} must be numeric or null"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report;

    /// A minimal schema-complete report, built through the same code the
    /// driver uses, so this test breaks when the emitter drifts.
    fn complete_report() -> Json {
        report::example_for_tests()
    }

    #[test]
    fn schema_accepts_a_complete_report() {
        let r = complete_report();
        if let Err(errs) = validate(&r) {
            panic!("complete report rejected: {errs:?}");
        }
    }

    #[test]
    fn schema_survives_a_render_parse_roundtrip() {
        let r = complete_report();
        let parsed = Json::parse(&r.render_pretty()).expect("parses");
        assert!(validate(&parsed).is_ok());
    }

    #[test]
    fn missing_percentile_field_is_rejected() {
        let mut r = complete_report();
        // Drop p999 from ops.ingest.latency_us.
        if let Some(Json::Obj(ops)) = r_get_mut(&mut r, "ops") {
            if let Some((_, block)) = ops.iter_mut().find(|(k, _)| k == "ingest") {
                if let Some(Json::Obj(lat)) = r_get_mut(block, "latency_us") {
                    lat.retain(|(k, _)| k != "p999");
                }
            }
        }
        let errs = validate(&r).expect_err("p999-less report must fail");
        assert!(
            errs.iter().any(|e| e.contains("p999")),
            "no p999 violation in {errs:?}"
        );
    }

    #[test]
    fn missing_ops_block_and_bad_schema_are_rejected() {
        let mut r = complete_report();
        r.set("schema", Json::Str("something-else".into()));
        if let Json::Obj(entries) = &mut r {
            entries.retain(|(k, _)| k != "ops");
        }
        let errs = validate(&r).expect_err("must fail");
        assert!(errs.iter().any(|e| e.contains("schema")));
        assert!(errs.iter().any(|e| e.contains("ops")));
    }

    #[test]
    fn missing_push_block_is_rejected() {
        let mut r = complete_report();
        if let Json::Obj(entries) = &mut r {
            entries.retain(|(k, _)| k != "push");
        }
        let errs = validate(&r).expect_err("must fail");
        assert!(errs.iter().any(|e| e.contains("push")));
    }

    /// Mutable member lookup for test surgery.
    fn r_get_mut<'a>(v: &'a mut Json, key: &str) -> Option<&'a mut Json> {
        match v {
            Json::Obj(entries) => {
                entries.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }
}
