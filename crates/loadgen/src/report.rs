//! Builds the `BENCH_loadgen_<scenario>.json` document.
//!
//! The shape is a contract: [`crate::schema::validate`] enforces it, the
//! `loadgen-smoke` gate in scripts/check.sh re-checks every fresh run,
//! and docs/benchmarks.md documents each field.  Keys are emitted in a
//! fixed order (insertion-ordered [`Json`] objects) so committed reports
//! diff cleanly across PRs.

use crate::driver::RunConfig;
use crate::json::Json;
use crate::scenario::OpKind;
use crate::schema;
use sketchtree_metrics::{Counter, Histogram};
use std::sync::Arc;
use std::time::Duration;

/// One row of the closed-loop throughput-vs-batch-size sweep.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Trees per ingest request.
    pub batch: usize,
    /// Sustained ingest throughput at this batch size.
    pub trees_per_sec: f64,
    /// In-loop p99 of one ingest round-trip, µs.
    pub p99_us: u64,
    /// Requests completed inside the sweep window.
    pub batches: u64,
}

/// Everything [`build`] needs from a finished run.
pub struct BuildInput<'a> {
    /// The run's configuration (echoed into `config`).
    pub cfg: &'a RunConfig,
    /// Wall-clock time of the main window including backlog drain.
    pub elapsed: Duration,
    /// Latencies of completed ops, indexed like [`OpKind::ALL`]; each
    /// histogram's count is that kind's completed-op count.
    pub op_latency: &'a [Arc<Histogram>],
    /// Failed ops, indexed like [`OpKind::ALL`].
    pub op_errors: &'a [Arc<Counter>],
    /// Actual-start minus scheduled-start, driver health.
    pub sched_lag: &'a Histogram,
    /// Trees acknowledged across all ingest ops.
    pub trees: u64,
    /// Pattern instances acknowledged across all ingest ops.
    pub patterns: u64,
    /// Ingest-ack-to-push lag samples.
    pub push_lag: &'a Histogram,
    /// Pushed updates received across subscribers.
    pub updates: u64,
    /// Highest epoch observed in any update.
    pub max_epoch: u64,
    /// Whether every subscription saw strictly increasing epochs.
    pub monotone: bool,
    /// Ops scheduled inside the window but never executed (hard stop).
    pub abandoned: u64,
    /// Closed-loop sweep results, possibly empty.
    pub sweep: &'a [SweepRow],
    /// Server-side counters, when reachable.
    pub server_excerpt: Option<Json>,
}

/// File name a scenario's report is committed under, relative to the
/// repo root: `BENCH_loadgen_<scenario>.json`.
pub fn bench_path(scenario_name: &str) -> String {
    format!("BENCH_loadgen_{scenario_name}.json")
}

/// Whole microseconds in `d`, the report's latency unit.
pub(crate) fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Renders a latency histogram as the canonical percentile block, in
/// microseconds: integers for the percentiles and `max`, fractional for
/// `mean`.
///
/// A histogram with no samples has no latency distribution: every field
/// is emitted as `null` (the keys stay present — the schema requires
/// them) instead of a fabricated 0 µs that would read as "instant".
fn latency_block(h: &Histogram) -> Json {
    let us = |d: Option<Duration>| d.map_or(Json::Null, |d| Json::Num(micros(d) as f64));
    let mut b = Json::obj();
    b.set("p50", us(h.quantile(0.50)));
    b.set("p90", us(h.quantile(0.90)));
    b.set("p99", us(h.quantile(0.99)));
    b.set("p999", us(h.quantile(0.999)));
    b.set("max", us(h.max()));
    b.set("mean", h.mean().map_or(Json::Null, |d| Json::Num(d.as_nanos() as f64 / 1e3)));
    b
}

/// Assembles the schema-valid report document.
pub fn build(input: BuildInput<'_>) -> Json {
    let cfg = input.cfg;
    let elapsed_secs = input.elapsed.as_secs_f64().max(1e-9);

    let mut report = Json::obj();
    report.set("schema", Json::Str(schema::SCHEMA_NAME.into()));
    report.set("schema_version", Json::Num(schema::SCHEMA_VERSION));
    report.set("scenario", Json::Str(cfg.scenario.name()));
    report.set("dataset", Json::Str(cfg.scenario.shape.name().into()));
    report.set("arrival", Json::Str(cfg.scenario.arrival.name().into()));
    report.set("elapsed_secs", Json::Num(elapsed_secs));

    let mut config = Json::obj();
    config.set("duration_secs", Json::Num(cfg.duration.as_secs_f64()));
    config.set("target_rate", Json::Num(cfg.rate));
    config.set("threads", Json::Num(cfg.threads as f64));
    config.set("batch", Json::Num(cfg.batch as f64));
    config.set("subscribers", Json::Num(cfg.subscribers as f64));
    config.set("seed", Json::Num(cfg.seed as f64));
    // Durability setting of the spawned server: absent means no WAL, so
    // a WAL run and its baseline never diff empty in `config`.
    if cfg.wal_path.is_some() {
        config.set("wal_fsync_every", Json::Num(f64::from(cfg.wal_fsync_every)));
    }
    config.set(
        "mix",
        Json::Str(format!(
            "ingest={},count={},expr={},subscribe={}",
            cfg.mix.ingest, cfg.mix.count, cfg.mix.expr, cfg.mix.subscribe
        )),
    );
    report.set("config", config);

    let mut ops = Json::obj();
    for (i, kind) in OpKind::ALL.iter().enumerate() {
        let mut block = Json::obj();
        let latency = input.op_latency.get(i).map(Arc::as_ref);
        let count = latency.map_or(0, Histogram::count);
        let errors = input.op_errors.get(i).map_or(0, |c| c.get());
        block.set("count", Json::Num(count as f64));
        block.set("errors", Json::Num(errors as f64));
        block.set("throughput_per_sec", Json::Num(count as f64 / elapsed_secs));
        block.set("latency_us", latency_block(latency.unwrap_or(&Histogram::new())));
        ops.set(kind.name(), block);
    }
    report.set("ops", ops);

    report.set("sched_lag_us", latency_block(input.sched_lag));
    report.set("completed_all_scheduled", Json::Bool(input.abandoned == 0));
    report.set("ops_abandoned", Json::Num(input.abandoned as f64));

    let mut push = Json::obj();
    push.set("updates", Json::Num(input.updates as f64));
    push.set("max_epoch", Json::Num(input.max_epoch as f64));
    push.set("epochs_monotone", Json::Bool(input.monotone));
    push.set("lag_samples", Json::Num(input.push_lag.count() as f64));
    push.set("lag_us", latency_block(input.push_lag));
    report.set("push", push);

    let mut ingest = Json::obj();
    ingest.set("trees", Json::Num(input.trees as f64));
    ingest.set("patterns", Json::Num(input.patterns as f64));
    ingest.set("trees_per_sec", Json::Num(input.trees as f64 / elapsed_secs));
    report.set("ingest", ingest);

    let rows = input
        .sweep
        .iter()
        .map(|r| {
            let mut row = Json::obj();
            row.set("batch", Json::Num(r.batch as f64));
            row.set("trees_per_sec", Json::Num(r.trees_per_sec));
            row.set("p99_us", Json::Num(r.p99_us as f64));
            row.set("batches", Json::Num(r.batches as f64));
            row
        })
        .collect();
    report.set("batch_sweep", Json::Arr(rows));

    if let Some(server) = input.server_excerpt {
        report.set("server", server);
    }
    report
}

/// A schema-complete report built through [`build`] itself, so schema
/// tests break the moment the emitter and validator drift apart.
#[cfg(test)]
pub fn example_for_tests() -> Json {
    let sweep = [SweepRow { batch: 16, trees_per_sec: 1234.5, p99_us: 880, batches: 42 }];
    build_for_tests(&[120, 340, 900, 4_200, 15_000], Duration::from_millis(1500), &sweep)
}

/// A report whose every histogram (each op kind, scheduling lag, push
/// lag) holds the same microsecond samples, with no errors.
#[cfg(test)]
fn build_for_tests(samples_us: &[u64], elapsed: Duration, sweep: &[SweepRow]) -> Json {
    use crate::scenario::Scenario;
    let scenario = Scenario::parse("dblp-steady").expect("known scenario");
    let cfg = RunConfig::smoke(scenario);
    let hist = Arc::new(Histogram::new());
    for &v in samples_us {
        hist.observe_duration(Duration::from_micros(v));
    }
    let hists = vec![hist.clone(); OpKind::ALL.len()];
    let errors: Vec<_> = OpKind::ALL.iter().map(|_| Arc::new(Counter::new())).collect();
    let n = samples_us.len() as u64;
    build(BuildInput {
        cfg: &cfg,
        elapsed,
        op_latency: &hists,
        op_errors: &errors,
        sched_lag: &hist,
        trees: 8 * n,
        patterns: 80 * n,
        push_lag: &hist,
        updates: n,
        max_epoch: n,
        monotone: true,
        abandoned: 0,
        sweep,
        server_excerpt: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_is_schema_valid_and_ordered() {
        let r = example_for_tests();
        assert!(crate::schema::validate(&r).is_ok());
        // The first keys come out in contract order for clean diffs.
        let text = r.render_pretty();
        let schema_pos = text.find("\"schema\"").expect("schema key");
        let scenario_pos = text.find("\"scenario\"").expect("scenario key");
        let ops_pos = text.find("\"ops\"").expect("ops key");
        assert!(schema_pos < scenario_pos && scenario_pos < ops_pos);
    }

    /// A run where some op never executed (zero samples) must emit `null`
    /// percentiles — present for the schema, honest about the absence of
    /// a distribution — and still validate.
    #[test]
    fn zero_sample_histogram_emits_null_and_validates() {
        let r = build_for_tests(&[], Duration::from_millis(100), &[]);
        for field in ["p50", "p99", "p999", "max", "mean"] {
            assert!(
                matches!(r.get_path(&["ops", "ingest", "latency_us", field]), Some(Json::Null)),
                "{field} should be null on an empty histogram"
            );
        }
        assert!(crate::schema::validate(&r).is_ok(), "{:?}", crate::schema::validate(&r));
        // The rendered document survives a parse round-trip with nulls.
        let parsed = Json::parse(&r.render_pretty()).expect("parses");
        assert!(crate::schema::validate(&parsed).is_ok());
    }

    /// One sample: every percentile is that sample, numeric, and the
    /// report validates.
    #[test]
    fn one_sample_histogram_reports_the_sample_and_validates() {
        let r = build_for_tests(&[310], Duration::from_millis(100), &[]);
        for field in ["p50", "p90", "p99", "p999", "max", "mean"] {
            let v = r.get_path(&["ops", "ingest", "latency_us", field]).and_then(Json::as_f64);
            assert_eq!(v, Some(310.0), "single sample defines every {field}");
        }
        assert!(crate::schema::validate(&r).is_ok());
    }

    #[test]
    fn bench_path_matches_contract() {
        assert_eq!(bench_path("dblp-steady"), "BENCH_loadgen_dblp-steady.json");
    }

    #[test]
    fn throughput_uses_elapsed_not_configured_duration() {
        let r = example_for_tests();
        let count = r.get_path(&["ops", "ingest", "count"]).and_then(Json::as_f64).expect("count");
        let thr = r
            .get_path(&["ops", "ingest", "throughput_per_sec"])
            .and_then(Json::as_f64)
            .expect("throughput");
        assert!((thr - count / 1.5).abs() < 1e-6);
    }
}
