//! `sketchtree-loadgen` — macro-benchmark and load harness for the
//! `sketchtree serve` SKTP server.
//!
//! This crate drives a *mixed* workload — ingest batches, ad-hoc
//! `COUNT`/`COUNT_ord` and expression queries, and standing-query
//! subscribe/unsubscribe churn — at a configured arrival rate against a
//! running server (or one it spawns in-process), and reports
//! coordinated-omission-free latency percentiles, throughput, and
//! standing-query push lag as a schema-validated
//! `BENCH_loadgen_<scenario>.json`.
//!
//! Methodology (open vs. closed loop, why latency is measured from the
//! *scheduled* start, how to read push lag) lives in docs/benchmarks.md.
//! The module map:
//!
//! * [`scenario`] — the scenario matrix (dataset shape × arrival
//!   process), op mix, and deterministic workload preparation.
//! * [`driver`] — the open-loop driver itself.
//! * [`report`] / [`schema`] — report emission and the validator the
//!   `loadgen-smoke` gate runs; both work on a
//!   [`sketchtree_metrics::json::Json`] tree.
//!
//! The binary is a thin wrapper over [`run_cli`], which the `sketchtree
//! loadgen` subcommand also calls, so both front-ends accept the same
//! flags.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod driver;
pub mod report;
pub mod scenario;
pub mod schema;

pub use driver::{run, RunConfig, RunOutput};
pub use scenario::{Arrival, DataShape, Mix, OpKind, Scenario};

use sketchtree_metrics::json::Json;
use std::io::Write;
use std::time::Duration;

/// Usage text shared by the binary and the `sketchtree loadgen`
/// subcommand.
pub const USAGE: &str = "\
usage: sketchtree-loadgen [options]

Drives a mixed SKTP workload and writes BENCH_loadgen_<scenario>.json.

options:
  --scenario <shape-arrival>  scenario cell (default dblp-steady);
                              shapes: dblp treebank deep wide adversarial
                              arrivals: steady bursty
  --addr <host:port>          target server (default: spawn in-process)
  --duration <secs>           scheduled window length (default 10)
  --rate <ops/sec>            mean arrival rate (default 200)
  --mix <spec>                op weights, e.g. ingest=30,count=50,expr=10,subscribe=10
  --threads <n>               worker connections (default 4)
  --batch <n>                 trees per ingest op (default 16)
  --subscribers <n>           standing-query connections (default 2)
  --seed <n>                  workload + schedule seed (default 42)
  --sweep-batch <n>           add a closed-loop sweep batch size
                              (repeatable; default 4,16,64; 0 clears)
  --wal-path <path>           write-ahead log for the spawned server, to
                              measure log-before-ack ingest cost
                              (requires spawning, i.e. no --addr)
  --wal-fsync-every <n>       group commit: fsync every n-th batch
                              (default 1; 0 never fsyncs)
  --out <path>                report path (default BENCH_loadgen_<scenario>.json)
  --print-metrics             dump the driver's metrics registry after the run
  --list-scenarios            print the scenario matrix and exit
  --help                      this text
";

/// Parses flags, runs the scenario, writes the report file, and prints a
/// human summary to `out`.  Returns an error string suitable for stderr;
/// `--help` and `--list-scenarios` short-circuit successfully.
pub fn run_cli(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let mut cfg = RunConfig::new(Scenario::parse("dblp-steady").ok_or("default scenario")?);
    let mut out_path: Option<String> = None;
    let mut sweep_override: Option<Vec<usize>> = None;
    let mut print_metrics = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next().map(String::as_str).ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--help" | "-h" => {
                write_out(out, USAGE)?;
                return Ok(());
            }
            "--list-scenarios" => {
                for s in Scenario::matrix() {
                    write_out(out, &format!("{}\n", s.name()))?;
                }
                return Ok(());
            }
            "--scenario" => {
                let v = value("--scenario")?;
                cfg.scenario = Scenario::parse(v)
                    .ok_or_else(|| format!("unknown scenario {v:?}; try --list-scenarios"))?;
            }
            "--addr" => {
                let v = value("--addr")?;
                cfg.addr =
                    Some(v.parse().map_err(|e| format!("--addr {v:?} does not parse: {e}"))?);
            }
            "--duration" => {
                cfg.duration = Duration::from_secs_f64(parse_num(value("--duration")?, "--duration")?);
            }
            "--rate" => cfg.rate = parse_num(value("--rate")?, "--rate")?,
            "--mix" => cfg.mix = Mix::parse(value("--mix")?)?,
            "--threads" => cfg.threads = parse_usize(value("--threads")?, "--threads")?,
            "--batch" => cfg.batch = parse_usize(value("--batch")?, "--batch")?,
            "--subscribers" => {
                cfg.subscribers = parse_usize(value("--subscribers")?, "--subscribers")?;
            }
            "--seed" => {
                cfg.seed = value("--seed")?
                    .parse::<u64>()
                    .map_err(|e| format!("--seed does not parse: {e}"))?;
            }
            "--sweep-batch" => {
                let n = parse_usize(value("--sweep-batch")?, "--sweep-batch")?;
                let sweeps = sweep_override.get_or_insert_with(Vec::new);
                if n > 0 {
                    sweeps.push(n);
                }
            }
            "--wal-path" => cfg.wal_path = Some(value("--wal-path")?.into()),
            "--wal-fsync-every" => {
                cfg.wal_fsync_every = value("--wal-fsync-every")?
                    .parse::<u32>()
                    .map_err(|e| format!("--wal-fsync-every does not parse: {e}"))?;
            }
            "--out" => out_path = Some(value("--out")?.to_string()),
            "--print-metrics" => print_metrics = true,
            other => return Err(format!("unknown flag {other:?}\n\n{USAGE}")),
        }
    }
    if let Some(sweeps) = sweep_override {
        cfg.sweep_batches = sweeps;
    }
    if cfg.addr.is_some() && cfg.wal_path.is_some() {
        return Err(
            "--wal-path configures the self-spawned server; it cannot reach one named by --addr"
                .to_string(),
        );
    }

    let scenario_name = cfg.scenario.name();
    write_out(
        out,
        &format!(
            "loadgen: scenario={} rate={} ops/s duration={:.1}s threads={} batch={} subscribers={}\n",
            scenario_name,
            cfg.rate,
            cfg.duration.as_secs_f64(),
            cfg.threads,
            cfg.batch,
            cfg.subscribers
        ),
    )?;

    let output = run(&cfg)?;
    if let Err(errs) = schema::validate(&output.report) {
        return Err(format!("internal error: emitted report fails its own schema: {errs:?}"));
    }

    let path = out_path.unwrap_or_else(|| report::bench_path(&scenario_name));
    std::fs::write(&path, output.report.render_pretty())
        .map_err(|e| format!("writing {path}: {e}"))?;

    write_out(out, &summarize(&output.report, &path))?;
    if print_metrics {
        write_out(out, &output.registry.render_text())?;
    }
    Ok(())
}

/// Renders the post-run one-screen summary.
fn summarize(report: &Json, path: &str) -> String {
    let mut s = String::new();
    let get = |p: &[&str]| report.get_path(p).and_then(Json::as_f64).unwrap_or(0.0);
    for kind in OpKind::ALL {
        let name = kind.name();
        s.push_str(&format!(
            "  {name:>9}: {:>7.0} ops  {:>4.0} err  p50 {:>7.0}us  p99 {:>8.0}us  p999 {:>8.0}us\n",
            get(&["ops", name, "count"]),
            get(&["ops", name, "errors"]),
            get(&["ops", name, "latency_us", "p50"]),
            get(&["ops", name, "latency_us", "p99"]),
            get(&["ops", name, "latency_us", "p999"]),
        ));
    }
    s.push_str(&format!(
        "  push: {} updates, lag p99 {:.0}us, epochs monotone: {}\n",
        get(&["push", "updates"]),
        get(&["push", "lag_us", "p99"]),
        report
            .get_path(&["push", "epochs_monotone"])
            .and_then(Json::as_bool)
            .unwrap_or(false),
    ));
    s.push_str(&format!(
        "  ingest: {:.0} trees ({:.0} trees/s)\n",
        get(&["ingest", "trees"]),
        get(&["ingest", "trees_per_sec"]),
    ));
    if !report.get_path(&["completed_all_scheduled"]).and_then(Json::as_bool).unwrap_or(true) {
        s.push_str(&format!(
            "  WARNING: hard stop tripped, {:.0} scheduled ops abandoned\n",
            get(&["ops_abandoned"])
        ));
    }
    s.push_str(&format!("  report written to {path}\n"));
    s
}

fn write_out(out: &mut dyn Write, text: &str) -> Result<(), String> {
    out.write_all(text.as_bytes()).map_err(|e| format!("writing output: {e}"))
}

fn parse_num(v: &str, flag: &str) -> Result<f64, String> {
    let n: f64 = v.parse().map_err(|e| format!("{flag} does not parse: {e}"))?;
    if n.is_finite() && n > 0.0 {
        Ok(n)
    } else {
        Err(format!("{flag} must be a positive number, got {v}"))
    }
}

fn parse_usize(v: &str, flag: &str) -> Result<usize, String> {
    v.parse().map_err(|e| format!("{flag} does not parse: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> (Result<(), String>, String) {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        let res = run_cli(&args, &mut out);
        (res, String::from_utf8_lossy(&out).into_owned())
    }

    #[test]
    fn help_and_list_short_circuit() {
        let (res, text) = cli(&["--help"]);
        assert!(res.is_ok());
        assert!(text.contains("--scenario"));
        let (res, text) = cli(&["--list-scenarios"]);
        assert!(res.is_ok());
        assert!(text.contains("dblp-steady"));
        assert!(text.contains("adversarial-bursty"));
    }

    #[test]
    fn bad_flags_are_rejected_with_usage() {
        let (res, _) = cli(&["--bogus"]);
        assert!(res.unwrap_err().contains("usage:"));
        let (res, _) = cli(&["--scenario", "nope-steady"]);
        assert!(res.unwrap_err().contains("unknown scenario"));
        let (res, _) = cli(&["--rate", "-3"]);
        assert!(res.unwrap_err().contains("positive"));
        let (res, _) = cli(&["--duration"]);
        assert!(res.unwrap_err().contains("needs a value"));
    }
}
