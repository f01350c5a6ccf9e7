//! The `sketchtree` command-line tool.
//!
//! ```text
//! sketchtree ingest <file.xml>|- [options]     build a synopsis from XML
//!     --snapshot PATH     write the synopsis to PATH (default: sketchtree.snapshot)
//!     --k N               max pattern edges (default 4)
//!     --s1 N --s2 N       sketch array size (default 25 x 7)
//!     --streams N         virtual streams (default 229)
//!     --topk N            heavy hitters tracked per stream (default 50)
//!     --independence N    xi independence, 2..=64 (default 5: products of 2 work)
//!     --seed N            sketch seed
//!
//! sketchtree query <snapshot> <pattern>... [--unordered]
//!     estimate COUNT_ord (or COUNT with --unordered) for each pattern
//!
//! sketchtree expr <snapshot> "<expression>"
//!     evaluate a +,-,* expression, e.g. "COUNT_ord(A(B)) - COUNT(C)"
//!
//! sketchtree stats <snapshot>|<host:port> [--metrics [--json]]
//!     print synopsis configuration and stream counters.  A target that is
//!     not an existing file and contains ':' is treated as a running
//!     server's address; --metrics fetches the full metrics exposition
//!     (Prometheus text, or JSON with --json) instead of the summary
//!
//! sketchtree heavy <snapshot> [--limit N]
//!     print the tracked heavy-hitter patterns (mapped values)
//!
//! sketchtree merge <a.snap> <b.snap>... -o <out.snap>
//!     fold identically configured shard snapshots into one synopsis;
//!     with top-k disabled the result is byte-identical to ingesting
//!     every shard's stream into a single synopsis
//!
//! sketchtree serve <addr> [options]
//!     run the SKTP daemon: streaming remote ingest + online queries
//!     --snapshot PATH         checkpoint file (restore on start, write on stop)
//!     --checkpoint-secs N     also checkpoint every N seconds
//!     --wal-path PATH         write-ahead log: fsync every ingest batch
//!                             before acking, replay the tail on start,
//!                             rotate on every checkpoint
//!     --wal-fsync-every N     group commit: one fsync per N batches
//!                             (default 1 = every batch; a crash may
//!                             lose up to N-1 acked batches; 0 = never,
//!                             benchmarking only)
//!     --workers N             worker threads (default 4)
//!     --metrics-port N        serve HTTP /metrics + /healthz on 0.0.0.0:N
//!                             (0 picks an ephemeral port; omit to disable)
//!     plus the ingest sketch flags (--k, --s1, ... ) for a fresh synopsis
//!
//! sketchtree wal-dump <wal-file>
//!     inspect a write-ahead log: one line per intact frame (sequence
//!     number, sizes, label/tree counts), plus whether a torn tail from
//!     a crash would be truncated at recovery
//!
//! sketchtree remote-ingest <addr> <file.xml>|- [--batch N]
//!     stream XML documents to a running server in batches (default 64)
//!
//! sketchtree remote-query <addr> <pattern>... [--unordered | --expr]
//!     estimate counts (or full expressions with --expr) against a server
//!
//! sketchtree remote-subscribe <addr> <query>... [--unordered | --expr] [--updates N]
//!     register standing queries and stream pushed estimate updates to
//!     stdout, one line per query per ingest batch; --updates N exits
//!     after N updates (default: stream until the connection closes)
//!
//! sketchtree loadgen [options]
//!     drive a mixed open-loop benchmark workload against a server (or an
//!     in-process one) and write BENCH_loadgen_<scenario>.json; same
//!     flags as the standalone `sketchtree-loadgen` binary — see
//!     `sketchtree loadgen --help` and docs/benchmarks.md
//! ```
//!
//! The library layer ([`run`]) is separated from the binary so integration
//! tests can drive the exact command paths without spawning processes.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

use sketchtree_core::snapshot::{read_snapshot, write_snapshot};
use sketchtree_core::sketchtree::{SketchTree, SketchTreeConfig};
use sketchtree_core::{exprparse, summary::ExpandLimits};
use sketchtree_server::{Client, Server, ServerConfig, SubscribeMode};
use sketchtree_sketch::{SynopsisConfig, INDEPENDENCE_RANGE};
use sketchtree_xml::{DocumentSplitter, XmlTreeBuilder};
use std::io::{BufRead, BufReader, Write};

/// Top-level error type for CLI runs.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line.
    Usage(String),
    /// I/O failure.
    Io(std::io::Error),
    /// Anything from the library layers, stringified for display.
    Failed(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(u) => write!(f, "{u}"),
            CliError::Io(e) => write!(f, "I/O error: {e}"),
            CliError::Failed(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

fn usage() -> String {
    "usage:\n  sketchtree ingest <file.xml>|- [--snapshot PATH] [--k N] [--s1 N] [--s2 N] \
     [--streams N] [--topk N] [--independence N] [--seed N]\n  \
     sketchtree query <snapshot> <pattern>... [--unordered]\n  \
     sketchtree expr <snapshot> \"<expression>\"\n  \
     sketchtree stats <snapshot>|<host:port> [--metrics [--json]]\n  \
     sketchtree heavy <snapshot> [--limit N]\n  \
     sketchtree merge <a.snap> <b.snap>... -o <out.snap>\n  \
     sketchtree serve <addr> [--snapshot PATH] [--checkpoint-secs N] [--wal-path PATH] \
     [--wal-fsync-every N] [--workers N] [--metrics-port N] \
     [sketch flags as for ingest]\n  \
     sketchtree wal-dump <wal-file>\n  \
     sketchtree remote-ingest <addr> <file.xml>|- [--batch N]\n  \
     sketchtree remote-query <addr> <pattern>... [--unordered | --expr]\n  \
     sketchtree remote-subscribe <addr> <query>... [--unordered | --expr] [--updates N]\n  \
     sketchtree loadgen [options]   (see: sketchtree loadgen --help)"
        .to_string()
}

/// Runs the CLI with pre-split arguments (excluding `argv[0]`), writing
/// human-readable output to `out`.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let cmd = args.first().ok_or_else(|| CliError::Usage(usage()))?;
    match cmd.as_str() {
        "ingest" => ingest(&args[1..], out),
        "query" => query(&args[1..], out),
        "expr" => expr(&args[1..], out),
        "stats" => stats(&args[1..], out),
        "heavy" => heavy(&args[1..], out),
        "merge" => merge(&args[1..], out),
        "serve" => serve(&args[1..], out),
        "wal-dump" => wal_dump(&args[1..], out),
        "remote-ingest" => remote_ingest(&args[1..], out),
        "remote-query" => remote_query(&args[1..], out),
        "remote-subscribe" => remote_subscribe(&args[1..], out),
        "loadgen" => sketchtree_loadgen::run_cli(&args[1..], out).map_err(CliError::Failed),
        other => Err(CliError::Usage(format!(
            "unknown command '{other}'\n\n{}",
            usage()
        ))),
    }
}

fn parse_flag<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    default: T,
) -> Result<T, CliError> {
    match args.iter().position(|a| a == flag) {
        None => Ok(default),
        Some(i) => args
            .get(i + 1)
            .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))?
            .parse()
            .map_err(|_| CliError::Usage(format!("bad value for {flag}"))),
    }
}

fn positional(args: &[String]) -> Vec<&String> {
    let mut out = Vec::new();
    let mut skip = false;
    for (i, a) in args.iter().enumerate() {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") {
            // Boolean flags take no value.
            skip = a != "--unordered" && a != "--expr" && a != "--metrics" && a != "--json";
            let _ = i;
            continue;
        }
        out.push(a);
    }
    out
}

/// Builds the synopsis configuration from the shared sketch flags
/// (`--k`, `--s1`, `--s2`, `--streams`, `--topk`, `--independence`,
/// `--seed`), used by both `ingest` and `serve`.
fn sketch_config(args: &[String]) -> Result<SketchTreeConfig, CliError> {
    // The range a snapshot decodes, so every synopsis the CLI builds can
    // restore its own checkpoints.
    let independence = parse_flag(args, "--independence", 5usize)?;
    if !INDEPENDENCE_RANGE.contains(&independence) {
        return Err(CliError::Usage(format!(
            "--independence must be in {}..={}, got {independence}",
            INDEPENDENCE_RANGE.start(),
            INDEPENDENCE_RANGE.end()
        )));
    }
    Ok(SketchTreeConfig {
        max_pattern_edges: parse_flag(args, "--k", 4usize)?,
        synopsis: SynopsisConfig {
            s1: parse_flag(args, "--s1", 25usize)?,
            s2: parse_flag(args, "--s2", 7usize)?,
            virtual_streams: parse_flag(args, "--streams", 229usize)?,
            topk: parse_flag(args, "--topk", 50usize)?,
            independence,
            seed: parse_flag(args, "--seed", 0x5EED_u64)?,
            ..SynopsisConfig::default()
        },
        maintain_summary: true,
        track_exact: false,
        expand_limits: ExpandLimits::default(),
        ..SketchTreeConfig::default()
    })
}

fn ingest(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let inputs = positional(args);
    if inputs.is_empty() {
        return Err(CliError::Usage("ingest needs an input file (or -)".into()));
    }
    let mut st = SketchTree::new(sketch_config(args)?);
    let mut builder = XmlTreeBuilder::default();
    let start = std::time::Instant::now();
    for input in &inputs {
        let reader: Box<dyn BufRead> = if input.as_str() == "-" {
            Box::new(BufReader::new(std::io::stdin()))
        } else {
            Box::new(BufReader::new(std::fs::File::open(input.as_str())?))
        };
        let mut splitter = DocumentSplitter::new(reader);
        loop {
            let doc = splitter
                .next_document()
                .map_err(|e| CliError::Failed(format!("{input}: {e}")))?;
            let Some(doc) = doc else { break };
            let tree = builder
                .parse_document(&doc, st.labels_mut())
                .map_err(|e| CliError::Failed(format!("{input}: {e}")))?;
            st.ingest(&tree);
        }
    }
    let secs = start.elapsed().as_secs_f64();
    let snapshot_path: String = parse_flag(args, "--snapshot", "sketchtree.snapshot".to_string())?;
    let bytes = write_snapshot(&st);
    std::fs::write(&snapshot_path, &bytes)?;
    writeln!(
        out,
        "ingested {} documents ({} pattern instances) in {:.2}s",
        st.trees_processed(),
        st.patterns_processed(),
        secs
    )?;
    writeln!(
        out,
        "synopsis: {} KB in memory, snapshot {} KB -> {}",
        st.memory_bytes() / 1024,
        bytes.len() / 1024,
        snapshot_path
    )?;
    Ok(())
}

fn load(path: &str) -> Result<SketchTree, CliError> {
    let bytes = std::fs::read(path)?;
    read_snapshot(&bytes).map_err(|e| CliError::Failed(format!("{path}: {e}")))
}

fn query(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let pos = positional(args);
    let (snapshot, patterns) = pos
        .split_first()
        .ok_or_else(|| CliError::Usage("query needs a snapshot and patterns".into()))?;
    if patterns.is_empty() {
        return Err(CliError::Usage("query needs at least one pattern".into()));
    }
    let unordered = args.iter().any(|a| a == "--unordered");
    let st = load(snapshot)?;
    for p in patterns {
        let est = if unordered {
            st.count_unordered(p)
        } else {
            st.count_ordered(p)
        }
        .map_err(|e| CliError::Failed(format!("{p}: {e}")))?;
        writeln!(out, "{p}\t{est:.1}")?;
    }
    Ok(())
}

fn expr(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let pos = positional(args);
    let [snapshot, expression] = pos.as_slice() else {
        return Err(CliError::Usage("expr needs a snapshot and one expression".into()));
    };
    let st = load(snapshot)?;
    let e = exprparse::parse_expr(expression)
        .map_err(|e| CliError::Failed(format!("expression: {e}")))?;
    let est = st
        .estimate(&e)
        .map_err(|e| CliError::Failed(format!("estimate: {e}")))?;
    writeln!(out, "{est:.1}")?;
    Ok(())
}

fn stats(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let pos = positional(args);
    let [target] = pos.as_slice() else {
        return Err(CliError::Usage(
            "stats needs a snapshot path or a server address (host:port)".into(),
        ));
    };
    // A target that is not a file on disk but looks like host:port is a
    // running server; everything else keeps the original snapshot path.
    if !std::path::Path::new(target.as_str()).exists() && target.contains(':') {
        return remote_stats(target, args, out);
    }
    let st = load(target)?;
    let c = st.config();
    writeln!(out, "trees processed     : {}", st.trees_processed())?;
    writeln!(out, "pattern instances   : {}", st.patterns_processed())?;
    writeln!(out, "distinct labels     : {}", st.labels().len())?;
    writeln!(out, "max pattern edges k : {}", c.max_pattern_edges)?;
    writeln!(
        out,
        "sketches            : s1={} s2={} over {} virtual streams",
        c.synopsis.s1, c.synopsis.s2, c.synopsis.virtual_streams
    )?;
    writeln!(out, "top-k per stream    : {}", c.synopsis.topk)?;
    writeln!(out, "synopsis memory     : {} KB", st.memory_bytes() / 1024)?;
    writeln!(
        out,
        "residual self-join  : {:.3e}",
        st.residual_self_join()
    )?;
    Ok(())
}

/// `stats <host:port>`: summary (or full metrics exposition with
/// `--metrics`) fetched from a running server.
fn remote_stats(addr: &str, args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let mut client =
        Client::connect(addr).map_err(|e| CliError::Failed(format!("{addr}: {e}")))?;
    if args.iter().any(|a| a == "--metrics") {
        let json = args.iter().any(|a| a == "--json");
        let text = client
            .metrics(json)
            .map_err(|e| CliError::Failed(format!("metrics: {e}")))?;
        write!(out, "{text}")?;
        if !text.ends_with('\n') {
            writeln!(out)?;
        }
        return Ok(());
    }
    let s = client
        .stats()
        .map_err(|e| CliError::Failed(format!("stats: {e}")))?;
    writeln!(out, "trees processed     : {}", s.trees_processed)?;
    writeln!(out, "pattern instances   : {}", s.patterns_processed)?;
    writeln!(out, "distinct labels     : {}", s.labels)?;
    writeln!(out, "max pattern edges k : {}", s.max_pattern_edges)?;
    writeln!(
        out,
        "sketches            : s1={} s2={} over {} virtual streams",
        s.s1, s.s2, s.virtual_streams
    )?;
    writeln!(out, "top-k per stream    : {}", s.topk)?;
    writeln!(out, "synopsis memory     : {} KB", s.memory_bytes / 1024)?;
    Ok(())
}

fn heavy(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let pos = positional(args);
    let [snapshot] = pos.as_slice() else {
        return Err(CliError::Usage("heavy needs a snapshot".into()));
    };
    let limit = parse_flag(args, "--limit", 20usize)?;
    let st = load(snapshot)?;
    for (v, f) in st.tracked_heavy_hitters().into_iter().take(limit) {
        writeln!(out, "{v}\t~{f}")?;
    }
    Ok(())
}

fn merge(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    // `-o`/`--out` names the output; every other argument is an input
    // shard.  (`positional` only understands `--` flags, so `-o` is
    // handled by hand here.)  Merging is associative, so three or more
    // shards fold left.
    let mut output: Option<&String> = None;
    let mut inputs: Vec<&String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-o" | "--out" => {
                output = Some(
                    args.get(i + 1)
                        .ok_or_else(|| CliError::Usage("-o needs an output path".into()))?,
                );
                i += 2;
            }
            _ => {
                inputs.push(&args[i]);
                i += 1;
            }
        }
    }
    let output =
        output.ok_or_else(|| CliError::Usage("merge needs -o <out.snap>".into()))?;
    if inputs.len() < 2 {
        return Err(CliError::Usage(
            "merge needs at least two input snapshots".into(),
        ));
    }
    let mut acc = load(inputs[0])?;
    for path in &inputs[1..] {
        let shard = load(path)?;
        acc.merge(&shard)
            .map_err(|e| CliError::Failed(format!("{path}: {e}")))?;
    }
    let bytes = write_snapshot(&acc);
    std::fs::write(output.as_str(), &bytes)?;
    writeln!(
        out,
        "merged {} snapshots: {} trees, {} pattern instances -> {} ({} KB)",
        inputs.len(),
        acc.trees_processed(),
        acc.patterns_processed(),
        output,
        bytes.len() / 1024
    )?;
    Ok(())
}

fn serve(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let pos = positional(args);
    let [addr] = pos.as_slice() else {
        return Err(CliError::Usage("serve needs a listen address (host:port)".into()));
    };
    let checkpoint_path: String = parse_flag(args, "--snapshot", String::new())?;
    let checkpoint_secs: u64 = parse_flag(args, "--checkpoint-secs", 0u64)?;
    // -1 (the default) disables the endpoint; 0 asks for an ephemeral port.
    let metrics_port: i64 = parse_flag(args, "--metrics-port", -1i64)?;
    let metrics_addr = match metrics_port {
        -1 => None,
        p if (0..=i64::from(u16::MAX)).contains(&p) => Some(std::net::SocketAddr::from((
            [0, 0, 0, 0],
            u16::try_from(p).unwrap_or_default(),
        ))),
        _ => return Err(CliError::Usage("bad value for --metrics-port".into())),
    };
    let wal_path: String = parse_flag(args, "--wal-path", String::new())?;
    let wal_fsync_every: u32 = parse_flag(args, "--wal-fsync-every", 1u32)?;
    let config = ServerConfig {
        workers: parse_flag(args, "--workers", 4usize)?,
        checkpoint_path: (!checkpoint_path.is_empty()).then(|| checkpoint_path.clone().into()),
        checkpoint_interval: (checkpoint_secs > 0)
            .then(|| std::time::Duration::from_secs(checkpoint_secs)),
        metrics_addr,
        sketch: sketch_config(args)?,
        wal: (!wal_path.is_empty()).then(|| sketchtree_server::WalConfig {
            path: wal_path.clone().into(),
            fsync_every: wal_fsync_every,
        }),
        ..ServerConfig::default()
    };
    if checkpoint_path.is_empty() && checkpoint_secs > 0 {
        return Err(CliError::Usage(
            "--checkpoint-secs needs --snapshot PATH".into(),
        ));
    }
    if wal_path.is_empty() && args.iter().any(|a| a == "--wal-fsync-every") {
        return Err(CliError::Usage(
            "--wal-fsync-every needs --wal-path PATH".into(),
        ));
    }
    let server = Server::start(addr.as_str(), config)?;
    // The bound address goes out *before* blocking so callers using an
    // ephemeral port (":0") can discover it.
    writeln!(out, "listening on {}", server.addr())?;
    if let Some(maddr) = server.metrics_addr() {
        writeln!(out, "metrics on http://{maddr}/metrics")?;
    }
    out.flush()?;
    server.wait();
    let restored = server.shared().trees_processed();
    server
        .shutdown()
        .map_err(|e| CliError::Failed(format!("shutdown: {e}")))?;
    writeln!(out, "server stopped after {restored} trees")?;
    Ok(())
}

/// Read-only WAL inspector: prints one line per intact frame and reports
/// any torn tail exactly as recovery would classify it (without
/// repairing the file — dumping must never mutate evidence).
fn wal_dump(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let pos = positional(args);
    let [path] = pos.as_slice() else {
        return Err(CliError::Usage("wal-dump needs a wal file path".into()));
    };
    let scan = sketchtree_wal::scan(std::path::Path::new(path.as_str()))
        .map_err(|e| CliError::Failed(format!("{path}: {e}")))?;
    let mut trees_total: u64 = 0;
    for frame in &scan.frames {
        match sketchtree_server::wire::decode_ingest_trees(&frame.batch) {
            Ok((labels, trees)) => {
                let nodes: usize = trees.iter().map(sketchtree_tree::Tree::len).sum();
                trees_total += trees.len() as u64;
                writeln!(
                    out,
                    "seq {:>6}  offset {:>8}  {:>8} bytes  {:>5} labels  {:>6} trees  {:>8} nodes",
                    frame.seq,
                    frame.offset,
                    frame.end - frame.offset,
                    labels.len(),
                    trees.len(),
                    nodes,
                )?;
            }
            Err(e) => {
                writeln!(
                    out,
                    "seq {:>6}  offset {:>8}  {:>8} bytes  UNDECODABLE ({e}) — recovery truncates here",
                    frame.seq,
                    frame.offset,
                    frame.end - frame.offset,
                )?;
                break;
            }
        }
    }
    writeln!(
        out,
        "{} frames, {trees_total} trees, {} of {} bytes valid",
        scan.frames.len(),
        scan.valid_len,
        scan.file_len,
    )?;
    if let Some(torn) = scan.torn {
        writeln!(
            out,
            "torn tail at byte {} ({}) — recovery truncates it and continues",
            torn.offset, torn.reason,
        )?;
    }
    Ok(())
}

fn remote_ingest(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let pos = positional(args);
    let (addr, inputs) = pos
        .split_first()
        .ok_or_else(|| CliError::Usage("remote-ingest needs an address and input files".into()))?;
    if inputs.is_empty() {
        return Err(CliError::Usage(
            "remote-ingest needs an input file (or -)".into(),
        ));
    }
    let batch_size: usize = parse_flag(args, "--batch", 64usize)?;
    let batch_size = batch_size.max(1);
    let mut client =
        Client::connect(addr.as_str()).map_err(|e| CliError::Failed(format!("{addr}: {e}")))?;
    let start = std::time::Instant::now();
    let (mut trees, mut patterns) = (0u64, 0u64);
    let mut last = None;
    let mut batch: Vec<String> = Vec::with_capacity(batch_size);
    let mut flush_batch = |batch: &mut Vec<String>,
                           trees: &mut u64,
                           patterns: &mut u64,
                           last: &mut Option<sketchtree_server::client::IngestSummary>|
     -> Result<(), CliError> {
        if batch.is_empty() {
            return Ok(());
        }
        let summary = client
            .ingest_xml(batch)
            .map_err(|e| CliError::Failed(format!("ingest: {e}")))?;
        *trees += summary.trees;
        *patterns += summary.patterns;
        *last = Some(summary);
        batch.clear();
        Ok(())
    };
    for input in inputs {
        let reader: Box<dyn BufRead> = if input.as_str() == "-" {
            Box::new(BufReader::new(std::io::stdin()))
        } else {
            Box::new(BufReader::new(std::fs::File::open(input.as_str())?))
        };
        let mut splitter = DocumentSplitter::new(reader);
        loop {
            let doc = splitter
                .next_document()
                .map_err(|e| CliError::Failed(format!("{input}: {e}")))?;
            let Some(doc) = doc else { break };
            batch.push(doc);
            if batch.len() >= batch_size {
                flush_batch(&mut batch, &mut trees, &mut patterns, &mut last)?;
            }
        }
    }
    flush_batch(&mut batch, &mut trees, &mut patterns, &mut last)?;
    let secs = start.elapsed().as_secs_f64();
    writeln!(
        out,
        "ingested {trees} documents ({patterns} pattern instances) in {secs:.2}s"
    )?;
    if let Some(summary) = last {
        writeln!(
            out,
            "server totals: {} trees, {} pattern instances",
            summary.total_trees, summary.total_patterns
        )?;
    }
    Ok(())
}

fn remote_query(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let pos = positional(args);
    let (addr, queries) = pos
        .split_first()
        .ok_or_else(|| CliError::Usage("remote-query needs an address and patterns".into()))?;
    if queries.is_empty() {
        return Err(CliError::Usage(
            "remote-query needs at least one pattern".into(),
        ));
    }
    let unordered = args.iter().any(|a| a == "--unordered");
    let as_expr = args.iter().any(|a| a == "--expr");
    let mut client =
        Client::connect(addr.as_str()).map_err(|e| CliError::Failed(format!("{addr}: {e}")))?;
    for q in queries {
        let est = if as_expr {
            client.expr(q)
        } else if unordered {
            client.count_unordered(q)
        } else {
            client.count_ordered(q)
        }
        .map_err(|e| CliError::Failed(format!("{q}: {e}")))?;
        writeln!(out, "{q}\t{est:.1}")?;
    }
    Ok(())
}

/// `remote-subscribe <addr> <query>...`: register standing queries and
/// stream pushed [`sketchtree_server::Update`]s to `out`, one tab-separated
/// line (`epoch  query  estimate`) per query per ingest batch.
fn remote_subscribe(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let pos = positional(args);
    let (addr, queries) = pos.split_first().ok_or_else(|| {
        CliError::Usage("remote-subscribe needs an address and at least one query".into())
    })?;
    if queries.is_empty() {
        return Err(CliError::Usage(
            "remote-subscribe needs at least one query".into(),
        ));
    }
    let unordered = args.iter().any(|a| a == "--unordered");
    let as_expr = args.iter().any(|a| a == "--expr");
    if unordered && as_expr {
        return Err(CliError::Usage(
            "--unordered and --expr are mutually exclusive".into(),
        ));
    }
    let mode = if as_expr {
        SubscribeMode::Expr
    } else if unordered {
        SubscribeMode::Unordered
    } else {
        SubscribeMode::Ordered
    };
    // 0 (the default) streams until the connection closes; tests and
    // scripts bound the run with an explicit update budget.
    let updates_limit: u64 = parse_flag(args, "--updates", 0u64)?;
    let mut client =
        Client::connect(addr.as_str()).map_err(|e| CliError::Failed(format!("{addr}: {e}")))?;
    let mut names: std::collections::HashMap<u64, String> = std::collections::HashMap::new();
    for q in queries {
        let (id, epoch) = client
            .subscribe(mode, q)
            .map_err(|e| CliError::Failed(format!("{q}: {e}")))?;
        writeln!(out, "subscribed {q} (id {id}, epoch {epoch})")?;
        names.insert(id, (*q).clone());
    }
    out.flush()?;
    let mut printed = 0u64;
    loop {
        match client.next_update(std::time::Duration::from_millis(500)) {
            Ok(Some(u)) => {
                let name = names.get(&u.id).map(String::as_str).unwrap_or("?");
                match u.result {
                    Ok(v) => writeln!(out, "epoch {}\t{}\t{:.1}", u.epoch, name, v)?,
                    Err(e) => writeln!(out, "epoch {}\t{}\terror: {}", u.epoch, name, e)?,
                }
                out.flush()?;
                printed += 1;
                if updates_limit > 0 && printed >= updates_limit {
                    return Ok(());
                }
            }
            Ok(None) => continue, // quiet stream; keep waiting
            Err(e) => return Err(CliError::Failed(format!("updates: {e}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sketchtree-cli-test-{}-{name}", std::process::id()));
        p
    }

    fn run_ok(args: &[&str]) -> String {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        run(&args, &mut out).expect("command succeeds");
        String::from_utf8(out).expect("utf8 output")
    }

    #[test]
    fn full_cli_workflow() {
        // Write a small corpus.
        let xml_path = tmpfile("corpus.xml");
        let snap_path = tmpfile("synopsis.bin");
        let mut corpus = String::new();
        for i in 0..200 {
            let author = if i % 2 == 0 { "smith" } else { "jones" };
            corpus.push_str(&format!(
                "<article><author>{author}</author><year>2001</year></article>\n"
            ));
        }
        std::fs::write(&xml_path, corpus).unwrap();

        // ingest
        let out = run_ok(&[
            "ingest",
            xml_path.to_str().unwrap(),
            "--snapshot",
            snap_path.to_str().unwrap(),
            "--k",
            "3",
            "--s1",
            "40",
            "--streams",
            "31",
            "--topk",
            "8",
        ]);
        assert!(out.contains("ingested 200 documents"), "{out}");

        // query
        let out = run_ok(&[
            "query",
            snap_path.to_str().unwrap(),
            "author(smith)",
            "article(author(jones))",
        ]);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        let smith: f64 = lines[0].split('\t').nth(1).unwrap().parse().unwrap();
        assert!((smith - 100.0).abs() < 25.0, "{out}");

        // unordered query
        let out = run_ok(&[
            "query",
            snap_path.to_str().unwrap(),
            "article(year,author)",
            "--unordered",
        ]);
        let v: f64 = out.trim().split('\t').nth(1).unwrap().parse().unwrap();
        assert!((v - 200.0).abs() < 40.0, "{out}");

        // expr
        let out = run_ok(&[
            "expr",
            snap_path.to_str().unwrap(),
            "COUNT_ord(author(smith)) - COUNT_ord(author(jones))",
        ]);
        let v: f64 = out.trim().parse().unwrap();
        assert!(v.abs() < 30.0, "difference should be near 0: {out}");

        // stats
        let out = run_ok(&["stats", snap_path.to_str().unwrap()]);
        assert!(out.contains("trees processed     : 200"), "{out}");
        assert!(out.contains("virtual streams"), "{out}");

        // heavy
        let out = run_ok(&["heavy", snap_path.to_str().unwrap(), "--limit", "5"]);
        assert!(out.lines().count() <= 5);

        std::fs::remove_file(&xml_path).ok();
        std::fs::remove_file(&snap_path).ok();
    }

    #[test]
    fn merge_subcommand_matches_single_ingest() {
        let flags = ["--k", "3", "--s1", "30", "--streams", "17", "--topk", "0"];
        let shard_a: String = (0..100)
            .map(|_| "<article><author>smith</author><year>2001</year></article>\n")
            .collect();
        let shard_b: String = (0..100)
            .map(|_| "<inproceedings><author>jones</author></inproceedings>\n")
            .collect();
        let a_xml = tmpfile("merge-a.xml");
        let b_xml = tmpfile("merge-b.xml");
        let full_xml = tmpfile("merge-full.xml");
        std::fs::write(&a_xml, &shard_a).unwrap();
        std::fs::write(&b_xml, &shard_b).unwrap();
        std::fs::write(&full_xml, format!("{shard_a}{shard_b}")).unwrap();

        let a_snap = tmpfile("merge-a.snap");
        let b_snap = tmpfile("merge-b.snap");
        let full_snap = tmpfile("merge-full.snap");
        let merged_snap = tmpfile("merge-out.snap");
        for (xml, snap) in [(&a_xml, &a_snap), (&b_xml, &b_snap), (&full_xml, &full_snap)] {
            let mut args = vec![
                "ingest",
                xml.to_str().unwrap(),
                "--snapshot",
                snap.to_str().unwrap(),
            ];
            args.extend_from_slice(&flags);
            run_ok(&args);
        }
        let out = run_ok(&[
            "merge",
            a_snap.to_str().unwrap(),
            b_snap.to_str().unwrap(),
            "-o",
            merged_snap.to_str().unwrap(),
        ]);
        assert!(out.contains("merged 2 snapshots: 200 trees"), "{out}");

        // With top-k disabled, the merged synopsis is byte-for-byte the
        // one a single node would have built over the whole corpus.
        let merged = std::fs::read(&merged_snap).unwrap();
        let full = std::fs::read(&full_snap).unwrap();
        assert_eq!(merged, full, "merged snapshot differs from single-node ingest");

        // And the merged snapshot answers queries.
        let out = run_ok(&["query", merged_snap.to_str().unwrap(), "author(smith)"]);
        let v: f64 = out.trim().split('\t').nth(1).unwrap().parse().unwrap();
        assert!((v - 100.0).abs() < 30.0, "{out}");

        for p in [&a_xml, &b_xml, &full_xml, &a_snap, &b_snap, &full_snap, &merged_snap] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn remote_subscribe_streams_updates() {
        let server = Server::start(
            "127.0.0.1:0",
            ServerConfig {
                sketch: SketchTreeConfig {
                    max_pattern_edges: 3,
                    ..SketchTreeConfig::default()
                },
                ..ServerConfig::default()
            },
        )
        .expect("server starts");
        let addr = server.addr().to_string();
        // Background producer: small spaced batches so the subscriber
        // observes several distinct epochs while it waits.
        let feeder = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let Ok(mut c) = Client::connect(addr.as_str()) else { return };
                for _ in 0..100 {
                    let docs: Vec<String> = (0..4)
                        .map(|_| "<article><author>smith</author></article>".to_string())
                        .collect();
                    if c.ingest_xml(&docs).is_err() {
                        break; // server shut down under us; that's fine
                    }
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
            })
        };
        let out = run_ok(&["remote-subscribe", &addr, "article(author)", "--updates", "3"]);
        assert!(out.contains("subscribed article(author)"), "{out}");
        assert_eq!(
            out.lines().filter(|l| l.starts_with("epoch ")).count(),
            3,
            "{out}"
        );
        server.shutdown().expect("clean shutdown");
        feeder.join().expect("feeder exits");
    }

    #[test]
    fn merge_usage_errors() {
        let mut sink = Vec::new();
        // No -o.
        assert!(matches!(
            run(&["merge".into(), "a.snap".into(), "b.snap".into()], &mut sink),
            Err(CliError::Usage(_))
        ));
        // Fewer than two inputs.
        assert!(matches!(
            run(
                &["merge".into(), "a.snap".into(), "-o".into(), "out.snap".into()],
                &mut sink
            ),
            Err(CliError::Usage(_))
        ));
        // -o without a value.
        assert!(matches!(
            run(
                &["merge".into(), "a.snap".into(), "b.snap".into(), "-o".into()],
                &mut sink
            ),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn usage_errors() {
        let mut sink = Vec::new();
        assert!(matches!(
            run(&[], &mut sink),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["bogus".into()], &mut sink),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["ingest".into()], &mut sink),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["query".into(), "nope.bin".into()], &mut sink),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["wal-dump".into()], &mut sink),
            Err(CliError::Usage(_))
        ));
        // --wal-fsync-every without --wal-path is a configuration error,
        // not a silently ignored knob.
        assert!(matches!(
            run(
                &["serve".into(), "127.0.0.1:0".into(), "--wal-fsync-every".into(), "8".into()],
                &mut sink
            ),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn wal_dump_lists_frames_and_torn_tail() {
        let path = tmpfile("wal-dump.wal");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = sketchtree_wal::Wal::open(&path, 1).expect("open wal");
        let labels = vec!["a".to_string(), "b".to_string()];
        let trees = vec![sketchtree_tree::Tree::node(
            sketchtree_tree::Label(0),
            vec![sketchtree_tree::Tree::leaf(sketchtree_tree::Label(1))],
        )];
        let payload = sketchtree_server::wire::encode_ingest_trees(&labels, &trees).expect("encode");
        wal.append(&payload).expect("append");
        wal.append(&payload).expect("append");
        drop(wal);
        let text = run_ok(&["wal-dump", path.to_str().expect("utf8 path")]);
        assert!(text.contains("seq      1"), "{text}");
        assert!(text.contains("2 frames, 2 trees"), "{text}");
        assert!(!text.contains("torn tail"), "{text}");
        // A crash-torn tail is reported but the file is left untouched.
        let before = std::fs::read(&path).expect("read");
        let mut torn = before.clone();
        torn.extend_from_slice(&[0xAB; 7]);
        std::fs::write(&path, &torn).expect("write");
        let text = run_ok(&["wal-dump", path.to_str().expect("utf8 path")]);
        assert!(text.contains("torn tail"), "{text}");
        assert_eq!(std::fs::read(&path).expect("read"), torn, "dump must not repair");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_snapshot_is_io_error() {
        let mut sink = Vec::new();
        let r = run(
            &["stats".into(), "/definitely/not/here.bin".into()],
            &mut sink,
        );
        assert!(matches!(r, Err(CliError::Io(_))));
    }

    #[test]
    fn malformed_xml_reports_file() {
        let xml_path = tmpfile("bad.xml");
        std::fs::write(&xml_path, "<a><b></a>").unwrap();
        let mut sink = Vec::new();
        let r = run(
            &["ingest".into(), xml_path.to_str().unwrap().into()],
            &mut sink,
        );
        match r {
            Err(CliError::Failed(m)) => assert!(m.contains("bad.xml"), "{m}"),
            other => panic!("expected Failed, got {other:?}"),
        }
        std::fs::remove_file(&xml_path).ok();
    }
}
