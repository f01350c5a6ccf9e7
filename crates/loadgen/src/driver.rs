//! The open-loop driver: schedule, fire, measure, report.
//!
//! # Open loop, no coordinated omission
//!
//! Arrival times are fixed up front by the scenario's
//! [`Arrival`](crate::scenario::Arrival) process at the configured mean
//! rate — they do **not** depend on how
//! fast the server answers.  Worker threads claim op indices from a
//! shared counter, sleep until each op's scheduled start, execute it,
//! and record latency as *completion minus scheduled start*.  When the
//! server falls behind, ops start late and that queueing delay lands in
//! the histogram — which is the whole point: a closed-loop driver (or an
//! open-loop one that times from actual send) silently stops measuring
//! exactly when the server is slowest (coordinated omission; see
//! docs/benchmarks.md).
//!
//! # Measurement paths
//!
//! * Per-op latency and error counts, per [`OpKind`], in log-linear
//!   [`Histogram`]s and counters shared by every worker.
//! * Scheduling lag (actual start − scheduled start) as a driver-health
//!   signal: if the *driver* cannot keep up, the report says so rather
//!   than blaming the server.
//! * Push lag for standing queries: subscriber connections register
//!   before the run starts and timestamp every pushed update; at the end
//!   the k-th distinct update epoch is paired with the k-th ingest
//!   acknowledgement.  Approximate by one batch's jitter (the broadcast
//!   and the ack race), clamped at zero; documented in
//!   docs/benchmarks.md.
//!
//! Each sample is recorded once, into a [`sketchtree_metrics::Registry`]
//! (`sketchtree_loadgen_*`, see docs/observability.md): the report reads
//! its percentiles from those handles, and a long-running drive can be
//! scraped like any other component.

use crate::json::Json;
use crate::report;
use crate::scenario::{Mix, OpKind, Scenario, Workload};
use sketchtree_metrics::{Counter, Histogram, Registry};
use sketchtree_server::wire::SubscribeMode;
use sketchtree_server::{Client, Server, ServerConfig};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Everything one run needs.  Build with [`RunConfig::new`] and adjust
/// fields; the smoke preset lives in [`RunConfig::smoke`].
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Scenario cell (shape × arrival).
    pub scenario: Scenario,
    /// Target server; `None` spawns an in-process [`Server`] configured
    /// by the scenario's [`crate::scenario::DataShape::sketch_config`].
    pub addr: Option<SocketAddr>,
    /// Length of the scheduled window.
    pub duration: Duration,
    /// Mean arrival rate, ops/second.
    pub rate: f64,
    /// Op-kind weights.
    pub mix: Mix,
    /// Worker threads (one connection each).
    pub threads: usize,
    /// Trees per ingest batch.
    pub batch: usize,
    /// Standing-query subscriber connections.
    pub subscribers: usize,
    /// Workload + schedule seed.
    pub seed: u64,
    /// Batch sizes for the closed-loop throughput sweep after the main
    /// window; empty disables the sweep.
    pub sweep_batches: Vec<usize>,
    /// Write-ahead-log path for the self-spawned server, to measure the
    /// durability tax of log-before-ack ingest; ignored with `addr`
    /// (the remote server's durability is its own configuration).
    pub wal_path: Option<std::path::PathBuf>,
    /// Group-commit setting passed through with `wal_path`.
    pub wal_fsync_every: u32,
}

impl RunConfig {
    /// Defaults for `scenario`: 10 s, 200 ops/s, 4 threads, batch 16,
    /// 2 subscribers, sweep over 4/16/64.
    pub fn new(scenario: Scenario) -> Self {
        Self {
            scenario,
            addr: None,
            duration: Duration::from_secs(10),
            rate: 200.0,
            mix: Mix::default(),
            threads: 4,
            batch: 16,
            subscribers: 2,
            seed: 42,
            sweep_batches: vec![4, 16, 64],
            wal_path: None,
            wal_fsync_every: 1,
        }
    }

    /// The ~2 s preset the smoke e2e test and the `loadgen-smoke` gate
    /// run: small enough for CI, large enough that every op kind and the
    /// push path fire.
    pub fn smoke(scenario: Scenario) -> Self {
        Self {
            duration: Duration::from_millis(1500),
            rate: 120.0,
            threads: 2,
            batch: 8,
            subscribers: 1,
            sweep_batches: vec![4, 16],
            ..Self::new(scenario)
        }
    }
}

/// A finished run: the schema-valid report plus the live metrics
/// registry that instrumented it.
pub struct RunOutput {
    /// The `BENCH_loadgen_<scenario>.json` document.
    pub report: Json,
    /// Driver-side metrics (`sketchtree_loadgen_*`).
    pub registry: Arc<Registry>,
}

/// Hard ceiling on how long workers keep draining a backlog after the
/// scheduled window ends: `2 × duration + 2 s`.  Abandoning the backlog
/// is reported (`completed_all_scheduled` / `ops_abandoned`), never
/// silent.
fn hard_stop(duration: Duration) -> Duration {
    duration * 2 + Duration::from_secs(2)
}

/// Per-worker tallies the registry does not hold, summed after the run.
#[derive(Default)]
struct WorkerStats {
    trees: u64,
    patterns: u64,
    executed: u64,
    setup_error: Option<String>,
}

/// Per-subscriber measurement state.
struct SubStats {
    /// Arrival time of the first update carrying each distinct epoch, in
    /// epoch order.
    epoch_arrivals: Vec<Instant>,
    updates: u64,
    max_epoch: u64,
    monotone: bool,
    setup_error: Option<String>,
}

/// Driver-side metric handles (names documented in docs/observability.md).
struct DriverMetrics {
    ops: Vec<Arc<Counter>>,
    errors: Vec<Arc<Counter>>,
    op_seconds: Vec<Arc<Histogram>>,
    sched_lag: Arc<Histogram>,
    push_lag: Arc<Histogram>,
    push_updates: Arc<Counter>,
    ingested_trees: Arc<Counter>,
}

impl DriverMetrics {
    fn new(registry: &Registry) -> Self {
        let per_kind_counter = |name: &str, help: &str| {
            OpKind::ALL
                .iter()
                .map(|k| registry.counter_with(name, help, &[("kind", k.name())]))
                .collect::<Vec<_>>()
        };
        let ops = per_kind_counter(
            "sketchtree_loadgen_ops_total",
            "Operations completed by the load driver, by kind",
        );
        let errors = per_kind_counter(
            "sketchtree_loadgen_op_errors_total",
            "Operations that failed, by kind",
        );
        let op_seconds = OpKind::ALL
            .iter()
            .map(|k| {
                registry.histogram_with(
                    "sketchtree_loadgen_op_seconds",
                    "Scheduled-start-to-completion latency, by kind",
                    &[("kind", k.name())],
                )
            })
            .collect();
        Self {
            ops,
            errors,
            op_seconds,
            sched_lag: registry.histogram(
                "sketchtree_loadgen_sched_lag_seconds",
                "How late ops start relative to their open-loop schedule (driver health)",
            ),
            push_lag: registry.histogram(
                "sketchtree_loadgen_push_lag_seconds",
                "Ingest-acknowledgement-to-pushed-update lag for standing queries",
            ),
            push_updates: registry.counter(
                "sketchtree_loadgen_push_updates_total",
                "Standing-query updates received by subscriber connections",
            ),
            ingested_trees: registry.counter(
                "sketchtree_loadgen_ingest_trees_total",
                "Trees acknowledged by the server across ingest ops",
            ),
        }
    }
}

/// Runs one scenario and builds its report.
pub fn run(cfg: &RunConfig) -> Result<RunOutput, String> {
    if cfg.threads == 0 || cfg.rate <= 0.0 || cfg.batch == 0 {
        return Err("threads, rate and batch must all be positive".to_string());
    }
    let shape = cfg.scenario.shape;
    let workload = Arc::new(Workload::prepare(shape, cfg.seed, cfg.batch, 64));

    // Self-spawned servers get one worker per loadgen connection plus
    // slack, so no connection waits in the accept queue for a free
    // worker and queueing measured is the server's, not the pool's.
    let spawned = match cfg.addr {
        Some(_) => None,
        None => {
            let server = Server::start(
                "127.0.0.1:0",
                ServerConfig {
                    workers: cfg.threads + cfg.subscribers + 2,
                    sketch: shape.sketch_config(cfg.seed),
                    wal: cfg.wal_path.clone().map(|path| {
                        sketchtree_server::WalConfig { path, fsync_every: cfg.wal_fsync_every }
                    }),
                    ..ServerConfig::default()
                },
            )
            .map_err(|e| format!("spawning server: {e}"))?;
            Some(server)
        }
    };
    let addr = match (cfg.addr, &spawned) {
        (Some(a), _) => a,
        (None, Some(s)) => s.addr(),
        (None, None) => unreachable!("spawned when addr is None"),
    };

    let registry = Arc::new(Registry::new());
    let metrics = Arc::new(DriverMetrics::new(&registry));

    // --- Subscribers: connect and register before any load flows. ---
    let stop_subs = Arc::new(AtomicBool::new(false));
    let (ready_tx, ready_rx) = std::sync::mpsc::channel::<()>();
    let mut sub_handles = Vec::new();
    for _ in 0..cfg.subscribers {
        let stop = stop_subs.clone();
        let ready = ready_tx.clone();
        let metrics = metrics.clone();
        sub_handles.push(std::thread::spawn(move || {
            subscriber_loop(addr, shape, &stop, &ready, &metrics)
        }));
    }
    drop(ready_tx);
    for _ in 0..cfg.subscribers {
        ready_rx
            .recv()
            .map_err(|_| "a subscriber thread died before registering".to_string())?;
    }

    // --- Workers: open-loop mixed load. ---
    let next_op = Arc::new(AtomicU64::new(0));
    let next_batch = Arc::new(AtomicUsize::new(0));
    let ingest_acks: Arc<Mutex<Vec<Instant>>> = Arc::new(Mutex::new(Vec::new()));
    let start = Instant::now();
    let mut worker_handles = Vec::new();
    for _ in 0..cfg.threads {
        let cfg = cfg.clone();
        let workload = workload.clone();
        let next_op = next_op.clone();
        let next_batch = next_batch.clone();
        let ingest_acks = ingest_acks.clone();
        let metrics = metrics.clone();
        worker_handles.push(std::thread::spawn(move || {
            worker_loop(addr, &cfg, &workload, start, &next_op, &next_batch, &ingest_acks, &metrics)
        }));
    }

    let mut stats = WorkerStats::default();
    for h in worker_handles {
        let w = h.join().map_err(|_| "a worker thread panicked".to_string())?;
        stats.trees += w.trees;
        stats.patterns += w.patterns;
        stats.executed += w.executed;
        if stats.setup_error.is_none() {
            stats.setup_error = w.setup_error;
        }
    }
    let elapsed = start.elapsed();
    if let Some(e) = stats.setup_error {
        stop_subs.store(true, Ordering::SeqCst);
        for h in sub_handles {
            let _ = h.join();
        }
        return Err(format!("worker setup failed: {e}"));
    }

    // Let in-flight pushes drain, then stop the subscribers.
    std::thread::sleep(Duration::from_millis(300));
    stop_subs.store(true, Ordering::SeqCst);
    let mut subs = Vec::new();
    for h in sub_handles {
        subs.push(h.join().map_err(|_| "a subscriber thread panicked".to_string())?);
    }
    for s in &subs {
        if let Some(e) = &s.setup_error {
            return Err(format!("subscriber setup failed: {e}"));
        }
    }

    // Push lag: pair each subscriber's k-th distinct epoch arrival with
    // the k-th ingest ack, clamping the broadcast/ack race to zero.
    let acks = ingest_acks.lock().map_err(|_| "ack mutex poisoned".to_string())?;
    let mut updates_total = 0u64;
    let mut max_epoch = 0u64;
    let mut monotone = true;
    for s in &subs {
        updates_total += s.updates;
        max_epoch = max_epoch.max(s.max_epoch);
        monotone &= s.monotone;
        for (k, arrival) in s.epoch_arrivals.iter().enumerate() {
            let Some(ack) = acks.get(k) else { break };
            let lag = arrival.saturating_duration_since(*ack);
            metrics.push_lag.observe_duration(lag);
        }
    }
    drop(acks);

    // How many ops were scheduled inside the window but never executed
    // (only nonzero when the hard stop tripped).
    let duration_secs = cfg.duration.as_secs_f64();
    let mut scheduled_total = stats.executed;
    while cfg.scenario.arrival.schedule(scheduled_total, cfg.rate) < duration_secs {
        scheduled_total += 1;
    }
    let abandoned = scheduled_total.saturating_sub(stats.executed);

    // --- Closed-loop throughput-vs-batch-size sweep. ---
    let sweep = run_sweep(addr, cfg, &workload)?;

    // Server-side counters, when the server speaks our metrics opcode.
    let server_excerpt = fetch_server_excerpt(addr);

    let report = report::build(report::BuildInput {
        cfg,
        elapsed,
        op_latency: &metrics.op_seconds,
        op_errors: &metrics.errors,
        sched_lag: &metrics.sched_lag,
        trees: stats.trees,
        patterns: stats.patterns,
        push_lag: &metrics.push_lag,
        updates: updates_total,
        max_epoch,
        monotone,
        abandoned,
        sweep: &sweep,
        server_excerpt,
    });

    if let Some(server) = spawned {
        server.shutdown().map_err(|e| format!("server shutdown: {e}"))?;
    }
    Ok(RunOutput { report, registry })
}

/// One worker: claim → sleep to schedule → execute → record.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    addr: SocketAddr,
    cfg: &RunConfig,
    workload: &Workload,
    start: Instant,
    next_op: &AtomicU64,
    next_batch: &AtomicUsize,
    ingest_acks: &Mutex<Vec<Instant>>,
    metrics: &DriverMetrics,
) -> WorkerStats {
    let mut stats = WorkerStats::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            stats.setup_error = Some(e.to_string());
            return stats;
        }
    };
    let duration_secs = cfg.duration.as_secs_f64();
    let stop_at = hard_stop(cfg.duration);
    loop {
        let i = next_op.fetch_add(1, Ordering::Relaxed);
        let sched = cfg.scenario.arrival.schedule(i, cfg.rate);
        if sched >= duration_secs {
            break;
        }
        if start.elapsed() >= stop_at {
            // Backlog abandoned; the caller reports it.  Un-claim so the
            // scheduled-vs-executed accounting stays exact.
            next_op.fetch_sub(1, Ordering::Relaxed);
            break;
        }
        let sched_d = Duration::from_secs_f64(sched);
        if let Some(wait) = sched_d.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        let lag = start.elapsed().saturating_sub(sched_d);
        metrics.sched_lag.observe_duration(lag);

        let kind = cfg.mix.kind_for(cfg.seed, i);
        let kidx = OpKind::ALL.iter().position(|&k| k == kind).unwrap_or(0);
        let outcome = execute_op(
            &mut client,
            kind,
            cfg,
            workload,
            next_batch,
            i,
            &mut stats,
            ingest_acks,
            metrics,
        );
        stats.executed += 1;
        // Coordinated-omission-free: latency runs from the *scheduled*
        // start, so queueing behind a slow server is included.
        let latency = start.elapsed().saturating_sub(sched_d);
        match outcome {
            Ok(()) => {
                metrics.ops[kidx].inc();
                metrics.op_seconds[kidx].observe_duration(latency);
            }
            Err(_) => metrics.errors[kidx].inc(),
        }
    }
    stats
}

/// Executes one operation of `kind`.
#[allow(clippy::too_many_arguments)]
fn execute_op(
    client: &mut Client,
    kind: OpKind,
    cfg: &RunConfig,
    workload: &Workload,
    next_batch: &AtomicUsize,
    op_index: u64,
    stats: &mut WorkerStats,
    ingest_acks: &Mutex<Vec<Instant>>,
    metrics: &DriverMetrics,
) -> Result<(), String> {
    let shape = cfg.scenario.shape;
    let pick = |texts: &[&str]| -> String {
        let h = crate::scenario::splitmix64(cfg.seed ^ op_index.rotate_left(17));
        texts[(h % texts.len() as u64) as usize].to_string()
    };
    match kind {
        OpKind::Ingest => {
            let b = next_batch.fetch_add(1, Ordering::Relaxed) % workload.batches.len();
            let summary = client
                .ingest_trees(workload.labels.clone(), workload.batches[b].clone())
                .map_err(|e| e.to_string())?;
            stats.trees += summary.trees;
            stats.patterns += summary.patterns;
            metrics.ingested_trees.add(summary.trees);
            if let Ok(mut acks) = ingest_acks.lock() {
                acks.push(Instant::now());
            }
            Ok(())
        }
        OpKind::Count => {
            client.count_ordered(&pick(shape.count_queries())).map_err(|e| e.to_string())?;
            Ok(())
        }
        OpKind::Expr => {
            client.expr(&pick(shape.expr_queries())).map_err(|e| e.to_string())?;
            Ok(())
        }
        OpKind::Subscribe => {
            let q = pick(shape.standing_queries());
            let (id, _epoch) =
                client.subscribe(SubscribeMode::Ordered, &q).map_err(|e| e.to_string())?;
            client.unsubscribe(id).map_err(|e| e.to_string())?;
            Ok(())
        }
    }
}

/// One subscriber connection: register the shape's standing queries,
/// then timestamp every pushed update until stopped.
fn subscriber_loop(
    addr: SocketAddr,
    shape: crate::scenario::DataShape,
    stop: &AtomicBool,
    ready: &std::sync::mpsc::Sender<()>,
    metrics: &DriverMetrics,
) -> SubStats {
    let mut stats = SubStats {
        epoch_arrivals: Vec::new(),
        updates: 0,
        max_epoch: 0,
        monotone: true,
        setup_error: None,
    };
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            stats.setup_error = Some(e.to_string());
            let _ = ready.send(());
            return stats;
        }
    };
    for q in shape.standing_queries() {
        if let Err(e) = client.subscribe(SubscribeMode::Ordered, q) {
            stats.setup_error = Some(e.to_string());
            let _ = ready.send(());
            return stats;
        }
    }
    let _ = ready.send(());
    let mut last_epoch_by_id: HashMap<u64, u64> = HashMap::new();
    let mut last_distinct_epoch = 0u64;
    while !stop.load(Ordering::SeqCst) {
        match client.next_update(Duration::from_millis(100)) {
            Ok(Some(u)) => {
                let now = Instant::now();
                stats.updates += 1;
                metrics.push_updates.inc();
                stats.max_epoch = stats.max_epoch.max(u.epoch);
                if let Some(&prev) = last_epoch_by_id.get(&u.id) {
                    if u.epoch <= prev {
                        stats.monotone = false;
                    }
                }
                last_epoch_by_id.insert(u.id, u.epoch);
                // One arrival per distinct epoch (each batch pushes one
                // update per registered query).
                if u.epoch > last_distinct_epoch {
                    last_distinct_epoch = u.epoch;
                    stats.epoch_arrivals.push(now);
                }
            }
            Ok(None) => {}
            Err(_) => break, // connection gone; report what we saw
        }
    }
    stats
}

/// Closed-loop ingest-only sweep: saturate one connection per batch size
/// and record trees/second plus in-loop p99.  Closed loop is the right
/// tool *here* — throughput capacity is a supply question, not a latency
/// one (docs/benchmarks.md, "Two loops for two questions").
fn run_sweep(
    addr: SocketAddr,
    cfg: &RunConfig,
    workload: &Workload,
) -> Result<Vec<report::SweepRow>, String> {
    let mut rows = Vec::new();
    if cfg.sweep_batches.is_empty() {
        return Ok(rows);
    }
    let mut client = Client::connect(addr).map_err(|e| format!("sweep connect: {e}"))?;
    // Flatten the prepared batches into one pool, re-chunked per size.
    let pool: Vec<_> = workload.batches.iter().flatten().cloned().collect();
    let window = (cfg.duration / 6).clamp(Duration::from_millis(250), Duration::from_secs(2));
    for &batch in &cfg.sweep_batches {
        if batch == 0 || pool.is_empty() {
            continue;
        }
        let hist = Histogram::new();
        let mut trees = 0u64;
        let mut cursor = 0usize;
        let start = Instant::now();
        while start.elapsed() < window {
            let mut chunk = Vec::with_capacity(batch);
            for _ in 0..batch {
                chunk.push(pool[cursor % pool.len()].clone());
                cursor += 1;
            }
            let op_start = Instant::now();
            let summary = client
                .ingest_trees(workload.labels.clone(), chunk)
                .map_err(|e| format!("sweep ingest: {e}"))?;
            hist.observe_duration(op_start.elapsed());
            trees += summary.trees;
        }
        let secs = start.elapsed().as_secs_f64();
        rows.push(report::SweepRow {
            batch,
            trees_per_sec: trees as f64 / secs,
            // Every sweep row records at least one batch round-trip, so a
            // missing quantile can only mean an empty window; report 0
            // rather than making the row's type nullable.
            p99_us: hist.quantile(0.99).map_or(0, report::micros),
            batches: hist.count(),
        });
    }
    Ok(rows)
}

/// Pulls a few server-side counters over the SKTP metrics opcode for the
/// report's `server` block.  Best-effort: an older or foreign server
/// without the opcode just yields `None`.
fn fetch_server_excerpt(addr: SocketAddr) -> Option<Json> {
    let mut client = Client::connect(addr).ok()?;
    let text = client.metrics(true).ok()?;
    let all = Json::parse(&text).ok()?;
    let mut out = Json::obj();
    let mut found = false;
    for name in [
        "sktp_connections_accepted_total",
        "sktp_frames_total",
        "sktp_push_updates_total",
        "sktp_slow_subscriber_evictions_total",
        "sktp_error_responses_total",
    ] {
        if let Some(v) = find_metric_value(&all, name) {
            out.set(name, Json::Num(v));
            found = true;
        }
    }
    found.then_some(out)
}

/// Reads one counter family out of the server's JSON exposition
/// (`name → {type, help, series: [{labels, value}]}`), summing across
/// labeled series.
fn find_metric_value(doc: &Json, name: &str) -> Option<f64> {
    let family = doc.get(name)?;
    let Some(Json::Arr(series)) = family.get("series") else {
        return family.as_f64();
    };
    let mut sum = 0.0;
    let mut any = false;
    for s in series {
        if let Some(n) = s.get("value").and_then(Json::as_f64) {
            sum += n;
            any = true;
        }
    }
    any.then_some(sum)
}
