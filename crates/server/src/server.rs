//! The threaded TCP daemon hosting a shared synopsis.
//!
//! Architecture — plain `std::net`, no async runtime:
//!
//! - An **accept thread** hands connections to a bounded channel.
//! - A fixed pool of **worker threads** each serve one connection at a
//!   time, frame by frame.  Read timeouts double as the idle tick, so a
//!   quiet connection re-checks the shutdown flag a few times a second,
//!   and a connection idle past `idle_timeout` is closed so it cannot pin
//!   a worker forever (the client reconnects on its next request).
//! - Ingest follows the concurrency contract of
//!   [`SharedSketchTree`]:
//!   XML parsing happens against a connection-local label table with *no*
//!   lock held, label interning and the in-place relabel of the batch's
//!   trees take one short exclusive lock, and the sketch updates go
//!   through `ingest_batch` (enumeration under the shared lock, insertion
//!   under one exclusive lock per bounded window — so checkpoints and
//!   queries interleave with large batches).  Queries only ever take the
//!   shared lock, so queries never block queries.
//! - An optional **checkpoint thread** persists the synopsis through the
//!   snapshot layer at a fixed interval; checkpoints are atomic *and
//!   durable* (temp file + `sync_all` + rename + parent-dir fsync).  The
//!   server also checkpoints on shutdown and recovers on start, so a
//!   restart resumes the stream where it left off.
//! - An optional **write-ahead log** ([`crate::durability`]) makes the
//!   gap between checkpoints crash-safe: each ingest batch is appended
//!   (group-commit fsync per [`WalConfig::fsync_every`]) *before* the
//!   ack is written, recovery replays the tail past the checkpoint's
//!   recorded cursor, and every successful checkpoint rotates the log.

use crate::durability::{self, WalConfig};
use crate::http::MetricsHttp;
use crate::metrics::{ConnectionGuard, ServerMetrics};
use crate::subs::{EpochUpdates, Subscriptions};
use crate::wire::{
    check_ingest_trees, decode_ingest_trees, encode_ingest_trees, read_frame_patient, Frame,
    Request, Response, Stats, SubscribeMode, WireError, DEFAULT_MAX_FRAME, HEADER_LEN,
    INGEST_TREES_KIND,
};
use sketchtree_core::concurrent::SharedSketchTree;
use sketchtree_core::sketchtree::SketchTreeConfig;
use sketchtree_core::snapshot::{read_snapshot, write_snapshot};
use sketchtree_wal::Wal;
use sketchtree_standing::{QueryCache, QueryMode, QuerySpec};
use sketchtree_tree::{LabelTable, Tree};
use sketchtree_xml::XmlTreeBuilder;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads (= concurrently served connections).
    pub workers: usize,
    /// Largest accepted frame payload, bytes.
    pub max_frame: u32,
    /// Per-read socket timeout; also the idle/shutdown poll tick.
    pub read_timeout: Duration,
    /// Close a connection that has sent no complete frame for this long.
    /// Workers serve one connection at a time, so without this bound
    /// `workers` quiet-but-open clients would starve everyone else; a
    /// well-behaved client reconnects transparently on its next request.
    pub idle_timeout: Duration,
    /// Where to persist checkpoints; `None` disables persistence.
    pub checkpoint_path: Option<PathBuf>,
    /// Periodic checkpoint interval; `None` checkpoints only on shutdown
    /// or explicit `Snapshot` requests.
    pub checkpoint_interval: Option<Duration>,
    /// Synopsis configuration for a fresh start.  Ignored when a
    /// checkpoint exists at `checkpoint_path` — the restored synopsis
    /// keeps the configuration it was built with, since sketch state is
    /// meaningless under a different geometry or seed.
    pub sketch: SketchTreeConfig,
    /// Bind address for the HTTP metrics endpoint (`/metrics`,
    /// `/metrics.json`, `/healthz`); `None` disables it.  Metrics are
    /// always collected and always available over the SKTP `Metrics`
    /// opcode — this only controls the scrape listener.
    pub metrics_addr: Option<SocketAddr>,
    /// Outbound push queue depth per subscribed connection, in *epochs*:
    /// each queued item holds all of one batch's `EstimateUpdate`s for
    /// that connection.  A connection whose queue is full when a batch
    /// broadcasts has all its subscriptions evicted rather than waited
    /// for, so one stalled dashboard cannot wedge ingest (see
    /// `docs/wire-protocol.md` on push delivery).
    pub push_queue: usize,
    /// Cap on live subscriptions per connection; `Subscribe` past the cap
    /// answers an error frame.
    pub max_subscriptions_per_conn: usize,
    /// Write-ahead log of ingest batches; `None` disables it.  With a
    /// log configured every ingest batch is appended (and group-commit
    /// fsynced) *before* it is acked, startup replays the tail past the
    /// last checkpoint, and each successful checkpoint rotates the log —
    /// so a crash loses nothing durably acked.  See [`crate::durability`].
    pub wal: Option<WalConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            max_frame: DEFAULT_MAX_FRAME,
            read_timeout: Duration::from_millis(200),
            idle_timeout: Duration::from_secs(60),
            checkpoint_path: None,
            checkpoint_interval: None,
            sketch: SketchTreeConfig::default(),
            metrics_addr: None,
            push_queue: 64,
            max_subscriptions_per_conn: 1024,
            wal: None,
        }
    }
}

/// A running server; dropping it (or calling [`Server::shutdown`]) stops
/// all threads.
pub struct Server {
    addr: SocketAddr,
    shared: SharedSketchTree,
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    checkpoint: Arc<Checkpoint>,
    metrics: Arc<ServerMetrics>,
    metrics_http: Option<MetricsHttp>,
    subs: Arc<Subscriptions>,
}

/// Checkpoint target shared by the workers, the periodic thread and the
/// server handle.  The mutex serializes entire checkpoints (state read,
/// temp-file write, rename) — concurrent callers share one temp path, and
/// unserialized interleaving could publish a partially-written or stale
/// snapshot.
struct Checkpoint {
    path: Option<PathBuf>,
    lock: Mutex<()>,
    /// The WAL commit lock, shared with the ingest path.  A checkpoint
    /// holds it across the state read so it only ever observes
    /// batch-boundary state (never half of a chunked `ingest_batch`,
    /// which replay would then double-count), and across the rotation so
    /// no append lands between snapshot and truncate.
    wal: Option<Arc<Mutex<Wal>>>,
}

impl Server {
    /// Binds `addr` (port 0 picks an ephemeral port) and starts serving.
    ///
    /// If `config.checkpoint_path` names an existing snapshot the synopsis
    /// is restored from it; otherwise a fresh synopsis is built from
    /// `config.sketch`.
    pub fn start(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<Server> {
        let metrics = ServerMetrics::new();
        // Recovery state machine: clean stale temp files, restore (or
        // quarantine) the checkpoint, repair the WAL's torn tail, replay
        // frames past the checkpoint's cursor.  See crate::durability.
        let (mut st, wal, _report) = durability::recover(
            config.checkpoint_path.as_deref(),
            config.wal.as_ref(),
            &config.sketch,
            &metrics,
        )?;
        let wal = wal.map(|w| Arc::new(Mutex::new(w)));
        st.attach_metrics(metrics.core.clone());
        let shared = SharedSketchTree::new(st);
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut threads = Vec::new();

        let workers = config.workers.max(1);
        let (tx, rx) = sync_channel::<TcpStream>(workers * 2);
        let rx = Arc::new(Mutex::new(rx));
        let checkpoint = Arc::new(Checkpoint {
            path: config.checkpoint_path.clone(),
            lock: Mutex::new(()),
            wal: wal.clone(),
        });
        let subs = Arc::new(Subscriptions::new(
            metrics.clone(),
            config.max_subscriptions_per_conn,
        ));
        let ctx = Arc::new(Ctx {
            shared: shared.clone(),
            shutdown: shutdown.clone(),
            addr,
            max_frame: config.max_frame,
            idle_timeout: config.idle_timeout,
            checkpoint: checkpoint.clone(),
            metrics: metrics.clone(),
            subs: subs.clone(),
            cache: QueryCache::default(),
            next_conn: AtomicU64::new(0),
            push_queue: config.push_queue.max(1),
            wal,
        });
        for _ in 0..workers {
            let rx = rx.clone();
            let ctx = ctx.clone();
            threads.push(std::thread::spawn(move || worker_loop(&rx, &ctx)));
        }

        let read_timeout = config.read_timeout;
        {
            let shutdown = shutdown.clone();
            threads.push(std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let _ = stream.set_read_timeout(Some(read_timeout));
                    let _ = stream.set_nodelay(true);
                    if tx.send(stream).is_err() {
                        break;
                    }
                }
                // tx drops here; idle workers see a closed channel and exit.
            }));
        }

        if let (Some(interval), Some(_)) = (config.checkpoint_interval, &config.checkpoint_path) {
            let ctx = ctx.clone();
            threads.push(std::thread::spawn(move || {
                let tick = Duration::from_millis(50);
                let mut last = Instant::now();
                while !ctx.shutdown.load(Ordering::SeqCst) {
                    std::thread::sleep(tick);
                    if last.elapsed() >= interval {
                        let _ = checkpoint_now(&ctx.shared, &ctx.checkpoint, &ctx.metrics);
                        last = Instant::now();
                    }
                }
            }));
        }

        let metrics_http = match config.metrics_addr {
            Some(maddr) => Some(MetricsHttp::start(maddr, metrics.clone(), shared.clone())?),
            None => None,
        };

        Ok(Server {
            addr,
            shared,
            shutdown,
            threads,
            checkpoint,
            metrics,
            metrics_http,
            subs,
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared synopsis this server fronts (same handle the workers
    /// use — in-process callers may ingest or query directly).
    ///
    /// Standing-query pushes are sent by the wire handlers, after each
    /// `Ingested` or `MergeDone` ack: an in-process `ingest_batch` or
    /// `merge` pushes nothing by itself, and subscribers first see its
    /// effect in the update for the next wire ingest or merge, at that
    /// later epoch.
    pub fn shared(&self) -> &SharedSketchTree {
        &self.shared
    }

    /// Writes a checkpoint now; returns the snapshot size in bytes.
    pub fn checkpoint(&self) -> io::Result<u64> {
        checkpoint_now(&self.shared, &self.checkpoint, &self.metrics)
    }

    /// The server's metric set (same instance the workers update).
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// The standing-query subscription table (same instance the workers
    /// use — for tests and in-process introspection).
    pub fn subscriptions(&self) -> &Subscriptions {
        &self.subs
    }

    /// The bound address of the HTTP metrics endpoint, when enabled
    /// (resolved port when `metrics_addr` asked for port 0).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_http.as_ref().map(MetricsHttp::addr)
    }

    /// Blocks until a shutdown is requested (via [`Server::shutdown`],
    /// drop, or a `Shutdown` frame from any client).
    pub fn wait(&self) {
        while !self.shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// Stops accepting, drains workers, writes a final checkpoint.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.stop();
        if self.checkpoint.path.is_some() {
            checkpoint_now(&self.shared, &self.checkpoint, &self.metrics)?;
        }
        Ok(())
    }

    /// Stops all threads *without* the shutdown checkpoint, simulating a
    /// crash for durability tests: a subsequent restart sees exactly
    /// what a power cut would have left — the last published checkpoint
    /// plus whatever the write-ahead log holds.
    pub fn abort(mut self) {
        self.stop();
        // Drop sees an already-stopped server (threads drained) and
        // skips its checkpoint, so nothing gets persisted past here.
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // The accept loop blocks in accept(); a self-connection wakes it
        // so it can observe the flag.
        let _ = TcpStream::connect(self.addr);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        if let Some(http) = &mut self.metrics_http {
            http.stop();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            self.stop();
            let _ = checkpoint_now(&self.shared, &self.checkpoint, &self.metrics);
        }
    }
}

/// State shared by all worker threads.
struct Ctx {
    shared: SharedSketchTree,
    shutdown: Arc<AtomicBool>,
    addr: SocketAddr,
    max_frame: u32,
    idle_timeout: Duration,
    checkpoint: Arc<Checkpoint>,
    metrics: Arc<ServerMetrics>,
    subs: Arc<Subscriptions>,
    /// Epoch-keyed memo for ad-hoc `Count`/`Expr` requests: repeated
    /// dashboard queries between batches are one hash lookup.
    cache: QueryCache,
    /// Connection id allocator — subscription ownership is keyed on it.
    next_conn: AtomicU64,
    push_queue: usize,
    /// Write-ahead log + commit lock; `None` when durability is off.
    /// Held across append + apply so the ack order matches the log order
    /// and checkpoints only observe batch boundaries.
    wal: Option<Arc<Mutex<Wal>>>,
}

fn worker_loop(rx: &Mutex<Receiver<TcpStream>>, ctx: &Ctx) {
    loop {
        // Hold the receiver lock only for the dequeue, not the whole
        // connection.
        // lint:allow(L7, reason = "handoff by design: an idle worker must block in recv(), and the mutex is held for exactly that dequeue — connection handling happens after release")
        let conn = rx.lock().unwrap_or_else(|e| e.into_inner()).recv();
        match conn {
            Ok(stream) => serve_connection(stream, ctx),
            Err(_) => break, // accept loop gone
        }
    }
}

/// The lazily-started push side of one connection: a bounded queue of
/// epochs whose receiver is drained by a dedicated thread writing
/// `EstimateUpdate` frames through the connection's shared writer.
struct Pusher {
    tx: SyncSender<EpochUpdates>,
    thread: JoinHandle<()>,
}

impl Pusher {
    /// Spawns the drain thread.  It exits when every sender is gone —
    /// the connection handler's handle plus the subscription table's
    /// clone, all dropped during teardown — or when a write fails
    /// (peer gone or write timeout), after which broadcasts see a
    /// disconnected queue and evict the subscriptions.
    fn spawn(writer: Arc<Mutex<TcpStream>>, ctx: &Ctx) -> Pusher {
        let (tx, rx) = sync_channel::<EpochUpdates>(ctx.push_queue);
        let metrics = ctx.metrics.clone();
        let thread = std::thread::spawn(move || {
            // One buffer for the connection's lifetime: each epoch is
            // encoded into it as back-to-back standalone frames, then
            // written with one call.
            let mut buf = Vec::new();
            while let Ok(updates) = rx.recv() {
                buf.clear();
                for update in &updates {
                    if update.encode_frame_into(&mut buf).is_err() {
                        return;
                    }
                }
                let mut w = writer.lock().unwrap_or_else(|e| e.into_inner());
                // lint:allow(L7, reason = "the socket write must serialize under the per-connection writer mutex for frame atomicity with the response path; assembly already happened outside it")
                let wrote = w.write_all(&buf).and_then(|()| w.flush());
                drop(w);
                if wrote.is_err() {
                    return;
                }
                metrics.frames_out.add(updates.len() as u64);
                metrics.bytes_out.add(buf.len() as u64);
            }
        });
        Pusher { tx, thread }
    }
}

fn serve_connection(stream: TcpStream, ctx: &Ctx) {
    let _guard = ConnectionGuard::open(&ctx.metrics);
    let conn = ctx.next_conn.fetch_add(1, Ordering::Relaxed) + 1;
    // Reads stay on the original stream; all writes (responses and
    // pushed updates alike) go through a cloned handle behind a mutex so
    // the response path and the pusher thread can never interleave
    // bytes of two frames.  The write timeout bounds how long a wedged
    // peer can hold that mutex.
    let writer = match stream.try_clone() {
        Ok(w) => {
            let _ = w.set_write_timeout(Some(ctx.idle_timeout));
            Arc::new(Mutex::new(w))
        }
        Err(_) => return,
    };
    let mut reader = stream;
    let mut push: Option<Pusher> = None;
    let mut last_activity = Instant::now();
    loop {
        if ctx.shutdown.load(Ordering::SeqCst) {
            break;
        }
        // Patience = `idle_timeout`: a peer mid-frame may stall for up to
        // one idle interval between bytes without being disconnected, so
        // slow ingesters trickling a large batch see backpressure (their
        // writes just take longer) rather than a reset.  A wedged peer
        // still frees the worker after `idle_timeout` without progress.
        match read_frame_patient(&mut reader, ctx.max_frame, ctx.idle_timeout) {
            Ok(Frame::Eof) => break,
            Ok(Frame::Idle) => {
                // A subscribed connection is *expected* to go quiet —
                // it reads pushes instead of sending requests — so the
                // idle close only applies while nothing is subscribed.
                if last_activity.elapsed() >= ctx.idle_timeout
                    && !ctx.subs.connection_active(conn)
                {
                    ctx.metrics.idle_closes.inc();
                    break; // free the worker for a queued connection
                }
                continue;
            }
            Ok(Frame::Msg { kind, payload }) => {
                last_activity = Instant::now();
                let started = Instant::now();
                ctx.metrics.frames_in.inc();
                ctx.metrics.bytes_in.add((HEADER_LEN + payload.len()) as u64);
                // Frame boundaries are intact even when the payload is
                // malformed, so payload errors answer and keep the
                // connection; only header-level failures desynchronize.
                // The ingest hot path decodes zero-copy: label names stay
                // borrowed from the read buffer all the way into the
                // global intern call, skipping one `String` allocation per
                // label per batch, and the write-ahead log appends the
                // received payload unchanged.  Every other kind takes the
                // owned `Request` route.
                let resp = if kind == INGEST_TREES_KIND {
                    match decode_ingest_trees(&payload) {
                        Ok((labels, trees)) => handle_ingest(ctx, &labels, trees, Some(&payload)),
                        Err(e) => Response::Error(format!("bad request: {e}")),
                    }
                } else {
                    match Request::decode(kind, &payload) {
                        // Subscription frames need the connection's
                        // identity and push queue, so they resolve here
                        // rather than in the stateless handle_request.
                        Ok(Request::Subscribe { mode, query }) => {
                            handle_subscribe(ctx, conn, mode, &query, &writer, &mut push)
                        }
                        Ok(Request::Unsubscribe { id }) => {
                            if ctx.subs.unsubscribe(conn, id) {
                                Response::Unsubscribed
                            } else {
                                Response::Error(format!("unknown subscription id {id}"))
                            }
                        }
                        Ok(req) => handle_request(req, ctx),
                        Err(e) => Response::Error(format!("bad request: {e}")),
                    }
                };
                if matches!(resp, Response::Error(_)) {
                    ctx.metrics.error_responses.inc();
                }
                let done = matches!(resp, Response::ShuttingDown);
                let sent = write_response(&writer, &resp, ctx);
                ctx.metrics.observe_request(kind, started.elapsed());
                // Standing-query push, after the ack: evaluate every
                // registered query under one read lock and tag each update
                // with the epoch it saw.  The batch is applied even when
                // the ack write failed, so the push runs either way.
                if matches!(resp, Response::Ingested { .. } | Response::MergeDone { .. }) {
                    ctx.shared.read(|st| ctx.subs.broadcast(st));
                }
                if !sent || done {
                    break;
                }
            }
            Err(e) => {
                let msg = match &e {
                    WireError::Io(_) => None, // peer is gone; nothing to tell it
                    other => Some(format!("protocol error: {other}")),
                };
                if let Some(msg) = msg {
                    ctx.metrics.error_responses.inc();
                    write_response(&writer, &Response::Error(msg), ctx);
                }
                break;
            }
        }
    }
    // Teardown, on every exit path: reap this connection's subscriptions
    // (dropping the table's sender clones), then drop our own sender so
    // the pusher's receive loop ends, then join it.  The join is bounded
    // because pusher writes carry a write timeout.
    ctx.subs.drop_connection(conn);
    if let Some(p) = push.take() {
        drop(p.tx);
        let _ = p.thread.join();
    }
}

/// Resolves a `Subscribe` frame: validate the query, make sure this
/// connection has a pusher, register the subscription, and answer with
/// the id and the epoch the first update will supersede.
fn handle_subscribe(
    ctx: &Ctx,
    conn: u64,
    mode: SubscribeMode,
    query: &str,
    writer: &Arc<Mutex<TcpStream>>,
    push: &mut Option<Pusher>,
) -> Response {
    let mode = match mode {
        SubscribeMode::Ordered => QueryMode::Ordered,
        SubscribeMode::Unordered => QueryMode::Unordered,
        SubscribeMode::Expr => QueryMode::Expr,
    };
    let spec = match QuerySpec::parse(mode, query) {
        Ok(spec) => spec,
        Err(e) => return Response::Error(format!("subscribe: {e}")),
    };
    let tx = match push {
        Some(p) => p.tx.clone(),
        None => {
            let p = Pusher::spawn(writer.clone(), ctx);
            let tx = p.tx.clone();
            *push = Some(p);
            tx
        }
    };
    match ctx.subs.subscribe(conn, spec, tx) {
        Ok(id) => Response::Subscribed { id, epoch: ctx.shared.epoch() },
        Err(e) => Response::Error(format!("subscribe: {e}")),
    }
}

/// Writes one response frame through the connection's shared writer,
/// counting the frame and its bytes (header included) on success.
/// Returns `false` when the write failed and the connection should close.
fn write_response(writer: &Mutex<TcpStream>, resp: &Response, ctx: &Ctx) -> bool {
    // Frame assembly stays outside the writer mutex — only the socket
    // write itself needs to serialize against the pusher thread.
    let mut frame = Vec::new();
    if resp.encode_frame_into(&mut frame).is_err() {
        return false;
    }
    let mut stream = writer.lock().unwrap_or_else(|e| e.into_inner());
    // lint:allow(L7, reason = "the socket write must serialize under the per-connection writer mutex for frame atomicity with the pusher thread; assembly already happened outside it")
    let wrote = stream.write_all(&frame).and_then(|()| stream.flush());
    drop(stream);
    if wrote.is_err() {
        return false;
    }
    ctx.metrics.frames_out.inc();
    ctx.metrics.bytes_out.add(frame.len() as u64);
    true
}

fn handle_request(req: Request, ctx: &Ctx) -> Response {
    match req {
        Request::Ping => Response::Pong,
        Request::IngestXml(docs) => match parse_documents(&docs) {
            Ok((local, trees)) => {
                let names: Vec<&str> = local.iter().map(|(_, name)| name).collect();
                handle_ingest(ctx, &names, trees, None)
            }
            Err(e) => Response::Error(e),
        },
        Request::IngestTrees { labels, trees } => {
            let labels: Vec<&str> = labels.iter().map(String::as_str).collect();
            handle_ingest(ctx, &labels, trees, None)
        }
        Request::Count { unordered, pattern } => {
            let mode = if unordered { QueryMode::Unordered } else { QueryMode::Ordered };
            let result = match QuerySpec::parse(mode, &pattern) {
                Ok(spec) => cached_estimate(ctx, &spec),
                // Unparseable patterns still go through the synopsis so
                // the core query/error counters see them; the core parser
                // produces the same `query parse error: …` text.
                Err(_) => ctx.shared.read(|st| {
                    if unordered {
                        st.count_unordered(&pattern).map_err(|e| e.to_string())
                    } else {
                        st.count_ordered(&pattern).map_err(|e| e.to_string())
                    }
                }),
            };
            match result {
                Ok(v) => Response::Estimate(v),
                Err(e) => Response::Error(format!("{pattern}: {e}")),
            }
        }
        Request::Expr(text) => match QuerySpec::parse(QueryMode::Expr, &text) {
            Ok(spec) => match cached_estimate(ctx, &spec) {
                Ok(v) => Response::Estimate(v),
                Err(e) => Response::Error(format!("estimate: {e}")),
            },
            Err(e) => Response::Error(format!("expression: {e}")),
        },
        Request::Stats => ctx.shared.read(|s| {
            let c = s.config();
            Response::Stats(Stats {
                trees_processed: s.trees_processed(),
                patterns_processed: s.patterns_processed(),
                labels: s.labels().len() as u64,
                memory_bytes: s.memory_bytes() as u64,
                max_pattern_edges: c.max_pattern_edges as u64,
                s1: c.synopsis.s1 as u64,
                s2: c.synopsis.s2 as u64,
                virtual_streams: c.synopsis.virtual_streams as u64,
                topk: c.synopsis.topk as u64,
            })
        }),
        Request::HeavyHitters { limit } => Response::HeavyHitters(
            ctx.shared
                .read(|s| s.tracked_heavy_hitters())
                .into_iter()
                .take(limit as usize)
                .collect(),
        ),
        Request::Snapshot => match checkpoint_now(&ctx.shared, &ctx.checkpoint, &ctx.metrics) {
            Ok(bytes) => Response::SnapshotDone { bytes },
            Err(e) => Response::Error(format!("checkpoint: {e}")),
        },
        Request::MergeSnapshot(bytes) => {
            match read_snapshot(&bytes) {
                Ok(shard) => match ctx.shared.merge(&shard) {
                    Ok(()) => {
                        ctx.metrics.merges.inc();
                        ctx.metrics.merge_bytes.add(bytes.len() as u64);
                        let (total_trees, total_patterns) = ctx
                            .shared
                            .read(|st| (st.trees_processed(), st.patterns_processed()));
                        Response::MergeDone { total_trees, total_patterns }
                    }
                    Err(e) => Response::Error(format!("merge: {e}")),
                },
                Err(e) => Response::Error(format!("merge: {e}")),
            }
        }
        Request::Metrics { json } => {
            ctx.metrics.refresh_health(&ctx.shared);
            Response::Metrics(ctx.metrics.render(json))
        }
        Request::Shutdown => {
            ctx.shutdown.store(true, Ordering::SeqCst);
            // Wake the accept loop so it observes the flag.
            let _ = TcpStream::connect(ctx.addr);
            Response::ShuttingDown
        }
        // Subscription frames carry connection identity and are resolved
        // in the connection loop before this dispatcher is reached.
        Request::Subscribe { .. } | Request::Unsubscribe { .. } => {
            Response::Error("subscription frames are handled per connection".into())
        }
    }
}

/// Answers an ad-hoc `Count`/`Expr` through the epoch-keyed cache.  The
/// epoch read, the lookup, the computation and the insert all happen
/// inside one shared-read scope, so a concurrent ingest cannot slip a
/// stale value in under a newer epoch.  Only successes are cached —
/// errors are cheap to rediscover and may heal as the stream evolves.
fn cached_estimate(ctx: &Ctx, spec: &QuerySpec) -> Result<f64, String> {
    let key = spec.key();
    ctx.shared.read(|st| {
        let epoch = st.epoch();
        if let Some(v) = ctx.cache.lookup(&key, epoch) {
            ctx.metrics.cache_hits.inc();
            return Ok(v);
        }
        ctx.metrics.cache_misses.inc();
        let computed = match spec.mode() {
            QueryMode::Ordered => st.count_ordered(spec.text()).map_err(|e| e.to_string()),
            QueryMode::Unordered => st.count_unordered(spec.text()).map_err(|e| e.to_string()),
            QueryMode::Expr => {
                // lint:allow(L1, reason = "QuerySpec::parse always stores the parsed expression for Expr specs")
                let expr = spec.expr().expect("expr specs carry their parse");
                st.estimate(expr).map_err(|e| e.to_string())
            }
        };
        if let Ok(v) = computed {
            ctx.cache.insert(key.clone(), epoch, v);
        }
        computed
    })
}

/// Parses a document batch against a *local* label table — no lock held.
fn parse_documents(docs: &[String]) -> Result<(LabelTable, Vec<Tree>), String> {
    let mut local = LabelTable::new();
    let mut builder = XmlTreeBuilder::default();
    let mut trees = Vec::with_capacity(docs.len());
    for (i, doc) in docs.iter().enumerate() {
        let tree = builder
            .parse_document(doc, &mut local)
            .map_err(|e| format!("document {i}: {e}"))?;
        trees.push(tree);
    }
    Ok((local, trees))
}

/// The server's one ingest path, for `IngestTrees` and `IngestXml` alike,
/// with the write-ahead log on or off.  Node labels index `labels`
/// *positionally* (duplicate names are legal on the wire); `received` is
/// the `IngestTrees` payload the batch was decoded from, when it came
/// that way.
///
/// With a log, the batch is appended first — the received payload as
/// is, or else its `IngestTrees` encoding — and the WAL mutex, which is
/// the commit lock, stays held through apply and `set_wal_seq`, so the
/// ack order equals the log order and a checkpoint never captures half a
/// batch.  If the append fails the batch is *not* applied and the client
/// gets an error: an unlogged batch must never be acked.  Then the
/// labels are interned under one `with_labels`, the trees relabeled in
/// place and the batch ingested.
fn handle_ingest(ctx: &Ctx, labels: &[&str], mut trees: Vec<Tree>, received: Option<&[u8]>) -> Response {
    // Recovery decodes every logged frame with the wire decoder, so a
    // batch that did not arrive as `IngestTrees` (an XML batch can hold
    // more than 2^20 distinct labels) must fit that payload's caps, or
    // replay would refuse it and truncate acked data.  Checked with the
    // log on or off, so both refuse the same batches.
    let encoded;
    let payload: &[u8] = match received {
        Some(payload) => payload,
        None => {
            let checked = match ctx.wal {
                Some(_) => encode_ingest_trees(labels, &trees),
                None => check_ingest_trees(labels.len(), &trees).map(|()| Vec::new()),
            };
            match checked {
                Ok(bytes) => {
                    encoded = bytes;
                    &encoded
                }
                Err(e) => {
                    return Response::Error(format!(
                        "bad request: {e}: a batch holds at most 2^20 labels, 2^20 trees and 2^24 nodes per tree"
                    ))
                }
            }
        }
    };
    let mut wal_guard = ctx.wal.as_ref().map(|wal| wal.lock().unwrap_or_else(|e| e.into_inner()));
    let mut seq = None;
    if let Some(wal) = wal_guard.as_deref_mut() {
        let started = Instant::now();
        // lint:allow(L7, reason = "log-before-ack by design: the WAL mutex is the commit lock, and the append must complete under it so acks follow durable log order; queries never touch this lock")
        let appended = match wal.append(payload) {
            Ok(a) => a,
            Err(e) => return Response::Error(format!("wal append: {e}")),
        };
        ctx.metrics.wal_appends.inc();
        ctx.metrics.wal_bytes.add(appended.bytes);
        if appended.synced {
            ctx.metrics.wal_fsyncs.inc();
            ctx.metrics.wal_fsync_seconds.observe_duration(started.elapsed());
        }
        ctx.metrics.wal_size.set(wal.size_bytes() as f64);
        seq = Some(appended.seq);
    }
    ctx.shared.with_labels(|global| durability::intern_and_relabel(global, labels, &mut trees));
    let (batch_trees, batch_patterns) = ctx.shared.ingest_batch(&trees);
    if let Some(seq) = seq {
        // Only now is the batch both logged and fully applied; a
        // checkpoint taken before this line replays the frame, one after
        // skips it.
        ctx.shared.set_wal_seq(seq);
    }
    // Both totals from one state, so a concurrent batch cannot land
    // between the two reads.
    let (total_trees, total_patterns) =
        ctx.shared.read(|st| (st.trees_processed(), st.patterns_processed()));
    drop(wal_guard);
    Response::Ingested {
        trees: batch_trees,
        patterns: batch_patterns,
        total_trees,
        total_patterns,
    }
}

/// Atomic, durable checkpoint: snapshot under the shared lock, write +
/// `sync_all` a temp file beside the target, rename into place, fsync
/// the parent directory, then rotate the WAL.  Serialized end to end by
/// `ck.lock` so a periodic checkpoint and a client `Snapshot` request can
/// never interleave on the temp file or publish out of order.
fn checkpoint_now(
    shared: &SharedSketchTree,
    ck: &Checkpoint,
    metrics: &ServerMetrics,
) -> io::Result<u64> {
    let started = Instant::now();
    let result = checkpoint_inner(shared, ck, metrics);
    match &result {
        Ok(bytes) => {
            metrics.checkpoints.inc();
            metrics.checkpoint_seconds.observe_duration(started.elapsed());
            metrics.checkpoint_bytes.set(*bytes as f64);
        }
        // "No path configured" is a configuration state, not a failed
        // write — the shutdown path probes unconditionally.
        Err(e) if e.kind() != io::ErrorKind::Unsupported => {
            metrics.checkpoint_errors.inc();
        }
        Err(_) => {}
    }
    result
}

fn checkpoint_inner(
    shared: &SharedSketchTree,
    ck: &Checkpoint,
    metrics: &ServerMetrics,
) -> io::Result<u64> {
    let Some(path) = &ck.path else {
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "no checkpoint path configured",
        ));
    };
    let _guard = ck.lock.lock().unwrap_or_else(|e| e.into_inner());
    // Take the WAL commit lock (lock order: ck.lock → wal → synopsis
    // read, matching the ingest path's wal → synopsis) so the snapshot
    // observes a batch boundary and the rotation below cannot race an
    // append that the snapshot didn't capture.
    let mut wal_guard = ck
        .wal
        .as_ref()
        .map(|wal| wal.lock().unwrap_or_else(|e| e.into_inner()));
    let bytes = shared.read(write_snapshot);
    let tmp = path.with_extension("tmp");
    {
        // Write + fsync the temp file *before* the rename: rename is
        // atomic in the namespace but says nothing about the data —
        // without sync_all a crash can publish a name pointing at
        // unwritten blocks (the bug this module's tests pin).
        // lint:allow(L7, reason = "the checkpoint mutex exists precisely to serialize this I/O; it is never taken on a query path")
        let mut f = std::fs::File::create(&tmp)?;
        // lint:allow(L7, reason = "the checkpoint mutex exists precisely to serialize this I/O; it is never taken on a query path")
        f.write_all(&bytes)?;
        // lint:allow(L7, reason = "durability requires the fsync inside the checkpoint critical section; the mutex is never taken on a query path")
        f.sync_all()?;
    }
    // lint:allow(L7, reason = "the checkpoint mutex exists precisely to serialize this I/O; it is never taken on a query path")
    std::fs::rename(&tmp, path)?;
    // The rename itself is only durable once the directory entry is.
    // lint:allow(L7, reason = "the directory fsync must precede the WAL rotation below, so it belongs inside the same critical section; the mutex is never taken on a query path")
    sketchtree_wal::fsync_parent_dir(path)?;
    if let Some(wal) = wal_guard.as_deref_mut() {
        // Every logged batch the snapshot covers is now durably
        // published; the log can rotate.  Sequence numbers keep
        // counting up, so the snapshot's cursor stays unambiguous.
        wal.truncate_all()?;
        metrics.wal_truncations.inc();
        metrics.wal_size.set(wal.size_bytes() as f64);
    }
    Ok(bytes.len() as u64)
}
