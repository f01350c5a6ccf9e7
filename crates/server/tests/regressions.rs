//! Regression tests for server hardening: hostile-but-legal wire input
//! (duplicate batch labels), checkpoint serialization under concurrent
//! snapshot requests, and the idle-connection timeout.

use sketchtree_core::sketchtree::SketchTreeConfig;
use sketchtree_server::wire::{frame_bytes, read_frame, write_frame, Frame, Request, Response};
use sketchtree_server::{Client, Server, ServerConfig, ServerMetrics, SubscribeMode, Subscriptions};
use sketchtree_sketch::SynopsisConfig;
use sketchtree_standing::{QueryMode, QuerySpec};
use sketchtree_tree::{Label, Tree};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn config(seed: u64) -> SketchTreeConfig {
    SketchTreeConfig {
        max_pattern_edges: 2,
        synopsis: SynopsisConfig {
            s1: 40,
            s2: 5,
            virtual_streams: 31,
            topk: 8,
            seed,
            ..SynopsisConfig::default()
        },
        ..SketchTreeConfig::default()
    }
}

/// Duplicate names in an `IngestTrees` batch label table are legal on the
/// wire (node labels are positional indices).  They must neither panic a
/// worker nor shift later indices onto the wrong name.
#[test]
fn duplicate_batch_labels_ingest_correctly() {
    // Batch with duplicates: indices 0 and 1 are both "a", index 2 is
    // "b".  Referencing index 1 used to panic (out-of-bounds remap) and
    // referencing index 2 used to silently resolve to the wrong label.
    let dup_labels = vec!["a".to_string(), "a".to_string(), "b".to_string()];
    let dup_trees = vec![
        Tree::node(Label(0), vec![Tree::leaf(Label(2))]),
        Tree::node(Label(1), vec![Tree::leaf(Label(2))]),
    ];
    // The same stream spelled with a deduplicated table.
    let dedup_labels = vec!["a".to_string(), "b".to_string()];
    let dedup_trees = vec![
        Tree::node(Label(0), vec![Tree::leaf(Label(1))]),
        Tree::node(Label(0), vec![Tree::leaf(Label(1))]),
    ];

    let seed = 11;
    let dup_server = Server::start(
        "127.0.0.1:0",
        ServerConfig { sketch: config(seed), ..ServerConfig::default() },
    )
    .expect("server starts");
    let dedup_server = Server::start(
        "127.0.0.1:0",
        ServerConfig { sketch: config(seed), ..ServerConfig::default() },
    )
    .expect("server starts");

    let mut dup_client = Client::connect(dup_server.addr()).expect("connect");
    let summary = dup_client
        .ingest_trees(dup_labels, dup_trees)
        .expect("duplicate labels must ingest, not panic the worker");
    assert_eq!(summary.trees, 2);
    // The worker that served the batch must still be alive.
    dup_client.ping().expect("worker survived the batch");

    let mut dedup_client = Client::connect(dedup_server.addr()).expect("connect");
    dedup_client.ingest_trees(dedup_labels, dedup_trees).expect("ingest");

    // Same stream ⇒ same sketch state ⇒ bit-identical estimates.
    for q in ["a(b)", "a", "b"] {
        let dup = dup_client.count_ordered(q).expect("query");
        let dedup = dedup_client.count_ordered(q).expect("query");
        assert_eq!(dup.to_bits(), dedup.to_bits(), "{q}: {dup} != {dedup}");
    }

    dup_server.shutdown().expect("clean shutdown");
    dedup_server.shutdown().expect("clean shutdown");
}

/// Concurrent `Snapshot` requests racing the periodic checkpoint thread
/// must never publish a torn snapshot: a restart from the checkpoint has
/// to succeed with the full stream intact.
#[test]
fn concurrent_snapshots_leave_a_loadable_checkpoint() {
    let snap = {
        let mut p = std::env::temp_dir();
        p.push(format!("sketchtree-regr-ckpt-{}.bin", std::process::id()));
        p
    };
    std::fs::remove_file(&snap).ok();

    let seed = 23;
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            sketch: config(seed),
            checkpoint_path: Some(snap.clone()),
            checkpoint_interval: Some(Duration::from_millis(10)),
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.addr();

    let docs: Vec<String> =
        (0..64).map(|i| format!("<root><k{}>x</k{}></root>", i % 5, i % 5)).collect();
    let mut ingest_client = Client::connect(addr).expect("connect");
    ingest_client.ingest_xml(&docs).expect("ingest");

    // Hammer explicit snapshots from several threads while the periodic
    // thread keeps checkpointing on its own clock.
    let snappers: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                for _ in 0..20 {
                    let bytes = c.snapshot().expect("snapshot");
                    assert!(bytes > 0);
                }
            })
        })
        .collect();
    for t in snappers {
        t.join().expect("snapshot thread");
    }
    server.shutdown().expect("clean shutdown");

    // Whatever the race published, the file on disk must be a complete
    // snapshot of the full stream.
    let restarted = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            sketch: config(seed),
            checkpoint_path: Some(snap.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("restart from checkpoint must not see a torn file");
    let mut client = Client::connect(restarted.addr()).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.trees_processed, docs.len() as u64);

    restarted.shutdown().expect("clean shutdown");
    std::fs::remove_file(&snap).ok();
}

/// A connection that never sends a frame must be dropped after
/// `idle_timeout`, freeing its worker for queued connections.
#[test]
fn idle_connection_is_closed_and_frees_its_worker() {
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            read_timeout: Duration::from_millis(50),
            idle_timeout: Duration::from_millis(200),
            sketch: config(5),
            ..ServerConfig::default()
        },
    )
    .expect("server starts");

    // Occupy the only worker with a silent connection.
    let mut idle = TcpStream::connect(server.addr()).expect("idle connect");
    idle.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    // A real client behind it must still get served once the idle
    // connection times out.
    let start = Instant::now();
    let mut client = Client::connect(server.addr()).expect("connect");
    client.ping().expect("queued client is served after the idle drop");
    assert!(
        start.elapsed() < Duration::from_secs(8),
        "queued client waited {:?} behind an idle connection",
        start.elapsed()
    );

    // And the idle connection itself was closed by the server.
    let mut buf = [0u8; 1];
    match idle.read(&mut buf) {
        Ok(0) => {}
        other => panic!("idle connection should see EOF, got {other:?}"),
    }

    server.shutdown().expect("clean shutdown");
}

/// `subscribe` now registers with the query registry *before* taking the
/// table mutex (the two may never nest, per the documented lock order),
/// which means an over-cap subscription registers first and must roll the
/// registration back.  A leak here would pin a compiled plan — and its
/// per-batch evaluation cost — forever.
#[test]
fn subscription_cap_rejection_does_not_leak_a_registry_entry() {
    let subs = Subscriptions::new(ServerMetrics::new(), 1);
    let (tx, _rx) = std::sync::mpsc::sync_channel(4);
    let spec = |q: &str| QuerySpec::parse(QueryMode::Ordered, q).unwrap();

    let id = subs.subscribe(7, spec("a(b)"), tx.clone()).expect("first fits the cap");
    let err = subs
        .subscribe(7, spec("a(c)"), tx.clone())
        .expect_err("second subscription exceeds the cap");
    assert!(err.contains("cap"), "{err}");
    assert_eq!(subs.distinct_queries(), 1, "cap rejection leaked a compiled plan");
    assert_eq!(subs.active(), 1);

    // The cap is per-connection: another connection may subscribe to the
    // very query conn 7 was refused.
    let other = subs.subscribe(8, spec("a(c)"), tx).expect("cap is per-connection");
    assert_eq!(subs.distinct_queries(), 2);

    assert!(subs.unsubscribe(7, id));
    assert!(subs.unsubscribe(8, other));
    assert_eq!(subs.distinct_queries(), 0, "unsubscribe left a plan resident");
    assert_eq!(subs.active(), 0);
}

/// The pusher thread and the response path now assemble frames with
/// [`frame_bytes`] outside the shared-writer mutex and write one
/// contiguous buffer under it.  That buffer must be bit-identical to what
/// [`write_frame`] streams, and must round-trip through [`read_frame`].
#[test]
fn frame_bytes_matches_write_frame_and_round_trips() {
    let payload: Vec<u8> = (0..300u16).map(|i| (i % 251) as u8).collect();
    let built = frame_bytes(0x01, &payload).expect("frame assembles");
    let mut streamed = Vec::new();
    write_frame(&mut streamed, 0x01, &payload).expect("frame writes");
    assert_eq!(built, streamed, "pre-assembled frames must match the streaming writer");

    let mut cursor = std::io::Cursor::new(built);
    match read_frame(&mut cursor, 1 << 20).expect("frame parses") {
        Frame::Msg { kind, payload: got } => {
            assert_eq!(kind, 0x01);
            assert_eq!(got, payload);
        }
        other => panic!("expected a message frame, got {other:?}"),
    }
}

/// End-to-end over the PR 6 push path: a live subscription receives its
/// update through the pusher thread (whose drain loop was restructured to
/// hold the writer mutex only for the socket write), while the same
/// connection keeps issuing requests on the response path.  Interleaved
/// frames must stay individually intact.
#[test]
fn pushed_updates_interleave_with_responses_without_tearing_frames() {
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig { sketch: config(31), ..ServerConfig::default() },
    )
    .expect("server starts");

    let mut sub_client = Client::connect(server.addr()).expect("connect");
    let (sub_id, _epoch) =
        sub_client.subscribe(SubscribeMode::Ordered, "a(b)").expect("subscribe");

    let mut feeder = Client::connect(server.addr()).expect("connect");
    for round in 0..5 {
        feeder
            .ingest_xml(&["<a><b>x</b></a>".to_string()])
            .expect("ingest triggers a broadcast");
        let update = sub_client
            .next_update(Duration::from_secs(10))
            .expect("update frame arrives intact")
            .expect("update pushed within the timeout");
        assert_eq!(update.id, sub_id);
        let est = update.result.expect("query evaluates");
        assert!(est.is_finite(), "round {round}: pushed estimate {est:?}");
        // Response path on the same connection, racing the pusher for
        // the shared writer: the reply frame must parse cleanly too.
        sub_client.ping().expect("response path healthy between pushes");
    }

    sub_client.unsubscribe(sub_id).expect("unsubscribe");
    server.shutdown().expect("clean shutdown");
}

/// A peer that trickles a frame in pieces — each gap longer than the
/// server's socket `read_timeout` — must be answered, not disconnected.
/// Before `read_frame_patient`, the first mid-frame timeout surfaced as
/// `WireError::Truncated` and the server reset the connection, turning
/// backpressure on slow ingesters into an error.
#[test]
fn trickled_frame_is_served_not_disconnected() {
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            read_timeout: Duration::from_millis(50),
            idle_timeout: Duration::from_secs(5),
            sketch: config(41),
            ..ServerConfig::default()
        },
    )
    .expect("server starts");

    let mut frame = Vec::new();
    Request::IngestXml(vec!["<a><b>x</b></a>".to_string()])
        .write_to(&mut frame)
        .expect("frame encodes");

    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream.set_read_timeout(Some(Duration::from_millis(100))).unwrap();
    // Drip the frame out in thirds, stalling well past the server's
    // read_timeout between writes — mid-header and mid-payload.
    let third = frame.len() / 3;
    for chunk in [&frame[..5], &frame[5..5 + third], &frame[5 + third..]] {
        stream.write_all(chunk).expect("trickled write");
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(150));
    }

    let reply = loop {
        match read_frame(&mut stream, 1 << 20).expect("reply frame parses") {
            Frame::Msg { kind, payload } => {
                break Response::decode(kind, &payload).expect("reply decodes")
            }
            Frame::Idle => continue,
            Frame::Eof => panic!("server disconnected a slow-but-live ingester"),
        }
    };
    match reply {
        Response::Ingested { trees, .. } => assert_eq!(trees, 1),
        other => panic!("expected an ingest summary, got {other:?}"),
    }

    server.shutdown().expect("clean shutdown");
}

/// The server processes each connection's frames strictly in order, so a
/// client may pipeline several requests before reading any reply and must
/// get the replies back in send order.  Exercises the
/// `Client::send`/`Client::recv_reply` split API end to end.
#[test]
fn pipelined_requests_are_answered_in_send_order() {
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig { sketch: config(43), ..ServerConfig::default() },
    )
    .expect("server starts");

    let mut client = Client::connect(server.addr()).expect("connect");
    client
        .ingest_xml(&["<a><b>x</b></a>".to_string()])
        .expect("seed one tree so counts are nonzero");

    // A kind-distinguishable sequence: the reply types themselves prove
    // the ordering.
    let count = Request::Count { unordered: false, pattern: "a(b)".to_string() };
    let reqs =
        [Request::Ping, Request::Stats, count.clone(), Request::Ping, count, Request::Stats];
    for req in &reqs {
        client.send(req).expect("pipelined send");
    }
    for (i, req) in reqs.iter().enumerate() {
        let reply = client.recv_reply().expect("pipelined reply");
        let ok = matches!(
            (req, &reply),
            (Request::Ping, Response::Pong)
                | (Request::Stats, Response::Stats(_))
                | (Request::Count { .. }, Response::Estimate(_))
        );
        assert!(ok, "reply {i} out of order: sent {req:?}, got {reply:?}");
        if let Response::Estimate(v) = reply {
            assert!(v > 0.0, "seeded count came back {v}");
        }
    }

    server.shutdown().expect("clean shutdown");
}

/// Backpressure contract for flooding ingesters: a connection that
/// pipelines a long run of ingest batches without reading replies (a)
/// never loses or reorders an ack, (b) sees monotone totals, and (c)
/// cannot starve other connections, which keep getting served by the
/// rest of the worker pool.
#[test]
fn ingest_flood_is_backpressured_without_starving_other_connections() {
    const BATCHES: usize = 120;
    const DOCS_PER_BATCH: u64 = 10;

    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig { workers: 2, sketch: config(47), ..ServerConfig::default() },
    )
    .expect("server starts");

    // Flooder: writes every batch up front, reads nothing yet.  Replies
    // pile up in the socket buffers — that, plus the server reading one
    // frame at a time, is the backpressure bound.
    let mut flood = TcpStream::connect(server.addr()).expect("connect");
    flood.set_nodelay(true).unwrap();
    flood.set_read_timeout(Some(Duration::from_millis(100))).unwrap();
    let docs: Vec<String> =
        (0..DOCS_PER_BATCH).map(|i| format!("<a><b>x{i}</b></a>")).collect();
    let mut frame = Vec::new();
    Request::IngestXml(docs).write_to(&mut frame).expect("frame encodes");
    for _ in 0..BATCHES {
        flood.write_all(&frame).expect("flood write");
    }
    flood.flush().unwrap();

    // While the flood drains, a second connection must still be served
    // promptly by the other worker.
    let mut other = Client::connect(server.addr()).expect("connect");
    let start = Instant::now();
    for _ in 0..5 {
        other.ping().expect("other connection served during the flood");
    }
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "other connection starved for {:?} behind an ingest flood",
        start.elapsed()
    );

    // Drain all acks: exactly one per batch, in order, totals monotone.
    let mut last_total = 0u64;
    for batch in 0..BATCHES {
        let reply = loop {
            match read_frame(&mut flood, 1 << 20).expect("ack frame parses") {
                Frame::Msg { kind, payload } => {
                    break Response::decode(kind, &payload).expect("ack decodes")
                }
                Frame::Idle => continue,
                Frame::Eof => panic!("server dropped the flooder at batch {batch}"),
            }
        };
        match reply {
            Response::Ingested { trees, total_trees, .. } => {
                assert_eq!(trees, DOCS_PER_BATCH, "batch {batch}");
                assert!(
                    total_trees > last_total,
                    "batch {batch}: total went {last_total} -> {total_trees}"
                );
                last_total = total_trees;
            }
            other => panic!("batch {batch}: expected an ingest summary, got {other:?}"),
        }
    }
    assert_eq!(last_total, BATCHES as u64 * DOCS_PER_BATCH);

    server.shutdown().expect("clean shutdown");
}

/// Concurrent batch ingests broadcast concurrently (each handler's
/// broadcast runs under the *shared* read lock).  Before the broadcast gate in
/// `Subscriptions`, two racing broadcasts could interleave their
/// per-subscription enqueues and push epochs out of order — the loadgen
/// harness caught subscribers seeing epochs go backwards.  Epochs on one
/// subscription must be strictly increasing.
#[test]
fn concurrent_ingest_pushes_strictly_increasing_epochs() {
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig { workers: 6, sketch: config(47), ..ServerConfig::default() },
    )
    .expect("server starts");
    let addr = server.addr();

    let mut sub_client = Client::connect(addr).expect("connect");
    let (sub_id, _epoch) =
        sub_client.subscribe(SubscribeMode::Ordered, "a(b)").expect("subscribe");

    // Four connections hammer batches concurrently so broadcasts race.
    const FEEDERS: usize = 4;
    const BATCHES: usize = 25;
    let feeders: Vec<_> = (0..FEEDERS)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("feeder connects");
                for _ in 0..BATCHES {
                    c.ingest_xml(&[
                        "<a><b>x</b></a>".to_string(),
                        "<a><b>y</b><b>z</b></a>".to_string(),
                    ])
                    .expect("feeder batch");
                }
            })
        })
        .collect();

    let mut last_epoch = 0u64;
    let mut updates = 0u32;
    let deadline = Instant::now() + Duration::from_secs(20);
    while Instant::now() < deadline {
        match sub_client.next_update(Duration::from_millis(200)).expect("update path healthy") {
            Some(u) => {
                assert_eq!(u.id, sub_id);
                assert!(
                    u.epoch > last_epoch,
                    "epoch regressed: {last_epoch} then {}",
                    u.epoch
                );
                last_epoch = u.epoch;
                updates += 1;
            }
            None if feeders.iter().all(|h| h.is_finished()) => break,
            None => continue,
        }
    }
    for h in feeders {
        h.join().expect("feeder thread");
    }
    assert!(updates > 0, "no updates pushed at all");

    sub_client.unsubscribe(sub_id).expect("unsubscribe");
    server.shutdown().expect("clean shutdown");
}
