//! Crash-injection tests for the durability subsystem: power-cut
//! simulation over write-ahead-log truncation points, checkpoint
//! atomicity regressions, stale-temp-file cleanup, and the
//! corrupt-checkpoint quarantine path.
//!
//! The central property (`recovery_is_bit_identical_at_any_truncation_point`)
//! is the paper-level guarantee: whatever prefix of the log survives a
//! power cut, recover-on-start yields a synopsis *byte-identical* to one
//! that ingested exactly the surviving acked batches — reusing the
//! workspace's snapshot byte-parity machinery as the equality oracle.

use proptest::prelude::*;
use sketchtree_core::sketchtree::{SketchTree, SketchTreeConfig};
use sketchtree_core::snapshot::write_snapshot;
use sketchtree_server::durability::{recover, WalConfig};
use sketchtree_server::wire::{
    decode_ingest_trees, encode_ingest_trees, read_frame, write_frame, Frame, Request, Response,
    DEFAULT_MAX_FRAME,
};
use sketchtree_server::{Client, Server, ServerConfig, ServerMetrics};
use sketchtree_sketch::SynopsisConfig;
use sketchtree_tree::{Label, Tree, TreeBuilder};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

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

static CASE: AtomicU64 = AtomicU64::new(0);

/// Fresh per-test scratch directory (unique across parallel tests and
/// proptest cases).
fn scratch(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "sk-crash-{}-{tag}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&p).expect("create scratch dir");
    p
}

/// A deterministic stream of ingest batches with overlapping and
/// batch-private label names (so replay exercises interning order) and
/// varied tree shapes.
fn batches() -> Vec<(Vec<String>, Vec<Tree>)> {
    (0..6u32)
        .map(|i| {
            let labels = vec![
                "a".to_string(),
                format!("b{}", i % 3),
                format!("only{i}"),
            ];
            let trees = vec![
                Tree::node(Label(0), vec![Tree::leaf(Label(1)), Tree::leaf(Label(2))]),
                Tree::node(Label(1), vec![Tree::node(Label(0), vec![Tree::leaf(Label(2))])]),
                Tree::leaf(Label(2)),
            ];
            (labels, trees)
        })
        .collect()
}

/// Rebuilds `tree` with labels translated through `map` — a preorder
/// rebuild, independent of the server's in-place relabel, used to build
/// reference synopses.
fn remap(tree: &Tree, map: &[Label]) -> Tree {
    fn go(tree: &Tree, id: sketchtree_tree::NodeId, map: &[Label], b: &mut TreeBuilder) {
        b.open(map[tree.label(id).0 as usize]).expect("valid nesting");
        for &child in tree.children(id) {
            go(tree, child, map, b);
        }
        b.close().expect("valid nesting");
    }
    let mut b = TreeBuilder::new();
    go(tree, tree.root(), map, &mut b);
    b.finish().expect("complete tree")
}

/// Applies one batch to a reference synopsis exactly as the server's
/// ingest (and WAL replay) does: intern the batch labels in order, remap
/// positionally, ingest tree by tree.
fn apply(st: &mut SketchTree, labels: &[String], trees: &[Tree]) {
    let map: Vec<Label> = {
        let table = st.labels_mut();
        labels.iter().map(|name| table.intern(name)).collect()
    };
    for tree in trees {
        st.ingest(&remap(tree, &map));
    }
}

/// Reference synopsis after the first `n` batches, with the durability
/// cursor forced to `wal_seq` (the one field the WAL layer owns).
fn reference(seed: u64, n: usize, wal_seq: u64) -> SketchTree {
    let mut st = SketchTree::new(config(seed));
    for (labels, trees) in &batches()[..n] {
        apply(&mut st, labels, trees);
    }
    st.set_wal_seq(wal_seq);
    st
}

fn cleanup(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Power-cut simulation: a checkpoint covering the first
    /// `ckpt_after` batches, a WAL carrying the rest, and the WAL file
    /// cut at an arbitrary byte.  Recovery must (a) never error, (b)
    /// replay exactly the frames that survived whole, and (c) produce a
    /// synopsis byte-identical to ingesting exactly those batches.
    #[test]
    fn recovery_is_bit_identical_at_any_truncation_point(
        cut_ppm in 0u64..=1_000_000,
        ckpt_after in 0usize..=3,
    ) {
        let all = batches();
        let dir = scratch("trunc");
        let ckpt = dir.join("state.snap");
        let wal_path = dir.join("state.wal");

        // A durable checkpoint covering the first `ckpt_after` batches.
        let base = reference(7, ckpt_after, ckpt_after as u64);
        std::fs::write(&ckpt, write_snapshot(&base)).expect("write checkpoint");

        // The WAL holds the batches after the checkpoint.
        let (mut wal, _) = sketchtree_wal::Wal::open(&wal_path, 1).expect("open wal");
        wal.bump_seq_past(ckpt_after as u64);
        let mut ends = vec![sketchtree_wal::HEADER_LEN];
        for (labels, trees) in &all[ckpt_after..] {
            let payload =
                sketchtree_server::wire::encode_ingest_trees(labels, trees).expect("encode");
            wal.append(&payload).expect("append");
            ends.push(wal.size_bytes());
        }
        drop(wal);

        // Power cut: the file ends mid-anything.
        let full = std::fs::read(&wal_path).expect("read wal");
        let cut = ((full.len() as u64) * cut_ppm / 1_000_000) as usize;
        std::fs::write(&wal_path, &full[..cut]).expect("truncate wal");

        let metrics = ServerMetrics::new();
        let (st, repaired, report) = recover(
            Some(&ckpt),
            Some(&WalConfig::new(&wal_path)),
            &config(7),
            &metrics,
        )
        .expect("recovery never errors on a truncated tail");

        let cut64 = cut as u64;
        let survived = ends
            .iter()
            .filter(|&&e| e > sketchtree_wal::HEADER_LEN && e <= cut64)
            .count();
        prop_assert_eq!(report.replayed_batches as usize, survived);
        prop_assert_eq!(
            report.torn_tail,
            cut != 0 && !ends.contains(&cut64),
            "torn iff the cut missed a frame boundary (cut {})", cut
        );
        prop_assert_eq!(st.wal_seq(), (ckpt_after + survived) as u64);

        // The recovered synopsis is byte-identical to one that ingested
        // exactly the surviving acked prefix.
        let expect = reference(7, ckpt_after + survived, st.wal_seq());
        prop_assert_eq!(write_snapshot(&st), write_snapshot(&expect));

        // The repaired log continues the sequence with no gaps or reuse.
        let repaired = repaired.expect("wal configured");
        prop_assert_eq!(repaired.next_seq(), (ckpt_after + survived) as u64 + 1);
        drop(repaired);
        cleanup(&dir);
    }
}

/// Satellite regression: a garbage `<checkpoint>.tmp` from a simulated
/// mid-write crash must never become the live checkpoint — the real
/// checkpoint loads, and the stale temp file is removed.
#[test]
fn garbage_tmp_from_midwrite_crash_never_becomes_live() {
    let dir = scratch("tmp-garbage");
    let ckpt = dir.join("state.snap");
    let cfg = ServerConfig {
        checkpoint_path: Some(ckpt.clone()),
        sketch: config(3),
        ..ServerConfig::default()
    };

    let server = Server::start("127.0.0.1:0", cfg.clone()).expect("server starts");
    for (labels, trees) in &batches() {
        let map: Vec<Label> = server
            .shared()
            .with_labels(|g| labels.iter().map(|n| g.intern(n)).collect());
        let remapped: Vec<Tree> = trees.iter().map(|t| remap(t, &map)).collect();
        server.shared().ingest_batch(&remapped);
    }
    let expected_trees = server.shared().trees_processed();
    server.shutdown().expect("clean shutdown");

    // Crash mid-checkpoint: half-written garbage under the temp name.
    let tmp = ckpt.with_extension("tmp");
    std::fs::write(&tmp, b"SKTR\x02\x00\x00\x00 torn mid-write").expect("write garbage tmp");

    let server2 = Server::start("127.0.0.1:0", cfg).expect("restart succeeds");
    assert_eq!(
        server2.shared().trees_processed(),
        expected_trees,
        "the published checkpoint, not the torn temp file, is what loads"
    );
    assert!(!tmp.exists(), "stale temp file removed at startup");
    let text = server2.metrics().render(false);
    assert!(
        text.contains("sketchtree_restore_stale_tmp_total 1"),
        "stale-tmp cleanup is counted: {text}"
    );
    server2.abort();
    cleanup(&dir);
}

/// Satellite regression: even a temp file containing a *fully valid*
/// snapshot is ignored and removed — the rename never happened, so it
/// was never published.
#[test]
fn valid_looking_tmp_is_still_not_trusted() {
    let dir = scratch("tmp-valid");
    let ckpt = dir.join("state.snap");
    let tmp = ckpt.with_extension("tmp");
    std::fs::write(&tmp, write_snapshot(&reference(3, 4, 0))).expect("write tmp");

    let metrics = ServerMetrics::new();
    let (st, _, report) =
        recover(Some(&ckpt), None, &config(3), &metrics).expect("recover");
    assert_eq!(st.trees_processed(), 0, "unpublished checkpoint data is not loaded");
    assert!(report.stale_tmp_removed);
    assert!(!report.restored_from_checkpoint);
    assert!(!tmp.exists());
    cleanup(&dir);
}

/// The top-k mode is an ingest policy, not checkpoint state: a state
/// built under `Paper` restores into a process that runs the default,
/// `Filter`, and a shard built under `Filter` merges into it.
#[test]
fn restored_checkpoint_runs_the_default_topk_mode_and_merges_shards() {
    use sketchtree_sketch::TopKMode;
    let dir = scratch("topk-mode");
    let ckpt = dir.join("state.snap");
    let mut paper = SketchTree::new(config(3));
    paper.set_topk_mode(TopKMode::Paper);
    for (labels, trees) in &batches() {
        apply(&mut paper, labels, trees);
    }
    let bytes = write_snapshot(&paper);
    std::fs::write(&ckpt, &bytes).expect("write checkpoint");

    let metrics = ServerMetrics::new();
    let (mut st, _, report) = recover(Some(&ckpt), None, &config(3), &metrics).expect("recover");
    assert!(report.restored_from_checkpoint);
    assert_eq!(st.topk_mode(), TopKMode::Filter);
    assert_eq!(write_snapshot(&st), bytes);
    let shard = reference(3, 4, 0);
    assert_eq!(shard.topk_mode(), TopKMode::Filter);
    st.merge(&shard).expect("shards built under different modes merge");
    assert_eq!(st.trees_processed(), paper.trees_processed() + shard.trees_processed());
    cleanup(&dir);
}

/// Satellite regression: a corrupt checkpoint no longer bricks the
/// server when a WAL is configured — it is quarantined as `*.corrupt`,
/// counted, and the state is rebuilt from the log.
#[test]
fn corrupt_checkpoint_is_quarantined_and_rebuilt_from_wal() {
    let dir = scratch("quarantine");
    let ckpt = dir.join("state.snap");
    let wal_path = dir.join("state.wal");
    let cfg = ServerConfig {
        checkpoint_path: Some(ckpt.clone()),
        wal: Some(WalConfig::new(wal_path)),
        sketch: config(5),
        ..ServerConfig::default()
    };

    // First life: every batch goes through the log; no checkpoint is
    // ever written (crash before the first checkpoint interval).
    let server = Server::start("127.0.0.1:0", cfg.clone()).expect("server starts");
    let mut client =
        sketchtree_server::Client::connect(server.addr()).expect("client connects");
    for (labels, trees) in &batches() {
        client
            .ingest_trees(labels.clone(), trees.clone())
            .expect("ingest acked");
    }
    let before = server.shared().read(write_snapshot);
    drop(client);
    server.abort();

    // An old corrupt checkpoint sits at the path (wrong bytes, right
    // magic — the nastiest case).
    std::fs::write(&ckpt, b"SKTR\x02\x00\x00\x00corrupt beyond the header").expect("write");

    let server2 = Server::start("127.0.0.1:0", cfg).expect("starts despite corrupt checkpoint");
    assert_eq!(
        server2.shared().read(write_snapshot),
        before,
        "state rebuilt from the WAL alone is bit-identical to the acked stream"
    );
    let quarantined = {
        let mut name = ckpt.as_os_str().to_os_string();
        name.push(".corrupt");
        PathBuf::from(name)
    };
    assert!(quarantined.exists(), "bad checkpoint preserved for forensics");
    assert!(!ckpt.exists(), "bad checkpoint no longer in the live position");
    let text = server2.metrics().render(false);
    assert!(
        text.contains("sketchtree_restore_corrupt_total 1"),
        "quarantine is counted: {text}"
    );
    server2.abort();
    cleanup(&dir);
}

/// Without a WAL there is nothing to rebuild from, so a corrupt
/// checkpoint stays a hard startup error (silently starting empty would
/// discard the stream).
#[test]
fn corrupt_checkpoint_without_wal_is_still_fatal() {
    let dir = scratch("fatal");
    let ckpt = dir.join("state.snap");
    std::fs::write(&ckpt, b"SKTR\x01\x00\x00\x00nope").expect("write");
    let cfg = ServerConfig {
        checkpoint_path: Some(ckpt.clone()),
        sketch: config(5),
        ..ServerConfig::default()
    };
    assert!(Server::start("127.0.0.1:0", cfg).is_err());
    assert!(ckpt.exists(), "no quarantine without a WAL — evidence stays put");
    cleanup(&dir);
}

/// End-to-end crash drill over the wire: ack batches, checkpoint
/// mid-stream, ack more, crash.  The restart must hold exactly the
/// acked stream (checkpoint + replayed tail), bit-for-bit.
#[test]
fn abort_restart_recovers_every_acked_batch() {
    let dir = scratch("e2e");
    let ckpt = dir.join("state.snap");
    let wal_path = dir.join("state.wal");
    let cfg = ServerConfig {
        checkpoint_path: Some(ckpt),
        wal: Some(WalConfig::new(wal_path.clone())),
        sketch: config(11),
        ..ServerConfig::default()
    };
    let all = batches();

    let server = Server::start("127.0.0.1:0", cfg.clone()).expect("server starts");
    let mut client =
        sketchtree_server::Client::connect(server.addr()).expect("client connects");
    for (labels, trees) in &all[..3] {
        client.ingest_trees(labels.clone(), trees.clone()).expect("acked");
    }
    server.checkpoint().expect("explicit checkpoint");
    assert_eq!(
        std::fs::metadata(&wal_path).expect("wal exists").len(),
        sketchtree_wal::HEADER_LEN,
        "a successful checkpoint rotates the log"
    );
    for (labels, trees) in &all[3..] {
        client.ingest_trees(labels.clone(), trees.clone()).expect("acked");
    }
    let before = server.shared().read(write_snapshot);
    drop(client);
    server.abort();

    let server2 = Server::start("127.0.0.1:0", cfg.clone()).expect("restart");
    assert_eq!(
        server2.shared().read(write_snapshot),
        before,
        "recovered synopsis is bit-identical to the pre-crash acked state"
    );
    // The recovered state also matches a from-scratch reference over
    // the same batches (checkpoint restore + replay introduced no skew).
    let expect = reference(11, all.len(), server2.shared().wal_seq());
    assert_eq!(server2.shared().read(write_snapshot), write_snapshot(&expect));

    // Clean shutdown then restart: same state again, now via checkpoint
    // alone (empty log).
    server2.shutdown().expect("clean shutdown");
    let server3 = Server::start("127.0.0.1:0", cfg).expect("restart after shutdown");
    assert_eq!(server3.shared().read(write_snapshot), write_snapshot(&expect));
    server3.abort();
    cleanup(&dir);
}

/// The XML ingest opcode logs through the same WAL path as IngestTrees.
#[test]
fn xml_ingest_is_logged_and_replayed() {
    let dir = scratch("xml");
    let wal_path = dir.join("xml.wal");
    let cfg = ServerConfig {
        wal: Some(WalConfig::new(wal_path)),
        sketch: config(13),
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", cfg.clone()).expect("server starts");
    let mut client =
        sketchtree_server::Client::connect(server.addr()).expect("client connects");
    client
        .ingest_xml(&["<a><b/><c><b/></c></a>".to_string(), "<a><c/></a>".to_string()])
        .expect("xml acked");
    let before = server.shared().read(write_snapshot);
    drop(client);
    server.abort();

    let server2 = Server::start("127.0.0.1:0", cfg).expect("restart");
    assert_eq!(
        server2.shared().read(write_snapshot),
        before,
        "XML batches replay bit-identically from the log"
    );
    server2.abort();
    cleanup(&dir);
}

/// Group commit: `fsync_every = 4` issues one fsync per four appends
/// (visible in the counters), and a same-process crash still recovers
/// everything the page cache held.
#[test]
fn group_commit_batches_fsyncs() {
    let dir = scratch("group");
    let wal_path = dir.join("group.wal");
    let cfg = ServerConfig {
        wal: Some(WalConfig { path: wal_path, fsync_every: 4 }),
        sketch: config(17),
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", cfg.clone()).expect("server starts");
    let mut client =
        sketchtree_server::Client::connect(server.addr()).expect("client connects");
    let all = batches();
    for _ in 0..2 {
        for (labels, trees) in &all[..4] {
            client.ingest_trees(labels.clone(), trees.clone()).expect("acked");
        }
    }
    let text = server.metrics().render(false);
    assert!(text.contains("sketchtree_wal_appends_total 8"), "{text}");
    assert!(text.contains("sketchtree_wal_fsyncs_total 2"), "{text}");
    let before = server.shared().read(write_snapshot);
    drop(client);
    server.abort();

    let server2 = Server::start("127.0.0.1:0", cfg).expect("restart");
    assert_eq!(server2.shared().read(write_snapshot), before);
    server2.abort();
    cleanup(&dir);
}

/// A two-frame write-ahead log written by the WAL crate's former batch
/// codec (`encode_batch` + `Wal::append`): nested shapes with an empty
/// label name, then a batch table that repeats a name.
const LEGACY_WAL_HEX: &str = concat!(
    "534b574c0100000072000000ff07999501000000000000000400000007000000",
    "61727469636c65050000007469746c6506000000617574686f72000000000200",
    "0000060000000000000003000000010000000000000002000000020000000300",
    "0000000000000100000000000000020000000000000001000000030000000000",
    "0000430000008b73b60502000000000000000300000001000000620100000061",
    "0100000062010000000400000001000000020000000200000000000000000000",
    "00010000000100000000000000",
);

/// The batches [`LEGACY_WAL_HEX`] holds, in frame order.
fn legacy_batches() -> Vec<(Vec<String>, Vec<Tree>)> {
    let leaf = |l: u32| Tree::leaf(Label(l));
    let names = |n: &[&str]| n.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    vec![
        (
            names(&["article", "title", "author", ""]),
            vec![
                Tree::node(
                    Label(0),
                    vec![leaf(1), Tree::node(Label(2), vec![leaf(3), leaf(1)]), leaf(2)],
                ),
                leaf(3),
            ],
        ),
        (
            names(&["b", "a", "b"]),
            vec![Tree::node(Label(1), vec![leaf(2), Tree::node(Label(0), vec![leaf(1)])])],
        ),
    ]
}

/// A log written before the WAL stored opaque payloads still recovers:
/// the wire decoder reads each frame, the wire encoder writes the same
/// bytes back, and replay is byte-identical to ingesting the batches.
#[test]
fn a_wal_from_the_former_batch_codec_decodes_and_replays_byte_identically() {
    let bytes: Vec<u8> = (0..LEGACY_WAL_HEX.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&LEGACY_WAL_HEX[i..i + 2], 16).expect("hex"))
        .collect();
    let dir = scratch("legacy");
    let wal_path = dir.join("legacy.wal");
    std::fs::write(&wal_path, &bytes).expect("write fixture");

    let scan = sketchtree_wal::scan(&wal_path).expect("scan");
    assert!(scan.torn.is_none());
    let want = legacy_batches();
    assert_eq!(scan.frames.len(), want.len());
    for (frame, (labels, trees)) in scan.frames.iter().zip(&want) {
        let (got_labels, got_trees) = decode_ingest_trees(&frame.batch).expect("decodes");
        assert_eq!(&got_labels, labels);
        assert_eq!(&got_trees, trees);
        assert_eq!(encode_ingest_trees(labels, trees).expect("encodes"), frame.batch);
    }

    let metrics = ServerMetrics::new();
    let (st, wal, report) =
        recover(None, Some(&WalConfig::new(&wal_path)), &config(19), &metrics).expect("recover");
    assert_eq!(report.replayed_batches, 2);
    assert!(!report.torn_tail);
    let mut expect = SketchTree::new(config(19));
    for (labels, trees) in &want {
        apply(&mut expect, labels, trees);
    }
    expect.set_wal_seq(2);
    assert_eq!(write_snapshot(&st), write_snapshot(&expect));
    drop(wal);
    assert_eq!(std::fs::read(&wal_path).expect("read"), bytes, "an intact log is left as it was");
    cleanup(&dir);
}

/// With the log on, an `IngestTrees` frame's payload is appended exactly
/// as received, and an `IngestXml` batch is appended as the
/// `IngestTrees` payload of its parsed trees.
#[test]
fn the_logged_frame_is_the_ingest_trees_payload_as_received() {
    let dir = scratch("as-received");
    let wal_path = dir.join("state.wal");
    let cfg = ServerConfig {
        wal: Some(WalConfig::new(wal_path.clone())),
        sketch: config(29),
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", cfg).expect("server starts");
    let mut client = Client::connect(server.addr()).expect("client connects");
    // A repeated name: indices are positional, and the log keeps them so.
    let labels = vec!["x".to_string(), "y".to_string(), "x".to_string()];
    let trees = vec![Tree::node(Label(2), vec![Tree::leaf(Label(1)), Tree::leaf(Label(0))])];
    let sent = Request::IngestTrees { labels: labels.clone(), trees: trees.clone() }.encode();
    client.ingest_trees(labels, trees).expect("acked");
    client.ingest_xml(&["<a><b>t</b><b/></a>".to_string()]).expect("acked");
    drop(client);
    server.abort();

    let scan = sketchtree_wal::scan(&wal_path).expect("scan");
    assert_eq!(scan.frames.len(), 2);
    assert_eq!(scan.frames[0].batch, sent);
    let parsed = Tree::node(
        Label(0),
        vec![Tree::node(Label(1), vec![Tree::leaf(Label(2))]), Tree::leaf(Label(1))],
    );
    assert_eq!(
        scan.frames[1].batch,
        encode_ingest_trees(&["a", "b", "t"], &[parsed]).expect("encodes")
    );
    cleanup(&dir);
}

/// An `IngestXml` batch with more distinct labels than an `IngestTrees`
/// payload may carry (2^20) is refused with an error before it is logged
/// or applied, with the log on and off alike: recovery decodes frames with
/// the wire decoder, which would refuse it and truncate the log there.
#[test]
fn an_over_cap_xml_batch_is_refused_and_leaves_no_trace() {
    // 2^16 documents of 16 distinct values each: the 2^20 values plus `a`
    // and `b` are two labels past the cap, in a frame of about 19 MiB (the
    // frame cap is 32 MiB).  The payload is written directly, as
    // `IngestXml` lays it out, rather than through a `Vec<String>`.
    let docs = 1u32 << 16;
    let mut over_cap = docs.to_le_bytes().to_vec();
    for d in 0..docs {
        let values: String = (0..16).map(|v| format!("<b>{}</b>", d * 16 + v)).collect();
        let doc = format!("<a>{values}</a>");
        over_cap.extend_from_slice(&(doc.len() as u32).to_le_bytes());
        over_cap.extend_from_slice(doc.as_bytes());
    }
    let small = vec!["<a><b>1</b></a>".to_string()];
    for logged in [false, true] {
        let dir = scratch("over-cap");
        let wal_path = dir.join("state.wal");
        let cfg = ServerConfig {
            wal: logged.then(|| WalConfig::new(wal_path.clone())),
            sketch: config(23),
            ..ServerConfig::default()
        };
        let server = Server::start("127.0.0.1:0", cfg.clone()).expect("server starts");
        let mut client = Client::connect(server.addr()).expect("client connects");
        client.ingest_xml(&small).expect("acked");
        let before = server.shared().read(write_snapshot);
        let wal_len = || std::fs::metadata(&wal_path).map(|m| m.len()).ok();
        let wal_before = wal_len();
        let mut raw = std::net::TcpStream::connect(server.addr()).expect("connect");
        write_frame(&mut raw, Request::IngestXml(Vec::new()).kind(), &over_cap).expect("send");
        match read_frame(&mut raw, DEFAULT_MAX_FRAME).expect("reply") {
            Frame::Msg { kind, payload } => match Response::decode(kind, &payload) {
                Ok(Response::Error(msg)) => assert!(msg.contains("label count"), "{msg}"),
                other => panic!("wal {logged}: expected a refusal, got {other:?}"),
            },
            other => panic!("wal {logged}: expected a reply, got {other:?}"),
        }
        drop(raw);
        assert_eq!(server.shared().read(write_snapshot), before, "wal {logged}");
        assert_eq!(wal_len(), wal_before, "wal {logged}: nothing appended");
        // The connection and the server keep serving.
        client.ingest_xml(&small).expect("acked after the refusal");
        let after = server.shared().read(write_snapshot);
        drop(client);
        server.abort();
        if logged {
            let restarted = Server::start("127.0.0.1:0", cfg).expect("restart");
            assert_eq!(restarted.shared().read(write_snapshot), after);
            restarted.abort();
        }
        cleanup(&dir);
    }
}
