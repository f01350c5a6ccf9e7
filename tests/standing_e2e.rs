//! End-to-end tests of the standing-query subsystem: subscribed clients
//! against a live server, pushed `EstimateUpdate` frames checked
//! bit-for-bit against ad-hoc queries at the same epoch, plus the
//! lifecycle and invalidation edge cases (unsubscribe, disconnect
//! reaping, duplicate subscriptions, merge-driven refresh), and the push
//! ordering contract: an ingest or merge is acked before its epoch's
//! updates are pushed.

use sketchtree::server::{Client, Server, ServerConfig, SubscribeMode, Update};
use sketchtree::{SketchTreeConfig, SynopsisConfig, XmlSketchTree};
use std::collections::HashMap;
use std::time::Duration;

fn config(seed: u64) -> SketchTreeConfig {
    SketchTreeConfig {
        max_pattern_edges: 3,
        synopsis: SynopsisConfig {
            s1: 40,
            s2: 7,
            virtual_streams: 31,
            topk: 10,
            seed,
            ..SynopsisConfig::default()
        },
        ..SketchTreeConfig::default()
    }
}

fn corpus() -> Vec<String> {
    let mut docs = Vec::new();
    for i in 0..240 {
        docs.push(match i % 4 {
            0 => "<article><author>a</author><title>t</title></article>".to_string(),
            1 => "<article><author>a</author><author>b</author></article>".to_string(),
            2 => "<book><title>t</title><year>2006</year></book>".to_string(),
            _ => format!("<misc><k{}/></misc>", i % 7),
        });
    }
    docs
}

/// Drains exactly `n` pushed updates, keyed by subscription id.
fn collect(client: &mut Client, n: usize) -> HashMap<u64, Update> {
    let mut got = HashMap::new();
    for _ in 0..n {
        let u = client
            .next_update(Duration::from_secs(5))
            .expect("update stream healthy")
            .expect("update arrives within the window");
        got.insert(u.id, u);
    }
    got
}

/// Reads one response frame from a raw socket; `None` when the read
/// timeout passes with no frame started.
fn next_raw(raw: &mut std::net::TcpStream) -> Option<sketchtree::server::wire::Response> {
    use sketchtree::server::wire::{read_frame, Frame, Response, DEFAULT_MAX_FRAME};
    match read_frame(raw, DEFAULT_MAX_FRAME).expect("well-formed frame") {
        Frame::Msg { kind, payload } => Some(
            Response::decode(kind, &payload).expect("payload decodes with no trailing bytes"),
        ),
        Frame::Idle => None,
        Frame::Eof => panic!("server closed the connection"),
    }
}

/// The acceptance scenario: two subscribed clients plus one ad-hoc
/// client against one server.  After every ingest batch each pushed
/// estimate must be bit-identical to an ad-hoc query at that same epoch,
/// the per-batch re-evaluation cost must be independent of the reader
/// count (one evaluation pass per batch, however many subscribers), and
/// repeated ad-hoc queries between batches must hit the epoch cache.
#[test]
fn pushed_updates_match_adhoc_bit_for_bit() {
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig { sketch: config(42), ..ServerConfig::default() },
    )
    .expect("server starts");

    let mut sub1 = Client::connect(server.addr()).expect("subscriber 1 connects");
    let mut sub2 = Client::connect(server.addr()).expect("subscriber 2 connects");
    let mut adhoc = Client::connect(server.addr()).expect("ad-hoc client connects");

    let (s1_article, _) = sub1
        .subscribe(SubscribeMode::Ordered, "article(author)")
        .expect("subscribe article(author)");
    let (s1_book, _) = sub1
        .subscribe(SubscribeMode::Unordered, "book(title,year)")
        .expect("subscribe book(title,year)");
    // Subscriber 2 watches the same article query — a duplicate that
    // must share the compiled plan, not add a second one.
    let (s2_article, _) = sub2
        .subscribe(SubscribeMode::Ordered, "article(author)")
        .expect("duplicate subscribe");
    assert_eq!(server.subscriptions().active(), 3);
    assert_eq!(
        server.subscriptions().distinct_queries(),
        2,
        "duplicate subscription must share one compiled plan"
    );

    let docs = corpus();
    let batches: Vec<&[String]> = docs.chunks(40).collect();
    for batch in &batches {
        adhoc.ingest_xml(batch).expect("batch ingests");

        // Every subscription gets exactly one update per batch.
        let got1 = collect(&mut sub1, 2);
        let got2 = collect(&mut sub2, 1);
        let epoch = server.shared().epoch();

        // The pushes carry the post-batch epoch...
        for u in got1.values().chain(got2.values()) {
            assert_eq!(u.epoch, epoch, "update epoch is the post-batch epoch");
        }
        // ...and are bit-identical to ad-hoc queries at that same epoch
        // (this test is the only writer, so the epoch cannot move under
        // the ad-hoc client between here and the assertions).
        let want_article = adhoc.count_ordered("article(author)").expect("ad-hoc ordered");
        let want_book = adhoc.count_unordered("book(title,year)").expect("ad-hoc unordered");
        for (id, want) in [(s1_article, want_article), (s1_book, want_book)] {
            let pushed = got1[&id].result.as_ref().expect("pushed estimate ok");
            assert_eq!(
                pushed.to_bits(),
                want.to_bits(),
                "sub1 id {id}: pushed {pushed} != ad-hoc {want} at epoch {epoch}"
            );
        }
        let pushed = got2[&s2_article].result.as_ref().expect("pushed estimate ok");
        assert_eq!(pushed.to_bits(), want_article.to_bits(), "sub2 diverged from ad-hoc");
    }

    // Re-evaluation cost is per *batch*, not per reader: the standing
    // evaluation histogram saw exactly one sample per batch even with
    // three subscriptions listening.
    let text = server.metrics().render(false);
    let evals: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("sketchtree_standing_eval_seconds_count "))
        .expect("standing eval histogram rendered")
        .trim()
        .parse()
        .expect("count parses");
    println!(
        "standing re-eval: {} batches -> {} evaluation passes ({} subscriptions, {} distinct plans)",
        batches.len(),
        evals,
        server.subscriptions().active(),
        server.subscriptions().distinct_queries(),
    );
    assert_eq!(
        evals,
        batches.len() as u64,
        "one standing evaluation pass per batch, independent of reader count"
    );

    // Between batches, repeated ad-hoc queries are cache hits: one miss
    // to compute, then pure lookups while the epoch stands still.
    let (hits0, misses0) = (server.metrics().cache_hits.get(), server.metrics().cache_misses.get());
    for _ in 0..200 {
        adhoc.count_ordered("misc(k0)").expect("repeated ad-hoc query");
    }
    let hits = server.metrics().cache_hits.get() - hits0;
    let misses = server.metrics().cache_misses.get() - misses0;
    let rate = hits as f64 / (hits + misses) as f64;
    println!("ad-hoc cache: {hits} hits / {misses} misses between batches ({:.1}%)", rate * 100.0);
    assert!(rate >= 0.99, "cache hit rate {rate} below 99% ({hits} hits, {misses} misses)");

    server.shutdown().expect("clean shutdown");
}

/// Satellite regression: a merge must invalidate everything.  Both the
/// ad-hoc result cache and the pushed standing estimates have to reflect
/// the post-merge synopsis — never a stale pre-merge value — because
/// `merge` bumps the epoch and broadcasts like any ingest.
#[test]
fn merge_refreshes_subscribed_and_cached_estimates() {
    let seed = 7;
    let docs = corpus();
    let (local, remote) = docs.split_at(docs.len() / 2);

    // The shard another node would ship us, and the reference synopsis
    // holding the expected post-merge state.
    let mut shard = XmlSketchTree::new(config(seed));
    for doc in remote {
        shard.ingest_xml(doc).unwrap();
    }
    let shard_bytes = sketchtree::write_snapshot(shard.inner());
    let mut reference = XmlSketchTree::new(config(seed));
    for doc in local {
        reference.ingest_xml(doc).unwrap();
    }

    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig { sketch: config(seed), ..ServerConfig::default() },
    )
    .expect("server starts");
    let mut client = Client::connect(server.addr()).expect("client connects");
    client.ingest_xml(local).expect("local half ingests");

    let (id, _) = client
        .subscribe(SubscribeMode::Ordered, "article(author)")
        .expect("subscribe");
    // Drain the queue and warm the ad-hoc cache with the pre-merge value.
    while client.next_update(Duration::from_millis(300)).expect("drain").is_some() {}
    let before = client.count_ordered("article(author)").expect("pre-merge query");
    let epoch_before = server.shared().epoch();
    assert_eq!(
        before.to_bits(),
        reference.count_ordered("article(author)").unwrap().to_bits()
    );

    // Merge the shard over SKTP.  The reference does the same in-process.
    client.merge_snapshot(&shard_bytes).expect("merge applies");
    reference.inner_mut().merge(shard.inner()).unwrap();
    let want = reference.count_ordered("article(author)").unwrap();
    assert_ne!(want.to_bits(), before.to_bits(), "corpus halves must actually differ");

    // The merge pushed a fresh estimate at a new epoch...
    let update = client
        .next_update(Duration::from_secs(5))
        .expect("update stream healthy")
        .expect("merge broadcasts an update");
    assert_eq!(update.id, id);
    assert!(update.epoch > epoch_before, "merge must bump the epoch");
    assert_eq!(
        update.result.as_ref().expect("pushed estimate ok").to_bits(),
        want.to_bits(),
        "pushed post-merge estimate matches the reference"
    );
    // ...and the ad-hoc cache cannot serve the stale pre-merge value.
    let after = client.count_ordered("article(author)").expect("post-merge query");
    assert_eq!(after.to_bits(), want.to_bits(), "cache served a stale pre-merge estimate");

    server.shutdown().expect("clean shutdown");
}

/// Lifecycle over the wire: unsubscribing stops the pushes (updates
/// already in flight notwithstanding), a vanished client's subscriptions
/// are reaped, and unknown ids answer an error instead of wedging the
/// connection.
#[test]
fn subscription_lifecycle_over_the_wire() {
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig { sketch: config(3), ..ServerConfig::default() },
    )
    .expect("server starts");
    let mut feeder = Client::connect(server.addr()).expect("feeder connects");
    let docs = corpus();

    // Unsubscribe stops the stream.
    let mut sub = Client::connect(server.addr()).expect("subscriber connects");
    let (id, _) = sub.subscribe(SubscribeMode::Ordered, "article(author)").expect("subscribe");
    feeder.ingest_xml(&docs[..40]).expect("batch 1");
    assert!(
        sub.next_update(Duration::from_secs(5)).expect("stream ok").is_some(),
        "subscribed: batch 1 pushes"
    );
    sub.unsubscribe(id).expect("unsubscribe acks");
    assert_eq!(server.subscriptions().active(), 0);
    // Drain anything that raced the unsubscribe, then verify silence.
    while sub.next_update(Duration::from_millis(300)).expect("drain").is_some() {}
    feeder.ingest_xml(&docs[40..80]).expect("batch 2");
    assert!(
        sub.next_update(Duration::from_millis(600)).expect("stream ok").is_none(),
        "unsubscribed: batch 2 must not push"
    );
    // Unknown ids (including double-unsubscribe) answer an error frame.
    assert!(sub.unsubscribe(id).is_err(), "double unsubscribe is an error");

    // A disconnected subscriber is reaped — table entry and metrics gauge
    // both return to zero without any batch needing to notice first.
    let mut doomed = Client::connect(server.addr()).expect("doomed subscriber connects");
    doomed.subscribe(SubscribeMode::Ordered, "book(title)").expect("subscribe");
    assert_eq!(server.subscriptions().active(), 1);
    drop(doomed);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.subscriptions().active() != 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "disconnect did not reap the subscription table"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_eq!(server.subscriptions().distinct_queries(), 0, "registry refcount reaped too");
    assert_eq!(server.metrics().subscriptions_active.get(), 0.0);

    server.shutdown().expect("clean shutdown");
}

/// The coalesced push path seen from the socket: a subscribed connection
/// read with a raw frame reader while `Count` requests share it.  A
/// connection's epoch of updates leaves the server in one write, so this
/// checks that the write still parses as standalone `0x8C` frames, each
/// decoding with no trailing bytes, that no push tears a reply frame,
/// that every subscription's epochs strictly increase, and that each
/// pushed value is bit-identical to the ad-hoc answer at its epoch.
#[test]
fn raw_pushed_frames_stay_standalone_while_requests_interleave() {
    use sketchtree::server::wire::{Request, Response};
    use std::net::TcpStream;

    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig { sketch: config(17), ..ServerConfig::default() },
    )
    .expect("server starts");
    let mut feeder = Client::connect(server.addr()).expect("feeder connects");
    let mut raw = TcpStream::connect(server.addr()).expect("raw subscriber connects");
    raw.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    let next = |raw: &mut TcpStream| next_raw(raw).expect("a frame within the read timeout");

    let patterns = ["article(author)", "book(title)", "article(title)", "misc(k3)"];
    let mut ids = Vec::new();
    for p in patterns {
        Request::Subscribe { mode: SubscribeMode::Ordered, query: p.to_string() }
            .write_to(&mut raw)
            .expect("subscribe sent");
        match next(&mut raw) {
            Response::Subscribed { id, .. } => ids.push(id),
            other => panic!("expected Subscribed, got {other:?}"),
        }
    }

    let docs = corpus();
    let mut last_epoch: HashMap<u64, u64> = HashMap::new();
    for batch in docs.chunks(20) {
        feeder.ingest_xml(batch).expect("batch ingests");
        let epoch = server.shared().epoch();
        // The pusher is still writing this batch's epoch while the
        // requests go out, so replies and pushes share the socket.
        for p in patterns {
            Request::Count { unordered: false, pattern: p.to_string() }
                .write_to(&mut raw)
                .expect("count sent");
        }
        let mut answers = Vec::new();
        let mut pushed: HashMap<u64, f64> = HashMap::new();
        while answers.len() < patterns.len() || pushed.len() < ids.len() {
            match next(&mut raw) {
                Response::Estimate(v) => answers.push(v),
                Response::EstimateUpdate { id, epoch: e, result } => {
                    let prev = last_epoch.insert(id, e).unwrap_or(0);
                    assert!(e > prev, "sub {id}: epoch {e} after {prev}");
                    assert!(e <= epoch, "sub {id}: epoch {e} from the future");
                    if e == epoch {
                        pushed.insert(id, result.expect("pushed estimate ok"));
                    }
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
        for ((p, id), want) in patterns.iter().zip(&ids).zip(&answers) {
            assert_eq!(
                pushed[id].to_bits(),
                want.to_bits(),
                "{p}: pushed {} != ad-hoc {want} at epoch {epoch}",
                pushed[id]
            );
        }
    }
    assert_eq!(server.metrics().slow_subscriber_evictions.get(), 0);
    drop(raw);
    server.shutdown().expect("clean shutdown");
}

/// Ack first, then push, seen from one raw connection that both
/// subscribes and writes.  For every ingest batch, and for a wire
/// `MergeSnapshot`, the reply is the next frame (no update of the new
/// epoch, and no duplicate of an older one, may come before it); then
/// each subscription gets exactly one update, at the post-batch epoch.
/// A further batch after the merge shows the merge pushed only once.
#[test]
fn the_ack_precedes_its_epochs_pushes_and_a_merge_pushes_once() {
    use sketchtree::server::wire::{Request, Response};
    use std::net::TcpStream;

    let seed = 23;
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig { sketch: config(seed), ..ServerConfig::default() },
    )
    .expect("server starts");
    let mut raw = TcpStream::connect(server.addr()).expect("raw client connects");
    raw.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");

    let patterns = ["article(author)", "book(title)", "misc(k3)"];
    let mut ids = Vec::new();
    for p in patterns {
        Request::Subscribe { mode: SubscribeMode::Ordered, query: p.to_string() }
            .write_to(&mut raw)
            .expect("subscribe sent");
        match next_raw(&mut raw) {
            Some(Response::Subscribed { id, .. }) => ids.push(id),
            other => panic!("expected Subscribed, got {other:?}"),
        }
    }

    let docs = corpus();
    let (local, remote) = docs.split_at(docs.len() / 2);
    let mut shard = XmlSketchTree::new(config(seed));
    for doc in remote {
        shard.ingest_xml(doc).unwrap();
    }
    let merge = Request::MergeSnapshot(sketchtree::write_snapshot(shard.inner()));
    let requests = local
        .chunks(20)
        .map(|batch| Request::IngestXml(batch.to_vec()))
        .chain([merge, Request::IngestXml(local[..20].to_vec())]);

    let mut merges = 0;
    for request in requests {
        let is_merge = matches!(request, Request::MergeSnapshot(_));
        let before = server.shared().epoch();
        request.write_to(&mut raw).expect("request sent");
        match next_raw(&mut raw) {
            Some(Response::Ingested { .. }) if !is_merge => {}
            Some(Response::MergeDone { .. }) if is_merge => merges += 1,
            Some(Response::EstimateUpdate { id, epoch, .. }) => panic!(
                "sub {id}: update at epoch {epoch} before the reply (epoch {before} \
                 before the request)"
            ),
            other => panic!("expected the reply, got {other:?}"),
        }
        // This test is the only writer, so the epoch is final once acked.
        let epoch = server.shared().epoch();
        assert!(epoch > before, "the request must advance the epoch");
        let mut seen = Vec::new();
        while seen.len() < ids.len() {
            match next_raw(&mut raw) {
                Some(Response::EstimateUpdate { id, epoch: e, result }) => {
                    assert_eq!(e, epoch, "sub {id}: update for the wrong epoch");
                    result.expect("pushed estimate ok");
                    seen.push(id);
                }
                other => panic!("expected an update at epoch {epoch}, got {other:?}"),
            }
        }
        assert_eq!(seen, ids, "one update per subscription, ascending id");
    }
    assert_eq!(merges, 1);
    // Nothing is left over once the last batch's updates are read.
    raw.set_read_timeout(Some(Duration::from_millis(300))).expect("read timeout");
    assert!(next_raw(&mut raw).is_none(), "an extra frame followed the last push");
    drop(raw);
    server.shutdown().expect("clean shutdown");
}

/// A client that sends a batch and hangs up without reading the ack has
/// still had its batch applied, so that epoch is pushed to the other
/// subscribers all the same.
#[test]
fn a_batch_whose_sender_leaves_before_the_ack_still_pushes() {
    use sketchtree::server::wire::Request;
    use std::net::{Shutdown, TcpStream};

    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig { sketch: config(29), ..ServerConfig::default() },
    )
    .expect("server starts");
    let mut sub = Client::connect(server.addr()).expect("subscriber connects");
    let (id, _) = sub.subscribe(SubscribeMode::Ordered, "article(author)").expect("subscribe");

    let docs = corpus();
    let mut raw = TcpStream::connect(server.addr()).expect("raw sender connects");
    Request::IngestXml(docs[..40].to_vec()).write_to(&mut raw).expect("batch sent");
    let _ = raw.shutdown(Shutdown::Both);
    drop(raw);

    let update = sub
        .next_update(Duration::from_secs(5))
        .expect("update stream healthy")
        .expect("the abandoned batch is pushed");
    assert_eq!(update.id, id);
    assert_eq!(server.shared().trees_processed(), 40, "the batch was applied");
    assert_eq!(update.epoch, server.shared().epoch(), "pushed at the post-batch epoch");
    let mut adhoc = Client::connect(server.addr()).expect("ad-hoc client connects");
    let want = adhoc.count_ordered("article(author)").expect("ad-hoc query");
    assert_eq!(update.result.expect("pushed estimate ok").to_bits(), want.to_bits());
    server.shutdown().expect("clean shutdown");
}

/// Pushes are sent by the wire handlers after their acks, so an
/// in-process `ingest_batch` through [`Server::shared`] pushes nothing by
/// itself: subscribers see it inside the update of the next wire ingest,
/// which is the only update, at that later epoch.
#[test]
fn an_in_process_ingest_surfaces_with_the_next_wire_ingest() {
    use sketchtree::Tree;

    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig { sketch: config(31), ..ServerConfig::default() },
    )
    .expect("server starts");
    let mut sub = Client::connect(server.addr()).expect("subscriber connects");
    let (id, _) = sub.subscribe(SubscribeMode::Ordered, "article(author)").expect("subscribe");

    let (article, author) =
        server.shared().with_labels(|l| (l.intern("article"), l.intern("author")));
    let trees: Vec<Tree> =
        (0..10).map(|_| Tree::node(article, vec![Tree::leaf(author)])).collect();
    server.shared().ingest_batch(&trees);
    let in_process = server.shared().epoch();
    assert!(
        sub.next_update(Duration::from_millis(300)).expect("stream ok").is_none(),
        "an in-process batch pushes nothing by itself"
    );

    let mut feeder = Client::connect(server.addr()).expect("feeder connects");
    feeder.ingest_xml(&corpus()[..40]).expect("wire batch");
    let wire = server.shared().epoch();
    assert!(wire > in_process);
    let update = sub
        .next_update(Duration::from_secs(5))
        .expect("update stream healthy")
        .expect("the wire batch pushes");
    assert_eq!((update.id, update.epoch), (id, wire), "one update, at the later epoch");
    let want = feeder.count_ordered("article(author)").expect("ad-hoc query");
    assert_eq!(
        update.result.expect("pushed estimate ok").to_bits(),
        want.to_bits(),
        "the update covers both batches"
    );
    assert!(
        sub.next_update(Duration::from_millis(300)).expect("stream ok").is_none(),
        "exactly one update"
    );
    server.shutdown().expect("clean shutdown");
}
