//! Subscription dispatch: the bridge between the transport-agnostic
//! [`QueryRegistry`] and per-connection push queues.
//!
//! One [`Subscriptions`] instance lives for the server's lifetime.  Each
//! `Subscribe` frame registers its query (refcounted — duplicate
//! subscriptions to one canonical query share a single compiled plan) and
//! files a subscription under its connection, whose entry holds a clone
//! of that connection's bounded push sender.  The connection handler
//! that applied an ingest batch or merge calls
//! [`Subscriptions::broadcast`] once it has written the ack, under a
//! shared read lock on the [`SharedSketchTree`], so every pushed estimate
//! is evaluated at exactly the epoch it reports and the ingesting client
//! never waits for evaluation or fan-out.
//!
//! Fan-out is **per connection, per epoch**: a broadcast gathers every
//! update a connection's subscriptions get at that epoch, in ascending
//! subscription id order, into one [`EpochUpdates`] and hands it over
//! with one `try_send`, so a batch wakes each pusher once and the pusher
//! writes the epoch to its socket once.
//!
//! Delivery is **at-most-once per epoch** and deliberately lossy for slow
//! readers: epochs are queued with a non-blocking `try_send`, and a
//! connection whose queue is full (or whose pusher thread died) is
//! *evicted* — every one of its subscriptions removed and its
//! registrations released — rather than allowed to wedge the broadcast
//! and, transitively, every ingest.  Eviction is all-or-nothing per
//! connection, so a reader never sees some of its subscriptions go quiet
//! while others carry on.  A healthy subscriber that merely lags keeps
//! its queue below the bound because the queue counts whole epochs, one
//! per batch, and the pusher drains each with a single write.
//!
//! Lock order is `SharedSketchTree` inner → registry mutex → table mutex,
//! always in that direction, and the two inner mutexes are never nested:
//! every method registers or unregisters with the registry strictly
//! outside the table guard (subscribe registers first and rolls back on a
//! cap rejection; removal paths collect doomed entries under the table
//! lock, drop it, then release their registrations).  Nothing here
//! re-enters the shared handle, so a broadcast cannot deadlock against
//! ingest.  The L6 lock-order lint enforces the acyclicity workspace-wide.
//!
//! [`QueryRegistry`]: sketchtree_standing::QueryRegistry
//! [`SharedSketchTree`]: sketchtree_core::concurrent::SharedSketchTree

use crate::metrics::ServerMetrics;
use crate::wire::Response;
use sketchtree_core::sketchtree::SketchTree;
use sketchtree_standing::{QueryRegistry, QuerySpec};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// One connection's share of one broadcast: a
/// [`Response::EstimateUpdate`] per subscription, in ascending id order.
pub type EpochUpdates = Vec<Response>;

/// One live subscription: its id, its registry handle, and the canonical
/// query it watches.
struct SubEntry {
    id: u64,
    reg: u64,
    key: String,
}

/// Everything one connection has subscribed, plus the bounded sender
/// feeding that connection's pusher.  Never empty: the entry goes when
/// its last subscription does.
struct ConnEntry {
    tx: SyncSender<EpochUpdates>,
    /// Sorted by id: ids are allocated under the table lock, so appending
    /// keeps the order.
    subs: Vec<SubEntry>,
}

/// The server-wide subscription table plus the standing-query registry it
/// feeds.  See the module docs for the delivery and eviction contract.
pub struct Subscriptions {
    registry: QueryRegistry,
    /// Keyed by connection id.
    table: Mutex<HashMap<u64, ConnEntry>>,
    next_sub: AtomicU64,
    max_per_conn: usize,
    metrics: Arc<ServerMetrics>,
    /// Serializes [`Subscriptions::broadcast`] and records the last epoch
    /// pushed.  Broadcasts run under the *shared* read lock, so two
    /// connections' batches can broadcast concurrently; without this gate
    /// their enqueues interleave and a subscriber can see epochs go
    /// backwards (observed by the loadgen harness).  The gate is the
    /// outermost lock in this module: it is only ever taken at the top of
    /// `broadcast`, before the registry or table locks, so the documented
    /// registry → table order is unchanged.
    broadcast_gate: Mutex<u64>,
}

impl Subscriptions {
    /// Creates an empty table capping each connection at `max_per_conn`
    /// live subscriptions.
    pub fn new(metrics: Arc<ServerMetrics>, max_per_conn: usize) -> Self {
        Self {
            registry: QueryRegistry::new(),
            table: Mutex::new(HashMap::new()),
            next_sub: AtomicU64::new(0),
            max_per_conn: max_per_conn.max(1),
            metrics,
            broadcast_gate: Mutex::new(0),
        }
    }

    /// Registers `spec` for connection `conn`, wiring pushed updates
    /// through `tx` (the connection's pusher; a connection keeps the
    /// sender of its first live subscription).  Returns the subscription
    /// id the client quotes in `Unsubscribe`, or an error when the
    /// connection is at its cap.
    pub fn subscribe(
        &self,
        conn: u64,
        spec: QuerySpec,
        tx: SyncSender<EpochUpdates>,
    ) -> Result<u64, String> {
        let key = spec.key();
        // Register before taking the table lock: the documented order is
        // registry mutex → table mutex, so the table guard must never be
        // live across a registry call.
        let reg = self.registry.register(spec);
        let mut table = self.lock_table();
        if table.get(&conn).is_some_and(|c| c.subs.len() >= self.max_per_conn) {
            drop(table);
            // Roll back — a cap rejection must not leak a plan refcount.
            self.registry.unregister(reg);
            return Err(format!(
                "connection already holds {} subscriptions (the per-connection cap)",
                self.max_per_conn
            ));
        }
        let id = self.next_sub.fetch_add(1, Ordering::Relaxed) + 1;
        let entry = table.entry(conn).or_insert_with(|| ConnEntry { tx, subs: Vec::new() });
        entry.subs.push(SubEntry { id, reg, key });
        drop(table);
        self.metrics.subscriptions_active.inc();
        Ok(id)
    }

    /// Drops subscription `id` if connection `conn` owns it.  Returns
    /// `false` for unknown ids or ids owned by another connection (a
    /// client cannot cancel someone else's subscription).
    pub fn unsubscribe(&self, conn: u64, id: u64) -> bool {
        let mut table = self.lock_table();
        let Some(entry) = table.get_mut(&conn) else { return false };
        let Ok(at) = entry.subs.binary_search_by_key(&id, |s| s.id) else { return false };
        let sub = entry.subs.remove(at);
        if entry.subs.is_empty() {
            table.remove(&conn);
        }
        drop(table);
        self.registry.unregister(sub.reg);
        self.metrics.subscriptions_active.dec();
        true
    }

    /// Reaps every subscription owned by connection `conn` — called when
    /// its handler exits by any path, so a disconnect can never leak a
    /// table entry or a registry refcount.
    pub fn drop_connection(&self, conn: u64) {
        let doomed = self.lock_table().remove(&conn);
        if let Some(entry) = doomed {
            self.release(&entry.subs);
        }
    }

    /// Re-evaluates every registered query against `st` and queues, per
    /// connection, one [`EpochUpdates`] holding a
    /// [`Response::EstimateUpdate`] for each of its live subscriptions.
    /// Called by the connection handler after it acks an ingest batch or
    /// merge, under the shared read lock.
    ///
    /// Evaluation cost is one pass over *distinct* registered queries —
    /// timed by `sketchtree_standing_eval_seconds`, whose sample count
    /// therefore equals the number of broadcast *epochs* regardless of how
    /// many subscribers read the results.  Fan-out is one non-blocking
    /// `try_send` per connection, timed by `sketchtree_push_seconds`: a
    /// full or dead queue evicts all of that connection's subscriptions
    /// on the spot.
    ///
    /// Broadcasts are serialized by `broadcast_gate`, which also makes
    /// per-subscription epochs *strictly increasing*: when concurrent
    /// batches race, the broadcast that loses the gate sees the same
    /// post-batch state the winner already pushed (the caller holds the
    /// shared read lock, so `st` is the current synopsis, not a stale
    /// snapshot) and skips the redundant broadcast.
    pub fn broadcast(&self, st: &SketchTree) {
        if self.registry.registrations() == 0 {
            return;
        }
        let epoch = st.epoch();
        let mut gate = self.broadcast_gate.lock().unwrap_or_else(|e| e.into_inner());
        if *gate >= epoch {
            // A concurrent broadcast already pushed this state (or newer:
            // epochs only advance, and its enqueues happened before ours
            // would).  Pushing now would deliver out-of-order estimates.
            return;
        }
        *gate = epoch;
        let eval_started = Instant::now();
        // Only broadcasts evaluate (and so compile), and the gate
        // serializes them, so the difference is this evaluation's count.
        let compiled_before = self.registry.compilations();
        let results: HashMap<_, _> = self.registry.evaluate_all(st).into_iter().collect();
        self.metrics.standing_eval_seconds.observe_duration(eval_started.elapsed());
        self.metrics
            .standing_compilations
            .add(self.registry.compilations().saturating_sub(compiled_before));

        let push_started = Instant::now();
        let mut table = self.lock_table();
        let mut evicted: Vec<u64> = Vec::new();
        for (&conn, entry) in table.iter() {
            let updates: EpochUpdates = entry
                .subs
                .iter()
                // A subscription filed after evaluate_all snapshotted the
                // registry has no result yet; it catches the next batch.
                .filter_map(|s| {
                    let result = results.get(&s.key)?.clone();
                    Some(Response::EstimateUpdate { id: s.id, epoch, result })
                })
                .collect();
            if updates.is_empty() {
                continue;
            }
            let frames = updates.len() as u64;
            match entry.tx.try_send(updates) {
                Ok(()) => self.metrics.push_updates.add(frames),
                Err(_) => evicted.push(conn), // full or disconnected
            }
        }
        let evicted: Vec<ConnEntry> =
            evicted.into_iter().filter_map(|conn| table.remove(&conn)).collect();
        drop(table);
        for entry in evicted {
            self.release(&entry.subs);
            self.metrics.slow_subscriber_evictions.add(entry.subs.len() as u64);
        }
        self.metrics.push_seconds.observe_duration(push_started.elapsed());
    }

    /// Live subscription count (table entries).
    pub fn active(&self) -> usize {
        self.lock_table().values().map(|c| c.subs.len()).sum()
    }

    /// Whether connection `conn` currently holds any subscription (a
    /// subscribed connection is exempt from the idle-close policy — it
    /// legitimately goes quiet and just reads pushes).
    pub fn connection_active(&self, conn: u64) -> bool {
        self.lock_table().contains_key(&conn)
    }

    /// Distinct compiled plans resident in the registry.
    pub fn distinct_queries(&self) -> usize {
        self.registry.distinct_queries()
    }

    /// Releases the registrations of subscriptions already removed from
    /// the table; the caller must not hold the table guard.
    fn release(&self, subs: &[SubEntry]) {
        for sub in subs {
            self.registry.unregister(sub.reg);
            self.metrics.subscriptions_active.dec();
        }
    }

    fn lock_table(&self) -> MutexGuard<'_, HashMap<u64, ConnEntry>> {
        self.table.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketchtree_core::sketchtree::{SketchTreeConfig, SketchTree};
    use sketchtree_standing::QueryMode;
    use std::sync::mpsc::{sync_channel, Receiver};

    fn subs() -> Subscriptions {
        Subscriptions::new(ServerMetrics::new(), 8)
    }

    fn spec(text: &str) -> QuerySpec {
        QuerySpec::parse(QueryMode::Ordered, text).unwrap()
    }

    fn synopsis() -> SketchTree {
        let mut st = SketchTree::new(SketchTreeConfig::default());
        let a = st.labels_mut().intern("A");
        let b = st.labels_mut().intern("B");
        st.ingest(&sketchtree_tree::Tree::node(a, vec![sketchtree_tree::Tree::leaf(b)]));
        st
    }

    /// Ingests one more `A(B)`, advancing the epoch as a real batch does
    /// (the broadcast gate skips same-epoch re-broadcasts).
    fn next_batch(st: &mut SketchTree) {
        let a = st.labels_mut().intern("A");
        let b = st.labels_mut().intern("B");
        st.ingest(&sketchtree_tree::Tree::node(a, vec![sketchtree_tree::Tree::leaf(b)]));
    }

    /// `(id, epoch)` of every update in one queued epoch.
    fn ids_and_epochs(updates: &EpochUpdates) -> Vec<(u64, u64)> {
        updates
            .iter()
            .map(|u| match u {
                Response::EstimateUpdate { id, epoch, .. } => (*id, *epoch),
                other => panic!("expected an update, got {other:?}"),
            })
            .collect()
    }

    fn drain(rx: &Receiver<EpochUpdates>) -> Vec<EpochUpdates> {
        rx.try_iter().collect()
    }

    #[test]
    fn a_connection_gets_one_queue_item_per_epoch_in_ascending_id_order() {
        let s = subs();
        let (tx, rx) = sync_channel::<EpochUpdates>(16);
        let (other_tx, other_rx) = sync_channel::<EpochUpdates>(16);
        let texts = ["A(B)", "B(A)", "A(B)", "A(A)", "A(B,B)"];
        let mut ids = Vec::new();
        for (i, text) in texts.iter().enumerate() {
            ids.push(s.subscribe(1, spec(text), tx.clone()).unwrap());
            // Interleave another connection so conn 1's ids are not dense.
            s.subscribe(2 + i as u64, spec("A(B)"), other_tx.clone()).unwrap();
        }
        let mut st = synopsis();
        for _ in 0..3 {
            s.broadcast(&st);
            let epoch = st.epoch();
            let queued = drain(&rx);
            assert_eq!(queued.len(), 1, "one hand-off per connection per epoch");
            let want: Vec<(u64, u64)> = ids.iter().map(|&id| (id, epoch)).collect();
            assert_eq!(ids_and_epochs(&queued[0]), want);
            // Each single-subscription connection gets its own item.
            assert_eq!(drain(&other_rx).len(), texts.len());
            next_batch(&mut st);
        }
        assert_eq!(s.metrics.push_updates.get(), 3 * 2 * texts.len() as u64);
    }

    #[test]
    fn a_full_queue_evicts_the_whole_connection_and_no_other() {
        // Deterministic stand-in for a wedged reader: a capacity-1 queue
        // that nothing drains.  The first broadcast fills it; the second
        // finds it full and must evict instead of blocking the batch.
        let s = subs();
        let (tx, _rx) = sync_channel::<EpochUpdates>(1);
        let (ok_tx, ok_rx) = sync_channel::<EpochUpdates>(16);
        let slow: Vec<u64> = ["A(B)", "B(A)", "A(A)"]
            .iter()
            .map(|q| s.subscribe(1, spec(q), tx.clone()).unwrap())
            .collect();
        let keep = s.subscribe(2, spec("A(B)"), ok_tx).unwrap();
        let mut st = synopsis();
        s.broadcast(&st);
        assert_eq!(s.active(), 4, "the first epoch fits the queue");
        next_batch(&mut st);
        s.broadcast(&st);
        assert_eq!(s.active(), 1, "full queue ⇒ every subscription of conn 1 evicted");
        assert!(!s.connection_active(1));
        assert!(s.connection_active(2));
        assert_eq!(s.metrics.slow_subscriber_evictions.get(), slow.len() as u64);
        assert_eq!(s.metrics.subscriptions_active.get(), 1.0);
        assert_eq!(s.distinct_queries(), 1, "eviction releases the plans only conn 1 held");
        for id in slow {
            assert!(!s.unsubscribe(1, id), "already gone");
        }
        assert_eq!(drain(&ok_rx).len(), 2, "the healthy connection missed nothing");
        assert!(s.unsubscribe(2, keep));
    }

    #[test]
    fn dead_receiver_is_evicted_on_next_broadcast() {
        let s = subs();
        let (tx, rx) = sync_channel::<EpochUpdates>(16);
        s.subscribe(1, spec("A(B)"), tx.clone()).unwrap();
        s.subscribe(1, spec("B(A)"), tx).unwrap();
        drop(rx); // pusher died / connection torn down out from under us
        s.broadcast(&synopsis());
        assert_eq!(s.active(), 0);
        assert_eq!(s.metrics.slow_subscriber_evictions.get(), 2);
        assert_eq!(s.distinct_queries(), 0);
    }

    #[test]
    fn duplicate_subscriptions_share_one_plan_and_refcount_it() {
        let s = subs();
        let (tx, rx) = sync_channel::<EpochUpdates>(16);
        let id1 = s.subscribe(1, spec("A(B)"), tx.clone()).unwrap();
        let id2 = s.subscribe(2, spec("A(B)"), tx).unwrap();
        assert_ne!(id1, id2);
        assert_eq!(s.active(), 2);
        assert_eq!(s.distinct_queries(), 1, "one compiled plan for both");

        let st = synopsis();
        s.broadcast(&st);
        let updates: Vec<Response> = drain(&rx).into_iter().flatten().collect();
        // Both subscriptions get the shared evaluation, to the bit.
        match updates.as_slice() {
            [
                Response::EstimateUpdate { epoch: e1, result: Ok(v1), .. },
                Response::EstimateUpdate { epoch: e2, result: Ok(v2), .. },
            ] => {
                assert_eq!(e1, e2);
                assert_eq!(v1.to_bits(), v2.to_bits());
            }
            other => panic!("expected two updates, got {other:?}"),
        }

        assert!(s.unsubscribe(1, id1));
        assert_eq!(s.distinct_queries(), 1, "still referenced by the other");
        assert!(s.unsubscribe(2, id2));
        assert_eq!(s.distinct_queries(), 0);
    }

    #[test]
    fn unsubscribe_requires_the_owning_connection() {
        let s = subs();
        let (tx, _rx) = sync_channel::<EpochUpdates>(16);
        let id = s.subscribe(7, spec("A(B)"), tx).unwrap();
        assert!(!s.unsubscribe(8, id), "someone else's subscription");
        assert!(s.connection_active(7));
        assert!(s.unsubscribe(7, id));
        assert!(!s.connection_active(7), "the last unsubscribe clears the connection");
    }

    #[test]
    fn drop_connection_reaps_only_that_connection() {
        let s = subs();
        let (tx, _rx) = sync_channel::<EpochUpdates>(16);
        s.subscribe(1, spec("A(B)"), tx.clone()).unwrap();
        s.subscribe(1, spec("A(A)"), tx.clone()).unwrap();
        let keep = s.subscribe(2, spec("A(B)"), tx).unwrap();
        s.drop_connection(1);
        assert_eq!(s.active(), 1);
        assert_eq!(s.metrics.subscriptions_active.get(), 1.0);
        assert!(s.unsubscribe(2, keep));
    }

    #[test]
    fn compilations_stay_flat_while_unrelated_labels_arrive() {
        // A value-labelled stream interns a fresh label every batch.  The
        // subscribed patterns name only labels already seen, so after the
        // first evaluation nothing recompiles.
        let s = subs();
        let (tx, rx) = sync_channel::<EpochUpdates>(64);
        s.subscribe(1, spec("A(B)"), tx.clone()).unwrap();
        s.subscribe(1, QuerySpec::parse(QueryMode::Unordered, "A(B,B)").unwrap(), tx).unwrap();
        let mut st = synopsis();
        s.broadcast(&st);
        let after_first = s.metrics.standing_compilations.get();
        assert_eq!(after_first, 2, "one compilation per distinct query");
        let a = st.labels_mut().intern("A");
        for i in 0..10 {
            let fresh = st.labels_mut().intern(&format!("value-{i}"));
            st.ingest(&sketchtree_tree::Tree::node(a, vec![sketchtree_tree::Tree::leaf(fresh)]));
            s.broadcast(&st);
        }
        assert_eq!(s.metrics.standing_compilations.get(), after_first);
        let queued = drain(&rx);
        assert_eq!(queued.len(), 11, "one queue item per broadcast");
        assert!(queued.iter().all(|u| u.len() == 2), "every broadcast still pushed both updates");
        let text = s.metrics.render(false);
        assert!(text.contains("sketchtree_standing_compilations_total 2\n"), "{text}");
    }

    #[test]
    fn per_connection_cap_is_enforced() {
        let s = Subscriptions::new(ServerMetrics::new(), 2);
        let (tx, _rx) = sync_channel::<EpochUpdates>(16);
        s.subscribe(1, spec("A(B)"), tx.clone()).unwrap();
        s.subscribe(1, spec("A(A)"), tx.clone()).unwrap();
        let err = s.subscribe(1, spec("B(A)"), tx.clone()).unwrap_err();
        assert!(err.contains("cap"), "{err}");
        // Another connection is unaffected.
        s.subscribe(2, spec("B(A)"), tx).unwrap();
    }
}
