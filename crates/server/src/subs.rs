//! Subscription dispatch: the bridge between the transport-agnostic
//! [`QueryRegistry`] and per-connection push queues.
//!
//! One [`Subscriptions`] instance lives for the server's lifetime.  Each
//! `Subscribe` frame registers its query (refcounted — duplicate
//! subscriptions to one canonical query share a single compiled plan) and
//! files a subscription entry holding a clone of that connection's
//! bounded push sender.  The [`SharedSketchTree`] batch hook calls
//! [`Subscriptions::broadcast`] once per ingest batch or merge, still
//! under the shared read lock, so every pushed estimate is evaluated at
//! exactly the epoch it reports.
//!
//! Delivery is **at-most-once per epoch** and deliberately lossy for slow
//! readers: updates are queued with a non-blocking `try_send`, and a
//! subscriber whose queue is full (or whose pusher thread died) is
//! *evicted* — its entry removed, its registration released — rather than
//! allowed to wedge the broadcast and, transitively, every ingest.  A
//! healthy subscriber that merely lags keeps its queue below the bound
//! because each update frame is small and the pusher drains continuously.
//!
//! Lock order is `SharedSketchTree` inner → registry mutex → table mutex,
//! always in that direction, and the two inner mutexes are never nested:
//! every method registers or unregisters with the registry strictly
//! outside the table guard (subscribe registers first and rolls back on a
//! cap rejection; removal paths collect doomed entries under the table
//! lock, drop it, then release their registrations).  No callback ever
//! re-enters the shared handle, so the hook cannot deadlock against
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

/// One live subscription: which connection owns it, which canonical query
/// it watches, and the bounded sender feeding that connection's pusher.
struct SubEntry {
    conn: u64,
    key: String,
    reg: u64,
    tx: SyncSender<Response>,
}

/// The server-wide subscription table plus the standing-query registry it
/// feeds.  See the module docs for the delivery and eviction contract.
pub struct Subscriptions {
    registry: QueryRegistry,
    table: Mutex<HashMap<u64, SubEntry>>,
    next_sub: AtomicU64,
    max_per_conn: usize,
    metrics: Arc<ServerMetrics>,
    /// Serializes [`Subscriptions::broadcast`] and records the last epoch
    /// pushed.  Batch hooks run under the *shared* read lock, so two
    /// connections' batches can fire concurrently; without this gate
    /// their per-subscription enqueues interleave and a subscriber can
    /// see epochs go backwards (observed by the loadgen harness).  The
    /// gate is the outermost lock in this module: it is only ever taken
    /// at the top of `broadcast`, before the registry or table locks, so
    /// the documented registry → table order is unchanged.
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
    /// through `tx`.  Returns the subscription id the client quotes in
    /// `Unsubscribe`, or an error when the connection is at its cap.
    pub fn subscribe(
        &self,
        conn: u64,
        spec: QuerySpec,
        tx: SyncSender<Response>,
    ) -> Result<u64, String> {
        let key = spec.key();
        // Register before taking the table lock: the documented order is
        // registry mutex → table mutex, so the table guard must never be
        // live across a registry call.
        let reg = self.registry.register(spec);
        let mut table = self.lock_table();
        if table.values().filter(|e| e.conn == conn).count() >= self.max_per_conn {
            drop(table);
            // Roll back — a cap rejection must not leak a plan refcount.
            self.registry.unregister(reg);
            return Err(format!(
                "connection already holds {} subscriptions (the per-connection cap)",
                self.max_per_conn
            ));
        }
        let id = self.next_sub.fetch_add(1, Ordering::Relaxed) + 1;
        table.insert(id, SubEntry { conn, key, reg, tx });
        drop(table);
        self.metrics.subscriptions_active.inc();
        Ok(id)
    }

    /// Drops subscription `id` if connection `conn` owns it.  Returns
    /// `false` for unknown ids or ids owned by another connection (a
    /// client cannot cancel someone else's subscription).
    pub fn unsubscribe(&self, conn: u64, id: u64) -> bool {
        let mut table = self.lock_table();
        if !matches!(table.get(&id), Some(entry) if entry.conn == conn) {
            return false;
        }
        let entry = table.remove(&id);
        drop(table);
        if let Some(entry) = entry {
            self.registry.unregister(entry.reg);
            self.metrics.subscriptions_active.dec();
        }
        true
    }

    /// Reaps every subscription owned by connection `conn` — called when
    /// its handler exits by any path, so a disconnect can never leak a
    /// table entry or a registry refcount.
    pub fn drop_connection(&self, conn: u64) {
        let mut table = self.lock_table();
        let ids: Vec<u64> = table
            .iter()
            .filter(|(_, e)| e.conn == conn)
            .map(|(&id, _)| id)
            .collect();
        let doomed: Vec<SubEntry> =
            ids.into_iter().filter_map(|id| table.remove(&id)).collect();
        drop(table);
        for entry in doomed {
            self.registry.unregister(entry.reg);
            self.metrics.subscriptions_active.dec();
        }
    }

    /// Re-evaluates every registered query against `st` and queues one
    /// [`Response::EstimateUpdate`] per live subscription.  Called from
    /// the batch hook, under the shared read lock.
    ///
    /// Evaluation cost is one pass over *distinct* registered queries —
    /// timed by `sketchtree_standing_eval_seconds`, whose sample count
    /// therefore equals the number of broadcast *epochs* regardless of how
    /// many subscribers read the results.  Fan-out is non-blocking: a
    /// full or dead queue evicts that subscriber on the spot.
    ///
    /// Broadcasts are serialized by `broadcast_gate`, which also makes
    /// per-subscription epochs *strictly increasing*: when concurrent
    /// batches race, the hook that loses the gate sees the same
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
        for (&id, entry) in table.iter() {
            let result = match results.get(&entry.key) {
                Some(r) => r.clone(),
                // A subscription filed after evaluate_all snapshotted the
                // registry; it catches the next batch.
                None => continue,
            };
            let update = Response::EstimateUpdate { id, epoch, result };
            match entry.tx.try_send(update) {
                Ok(()) => self.metrics.push_updates.inc(),
                Err(_) => evicted.push(id), // full or disconnected
            }
        }
        let evicted: Vec<SubEntry> =
            evicted.into_iter().filter_map(|id| table.remove(&id)).collect();
        drop(table);
        for entry in evicted {
            self.registry.unregister(entry.reg);
            self.metrics.subscriptions_active.dec();
            self.metrics.slow_subscriber_evictions.inc();
        }
        self.metrics.push_seconds.observe_duration(push_started.elapsed());
    }

    /// Live subscription count (table entries).
    pub fn active(&self) -> usize {
        self.lock_table().len()
    }

    /// Whether connection `conn` currently holds any subscription (a
    /// subscribed connection is exempt from the idle-close policy — it
    /// legitimately goes quiet and just reads pushes).
    pub fn connection_active(&self, conn: u64) -> bool {
        self.lock_table().values().any(|e| e.conn == conn)
    }

    /// Distinct compiled plans resident in the registry.
    pub fn distinct_queries(&self) -> usize {
        self.registry.distinct_queries()
    }

    fn lock_table(&self) -> MutexGuard<'_, HashMap<u64, SubEntry>> {
        self.table.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketchtree_core::sketchtree::{SketchTreeConfig, SketchTree};
    use sketchtree_standing::QueryMode;
    use std::sync::mpsc::sync_channel;

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

    #[test]
    fn slow_subscriber_is_evicted_not_waited_for() {
        // Deterministic stand-in for a wedged reader: a capacity-1 queue
        // that nothing drains.  The first broadcast fills it; the second
        // finds it full and must evict instead of blocking the batch.
        // The epoch must advance between broadcasts (as a real batch
        // would): the broadcast gate skips same-epoch re-broadcasts.
        let s = subs();
        let (tx, _rx) = sync_channel::<Response>(1);
        let id = s.subscribe(1, spec("A(B)"), tx).unwrap();
        let mut st = synopsis();
        s.broadcast(&st);
        assert_eq!(s.active(), 1, "first update fits the queue");
        let a = st.labels_mut().intern("A");
        let b = st.labels_mut().intern("B");
        st.ingest(&sketchtree_tree::Tree::node(a, vec![sketchtree_tree::Tree::leaf(b)]));
        s.broadcast(&st);
        assert_eq!(s.active(), 0, "full queue ⇒ evicted");
        assert_eq!(s.distinct_queries(), 0, "eviction releases the plan");
        assert_eq!(s.metrics.slow_subscriber_evictions.get(), 1);
        assert_eq!(s.metrics.subscriptions_active.get(), 0.0);
        assert!(!s.unsubscribe(1, id), "already gone");
    }

    #[test]
    fn dead_receiver_is_evicted_on_next_broadcast() {
        let s = subs();
        let (tx, rx) = sync_channel::<Response>(16);
        s.subscribe(1, spec("A(B)"), tx).unwrap();
        drop(rx); // pusher died / connection torn down out from under us
        s.broadcast(&synopsis());
        assert_eq!(s.active(), 0);
        assert_eq!(s.metrics.slow_subscriber_evictions.get(), 1);
    }

    #[test]
    fn duplicate_subscriptions_share_one_plan_and_refcount_it() {
        let s = subs();
        let (tx, rx) = sync_channel::<Response>(16);
        let id1 = s.subscribe(1, spec("A(B)"), tx.clone()).unwrap();
        let id2 = s.subscribe(2, spec("A(B)"), tx).unwrap();
        assert_ne!(id1, id2);
        assert_eq!(s.active(), 2);
        assert_eq!(s.distinct_queries(), 1, "one compiled plan for both");

        let st = synopsis();
        s.broadcast(&st);
        let (a, b) = (rx.recv().unwrap(), rx.recv().unwrap());
        // Both subscriptions get the shared evaluation, to the bit.
        match (a, b) {
            (
                Response::EstimateUpdate { epoch: e1, result: Ok(v1), .. },
                Response::EstimateUpdate { epoch: e2, result: Ok(v2), .. },
            ) => {
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
        let (tx, _rx) = sync_channel::<Response>(16);
        let id = s.subscribe(7, spec("A(B)"), tx).unwrap();
        assert!(!s.unsubscribe(8, id), "someone else's subscription");
        assert!(s.unsubscribe(7, id));
    }

    #[test]
    fn drop_connection_reaps_only_that_connection() {
        let s = subs();
        let (tx, _rx) = sync_channel::<Response>(16);
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
        let (tx, rx) = sync_channel::<Response>(64);
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
        assert_eq!(rx.try_iter().count(), 22, "every broadcast still pushed both updates");
        let text = s.metrics.render(false);
        assert!(text.contains("sketchtree_standing_compilations_total 2\n"), "{text}");
    }

    #[test]
    fn per_connection_cap_is_enforced() {
        let s = Subscriptions::new(ServerMetrics::new(), 2);
        let (tx, _rx) = sync_channel::<Response>(16);
        s.subscribe(1, spec("A(B)"), tx.clone()).unwrap();
        s.subscribe(1, spec("A(A)"), tx.clone()).unwrap();
        let err = s.subscribe(1, spec("B(A)"), tx.clone()).unwrap_err();
        assert!(err.contains("cap"), "{err}");
        // Another connection is unaffected.
        s.subscribe(2, spec("B(A)"), tx).unwrap();
    }
}
