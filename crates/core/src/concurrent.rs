//! A thread-safe handle around [`SketchTree`].
//!
//! The paper's synopsis is single-writer by construction (one stream), but
//! real deployments often want query threads reading while the ingest
//! thread writes, or several parsers feeding one synopsis.  AMS updates
//! commute — `X += ξ` in any interleaving yields the same counters — so a
//! reader-writer lock over the whole synopsis gives linearizable counts
//! with zero algorithmic change: ingests take the write lock (they mutate
//! counters and top-k state), queries take the read lock and can proceed
//! concurrently with each other.
//!
//! Ingest keeps the exclusive lock short: [`SharedSketchTree::ingest_batch`]
//! enumerates pattern values under the *shared* lock (concurrent with
//! queries and other producers) and takes the exclusive lock only to
//! [`SketchTree::apply`] them.  Building the trees is the caller's,
//! lock-free, side.

use crate::sketchtree::{CountExpr, EnumScratch, SketchTree, SketchTreeError};
use parking_lot::{Mutex, RwLock};
use sketchtree_tree::Tree;
use std::sync::Arc;

/// Trees per lock window in [`SharedSketchTree::ingest_batch`].  Bounds
/// how long one batch holds the synopsis lock, so checkpoint writers and
/// queries interleave with large batches instead of waiting them out.
const LOCK_WINDOW_TREES: usize = 64;

/// One caller's reusable [`SharedSketchTree::ingest_batch`] buffers: the
/// enumeration scratch and the current window's pattern values.
type BatchBuffers = (EnumScratch, Vec<u64>);

/// A cloneable, thread-safe [`SketchTree`] handle.
#[derive(Clone)]
pub struct SharedSketchTree {
    inner: Arc<RwLock<SketchTree>>,
    /// Enumeration buffers for [`SharedSketchTree::ingest_batch`], one per
    /// concurrent caller: a batch pops one (or starts a fresh one), and
    /// returns it warm, so steady-state batches allocate nothing.  The
    /// mutex is held only for the pop and the push, never across the
    /// synopsis lock.
    scratch: Arc<Mutex<Vec<BatchBuffers>>>,
}

impl SharedSketchTree {
    /// Wraps a synopsis for shared use.
    pub fn new(st: SketchTree) -> Self {
        Self {
            inner: Arc::new(RwLock::new(st)),
            scratch: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Ingests a batch of trees in lock windows of 64 trees.
    ///
    /// Per window, the expensive half of Algorithm 1 — pattern
    /// enumeration, Prüfer encoding and fingerprint mapping — runs on the
    /// calling thread under the *shared* lock (concurrent with queries and
    /// other producers); then [`SketchTree::apply`] inserts the window's
    /// values under the exclusive lock.  Keeping enumeration out of the
    /// exclusive window keeps it short, so queries wait less behind
    /// ingest, and bounding each window means a checkpoint writer or query
    /// interleaves between windows instead of waiting out the whole batch.
    ///
    /// The resulting synopsis state is bit-identical to calling
    /// [`SketchTree::ingest`] on each tree in order (when no other
    /// writer interleaves).  After warm-up a batch allocates nothing.
    ///
    /// Returns `(trees, pattern instances)` added by this batch.
    pub fn ingest_batch(&self, trees: &[Tree]) -> (u64, u64) {
        let (mut scratch, mut values) = self.take_scratch();
        let mut patterns = 0u64;
        for window in trees.chunks(LOCK_WINDOW_TREES) {
            values.clear();
            self.read(|st| {
                for t in window {
                    st.enumerate_values_into(t, &mut scratch, &mut values);
                }
            });
            patterns += values.len() as u64;
            self.inner.write().apply(window, &values);
        }
        self.scratch.lock().push((scratch, values));
        (trees.len() as u64, patterns)
    }

    /// Pops a warm set of batch buffers from the pool, or starts a fresh
    /// one when every set is in use by another batch.
    fn take_scratch(&self) -> BatchBuffers {
        self.scratch.lock().pop().unwrap_or_default()
    }

    /// Attaches instrumentation to the wrapped synopsis (see
    /// [`SketchTree::attach_metrics`]).
    pub fn attach_metrics(&self, metrics: std::sync::Arc<crate::metrics::CoreMetrics>) {
        self.inner.write().attach_metrics(metrics);
    }

    /// Merges another synopsis into the shared one under the write lock
    /// (see [`SketchTree::merge`] for semantics and the config-equality
    /// requirement).  Queries observe either the pre- or post-merge state,
    /// never a partial merge.
    pub fn merge(&self, other: &SketchTree) -> Result<(), &'static str> {
        self.inner.write().merge(other)
    }

    /// Runs `f` with mutable access to the label table (for building input
    /// trees or resolving query labels ahead of time).
    pub fn with_labels<R>(&self, f: impl FnOnce(&mut sketchtree_tree::LabelTable) -> R) -> R {
        let mut guard = self.inner.write();
        let before = guard.labels().len();
        let r = f(guard.labels_mut());
        // Newly interned labels get their canonical codes cached now, so
        // the shared-lock enumeration path never recomputes them per
        // pattern.
        guard.sync_label_codes();
        // Interning can flip a pattern from constant-folded-zero to a live
        // sketch lookup, so it is estimate-visible: invalidate epoch-keyed
        // caches.
        if guard.labels().len() != before {
            guard.bump_epoch();
        }
        r
    }

    /// The current synopsis epoch (see [`SketchTree::epoch`]).
    pub fn epoch(&self) -> u64 {
        self.inner.read().epoch()
    }

    /// The durability cursor (see [`SketchTree::wal_seq`]).
    pub fn wal_seq(&self) -> u64 {
        self.inner.read().wal_seq()
    }

    /// Advances the durability cursor (see [`SketchTree::set_wal_seq`];
    /// monotone, does not bump the epoch).  Called by the server's
    /// write-ahead-log layer after a logged batch is applied.
    pub fn set_wal_seq(&self, seq: u64) {
        self.inner.write().set_wal_seq(seq);
    }

    /// `COUNT_ord` of a textual pattern (shared lock; concurrent with other
    /// queries).
    pub fn count_ordered(&self, pattern: &str) -> Result<f64, SketchTreeError> {
        self.inner.read().count_ordered(pattern)
    }

    /// Unordered `COUNT` of a textual pattern.
    pub fn count_unordered(&self, pattern: &str) -> Result<f64, SketchTreeError> {
        self.inner.read().count_unordered(pattern)
    }

    /// Estimates a count expression.
    pub fn estimate(&self, expr: &CountExpr) -> Result<f64, SketchTreeError> {
        self.inner.read().estimate(expr)
    }

    /// Trees ingested so far.
    pub fn trees_processed(&self) -> u64 {
        self.inner.read().trees_processed()
    }

    /// Pattern instances sketched so far.
    pub fn patterns_processed(&self) -> u64 {
        self.inner.read().patterns_processed()
    }

    /// Runs `f` with shared read access to the full synopsis API.
    pub fn read<R>(&self, f: impl FnOnce(&SketchTree) -> R) -> R {
        f(&self.inner.read())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketchtree::SketchTreeConfig;
    use sketchtree_sketch::SynopsisConfig;
    use sketchtree_tree::Tree;

    fn cfg() -> SketchTreeConfig {
        SketchTreeConfig {
            max_pattern_edges: 2,
            synopsis: SynopsisConfig {
                s1: 30,
                s2: 5,
                virtual_streams: 7,
                topk: 4,
                ..SynopsisConfig::default()
            },
            track_exact: true,
            ..SketchTreeConfig::default()
        }
    }

    fn shared() -> SharedSketchTree {
        SharedSketchTree::new(SketchTree::new(cfg()))
    }

    #[test]
    fn concurrent_ingest_and_query() {
        let st = shared();
        let (a, b) = st.with_labels(|l| (l.intern("A"), l.intern("B")));
        let tree = Tree::node(a, vec![Tree::leaf(b)]);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let st = st.clone();
                let tree = tree.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        st.ingest_batch(std::slice::from_ref(&tree));
                        // Interleave reads; value is monotone noisy but must
                        // never error.
                        let _ = st.count_ordered("A(B)").expect("valid query");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("no panics");
        }
        assert_eq!(st.trees_processed(), 400);
        // All 400 instances of the single pattern are in the sketches
        // (updates commute regardless of interleaving).
        let est = st.count_ordered("A(B)").unwrap();
        assert!((est - 400.0).abs() < 40.0, "est {est}");
        assert_eq!(
            st.read(|s| s.exact_count_ordered("A(B)").unwrap()),
            400
        );
    }

    #[test]
    fn ingest_batch_matches_sequential_ingest() {
        let batched = shared();
        let mut per_tree = SketchTree::new(cfg());
        let (a, b, c) = batched.with_labels(|l| (l.intern("A"), l.intern("B"), l.intern("C")));
        for name in ["A", "B", "C"] {
            per_tree.labels_mut().intern(name);
        }
        let trees: Vec<Tree> = (0..20)
            .map(|i| match i % 3 {
                0 => Tree::node(a, vec![Tree::leaf(b), Tree::leaf(c)]),
                1 => Tree::node(a, vec![Tree::node(b, vec![Tree::leaf(c)])]),
                _ => Tree::node(b, vec![Tree::leaf(c)]),
            })
            .collect();
        batched.ingest_batch(&trees);
        for t in &trees {
            per_tree.ingest(t);
        }
        let sequential = SharedSketchTree::new(per_tree);
        assert_eq!(batched.trees_processed(), 20);
        assert_eq!(
            batched.patterns_processed(),
            sequential.patterns_processed()
        );
        for q in ["A(B,C)", "A(B(C))", "B(C)"] {
            assert_eq!(
                batched.count_ordered(q).unwrap(),
                sequential.count_ordered(q).unwrap(),
                "query {q}"
            );
        }
        assert_eq!(
            batched.read(|s| s.tracked_heavy_hitters()),
            sequential.read(|s| s.tracked_heavy_hitters())
        );
    }

    #[test]
    fn batch_ingest_from_many_threads() {
        let st = shared();
        let (a, b) = st.with_labels(|l| (l.intern("A"), l.intern("B")));
        let tree = Tree::node(a, vec![Tree::leaf(b), Tree::leaf(b)]);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let st = st.clone();
                let batch: Vec<Tree> = (0..25).map(|_| tree.clone()).collect();
                std::thread::spawn(move || {
                    for _ in 0..4 {
                        st.ingest_batch(&batch);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("no panics");
        }
        assert_eq!(st.trees_processed(), 400);
        assert_eq!(st.read(|s| s.exact_count_ordered("A(B)").unwrap()), 800);
    }

    #[test]
    fn epoch_tracks_every_estimate_visible_change() {
        let st = shared();
        assert_eq!(st.epoch(), 0);
        // Interning a label is estimate-visible (a constant-folded-zero
        // pattern can become a live lookup), so it bumps.
        let (a, b) = st.with_labels(|l| (l.intern("A"), l.intern("B")));
        assert_eq!(st.epoch(), 1);
        // Re-interning the same labels changes nothing: no bump.
        st.with_labels(|l| l.intern("A"));
        assert_eq!(st.epoch(), 1);
        let tree = Tree::node(a, vec![Tree::leaf(b)]);
        st.ingest_batch(std::slice::from_ref(&tree));
        assert_eq!(st.epoch(), 2);
        st.ingest_batch(&[tree.clone(), tree.clone()]);
        let post_batch = st.epoch();
        assert!(post_batch > 2, "batch ingest must advance the epoch");

        // Merge bumps (satellite: merge/MergeSnapshot must invalidate).
        let mut other = SketchTree::new(cfg());
        let (oa, ob) = (other.labels_mut().intern("A"), other.labels_mut().intern("B"));
        other.ingest(&Tree::node(oa, vec![Tree::leaf(ob)]));
        st.merge(&other).expect("configs match");
        assert_eq!(st.epoch(), post_batch + 1);

        // Restore-on-start lands at epoch 1, never 0: caches keyed on the
        // empty synopsis cannot alias the restored state.
        let bytes = st.read(crate::snapshot::write_snapshot);
        let restored = crate::snapshot::read_snapshot(&bytes).expect("snapshot readable");
        assert_eq!(restored.epoch(), 1);
    }

    #[test]
    fn clone_shares_state() {
        let st = shared();
        let a = st.with_labels(|l| l.intern("A"));
        let clone = st.clone();
        clone.ingest_batch(&[Tree::node(a, vec![Tree::leaf(a)])]);
        assert_eq!(st.trees_processed(), 1);
        assert_eq!(st.patterns_processed(), clone.patterns_processed());
    }

    #[test]
    fn checkpoint_completes_while_batch_is_mid_ingest() {
        // Lock windows bound every exclusive hold to LOCK_WINDOW_TREES
        // trees, so a checkpoint (a read-side snapshot, exactly what the
        // server's periodic writer does) gets the lock between windows
        // instead of waiting out the whole batch.
        let st = SharedSketchTree::new(SketchTree::new(SketchTreeConfig {
            max_pattern_edges: 3,
            synopsis: SynopsisConfig {
                s1: 30,
                s2: 5,
                virtual_streams: 7,
                topk: 4,
                ..SynopsisConfig::default()
            },
            ..SketchTreeConfig::default()
        }));
        let (a, b, c) = st.with_labels(|l| (l.intern("A"), l.intern("B"), l.intern("C")));
        // Trees bushy enough that enumerating 1500 of them spans many
        // scheduler quanta even on one core.
        let tree = Tree::node(
            a,
            vec![
                Tree::node(b, vec![Tree::leaf(c), Tree::leaf(c)]),
                Tree::node(c, vec![Tree::leaf(b)]),
                Tree::leaf(b),
            ],
        );
        let n = 1500u64;
        let batch: Vec<Tree> = (0..n).map(|_| tree.clone()).collect();
        let writer = {
            let st = st.clone();
            std::thread::spawn(move || st.ingest_batch(&batch))
        };
        // Wait for the batch to be visibly in progress, then checkpoint.
        let mut mid_snapshot = None;
        loop {
            let t = st.trees_processed();
            if t > 0 && t < n {
                mid_snapshot = Some(st.read(crate::snapshot::write_snapshot));
                break;
            }
            if t == n {
                break;
            }
            std::thread::yield_now();
        }
        let (trees, _) = writer.join().expect("ingest thread must not panic");
        assert_eq!(trees, n);
        let bytes = mid_snapshot
            .expect("never saw the batch mid-ingest: lock windows are not bounded");
        // The mid-batch checkpoint is a valid snapshot of a strict prefix
        // that ends on a window boundary.
        let restored = crate::snapshot::read_snapshot(&bytes).expect("snapshot readable");
        assert!(restored.trees_processed() > 0);
        assert!(restored.trees_processed() < n);
        assert_eq!(restored.trees_processed() % LOCK_WINDOW_TREES as u64, 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]
        /// Batch parity, end to end through the snapshot encoder: a stream
        /// cut into random batches (some spanning several lock windows)
        /// and fed through `ingest_batch` produces a snapshot
        /// *byte-identical* to per-tree `ingest` — with top-k run on every
        /// value and with top-k sampled, where the per-partition RNG draw
        /// order is the subtle hazard.
        #[test]
        fn batch_parity_across_random_splits(
            trees in proptest::prop::collection::vec(arb_tree(), 1..160),
            cuts in proptest::prop::collection::vec(0usize..160, 0..6),
            topk_probability in proptest::prop_oneof![
                proptest::prelude::Just(u16::MAX),
                proptest::prelude::Just(u16::MAX / 3),
            ],
            topk_mode in proptest::prop_oneof![
                proptest::prelude::Just(sketchtree_sketch::TopKMode::Paper),
                proptest::prelude::Just(sketchtree_sketch::TopKMode::Filter),
            ],
        ) {
            let config = SketchTreeConfig {
                max_pattern_edges: 3,
                synopsis: SynopsisConfig {
                    s1: 20,
                    s2: 5,
                    virtual_streams: 7,
                    topk: 4,
                    topk_probability,
                    ..SynopsisConfig::default()
                },
                ..SketchTreeConfig::default()
            };
            let build = || {
                let mut st = SketchTree::new(config.clone());
                st.set_topk_mode(topk_mode);
                for l in ["L0", "L1", "L2", "L3"] {
                    st.labels_mut().intern(l);
                }
                st
            };
            let mut sequential = build();
            for t in &trees {
                sequential.ingest(t);
            }
            let expected = crate::snapshot::write_snapshot(&sequential);

            let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(trees.len())).collect();
            bounds.push(0);
            bounds.push(trees.len());
            bounds.sort_unstable();
            bounds.dedup();
            let shared = SharedSketchTree::new(build());
            for w in bounds.windows(2) {
                shared.ingest_batch(&trees[w[0]..w[1]]);
            }
            let got = shared.read(crate::snapshot::write_snapshot);
            proptest::prop_assert!(
                got == expected,
                "snapshot diverged for batch bounds {:?} ({} vs {} bytes)",
                bounds,
                got.len(),
                expected.len()
            );
        }
    }

    /// Small random trees over four labels, matching the `build()` label
    /// table in the parity proptest.
    fn arb_tree() -> impl proptest::prelude::Strategy<Value = Tree> {
        use proptest::prelude::*;
        use sketchtree_tree::Label;
        let leaf = (0u32..4).prop_map(|l| Tree::leaf(Label(l)));
        leaf.prop_recursive(3, 12, 3, |inner| {
            ((0u32..4), prop::collection::vec(inner, 1..3))
                .prop_map(|(l, children)| Tree::node(Label(l), children))
        })
    }
}
