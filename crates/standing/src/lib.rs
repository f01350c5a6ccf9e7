//! Standing queries over a [`SketchTree`] synopsis.
//!
//! Every ad-hoc `COUNT(Q)` pays the full query pipeline — parse, summary
//! expansion, arrangement enumeration, fingerprint mapping, and the ξ
//! rows of every atom — before the counters are even read, so serving
//! the same dashboard query at high QPS costs `O(query work × QPS)`.
//! This crate is the delta-query architecture on top of the paper's
//! linear sketch: register a query once, keep its *compiled plan*
//! ([`CompiledQuery`]: the atoms' or terms' ξ rows, grouped by virtual
//! stream) resident, and re-evaluate all registered queries once per
//! ingest batch — `O(registered queries)` walks over the counters of the
//! banks they touch, independent of how many subscribers read the pushed
//! results.
//!
//! Two invariants make the design sound:
//!
//! 1. **Compiled plans go stale only on a real dependency.**  A plan
//!    depends on the counters only through evaluation, never through
//!    compilation.  A simple pattern whose labels all resolve depends on
//!    nothing else (its atoms are a function of label names and the
//!    configuration), so it compiles once for the registration's
//!    lifetime.  A pattern naming a label the stream has not produced yet
//!    recompiles when one of those missing names is interned — that is
//!    how it flips from constant zero to live; other labels arriving
//!    leave it compiled — and a `*` / `//` pattern recompiles when
//!    [`SketchTree::structure_version`] moves.  On a value-labelled
//!    stream the label table grows nearly every batch, so the structure
//!    version never settles; only the plans that expand through it pay
//!    for that ([`SketchTree::is_current`]).
//! 2. **Evaluation is the ad-hoc evaluator.**  The ad-hoc entry points
//!    ([`SketchTree::count_ordered`] and friends) compile the same plan
//!    and evaluate it once through [`SketchTree::evaluate`]; a standing
//!    query keeps the plan and evaluates it every batch.  A pushed
//!    estimate is therefore *bit-identical* to an ad-hoc answer at the
//!    same epoch.
//!
//! The crate is transport-agnostic: [`QueryRegistry`] knows nothing about
//! connections or sockets.  The server layers subscription tables and
//! SKTP push frames on top.  [`QueryCache`] is the companion for queries
//! that are *not* registered: an epoch-keyed memo so repeated ad-hoc
//! `COUNT(Q)` between batches is one hash lookup.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

use sketchtree_core::sketchtree::{CompiledQuery, CountExpr, SketchTree};
use sketchtree_core::{parse_expr, parse_pattern};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// How a standing query's text is interpreted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryMode {
    /// `COUNT_ord(Q)` — ordered embeddings of one pattern.
    Ordered,
    /// `COUNT(Q)` — unordered embeddings of one pattern.
    Unordered,
    /// A full `+ − ×` expression over counts.
    Expr,
}

impl QueryMode {
    /// Short tag used in canonical keys and log lines.
    pub fn tag(self) -> &'static str {
        match self {
            QueryMode::Ordered => "ord",
            QueryMode::Unordered => "uno",
            QueryMode::Expr => "expr",
        }
    }
}

/// A validated, canonicalized standing-query specification.
///
/// Parsing happens here, at registration time, so malformed text is
/// rejected synchronously; expansion against the synopsis happens later,
/// at first evaluation (it can legitimately fail — e.g. a wildcard that
/// expands past the pattern cap — and that failure is per-epoch state,
/// reported through [`EstimateResult`], not a registration error).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySpec {
    mode: QueryMode,
    /// Canonical text: verbatim for patterns, the parsed expression's
    /// display form for expressions (so `COUNT(a) +COUNT(b)` and
    /// `COUNT(a) + COUNT(b)` share one compiled plan).
    text: String,
    /// The parsed expression, kept so recompilation never re-parses.
    expr: Option<CountExpr>,
}

impl QuerySpec {
    /// Validates `text` under `mode` and builds the canonical spec.
    pub fn parse(mode: QueryMode, text: &str) -> Result<Self, String> {
        match mode {
            QueryMode::Ordered | QueryMode::Unordered => {
                parse_pattern(text).map_err(|e| e.to_string())?;
                Ok(Self { mode, text: text.to_string(), expr: None })
            }
            QueryMode::Expr => {
                let expr = parse_expr(text).map_err(|e| e.to_string())?;
                Ok(Self { mode, text: expr.to_string(), expr: Some(expr) })
            }
        }
    }

    /// The canonical cache/registry key: mode tag + canonical text.
    pub fn key(&self) -> String {
        format!("{}:{}", self.mode.tag(), self.text)
    }

    /// The query mode.
    pub fn mode(&self) -> QueryMode {
        self.mode
    }

    /// The canonical query text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The parsed expression, for [`QueryMode::Expr`] specs.
    pub fn expr(&self) -> Option<&CountExpr> {
        self.expr.as_ref()
    }
}

/// One evaluation outcome: the estimate, or the textual reason this query
/// cannot currently be answered (e.g. expansion overflow).
pub type EstimateResult = Result<f64, String>;

/// One distinct registered query (shared by all duplicate registrations).
struct Entry {
    spec: QuerySpec,
    refs: usize,
    compiled: Option<CompiledQuery>,
}

#[derive(Default)]
struct Inner {
    /// Distinct queries by canonical key.
    by_key: HashMap<String, Entry>,
    /// Registration id → canonical key.
    regs: HashMap<u64, String>,
}

/// A registry of standing queries with compiled-plan reuse.
///
/// Registrations are refcounted by canonical key: ten subscribers to
/// `article(author)` share one [`QuerySpec`], one compiled plan, and one
/// evaluation per batch.  [`QueryRegistry::evaluate_all`] is the per-batch
/// entry point; it recompiles a plan only when [`SketchTree::is_current`]
/// says what it depends on has moved.
#[derive(Default)]
pub struct QueryRegistry {
    inner: Mutex<Inner>,
    next_id: AtomicU64,
    compilations: AtomicU64,
}

impl QueryRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a query, returning a registration id.  Duplicate specs
    /// (same canonical key) share one compiled plan.
    pub fn register(&self, spec: QuerySpec) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let mut inner = self.lock();
        let key = spec.key();
        inner
            .by_key
            .entry(key.clone())
            .or_insert_with(|| Entry { spec, refs: 0, compiled: None })
            .refs += 1;
        inner.regs.insert(id, key);
        id
    }

    /// Drops a registration.  The compiled plan is released when the last
    /// registration of its query goes away.  Returns `false` for unknown
    /// ids (already unregistered — idempotent).
    pub fn unregister(&self, id: u64) -> bool {
        let mut inner = self.lock();
        let Some(key) = inner.regs.remove(&id) else {
            return false;
        };
        if let Some(entry) = inner.by_key.get_mut(&key) {
            entry.refs -= 1;
            if entry.refs == 0 {
                inner.by_key.remove(&key);
            }
        }
        true
    }

    /// The canonical key a registration id maps to, if still registered.
    pub fn key_of(&self, id: u64) -> Option<String> {
        self.lock().regs.get(&id).cloned()
    }

    /// Number of live registrations.
    pub fn registrations(&self) -> usize {
        self.lock().regs.len()
    }

    /// Number of distinct queries (compiled plans) resident.
    pub fn distinct_queries(&self) -> usize {
        self.lock().by_key.len()
    }

    /// Total plan compilations performed since creation.  Once every
    /// registered query's labels have appeared, a stream that adds no new
    /// transition under a `*` / `//` query holds this constant while
    /// `evaluate_all` keeps running — the observable proof of
    /// compiled-plan reuse.
    pub fn compilations(&self) -> u64 {
        self.compilations.load(Ordering::Relaxed)
    }

    /// Re-evaluates every distinct registered query against `st`,
    /// returning `(canonical key, estimate)` pairs.  Cost per call is one
    /// plan evaluation per distinct query — plans are only recompiled
    /// when what they depend on moved ([`SketchTree::is_current`]).
    ///
    /// Call this under the same lock scope that reads `st.epoch()` (as
    /// the server does inside one
    /// [`sketchtree_core::concurrent::SharedSketchTree::read`]), so every
    /// returned estimate belongs to exactly that epoch.
    pub fn evaluate_all(&self, st: &SketchTree) -> Vec<(String, EstimateResult)> {
        let mut inner = self.lock();
        let mut out = Vec::with_capacity(inner.by_key.len());
        for (key, entry) in inner.by_key.iter_mut() {
            if !entry.compiled.as_ref().is_some_and(|c| st.is_current(c)) {
                entry.compiled = None;
            }
            let compiled = entry.compiled.get_or_insert_with(|| {
                self.compilations.fetch_add(1, Ordering::Relaxed);
                Self::compile(&entry.spec, st)
            });
            out.push((key.clone(), st.evaluate(compiled).map_err(|e| e.to_string())));
        }
        out
    }

    fn compile(spec: &QuerySpec, st: &SketchTree) -> CompiledQuery {
        match spec.mode {
            QueryMode::Ordered => st.compile_ordered(&spec.text),
            QueryMode::Unordered => st.compile_unordered(&spec.text),
            QueryMode::Expr => {
                st.compile_expr(spec.expr.as_ref().expect("expr specs carry their parse"))
            }
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// An epoch-keyed memo for *ad-hoc* (unregistered) queries.
///
/// Keys are canonical query keys ([`QuerySpec::key`]); a hit requires the
/// stored epoch to equal the asker's epoch, so a stale value can never be
/// served — any ingest, merge or restore bumps the synopsis epoch and
/// every cached entry silently expires.  Bounded: when full, the whole map
/// is dropped (entries are epoch-scoped and cheap to recompute; LRU
/// bookkeeping would cost more than it saves).
pub struct QueryCache {
    inner: Mutex<HashMap<String, (u64, f64)>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for QueryCache {
    fn default() -> Self {
        Self::with_capacity(4096)
    }
}

impl QueryCache {
    /// Creates a cache bounded to `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(HashMap::new()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Returns the cached estimate for `key` at exactly `epoch`, counting
    /// a hit or miss.
    pub fn lookup(&self, key: &str, epoch: u64) -> Option<f64> {
        let guard = self.lock();
        match guard.get(key) {
            Some(&(e, v)) if e == epoch => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores an estimate computed at `epoch`.
    pub fn insert(&self, key: String, epoch: u64, value: f64) {
        let mut guard = self.lock();
        if guard.len() >= self.capacity && !guard.contains_key(&key) {
            guard.clear();
        }
        guard.insert(key, (epoch, value));
    }

    /// Lookups that returned a current-epoch value.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing (or a stale epoch).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<String, (u64, f64)>> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketchtree_core::sketchtree::SketchTreeConfig;

    fn synopsis() -> SketchTree {
        let mut st = SketchTree::new(SketchTreeConfig {
            max_pattern_edges: 3,
            ..SketchTreeConfig::default()
        });
        for l in ["A", "B", "C"] {
            st.labels_mut().intern(l);
        }
        st
    }

    fn tree(st: &SketchTree) -> sketchtree_tree::Tree {
        use sketchtree_tree::Tree;
        let a = st.labels().lookup("A").unwrap();
        let b = st.labels().lookup("B").unwrap();
        Tree::node(a, vec![Tree::leaf(b), Tree::leaf(b)])
    }

    #[test]
    fn spec_canonicalizes_expressions() {
        let a = QuerySpec::parse(QueryMode::Expr, "COUNT_ord(A(B)) +COUNT(C)").unwrap();
        let b = QuerySpec::parse(QueryMode::Expr, "COUNT_ord(A(B)) + COUNT(C)").unwrap();
        assert_eq!(a.key(), b.key());
        assert!(QuerySpec::parse(QueryMode::Ordered, "A((").is_err());
        assert!(QuerySpec::parse(QueryMode::Expr, "COUNT(").is_err());
    }

    #[test]
    fn duplicate_registrations_share_one_plan() {
        let reg = QueryRegistry::new();
        let s = || QuerySpec::parse(QueryMode::Ordered, "A(B)").unwrap();
        let id1 = reg.register(s());
        let id2 = reg.register(s());
        assert_ne!(id1, id2);
        assert_eq!(reg.registrations(), 2);
        assert_eq!(reg.distinct_queries(), 1);

        let st = synopsis();
        reg.evaluate_all(&st);
        reg.evaluate_all(&st);
        assert_eq!(reg.compilations(), 1, "same structure ⇒ one compile, many evals");

        assert!(reg.unregister(id1));
        assert_eq!(reg.distinct_queries(), 1, "refcount keeps the shared plan");
        assert!(reg.unregister(id2));
        assert_eq!(reg.distinct_queries(), 0, "last unregister releases it");
        assert!(!reg.unregister(id2), "idempotent");
    }

    #[test]
    fn evaluation_is_bit_identical_to_adhoc_and_recompiles_on_structure_change() {
        let reg = QueryRegistry::new();
        reg.register(QuerySpec::parse(QueryMode::Ordered, "A(B)").unwrap());
        reg.register(QuerySpec::parse(QueryMode::Unordered, "A(B,B)").unwrap());
        reg.register(QuerySpec::parse(QueryMode::Expr, "COUNT_ord(A(B)) - COUNT(C)").unwrap());

        let mut st = synopsis();
        let t = tree(&st);
        for _ in 0..10 {
            st.ingest(&t);
        }
        let results: HashMap<String, EstimateResult> =
            reg.evaluate_all(&st).into_iter().collect();
        let want_ord = st.count_ordered("A(B)").unwrap();
        let want_uno = st.count_unordered("A(B,B)").unwrap();
        let want_expr = st
            .estimate(&sketchtree_core::parse_expr("COUNT_ord(A(B)) - COUNT(C)").unwrap())
            .unwrap();
        assert_eq!(results["ord:A(B)"].as_ref().unwrap().to_bits(), want_ord.to_bits());
        assert_eq!(results["uno:A(B,B)"].as_ref().unwrap().to_bits(), want_uno.to_bits());
        assert_eq!(
            results["expr:(COUNT_ord(A(B)) - COUNT(C))"].as_ref().unwrap().to_bits(),
            want_expr.to_bits()
        );

        // A new label and transition move the structure version, but
        // these plans name only resolved labels: nothing recompiles.
        let before = reg.compilations();
        let d = st.labels_mut().intern("D");
        let a = st.labels().lookup("A").unwrap();
        st.ingest(&sketchtree_tree::Tree::node(a, vec![sketchtree_tree::Tree::leaf(d)]));
        reg.evaluate_all(&st);
        assert_eq!(reg.compilations(), before, "resolved simple plans never go stale");
    }

    #[test]
    fn an_unresolved_label_recompiles_until_it_appears() {
        let reg = QueryRegistry::new();
        reg.register(QuerySpec::parse(QueryMode::Ordered, "A(E)").unwrap());
        let mut st = synopsis();
        let zero: HashMap<_, _> = reg.evaluate_all(&st).into_iter().collect();
        assert_eq!(zero["ord:A(E)"], Ok(0.0), "an unseen label counts exactly zero");
        reg.evaluate_all(&st);
        assert_eq!(reg.compilations(), 1, "no new label, no recompile");

        // Unrelated labels arrive, as value labels do every batch: the
        // plan still names only E, so it stays compiled and stays zero.
        let a = st.labels().lookup("A").unwrap();
        for i in 0..5 {
            let v = st.labels_mut().intern(&format!("value-{i}"));
            st.ingest(&sketchtree_tree::Tree::node(a, vec![sketchtree_tree::Tree::leaf(v)]));
            let zero: HashMap<_, _> = reg.evaluate_all(&st).into_iter().collect();
            assert_eq!(zero["ord:A(E)"], Ok(0.0));
        }
        assert_eq!(reg.compilations(), 1, "unrelated labels never recompile");

        // The label appears: the plan recompiles and goes live.
        let e = st.labels_mut().intern("E");
        let t = sketchtree_tree::Tree::node(a, vec![sketchtree_tree::Tree::leaf(e)]);
        for _ in 0..5 {
            st.ingest(&t);
        }
        let live: HashMap<_, _> = reg.evaluate_all(&st).into_iter().collect();
        assert_eq!(reg.compilations(), 2);
        let want = st.count_ordered("A(E)").unwrap();
        assert_eq!(live["ord:A(E)"].as_ref().unwrap().to_bits(), want.to_bits());
        assert!(want > 0.0);

        // Resolved now: further labels leave it compiled.
        st.labels_mut().intern("F");
        reg.evaluate_all(&st);
        assert_eq!(reg.compilations(), 2);
    }

    #[test]
    fn wildcard_plans_follow_the_summary() {
        let reg = QueryRegistry::new();
        reg.register(QuerySpec::parse(QueryMode::Ordered, "A(*)").unwrap());
        let mut st = synopsis();
        let t = tree(&st);
        st.ingest(&t);
        let first: HashMap<_, _> = reg.evaluate_all(&st).into_iter().collect();
        assert_eq!(
            first["ord:A(*)"].as_ref().unwrap().to_bits(),
            st.count_ordered("A(*)").unwrap().to_bits()
        );
        // A new child label under A widens the wildcard's expansion; the
        // compiled plan must follow, still bit-identical to ad-hoc.
        let a = st.labels().lookup("A").unwrap();
        let c = st.labels().lookup("C").unwrap();
        st.ingest(&sketchtree_tree::Tree::node(a, vec![sketchtree_tree::Tree::leaf(c)]));
        let second: HashMap<_, _> = reg.evaluate_all(&st).into_iter().collect();
        assert_eq!(
            second["ord:A(*)"].as_ref().unwrap().to_bits(),
            st.count_ordered("A(*)").unwrap().to_bits()
        );
    }

    #[test]
    fn cache_serves_same_epoch_only_and_stays_bounded() {
        let cache = QueryCache::with_capacity(2);
        assert_eq!(cache.lookup("k", 5), None);
        cache.insert("k".into(), 5, 1.5);
        assert_eq!(cache.lookup("k", 5), Some(1.5));
        assert_eq!(cache.lookup("k", 6), None, "any epoch change expires it");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
        // Capacity bound: a third distinct key drops the map, not the bound.
        cache.insert("k2".into(), 5, 2.0);
        cache.insert("k3".into(), 5, 3.0);
        assert_eq!(cache.lookup("k3", 5), Some(3.0));
        assert_eq!(cache.lookup("k", 5), None, "evicted wholesale at capacity");
    }
}
