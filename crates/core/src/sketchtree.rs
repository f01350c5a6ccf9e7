//! The SketchTree synopsis — Algorithms 1 and 2 behind one API.
//!
//! [`SketchTree`] is the object the paper's streaming model (Figure 2)
//! describes: trees go in one at a time ([`SketchTree::ingest`], Algorithm
//! 1 — EnumTree, Prüfer encoding, one-dimensional mapping, sketch update,
//! top-k processing), and at *any* moment *any* tree-pattern count query can
//! be answered approximately (Algorithm 2 plus the Section 4 expression
//! estimators):
//!
//! * [`SketchTree::count_ordered`] — `COUNT_ord(Q)` (Theorem 1), with `*`
//!   and `//` queries rewritten through the structural summary
//!   (Section 6.2);
//! * [`SketchTree::count_unordered`] — `COUNT(Q)` over all distinct ordered
//!   arrangements (Section 3.3, Theorem 2);
//! * [`SketchTree::estimate`] — arbitrary `+ − ×` expressions over ordered
//!   and unordered counts ([`CountExpr`], Section 4);
//! * diagnostics: residual self-join size, tracked heavy hitters, memory.
//!
//! With [`SketchTreeConfig::track_exact`] the synopsis additionally keeps
//! the deterministic one-counter-per-pattern baseline in parallel, which is
//! how the experiment harness measures relative errors — at the memory cost
//! the paper's introduction warns about.

use crate::enumtree::{enumerate_patterns_config_with, EnumArena};
use crate::exact::ExactCounter;
use crate::mapping::Mapper;
use crate::metrics::{relative_spread, CoreMetrics, SketchHealth};
use crate::query::{parse_pattern, QueryError, QueryPattern};
use crate::summary::{ExpandError, ExpandLimits, StructuralSummary};
use crate::unordered::{arrangements, ArrangementError};
use sketchtree_sketch::expr::Term;
use sketchtree_sketch::virtual_streams::SynopsisError;
use sketchtree_sketch::{QueryPlan, StreamSynopsis, SynopsisConfig};
use sketchtree_tree::{Label, LabelTable, NodeId, PruferSeq, Tree};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Configuration of a [`SketchTree`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchTreeConfig {
    /// Maximum pattern size `k` in edges for EnumTree (paper: 6 for
    /// TREEBANK, 4 for DBLP).
    pub max_pattern_edges: usize,
    /// Also count single-node patterns (label frequencies). The paper's
    /// EnumTree emits patterns with ≥ 1 edge; default false.
    pub include_single_nodes: bool,
    /// Rabin fingerprint degree for the one-dimensional mapping
    /// (paper: 31).
    pub fingerprint_degree: u32,
    /// Seed for the mapping polynomial (independent of the sketch seeds).
    pub mapping_seed: u64,
    /// Sketch array / virtual stream / top-k configuration.
    pub synopsis: SynopsisConfig,
    /// Maintain the structural summary enabling `*` and `//` queries.
    pub maintain_summary: bool,
    /// Track exact counts alongside the sketches (ground truth for
    /// experiments; memory grows with distinct patterns).
    pub track_exact: bool,
    /// Cap on distinct ordered arrangements for unordered queries.
    pub max_arrangements: usize,
    /// Limits for `*` / `//` expansion.
    pub expand_limits: ExpandLimits,
}

impl Default for SketchTreeConfig {
    fn default() -> Self {
        Self {
            max_pattern_edges: 4,
            include_single_nodes: false,
            fingerprint_degree: 31,
            mapping_seed: 0xF16E_12AB,
            synopsis: SynopsisConfig::default(),
            maintain_summary: true,
            track_exact: false,
            max_arrangements: 1024,
            expand_limits: ExpandLimits::default(),
        }
    }
}

/// Errors surfaced by [`SketchTree`] queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SketchTreeError {
    /// Pattern text failed to parse.
    Query(QueryError),
    /// Estimation failed (bad expression or insufficient ξ independence).
    Synopsis(SynopsisError),
    /// Unordered expansion exceeded its cap.
    Arrangement(ArrangementError),
    /// `*` / `//` expansion exceeded its cap.
    Expand(ExpandError),
    /// A `*` or `//` query was asked but the summary is disabled.
    SummaryRequired,
    /// The query pattern has more edges than EnumTree enumerates — the
    /// synopsis has never seen such patterns, so any estimate would be
    /// meaningless noise (the paper defers counting patterns larger than k
    /// to future work; we surface it as an explicit error).
    PatternTooLarge {
        /// Edges in the query.
        edges: usize,
        /// The synopsis' `max_pattern_edges`.
        max: usize,
    },
    /// Exact counts were requested but `track_exact` is off.
    ExactTrackingDisabled,
}

impl fmt::Display for SketchTreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SketchTreeError::Query(e) => write!(f, "query parse error: {e}"),
            SketchTreeError::Synopsis(e) => write!(f, "estimation error: {e}"),
            SketchTreeError::Arrangement(e) => write!(f, "{e}"),
            SketchTreeError::Expand(e) => write!(f, "{e}"),
            SketchTreeError::SummaryRequired => write!(
                f,
                "query uses `*` or `//` but the structural summary is disabled \
                 (set SketchTreeConfig::maintain_summary)"
            ),
            SketchTreeError::ExactTrackingDisabled => {
                write!(f, "exact counts unavailable: SketchTreeConfig::track_exact is off")
            }
            SketchTreeError::PatternTooLarge { edges, max } => write!(
                f,
                "query pattern has {edges} edges but the synopsis only counts patterns \
                 with up to {max} (SketchTreeConfig::max_pattern_edges)"
            ),
        }
    }
}

impl std::error::Error for SketchTreeError {}

impl From<QueryError> for SketchTreeError {
    fn from(e: QueryError) -> Self {
        SketchTreeError::Query(e)
    }
}
impl From<SynopsisError> for SketchTreeError {
    fn from(e: SynopsisError) -> Self {
        SketchTreeError::Synopsis(e)
    }
}
impl From<ArrangementError> for SketchTreeError {
    fn from(e: ArrangementError) -> Self {
        SketchTreeError::Arrangement(e)
    }
}
impl From<ExpandError> for SketchTreeError {
    fn from(e: ExpandError) -> Self {
        SketchTreeError::Expand(e)
    }
}

/// Exported structural-summary parts: sorted labels and transitions
/// (see `crate::snapshot`).
pub type SummaryParts = (
    Vec<sketchtree_tree::Label>,
    Vec<(sketchtree_tree::Label, sketchtree_tree::Label)>,
);

/// What a compiled query depends on besides the counters — and so the
/// only changes that make it stale ([`SketchTree::is_current`]).
///
/// A simple pattern's atoms are a function of its label *names* and the
/// configuration alone (`to_tree`, then canonical label codes), so once
/// every label resolves they never change.  Only two things move them:
/// one of its unresolved labels getting interned, and a `*` / `//`
/// expansion meeting a new label or transition in the structural summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanDependency {
    /// Simple patterns whose labels all resolve (or a query that fails for
    /// a reason the stream cannot change): never stale.
    Fixed,
    /// Simple patterns naming labels the table has not interned (they
    /// count exactly zero): stale once any of these names, sorted and
    /// deduplicated, is interned.  Other labels arriving leave it current.
    Labels(Vec<String>),
    /// A wildcard or descendant expansion: stale once
    /// [`SketchTree::structure_version`] moves from this stamp.
    Structure((u64, u64)),
}

/// A count or expression query compiled against one synopsis: the plan
/// that evaluates it as a walk over the counters ([`QueryPlan`]), or the
/// reason it cannot be answered, plus what the compilation depended on.
///
/// Compile with [`SketchTree::compile_ordered`],
/// [`SketchTree::compile_unordered`] or [`SketchTree::compile_expr`];
/// evaluate with [`SketchTree::evaluate`] for as long as
/// [`SketchTree::is_current`] holds.  Evaluation at any epoch is
/// bit-identical to the matching ad-hoc call
/// ([`SketchTree::count_ordered`] and friends), which compiles the same
/// plan and evaluates it once.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    /// `Ok(None)` is a query that folds to exactly zero (no atoms, or
    /// every term cancelled).
    plan: Result<Option<QueryPlan>, SketchTreeError>,
    depends: PlanDependency,
}

impl CompiledQuery {
    /// What this compilation depended on.
    pub fn dependency(&self) -> &PlanDependency {
        &self.depends
    }
}

/// A count expression over textual patterns — the user-facing form of the
/// Section 4 grammar, with both ordered and unordered leaves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CountExpr {
    /// `COUNT_ord(pattern)`.
    Ordered(String),
    /// `COUNT(pattern)` — unordered.
    Unordered(String),
    /// Sum.
    Add(Box<CountExpr>, Box<CountExpr>),
    /// Difference.
    Sub(Box<CountExpr>, Box<CountExpr>),
    /// Product.
    Mul(Box<CountExpr>, Box<CountExpr>),
}

#[allow(clippy::should_implement_trait)] // builder-style add/sub/mul by design
impl CountExpr {
    /// `COUNT_ord(pattern)`.
    pub fn ordered(pattern: impl Into<String>) -> Self {
        CountExpr::Ordered(pattern.into())
    }

    /// `COUNT(pattern)` (unordered).
    pub fn unordered(pattern: impl Into<String>) -> Self {
        CountExpr::Unordered(pattern.into())
    }

    /// `self + rhs`.
    pub fn add(self, rhs: CountExpr) -> Self {
        CountExpr::Add(Box::new(self), Box::new(rhs))
    }

    /// `self − rhs`.
    pub fn sub(self, rhs: CountExpr) -> Self {
        CountExpr::Sub(Box::new(self), Box::new(rhs))
    }

    /// `self × rhs`.
    pub fn mul(self, rhs: CountExpr) -> Self {
        CountExpr::Mul(Box::new(self), Box::new(rhs))
    }
}

impl fmt::Display for CountExpr {
    /// Renders in the syntax [`crate::exprparse::parse_expr`] accepts, so
    /// `parse_expr(&e.to_string())` round-trips.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CountExpr::Ordered(p) => write!(f, "COUNT_ord({p})"),
            CountExpr::Unordered(p) => write!(f, "COUNT({p})"),
            CountExpr::Add(a, b) => write!(f, "({a} + {b})"),
            CountExpr::Sub(a, b) => write!(f, "({a} - {b})"),
            CountExpr::Mul(a, b) => write!(f, "({a} * {b})"),
        }
    }
}

/// Reusable buffers for the allocation-free enumerate → fingerprint
/// pipeline of [`SketchTree::enumerate_values_into`].
///
/// Holds the [`EnumArena`] plus the pattern-walk and symbol buffers of
/// one caller.  Everything is cleared — never freed — between trees, so
/// after warm-up the per-tree pipeline performs no heap allocation at all:
/// enumeration writes spans into the arena pool, each pattern's canonical
/// symbols are appended to one contiguous buffer, and a single batch
/// fingerprint pass maps every pattern of the tree.
#[derive(Debug, Default)]
pub struct EnumScratch {
    arena: EnumArena,
    /// Pattern nodes in pattern postorder: `(node, parent, is_leaf)`.
    post: Vec<(NodeId, Option<NodeId>, bool)>,
    /// Extended-postorder number per data-tree node (of the current
    /// pattern only — stale entries are never read because parents always
    /// belong to the pattern being emitted).
    ext_of: Vec<u32>,
    lps: Vec<u64>,
    nps: Vec<u64>,
    /// All patterns' canonical symbols for the current tree, back to back.
    symbols: Vec<u64>,
    /// Exclusive end offset of each pattern's symbols in `symbols`.
    ends: Vec<u32>,
}

impl EnumScratch {
    /// Empty scratch; buffers grow to steady state over the first trees.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Walks a pattern's edge list into pattern postorder.
///
/// EnumTree emits every pattern's edges in a canonical nested layout —
/// the root's child edges first (sibling order), then each child's
/// sub-pattern edge list in order, recursively — so the pattern's shape
/// can be parsed straight off the edge slice: the edges parented at `v`
/// form a contiguous run at the cursor.  Recursion depth is bounded by
/// the pattern edge count (`max_pattern_edges`, single digits).
fn pattern_postorder(
    edges: &[(NodeId, NodeId)],
    v: NodeId,
    parent: Option<NodeId>,
    pos: &mut usize,
    post: &mut Vec<(NodeId, Option<NodeId>, bool)>,
) {
    let start = *pos;
    // lint:allow(L1, reason = "guarded by the *pos < edges.len() test on the same line")
    while *pos < edges.len() && edges[*pos].0 == v {
        *pos += 1;
    }
    let end = *pos;
    for i in start..end {
        // lint:allow(L1, reason = "start..end indexes the run just scanned")
        pattern_postorder(edges, edges[i].1, Some(v), pos, post);
    }
    post.push((v, parent, start == end));
}

/// The SketchTree streaming synopsis.
pub struct SketchTree {
    config: SketchTreeConfig,
    labels: LabelTable,
    mapper: Mapper,
    /// Canonical code per interned label id ([`Mapper::label_code`] of the
    /// label's name), extended lazily as the table grows.  Pure cache —
    /// rebuilt from the table on restore, never persisted.
    label_codes: Vec<u64>,
    synopsis: StreamSynopsis,
    summary: Option<StructuralSummary>,
    exact: Option<ExactCounter>,
    trees_processed: u64,
    patterns_processed: u64,
    /// Monotone state-version counter: bumped on every mutation that can
    /// change an estimate (ingest, merge, restore, label interning via
    /// [`SketchTree::bump_epoch`]).  In-memory only — a restored synopsis
    /// starts at 1 so caches keyed on epoch 0 (the empty synopsis) never
    /// alias a restored state.
    epoch: u64,
    /// Durability cursor: sequence number of the last write-ahead-log
    /// batch folded into this synopsis.  Recorded in snapshots (format
    /// v2) so recovery knows which WAL frames a checkpoint already
    /// covers.  Not estimate-visible — setting it does *not* bump the
    /// epoch — and never advanced by the ingest paths themselves; only
    /// the server's logging layer moves it.
    wal_seq: u64,
    metrics: Option<Arc<CoreMetrics>>,
    /// Hot-path buffers for [`SketchTree::ingest`]: enumeration scratch
    /// and the current tree's values.  Never persisted, never compared;
    /// taken out and put back around each ingest so the enumeration can
    /// borrow `&self` while they are written.
    scratch: EnumScratch,
    values: Vec<u64>,
}

impl fmt::Debug for SketchTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SketchTree")
            .field("trees_processed", &self.trees_processed)
            .field("patterns_processed", &self.patterns_processed)
            .field("labels", &self.labels.len())
            .field("memory_bytes", &self.memory_bytes())
            .finish()
    }
}

impl SketchTree {
    /// Creates an empty synopsis.
    pub fn new(config: SketchTreeConfig) -> Self {
        let mapper = Mapper::new(config.fingerprint_degree, config.mapping_seed);
        let synopsis = StreamSynopsis::new(config.synopsis.clone());
        let summary = config.maintain_summary.then(StructuralSummary::new);
        let exact = config.track_exact.then(ExactCounter::new);
        Self {
            config,
            labels: LabelTable::new(),
            mapper,
            label_codes: Vec::new(),
            synopsis,
            summary,
            exact,
            trees_processed: 0,
            patterns_processed: 0,
            epoch: 0,
            wal_seq: 0,
            metrics: None,
            scratch: EnumScratch::new(),
            values: Vec::new(),
        }
    }

    /// Attaches instrumentation: subsequent ingests and queries update the
    /// given [`CoreMetrics`] handles.  Without an attachment (the default)
    /// the pipeline skips every instrumentation branch, so unmonitored
    /// synopses pay nothing.
    pub fn attach_metrics(&mut self, metrics: Arc<CoreMetrics>) {
        self.metrics = Some(metrics);
    }

    /// The configuration.
    pub fn config(&self) -> &SketchTreeConfig {
        &self.config
    }

    /// The top-k mode ingest runs under (the default until set).
    pub fn topk_mode(&self) -> sketchtree_sketch::TopKMode {
        self.synopsis.topk_mode()
    }

    /// Sets the top-k mode for the trees ingested from now on.  The mode
    /// is not part of the configuration or of a snapshot: either mode
    /// continues any state, and synopses built under different modes
    /// merge (see [`sketchtree_sketch::TopKMode`]).
    pub fn set_topk_mode(&mut self, mode: sketchtree_sketch::TopKMode) {
        self.synopsis.set_topk_mode(mode);
    }

    /// The label table (trees ingested must intern their labels here).
    pub fn labels(&self) -> &LabelTable {
        &self.labels
    }

    /// Mutable label table access for building input trees.
    pub fn labels_mut(&mut self) -> &mut LabelTable {
        &mut self.labels
    }

    /// Number of trees ingested.
    pub fn trees_processed(&self) -> u64 {
        self.trees_processed
    }

    /// Number of pattern instances processed (the mapped-stream length).
    pub fn patterns_processed(&self) -> u64 {
        self.patterns_processed
    }

    /// The synopsis epoch: a monotone counter identifying the current
    /// estimate-visible state.  Two reads at the same epoch are guaranteed
    /// to see bit-identical estimates for any fixed query, so the epoch is
    /// a sound cache key for `(query, epoch) → estimate` result caches and
    /// the version stamped onto pushed standing-query updates.
    ///
    /// Bumps on every ingest path, on [`SketchTree::merge`], and on
    /// restore (a restored synopsis starts at 1, never 0).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The durability cursor: sequence number of the last write-ahead-log
    /// batch whose effects are folded into this synopsis (0 when no WAL
    /// is in use).  Persisted in snapshots so recovery can skip frames a
    /// checkpoint already covers and replay only the tail.
    pub fn wal_seq(&self) -> u64 {
        self.wal_seq
    }

    /// Advances the durability cursor to `seq` (monotone — lower values
    /// are ignored).  Deliberately does **not** bump the epoch: the
    /// cursor is bookkeeping about persistence, not estimate-visible
    /// state, so snapshot byte-parity between WAL-logged and direct
    /// ingest holds everywhere except this one field.
    pub fn set_wal_seq(&mut self, seq: u64) {
        if seq > self.wal_seq {
            self.wal_seq = seq;
        }
    }

    /// Advances the epoch without ingesting.  For callers that mutate
    /// estimate-visible state through a side door — e.g. interning labels,
    /// which can turn a constant-folded-to-zero pattern into a live sketch
    /// lookup — and need epoch-keyed caches invalidated.
    pub fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// A version stamp for the *structure* a wildcard or descendant query
    /// expands through: the label table and the structural summary.  It
    /// moves whenever a label is interned, which on a value-labelled
    /// stream is nearly every batch, so only plans that expand through
    /// the summary key on it ([`PlanDependency::Structure`]); simple
    /// patterns depend on much less ([`SketchTree::is_current`]).
    /// Counts, unlike structure, never invalidate a compiled plan.
    pub fn structure_version(&self) -> (u64, u64) {
        (
            self.labels.len() as u64,
            self.summary.as_ref().map_or(0, StructuralSummary::version),
        )
    }

    /// The exact baseline, when `track_exact` is enabled.
    pub fn exact(&self) -> Option<&ExactCounter> {
        self.exact.as_ref()
    }

    /// The structural summary, when maintained.
    pub fn summary(&self) -> Option<&StructuralSummary> {
        self.summary.as_ref()
    }

    /// Maps a pattern tree to its one-dimensional value (`PF(LPS.NPS)` with
    /// the Rabin fingerprint as `PF`).
    ///
    /// LPS symbols use *canonical* label codes — seed-derived fingerprints
    /// of the label **names** ([`Mapper::label_code`]) rather than interned
    /// ids — so the value depends only on the pattern's shape, its label
    /// strings and the mapping seed, never on the order this synopsis
    /// happened to intern labels.  Two synopses with the same configuration
    /// therefore map identical patterns to identical values even when their
    /// label tables differ, which is what makes their sketch counters
    /// addable ([`SketchTree::merge`]).
    pub fn map_pattern(&self, pattern: &Tree) -> u64 {
        self.map_seq_canonical(&PruferSeq::encode(pattern))
    }

    /// Maps an encoded sequence through the canonical label coding.
    fn map_seq_canonical(&self, seq: &PruferSeq) -> u64 {
        self.mapper.map_symbols(&canonical_symbols(
            &self.mapper,
            &self.labels,
            &self.label_codes,
            seq,
        ))
    }

    /// Extends the label-code cache to cover every currently interned
    /// label.  Called on the `&mut self` ingest paths (and by
    /// [`crate::concurrent::SharedSketchTree`] after batch interning);
    /// `&self` query paths fall back to computing codes for any label
    /// interned since.
    pub(crate) fn sync_label_codes(&mut self) {
        for i in self.label_codes.len()..self.labels.len() {
            let name = self.labels.name(sketchtree_tree::Label(i as u32));
            self.label_codes.push(self.mapper.label_code(name));
        }
    }

    /// Ingests one data tree — Algorithm 1: enumerate its pattern values
    /// ([`SketchTree::enumerate_values_into`], into buffers this synopsis
    /// keeps warm) and [`SketchTree::apply`] them.  After warm-up the
    /// whole path performs no heap allocation.
    pub fn ingest(&mut self, tree: &Tree) {
        let start = self.metrics.as_ref().map(|_| Instant::now());
        self.sync_label_codes();
        // Take the buffers out so the `&self` enumeration and the `&mut`
        // apply can use them; put them back (warm) afterwards.
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut values = std::mem::take(&mut self.values);
        values.clear();
        self.enumerate_values_into(tree, &mut scratch, &mut values);
        self.apply(std::slice::from_ref(tree), &values);
        self.scratch = scratch;
        self.values = values;
        if let (Some(m), Some(t0)) = (&self.metrics, start) {
            m.ingest_seconds.observe_duration(t0.elapsed());
        }
    }

    /// Appends `tree`'s pattern values to `out`, in stream order, without
    /// touching any synopsis state — the read-only half of Algorithm 1.
    ///
    /// Only `&self` is needed, so callers holding shared access (several
    /// producers behind one lock) can enumerate concurrently and later
    /// hand the values to [`SketchTree::apply`].  `scratch` is reused
    /// across calls, so a caller that enumerates many trees allocates
    /// nothing after warm-up.
    ///
    /// This is Algorithm 1 rebuilt without intermediate structures: for
    /// every pattern the arena hands back an edge slice, the
    /// extended-Prüfer numbering is computed straight off it (no projected
    /// [`Tree`], no [`PruferSeq`]), canonical symbols accumulate in one
    /// contiguous buffer, and a single table-driven Rabin pass
    /// fingerprints the whole tree's patterns at once.
    pub fn enumerate_values_into(
        &self,
        tree: &Tree,
        scratch: &mut EnumScratch,
        out: &mut Vec<u64>,
    ) {
        let start = self.metrics.as_ref().map(|_| Instant::now());
        let mapper = &self.mapper;
        let labels = &self.labels;
        let codes = &self.label_codes;
        let code_of = |l: Label| {
            codes
                .get(l.0 as usize)
                .copied()
                .unwrap_or_else(|| mapper.label_code(labels.name(l)))
        };
        let EnumScratch {
            arena,
            post,
            ext_of,
            lps,
            nps,
            symbols,
            ends,
        } = scratch;
        symbols.clear();
        ends.clear();
        ext_of.clear();
        ext_of.resize(tree.len(), 0);
        enumerate_patterns_config_with(
            arena,
            tree,
            self.config.max_pattern_edges,
            self.config.include_single_nodes,
            |root, edges| {
                post.clear();
                let mut pos = 0usize;
                pattern_postorder(edges, root, None, &mut pos, post);
                debug_assert_eq!(pos, edges.len(), "pattern edges not in canonical layout");
                // Extended-postorder numbering: each pattern leaf's dummy
                // child takes the number right before the leaf itself.
                let mut counter = 0u32;
                for &(node, _, leaf) in post.iter() {
                    if leaf {
                        counter += 1;
                    }
                    counter += 1;
                    // lint:allow(L1, reason = "pattern nodes are NodeIds of `tree`; ext_of is sized tree.len()")
                    ext_of[node.index()] = counter;
                }
                // Positions 1..m-1 of the extended Prüfer pair, in order:
                // per postorder node, the dummy entry (leaves), then the
                // node's own entry (non-roots).
                lps.clear();
                nps.clear();
                for &(node, parent, leaf) in post.iter() {
                    if leaf {
                        lps.push(code_of(tree.label(node)));
                        // lint:allow(L1, reason = "ext_of[node] was just assigned in the numbering pass")
                        nps.push(u64::from(ext_of[node.index()]));
                    }
                    if let Some(p) = parent {
                        lps.push(code_of(tree.label(p)));
                        // lint:allow(L1, reason = "parents are pattern nodes numbered in this same pass")
                        nps.push(u64::from(ext_of[p.index()]));
                    }
                }
                symbols.extend_from_slice(lps);
                symbols.extend_from_slice(nps);
                ends.push(
                    // lint:allow(L1, reason = "deliberate cap: a symbol buffer past u32 offsets is unreachable for in-memory trees")
                    u32::try_from(symbols.len()).expect("symbol buffer exceeds u32 offsets"),
                );
            },
        );
        mapper.map_symbol_segments(symbols, ends, out);
        if let (Some(m), Some(t0)) = (&self.metrics, start) {
            m.enumerate_seconds.observe_duration(t0.elapsed());
        }
    }

    /// Applies enumerated pattern values to the synopsis — the write half
    /// of Algorithm 1, and the one place ingest mutates sketch state.
    ///
    /// `values` holds the pattern values of `trees`, back to back in
    /// stream order, as [`SketchTree::enumerate_values_into`] produced
    /// them on this synopsis.  One call observes every tree in the
    /// structural summary, inserts every value (recording it in the exact
    /// baseline when tracked), advances the tree and pattern counters, and
    /// bumps the epoch once.  Applying a batch in one call or tree by tree
    /// leaves bit-identical synopsis state; only the epoch count differs.
    pub fn apply(&mut self, trees: &[Tree], values: &[u64]) {
        let start = self.metrics.as_ref().map(|_| Instant::now());
        if let Some(s) = &mut self.summary {
            for t in trees {
                s.observe(t);
            }
        }
        for &value in values {
            self.synopsis.insert(value);
            if let Some(e) = &mut self.exact {
                e.record(value);
            }
        }
        self.trees_processed += trees.len() as u64;
        self.patterns_processed += values.len() as u64;
        self.epoch += 1;
        if let (Some(m), Some(t0)) = (&self.metrics, start) {
            m.ingest_trees.add(trees.len() as u64);
            m.ingest_patterns.add(values.len() as u64);
            m.insert_seconds.observe_duration(t0.elapsed());
        }
    }

    /// Resolves a parsed pattern into the distinct concrete pattern trees
    /// it denotes: itself if simple, its summary expansion otherwise.
    fn resolve_parsed(&self, q: &QueryPattern) -> Result<Vec<Tree>, SketchTreeError> {
        // A pattern larger than k was never enumerated: estimates would be
        // pure noise. (For `//` queries the *expanded* patterns are checked
        // instead, since a `//` edge can lengthen the pattern.)
        if q.edge_count() > self.config.max_pattern_edges && q.is_simple() {
            return Err(SketchTreeError::PatternTooLarge {
                edges: q.edge_count(),
                max: self.config.max_pattern_edges,
            });
        }
        if q.is_simple() {
            return Ok(q.to_tree(&self.labels).into_iter().collect());
        }
        let summary = self
            .summary
            .as_ref()
            .ok_or(SketchTreeError::SummaryRequired)?;
        let expanded = summary.expand(q, &self.labels, self.config.expand_limits)?;
        if let Some(too_big) = expanded
            .iter()
            .map(Tree::edge_count)
            .find(|&e| e > self.config.max_pattern_edges)
        {
            return Err(SketchTreeError::PatternTooLarge {
                edges: too_big,
                max: self.config.max_pattern_edges,
            });
        }
        Ok(expanded)
    }

    /// `COUNT_ord(Q)` for a concrete pattern tree (Theorem 1).
    pub fn count_ordered_tree(&self, pattern: &Tree) -> f64 {
        self.synopsis.estimate_count(self.map_pattern(pattern))
    }

    /// `COUNT_ord(Q)` for a textual pattern.  `*` and `//` queries are
    /// rewritten into a set of concrete patterns via the structural summary
    /// and answered as a total frequency (Theorem 2).  Patterns with labels
    /// never seen in the stream return exactly 0.
    pub fn count_ordered(&self, pattern: &str) -> Result<f64, SketchTreeError> {
        let start = self.metrics.as_ref().map(|_| Instant::now());
        let result = self.atoms_ordered(pattern).map(|atoms| {
            if let Some(m) = &self.metrics {
                m.query_atoms.add(atoms.len() as u64);
            }
            self.estimate_atoms(&atoms)
        });
        if let (Some(m), Some(t0)) = (&self.metrics, start) {
            m.query_ordered.inc();
            m.query_ordered_seconds.observe_duration(t0.elapsed());
            if result.is_err() {
                m.query_errors.inc();
            }
        }
        result
    }

    /// `COUNT(Q)` — unordered — for a concrete pattern tree (Section 3.3).
    pub fn count_unordered_tree(&self, pattern: &Tree) -> Result<f64, SketchTreeError> {
        let arr = arrangements(pattern, self.config.max_arrangements)?;
        let values: Vec<u64> = arr.iter().map(|t| self.map_pattern(t)).collect();
        Ok(self.synopsis.estimate_total(&values))
    }

    /// `COUNT(Q)` — unordered — for a textual pattern.
    pub fn count_unordered(&self, pattern: &str) -> Result<f64, SketchTreeError> {
        let start = self.metrics.as_ref().map(|_| Instant::now());
        let result = self.atoms_unordered(pattern).map(|atoms| {
            if let Some(m) = &self.metrics {
                m.query_atoms.add(atoms.len() as u64);
            }
            self.estimate_atoms(&atoms)
        });
        if let (Some(m), Some(t0)) = (&self.metrics, start) {
            m.query_unordered.inc();
            m.query_unordered_seconds.observe_duration(t0.elapsed());
            if result.is_err() {
                m.query_errors.inc();
            }
        }
        result
    }

    /// Total frequency of a set of distinct concrete patterns (Theorem 2).
    pub fn count_set(&self, patterns: &[Tree]) -> f64 {
        let mut values: Vec<u64> = patterns.iter().map(|t| self.map_pattern(t)).collect();
        values.sort_unstable();
        values.dedup();
        self.estimate_atoms(&values)
    }

    /// Estimates the total frequency of a sorted, deduplicated atom list —
    /// the evaluation half of [`SketchTree::count_ordered`] /
    /// [`SketchTree::count_unordered`].  It compiles the atoms' plan and
    /// evaluates it once; a [`CompiledQuery`] keeps that plan, which is
    /// why pushed standing estimates are bit-identical to ad-hoc answers
    /// at the same epoch.
    pub fn estimate_atoms(&self, atoms: &[u64]) -> f64 {
        self.atom_plan(atoms).map_or(0.0, |plan| self.synopsis.evaluate(&plan))
    }

    /// The plan of a sorted, deduplicated atom list: none for no atoms
    /// (exactly zero), a point plan for one (Theorem 1), a set plan for
    /// several (Theorem 2).
    fn atom_plan(&self, atoms: &[u64]) -> Option<QueryPlan> {
        match atoms {
            [] => None,
            [one] => Some(self.synopsis.compile_count(*one)),
            many => Some(self.synopsis.compile_total(many)),
        }
    }

    /// The plan of lowered terms: none when every term cancelled.
    fn term_plan(&self, terms: &[Term]) -> Result<Option<QueryPlan>, SketchTreeError> {
        if terms.is_empty() {
            return Ok(None);
        }
        Ok(Some(self.synopsis.compile_terms(terms)?))
    }

    /// What a parsed pattern's atoms depend on (see [`PlanDependency`]).
    fn pattern_dependency(&self, q: &QueryPattern) -> PlanDependency {
        if !q.is_simple() {
            return match &self.summary {
                Some(_) => PlanDependency::Structure(self.structure_version()),
                // Without a summary the query fails the same way forever.
                None => PlanDependency::Fixed,
            };
        }
        if q.edge_count() > self.config.max_pattern_edges {
            return PlanDependency::Fixed;
        }
        let missing = q.unresolved_labels(&self.labels);
        if missing.is_empty() {
            PlanDependency::Fixed
        } else {
            PlanDependency::Labels(missing)
        }
    }

    /// Compiles `COUNT_ord(pattern)` for repeated evaluation — the plan
    /// [`SketchTree::count_ordered`] builds and evaluates once.
    pub fn compile_ordered(&self, pattern: &str) -> CompiledQuery {
        self.compile_pattern(pattern, Self::atoms_ordered_parsed)
    }

    /// Compiles unordered `COUNT(pattern)` for repeated evaluation — the
    /// plan [`SketchTree::count_unordered`] builds and evaluates once.
    pub fn compile_unordered(&self, pattern: &str) -> CompiledQuery {
        self.compile_pattern(pattern, Self::atoms_unordered_parsed)
    }

    fn compile_pattern(
        &self,
        pattern: &str,
        atoms: fn(&Self, &QueryPattern) -> Result<Vec<u64>, SketchTreeError>,
    ) -> CompiledQuery {
        match parse_pattern(pattern) {
            Ok(q) => CompiledQuery {
                plan: atoms(self, &q).map(|a| self.atom_plan(&a)),
                depends: self.pattern_dependency(&q),
            },
            Err(e) => CompiledQuery { plan: Err(e.into()), depends: PlanDependency::Fixed },
        }
    }

    /// Compiles a `+ − ×` expression for repeated evaluation — the plan
    /// [`SketchTree::estimate`] builds and evaluates once.  It depends on
    /// everything its leaves depend on.
    pub fn compile_expr(&self, expr: &CountExpr) -> CompiledQuery {
        CompiledQuery {
            plan: self.lower(expr).and_then(|terms| self.term_plan(&terms)),
            depends: self.expr_dependency(expr),
        }
    }

    fn expr_dependency(&self, expr: &CountExpr) -> PlanDependency {
        match expr {
            CountExpr::Ordered(p) | CountExpr::Unordered(p) => parse_pattern(p)
                .map_or(PlanDependency::Fixed, |q| self.pattern_dependency(&q)),
            CountExpr::Add(a, b) | CountExpr::Sub(a, b) | CountExpr::Mul(a, b) => {
                match (self.expr_dependency(a), self.expr_dependency(b)) {
                    // The structure stamp counts every label, so it moves
                    // whenever a missing name could resolve.
                    (PlanDependency::Structure(v), _) | (_, PlanDependency::Structure(v)) => {
                        PlanDependency::Structure(v)
                    }
                    (PlanDependency::Labels(mut x), PlanDependency::Labels(y)) => {
                        x.extend(y);
                        x.sort_unstable();
                        x.dedup();
                        PlanDependency::Labels(x)
                    }
                    (PlanDependency::Labels(x), PlanDependency::Fixed)
                    | (PlanDependency::Fixed, PlanDependency::Labels(x)) => {
                        PlanDependency::Labels(x)
                    }
                    (PlanDependency::Fixed, PlanDependency::Fixed) => PlanDependency::Fixed,
                }
            }
        }
    }

    /// Whether a compiled query still denotes what compiling it now would
    /// (see [`PlanDependency`]).
    pub fn is_current(&self, compiled: &CompiledQuery) -> bool {
        match &compiled.depends {
            PlanDependency::Fixed => true,
            PlanDependency::Labels(missing) => {
                missing.iter().all(|name| self.labels.lookup(name).is_none())
            }
            PlanDependency::Structure(v) => self.structure_version() == *v,
        }
    }

    /// Evaluates a compiled query against the current counters.
    pub fn evaluate(&self, compiled: &CompiledQuery) -> Result<f64, SketchTreeError> {
        match &compiled.plan {
            Ok(Some(plan)) => Ok(self.synopsis.evaluate(plan)),
            Ok(None) => Ok(0.0),
            Err(e) => Err(e.clone()),
        }
    }

    /// The distinct mapped values a textual ordered pattern denotes —
    /// the compilation half of [`SketchTree::count_ordered`].  The result
    /// is sorted and deduplicated, hence deterministic, and stays valid
    /// while the pattern's [`PlanDependency`] holds.
    pub fn atoms_ordered(&self, pattern: &str) -> Result<Vec<u64>, SketchTreeError> {
        self.atoms_ordered_parsed(&parse_pattern(pattern)?)
    }

    fn atoms_ordered_parsed(&self, q: &QueryPattern) -> Result<Vec<u64>, SketchTreeError> {
        let trees = self.resolve_parsed(q)?;
        let mut atoms: Vec<u64> = trees.iter().map(|t| self.map_pattern(t)).collect();
        atoms.sort_unstable();
        atoms.dedup();
        Ok(atoms)
    }

    /// The distinct mapped values of all arrangements of all resolutions of
    /// a textual unordered pattern — the compilation half of
    /// [`SketchTree::count_unordered`], with the same determinism and
    /// validity contract as [`SketchTree::atoms_ordered`].
    pub fn atoms_unordered(&self, pattern: &str) -> Result<Vec<u64>, SketchTreeError> {
        self.atoms_unordered_parsed(&parse_pattern(pattern)?)
    }

    fn atoms_unordered_parsed(&self, q: &QueryPattern) -> Result<Vec<u64>, SketchTreeError> {
        let trees = self.resolve_parsed(q)?;
        let mut atoms = Vec::new();
        for t in &trees {
            for a in arrangements(t, self.config.max_arrangements)? {
                atoms.push(self.map_pattern(&a));
            }
        }
        atoms.sort_unstable();
        atoms.dedup();
        Ok(atoms)
    }

    /// Estimates a `+ − ×` expression over ordered/unordered pattern counts
    /// (Section 4).  Each leaf expands to a sum of distinct atoms; products
    /// distribute; the synopsis evaluates the expanded `Xᵏ/k!·Πξ` terms.
    pub fn estimate(&self, expr: &CountExpr) -> Result<f64, SketchTreeError> {
        let start = self.metrics.as_ref().map(|_| Instant::now());
        let result = self.estimate_inner(expr);
        if let (Some(m), Some(t0)) = (&self.metrics, start) {
            m.query_expr.inc();
            m.query_expr_seconds.observe_duration(t0.elapsed());
            if result.is_err() {
                m.query_errors.inc();
            }
        }
        result
    }

    fn estimate_inner(&self, expr: &CountExpr) -> Result<f64, SketchTreeError> {
        let terms = self.lower(expr)?;
        if let Some(m) = &self.metrics {
            m.query_atoms
                .add(terms.iter().map(|t| t.queries.len() as u64).sum());
        }
        self.estimate_lowered(&terms)
    }

    /// Evaluates pre-lowered estimator terms — the evaluation half of
    /// [`SketchTree::estimate`]: it compiles the terms' plan and evaluates
    /// it once, as [`SketchTree::compile_expr`]'s plan evaluates on every
    /// call (bit-for-bit the same, at any fixed epoch).
    pub fn estimate_lowered(&self, terms: &[Term]) -> Result<f64, SketchTreeError> {
        Ok(self.term_plan(terms)?.map_or(0.0, |plan| self.synopsis.evaluate(&plan)))
    }

    /// Lowers a [`CountExpr`] to estimator terms, constant-folding leaves
    /// with unseen labels to zero.  Like the atom lists, lowered terms are
    /// deterministic (sorted, like terms merged) and stay valid while the
    /// expression's [`PlanDependency`] holds.
    pub fn lower(&self, expr: &CountExpr) -> Result<Vec<Term>, SketchTreeError> {
        let mut terms = self.lower_rec(expr)?;
        // Merge like terms and drop zeros.
        terms.sort_by(|a, b| a.queries.cmp(&b.queries));
        let mut merged: Vec<Term> = Vec::new();
        for t in terms {
            match merged.last_mut() {
                Some(last) if last.queries == t.queries => last.coeff += t.coeff,
                _ => merged.push(t),
            }
        }
        merged.retain(|t| t.coeff != 0);
        Ok(merged)
    }

    fn lower_rec(&self, expr: &CountExpr) -> Result<Vec<Term>, SketchTreeError> {
        match expr {
            CountExpr::Ordered(p) => Ok(self
                .atoms_ordered(p)?
                .into_iter()
                .map(|a| Term {
                    coeff: 1,
                    queries: vec![a],
                })
                .collect()),
            CountExpr::Unordered(p) => Ok(self
                .atoms_unordered(p)?
                .into_iter()
                .map(|a| Term {
                    coeff: 1,
                    queries: vec![a],
                })
                .collect()),
            CountExpr::Add(a, b) => {
                let mut t = self.lower_rec(a)?;
                t.extend(self.lower_rec(b)?);
                Ok(t)
            }
            CountExpr::Sub(a, b) => {
                let mut t = self.lower_rec(a)?;
                t.extend(self.lower_rec(b)?.into_iter().map(|mut x| {
                    x.coeff = -x.coeff;
                    x
                }));
                Ok(t)
            }
            CountExpr::Mul(a, b) => {
                let ta = self.lower_rec(a)?;
                let tb = self.lower_rec(b)?;
                let mut out = Vec::with_capacity(ta.len() * tb.len());
                for x in &ta {
                    for y in &tb {
                        let mut queries = x.queries.clone();
                        queries.extend_from_slice(&y.queries);
                        queries.sort_unstable();
                        out.push(Term {
                            coeff: x.coeff * y.coeff,
                            queries,
                        });
                    }
                }
                Ok(out)
            }
        }
    }

    /// Exact value of an expression from the tracked baseline (requires
    /// `track_exact`); the denominators of every relative error the
    /// experiment harness reports.
    pub fn exact_value(&self, expr: &CountExpr) -> Result<f64, SketchTreeError> {
        let exact = self
            .exact
            .as_ref()
            .ok_or(SketchTreeError::ExactTrackingDisabled)?;
        let terms = self.lower(expr)?;
        Ok(terms
            .iter()
            .map(|t| {
                t.coeff as f64
                    * t.queries
                        .iter()
                        .map(|&q| exact.count(q) as f64)
                        .product::<f64>()
            })
            .sum())
    }

    /// Exact `COUNT_ord` of a textual pattern (requires `track_exact`).
    pub fn exact_count_ordered(&self, pattern: &str) -> Result<u64, SketchTreeError> {
        let exact = self
            .exact
            .as_ref()
            .ok_or(SketchTreeError::ExactTrackingDisabled)?;
        Ok(self
            .atoms_ordered(pattern)?
            .iter()
            .map(|&a| exact.count(a))
            .sum())
    }

    /// Exact unordered `COUNT` of a textual pattern (requires
    /// `track_exact`).
    pub fn exact_count_unordered(&self, pattern: &str) -> Result<u64, SketchTreeError> {
        let exact = self
            .exact
            .as_ref()
            .ok_or(SketchTreeError::ExactTrackingDisabled)?;
        Ok(self
            .atoms_unordered(pattern)?
            .iter()
            .map(|&a| exact.count(a))
            .sum())
    }

    /// Point estimate by pre-mapped value (Theorem 1).  The experiment
    /// harness queries by value because its workloads are drawn from the
    /// observed pattern population (Section 7.3).
    pub fn estimate_value(&self, value: u64) -> f64 {
        self.synopsis.estimate_count(value)
    }

    /// Total-frequency estimate for distinct pre-mapped values (Theorem 2).
    pub fn estimate_values_total(&self, values: &[u64]) -> f64 {
        self.estimate_atoms(values)
    }

    /// Product-of-counts estimate for distinct pre-mapped values
    /// (Section 4; needs `2k+1`-wise ξ independence for `k` values).
    pub fn estimate_values_product(&self, values: &[u64]) -> Result<f64, SketchTreeError> {
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        let term = Term {
            coeff: 1,
            queries: sorted,
        };
        Ok(self.synopsis.estimate_terms(&[term])?)
    }

    /// Merges another synopsis built over a disjoint slice of the same
    /// logical tree stream into this one (scale-out ingest: shard the
    /// stream, merge the synopses).
    ///
    /// Requires identical configurations: only then do the two sides share
    /// the mapping polynomial, ξ families, routing and top-k shape that
    /// make counter addition meaningful.  Pattern values are already
    /// comparable across sides — the canonical label coding
    /// ([`SketchTree::map_pattern`]) keys them by label *names*, not
    /// interned ids.  Everything that does speak ids — the label table and
    /// the structural summary — is reconciled by name here: `other`'s ids
    /// are remapped id → name → this table's id before its summary is
    /// absorbed.  Merging by id instead would silently cross-wire
    /// transitions whenever the two sides interned labels in different
    /// orders, which is the norm for independently fed shards.
    ///
    /// With top-k disabled the merged synopsis is byte-identical to one
    /// that ingested both streams sequentially; with top-k enabled the
    /// delete condition (and hence every compensated estimate) is
    /// preserved instead — see [`StreamSynopsis::merge_from`].
    pub fn merge(&mut self, other: &SketchTree) -> Result<(), &'static str> {
        if self.config != other.config {
            return Err("config mismatch: only identically configured synopses merge");
        }
        // Union the label tables, remembering where each of other's ids
        // landed in this table.
        let remap: Vec<sketchtree_tree::Label> = (0..other.labels.len() as u32)
            .map(|i| {
                let id = sketchtree_tree::Label(i);
                self.labels.intern(other.labels.name(id))
            })
            .collect();
        self.sync_label_codes();
        self.synopsis.merge_from(&other.synopsis)?;
        if let (Some(summary), Some(other_summary)) = (&mut self.summary, &other.summary) {
            summary.merge_remapped(other_summary, |l| {
                remap.get(l.0 as usize).copied().unwrap_or(l)
            });
        }
        if let (Some(exact), Some(other_exact)) = (&mut self.exact, &other.exact) {
            exact.merge_from(other_exact);
        }
        self.trees_processed = self.trees_processed.saturating_add(other.trees_processed);
        self.patterns_processed =
            self.patterns_processed.saturating_add(other.patterns_processed);
        // `wal_seq` is deliberately left alone: the merged-in shard's
        // durability cursor describes *its* log, not ours.
        self.epoch += 1;
        Ok(())
    }

    /// Exports the synopsis' mutable sketch state (for
    /// [`crate::snapshot`]).
    pub fn export_synopsis_state(&self) -> sketchtree_sketch::SynopsisState {
        self.synopsis.export_state()
    }

    /// Reassembles a synopsis from snapshot parts. Internal to
    /// [`crate::snapshot`]; validates cross-part consistency.
    #[doc(hidden)]
    pub fn from_snapshot_parts(
        config: SketchTreeConfig,
        label_names: Vec<String>,
        state: sketchtree_sketch::SynopsisState,
        summary: Option<SummaryParts>,
        trees_processed: u64,
        patterns_processed: u64,
    ) -> Result<Self, &'static str> {
        if state.bank_counters.len() != config.synopsis.virtual_streams {
            return Err("bank count mismatch");
        }
        if config.maintain_summary != summary.is_some() {
            return Err("summary presence disagrees with config");
        }
        let mut labels = LabelTable::new();
        for name in &label_names {
            labels.intern(name);
        }
        if labels.len() != label_names.len() {
            return Err("duplicate label names");
        }
        let mapper = Mapper::new(config.fingerprint_degree, config.mapping_seed);
        let label_codes = (0..labels.len() as u32)
            .map(|i| mapper.label_code(labels.name(sketchtree_tree::Label(i))))
            .collect();
        let synopsis = StreamSynopsis::from_state(config.synopsis.clone(), state);
        let summary = summary.map(|(ls, ts)| {
            for &l in &ls {
                if labels.len() <= l.0 as usize {
                    // tolerated: label referenced beyond table is corrupt,
                    // but checked below via max id
                }
            }
            StructuralSummary::from_parts(ls, ts)
        });
        Ok(Self {
            config,
            labels,
            mapper,
            label_codes,
            synopsis,
            summary,
            exact: None,
            trees_processed,
            patterns_processed,
            // Restore-on-start is a state change: start at 1 so caches
            // keyed on the empty synopsis' epoch 0 can never serve a
            // pre-restore value for the restored state.
            epoch: 1,
            // The snapshot reader restores the recorded cursor via
            // [`SketchTree::set_wal_seq`] after assembly.
            wal_seq: 0,
            metrics: None,
            scratch: EnumScratch::new(),
            values: Vec::new(),
        })
    }

    /// A scrape-time snapshot of synopsis health for monitoring: counter
    /// fill, top-k occupancy, partition balance, sign-cache traffic, the
    /// residual self-join and the estimator-variance proxy.  Cost is one
    /// pass over the in-memory sketch counters — cheap relative to a
    /// metrics scrape, but not free, so call it per scrape rather than per
    /// query.
    pub fn sketch_health(&self) -> SketchHealth {
        let (counters_nonzero, counters_total) = self.synopsis.counter_occupancy();
        let (topk_tracked, topk_capacity) = self.synopsis.topk_occupancy();
        let means = self.synopsis.residual_self_join_group_means();
        let (sign_cache_lookups, sign_cache_misses) = self.synopsis.sign_cache_counts();
        let (topk_filter_hits, topk_reestimates) = self.synopsis.topk_filter_counts();
        SketchHealth {
            counters_nonzero,
            counters_total,
            topk_tracked,
            topk_capacity,
            partition_inserts: self.synopsis.partition_insert_counts().to_vec(),
            sign_cache_lookups,
            sign_cache_misses,
            topk_filter_hits,
            topk_reestimates,
            values_processed: self.synopsis.values_processed(),
            residual_self_join: self.synopsis.estimate_residual_self_join(),
            estimator_spread: relative_spread(&means),
            memory_bytes: self.memory_bytes() as u64,
            trees_processed: self.trees_processed,
            patterns_processed: self.patterns_processed,
            labels: self.labels.len() as u64,
        }
    }

    /// Residual self-join size of the sketched stream (diagnostic).
    pub fn residual_self_join(&self) -> f64 {
        self.synopsis.estimate_residual_self_join()
    }

    /// Heavy hitters currently tracked by the top-k strategy.
    pub fn tracked_heavy_hitters(&self) -> Vec<(u64, i64)> {
        self.synopsis.tracked_heavy_hitters()
    }

    /// Synopsis memory (sketch counters + seeds + top-k slots + summary);
    /// excludes the optional exact baseline, which is measurement
    /// scaffolding, not part of the synopsis.
    pub fn memory_bytes(&self) -> usize {
        self.synopsis.memory_bytes()
            + self.summary.as_ref().map_or(0, StructuralSummary::memory_bytes)
    }
}

/// Canonical symbol sequence of an encoded pattern: each LPS label id is
/// replaced by the seed-derived code of the label's *name* (cache first,
/// computed on the fly for labels interned after the last cache sync); NPS
/// postorder numbers pass through unchanged.  Free function so the ingest
/// hot loop can use it under split borrows.
fn canonical_symbols(
    mapper: &Mapper,
    labels: &LabelTable,
    codes: &[u64],
    seq: &PruferSeq,
) -> Vec<u64> {
    let mut out = Vec::with_capacity(seq.lps.len() + seq.nps.len());
    for &l in &seq.lps {
        let code = codes
            .get(l.0 as usize)
            .copied()
            .unwrap_or_else(|| mapper.label_code(labels.name(l)));
        out.push(code);
    }
    out.extend(seq.nps.iter().map(|&n| u64::from(n)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SketchTree {
        /// The legacy per-pattern pipeline — project, Prüfer-encode, map,
        /// insert — kept as the executable specification of Algorithm 1:
        /// [`SketchTree::ingest`] and batch ingest must produce the same
        /// value sequence and synopsis state.  `observer` sees every
        /// pattern instance's value.
        pub(crate) fn ingest_with(&mut self, tree: &Tree, mut observer: impl FnMut(u64)) {
            if let Some(s) = &mut self.summary {
                s.observe(tree);
            }
            self.sync_label_codes();
            let (mapper, labels, codes) = (&self.mapper, &self.labels, &self.label_codes);
            let (synopsis, exact) = (&mut self.synopsis, &mut self.exact);
            let mut patterns = 0u64;
            crate::enumtree::enumerate_patterns_config(
                tree,
                self.config.max_pattern_edges,
                self.config.include_single_nodes,
                |root, edges| {
                    let seq = PruferSeq::encode(&tree.project(root, edges));
                    let value = mapper.map_symbols(&canonical_symbols(mapper, labels, codes, &seq));
                    synopsis.insert(value);
                    if let Some(e) = exact {
                        e.record(value);
                    }
                    observer(value);
                    patterns += 1;
                },
            );
            self.patterns_processed += patterns;
            self.trees_processed += 1;
            self.epoch += 1;
        }
    }

    /// A tiny deterministic stream: many copies of a few shapes.
    fn build() -> SketchTree {
        let config = SketchTreeConfig {
            max_pattern_edges: 3,
            synopsis: SynopsisConfig {
                s1: 60,
                s2: 7,
                virtual_streams: 13,
                topk: 8,
                independence: 5,
                topk_probability: u16::MAX,
                seed: 7,
            },
            track_exact: true,
            ..SketchTreeConfig::default()
        };
        let mut st = SketchTree::new(config);
        // The published Algorithm 4: every insert is one sign-cache lookup.
        st.set_topk_mode(sketchtree_sketch::TopKMode::Paper);
        let (a, b, c, d) = {
            let l = st.labels_mut();
            (l.intern("A"), l.intern("B"), l.intern("C"), l.intern("D"))
        };
        // 30 × A(B,C); 10 × A(C,B); 5 × A(B(D),C).
        let t1 = Tree::node(a, vec![Tree::leaf(b), Tree::leaf(c)]);
        let t2 = Tree::node(a, vec![Tree::leaf(c), Tree::leaf(b)]);
        let t3 = Tree::node(
            a,
            vec![Tree::node(b, vec![Tree::leaf(d)]), Tree::leaf(c)],
        );
        for _ in 0..30 {
            st.ingest(&t1);
        }
        for _ in 0..10 {
            st.ingest(&t2);
        }
        for _ in 0..5 {
            st.ingest(&t3);
        }
        st
    }

    /// Merging two shards that interned the same label names in *different*
    /// orders must equal sequential ingest of both streams: canonical label
    /// coding keys every mapped value by name, and the summary remap keys
    /// transitions by name.  Top-k is off so equality is structural.
    #[test]
    fn merge_is_exact_across_different_interning_orders() {
        let config = SketchTreeConfig {
            max_pattern_edges: 3,
            synopsis: SynopsisConfig {
                s1: 20,
                s2: 5,
                virtual_streams: 7,
                topk: 0,
                independence: 5,
                topk_probability: u16::MAX,
                seed: 7,
            },
            track_exact: true,
            ..SketchTreeConfig::default()
        };
        // Shard 1 interns A then B; shard 2 interns B then A.
        let mut shard1 = SketchTree::new(config.clone());
        let (a1, b1) = {
            let l = shard1.labels_mut();
            (l.intern("A"), l.intern("B"))
        };
        let mut shard2 = SketchTree::new(config.clone());
        let (b2, a2) = {
            let l = shard2.labels_mut();
            (l.intern("B"), l.intern("A"))
        };
        let mut whole = SketchTree::new(config.clone());
        let (aw, bw) = {
            let l = whole.labels_mut();
            (l.intern("A"), l.intern("B"))
        };
        let mk = |a: sketchtree_tree::Label, b: sketchtree_tree::Label| {
            vec![
                Tree::node(a, vec![Tree::leaf(b), Tree::leaf(b)]),
                Tree::node(b, vec![Tree::node(a, vec![Tree::leaf(b)])]),
            ]
        };
        for t in mk(a1, b1) {
            for _ in 0..12 {
                shard1.ingest(&t);
            }
        }
        for t in mk(a2, b2).into_iter().rev() {
            for _ in 0..8 {
                shard2.ingest(&t);
            }
        }
        for t in mk(aw, bw) {
            for _ in 0..12 {
                whole.ingest(&t);
            }
        }
        for t in mk(aw, bw).into_iter().rev() {
            for _ in 0..8 {
                whole.ingest(&t);
            }
        }
        shard1.merge(&shard2).expect("configs match");
        assert_eq!(shard1.export_synopsis_state(), whole.export_synopsis_state());
        assert_eq!(shard1.trees_processed(), whole.trees_processed());
        assert_eq!(shard1.patterns_processed(), whole.patterns_processed());
        // Exact baselines agree value-by-value (canonical values coincide).
        let mut merged_exact: Vec<(u64, u64)> = shard1.exact().unwrap().iter().collect();
        let mut whole_exact: Vec<(u64, u64)> = whole.exact().unwrap().iter().collect();
        merged_exact.sort_unstable();
        whole_exact.sort_unstable();
        assert_eq!(merged_exact, whole_exact);
        // Summaries agree after the name-keyed remap: the same queries
        // resolve identically, bit for bit.
        for q in ["A(B,B)", "B(A(B))", "A(B)", "B(A)"] {
            assert_eq!(
                shard1.count_ordered(q).unwrap().to_bits(),
                whole.count_ordered(q).unwrap().to_bits(),
                "{q}"
            );
        }
    }

    /// The allocation-free fast path (arena enumeration + direct symbol
    /// emission + batch fingerprinting) must reproduce the legacy
    /// project → Prüfer-encode → map pipeline value for value, in order,
    /// over randomized tree shapes — and hence bit-identical synopsis
    /// state after ingesting the same stream.
    #[test]
    fn fast_ingest_path_matches_legacy_observer_path() {
        use sketchtree_hash::SplitMix64;
        use sketchtree_sketch::TopKMode;
        for (include_single, topk_mode) in [
            (false, TopKMode::Paper),
            (true, TopKMode::Paper),
            (false, TopKMode::Filter),
            (true, TopKMode::Filter),
        ] {
            let config = SketchTreeConfig {
                max_pattern_edges: 4,
                include_single_nodes: include_single,
                synopsis: SynopsisConfig {
                    s1: 20,
                    s2: 5,
                    virtual_streams: 7,
                    topk: 4,
                    independence: 5,
                    topk_probability: u16::MAX,
                    seed: 7,
                },
                track_exact: true,
                ..SketchTreeConfig::default()
            };
            let mut fast = SketchTree::new(config.clone());
            let mut legacy = SketchTree::new(config);
            fast.set_topk_mode(topk_mode);
            legacy.set_topk_mode(topk_mode);
            let names = ["a", "b", "c", "d", "e"];
            let fast_labels: Vec<Label> =
                names.iter().map(|n| fast.labels_mut().intern(n)).collect();
            for n in names {
                legacy.labels_mut().intern(n);
            }
            let mut rng = SplitMix64::new(0xBEEF + u64::from(include_single));
            for round in 0..40 {
                // Random tree: grow 1..=12 extra nodes under random parents.
                let mut t = Tree::leaf(fast_labels[(rng.next_u64() % 5) as usize]);
                let extra = rng.next_u64() % 12;
                for _ in 0..extra {
                    let parent = NodeId((rng.next_u64() % t.len() as u64) as u32);
                    let label = fast_labels[(rng.next_u64() % 5) as usize];
                    t.graft_leaf(parent, label);
                }
                let mut legacy_values = Vec::new();
                legacy.ingest_with(&t, |v| legacy_values.push(v));
                let mut got = Vec::new();
                fast.enumerate_values_into(&t, &mut EnumScratch::new(), &mut got);
                assert_eq!(got, legacy_values, "round {round}, tree {t}");
                fast.ingest(&t);
            }
            assert_eq!(fast.export_synopsis_state(), legacy.export_synopsis_state());
            assert_eq!(fast.patterns_processed(), legacy.patterns_processed());
            assert_eq!(fast.trees_processed(), legacy.trees_processed());
        }
    }

    #[test]
    fn merge_rejects_config_mismatch() {
        let mut a = build();
        let b = SketchTree::new(SketchTreeConfig {
            mapping_seed: 1,
            ..build().config().clone()
        });
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn merge_with_topk_preserves_compensated_estimates() {
        // Both shards run top-k; the merged synopsis must still estimate
        // every pattern near its union-stream frequency.
        let mut shard1 = build();
        let shard2 = build();
        shard1.merge(&shard2).expect("configs match");
        assert_eq!(shard1.trees_processed(), 90);
        for (q, truth) in [("A(B,C)", 70.0), ("A(C,B)", 20.0), ("B(D)", 10.0)] {
            let est = shard1.count_ordered(q).unwrap();
            assert!(
                (est - truth).abs() <= truth.mul_add(0.35, 8.0),
                "{q}: est {est} vs {truth}"
            );
        }
    }

    #[test]
    fn counters_track_stream() {
        let st = build();
        assert_eq!(st.trees_processed(), 45);
        assert!(st.patterns_processed() > 45);
        assert_eq!(
            st.patterns_processed(),
            st.exact().unwrap().total()
        );
    }

    #[test]
    fn ordered_counts_match_exact_within_tolerance() {
        let st = build();
        for q in ["A(B,C)", "A(C,B)", "A(B)", "B(D)", "A(B(D),C)"] {
            let exact = st.exact_count_ordered(q).unwrap() as f64;
            let est = st.count_ordered(q).unwrap();
            assert!(
                (est - exact).abs() <= (exact * 0.35).max(8.0),
                "{q}: est {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn exact_ordered_counts_are_correct() {
        let st = build();
        // A(B,C) appears in t1 (30×) and in t3 (5×: B and C children of A,
        // order B then C — pattern A(B,C) via edges (A,B),(A,C)).
        assert_eq!(st.exact_count_ordered("A(B,C)").unwrap(), 35);
        assert_eq!(st.exact_count_ordered("A(C,B)").unwrap(), 10);
        assert_eq!(st.exact_count_ordered("B(D)").unwrap(), 5);
        assert_eq!(st.exact_count_ordered("A(B(D))").unwrap(), 5);
        assert_eq!(st.exact_count_ordered("ZZZ").unwrap(), 0);
    }

    #[test]
    fn unordered_is_sum_of_arrangements() {
        let st = build();
        assert_eq!(st.exact_count_unordered("A(B,C)").unwrap(), 45);
        let est = st.count_unordered("A(B,C)").unwrap();
        assert!((est - 45.0).abs() <= 14.0, "est {est}");
    }

    #[test]
    fn unknown_label_is_exactly_zero() {
        let st = build();
        assert_eq!(st.count_ordered("NOPE(NADA)").unwrap(), 0.0);
        assert_eq!(st.count_unordered("NOPE").unwrap(), 0.0);
    }

    #[test]
    fn wildcard_queries_via_summary() {
        let st = build();
        // A(*) → A(B) + A(C): exact 45 + 45 = 90... A(B) appears in all 45
        // trees once (t1: edge (A,B); t2: (A,B); t3: (A,B)); same for A(C).
        let exact_ab = st.exact_count_ordered("A(B)").unwrap();
        let exact_ac = st.exact_count_ordered("A(C)").unwrap();
        let est = st.count_ordered("A(*)").unwrap();
        let truth = (exact_ab + exact_ac) as f64;
        assert!(
            (est - truth).abs() <= (truth * 0.3).max(10.0),
            "est {est} vs {truth}"
        );
    }

    #[test]
    fn compiled_queries_record_what_they_depend_on() {
        let mut st = build();
        let ordered = st.compile_ordered("A(B,C)");
        let unseen = st.compile_ordered("A(E)");
        let wildcard = st.compile_unordered("A(*)");
        let expr = crate::parse_expr("COUNT_ord(A(B)) * COUNT(A(E))").unwrap();
        let mixed = st.compile_expr(&expr);
        let too_big = st.compile_ordered("A(B(C(D(A))))");
        let both = crate::parse_expr("COUNT(A(F,E)) - COUNT_ord(E(G)) + COUNT_ord(A(B))").unwrap();
        let both = st.compile_expr(&both);
        let names = |n: &[&str]| PlanDependency::Labels(n.iter().map(|s| s.to_string()).collect());
        assert_eq!(ordered.dependency(), &PlanDependency::Fixed);
        assert_eq!(unseen.dependency(), &names(&["E"]));
        assert_eq!(wildcard.dependency(), &PlanDependency::Structure(st.structure_version()));
        assert_eq!(mixed.dependency(), &names(&["E"]));
        assert_eq!(both.dependency(), &names(&["E", "F", "G"]), "leaves union their names");
        assert_eq!(too_big.dependency(), &PlanDependency::Fixed);
        assert!(st.evaluate(&too_big).is_err());

        // Compiled evaluation is the ad-hoc answer, to the bit.
        let same = |st: &SketchTree, c: &CompiledQuery, want: f64| {
            assert_eq!(st.evaluate(c).unwrap().to_bits(), want.to_bits());
        };
        same(&st, &ordered, st.count_ordered("A(B,C)").unwrap());
        same(&st, &unseen, 0.0);
        same(&st, &wildcard, st.count_unordered("A(*)").unwrap());
        same(&st, &mixed, st.estimate(&expr).unwrap());

        // An unrelated label leaves the missing-name plans current; only
        // the structure-stamped expansion goes stale.
        st.labels_mut().intern("unrelated");
        assert!(st.is_current(&unseen) && st.is_current(&mixed) && st.is_current(&both));
        assert!(!st.is_current(&wildcard));
        // Interning E stales the plans that named it, and only those.
        let e = st.labels_mut().intern("E");
        assert!(!st.is_current(&both));
        assert!(st.is_current(&ordered) && st.is_current(&too_big));
        assert!(!st.is_current(&unseen) && !st.is_current(&mixed) && !st.is_current(&wildcard));
        let a = st.labels().lookup("A").unwrap();
        for _ in 0..20 {
            st.ingest(&Tree::node(a, vec![Tree::leaf(e)]));
        }
        let live = st.compile_ordered("A(E)");
        assert_eq!(live.dependency(), &PlanDependency::Fixed);
        assert_eq!(
            st.evaluate(&live).unwrap().to_bits(),
            st.count_ordered("A(E)").unwrap().to_bits()
        );
        // Counts move, a resolved plan does not need to: still bit-identical.
        same(&st, &ordered, st.count_ordered("A(B,C)").unwrap());
    }

    #[test]
    fn descendant_queries_via_summary() {
        let st = build();
        // A(//D): only path A→B→D exists (in t3), exact 5.
        let est = st.count_ordered("A(//D)").unwrap();
        assert!((est - 5.0).abs() <= 8.0, "est {est}");
    }

    #[test]
    fn summary_disabled_errors() {
        let mut st = SketchTree::new(SketchTreeConfig {
            maintain_summary: false,
            ..SketchTreeConfig::default()
        });
        let a = st.labels_mut().intern("A");
        st.ingest(&Tree::node(a, vec![Tree::leaf(a)]));
        assert_eq!(
            st.count_ordered("A(*)"),
            Err(SketchTreeError::SummaryRequired)
        );
    }

    #[test]
    fn expression_estimation() {
        let st = build();
        // COUNT_ord(A(B,C)) − COUNT_ord(A(C,B)) = 35 − 10 = 25.
        let e = CountExpr::ordered("A(B,C)").sub(CountExpr::ordered("A(C,B)"));
        let exact = st.exact_value(&e).unwrap();
        assert_eq!(exact, 25.0);
        let est = st.estimate(&e).unwrap();
        assert!((est - 25.0).abs() <= 15.0, "est {est}");
    }

    #[test]
    fn product_expression() {
        let st = build();
        let e = CountExpr::ordered("A(B,C)").mul(CountExpr::ordered("B(D)"));
        let exact = st.exact_value(&e).unwrap();
        assert_eq!(exact, 35.0 * 5.0);
        let est = st.estimate(&e).unwrap();
        assert!(
            (est - exact).abs() <= exact * 0.8 + 50.0,
            "est {est} vs exact {exact}"
        );
    }

    #[test]
    fn expression_with_unseen_pattern_folds_to_zero() {
        let st = build();
        let e = CountExpr::ordered("A(B,C)").mul(CountExpr::ordered("GHOST"));
        assert_eq!(st.estimate(&e).unwrap(), 0.0);
        assert_eq!(st.exact_value(&e).unwrap(), 0.0);
    }

    #[test]
    fn duplicate_pattern_in_product_rejected() {
        let st = build();
        let e = CountExpr::ordered("A(B,C)").mul(CountExpr::ordered("A(B,C)"));
        assert!(matches!(
            st.estimate(&e),
            Err(SketchTreeError::Synopsis(SynopsisError::Expr(_)))
        ));
    }

    #[test]
    fn parse_errors_propagate() {
        let st = build();
        assert!(matches!(
            st.count_ordered("A(("),
            Err(SketchTreeError::Query(_))
        ));
    }

    #[test]
    fn exact_disabled_errors() {
        let mut st = SketchTree::new(SketchTreeConfig::default());
        let a = st.labels_mut().intern("A");
        st.ingest(&Tree::node(a, vec![Tree::leaf(a)]));
        assert_eq!(
            st.exact_count_ordered("A"),
            Err(SketchTreeError::ExactTrackingDisabled)
        );
    }

    #[test]
    fn count_set_totals_distinct_patterns() {
        let st = build();
        let labels = st.labels();
        let (a, b, c) = (
            labels.lookup("A").unwrap(),
            labels.lookup("B").unwrap(),
            labels.lookup("C").unwrap(),
        );
        let p1 = Tree::node(a, vec![Tree::leaf(b), Tree::leaf(c)]);
        let p2 = Tree::node(a, vec![Tree::leaf(c), Tree::leaf(b)]);
        // Duplicates in the input are deduplicated before Theorem 2.
        let est = st.count_set(&[p1.clone(), p2.clone(), p1.clone()]);
        assert!((est - 45.0).abs() < 15.0, "est {est}");
        assert_eq!(st.count_set(&[]), 0.0);
    }

    #[test]
    fn estimate_values_apis() {
        let st = build();
        let labels = st.labels();
        let (a, b, c) = (
            labels.lookup("A").unwrap(),
            labels.lookup("B").unwrap(),
            labels.lookup("C").unwrap(),
        );
        let v1 = st.map_pattern(&Tree::node(a, vec![Tree::leaf(b), Tree::leaf(c)]));
        let v2 = st.map_pattern(&Tree::node(a, vec![Tree::leaf(c), Tree::leaf(b)]));
        let p = st.estimate_value(v1);
        assert!((p - 35.0).abs() < 12.0, "point {p}");
        let t = st.estimate_values_total(&[v1, v2]);
        assert!((t - 45.0).abs() < 15.0, "total {t}");
        assert_eq!(st.estimate_values_total(&[]), 0.0);
        let prod = st.estimate_values_product(&[v1, v2]).unwrap();
        assert!((prod - 350.0).abs() < 350.0, "product {prod}");
        // Duplicate values in a product are rejected.
        assert!(st.estimate_values_product(&[v1, v1]).is_err());
    }

    #[test]
    fn count_expr_display_roundtrips_through_parser() {
        let e = CountExpr::ordered("A(B,C)")
            .mul(CountExpr::unordered("D"))
            .sub(CountExpr::ordered("E(F)").add(CountExpr::ordered("G")));
        let text = e.to_string();
        let parsed = crate::exprparse::parse_expr(&text).expect("display is parseable");
        assert_eq!(parsed, e, "text was {text}");
    }

    #[test]
    fn unordered_wildcard_combination() {
        // COUNT of a wildcard pattern: expand via the summary, then take
        // all arrangements of each expansion.
        let st = build();
        // A(*,C) unordered: '*' resolves to B (A's other child label);
        // arrangements of A(B,C) cover both orders: exact 45.
        let exact = st.exact_count_unordered("A(*,C)").unwrap();
        assert_eq!(exact, 45);
        let est = st.count_unordered("A(*,C)").unwrap();
        assert!((est - 45.0).abs() < 15.0, "est {est}");
    }

    #[test]
    fn oversized_patterns_rejected() {
        let st = build(); // k = 3
        // 4-edge simple pattern: never enumerated, so refuse to estimate.
        match st.count_ordered("A(B(D(A(B))))") {
            Err(SketchTreeError::PatternTooLarge { edges: 4, max: 3 }) => {}
            other => panic!("expected PatternTooLarge, got {other:?}"),
        }
        // Same guard through expressions and unordered counts.
        assert!(matches!(
            st.count_unordered("A(B(D(A(B))))"),
            Err(SketchTreeError::PatternTooLarge { .. })
        ));
        let e = CountExpr::ordered("A(B(D(A(B))))");
        assert!(matches!(
            st.estimate(&e),
            Err(SketchTreeError::PatternTooLarge { .. })
        ));
        // Exactly k edges is fine.
        assert!(st.count_ordered("A(B(D),C)").is_ok());
    }

    #[test]
    fn memory_reporting_nonzero() {
        let st = build();
        assert!(st.memory_bytes() > 0);
    }

    #[test]
    fn attached_metrics_observe_pipeline() {
        use crate::metrics::CoreMetrics;
        use sketchtree_metrics::Registry;
        let reg = Registry::new();
        let m = CoreMetrics::register(&reg);
        let mut st = build();
        st.attach_metrics(m.clone());
        let a = st.labels().lookup("A").expect("A interned");
        let b = st.labels().lookup("B").expect("B interned");
        let t = Tree::node(a, vec![Tree::leaf(b)]);
        // `ingest` times itself and both halves; a caller driving the
        // halves directly gets one observation per call.
        st.ingest(&t);
        let mut values = Vec::new();
        st.enumerate_values_into(&t, &mut EnumScratch::new(), &mut values);
        st.apply(std::slice::from_ref(&t), &values);
        st.count_ordered("A(B)").unwrap();
        st.count_unordered("A(B)").unwrap();
        st.estimate(&CountExpr::ordered("A(B)")).unwrap();
        assert!(st.count_ordered("A((").is_err());
        assert_eq!(m.ingest_trees.get(), 2);
        assert_eq!(m.ingest_patterns.get(), 2 * values.len() as u64);
        assert_eq!(m.ingest_seconds.count(), 1);
        assert_eq!(m.enumerate_seconds.count(), 2);
        assert_eq!(m.insert_seconds.count(), 2);
        assert_eq!(m.query_ordered.get(), 2); // one ok + one parse error
        assert_eq!(m.query_unordered.get(), 1);
        assert_eq!(m.query_expr.get(), 1);
        assert_eq!(m.query_errors.get(), 1);
        assert!(m.query_atoms.get() >= 3);
        assert_eq!(m.query_ordered_seconds.count(), 2);
    }

    #[test]
    fn sketch_health_reflects_stream() {
        let st = build();
        let h = st.sketch_health();
        assert_eq!(h.trees_processed, 45);
        assert_eq!(h.patterns_processed, st.patterns_processed());
        assert_eq!(h.counters_total, 13 * 60 * 7);
        assert_eq!(h.topk_capacity, 13 * 8);
        assert!(h.topk_tracked > 0);
        assert_eq!(
            h.partition_inserts.iter().sum::<u64>(),
            h.values_processed
        );
        // Every inserted value is one sign-cache lookup; the stream
        // repeats values, so some lookups hit.
        assert_eq!(h.sign_cache_lookups, h.values_processed);
        assert!(h.sign_cache_misses > 0 && h.sign_cache_misses < h.sign_cache_lookups);
        assert!(h.residual_self_join >= 0.0);
        assert!(h.estimator_spread >= 0.0);
        assert!(h.memory_bytes > 0);
        assert_eq!(h.labels, 4);
        // Fresh synopsis: everything zero.
        let empty = SketchTree::new(SketchTreeConfig::default());
        let h0 = empty.sketch_health();
        assert_eq!(h0.counters_nonzero, 0);
        assert_eq!(h0.values_processed, 0);
        assert_eq!((h0.sign_cache_lookups, h0.sign_cache_misses), (0, 0));
        assert_eq!(h0.estimator_spread, 0.0);
    }

    #[test]
    fn debug_format_is_informative() {
        let st = build();
        let s = format!("{st:?}");
        assert!(s.contains("trees_processed"));
    }
}
