//! The complete stream synopsis: virtual streams × top-k × sketch banks.
//!
//! Section 5.3 of the paper splits the one-dimensional stream into `p`
//! disjoint *virtual streams* by `t mod p`, sketching each separately; each
//! virtual stream has a smaller self-join size than the whole, so every
//! estimate gets cheaper for free.  All banks share the same random seed, so
//! their ξ families are identical and sketches of different virtual streams
//! can simply be *added* when a query spans several of them.  The paper's
//! experiments fix `p = 229` and combine virtual streams with one top-k
//! tracker per stream (Section 5.2).
//!
//! [`StreamSynopsis`] packages the whole construction behind two calls:
//! [`StreamSynopsis::insert`] during stream processing, and the
//! `estimate_*` family at query time.  Cross-bank estimation combines
//! per-sketch values *before* boosting (means/medians are nonlinear), using
//! the flat sketch access of [`SketchBank`].

use crate::bank::SketchBank;
use crate::expr::{Expr, ExprError};
use crate::topk::{FilterStep, TopKTracker};
use crate::xislab::XiSlab;
use sketchtree_hash::m61;
use std::fmt;
use std::sync::Arc;

/// Configuration of a [`StreamSynopsis`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynopsisConfig {
    /// Accuracy knob: sketches averaged per group (paper: 25–75).
    pub s1: usize,
    /// Confidence knob: number of median groups (paper: 7, from
    /// `s2 = 2·lg(1/δ)` at δ = 0.1).
    pub s2: usize,
    /// Number of virtual streams `p` (paper: 229). 1 disables partitioning.
    pub virtual_streams: usize,
    /// Top-k tracker capacity per virtual stream (0 disables tracking).
    pub topk: usize,
    /// ξ independence degree, in [`crate::INDEPENDENCE_RANGE`]; 4
    /// suffices for point/sum queries, product terms of size `k` need
    /// `2k+1` (see [`crate::expr`]).
    pub independence: usize,
    /// Probability of invoking top-k processing per inserted value, in
    /// per-2^16 units (65536 = always, the default).  Section 5.2: "top-k
    /// processing could be invoked with a probability p for each tree
    /// pattern" when per-pattern processing is too expensive.  Sketch
    /// updates always happen; only Algorithm 4 is sampled.
    pub topk_probability: u16,
    /// Master random seed.
    pub seed: u64,
}

/// How top-k processing (when it runs for a value) treats a value that is
/// already tracked.
///
/// Both modes keep the paper's delete condition: the sketches hold
/// `n_v − f_v` occurrences of every value `v` tracked with frequency
/// `f_v`, and query-time compensation adds `f_v` back.  So the mode is an
/// ingest policy of a running synopsis ([`StreamSynopsis::set_topk_mode`]),
/// not part of its configuration or state: either mode continues a state
/// the other built, snapshots do not record it, and synopses built under
/// different modes merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TopKMode {
    /// Algorithm 4 as published (Section 5.2): every occurrence of a
    /// tracked value restores its deleted instances, re-estimates it from
    /// the sketches and re-admits it.
    Paper,
    /// A filter in front of Algorithm 4, after Roy, Khan & Alonso's
    /// Augmented Sketch (SIGMOD 2016): an occurrence of a tracked value
    /// only adds 1 to its tracked frequency, touching no counter, except
    /// every [`crate::topk::REESTIMATE_PERIOD`]-th one, which takes the
    /// Paper path.  Untracked and sampled-out values are unchanged.
    #[default]
    Filter,
}

impl Default for SynopsisConfig {
    fn default() -> Self {
        Self {
            s1: 25,
            s2: 7,
            virtual_streams: 229,
            topk: 50,
            independence: 4,
            topk_probability: u16::MAX,
            seed: 0x5EED_0F5E_ED00,
        }
    }
}

/// Errors from synopsis estimation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynopsisError {
    /// Invalid query expression.
    Expr(ExprError),
    /// The expression needs more ξ independence than the synopsis was
    /// configured with.
    InsufficientIndependence {
        /// Independence the expression requires (`2k+1` for max term `k`).
        required: usize,
        /// Independence the synopsis has.
        actual: usize,
    },
}

impl fmt::Display for SynopsisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynopsisError::Expr(e) => write!(f, "{e}"),
            SynopsisError::InsufficientIndependence { required, actual } => write!(
                f,
                "expression requires {required}-wise independent ξ but synopsis has {actual}-wise; \
                 raise SynopsisConfig::independence"
            ),
        }
    }
}

impl std::error::Error for SynopsisError {}

impl From<ExprError> for SynopsisError {
    fn from(e: ExprError) -> Self {
        SynopsisError::Expr(e)
    }
}

/// The mutable state of a [`StreamSynopsis`], exported for snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynopsisState {
    /// Per-bank flat counter vectors.
    pub bank_counters: Vec<Vec<i64>>,
    /// Per-bank tracked `(value, frequency)` pairs.
    pub tracked: Vec<Vec<(u64, i64)>>,
    /// Stream length at snapshot time.
    pub values_processed: u64,
}

/// The full SketchTree stream synopsis over one-dimensional values.
///
/// ```
/// use sketchtree_sketch::{StreamSynopsis, SynopsisConfig};
/// let mut syn = StreamSynopsis::new(SynopsisConfig {
///     s1: 40, s2: 5, virtual_streams: 7, topk: 2,
///     ..SynopsisConfig::default()
/// });
/// for _ in 0..300 { syn.insert(12345); }
/// let est = syn.estimate_count(12345);
/// assert!((est - 300.0).abs() < 60.0);
/// ```
#[derive(Debug, Clone)]
pub struct StreamSynopsis {
    config: SynopsisConfig,
    banks: Vec<SketchBank>,
    topks: Vec<TopKTracker>,
    values_processed: u64,
    /// Values routed to each virtual stream since construction — a
    /// monitoring aid, deliberately *not* part of [`SynopsisState`] (the
    /// snapshot format is stable), so the counts reset to zero on
    /// restore.  Saturating: a partition counter pinned at `u64::MAX` is
    /// a better signal than a wrapped one.
    partition_inserts: Vec<u64>,
    /// Memo of recently seen values' ξ sign rows (see [`SignCache`]).
    /// Pure acceleration scratch: cloned synopses share no cache state
    /// semantics and snapshots never persist it.
    sign_cache: SignCache,
    /// What top-k processing does with a tracked value; not state.
    topk_mode: TopKMode,
    /// Filter-mode traffic, monitoring only like the sign-cache counts.
    filter_counts: FilterCounts,
    /// Per-partition PRNGs for probabilistic top-k invocation.  One PRNG
    /// *per virtual stream* (not one global), so a partition's sampling
    /// decisions depend only on the subsequence of values routed to it.
    /// The draw order decides which values Algorithm 4 sees, so it is
    /// kept fixed: the same configuration and stream yield the same
    /// sampled top-k state, and the same snapshot bytes, across versions.
    topk_rngs: Vec<sketchtree_hash::SplitMix64>,
}

/// Slots in a [`SignCache`]; a power of two so the uniform low bits of a
/// Rabin-fingerprint value index directly.  At the paper's default
/// geometry (`s1·s2 = 175`) the cache occupies ~1.4 MiB.
const SIGN_CACHE_SLOTS: usize = 8192;

/// A direct-mapped cache of per-value ξ sign rows.
///
/// Every bank shares one ξ slab (Section 5.3's shared-seed requirement),
/// so a value's `s1·s2` sign row is a pure function of the value alone —
/// independent of the partition it routes to, of the stream history, and
/// of thread count.  Streaming pattern values repeat heavily (that skew
/// is the very reason top-k tracking exists), so remembering recently
/// seen rows skips the polynomial evaluations for the majority of
/// inserts while leaving every bit of synopsis state unchanged.  This is
/// transient acceleration scratch: not part of
/// [`StreamSynopsis::memory_bytes`] (the paper's Section 7.5 accounting)
/// and never snapshotted.
///
/// It counts its lookups and misses (saturating) so an operator can see
/// how often the ξ row kernel runs on the insert path; like the partition
/// counts these are monitoring only and reset on snapshot restore.
#[derive(Debug, Clone)]
struct SignCache {
    families: usize,
    tags: Vec<u64>,
    filled: Vec<bool>,
    signs: Vec<i8>,
    lookups: u64,
    misses: u64,
}

impl SignCache {
    fn new(families: usize) -> Self {
        Self {
            families,
            tags: vec![0; SIGN_CACHE_SLOTS],
            filled: vec![false; SIGN_CACHE_SLOTS],
            signs: vec![0; SIGN_CACHE_SLOTS * families],
            lookups: 0,
            misses: 0,
        }
    }

    /// The sign row of `value`: served straight from the slot on a tag
    /// hit, recomputed into it (evicting the previous tenant) otherwise.
    fn signs(&mut self, xi: &XiSlab, value: u64) -> &[i8] {
        // lint:allow(L2, L3, reason = "u64 -> usize truncation is immediately masked to the slot range; the mask constant SIGN_CACHE_SLOTS - 1 is a compile-time power of two minus one")
        let slot = (value as usize) & (SIGN_CACHE_SLOTS - 1);
        // lint:allow(L3, reason = "stride cannot overflow: slot * families < signs.len(), a successful allocation size")
        let start = slot * self.families;
        // lint:allow(L1, L3, reason = "slot < SIGN_CACHE_SLOTS and signs has SIGN_CACHE_SLOTS * families entries, so start + families is in bounds and cannot overflow")
        let row = &mut self.signs[start..start + self.families];
        self.lookups = self.lookups.saturating_add(1);
        // lint:allow(L1, reason = "slot < SIGN_CACHE_SLOTS, and tags/filled each have SIGN_CACHE_SLOTS entries")
        if !(self.filled[slot] && self.tags[slot] == value) {
            self.misses = self.misses.saturating_add(1);
            xi.fill_signs_reduced(m61::reduce(value), row);
            // lint:allow(L1, reason = "same slot < SIGN_CACHE_SLOTS bound as the read above")
            self.tags[slot] = value;
            // lint:allow(L1, reason = "same slot < SIGN_CACHE_SLOTS bound as the read above")
            self.filled[slot] = true;
        }
        // lint:allow(L1, L3, reason = "same in-bounds range as above, reborrowed immutably")
        &self.signs[start..start + self.families]
    }
}

/// Tracked-value occurrences the Filter rule counted in place, and those
/// it sent to Algorithm 4 for re-estimation, since construction
/// (saturating; reset on snapshot restore).
#[derive(Debug, Clone, Copy, Default)]
struct FilterCounts {
    hits: u64,
    reestimates: u64,
}

/// Applies one value to its partition's state: the partition's
/// monitoring counter, then sign/counter update and (possibly sampled)
/// Algorithm 4 top-k processing.  The ξ row comes from the sign cache (recomputed
/// only on a miss), so the counter sweep and the top-k estimate share one
/// sign evaluation.  In Filter mode a tracked value's ordinary hit stops
/// after its in-place count: no sign row, no sweep, no estimate.
#[inline]
#[allow(clippy::too_many_arguments)]
fn insert_routed(
    bank: &mut SketchBank,
    topk: &mut TopKTracker,
    rng: &mut sketchtree_hash::SplitMix64,
    topk_probability: u16,
    topk_mode: TopKMode,
    cache: &mut SignCache,
    filter_counts: &mut FilterCounts,
    inserts: &mut u64,
    value: u64,
) {
    let invoke_topk = topk_probability == u16::MAX
        || (rng.next_u64() & 0xFFFF) < u64::from(topk_probability);
    *inserts = inserts.saturating_add(1);
    // Whether the value may be tracked; the Filter rule has already
    // looked it up.
    let mut may_be_tracked = invoke_topk;
    if invoke_topk && topk_mode == TopKMode::Filter {
        match topk.filter(value) {
            FilterStep::Counted => {
                filter_counts.hits = filter_counts.hits.saturating_add(1);
                return;
            }
            FilterStep::Reestimate => {
                filter_counts.reestimates = filter_counts.reestimates.saturating_add(1);
            }
            FilterStep::Untracked => may_be_tracked = false,
        }
    }
    // When top-k will run and the value is already tracked, Algorithm 4
    // starts by restoring its deleted instances — fold that restore into
    // the insert's own counter sweep (wrapping addition is associative,
    // so one sweep of `1 + f_t` is bit-identical to two sweeps).
    let restored = if may_be_tracked {
        topk.untrack(value).unwrap_or(0)
    } else {
        0
    };
    let signs = cache.signs(bank.xi(), value);
    bank.update_with_signs(signs, 1i64.wrapping_add(restored));
    if invoke_topk {
        topk.process_restored_with_signs(value, bank, signs);
    }
}

impl StreamSynopsis {
    /// Builds an empty synopsis.
    ///
    /// # Panics
    /// Panics if `s1`, `s2` or `virtual_streams` is zero, or if
    /// `independence` is outside [`crate::INDEPENDENCE_RANGE`].
    pub fn new(config: SynopsisConfig) -> Self {
        assert!(config.virtual_streams > 0, "need at least one virtual stream");
        assert!(
            crate::INDEPENDENCE_RANGE.contains(&config.independence),
            "independence degree must be in 2..=64, got {}",
            config.independence
        );
        let effective_independence = config.independence.max(4);
        // All banks share the master seed → identical ξ families (Section
        // 5.3: "the sketches can share the same random seed", making
        // cross-stream sketch addition meaningful).  Identical families
        // means one coefficient slab serves every bank: generate it once
        // and share it by Arc instead of materialising p copies.
        assert!(config.s1 > 0 && config.s2 > 0, "s1 and s2 must be positive");
        let families = config.s1 * config.s2;
        let xi = Arc::new(XiSlab::generate(config.seed, families, effective_independence));
        let banks = (0..config.virtual_streams)
            .map(|_| SketchBank::with_shared_xi(Arc::clone(&xi), config.s1, config.s2))
            .collect();
        let topks = (0..config.virtual_streams)
            .map(|_| TopKTracker::new(config.topk))
            .collect();
        // One sampling PRNG per partition, each derived from the master
        // seed and the partition index — a partition's RNG consumption is
        // then a pure function of the subsequence routed to it.
        let topk_rngs = (0..config.virtual_streams)
            .map(|r| {
                sketchtree_hash::SplitMix64::new(sketchtree_hash::SplitMix64::derive(
                    config.seed ^ 0x70B0_70B0,
                    // lint:allow(L2, reason = "usize -> u64 partition index is widening on every supported target")
                    r as u64,
                ))
            })
            .collect();
        let partition_inserts = vec![0u64; config.virtual_streams];
        Self {
            config,
            banks,
            topks,
            values_processed: 0,
            partition_inserts,
            sign_cache: SignCache::new(families),
            topk_mode: TopKMode::default(),
            filter_counts: FilterCounts::default(),
            topk_rngs,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SynopsisConfig {
        &self.config
    }

    /// The top-k mode inserts run under ([`TopKMode::default`] until set).
    pub fn topk_mode(&self) -> TopKMode {
        self.topk_mode
    }

    /// Sets the top-k mode for the inserts that follow; the state built
    /// so far carries over unchanged (see [`TopKMode`]).
    pub fn set_topk_mode(&mut self, mode: TopKMode) {
        self.topk_mode = mode;
    }

    /// Total values inserted so far (the stream length `|S|`, used for
    /// selectivity computations).
    pub fn values_processed(&self) -> u64 {
        self.values_processed
    }

    #[inline]
    pub(crate) fn route(&self, value: u64) -> usize {
        // lint:allow(L2, reason = "usize -> u64 is widening, and the remainder is < banks.len() so the way back always fits")
        (value % self.banks.len() as u64) as usize
    }

    /// The first bank, used wherever any bank's shared ξ family or
    /// geometry works.
    fn first_bank(&self) -> &SketchBank {
        // lint:allow(L1, reason = "new() asserts virtual_streams > 0, so banks is never empty")
        &self.banks[0]
    }

    /// Inserts one occurrence of `value` (Algorithm 1 inner loop followed by
    /// Algorithm 4 top-k processing).
    pub fn insert(&mut self, value: u64) {
        let r = self.route(value);
        let (Some(bank), Some(topk), Some(rng), Some(inserts)) = (
            self.banks.get_mut(r),
            self.topks.get_mut(r),
            self.topk_rngs.get_mut(r),
            self.partition_inserts.get_mut(r),
        ) else {
            return;
        };
        insert_routed(
            bank,
            topk,
            rng,
            self.config.topk_probability,
            self.topk_mode,
            &mut self.sign_cache,
            &mut self.filter_counts,
            inserts,
            value,
        );
        self.values_processed = self.values_processed.saturating_add(1);
    }

    /// Merges another synopsis built over a *disjoint* slice of the same
    /// logical stream into this one (scale-out ingest: shard the stream
    /// across processes, merge the synopses afterwards).
    ///
    /// Requires the two configs to be identical — same seed, geometry,
    /// partitioning, top-k capacity and sampling probability — because
    /// only then do the per-partition banks share ξ families and routing,
    /// making counter addition meaningful (Section 5.3's linearity).
    /// Per partition, the banks are added elementwise and the top-k
    /// tracked sets merged with eviction flush (see
    /// [`TopKTracker::merge_from`]); `values_processed` and the
    /// per-partition monitoring counters add saturating.
    ///
    /// With top-k disabled the result is *byte-identical* to a single
    /// synopsis that saw both streams in any interleaving.  With top-k
    /// enabled the tracked sets are order-dependent to begin with, so the
    /// merge preserves the estimate invariant (delete condition) rather
    /// than bit-equality.  The receiver keeps its own top-k sampling RNG
    /// states and top-k mode: those govern only *future* inserts and are
    /// not part of the snapshot format.  The two sides may have been built
    /// under different [`TopKMode`]s; both keep the delete condition,
    /// which is all the merge relies on.
    pub fn merge_from(&mut self, other: &StreamSynopsis) -> Result<(), &'static str> {
        if self.config != other.config {
            return Err("synopsis config mismatch: only identically configured synopses merge");
        }
        for (bank, obank) in self.banks.iter_mut().zip(&other.banks) {
            bank.merge_from(obank);
        }
        for ((topk, otopk), bank) in
            self.topks.iter_mut().zip(&other.topks).zip(self.banks.iter_mut())
        {
            topk.merge_from(otopk, bank);
        }
        for (p, &o) in self.partition_inserts.iter_mut().zip(&other.partition_inserts) {
            *p = p.saturating_add(o);
        }
        self.values_processed = self.values_processed.saturating_add(other.values_processed);
        Ok(())
    }

    /// Deletes one previously-inserted occurrence of `value` (AMS deletion:
    /// `X −= ξ_v`).  Used by windowed synopses to expire old stream
    /// elements.
    ///
    /// Only sound when top-k tracking is disabled: a tracker may itself
    /// have deleted instances of `value`, and expiry would double-delete.
    ///
    /// # Panics
    /// Debug-panics if a top-k tracker is active.
    pub fn delete(&mut self, value: u64) {
        debug_assert_eq!(
            self.config.topk, 0,
            "delete() requires top-k tracking to be disabled"
        );
        let r = self.route(value);
        if let Some(bank) = self.banks.get_mut(r) {
            bank.update(value, -1);
        }
        self.values_processed = self.values_processed.saturating_sub(1);
    }

    /// The number of sketches per bank (`s1 · s2`), one ξ family each.
    pub(crate) fn families(&self) -> usize {
        self.first_bank().num_sketches()
    }

    /// The ξ slab every bank shares.
    pub(crate) fn xi(&self) -> &XiSlab {
        self.first_bank().xi()
    }

    /// Virtual stream `r`'s bank and top-k tracker.
    pub(crate) fn partition(&self, r: usize) -> Option<(&SketchBank, &TopKTracker)> {
        self.banks.get(r).zip(self.topks.get(r))
    }

    /// Boosts a flat per-sketch vector (mean of `s1`, median of `s2`).
    pub(crate) fn boost(&self, acc: &[f64]) -> f64 {
        self.first_bank().boost(acc)
    }

    /// Estimates `COUNT` of a single value (Theorem 1): compiles the
    /// query ([`StreamSynopsis::compile_count`]) and evaluates it once.
    pub fn estimate_count(&self, value: u64) -> f64 {
        self.evaluate(&self.compile_count(value))
    }

    /// Estimates the total frequency of a set of *distinct* values
    /// (Theorem 2).  Values may span several virtual streams; per-sketch
    /// contributions are combined across banks before boosting.
    pub fn estimate_total(&self, values: &[u64]) -> f64 {
        self.evaluate(&self.compile_total(values))
    }

    /// Estimates a general query expression (Section 4).
    ///
    /// Per sketch index, each term's `X` is the sum of the effective
    /// counters of the virtual streams containing that term's queries
    /// (Section 5.3's sketch addition), then `coeff·Xᵏ/k!·Πξ` is evaluated
    /// and boosted.
    pub fn estimate_expr(&self, expr: &Expr) -> Result<f64, SynopsisError> {
        let (terms, _) = expr.expand()?;
        self.estimate_terms(&terms)
    }

    /// Estimates pre-expanded estimator terms (`coeff·Xᵏ/k!·Πξ`).  Exposed
    /// for callers that build terms directly — e.g. expressions over
    /// *unordered* patterns, whose leaves are already sums of atoms.
    ///
    /// Every term's queries must be distinct within the term and the
    /// synopsis must have `2k+1`-wise ξ independence for the largest term.
    pub fn estimate_terms(&self, terms: &[crate::expr::Term]) -> Result<f64, SynopsisError> {
        Ok(self.evaluate(&self.compile_terms(terms)?))
    }

    /// Estimates the *residual* self-join size — `Σ f_i²` of what is still
    /// in the sketches after top-k deletions, summed over virtual streams.
    /// This is the quantity that controls estimation variance (Theorems
    /// 1–2) and the one the top-k strategy drives down.
    pub fn estimate_residual_self_join(&self) -> f64 {
        let n = self.first_bank().num_sketches();
        let mut acc = vec![0.0f64; n];
        for bank in &self.banks {
            // Streams are disjoint, so SJ(S) = Σ_b SJ(S_b); accumulate each
            // bank's X² per sketch and boost once.
            bank.accumulate(&mut acc, |s| s.second_moment() as f64);
        }
        self.first_bank().boost(&acc)
    }

    /// The `s2` per-group means of the residual self-join estimator,
    /// *before* the final median — the spread among them is the
    /// operator-visible variance proxy of the `s1 × s2` boosting
    /// construction.  Theorem 1 says each group mean concentrates around
    /// the true `SJ(S)` with variance shrinking as `1/s1`; if the means
    /// disagree wildly, every estimate this synopsis produces is riding
    /// the median's confidence amplification harder than usual.
    pub fn residual_self_join_group_means(&self) -> Vec<f64> {
        let n = self.first_bank().num_sketches();
        let mut acc = vec![0.0f64; n];
        for bank in &self.banks {
            bank.accumulate(&mut acc, |s| s.second_moment() as f64);
        }
        self.first_bank().group_means(&acc)
    }

    /// `(nonzero, total)` sketch-counter occupancy across every bank.
    /// Fill near zero on a long stream means the stream never reached
    /// those partitions; fill near one is the steady state.
    pub fn counter_occupancy(&self) -> (u64, u64) {
        let nonzero = self
            .banks
            .iter()
            .map(|b| u64::try_from(b.nonzero_counters()).unwrap_or(u64::MAX))
            .fold(0u64, u64::saturating_add);
        let total = self
            .banks
            .iter()
            .map(|b| u64::try_from(b.num_sketches()).unwrap_or(u64::MAX))
            .fold(0u64, u64::saturating_add);
        (nonzero, total)
    }

    /// `(tracked, capacity)` top-k heap occupancy summed over virtual
    /// streams.  A heap far below capacity on a skewed stream means the
    /// delete condition is rejecting candidates (or top-k sampling is
    /// throttled); a full heap is the expected steady state.
    pub fn topk_occupancy(&self) -> (u64, u64) {
        let tracked = self
            .topks
            .iter()
            .map(|t| u64::try_from(t.len()).unwrap_or(u64::MAX))
            .fold(0u64, u64::saturating_add);
        let capacity = self
            .topks
            .iter()
            .map(|t| u64::try_from(t.capacity()).unwrap_or(u64::MAX))
            .fold(0u64, u64::saturating_add);
        (tracked, capacity)
    }

    /// Values routed to each virtual stream since this synopsis was
    /// constructed (monitoring only — resets on snapshot restore; see the
    /// field note).  Routing is `value mod p`, so on a healthy stream
    /// these counts are near-uniform; a hot partition means many distinct
    /// patterns collided into one stream and its local self-join size —
    /// hence its error bound — is worse than the others'.
    pub fn partition_insert_counts(&self) -> &[u64] {
        &self.partition_inserts
    }

    /// Sign-cache `(lookups, misses)` since this synopsis was constructed
    /// (monitoring only — resets on snapshot restore, like
    /// [`StreamSynopsis::partition_insert_counts`]).  Every insert except
    /// a Filter-mode hit (see [`StreamSynopsis::topk_filter_counts`]) is
    /// one lookup; every miss runs the ξ row kernel over all `s1·s2`
    /// families.
    pub fn sign_cache_counts(&self) -> (u64, u64) {
        (self.sign_cache.lookups, self.sign_cache.misses)
    }

    /// Filter-mode `(hits, reestimates)` since this synopsis was
    /// constructed (monitoring only — resets on snapshot restore): hits
    /// are tracked-value occurrences counted in place without touching
    /// the sketches, re-estimates those sent through Algorithm 4 every
    /// [`crate::topk::REESTIMATE_PERIOD`]-th time.  Both stay zero in
    /// Paper mode.
    pub fn topk_filter_counts(&self) -> (u64, u64) {
        (self.filter_counts.hits, self.filter_counts.reestimates)
    }

    /// All tracked heavy hitters across virtual streams, most frequent
    /// first.
    pub fn tracked_heavy_hitters(&self) -> Vec<(u64, i64)> {
        let mut out: Vec<(u64, i64)> = self
            .topks
            .iter()
            .flat_map(|t| t.tracked_values())
            .collect();
        out.sort_by_key(|&(_, f)| std::cmp::Reverse(f));
        out
    }

    /// Captures the mutable state of the synopsis for a snapshot: per-bank
    /// counters, per-bank tracked heavy hitters, and the stream length.
    /// The immutable parts (ξ families) reconstruct from the config.
    pub fn export_state(&self) -> SynopsisState {
        SynopsisState {
            bank_counters: self.banks.iter().map(SketchBank::counter_values).collect(),
            tracked: self.topks.iter().map(TopKTracker::tracked_values).collect(),
            values_processed: self.values_processed,
        }
    }

    /// Rebuilds a synopsis from a config and exported state.
    ///
    /// # Panics
    /// Panics if the state geometry does not match the config.
    pub fn from_state(config: SynopsisConfig, state: SynopsisState) -> Self {
        let mut syn = Self::new(config);
        assert_eq!(
            state.bank_counters.len(),
            syn.banks.len(),
            "snapshot virtual-stream count mismatch"
        );
        assert_eq!(state.tracked.len(), syn.topks.len());
        for (bank, counters) in syn.banks.iter_mut().zip(&state.bank_counters) {
            bank.set_counter_values(counters);
        }
        for (topk, entries) in syn.topks.iter_mut().zip(&state.tracked) {
            topk.restore_tracked(entries);
        }
        syn.values_processed = state.values_processed;
        syn
    }

    /// Total synopsis memory in bytes: counters, seeds, and top-k slots
    /// (the paper's accounting in Section 7.5).
    pub fn memory_bytes(&self) -> usize {
        let banks: usize = self.banks.iter().map(SketchBank::memory_bytes).sum();
        let topk: usize = self.topks.iter().map(TopKTracker::memory_bytes).sum();
        banks + topk
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(topk: usize) -> SynopsisConfig {
        SynopsisConfig {
            s1: 60,
            s2: 7,
            virtual_streams: 13,
            topk,
            independence: 5,
            topk_probability: u16::MAX,
            seed: 17,
        }
    }

    fn skewed_stream() -> Vec<(u64, i64)> {
        // Zipf-ish frequencies over 60 values.
        (1..=60u64).map(|v| (v * 101, (600 / v) as i64)).collect()
    }

    fn fill(s: &mut StreamSynopsis, freqs: &[(u64, i64)]) {
        let max_f = freqs.iter().map(|&(_, f)| f).max().unwrap();
        for round in 0..max_f {
            for &(v, f) in freqs {
                if round < f {
                    s.insert(v);
                }
            }
        }
    }

    #[test]
    fn self_join_estimates_square_counters_beyond_i64() {
        // Any counter past ±3.04e9 squares past i64::MAX; the estimates
        // and the residual self-join gauge must still read +x².
        for x in [4_000_000_000i64, -4_000_000_000, i64::MAX, i64::MIN] {
            let cfg = SynopsisConfig { s1: 2, s2: 3, virtual_streams: 2, ..small_config(0) };
            let mut state = StreamSynopsis::new(cfg.clone()).export_state();
            for counters in &mut state.bank_counters {
                counters.fill(x);
            }
            let syn = StreamSynopsis::from_state(cfg, state);
            let square = (i128::from(x) * i128::from(x)) as f64;
            for b in 0..2 {
                let bank = syn.partition(b).unwrap().0;
                assert_eq!(crate::bank::oracle::estimate_self_join(bank), square, "bank {b} at {x}");
            }
            assert_eq!(syn.estimate_residual_self_join(), 2.0 * square, "residual at {x}");
            assert_eq!(syn.residual_self_join_group_means(), vec![2.0 * square; 3]);
        }
    }

    #[test]
    fn point_estimates_with_topk() {
        let mut syn = StreamSynopsis::new(small_config(5));
        let freqs = skewed_stream();
        fill(&mut syn, &freqs);
        assert_eq!(
            syn.values_processed(),
            freqs.iter().map(|&(_, f)| f as u64).sum::<u64>()
        );
        // Heavy and medium values should estimate well.
        for &(v, f) in freqs.iter().take(12) {
            let est = syn.estimate_count(v);
            assert!(
                (est - f as f64).abs() / (f as f64) < 0.35,
                "value {v}: est {est} vs {f}"
            );
        }
    }

    #[test]
    fn set_estimate_across_banks() {
        let mut syn = StreamSynopsis::new(small_config(5));
        let freqs = skewed_stream();
        fill(&mut syn, &freqs);
        // Three values guaranteed to hit different banks (101, 202, 303 mod 13 differ).
        let q = [101u64, 202, 303];
        let truth: i64 = freqs
            .iter()
            .filter(|(v, _)| q.contains(v))
            .map(|&(_, f)| f)
            .sum();
        let est = syn.estimate_total(&q);
        assert!(
            (est - truth as f64).abs() / (truth as f64) < 0.25,
            "est {est} vs {truth}"
        );
    }

    #[test]
    fn expr_sum_matches_estimate_total_semantics() {
        let mut syn = StreamSynopsis::new(small_config(0));
        fill(&mut syn, &[(5, 200), (18, 100), (33, 50)]);
        let e = Expr::sum_of_counts(&[5, 18]);
        let est = syn.estimate_expr(&e).unwrap();
        assert!((est - 300.0).abs() / 300.0 < 0.25, "est {est}");
    }

    #[test]
    fn expr_product_across_banks() {
        let mut syn = StreamSynopsis::new(small_config(0));
        fill(&mut syn, &[(5, 150), (18, 100), (33, 40)]);
        let e = Expr::product_of_counts(&[5, 18]);
        let est = syn.estimate_expr(&e).unwrap();
        let truth = 150.0 * 100.0;
        assert!(
            (est - truth).abs() / truth < 0.5,
            "est {est} vs {truth}"
        );
    }

    #[test]
    fn expr_independence_guard() {
        let syn = StreamSynopsis::new(SynopsisConfig {
            independence: 4,
            ..small_config(0)
        });
        // Triple product needs 7-wise.
        let e = Expr::product_of_counts(&[1, 2, 3]);
        match syn.estimate_expr(&e) {
            Err(SynopsisError::InsufficientIndependence { required: 7, actual: 4 }) => {}
            other => panic!("expected independence error, got {other:?}"),
        }
    }

    #[test]
    fn expr_duplicate_guard() {
        let syn = StreamSynopsis::new(small_config(0));
        let e = Expr::Mul(Box::new(Expr::Count(9)), Box::new(Expr::Count(9)));
        assert!(matches!(
            syn.estimate_expr(&e),
            Err(SynopsisError::Expr(ExprError::DuplicateQuery(9)))
        ));
    }

    #[test]
    fn topk_reduces_residual_self_join() {
        let freqs = skewed_stream();
        let mut no_topk = StreamSynopsis::new(small_config(0));
        fill(&mut no_topk, &freqs);
        let mut with_topk = StreamSynopsis::new(small_config(8));
        fill(&mut with_topk, &freqs);
        let sj0 = no_topk.estimate_residual_self_join();
        let sj1 = with_topk.estimate_residual_self_join();
        assert!(
            sj1 < sj0 * 0.5,
            "top-k did not reduce SJ: {sj0} -> {sj1}"
        );
        assert!(!with_topk.tracked_heavy_hitters().is_empty());
        // The heaviest value should be among the tracked ones.
        let hh: Vec<u64> = with_topk
            .tracked_heavy_hitters()
            .iter()
            .map(|&(v, _)| v)
            .collect();
        assert!(hh.contains(&101), "heavy hitters: {hh:?}");
    }

    #[test]
    fn topk_improves_light_value_accuracy() {
        // With heavy values deleted, light values estimate better.
        let freqs = skewed_stream();
        let light: Vec<(u64, i64)> = freqs.iter().copied().filter(|&(_, f)| f <= 30).collect();
        let err = |syn: &StreamSynopsis| -> f64 {
            light
                .iter()
                .map(|&(v, f)| (syn.estimate_count(v) - f as f64).abs() / f as f64)
                .sum::<f64>()
                / light.len() as f64
        };
        let mut no_topk = StreamSynopsis::new(small_config(0));
        fill(&mut no_topk, &freqs);
        let mut with_topk = StreamSynopsis::new(small_config(10));
        fill(&mut with_topk, &freqs);
        let (e0, e1) = (err(&no_topk), err(&with_topk));
        assert!(
            e1 < e0,
            "top-k did not improve light-value error: {e0:.3} -> {e1:.3}"
        );
    }

    #[test]
    fn memory_accounting_scales() {
        let a = StreamSynopsis::new(SynopsisConfig {
            s1: 25,
            ..small_config(10)
        });
        let b = StreamSynopsis::new(SynopsisConfig {
            s1: 50,
            ..small_config(10)
        });
        assert!(b.memory_bytes() > a.memory_bytes());
        let expected = 13 * (50 * 7 * 16) + 13 * (10 * 24);
        assert_eq!(b.memory_bytes(), expected);
    }

    #[test]
    fn single_virtual_stream_works() {
        let mut syn = StreamSynopsis::new(SynopsisConfig {
            virtual_streams: 1,
            ..small_config(0)
        });
        fill(&mut syn, &[(7, 100)]);
        let est = syn.estimate_count(7);
        assert!((est - 100.0).abs() < 30.0, "est {est}");
    }

    #[test]
    fn export_import_state_roundtrip() {
        let mut syn = StreamSynopsis::new(small_config(3));
        fill(&mut syn, &[(5, 80), (18, 40), (33, 7)]);
        let state = syn.export_state();
        let restored = StreamSynopsis::from_state(small_config(3), state.clone());
        for v in [5u64, 18, 33, 999] {
            assert_eq!(syn.estimate_count(v), restored.estimate_count(v), "value {v}");
        }
        assert_eq!(syn.values_processed(), restored.values_processed());
        assert_eq!(syn.tracked_heavy_hitters(), restored.tracked_heavy_hitters());
        // State equality is structural.
        assert_eq!(restored.export_state(), state);
    }

    #[test]
    #[should_panic]
    fn from_state_geometry_mismatch_panics() {
        let syn = StreamSynopsis::new(small_config(0));
        let state = syn.export_state();
        let other = SynopsisConfig {
            virtual_streams: 5,
            ..small_config(0)
        };
        StreamSynopsis::from_state(other, state);
    }

    #[test]
    fn delete_expires_values_exactly() {
        let mut syn = StreamSynopsis::new(SynopsisConfig {
            topk: 0,
            ..small_config(0)
        });
        for _ in 0..50 {
            syn.insert(7);
        }
        for _ in 0..20 {
            syn.insert(11);
        }
        for _ in 0..50 {
            syn.delete(7);
        }
        assert_eq!(syn.estimate_count(7), 0.0);
        let est11 = syn.estimate_count(11);
        assert!((est11 - 20.0).abs() < 6.0, "est {est11}");
        assert_eq!(syn.values_processed(), 20);
    }

    #[test]
    fn probabilistic_topk_tracks_fewer_but_still_heavy() {
        // With topk invoked on ~1/4 of inserts, heavy hitters still get
        // found (they recur), at a fraction of the processing cost.
        let freqs = skewed_stream();
        let mut sampled = StreamSynopsis::new(SynopsisConfig {
            topk_probability: u16::MAX / 4,
            ..small_config(8)
        });
        fill(&mut sampled, &freqs);
        let hh: Vec<u64> = sampled
            .tracked_heavy_hitters()
            .iter()
            .map(|&(v, _)| v)
            .collect();
        assert!(!hh.is_empty(), "sampling must not disable tracking");
        assert!(hh.contains(&101), "heaviest value missed: {hh:?}");
        // Counts remain consistent: the heavy value estimates well.
        let est = sampled.estimate_count(101);
        assert!((est - 600.0).abs() / 600.0 < 0.3, "est {est}");
    }

    #[test]
    fn topk_probability_zero_equivalent_to_disabled() {
        let freqs = skewed_stream();
        let mut never = StreamSynopsis::new(SynopsisConfig {
            topk_probability: 0,
            ..small_config(8)
        });
        fill(&mut never, &freqs);
        assert!(never.tracked_heavy_hitters().is_empty());
    }

    #[test]
    fn health_accessors_track_stream_state() {
        let mut syn = StreamSynopsis::new(small_config(5));
        let (nz0, total) = syn.counter_occupancy();
        assert_eq!(nz0, 0, "fresh synopsis has all-zero counters");
        assert_eq!(total, 13 * 60 * 7);
        assert_eq!(syn.topk_occupancy(), (0, 13 * 5));
        assert!(syn.partition_insert_counts().iter().all(|&c| c == 0));

        let freqs = skewed_stream();
        fill(&mut syn, &freqs);

        // With topk_probability = MAX and 60 distinct values under a 13×5
        // top-k capacity, *every* value is tracked exactly and deleted from
        // the sketch — all-zero counters are the correct steady state.
        // Counter fill is therefore asserted on a tracker-free synopsis.
        let mut untracked = StreamSynopsis::new(small_config(0));
        fill(&mut untracked, &freqs);
        let (nz, _) = untracked.counter_occupancy();
        assert!(nz > 0, "stream left no mark on the counters");
        let (tracked, cap) = syn.topk_occupancy();
        assert!(tracked > 0 && tracked <= cap, "tracked {tracked} cap {cap}");
        let inserts: u64 = syn.partition_insert_counts().iter().sum();
        assert_eq!(inserts, syn.values_processed());
        // Group means average to something near the boosted estimate.
        let means = syn.residual_self_join_group_means();
        assert_eq!(means.len(), 7);
        let boosted = syn.estimate_residual_self_join();
        let mut sorted = means.clone();
        sorted.sort_by(f64::total_cmp);
        // The boosted value IS the median of these means.
        assert_eq!(sorted[sorted.len() / 2], boosted);
    }

    #[test]
    fn independence_outside_kernel_range_rejected() {
        for independence in [0usize, 1, 65] {
            let config = SynopsisConfig { independence, ..small_config(0) };
            let built = std::panic::catch_unwind(|| StreamSynopsis::new(config));
            assert!(built.is_err(), "independence {independence} accepted");
        }
    }

    #[test]
    fn partition_counts_reset_on_restore_but_state_roundtrips() {
        let mut syn = StreamSynopsis::new(small_config(3));
        syn.set_topk_mode(TopKMode::Paper);
        fill(&mut syn, &[(5, 80), (18, 40)]);
        assert!(syn.partition_insert_counts().iter().sum::<u64>() > 0);
        let (lookups, misses) = syn.sign_cache_counts();
        assert_eq!(lookups, 120, "every insert is one sign-cache lookup");
        assert_eq!(misses, 2, "two distinct values, each missing once");
        let restored = StreamSynopsis::from_state(small_config(3), syn.export_state());
        // Monitoring counts are not part of the snapshot format.
        assert!(restored.partition_insert_counts().iter().all(|&c| c == 0));
        assert_eq!(restored.sign_cache_counts(), (0, 0));
        // But the sketch state itself is intact.
        assert_eq!(syn.estimate_count(5), restored.estimate_count(5));
    }

    fn zipf_values() -> Vec<u64> {
        let mut vals = Vec::new();
        for &(v, f) in &skewed_stream() {
            for _ in 0..f {
                vals.push(v);
            }
        }
        // Deterministic Fisher–Yates so partitions see mixed stream order.
        let mut rng = sketchtree_hash::SplitMix64::new(99);
        for i in (1..vals.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            vals.swap(i, j);
        }
        vals
    }

    #[test]
    fn merge_without_topk_is_byte_identical_to_sequential() {
        let cfg = SynopsisConfig { topk: 0, ..small_config(0) };
        let values = zipf_values();
        let (first, second) = values.split_at(values.len() / 3);
        let mut whole = StreamSynopsis::new(cfg.clone());
        for &v in &values {
            whole.insert(v);
        }
        let mut a = StreamSynopsis::new(cfg.clone());
        for &v in first {
            a.insert(v);
        }
        let mut b = StreamSynopsis::new(cfg);
        for &v in second {
            b.insert(v);
        }
        a.merge_from(&b).expect("configs match");
        assert_eq!(a.export_state(), whole.export_state());
        assert_eq!(a.partition_insert_counts(), whole.partition_insert_counts());
    }

    #[test]
    fn merge_with_topk_preserves_estimates() {
        let cfg = small_config(3);
        let freqs = skewed_stream();
        let (sa, sb) = freqs.split_at(freqs.len() / 2);
        let mut a = StreamSynopsis::new(cfg.clone());
        fill(&mut a, sa);
        let mut b = StreamSynopsis::new(cfg);
        fill(&mut b, sb);
        let total: u64 = freqs.iter().map(|&(_, f)| f as u64).sum();
        a.merge_from(&b).expect("configs match");
        assert_eq!(a.values_processed(), total);
        for &(v, f) in freqs.iter().take(12) {
            let est = a.estimate_count(v);
            assert!(
                (est - f as f64).abs() < (f as f64).mul_add(0.35, 10.0),
                "value {v}: est {est} vs {f}"
            );
        }
    }

    #[test]
    fn merge_rejects_config_mismatch() {
        let mut a = StreamSynopsis::new(small_config(3));
        let b = StreamSynopsis::new(SynopsisConfig { seed: 18, ..small_config(3) });
        assert!(a.merge_from(&b).is_err());
    }

    #[test]
    #[should_panic]
    fn zero_virtual_streams_rejected() {
        StreamSynopsis::new(SynopsisConfig {
            virtual_streams: 0,
            ..SynopsisConfig::default()
        });
    }

    /// Filter-mode traffic: every insert is either a filter hit or a
    /// sign-cache lookup, re-estimates come every sixteenth tracked
    /// occurrence, and the counts reset on restore while the state
    /// round-trips.  Paper mode counts nothing.
    #[test]
    fn filter_counts_partition_the_inserts_and_reset_on_restore() {
        let cfg = small_config(3);
        let mut syn = StreamSynopsis::new(cfg.clone());
        assert_eq!(syn.topk_mode(), TopKMode::Filter);
        fill(&mut syn, &[(5, 80), (18, 40)]);
        let (hits, reestimates) = syn.topk_filter_counts();
        let (lookups, misses) = syn.sign_cache_counts();
        assert_eq!(hits + lookups, 120, "a filter hit skips the sign cache");
        assert_eq!(misses, 2);
        // Each value is admitted on its first occurrence; from then on 1 in
        // 16 of its tracked occurrences re-estimates.
        assert!(hits > 100 && reestimates >= 6, "hits {hits}, reestimates {reestimates}");
        assert_eq!(lookups, 2 + reestimates);
        let restored = StreamSynopsis::from_state(cfg, syn.export_state());
        assert_eq!(restored.topk_filter_counts(), (0, 0));
        assert_eq!(restored.export_state(), syn.export_state());

        let mut paper = StreamSynopsis::new(small_config(3));
        paper.set_topk_mode(TopKMode::Paper);
        fill(&mut paper, &[(5, 80), (18, 40)]);
        assert_eq!(paper.topk_filter_counts(), (0, 0));
    }

    /// A synopsis built under Paper merges into one built under Filter and
    /// the other way round: both keep the delete condition, so every
    /// partition's counters equal a fresh bank fed `n_v − f_v`.
    #[test]
    fn synopses_built_under_different_topk_modes_merge() {
        let cfg = small_config(3);
        let stream_a: Vec<(u64, i64)> = skewed_stream();
        let stream_b: Vec<(u64, i64)> = skewed_stream().iter().map(|&(v, f)| (v + 1, f)).collect();
        let build = |mode, stream: &[(u64, i64)]| {
            let mut syn = StreamSynopsis::new(cfg.clone());
            syn.set_topk_mode(mode);
            fill(&mut syn, stream);
            syn
        };
        for (mode_a, mode_b) in [(TopKMode::Filter, TopKMode::Paper), (TopKMode::Paper, TopKMode::Filter)] {
            let mut merged = build(mode_a, &stream_a);
            merged.merge_from(&build(mode_b, &stream_b)).expect("modes do not block a merge");
            assert_eq!(merged.topk_mode(), mode_a, "the receiver keeps its mode");
            let state = merged.export_state();
            for (r, counters) in state.bank_counters.iter().enumerate() {
                let mut fresh = SketchBank::new(cfg.seed, cfg.s1, cfg.s2, cfg.independence);
                for &(v, n) in stream_a.iter().chain(&stream_b) {
                    if merged.route(v) == r {
                        let f = state.tracked[r].iter().find(|e| e.0 == v).map_or(0, |e| e.1);
                        fresh.update(v, n - f);
                    }
                }
                assert_eq!(&fresh.counter_values(), counters, "{mode_a:?} <- {mode_b:?}, partition {r}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The ingest path in both modes equals the straightforward
        /// per-partition references of `topk::reference`, bit for bit:
        /// the published Algorithm 4 with Horner-evaluated signs, and the
        /// Filter rule stated on top of it.
        #[test]
        fn ingest_path_matches_the_topk_references(
            seed in proptest::prelude::any::<u64>(),
            filter in proptest::prelude::any::<bool>(),
            topk in 0usize..4,
            values in proptest::prop::collection::vec(
                proptest::prop_oneof![0u64..4, 0u64..4, 0u64..4, 0u64..40],
                0..600,
            ),
        ) {
            use crate::topk::reference;
            let topk_mode = if filter { TopKMode::Filter } else { TopKMode::Paper };
            let cfg = SynopsisConfig {
                s1: 4,
                s2: 3,
                virtual_streams: 3,
                topk,
                independence: 5,
                topk_probability: u16::MAX,
                seed,
            };
            let mut syn = StreamSynopsis::new(cfg);
            syn.set_topk_mode(topk_mode);
            let mut banks: Vec<SketchBank> =
                (0..3).map(|_| SketchBank::new(seed, 4, 3, 5)).collect();
            let mut trackers: Vec<TopKTracker> = (0..3).map(|_| TopKTracker::new(topk)).collect();
            for &v in &values {
                syn.insert(v);
                let r = (v % 3) as usize;
                let (bank, tracker) = (&mut banks[r], &mut trackers[r]);
                match topk_mode {
                    TopKMode::Paper => {
                        bank.update(v, 1);
                        reference::process(tracker, v, bank);
                    }
                    TopKMode::Filter => reference::filter_insert(tracker, v, bank),
                }
            }
            let state = syn.export_state();
            for r in 0..3 {
                proptest::prop_assert_eq!(&state.bank_counters[r], &banks[r].counter_values());
                proptest::prop_assert_eq!(&state.tracked[r], &trackers[r].tracked_values());
            }
        }
    }
}
