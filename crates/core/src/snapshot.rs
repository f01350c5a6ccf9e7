//! Synopsis snapshots: persist a [`SketchTree`] and restore it later.
//!
//! A streaming synopsis earns its keep over long horizons — which means
//! surviving restarts.  A snapshot captures everything that cannot be
//! recomputed: the configuration (so ξ families and the fingerprint
//! polynomial re-derive from their seeds), the label table, the raw sketch
//! counters, the tracked heavy hitters, the structural summary, and the
//! stream counters.  The optional exact baseline is *not* persisted — it
//! is measurement scaffolding and can be arbitrarily large.
//!
//! The format is a small hand-rolled, versioned, length-prefixed binary
//! encoding (magic `SKTR`, little-endian integers, varint-free for
//! simplicity).  No serialization dependencies enter the library crates.
//! Version 2 appends the durability cursor ([`SketchTree::wal_seq`]) so
//! recovery knows which write-ahead-log frames a checkpoint already
//! covers; version-1 snapshots still load (cursor 0 — replay everything
//! the log holds).
//!
//! ```
//! use sketchtree_core::{SketchTree, SketchTreeConfig};
//! use sketchtree_core::snapshot::{read_snapshot, write_snapshot};
//!
//! let mut st = SketchTree::new(SketchTreeConfig::default());
//! let a = st.labels_mut().intern("a");
//! st.ingest(&sketchtree_tree::Tree::node(a, vec![sketchtree_tree::Tree::leaf(a)]));
//! let bytes = write_snapshot(&st);
//! let restored = read_snapshot(&bytes).unwrap();
//! assert_eq!(restored.trees_processed(), 1);
//! ```

use crate::sketchtree::{SketchTree, SketchTreeConfig};
use crate::summary::ExpandLimits;
use sketchtree_sketch::{SynopsisConfig, SynopsisState};
use std::fmt;

const MAGIC: &[u8; 4] = b"SKTR";
const VERSION: u32 = 2;
/// Oldest version this build still reads.
const MIN_VERSION: u32 = 1;

/// Errors from [`read_snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Missing or wrong magic bytes.
    BadMagic,
    /// Snapshot version not understood by this build.
    UnsupportedVersion(u32),
    /// Input ended before the structure was complete.
    Truncated,
    /// A length or count field is implausible (corruption guard).
    Corrupt(&'static str),
    /// Two structurally valid snapshots cannot be merged (configuration
    /// mismatch).  Only produced by [`merge_snapshots`].
    Incompatible(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a SketchTree snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v}")
            }
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
            SnapshotError::Incompatible(why) => write!(f, "snapshots incompatible: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Merges two serialised snapshots into one: the result is the snapshot a
/// single synopsis would have written after absorbing both shards'
/// streams (byte-identical when top-k is off; estimate-preserving when
/// on — see [`SketchTree::merge`]).  Label tables may differ in content
/// and order; they are reconciled by name.
pub fn merge_snapshots(a: &[u8], b: &[u8]) -> Result<Vec<u8>, SnapshotError> {
    let mut left = read_snapshot(a)?;
    let right = read_snapshot(b)?;
    left.merge(&right).map_err(SnapshotError::Incompatible)?;
    Ok(write_snapshot(&left))
}

/// Serialises a synopsis to bytes.
pub fn write_snapshot(st: &SketchTree) -> Vec<u8> {
    let mut w = Writer(Vec::new());
    w.bytes(MAGIC);
    w.u32(VERSION);
    // --- config ---
    let c = st.config();
    w.usize(c.max_pattern_edges);
    w.u8(u8::from(c.include_single_nodes));
    w.u32(c.fingerprint_degree);
    w.u64(c.mapping_seed);
    w.usize(c.synopsis.s1);
    w.usize(c.synopsis.s2);
    w.usize(c.synopsis.virtual_streams);
    w.usize(c.synopsis.topk);
    w.usize(c.synopsis.independence);
    w.u16(c.synopsis.topk_probability);
    w.u64(c.synopsis.seed);
    w.u8(u8::from(c.maintain_summary));
    w.usize(c.max_arrangements);
    w.usize(c.expand_limits.max_patterns);
    w.usize(c.expand_limits.max_descendant_depth);
    // --- labels ---
    let labels = st.labels();
    w.usize(labels.len());
    for (_, name) in labels.iter() {
        w.str(name);
    }
    // --- synopsis state ---
    let state = st.export_synopsis_state();
    w.usize(state.bank_counters.len());
    for bank in &state.bank_counters {
        w.usize(bank.len());
        for &x in bank {
            w.i64(x);
        }
    }
    for tracked in &state.tracked {
        w.usize(tracked.len());
        for &(v, f) in tracked {
            w.u64(v);
            w.i64(f);
        }
    }
    w.u64(state.values_processed);
    // --- summary ---
    match st.summary() {
        None => w.u8(0),
        Some(s) => {
            w.u8(1);
            let (labels, transitions) = s.export();
            w.usize(labels.len());
            for l in labels {
                w.u32(l.0);
            }
            w.usize(transitions.len());
            for (p, ch) in transitions {
                w.u32(p.0);
                w.u32(ch.0);
            }
        }
    }
    // --- counters ---
    w.u64(st.trees_processed());
    w.u64(st.patterns_processed());
    // --- durability cursor (v2) ---
    w.u64(st.wal_seq());
    w.0
}

/// Restores a synopsis from bytes produced by [`write_snapshot`].
pub fn read_snapshot(bytes: &[u8]) -> Result<SketchTree, SnapshotError> {
    let mut r = Reader { bytes, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.u32()?;
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    // --- config ---
    let config = SketchTreeConfig {
        max_pattern_edges: r.usize_checked("max_pattern_edges", 1 << 16)?,
        include_single_nodes: r.u8()? != 0,
        fingerprint_degree: r.u32()?,
        mapping_seed: r.u64()?,
        synopsis: SynopsisConfig {
            s1: r.usize_checked("s1", 1 << 24)?,
            s2: r.usize_checked("s2", 1 << 24)?,
            virtual_streams: r.usize_checked("virtual_streams", 1 << 24)?,
            topk: r.usize_checked("topk", 1 << 32)?,
            independence: r.usize_checked("independence", 1 << 8)?,
            topk_probability: r.u16()?,
            seed: r.u64()?,
        },
        maintain_summary: r.u8()? != 0,
        track_exact: false, // the baseline is never persisted
        max_arrangements: r.usize_checked("max_arrangements", 1 << 32)?,
        expand_limits: ExpandLimits {
            max_patterns: r.usize_checked("max_patterns", 1 << 32)?,
            max_descendant_depth: r.usize_checked("max_descendant_depth", 1 << 16)?,
        },
    };
    // Structural validations that downstream constructors would otherwise
    // assert on (a corrupted snapshot must error, not panic).  They run
    // *before* any decode loop consumes the header-declared counts: a
    // hostile header must be rejected on sight, not after it has already
    // steered allocations and per-bank loops.
    if config.synopsis.s1 == 0 || config.synopsis.s2 == 0 || config.synopsis.virtual_streams == 0 {
        return Err(SnapshotError::Corrupt("zero sketch geometry"));
    }
    if !(2..=63).contains(&config.fingerprint_degree) {
        return Err(SnapshotError::Corrupt("fingerprint degree out of range"));
    }
    if !sketchtree_sketch::INDEPENDENCE_RANGE.contains(&config.synopsis.independence) {
        return Err(SnapshotError::Corrupt("independence out of range"));
    }
    // s1 and s2 are individually capped at 2^24, so a product above the
    // per-bank counter cap — including one that would overflow on 32-bit
    // targets — is a corrupt geometry, caught before it sizes anything.
    let per_bank = config
        .synopsis
        .s1
        .checked_mul(config.synopsis.s2)
        .filter(|&n| n <= 1 << 28)
        .ok_or(SnapshotError::Corrupt("bank geometry overflow"))?;
    // The top-k heaps are pre-sized at construction (one heap of `topk`
    // slots per virtual stream, before a single tracked entry decodes),
    // so a hostile capacity would steer a giant allocation even though
    // the tracked sections themselves are small.  Cap the product the
    // same way the counter slab is capped: real configs sit around
    // 229 × 300 ≈ 7 × 10⁴, a factor of ~240 under this bound.
    if config
        .synopsis
        .topk
        .checked_mul(config.synopsis.virtual_streams)
        .map_or(true, |n| n > 1 << 24)
    {
        return Err(SnapshotError::Corrupt("topk capacity implausible"));
    }
    // --- labels ---
    // Every decoded element of a counted section occupies a known minimum
    // of encoded bytes (a label carries an 8-byte length prefix, a counter
    // is 8 bytes, ...), so each count is bounded against the bytes that
    // are actually left in the buffer before its loop runs.
    let n_labels = r.count_checked("label count", 1 << 32, 8)?;
    let mut label_names = Vec::with_capacity(n_labels.min(1 << 20));
    for _ in 0..n_labels {
        label_names.push(r.str()?);
    }
    // --- synopsis state ---
    let n_banks = r.count_checked("bank count", 1 << 24, 8)?;
    if n_banks != config.synopsis.virtual_streams {
        return Err(SnapshotError::Corrupt("bank count != virtual_streams"));
    }
    let mut bank_counters = Vec::with_capacity(n_banks);
    for _ in 0..n_banks {
        let len = r.count_checked("bank counters", 1 << 28, 8)?;
        if len != per_bank {
            return Err(SnapshotError::Corrupt("bank geometry mismatch"));
        }
        let mut counters = Vec::with_capacity(len);
        for _ in 0..len {
            counters.push(r.i64()?);
        }
        bank_counters.push(counters);
    }
    let mut tracked = Vec::with_capacity(n_banks);
    for _ in 0..n_banks {
        let len = r.count_checked("tracked count", 1 << 28, 16)?;
        if len > config.synopsis.topk {
            return Err(SnapshotError::Corrupt("tracked exceeds topk capacity"));
        }
        let mut entries = Vec::with_capacity(len);
        for _ in 0..len {
            entries.push((r.u64()?, r.i64()?));
        }
        tracked.push(entries);
    }
    let values_processed = r.u64()?;
    for entries in &tracked {
        let mut vals: Vec<u64> = entries.iter().map(|&(v, _)| v).collect();
        vals.sort_unstable();
        vals.dedup();
        if vals.len() != entries.len() {
            return Err(SnapshotError::Corrupt("duplicate tracked values"));
        }
    }
    // --- summary ---
    let summary = match r.u8()? {
        0 => None,
        1 => {
            let n = r.count_checked("summary labels", 1 << 32, 4)?;
            let mut labels = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                labels.push(sketchtree_tree::Label(r.u32()?));
            }
            let m = r.count_checked("summary transitions", 1 << 32, 8)?;
            let mut transitions = Vec::with_capacity(m.min(1 << 20));
            for _ in 0..m {
                transitions.push((
                    sketchtree_tree::Label(r.u32()?),
                    sketchtree_tree::Label(r.u32()?),
                ));
            }
            Some((labels, transitions))
        }
        _ => return Err(SnapshotError::Corrupt("summary flag")),
    };
    let trees_processed = r.u64()?;
    let patterns_processed = r.u64()?;
    // v1 predates the write-ahead log: cursor 0 means "no frame is
    // known to be covered", so recovery replays whatever the log holds.
    let wal_seq = if version >= 2 { r.u64()? } else { 0 };
    if r.pos != bytes.len() {
        return Err(SnapshotError::Corrupt("trailing bytes"));
    }
    // --- reassemble ---
    let state = SynopsisState {
        bank_counters,
        tracked,
        values_processed,
    };
    let mut st = SketchTree::from_snapshot_parts(
        config,
        label_names,
        state,
        summary,
        trees_processed,
        patterns_processed,
    )
    .map_err(SnapshotError::Corrupt)?;
    st.set_wal_seq(wal_seq);
    Ok(st)
}

struct Writer(Vec<u8>);

impl Writer {
    fn bytes(&mut self, b: &[u8]) {
        self.0.extend_from_slice(b);
    }
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    /// Encodes a usize length or config field as u64.
    fn usize(&mut self, v: usize) {
        // lint:allow(L2, reason = "usize -> u64 is widening on all supported targets")
        self.u64(v as u64);
    }
    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.bytes(s.as_bytes());
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.bytes.len() {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }
    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }
    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }
    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }
    fn i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }
    fn usize_checked(&mut self, what: &'static str, max: u64) -> Result<usize, SnapshotError> {
        let v = self.u64()?;
        if v > max {
            return Err(SnapshotError::Corrupt(what));
        }
        usize::try_from(v).map_err(|_| SnapshotError::Corrupt(what))
    }
    /// Bytes left past the cursor — the ceiling on how many encoded
    /// elements any well-formed section can still hold.
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
    /// An element count that must pass both an absolute cap and a
    /// plausibility bound: `count` elements of at least `elem_bytes`
    /// encoded bytes each must fit in the remaining buffer.  Rejecting
    /// an implausible count *before* any `Vec::with_capacity` or decode
    /// loop keeps a hostile header from steering allocation or spinning
    /// a long loop that is doomed to hit end-of-buffer anyway.
    ///
    /// A count over the absolute cap is self-inconsistent regardless of
    /// buffer size — `Corrupt`.  A count that merely needs more bytes
    /// than remain is indistinguishable from a cut-short file (the
    /// power-cut signature), so it reports `Truncated`: the same verdict
    /// the decode loop would have reached at end-of-buffer, delivered
    /// before the allocation instead of after it.
    fn count_checked(
        &mut self,
        what: &'static str,
        max: u64,
        elem_bytes: usize,
    ) -> Result<usize, SnapshotError> {
        let v = self.usize_checked(what, max)?;
        let plausible = v
            .checked_mul(elem_bytes)
            .map_or(false, |need| need <= self.remaining());
        if !plausible {
            return Err(SnapshotError::Truncated);
        }
        Ok(v)
    }
    fn str(&mut self) -> Result<String, SnapshotError> {
        let len = self.usize_checked("string length", 1 << 24)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Corrupt("invalid utf-8 label"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketchtree_sketch::SynopsisConfig;
    use sketchtree_tree::Tree;

    fn build() -> SketchTree {
        let mut st = SketchTree::new(SketchTreeConfig {
            max_pattern_edges: 3,
            synopsis: SynopsisConfig {
                s1: 20,
                s2: 5,
                virtual_streams: 11,
                topk: 4,
                ..SynopsisConfig::default()
            },
            ..SketchTreeConfig::default()
        });
        let (a, b, c) = {
            let l = st.labels_mut();
            (l.intern("A"), l.intern("B"), l.intern("C"))
        };
        let t1 = Tree::node(a, vec![Tree::leaf(b), Tree::leaf(c)]);
        let t2 = Tree::node(a, vec![Tree::node(b, vec![Tree::leaf(c)])]);
        for _ in 0..50 {
            st.ingest(&t1);
        }
        for _ in 0..7 {
            st.ingest(&t2);
        }
        st
    }

    #[test]
    fn wal_seq_roundtrips_through_snapshots() {
        let mut st = build();
        assert_eq!(st.wal_seq(), 0);
        st.set_wal_seq(37);
        st.set_wal_seq(12); // monotone: never moves backwards
        assert_eq!(st.wal_seq(), 37);
        let restored = read_snapshot(&write_snapshot(&st)).expect("valid snapshot");
        assert_eq!(restored.wal_seq(), 37);
    }

    #[test]
    fn set_wal_seq_does_not_bump_the_epoch() {
        let mut st = build();
        let epoch = st.epoch();
        st.set_wal_seq(9);
        assert_eq!(st.epoch(), epoch, "the durability cursor is not estimate-visible");
    }

    #[test]
    fn version_1_snapshots_still_load_with_cursor_zero() {
        let mut st = build();
        st.set_wal_seq(99);
        let mut bytes = write_snapshot(&st);
        // Rewrite as a v1 snapshot: version field back to 1, trailing
        // 8-byte cursor dropped — exactly what a pre-WAL build wrote.
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        bytes.truncate(bytes.len() - 8);
        let restored = read_snapshot(&bytes).expect("v1 snapshot loads");
        assert_eq!(restored.wal_seq(), 0);
        assert_eq!(restored.trees_processed(), st.trees_processed());
    }

    #[test]
    fn roundtrip_preserves_estimates() {
        let st = build();
        let bytes = write_snapshot(&st);
        let restored = read_snapshot(&bytes).expect("valid snapshot");
        assert_eq!(restored.trees_processed(), st.trees_processed());
        assert_eq!(restored.patterns_processed(), st.patterns_processed());
        for q in ["A(B,C)", "A(B(C))", "B(C)", "A(B)"] {
            assert_eq!(
                restored.count_ordered(q).unwrap(),
                st.count_ordered(q).unwrap(),
                "query {q}"
            );
        }
        assert_eq!(
            restored.tracked_heavy_hitters(),
            st.tracked_heavy_hitters()
        );
        // The summary survives: wildcard queries still work.
        assert_eq!(
            restored.count_ordered("A(*)").unwrap(),
            st.count_ordered("A(*)").unwrap()
        );
    }

    /// Every degree the synopsis admits restores from its own snapshot —
    /// the constructor and the decoder share one range.
    #[test]
    fn snapshots_roundtrip_at_every_admitted_independence() {
        for independence in [2usize, 4, 5, 64] {
            let mut st = SketchTree::new(SketchTreeConfig {
                max_pattern_edges: 3,
                synopsis: SynopsisConfig {
                    s1: 6,
                    s2: 3,
                    virtual_streams: 5,
                    topk: 2,
                    independence,
                    ..SynopsisConfig::default()
                },
                ..SketchTreeConfig::default()
            });
            let (a, b) = {
                let l = st.labels_mut();
                (l.intern("A"), l.intern("B"))
            };
            for _ in 0..9 {
                st.ingest(&Tree::node(a, vec![Tree::leaf(b), Tree::leaf(a)]));
            }
            let bytes = write_snapshot(&st);
            let restored = read_snapshot(&bytes).expect("a snapshot the synopsis wrote must load");
            assert_eq!(restored.config().synopsis.independence, independence);
            assert_eq!(write_snapshot(&restored), bytes, "independence {independence}");
        }
    }

    #[test]
    fn restored_synopsis_keeps_streaming() {
        let st = build();
        let bytes = write_snapshot(&st);
        let mut restored = read_snapshot(&bytes).expect("valid");
        // Continue the stream after restore; counts keep moving.
        let a = restored.labels().lookup("A").unwrap();
        let b = restored.labels().lookup("B").unwrap();
        let before = restored.count_ordered("A(B)").unwrap();
        for _ in 0..50 {
            restored.ingest(&Tree::node(a, vec![Tree::leaf(b)]));
        }
        let after = restored.count_ordered("A(B)").unwrap();
        assert!(after > before + 25.0, "{before} -> {after}");
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(
            read_snapshot(b"not a snapshot").err(),
            Some(SnapshotError::BadMagic)
        );
        assert_eq!(read_snapshot(b"").err(), Some(SnapshotError::Truncated));
        let mut bad_version = write_snapshot(&build());
        bad_version[4] = 99;
        assert_eq!(
            read_snapshot(&bad_version).err(),
            Some(SnapshotError::UnsupportedVersion(99))
        );
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let bytes = write_snapshot(&build());
        // Any prefix must fail cleanly, never panic.
        for cut in (0..bytes.len()).step_by(97) {
            let r = read_snapshot(&bytes[..cut]);
            assert!(r.is_err(), "prefix of {cut} bytes accepted");
        }
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut bytes = write_snapshot(&build());
        bytes.push(0);
        assert_eq!(
            read_snapshot(&bytes).err(),
            Some(SnapshotError::Corrupt("trailing bytes"))
        );
    }

    /// Arbitrary single-byte corruption must never panic — either the
    /// snapshot still parses (the byte was a counter value) or a clean
    /// error comes back.
    #[test]
    fn corruption_never_panics() {
        let bytes = write_snapshot(&build());
        for pos in (0..bytes.len()).step_by(31) {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut mutated = bytes.clone();
                mutated[pos] ^= flip;
                // Must return, not panic.
                let _ = read_snapshot(&mutated);
            }
        }
    }

    // Byte offsets of header fields in a v2 snapshot (magic 4 + version 4,
    // then the config fields in encode order).  The hostile-header tests
    // below patch these directly; a format change that moves them will
    // fail the sanity assertion in `patch_u64`.
    const OFF_S1: usize = 8 + 8 + 1 + 4 + 8; // past max_pattern_edges, include_single_nodes, fingerprint_degree, mapping_seed
    const OFF_S2: usize = OFF_S1 + 8;
    const OFF_TOPK: usize = OFF_S1 + 8 * 3; // past s1, s2, virtual_streams
    const OFF_INDEPENDENCE: usize = OFF_TOPK + 8;
    const OFF_LABEL_COUNT: usize = OFF_S1 + 8 * 5 + 2 + 8 + 1 + 8 * 3; // past s1..independence, topk_probability, seed, maintain_summary, limits

    fn patch_u64(bytes: &mut [u8], off: usize, v: u64) {
        bytes[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// A small but fully populated snapshot — every section non-empty —
    /// for the exhaustive per-position sweeps below, whose cost is
    /// quadratic in snapshot size (each of the O(bytes) mutations pays a
    /// full O(bytes) decode).  The header layout is identical to
    /// [`build`]'s, so the `OFF_*` offsets apply unchanged.
    fn build_small() -> SketchTree {
        let mut st = SketchTree::new(SketchTreeConfig {
            max_pattern_edges: 2,
            synopsis: SynopsisConfig {
                s1: 4,
                s2: 3,
                virtual_streams: 3,
                topk: 2,
                ..SynopsisConfig::default()
            },
            ..SketchTreeConfig::default()
        });
        let (a, b, c) = {
            let l = st.labels_mut();
            (l.intern("A"), l.intern("B"), l.intern("C"))
        };
        let t1 = Tree::node(a, vec![Tree::leaf(b), Tree::leaf(c)]);
        let t2 = Tree::node(a, vec![Tree::node(b, vec![Tree::leaf(c)])]);
        for _ in 0..5 {
            st.ingest(&t1);
        }
        st.ingest(&t2);
        st
    }

    /// The decoder admits exactly the range the synopsis is built with.
    #[test]
    fn independence_outside_the_shared_range_is_corrupt() {
        let bytes = write_snapshot(&build_small());
        for (independence, ok) in [(1u64, false), (2, true), (64, true), (65, false)] {
            let mut patched = bytes.clone();
            patch_u64(&mut patched, OFF_INDEPENDENCE, independence);
            match read_snapshot(&patched) {
                Ok(_) => assert!(ok, "independence {independence} decoded"),
                Err(e) => {
                    assert!(!ok, "independence {independence}: {e}");
                    assert_eq!(e, SnapshotError::Corrupt("independence out of range"));
                }
            }
        }
    }

    /// A header declaring `s1 = s2 = 2^24` passes the per-field caps but
    /// describes 2^48 counters per bank.  Decode must reject it as corrupt
    /// *before* the bank loops run — historically `per_bank = s1 * s2` was
    /// computed unchecked and only validated after the loops had already
    /// consumed the hostile counts.
    #[test]
    fn hostile_geometry_rejected_before_bank_loops() {
        let mut bytes = write_snapshot(&build());
        patch_u64(&mut bytes, OFF_S1, 1 << 24);
        patch_u64(&mut bytes, OFF_S2, 1 << 24);
        assert_eq!(
            read_snapshot(&bytes).err(),
            Some(SnapshotError::Corrupt("bank geometry overflow"))
        );
        let mut bytes = write_snapshot(&build());
        patch_u64(&mut bytes, OFF_S1, 0);
        assert_eq!(
            read_snapshot(&bytes).err(),
            Some(SnapshotError::Corrupt("zero sketch geometry"))
        );
    }

    /// A label count under the absolute cap but far beyond what the buffer
    /// could hold must fail the remaining-bytes plausibility check instead
    /// of sizing an allocation from attacker-controlled input.  The
    /// verdict is `Truncated` — a sub-cap count needing absent bytes is
    /// indistinguishable from a cut-short file — while a count over the
    /// absolute cap stays `Corrupt` (exercised by the adversarial
    /// integration tests with `u64::MAX`).
    #[test]
    fn hostile_label_count_rejected_by_remaining_bytes() {
        let mut bytes = write_snapshot(&build());
        // Sanity: the patched offset really is the label count.
        let declared = u64::from_le_bytes(bytes[OFF_LABEL_COUNT..OFF_LABEL_COUNT + 8].try_into().unwrap());
        assert_eq!(declared as usize, read_snapshot(&bytes).unwrap().labels().len());
        patch_u64(&mut bytes, OFF_LABEL_COUNT, 1 << 31);
        assert_eq!(read_snapshot(&bytes).err(), Some(SnapshotError::Truncated));
    }

    /// A hostile `topk` passes the per-section `len <= topk` checks for
    /// free (the tracked lists really are small), but construction
    /// pre-sizes one heap of `topk` slots per virtual stream — so the
    /// capacity must be rejected as implausible before anything is built.
    #[test]
    fn hostile_topk_capacity_rejected() {
        let mut bytes = write_snapshot(&build());
        patch_u64(&mut bytes, OFF_TOPK, (1 << 31) + 7);
        assert_eq!(
            read_snapshot(&bytes).err(),
            Some(SnapshotError::Corrupt("topk capacity implausible"))
        );
    }

    /// Sliding a huge-but-capped count over every 8-byte window of the
    /// snapshot: wherever it lands on a section count, the plausibility
    /// guard must reject it; everywhere else decode may succeed or fail,
    /// but never panic and never trust the fabricated length.
    #[test]
    fn hostile_counts_never_trusted() {
        let bytes = write_snapshot(&build_small());
        for pos in 0..bytes.len().saturating_sub(8) {
            let mut mutated = bytes.clone();
            patch_u64(&mut mutated, pos, (1 << 31) + 7);
            let _ = read_snapshot(&mutated);
        }
    }

    /// Truncation fuzz focused on section boundaries: for every prefix cut
    /// inside each counted section the decoder must error cleanly — the
    /// count guards compare against the bytes actually present.
    #[test]
    fn truncated_sections_error_cleanly() {
        let bytes = write_snapshot(&build_small());
        for cut in OFF_LABEL_COUNT..bytes.len() {
            assert!(read_snapshot(&bytes[..cut]).is_err(), "prefix of {cut} bytes accepted");
        }
    }

    #[test]
    fn exact_baseline_not_persisted() {
        let mut st = SketchTree::new(SketchTreeConfig {
            track_exact: true,
            ..SketchTreeConfig::default()
        });
        let a = st.labels_mut().intern("a");
        st.ingest(&Tree::node(a, vec![Tree::leaf(a)]));
        let restored = read_snapshot(&write_snapshot(&st)).unwrap();
        assert!(restored.exact().is_none());
    }
}
