//! Recover-on-start: checkpoint restore plus write-ahead-log replay.
//!
//! The server's durability contract is *log-before-ack*: when a WAL is
//! configured, every ingest batch is appended (and, at group-commit
//! boundaries, fsynced) to the log before the `Ingested` response is
//! written.  Checkpoints record the sequence number of the last logged
//! batch they cover ([`sketchtree_core::SketchTree::wal_seq`], snapshot
//! format v2), and rotate the log once the rename is durable — so at any
//! instant, `checkpoint + WAL tail` reconstructs exactly the acked
//! stream.
//!
//! Recovery is a short state machine, run once by
//! [`crate::server::Server::start`]:
//!
//! 1. **Clean stale temp files.**  A crash between a checkpoint's write
//!    and its rename leaves `<checkpoint>.tmp` behind; it is deleted
//!    (and counted in `sketchtree_restore_stale_tmp_total`).
//! 2. **Restore the checkpoint**, if one exists.  A corrupt or torn
//!    checkpoint is quarantined — renamed to `<checkpoint>.corrupt`,
//!    logged, counted in `sketchtree_restore_corrupt_total` — and the
//!    synopsis restarts empty for the WAL to rebuild.  Without a WAL
//!    there is nothing to rebuild from, so the corruption stays a hard
//!    startup error rather than silently discarding data.
//! 3. **Open and repair the WAL.**  Torn tail frames (short write, CRC
//!    mismatch — the expected power-cut signature) are physically
//!    truncated; the intact prefix survives.
//! 4. **Replay the tail**: every frame with a sequence number past the
//!    checkpoint's cursor holds an SKTP `IngestTrees` payload; it is
//!    decoded with [`crate::wire::decode_ingest_trees`] and re-ingested
//!    through the same intern-and-relabel step
//!    (`intern_and_relabel`) the serving ingest uses, so the replayed
//!    synopsis is bit-identical to one that ingested the batches live.
//!    A CRC-valid frame that still fails decoding is treated like a torn
//!    tail: it and everything after it are truncated, never a startup
//!    error.  The server refuses any batch the decoder would refuse
//!    before logging it, so an acked batch always decodes.
//!
//! See `DESIGN.md` §10 for the full guarantee table per fsync setting.

use crate::metrics::ServerMetrics;
use crate::wire::decode_ingest_trees;
use sketchtree_core::sketchtree::{SketchTree, SketchTreeConfig};
use sketchtree_core::snapshot::read_snapshot;
use sketchtree_tree::{Label, LabelTable, Tree};
use sketchtree_wal::Wal;
use std::io;
use std::path::{Path, PathBuf};

/// Write-ahead-log settings for
/// [`ServerConfig`](crate::server::ServerConfig).
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Log file path (created if absent).  Keep it on the same
    /// filesystem as the checkpoint so both share one durability domain.
    pub path: PathBuf,
    /// Group-commit knob: `1` fsyncs every append (no acked batch is
    /// ever lost), `n` fsyncs every `n`-th append (a power cut may lose
    /// up to `n - 1` acked batches), `0` never fsyncs from the append
    /// path (benchmarking only).
    pub fsync_every: u32,
}

impl WalConfig {
    /// Full-durability configuration (`fsync_every = 1`) at `path`.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self { path: path.into(), fsync_every: 1 }
    }
}

/// What recovery found and did; returned by [`recover`] and useful in
/// crash-injection tests.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// A checkpoint was loaded successfully.
    pub restored_from_checkpoint: bool,
    /// A stale `<checkpoint>.tmp` from a mid-checkpoint crash was
    /// removed.
    pub stale_tmp_removed: bool,
    /// A corrupt checkpoint was quarantined at this path.
    pub quarantined_checkpoint: Option<PathBuf>,
    /// WAL frames replayed into the synopsis.
    pub replayed_batches: u64,
    /// Trees those frames carried.
    pub replayed_trees: u64,
    /// A torn or undecodable WAL tail was truncated.
    pub torn_tail: bool,
}

/// Appends `.corrupt` to the file name (keeping the original extension
/// visible: `state.snap` → `state.snap.corrupt`).
fn quarantine_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".corrupt");
    PathBuf::from(name)
}

/// Runs the recovery state machine described in the module docs and
/// returns the recovered synopsis, the opened log (when configured) and
/// a report of what happened.  Exposed publicly so crash-injection
/// tests can drive recovery file-by-file without binding a TCP server.
pub fn recover(
    checkpoint_path: Option<&Path>,
    wal_cfg: Option<&WalConfig>,
    fresh: &SketchTreeConfig,
    metrics: &ServerMetrics,
) -> io::Result<(SketchTree, Option<Wal>, RecoveryReport)> {
    let mut report = RecoveryReport::default();

    // 1. A leftover temp file is dead weight at best and a confusing
    // near-duplicate of the live checkpoint at worst; it can never be
    // trusted (the rename never happened, so neither did the publish).
    if let Some(path) = checkpoint_path {
        let tmp = path.with_extension("tmp");
        if tmp.exists() {
            std::fs::remove_file(&tmp)?;
            metrics.restore_stale_tmp.inc();
            report.stale_tmp_removed = true;
            eprintln!(
                "sketchtree: removed stale checkpoint temp file {} (crash between write and rename)",
                tmp.display()
            );
        }
    }

    // 2. Checkpoint restore, with quarantine when the WAL can rebuild.
    let mut st = match checkpoint_path {
        Some(path) if path.exists() => {
            let bytes = std::fs::read(path)?;
            match read_snapshot(&bytes) {
                Ok(restored) => {
                    metrics.restores.inc();
                    report.restored_from_checkpoint = true;
                    restored
                }
                Err(e) if wal_cfg.is_some() => {
                    let corrupt = quarantine_path(path);
                    std::fs::rename(path, &corrupt)?;
                    sketchtree_wal::fsync_parent_dir(path)?;
                    metrics.restore_corrupt.inc();
                    eprintln!(
                        "sketchtree: checkpoint {} is corrupt ({e}); quarantined as {} and rebuilding from the write-ahead log",
                        path.display(),
                        corrupt.display()
                    );
                    report.quarantined_checkpoint = Some(corrupt);
                    SketchTree::new(fresh.clone())
                }
                Err(e) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("checkpoint {}: {e}", path.display()),
                    ))
                }
            }
        }
        _ => SketchTree::new(fresh.clone()),
    };

    // 3 + 4. Open (repairing any torn tail) and replay past the cursor.
    let wal = match wal_cfg {
        None => None,
        Some(cfg) => {
            let (mut wal, scan) = Wal::open(&cfg.path, cfg.fsync_every).map_err(io::Error::from)?;
            if let Some(torn) = scan.torn {
                metrics.wal_torn.inc();
                report.torn_tail = true;
                eprintln!(
                    "sketchtree: wal {} had a torn tail at byte {} ({}); truncated — this is the normal crash signature, acked durable batches are intact",
                    cfg.path.display(),
                    torn.offset,
                    torn.reason
                );
            }
            let cursor = st.wal_seq();
            for frame in &scan.frames {
                if frame.seq <= cursor {
                    // Already folded into the checkpoint (a crash between
                    // the checkpoint rename and the log rotation leaves
                    // such frames behind — they must not double-count).
                    continue;
                }
                match decode_ingest_trees(&frame.batch) {
                    Ok((labels, mut trees)) => {
                        // Intern and relabel exactly as the serving path
                        // does, then ingest tree by tree: bit-identical to
                        // its `ingest_batch` by the batch-parity invariant.
                        intern_and_relabel(st.labels_mut(), &labels, &mut trees);
                        for tree in &trees {
                            st.ingest(tree);
                        }
                        st.set_wal_seq(frame.seq);
                        metrics.wal_replayed.inc();
                        report.replayed_batches += 1;
                        report.replayed_trees += trees.len() as u64;
                    }
                    Err(e) => {
                        // CRC-valid yet undecodable: nothing after this
                        // frame can be trusted either.  Same policy as a
                        // torn tail — truncate and continue serving.
                        metrics.wal_torn.inc();
                        report.torn_tail = true;
                        eprintln!(
                            "sketchtree: wal {} frame seq {} fails batch decoding ({e}); truncating log at byte {}",
                            cfg.path.display(),
                            frame.seq,
                            frame.offset
                        );
                        wal.truncate_to(frame.offset)?;
                        break;
                    }
                }
            }
            // A rotation-then-crash can leave the log empty while the
            // snapshot's cursor is far ahead; never reuse those numbers.
            wal.bump_seq_past(st.wal_seq());
            metrics.wal_size.set(wal.size_bytes() as f64);
            Some(wal)
        }
    };

    Ok((st, wal, report))
}

/// The intern-and-relabel step shared by live ingest and WAL replay:
/// interns a batch's label names into `table` in batch order, then
/// rewrites each tree's batch-local label indices to the interned labels
/// in place.  Indices are positional (duplicate names are legal on the
/// wire), so the map is built per index, not through a deduping table.
pub(crate) fn intern_and_relabel(table: &mut LabelTable, labels: &[&str], trees: &mut [Tree]) {
    let map: Vec<Label> = labels.iter().map(|name| table.intern(name)).collect();
    for tree in trees {
        // lint:allow(L1, reason = "a decoded or parsed batch's labels all index its own label table, which `map` mirrors entry for entry")
        tree.relabel(|l| map[l.0 as usize]);
    }
}
