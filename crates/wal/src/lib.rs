//! Write-ahead log of ingest batches for the SketchTree server.
//!
//! The synopsis is cheap to snapshot but the stream itself is
//! unreplayable: once an ingest batch is acked and then lost, every
//! future estimate is silently biased and the paper's error guarantees
//! no longer hold.  This crate provides the durability half of the fix —
//! an append-only, fsync'd log the server writes *before* acking a
//! batch, so a restart can replay everything past the last checkpoint.
//!
//! The log stores opaque byte payloads: it frames, checksums, orders and
//! syncs them, and never looks inside.  The server logs each batch as an
//! SKTP `IngestTrees` payload and decodes frames with the wire decoder at
//! recovery, so the batch format has one encoder and one decoder, both in
//! `sketchtree_server::wire`.
//!
//! # On-disk format
//!
//! ```text
//! file   := header frame*
//! header := magic("SKWL") version(u32 LE)
//! frame  := len(u32 LE) crc(u32 LE) payload
//! payload:= seq(u64 LE) batch
//! ```
//!
//! `len` counts the payload bytes (seq included), `crc` is the CRC-32
//! (IEEE) of the payload, and `seq` is a strictly increasing batch
//! sequence number — the replay cursor that snapshots record so
//! recovery knows which frames are already folded in.  `batch` is the
//! caller's bytes, stored as given ([`Frame::batch`] returns them).
//!
//! # Torn tails are normal
//!
//! A power cut mid-append leaves a torn final frame: a short header, a
//! short payload, or a payload whose CRC does not match.  That is the
//! *expected* crash signature, not corruption — [`scan`] stops at the
//! last intact frame and [`Wal::open`] physically truncates the file
//! there so the log is clean for new appends.  Only structural
//! impossibilities (wrong magic, unsupported version) are errors.
//!
//! # Group commit
//!
//! `fsync_every = n` issues one `fdatasync` per `n` appends.  With
//! `n = 1` every acked batch is durable before the ack leaves the
//! server; with `n > 1` a power cut may lose up to `n - 1` *acked*
//! batches (never a torn prefix of one) in exchange for amortizing the
//! sync latency — the classic group-commit trade-off.  `n = 0` never
//! syncs from the append path at all and is only suitable for
//! benchmarking the upper bound.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// File magic: identifies a SketchTree write-ahead log.
pub const MAGIC: &[u8; 4] = b"SKWL";
/// Current file format version.
pub const VERSION: u32 = 1;
/// Bytes of file header (magic + version).
pub const HEADER_LEN: u64 = 8;
/// Bytes of per-frame header (len + crc).
pub const FRAME_HEADER_LEN: u64 = 8;
/// Upper bound on a single frame's payload length.  A `len` beyond
/// this is treated as a torn tail (garbage header), not an allocation
/// request.
pub const MAX_PAYLOAD: u32 = 256 << 20;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3), table-driven.  The offline build has no crc
// crate; the polynomial is 8 lines of const fn.

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of `bytes`, as used in frame headers.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        let idx = ((c ^ b as u32) & 0xFF) as usize;
        // lint:allow(L1, reason = "idx is masked to 0..256 and the table has 256 entries")
        c = CRC_TABLE[idx] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Errors

/// Failure opening, scanning, or decoding a write-ahead log.
#[derive(Debug)]
pub enum WalError {
    /// Underlying filesystem failure.
    Io(io::Error),
    /// The file is structurally not a WAL (wrong magic / version) — a
    /// foreign file, never a torn write.
    Corrupt(&'static str),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io: {e}"),
            WalError::Corrupt(why) => write!(f, "wal corrupt: {why}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

impl From<WalError> for io::Error {
    fn from(e: WalError) -> Self {
        match e {
            WalError::Io(e) => e,
            WalError::Corrupt(why) => io::Error::new(io::ErrorKind::InvalidData, why),
        }
    }
}

// ---------------------------------------------------------------------------
// Scanning

/// One intact frame recovered by [`scan`].
#[derive(Debug, Clone)]
pub struct Frame {
    /// Batch sequence number (strictly increasing within a file).
    pub seq: u64,
    /// The bytes given to [`Wal::append`] (the payload with its seq
    /// stripped).
    pub batch: Vec<u8>,
    /// Byte offset of this frame's header in the file.
    pub offset: u64,
    /// Byte offset one past this frame (= next frame's `offset`).
    pub end: u64,
}

/// A torn tail detected by [`scan`]: everything from `offset` on is an
/// incomplete or damaged write and must be truncated before appending.
#[derive(Debug, Clone, Copy)]
pub struct TornTail {
    /// Offset of the first bad byte (the last intact frame's `end`).
    pub offset: u64,
    /// Human-readable crash signature, e.g. `"crc mismatch"`.
    pub reason: &'static str,
}

/// Result of scanning a WAL file: the intact frame prefix plus whether
/// (and where) a torn tail was found.
#[derive(Debug)]
pub struct Scan {
    /// All intact frames, in file order.
    pub frames: Vec<Frame>,
    /// Length of the valid prefix; the file should be truncated here
    /// before new appends.  Always `>= HEADER_LEN` for a non-empty file.
    pub valid_len: u64,
    /// Set when bytes past `valid_len` had to be discarded.
    pub torn: Option<TornTail>,
    /// Total file length at scan time.
    pub file_len: u64,
}

impl Scan {
    /// Highest sequence number seen, or 0 for an empty log.
    pub fn last_seq(&self) -> u64 {
        self.frames.last().map_or(0, |f| f.seq)
    }
}

fn le_u32(b: &[u8], at: usize) -> Option<u32> {
    let s = b.get(at..at.checked_add(4)?)?;
    let mut a = [0u8; 4];
    a.copy_from_slice(s);
    Some(u32::from_le_bytes(a))
}

fn le_u64(b: &[u8], at: usize) -> Option<u64> {
    let s = b.get(at..at.checked_add(8)?)?;
    let mut a = [0u8; 8];
    a.copy_from_slice(s);
    Some(u64::from_le_bytes(a))
}

/// Scans a WAL file, validating the header and every frame's CRC and
/// sequence ordering.  Torn tails (short reads, bad CRCs, implausible
/// lengths, sequence regressions) end the scan at the last intact frame
/// and are reported in [`Scan::torn`]; only a wrong magic or an
/// unsupported version is an error.
pub fn scan(path: &Path) -> Result<Scan, WalError> {
    let bytes = std::fs::read(path)?;
    scan_bytes(&bytes)
}

fn scan_bytes(bytes: &[u8]) -> Result<Scan, WalError> {
    let file_len = bytes.len() as u64;
    // A zero-length file is a log created but not yet headered (crash
    // between create and the header write) — valid and empty.
    if bytes.is_empty() {
        return Ok(Scan { frames: Vec::new(), valid_len: 0, torn: None, file_len });
    }
    if file_len < HEADER_LEN {
        // Not enough bytes to even hold the magic: if what's there is a
        // prefix of the magic it is a torn header write, else foreign.
        if MAGIC.starts_with(&bytes[..bytes.len().min(4)]) {
            return Ok(Scan {
                frames: Vec::new(),
                valid_len: 0,
                torn: Some(TornTail { offset: 0, reason: "short file header" }),
                file_len,
            });
        }
        return Err(WalError::Corrupt("not a wal file (bad magic)"));
    }
    if &bytes[..4] != MAGIC {
        return Err(WalError::Corrupt("not a wal file (bad magic)"));
    }
    match le_u32(bytes, 4) {
        Some(VERSION) => {}
        _ => return Err(WalError::Corrupt("unsupported wal version")),
    }

    let mut frames = Vec::new();
    let mut pos = HEADER_LEN as usize;
    let mut prev_seq = 0u64;
    let mut torn = None;
    while pos < bytes.len() {
        let Some(len) = le_u32(bytes, pos) else {
            torn = Some(TornTail { offset: pos as u64, reason: "short frame header" });
            break;
        };
        if len > MAX_PAYLOAD || len < 8 {
            torn = Some(TornTail { offset: pos as u64, reason: "implausible frame length" });
            break;
        }
        let Some(crc) = le_u32(bytes, pos + 4) else {
            torn = Some(TornTail { offset: pos as u64, reason: "short frame header" });
            break;
        };
        let payload_at = pos + FRAME_HEADER_LEN as usize;
        let Some(payload) = bytes.get(payload_at..payload_at + len as usize) else {
            torn = Some(TornTail { offset: pos as u64, reason: "short payload" });
            break;
        };
        if crc32(payload) != crc {
            torn = Some(TornTail { offset: pos as u64, reason: "crc mismatch" });
            break;
        }
        let Some(seq) = le_u64(payload, 0) else {
            torn = Some(TornTail { offset: pos as u64, reason: "short payload" });
            break;
        };
        if seq <= prev_seq {
            torn = Some(TornTail { offset: pos as u64, reason: "sequence regression" });
            break;
        }
        prev_seq = seq;
        let end = payload_at as u64 + len as u64;
        frames.push(Frame { seq, batch: payload[8..].to_vec(), offset: pos as u64, end });
        pos = end as usize;
    }
    let valid_len = frames.last().map_or(HEADER_LEN, |f| f.end);
    Ok(Scan { frames, valid_len, torn, file_len })
}

// ---------------------------------------------------------------------------
// Writer

/// Result of one [`Wal::append`].
#[derive(Debug, Clone, Copy)]
pub struct Append {
    /// Sequence number assigned to the batch.
    pub seq: u64,
    /// Whether this append flushed to stable storage (group-commit
    /// boundary hit).  With `fsync_every = 1` this is always true.
    pub synced: bool,
    /// Bytes written including the frame header.
    pub bytes: u64,
}

/// An open write-ahead log.  Appends go to the end of the intact
/// prefix; any torn tail found at open time is physically truncated
/// first.  Not internally synchronized — the server serializes access
/// through its commit mutex.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    fsync_every: u32,
    unsynced: u32,
    next_seq: u64,
    len: u64,
    fsyncs: u64,
}

impl Wal {
    /// Opens (creating if absent) the log at `path`, scans it, repairs
    /// any torn tail by truncation, and positions for appending.  The
    /// returned [`Scan`] holds the intact frames for replay.
    ///
    /// `fsync_every` is the group-commit knob: 1 = sync every append
    /// (full durability), `n` = one sync per `n` appends, 0 = never
    /// sync from the append path.
    pub fn open(path: &Path, fsync_every: u32) -> Result<(Wal, Scan), WalError> {
        let preexisting = path.exists();
        let scan = if preexisting {
            scan(path)?
        } else {
            Scan { frames: Vec::new(), valid_len: 0, torn: None, file_len: 0 }
        };
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        let mut len = scan.valid_len;
        if scan.file_len > scan.valid_len {
            // Drop the torn tail (or trailing garbage) on the floor so
            // the next append starts at a frame boundary.
            file.set_len(scan.valid_len)?;
        }
        if len < HEADER_LEN {
            // Fresh (or torn-header) file: write the header and make
            // both it and the directory entry durable before any frame
            // can refer to them.
            file.set_len(0)?;
            file.write_all(MAGIC)?;
            file.write_all(&VERSION.to_le_bytes())?;
            file.sync_all()?;
            fsync_parent_dir(path)?;
            len = HEADER_LEN;
        }
        file.seek(SeekFrom::Start(len))?;
        let wal = Wal {
            file,
            path: path.to_path_buf(),
            fsync_every,
            unsynced: 0,
            next_seq: scan.last_seq() + 1,
            len,
            fsyncs: 0,
        };
        Ok((wal, scan))
    }

    /// Appends one batch payload as a frame, assigning the next
    /// sequence number.  Honors the group-commit setting; call
    /// [`Wal::sync`] to force durability regardless.
    pub fn append(&mut self, batch: &[u8]) -> io::Result<Append> {
        let payload_len = batch
            .len()
            .checked_add(8)
            .and_then(|n| u32::try_from(n).ok())
            .filter(|&n| n <= MAX_PAYLOAD)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "batch too large for wal frame"))?;
        let seq = self.next_seq;
        let mut frame = Vec::with_capacity(FRAME_HEADER_LEN as usize + payload_len as usize);
        frame.extend_from_slice(&payload_len.to_le_bytes());
        frame.extend_from_slice(&[0u8; 4]); // crc placeholder
        frame.extend_from_slice(&seq.to_le_bytes());
        frame.extend_from_slice(batch);
        let crc = crc32(&frame[8..]);
        frame[4..8].copy_from_slice(&crc.to_le_bytes());
        self.file.write_all(&frame)?;
        self.len += frame.len() as u64;
        self.next_seq += 1;
        let mut synced = false;
        if self.fsync_every > 0 {
            self.unsynced += 1;
            if self.unsynced >= self.fsync_every {
                self.file.sync_data()?;
                self.fsyncs += 1;
                self.unsynced = 0;
                synced = true;
            }
        }
        Ok(Append { seq, synced, bytes: frame.len() as u64 })
    }

    /// Forces all appended frames to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()?;
        self.fsyncs += 1;
        self.unsynced = 0;
        Ok(())
    }

    /// Discards every frame (keeps the header), called after a
    /// checkpoint has durably captured their effects.  Sequence numbers
    /// keep counting up so snapshots' replay cursors stay unambiguous
    /// across rotations.
    pub fn truncate_all(&mut self) -> io::Result<()> {
        self.truncate_to(HEADER_LEN)
    }

    /// Truncates the file to `offset` bytes (must be a frame boundary
    /// at or past the header), discarding later frames.  Used when a
    /// CRC-valid frame fails the caller's decoding — everything from it
    /// on is unusable.
    pub fn truncate_to(&mut self, offset: u64) -> io::Result<()> {
        let offset = offset.max(HEADER_LEN);
        self.file.set_len(offset)?;
        self.file.seek(SeekFrom::Start(offset))?;
        self.file.sync_data()?;
        self.fsyncs += 1;
        self.unsynced = 0;
        self.len = offset;
        Ok(())
    }

    /// Raises the next sequence number to at least `seq + 1`; used at
    /// recovery so replay cursors from a snapshot stay ahead of any
    /// frames the checkpoint already rotated away.
    pub fn bump_seq_past(&mut self, seq: u64) {
        if seq >= self.next_seq {
            self.next_seq = seq + 1;
        }
    }

    /// The sequence number the next append will be assigned.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Current file size in bytes (header included).
    pub fn size_bytes(&self) -> u64 {
        self.len
    }

    /// fsyncs issued so far (append-path group commits plus explicit
    /// [`Wal::sync`] and truncation syncs).
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// Path this log lives at.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// fsyncs the directory containing `path`, making a just-created or
/// just-renamed directory entry durable.  A rename without this can
/// survive in the page cache only — the classic "atomic rename that
/// wasn't" crash bug.
pub fn fsync_parent_dir(path: &Path) -> io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    File::open(parent)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sktw-{}-{name}", std::process::id()));
        p
    }

    /// An opaque payload whose length and bytes vary with `n` (the log
    /// never looks inside).
    fn batch(n: u32) -> Vec<u8> {
        (0..=n).flat_map(|i| format!("batch {n} part {i};").into_bytes()).collect()
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_append_scan() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        let (mut wal, scan0) = Wal::open(&path, 1).expect("open");
        assert!(scan0.frames.is_empty());
        for i in 0..5u32 {
            let a = wal.append(&batch(i)).expect("append");
            assert_eq!(a.seq, u64::from(i) + 1);
            assert!(a.synced);
        }
        drop(wal);
        let s = scan(&path).expect("scan");
        assert_eq!(s.frames.len(), 5);
        assert!(s.torn.is_none());
        assert_eq!(s.last_seq(), 5);
        for (i, f) in s.frames.iter().enumerate() {
            assert_eq!(f.batch, batch(i as u32));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn group_commit_syncs_every_nth_append() {
        let path = tmp("group");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path, 3).expect("open");
        let synced: Vec<bool> =
            (0..7).map(|i| wal.append(&batch(i)).expect("append").synced).collect();
        assert_eq!(synced, vec![false, false, true, false, false, true, false]);
        // Two group commits (the header sync predates the counter).
        assert_eq!(wal.fsyncs(), 2);
        wal.sync().expect("sync");
        assert_eq!(wal.fsyncs(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_continue() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path, 1).expect("open");
        for i in 0..3 {
            wal.append(&batch(i)).expect("append");
        }
        let good_len = wal.size_bytes();
        drop(wal);
        // Simulate a power cut mid-append: half a frame of garbage.
        let mut bytes = std::fs::read(&path).expect("read");
        bytes.extend_from_slice(&[0x55; 5]);
        std::fs::write(&path, &bytes).expect("write");
        let (mut wal, s) = Wal::open(&path, 1).expect("reopen");
        assert_eq!(s.frames.len(), 3);
        assert!(s.torn.is_some());
        assert_eq!(s.valid_len, good_len);
        assert_eq!(std::fs::metadata(&path).expect("meta").len(), good_len);
        // Sequence numbering continues where the intact prefix left off.
        let a = wal.append(&batch(9)).expect("append");
        assert_eq!(a.seq, 4);
        drop(wal);
        let s = scan(&path).expect("scan");
        assert_eq!(s.frames.len(), 4);
        assert!(s.torn.is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_truncation_point_recovers_the_intact_prefix() {
        let path = tmp("sweep");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path, 1).expect("open");
        let mut ends = vec![HEADER_LEN];
        for i in 0..4 {
            wal.append(&batch(i)).expect("append");
            ends.push(wal.size_bytes());
        }
        drop(wal);
        let full = std::fs::read(&path).expect("read");
        for cut in 0..=full.len() {
            let case = tmp("sweep-case");
            std::fs::write(&case, &full[..cut]).expect("write");
            let s = scan(&case).expect("scan never errors on truncation");
            // The intact frames are exactly those fully inside the cut.
            let cut64 = cut as u64;
            let expect = ends.iter().filter(|&&e| e > HEADER_LEN && e <= cut64).count();
            assert_eq!(s.frames.len(), expect, "cut at {cut}");
            // A cut exactly on a frame boundary (or a 0-byte file) is
            // indistinguishable from a clean shutdown; anywhere else is
            // a torn tail.
            assert_eq!(s.torn.is_some(), cut != 0 && !ends.contains(&cut64), "cut at {cut}");
            // Reopening repairs the file to the intact prefix.
            let (w, s2) = Wal::open(&case, 1).expect("reopen");
            assert_eq!(s2.frames.len(), expect);
            assert_eq!(w.size_bytes(), ends[expect].max(HEADER_LEN));
            drop(w);
            std::fs::remove_file(&case).ok();
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_byte_anywhere_drops_that_frame_and_its_suffix() {
        let path = tmp("flip");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path, 1).expect("open");
        let mut ends = vec![HEADER_LEN];
        for i in 0..3 {
            wal.append(&batch(i)).expect("append");
            ends.push(wal.size_bytes());
        }
        drop(wal);
        let full = std::fs::read(&path).expect("read");
        for at in (HEADER_LEN as usize)..full.len() {
            let mut bytes = full.clone();
            bytes[at] ^= 0xFF;
            let case = tmp("flip-case");
            std::fs::write(&case, &bytes).expect("write");
            if let Ok(s) = scan(&case) {
                // Frames before the damaged one must survive intact.
                let damaged = ends.iter().position(|&e| (at as u64) < e).expect("in range") - 1;
                assert!(s.frames.len() <= damaged + 1, "flip at {at}");
                for (i, f) in s.frames.iter().enumerate().take(damaged) {
                    assert_eq!(f.seq, i as u64 + 1);
                }
            }
            // else: the flip hit the magic/version — rejecting the whole
            // file is the correct answer for a foreign header.
            std::fs::remove_file(&case).ok();
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncate_all_keeps_sequence_monotone() {
        let path = tmp("rotate");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path, 1).expect("open");
        for i in 0..3 {
            wal.append(&batch(i)).expect("append");
        }
        wal.truncate_all().expect("truncate");
        assert_eq!(wal.size_bytes(), HEADER_LEN);
        let a = wal.append(&batch(7)).expect("append");
        assert_eq!(a.seq, 4, "rotation must not reuse sequence numbers");
        drop(wal);
        let s = scan(&path).expect("scan");
        assert_eq!(s.frames.len(), 1);
        assert_eq!(s.frames[0].seq, 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bump_seq_past_respects_snapshot_cursor() {
        let path = tmp("bump");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path, 1).expect("open");
        wal.bump_seq_past(41);
        assert_eq!(wal.append(&batch(0)).expect("append").seq, 42);
        wal.bump_seq_past(10); // never moves backwards
        assert_eq!(wal.append(&batch(1)).expect("append").seq, 43);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn foreign_files_are_rejected_not_truncated() {
        let path = tmp("foreign");
        std::fs::write(&path, b"definitely not a wal").expect("write");
        assert!(matches!(scan(&path), Err(WalError::Corrupt(_))));
        assert!(matches!(Wal::open(&path, 1), Err(WalError::Corrupt(_))));
        // The foreign file is left untouched for the operator.
        assert_eq!(std::fs::read(&path).expect("read"), b"definitely not a wal");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_and_headerless_files_open_cleanly() {
        let path = tmp("empty");
        std::fs::write(&path, b"").expect("write");
        let (wal, s) = Wal::open(&path, 1).expect("open");
        assert!(s.frames.is_empty());
        assert_eq!(wal.size_bytes(), HEADER_LEN);
        drop(wal);
        // Torn header (prefix of the magic only).
        std::fs::write(&path, &MAGIC[..2]).expect("write");
        let (wal, s) = Wal::open(&path, 1).expect("open");
        assert!(s.frames.is_empty());
        assert!(s.torn.is_some());
        assert_eq!(wal.size_bytes(), HEADER_LEN);
        std::fs::remove_file(&path).ok();
    }
}
