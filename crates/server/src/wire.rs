//! The `SKTP` wire protocol: versioned, length-prefixed binary frames.
//!
//! Every message on the socket is one frame:
//!
//! ```text
//! +--------+---------+------+-------------+------------------+
//! | "SKTP" | version | kind | payload_len | payload          |
//! | 4 B    | u32 LE  | u8   | u32 LE      | payload_len B    |
//! +--------+---------+------+-------------+------------------+
//! ```
//!
//! Request kinds occupy `0x01..=0x7F`, response kinds `0x80..=0xFF`, so a
//! captured stream is self-describing.  Payloads use the same hand-rolled
//! little-endian encoding style as the snapshot format (`SKTR`): `u32`
//! counts, `u32`-length-prefixed UTF-8 strings, no varints, no
//! serialization dependencies.  Integers inside payloads are bounded on
//! decode so a hostile frame cannot force a huge allocation; the frame
//! itself is bounded by the reader's `max_frame`.
//!
//! Trees travel with a *batch-local* label table: each `IngestTrees`
//! frame carries its label names once, and node labels are indices into
//! that table.  The server interns the names into the synopsis' global
//! table on receipt, so producers never need to agree on label ids.

use sketchtree_tree::{Label, Tree, TreeBuilder};
use std::fmt;
use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

/// Frame magic, first four bytes of every message.
pub const MAGIC: &[u8; 4] = b"SKTP";
/// Protocol version understood by this build.
pub const VERSION: u32 = 1;
/// Frame header length: magic + version + kind + payload length.
pub const HEADER_LEN: usize = 4 + 4 + 1 + 4;

/// Widening conversion for wire lengths and counts: `usize` is at least
/// 32 bits on every target this workspace supports.
fn widen(n: u32) -> usize {
    // lint:allow(L2, reason = "u32 -> usize is widening on all supported targets")
    n as usize
}
/// Default cap on a single frame's payload (32 MiB).
pub const DEFAULT_MAX_FRAME: u32 = 32 << 20;

// Request kinds.
const K_PING: u8 = 0x01;
const K_INGEST_XML: u8 = 0x02;
const K_INGEST_TREES: u8 = 0x03;
const K_COUNT: u8 = 0x04;
const K_EXPR: u8 = 0x05;
const K_STATS: u8 = 0x06;
const K_HEAVY: u8 = 0x07;
const K_SNAPSHOT: u8 = 0x08;
const K_SHUTDOWN: u8 = 0x09;
const K_METRICS: u8 = 0x0A;
const K_MERGE_SNAPSHOT: u8 = 0x0B;
const K_SUBSCRIBE: u8 = 0x0C;
const K_UNSUBSCRIBE: u8 = 0x0D;

// Response kinds.
const K_PONG: u8 = 0x81;
const K_INGESTED: u8 = 0x82;
const K_ESTIMATE: u8 = 0x83;
const K_STATS_REPLY: u8 = 0x84;
const K_HEAVY_HITTERS_REPLY: u8 = 0x85;
const K_SNAPSHOT_DONE: u8 = 0x86;
const K_SHUTTING_DOWN: u8 = 0x87;
const K_METRICS_REPLY: u8 = 0x88;
const K_MERGE_DONE: u8 = 0x89;
const K_SUBSCRIBED: u8 = 0x8A;
const K_UNSUBSCRIBED: u8 = 0x8B;
/// The one server-initiated frame kind: pushed to subscribers after each
/// ingest batch or merge, never in reply to a request.  Clients must
/// tolerate it arriving interleaved with direct responses.
const K_ESTIMATE_UPDATE: u8 = 0x8C;
const K_ERROR: u8 = 0xFF;

/// Human-readable name of a frame kind byte, for per-opcode metric labels
/// and diagnostics.  Unassigned kinds render as `"other"`.
pub fn kind_name(kind: u8) -> &'static str {
    match kind {
        K_PING => "ping",
        K_INGEST_XML => "ingest_xml",
        K_INGEST_TREES => "ingest_trees",
        K_COUNT => "count",
        K_EXPR => "expr",
        K_STATS => "stats",
        K_HEAVY => "heavy_hitters",
        K_SNAPSHOT => "snapshot",
        K_SHUTDOWN => "shutdown",
        K_METRICS => "metrics",
        K_MERGE_SNAPSHOT => "merge_snapshot",
        K_SUBSCRIBE => "subscribe",
        K_UNSUBSCRIBE => "unsubscribe",
        K_PONG => "pong",
        K_INGESTED => "ingested",
        K_ESTIMATE => "estimate",
        K_STATS_REPLY => "stats_reply",
        K_HEAVY_HITTERS_REPLY => "heavy_reply",
        K_SNAPSHOT_DONE => "snapshot_done",
        K_SHUTTING_DOWN => "shutting_down",
        K_METRICS_REPLY => "metrics_reply",
        K_MERGE_DONE => "merge_done",
        K_SUBSCRIBED => "subscribed",
        K_UNSUBSCRIBED => "unsubscribed",
        K_ESTIMATE_UPDATE => "estimate_update",
        K_ERROR => "error",
        _ => "other",
    }
}

/// The request kind bytes assigned in this protocol version, in opcode
/// order — the iteration domain for per-opcode metric families.
pub const REQUEST_KINDS: &[u8] = &[
    K_PING,
    K_INGEST_XML,
    K_INGEST_TREES,
    K_COUNT,
    K_EXPR,
    K_STATS,
    K_HEAVY,
    K_SNAPSHOT,
    K_SHUTDOWN,
    K_METRICS,
    K_MERGE_SNAPSHOT,
    K_SUBSCRIBE,
    K_UNSUBSCRIBE,
];

// Decode-time allocation guards (counts, not bytes; byte totals are
// already bounded by max_frame).
const MAX_DOCS: u32 = 1 << 20;
const MAX_LABELS: u32 = 1 << 20;
const MAX_TREES: u32 = 1 << 20;
const MAX_NODES: u32 = 1 << 24;
const MAX_ENTRIES: u32 = 1 << 24;

/// Errors from frame reading or payload decoding.
#[derive(Debug)]
pub enum WireError {
    /// Socket-level failure.
    Io(io::Error),
    /// First four bytes were not `SKTP` — the stream is desynchronized.
    BadMagic,
    /// Peer speaks a protocol version this build does not.
    UnsupportedVersion(u32),
    /// Frame kind byte not assigned in this version.
    UnknownKind(u8),
    /// Declared payload length exceeds the reader's limit.
    Oversize {
        /// Declared payload length.
        len: u32,
        /// The reader's configured cap.
        max: u32,
    },
    /// Payload ended before its structure was complete (or a frame was
    /// cut off mid-read).
    Truncated,
    /// A count, index or flag inside the payload is implausible.
    Corrupt(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o: {e}"),
            WireError::BadMagic => write!(f, "bad frame magic (not SKTP)"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::UnknownKind(k) => write!(f, "unknown frame kind 0x{k:02x}"),
            WireError::Oversize { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds limit {max}")
            }
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::Corrupt(what) => write!(f, "frame corrupt: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Outcome of one [`read_frame`] call.
#[derive(Debug)]
pub enum Frame {
    /// A complete frame: kind byte plus raw payload.
    Msg {
        /// Frame kind.
        kind: u8,
        /// Raw payload bytes (decode with [`Request::decode`] or
        /// [`Response::decode`]).
        payload: Vec<u8>,
    },
    /// Peer closed the connection cleanly between frames.
    Eof,
    /// A read timeout fired with no bytes pending — the connection is
    /// idle, not broken.  Only possible before the first header byte; a
    /// timeout *inside* a frame is reported as [`WireError::Truncated`]
    /// once the reader's stall allowance runs out (immediately for
    /// [`read_frame`], after `stall` for [`read_frame_patient`]).
    Idle,
}

/// Writes one frame.
///
/// Fails with `InvalidInput` when the payload cannot be represented in
/// the u32 length prefix — a silently truncated length would
/// desynchronize the stream for every later frame.
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> io::Result<()> {
    let frame = frame_bytes(kind, payload)?;
    w.write_all(&frame)?;
    w.flush()
}

/// Assembles one frame — header plus payload — as a single contiguous
/// buffer, without touching any writer, so [`write_frame`] sends it with
/// one `write_all`.  The server builds its frames in place instead, with
/// [`Response::encode_frame_into`], and does so *outside* the
/// per-connection shared-writer mutex: only the socket write must
/// serialize under it (frame atomicity between the response path and
/// the pusher thread).
pub fn frame_bytes(kind: u8, payload: &[u8]) -> io::Result<Vec<u8>> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        io::Error::new(io::ErrorKind::InvalidInput, "frame payload exceeds u32::MAX bytes")
    })?;
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.push(kind);
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(payload);
    Ok(buf)
}

/// Reads one frame, distinguishing clean EOF and idle timeouts from real
/// protocol failures.
///
/// Zero-patience variant of [`read_frame_patient`]: the first read
/// timeout *inside* a frame is reported as [`WireError::Truncated`].
/// Peers that trickle bytes slower than the reader's socket timeout
/// should be read with [`read_frame_patient`] instead.
pub fn read_frame(r: &mut impl Read, max_frame: u32) -> Result<Frame, WireError> {
    read_frame_patient(r, max_frame, Duration::ZERO)
}

/// Reads one frame, tolerating mid-frame socket timeouts while the peer
/// keeps making progress.
///
/// The readers in this workspace use short socket read timeouts (the
/// server's doubles as its idle/housekeeping tick), which means a peer
/// that writes a frame in pieces — a slow ingester trickling a large
/// `IngestTrees` batch through a congested link, or an OS that delivers
/// a large write in several segments — can stall *inside* a frame for
/// longer than one timeout without being broken.  Disconnecting such a
/// peer (the pre-`stall` behavior) turns backpressure into an error.
///
/// Semantics:
///
/// * Zero bytes + timeout before the first header byte → [`Frame::Idle`]
///   (unchanged: idle ticks drive housekeeping and deadlines).
/// * A timeout mid-frame starts a stall clock.  Each arriving byte
///   resets it.  Only once `stall` elapses with **no progress at all**
///   is the frame abandoned as [`WireError::Truncated`].
///
/// With `stall == Duration::ZERO` this is exactly [`read_frame`]: the
/// first mid-frame timeout truncates.
pub fn read_frame_patient(
    r: &mut impl Read,
    max_frame: u32,
    stall: Duration,
) -> Result<Frame, WireError> {
    // First byte separately: zero bytes + EOF is a clean close, zero
    // bytes + timeout is an idle tick.  Once a byte has arrived we are
    // mid-frame and any shortfall beyond the stall allowance is an error.
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Ok(Frame::Eof),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Ok(Frame::Idle)
            }
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    let [first_byte] = first;
    let mut rest = [0u8; HEADER_LEN - 1];
    read_exact_framed(r, &mut rest, stall)?;
    // Parse the header through the payload Reader: first byte + 12 rest
    // bytes are magic(4), version(4), kind(1), len(4), little-endian.
    let mut hdr = Reader { bytes: &rest, pos: 0 };
    let [m0, m1, m2, m3] = *MAGIC;
    if first_byte != m0 || hdr.take(3)? != [m1, m2, m3] {
        return Err(WireError::BadMagic);
    }
    let version = hdr.u32()?;
    if version != VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let kind = hdr.u8()?;
    let len = hdr.u32()?;
    hdr.finish()?;
    if len > max_frame {
        return Err(WireError::Oversize { len, max: max_frame });
    }
    let mut payload = vec![0u8; widen(len)];
    read_exact_framed(r, &mut payload, stall)?;
    Ok(Frame::Msg { kind, payload })
}

/// `read_exact` for mid-frame bytes: EOF is truncation; a timeout is
/// truncation only after `stall` elapses with zero forward progress.
///
/// The stall clock restarts on every successful read, so a peer that
/// keeps trickling bytes — however slowly — is never disconnected, while
/// a genuinely wedged peer is cut off one stall interval after its last
/// byte.  `read_exact` cannot be used here: on a timeout it discards how
/// many bytes were already consumed, which would desynchronize the
/// stream on retry.
fn read_exact_framed(
    r: &mut impl Read,
    buf: &mut [u8],
    stall: Duration,
) -> Result<(), WireError> {
    let mut rest: &mut [u8] = buf;
    let mut last_progress = Instant::now();
    while !rest.is_empty() {
        match r.read(rest) {
            Ok(0) => return Err(WireError::Truncated),
            Ok(n) => {
                // `read` guarantees n <= rest.len(); min() makes the
                // slice advance panic-free even against a broken impl.
                let n = n.min(rest.len());
                rest = std::mem::take(&mut rest).get_mut(n..).unwrap_or_default();
                last_progress = Instant::now();
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                if last_progress.elapsed() >= stall {
                    return Err(WireError::Truncated);
                }
            }
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(())
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// Ingest a batch of XML documents (one tree each).
    IngestXml(Vec<String>),
    /// Ingest pre-built trees with a batch-local label table; node labels
    /// are indices into `labels`.
    IngestTrees {
        /// Batch-local label names.
        labels: Vec<String>,
        /// Trees whose [`Label`]s index into `labels`.
        trees: Vec<Tree>,
    },
    /// Estimate `COUNT_ord` (or unordered `COUNT`) of a textual pattern.
    Count {
        /// `true` for unordered `COUNT`, `false` for `COUNT_ord`.
        unordered: bool,
        /// The pattern, e.g. `"A(B,C)"`.
        pattern: String,
    },
    /// Evaluate a `+,-,*` expression over counts.
    Expr(String),
    /// Fetch synopsis statistics.
    Stats,
    /// Fetch the tracked heavy hitters, at most `limit` entries.
    HeavyHitters {
        /// Maximum entries to return.
        limit: u32,
    },
    /// Force a checkpoint to the server's snapshot path.
    Snapshot,
    /// Ask the server to checkpoint and stop accepting connections.
    Shutdown,
    /// Fetch the server's metrics exposition.
    Metrics {
        /// `true` for the JSON rendering, `false` for Prometheus text.
        json: bool,
    },
    /// Merge a serialised shard snapshot (the `SKTR` format) into the
    /// server's live synopsis.  The snapshot's configuration must equal
    /// the server's; label tables are reconciled by name.  Bounded by the
    /// connection's `max_frame` like every other frame (32 MiB default) —
    /// larger shards must be merged offline (`sketchtree merge`).
    MergeSnapshot(Vec<u8>),
    /// Register a standing query on this connection.  The server replies
    /// [`Response::Subscribed`] and thereafter pushes one
    /// [`Response::EstimateUpdate`] per ingest batch / merge until the
    /// subscription is dropped (unsubscribe, disconnect, or eviction).
    Subscribe {
        /// How `query` is interpreted.
        mode: SubscribeMode,
        /// Pattern or expression text.
        query: String,
    },
    /// Drop a standing query previously registered on this connection.
    Unsubscribe {
        /// The id from [`Response::Subscribed`].
        id: u64,
    },
}

/// How a [`Request::Subscribe`] query string is interpreted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubscribeMode {
    /// `COUNT_ord(Q)` of one pattern.
    Ordered,
    /// Unordered `COUNT(Q)` of one pattern.
    Unordered,
    /// A `+ − ×` expression over counts.
    Expr,
}

impl SubscribeMode {
    fn to_wire(self) -> u8 {
        match self {
            SubscribeMode::Ordered => 0,
            SubscribeMode::Unordered => 1,
            SubscribeMode::Expr => 2,
        }
    }

    fn from_wire(b: u8) -> Result<Self, WireError> {
        match b {
            0 => Ok(SubscribeMode::Ordered),
            1 => Ok(SubscribeMode::Unordered),
            2 => Ok(SubscribeMode::Expr),
            _ => Err(WireError::Corrupt("subscribe mode")),
        }
    }
}

/// Synopsis statistics as reported over the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stats {
    /// Trees ingested so far.
    pub trees_processed: u64,
    /// Pattern instances sketched so far.
    pub patterns_processed: u64,
    /// Distinct labels interned.
    pub labels: u64,
    /// Synopsis resident size in bytes.
    pub memory_bytes: u64,
    /// Configured max pattern edges `k`.
    pub max_pattern_edges: u64,
    /// Sketch width `s1`.
    pub s1: u64,
    /// Sketch depth `s2`.
    pub s2: u64,
    /// Virtual stream count.
    pub virtual_streams: u64,
    /// Heavy hitters tracked per stream.
    pub topk: u64,
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Liveness reply.
    Pong,
    /// A batch was ingested.
    Ingested {
        /// Trees added by this batch.
        trees: u64,
        /// Pattern instances added by this batch.
        patterns: u64,
        /// Server-wide tree total after the batch.
        total_trees: u64,
        /// Server-wide pattern total after the batch.
        total_patterns: u64,
    },
    /// A count or expression estimate.
    Estimate(f64),
    /// Statistics reply.
    Stats(Stats),
    /// Heavy-hitter reply: `(mapped value, frequency estimate)` pairs.
    HeavyHitters(Vec<(u64, i64)>),
    /// A checkpoint was written (`bytes` on disk).
    SnapshotDone {
        /// Snapshot size in bytes.
        bytes: u64,
    },
    /// The server acknowledged shutdown; the connection closes next.
    ShuttingDown,
    /// The rendered metrics exposition (Prometheus text or JSON, per the
    /// request's `json` flag).
    Metrics(String),
    /// A shard snapshot was merged.
    MergeDone {
        /// Server-wide tree total after the merge.
        total_trees: u64,
        /// Server-wide pattern total after the merge.
        total_patterns: u64,
    },
    /// A standing query was registered.
    Subscribed {
        /// Subscription id (scope: this connection's server session).
        id: u64,
        /// The synopsis epoch at registration; the first pushed update
        /// will carry a strictly larger epoch.
        epoch: u64,
    },
    /// A standing query was dropped.
    Unsubscribed,
    /// A pushed estimate for one subscription at one epoch — the only
    /// server-initiated frame.  `result` is `Err` when the query cannot
    /// currently be answered (e.g. a wildcard expansion overflowed after
    /// new labels arrived); the subscription stays live either way.
    EstimateUpdate {
        /// Subscription id.
        id: u64,
        /// The synopsis epoch this estimate belongs to.
        epoch: u64,
        /// The estimate, or why there is none at this epoch.
        result: Result<f64, String>,
    },
    /// The request failed; human-readable reason.
    Error(String),
}

impl Request {
    /// The frame kind byte for this request.
    pub fn kind(&self) -> u8 {
        match self {
            Request::Ping => K_PING,
            Request::IngestXml(_) => K_INGEST_XML,
            Request::IngestTrees { .. } => K_INGEST_TREES,
            Request::Count { .. } => K_COUNT,
            Request::Expr(_) => K_EXPR,
            Request::Stats => K_STATS,
            Request::HeavyHitters { .. } => K_HEAVY,
            Request::Snapshot => K_SNAPSHOT,
            Request::Shutdown => K_SHUTDOWN,
            Request::Metrics { .. } => K_METRICS,
            Request::MergeSnapshot(_) => K_MERGE_SNAPSHOT,
            Request::Subscribe { .. } => K_SUBSCRIBE,
            Request::Unsubscribe { .. } => K_UNSUBSCRIBE,
        }
    }

    /// Encodes the payload (header excluded).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer(Vec::new());
        match self {
            Request::Ping | Request::Stats | Request::Snapshot | Request::Shutdown => {}
            Request::IngestXml(docs) => {
                w.len(docs.len());
                for d in docs {
                    w.str(d);
                }
            }
            Request::IngestTrees { labels, trees } => write_ingest_trees(&mut w, labels, trees),
            Request::Count { unordered, pattern } => {
                w.u8(u8::from(*unordered));
                w.str(pattern);
            }
            Request::Expr(e) => w.str(e),
            Request::HeavyHitters { limit } => w.u32(*limit),
            Request::Metrics { json } => w.u8(u8::from(*json)),
            Request::MergeSnapshot(bytes) => {
                w.len(bytes.len());
                w.0.extend_from_slice(bytes);
            }
            Request::Subscribe { mode, query } => {
                w.u8(mode.to_wire());
                w.str(query);
            }
            Request::Unsubscribe { id } => w.u64(*id),
        }
        w.0
    }

    /// Decodes a payload for `kind`; rejects unknown kinds and trailing
    /// bytes.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader { bytes: payload, pos: 0 };
        let req = match kind {
            K_PING => Request::Ping,
            K_STATS => Request::Stats,
            K_SNAPSHOT => Request::Snapshot,
            K_SHUTDOWN => Request::Shutdown,
            K_INGEST_XML => {
                let n = r.count("document count", MAX_DOCS)?;
                let mut docs = Vec::with_capacity(widen(n.min(1 << 12)));
                for _ in 0..n {
                    docs.push(r.str()?);
                }
                Request::IngestXml(docs)
            }
            K_INGEST_TREES => {
                // Shares the zero-copy decoder (which finishes the reader
                // itself), then materializes owned labels for the enum.
                let (labels, trees) = decode_ingest_trees(payload)?;
                return Ok(Request::IngestTrees {
                    labels: labels.into_iter().map(str::to_owned).collect(),
                    trees,
                });
            }
            K_COUNT => {
                let unordered = match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::Corrupt("unordered flag")),
                };
                Request::Count { unordered, pattern: r.str()? }
            }
            K_EXPR => Request::Expr(r.str()?),
            K_HEAVY => Request::HeavyHitters { limit: r.u32()? },
            K_METRICS => {
                let json = match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::Corrupt("json flag")),
                };
                Request::Metrics { json }
            }
            K_MERGE_SNAPSHOT => {
                // The byte length is already bounded by max_frame; the
                // prefix only needs to match the remaining payload.
                let len = widen(r.u32()?);
                Request::MergeSnapshot(r.take(len)?.to_vec())
            }
            K_SUBSCRIBE => Request::Subscribe {
                mode: SubscribeMode::from_wire(r.u8()?)?,
                query: r.str()?,
            },
            K_UNSUBSCRIBE => Request::Unsubscribe { id: r.u64()? },
            other => return Err(WireError::UnknownKind(other)),
        };
        r.finish()?;
        Ok(req)
    }

    /// Writes this request as one frame.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        write_frame(w, self.kind(), &self.encode())
    }
}

impl Response {
    /// The frame kind byte for this response.
    pub fn kind(&self) -> u8 {
        match self {
            Response::Pong => K_PONG,
            Response::Ingested { .. } => K_INGESTED,
            Response::Estimate(_) => K_ESTIMATE,
            Response::Stats(_) => K_STATS_REPLY,
            Response::HeavyHitters(_) => K_HEAVY_HITTERS_REPLY,
            Response::SnapshotDone { .. } => K_SNAPSHOT_DONE,
            Response::ShuttingDown => K_SHUTTING_DOWN,
            Response::Metrics(_) => K_METRICS_REPLY,
            Response::MergeDone { .. } => K_MERGE_DONE,
            Response::Subscribed { .. } => K_SUBSCRIBED,
            Response::Unsubscribed => K_UNSUBSCRIBED,
            Response::EstimateUpdate { .. } => K_ESTIMATE_UPDATE,
            Response::Error(_) => K_ERROR,
        }
    }

    /// Encodes the payload (header excluded).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer(Vec::new());
        self.write_payload(&mut w);
        w.0
    }

    /// Appends this response to `buf` as one complete frame, byte-identical
    /// to `frame_bytes(self.kind(), &self.encode())` but without the two
    /// intermediate buffers.  The pusher encodes a whole epoch of updates
    /// into one reused buffer this way and writes it with one call.
    ///
    /// Fails with `InvalidInput`, leaving `buf` as it was, when the payload
    /// cannot be represented in the u32 length prefix.
    pub fn encode_frame_into(&self, buf: &mut Vec<u8>) -> io::Result<()> {
        let start = buf.len();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.push(self.kind());
        buf.extend_from_slice(&[0; 4]);
        let mut w = Writer(std::mem::take(buf));
        self.write_payload(&mut w);
        *buf = w.0;
        let Ok(len) = u32::try_from(buf.len() - start - HEADER_LEN) else {
            buf.truncate(start);
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "frame payload exceeds u32::MAX bytes",
            ));
        };
        // lint:allow(L1, reason = "the header pushed above spans start..start + HEADER_LEN, so the length field is in bounds")
        buf[start + HEADER_LEN - 4..start + HEADER_LEN].copy_from_slice(&len.to_le_bytes());
        Ok(())
    }

    fn write_payload(&self, w: &mut Writer) {
        match self {
            Response::Pong | Response::ShuttingDown => {}
            Response::Ingested { trees, patterns, total_trees, total_patterns } => {
                w.u64(*trees);
                w.u64(*patterns);
                w.u64(*total_trees);
                w.u64(*total_patterns);
            }
            Response::Estimate(v) => w.u64(v.to_bits()),
            Response::Stats(s) => {
                w.u64(s.trees_processed);
                w.u64(s.patterns_processed);
                w.u64(s.labels);
                w.u64(s.memory_bytes);
                w.u64(s.max_pattern_edges);
                w.u64(s.s1);
                w.u64(s.s2);
                w.u64(s.virtual_streams);
                w.u64(s.topk);
            }
            Response::HeavyHitters(entries) => {
                w.len(entries.len());
                for &(v, f) in entries {
                    w.u64(v);
                    w.i64(f);
                }
            }
            Response::SnapshotDone { bytes } => w.u64(*bytes),
            Response::Metrics(text) => w.str(text),
            Response::MergeDone { total_trees, total_patterns } => {
                w.u64(*total_trees);
                w.u64(*total_patterns);
            }
            Response::Subscribed { id, epoch } => {
                w.u64(*id);
                w.u64(*epoch);
            }
            Response::Unsubscribed => {}
            Response::EstimateUpdate { id, epoch, result } => {
                w.u64(*id);
                w.u64(*epoch);
                match result {
                    Ok(v) => {
                        w.u8(1);
                        w.u64(v.to_bits());
                    }
                    Err(msg) => {
                        w.u8(0);
                        w.str(msg);
                    }
                }
            }
            Response::Error(msg) => w.str(msg),
        }
    }

    /// Decodes a payload for `kind`; rejects unknown kinds and trailing
    /// bytes.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader { bytes: payload, pos: 0 };
        let resp = match kind {
            K_PONG => Response::Pong,
            K_SHUTTING_DOWN => Response::ShuttingDown,
            K_INGESTED => Response::Ingested {
                trees: r.u64()?,
                patterns: r.u64()?,
                total_trees: r.u64()?,
                total_patterns: r.u64()?,
            },
            K_ESTIMATE => Response::Estimate(f64::from_bits(r.u64()?)),
            K_STATS_REPLY => Response::Stats(Stats {
                trees_processed: r.u64()?,
                patterns_processed: r.u64()?,
                labels: r.u64()?,
                memory_bytes: r.u64()?,
                max_pattern_edges: r.u64()?,
                s1: r.u64()?,
                s2: r.u64()?,
                virtual_streams: r.u64()?,
                topk: r.u64()?,
            }),
            K_HEAVY_HITTERS_REPLY => {
                let n = r.count("heavy-hitter count", MAX_ENTRIES)?;
                let mut entries = Vec::with_capacity(widen(n.min(1 << 12)));
                for _ in 0..n {
                    entries.push((r.u64()?, r.i64()?));
                }
                Response::HeavyHitters(entries)
            }
            K_SNAPSHOT_DONE => Response::SnapshotDone { bytes: r.u64()? },
            K_METRICS_REPLY => Response::Metrics(r.str()?),
            K_MERGE_DONE => Response::MergeDone {
                total_trees: r.u64()?,
                total_patterns: r.u64()?,
            },
            K_SUBSCRIBED => Response::Subscribed { id: r.u64()?, epoch: r.u64()? },
            K_UNSUBSCRIBED => Response::Unsubscribed,
            K_ESTIMATE_UPDATE => {
                let id = r.u64()?;
                let epoch = r.u64()?;
                let result = match r.u8()? {
                    1 => Ok(f64::from_bits(r.u64()?)),
                    0 => Err(r.str()?),
                    _ => return Err(WireError::Corrupt("estimate-update flag")),
                };
                Response::EstimateUpdate { id, epoch, result }
            }
            K_ERROR => Response::Error(r.str()?),
            other => return Err(WireError::UnknownKind(other)),
        };
        r.finish()?;
        Ok(resp)
    }

    /// Writes this response as one frame.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        write_frame(w, self.kind(), &self.encode())
    }
}

/// Frame kind byte of `IngestTrees`, exposed so the server's connection
/// loop can route the hot ingest frame through [`decode_ingest_trees`]
/// without building an owned [`Request`].
pub const INGEST_TREES_KIND: u8 = K_INGEST_TREES;

/// Checks that a batch of `label_count` batch-local labels and `trees`
/// stays within the caps [`decode_ingest_trees`] enforces — 2^20 labels,
/// 2^20 trees, 2^24 nodes per tree — so its `IngestTrees` payload decodes
/// again.  The error names the field exactly as the decoder would.
pub(crate) fn check_ingest_trees(label_count: usize, trees: &[Tree]) -> Result<(), WireError> {
    let fits = |n: usize, max: u32| u32::try_from(n).is_ok_and(|n| n <= max);
    if !fits(label_count, MAX_LABELS) {
        return Err(WireError::Corrupt("label count"));
    }
    if !fits(trees.len(), MAX_TREES) {
        return Err(WireError::Corrupt("tree count"));
    }
    if !trees.iter().all(|t| fits(t.len(), MAX_NODES)) {
        return Err(WireError::Corrupt("node count"));
    }
    Ok(())
}

/// Encodes an `IngestTrees` payload from borrowed label names: the same
/// bytes [`Request::encode`] writes for [`Request::IngestTrees`].  Refuses
/// a batch past the decoder's caps (2^20 labels, 2^20 trees, 2^24 nodes
/// per tree), so every payload it returns decodes with
/// [`decode_ingest_trees`].
pub fn encode_ingest_trees<S: AsRef<str>>(labels: &[S], trees: &[Tree]) -> Result<Vec<u8>, WireError> {
    check_ingest_trees(labels.len(), trees)?;
    let mut w = Writer(Vec::new());
    write_ingest_trees(&mut w, labels, trees);
    Ok(w.0)
}

/// The one `IngestTrees` payload writer: the label table, then the trees.
fn write_ingest_trees<S: AsRef<str>>(w: &mut Writer, labels: &[S], trees: &[Tree]) {
    w.len(labels.len());
    for l in labels {
        w.str(l.as_ref());
    }
    w.len(trees.len());
    for t in trees {
        encode_tree(w, t);
    }
}

/// Zero-copy decode of an `IngestTrees` payload: label names are borrowed
/// straight out of `payload` (no per-label `String` allocation), trees are
/// built exactly as [`Request::decode`] builds them.  Enforces the same
/// bounds, UTF-8 validation and trailing-byte rejection; the two decoders
/// accept and reject byte-identical payload sets.
pub fn decode_ingest_trees(payload: &[u8]) -> Result<(Vec<&str>, Vec<Tree>), WireError> {
    let mut r = Reader { bytes: payload, pos: 0 };
    let n = r.count("label count", MAX_LABELS)?;
    let mut labels = Vec::with_capacity(widen(n.min(1 << 12)));
    for _ in 0..n {
        labels.push(r.str_ref()?);
    }
    let t = r.count("tree count", MAX_TREES)?;
    let mut trees = Vec::with_capacity(widen(t.min(1 << 12)));
    for _ in 0..t {
        trees.push(decode_tree(&mut r, n)?);
    }
    r.finish()?;
    Ok((labels, trees))
}

/// Preorder node list with explicit fanout: `node_count`, then per node
/// `label_index` + `child_count`.
fn encode_tree(w: &mut Writer, tree: &Tree) {
    w.len(tree.len());
    for id in tree.preorder() {
        w.u32(tree.label(id).0);
        w.len(tree.children(id).len());
    }
}

fn decode_tree(r: &mut Reader<'_>, label_count: u32) -> Result<Tree, WireError> {
    let n = r.count("node count", MAX_NODES)?;
    if n == 0 {
        return Err(WireError::Corrupt("empty tree"));
    }
    let mut builder = TreeBuilder::new();
    // Stack of open nodes' remaining child slots.
    let mut remaining: Vec<u32> = Vec::new();
    for i in 0..n {
        if i > 0 {
            // Pop completed subtrees until an open slot is on top.
            while remaining.last() == Some(&0) {
                builder.close().map_err(|_| WireError::Corrupt("tree shape"))?;
                remaining.pop();
            }
            match remaining.last_mut() {
                Some(slots) => *slots -= 1,
                // More nodes declared than child slots: a second root.
                None => return Err(WireError::Corrupt("tree has extra root")),
            }
        }
        let label = r.u32()?;
        if label >= label_count {
            return Err(WireError::Corrupt("label index out of range"));
        }
        let fanout = r.u32()?;
        builder
            .open(Label(label))
            .map_err(|_| WireError::Corrupt("tree shape"))?;
        remaining.push(fanout);
    }
    while let Some(slots) = remaining.pop() {
        if slots != 0 {
            return Err(WireError::Corrupt("tree fanout exceeds node count"));
        }
        builder.close().map_err(|_| WireError::Corrupt("tree shape"))?;
    }
    builder.finish().map_err(|_| WireError::Corrupt("tree shape"))
}

struct Writer(Vec<u8>);

impl Writer {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
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
    /// Encodes a length or count.  The protocol caps these at `u32::MAX`;
    /// a bigger value cannot be encoded, and truncating it with `as`
    /// would emit a wrong prefix and desynchronize the stream, so fail
    /// loudly at the encode site instead.
    fn len(&mut self, n: usize) {
        // lint:allow(L1, reason = "deliberate encode-side policy: failing loudly beats emitting a wrong length prefix and desynchronizing the stream")
        self.u32(u32::try_from(n).expect("length exceeds u32::MAX, not encodable in SKTP"));
    }
    fn str(&mut self, s: &str) {
        self.len(s.len());
        self.0.extend_from_slice(s.as_bytes());
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let out = self.bytes.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(out)
    }
    fn u8(&mut self) -> Result<u8, WireError> {
        self.take(1)?.first().copied().ok_or(WireError::Truncated)
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        let arr = <[u8; 4]>::try_from(self.take(4)?).map_err(|_| WireError::Truncated)?;
        Ok(u32::from_le_bytes(arr))
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        let arr = <[u8; 8]>::try_from(self.take(8)?).map_err(|_| WireError::Truncated)?;
        Ok(u64::from_le_bytes(arr))
    }
    fn i64(&mut self) -> Result<i64, WireError> {
        let arr = <[u8; 8]>::try_from(self.take(8)?).map_err(|_| WireError::Truncated)?;
        Ok(i64::from_le_bytes(arr))
    }
    fn count(&mut self, what: &'static str, max: u32) -> Result<u32, WireError> {
        let v = self.u32()?;
        if v > max {
            return Err(WireError::Corrupt(what));
        }
        Ok(v)
    }
    /// Borrows a length-prefixed UTF-8 string straight out of the payload
    /// buffer — the zero-copy primitive behind [`decode_ingest_trees`].
    fn str_ref(&mut self) -> Result<&'a str, WireError> {
        let len = widen(self.u32()?);
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| WireError::Corrupt("invalid utf-8 string"))
    }
    fn str(&mut self) -> Result<String, WireError> {
        self.str_ref().map(str::to_owned)
    }
    fn finish(&self) -> Result<(), WireError> {
        if self.pos != self.bytes.len() {
            return Err(WireError::Corrupt("trailing payload bytes"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip_req(req: Request) {
        let mut buf = Vec::new();
        req.write_to(&mut buf).unwrap();
        let frame = read_frame(&mut Cursor::new(&buf), DEFAULT_MAX_FRAME).unwrap();
        let Frame::Msg { kind, payload } = frame else {
            panic!("expected a frame")
        };
        assert_eq!(Request::decode(kind, &payload).unwrap(), req);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_req(Request::Ping);
        roundtrip_req(Request::IngestXml(vec!["<a/>".into(), "<b><c/></b>".into()]));
        let tree = Tree::node(Label(0), vec![Tree::leaf(Label(1)), Tree::leaf(Label(0))]);
        roundtrip_req(Request::IngestTrees {
            labels: vec!["article".into(), "author".into()],
            trees: vec![tree, Tree::leaf(Label(1))],
        });
        roundtrip_req(Request::Count { unordered: true, pattern: "A(B,C)".into() });
        roundtrip_req(Request::Expr("COUNT_ord(A(B)) - COUNT(C)".into()));
        roundtrip_req(Request::Stats);
        roundtrip_req(Request::HeavyHitters { limit: 17 });
        roundtrip_req(Request::Snapshot);
        roundtrip_req(Request::Shutdown);
        roundtrip_req(Request::Metrics { json: false });
        roundtrip_req(Request::Metrics { json: true });
        roundtrip_req(Request::MergeSnapshot(vec![0x53, 0x4B, 0x54, 0x52, 0, 1, 2, 3]));
        roundtrip_req(Request::MergeSnapshot(Vec::new()));
        roundtrip_req(Request::Subscribe {
            mode: SubscribeMode::Ordered,
            query: "article(author)".into(),
        });
        roundtrip_req(Request::Subscribe {
            mode: SubscribeMode::Unordered,
            query: "A(B,C)".into(),
        });
        roundtrip_req(Request::Subscribe {
            mode: SubscribeMode::Expr,
            query: "COUNT_ord(A(B)) - COUNT(C)".into(),
        });
        roundtrip_req(Request::Unsubscribe { id: u64::MAX });
    }

    #[test]
    fn subscribe_mode_is_strict() {
        let mut w = Writer(Vec::new());
        w.u8(3);
        w.str("A(B)");
        assert!(matches!(
            Request::decode(K_SUBSCRIBE, &w.0),
            Err(WireError::Corrupt("subscribe mode"))
        ));
    }

    #[test]
    fn estimate_update_flag_is_strict() {
        let mut w = Writer(Vec::new());
        w.u64(1);
        w.u64(2);
        w.u8(9);
        assert!(matches!(
            Response::decode(K_ESTIMATE_UPDATE, &w.0),
            Err(WireError::Corrupt("estimate-update flag"))
        ));
    }

    #[test]
    fn merge_snapshot_length_prefix_is_strict() {
        // Prefix longer than the remaining bytes → truncated.
        let mut w = Writer(Vec::new());
        w.u32(10);
        w.0.extend_from_slice(&[1, 2, 3]);
        assert!(matches!(
            Request::decode(K_MERGE_SNAPSHOT, &w.0),
            Err(WireError::Truncated)
        ));
        // Prefix shorter than the payload → trailing bytes.
        let mut w = Writer(Vec::new());
        w.u32(1);
        w.0.extend_from_slice(&[1, 2, 3]);
        assert!(matches!(
            Request::decode(K_MERGE_SNAPSHOT, &w.0),
            Err(WireError::Corrupt("trailing payload bytes"))
        ));
    }

    #[test]
    fn metrics_json_flag_is_strict() {
        let payload = vec![2u8];
        assert!(matches!(
            Request::decode(K_METRICS, &payload),
            Err(WireError::Corrupt("json flag"))
        ));
    }

    #[test]
    fn kind_names_cover_every_assigned_kind() {
        for k in [
            K_PING, K_INGEST_XML, K_INGEST_TREES, K_COUNT, K_EXPR, K_STATS, K_HEAVY, K_SNAPSHOT,
            K_SHUTDOWN, K_METRICS, K_MERGE_SNAPSHOT, K_SUBSCRIBE, K_UNSUBSCRIBE, K_PONG,
            K_INGESTED, K_ESTIMATE, K_STATS_REPLY, K_HEAVY_HITTERS_REPLY, K_SNAPSHOT_DONE,
            K_SHUTTING_DOWN, K_METRICS_REPLY, K_MERGE_DONE, K_SUBSCRIBED, K_UNSUBSCRIBED,
            K_ESTIMATE_UPDATE, K_ERROR,
        ] {
            assert_ne!(kind_name(k), "other", "kind 0x{k:02x} unnamed");
        }
        assert_eq!(kind_name(0x42), "other");
        // Request-kind table agrees with the request encoder.
        for &k in REQUEST_KINDS {
            assert_ne!(kind_name(k), "other");
        }
        assert!(REQUEST_KINDS.contains(&Request::Metrics { json: false }.kind()));
    }

    #[test]
    fn response_roundtrips() {
        for resp in [
            Response::Pong,
            Response::Ingested { trees: 3, patterns: 40, total_trees: 100, total_patterns: 900 },
            Response::Estimate(123.456),
            Response::Estimate(f64::NEG_INFINITY),
            Response::Stats(Stats {
                trees_processed: 1,
                patterns_processed: 2,
                labels: 3,
                memory_bytes: 4,
                max_pattern_edges: 5,
                s1: 6,
                s2: 7,
                virtual_streams: 8,
                topk: 9,
            }),
            Response::HeavyHitters(vec![(10, -5), (u64::MAX, i64::MIN)]),
            Response::SnapshotDone { bytes: 4096 },
            Response::ShuttingDown,
            Response::Metrics("# HELP x y\nx 1\n".into()),
            Response::MergeDone { total_trees: 42, total_patterns: 777 },
            Response::Subscribed { id: 7, epoch: 99 },
            Response::Unsubscribed,
            Response::EstimateUpdate { id: 7, epoch: 100, result: Ok(123.456) },
            Response::EstimateUpdate { id: 8, epoch: 100, result: Ok(-0.0) },
            Response::EstimateUpdate {
                id: 9,
                epoch: 101,
                result: Err("query expands to more than 4096 concrete patterns".into()),
            },
            Response::Error("nope".into()),
        ] {
            let mut buf = Vec::new();
            resp.write_to(&mut buf).unwrap();
            let Frame::Msg { kind, payload } =
                read_frame(&mut Cursor::new(&buf), DEFAULT_MAX_FRAME).unwrap()
            else {
                panic!("expected a frame")
            };
            assert_eq!(Response::decode(kind, &payload).unwrap(), resp);
            // The in-place frame encoder appends exactly the same bytes
            // and leaves what the buffer already held untouched.
            let mut appended = vec![0xAA];
            resp.encode_frame_into(&mut appended).unwrap();
            assert_eq!(appended[0], 0xAA);
            assert_eq!(appended[1..], frame_bytes(resp.kind(), &resp.encode()).unwrap()[..]);
        }
    }

    #[test]
    fn an_encoded_epoch_is_the_concatenation_of_standalone_update_frames() {
        // The pusher encodes one connection's epoch into one buffer; each
        // update must stay its own 0x8C frame, byte for byte what a
        // per-update `frame_bytes` write would have sent.
        let updates = [
            Response::EstimateUpdate { id: 3, epoch: 41, result: Ok(17.25) },
            Response::EstimateUpdate { id: 5, epoch: 41, result: Ok(-0.0) },
            Response::EstimateUpdate { id: 9, epoch: 41, result: Err("expands too far".into()) },
        ];
        let mut buf = Vec::new();
        let mut want = Vec::new();
        for u in &updates {
            u.encode_frame_into(&mut buf).unwrap();
            want.extend(frame_bytes(K_ESTIMATE_UPDATE, &u.encode()).unwrap());
        }
        assert_eq!(buf, want);
        let mut r = Cursor::new(&buf);
        for u in &updates {
            let Frame::Msg { kind, payload } = read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap() else {
                panic!("expected a frame")
            };
            assert_eq!(kind, 0x8C);
            assert_eq!(&Response::decode(kind, &payload).unwrap(), u);
        }
        assert!(matches!(read_frame(&mut r, DEFAULT_MAX_FRAME), Ok(Frame::Eof)));
    }

    #[test]
    fn eof_and_bad_magic() {
        assert!(matches!(
            read_frame(&mut Cursor::new(b""), 1024),
            Ok(Frame::Eof)
        ));
        assert!(matches!(
            read_frame(&mut Cursor::new(b"NOPE_________"), 1024),
            Err(WireError::BadMagic)
        ));
    }

    #[test]
    fn version_and_size_guards() {
        let mut buf = Vec::new();
        Request::Ping.write_to(&mut buf).unwrap();
        let mut wrong_version = buf.clone();
        wrong_version[4] = 9;
        assert!(matches!(
            read_frame(&mut Cursor::new(&wrong_version), 1024),
            Err(WireError::UnsupportedVersion(9))
        ));
        let mut huge = buf.clone();
        huge[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut Cursor::new(&huge), 1024),
            Err(WireError::Oversize { .. })
        ));
    }

    #[test]
    fn truncated_frames_are_truncated() {
        let mut buf = Vec::new();
        Request::Expr("COUNT_ord(A(B))".into()).write_to(&mut buf).unwrap();
        for cut in 1..buf.len() {
            match read_frame(&mut Cursor::new(&buf[..cut]), 1024) {
                Err(WireError::Truncated) => {}
                other => panic!("cut {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_trees_rejected() {
        // Extra root: two nodes, first declares no children.
        let mut w = Writer(Vec::new());
        w.u32(1); // one label
        w.str("a");
        w.u32(1); // one tree
        w.u32(2); // two nodes
        w.u32(0);
        w.u32(0); // root, fanout 0
        w.u32(0);
        w.u32(0); // orphan
        assert!(matches!(
            Request::decode(K_INGEST_TREES, &w.0),
            Err(WireError::Corrupt("tree has extra root"))
        ));
        // Fanout overruns node count.
        let mut w = Writer(Vec::new());
        w.u32(1);
        w.str("a");
        w.u32(1);
        w.u32(1); // one node
        w.u32(0);
        w.u32(3); // claims 3 children
        assert!(matches!(
            Request::decode(K_INGEST_TREES, &w.0),
            Err(WireError::Corrupt("tree fanout exceeds node count"))
        ));
        // Label out of range.
        let mut w = Writer(Vec::new());
        w.u32(1);
        w.str("a");
        w.u32(1);
        w.u32(1);
        w.u32(7); // only label 0 exists
        w.u32(0);
        assert!(matches!(
            Request::decode(K_INGEST_TREES, &w.0),
            Err(WireError::Corrupt("label index out of range"))
        ));
    }

    #[test]
    fn zero_copy_ingest_decode_matches_request_decode() {
        let tree = Tree::node(Label(0), vec![Tree::leaf(Label(1)), Tree::leaf(Label(0))]);
        let req = Request::IngestTrees {
            labels: vec!["article".into(), "author".into()],
            trees: vec![tree, Tree::leaf(Label(1))],
        };
        let payload = req.encode();
        let (labels, trees) = decode_ingest_trees(&payload).unwrap();
        let Request::IngestTrees { labels: want_labels, trees: want_trees } =
            Request::decode(K_INGEST_TREES, &payload).unwrap()
        else {
            panic!("expected IngestTrees")
        };
        assert_eq!(labels, want_labels.iter().map(String::as_str).collect::<Vec<_>>());
        assert_eq!(trees, want_trees);
        // Both decoders reject the same malformed payloads the same way:
        // truncation anywhere, trailing bytes, bad UTF-8.
        for cut in 0..payload.len() {
            let borrowed = decode_ingest_trees(&payload[..cut]).err();
            let owned = Request::decode(K_INGEST_TREES, &payload[..cut]).err();
            assert_eq!(
                borrowed.map(|e| e.to_string()),
                owned.map(|e| e.to_string()),
                "cut {cut}"
            );
        }
        let mut trailing = payload.clone();
        trailing.push(0);
        assert!(matches!(
            decode_ingest_trees(&trailing),
            Err(WireError::Corrupt("trailing payload bytes"))
        ));
        let mut w = Writer(Vec::new());
        w.u32(1);
        w.u32(2);
        w.0.extend_from_slice(&[0xFF, 0xFE]); // invalid UTF-8 label
        assert!(matches!(
            decode_ingest_trees(&w.0),
            Err(WireError::Corrupt("invalid utf-8 string"))
        ));
        assert_eq!(INGEST_TREES_KIND, req.kind());
    }

    #[test]
    fn ingest_trees_payload_roundtrips_shapes() {
        // Nested and repeated labels, an empty label name, a single-node
        // tree: the borrowed-label encoder writes the bytes
        // `Request::encode` writes, and the decoder returns the batch.
        let labels = ["article", "title", "author", ""];
        let leaf = |l: u32| Tree::leaf(Label(l));
        let trees = vec![
            Tree::node(
                Label(0),
                vec![leaf(1), Tree::node(Label(2), vec![leaf(3), leaf(1)]), leaf(2)],
            ),
            leaf(3),
        ];
        let payload = encode_ingest_trees(&labels, &trees).unwrap();
        let req = Request::IngestTrees {
            labels: labels.iter().map(|l| l.to_string()).collect(),
            trees: trees.clone(),
        };
        assert_eq!(payload, req.encode());
        let (got_labels, got_trees) = decode_ingest_trees(&payload).unwrap();
        assert_eq!(got_labels, labels);
        assert_eq!(got_trees, trees);
        for (a, b) in trees.iter().zip(&got_trees) {
            assert_eq!(a.to_sexpr(), b.to_sexpr());
        }
    }

    #[test]
    fn ingest_trees_payload_rejects_malformed_input() {
        let labels = ["a", "b", "c", "d"];
        let trees = vec![Tree::node(Label(0), vec![Tree::leaf(Label(3))]), Tree::leaf(Label(1))];
        let good = encode_ingest_trees(&labels, &trees).unwrap();
        assert!(decode_ingest_trees(&good).is_ok());
        for cut in 0..good.len() {
            assert!(decode_ingest_trees(&good[..cut]).is_err(), "cut at {cut}");
        }
        // The encoder does not look at label indices; the decoder refuses
        // one outside the batch table.
        let bad = encode_ingest_trees(&["a"], &[Tree::leaf(Label(5))]).unwrap();
        assert!(matches!(
            decode_ingest_trees(&bad),
            Err(WireError::Corrupt("label index out of range"))
        ));
        // A hostile count is refused before anything is allocated.
        assert!(matches!(
            decode_ingest_trees(&u32::MAX.to_le_bytes()),
            Err(WireError::Corrupt("label count"))
        ));
    }

    #[test]
    fn the_ingest_caps_refuse_what_the_decoder_refuses() {
        let one = [Tree::leaf(Label(0))];
        assert!(check_ingest_trees(widen(MAX_LABELS), &one).is_ok());
        assert!(matches!(
            check_ingest_trees(widen(MAX_LABELS) + 1, &one),
            Err(WireError::Corrupt("label count"))
        ));
        // The decoder refuses the same count from the payload's prefix.
        let mut w = Writer(Vec::new());
        w.u32(MAX_LABELS + 1);
        assert!(matches!(
            decode_ingest_trees(&w.0),
            Err(WireError::Corrupt("label count"))
        ));
        assert!(matches!(
            encode_ingest_trees(&vec![""; widen(MAX_LABELS) + 1], &one),
            Err(WireError::Corrupt("label count"))
        ));
    }

    #[test]
    fn trailing_payload_rejected() {
        let mut payload = Request::HeavyHitters { limit: 3 }.encode();
        payload.push(0);
        assert!(matches!(
            Request::decode(K_HEAVY, &payload),
            Err(WireError::Corrupt("trailing payload bytes"))
        ));
    }
}
