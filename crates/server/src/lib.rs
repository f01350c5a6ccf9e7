//! Network service for SketchTree: streaming ingest and online queries.
//!
//! The paper's synopsis is an in-process data structure; this crate turns
//! it into a long-running daemon so producers can stream labeled trees
//! from other processes and analysts can query counts while the stream is
//! still flowing.  Three layers:
//!
//! - [`wire`] — the `SKTP` framed binary protocol (versioned,
//!   length-prefixed, little-endian; same hand-rolled style as the
//!   snapshot format — no serialization dependencies).
//! - [`server`] — a threaded TCP daemon over `std::net`: an accept loop
//!   feeding a bounded worker pool, ingest that parses outside the
//!   synopsis lock and enumerates under its shared side, periodic
//!   checkpointing through the snapshot layer, and snapshot-on-shutdown /
//!   restore-on-start.
//! - [`durability`] — crash safety: a write-ahead batch log
//!   (log-before-ack, group-commit fsync) plus the recover-on-start
//!   state machine that restores the checkpoint and replays the log
//!   tail, so a crash loses nothing durably acked (see `DESIGN.md` §10).
//! - [`client`] — a blocking client with reconnect-on-error and capped
//!   exponential backoff.
//! - [`subs`] — standing-query subscription dispatch: a per-server table
//!   bridging the transport-agnostic
//!   [`sketchtree_standing::QueryRegistry`] to per-connection bounded
//!   push queues, broadcast once per ingest batch or merge, after its
//!   ack (with slow-subscriber eviction so a stalled reader can never
//!   wedge ingest).
//! - [`metrics`] — server instrumentation: per-opcode latency histograms,
//!   connection/byte counters, checkpoint timings, and scrape-time
//!   sketch-health gauges.  Exposed over the SKTP `Metrics` opcode and,
//!   when [`ServerConfig::metrics_addr`] is set, an HTTP `/metrics` +
//!   `/healthz` endpoint (see `docs/observability.md`).
//!
//! No async runtime: connection counts here are small (a few producers, a
//! few analysts), so a thread per in-flight connection beats dragging in
//! an executor.  Concurrency control stays where the library put it —
//! [`sketchtree_core::concurrent::SharedSketchTree`] — so queries run
//! under the shared lock and never block each other.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod client;
pub mod durability;
mod http;
pub mod metrics;
pub mod server;
pub mod subs;
pub mod wire;

pub use client::{Client, ClientError, Update};
pub use durability::{RecoveryReport, WalConfig};
pub use metrics::ServerMetrics;
pub use server::{Server, ServerConfig};
pub use subs::Subscriptions;
pub use wire::SubscribeMode;
