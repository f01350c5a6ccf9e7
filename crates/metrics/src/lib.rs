//! Instrumentation primitives for the SketchTree stack.
//!
//! A production synopsis is only trustworthy when its behaviour is
//! observable online: Theorems 1 and 2 tie every estimate's error to
//! quantities (residual self-join size, sketch occupancy, top-k fill)
//! that drift as the stream flows, and an operator needs to watch them
//! without attaching a debugger.  This crate provides the measurement
//! substrate the rest of the workspace threads through its hot paths:
//!
//! * [`Counter`] — a monotone `u64` (relaxed atomic increments);
//! * [`Gauge`] — a settable `f64` (atomic bit-store, CAS add/sub);
//! * [`Histogram`] — a log-linear duration histogram (64 sub-buckets
//!   per octave, ≤ 1/64 relative error) with real tail quantiles,
//!   lock-free on the observation path and exposed in the Prometheus
//!   style (cumulative `le` buckets at powers of two of nanoseconds,
//!   sum, count);
//! * [`Registry`] — a named collection of the above, with optional
//!   fixed label sets per series, rendered as Prometheus text
//!   exposition ([`Registry::render_text`]) or JSON
//!   ([`Registry::render_json`]).
//!
//! Design constraints, in priority order:
//!
//! 1. **Std-only.**  The workspace builds offline; no external crates.
//! 2. **Lock-light.**  Recording a measurement (`inc`,
//!    `observe_duration`, `set`) never takes a lock — only relaxed/CAS
//!    atomics — so instrumentation is safe inside the sketch-update and
//!    connection-serving hot paths.  The registry's mutex guards only
//!    registration (startup) and rendering (scrape time).
//! 3. **No global state.**  A [`Registry`] is an ordinary value; tests
//!    build as many as they like and nothing leaks between them.
//!
//! Handles are `Arc`-shared: registering a metric returns an
//! `Arc<Counter>` (etc.) that the instrumented code stores, while the
//! registry keeps a clone for rendering.  Dropping the registry does not
//! invalidate handles, and recording to a handle after the registry is
//! gone is harmless.
//!
//! ```
//! use sketchtree_metrics::Registry;
//! use std::time::Duration;
//!
//! let registry = Registry::new();
//! let trees = registry.counter("ingest_trees_total", "Trees ingested");
//! let latency = registry.histogram("ingest_seconds", "Per-tree ingest latency");
//!
//! trees.inc();
//! latency.observe_duration(Duration::from_micros(250));
//!
//! let text = registry.render_text();
//! assert!(text.contains("ingest_trees_total 1"));
//! assert!(text.contains("ingest_seconds_count 1"));
//! assert_eq!(latency.quantile(0.99), Some(Duration::from_micros(250)));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

mod counter;
mod histogram;
mod registry;

pub use counter::{Counter, Gauge};
pub use histogram::{Histogram, HistogramSnapshot};
pub use registry::Registry;
