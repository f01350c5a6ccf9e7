//! SketchTree — approximate tree-pattern counts over streaming labeled trees.
//!
//! This crate is the paper's primary contribution (Rao & Moon, ICDE 2006)
//! assembled from the substrate crates:
//!
//! * [`enumtree`] — the EnumTree algorithm (paper Algorithm 3): enumerate
//!   every ordered tree pattern with 1..k edges of a data tree, with
//!   memoization;
//! * [`mapping`] — pattern → extended Prüfer sequence → one-dimensional
//!   value, via Rabin fingerprints (Section 6.1, the experimental default)
//!   or the exact arbitrary-precision pairing function (Section 2.2);
//! * [`exact`] — the deterministic one-counter-per-pattern baseline the
//!   paper argues is infeasible at scale; doubles as ground truth for
//!   error measurement;
//! * [`markov`] — the classic Markov-table path-selectivity baseline
//!   (related-work comparator for the `repro paths` ablation);
//! * [`large`] — heuristic estimation of patterns *larger than k* by
//!   chain-rule decomposition (the paper's named future-work item);
//! * [`exprparse`] — text syntax for `+ − ×` count expressions
//!   (`COUNT_ord(A(B)) * COUNT(C) - …`, Section 4);
//! * [`query`] — a small text syntax for tree patterns
//!   (`A(B, C(D))`, `*`, `//`) with label resolution;
//! * [`unordered`] — expansion of an unordered pattern into all its
//!   distinct ordered arrangements (Section 3.3);
//! * [`summary`] — the online structural summary that rewrites `*` and `//`
//!   queries into sets of parent-child patterns (Section 6.2);
//! * [`sketchtree`] — [`sketchtree::SketchTree`], the full streaming
//!   synopsis: Algorithm 1 ingest, Algorithm 2 estimation, unordered
//!   counts, set counts, and `+ − ×` query expressions;
//! * [`bounds`] — Theorem 1 error profiles attached to estimates;
//! * [`concurrent`] — [`concurrent::SharedSketchTree`], a thread-safe
//!   handle for multi-reader / writer deployments;
//! * [`snapshot`] — versioned binary persistence of a synopsis across
//!   restarts;
//! * [`window`] — [`window::WindowedSketchTree`], exact sliding-window
//!   counting over the last W trees (an extension enabled by AMS deletion).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod bounds;
pub mod concurrent;
pub mod enumtree;
pub mod exact;
pub mod exprparse;
pub mod mapping;
pub mod metrics;
pub mod large;
pub mod markov;
pub mod query;
pub mod sketchtree;
pub mod snapshot;
pub mod summary;
pub mod unordered;
pub mod window;

pub use bounds::BoundedEstimate;
pub use concurrent::SharedSketchTree;
pub use enumtree::{count_patterns, enumerate_patterns, EnumArena};
pub use exact::ExactCounter;
pub use exprparse::parse_expr;
pub use mapping::Mapper;
pub use metrics::{CoreMetrics, SketchHealth};
pub use large::decompose as decompose_pattern;
pub use markov::MarkovPathTable;
pub use query::{parse_pattern, QueryError, QueryPattern};
pub use sketchtree::{CompiledQuery, EnumScratch, PlanDependency, SketchTree, SketchTreeConfig};
pub use summary::StructuralSummary;
pub use window::WindowedSketchTree;
