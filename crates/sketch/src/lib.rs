//! Sketch machinery for SketchTree.
//!
//! Everything between "a stream of one-dimensional values" and "an
//! approximate count with provable error bounds" lives here, implemented
//! from scratch on top of `sketchtree-hash`:
//!
//! * [`bank`] — [`bank::SketchBank`], the boosted `s1 × s2` array of
//!   tug-of-war counters `X = Σ f_i ξ_i` (Alon, Matias & Szegedy; paper
//!   Section 3) with insert/delete symmetry, the ξ sign rows every
//!   estimator reads, and the mean-of-s1 / median-of-s2 boosting of
//!   Theorem 1;
//! * [`expr`] — the `+ − ×` query-expression AST and its expansion into
//!   estimator terms;
//! * [`plan`] — [`plan::QueryPlan`], a count, set or expression query
//!   compiled once into ξ rows so every later evaluation is a walk over
//!   the counters of the banks it touches;
//! * [`heap`] — an indexed min-heap supporting decrease/removal by key
//!   (the `H` of Algorithm 4);
//! * [`topk`] — [`topk::TopKTracker`], the top-k frequent-value strategy of
//!   Section 5.2 (Algorithm 4) that deletes heavy hitters from the sketches
//!   to shrink the residual self-join size;
//! * [`virtual_streams`] — [`virtual_streams::StreamSynopsis`], the complete
//!   synopsis combining virtual streams (Section 5.3), per-stream top-k
//!   tracking and shared-seed sketch banks behind one insert/estimate API;
//! * [`xislab`] — [`xislab::XiSlab`], the packed ξ-coefficient table every
//!   bank of a synopsis shares (one allocation, fixed stride — the ingest
//!   hot path's memory layout).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod bank;
pub mod expr;
pub mod heap;
pub mod plan;
pub mod topk;
pub mod virtual_streams;
pub mod xislab;

pub use bank::{SketchBank, SketchView};
pub use expr::{Expr, ExprError};
pub use plan::QueryPlan;
pub use topk::TopKTracker;
pub use virtual_streams::{StreamSynopsis, SynopsisConfig, SynopsisState, TopKMode};
pub use xislab::{XiSlab, INDEPENDENCE_RANGE};
