//! Instrumentation hooks for the ingest/query pipeline.
//!
//! [`CoreMetrics`] bundles the handles a [`crate::SketchTree`] updates when
//! one is attached via [`crate::SketchTree::attach_metrics`]: per-stage
//! latency histograms (fused ingest, enumeration-only, sketch-insert-only),
//! ingest throughput counters, and per-kind query counters/latencies.  All
//! handles are pre-registered `Arc`s from `sketchtree-metrics`, so the hot
//! path pays one relaxed atomic RMW per event and never takes a lock.
//!
//! [`SketchHealth`] is the scrape-time snapshot of the synopsis' internal
//! state — counter fill, top-k occupancy, virtual-stream partition balance
//! and the estimator-variance proxy — that the server's `/metrics` endpoint
//! turns into gauges.  See `docs/observability.md` for how each field maps
//! onto the paper's Theorem 1/2 error bounds.

use sketchtree_metrics::{Counter, Histogram, Registry};
use std::sync::Arc;

/// Pre-registered metric handles for the core pipeline.
///
/// Construct with [`CoreMetrics::register`] against the registry whose
/// exposition should carry these series, then attach to a synopsis with
/// [`crate::SketchTree::attach_metrics`].  A `SketchTree` without attached
/// metrics (the default) skips every instrumentation branch.
#[derive(Debug)]
pub struct CoreMetrics {
    /// Trees ingested (`sketchtree_ingest_trees_total`).
    pub ingest_trees: Arc<Counter>,
    /// Pattern instances inserted into the sketch
    /// (`sketchtree_ingest_patterns_total`).
    pub ingest_patterns: Arc<Counter>,
    /// Wall-clock seconds per fused [`crate::SketchTree::ingest`] call —
    /// enumeration, Prüfer encoding, fingerprint mapping and sketch update
    /// in one measurement (`sketchtree_ingest_seconds`).
    pub ingest_seconds: Arc<Histogram>,
    /// Seconds per [`crate::SketchTree::enumerate_values_into`] call —
    /// the read-only enumerate/encode/map half of Algorithm 1 for one
    /// tree (`sketchtree_enumerate_seconds`).
    pub enumerate_seconds: Arc<Histogram>,
    /// Seconds per [`crate::SketchTree::apply`] call — the sketch-update
    /// half (`sketchtree_sketch_insert_seconds`).
    pub insert_seconds: Arc<Histogram>,
    /// Ordered-count queries (`sketchtree_query_total{kind="ordered"}`).
    pub query_ordered: Arc<Counter>,
    /// Unordered-count queries (`sketchtree_query_total{kind="unordered"}`).
    pub query_unordered: Arc<Counter>,
    /// Expression evaluations (`sketchtree_query_total{kind="expr"}`).
    pub query_expr: Arc<Counter>,
    /// Ordered-query latency (`sketchtree_query_seconds{kind="ordered"}`).
    pub query_ordered_seconds: Arc<Histogram>,
    /// Unordered-query latency — includes the arrangement fan-out
    /// (`sketchtree_query_seconds{kind="unordered"}`).
    pub query_unordered_seconds: Arc<Histogram>,
    /// Expression-evaluation latency
    /// (`sketchtree_query_seconds{kind="expr"}`).
    pub query_expr_seconds: Arc<Histogram>,
    /// Queries that returned an error (`sketchtree_query_errors_total`).
    pub query_errors: Arc<Counter>,
    /// Distinct mapped atoms evaluated across all queries — the Theorem 2
    /// fan-out width (`sketchtree_query_atoms_total`).
    pub query_atoms: Arc<Counter>,
}

impl CoreMetrics {
    /// Registers every core-pipeline series in `registry` and returns the
    /// handle bundle.
    pub fn register(registry: &Registry) -> Arc<Self> {
        let query_total = |kind: &str| {
            registry.counter_with(
                "sketchtree_query_total",
                "Pattern-count queries answered, by query kind",
                &[("kind", kind)],
            )
        };
        let query_seconds = |kind: &str| {
            registry.histogram_with(
                "sketchtree_query_seconds",
                "Query latency in seconds, by query kind",
                &[("kind", kind)],
            )
        };
        Arc::new(Self {
            ingest_trees: registry.counter(
                "sketchtree_ingest_trees_total",
                "Data trees ingested into the synopsis",
            ),
            ingest_patterns: registry.counter(
                "sketchtree_ingest_patterns_total",
                "Pattern instances inserted into the sketch (mapped-stream length)",
            ),
            ingest_seconds: registry.histogram(
                "sketchtree_ingest_seconds",
                "Seconds per fused ingest (enumerate + encode + map + sketch update)",
            ),
            enumerate_seconds: registry.histogram(
                "sketchtree_enumerate_seconds",
                "Seconds per tree enumeration (read-only half of Algorithm 1)",
            ),
            insert_seconds: registry.histogram(
                "sketchtree_sketch_insert_seconds",
                "Seconds per apply of enumerated values to the sketch (write half of Algorithm 1)",
            ),
            query_ordered: query_total("ordered"),
            query_unordered: query_total("unordered"),
            query_expr: query_total("expr"),
            query_ordered_seconds: query_seconds("ordered"),
            query_unordered_seconds: query_seconds("unordered"),
            query_expr_seconds: query_seconds("expr"),
            query_errors: registry.counter(
                "sketchtree_query_errors_total",
                "Queries that returned an error (parse, expansion, estimator)",
            ),
            query_atoms: registry.counter(
                "sketchtree_query_atoms_total",
                "Distinct mapped atoms evaluated across all queries (Theorem 2 fan-out)",
            ),
        })
    }
}

/// A scrape-time snapshot of synopsis health.
///
/// Produced by [`crate::SketchTree::sketch_health`]; every field is cheap to
/// compute relative to a scrape (the group-mean pass is `O(s1·s2·p)` over
/// in-memory counters).  The observability handbook explains how to read
/// these against the paper's error bounds: the residual self-join drives the
/// Theorem 1 standard error, and the estimator spread is an empirical proxy
/// for the variance the `s2`-way median is suppressing.
#[derive(Debug, Clone, PartialEq)]
pub struct SketchHealth {
    /// Sketch counters with a nonzero value.
    pub counters_nonzero: u64,
    /// Total sketch counters (`virtual_streams × s1 × s2`).
    pub counters_total: u64,
    /// Values currently tracked by the top-k heavy-hitter strategy.
    pub topk_tracked: u64,
    /// Total top-k slots (`virtual_streams × k`).
    pub topk_capacity: u64,
    /// Inserts routed to each virtual-stream partition since startup
    /// (monitoring counts — reset on restore).
    pub partition_inserts: Vec<u64>,
    /// Sign-cache lookups since startup — one per value inserted, except
    /// Filter-mode hits, which skip the sketches (monitoring count —
    /// resets on restore).
    pub sign_cache_lookups: u64,
    /// Sign-cache misses since startup: each one ran the ξ row kernel over
    /// all `s1·s2` families (monitoring count — resets on restore).
    pub sign_cache_misses: u64,
    /// Filter-mode hits since startup: occurrences of tracked values
    /// counted in the top-k heap without touching the sketches
    /// (monitoring count — resets on restore).
    pub topk_filter_hits: u64,
    /// Filter-mode re-estimates since startup: occurrences of tracked
    /// values sent through Algorithm 4 because their tracked frequency
    /// reached a multiple of the re-estimate period (monitoring count —
    /// resets on restore).
    pub topk_reestimates: u64,
    /// Pattern values processed by the synopsis since its state began.
    pub values_processed: u64,
    /// Estimated residual self-join size `SJ(S)` of the sketched stream —
    /// the quantity inside the Theorem 1 error bound.
    pub residual_self_join: f64,
    /// Relative spread of the `s2` independent group-mean estimates of
    /// `SJ(S)` — an empirical proxy for estimator variance.
    pub estimator_spread: f64,
    /// Synopsis memory in bytes (counters + seeds + top-k + summary).
    pub memory_bytes: u64,
    /// Trees ingested.
    pub trees_processed: u64,
    /// Pattern instances processed.
    pub patterns_processed: u64,
    /// Distinct labels interned.
    pub labels: u64,
}

/// Relative spread `(max − min) / max(|median|, 1)` of a set of estimates.
///
/// Used as the estimator-variance proxy: the `s2` group means are
/// independent estimates of the same quantity, so a wide spread means the
/// median-of-means boosting is working hard and individual estimates are
/// noisy.  The `max(·, 1)` floor keeps the ratio meaningful when the
/// median is near zero (e.g. an empty synopsis).
pub fn relative_spread(estimates: &[f64]) -> f64 {
    let mut sorted: Vec<f64> = estimates.iter().copied().filter(|v| v.is_finite()).collect();
    if sorted.is_empty() {
        return 0.0;
    }
    sorted.sort_by(f64::total_cmp);
    let min = sorted.first().copied().unwrap_or(0.0);
    let max = sorted.last().copied().unwrap_or(0.0);
    let median = sorted.get(sorted.len() / 2).copied().unwrap_or(0.0);
    (max - min) / median.abs().max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn register_creates_all_series() {
        let reg = Registry::new();
        let m = CoreMetrics::register(&reg);
        m.ingest_trees.inc();
        m.query_ordered.inc();
        m.query_ordered_seconds.observe_duration(Duration::from_millis(1));
        let text = reg.render_text();
        assert!(text.contains("sketchtree_ingest_trees_total 1"));
        assert!(text.contains("sketchtree_query_total{kind=\"ordered\"} 1"));
        assert!(text.contains("sketchtree_query_seconds_count{kind=\"ordered\"} 1"));
        // All three kinds share one family (HELP/TYPE appear once).
        assert_eq!(text.matches("# TYPE sketchtree_query_total").count(), 1);
    }

    #[test]
    fn relative_spread_behaves() {
        assert_eq!(relative_spread(&[]), 0.0);
        assert_eq!(relative_spread(&[5.0]), 0.0);
        // Median 10, spread (12-8)/10 = 0.4.
        assert!((relative_spread(&[8.0, 10.0, 12.0]) - 0.4).abs() < 1e-12);
        // Near-zero median: floored denominator.
        assert_eq!(relative_spread(&[0.0, 0.5]), 0.5);
        // Non-finite estimates are ignored.
        assert!((relative_spread(&[8.0, f64::NAN, 10.0, 12.0]) - 0.4).abs() < 1e-12);
    }
}
