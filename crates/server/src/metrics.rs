//! Server-side instrumentation: request/connection/checkpoint metrics and
//! scrape-time sketch-health gauges.
//!
//! One [`ServerMetrics`] lives for the server's lifetime and owns the
//! [`Registry`] every series is registered in, including the core-pipeline
//! handles ([`CoreMetrics`]) that get attached to the shared synopsis at
//! startup.  Worker threads touch only pre-registered atomic handles; the
//! registry's internal lock is taken exclusively at render (scrape) time.
//!
//! Sketch-health gauges are *pull-model*: nothing updates them during
//! ingest.  [`ServerMetrics::refresh_health`] recomputes them from a
//! [`SketchHealth`](sketchtree_core::metrics::SketchHealth) snapshot
//! taken under one shared read lock, and the
//! render paths (SKTP `Metrics` opcode, HTTP `/metrics`) call it before
//! rendering so every exposition is current.

use crate::wire::{kind_name, REQUEST_KINDS};
use sketchtree_core::concurrent::SharedSketchTree;
use sketchtree_core::metrics::CoreMetrics;
use sketchtree_metrics::{Counter, Gauge, Histogram, Registry};
use std::sync::Arc;
use std::time::Duration;

/// Every metric family the server maintains, plus the registry that
/// renders them.
#[derive(Debug)]
pub struct ServerMetrics {
    registry: Registry,
    /// Core-pipeline handles; attach to the shared synopsis with
    /// [`SharedSketchTree::attach_metrics`].
    pub core: Arc<CoreMetrics>,
    /// Connections accepted (`sktp_connections_accepted_total`).
    pub connections_accepted: Arc<Counter>,
    /// Connections currently open (`sktp_connections_active`).
    pub connections_active: Arc<Gauge>,
    /// Connections closed by the idle timeout (`sktp_idle_closes_total`).
    pub idle_closes: Arc<Counter>,
    /// Frames read from clients (`sktp_frames_total{direction="in"}`).
    pub frames_in: Arc<Counter>,
    /// Frames written to clients (`sktp_frames_total{direction="out"}`).
    pub frames_out: Arc<Counter>,
    /// Bytes read, headers included (`sktp_bytes_total{direction="in"}`).
    pub bytes_in: Arc<Counter>,
    /// Bytes written, headers included
    /// (`sktp_bytes_total{direction="out"}`).
    pub bytes_out: Arc<Counter>,
    /// Error responses sent (`sktp_error_responses_total`).
    pub error_responses: Arc<Counter>,
    /// Checkpoints written (`sktp_checkpoints_total`).
    pub checkpoints: Arc<Counter>,
    /// Checkpoint attempts that failed (`sktp_checkpoint_errors_total`).
    pub checkpoint_errors: Arc<Counter>,
    /// Seconds per checkpoint write (`sktp_checkpoint_seconds`).
    pub checkpoint_seconds: Arc<Histogram>,
    /// Size of the last checkpoint in bytes (`sktp_checkpoint_bytes`).
    pub checkpoint_bytes: Arc<Gauge>,
    /// Snapshot restores performed at startup (`sktp_restores_total`).
    pub restores: Arc<Counter>,
    /// Corrupt checkpoints quarantined at startup
    /// (`sketchtree_restore_corrupt_total`).
    pub restore_corrupt: Arc<Counter>,
    /// Stale checkpoint temp files removed at startup
    /// (`sketchtree_restore_stale_tmp_total`).
    pub restore_stale_tmp: Arc<Counter>,
    /// Ingest batches appended to the write-ahead log
    /// (`sketchtree_wal_appends_total`).
    pub wal_appends: Arc<Counter>,
    /// Bytes appended to the write-ahead log, frame headers included
    /// (`sketchtree_wal_bytes_total`).
    pub wal_bytes: Arc<Counter>,
    /// Group-commit fsyncs issued on the write-ahead log
    /// (`sketchtree_wal_fsyncs_total`).
    pub wal_fsyncs: Arc<Counter>,
    /// Seconds per WAL append that hit a group-commit boundary — the
    /// frame write plus its fdatasync (`sketchtree_wal_fsync_seconds`).
    pub wal_fsync_seconds: Arc<Histogram>,
    /// Current write-ahead-log file size (`sketchtree_wal_size_bytes`).
    pub wal_size: Arc<Gauge>,
    /// WAL rotations after successful checkpoints
    /// (`sketchtree_wal_truncations_total`).
    pub wal_truncations: Arc<Counter>,
    /// Batches replayed from the WAL at startup
    /// (`sketchtree_wal_replayed_batches_total`).
    pub wal_replayed: Arc<Counter>,
    /// Torn or undecodable WAL tails truncated at recovery
    /// (`sketchtree_wal_torn_tail_total`).
    pub wal_torn: Arc<Counter>,
    /// Snapshot merges applied via MergeSnapshot (`sktp_merges_total`).
    pub merges: Arc<Counter>,
    /// Cumulative bytes of merged snapshots (`sktp_merge_bytes_total`).
    pub merge_bytes: Arc<Counter>,
    /// Live standing-query subscriptions across all connections
    /// (`sketchtree_subscriptions_active`).
    pub subscriptions_active: Arc<Gauge>,
    /// `EstimateUpdate` frames queued to subscribers
    /// (`sktp_push_updates_total`).
    pub push_updates: Arc<Counter>,
    /// Subscriptions evicted because their connection's outbound queue
    /// was full or closed at a broadcast; an eviction takes every
    /// subscription of that connection
    /// (`sktp_slow_subscriber_evictions_total`).
    pub slow_subscriber_evictions: Arc<Counter>,
    /// Seconds per batch re-evaluating every registered standing query
    /// (`sketchtree_standing_eval_seconds`); its `_count` equals the
    /// number of batches broadcast, independent of subscriber count.
    pub standing_eval_seconds: Arc<Histogram>,
    /// Standing-query plan compilations
    /// (`sketchtree_standing_compilations_total`); flat once every
    /// registered query's labels have appeared.
    pub standing_compilations: Arc<Counter>,
    /// Seconds per batch fanning evaluated results out to subscriber
    /// queues: building each connection's epoch of updates and handing
    /// it over with one `try_send` (`sketchtree_push_seconds`).
    pub push_seconds: Arc<Histogram>,
    /// Ad-hoc query answers served from the epoch-keyed cache
    /// (`sketchtree_query_cache_hits_total`).
    pub cache_hits: Arc<Counter>,
    /// Ad-hoc query answers that had to be computed
    /// (`sketchtree_query_cache_misses_total`).
    pub cache_misses: Arc<Counter>,
    /// Per-opcode request latency histograms, keyed by request kind byte
    /// (`sktp_request_seconds{opcode=…}`); the final entry is the
    /// `"other"` catch-all for unknown kinds.
    request_seconds: Vec<(u8, Arc<Histogram>)>,
    other_request_seconds: Arc<Histogram>,
    // Sketch-health gauges (pull-model; see refresh_health).
    health_counter_fill: Arc<Gauge>,
    health_counters_nonzero: Arc<Gauge>,
    health_counters_total: Arc<Gauge>,
    health_topk_fill: Arc<Gauge>,
    health_topk_tracked: Arc<Gauge>,
    health_topk_capacity: Arc<Gauge>,
    health_virtual_streams: Arc<Gauge>,
    health_partition_imbalance: Arc<Gauge>,
    health_sign_cache_lookups: Arc<Gauge>,
    health_sign_cache_misses: Arc<Gauge>,
    health_topk_filter_hits: Arc<Gauge>,
    health_topk_reestimates: Arc<Gauge>,
    health_values_processed: Arc<Gauge>,
    health_residual_self_join: Arc<Gauge>,
    health_estimator_spread: Arc<Gauge>,
    health_memory_bytes: Arc<Gauge>,
    health_trees: Arc<Gauge>,
    health_patterns: Arc<Gauge>,
    health_labels: Arc<Gauge>,
}

impl ServerMetrics {
    /// Builds the full server metric set in a fresh registry.
    pub fn new() -> Arc<Self> {
        let registry = Registry::new();
        let core = CoreMetrics::register(&registry);
        let frames = |dir: &str| {
            registry.counter_with(
                "sktp_frames_total",
                "SKTP frames transferred, by direction",
                &[("direction", dir)],
            )
        };
        let bytes = |dir: &str| {
            registry.counter_with(
                "sktp_bytes_total",
                "Bytes transferred on SKTP connections (headers included), by direction",
                &[("direction", dir)],
            )
        };
        let req_hist = |opcode: &str| {
            registry.histogram_with(
                "sktp_request_seconds",
                "Seconds from request decode to response write, by opcode",
                &[("opcode", opcode)],
            )
        };
        let request_seconds: Vec<(u8, Arc<Histogram>)> = REQUEST_KINDS
            .iter()
            .map(|&k| (k, req_hist(kind_name(k))))
            .collect();
        let other_request_seconds = req_hist("other");
        let health_gauge = |name: &str, help: &str| registry.gauge(name, help);
        Arc::new(Self {
            core,
            connections_accepted: registry.counter(
                "sktp_connections_accepted_total",
                "TCP connections accepted",
            ),
            connections_active: registry
                .gauge("sktp_connections_active", "TCP connections currently open"),
            idle_closes: registry.counter(
                "sktp_idle_closes_total",
                "Connections closed by the idle timeout",
            ),
            frames_in: frames("in"),
            frames_out: frames("out"),
            bytes_in: bytes("in"),
            bytes_out: bytes("out"),
            error_responses: registry
                .counter("sktp_error_responses_total", "Error responses sent to clients"),
            checkpoints: registry.counter("sktp_checkpoints_total", "Checkpoints written"),
            checkpoint_errors: registry
                .counter("sktp_checkpoint_errors_total", "Checkpoint attempts that failed"),
            checkpoint_seconds: registry.histogram(
                "sktp_checkpoint_seconds",
                "Seconds per checkpoint write (serialize + fsync + rename + dir fsync)",
            ),
            checkpoint_bytes: registry
                .gauge("sktp_checkpoint_bytes", "Size of the last checkpoint in bytes"),
            restores: registry.counter(
                "sktp_restores_total",
                "Snapshot restores performed at startup",
            ),
            restore_corrupt: registry.counter(
                "sketchtree_restore_corrupt_total",
                "Corrupt checkpoints quarantined at startup (renamed *.corrupt, state rebuilt from the write-ahead log)",
            ),
            restore_stale_tmp: registry.counter(
                "sketchtree_restore_stale_tmp_total",
                "Stale checkpoint temp files (crash between write and rename) removed at startup",
            ),
            wal_appends: registry.counter(
                "sketchtree_wal_appends_total",
                "Ingest batches appended to the write-ahead log before acking",
            ),
            wal_bytes: registry.counter(
                "sketchtree_wal_bytes_total",
                "Bytes appended to the write-ahead log, frame headers included",
            ),
            wal_fsyncs: registry.counter(
                "sketchtree_wal_fsyncs_total",
                "Group-commit fsyncs issued on the write-ahead log",
            ),
            wal_fsync_seconds: registry.histogram(
                "sketchtree_wal_fsync_seconds",
                "Seconds per WAL append that hit a group-commit boundary (frame write + fdatasync)",
            ),
            wal_size: registry.gauge(
                "sketchtree_wal_size_bytes",
                "Current write-ahead-log file size in bytes (drops at each rotation)",
            ),
            wal_truncations: registry.counter(
                "sketchtree_wal_truncations_total",
                "Write-ahead-log rotations after successful checkpoints",
            ),
            wal_replayed: registry.counter(
                "sketchtree_wal_replayed_batches_total",
                "Batches replayed from the write-ahead log at startup",
            ),
            wal_torn: registry.counter(
                "sketchtree_wal_torn_tail_total",
                "Torn or undecodable write-ahead-log tails truncated at recovery",
            ),
            merges: registry.counter(
                "sktp_merges_total",
                "Shard snapshots merged into the live synopsis",
            ),
            merge_bytes: registry.counter(
                "sktp_merge_bytes_total",
                "Cumulative size in bytes of merged shard snapshots",
            ),
            subscriptions_active: registry.gauge(
                "sketchtree_subscriptions_active",
                "Live standing-query subscriptions across all connections",
            ),
            push_updates: registry.counter(
                "sktp_push_updates_total",
                "EstimateUpdate frames queued to subscribers",
            ),
            slow_subscriber_evictions: registry.counter(
                "sktp_slow_subscriber_evictions_total",
                "Subscriptions evicted because their connection's outbound queue was full",
            ),
            standing_eval_seconds: registry.histogram(
                "sketchtree_standing_eval_seconds",
                "Seconds per batch re-evaluating every registered standing query",
            ),
            standing_compilations: registry.counter(
                "sketchtree_standing_compilations_total",
                "Standing-query plans compiled or recompiled during broadcasts",
            ),
            push_seconds: registry.histogram(
                "sketchtree_push_seconds",
                "Seconds per batch handing each subscriber connection its epoch of updates",
            ),
            cache_hits: registry.counter(
                "sketchtree_query_cache_hits_total",
                "Ad-hoc query answers served from the epoch-keyed result cache",
            ),
            cache_misses: registry.counter(
                "sketchtree_query_cache_misses_total",
                "Ad-hoc query answers that had to be computed (cache miss or stale epoch)",
            ),
            request_seconds,
            other_request_seconds,
            health_counter_fill: health_gauge(
                "sketchtree_sketch_counter_fill_ratio",
                "Fraction of sketch counters with a nonzero value",
            ),
            health_counters_nonzero: health_gauge(
                "sketchtree_sketch_counters_nonzero",
                "Sketch counters with a nonzero value",
            ),
            health_counters_total: health_gauge(
                "sketchtree_sketch_counters_total",
                "Total sketch counters (virtual_streams * s1 * s2)",
            ),
            health_topk_fill: health_gauge(
                "sketchtree_topk_fill_ratio",
                "Fraction of top-k heavy-hitter slots in use",
            ),
            health_topk_tracked: health_gauge(
                "sketchtree_topk_tracked",
                "Values currently tracked by the top-k strategy",
            ),
            health_topk_capacity: health_gauge(
                "sketchtree_topk_capacity",
                "Total top-k slots (virtual_streams * k)",
            ),
            health_virtual_streams: health_gauge(
                "sketchtree_virtual_streams",
                "Virtual-stream partition count",
            ),
            health_partition_imbalance: health_gauge(
                "sketchtree_partition_imbalance_ratio",
                "Max over mean inserts per virtual-stream partition (1.0 = perfectly even)",
            ),
            health_sign_cache_lookups: health_gauge(
                "sketchtree_sign_cache_lookups",
                "Sign-cache lookups since startup, one per inserted value that reaches the sketches (resets on restore)",
            ),
            health_sign_cache_misses: health_gauge(
                "sketchtree_sign_cache_misses",
                "Sign-cache misses since startup, each one xi row-kernel run (resets on restore)",
            ),
            health_topk_filter_hits: health_gauge(
                "sketchtree_topk_filter_hits",
                "Tracked-value occurrences counted in the top-k heap without touching the sketches (Filter mode; resets on restore)",
            ),
            health_topk_reestimates: health_gauge(
                "sketchtree_topk_reestimates",
                "Tracked-value occurrences re-estimated through Algorithm 4 every 16th time (Filter mode; resets on restore)",
            ),
            health_values_processed: health_gauge(
                "sketchtree_values_processed",
                "Pattern values processed by the synopsis since its state began",
            ),
            health_residual_self_join: health_gauge(
                "sketchtree_residual_self_join",
                "Estimated residual self-join size SJ(S) — drives the Theorem 1 error bound",
            ),
            health_estimator_spread: health_gauge(
                "sketchtree_estimator_spread_ratio",
                "Relative spread of the s2 group-mean SJ estimates (variance proxy)",
            ),
            health_memory_bytes: health_gauge(
                "sketchtree_memory_bytes",
                "Synopsis memory in bytes (counters + seeds + top-k + summary)",
            ),
            health_trees: health_gauge("sketchtree_trees_processed", "Trees ingested"),
            health_patterns: health_gauge(
                "sketchtree_patterns_processed",
                "Pattern instances processed",
            ),
            health_labels: health_gauge("sketchtree_labels", "Distinct labels interned"),
            registry,
        })
    }

    /// Records one handled request: its kind byte and wall-clock time from
    /// decode to response write.
    pub fn observe_request(&self, kind: u8, elapsed: Duration) {
        let hist = self
            .request_seconds
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, h)| h)
            .unwrap_or(&self.other_request_seconds);
        hist.observe_duration(elapsed);
    }

    /// Recomputes the sketch-health gauges from the shared synopsis (one
    /// shared read lock; call per scrape, not per request).
    pub fn refresh_health(&self, shared: &SharedSketchTree) {
        let h = shared.read(|s| s.sketch_health());
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        self.health_counter_fill.set(ratio(h.counters_nonzero, h.counters_total));
        self.health_counters_nonzero.set(h.counters_nonzero as f64);
        self.health_counters_total.set(h.counters_total as f64);
        self.health_topk_fill.set(ratio(h.topk_tracked, h.topk_capacity));
        self.health_topk_tracked.set(h.topk_tracked as f64);
        self.health_topk_capacity.set(h.topk_capacity as f64);
        self.health_virtual_streams.set(h.partition_inserts.len() as f64);
        self.health_partition_imbalance.set(partition_imbalance(&h.partition_inserts));
        self.health_sign_cache_lookups.set(h.sign_cache_lookups as f64);
        self.health_sign_cache_misses.set(h.sign_cache_misses as f64);
        self.health_topk_filter_hits.set(h.topk_filter_hits as f64);
        self.health_topk_reestimates.set(h.topk_reestimates as f64);
        self.health_values_processed.set(h.values_processed as f64);
        self.health_residual_self_join.set(h.residual_self_join);
        self.health_estimator_spread.set(h.estimator_spread);
        self.health_memory_bytes.set(h.memory_bytes as f64);
        self.health_trees.set(h.trees_processed as f64);
        self.health_patterns.set(h.patterns_processed as f64);
        self.health_labels.set(h.labels as f64);
    }

    /// Renders the exposition: Prometheus text or JSON.
    pub fn render(&self, json: bool) -> String {
        if json {
            self.registry.render_json()
        } else {
            self.registry.render_text()
        }
    }

    /// The underlying registry (tests and extensions).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }
}

/// Max-over-mean inserts per partition: `1.0` when the virtual-stream
/// routing is perfectly even, growing as partitions skew.  Zero before any
/// insert.
fn partition_imbalance(inserts: &[u64]) -> f64 {
    let total: u64 = inserts.iter().copied().fold(0u64, u64::saturating_add);
    if total == 0 || inserts.is_empty() {
        return 0.0;
    }
    let mean = total as f64 / inserts.len() as f64;
    let max = inserts.iter().copied().max().unwrap_or(0) as f64;
    max / mean
}

/// Decrements `sktp_connections_active` when a connection handler exits —
/// by any path, including panics unwinding through the worker.
#[derive(Debug)]
pub struct ConnectionGuard {
    active: Arc<Gauge>,
}

impl ConnectionGuard {
    /// Marks a connection open; the returned guard marks it closed on
    /// drop.
    pub fn open(metrics: &ServerMetrics) -> Self {
        metrics.connections_accepted.inc();
        metrics.connections_active.inc();
        Self { active: metrics.connections_active.clone() }
    }
}

impl Drop for ConnectionGuard {
    fn drop(&mut self) {
        self.active.dec();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketchtree_core::{SketchTree, SketchTreeConfig};

    #[test]
    fn all_request_opcodes_have_histograms() {
        let m = ServerMetrics::new();
        for &k in REQUEST_KINDS {
            m.observe_request(k, Duration::from_micros(50));
        }
        m.observe_request(0x66, Duration::from_micros(50)); // unknown
        let text = m.render(false);
        for &k in REQUEST_KINDS {
            let line = format!("sktp_request_seconds_count{{opcode=\"{}\"}} 1", kind_name(k));
            assert!(text.contains(&line), "missing {line}");
        }
        assert!(text.contains("sktp_request_seconds_count{opcode=\"other\"} 1"));
    }

    #[test]
    fn connection_guard_tracks_active() {
        let m = ServerMetrics::new();
        {
            let _g1 = ConnectionGuard::open(&m);
            let _g2 = ConnectionGuard::open(&m);
            assert_eq!(m.connections_active.get(), 2.0);
        }
        assert_eq!(m.connections_active.get(), 0.0);
        assert_eq!(m.connections_accepted.get(), 2);
    }

    #[test]
    fn refresh_health_populates_gauges() {
        let m = ServerMetrics::new();
        let shared = SharedSketchTree::new(SketchTree::new(SketchTreeConfig::default()));
        let a = shared.with_labels(|l| l.intern("A"));
        let t = sketchtree_tree::Tree::node(a, vec![sketchtree_tree::Tree::leaf(a)]);
        for _ in 0..10 {
            shared.ingest_batch(std::slice::from_ref(&t));
        }
        m.refresh_health(&shared);
        let text = m.render(false);
        assert!(text.contains("sketchtree_trees_processed 10"));
        assert!(!text.contains("sketchtree_values_processed 0\n"));
        // Ten copies of one tree under the default Filter mode: each
        // distinct value is tracked on its first copy, and its nine
        // repeats are filter hits that skip the sign cache, so the
        // lookups are the first copy's values and all of them miss.
        let h = shared.read(|s| s.sketch_health());
        assert_eq!(h.sign_cache_lookups + h.topk_filter_hits, h.values_processed);
        assert_eq!(h.topk_filter_hits * 10, h.values_processed * 9);
        assert_eq!((h.sign_cache_misses, h.topk_reestimates), (h.sign_cache_lookups, 0));
        assert!(text.contains(&format!("sketchtree_sign_cache_lookups {}\n", h.sign_cache_lookups)));
        assert!(text.contains(&format!("sketchtree_sign_cache_misses {}\n", h.sign_cache_misses)));
        assert!(text.contains(&format!("sketchtree_topk_filter_hits {}\n", h.topk_filter_hits)));
        assert!(text.contains("sketchtree_topk_reestimates 0\n"));
        // JSON render is parseable-ish: starts and ends with braces.
        let json = m.render(true);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    }

    #[test]
    fn partition_imbalance_math() {
        assert_eq!(partition_imbalance(&[]), 0.0);
        assert_eq!(partition_imbalance(&[0, 0]), 0.0);
        assert_eq!(partition_imbalance(&[5, 5, 5]), 1.0);
        assert_eq!(partition_imbalance(&[0, 0, 30]), 3.0);
    }
}
