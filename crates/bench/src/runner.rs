//! Stream materialisation and error measurement.
//!
//! The error experiments (Figures 10 and 12) sweep a grid of `(s1, top-k,
//! run-seed)` configurations over the *same* pattern stream.  Enumerating
//! and fingerprinting the trees dominates ingestion cost but is identical
//! across grid cells, so [`MappedStream`] materialises the mapped value
//! stream once per dataset and each grid cell replays it into a fresh
//! synopsis — the measured estimation behaviour is exactly what an online
//! run would produce, because sketch state depends only on the value
//! sequence.
//!
//! (The §7.6/§7.7 *processing-cost* experiment deliberately does not reuse
//! the mapped stream: it times full ingests through `SketchTree::ingest`.)

use sketchtree_core::{enumerate_patterns, ExactCounter, Mapper};
use sketchtree_datagen::workload::WorkloadQuery;
use sketchtree_datagen::StreamSpec;
use sketchtree_sketch::{StreamSynopsis, SynopsisConfig, TopKMode};
use sketchtree_tree::{LabelTable, PruferSeq};

/// A pattern stream reduced to its one-dimensional values, with exact
/// ground truth.
pub struct MappedStream {
    /// Mapped values in stream order.
    pub values: Vec<u64>,
    /// Exact counts per value.
    pub exact: ExactCounter,
    /// Number of trees streamed.
    pub trees: usize,
    /// Wall-clock seconds spent enumerating + mapping (the Figure 9
    /// measurement).
    pub enumerate_secs: f64,
}

impl MappedStream {
    /// Enumerates a stream spec at pattern size `k` and materialises the
    /// mapped value stream (fingerprint degree 31, as in the paper).
    pub fn materialize(spec: &StreamSpec, k: usize) -> MappedStream {
        let mapper = Mapper::new(31, 0x0ACE_0F5E_ED50);
        let mut labels = LabelTable::new();
        let mut values = Vec::new();
        let mut exact = ExactCounter::new();
        let start = std::time::Instant::now();
        spec.for_each(&mut labels, |tree| {
            enumerate_patterns(&tree, k, |root, edges| {
                let pattern = tree.project(root, edges);
                let v = mapper.map_seq(&PruferSeq::encode(&pattern));
                values.push(v);
                exact.record(v);
            });
        });
        let enumerate_secs = start.elapsed().as_secs_f64();
        MappedStream {
            values,
            exact,
            trees: spec.n_trees,
            enumerate_secs,
        }
    }

    /// Total pattern instances.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no patterns were produced.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Replays the stream into a fresh synopsis, returning it together with
    /// the replay wall-clock seconds (sketch-update + top-k cost only).
    pub fn feed(&self, config: SynopsisConfig, mode: TopKMode) -> (StreamSynopsis, f64) {
        let mut syn = StreamSynopsis::new(config);
        syn.set_topk_mode(mode);
        let start = std::time::Instant::now();
        for &v in &self.values {
            syn.insert(v);
        }
        (syn, start.elapsed().as_secs_f64())
    }
}

/// The paper's relative error with its sanity bound (Section 7.5): a
/// negative approximate count is replaced by `0.1 × actual`.
pub fn relative_error(actual: f64, approx: f64) -> f64 {
    debug_assert!(actual > 0.0, "workload queries have positive counts");
    let approx = if approx < 0.0 { 0.1 * actual } else { approx };
    (approx - actual).abs() / actual
}

/// How a workload query is estimated against a synopsis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Single pattern or SUM workload: total frequency (Theorems 1–2).
    Total,
    /// PRODUCT workload: product of counts (Section 4).
    Product,
}

/// Estimates one workload query.
pub fn estimate_query(syn: &StreamSynopsis, q: &WorkloadQuery, kind: QueryKind) -> f64 {
    match kind {
        QueryKind::Total => {
            if q.values.len() == 1 {
                syn.estimate_count(q.values[0])
            } else {
                syn.estimate_total(&q.values)
            }
        }
        QueryKind::Product => {
            let term = sketchtree_sketch::expr::Term {
                coeff: 1,
                queries: q.values.clone(),
            };
            syn.estimate_terms(&[term])
                .expect("harness configures sufficient independence")
        }
    }
}

/// Mean relative error of a query set against one synopsis.
pub fn avg_relative_error(
    syn: &StreamSynopsis,
    queries: &[WorkloadQuery],
    kind: QueryKind,
) -> f64 {
    assert!(!queries.is_empty());
    queries
        .iter()
        .map(|q| relative_error(q.exact, estimate_query(syn, q, kind)))
        .sum::<f64>()
        / queries.len() as f64
}

/// Selectivity buckets used for a dataset's workload, mirroring Figure 8.
pub fn bucket_edges_treebank() -> Vec<f64> {
    vec![1e-5, 2e-5, 4e-5, 8e-5, 2e-4]
}

/// Selectivity buckets for the DBLP workload (Figure 8(b)).
pub fn bucket_edges_dblp() -> Vec<f64> {
    vec![5e-6, 2.5e-5, 5e-5, 7.5e-5, 1e-4]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketchtree_datagen::Dataset;

    #[test]
    fn sanity_bound_applies_to_negative_estimates() {
        assert_eq!(relative_error(100.0, -5.0), 0.9); // approx → 10
        assert_eq!(relative_error(100.0, 100.0), 0.0);
        assert_eq!(relative_error(100.0, 150.0), 0.5);
        assert_eq!(relative_error(100.0, 0.0), 1.0);
    }

    #[test]
    fn materialized_stream_is_consistent() {
        let spec = StreamSpec {
            dataset: Dataset::Treebank,
            n_trees: 50,
            seed: 3,
        };
        let ms = MappedStream::materialize(&spec, 3);
        assert!(!ms.is_empty());
        assert_eq!(ms.len() as u64, ms.exact.total());
        assert_eq!(ms.trees, 50);
        // Every value in the stream is counted.
        let sum: u64 = ms.exact.iter().map(|(_, c)| c).sum();
        assert_eq!(sum, ms.len() as u64);
    }

    #[test]
    fn replay_equals_online_ingest() {
        // Feeding the materialised values must produce the same synopsis
        // state as SketchTree's online path (same mapper seed + config).
        let spec = StreamSpec {
            dataset: Dataset::Dblp,
            n_trees: 20,
            seed: 9,
        };
        let ms = MappedStream::materialize(&spec, 2);
        let config = SynopsisConfig {
            s1: 10,
            s2: 3,
            virtual_streams: 7,
            topk: 4,
            independence: 4,
            topk_probability: u16::MAX,
            seed: 5,
        };
        let (a, _) = ms.feed(config.clone(), TopKMode::Paper);
        let (b, _) = ms.feed(config, TopKMode::Paper);
        // Deterministic: same estimates for a few values.
        for &v in ms.values.iter().take(10) {
            assert_eq!(a.estimate_count(v), b.estimate_count(v));
        }
    }

    #[test]
    fn avg_error_improves_with_more_memory() {
        let spec = StreamSpec {
            dataset: Dataset::Dblp,
            n_trees: 150,
            seed: 1,
        };
        let ms = MappedStream::materialize(&spec, 2);
        let base = sketchtree_datagen::single_pattern_workload(
            &ms.exact, 1e-4, 1e-2, 40, 11,
        );
        assert!(base.len() >= 5, "workload too small: {}", base.len());
        let small = SynopsisConfig {
            s1: 4,
            s2: 5,
            virtual_streams: 11,
            topk: 0,
            independence: 4,
            topk_probability: u16::MAX,
            seed: 77,
        };
        let big = SynopsisConfig {
            s1: 80,
            ..small.clone()
        };
        let (syn_small, _) = ms.feed(small, TopKMode::Paper);
        let (syn_big, _) = ms.feed(big, TopKMode::Paper);
        let e_small = avg_relative_error(&syn_small, &base, QueryKind::Total);
        let e_big = avg_relative_error(&syn_big, &base, QueryKind::Total);
        assert!(
            e_big < e_small,
            "more sketches did not help: {e_small:.3} -> {e_big:.3}"
        );
    }
}
