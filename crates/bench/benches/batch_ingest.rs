//! The server's ingest pipeline — `SharedSketchTree::ingest_batch`:
//! enumerate under the shared lock, apply under the exclusive lock — at
//! batches of 4, 8 and 64 trees, on the DBLP and TREEBANK workloads at
//! the `serve` defaults (k 4, s1 25, s2 7, p 229, top-k 50, 5-wise ξ,
//! summary on).
//!
//! Throughput is counted in pattern instances, so `elem/s` is pattern
//! instances per second and ns per pattern instance is `1e9 / elem/s`.
//! Each iteration ingests the same 200-tree stream again into a synopsis
//! that has already seen it once, so the sign cache, the top-k trackers
//! and the enumeration buffers are warm, as on a long-running server.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sketchtree_core::{SharedSketchTree, SketchTree, SketchTreeConfig};
use sketchtree_datagen::{Dataset, StreamSpec};
use sketchtree_sketch::SynopsisConfig;

fn bench_batch_ingest(c: &mut Criterion) {
    for dataset in [Dataset::Dblp, Dataset::Treebank] {
        let config = SketchTreeConfig {
            max_pattern_edges: 4,
            synopsis: SynopsisConfig {
                independence: 5,
                ..SynopsisConfig::default()
            },
            ..SketchTreeConfig::default()
        };
        // Pre-build trees against a synopsis-owned label table.
        let mut proto = SketchTree::new(config.clone());
        let trees = StreamSpec {
            dataset,
            n_trees: 200,
            seed: 3,
        }
        .generate(proto.labels_mut());
        let fresh = || {
            let mut st = SketchTree::new(config.clone());
            // Re-intern the generator's labels in id order so the
            // pre-built trees' label ids resolve identically.
            for idx in 0..proto.labels().len() {
                st.labels_mut()
                    .intern(proto.labels().name(sketchtree_tree::Label(idx as u32)));
            }
            SharedSketchTree::new(st)
        };
        let patterns = {
            let shared = fresh();
            shared.ingest_batch(&trees).1
        };

        let mut g = c.benchmark_group(format!("batch_ingest_{}", dataset.name()));
        g.sample_size(10);
        g.throughput(Throughput::Elements(patterns));
        for batch in [4usize, 8, 64] {
            let shared = fresh();
            shared.ingest_batch(&trees);
            g.bench_with_input(BenchmarkId::new("batch", batch), &trees, |b, trees| {
                b.iter(|| {
                    for chunk in trees.chunks(batch) {
                        shared.ingest_batch(chunk);
                    }
                    black_box(shared.read(SketchTree::patterns_processed))
                })
            });
        }
        g.finish();
    }
}

criterion_group!(benches, bench_batch_ingest);
criterion_main!(benches);
