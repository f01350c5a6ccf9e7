//! Top-k tracking overhead — the paper's §7.6 claim that growing the top-k
//! size adds only marginal processing cost (5–10%), for the published
//! Algorithm 4 (`Paper`) and for the Filter mode that counts tracked
//! values in place.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sketchtree_sketch::{StreamSynopsis, SynopsisConfig, TopKMode};

/// A fixed skewed value stream.
fn stream() -> Vec<u64> {
    let mut out = Vec::new();
    for v in 1..=200u64 {
        for _ in 0..(2000 / v) {
            out.push(v * 7919);
        }
    }
    // Deterministic interleave.
    let mut rng = sketchtree_hash::SplitMix64::new(5);
    for i in (1..out.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        out.swap(i, j);
    }
    out
}

fn bench_topk_insert(c: &mut Criterion) {
    let values = stream();
    let mut g = c.benchmark_group("ingest_with_topk");
    g.throughput(Throughput::Elements(values.len() as u64));
    g.sample_size(10);
    for topk_mode in [TopKMode::Paper, TopKMode::Filter] {
        for topk in [0usize, 50, 300] {
            let id = BenchmarkId::new(format!("{topk_mode:?}"), topk);
            g.bench_with_input(id, &topk, |b, &topk| {
                b.iter(|| {
                    // One virtual stream: a single bank and tracker, the
                    // shape of Algorithm 4 in the paper.
                    let mut syn = StreamSynopsis::new(SynopsisConfig {
                        s1: 25,
                        s2: 7,
                        virtual_streams: 1,
                        topk,
                        independence: 4,
                        topk_probability: u16::MAX,
                        seed: 3,
                    });
                    syn.set_topk_mode(topk_mode);
                    for &v in &values {
                        syn.insert(v);
                    }
                    black_box(syn.topk_occupancy())
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_topk_insert);
criterion_main!(benches);
