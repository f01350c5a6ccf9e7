//! Sketch-bank update and point-estimate cost as s1 grows — the paper's
//! §7.6 observation that processing cost scales (slightly super-)linearly
//! in s1, as a micro-benchmark — and the sketch-health gauge.
//!
//! Both estimate groups time the paths the server runs: the point
//! estimate the top-k strategy takes on every insert (the value's ξ sign
//! row from the row kernel, then the signed group sums) and the residual
//! self-join size behind the health gauges.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sketchtree_sketch::{SketchBank, StreamSynopsis, SynopsisConfig};

fn bench_update(c: &mut Criterion) {
    let mut g = c.benchmark_group("bank_update");
    g.throughput(Throughput::Elements(256));
    for s1 in [25usize, 50, 75] {
        let mut bank = SketchBank::new(3, s1, 7, 4);
        g.bench_with_input(BenchmarkId::from_parameter(s1), &s1, |b, _| {
            b.iter(|| {
                for v in 0..256u64 {
                    bank.update(black_box(v.wrapping_mul(0x9E3779B9)), 1);
                }
            })
        });
    }
    g.finish();
}

/// `signs_into` + `estimate_point_with_signs_into`, as Algorithm 4 runs
/// them per insert (one sign row, reused scratch buffers).
fn bench_topk_estimate(c: &mut Criterion) {
    let mut g = c.benchmark_group("topk_point_estimate");
    for s1 in [25usize, 50, 75] {
        let mut bank = SketchBank::new(3, s1, 7, 4);
        for v in 0..10_000u64 {
            bank.update(v % 500, 1);
        }
        let (mut signs, mut ys) = (Vec::new(), Vec::new());
        g.bench_with_input(BenchmarkId::from_parameter(s1), &bank, |b, bank| {
            b.iter(|| {
                bank.signs_into(black_box(123), &mut signs);
                black_box(bank.estimate_point_with_signs_into(&signs, &mut ys))
            })
        });
    }
    g.finish();
}

/// `StreamSynopsis::estimate_residual_self_join` at the default synopsis
/// geometry (s1 25, s2 7, 229 virtual streams, top-k 50): `X²` summed
/// over every bank per sketch, then boosted once.
fn bench_residual_self_join(c: &mut Criterion) {
    let mut syn = StreamSynopsis::new(SynopsisConfig { seed: 9, ..SynopsisConfig::default() });
    for v in 0..10_000u64 {
        syn.insert(v % 500);
    }
    c.bench_function("synopsis_residual_self_join", |b| {
        b.iter(|| black_box(syn.estimate_residual_self_join()))
    });
}

criterion_group!(benches, bench_update, bench_topk_estimate, bench_residual_self_join);
criterion_main!(benches);
