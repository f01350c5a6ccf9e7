//! ξ family evaluation cost — the innermost operation of every sketch
//! update and estimate.  `xi_sign` times one Mersenne-61 polynomial
//! family, evaluated by Horner, at several independence degrees; `xi_row`
//! times the row kernel a sign-cache miss runs, all `s1·s2` families of a
//! slab for one key.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sketchtree_hash::{m61, KWiseSign};
use sketchtree_sketch::XiSlab;

fn bench_kwise(c: &mut Criterion) {
    let mut g = c.benchmark_group("xi_sign");
    g.throughput(Throughput::Elements(1024));
    for k in [4usize, 5, 8] {
        let xi = KWiseSign::from_seed(42, k);
        g.bench_with_input(BenchmarkId::new("m61_poly", k), &xi, |b, xi| {
            b.iter(|| {
                let mut acc = 0i64;
                for v in 0..1024u64 {
                    acc += xi.sign(black_box(v * 2654435761));
                }
                acc
            })
        });
    }
    g.finish();
}

/// One sign-cache miss at the server geometry: `fill_signs_reduced` over
/// 175 families (s1 = 25, s2 = 7) for one key, at the point-query degree
/// (4), the server default (5, products of two counts) and 7.  Throughput
/// is families, so the ns/iter divided by 175 is the per-family cost.
fn bench_xi_row(c: &mut Criterion) {
    const FAMILIES: usize = 25 * 7;
    let mut g = c.benchmark_group("xi_row");
    g.throughput(Throughput::Elements(FAMILIES as u64));
    for k in [4usize, 5, 7] {
        let slab = XiSlab::generate(0x5EED, FAMILIES, k);
        let mut row = vec![0i8; FAMILIES];
        let mut key = 0u64;
        g.bench_with_input(BenchmarkId::new("fill_signs_reduced", k), &slab, |b, slab| {
            b.iter(|| {
                key = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
                slab.fill_signs_reduced(black_box(m61::reduce(key)), &mut row);
                black_box(row[0])
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_kwise, bench_xi_row);
criterion_main!(benches);
