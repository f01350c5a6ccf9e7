//! Query-time estimation cost across the full synopsis: point queries,
//! set totals (Theorem 2) and products (Section 4), at the paper's
//! configuration (p = 229 virtual streams, s2 = 7) — each both ad hoc
//! (compile the plan, evaluate once) and from a plan compiled beforehand
//! — plus a whole standing-query table re-evaluated per batch.
//!
//! `standing_evaluate_all` holds the 48 distinct queries of perfbench's
//! `standing-fanout` workload over a 2,000-tree DBLP synopsis at
//! perfbench's geometry (k 3, s1 25, s2 7, p 229, top-k 50, 5-wise ξ,
//! summary on).  Its `fresh_label` case interns one new label before
//! every evaluation, as a value-labelled stream does every batch.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sketchtree_core::{SharedSketchTree, SketchTree, SketchTreeConfig};
use sketchtree_datagen::{Dataset, StreamSpec};
use sketchtree_sketch::expr::Term;
use sketchtree_sketch::{StreamSynopsis, SynopsisConfig};
use sketchtree_standing::{QueryMode, QueryRegistry, QuerySpec};

fn synopsis() -> StreamSynopsis {
    let mut syn = StreamSynopsis::new(SynopsisConfig {
        s1: 25,
        s2: 7,
        virtual_streams: 229,
        topk: 50,
        independence: 5,
        topk_probability: u16::MAX,
        seed: 2,
    });
    for v in 0..50_000u64 {
        syn.insert(v % 3000);
    }
    syn
}

fn bench_point(c: &mut Criterion) {
    let syn = synopsis();
    c.bench_function("synopsis_point_estimate", |b| {
        b.iter(|| black_box(syn.estimate_count(black_box(1234))))
    });
    let plan = syn.compile_count(1234);
    c.bench_function("synopsis_point_compiled", |b| {
        b.iter(|| black_box(syn.evaluate(black_box(&plan))))
    });
}

fn bench_total(c: &mut Criterion) {
    let syn = synopsis();
    let mut g = c.benchmark_group("synopsis_total_estimate");
    for n in [2usize, 4, 8, 24] {
        let values: Vec<u64> = (0..n as u64).map(|i| i * 97 + 3).collect();
        g.bench_with_input(BenchmarkId::from_parameter(n), &values, |b, values| {
            b.iter(|| black_box(syn.estimate_total(values)))
        });
    }
    g.finish();
    let mut g = c.benchmark_group("synopsis_total_compiled");
    for n in [2usize, 4, 8, 24] {
        let values: Vec<u64> = (0..n as u64).map(|i| i * 97 + 3).collect();
        let plan = syn.compile_total(&values);
        g.bench_with_input(BenchmarkId::from_parameter(n), &plan, |b, plan| {
            b.iter(|| black_box(syn.evaluate(plan)))
        });
    }
    g.finish();
}

fn bench_product(c: &mut Criterion) {
    let syn = synopsis();
    let term = Term {
        coeff: 1,
        queries: vec![101, 997],
    };
    c.bench_function("synopsis_product_estimate", |b| {
        b.iter(|| black_box(syn.estimate_terms(std::slice::from_ref(&term)).expect("ok")))
    });
    let plan = syn.compile_terms(std::slice::from_ref(&term)).expect("5-wise ξ");
    c.bench_function("synopsis_product_compiled", |b| {
        b.iter(|| black_box(syn.evaluate(&plan)))
    });
}

/// The 48 distinct standing queries of perfbench's `standing-fanout`.
fn fanout_queries() -> Vec<(QueryMode, String)> {
    let mut v: Vec<(QueryMode, String)> = [
        "article(author)",
        "article(author,year)",
        "inproceedings(author,title)",
        "article(journal)",
        "inproceedings(author)",
        "inproceedings(booktitle)",
        "article(year,journal)",
        "article(author,author)",
        "article(author,title,year)",
        "incollection(author)",
        "www(author,title)",
        "phdthesis(school)",
        "book(publisher)",
        "inproceedings(year(2024))",
    ]
    .iter()
    .map(|t| (QueryMode::Ordered, t.to_string()))
    .collect();
    v.extend(
        [
            "COUNT_ord(article(author)) + COUNT_ord(inproceedings(author))",
            "COUNT_ord(article(year)) - COUNT_ord(article(journal))",
        ]
        .iter()
        .map(|t| (QueryMode::Expr, t.to_string())),
    );
    v.extend(
        [
            "article(title,author)",
            "inproceedings(year,author)",
            "article(journal,year,author)",
            "inproceedings(booktitle,author)",
        ]
        .iter()
        .map(|t| (QueryMode::Unordered, t.to_string())),
    );
    for i in 0..12 {
        v.push((QueryMode::Ordered, format!("article(author(a{i}))")));
        v.push((QueryMode::Ordered, format!("inproceedings(booktitle(c{i}))")));
    }
    for y in 2020..2024 {
        v.push((QueryMode::Unordered, format!("article(year({y}),author)")));
    }
    v
}

fn bench_evaluate_all(c: &mut Criterion) {
    let mut st = SketchTree::new(SketchTreeConfig {
        max_pattern_edges: 3,
        synopsis: SynopsisConfig { independence: 5, ..SynopsisConfig::default() },
        ..SketchTreeConfig::default()
    });
    let trees = StreamSpec { dataset: Dataset::Dblp, n_trees: 2000, seed: 7 }
        .generate(st.labels_mut());
    let shared = SharedSketchTree::new(st);
    shared.ingest_batch(&trees);
    let registry = QueryRegistry::new();
    let queries = fanout_queries();
    assert_eq!(queries.len(), 48);
    for (mode, text) in &queries {
        registry.register(QuerySpec::parse(*mode, text).expect("fanout queries parse"));
    }
    let mut g = c.benchmark_group("standing_evaluate_all");
    g.bench_function("steady", |b| {
        b.iter(|| shared.read(|st| black_box(registry.evaluate_all(st))))
    });
    let mut fresh = 0u64;
    g.bench_function("fresh_label", |b| {
        b.iter(|| {
            fresh += 1;
            shared.with_labels(|l| l.intern(&format!("value {fresh}")));
            shared.read(|st| black_box(registry.evaluate_all(st)))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_point, bench_total, bench_product, bench_evaluate_all);
criterion_main!(benches);
