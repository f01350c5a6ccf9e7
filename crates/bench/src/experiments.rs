//! One entry point per table and figure of the paper's evaluation.
//!
//! | Entry | Paper artifact |
//! |---|---|
//! | [`table1`] | Table 1 — dataset summary |
//! | [`fig8`] | Figure 8(a,b) — query workload histograms |
//! | [`fig9`] | Figure 9(a,b) — EnumTree time and pattern counts vs k |
//! | [`fig10`] | Figure 10(a–d) — avg relative error vs top-k size (plus a Filter-mode ablation) |
//! | [`fig11`] | Figure 11(a,b) — SUM / PRODUCT workload histograms |
//! | [`fig12`] | Figure 12(a–d) — SUM / PRODUCT relative errors (plus a Filter-mode ablation) |
//! | [`cost`] | §7.6/§7.7 — stream-processing cost ratios |
//! | [`wildcards`] | Figure 7 / §6.2 — `*` and `//` rewriting demo |
//!
//! Scales default to laptop-size streams (see [`Scale`]); the paper's
//! original sizes are recorded alongside so EXPERIMENTS.md can compare
//! shapes. Everything is seeded and deterministic.

use crate::report::{fmt_bytes, fmt_pct, fmt_pct_spread, fmt_range, Table};
use crate::runner::{
    avg_relative_error, bucket_edges_dblp, bucket_edges_treebank, MappedStream, QueryKind,
};
use sketchtree_datagen::workload::{
    product_workload, selectivity_histogram, single_pattern_workload, sum_workload, WorkloadQuery,
};
use sketchtree_datagen::{Dataset, StreamSpec, StreamStats};
use sketchtree_sketch::{SynopsisConfig, TopKMode};
use sketchtree_tree::LabelTable;
use std::collections::HashMap;

/// Experiment sizing.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Trees in the TREEBANK-like stream (paper: 28,699).
    pub treebank_trees: usize,
    /// Trees in the DBLP-like stream (paper: 98,061).
    pub dblp_trees: usize,
    /// Independent sketch seeds averaged per grid cell (paper: 5).
    pub runs: usize,
    /// Max queries drawn per selectivity bucket.
    pub queries_per_bucket: usize,
    /// SUM workload size (paper: 10,000).
    pub sum_queries: usize,
    /// PRODUCT workload size (paper: 6,811).
    pub product_queries: usize,
    /// Stream generator seed.
    pub seed: u64,
}

impl Default for Scale {
    fn default() -> Self {
        Self {
            treebank_trees: 2000,
            dblp_trees: 3000,
            runs: 2,
            queries_per_bucket: 60,
            sum_queries: 400,
            product_queries: 300,
            seed: 20060403, // ICDE 2006 vintage
        }
    }
}

impl Scale {
    /// A fast smoke-test scale.
    pub fn quick() -> Self {
        Self {
            treebank_trees: 400,
            dblp_trees: 600,
            runs: 2,
            queries_per_bucket: 25,
            sum_queries: 80,
            product_queries: 60,
            ..Self::default()
        }
    }

    fn trees(&self, d: Dataset) -> usize {
        match d {
            Dataset::Treebank => self.treebank_trees,
            Dataset::Dblp => self.dblp_trees,
        }
    }
}

/// Paper-faithful sweep parameters per dataset (Section 7.5–7.7).
pub fn s1_values(d: Dataset) -> Vec<usize> {
    match d {
        Dataset::Treebank => vec![25, 50],
        Dataset::Dblp => vec![50, 75],
    }
}

/// Top-k sweep per dataset (per virtual stream; Section 7.5–7.7).
pub fn topk_values(d: Dataset) -> Vec<usize> {
    match d {
        Dataset::Treebank => vec![50, 100, 150, 200, 250, 300],
        Dataset::Dblp => vec![1, 50, 100, 150],
    }
}

fn bucket_edges(d: Dataset) -> Vec<f64> {
    match d {
        Dataset::Treebank => bucket_edges_treebank(),
        Dataset::Dblp => bucket_edges_dblp(),
    }
}

/// A selectivity bucket: `(lo, hi, queries)`.
pub type Bucket = (f64, f64, Vec<WorkloadQuery>);

/// Fixed paper parameters.
const S2: usize = 7;
const VIRTUAL_STREAMS: usize = 229;

/// Lazily-materialised mapped streams shared across experiments.
#[derive(Default)]
pub struct Ctx {
    /// Sizing for every experiment run through this context.
    pub scale: Scale,
    streams: HashMap<(Dataset, usize), MappedStream>,
}

impl Ctx {
    /// Creates a context at the given scale.
    pub fn new(scale: Scale) -> Self {
        Self {
            scale,
            streams: HashMap::new(),
        }
    }

    fn spec(&self, d: Dataset) -> StreamSpec {
        StreamSpec {
            dataset: d,
            n_trees: self.scale.trees(d),
            seed: self.scale.seed,
        }
    }

    /// The mapped stream for a dataset at pattern size `k`, materialising
    /// on first use.
    pub fn mapped(&mut self, d: Dataset, k: usize) -> &MappedStream {
        let spec = self.spec(d);
        self.streams
            .entry((d, k))
            .or_insert_with(|| MappedStream::materialize(&spec, k))
    }

    /// The Figure 8 single-pattern workload for a dataset, one bucket per
    /// selectivity range.
    pub fn bucketed_workload(&mut self, d: Dataset) -> Vec<Bucket> {
        let per_bucket = self.scale.queries_per_bucket;
        let ms = self.mapped(d, d.paper_k());
        let edges = bucket_edges(d);
        edges
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let qs =
                    single_pattern_workload(&ms.exact, w[0], w[1], per_bucket, 1000 + i as u64);
                (w[0], w[1], qs)
            })
            .collect()
    }

}

/// Table 1: dataset summary — # trees, max pattern size k, # distinct
/// ordered tree patterns — plus the shape statistics backing the
/// substitution argument.
pub fn table1(ctx: &mut Ctx) -> Vec<Table> {
    let mut t = Table::new(
        "Table 1: Dataset Summary (scaled streams; paper: TREEBANK 28,699 trees / 7,041,113 \
         distinct patterns, DBLP 98,061 trees / 11,301,512 distinct patterns)",
        &[
            "dataset",
            "# trees",
            "max k",
            "# distinct patterns",
            "# pattern instances",
            "avg depth",
            "max fanout",
        ],
    );
    for d in [Dataset::Treebank, Dataset::Dblp] {
        let spec = ctx.spec(d);
        let mut labels = LabelTable::new();
        let trees = spec.generate(&mut labels);
        let stats = StreamStats::of(trees.iter());
        let ms = ctx.mapped(d, d.paper_k());
        t.row(vec![
            d.name().into(),
            stats.trees.to_string(),
            d.paper_k().to_string(),
            ms.exact.distinct().to_string(),
            ms.len().to_string(),
            format!("{:.1}", stats.avg_depth),
            stats.max_fanout.to_string(),
        ]);
    }
    vec![t]
}

/// Figure 8: single-pattern query workload histograms by selectivity.
pub fn fig8(ctx: &mut Ctx, d: Dataset) -> Vec<Table> {
    let buckets = ctx.bucketed_workload(d);
    let ms = ctx.mapped(d, d.paper_k());
    let total = ms.exact.total();
    let mut t = Table::new(
        format!(
            "Figure 8({}): {} query workload ({} pattern instances streamed)",
            if d == Dataset::Treebank { "a" } else { "b" },
            d.name(),
            total
        ),
        &["selectivity range", "# queries", "count range"],
    );
    for (lo, hi, qs) in &buckets {
        let (cmin, cmax) = qs.iter().fold((u64::MAX, 0u64), |(mn, mx), q| {
            (mn.min(q.exact as u64), mx.max(q.exact as u64))
        });
        t.row(vec![
            fmt_range(*lo, *hi),
            qs.len().to_string(),
            if qs.is_empty() {
                "-".into()
            } else {
                format!("[{cmin}, {cmax}]")
            },
        ]);
    }
    vec![t]
}

/// Figure 9: EnumTree wall-clock time (a) and pattern counts (b) as k
/// grows, for both datasets.
pub fn fig9(ctx: &mut Ctx) -> Vec<Table> {
    let mut time_t = Table::new(
        "Figure 9(a): EnumTree total processing time vs k (seconds; includes sequence \
         construction and Rabin mapping, as in the paper)",
        &["k", "TREEBANK (s)", "DBLP (s)"],
    );
    let mut count_t = Table::new(
        "Figure 9(b): total ordered tree patterns generated vs k",
        &["k", "TREEBANK", "DBLP"],
    );
    let ks = [2usize, 3, 4, 5, 6];
    let mut times: HashMap<(Dataset, usize), f64> = HashMap::new();
    let mut counts: HashMap<(Dataset, usize), usize> = HashMap::new();
    for &k in &ks {
        for d in [Dataset::Treebank, Dataset::Dblp] {
            if d == Dataset::Dblp && k > 4 {
                continue; // paper sweeps DBLP only to k = 4
            }
            let ms = ctx.mapped(d, k);
            times.insert((d, k), ms.enumerate_secs);
            counts.insert((d, k), ms.len());
        }
    }
    for &k in &ks {
        let cell = |m: &HashMap<(Dataset, usize), f64>, d| {
            m.get(&(d, k)).map_or("-".into(), |v| format!("{v:.3}"))
        };
        let ccell = |m: &HashMap<(Dataset, usize), usize>, d| {
            m.get(&(d, k)).map_or("-".into(), |v: &usize| v.to_string())
        };
        time_t.row(vec![
            k.to_string(),
            cell(&times, Dataset::Treebank),
            cell(&times, Dataset::Dblp),
        ]);
        count_t.row(vec![
            k.to_string(),
            ccell(&counts, Dataset::Treebank),
            ccell(&counts, Dataset::Dblp),
        ]);
    }
    vec![time_t, count_t]
}

/// The top-k modes the error figures compare: the published Algorithm 4
/// (the paper's figures) and the Filter mode as an ablation.
const TOPK_MODES: [(TopKMode, &str); 2] =
    [(TopKMode::Paper, "Algorithm 4"), (TopKMode::Filter, "Filter ablation")];

/// Figure 10: average relative error vs top-k size at one `s1`, one table
/// per top-k mode; each cell is the mean ± sample standard deviation over
/// the sketch seeds.
pub fn fig10(ctx: &mut Ctx, d: Dataset, s1: usize) -> Vec<Table> {
    let buckets = ctx.bucketed_workload(d);
    let runs = ctx.scale.runs;
    let mut headers: Vec<String> = vec!["top-k".into(), "memory".into()];
    headers.extend(buckets.iter().map(|(lo, hi, _)| fmt_range(*lo, *hi)));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let ms = ctx.mapped(d, d.paper_k());
    let mut out = Vec::new();
    for (topk_mode, mode_name) in TOPK_MODES {
        let mut t = Table::new(
            format!(
                "Figure 10: {} avg relative error vs top-k size (s1 = {s1}, s2 = {S2}, p = \
                 {VIRTUAL_STREAMS}, {runs} runs, {mode_name})",
                d.name()
            ),
            &header_refs,
        );
        for topk in topk_values(d) {
            let mut bucket_errs = vec![Vec::with_capacity(runs); buckets.len()];
            let mut mem = 0usize;
            for r in 0..runs {
                let config = SynopsisConfig {
                    s1,
                    s2: S2,
                    virtual_streams: VIRTUAL_STREAMS,
                    topk,
                    independence: 4,
                    topk_probability: u16::MAX,
                    seed: 0xBEEF + r as u64 * 7919,
                };
                let (syn, _) = ms.feed(config, topk_mode);
                mem = syn.memory_bytes();
                for (errs, (_, _, qs)) in bucket_errs.iter_mut().zip(&buckets) {
                    if !qs.is_empty() {
                        errs.push(avg_relative_error(&syn, qs, QueryKind::Total));
                    }
                }
            }
            let mut row = vec![topk.to_string(), fmt_bytes(mem)];
            for (errs, (_, _, qs)) in bucket_errs.iter().zip(&buckets) {
                row.push(if qs.is_empty() { "-".into() } else { fmt_pct_spread(errs) });
            }
            t.row(row);
        }
        out.push(t);
    }
    out
}

/// Figure 11: SUM and PRODUCT workload selectivity histograms.
pub fn fig11(ctx: &mut Ctx) -> Vec<Table> {
    let (sums, products, total) = composite_workloads(ctx);
    let mut out = Vec::new();
    for (name, wl) in [("a — SUM", &sums), ("b — PRODUCT", &products)] {
        let mut sels: Vec<f64> = wl.iter().map(|q| q.selectivity).collect();
        sels.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let edges = quantile_edges(&sels, 4);
        let hist = selectivity_histogram(wl, &edges);
        let mut t = Table::new(
            format!(
                "Figure 11({name}) workload distribution ({} queries over {total} sequences)",
                wl.len()
            ),
            &["selectivity range", "# queries"],
        );
        for (lo, hi, n) in hist {
            t.row(vec![fmt_range(lo, hi), n.to_string()]);
        }
        out.push(t);
    }
    out
}

/// Figure 12: SUM (a,b) and PRODUCT (c,d) average relative errors vs
/// top-k at one `s1`, per top-k mode (cells as in [`fig10`]).  Both
/// workloads are evaluated against the *same* synopsis feeds (the
/// sketches don't depend on the workload), which halves the dominant
/// replay cost.
pub fn fig12(ctx: &mut Ctx, s1: usize) -> Vec<Table> {
    let (sums, products, _) = composite_workloads(ctx);
    let runs = ctx.scale.runs;
    let panels: Vec<(&str, QueryKind, Vec<WorkloadQuery>)> = vec![
        ("SUM", QueryKind::Total, sums),
        ("PRODUCT", QueryKind::Product, products),
    ];
    // Bucket each workload by its own selectivity quartiles.
    let bucketed: Vec<(&str, QueryKind, Vec<Bucket>)> = panels
        .into_iter()
        .map(|(name, kind, wl)| {
            let mut sels: Vec<f64> = wl.iter().map(|q| q.selectivity).collect();
            sels.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let edges = quantile_edges(&sels, 4);
            let buckets = edges
                .windows(2)
                .map(|w| {
                    let qs: Vec<WorkloadQuery> = wl
                        .iter()
                        .filter(|q| q.selectivity >= w[0] && q.selectivity < w[1])
                        .cloned()
                        .collect();
                    (w[0], w[1], qs)
                })
                .collect();
            (name, kind, buckets)
        })
        .collect();
    let ms = ctx.mapped(Dataset::Treebank, Dataset::Treebank.paper_k());
    let topks = topk_values(Dataset::Treebank);
    let mut out = Vec::new();
    for (topk_mode, mode_name) in TOPK_MODES {
        // errs[panel][topk_idx][bucket_idx][run], plus memory per topk.
        let mut errs: Vec<Vec<Vec<Vec<f64>>>> = bucketed
            .iter()
            .map(|(_, _, b)| vec![vec![Vec::with_capacity(runs); b.len()]; topks.len()])
            .collect();
        let mut mems = vec![0usize; topks.len()];
        for (ti, &topk) in topks.iter().enumerate() {
            for r in 0..runs {
                let config = SynopsisConfig {
                    s1,
                    s2: S2,
                    virtual_streams: VIRTUAL_STREAMS,
                    topk,
                    independence: 5, // products need 5-wise; supersedes 4-wise
                    topk_probability: u16::MAX,
                    seed: 0xBEEF + r as u64 * 7919,
                };
                let (syn, _) = ms.feed(config, topk_mode);
                mems[ti] = syn.memory_bytes();
                for (pi, (_, kind, buckets)) in bucketed.iter().enumerate() {
                    for (bi, (_, _, qs)) in buckets.iter().enumerate() {
                        if !qs.is_empty() {
                            errs[pi][ti][bi].push(avg_relative_error(&syn, qs, *kind));
                        }
                    }
                }
            }
        }
        for (pi, (name, _, buckets)) in bucketed.iter().enumerate() {
            let mut headers: Vec<String> = vec!["top-k".into(), "memory".into()];
            headers.extend(buckets.iter().map(|(lo, hi, _)| fmt_range(*lo, *hi)));
            let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
            let mut t = Table::new(
                format!(
                    "Figure 12: TREEBANK {name} workload avg relative error vs top-k (s1 = {s1}, \
                     {runs} runs, {mode_name})"
                ),
                &header_refs,
            );
            for (ti, &topk) in topks.iter().enumerate() {
                let mut row = vec![topk.to_string(), fmt_bytes(mems[ti])];
                for (bi, (_, _, qs)) in buckets.iter().enumerate() {
                    row.push(if qs.is_empty() {
                        "-".into()
                    } else {
                        fmt_pct_spread(&errs[pi][ti][bi])
                    });
                }
                t.row(row);
            }
            out.push(t);
        }
    }
    out
}

fn composite_workloads(ctx: &mut Ctx) -> (Vec<WorkloadQuery>, Vec<WorkloadQuery>, u64) {
    let buckets = ctx.bucketed_workload(Dataset::Treebank);
    let scale = ctx.scale.clone();
    let ms = ctx.mapped(Dataset::Treebank, Dataset::Treebank.paper_k());
    let base: Vec<WorkloadQuery> = buckets.into_iter().flat_map(|(_, _, qs)| qs).collect();
    let total = ms.exact.total();
    let sums = sum_workload(&base, scale.sum_queries, 3, total, 4242);
    let products = product_workload(&base, scale.product_queries, 2, total, 4243);
    (sums, products, total)
}

/// Log-spaced-by-quantile bucket edges over a sorted selectivity list.
fn quantile_edges(sorted: &[f64], buckets: usize) -> Vec<f64> {
    assert!(!sorted.is_empty());
    let mut edges = Vec::with_capacity(buckets + 1);
    for i in 0..buckets {
        edges.push(sorted[i * sorted.len() / buckets]);
    }
    edges.push(sorted[sorted.len() - 1] * 1.0000001);
    edges.dedup();
    edges
}

/// §7.6 / §7.7: stream-processing cost vs s1 and vs top-k size.
///
/// Unlike the error experiments this times the *full online path*
/// (EnumTree + Prüfer + mapping + sketch updates + top-k) through
/// `SketchTree::ingest`.
pub fn cost(ctx: &mut Ctx, d: Dataset) -> Vec<Table> {
    use sketchtree_core::{SketchTree, SketchTreeConfig};
    let s1s = s1_values(d);
    let topks = topk_values(d);
    let trees = (ctx.scale.trees(d) / 4).max(100);
    let spec = StreamSpec {
        dataset: d,
        n_trees: trees,
        seed: ctx.scale.seed,
    };
    let mut t = Table::new(
        format!(
            "Processing cost ({}, {} trees): paper reports ~2.3x when s1 doubles (TREEBANK), \
             ~1.6x for s1 50 to 75 (DBLP), and only marginal growth in top-k size",
            d.name(),
            trees
        ),
        &["s1", "top-k", "ingest (s)", "vs first row"],
    );
    let mut first = None;
    for &s1 in &s1s {
        for &topk in [topks[0], *topks.last().expect("non-empty")].iter() {
            let config = SketchTreeConfig {
                max_pattern_edges: d.paper_k(),
                synopsis: SynopsisConfig {
                    s1,
                    s2: S2,
                    virtual_streams: VIRTUAL_STREAMS,
                    topk,
                    independence: 4,
                    topk_probability: u16::MAX,
                    seed: 99,
                },
                maintain_summary: false,
                track_exact: false,
                ..SketchTreeConfig::default()
            };
            let mut st = SketchTree::new(config);
            st.set_topk_mode(TopKMode::Paper);
            let stream = spec.generate(st.labels_mut());
            let start = std::time::Instant::now();
            for tree in &stream {
                st.ingest(tree);
            }
            let secs = start.elapsed().as_secs_f64();
            let base = *first.get_or_insert(secs);
            t.row(vec![
                s1.to_string(),
                topk.to_string(),
                format!("{secs:.2}"),
                format!("{:.2}x", secs / base),
            ]);
        }
    }
    vec![t]
}

/// Figure 7 / §6.2: `*` and `//` query rewriting through the structural
/// summary, with exact verification.
pub fn wildcards(ctx: &mut Ctx) -> Vec<Table> {
    use sketchtree_core::{SketchTree, SketchTreeConfig};
    let spec = StreamSpec {
        dataset: Dataset::Treebank,
        n_trees: (ctx.scale.treebank_trees / 5).max(100),
        seed: ctx.scale.seed,
    };
    let config = SketchTreeConfig {
        max_pattern_edges: 4,
        synopsis: SynopsisConfig {
            s1: 50,
            s2: S2,
            virtual_streams: VIRTUAL_STREAMS,
            topk: 50,
            independence: 4,
            topk_probability: u16::MAX,
            seed: 5,
        },
        maintain_summary: true,
        track_exact: true,
        // `//` expansions must stay within max_pattern_edges (paper §6.2:
        // "we assume that the resulting tree patterns are within size k");
        // bound the expansion depth accordingly.
        expand_limits: sketchtree_core::summary::ExpandLimits {
            max_descendant_depth: 2,
            ..Default::default()
        },
        ..SketchTreeConfig::default()
    };
    let mut st = SketchTree::new(config);
    st.set_topk_mode(TopKMode::Paper);
    let mut trees = Vec::new();
    {
        let spec2 = spec.clone();
        spec2.for_each(st.labels_mut(), |t| trees.push(t));
    }
    for t in &trees {
        st.ingest(t);
    }
    let queries = [
        "VP(*,NP)",
        "S(NP(*),VP)",
        "S(//NN)",
        "NP(//JJ)",
        "VP(VBD,NP(DT,NN))",
    ];
    let mut t = Table::new(
        "Section 6.2: wildcard and descendant queries via the structural summary \
         (TREEBANK-like stream)",
        &["query", "exact", "estimate", "rel err"],
    );
    for q in queries {
        let exact = st.exact_count_ordered(q).expect("exact tracking on") as f64;
        let est = st.count_ordered(q).expect("valid query");
        let err = if exact > 0.0 {
            crate::runner::relative_error(exact, est)
        } else {
            0.0
        };
        t.row(vec![
            q.into(),
            format!("{exact:.0}"),
            format!("{est:.0}"),
            fmt_pct(err),
        ]);
    }
    vec![t]
}


/// Ablation: fingerprint degree vs collision rate (§6.1).  The paper picks
/// degree 31; this quantifies what smaller/larger degrees would do on a
/// real pattern population.
pub fn collisions(ctx: &mut Ctx) -> Vec<Table> {
    use sketchtree_tree::{LabelTable, PruferSeq};
    use std::collections::HashMap;

    let spec = StreamSpec {
        dataset: Dataset::Treebank,
        n_trees: (ctx.scale.treebank_trees / 2).max(200),
        seed: ctx.scale.seed,
    };
    let mut t = Table::new(
        "Section 6.1 ablation: Rabin fingerprint degree vs collision count \
         (distinct sequences merged by sharing a fingerprint)",
        &["degree", "distinct sequences", "distinct fingerprints", "collisions"],
    );
    // Collect distinct sequences once.
    let mut labels = LabelTable::new();
    let mut seqs: std::collections::HashSet<Vec<u64>> = Default::default();
    spec.for_each(&mut labels, |tree| {
        sketchtree_core::enumerate_patterns(&tree, 4, |root, edges| {
            let p = tree.project(root, edges);
            seqs.insert(PruferSeq::encode(&p).symbols());
        });
    });
    for degree in [16u32, 24, 31, 40, 61] {
        let fingerprinter = sketchtree_hash::RabinFingerprinter::new(degree, 7);
        let mut by_fp: HashMap<u64, u32> = HashMap::new();
        for s in &seqs {
            // Re-fingerprint the raw symbol tuples.
            *by_fp.entry(fingerprinter.fingerprint_symbols(s)).or_insert(0) += 1;
        }
        let distinct_fps = by_fp.len();
        t.row(vec![
            degree.to_string(),
            seqs.len().to_string(),
            distinct_fps.to_string(),
            (seqs.len() - distinct_fps).to_string(),
        ]);
    }
    vec![t]
}

/// The introduction's motivation, measured: synopsis memory is flat while
/// the deterministic per-pattern counter grows with the stream.
pub fn memory(ctx: &mut Ctx) -> Vec<Table> {
    let ms = ctx.mapped(Dataset::Treebank, 4);
    let mut t = Table::new(
        "Section 1 motivation: synopsis memory is fixed while the exact counter grows \
         with distinct patterns (the paper-scale streams reach 7-11M distinct patterns \
         = 100-180 MB of counters against the same fixed synopsis)",
        &[
            "pattern instances",
            "distinct patterns",
            "exact memory",
            "synopsis memory",
        ],
    );
    let config = SynopsisConfig {
        s1: 25,
        s2: S2,
        virtual_streams: VIRTUAL_STREAMS,
        topk: 50,
        independence: 4,
        topk_probability: u16::MAX,
        seed: 1,
    };
    let mut syn = sketchtree_sketch::StreamSynopsis::new(config);
    syn.set_topk_mode(TopKMode::Paper);
    let mut exact = sketchtree_core::ExactCounter::new();
    let checkpoints: Vec<usize> = (1..=5).map(|i| i * ms.len() / 5).collect();
    let mut next = 0usize;
    for (i, &v) in ms.values.iter().enumerate() {
        syn.insert(v);
        exact.record(v);
        if next < checkpoints.len() && i + 1 == checkpoints[next] {
            t.row(vec![
                (i + 1).to_string(),
                exact.distinct().to_string(),
                fmt_bytes(exact.memory_bytes()),
                fmt_bytes(syn.memory_bytes()),
            ]);
            next += 1;
        }
    }
    vec![t]
}

/// Ablation: SketchTree vs the Markov-table path estimator on linear-chain
/// queries (the only query class the Markov table supports).
pub fn paths(ctx: &mut Ctx) -> Vec<Table> {
    use sketchtree_core::{MarkovPathTable, SketchTree, SketchTreeConfig};
    let spec = StreamSpec {
        dataset: Dataset::Treebank,
        n_trees: (ctx.scale.treebank_trees / 2).max(200),
        seed: ctx.scale.seed,
    };
    let mut st = SketchTree::new(SketchTreeConfig {
        max_pattern_edges: 3,
        synopsis: SynopsisConfig {
            s1: 50,
            s2: S2,
            virtual_streams: VIRTUAL_STREAMS,
            topk: 50,
            independence: 4,
            topk_probability: u16::MAX,
            seed: 3,
        },
        maintain_summary: false,
        track_exact: true,
        ..SketchTreeConfig::default()
    });
    st.set_topk_mode(TopKMode::Paper);
    let mut markov = MarkovPathTable::new();
    let trees = spec.generate(st.labels_mut());
    for tree in &trees {
        st.ingest(tree);
        markov.observe(tree);
    }
    // Chain queries of length 3 and 4 over the grammar's frequent spines.
    let queries = [
        "S(NP(DT))",
        "S(VP(VBD))",
        "NP(NP(PP))",
        "VP(MD(VP))",
        "S(NP(NP(PP)))",
        "SBAR(IN(S(VP)))",
    ];
    let mut t = Table::new(
        format!(
            "Path-query ablation vs Markov table ({} KB) — SketchTree answers \
             arbitrary patterns, the Markov table only linear paths",
            markov.memory_bytes() / 1024
        ),
        &["path", "exact", "sketchtree", "markov"],
    );
    for q in queries {
        let exact = st.exact_count_ordered(q).expect("tracking on");
        let sk = st.count_ordered(q).expect("valid");
        // Convert the chain pattern text to the label path.
        let path: Vec<sketchtree_tree::Label> = q
            .replace(['(', ')'], " ")
            .split_whitespace()
            .filter_map(|n| st.labels().lookup(n))
            .collect();
        let mk = markov.estimate_path(&path);
        t.row(vec![
            q.into(),
            exact.to_string(),
            format!("{sk:.0}"),
            format!("{mk:.0}"),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ctx() -> Ctx {
        Ctx::new(Scale {
            treebank_trees: 120,
            dblp_trees: 150,
            runs: 1,
            queries_per_bucket: 10,
            sum_queries: 15,
            product_queries: 10,
            seed: 1,
        })
    }

    #[test]
    fn table1_runs() {
        let mut ctx = tiny_ctx();
        let tables = table1(&mut ctx);
        assert_eq!(tables[0].rows.len(), 2);
    }

    #[test]
    fn fig9_monotone_counts() {
        let mut ctx = tiny_ctx();
        let tables = fig9(&mut ctx);
        // Counts grow with k for TREEBANK.
        let counts: Vec<u64> = tables[1]
            .rows
            .iter()
            .map(|r| r[1].parse().unwrap())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
    }

    #[test]
    fn quantile_edges_cover() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64 / 1000.0).collect();
        let e = quantile_edges(&xs, 4);
        assert!(e.len() >= 2);
        assert!(e[0] <= xs[0]);
        assert!(*e.last().unwrap() > *xs.last().unwrap());
    }

    #[test]
    fn wildcards_runs() {
        let mut ctx = tiny_ctx();
        let tables = wildcards(&mut ctx);
        assert_eq!(tables[0].rows.len(), 5);
    }
}
