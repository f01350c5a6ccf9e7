//! The standing-query parity gate (see `scripts/check.sh`): for random
//! streams and a random set of registered queries — ordered, unordered,
//! wildcard, descendant and expression — every estimate produced by the
//! incremental evaluator (compiled plan, re-evaluated after each batch
//! under one read lock, as the server's push path does) is
//! **bit-identical** to an ad-hoc query issued at the same epoch through
//! the from-scratch pipeline.  This is the invariant that lets
//! subscribers trust pushed updates as if they had queried.
//!
//! The second property grows the label universe mid-stream, the way a
//! value-labelled stream does: fresh labels every batch, and a query
//! naming a label that only appears later (constant zero until then).

use sketchtree_core::concurrent::SharedSketchTree;
use sketchtree_core::sketchtree::{SketchTree, SketchTreeConfig};
use sketchtree_core::parse_expr;
use sketchtree_standing::{EstimateResult, QueryMode, QueryRegistry, QuerySpec};
use sketchtree_tree::{Label, Tree};
use std::collections::HashMap;

/// The query pool parity is checked against: every compilation path —
/// simple patterns, wildcard and descendant expansion (summary-backed),
/// unordered arrangements, and expression lowering.
const POOL: &[(QueryMode, &str)] = &[
    (QueryMode::Ordered, "L0(L1)"),
    (QueryMode::Ordered, "L0(*)"),
    (QueryMode::Ordered, "L0(//L3)"),
    (QueryMode::Ordered, "L1(L2,L3)"),
    (QueryMode::Unordered, "L0(L1,L2)"),
    (QueryMode::Unordered, "L2(*)"),
    (QueryMode::Expr, "COUNT_ord(L0(L1)) - COUNT(L2(L3))"),
    (QueryMode::Expr, "COUNT_ord(L0(L1)) * COUNT_ord(L1(L2))"),
];

fn config() -> SketchTreeConfig {
    SketchTreeConfig {
        max_pattern_edges: 3,
        ..SketchTreeConfig::default()
    }
}

/// Recomputes a pool query from scratch — the ad-hoc path a dashboard
/// without a subscription would take.
fn adhoc(st: &SketchTree, mode: QueryMode, text: &str) -> EstimateResult {
    match mode {
        QueryMode::Ordered => st.count_ordered(text).map_err(|e| e.to_string()),
        QueryMode::Unordered => st.count_unordered(text).map_err(|e| e.to_string()),
        QueryMode::Expr => st
            .estimate(&parse_expr(text).expect("pool expressions parse"))
            .map_err(|e| e.to_string()),
    }
}

/// Small random trees over the four pool labels.
fn arb_tree() -> impl proptest::prelude::Strategy<Value = Tree> {
    use proptest::prelude::*;
    let leaf = (0u32..4).prop_map(|l| Tree::leaf(Label(l)));
    leaf.prop_recursive(3, 12, 3, |inner| {
        ((0u32..4), prop::collection::vec(inner, 1..3))
            .prop_map(|(l, children)| Tree::node(Label(l), children))
    })
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]
    #[test]
    fn pushed_estimates_are_bit_identical_to_adhoc_at_same_epoch(
        trees in proptest::prop::collection::vec(arb_tree(), 1..30),
        mask in 1usize..(1 << POOL.len()),
        batch_size in 1usize..7,
    ) {
        let shared = SharedSketchTree::new(SketchTree::new(config()));
        shared.with_labels(|l| {
            for name in ["L0", "L1", "L2", "L3"] {
                l.intern(name);
            }
        });

        // Register the masked-in subset of the pool.
        let registry = QueryRegistry::new();
        let mut registered: Vec<(QueryMode, &str, String)> = Vec::new();
        for (i, &(mode, text)) in POOL.iter().enumerate() {
            if mask & (1 << i) != 0 {
                let spec = QuerySpec::parse(mode, text).expect("pool queries parse");
                let key = spec.key();
                registry.register(spec);
                registered.push((mode, text, key));
            }
        }

        for batch in trees.chunks(batch_size) {
            shared.ingest_batch(batch);
            // The incremental path: evaluate compiled plans and read the
            // epoch under one read lock, exactly as the server's push
            // dispatcher does after each ack.
            let (epoch, results) = shared.read(|st| (st.epoch(), registry.evaluate_all(st)));
            // The push carries the post-batch epoch…
            proptest::prop_assert_eq!(epoch, shared.epoch());
            let results: HashMap<String, EstimateResult> = results.into_iter().collect();
            // …and each estimate matches a from-scratch ad-hoc query at
            // that same epoch, to the bit.
            for (mode, text, key) in &registered {
                let want = shared.read(|st| adhoc(st, *mode, text));
                let got = results.get(key).expect("every registered query is pushed");
                match (got, &want) {
                    (Ok(g), Ok(w)) => proptest::prop_assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "{} diverged at epoch {}: pushed {} vs ad-hoc {}",
                        key, epoch, g, w
                    ),
                    (Err(g), Err(w)) => proptest::prop_assert_eq!(g, w),
                    (g, w) => proptest::prop_assert!(
                        false,
                        "{key}: pushed {g:?} but ad-hoc {w:?}"
                    ),
                }
            }
        }
        // Compiled-plan reuse really happened: once the structure went
        // quiet, evaluations stopped compiling.  (With a fixed label set
        // the structure can only move while new transitions appear, so
        // compilations are bounded by batches, not forced per batch —
        // asserting the exact count would over-fit; asserting the cap
        // catches a plan cache that never hits.)
        let batches = trees.chunks(batch_size).count() as u64;
        proptest::prop_assert!(
            registry.compilations() <= batches * registered.len() as u64
        );
    }
}

/// Queries whose labels all resolve before the first batch: compiled
/// once, whatever the stream interns afterwards.
const RESOLVED: &[(QueryMode, &str)] = &[
    (QueryMode::Ordered, "L0(L1)"),
    (QueryMode::Ordered, "L1(L2,L3)"),
    (QueryMode::Unordered, "L0(L1,L2)"),
    (QueryMode::Expr, "COUNT_ord(L0(L1)) - COUNT(L2(L3))"),
];

/// Queries naming `L5`, which the stream only produces from batch
/// `reveal` on.
const LATE: &[(QueryMode, &str)] = &[
    (QueryMode::Ordered, "L0(L5)"),
    (QueryMode::Unordered, "L5(L0,L1)"),
    (QueryMode::Expr, "COUNT_ord(L0(L5)) + COUNT_ord(L0(L1))"),
    (QueryMode::Ordered, "L5(*)"),
];

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]
    #[test]
    fn pushed_estimates_stay_bit_identical_while_the_label_universe_grows(
        trees in proptest::prop::collection::vec(arb_tree(), 4..24),
        batch_size in 1usize..5,
        reveal in 0usize..6,
    ) {
        let shared = SharedSketchTree::new(SketchTree::new(config()));
        let base: Vec<Label> = shared.with_labels(|l| {
            ["L0", "L1", "L2", "L3"].iter().map(|name| l.intern(name)).collect()
        });

        let registry = QueryRegistry::new();
        let resolved = QueryRegistry::new();
        let mut registered: Vec<(QueryMode, &str, String)> = Vec::new();
        for &(mode, text) in POOL.iter().chain(LATE) {
            let spec = QuerySpec::parse(mode, text).expect("pool queries parse");
            registered.push((mode, text, spec.key()));
            registry.register(spec);
        }
        for &(mode, text) in RESOLVED {
            resolved.register(QuerySpec::parse(mode, text).expect("resolved queries parse"));
        }

        let late_key = QuerySpec::parse(QueryMode::Ordered, "L0(L5)").unwrap().key();
        for (i, chunk) in trees.chunks(batch_size).enumerate() {
            // A fresh value label under L0 every batch, and from batch
            // `reveal` on the late label too.
            let fresh = shared.with_labels(|l| l.intern(&format!("v{i}")));
            let mut batch: Vec<Tree> = chunk.to_vec();
            batch.push(Tree::node(base[0], vec![Tree::leaf(fresh)]));
            if i >= reveal {
                let l5 = shared.with_labels(|l| l.intern("L5"));
                batch.push(Tree::node(base[0], vec![Tree::leaf(l5)]));
                batch.push(Tree::node(l5, vec![Tree::leaf(base[0]), Tree::leaf(base[1])]));
            }
            shared.ingest_batch(&batch);
            let (epoch, results) = shared.read(|st| {
                resolved.evaluate_all(st);
                (st.epoch(), registry.evaluate_all(st))
            });
            proptest::prop_assert_eq!(epoch, shared.epoch());
            let results: HashMap<String, EstimateResult> = results.into_iter().collect();
            for (mode, text, key) in &registered {
                let want = shared.read(|st| adhoc(st, *mode, text));
                let got = results.get(key).expect("every registered query is pushed");
                match (got, &want) {
                    (Ok(g), Ok(w)) => proptest::prop_assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "{} diverged at epoch {}: pushed {} vs ad-hoc {}",
                        key, epoch, g, w
                    ),
                    (Err(g), Err(w)) => proptest::prop_assert_eq!(g, w),
                    (g, w) => proptest::prop_assert!(false, "{key}: pushed {g:?} but ad-hoc {w:?}"),
                }
            }
            // Constant zero until the label exists, live from then on.
            let late = results[&late_key].as_ref().copied().unwrap_or(f64::NAN);
            if i < reveal {
                proptest::prop_assert_eq!(late.to_bits(), 0f64.to_bits());
            } else {
                proptest::prop_assert!(late != 0.0, "L0(L5) still zero after it appeared");
            }
        }
        // Fresh labels every batch never recompiled a resolved simple plan.
        proptest::prop_assert_eq!(resolved.compilations(), RESOLVED.len() as u64);
    }
}
