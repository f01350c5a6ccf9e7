//! Property-based tests for the sketch machinery: algebraic invariants that
//! must hold for *every* input, independent of randomness.

use proptest::prelude::*;
use sketchtree_sketch::expr::{Expr, Term};
use sketchtree_sketch::heap::IndexedMinHeap;
use sketchtree_sketch::{SketchBank, StreamSynopsis, SynopsisConfig, TopKMode};
use std::collections::{BTreeMap, HashMap};

/// Skewed values: mostly a few heavy ones, so top-k tracks, re-estimates
/// and evicts, with a tail that reaches every partition.
fn skewed_value() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..4, 0u64..4, 0u64..4, 0u64..40]
}

/// The point estimate the top-k strategy takes on every insert: the
/// value's ξ sign row from the row kernel, then the signed group sums.
fn point_estimate(bank: &SketchBank, v: u64) -> f64 {
    let mut signs = Vec::new();
    bank.signs_into(v, &mut signs);
    bank.estimate_point_with_signs_into(&signs, &mut Vec::new())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Inserting then deleting any multiset of values returns every counter
    /// to zero — the linearity that top-k tracking and restore lists rely
    /// on.
    #[test]
    fn bank_insert_delete_cancels(ops in prop::collection::vec((any::<u64>(), 1i64..50), 1..40)) {
        let mut bank = SketchBank::new(7, 5, 3, 4);
        for &(v, c) in &ops {
            bank.update(v, c);
        }
        for &(v, c) in &ops {
            bank.update(v, -c);
        }
        for i in 0..bank.num_sketches() {
            prop_assert_eq!(bank.sketch_at(i).raw(), 0);
        }
    }

    /// A stream holding a single distinct value estimates that value
    /// *exactly* (ξ² = 1), for any frequency and any seed.
    #[test]
    fn single_value_exact(seed in any::<u64>(), v in any::<u64>(), f in 1i64..10_000) {
        let mut bank = SketchBank::new(seed, 5, 3, 4);
        bank.update(v, f);
        prop_assert_eq!(point_estimate(&bank, v), f as f64);
    }

    /// `update(v, c)` — the ξ row kernel writing straight into the
    /// counters — equals `signs_into` followed by `update_with_signs`, bit
    /// for bit, at every independence degree, for any count (wrapping
    /// included) and on counters that already hold state.
    #[test]
    fn signs_fast_path_equals_slow(
        seed in any::<u64>(),
        k in 2usize..=64,
        prior in prop::collection::vec((any::<u64>(), any::<i64>()), 0..4),
        v in prop_oneof![
            any::<u64>(),
            (0usize..5).prop_map(|i| [0, 1, (1u64 << 61) - 2, (1u64 << 61) - 1, u64::MAX][i]),
        ],
        f in any::<i64>(),
    ) {
        let mut a = SketchBank::new(seed, 6, 3, k);
        for &(pv, pc) in &prior {
            a.update(pv, pc);
        }
        let mut b = a.clone();
        a.update(v, f);
        let mut buf = Vec::new();
        b.signs_into(v, &mut buf);
        b.update_with_signs(&buf, f);
        prop_assert_eq!(a.counter_values(), b.counter_values());
    }

    /// Expression expansion is linear: expand(a + b) = expand(a) ∪ expand(b)
    /// and expand(a − a′) cancels when a and a′ are the same pattern set...
    /// (verified through the merged-coefficient form).
    #[test]
    fn expr_expansion_linearity(qs in prop::collection::btree_set(any::<u64>(), 2..6)) {
        let qs: Vec<u64> = qs.into_iter().collect();
        let sum = Expr::sum_of_counts(&qs);
        let (terms, _) = sum.expand().expect("distinct");
        prop_assert_eq!(terms.len(), qs.len());
        for t in &terms {
            prop_assert_eq!(t.coeff, 1);
            prop_assert_eq!(t.queries.len(), 1);
        }
    }

    /// Product expansion multiplies coefficients and concatenates query
    /// sets; required independence is 2k+1.
    #[test]
    fn expr_product_independence(qs in prop::collection::btree_set(any::<u64>(), 2..5)) {
        let qs: Vec<u64> = qs.into_iter().collect();
        let prod = Expr::product_of_counts(&qs);
        let (terms, indep) = prod.expand().expect("distinct");
        prop_assert_eq!(terms.len(), 1);
        prop_assert_eq!(terms[0].queries.len(), qs.len());
        prop_assert_eq!(indep, 2 * qs.len() + 1);
    }

    /// The indexed heap behaves exactly like a BTreeMap used as a priority
    /// structure, under arbitrary operation sequences.
    #[test]
    fn heap_matches_model(ops in prop::collection::vec((0u8..4, 0u64..32, 0i64..100), 1..200)) {
        let mut heap = IndexedMinHeap::new();
        let mut model: BTreeMap<u64, i64> = BTreeMap::new();
        for (op, v, p) in ops {
            match op {
                0 => {
                    model.entry(v).or_insert_with(|| {
                        heap.insert(v, p);
                        p
                    });
                }
                1 => {
                    prop_assert_eq!(heap.remove(v), model.remove(&v));
                }
                2 => {
                    let expect = model.get_mut(&v).map(|q| {
                        *q += 1;
                        *q
                    });
                    prop_assert_eq!(heap.increment(v), expect);
                }
                _ => {
                    let min_model = model.values().min().copied();
                    prop_assert_eq!(heap.min_priority(), min_model);
                    if let Some((hv, hp)) = heap.pop_min() {
                        prop_assert_eq!(Some(hp), min_model);
                        prop_assert_eq!(model.remove(&hv), Some(hp));
                    }
                }
            }
            prop_assert_eq!(heap.len(), model.len());
        }
    }

    /// Top-k delete condition: at any moment, adding tracked frequencies
    /// back restores the exact single-value stream (checked on a stream of
    /// one distinct value where everything is analytic), in both modes.
    #[test]
    fn topk_delete_condition_single_value(
        seed in any::<u64>(),
        n in 1i64..200,
        filter in any::<bool>(),
    ) {
        let mode = if filter { TopKMode::Filter } else { TopKMode::Paper };
        let mut syn = StreamSynopsis::new(SynopsisConfig {
            s1: 4,
            s2: 3,
            virtual_streams: 1,
            topk: 1,
            independence: 4,
            topk_probability: u16::MAX,
            seed,
        });
        syn.set_topk_mode(mode);
        for _ in 0..n {
            syn.insert(42);
        }
        // Either tracked (then raw estimate + tracked freq == n) or not
        // (then raw estimate == n).
        let state = syn.export_state();
        let mut bank = SketchBank::new(seed, 4, 3, 4);
        bank.set_counter_values(&state.bank_counters[0]);
        let raw = point_estimate(&bank, 42);
        let tracked = state.tracked[0].first().map_or(0, |&(_, f)| f);
        prop_assert_eq!(raw + tracked as f64, n as f64);
    }

    /// The synopsis point estimate of an isolated heavy value is within
    /// noise of the truth for any seed (a weak but fully general bound:
    /// the value is 100× heavier than everything else combined).
    #[test]
    fn synopsis_heavy_value_sane(seed in any::<u64>()) {
        let mut syn = StreamSynopsis::new(SynopsisConfig {
            s1: 40,
            s2: 5,
            virtual_streams: 7,
            topk: 2,
            independence: 4,
            topk_probability: u16::MAX,
            seed,
        });
        for _ in 0..500 {
            syn.insert(1000);
        }
        for v in 0..5u64 {
            syn.insert(v);
        }
        let est = syn.estimate_count(1000);
        prop_assert!((est - 500.0).abs() < 50.0, "est {}", est);
    }

    /// estimate_terms rejects within-term duplicates for any query value.
    #[test]
    fn duplicate_queries_always_rejected(q in any::<u64>()) {
        let syn = StreamSynopsis::new(SynopsisConfig {
            s1: 2,
            s2: 2,
            virtual_streams: 3,
            topk: 0,
            independence: 5,
            topk_probability: u16::MAX,
            seed: 1,
        });
        let t = Term { coeff: 1, queries: vec![q, q] };
        prop_assert!(syn.estimate_terms(&[t]).is_err());
    }

    /// The delete condition, bit for bit: after random streams, snapshot
    /// restores mid-stream and shard merges, with top-k sampled or not,
    /// every partition's counters equal a fresh bank fed `n_v − f_v` of
    /// each of its values `v` (`n_v` occurrences in all shards, `f_v` its
    /// tracked frequency, 0 when untracked).  Each shard draws its top-k
    /// mode before and after its restore, so shards built under different
    /// modes merge, and a mode continues state the other one built.
    #[test]
    fn delete_condition_holds_bit_for_bit(
        seed in any::<u64>(),
        sampled in any::<bool>(),
        topk in 0usize..4,
        shards in prop::collection::vec(
            (
                prop::collection::vec(skewed_value(), 0..400),
                0usize..400,
                prop_oneof![Just(TopKMode::Paper), Just(TopKMode::Filter)],
                prop_oneof![Just(TopKMode::Paper), Just(TopKMode::Filter)],
            ),
            1..4,
        ),
    ) {
        let config = SynopsisConfig {
            s1: 4,
            s2: 3,
            virtual_streams: 3,
            topk,
            independence: 4,
            topk_probability: if sampled { u16::MAX / 3 } else { u16::MAX },
            seed,
        };
        let mut exact: HashMap<u64, i64> = HashMap::new();
        let mut merged: Option<StreamSynopsis> = None;
        for (values, cut, before, after) in &shards {
            let cut = (*cut).min(values.len());
            let mut syn = StreamSynopsis::new(config.clone());
            syn.set_topk_mode(*before);
            for &v in &values[..cut] {
                syn.insert(v);
            }
            // Restore mid-stream, then keep streaming into the restored copy.
            let mut syn = StreamSynopsis::from_state(config.clone(), syn.export_state());
            syn.set_topk_mode(*after);
            for &v in &values[cut..] {
                syn.insert(v);
            }
            for &v in values {
                *exact.entry(v).or_insert(0) += 1;
            }
            match &mut merged {
                None => merged = Some(syn),
                Some(m) => m.merge_from(&syn).expect("identical configs merge"),
            }
        }
        let state = merged.expect("at least one shard").export_state();
        for (b, counters) in state.bank_counters.iter().enumerate() {
            let tracked: HashMap<u64, i64> = state.tracked[b].iter().copied().collect();
            let mut fresh = SketchBank::new(seed, 4, 3, 4);
            for (&v, &n) in &exact {
                if v % 3 == b as u64 {
                    fresh.update(v, n.wrapping_sub(tracked.get(&v).copied().unwrap_or(0)));
                }
            }
            prop_assert_eq!(&fresh.counter_values(), counters, "partition {}", b);
        }
    }
}
