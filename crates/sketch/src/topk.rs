//! Top-k frequent-value tracking — paper Section 5.2, Algorithm 4.
//!
//! Theorems 1 and 2 tie the memory needed for a target accuracy to the
//! *self-join size* `SJ(S) = Σ f_i²` of the mapped stream.  Since tree
//! pattern frequencies are heavily skewed, deleting the few heaviest values
//! from the sketches (AMS deletion is just subtraction) collapses `SJ` and
//! buys accuracy for free.  The tracker maintains up to `k` values with
//! their estimated frequencies (`H` + `L` of the paper, unified in one
//! indexed heap) and preserves the paper's **delete condition**: *if value
//! `v` is tracked with frequency `f_v`, then exactly `f_v` instances of `v`
//! have been deleted from the sketched stream.*
//!
//! At query time the deleted instances of tracked values that occur in the
//! query are virtually added back (the restore lists consumed by
//! [`crate::bank::SketchBank`]).

use crate::bank::SketchBank;
use crate::heap::IndexedMinHeap;

/// In Filter mode, every `REESTIMATE_PERIOD`-th occurrence of a tracked
/// value (counted by its tracked frequency) takes Algorithm 4's full
/// path — restore, estimate, re-admit — instead of the in-place count.
/// Without these re-estimates a tracked frequency only ever counts the
/// occurrences seen since admission, and products of counts drift.
pub const REESTIMATE_PERIOD: i64 = 16;

/// What [`TopKTracker::filter`] did with one occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FilterStep {
    /// Tracked: its frequency went up by one and the sketches were not
    /// touched.
    Counted,
    /// Tracked, but due for re-estimation: nothing changed, and the
    /// caller untracks it and runs Algorithm 4.
    Reestimate,
    /// Not tracked: nothing changed, and the caller runs Algorithm 4
    /// without the untrack lookup.
    Untracked,
}

/// True when the tracked-frequency `f_t` is due for re-estimation: its
/// next occurrence would make it a multiple of [`REESTIMATE_PERIOD`].
fn reestimate_due(f_t: i64) -> bool {
    f_t.saturating_add(1) % REESTIMATE_PERIOD == 0
}

/// Tracks the top-k most frequent values of a sketched stream.
#[derive(Debug, Clone)]
pub struct TopKTracker {
    capacity: usize,
    /// `H` and `L` of Algorithm 4 in one structure: tracked value →
    /// estimated frequency, min-heap ordered by frequency.
    tracked: IndexedMinHeap,
    /// Reusable group-mean buffer for the per-value frequency estimate —
    /// keeps the ingest hot path allocation-free after warm-up.
    est_scratch: Vec<f64>,
}

impl TopKTracker {
    /// Creates a tracker for up to `capacity` values (0 disables tracking).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            tracked: IndexedMinHeap::with_capacity(capacity),
            est_scratch: Vec::new(),
        }
    }

    /// The capacity `k`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of values currently tracked.
    pub fn len(&self) -> usize {
        self.tracked.len()
    }

    /// True if nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.tracked.is_empty()
    }

    /// The Filter rule for one occurrence of `t` (see
    /// [`crate::TopKMode::Filter`]): when `t` is tracked and its next
    /// frequency is not a multiple of [`REESTIMATE_PERIOD`], adds 1 to its
    /// tracked frequency in place and touches nothing else, with one
    /// position-map lookup.  The skipped sketch insert counts as one more
    /// deleted instance, so the delete condition holds by construction.
    pub(crate) fn filter(&mut self, t: u64) -> FilterStep {
        match self.tracked.increment_unless(t, reestimate_due) {
            None => FilterStep::Untracked,
            Some(f_t) if reestimate_due(f_t) => FilterStep::Reestimate,
            Some(_) => FilterStep::Counted,
        }
    }

    /// Removes `t` from the tracked set, returning its deleted-instance
    /// count so the caller can fold the restore into its own counter
    /// sweep (wrapping addition is associative, so one fused sweep lands
    /// bit-identical to separate restore and insert sweeps).  The caller
    /// *must* follow up with [`TopKTracker::process_restored_with_signs`]
    /// after updating the bank, or the delete condition breaks.
    pub fn untrack(&mut self, t: u64) -> Option<i64> {
        if self.capacity == 0 {
            return None;
        }
        self.tracked.remove(t)
    }

    /// Algorithm 4 lines 8–18 for a value whose deleted instances have
    /// already been restored to `bank` (via [`TopKTracker::untrack`]):
    /// estimate, then admit/evict/delete.
    pub fn process_restored_with_signs(&mut self, t: u64, bank: &mut SketchBank, signs: &[i8]) {
        if self.capacity == 0 {
            return;
        }
        // lint:allow(L2, reason = "float -> int `as` saturates at the i64 edges, which is the clamp we want")
        let est = bank.estimate_point_with_signs_into(signs, &mut self.est_scratch).round() as i64;
        let admit = est > 0
            && match self.tracked.min_priority() {
                _ if self.tracked.len() < self.capacity => true,
                Some(root) => est > root,
                None => false,
            };
        if admit {
            if self.tracked.len() == self.capacity {
                if let Some((r, f_r)) = self.tracked.pop_min() {
                    bank.update(r, f_r);
                }
            }
            self.tracked.insert(t, est);
            bank.update_with_signs(signs, -est);
        }
    }

    /// Merges another tracker's tracked set into this one, fixing up `bank`
    /// (which must already hold the *sum* of both sides' counters) so the
    /// delete condition keeps holding.
    ///
    /// A value tracked on both sides had `f_a` instances deleted from one
    /// stream and `f_b` from the other, so the merged stream is missing
    /// `f_a + f_b` — that sum becomes its merged tracked frequency.  A
    /// value tracked on one side only carries its frequency over.  If the
    /// union exceeds `k`, the lightest entries are evicted and their
    /// deleted instances added back to the bank (the same signed-update
    /// flush Algorithm 4 performs on eviction); ties break toward keeping
    /// the smaller value, matching [`TopKTracker::tracked_values`] order.
    ///
    /// # Panics
    /// Panics if the two trackers' capacities differ.
    pub fn merge_from(&mut self, other: &TopKTracker, bank: &mut SketchBank) {
        assert_eq!(
            self.capacity, other.capacity,
            "top-k capacity mismatch in merge"
        );
        if self.capacity == 0 {
            return;
        }
        let mut union: Vec<(u64, i64)> = self.tracked.iter().collect();
        for (v, f_b) in other.tracked.iter() {
            match union.iter_mut().find(|(u, _)| *u == v) {
                Some((_, f)) => *f = f.saturating_add(f_b),
                None => union.push((v, f_b)),
            }
        }
        union.sort_by_key(|&(v, f)| (std::cmp::Reverse(f), v));
        for &(r, f_r) in union.get(self.capacity..).unwrap_or_default() {
            bank.update(r, f_r);
        }
        union.truncate(self.capacity);
        self.tracked = IndexedMinHeap::with_capacity(self.capacity);
        for &(v, f) in &union {
            self.tracked.insert(v, f);
        }
    }

    /// The tracked frequency of `value`, if tracked.
    pub fn tracked_frequency(&self, value: u64) -> Option<i64> {
        self.tracked.get(value)
    }

    /// Restore list for a query over `values`: the tracked `(value, freq)`
    /// pairs among them (Section 5.2's query-time compensation
    /// `d = Σ ξ_q f_q`).
    pub fn restore_list(&self, values: &[u64]) -> Vec<(u64, i64)> {
        values
            .iter()
            .filter_map(|&v| self.tracked.get(v).map(|f| (v, f)))
            .collect()
    }

    /// All tracked `(value, frequency)` pairs, most frequent first
    /// (ties broken by value, so the output is deterministic regardless of
    /// internal heap layout — snapshots rely on this).
    pub fn tracked_values(&self) -> Vec<(u64, i64)> {
        let mut v: Vec<(u64, i64)> = self.tracked.iter().collect();
        v.sort_by_key(|&(val, f)| (std::cmp::Reverse(f), val));
        v
    }

    /// Memory footprint in bytes (value + frequency + heap index per slot).
    pub fn memory_bytes(&self) -> usize {
        self.capacity * (8 + 8 + 8)
    }

    /// Rebuilds the tracked set from a snapshot taken with
    /// [`TopKTracker::tracked_values`].  The sketches the entries were
    /// deleted from must be restored alongside, or the delete condition
    /// breaks.
    ///
    /// # Panics
    /// Panics if more entries than capacity, or on duplicate values.
    pub fn restore_tracked(&mut self, entries: &[(u64, i64)]) {
        assert!(
            entries.len() <= self.capacity,
            "snapshot has more tracked values than capacity"
        );
        self.tracked = IndexedMinHeap::with_capacity(self.capacity);
        for &(v, f) in entries {
            self.tracked.insert(v, f);
        }
    }
}

/// Straightforward forms of both top-k rules, kept as the reference the
/// ingest path must match to the bit: Algorithm 4 as published, with
/// Horner-evaluated signs and one counter sweep per step, and the Filter
/// rule stated directly on top of it.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use crate::bank::oracle::estimate_point;

    /// Algorithm 4: processes one stream value *after* the bank has been
    /// updated with its occurrence.
    pub(crate) fn process(topk: &mut TopKTracker, t: u64, bank: &mut SketchBank) {
        if topk.capacity == 0 {
            return;
        }
        // Lines 1–7: if t is tracked, add its deleted instances back and
        // untrack it, so the subsequent estimate sees the full stream.
        if let Some(f_t) = topk.tracked.remove(t) {
            bank.update(t, f_t);
        }
        // Line 8: estimate t's frequency from the (restored) sketches.
        let est = estimate_point(bank, t).round() as i64;
        // Lines 9–18: track t if it is positive and beats the current
        // minimum (or there is room).
        let admit = est > 0
            && match topk.tracked.min_priority() {
                _ if topk.tracked.len() < topk.capacity => true,
                Some(root) => est > root,
                None => false,
            };
        if admit {
            if topk.tracked.len() == topk.capacity {
                // Evict the least frequent tracked value: add its instances
                // back to the sketches (lines 10–13).
                if let Some((r, f_r)) = topk.tracked.pop_min() {
                    bank.update(r, f_r);
                }
            }
            // Track t and delete estFreq instances from the stream
            // (lines 14–18) — the delete condition holds again.
            topk.tracked.insert(t, est);
            bank.update(t, -est);
        }
    }

    /// Algorithm 4 with precomputed per-sketch signs for `t`: restore,
    /// then the ingest path's estimate-and-admit step.
    pub(crate) fn process_with_signs(
        topk: &mut TopKTracker,
        t: u64,
        bank: &mut SketchBank,
        signs: &[i8],
    ) {
        if let Some(f_t) = topk.untrack(t) {
            bank.update_with_signs(signs, f_t);
        }
        topk.process_restored_with_signs(t, bank, signs);
    }

    /// One occurrence of `t` under the Filter rule, sketch insert
    /// included: a tracked value whose next frequency is not a multiple
    /// of [`REESTIMATE_PERIOD`] only counts; anything else is inserted
    /// and goes through [`process`].
    pub(crate) fn filter_insert(topk: &mut TopKTracker, t: u64, bank: &mut SketchBank) {
        if let Some(f_t) = topk.tracked_frequency(t) {
            if f_t.saturating_add(1) % REESTIMATE_PERIOD != 0 {
                topk.tracked.increment(t);
                return;
            }
        }
        bank.update(t, 1);
        process(topk, t, bank);
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{filter_insert, process, process_with_signs};
    use super::*;
    use crate::bank::oracle::{estimate_point, estimate_point_restored, estimate_self_join};

    /// Feeds `freqs` one occurrence at a time, round-robin weighted, with
    /// top-k processing after every insertion — the Algorithm 1 + 4 loop.
    fn run_stream(bank: &mut SketchBank, topk: &mut TopKTracker, freqs: &[(u64, i64)]) {
        // Interleave to mimic a stream rather than batch insertion.
        let max_f = freqs.iter().map(|&(_, f)| f).max().unwrap();
        for round in 0..max_f {
            for &(v, f) in freqs {
                if round < f {
                    bank.update(v, 1);
                    process(topk, v, bank);
                }
            }
        }
    }

    #[test]
    fn heavy_hitters_get_tracked() {
        let freqs: Vec<(u64, i64)> = vec![(1, 500), (2, 400), (3, 10), (4, 5), (5, 2)];
        let mut bank = SketchBank::new(3, 60, 7, 4);
        let mut topk = TopKTracker::new(2);
        run_stream(&mut bank, &mut topk, &freqs);
        let tracked = topk.tracked_values();
        assert_eq!(tracked.len(), 2);
        let vals: Vec<u64> = tracked.iter().map(|&(v, _)| v).collect();
        assert!(vals.contains(&1), "tracked {tracked:?}");
        assert!(vals.contains(&2), "tracked {tracked:?}");
        // Tracked frequencies are near the truth.
        for (v, f) in tracked {
            let truth = if v == 1 { 500.0 } else { 400.0 };
            assert!(
                (f as f64 - truth).abs() / truth < 0.2,
                "value {v}: tracked {f} vs {truth}"
            );
        }
    }

    #[test]
    fn delete_condition_holds() {
        // After the run, estimating a tracked value *without* restore
        // should be near zero — its instances were deleted.
        let freqs: Vec<(u64, i64)> = vec![(1, 600), (2, 20), (3, 10)];
        let mut bank = SketchBank::new(13, 60, 7, 4);
        let mut topk = TopKTracker::new(1);
        run_stream(&mut bank, &mut topk, &freqs);
        assert_eq!(topk.len(), 1);
        let (v, f) = topk.tracked_values()[0];
        assert_eq!(v, 1);
        let raw = estimate_point(&bank, v);
        assert!(raw.abs() < 60.0, "deleted value still visible: {raw}");
        // Compensated estimate recovers the truth.
        let est = estimate_point_restored(&bank, v, &[(v, f)]);
        assert!((est - 600.0).abs() / 600.0 < 0.15, "est {est}");
    }

    #[test]
    fn tracking_reduces_self_join_size() {
        let freqs: Vec<(u64, i64)> = vec![(1, 500), (2, 300), (3, 8), (4, 6), (5, 4)];
        // Without top-k.
        let mut plain = SketchBank::new(77, 80, 7, 4);
        for &(v, f) in &freqs {
            plain.update(v, f);
        }
        // With top-k.
        let mut tracked_bank = SketchBank::new(77, 80, 7, 4);
        let mut topk = TopKTracker::new(2);
        run_stream(&mut tracked_bank, &mut topk, &freqs);
        let sj_plain = estimate_self_join(&plain);
        let sj_tracked = estimate_self_join(&tracked_bank);
        assert!(
            sj_tracked < sj_plain / 10.0,
            "SJ not reduced: plain {sj_plain}, tracked {sj_tracked}"
        );
    }

    #[test]
    fn restore_list_filters_to_query() {
        let freqs: Vec<(u64, i64)> = vec![(1, 300), (2, 200), (3, 5)];
        let mut bank = SketchBank::new(5, 60, 7, 4);
        let mut topk = TopKTracker::new(2);
        run_stream(&mut bank, &mut topk, &freqs);
        let r = topk.restore_list(&[1, 3, 99]);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].0, 1);
        assert!(topk.restore_list(&[42]).is_empty());
    }

    #[test]
    fn capacity_zero_disables_tracking() {
        let mut bank = SketchBank::new(1, 20, 3, 4);
        let mut topk = TopKTracker::new(0);
        for _ in 0..100 {
            bank.update(9, 1);
            process(&mut topk, 9, &mut bank);
        }
        assert!(topk.is_empty());
        // Stream untouched: estimate sees all 100.
        let est = estimate_point(&bank, 9);
        assert!((est - 100.0).abs() < 30.0, "est {est}");
    }

    #[test]
    fn eviction_prefers_keeping_heavier() {
        // Capacity 1; a heavy value then a light value: the light one must
        // not displace the heavy one.
        let mut bank = SketchBank::new(23, 60, 7, 4);
        let mut topk = TopKTracker::new(1);
        for _ in 0..400 {
            bank.update(1, 1);
            process(&mut topk, 1, &mut bank);
        }
        for _ in 0..5 {
            bank.update(2, 1);
            process(&mut topk, 2, &mut bank);
        }
        let tracked = topk.tracked_values();
        assert_eq!(tracked.len(), 1);
        assert_eq!(tracked[0].0, 1, "light value displaced heavy one");
    }

    #[test]
    fn reappearing_tracked_value_updates_frequency() {
        let mut bank = SketchBank::new(29, 60, 7, 4);
        let mut topk = TopKTracker::new(1);
        for _ in 0..100 {
            bank.update(7, 1);
            process(&mut topk, 7, &mut bank);
        }
        let f1 = topk.tracked_frequency(7).unwrap();
        for _ in 0..100 {
            bank.update(7, 1);
            process(&mut topk, 7, &mut bank);
        }
        let f2 = topk.tracked_frequency(7).unwrap();
        assert!(f2 > f1, "frequency did not grow: {f1} -> {f2}");
        assert!((f2 - 200).abs() < 40, "f2 = {f2}");
    }

    #[test]
    fn memory_accounting() {
        assert_eq!(TopKTracker::new(50).memory_bytes(), 50 * 24);
    }

    /// After a shard merge (bank counters summed, trackers merged with
    /// eviction flush), every value's compensated estimate must still be
    /// near its frequency in the *union* stream — i.e. the delete
    /// condition survives the merge, including for evicted entries.
    #[test]
    fn merge_preserves_delete_condition() {
        let shard_a: Vec<(u64, i64)> = vec![(1, 500), (3, 90), (5, 8)];
        let shard_b: Vec<(u64, i64)> = vec![(2, 400), (3, 120), (4, 60), (6, 3)];
        let mut bank_a = SketchBank::new(47, 80, 7, 4);
        let mut topk_a = TopKTracker::new(2);
        run_stream(&mut bank_a, &mut topk_a, &shard_a);
        let mut bank_b = SketchBank::new(47, 80, 7, 4);
        let mut topk_b = TopKTracker::new(2);
        run_stream(&mut bank_b, &mut topk_b, &shard_b);
        // The union of tracked sets ({1,3} and {2,3} here) exceeds k = 2,
        // so the merge must evict and flush.
        bank_a.merge_from(&bank_b);
        topk_a.merge_from(&topk_b, &mut bank_a);
        assert_eq!(topk_a.len(), 2);
        let truth: Vec<(u64, f64)> =
            vec![(1, 500.0), (2, 400.0), (3, 210.0), (4, 60.0), (5, 8.0), (6, 3.0)];
        for &(v, t) in &truth {
            let est = estimate_point_restored(&bank_a, v, &topk_a.restore_list(&[v]));
            assert!(
                (est - t).abs() < t.mul_add(0.2, 40.0),
                "value {v}: est {est} vs truth {t}"
            );
        }
    }

    #[test]
    fn merge_sums_frequencies_of_shared_values() {
        let mut bank = SketchBank::new(3, 10, 3, 4);
        let mut a = TopKTracker::new(4);
        let mut b = TopKTracker::new(4);
        a.restore_tracked(&[(7, 100), (8, 50)]);
        b.restore_tracked(&[(7, 30), (9, 10)]);
        a.merge_from(&b, &mut bank);
        assert_eq!(a.tracked_values(), vec![(7, 130), (8, 50), (9, 10)]);
        // Nothing evicted: the bank was untouched.
        assert!(bank.counter_values().iter().all(|&c| c == 0));
    }

    #[test]
    #[should_panic(expected = "top-k capacity mismatch")]
    fn merge_rejects_capacity_mismatch() {
        let mut bank = SketchBank::new(3, 10, 3, 4);
        let mut a = TopKTracker::new(4);
        let b = TopKTracker::new(5);
        a.merge_from(&b, &mut bank);
    }

    /// The precomputed-signs fast path must be bit-for-bit equivalent to
    /// the plain Algorithm 4 implementation.
    #[test]
    fn process_with_signs_equivalent_to_process() {
        let freqs: Vec<(u64, i64)> = vec![(1, 120), (2, 60), (3, 30), (4, 7), (5, 2)];
        let mut bank_a = SketchBank::new(31, 20, 5, 4);
        let mut topk_a = TopKTracker::new(2);
        let mut bank_b = SketchBank::new(31, 20, 5, 4);
        let mut topk_b = TopKTracker::new(2);
        let mut buf = Vec::new();
        let max_f = freqs.iter().map(|&(_, f)| f).max().unwrap();
        for round in 0..max_f {
            for &(v, f) in &freqs {
                if round < f {
                    bank_a.update(v, 1);
                    process(&mut topk_a, v, &mut bank_a);
                    bank_b.signs_into(v, &mut buf);
                    bank_b.update_with_signs(&buf, 1);
                    process_with_signs(&mut topk_b, v, &mut bank_b, &buf);
                }
            }
        }
        assert_eq!(topk_a.tracked_values(), topk_b.tracked_values());
        for v in [1u64, 2, 3, 4, 5, 999] {
            assert_eq!(estimate_point(&bank_a, v), estimate_point(&bank_b, v), "value {v}");
        }
    }

    /// A light value, then a heavy one, under the Filter rule: most of
    /// the heavy value's occurrences only count, and after every step the
    /// bank holds exactly the occurrences the tracker has not counted.
    #[test]
    fn filter_keeps_the_delete_condition() {
        let mut bank = SketchBank::new(29, 8, 3, 4);
        let mut topk = TopKTracker::new(2);
        filter_insert(&mut topk, 8, &mut bank);
        assert_eq!(topk.tracked_frequency(8), Some(1));
        let mut counted = 0;
        for n in 1..=100i64 {
            let before = bank.counter_values();
            filter_insert(&mut topk, 7, &mut bank);
            if bank.counter_values() == before {
                counted += 1;
            }
            let mut fresh = SketchBank::new(29, 8, 3, 4);
            for (v, n_v) in [(7, n), (8, 1)] {
                fresh.update(v, n_v - topk.tracked_frequency(v).unwrap_or(0));
            }
            assert_eq!(fresh.counter_values(), bank.counter_values(), "after {n}");
        }
        assert!(counted > 80, "only {counted} of 100 occurrences counted in place");
    }

    #[test]
    fn filter_steps_follow_the_reestimate_period() {
        let mut topk = TopKTracker::new(2);
        topk.restore_tracked(&[(1, 14), (2, 3)]);
        assert_eq!(topk.filter(1), FilterStep::Counted);
        assert_eq!(topk.tracked_frequency(1), Some(15));
        assert_eq!(topk.filter(1), FilterStep::Reestimate);
        assert_eq!(topk.tracked_frequency(1), Some(15), "re-estimates change nothing");
        assert_eq!(topk.filter(2), FilterStep::Counted);
        assert_eq!(topk.filter(9), FilterStep::Untracked);
        assert_eq!(TopKTracker::new(0).filter(9), FilterStep::Untracked);
    }

    /// The integer edge: a tracked frequency at `i64::MAX` saturates in
    /// place instead of overflowing, and the heap stays usable.
    #[test]
    fn filter_saturates_a_tracked_frequency_at_i64_max() {
        let mut topk = TopKTracker::new(2);
        topk.restore_tracked(&[(1, i64::MAX - 1), (2, 5)]);
        assert_eq!(topk.filter(1), FilterStep::Counted);
        assert_eq!(topk.tracked_frequency(1), Some(i64::MAX));
        for _ in 0..3 {
            assert_eq!(topk.filter(1), FilterStep::Counted);
            assert_eq!(topk.tracked_frequency(1), Some(i64::MAX));
        }
        assert_eq!(topk.tracked_values(), vec![(1, i64::MAX), (2, 5)]);
    }
}
