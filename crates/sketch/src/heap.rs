//! An indexed binary min-heap.
//!
//! Algorithm 4 of the paper maintains a min-heap `H` of estimated
//! frequencies alongside a list `L` of the tracked values, and needs three
//! operations a plain `BinaryHeap` cannot provide: peek/pop the minimum,
//! *remove an arbitrary tracked value* (when a tracked pattern reappears in
//! the stream it is pulled out, restored, and re-estimated), and membership
//! lookup with the stored frequency.  This indexed heap keys entries by a
//! `u64` value and keeps a position map for O(log n) removal by key.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The position map's hasher: one folded 64×64→128 multiply per key.
///
/// Keys are pattern values — Rabin fingerprints, already uniform — and
/// every heap swap re-inserts two of them, so SipHash's keyed rounds cost
/// a large share of a tracked value's bookkeeping.  What they protect
/// against, keys crafted to collide, is bounded here: a top-k heap never
/// holds more than its capacity `k`, so the worst probe is `k` slots long.
/// The hash only places keys in the map; the heap array, and with it
/// every tie-break Algorithm 4 makes, does not depend on it.
#[derive(Debug, Clone, Copy, Default)]
struct ValueHasher(u64);

impl Hasher for ValueHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        // The 2^64 / φ multiplier; folding the high half into the low one
        // spreads every input bit over both the bucket index (low bits)
        // and the control byte (high bits).
        let p = u128::from(x) * 0x9E37_79B9_7F4A_7C15;
        // lint:allow(L2, reason = "u128 -> u64 truncations split the product into its two halves on purpose")
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }
}

/// A min-heap of `(value, priority)` entries indexed by value.
#[derive(Debug, Clone, Default)]
pub struct IndexedMinHeap {
    /// Heap array of (value, priority).
    heap: Vec<(u64, i64)>,
    /// value → index in `heap`.
    pos: HashMap<u64, usize, BuildHasherDefault<ValueHasher>>,
}

impl IndexedMinHeap {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty heap pre-sized for `n` entries at a load factor low
    /// enough that churning (remove + reinsert, Algorithm 4's per-value
    /// discipline) never forces the position map to reallocate: hash
    /// tables near their load limit grow when deletions leave tombstone
    /// pressure, and the ingest hot path must stay allocation-free after
    /// construction.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            heap: Vec::with_capacity(n),
            pos: HashMap::with_capacity_and_hasher(n.saturating_mul(2), Default::default()),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The minimum priority, if any (the paper's `Root(H)`).
    pub fn min_priority(&self) -> Option<i64> {
        self.heap.first().map(|&(_, p)| p)
    }

    /// The entry with minimum priority.
    pub fn peek_min(&self) -> Option<(u64, i64)> {
        self.heap.first().copied()
    }

    /// The priority stored for `value`, if tracked.
    pub fn get(&self, value: u64) -> Option<i64> {
        let &i = self.pos.get(&value)?;
        self.heap.get(i).map(|&(_, p)| p)
    }

    /// True if `value` is tracked.
    pub fn contains(&self, value: u64) -> bool {
        self.pos.contains_key(&value)
    }

    /// Inserts a new entry.
    ///
    /// # Panics
    /// Panics if `value` is already tracked (callers must remove first —
    /// Algorithm 4's delete-then-reinsert discipline makes this a logic
    /// error, not a situation to paper over).
    pub fn insert(&mut self, value: u64, priority: i64) {
        assert!(
            !self.pos.contains_key(&value),
            "value {value} already tracked"
        );
        let i = self.heap.len();
        self.heap.push((value, priority));
        self.pos.insert(value, i);
        self.sift_up(i);
    }

    /// Adds 1 to `value`'s priority (saturating at `i64::MAX`) in place,
    /// returning the new priority, or `None` if `value` is not tracked.
    pub fn increment(&mut self, value: u64) -> Option<i64> {
        self.increment_unless(value, |_| false).map(|p| p.saturating_add(1))
    }

    /// Adds 1 to `value`'s priority (saturating at `i64::MAX`) in place
    /// unless `keep` holds for its current priority, with one position-map
    /// lookup either way.  Returns the priority found before any change,
    /// or `None` if `value` is not tracked.  A larger priority can only
    /// move an entry away from the root, so one sift-down restores the
    /// heap order.
    pub fn increment_unless(&mut self, value: u64, keep: impl FnOnce(i64) -> bool) -> Option<i64> {
        let i = *self.pos.get(&value)?;
        let entry = self.heap.get_mut(i)?;
        let found = entry.1;
        if !keep(found) {
            entry.1 = found.saturating_add(1);
            self.sift_down(i);
        }
        Some(found)
    }

    /// Removes and returns the minimum entry.
    pub fn pop_min(&mut self) -> Option<(u64, i64)> {
        if self.heap.is_empty() {
            return None;
        }
        Some(self.remove_at(0))
    }

    /// Removes an arbitrary tracked value, returning its priority.
    pub fn remove(&mut self, value: u64) -> Option<i64> {
        let i = *self.pos.get(&value)?;
        Some(self.remove_at(i).1)
    }

    /// Iterates `(value, priority)` in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, i64)> + '_ {
        self.heap.iter().copied()
    }

    fn remove_at(&mut self, i: usize) -> (u64, i64) {
        let last = self.heap.len() - 1;
        self.swap(i, last);
        // lint:allow(L1, reason = "both callers pass i < len, so the heap is non-empty")
        let removed = self.heap.pop().expect("non-empty");
        self.pos.remove(&removed.0);
        if i < self.heap.len() {
            // The element moved into position i may need to go either way.
            self.sift_down(i);
            self.sift_up(i);
        }
        removed
    }

    fn swap(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        self.heap.swap(a, b);
        // lint:allow(L1, reason = "Vec::swap on the line above already bounds-checked a and b")
        self.pos.insert(self.heap[a].0, a);
        // lint:allow(L1, reason = "Vec::swap above already bounds-checked a and b")
        self.pos.insert(self.heap[b].0, b);
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            // lint:allow(L1, reason = "i < len at every call site and parent < i")
            if self.heap[i].1 < self.heap[parent].1 {
                self.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut smallest = i;
            // lint:allow(L1, reason = "guarded by the l < len test on the same line; smallest <= i < len")
            if l < self.heap.len() && self.heap[l].1 < self.heap[smallest].1 {
                smallest = l;
            }
            // lint:allow(L1, reason = "guarded by the r < len test on the same line; smallest < len")
            if r < self.heap.len() && self.heap[r].1 < self.heap[smallest].1 {
                smallest = r;
            }
            if smallest == i {
                break;
            }
            self.swap(i, smallest);
            i = smallest;
        }
    }

    /// Debug invariant check: heap order and position-map consistency.
    #[cfg(test)]
    fn check_invariants(&self) {
        for i in 1..self.heap.len() {
            assert!(self.heap[(i - 1) / 2].1 <= self.heap[i].1, "heap order");
        }
        assert_eq!(self.pos.len(), self.heap.len());
        for (i, &(v, _)) in self.heap.iter().enumerate() {
            assert_eq!(self.pos[&v], i, "position map");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_min() {
        let mut h = IndexedMinHeap::new();
        assert!(h.is_empty());
        assert_eq!(h.min_priority(), None);
        h.insert(10, 5);
        h.insert(20, 3);
        h.insert(30, 8);
        h.check_invariants();
        assert_eq!(h.peek_min(), Some((20, 3)));
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn pop_in_priority_order() {
        let mut h = IndexedMinHeap::new();
        for (v, p) in [(1, 50), (2, 10), (3, 30), (4, 20), (5, 40)] {
            h.insert(v, p);
            h.check_invariants();
        }
        let mut priorities = Vec::new();
        while let Some((_, p)) = h.pop_min() {
            h.check_invariants();
            priorities.push(p);
        }
        assert_eq!(priorities, vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn remove_arbitrary() {
        let mut h = IndexedMinHeap::new();
        for (v, p) in [(1, 50), (2, 10), (3, 30), (4, 20), (5, 40)] {
            h.insert(v, p);
        }
        assert_eq!(h.remove(3), Some(30));
        h.check_invariants();
        assert_eq!(h.remove(3), None);
        assert!(!h.contains(3));
        assert_eq!(h.len(), 4);
        assert_eq!(h.get(5), Some(40));
        // Heap order preserved after removal.
        assert_eq!(h.pop_min(), Some((2, 10)));
        assert_eq!(h.pop_min(), Some((4, 20)));
    }

    #[test]
    fn remove_min_via_remove() {
        let mut h = IndexedMinHeap::new();
        h.insert(1, 1);
        h.insert(2, 2);
        assert_eq!(h.remove(1), Some(1));
        assert_eq!(h.peek_min(), Some((2, 2)));
    }

    #[test]
    #[should_panic]
    fn duplicate_insert_panics() {
        let mut h = IndexedMinHeap::new();
        h.insert(7, 1);
        h.insert(7, 2);
    }

    #[test]
    fn stress_against_reference() {
        use sketchtree_hash::SplitMix64;
        let mut h = IndexedMinHeap::new();
        let mut reference: std::collections::HashMap<u64, i64> = Default::default();
        let mut rng = SplitMix64::new(2024);
        for step in 0..2000 {
            match rng.next_below(4) {
                0 => {
                    let v = rng.next_below(64);
                    reference.entry(v).or_insert_with(|| {
                        let p = rng.next_below(1000) as i64;
                        h.insert(v, p);
                        p
                    });
                }
                1 => {
                    let v = rng.next_below(64);
                    assert_eq!(h.remove(v), reference.remove(&v), "step {step}");
                }
                2 => {
                    let v = rng.next_below(64);
                    let expect = reference.get_mut(&v).map(|p| {
                        *p += 1;
                        *p
                    });
                    assert_eq!(h.increment(v), expect, "step {step}");
                }
                _ => {
                    let expect = reference.values().min().copied();
                    assert_eq!(h.min_priority(), expect, "step {step}");
                    if let Some((v, p)) = h.pop_min() {
                        assert_eq!(reference.remove(&v), Some(p));
                        assert_eq!(Some(p), expect);
                    }
                }
            }
            h.check_invariants();
            assert_eq!(h.len(), reference.len());
        }
    }

    #[test]
    fn increment_sifts_down_and_saturates() {
        let mut h = IndexedMinHeap::new();
        for (v, p) in [(1, 10), (2, 11), (3, 12), (4, i64::MAX)] {
            h.insert(v, p);
        }
        assert_eq!(h.increment(1), Some(11));
        assert_eq!(h.increment(1), Some(12));
        assert_eq!(h.increment(1), Some(13));
        h.check_invariants();
        assert_eq!(h.peek_min(), Some((2, 11)));
        // The integer edge: a priority at i64::MAX stays there.
        assert_eq!(h.increment(4), Some(i64::MAX));
        h.check_invariants();
        assert_eq!(h.get(4), Some(i64::MAX));
        assert_eq!(h.increment(99), None);
        assert_eq!(h.len(), 4);
    }

    #[test]
    fn iter_visits_all() {
        let mut h = IndexedMinHeap::new();
        for v in 0..10 {
            h.insert(v, (10 - v) as i64);
        }
        let mut vals: Vec<u64> = h.iter().map(|(v, _)| v).collect();
        vals.sort_unstable();
        assert_eq!(vals, (0..10).collect::<Vec<_>>());
    }
}
