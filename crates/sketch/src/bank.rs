//! The boosted `s1 × s2` sketch array — Theorems 1 and 2 made executable.
//!
//! A [`SketchBank`] holds `s1 × s2` AMS counters in one contiguous `i64`
//! slab, with the matching ξ families packed in a shared [`XiSlab`].
//! Estimation follows the paper's Algorithm 2: within each of the `s2`
//! groups, average the `s1` per-sketch estimates (`Y_i`); return the median
//! of the `s2` averages.  Averaging controls accuracy (`s1 = 8·SJ(S)/ε²f²`
//! for relative error ε), the median controls confidence
//! (`s2 = 2·lg(1/δ)`).
//!
//! The bank evaluates one estimator itself: the point count `ξ_q·X` of
//! Theorem 1 from a precomputed sign row
//! ([`SketchBank::estimate_point_with_signs_into`]), the estimate the
//! top-k strategy takes on every insert.  Set counts (Theorem 2),
//! expression terms (Section 4) and the top-k *restore lists* that add
//! deleted heavy hitters back at query time (Section 5.2: replace `X` by
//! `X + Σ ξ_q f_q`) are compiled into [`crate::QueryPlan`]s, which read
//! the counters of several banks and boost through
//! [`SketchBank::boost`].
//!
//! ## Memory layout (the ingest hot path)
//!
//! Counters live in a single `Vec<i64>` (row-major: sketch `(i, j)` at
//! `i * s1 + j`); coefficients live in one shared slab with stride `k`.
//! A per-value update reduces the key mod 2⁶¹−1 *once*, then walks both
//! allocations linearly — no per-sketch pointer chase, no per-sketch
//! reduction.  All banks of a [`crate::StreamSynopsis`] share one
//! [`XiSlab`] through an [`Arc`], because they are constructed from the
//! same `(seed, s1, s2, independence)` (Section 5.3's shared-seed
//! requirement).

use crate::xislab::{XiSlab, INDEPENDENCE_RANGE};
use sketchtree_hash::kwise::sign_from_coefficients;
use sketchtree_hash::m61;
use std::sync::Arc;

/// A boosted array of AMS sketches over one counter slab.
///
/// ```
/// use sketchtree_sketch::SketchBank;
/// let mut bank = SketchBank::new(1, 60, 7, 4);
/// for _ in 0..500 { bank.update(3, 1); }
/// bank.update(9, 40);
/// let (mut signs, mut ys) = (Vec::new(), Vec::new());
/// bank.signs_into(3, &mut signs);
/// let est = bank.estimate_point_with_signs_into(&signs, &mut ys);
/// assert!((est - 500.0).abs() < 50.0);
/// ```
#[derive(Debug, Clone)]
pub struct SketchBank {
    s1: usize,
    s2: usize,
    /// ξ coefficient slab, one family per counter, stride `independence`.
    xi: Arc<XiSlab>,
    /// Row-major counter slab: sketch (i, j) at `i * s1 + j`, `i < s2`,
    /// `j < s1`.
    counters: Vec<i64>,
}

/// A read-only view of one sketch: its ξ coefficient row and counter.
///
/// `Copy`-cheap — two words and an integer — so estimator closures take it
/// by value.
#[derive(Debug, Clone, Copy)]
pub struct SketchView<'a> {
    coeffs: &'a [u64],
    x: i64,
}

impl SketchView<'_> {
    /// The ξ value for a key.
    #[inline]
    pub fn sign(&self, key: u64) -> i64 {
        sign_from_coefficients(self.coeffs, m61::reduce(key))
    }

    /// The raw counter `X`.
    #[inline]
    pub fn raw(&self) -> i64 {
        self.x
    }

    /// Unbiased second-moment estimate `X²` of `Σ f_i²`, squared in i128
    /// so that no counter overflows it.
    #[inline]
    pub fn second_moment(&self) -> i128 {
        // lint:allow(L3, reason = "two i64 factors: |x|^2 <= 2^126 < i128::MAX, so the square cannot overflow")
        i128::from(self.x) * i128::from(self.x)
    }
}

impl SketchBank {
    /// Creates a bank of `s1 × s2` sketches with ξ families of the given
    /// independence degree, deterministically derived from `seed`.
    ///
    /// Two banks constructed from the same `(seed, s1, s2, independence)`
    /// share identical ξ families — the property virtual streams rely on so
    /// their sketches can be added (Section 5.3).
    ///
    /// Degrees 2 and 3 are raised to 4, the least the point estimators'
    /// variance bound needs.
    ///
    /// # Panics
    /// Panics if `s1 == 0`, `s2 == 0`, or `independence` is outside
    /// [`INDEPENDENCE_RANGE`].
    pub fn new(seed: u64, s1: usize, s2: usize, independence: usize) -> Self {
        assert!(s1 > 0 && s2 > 0, "s1 and s2 must be positive");
        assert!(
            INDEPENDENCE_RANGE.contains(&independence),
            "independence degree must be in 2..=64, got {independence}"
        );
        let independence = independence.max(4);
        let xi = Arc::new(XiSlab::generate(seed, s1 * s2, independence));
        Self::with_shared_xi(xi, s1, s2)
    }

    /// Creates a bank whose ξ families come from an existing shared slab —
    /// the multi-bank synopsis builds *one* slab and hands every bank the
    /// same [`Arc`], instead of materialising `p` identical copies.
    ///
    /// The slab must have been generated from the same `(seed, s1 * s2,
    /// independence)` a fresh [`SketchBank::new`] would use; only the
    /// family count is checkable here.
    ///
    /// # Panics
    /// Panics if `s1 == 0`, `s2 == 0`, or the slab's family count is not
    /// `s1 * s2`.
    pub fn with_shared_xi(xi: Arc<XiSlab>, s1: usize, s2: usize) -> Self {
        assert!(s1 > 0 && s2 > 0, "s1 and s2 must be positive");
        assert_eq!(xi.families(), s1 * s2, "ξ slab family count must match s1 × s2");
        let counters = vec![0i64; s1 * s2];
        Self { s1, s2, xi, counters }
    }

    /// Accuracy knob: number of averaged sketches per group.
    #[inline]
    pub fn s1(&self) -> usize {
        self.s1
    }

    /// Confidence knob: number of median groups.
    #[inline]
    pub fn s2(&self) -> usize {
        self.s2
    }

    /// The independence degree of the ξ families.
    #[inline]
    pub fn independence(&self) -> usize {
        self.xi.independence()
    }

    /// Applies `count` occurrences of `value` to every sketch.
    ///
    /// Counters wrap on overflow: wrapping arithmetic is a group operation,
    /// so insert/delete symmetry (`X -= m·ξ_t` undoes `X += m·ξ_t`) holds
    /// mod 2⁶⁴ even across a wrap, whereas a panic or saturation would
    /// break it.
    ///
    /// The signs come straight from the ξ row kernel
    /// ([`XiSlab::for_each_sign`]) into the counters, so this equals
    /// [`SketchBank::signs_into`] followed by
    /// [`SketchBank::update_with_signs`] bit for bit, without the sign
    /// buffer.
    pub fn update(&mut self, value: u64, count: i64) {
        self.xi.for_each_sign(m61::reduce(value), &mut self.counters, |c, sign| {
            *c = c.wrapping_add(i64::from(sign).wrapping_mul(count));
        });
    }

    /// Memory footprint of the counters in bytes (the paper's "total memory
    /// allocated for the synopses" accounting: one 64-bit counter plus one
    /// seed word per sketch — the ξ families are recomputed from seeds, not
    /// stored, exactly as Section 3.1 notes).
    pub fn memory_bytes(&self) -> usize {
        self.counters.len() * (8 + 8)
    }

    /// Total number of sketches (`s1 × s2`).
    #[inline]
    pub fn num_sketches(&self) -> usize {
        self.counters.len()
    }

    /// View of sketch `idx` in `0..num_sketches()` (flat order,
    /// group-major).  Used by the multi-bank synopsis, which must combine
    /// per-sketch values *across* banks before boosting — sums of medians
    /// are not medians of sums.
    #[inline]
    pub fn sketch_at(&self, idx: usize) -> SketchView<'_> {
        SketchView {
            coeffs: self.xi.coefficients(idx),
            // lint:allow(L1, reason = "documented caller contract: idx in 0..num_sketches()")
            x: self.counters[idx],
        }
    }

    /// Adds `per_sketch(sketch_idx)` into `acc[idx]` for every sketch.
    pub fn accumulate(&self, acc: &mut [f64], per_sketch: impl Fn(SketchView<'_>) -> f64) {
        debug_assert_eq!(acc.len(), self.counters.len());
        for (idx, a) in acc.iter_mut().enumerate() {
            // lint:allow(L3, reason = "f64 accumulation cannot wrap; it saturates to infinity")
            *a += per_sketch(self.sketch_at(idx));
        }
    }

    /// Boosts a flat vector of per-sketch values laid out like this bank's
    /// sketches: mean over each group of `s1`, median over the `s2` groups.
    pub fn boost(&self, acc: &[f64]) -> f64 {
        debug_assert_eq!(acc.len(), self.counters.len());
        let mut ys: Vec<f64> = acc
            .chunks(self.s1)
            .map(|chunk| chunk.iter().sum::<f64>() / self.s1 as f64)
            .collect();
        median_in_place(&mut ys)
    }

    /// The `s2` per-group means of a flat per-sketch value vector — the
    /// same averaging as [`SketchBank::boost`] but *without* the final
    /// median, exposing the spread the median collapses.  Monitoring uses
    /// this as a variance proxy: Theorem 1 bounds each group mean's
    /// deviation, so widely scattered group means signal an estimator
    /// operating near (or past) its error budget.
    pub fn group_means(&self, acc: &[f64]) -> Vec<f64> {
        debug_assert_eq!(acc.len(), self.counters.len());
        acc.chunks(self.s1)
            .map(|chunk| chunk.iter().sum::<f64>() / self.s1 as f64)
            .collect()
    }

    /// Number of sketches whose counter is nonzero (occupancy diagnostic:
    /// a counter at exactly zero has either seen nothing or cancelled
    /// perfectly — both newsworthy to an operator).
    pub fn nonzero_counters(&self) -> usize {
        self.counters.iter().filter(|&&x| x != 0).count()
    }

    /// The counters in flat sketch order, borrowed (compiled query plans
    /// read them without copying).
    #[inline]
    pub(crate) fn counters(&self) -> &[i64] {
        &self.counters
    }

    /// The raw counter values in flat sketch order (for snapshots).
    pub fn counter_values(&self) -> Vec<i64> {
        self.counters.clone()
    }

    /// Restores raw counter values previously taken with
    /// [`SketchBank::counter_values`] on a bank with the same geometry and
    /// seed.
    ///
    /// # Panics
    /// Panics if the length does not match.
    pub fn set_counter_values(&mut self, values: &[i64]) {
        assert_eq!(values.len(), self.counters.len(), "snapshot geometry mismatch");
        self.counters.copy_from_slice(values);
    }

    /// Adds every counter of `other` into this bank elementwise.
    ///
    /// This is Section 5.3's linearity made explicit: two banks built from
    /// the same `(seed, s1, s2, independence)` share identical ξ families,
    /// so for each sketch `X_merged = X_a + X_b` is exactly the counter a
    /// single bank would hold after seeing both streams.  The ξ-family
    /// compatibility (same seed and independence) is the *caller's*
    /// contract — the bank stores neither seed nor derivation, so it can
    /// only verify geometry.  Addition wraps, matching the update path's
    /// mod-2⁶⁴ group semantics.
    ///
    /// # Panics
    /// Panics if the two banks' geometries (`s1`, `s2`) differ.
    pub fn merge_from(&mut self, other: &SketchBank) {
        assert!(
            self.s1 == other.s1 && self.s2 == other.s2,
            "bank geometry mismatch: {}x{} vs {}x{}",
            self.s1,
            self.s2,
            other.s1,
            other.s2
        );
        for (c, o) in self.counters.iter_mut().zip(&other.counters) {
            *c = c.wrapping_add(*o);
        }
    }

    /// Fills `buf` with the per-sketch ξ signs of `value` (±1 as `i8`).
    ///
    /// The ingest hot path evaluates each sketch's ξ polynomial for the
    /// same value several times (update, then the top-k frequency
    /// estimate, then possibly a deletion); computing the signs once and
    /// passing the buffer around roughly halves per-pattern cost.
    pub fn signs_into(&self, value: u64, buf: &mut Vec<i8>) {
        buf.clear();
        buf.resize(self.counters.len(), 0);
        self.xi.fill_signs_reduced(m61::reduce(value), buf);
    }

    /// The shared ξ slab backing this bank's sign families.
    #[inline]
    pub fn xi(&self) -> &XiSlab {
        &self.xi
    }

    /// Applies `count` occurrences of the value whose signs are in `signs`
    /// — a stride walk over the counter slab, no ξ evaluation at all.
    pub fn update_with_signs(&mut self, signs: &[i8], count: i64) {
        debug_assert_eq!(signs.len(), self.counters.len());
        for (c, &sg) in self.counters.iter_mut().zip(signs) {
            *c = c.wrapping_add(i64::from(sg).wrapping_mul(count));
        }
    }

    /// Point estimate of a value from its precomputed signs (Theorem 1 /
    /// Algorithm 2), with no restore list: the ingest path calls this
    /// right after restoring, so `X` is complete.  `ys` is a caller-owned
    /// group scratch buffer, so the per-value top-k estimate allocates
    /// nothing after warm-up.
    pub fn estimate_point_with_signs_into(&self, signs: &[i8], ys: &mut Vec<f64>) -> f64 {
        debug_assert_eq!(signs.len(), self.counters.len());
        ys.clear();
        // counters.len() == s1·s2 exactly, so chunks_exact visits every
        // group chunks() would — minus the per-chunk bounds bookkeeping.
        ys.extend(self.counters.chunks_exact(self.s1).zip(signs.chunks_exact(self.s1)).map(
            |(cs, sg)| {
                // lint:allow(L3, reason = "f64 sum cannot wrap; adding 0.0 turns a -0.0 group sum into +0.0")
                (cs.iter().zip(sg).map(|(&c, &g)| signed(g, c)).sum::<f64>() + 0.0)
                    / self.s1 as f64
            },
        ));
        median_in_place(ys)
    }
}

/// `ξ · c` as f64, for a sign `ξ = ±1`: the counter converts first and
/// is then multiplied by `±1.0`, so `c = i64::MIN` with `ξ = −1` gives
/// `+2⁶³`, the true product, where the integer product overflowed (a
/// panic in debug builds, `−2⁶³` after a wrap).  Rounding is symmetric,
/// so every nonzero term has the bits of `(ξ·c) as f64`.  A zero counter
/// under `ξ = −1` gives `−0.0` where the integer product gave `+0.0`;
/// that changes a sum only while every term so far is `−0.0`, so adding
/// `0.0` to the finished group sum restores its bits.  The factor comes
/// from the sign bit through a two-entry table: a saturating product, an
/// `f64::from(ξ)` multiply or a sign-bit xor each cost the per-insert
/// estimate more in a microbenchmark.
#[inline]
fn signed(g: i8, c: i64) -> f64 {
    const FACTOR: [f64; 2] = [1.0, -1.0];
    // lint:allow(L1, reason = "a u8 shifted right by 7 is 0 or 1, and FACTOR has two entries")
    c as f64 * FACTOR[usize::from(g.cast_unsigned() >> 7)]
}

/// Median of a mutable slice (average of middle two when even).
pub(crate) fn median_in_place(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty());
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        // lint:allow(L1, reason = "n >= 1 asserted above, so n / 2 < n")
        xs[n / 2]
    } else {
        // lint:allow(L1, reason = "even n is >= 2 here, so n / 2 - 1 and n / 2 are in bounds")
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// The estimators as per-sketch formulas — ξ by Horner through
/// [`SketchView::sign`], one median of means per call: the oracle the
/// production point estimate and the compiled plans (`plan::oracle`)
/// must match to the bit.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;
    use crate::expr::Term;

    /// Point estimate of the frequency of `value` (Theorem 1 / Algorithm 2
    /// with a single-query list).
    pub(crate) fn estimate_point(bank: &SketchBank, value: u64) -> f64 {
        estimate_point_restored(bank, value, &[])
    }

    /// Point estimate with a restore list (top-k compensation).
    pub(crate) fn estimate_point_restored(
        bank: &SketchBank,
        value: u64,
        restore: &[(u64, i64)],
    ) -> f64 {
        estimate_set_restored(bank, &[value], restore)
    }

    /// Estimate of `Σ_q f_q` for a set of *distinct* values (Theorem 2):
    /// per sketch, `Z = (Σ ξ_q) · X_eff`.
    pub(crate) fn estimate_set_restored(
        bank: &SketchBank,
        values: &[u64],
        restore: &[(u64, i64)],
    ) -> f64 {
        median_of_means(bank, |s| {
            let x_eff = effective_x(s, restore);
            let xi_sum: i64 = values.iter().map(|&v| s.sign(v)).sum();
            xi_sum as f64 * x_eff as f64
        })
    }

    /// Estimate of expanded expression terms (Section 4): per sketch,
    /// `Σ_terms coeff · X_effᵏ/k! · Πξ`.
    pub(crate) fn estimate_terms_restored(
        bank: &SketchBank,
        terms: &[Term],
        restore: &[(u64, i64)],
    ) -> f64 {
        median_of_means(bank, |s| {
            let x_eff = effective_x(s, restore) as f64;
            terms.iter().map(|t| term_value(s, t, x_eff)).sum::<f64>()
        })
    }

    /// Estimate of the self-join size `SJ(S) = Σ f_i²` via the AMS
    /// second-moment estimator (median of means of `X²`).
    pub(crate) fn estimate_self_join(bank: &SketchBank) -> f64 {
        median_of_means(bank, |s| s.second_moment() as f64)
    }

    /// Median over the `s2` groups of the mean over `s1` sketches of
    /// `per_sketch` — the boosting of Theorem 1.
    fn median_of_means(bank: &SketchBank, per_sketch: impl Fn(SketchView<'_>) -> f64) -> f64 {
        let mut ys: Vec<f64> = (0..bank.s2)
            .map(|i| {
                (0..bank.s1).map(|j| per_sketch(bank.sketch_at(i * bank.s1 + j))).sum::<f64>()
                    / bank.s1 as f64
            })
            .collect();
        median_in_place(&mut ys)
    }

    /// `X + Σ ξ_v · f_v` over the restore list.
    ///
    /// Saturating: frequencies near `i64::MIN/MAX` only occur in corrupted
    /// or hostile snapshots, and an estimate clamped at the integer edge is
    /// preferable to an overflow panic in the query path.
    pub(crate) fn effective_x(s: SketchView<'_>, restore: &[(u64, i64)]) -> i64 {
        let mut x = s.raw();
        for &(v, f) in restore {
            x = x.saturating_add(s.sign(v).saturating_mul(f));
        }
        x
    }

    /// `coeff · X^k/k! · Πξ` for one term.
    pub(crate) fn term_value(s: SketchView<'_>, t: &Term, x_eff: f64) -> f64 {
        let k = t.queries.len();
        let xi_prod: i64 = t.queries.iter().map(|&q| s.sign(q)).product();
        let factorial: f64 = (2..=k).map(|i| i as f64).product();
        // A term with an absurd product size degrades to ±inf rather than
        // silently truncating the exponent.
        let exp = i32::try_from(k).unwrap_or(i32::MAX);
        t.coeff as f64 * x_eff.powi(exp) / factorial * xi_prod as f64
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::{
        estimate_point, estimate_point_restored, estimate_self_join, estimate_set_restored,
        estimate_terms_restored,
    };
    use super::*;
    use crate::expr::Expr;
    use proptest::prelude::*;

    /// A small synthetic stream with known frequencies.
    fn fill(bank: &mut SketchBank, freqs: &[(u64, i64)]) {
        for &(v, f) in freqs {
            bank.update(v, f);
        }
    }

    #[test]
    fn point_estimate_accuracy() {
        let freqs: Vec<(u64, i64)> = (0..200u64).map(|i| (i, 1 + (i as i64 % 10))).collect();
        let mut bank = SketchBank::new(99, 120, 7, 4);
        fill(&mut bank, &freqs);
        // f_100 = 1 + 100 % 10 = 1; heavy value check instead: f_9 = 10.
        let est = estimate_point(&bank, 9);
        assert!((est - 10.0).abs() < 15.0, "est {est}");
        // Large frequency: est should be relatively accurate.
        let mut bank2 = SketchBank::new(7, 120, 7, 4);
        let mut freqs2 = freqs.clone();
        freqs2.push((777, 500));
        fill(&mut bank2, &freqs2);
        let est2 = estimate_point(&bank2, 777);
        assert!(
            (est2 - 500.0).abs() / 500.0 < 0.15,
            "relative error too high: {est2}"
        );
    }

    #[test]
    fn set_estimate_matches_sum() {
        let freqs: Vec<(u64, i64)> = vec![(1, 300), (2, 200), (3, 100), (4, 50), (5, 10)];
        let mut bank = SketchBank::new(5, 150, 7, 4);
        fill(&mut bank, &freqs);
        let est = estimate_set_restored(&bank, &[1, 2, 3], &[]);
        let truth = 600.0;
        assert!((est - truth).abs() / truth < 0.15, "est {est}");
    }

    #[test]
    fn restore_list_compensates_deletions() {
        let mut bank = SketchBank::new(21, 80, 7, 4);
        fill(&mut bank, &[(10, 400), (11, 30), (12, 5)]);
        // Delete the heavy hitter from the sketches, as top-k would.
        bank.update(10, -400);
        // Without compensation the estimate of 10 is ~0.
        let raw = estimate_point(&bank, 10);
        assert!(raw.abs() < 50.0, "deleted value still visible: {raw}");
        // With the restore list the estimate is exact-ish again.
        let est = estimate_point_restored(&bank, 10, &[(10, 400)]);
        assert!((est - 400.0).abs() / 400.0 < 0.1, "est {est}");
    }

    #[test]
    fn product_expression_estimate() {
        // Product of two counts: needs 5-wise ξ.
        let mut bank = SketchBank::new(31, 300, 9, 5);
        fill(&mut bank, &[(1, 120), (2, 80), (3, 40), (4, 10)]);
        let (terms, indep) = Expr::product_of_counts(&[1, 2]).expand().unwrap();
        assert_eq!(indep, 5);
        let est = estimate_terms_restored(&bank, &terms, &[]);
        let truth = 120.0 * 80.0;
        assert!(
            (est - truth).abs() / truth < 0.4,
            "est {est} vs truth {truth}"
        );
    }

    #[test]
    fn mixed_expression_estimate() {
        // C1 - C2: truth 120 - 80 = 40.
        let mut bank = SketchBank::new(41, 250, 9, 4);
        fill(&mut bank, &[(1, 120), (2, 80), (3, 40)]);
        let e = Expr::Sub(Box::new(Expr::Count(1)), Box::new(Expr::Count(2)));
        let (terms, _) = e.expand().unwrap();
        let est = estimate_terms_restored(&bank, &terms, &[]);
        assert!((est - 40.0).abs() < 25.0, "est {est}");
    }

    #[test]
    fn self_join_estimate() {
        let freqs: Vec<(u64, i64)> = vec![(1, 100), (2, 50), (3, 20)];
        let truth = (100 * 100 + 50 * 50 + 20 * 20) as f64;
        let mut bank = SketchBank::new(51, 200, 9, 4);
        fill(&mut bank, &freqs);
        let est = estimate_self_join(&bank);
        assert!((est - truth).abs() / truth < 0.2, "est {est} truth {truth}");
    }

    #[test]
    fn shared_seed_banks_have_identical_signs() {
        let a = SketchBank::new(8, 3, 2, 4);
        let b = SketchBank::new(8, 3, 2, 4);
        for i in 0..2 {
            for j in 0..3 {
                for v in [0u64, 5, 999] {
                    assert_eq!(a.sketch_at(i * 3 + j).sign(v), b.sketch_at(i * 3 + j).sign(v));
                }
            }
        }
    }

    #[test]
    fn shared_xi_bank_matches_owned_bank() {
        // with_shared_xi must be indistinguishable from new() given the
        // slab a fresh new() would build.
        let xi = Arc::new(XiSlab::generate(17, 4 * 3, 4));
        let mut shared = SketchBank::with_shared_xi(xi, 4, 3);
        let mut owned = SketchBank::new(17, 4, 3, 4);
        for v in [1u64, 2, 99, 1 << 40] {
            shared.update(v, 3);
            owned.update(v, 3);
        }
        assert_eq!(shared.counter_values(), owned.counter_values());
    }

    #[test]
    #[should_panic(expected = "family count")]
    fn shared_xi_rejects_wrong_family_count() {
        let xi = Arc::new(XiSlab::generate(17, 5, 4));
        SketchBank::with_shared_xi(xi, 4, 3);
    }

    #[test]
    fn sketches_within_bank_are_distinct() {
        let bank = SketchBank::new(8, 4, 2, 4);
        // Any two sketches should disagree on some key sign.
        let mut distinct = 0;
        for a in 0..8usize {
            for b in (a + 1)..8usize {
                let sa = bank.sketch_at(a);
                let sb = bank.sketch_at(b);
                if (0..64u64).any(|v| sa.sign(v) != sb.sign(v)) {
                    distinct += 1;
                }
            }
        }
        assert_eq!(distinct, 8 * 7 / 2);
    }

    #[test]
    fn median_in_place_basics() {
        assert_eq!(median_in_place(&mut [3.0]), 3.0);
        assert_eq!(median_in_place(&mut [1.0, 9.0]), 5.0);
        assert_eq!(median_in_place(&mut [9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median_in_place(&mut [4.0, 1.0, 9.0, 5.0]), 4.5);
    }

    #[test]
    fn memory_accounting() {
        let bank = SketchBank::new(0, 25, 7, 4);
        assert_eq!(bank.memory_bytes(), 25 * 7 * 16);
    }

    #[test]
    #[should_panic]
    fn zero_s1_rejected() {
        SketchBank::new(0, 0, 7, 4);
    }

    #[test]
    fn estimate_with_signs_survives_a_counter_at_i64_min() {
        // Only a hostile snapshot (or 2⁶³ of wrapped mass) puts a counter
        // at i64::MIN; the estimate must neither panic nor flip its sign.
        let mut bank = SketchBank::new(5, 1, 1, 4);
        bank.set_counter_values(&[i64::MIN]);
        let mut ys = Vec::new();
        assert_eq!(bank.estimate_point_with_signs_into(&[1], &mut ys), -(2f64.powi(63)));
        assert_eq!(bank.estimate_point_with_signs_into(&[-1], &mut ys), 2f64.powi(63));
    }

    /// The estimate as it was computed before `signed`: the integer
    /// product per term, which overflows at `i64::MIN`.
    fn integer_product_estimate(counters: &[i64], signs: &[i8], s1: usize) -> f64 {
        let mut ys: Vec<f64> = counters
            .chunks_exact(s1)
            .zip(signs.chunks_exact(s1))
            .map(|(cs, sg)| {
                cs.iter().zip(sg).map(|(&c, &g)| (i64::from(g) * c) as f64).sum::<f64>()
                    / s1 as f64
            })
            .collect();
        median_in_place(&mut ys)
    }

    proptest::proptest! {
        /// Sign-flipped terms give the integer product's estimate bit for
        /// bit wherever that product exists — zero counters under
        /// negative signs (the `−0.0` terms) included.
        #[test]
        fn signed_estimate_matches_the_integer_product(
            s1 in 1usize..4,
            s2 in 1usize..4,
            cells in proptest::prelude::prop::collection::vec(
                (
                    proptest::prop_oneof![
                        proptest::prelude::Just(0i64),
                        proptest::prelude::any::<i64>(),
                        proptest::prelude::Just(i64::MAX),
                        proptest::prelude::Just(i64::MIN + 1),
                        -3i64..3,
                    ],
                    proptest::prelude::any::<bool>(),
                ),
                9,
            ),
        ) {
            let n = s1 * s2;
            let counters: Vec<i64> = cells.iter().cycle().take(n).map(|&(c, _)| c).collect();
            let signs: Vec<i8> =
                cells.iter().cycle().take(n).map(|&(_, p)| if p { 1 } else { -1 }).collect();
            proptest::prop_assume!(!counters.contains(&i64::MIN));
            let mut bank = SketchBank::new(3, s1, s2, 4);
            bank.set_counter_values(&counters);
            let got = bank.estimate_point_with_signs_into(&signs, &mut Vec::new());
            let want = integer_product_estimate(&counters, &signs, s1);
            proptest::prop_assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    proptest::proptest! {
        /// The production point estimate — signs from the ξ row kernel,
        /// then the signed group sums — equals the Horner oracle over
        /// random streams at every degree a synopsis accepts from 4 up,
        /// bit for bit, except in the sign of a zero: the production
        /// estimate is always `+0.0` there, where the oracle's float
        /// product `−1.0 · 0.0` can leave `−0.0`.
        #[test]
        fn production_point_estimate_matches_the_oracle(
            seed in any::<u64>(),
            k in 4usize..=64,
            s1 in 1usize..6,
            s2 in 1usize..6,
            stream in prop::collection::vec(
                (
                    prop_oneof![
                        0u64..6,
                        any::<u64>(),
                        (0usize..3).prop_map(|i| [m61::P - 1, m61::P, u64::MAX][i]),
                    ],
                    prop_oneof![-3i64..4, any::<i64>()],
                ),
                0..24,
            ),
            absent in any::<u64>(),
        ) {
            let mut bank = SketchBank::new(seed, s1, s2, k);
            for &(v, c) in &stream {
                bank.update(v, c);
            }
            let (mut signs, mut ys) = (Vec::new(), Vec::new());
            for v in stream.iter().map(|&(v, _)| v).chain([absent]) {
                bank.signs_into(v, &mut signs);
                let got = bank.estimate_point_with_signs_into(&signs, &mut ys);
                let want = estimate_point(&bank, v);
                prop_assert!(
                    got.to_bits() == want.to_bits()
                        || (want == 0.0 && got.to_bits() == 0f64.to_bits()),
                    "value {}: production {:?} vs oracle {:?}",
                    v,
                    got,
                    want
                );
            }
        }

        /// Restore lists invert deletions algebraically: the estimate after
        /// deleting a value and restoring it equals the estimate before
        /// deleting.
        #[test]
        fn restore_inverts_delete(
            seed in any::<u64>(),
            freqs in prop::collection::btree_map(any::<u64>(), 1i64..100, 2..10),
        ) {
            let freqs: Vec<(u64, i64)> = freqs.into_iter().collect();
            let mut bank = SketchBank::new(seed, 4, 3, 4);
            for &(v, f) in &freqs {
                bank.update(v, f);
            }
            let (dv, df) = freqs[0];
            let before = estimate_point_restored(&bank, dv, &[]);
            bank.update(dv, -df);
            let after = estimate_point_restored(&bank, dv, &[(dv, df)]);
            prop_assert_eq!(before, after);
        }
    }

    #[test]
    fn zero_counters_under_negative_signs_estimate_plus_zero() {
        let mut bank = SketchBank::new(3, 3, 1, 4);
        bank.set_counter_values(&[0, 0, 0]);
        let est = bank.estimate_point_with_signs_into(&[-1, -1, -1], &mut Vec::new());
        assert_eq!(est.to_bits(), 0f64.to_bits());
    }

    #[test]
    fn merge_from_equals_single_bank_over_union_stream() {
        let mut a = SketchBank::new(17, 8, 3, 4);
        let mut b = SketchBank::new(17, 8, 3, 4);
        let mut whole = SketchBank::new(17, 8, 3, 4);
        for &(v, f) in &[(1u64, 10i64), (2, -3), (99, 1)] {
            a.update(v, f);
            whole.update(v, f);
        }
        for &(v, f) in &[(2u64, 5i64), (777, 40)] {
            b.update(v, f);
            whole.update(v, f);
        }
        a.merge_from(&b);
        assert_eq!(a.counter_values(), whole.counter_values());
    }

    #[test]
    #[should_panic(expected = "bank geometry mismatch")]
    fn merge_from_rejects_geometry_mismatch() {
        let mut a = SketchBank::new(17, 8, 3, 4);
        let b = SketchBank::new(17, 8, 2, 4);
        a.merge_from(&b);
    }

    #[test]
    fn independence_floor_is_four() {
        let bank = SketchBank::new(0, 1, 1, 2);
        assert_eq!(bank.independence(), 4);
    }

    #[test]
    #[should_panic(expected = "independence degree must be in 2..=64")]
    fn independence_above_kernel_bound_rejected() {
        SketchBank::new(0, 1, 1, 65);
    }
}
