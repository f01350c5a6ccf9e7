//! A shared, contiguous table of ξ-family coefficients, and the one row
//! kernel that evaluates it.
//!
//! Every sketch in a bank — and, because all virtual-stream banks share the
//! master seed (paper Section 5.3), every sketch in the whole synopsis —
//! evaluates a k-wise independent sign family derived from
//! `SplitMix64::derive(seed, sketch_idx)`.  Storing each family in its own
//! heap allocation puts one pointer chase between every counter update and
//! its coefficients; packing all of them into one flat `u64` slab with a
//! fixed stride turns the per-value sign sweep into a linear walk over a
//! single allocation.
//!
//! The coefficients are *copied out of* [`KWiseSign`] instances constructed
//! exactly as before, and [`XiSlab::for_each_sign`] evaluates them in the
//! power basis rather than by Horner's rule.  Both end in the canonical
//! residue mod `2^61 − 1`, so the signs the slab produces are bit-identical
//! to [`KWiseSign`]'s at every degree in [`INDEPENDENCE_RANGE`] — the
//! property every snapshot- and merge-parity test in the workspace leans
//! on, and which this module's tests check family by family.

use sketchtree_hash::{m61, KWiseSign, SplitMix64};
use std::ops::RangeInclusive;

/// The ξ independence degrees a slab — and so a synopsis, a snapshot and
/// the CLI — accepts.  The upper end is the row kernel's bound: a family
/// of degree `k` sums `k` products of residues, each below `2^122`, and 64
/// of them are the most a `u128` holds unreduced.
pub const INDEPENDENCE_RANGE: RangeInclusive<usize> = 2..=64;

/// Packed ξ coefficients for `families` sign families of a common
/// independence degree `k`, family `i` occupying `coeffs[i*k .. (i+1)*k]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XiSlab {
    coeffs: Box<[u64]>,
    k: usize,
}

impl XiSlab {
    /// Generates `families` coefficient rows from `seed`, row `idx` drawn
    /// exactly like `KWiseSign::from_seed(SplitMix64::derive(seed, idx), k)`
    /// — same derivation, same rejection sampling, same coefficients.
    ///
    /// # Panics
    /// Panics if `families == 0` or `k` is outside [`INDEPENDENCE_RANGE`].
    pub fn generate(seed: u64, families: usize, k: usize) -> Self {
        assert!(families > 0, "a ξ slab needs at least one family");
        assert!(
            INDEPENDENCE_RANGE.contains(&k),
            "independence degree must be in 2..=64, got {k}"
        );
        let mut coeffs = Vec::with_capacity(families.saturating_mul(k));
        for idx in 0..families {
            // lint:allow(L2, reason = "usize -> u64 family index is widening on all supported targets")
            let family = KWiseSign::from_seed(SplitMix64::derive(seed, idx as u64), k);
            coeffs.extend_from_slice(family.coefficients());
        }
        Self { coeffs: coeffs.into_boxed_slice(), k }
    }

    /// The independence degree `k` (the per-family stride).
    #[inline]
    pub fn independence(&self) -> usize {
        self.k
    }

    /// Number of families packed in the slab.
    #[inline]
    pub fn families(&self) -> usize {
        self.coeffs.len() / self.k
    }

    /// The coefficient row of family `idx`, constant term first.
    ///
    /// # Panics
    /// Panics if `idx >= families()`.
    #[inline]
    pub fn coefficients(&self, idx: usize) -> &[u64] {
        // lint:allow(L3, reason = "idx * k cannot overflow: both factors are bounded by coeffs.len(), itself a successful allocation size")
        // lint:allow(L1, reason = "documented caller contract: idx < families(), so the slice is in bounds")
        &self.coeffs[idx * self.k..(idx + 1) * self.k]
    }

    /// The ξ row kernel: evaluates every family's sign for one key already
    /// reduced with [`m61::reduce`], in family order, handing family `i`'s
    /// sign (±1) to `apply(&mut out[i], sign)`.
    ///
    /// Every slab-wide sign sweep goes through here — the sign cache's
    /// row fill ([`XiSlab::fill_signs_reduced`]) and the direct counter
    /// update ([`crate::SketchBank::update`]) — at every degree in
    /// [`INDEPENDENCE_RANGE`].  The degree selects a compile-time
    /// instantiation of the kernel (`sign_row`), so each family's inner
    /// loop is unrolled to its exact length.
    ///
    /// # Panics
    /// Panics if `out.len() != families()`.
    #[inline]
    pub fn for_each_sign<T>(&self, reduced_key: u64, out: &mut [T], apply: impl FnMut(&mut T, i8)) {
        assert_eq!(out.len(), self.families(), "sign buffer must cover every family");
        // Comma-separated repetitions (`),*`), so no `)*` reads as a
        // multiplication to the L3 pass.
        macro_rules! by_degree {
            ($($k:literal),*) => {
                match self.k {
                    $($k => sign_row::<$k, T>(&self.coeffs, reduced_key, out, apply)),*,
                    // lint:allow(L1, reason = "generate() admits only INDEPENDENCE_RANGE = 2..=64, and every degree in it has an arm above")
                    k => unreachable!("ξ slab of degree {k} outside INDEPENDENCE_RANGE"),
                }
            };
        }
        by_degree!(
            2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25,
            26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47,
            48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63, 64
        );
    }

    /// Writes every family's sign for one already-reduced key into `out`
    /// (±1 as `i8`) — the sign-cache row fill, through
    /// [`XiSlab::for_each_sign`].
    ///
    /// # Panics
    /// Panics if `out.len() != families()`.
    #[inline]
    pub fn fill_signs_reduced(&self, reduced_key: u64, out: &mut [i8]) {
        self.for_each_sign(reduced_key, out, |o, sign| *o = sign);
    }
}

/// The row kernel at degree `K`, over a slab of `K`-coefficient rows.
///
/// The powers `x⁰ … x^{K−1}` are computed once per key.  Each family then
/// sums `Σ cᵢ·xⁱ` unreduced in a `u128` — its `K` multiplications are
/// independent, so they pipeline across the slab instead of stalling on
/// one serial Horner chain — and folds once with [`m61::reduce_wide`].
/// Every coefficient and power is a residue below `P < 2^61`, so each
/// product is below `2^122` and `K ≤ 64` of them fit in the `u128`.  The
/// fold returns the canonical residue in `[0, P)`, which is unique, so its
/// low bit — the sign — equals the Horner value's bit for bit.
#[inline]
fn sign_row<const K: usize, T>(
    coeffs: &[u64],
    x: u64,
    out: &mut [T],
    mut apply: impl FnMut(&mut T, i8),
) {
    let mut powers = [1u64; K];
    let mut power = 1u64;
    for slot in powers.iter_mut().skip(1) {
        power = m61::mul(power, x);
        *slot = power;
    }
    for (o, row) in out.iter_mut().zip(coeffs.chunks_exact(K)) {
        let mut acc = 0u128;
        for (&c, &p) in row.iter().zip(&powers) {
            // lint:allow(L3, reason = "c, p < 2^61, so each product is < 2^122, and at most K <= 64 of them sum below 2^128")
            acc += u128::from(c) * u128::from(p);
        }
        // lint:allow(L3, reason = "the bool is 0 or 1, so 2·b − 1 is ±1 and cannot overflow i8")
        let sign = 2 * i8::from(m61::reduce_wide(acc) & 1 == 0) - 1;
        apply(o, sign);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The keys where reduction and the field's edges meet.
    const EDGE_KEYS: [u64; 5] = [0, 1, m61::P - 1, m61::P, u64::MAX];

    /// Asserts the kernel's row for `key` equals `KWiseSign::sign` family
    /// by family, the family rebuilt from its seed exactly as a sketch
    /// would build it.
    fn assert_row_matches_kwise(slab: &XiSlab, seed: u64, key: u64) {
        let mut row = vec![0i8; slab.families()];
        slab.fill_signs_reduced(m61::reduce(key), &mut row);
        for (idx, &sign) in row.iter().enumerate() {
            // lint:allow(L2, reason = "usize -> u64 is widening")
            let family = KWiseSign::from_seed(SplitMix64::derive(seed, idx as u64), slab.independence());
            assert_eq!(
                i64::from(sign),
                family.sign(key),
                "k {} family {idx} key {key}",
                slab.independence()
            );
        }
    }

    /// The slab must reproduce the per-sketch construction bit for bit:
    /// same derivation chain, same coefficients.
    #[test]
    fn slab_matches_per_family_kwise() {
        let (seed, families, k) = (0x5EED, 12usize, 5usize);
        let slab = XiSlab::generate(seed, families, k);
        assert_eq!(slab.families(), families);
        assert_eq!(slab.independence(), k);
        for idx in 0..families {
            // lint:allow(L2, reason = "usize -> u64 is widening")
            let reference = KWiseSign::from_seed(SplitMix64::derive(seed, idx as u64), k);
            assert_eq!(slab.coefficients(idx), reference.coefficients());
        }
    }

    /// Every degree the slab admits, at the edge keys: the kernel row
    /// equals Horner evaluation through `KWiseSign::sign`.
    #[test]
    fn row_kernel_matches_kwise_at_every_degree() {
        for k in INDEPENDENCE_RANGE {
            let slab = XiSlab::generate(0xABCD, 9, k);
            for key in EDGE_KEYS.into_iter().chain([42, 1 << 61, 0xDEAD_BEEF_CAFE]) {
                assert_row_matches_kwise(&slab, 0xABCD, key);
            }
        }
    }

    #[test]
    fn out_of_range_degrees_rejected() {
        for k in [0usize, 1, 65, 1000] {
            assert!(std::panic::catch_unwind(|| XiSlab::generate(0, 3, k)).is_err(), "k {k}");
        }
    }

    #[test]
    #[should_panic]
    fn zero_families_rejected() {
        XiSlab::generate(0, 0, 4);
    }

    proptest! {
        /// Random seeds, degrees and keys (edge keys mixed in): the kernel
        /// row equals `KWiseSign::sign` family by family.
        #[test]
        fn row_kernel_matches_kwise_property(
            seed in any::<u64>(),
            k in INDEPENDENCE_RANGE,
            families in 1usize..24,
            key in prop_oneof![any::<u64>(), (0..EDGE_KEYS.len()).prop_map(|i| EDGE_KEYS[i])],
        ) {
            let slab = XiSlab::generate(seed, families, k);
            assert_row_matches_kwise(&slab, seed, key);
        }
    }
}
