//! k-wise independent ±1 random variables — the ξ families of AMS sketches.
//!
//! The AMS sketch (paper Section 3) maintains `X = Σ f_i ξ_i` where the
//! `ξ_i ∈ {−1, +1}` are *four-wise independent*: any four distinct ξ's are
//! jointly uniform.  Four-wise independence is exactly what makes
//! `E[ξ_q X] = f_q` and `Var[ξ_q X] ≤ SJ(S)` hold (Equations 1–2).  The
//! query-expression estimators of paper Section 4 need higher independence:
//! a product term over m distinct patterns needs (2m+1)-wise independent ξ's
//! (Appendix B uses 5-wise for pairs).
//!
//! [`KWiseSign`] evaluates a uniformly random polynomial of degree `k−1`
//! over the field `Z_p` with the Mersenne prime `p = 2^61 − 1` (fast
//! reduction; see [`crate::m61`]) and outputs the least-significant bit.
//! Over a field, a random degree-(k−1) polynomial is an exactly k-wise
//! independent uniform hash family; the low bit of a value uniform on
//! `[0, p)` has bias `1/(2p) < 2^{-61}` — negligible against the
//! `O(1/√s1)` estimation noise — and inherits the k-wise independence.
//! Keys are reduced mod `p`; SketchTree's mapped values are < 2^61 by
//! construction (fingerprint degree ≤ 61), so distinct values never alias.

use crate::m61;
use crate::splitmix::SplitMix64;

/// Exactly k-wise independent ±1 variables from a random polynomial over
/// `Z_p`, `p = 2^61 − 1`.
///
/// ```
/// use sketchtree_hash::KWiseSign;
/// let xi = KWiseSign::from_seed(42, 4);
/// let s = xi.sign(12345);
/// assert!(s == 1 || s == -1);
/// assert_eq!(s, KWiseSign::from_seed(42, 4).sign(12345)); // deterministic
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KWiseSign {
    /// Polynomial coefficients, constant term first. `coeffs.len() == k`.
    coeffs: Vec<u64>,
}

impl KWiseSign {
    /// Builds a k-wise independent family from a seed.
    ///
    /// `k` must be at least 2 (pairwise); AMS sketches use `k = 4`.
    ///
    /// # Panics
    /// Panics if `k < 2`.
    pub fn from_seed(seed: u64, k: usize) -> Self {
        assert!(k >= 2, "independence degree must be at least 2, got {k}");
        let mut rng = SplitMix64::new(seed);
        // A uniformly random polynomial over Z_p: all k coefficients
        // uniform in [0, p).  (A random polynomial of degree < k over a
        // field is k-wise independent even when high coefficients are zero:
        // the map coefficients → values-at-k-points is a bijection by
        // Lagrange interpolation.)  Rejection-sample the 61-bit range for
        // exact uniformity.
        let coeffs = (0..k)
            .map(|_| loop {
                let v = rng.next_u64() >> 3; // 61 bits
                if v < m61::P {
                    break v;
                }
            })
            .collect();
        Self { coeffs }
    }

    /// The independence degree k of this family.
    #[inline]
    pub fn independence(&self) -> usize {
        self.coeffs.len()
    }

    /// The polynomial coefficients over `Z_p`, constant term first.
    ///
    /// Exposed so callers that pack many families into one contiguous
    /// coefficient table (e.g. a sketch bank's ξ slab) can copy the exact
    /// coefficients this family evaluates — the signs then stay
    /// bit-identical to evaluating through [`KWiseSign::sign`].
    #[inline]
    pub fn coefficients(&self) -> &[u64] {
        &self.coeffs
    }

    /// Returns `+1` or `−1` for the given key.
    #[inline]
    pub fn sign(&self, key: u64) -> i64 {
        sign_from_coefficients(&self.coeffs, m61::reduce(key))
    }
}

/// The ±1 sign a coefficient slice (as returned by
/// [`KWiseSign::coefficients`]) assigns to an *already-reduced* key.
///
/// The caller applies [`m61::reduce`] once; hot loops that evaluate many
/// families against the same key reduce the key a single time instead of
/// once per family.  Evaluating through this function is bit-identical to
/// [`KWiseSign::sign`].
#[inline]
pub fn sign_from_coefficients(coeffs: &[u64], reduced_key: u64) -> i64 {
    // Horner's rule, one family at a time: whole sign rows (every insert
    // and every compiled query) use the sketch crate's slab kernel, which
    // yields the same canonical residue and so the same sign.
    let v = m61::eval_poly(coeffs, reduced_key);
    1 - 2 * ((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signs_are_plus_minus_one() {
        let xi = KWiseSign::from_seed(1, 4);
        for key in 0..1000u64 {
            assert!(matches!(xi.sign(key), 1 | -1));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = KWiseSign::from_seed(9, 6);
        let b = KWiseSign::from_seed(9, 6);
        for key in [0u64, 1, u64::MAX, 0xDEAD] {
            assert_eq!(a.sign(key), b.sign(key));
        }
    }

    #[test]
    fn different_seeds_give_different_families() {
        let a = KWiseSign::from_seed(1, 4);
        let b = KWiseSign::from_seed(2, 4);
        let agree = (0..256u64).filter(|&k| a.sign(k) == b.sign(k)).count();
        // Two independent families agree on ~half the keys; they must not be
        // identical or complementary.
        assert!(agree > 64 && agree < 192, "agree = {agree}");
    }

    /// Empirically check E[ξ] ≈ 0 for many independent seeds at a fixed key
    /// (the unbiasedness that makes the AMS estimator unbiased).
    #[test]
    fn empirical_mean_zero_over_seeds() {
        for key in [0u64, 7, 123_456_789] {
            let sum: i64 = (0..4000u64)
                .map(|s| KWiseSign::from_seed(s, 4).sign(key))
                .sum();
            assert!(sum.abs() < 250, "key {key}: biased sum {sum}");
        }
    }

    /// Empirically check pairwise decorrelation: E[ξ_a ξ_b] ≈ 0 over seeds.
    #[test]
    fn empirical_pairwise_decorrelation() {
        let pairs = [(1u64, 2u64), (0, u64::MAX), (100, 101)];
        for (a, b) in pairs {
            let sum: i64 = (0..4000u64)
                .map(|s| {
                    let xi = KWiseSign::from_seed(s, 4);
                    xi.sign(a) * xi.sign(b)
                })
                .sum();
            assert!(sum.abs() < 250, "({a},{b}): correlated sum {sum}");
        }
    }

    /// Empirically check 4-tuple decorrelation E[ξ_a ξ_b ξ_c ξ_d] ≈ 0,
    /// which is what the AMS variance bound actually uses.
    #[test]
    fn empirical_fourwise_decorrelation() {
        let sum: i64 = (0..4000u64)
            .map(|s| {
                let xi = KWiseSign::from_seed(s, 4);
                xi.sign(11) * xi.sign(22) * xi.sign(33) * xi.sign(44)
            })
            .sum();
        assert!(sum.abs() < 250, "correlated 4-tuple sum {sum}");
    }

    /// Exact exhaustive check of pairwise independence for a *small* field
    /// analogue is impractical here; instead verify the Lagrange argument's
    /// premise — evaluating the family at k distinct points as a function of
    /// the seed hits both signs for every point.
    #[test]
    fn every_key_sees_both_signs_across_seeds() {
        for key in [0u64, 1, 42, u64::MAX] {
            let mut saw_pos = false;
            let mut saw_neg = false;
            for s in 0..64u64 {
                match KWiseSign::from_seed(s, 4).sign(key) {
                    1 => saw_pos = true,
                    -1 => saw_neg = true,
                    _ => unreachable!(),
                }
            }
            assert!(saw_pos && saw_neg, "key {key} is degenerate");
        }
    }

    #[test]
    #[should_panic]
    fn k_below_two_rejected() {
        KWiseSign::from_seed(0, 1);
    }

    #[test]
    fn independence_reports_k() {
        assert_eq!(KWiseSign::from_seed(0, 7).independence(), 7);
    }
}
