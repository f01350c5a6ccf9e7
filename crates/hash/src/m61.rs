//! Arithmetic modulo the Mersenne prime `p = 2^61 − 1`.
//!
//! The k-wise independent ξ families evaluate one random polynomial per
//! sketch per stream value — the single hottest operation in SketchTree's
//! update path (each pattern instance touches `s1 × s2` sketches).  Working
//! modulo a Mersenne prime keeps reduction to two shifts and adds on top of
//! a native 64×64→128 multiply, an order of magnitude faster than portable
//! carry-less GF(2^64) multiplication while still giving a true finite
//! field (so random polynomials remain *exactly* k-wise independent).

/// The Mersenne prime `2^61 − 1`.
pub const P: u64 = (1u64 << 61) - 1;

/// Reduces any `u64` into `[0, P)`.
#[inline]
pub fn reduce(x: u64) -> u64 {
    let r = (x & P) + (x >> 61);
    if r >= P {
        r - P
    } else {
        r
    }
}

/// Reduces any `u128` into `[0, P)`.
///
/// Splits `x` into 61-bit limbs, `x = a2·2^122 + a1·2^61 + a0`; since
/// `2^61 ≡ 1 (mod P)`, `x ≡ a0 + a1 + a2`, and that sum is below `2^63`,
/// so one [`reduce`] makes it canonical.  This is the single fold an
/// unreduced sum of up to 64 products of residues needs (each product is
/// below `2^122`, so 64 of them stay below `2^128`).
#[inline]
pub fn reduce_wide(x: u128) -> u64 {
    let a0 = (x as u64) & P;
    let a1 = ((x >> 61) as u64) & P;
    let a2 = (x >> 122) as u64; // < 2^6
    reduce(a0 + a1 + a2)
}

/// Addition mod P (inputs must be `< P`).
#[inline]
pub fn add(a: u64, b: u64) -> u64 {
    debug_assert!(a < P && b < P);
    let s = a + b; // < 2^62, no overflow
    if s >= P {
        s - P
    } else {
        s
    }
}

/// Multiplication mod P (inputs must be `< P`).
#[inline]
pub fn mul(a: u64, b: u64) -> u64 {
    debug_assert!(a < P && b < P);
    let x = u128::from(a) * u128::from(b); // < 2^122
    // Fold: x = hi·2^61 + lo ≡ hi + lo (mod 2^61 − 1).
    let lo = (x as u64) & P;
    let hi = (x >> 61) as u64; // < 2^61
    let s = lo + hi; // < 2^62
    reduce(s)
}

/// Evaluates `coeffs[0] + coeffs[1]·x + … ` at `x` by Horner's rule.
/// Coefficients and point must be `< P`.
#[inline]
pub fn eval_poly(coeffs: &[u64], x: u64) -> u64 {
    let mut acc = 0u64;
    for &c in coeffs.iter().rev() {
        acc = add(mul(acc, x), c);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_range_and_fixed_points() {
        assert_eq!(reduce(0), 0);
        assert_eq!(reduce(P), 0);
        assert_eq!(reduce(P - 1), P - 1);
        assert_eq!(reduce(P + 5), 5);
        assert!(reduce(u64::MAX) < P);
        // u64::MAX = 2^64 - 1 = 8·(2^61 - 1) + 7 → 7 + ... let's verify by
        // direct modular arithmetic.
        assert_eq!(reduce(u64::MAX), (u64::MAX % P));
    }

    #[test]
    fn reduce_wide_matches_u128_reference() {
        let p = u128::from(P);
        let max_sum = 64 * (p - 1) * (p - 1); // the row kernel's worst case
        let mut s = 0x9E37_79B9_7F4A_7C15u128;
        let mut vals = vec![0u128, 1, p - 1, p, p + 1, 2 * p, p * p, max_sum, u128::MAX];
        for _ in 0..200 {
            s = s.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(0x1234_5678_9ABC_DEF1);
            vals.push(s);
        }
        for x in vals {
            assert_eq!(u128::from(reduce_wide(x)), x % p, "x = {x}");
        }
    }

    #[test]
    fn add_matches_u128_reference() {
        let vals = [0u64, 1, 2, P / 2, P - 1, P - 2];
        for &a in &vals {
            for &b in &vals {
                let expect = ((u128::from(a) + u128::from(b)) % u128::from(P)) as u64;
                assert_eq!(add(a, b), expect, "{a} + {b}");
            }
        }
    }

    #[test]
    fn mul_matches_u128_reference() {
        let vals = [0u64, 1, 2, 3, 12345, P / 3, P - 1, P - 2, 1 << 60];
        for &a in &vals {
            for &b in &vals {
                let expect = ((u128::from(a) * u128::from(b)) % u128::from(P)) as u64;
                assert_eq!(mul(a, b), expect, "{a} * {b}");
            }
        }
    }

    #[test]
    fn fermat_little_theorem() {
        // a^(P-1) ≡ 1 for a ≢ 0: check with a few squarings-based powers.
        fn pow(mut a: u64, mut e: u64) -> u64 {
            let mut r = 1u64;
            while e > 0 {
                if e & 1 == 1 {
                    r = mul(r, a);
                }
                a = mul(a, a);
                e >>= 1;
            }
            r
        }
        for a in [2u64, 3, 12345, P - 2] {
            assert_eq!(pow(a, P - 1), 1, "a = {a}");
        }
    }

    #[test]
    fn eval_poly_matches_naive() {
        let coeffs = [7u64, 3, 999_999, P - 5];
        let x = 0xABCDEFu64;
        let mut naive = 0u64;
        let mut xp = 1u64;
        for &c in &coeffs {
            naive = add(naive, mul(c, xp));
            xp = mul(xp, x);
        }
        assert_eq!(eval_poly(&coeffs, x), naive);
        assert_eq!(eval_poly(&[], x), 0);
        assert_eq!(eval_poly(&[42], x), 42);
    }
}
