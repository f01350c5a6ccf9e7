//! Polynomials over GF(2) and random irreducible-polynomial generation.
//!
//! Paper Section 6.1 replaces the exact pairing function by Rabin
//! fingerprints: "an irreducible polynomial of large degree is chosen
//! uniformly at random … we chose irreducible polynomials of degree 31".
//! This module supplies the polynomial arithmetic that makes that possible:
//! arbitrary-degree GF(2) polynomials, Rabin's irreducibility test, and
//! rejection sampling of uniformly random irreducible polynomials.
//!
//! Representation: little-endian `u64` words, bit `i` of word `w` is the
//! coefficient of `x^(64w + i)`.  The vector is kept *normalized* (no
//! trailing zero words), so the zero polynomial is the empty vector.

use crate::splitmix::SplitMix64;

/// A polynomial over GF(2).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Gf2Poly {
    words: Vec<u64>,
}

impl Gf2Poly {
    /// The zero polynomial.
    #[inline]
    pub fn zero() -> Self {
        Self { words: Vec::new() }
    }

    /// The constant polynomial `1`.
    #[inline]
    pub fn one() -> Self {
        Self { words: vec![1] }
    }

    /// The monomial `x`.
    #[inline]
    pub fn x() -> Self {
        Self { words: vec![2] }
    }

    /// Builds a polynomial from little-endian words (coefficient of `x^i` is
    /// bit `i`).
    pub fn from_words(words: Vec<u64>) -> Self {
        let mut p = Self { words };
        p.normalize();
        p
    }

    /// Builds a polynomial whose coefficients are the bits of `bits`
    /// (bit 0 = constant term).
    #[inline]
    pub fn from_u64(bits: u64) -> Self {
        Self::from_words(vec![bits])
    }

    /// Returns the coefficient bits as a `u64` if the degree is below 64.
    pub fn to_u64(&self) -> Option<u64> {
        match self.words.len() {
            0 => Some(0),
            1 => Some(self.words[0]),
            _ => None,
        }
    }

    /// `x^d`, the monomial of degree `d`.
    pub fn monomial(d: usize) -> Self {
        let mut words = vec![0u64; d / 64 + 1];
        words[d / 64] = 1u64 << (d % 64);
        Self { words }
    }

    fn normalize(&mut self) {
        while self.words.last() == Some(&0) {
            self.words.pop();
        }
    }

    /// True if this is the zero polynomial.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.words.is_empty()
    }

    /// The degree, or `None` for the zero polynomial.
    pub fn degree(&self) -> Option<usize> {
        let last = *self.words.last()?;
        Some((self.words.len() - 1) * 64 + (63 - last.leading_zeros() as usize))
    }

    /// Returns coefficient of `x^i`.
    pub fn coeff(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| (w >> (i % 64)) & 1 == 1)
    }

    /// Polynomial addition (XOR of coefficient vectors).
    pub fn add(&self, other: &Self) -> Self {
        let (long, short) = if self.words.len() >= other.words.len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut words = long.words.clone();
        for (w, s) in words.iter_mut().zip(&short.words) {
            *w ^= s;
        }
        Self::from_words(words)
    }

    /// Multiplication by `x^k` (left shift by `k` bits).
    pub fn shl(&self, k: usize) -> Self {
        if self.is_zero() || k == 0 {
            let mut p = self.clone();
            if k > 0 {
                p = Self::from_words({
                    let mut w = vec![0u64; k / 64];
                    w.extend_from_slice(&p.words);
                    w
                });
            }
            return p;
        }
        let word_shift = k / 64;
        let bit_shift = k % 64;
        let mut words = vec![0u64; word_shift + self.words.len() + 1];
        for (i, &w) in self.words.iter().enumerate() {
            words[word_shift + i] |= w << bit_shift;
            if bit_shift > 0 {
                words[word_shift + i + 1] |= w >> (64 - bit_shift);
            }
        }
        Self::from_words(words)
    }

    /// Schoolbook polynomial multiplication.
    pub fn mul(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        let mut acc = vec![0u64; self.words.len() + other.words.len() + 1];
        for (i, &a) in self.words.iter().enumerate() {
            if a == 0 {
                continue;
            }
            for (j, &b) in other.words.iter().enumerate() {
                let prod = clmul(a, b);
                acc[i + j] ^= prod as u64;
                acc[i + j + 1] ^= (prod >> 64) as u64;
            }
        }
        Self::from_words(acc)
    }

    /// Remainder of `self` divided by `modulus`.
    ///
    /// # Panics
    /// Panics if `modulus` is zero.
    pub fn rem(&self, modulus: &Self) -> Self {
        let md = modulus.degree().expect("division by the zero polynomial");
        let mut r = self.clone();
        while let Some(rd) = r.degree() {
            if rd < md {
                break;
            }
            r = r.add(&modulus.shl(rd - md));
        }
        r
    }

    /// `(self * other) mod modulus`.
    pub fn mulmod(&self, other: &Self, modulus: &Self) -> Self {
        self.mul(other).rem(modulus)
    }

    /// Greatest common divisor (monic by construction over GF(2)).
    pub fn gcd(&self, other: &Self) -> Self {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Computes `x^(2^n) mod self` by `n` repeated squarings.
    fn x_pow_pow2_mod(&self, n: usize) -> Self {
        let mut g = Gf2Poly::x().rem(self);
        for _ in 0..n {
            g = g.mulmod(&g.clone(), self);
        }
        g
    }

    /// Rabin's irreducibility test.
    ///
    /// A polynomial `f` of degree `n ≥ 1` over GF(2) is irreducible iff
    /// `x^(2^n) ≡ x (mod f)` and, for every prime divisor `p` of `n`,
    /// `gcd(x^(2^(n/p)) − x, f) = 1`.
    pub fn is_irreducible(&self) -> bool {
        let n = match self.degree() {
            None | Some(0) => return false,
            Some(n) => n,
        };
        // Constant term must be 1, otherwise x divides f (cheap early out).
        if !self.coeff(0) {
            return n == 1 && self.coeff(1); // f = x is irreducible
        }
        let x = Gf2Poly::x();
        // x^(2^n) mod f must equal x mod f.
        if self.x_pow_pow2_mod(n) != x.rem(self) {
            return false;
        }
        for p in prime_divisors(n) {
            let g = self.x_pow_pow2_mod(n / p).add(&x.rem(self));
            let gcd = self.gcd(&g);
            if gcd.degree() != Some(0) {
                return false;
            }
        }
        true
    }

    /// Samples a uniformly random irreducible polynomial of the given degree.
    ///
    /// Rejection sampling over random monic polynomials; by the prime
    /// polynomial theorem about 1 in `degree` candidates is irreducible, so
    /// this terminates quickly for the degrees SketchTree uses (31–61).
    ///
    /// # Panics
    /// Panics if `degree == 0`.
    pub fn random_irreducible(degree: usize, seed: u64) -> Self {
        assert!(degree >= 1, "irreducible polynomials have degree >= 1");
        let mut rng = SplitMix64::new(seed);
        loop {
            let nwords = degree / 64 + 1;
            let mut words: Vec<u64> = (0..nwords).map(|_| rng.next_u64()).collect();
            // Force degree exactly `degree` and a non-zero constant term
            // (both necessary conditions for irreducibility when degree>1).
            let top = degree % 64;
            words[nwords - 1] &= (1u64 << top) | ((1u64 << top) - 1);
            words[nwords - 1] |= 1u64 << top;
            if degree > 1 {
                words[0] |= 1;
            }
            let cand = Self::from_words(words);
            if cand.is_irreducible() {
                return cand;
            }
        }
    }
}

/// Carry-less (polynomial) multiplication of two 64-bit words, producing the
/// full 128-bit product — one word-by-word step of [`Gf2Poly::mul`].
///
/// A portable shift-and-XOR loop: SketchTree multiplies polynomials only
/// while drawing a Rabin modulus (the irreducibility test), once per
/// fingerprinter, so this is not on any per-element path.
#[inline]
fn clmul(a: u64, b: u64) -> u128 {
    let mut acc: u128 = 0;
    let a = u128::from(a);
    let mut b = b;
    let mut shift = 0u32;
    while b != 0 {
        let tz = b.trailing_zeros();
        shift += tz;
        acc ^= a << shift;
        b >>= tz;
        b &= !1; // clear the bit we just consumed
    }
    acc
}

/// Distinct prime divisors of `n` by trial division (n is a polynomial
/// degree, so tiny).
fn prime_divisors(mut n: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut d = 2;
    while d * d <= n {
        if n.is_multiple_of(d) {
            out.push(d);
            while n.is_multiple_of(d) {
                n /= d;
            }
        }
        d += 1;
    }
    if n > 1 {
        out.push(n);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clmul_matches_definition_small() {
        // (x+1)(x+1) = x^2+1 over GF(2)
        assert_eq!(clmul(0b11, 0b11), 0b101);
        // x * x^63 = x^64
        assert_eq!(clmul(1 << 63, 2), 1u128 << 64);
        assert_eq!(clmul(0, 0xFFFF), 0);
        assert_eq!(clmul(1, 0xDEAD_BEEF), 0xDEAD_BEEF);
    }

    #[test]
    fn normalization_and_degree() {
        assert_eq!(Gf2Poly::zero().degree(), None);
        assert_eq!(Gf2Poly::one().degree(), Some(0));
        assert_eq!(Gf2Poly::x().degree(), Some(1));
        assert_eq!(Gf2Poly::monomial(100).degree(), Some(100));
        assert_eq!(Gf2Poly::from_words(vec![5, 0, 0]).degree(), Some(2));
    }

    #[test]
    fn add_is_xor_and_self_inverse() {
        let a = Gf2Poly::from_u64(0b1011);
        let b = Gf2Poly::from_u64(0b0110);
        assert_eq!(a.add(&b), Gf2Poly::from_u64(0b1101));
        assert_eq!(a.add(&a), Gf2Poly::zero());
    }

    #[test]
    fn mul_matches_known_products() {
        // (x+1)^2 = x^2+1
        let xp1 = Gf2Poly::from_u64(0b11);
        assert_eq!(xp1.mul(&xp1), Gf2Poly::from_u64(0b101));
        // (x^2+x+1)(x+1) = x^3+1
        let a = Gf2Poly::from_u64(0b111);
        assert_eq!(a.mul(&xp1), Gf2Poly::from_u64(0b1001));
    }

    #[test]
    fn mul_crosses_word_boundaries() {
        let a = Gf2Poly::monomial(63);
        let b = Gf2Poly::monomial(63);
        assert_eq!(a.mul(&b), Gf2Poly::monomial(126));
    }

    #[test]
    fn shl_matches_monomial_mul() {
        let a = Gf2Poly::from_u64(0b1011);
        for k in [0usize, 1, 63, 64, 65, 130] {
            assert_eq!(a.shl(k), a.mul(&Gf2Poly::monomial(k)), "k={k}");
        }
    }

    #[test]
    fn rem_division_identity() {
        // For random-ish a, m: a = q*m + r is hard without q; check instead
        // that (a mod m) has degree < deg m and a + (a mod m) is divisible by m.
        let a = Gf2Poly::from_words(vec![0xDEAD_BEEF_CAFE_F00D, 0x1234_5678]);
        let m = Gf2Poly::from_u64(0x89); // x^7+x^3+1 (irreducible? unimportant)
        let r = a.rem(&m);
        assert!(r.degree().unwrap_or(0) < 7);
        let diff = a.add(&r);
        assert_eq!(diff.rem(&m), Gf2Poly::zero());
    }

    #[test]
    fn rem_by_larger_modulus_is_identity() {
        let a = Gf2Poly::from_u64(0b101);
        let m = Gf2Poly::monomial(10);
        assert_eq!(a.rem(&m), a);
    }

    #[test]
    #[should_panic]
    fn rem_by_zero_panics() {
        Gf2Poly::one().rem(&Gf2Poly::zero());
    }

    #[test]
    fn gcd_basics() {
        let a = Gf2Poly::from_u64(0b1001); // x^3+1 = (x+1)(x^2+x+1)
        let b = Gf2Poly::from_u64(0b11); // x+1
        assert_eq!(a.gcd(&b), b);
        let c = Gf2Poly::from_u64(0b111); // x^2+x+1, irreducible
        assert_eq!(c.gcd(&b).degree(), Some(0));
    }

    #[test]
    fn known_irreducibles_accepted() {
        // x^2+x+1, x^3+x+1, x^4+x+1, x^8+x^4+x^3+x+1 (AES), x^31+x^3+1
        for bits in [0b111u64, 0b1011, 0b10011, 0x11B, (1 << 31) | 0b1001] {
            assert!(
                Gf2Poly::from_u64(bits).is_irreducible(),
                "bits {bits:#x} should be irreducible"
            );
        }
    }

    #[test]
    fn known_reducibles_rejected() {
        // x^2+1 = (x+1)^2; x^4+x^2+1 = (x^2+x+1)^2; x^2 = x*x; x^3+1
        for bits in [0b101u64, 0b10101, 0b100, 0b1001] {
            assert!(
                !Gf2Poly::from_u64(bits).is_irreducible(),
                "bits {bits:#x} should be reducible"
            );
        }
    }

    #[test]
    fn constants_not_irreducible() {
        assert!(!Gf2Poly::zero().is_irreducible());
        assert!(!Gf2Poly::one().is_irreducible());
        assert!(Gf2Poly::x().is_irreducible()); // x is prime
        assert!(Gf2Poly::from_u64(0b11).is_irreducible()); // x+1
    }

    #[test]
    fn random_irreducible_has_requested_degree() {
        for degree in [5usize, 31, 61] {
            let p = Gf2Poly::random_irreducible(degree, 12345);
            assert_eq!(p.degree(), Some(degree));
            assert!(p.is_irreducible());
        }
    }

    #[test]
    fn random_irreducible_deterministic_per_seed() {
        assert_eq!(
            Gf2Poly::random_irreducible(31, 7),
            Gf2Poly::random_irreducible(31, 7)
        );
    }

    #[test]
    fn random_irreducible_varies_with_seed() {
        let a = Gf2Poly::random_irreducible(31, 1);
        let b = Gf2Poly::random_irreducible(31, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn prime_divisors_correct() {
        assert_eq!(prime_divisors(1), Vec::<usize>::new());
        assert_eq!(prime_divisors(2), vec![2]);
        assert_eq!(prime_divisors(12), vec![2, 3]);
        assert_eq!(prime_divisors(31), vec![31]);
        assert_eq!(prime_divisors(60), vec![2, 3, 5]);
    }

    #[test]
    fn to_u64_roundtrip() {
        assert_eq!(Gf2Poly::from_u64(0xABCD).to_u64(), Some(0xABCD));
        assert_eq!(Gf2Poly::monomial(100).to_u64(), None);
        assert_eq!(Gf2Poly::zero().to_u64(), Some(0));
    }

    #[test]
    fn coeff_reads_bits() {
        let p = Gf2Poly::monomial(70).add(&Gf2Poly::one());
        assert!(p.coeff(0));
        assert!(p.coeff(70));
        assert!(!p.coeff(35));
        assert!(!p.coeff(1000));
    }
}
