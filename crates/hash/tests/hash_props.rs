//! Property-based tests for the hashing substrates.

use proptest::prelude::*;
use sketchtree_hash::{bignat::BigNat, gf2poly::Gf2Poly, m61, pairing, rabin::RabinFingerprinter};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // ---- Mersenne-61 field vs u128 reference ----

    #[test]
    fn m61_mul_matches_reference(a in 0..m61::P, b in 0..m61::P) {
        let expect = ((u128::from(a) * u128::from(b)) % u128::from(m61::P)) as u64;
        prop_assert_eq!(m61::mul(a, b), expect);
    }

    #[test]
    fn m61_add_matches_reference(a in 0..m61::P, b in 0..m61::P) {
        let expect = ((u128::from(a) + u128::from(b)) % u128::from(m61::P)) as u64;
        prop_assert_eq!(m61::add(a, b), expect);
    }

    #[test]
    fn m61_reduce_matches_mod(x in any::<u64>()) {
        prop_assert_eq!(m61::reduce(x), x % m61::P);
    }

    // ---- GF(2) polynomials ----

    #[test]
    fn gf2poly_ring_laws(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let (pa, pb, pc) = (Gf2Poly::from_u64(a), Gf2Poly::from_u64(b), Gf2Poly::from_u64(c));
        prop_assert_eq!(pa.mul(&pb), pb.mul(&pa));
        prop_assert_eq!(pa.mul(&pb).mul(&pc), pa.mul(&pb.mul(&pc)));
        prop_assert_eq!(pa.mul(&pb.add(&pc)), pa.mul(&pb).add(&pa.mul(&pc)));
        prop_assert_eq!(pa.add(&pa), Gf2Poly::zero());
    }

    #[test]
    fn gf2poly_division_identity(a in any::<u64>(), b in any::<u64>(), m in 2u64..) {
        let pa = Gf2Poly::from_u64(a).mul(&Gf2Poly::from_u64(b));
        let pm = Gf2Poly::from_u64(m);
        let r = pa.rem(&pm);
        // deg r < deg m, and m | (a*b − r).
        prop_assert!(r.degree().unwrap_or(0) <= pm.degree().unwrap());
        if let (Some(rd), Some(md)) = (r.degree(), pm.degree()) {
            prop_assert!(rd < md);
        }
        prop_assert_eq!(pa.add(&r).rem(&pm), Gf2Poly::zero());
    }

    #[test]
    fn gf2poly_gcd_divides_both(a in 1u64.., b in 1u64..) {
        let (pa, pb) = (Gf2Poly::from_u64(a), Gf2Poly::from_u64(b));
        let g = pa.gcd(&pb);
        prop_assert_eq!(pa.rem(&g), Gf2Poly::zero());
        prop_assert_eq!(pb.rem(&g), Gf2Poly::zero());
    }

    // ---- Pairing functions ----

    #[test]
    fn pairing_roundtrip(x in 0u64..1_000_000, y in 0u64..1_000_000) {
        let z = pairing::pair2(&BigNat::from_u64(x), &BigNat::from_u64(y));
        let (rx, ry) = pairing::unpair2(&z);
        prop_assert_eq!(rx.to_u64(), Some(x));
        prop_assert_eq!(ry.to_u64(), Some(y));
    }

    #[test]
    fn pairing_tuple_injective_pairwise(
        a in prop::collection::vec(0u64..50, 3),
        b in prop::collection::vec(0u64..50, 3),
    ) {
        let pa = pairing::pair_tuple_u64(&a);
        let pb = pairing::pair_tuple_u64(&b);
        prop_assert_eq!(a == b, pa == pb);
    }

    // ---- BigNat arithmetic vs u128 reference ----

    #[test]
    fn bignat_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let (na, nb) = (BigNat::from_u64(a), BigNat::from_u64(b));
        prop_assert_eq!(
            na.add(&nb).to_string(),
            (u128::from(a) + u128::from(b)).to_string()
        );
        prop_assert_eq!(
            na.mul(&nb).to_string(),
            (u128::from(a) * u128::from(b)).to_string()
        );
        if a >= b {
            prop_assert_eq!(na.sub(&nb).to_u64(), Some(a - b));
        }
    }

    #[test]
    fn bignat_isqrt_bounds(a in any::<u64>()) {
        let n = BigNat::from_u64(a);
        let r = n.isqrt();
        prop_assert!(r.mul(&r) <= n);
        let r1 = r.add(&BigNat::one());
        prop_assert!(r1.mul(&r1) > n);
    }

    #[test]
    fn bignat_divmod_identity(a in any::<u64>(), d in 1u64..) {
        let (na, nd) = (BigNat::from_u64(a), BigNat::from_u64(d));
        let q = na.div_floor(&nd);
        let r = na.rem_floor(&nd);
        prop_assert_eq!(q.to_u64(), Some(a / d));
        prop_assert_eq!(r.to_u64(), Some(a % d));
    }

    // ---- Rabin fingerprints ----

    #[test]
    fn rabin_deterministic_and_length_sensitive(
        seq in prop::collection::vec(any::<u64>(), 0..20),
        extra in any::<u64>(),
    ) {
        let f = RabinFingerprinter::new(31, 77);
        let a = f.fingerprint_symbols(&seq);
        prop_assert_eq!(a, f.fingerprint_symbols(&seq));
        let mut longer = seq.clone();
        longer.push(extra);
        // Extending a sequence must change the fingerprint (prefix-freedom
        // of the canonical initial state + LEB framing). Collisions are
        // possible in principle but vanishingly unlikely at 2^-31 per case;
        // treat equality as a bug signal.
        prop_assert_ne!(a, f.fingerprint_symbols(&longer));
    }

    #[test]
    fn rabin_respects_degree(degree in 8u32..=61, bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let f = RabinFingerprinter::new(degree, 3);
        prop_assert!(f.fingerprint_bytes(&bytes) < (1u64 << degree));
    }
}
