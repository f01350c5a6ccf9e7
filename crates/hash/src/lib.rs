//! Hashing substrates for SketchTree.
//!
//! This crate provides every piece of "randomness plumbing" the SketchTree
//! algorithm (Rao & Moon, ICDE 2006) depends on, implemented from scratch:
//!
//! * [`splitmix`] — a tiny deterministic seed-expansion PRNG
//!   ([`splitmix::SplitMix64`]) used to derive per-sketch random coefficients
//!   from a single `u64` seed.
//! * [`m61`] — arithmetic in the prime field `Z_p`, `p = 2^61 − 1`, with
//!   Mersenne reduction: the field the ξ polynomials are evaluated in.
//! * [`kwise`] — k-wise independent ±1 random variables (the `ξ` variables
//!   of the AMS sketch construction, paper Section 3) as random
//!   polynomials over `Z_p`.
//! * [`gf2poly`] — polynomials over GF(2) of arbitrary degree, with Rabin's
//!   irreducibility test and random irreducible-polynomial generation
//!   (paper Section 6.1).
//! * [`rabin`] — streaming Rabin fingerprints of symbol sequences modulo an
//!   irreducible polynomial (the paper's default one-dimensional mapping).
//! * [`bignat`] — arbitrary-precision natural numbers, so that the exact
//!   Cantor pairing functions can be evaluated without overflow.
//! * [`pairing`] — the pairing functions `PF_2`/`PF_k` of paper Section 2.2,
//!   with the padding semantics of Section 2.3 and full inverses for testing.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod bignat;
pub mod gf2poly;
pub mod kwise;
pub mod m61;
pub mod pairing;
pub mod rabin;
pub mod splitmix;

pub use bignat::BigNat;
pub use gf2poly::Gf2Poly;
pub use kwise::KWiseSign;
pub use pairing::{pair2, pair_tuple, unpair2};
pub use rabin::RabinFingerprinter;
pub use splitmix::SplitMix64;
