//! The AMS (tug-of-war) sketch: one randomized linear projection.
//!
//! Paper Section 3: "Compute `X = Σ f_i ξ_i` … Each time a value `i` occurs
//! in `S`, simply add `ξ_i` to `X`."  The single counter supports:
//!
//! * **insert/delete symmetry** — removing `m` instances of `t` is
//!   `X -= m·ξ_t`, the property the top-k strategy of Section 5.2 exploits;
//! * **point estimation** — `ξ_q · X` is an unbiased estimator of `f_q`
//!   with variance at most the self-join size (Equations 1–2);
//! * **second-moment estimation** — `X²` is an unbiased estimator of
//!   `F₂ = Σ f_i²` (the original AMS result), which SketchTree uses to
//!   report residual self-join sizes.

use sketchtree_hash::{KWiseSign, Sign};

/// One AMS counter with its ξ family.
///
/// ```
/// use sketchtree_sketch::AmsSketch;
/// let mut x = AmsSketch::new(7, 4);
/// x.update(42, 10);     // ten occurrences of value 42
/// x.update(42, -10);    // deletion is subtraction (Section 5.2's lever)
/// assert_eq!(x.raw(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct AmsSketch {
    xi: KWiseSign,
    x: i64,
}

impl AmsSketch {
    /// Creates an empty sketch whose ξ family is derived from `seed` with
    /// the given independence degree (4 for plain counts; `2k+1` for
    /// expressions with product terms of size `k` — see [`crate::expr`]).
    pub fn new(seed: u64, independence: usize) -> Self {
        Self {
            xi: KWiseSign::from_seed(seed, independence),
            x: 0,
        }
    }

    /// The ξ value for a key.
    #[inline]
    pub fn sign(&self, key: u64) -> i64 {
        self.xi.sign(key)
    }

    /// Applies `count` occurrences of `value` (negative to delete).
    ///
    /// The counter wraps on overflow: wrapping arithmetic is a group
    /// operation, so insert/delete symmetry (`X -= m·ξ_t` undoes
    /// `X += m·ξ_t`) holds mod 2⁶⁴ even across a wrap, whereas a panic
    /// or saturation would break it.
    #[inline]
    pub fn update(&mut self, value: u64, count: i64) {
        self.x = self.x.wrapping_add(self.sign(value).wrapping_mul(count));
    }

    /// The raw counter `X`.
    #[inline]
    pub fn raw(&self) -> i64 {
        self.x
    }

    /// Adds a precomputed `sign × count` contribution directly to `X`
    /// (fast path for callers that already hold the ξ value).  Wraps on
    /// overflow for the same symmetry reason as [`AmsSketch::update`].
    #[inline]
    pub fn add_raw(&mut self, delta: i64) {
        self.x = self.x.wrapping_add(delta);
    }

    /// Overwrites the raw counter (snapshot restore).
    #[inline]
    pub fn set_raw(&mut self, x: i64) {
        self.x = x;
    }

    /// Unbiased point estimate `ξ_q · X` of the frequency of `value`.
    #[inline]
    pub fn estimate(&self, value: u64) -> i64 {
        self.sign(value) * self.x
    }

    /// Unbiased second-moment estimate `X²` of `Σ f_i²`, squared in i128
    /// so that no counter overflows it.
    #[inline]
    pub fn second_moment(&self) -> i128 {
        // lint:allow(L3, reason = "two i64 factors: |x|^2 <= 2^126 < i128::MAX, so the square cannot overflow")
        i128::from(self.x) * i128::from(self.x)
    }

    /// The independence degree of the ξ family.
    #[inline]
    pub fn independence(&self) -> usize {
        self.xi.independence()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_delete_symmetry() {
        let mut s = AmsSketch::new(7, 4);
        s.update(42, 5);
        s.update(99, 3);
        s.update(42, -5);
        s.update(99, -3);
        assert_eq!(s.raw(), 0);
    }

    #[test]
    fn single_value_estimate_is_exact() {
        // A stream with only one distinct value: ξ_q X = ξ_q² f_q = f_q.
        let mut s = AmsSketch::new(3, 4);
        s.update(1234, 17);
        assert_eq!(s.estimate(1234), 17);
    }

    #[test]
    fn estimate_unbiased_over_seeds() {
        // Fixed stream; average ξ_q X over many independent sketches → f_q.
        let freqs: &[(u64, i64)] = &[(1, 100), (2, 50), (3, 10), (4, 1)];
        for &(q, fq) in freqs {
            let mut sum = 0i64;
            let n = 3000;
            for seed in 0..n {
                let mut s = AmsSketch::new(seed, 4);
                for &(v, f) in freqs {
                    s.update(v, f);
                }
                sum += s.estimate(q);
            }
            let mean = sum as f64 / n as f64;
            // SJ = 100²+50²+10²+1² = 12601; std of the mean ≈ sqrt(12601/3000) ≈ 2.
            assert!(
                (mean - fq as f64).abs() < 10.0,
                "value {q}: mean {mean} vs true {fq}"
            );
        }
    }

    #[test]
    fn second_moment_unbiased_over_seeds() {
        let freqs: &[(u64, i64)] = &[(10, 30), (20, 20), (30, 10)];
        let true_f2: i64 = freqs.iter().map(|&(_, f)| f * f).sum();
        let n = 3000;
        let mut sum = 0f64;
        for seed in 0..n {
            let mut s = AmsSketch::new(seed, 4);
            for &(v, f) in freqs {
                s.update(v, f);
            }
            sum += s.second_moment() as f64;
        }
        let mean = sum / n as f64;
        assert!(
            (mean - true_f2 as f64).abs() / (true_f2 as f64) < 0.15,
            "mean {mean} vs true {true_f2}"
        );
    }

    #[test]
    fn absent_value_estimates_near_zero_on_average() {
        let n = 3000;
        let mut sum = 0i64;
        for seed in 0..n {
            let mut s = AmsSketch::new(seed, 4);
            s.update(5, 1000);
            sum += s.estimate(777); // 777 never inserted
        }
        assert!((sum as f64 / n as f64).abs() < 60.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = AmsSketch::new(11, 4);
        let mut b = AmsSketch::new(11, 4);
        for v in 0..100 {
            a.update(v, 1);
            b.update(v, 1);
        }
        assert_eq!(a.raw(), b.raw());
        assert_eq!(a.estimate(50), b.estimate(50));
    }
}
