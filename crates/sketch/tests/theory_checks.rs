//! Empirical checks of the paper's estimator theory: the expectation and
//! variance formulas of Sections 3–4 hold for the ξ families the synopsis
//! runs.
//!
//! Each test Monte-Carlos over independent sketches on a *fixed* small
//! stream where the exact moments are computable by hand, and asserts the
//! sample moments land within a few standard errors of the theory.  The
//! trials are the `n` families of one `SketchBank::new(SEED, n, 1, k)`:
//! family `i` draws its ξ polynomial from its own derived seed, its
//! counter `sketch_at(i).raw()` is trial `i`'s `X`, and its signs come
//! from `signs_into`, the ξ row kernel every insert and estimate of the
//! server goes through.  These are the tests that would catch a
//! subtly-broken ξ family (e.g. only 2-wise independence) that every
//! algebraic test would miss.

use sketchtree_sketch::SketchBank;

/// The fixed stream: values with frequencies. SJ = Σf² = 14² + 9² + 4² + 1² = 374.
const FREQS: &[(u64, i64)] = &[(11, 14), (22, 9), (33, 4), (44, 1)];

/// The master seed the trial families derive from.
const SEED: u64 = 0;

fn self_join() -> f64 {
    FREQS.iter().map(|&(_, f)| (f * f) as f64).sum()
}

/// `n` independent trials of `freqs` at the given ξ independence.
struct Trials {
    bank: SketchBank,
}

impl Trials {
    fn of(freqs: &[(u64, i64)], n: usize, independence: usize) -> Self {
        let mut bank = SketchBank::new(SEED, n, 1, independence);
        for &(v, f) in freqs {
            bank.update(v, f);
        }
        Self { bank }
    }

    fn new(n: usize, independence: usize) -> Self {
        Self::of(FREQS, n, independence)
    }

    /// Each trial's counter `X`.
    fn xs(&self) -> Vec<i64> {
        (0..self.bank.num_sketches()).map(|i| self.bank.sketch_at(i).raw()).collect()
    }

    /// Each trial's `ξ_key`, from the row kernel.
    fn signs(&self, key: u64) -> Vec<i64> {
        let mut row = Vec::new();
        self.bank.signs_into(key, &mut row);
        row.into_iter().map(i64::from).collect()
    }

    /// Each trial's point estimate `ξ_q·X`.
    fn point_estimates(&self, q: u64) -> Vec<f64> {
        self.signs(q).iter().zip(self.xs()).map(|(&s, x)| (s * x) as f64).collect()
    }

    /// Each trial's set estimate `X·(ξ_a + ξ_b)`.
    fn set_estimates(&self, a: u64, b: u64) -> Vec<f64> {
        let (sa, sb) = (self.signs(a), self.signs(b));
        self.xs().iter().zip(sa.iter().zip(&sb)).map(|(&x, (&p, &q))| ((p + q) * x) as f64).collect()
    }
}

fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

fn variance(samples: &[f64]) -> f64 {
    let m = mean(samples);
    samples.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / samples.len() as f64
}

/// Equation 1: E[ξ_q·X] = f_q.
#[test]
fn eq1_point_estimator_unbiased() {
    let trials = Trials::new(20_000, 4);
    for &(q, fq) in FREQS {
        let mean = mean(&trials.point_estimates(q));
        // Var = SJ − f_q² ≤ 374; std of the mean ≈ sqrt(374/20000) ≈ 0.14.
        assert!(
            (mean - fq as f64).abs() < 0.8,
            "value {q}: mean {mean} vs f {fq}"
        );
    }
}

/// Equation 1 for a value absent from the stream: E[ξ_q·X] = 0.
#[test]
fn eq1_absent_value_estimates_zero_on_average() {
    let trials = Trials::of(&[(5, 1000)], 3000, 4);
    let mean = mean(&trials.point_estimates(777)); // 777 never inserted
    assert!(mean.abs() < 60.0, "absent value: mean {mean}");
}

/// Equation 2: Var[ξ_q·X] = Σ_{i≠q} f_i² exactly (not just ≤ SJ), which
/// 4-wise independence implies.
#[test]
fn eq2_point_estimator_variance() {
    let trials = Trials::new(20_000, 4);
    for &(q, fq) in FREQS.iter().take(2) {
        let expect_var = self_join() - (fq * fq) as f64;
        let var = variance(&trials.point_estimates(q));
        // Fourth-moment-driven std of sample variance; 15% tolerance is
        // ~4 standard errors here.
        assert!(
            (var - expect_var).abs() / expect_var < 0.15,
            "value {q}: sample var {var} vs theory {expect_var}"
        );
    }
}

/// Equation 6: E[X·(ξ_a + ξ_b)] = f_a + f_b (set estimator unbiased).
#[test]
fn eq6_set_estimator_unbiased() {
    let trials = Trials::new(20_000, 4);
    let (a, fa) = FREQS[0];
    let (b, fb) = FREQS[1];
    let mean = mean(&trials.set_estimates(a, b));
    assert!(
        (mean - (fa + fb) as f64).abs() < 1.0,
        "mean {mean} vs {}",
        fa + fb
    );
}

/// Equation 7: Var[X·Σξ] ≤ 2(t−1)·SJ for t=2 distinct queries.
#[test]
fn eq7_set_estimator_variance_bound() {
    let trials = Trials::new(20_000, 4);
    let (a, _) = FREQS[0];
    let (b, _) = FREQS[1];
    let var = variance(&trials.set_estimates(a, b));
    let bound = 2.0 * self_join();
    assert!(var <= bound * 1.1, "var {var} exceeds 2(t-1)SJ = {bound}");
}

/// The AMS second-moment estimator: E[X²] = F₂ = Σ f_i², the self-join
/// size behind the residual and health estimates.
#[test]
fn second_moment_unbiased() {
    let freqs: &[(u64, i64)] = &[(10, 30), (20, 20), (30, 10)];
    let true_f2: i64 = freqs.iter().map(|&(_, f)| f * f).sum();
    let trials = Trials::of(freqs, 3000, 4);
    let squares: Vec<f64> = trials.xs().iter().map(|&x| (x * x) as f64).collect();
    let mean = mean(&squares);
    assert!(
        (mean - true_f2 as f64).abs() / (true_f2 as f64) < 0.15,
        "mean {mean} vs true {true_f2}"
    );
}

/// Example 3 / Appendix C: E[X²·ξ_a ξ_b / 2!] = f_a·f_b, requiring 5-wise ξ.
#[test]
fn product_estimator_unbiased() {
    let trials = Trials::new(40_000, 5);
    let (a, fa) = FREQS[0];
    let (b, fb) = FREQS[1];
    let (sa, sb) = (trials.signs(a), trials.signs(b));
    let products: Vec<f64> = trials
        .xs()
        .iter()
        .zip(sa.iter().zip(&sb))
        .map(|(&x, (&p, &q))| {
            let x = x as f64;
            (p * q) as f64 * x * x / 2.0
        })
        .collect();
    let mean = mean(&products);
    let truth = (fa * fb) as f64;
    // Appendix B: Var ≤ (1+2n)/4·SJ² — large; n=40k gives std-of-mean ≈ 2.8.
    assert!(
        (mean - truth).abs() < 15.0,
        "mean {mean} vs f_a·f_b = {truth}"
    );
}

/// Four-wise independence on distinct keys: E[ξ_a ξ_b ξ_c ξ_d] ≈ 0.
#[test]
fn fourwise_joint_moment_zero() {
    let trials = Trials::new(20_000, 4);
    let keys = [3u64, 17, 1 << 40, u64::MAX / 3];
    let mut products = vec![1i64; 20_000];
    for &k in &keys {
        for (p, s) in products.iter_mut().zip(trials.signs(k)) {
            *p *= s;
        }
    }
    let sum: i64 = products.iter().sum();
    // Each product is ±1; under 4-wise independence the sum is a random
    // walk with std sqrt(n) ≈ 141.
    assert!(sum.abs() < 600, "joint moment biased: {sum}");
}
