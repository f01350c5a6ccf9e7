//! Compiled query plans: every estimate as a fixed linear functional of
//! the counters.
//!
//! Theorem 2 makes a set count `X_eff · Σ ξ(atoms)` per sketch, and
//! Section 4 makes an expression term `coeff · X_effᵏ/k! · Π ξ`.  The ξ
//! part depends only on the query and the synopsis seed, never on the
//! stream, so a [`QueryPlan`] computes it once — each atom's sign row
//! through the ξ row kernel ([`crate::XiSlab::fill_signs_reduced`]), each
//! bank's `Σ ξ` row in `i64`, each term's `Π ξ` row — and evaluation
//! becomes a walk over the touched banks' counters:
//!
//! * **set plans** ([`StreamSynopsis::compile_total`]): per touched bank,
//!   apply the top-k restore of its tracked atoms to the counters, then
//!   `acc[idx] += Σξ[idx] · x_eff[idx]`, then boost;
//! * **count plans** ([`StreamSynopsis::compile_count`]): the one-atom
//!   case, whose per-sketch values are boosted directly, as Algorithm 2's
//!   median of means sums them;
//! * **term plans** ([`StreamSynopsis::compile_terms`]): `x_eff` only for
//!   the banks the terms touch, then each term's value per sketch.
//!
//! Every integer step is the same saturating arithmetic, and every f64
//! operation the same operation in the same order, as the per-sketch
//! formulas (`SketchView::sign`, `effective_x`, `term_value`) the
//! estimators were first written in, so a plan's estimate is
//! bit-identical to theirs.  Those formulas survive as this module's
//! test oracle.
//!
//! A plan stays valid for the synopsis configuration it was compiled
//! against: the tracked frequencies it restores are read at evaluation
//! time, so ingest never invalidates it.

use crate::bank::SketchBank;
use crate::expr::{ExprError, Term};
use crate::topk::TopKTracker;
use crate::virtual_streams::{StreamSynopsis, SynopsisConfig, SynopsisError};
use sketchtree_hash::m61;

/// A query compiled against one synopsis configuration; evaluate it with
/// [`StreamSynopsis::evaluate`].
///
/// ```
/// use sketchtree_sketch::{StreamSynopsis, SynopsisConfig};
/// let mut syn = StreamSynopsis::new(SynopsisConfig {
///     s1: 40, s2: 5, virtual_streams: 7, topk: 2,
///     ..SynopsisConfig::default()
/// });
/// let plan = syn.compile_total(&[11, 12]);
/// for _ in 0..300 { syn.insert(11); }
/// for _ in 0..100 { syn.insert(12); }
/// let est = syn.evaluate(&plan);
/// assert_eq!(est.to_bits(), syn.estimate_total(&[11, 12]).to_bits());
/// assert!((est - 400.0).abs() < 80.0);
/// ```
#[derive(Debug, Clone)]
pub struct QueryPlan {
    config: SynopsisConfig,
    kind: PlanKind,
}

#[derive(Debug, Clone)]
enum PlanKind {
    /// `COUNT` of one value (Theorem 1).
    Count(BankRows),
    /// The total of a set of values (Theorem 2): per touched bank, its
    /// atoms and their `Σ ξ` row.
    Total(Vec<(BankRows, Vec<i64>)>),
    /// Expanded expression terms (Section 4) over the banks they touch.
    Terms { banks: Vec<BankRows>, terms: Vec<TermRow> },
}

/// The query values routed to one virtual stream, with their ξ rows, in
/// the order the estimator restores them.
#[derive(Debug, Clone)]
struct BankRows {
    bank: usize,
    values: Vec<u64>,
    /// One row of `s1·s2` signs per value, row `i` for `values[i]`.
    rows: Vec<i8>,
}

/// One expanded term: its constants, the positions of the banks it
/// touches in the plan's bank list (ascending), and its `Π ξ` row.
#[derive(Debug, Clone)]
struct TermRow {
    coeff: f64,
    exp: i32,
    factorial: f64,
    banks: Vec<usize>,
    xi_prod: Vec<i8>,
}

impl BankRows {
    /// Fills the rows of `values` (all routed to `bank`) with the ξ row
    /// kernel.
    fn compile(syn: &StreamSynopsis, bank: usize, values: Vec<u64>) -> Self {
        let families = syn.families();
        let mut rows = vec![0i8; values.len().saturating_mul(families)];
        for (&v, row) in values.iter().zip(rows.chunks_exact_mut(families)) {
            syn.xi().fill_signs_reduced(m61::reduce(v), row);
        }
        Self { bank, values, rows }
    }

    /// The sign row of `value`, if it is one of this bank's values.
    fn row_of(&self, value: u64, families: usize) -> Option<&[i8]> {
        let i = self.values.iter().position(|&v| v == value)?;
        self.rows.chunks_exact(families).nth(i)
    }

    /// `X_eff` per sketch: the bank's counters plus `ξ_v·f_v` for every
    /// tracked value, in value order, saturating — `effective_x`'s
    /// arithmetic, one restore at a time across the row.
    fn restored_x(&self, bank: &SketchBank, topk: &TopKTracker, xs: &mut [i64]) {
        xs.copy_from_slice(bank.counters());
        for (&v, row) in self.values.iter().zip(self.rows.chunks_exact(xs.len())) {
            let Some(f) = topk.tracked_frequency(v) else {
                continue;
            };
            for (x, &s) in xs.iter_mut().zip(row) {
                *x = x.saturating_add(i64::from(s).saturating_mul(f));
            }
        }
    }
}

/// Groups `values` by the virtual stream they route to, in ascending
/// stream order, keeping each stream's values in their given order.
fn by_bank(syn: &StreamSynopsis, values: &[u64]) -> Vec<BankRows> {
    let mut routed: Vec<(usize, u64)> = values.iter().map(|&v| (syn.route(v), v)).collect();
    // Stable: within a bank, values keep the caller's order, which is the
    // order their restores are applied in.
    routed.sort_by_key(|&(b, _)| b);
    let mut out: Vec<BankRows> = Vec::new();
    let mut rest = routed.as_slice();
    while let Some(&(bank, _)) = rest.first() {
        let len = rest.iter().take_while(|&&(b, _)| b == bank).count();
        let (group, tail) = rest.split_at(len);
        out.push(BankRows::compile(syn, bank, group.iter().map(|&(_, v)| v).collect()));
        rest = tail;
    }
    out
}

/// The per-sketch `Σ ξ` row of a bank's values.
fn xi_sum(rows: &BankRows, families: usize) -> Vec<i64> {
    let mut sum = vec![0i64; families];
    for row in rows.rows.chunks_exact(families) {
        for (s, &g) in sum.iter_mut().zip(row) {
            // At most `values.len()` terms of ±1 each: far inside i64.
            *s = s.saturating_add(i64::from(g));
        }
    }
    sum
}

impl StreamSynopsis {
    /// Compiles `COUNT` of one value (Theorem 1) — the plan behind
    /// [`StreamSynopsis::estimate_count`].
    pub fn compile_count(&self, value: u64) -> QueryPlan {
        let rows = BankRows::compile(self, self.route(value), vec![value]);
        QueryPlan { config: self.config().clone(), kind: PlanKind::Count(rows) }
    }

    /// Compiles the total frequency of a set of *distinct* values
    /// (Theorem 2) — the plan behind [`StreamSynopsis::estimate_total`].
    pub fn compile_total(&self, values: &[u64]) -> QueryPlan {
        let families = self.families();
        let banks = by_bank(self, values)
            .into_iter()
            .map(|rows| {
                let sum = xi_sum(&rows, families);
                (rows, sum)
            })
            .collect();
        QueryPlan { config: self.config().clone(), kind: PlanKind::Total(banks) }
    }

    /// Compiles pre-expanded estimator terms (`coeff·Xᵏ/k!·Πξ`) — the plan
    /// behind [`StreamSynopsis::estimate_terms`].
    ///
    /// Every term's queries must be distinct within the term and the
    /// synopsis must have `2k+1`-wise ξ independence for the largest term;
    /// both are checked here, since neither depends on the stream.
    pub fn compile_terms(&self, terms: &[Term]) -> Result<QueryPlan, SynopsisError> {
        let max_k = terms.iter().map(|t| t.queries.len()).max().unwrap_or(0);
        let required = max_k.saturating_mul(2).saturating_add(1);
        let actual = self.config().independence.max(4);
        if max_k > 1 && required > actual {
            return Err(SynopsisError::InsufficientIndependence { required, actual });
        }
        // Within one term, a repeated query would make ξ_q² = 1 and bias
        // the estimator — the distinctness the paper assumes.  Term
        // queries are kept sorted by construction.
        for t in terms {
            if let Some(w) = t.queries.windows(2).find(|w| w.first() == w.get(1)) {
                let dup = w.first().copied().unwrap_or_default();
                return Err(SynopsisError::Expr(ExprError::DuplicateQuery(dup)));
            }
        }
        let mut queries: Vec<u64> = terms.iter().flat_map(|t| t.queries.iter().copied()).collect();
        queries.sort_unstable();
        queries.dedup();
        let banks = by_bank(self, &queries);
        let families = self.families();
        let terms = terms
            .iter()
            .map(|t| {
                let mut xi_prod = vec![1i8; families];
                let mut touched: Vec<usize> = Vec::with_capacity(t.queries.len());
                for &q in &t.queries {
                    let route = self.route(q);
                    // Every term query is in `queries`, so its bank and
                    // row are in the plan.
                    let Some(pos) = banks.iter().position(|b| b.bank == route) else {
                        continue;
                    };
                    touched.push(pos);
                    let Some(row) = banks.get(pos).and_then(|b| b.row_of(q, families)) else {
                        continue;
                    };
                    for (p, &s) in xi_prod.iter_mut().zip(row) {
                        // ±1 times ±1: the product stays ±1.
                        *p = p.saturating_mul(s);
                    }
                }
                // `banks` is in ascending stream order, so ascending
                // positions are ascending streams.
                touched.sort_unstable();
                touched.dedup();
                let k = t.queries.len();
                TermRow {
                    coeff: t.coeff as f64,
                    // A term with an absurd product size degrades to ±inf
                    // rather than silently truncating the exponent.
                    exp: i32::try_from(k).unwrap_or(i32::MAX),
                    factorial: (2..=k).map(|i| i as f64).product(),
                    banks: touched,
                    xi_prod,
                }
            })
            .collect();
        Ok(QueryPlan {
            config: self.config().clone(),
            kind: PlanKind::Terms { banks, terms },
        })
    }

    /// Evaluates a compiled plan against the current counters and top-k
    /// state.
    ///
    /// # Panics
    /// Panics if the plan was compiled against a synopsis with a
    /// different configuration: its ξ rows and routing would not match.
    pub fn evaluate(&self, plan: &QueryPlan) -> f64 {
        assert!(
            plan.config == *self.config(),
            "a query plan evaluates only against the synopsis configuration it was compiled for"
        );
        let n = self.families();
        let mut acc = vec![0.0f64; n];
        match &plan.kind {
            PlanKind::Count(rows) => {
                let mut xs = vec![0i64; n];
                if let Some((bank, topk)) = self.partition(rows.bank) {
                    rows.restored_x(bank, topk, &mut xs);
                    // The per-sketch values themselves, not added onto a
                    // 0.0: the group sums then see exactly what the
                    // median of means sums (a lone -0.0 stays -0.0).
                    for ((a, &s), &x) in acc.iter_mut().zip(&rows.rows).zip(&xs) {
                        // lint:allow(L3, reason = "f64 product cannot wrap; it saturates to infinity")
                        *a = f64::from(s) * x as f64;
                    }
                }
            }
            PlanKind::Total(banks) => {
                let mut xs = vec![0i64; n];
                for (rows, sum) in banks {
                    let Some((bank, topk)) = self.partition(rows.bank) else {
                        continue;
                    };
                    rows.restored_x(bank, topk, &mut xs);
                    for ((a, &s), &x) in acc.iter_mut().zip(sum).zip(&xs) {
                        // lint:allow(L3, reason = "f64 accumulation cannot wrap; it saturates to infinity")
                        *a += s as f64 * x as f64;
                    }
                }
            }
            PlanKind::Terms { banks, terms } => {
                let mut restored = vec![0i64; banks.len().saturating_mul(n)];
                for (rows, chunk) in banks.iter().zip(restored.chunks_exact_mut(n)) {
                    if let Some((bank, topk)) = self.partition(rows.bank) {
                        rows.restored_x(bank, topk, chunk);
                    }
                }
                for (idx, a) in acc.iter_mut().enumerate() {
                    *a = terms
                        .iter()
                        .map(|t| {
                            // lint:allow(L3, reason = "b < banks.len() and idx < n, so b * n + idx < banks.len() * n, the length of an allocated Vec")
                            let x_eff = |b: &usize| restored.get(b * n + idx).copied().unwrap_or(0);
                            // A term spanning several banks can sum past
                            // i64 even when no counter does; only then is
                            // the sum taken again in i128 (its conversion
                            // to f64 is a library call, so the common path
                            // stays in i64).  Either way the f64 is the
                            // exact sum's rounding.
                            let narrow = t.banks.iter().try_fold(0i64, |s, b| s.checked_add(x_eff(b)));
                            let x = match narrow {
                                Some(x) => x as f64,
                                None => t.banks.iter().map(|b| i128::from(x_eff(b))).sum::<i128>() as f64,
                            };
                            let xi = t.xi_prod.get(idx).copied().unwrap_or(0);
                            // lint:allow(L3, reason = "f64 term arithmetic cannot wrap; it saturates to infinity")
                            t.coeff * x.powi(t.exp) / t.factorial * f64::from(xi)
                        })
                        .sum();
                }
            }
        }
        self.boost(&acc)
    }
}

/// The per-sketch estimator formulas the plans replaced, kept as the
/// oracle compiled evaluation must match to the bit.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;
    use crate::bank::oracle::{effective_x, estimate_point_restored, term_value};

    /// The restore list for a set of query values within one bank.
    fn bank_restores(syn: &StreamSynopsis, b: usize, queries: &[u64]) -> Vec<(u64, i64)> {
        let in_bank: Vec<u64> = queries.iter().copied().filter(|&q| syn.route(q) == b).collect();
        syn.partition(b).map(|(_, t)| t.restore_list(&in_bank)).unwrap_or_default()
    }

    /// `COUNT` of one value, per sketch through [`crate::SketchView::sign`].
    pub(crate) fn count(syn: &StreamSynopsis, value: u64) -> f64 {
        let r = syn.route(value);
        let restore = bank_restores(syn, r, &[value]);
        syn.partition(r).map_or(0.0, |(b, _)| estimate_point_restored(b, value, &restore))
    }

    /// The total of distinct values (Theorem 2), combined across banks
    /// per sketch before boosting.
    pub(crate) fn total(syn: &StreamSynopsis, values: &[u64]) -> f64 {
        let mut acc = vec![0.0f64; syn.families()];
        for b in 0..syn.config().virtual_streams {
            let in_bank: Vec<u64> = values.iter().copied().filter(|&v| syn.route(v) == b).collect();
            if in_bank.is_empty() {
                continue;
            }
            let (bank, topk) = syn.partition(b).unwrap();
            let restore = topk.restore_list(&in_bank);
            bank.accumulate(&mut acc, |s| {
                let x_eff = effective_x(s, &restore);
                let xi_sum: i64 = in_bank.iter().map(|&v| s.sign(v)).sum();
                xi_sum as f64 * x_eff as f64
            });
        }
        syn.boost(&acc)
    }

    /// Expanded terms: `effective_x` for every (bank, sketch), then
    /// `term_value` per sketch over the banks each term touches.
    pub(crate) fn terms(syn: &StreamSynopsis, terms: &[Term]) -> f64 {
        let mut queries: Vec<u64> = terms.iter().flat_map(|t| t.queries.iter().copied()).collect();
        queries.sort_unstable();
        queries.dedup();
        let n = syn.families();
        let p = syn.config().virtual_streams;
        let x_eff: Vec<Vec<i64>> = (0..p)
            .map(|b| {
                let restore = bank_restores(syn, b, &queries);
                let bank = syn.partition(b).unwrap().0;
                (0..n).map(|idx| effective_x(bank.sketch_at(idx), &restore)).collect()
            })
            .collect();
        let term_banks: Vec<Vec<usize>> = terms
            .iter()
            .map(|t| {
                let mut b: Vec<usize> = t.queries.iter().map(|&q| syn.route(q)).collect();
                b.sort_unstable();
                b.dedup();
                b
            })
            .collect();
        let first = syn.partition(0).unwrap().0;
        let acc: Vec<f64> = (0..n)
            .map(|idx| {
                let sketch = first.sketch_at(idx);
                terms
                    .iter()
                    .zip(&term_banks)
                    .map(|(t, banks)| {
                        let x: i64 = banks.iter().map(|&b| x_eff[b][idx]).sum();
                        term_value(sketch, t, x as f64)
                    })
                    .sum()
            })
            .collect();
        syn.boost(&acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn config(p: usize, topk: usize) -> SynopsisConfig {
        SynopsisConfig {
            s1: 9,
            s2: 5,
            virtual_streams: p,
            topk,
            independence: 5,
            topk_probability: u16::MAX,
            seed: 23,
        }
    }

    /// A synopsis fed a skewed stream, so top-k tracks (and restores)
    /// its heavy values.
    fn fed(p: usize, topk: usize, stream: &[u64]) -> StreamSynopsis {
        let mut syn = StreamSynopsis::new(config(p, topk));
        for &v in stream {
            syn.insert(v);
        }
        syn
    }

    fn assert_all_paths(syn: &StreamSynopsis, atoms: &[u64], terms: &[Term]) {
        for &v in atoms {
            let got = syn.evaluate(&syn.compile_count(v));
            assert_eq!(got.to_bits(), oracle::count(syn, v).to_bits(), "count {v}");
        }
        let got = syn.evaluate(&syn.compile_total(atoms));
        assert_eq!(got.to_bits(), oracle::total(syn, atoms).to_bits(), "total {atoms:?}");
        let plan = syn.compile_terms(terms).unwrap();
        assert_eq!(syn.evaluate(&plan).to_bits(), oracle::terms(syn, terms).to_bits(), "{terms:?}");
    }

    #[test]
    fn tracked_atoms_are_restored_like_the_oracle() {
        let stream: Vec<u64> = (0..600u64).map(|i| [3, 4, 17, 29, 3, 3, 4][(i % 7) as usize] + i % 2).collect();
        let syn = fed(5, 3, &stream);
        assert!(!syn.tracked_heavy_hitters().is_empty(), "the stream must exercise restores");
        let terms = vec![
            Term { coeff: 2, queries: vec![3, 4] },
            Term { coeff: -1, queries: vec![17] },
            Term { coeff: 1, queries: vec![5, 30] },
        ];
        assert_all_paths(&syn, &[3, 4, 5, 17, 18, 29, 30, 999], &terms);
    }

    #[test]
    fn an_empty_bank_keeps_the_sign_of_zero() {
        // Nothing inserted: every counter is 0, so a sketch whose ξ is −1
        // yields −0.0.  A group of all −0.0 sums to −0.0 in the count
        // path but +0.0 once added onto the total path's 0.0 — both
        // orders must survive compilation.
        let syn = StreamSynopsis::new(SynopsisConfig { s1: 1, ..config(3, 0) });
        for v in 0..64u64 {
            let count = syn.evaluate(&syn.compile_count(v));
            assert_eq!(count.to_bits(), oracle::count(&syn, v).to_bits(), "value {v}");
            let total = syn.evaluate(&syn.compile_total(&[v]));
            assert_eq!(total.to_bits(), oracle::total(&syn, &[v]).to_bits(), "value {v}");
        }
        let negative = (0..64u64).any(|v| syn.evaluate(&syn.compile_count(v)).to_bits() == (-0.0f64).to_bits());
        assert!(negative, "some value must take the −0.0 path");
        assert_eq!(syn.evaluate(&syn.compile_total(&[])), 0.0);
    }

    #[test]
    fn plan_checks_match_the_estimator() {
        let syn = StreamSynopsis::new(SynopsisConfig { independence: 4, ..config(3, 0) });
        let triple = [Term { coeff: 1, queries: vec![1, 2, 3] }];
        assert!(matches!(
            syn.compile_terms(&triple),
            Err(SynopsisError::InsufficientIndependence { required: 7, actual: 4 })
        ));
        let dup = [Term { coeff: 1, queries: vec![9, 9] }];
        let syn = StreamSynopsis::new(config(3, 0));
        assert!(matches!(
            syn.compile_terms(&dup),
            Err(SynopsisError::Expr(ExprError::DuplicateQuery(9)))
        ));
    }

    #[test]
    #[should_panic(expected = "configuration it was compiled for")]
    fn a_plan_refuses_a_foreign_synopsis() {
        let a = StreamSynopsis::new(config(3, 0));
        let b = StreamSynopsis::new(SynopsisConfig { seed: 24, ..config(3, 0) });
        b.evaluate(&a.compile_count(1));
    }

    /// Counters near the i64 edges, loaded straight into the banks, with
    /// tracked frequencies that saturate the restore.
    fn hostile(p: usize, edge: i64, tracked: &[(u64, i64)]) -> StreamSynopsis {
        let syn = StreamSynopsis::new(config(p, 8));
        let mut state = syn.export_state();
        for (b, counters) in state.bank_counters.iter_mut().enumerate() {
            for (i, c) in counters.iter_mut().enumerate() {
                *c = edge.wrapping_sub((i as i64) * (b as i64 + 1) % 3);
            }
        }
        for &(v, f) in tracked {
            state.tracked[(v % p as u64) as usize].push((v, f));
        }
        StreamSynopsis::from_state(config(p, 8), state)
    }

    proptest! {
        /// Compiled evaluation equals the per-sketch oracle to the bit:
        /// random atom sets spanning several banks, tracked atoms,
        /// products of two, and counters at the i64 edges.
        #[test]
        fn compiled_evaluation_matches_the_oracle(
            p in 1usize..9,
            stream in prop::collection::vec(0u64..40, 0..400),
            atoms in prop::collection::btree_set(0u64..48, 1..10),
            coeffs in prop::collection::vec(-3i64..4, 4),
            topk in 0usize..4,
        ) {
            let syn = fed(p, topk, &stream);
            let atoms: Vec<u64> = atoms.into_iter().collect();
            let terms: Vec<Term> = atoms
                .windows(2)
                .zip(&coeffs)
                .map(|(w, &coeff)| Term { coeff, queries: w.to_vec() })
                .chain(atoms.first().map(|&a| Term { coeff: 3, queries: vec![a] }))
                .collect();
            assert_all_paths(&syn, &atoms, &terms);
        }

        #[test]
        fn compiled_evaluation_matches_the_oracle_at_the_integer_edges(
            p in 1usize..5,
            high in any::<bool>(),
            atoms in prop::collection::btree_set(0u64..24, 2..6),
            freqs in prop::collection::vec(prop_oneof![Just(i64::MAX), Just(i64::MIN), Just(i64::MIN + 1), -5i64..5], 4),
        ) {
            let atoms: Vec<u64> = atoms.into_iter().collect();
            let edge = if high { i64::MAX } else { i64::MIN };
            let tracked: Vec<(u64, i64)> = atoms.iter().copied().zip(freqs).collect();
            let syn = hostile(p, edge, &tracked);
            // Single-atom terms, plus a product of two atoms sharing a
            // bank: a term spanning two banks would add two edge counters
            // in i64, which overflows by construction.
            let mut terms: Vec<Term> =
                atoms.iter().map(|&a| Term { coeff: 1, queries: vec![a] }).collect();
            if let Some(w) = atoms.windows(2).find(|w| w[0] % p as u64 == w[1] % p as u64) {
                terms.push(Term { coeff: -2, queries: w.to_vec() });
            }
            assert_all_paths(&syn, &atoms, &terms);
        }

        /// Terms spanning several banks whose counters are large but
        /// whose i64 sums still fit: the i128 sum must give the oracle's
        /// i64 result bit for bit.
        #[test]
        fn wide_term_sums_match_the_oracle_wherever_i64_fits(
            p in 2usize..6,
            scale in 0u32..62,
            counters in prop::collection::vec(any::<i64>(), 5),
            atoms in prop::collection::btree_set(0u64..24, 2..6),
        ) {
            let atoms: Vec<u64> = atoms.into_iter().collect();
            let syn = loaded(p, |b, i| counters[(b + i) % counters.len()] >> scale);
            let terms: Vec<Term> = atoms
                .windows(2)
                .map(|w| Term { coeff: 1, queries: w.to_vec() })
                .chain(atoms.first().map(|&a| Term { coeff: -1, queries: vec![a] }))
                .collect();
            let plan = syn.compile_terms(&terms).unwrap();
            let n = syn.families();
            let fits = terms.iter().all(|t| {
                let mut banks: Vec<usize> = t.queries.iter().map(|&q| syn.route(q)).collect();
                banks.sort_unstable();
                banks.dedup();
                (0..n).all(|idx| {
                    banks.iter().try_fold(0i64, |acc, &b| {
                        acc.checked_add(syn.partition(b).unwrap().0.sketch_at(idx).raw())
                    }).is_some()
                })
            });
            prop_assume!(fits);
            prop_assert_eq!(syn.evaluate(&plan).to_bits(), oracle::terms(&syn, &terms).to_bits());
        }
    }

    /// Top-k off, every counter of bank `b` at position `i` set to
    /// `counter(b, i)`.
    fn loaded(p: usize, counter: impl Fn(usize, usize) -> i64) -> StreamSynopsis {
        let syn = StreamSynopsis::new(config(p, 0));
        let mut state = syn.export_state();
        for (b, counters) in state.bank_counters.iter_mut().enumerate() {
            for (i, c) in counters.iter_mut().enumerate() {
                *c = counter(b, i);
            }
        }
        StreamSynopsis::from_state(config(p, 0), state)
    }

    #[test]
    fn a_product_of_two_streams_at_two_to_the_62_stays_positive() {
        // Values 0 and 1 route to different banks, each as if 2⁶² copies
        // had been inserted: the counter is f·ξ.  Their term sums the two
        // banks' counters, reaching ±2⁶³ — one past i64::MAX — wherever
        // the two signs agree.
        let f = 1i64 << 62;
        let probe = StreamSynopsis::new(config(2, 0));
        assert_ne!(probe.route(0), probe.route(1));
        let sign = |b: usize, i: usize| probe.partition(b).unwrap().0.sketch_at(i).sign(b as u64);
        let syn = loaded(2, |b, i| f * sign(b, i));
        let plan = syn.compile_terms(&[Term { coeff: 1, queries: vec![0, 1] }]).unwrap();
        let est = syn.evaluate(&plan);
        // The estimator is 2f² on sketches whose signs agree and 0 on the
        // rest, so E = f² = 2¹²⁴; the boosted estimate must be positive
        // and of that order.
        let want = (f as f64).powi(2);
        assert!(est > 0.0, "product of two positive counts estimated as {est}");
        assert!(est <= 2.0 * want + 1.0, "{est} vs {want}");
    }
}
