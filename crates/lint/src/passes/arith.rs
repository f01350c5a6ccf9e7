//! L3 — arithmetic discipline on sketch counters and frequencies.
//!
//! PR 1's review found an `i64` overflow in `bank.rs::effective_x` on
//! hostile snapshot frequencies: `X + Σ ξ_v·f_v` with `f_v` near
//! `i64::MAX` panicked in debug and wrapped in release, corrupting
//! every estimate that touched the restore list.  Theorem 1/2
//! unbiasedness assumes exact counter arithmetic, so overflow must be
//! an explicit policy (`checked_`, `wrapping_`, `saturating_`), never
//! an accident.
//!
//! The pass polices `crates/sketch` non-test code:
//!
//! * compound assignments `+=`, `-=`, `*=`, `<<=` and shifts `<<`
//!   anywhere (these are how counters accumulate), and
//! * bare binary `+`, `-`, `*` inside *update-path* functions (named
//!   `update*`, `insert`, `delete`, `add_raw`, `process*`, `offer`,
//!   `push`, `expire`, `merge`, the top-k filter's `filter` and
//!   `increment`), where per-element stream arithmetic happens, and
//!   inside the estimators and health functions that read counters and
//!   tracked frequencies (`estimate_*`, `evaluate`, `second_moment`,
//!   `residual_self_join*`): an `i64` product or sum there overflows on
//!   counters a long or hostile stream can reach.
//!
//! Float accumulation cannot panic or wrap (it saturates to ±inf), so
//! `f64` sites carry L3 allow markers rather than checked variants.

use super::{enclosing_fn, Pass, RawFinding};
use crate::lexer::TokenKind;
use crate::source::SourceFile;

const COMPOUND: &[&str] = &["+=", "-=", "*=", "<<=", "<<"];
const BARE: &[&str] = &["+", "-", "*"];

const UPDATE_FNS: &[&str] = &[
    "update",
    "update_with_signs",
    "add_raw",
    "insert",
    "delete",
    "process",
    "process_restored_with_signs",
    "offer",
    "push",
    "expire",
    "merge",
    // The wire-speed ingest path: one routed insert per element, sign
    // rows served from a direct-mapped cache and written through stride
    // indexes (`slot * families`, `start + families`).  A stride slip
    // here silently corrupts a *neighbouring* value's cached signs, so
    // the index arithmetic needs the same explicit-policy treatment as
    // the counters themselves.
    "insert_routed",
    "signs",
    "fill_signs_reduced",
    "untrack",
    // The ξ row kernel every slab-wide sign sweep runs through: its
    // unreduced u128 accumulation is correct only while K <= 64 products
    // of residues fit, so each sum carries its bound as an allow reason.
    "for_each_sign",
    "sign_row",
    // The Filter mode's in-place count of a tracked value: a frequency
    // update that skips the sketches, so it needs the counters' policy.
    "filter",
    "increment",
    "increment_unless",
    // Estimators and health gauges: they square and sum counters and
    // restore tracked frequencies, where an i64 overflow corrupts the
    // answer rather than the state.
    "evaluate",
    "second_moment",
];

/// Name prefixes that put a function in the bare-operator scope, for the
/// estimator and health families (`estimate_point`, `estimate_terms`,
/// `residual_self_join_group_means`, ...).
const UPDATE_FN_PREFIXES: &[&str] = &["estimate_", "residual_self_join"];

/// True if a function named `name` is in the bare-operator scope.
fn in_update_scope(name: &str) -> bool {
    UPDATE_FNS.contains(&name) || UPDATE_FN_PREFIXES.iter().any(|p| name.starts_with(p))
}

/// The L3 pass.
pub struct ArithDiscipline;

impl Pass for ArithDiscipline {
    fn rule(&self) -> &'static str {
        "L3"
    }

    fn applies(&self, rel: &str) -> bool {
        rel.starts_with("crates/sketch/src/")
    }

    fn run(&self, file: &SourceFile, out: &mut Vec<RawFinding>) {
        for i in 0..file.tokens.len() {
            if file.in_test[i] || file.code_token(i).is_none() {
                continue;
            }
            let tok = &file.tokens[i];
            if tok.kind != TokenKind::Punct {
                continue;
            }
            let op = tok.text.as_str();
            if COMPOUND.contains(&op) {
                // `<<` in a const expression like `1 << 20` is a shift on
                // a literal — still flagged; widths are part of the rule.
                out.push(RawFinding {
                    rule: "L3",
                    line: tok.line,
                    message: format!(
                        "`{op}` on counter/frequency state; use checked_/wrapping_/saturating_ (or allow with the overflow argument)"
                    ),
                });
            } else if BARE.contains(&op) {
                // Only inside update-path functions, and only in binary
                // position (previous code token ends an operand).
                let Some(func) = enclosing_fn(file, i) else { continue };
                if !in_update_scope(&func.name) {
                    continue;
                }
                let binary = file.prev_code(i).map_or(false, |p| {
                    let prev = &file.tokens[p];
                    match prev.kind {
                        TokenKind::Ident => {
                            !super::NON_POSTFIX_KEYWORDS.contains(&prev.text.as_str())
                        }
                        TokenKind::Num => true,
                        TokenKind::Punct => matches!(prev.text.as_str(), ")" | "]" | "?"),
                        _ => false,
                    }
                });
                if binary {
                    out.push(RawFinding {
                        rule: "L3",
                        line: tok.line,
                        message: format!(
                            "bare `{op}` in update path `{}`; use checked_/wrapping_/saturating_ (or allow with the overflow argument)",
                            func.name
                        ),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_on(src: &str) -> Vec<RawFinding> {
        let f = SourceFile::parse("crates/sketch/src/bank.rs", src);
        let mut out = Vec::new();
        ArithDiscipline.run(&f, &mut out);
        out
    }

    #[test]
    fn flags_compound_assign_and_bare_ops_in_update() {
        let out = run_on(
            "impl X { fn update(&mut self, v: u64, c: i64) { self.x += self.sign(v) * c; } }",
        );
        assert_eq!(out.len(), 2, "{out:?}");
    }

    #[test]
    fn bare_ops_outside_update_fns_ok() {
        let out = run_on("fn estimate(&self) -> f64 { self.a as f64 * self.b as f64 + 1.0 }");
        assert!(out.is_empty(), "{out:?}");
    }

    /// The estimator and health families are in scope by prefix: an
    /// unchecked square or sum of counters there is a finding.
    #[test]
    fn estimator_and_health_prefixes_in_scope() {
        for name in ["estimate_point", "estimate_self_join", "residual_self_join_group_means"] {
            let out = run_on(&format!("fn {name}(&self, x: i64) -> i64 {{ x * x + self.c }}"));
            assert_eq!(out.len(), 2, "{name}: {out:?}");
        }
        for name in ["evaluate", "second_moment", "increment", "filter"] {
            let out = run_on(&format!("fn {name}(&self, x: i64) -> i64 {{ x + 1 }}"));
            assert_eq!(out.len(), 1, "{name}: {out:?}");
        }
        // A near-miss name stays out of scope.
        assert!(run_on("fn estimated(x: i64) -> i64 { x * x }").is_empty());
    }

    #[test]
    fn unary_minus_and_deref_not_flagged() {
        let out = run_on("fn delete(&mut self, v: u64) { let x = -1; let y = *v_ref; f(x, y) }");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn shift_flagged_anywhere() {
        let out = run_on("const W: u64 = 1 << 20;");
        assert_eq!(out.len(), 1);
    }

    /// Stride-index arithmetic in the sign-cache lookup (`slot *
    /// families`, `start + families`) is inside L3's update-path scope:
    /// a slip corrupts a neighbouring slot's cached signs.
    #[test]
    fn stride_index_arithmetic_in_cache_lookup_flagged() {
        let out = run_on(
            "impl C { fn signs(&mut self, v: u64) -> &[i8] { let start = slot * self.families; &self.signs[start..start + self.families] } }",
        );
        assert_eq!(out.len(), 2, "{out:?}");
    }

    /// The routed-insert fast path folds the tracked-value restore into
    /// the insert delta; that fold is counter arithmetic and must use an
    /// explicit overflow policy.
    #[test]
    fn insert_routed_delta_arithmetic_flagged() {
        let out = run_on("fn insert_routed(restored: i64) { let delta = 1 + restored; g(delta); }");
        assert_eq!(out.len(), 1, "{out:?}");
    }

    /// The wrapping forms the hot path actually uses stay clean.
    #[test]
    fn wrapping_calls_in_stride_fns_ok() {
        let out = run_on(
            "fn insert_routed(restored: i64) { let delta = 1i64.wrapping_add(restored); g(delta); }",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn tests_excluded() {
        let out = run_on("#[cfg(test)] mod tests { fn t() { let mut x = 0; x += 1; } }");
        assert!(out.is_empty());
    }
}
