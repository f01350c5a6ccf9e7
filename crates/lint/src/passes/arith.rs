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
//!   `push`, `expire`, `merge`), where per-element stream arithmetic
//!   happens.
//!
//! Float accumulation cannot panic or wrap (it saturates to ±inf), so
//! `f64` sites carry L3 allow markers rather than checked variants.  Query-side estimate code multiplies freely in `f64` and
//! is deliberately out of the bare-operator scope.

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
    "process_with_signs",
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
];

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
                if !UPDATE_FNS.contains(&func.name.as_str()) {
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
        let f = SourceFile::parse("crates/sketch/src/ams.rs", src);
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
