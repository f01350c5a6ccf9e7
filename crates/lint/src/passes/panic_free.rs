//! L1 — panic-freedom in service-path library code.
//!
//! PR 1's review found worker threads panicking on hostile input; a
//! panic in a server worker kills the connection it serves and, under a
//! poisoned lock, can wedge the whole process.  This pass bans the
//! mechanically detectable panic sources — `.unwrap()`, `.expect(…)`,
//! `panic!`, `unreachable!`, `todo!`, `unimplemented!`, and slice/array
//! indexing `x[i]` — in the non-test library code of `crates/server`,
//! `crates/sketch`, and the `crates/core` ingest/query hot path.
//!
//! `assert!`-family macros are deliberately *not* banned: they state
//! preconditions at API boundaries, which is a design choice, not an
//! accident.  Sites whose bounds are structurally guaranteed carry a
//! `// lint:allow(L1, reason = "…")` marker stating the invariant.

use super::{Pass, RawFinding, NON_POSTFIX_KEYWORDS};
use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// Files in `crates/core` that sit on the per-tree ingest / per-query
/// estimate path (the rest of `core` is offline tooling: snapshot
/// decode already returns in-band errors, `exact` is measurement
/// scaffolding).
const CORE_HOT: &[&str] = &[
    "crates/core/src/sketchtree.rs",
    "crates/core/src/concurrent.rs",
    "crates/core/src/enumtree.rs",
    "crates/core/src/mapping.rs",
];

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// The L1 pass.
pub struct PanicFree;

impl Pass for PanicFree {
    fn rule(&self) -> &'static str {
        "L1"
    }

    fn applies(&self, rel: &str) -> bool {
        rel.starts_with("crates/server/src/")
            || rel.starts_with("crates/sketch/src/")
            || CORE_HOT.contains(&rel)
    }

    fn run(&self, file: &SourceFile, out: &mut Vec<RawFinding>) {
        for i in 0..file.tokens.len() {
            if file.in_test[i] || file.code_token(i).is_none() {
                continue;
            }
            let tok = &file.tokens[i];
            match tok.kind {
                TokenKind::Ident if tok.text == "unwrap" || tok.text == "expect" => {
                    let after_dot = file.prev_code(i).map_or(false, |p| file.is_punct(p, "."));
                    let called = file.next_code(i).map_or(false, |n| file.is_punct(n, "("));
                    if after_dot && called {
                        out.push(RawFinding {
                            rule: "L1",
                            line: tok.line,
                            message: format!(
                                ".{}() can panic; return an error or document the invariant",
                                tok.text
                            ),
                        });
                    }
                }
                TokenKind::Ident if PANIC_MACROS.contains(&tok.text.as_str()) => {
                    let is_macro = file.next_code(i).map_or(false, |n| file.is_punct(n, "!"));
                    // `panic` as a path segment (std::panic::catch_unwind)
                    // is not an invocation.
                    if is_macro {
                        out.push(RawFinding {
                            rule: "L1",
                            line: tok.line,
                            message: format!("{}! in library code", tok.text),
                        });
                    }
                }
                TokenKind::Punct if tok.text == "[" => {
                    let Some(p) = file.prev_code(i) else { continue };
                    let prev = &file.tokens[p];
                    let is_postfix = match prev.kind {
                        TokenKind::Ident => !NON_POSTFIX_KEYWORDS.contains(&prev.text.as_str()),
                        TokenKind::Punct => prev.text == ")" || prev.text == "]" || prev.text == "?",
                        _ => false,
                    };
                    if is_postfix {
                        out.push(RawFinding {
                            rule: "L1",
                            line: tok.line,
                            message: format!(
                                "index expression `{}[…]` can panic out of bounds; use get()/iterators or document the bound",
                                prev.text
                            ),
                        });
                    }
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_on(src: &str) -> Vec<RawFinding> {
        let f = SourceFile::parse("crates/server/src/x.rs", src);
        let mut out = Vec::new();
        PanicFree.run(&f, &mut out);
        out
    }

    #[test]
    fn flags_unwrap_expect_panics_and_indexing() {
        let out = run_on(
            "fn f(v: &[u8]) -> u8 { let a = v.first().unwrap(); x.expect(\"m\"); panic!(\"x\"); v[0] }",
        );
        let rules: Vec<_> = out.iter().map(|f| f.message.clone()).collect();
        assert_eq!(out.len(), 4, "{rules:?}");
    }

    #[test]
    fn ignores_tests_strings_and_patterns() {
        let out = run_on(
            r#"
fn ok(v: &[u8]) {
    let s = "x.unwrap() and v[0]";
    let [a, b] = [1, 2];
    let arr = [0u8; 4];
    let _ = (s, a, b, arr);
}
#[cfg(test)]
mod tests {
    fn t(v: &[u8]) { v[0]; x.unwrap(); panic!(); }
}
"#,
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn unreachable_and_todo_flagged() {
        let out = run_on("fn f() { if x { unreachable!() } else { todo!() } }");
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn scope_is_limited() {
        assert!(PanicFree.applies("crates/server/src/server.rs"));
        assert!(PanicFree.applies("crates/sketch/src/bank.rs"));
        assert!(PanicFree.applies("crates/core/src/sketchtree.rs"));
        assert!(!PanicFree.applies("crates/core/src/exact.rs"));
        assert!(!PanicFree.applies("crates/tree/src/prufer.rs"));
    }
}
