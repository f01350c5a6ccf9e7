//! L4 — lock discipline in the concurrent server path.
//!
//! PR 1's review found the checkpoint path holding a lock across file
//! I/O, and the ingest path was one refactor away from re-acquiring a
//! `RwLock` it already held (instant deadlock with `parking_lot`-style
//! non-reentrant locks).  This pass polices three shapes:
//!
//! * **(a) nested acquisition** — `.lock(`/`.read(`/`.write(` lexically
//!   inside the argument span of another acquisition.  The closure-based
//!   `SharedState::read(|s| …)` wrappers hold the lock for exactly that
//!   span, so an acquisition inside it runs under the outer lock.
//! * **(b) guard-held re-acquisition** — a `let`-bound guard from an
//!   empty-argument acquisition (`let g = x.read();`) followed by a
//!   later acquisition on the *same dotted receiver* in the same
//!   function.  Guard objects live to end of scope; re-reading the same
//!   lock self-deadlocks under a pending writer.
//! * **(c) I/O under lock** (`server.rs` only) — `std::fs::*` calls or
//!   stream I/O methods inside an acquisition span or after a held
//!   guard.  Disk latency under a lock stalls every other connection.
//!
//! The checkpoint serialization mutex intentionally violates (c) — its
//! whole purpose is to serialize snapshot I/O — and carries L4 allow
//! markers saying so.

use super::{Pass, RawFinding};
use crate::lexer::TokenKind;
use crate::source::{Func, SourceFile};

const ACQUIRE_METHODS: &[&str] = &["lock", "read", "write"];
const IO_METHODS: &[&str] = &[
    "write_all",
    "flush",
    "sync_all",
    "sync_data",
    "read_exact",
    "read_to_end",
];
const FS_FNS: &[&str] = &[
    "write",
    "read",
    "rename",
    "remove_file",
    "create_dir_all",
    "File",
    "OpenOptions",
];

/// One lock acquisition site inside a function body.
struct Acq {
    /// Token index of the method identifier.
    idx: usize,
    method: String,
    /// Dotted receiver chain, e.g. `self.ck.lock` for `self.ck.lock.lock()`.
    recv: String,
    /// Argument span: `(` index ..= `)` index.
    open: usize,
    close: usize,
    /// `let`-bound with an empty argument list — a guard that lives to
    /// end of scope.
    guard: bool,
    line: u32,
}

/// The L4 pass.
pub struct LockDiscipline;

impl Pass for LockDiscipline {
    fn rule(&self) -> &'static str {
        "L4"
    }

    fn applies(&self, rel: &str) -> bool {
        rel.starts_with("crates/server/src/")
            || rel == "crates/core/src/concurrent.rs"
    }

    fn run(&self, file: &SourceFile, out: &mut Vec<RawFinding>) {
        let police_io = file.rel.ends_with("server.rs");
        for func in &file.functions {
            if func.body.is_empty() || file.in_test[func.body.start] {
                continue;
            }
            let acqs = find_acquisitions(file, func);

            // (a) acquisition nested inside another acquisition's span.
            for b in &acqs {
                for a in &acqs {
                    if b.idx > a.open && b.idx < a.close {
                        out.push(RawFinding {
                            rule: "L4",
                            line: b.line,
                            message: format!(
                                ".{}() on `{}` inside the span of .{}() on `{}` runs under the outer lock",
                                b.method, b.recv, a.method, a.recv
                            ),
                        });
                        break;
                    }
                }
            }

            // (b) re-acquisition on the same receiver while a guard is held.
            for a in acqs.iter().filter(|a| a.guard) {
                for b in acqs.iter().filter(|b| b.idx > a.close) {
                    if b.recv == a.recv {
                        out.push(RawFinding {
                            rule: "L4",
                            line: b.line,
                            message: format!(
                                ".{}() on `{}` while a guard from line {} is still held",
                                b.method, b.recv, a.line
                            ),
                        });
                    }
                }
            }

            // (c) I/O inside an acquisition span or after a held guard.
            if police_io {
                for io in find_io_sites(file, func) {
                    let under = acqs
                        .iter()
                        .find(|a| (io.0 > a.open && io.0 < a.close) || (a.guard && io.0 > a.close));
                    if let Some(a) = under {
                        out.push(RawFinding {
                            rule: "L4",
                            line: io.1,
                            message: format!(
                                "file/stream I/O `{}` while the lock from line {} is held",
                                io.2, a.line
                            ),
                        });
                    }
                }
            }
        }
    }
}

/// Collects every `.lock(`/`.read(`/`.write(` call in `func`'s body.
fn find_acquisitions(file: &SourceFile, func: &Func) -> Vec<Acq> {
    let mut out = Vec::new();
    for i in func.body.clone() {
        let Some(tok) = file.code_token(i) else { continue };
        if tok.kind != TokenKind::Ident || !ACQUIRE_METHODS.contains(&tok.text.as_str()) {
            continue;
        }
        let Some(dot) = file.prev_code(i).filter(|&p| file.is_punct(p, ".")) else {
            continue;
        };
        let Some(open) = file.next_code(i).filter(|&n| file.is_punct(n, "(")) else {
            continue;
        };
        let close = file.matching_paren(open);
        let empty_args = file.next_code(open) == Some(close);
        out.push(Acq {
            idx: i,
            method: tok.text.clone(),
            recv: receiver_chain(file, dot),
            open,
            close,
            guard: empty_args && in_let_statement(file, func, i),
            line: tok.line,
        });
    }
    out
}

/// The dotted receiver to the left of the `.` at `dot`, rendered as
/// `a.b.c`; non-trivial receivers (call results, indexing) render as an
/// opaque `<expr>` so they never compare equal to a field chain.
fn receiver_chain(file: &SourceFile, dot: usize) -> String {
    let mut parts = Vec::new();
    let mut d = dot;
    loop {
        let Some(p) = file.prev_code(d) else { break };
        let t = &file.tokens[p];
        if t.kind != TokenKind::Ident {
            parts.push("<expr>".to_string());
            break;
        }
        parts.push(t.text.clone());
        match file.prev_code(p) {
            Some(d2) if file.is_punct(d2, ".") => d = d2,
            _ => break,
        }
    }
    parts.reverse();
    parts.join(".")
}

/// True when token `i` sits in a `let …;` statement (scanning back to the
/// nearest statement boundary inside the function body).
fn in_let_statement(file: &SourceFile, func: &Func, i: usize) -> bool {
    let mut j = i;
    while j > func.body.start {
        j -= 1;
        let Some(t) = file.code_token(j) else { continue };
        match t.text.as_str() {
            ";" | "{" | "}" => return false,
            "let" if t.kind == TokenKind::Ident => return true,
            _ => {}
        }
    }
    false
}

/// `(token index, line, description)` of each I/O site in `func`.
fn find_io_sites(file: &SourceFile, func: &Func) -> Vec<(usize, u32, String)> {
    let mut out = Vec::new();
    for i in func.body.clone() {
        let Some(tok) = file.code_token(i) else { continue };
        if tok.kind != TokenKind::Ident {
            continue;
        }
        // `fs::write(…)`, `std::fs::rename(…)` …
        if tok.text == "fs" {
            if let Some(sep) = file.next_code(i).filter(|&n| file.is_punct(n, "::")) {
                if let Some(f) = file
                    .next_code(sep)
                    .filter(|&f| FS_FNS.contains(&file.tokens[f].text.as_str()))
                {
                    out.push((i, tok.line, format!("fs::{}", file.tokens[f].text)));
                }
            }
        }
        // `.write_all(…)`, `.flush()` …
        if IO_METHODS.contains(&tok.text.as_str())
            && file.prev_code(i).map_or(false, |p| file.is_punct(p, "."))
            && file.next_code(i).map_or(false, |n| file.is_punct(n, "("))
        {
            out.push((i, tok.line, format!(".{}()", tok.text)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_on(rel: &str, src: &str) -> Vec<RawFinding> {
        let f = SourceFile::parse(rel, src);
        let mut out = Vec::new();
        LockDiscipline.run(&f, &mut out);
        out
    }

    #[test]
    fn nested_acquisition_flagged() {
        let out = run_on(
            "crates/server/src/x.rs",
            "fn f(&self) { self.shared.write(|s| { self.shared.read(|t| t.n()) }); }",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("inside the span"));
    }

    #[test]
    fn guard_then_same_receiver_flagged() {
        let out = run_on(
            "crates/server/src/x.rs",
            "fn f(&self) { let g = self.map.read(); let n = g.len(); let h = self.map.read(); }",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("still held"));
    }

    #[test]
    fn sequential_closure_reads_ok() {
        // Closure-style wrappers release at the call's `)`; two in a row
        // (even let-bound) never overlap.
        let out = run_on(
            "crates/server/src/x.rs",
            "fn f(&self) { let a = self.shared.read(|s| s.n()); let b = self.shared.read(|s| s.m()); }",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn io_under_guard_flagged_in_server_only() {
        let src = "fn f(&self) { let g = self.ck.lock.lock(); fs::write(p, b); }";
        let out = run_on("crates/server/src/server.rs", src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("fs::write"));
        let out = run_on("crates/server/src/wire.rs", src);
        assert!(out.is_empty(), "I/O policing is server.rs-scoped: {out:?}");
    }

    #[test]
    fn pass_covers_the_batch_ingest_path() {
        // Batch ingest alternates the synopsis' shared and exclusive
        // locks in core/concurrent.rs; lock misuse there deadlocks every
        // ingesting connection at once, so the pass covers it alongside
        // the server.
        assert!(LockDiscipline.applies("crates/core/src/concurrent.rs"));
        assert!(!LockDiscipline.applies("crates/core/src/window.rs"));
        let out = run_on(
            "crates/core/src/concurrent.rs",
            "fn f(&self) { let g = self.inner.read(); let h = self.inner.write(); }",
        );
        assert_eq!(out.len(), 1, "{out:?}");
    }

    #[test]
    fn different_receivers_under_guard_ok_without_io() {
        let out = run_on(
            "crates/server/src/x.rs",
            "fn f(&self) { let g = self.a.lock(); self.b.read(|s| s.n()); }",
        );
        assert!(out.is_empty(), "{out:?}");
    }
}
