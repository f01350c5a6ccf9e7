//! L7 — blocking calls while a lock guard is live.
//!
//! A lock held across I/O or an unbounded wait turns one slow peer into
//! a server-wide stall: every thread queueing on that lock inherits the
//! disk's or the network's latency.  L4 polices the lexical shape in
//! `server.rs` only; this pass uses the workspace index's guard spans
//! and one-level call resolution, so it also catches the PR 6 pusher
//! shape — a frame written through a mutex shared with the reply path —
//! and blocking work hidden one helper call below the acquisition.
//!
//! Flagged while a guard is live:
//! * stream/file methods — `write_all`, `flush`, `sync_all`,
//!   `sync_data`, `read_exact`, `read_to_end`;
//! * frame I/O — `write_frame`/`read_frame` (bare or method calls);
//! * filesystem/socket paths — `fs::*`, `File::*`, `OpenOptions::*`,
//!   `TcpStream::connect`, `thread::sleep`;
//! * channel waits — `.recv()`/`.recv_timeout()` (bounded-queue `recv`
//!   blocks; `try_send`/`try_recv` are non-blocking and exempt).
//!
//! Intentional sites — the checkpoint mutex that exists to serialize
//! snapshot I/O, the worker handoff that holds the receiver mutex only
//! for the dequeue — carry reasoned allow markers for this rule.

use super::{Workspace, WorkspacePass, WsFinding};
use crate::index::FnInfo;
use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// Dotted method calls that block on I/O or a channel.
const BLOCKING_METHODS: &[&str] = &[
    "write_all",
    "flush",
    "sync_all",
    "sync_data",
    "read_exact",
    "read_to_end",
    "recv",
    "recv_timeout",
    "write_frame",
    "read_frame",
    "connect",
    "accept",
];

/// Bare function calls that block.
const BLOCKING_FNS: &[&str] = &["write_frame", "read_frame", "sleep"];

/// `path::fn` prefixes that block (the path segment before `::`).
const BLOCKING_PATHS: &[&str] = &["fs", "File", "OpenOptions", "TcpStream", "thread"];

/// The L7 pass.
pub struct BlockingUnderLock;

/// Whether `rel` is in the concurrency-sensitive scope.
fn in_scope(rel: &str) -> bool {
    rel.starts_with("crates/server/src/")
        || rel == "crates/core/src/concurrent.rs"
        || rel.starts_with("crates/standing/src/")
        || rel.starts_with("crates/metrics/src/")
}

impl WorkspacePass for BlockingUnderLock {
    fn rule(&self) -> &'static str {
        "L7"
    }

    fn run(&self, ws: &Workspace, out: &mut Vec<WsFinding>) {
        for f in &ws.index.fns {
            let file = &ws.files[f.file];
            if !in_scope(&file.rel) || ws.fn_in_test(f) {
                continue;
            }
            let sites = blocking_sites(file, f);
            for acq in &f.acqs {
                // Direct blocking sites inside the guard span.
                for (tok, line, desc) in &sites {
                    if acq.span.contains(tok) && *tok != acq.tok {
                        out.push(WsFinding {
                            rule: "L7",
                            file: file.rel.clone(),
                            line: *line,
                            message: format!(
                                "blocking call {desc} while `{}` (acquired line {}) is held",
                                acq.lock, acq.line
                            ),
                        });
                    }
                }
                // One call level down.
                for call in &f.calls {
                    // call.tok == acq.tok is the guard-returning helper
                    // call that synthesized this acquisition, not work
                    // performed under it.
                    if !acq.span.contains(&call.tok) || call.tok == acq.tok {
                        continue;
                    }
                    let Some(gi) = ws.index.resolve_call(call, f) else { continue };
                    let callee: &FnInfo = &ws.index.fns[gi];
                    let callee_file = &ws.files[callee.file];
                    if let Some((_, cline, cdesc)) =
                        blocking_sites(callee_file, callee).into_iter().next()
                    {
                        out.push(WsFinding {
                            rule: "L7",
                            file: file.rel.clone(),
                            line: call.line,
                            message: format!(
                                "call to `{}` blocks ({cdesc} at {}:{cline}) while `{}` \
                                 (acquired line {}) is held",
                                call.name, callee_file.rel, acq.lock, acq.line
                            ),
                        });
                    }
                }
            }
        }
        // One finding per (file, line, message).
        out.sort_by(|a, b| (&a.file, a.line, &a.message).cmp(&(&b.file, b.line, &b.message)));
        out.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.message == b.message);
    }
}

/// `(token, line, description)` of every blocking call in `f`'s body.
fn blocking_sites(file: &SourceFile, f: &FnInfo) -> Vec<(usize, u32, String)> {
    let mut out = Vec::new();
    for i in f.body.clone() {
        let Some(tok) = file.code_token(i) else { continue };
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let name = tok.text.as_str();
        // `fs::write(…)`, `TcpStream::connect(…)`, `thread::sleep(…)` …
        if BLOCKING_PATHS.contains(&name) {
            if let Some(sep) = file.next_code(i).filter(|&n| file.is_punct(n, "::")) {
                if let Some(fi) = file.next_code(sep) {
                    let ft = &file.tokens[fi];
                    let callish = file.next_code(fi).map_or(false, |n| {
                        file.is_punct(n, "(") || file.is_punct(n, "::")
                    });
                    // `thread::` blocks only via `sleep` (spawn is fine);
                    // the file/socket paths block on any constructor.
                    let blocks = name != "thread" || ft.text == "sleep";
                    if ft.kind == TokenKind::Ident && callish && blocks {
                        out.push((i, tok.line, format!("`{}::{}`", name, ft.text)));
                        continue;
                    }
                }
            }
        }
        let Some(_open) = file.next_code(i).filter(|&n| file.is_punct(n, "(")) else { continue };
        let dotted = file.prev_code(i).map_or(false, |p| file.is_punct(p, "."));
        if dotted && BLOCKING_METHODS.contains(&name) {
            out.push((i, tok.line, format!("`.{name}()`")));
        } else if !dotted && BLOCKING_FNS.contains(&name) {
            // `thread::sleep` already matched above; a bare `sleep(`/
            // `write_frame(` lands here.
            let pathed = file.prev_code(i).map_or(false, |p| file.is_punct(p, "::"));
            if !pathed {
                out.push((i, tok.line, format!("`{name}(…)`")));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> Vec<WsFinding> {
        let files: Vec<SourceFile> = files.iter().map(|(r, s)| SourceFile::parse(r, s)).collect();
        let ws = Workspace::new(files, Vec::new());
        let mut out = Vec::new();
        BlockingUnderLock.run(&ws, &mut out);
        out
    }

    #[test]
    fn frame_write_under_writer_mutex_is_flagged() {
        // The PR 6 pusher shape.
        let out = run(&[(
            "crates/server/src/server.rs",
            "fn push(writer: &Mutex<TcpStream>) { let mut w = writer.lock().unwrap_or_else(|e| e.into_inner()); \
             if write_frame(&mut *w, k, &p).is_err() { return; } }",
        )]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("write_frame"), "{out:?}");
    }

    #[test]
    fn recv_on_a_locked_receiver_is_flagged() {
        let out = run(&[(
            "crates/server/src/server.rs",
            "fn next(rx: &Mutex<Receiver<T>>) { let conn = rx.lock().unwrap_or_else(|e| e.into_inner()).recv(); }",
        )]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("recv"), "{out:?}");
    }

    #[test]
    fn io_one_call_level_below_the_guard_is_flagged() {
        let out = run(&[(
            "crates/server/src/server.rs",
            "fn save(&self) { let g = self.ck.lock(); self.persist(); } \
             fn persist(&self) { fs::write(p, b); }",
        )]);
        assert!(
            out.iter().any(|f| f.message.contains("persist")),
            "{out:?}"
        );
    }

    #[test]
    fn encode_outside_then_write_inside_is_only_the_write() {
        let out = run(&[(
            "crates/server/src/server.rs",
            "fn push(writer: &Mutex<TcpStream>) { let bytes = frame_bytes(k, &p); \
             let mut w = writer.lock().unwrap_or_else(|e| e.into_inner()); let _ = w.write_all(&bytes); }",
        )]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("write_all"));
    }

    #[test]
    fn try_send_is_not_blocking() {
        let out = run(&[(
            "crates/server/src/subs.rs",
            "impl S { fn b(&self) { let t = self.table.lock(); t.tx.try_send(u); } }",
        )]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn io_after_guard_dropped_is_clean() {
        let out = run(&[(
            "crates/server/src/server.rs",
            "fn f(m: &Mutex<T>) { let g = m.lock(); let v = g.n(); drop(g); fs::write(p, v); }",
        )]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn out_of_scope_crates_are_silent() {
        let out = run(&[(
            "crates/core/src/sketchtree.rs",
            "fn f(m: &Mutex<T>) { let g = m.lock(); fs::write(p, b); }",
        )]);
        assert!(out.is_empty(), "{out:?}");
    }
}
