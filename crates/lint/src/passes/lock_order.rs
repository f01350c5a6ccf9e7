//! L6 — global lock-order discipline.
//!
//! A deadlock needs two *paths* that acquire the same locks in opposite
//! orders, and those paths routinely span files (the push path threads
//! `server.rs` → `subs.rs` → `standing`), or one path that takes a lock
//! it already holds.  This pass walks the [`Workspace`] index:
//!
//! 1. every acquisition nested inside another guard's live span — in the
//!    same body or one helper call away — contributes a directed edge
//!    `outer lock → inner lock`;
//! 2. a call that (one level deep) re-acquires the *same* lock the
//!    caller already holds is reported immediately — non-reentrant
//!    mutexes self-deadlock there without needing a second thread;
//! 3. any cycle in the resulting digraph is reported on every edge that
//!    participates, naming the full cycle, so each site can be fixed or
//!    carry its own reasoned allow.
//!
//! Nesting two *different* locks is not a finding on its own: it only
//! records the order edge, and becomes a finding when another path
//! closes a cycle through it.  Nor does any file scope apply: every
//! non-test function in the workspace contributes edges.
//!
//! Lock identity is receiver-based (see [`crate::index`]): the analysis
//! is exact when each lock is acquired through one accessor, which is
//! the workspace convention (`lock_table()`, `QueryRegistry::lock`, …).

use super::{Workspace, WorkspacePass, WsFinding};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The L6 pass.
pub struct LockOrder;

/// One lock-order edge with the site that witnessed it.
struct Edge {
    file: String,
    line: u32,
    note: String,
}

impl WorkspacePass for LockOrder {
    fn rule(&self) -> &'static str {
        "L6"
    }

    fn run(&self, ws: &Workspace, out: &mut Vec<WsFinding>) {
        // Gather edges: (outer lock, inner lock) → first witnessing site.
        let mut edges: BTreeMap<(String, String), Edge> = BTreeMap::new();
        for f in &ws.index.fns {
            if ws.fn_in_test(f) {
                continue;
            }
            let file = &ws.files[f.file];
            for outer in &f.acqs {
                // Direct nesting inside the guard's span.
                for inner in &f.acqs {
                    if inner.tok == outer.tok || !outer.span.contains(&inner.tok) {
                        continue;
                    }
                    if inner.lock == outer.lock {
                        out.push(WsFinding {
                            rule: "L6",
                            file: file.rel.clone(),
                            line: inner.line,
                            message: format!(
                                "`{}` re-acquired (.{}()) while the guard from line {} is live — \
                                 self-deadlock with a non-reentrant lock",
                                inner.lock, inner.method, outer.line
                            ),
                        });
                        continue;
                    }
                    edges.entry((outer.lock.clone(), inner.lock.clone())).or_insert(Edge {
                        file: file.rel.clone(),
                        line: inner.line,
                        note: format!("in `{}`", f.name),
                    });
                }
                // One level of call resolution: locks the callee takes
                // are taken under this guard.
                for call in &f.calls {
                    // A call to a guard-returning helper synthesizes an
                    // acquisition at its own token; the call is the
                    // acquisition, not a nested one under it.
                    if !outer.span.contains(&call.tok) || call.tok == outer.tok {
                        continue;
                    }
                    let Some(gi) = ws.index.resolve_call(call, f) else { continue };
                    let callee = &ws.index.fns[gi];
                    for inner in &callee.acqs {
                        if inner.lock == outer.lock {
                            out.push(WsFinding {
                                rule: "L6",
                                file: file.rel.clone(),
                                line: call.line,
                                message: format!(
                                    "call to `{}` re-acquires `{}` (at {}:{}) while the guard \
                                     from line {} is live — self-deadlock with a non-reentrant lock",
                                    call.name,
                                    inner.lock,
                                    ws.files[callee.file].rel,
                                    inner.line,
                                    outer.line
                                ),
                            });
                            continue;
                        }
                        edges
                            .entry((outer.lock.clone(), inner.lock.clone()))
                            .or_insert(Edge {
                                file: file.rel.clone(),
                                line: call.line,
                                note: format!("in `{}` via call to `{}`", f.name, call.name),
                            });
                    }
                }
            }
        }

        // Adjacency for cycle detection.
        let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for (from, to) in edges.keys() {
            adj.entry(from).or_default().insert(to);
        }
        // An edge participates in a cycle iff its target can reach its
        // source.  The graph is tiny (a handful of named locks), so a
        // BFS per edge is fine — and the path gives a readable cycle.
        for ((from, to), edge) in &edges {
            if let Some(path) = bfs_path(&adj, to, from) {
                let mut cycle = vec![from.as_str()];
                cycle.extend(path.iter().copied());
                out.push(WsFinding {
                    rule: "L6",
                    file: edge.file.clone(),
                    line: edge.line,
                    message: format!(
                        "lock-order cycle: {} (this edge `{}` → `{}` {}) — deadlock candidate",
                        cycle.join(" → "),
                        from,
                        to,
                        edge.note
                    ),
                });
            }
        }
    }
}

/// Shortest path `from … to` (inclusive of both, excluding the leading
/// `from` duplicate), or `None` when unreachable.
fn bfs_path<'a>(
    adj: &BTreeMap<&'a str, BTreeSet<&'a str>>,
    from: &'a str,
    to: &str,
) -> Option<Vec<&'a str>> {
    let mut prev: BTreeMap<&str, &str> = BTreeMap::new();
    let mut q = VecDeque::from([from]);
    let mut seen = BTreeSet::from([from]);
    while let Some(n) = q.pop_front() {
        if n == to {
            let mut path = vec![n];
            let mut cur = n;
            while let Some(&p) = prev.get(cur) {
                path.push(p);
                cur = p;
            }
            path.reverse();
            return Some(path);
        }
        for &m in adj.get(n).into_iter().flatten() {
            if seen.insert(m) {
                prev.insert(m, n);
                q.push_back(m);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn run(files: &[(&str, &str)]) -> Vec<WsFinding> {
        let files: Vec<SourceFile> = files.iter().map(|(r, s)| SourceFile::parse(r, s)).collect();
        let ws = Workspace::new(files, Vec::new());
        let mut out = Vec::new();
        LockOrder.run(&ws, &mut out);
        out
    }

    #[test]
    fn opposite_orders_across_files_form_a_cycle() {
        let out = run(&[
            (
                "crates/a/src/x.rs",
                "impl A { fn f(&self) { let g = self.alpha.lock(); let h = self.beta.lock(); } }",
            ),
            (
                "crates/b/src/y.rs",
                "impl A { fn r(&self) { let g = self.beta.lock(); let h = self.alpha.lock(); } }",
            ),
        ]);
        let cycles: Vec<_> = out.iter().filter(|f| f.message.contains("cycle")).collect();
        assert_eq!(cycles.len(), 2, "both edges participate: {out:?}");
        assert!(cycles.iter().any(|f| f.file == "crates/a/src/x.rs"));
        assert!(cycles.iter().any(|f| f.file == "crates/b/src/y.rs"));
    }

    #[test]
    fn consistent_order_is_clean() {
        let out = run(&[
            (
                "crates/a/src/x.rs",
                "impl A { fn f(&self) { let g = self.alpha.lock(); let h = self.beta.lock(); } \
                 fn r(&self) { let g = self.alpha.lock(); let h = self.beta.lock(); } }",
            ),
        ]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn cycle_through_a_helper_call_is_found() {
        let out = run(&[
            (
                "crates/a/src/x.rs",
                "impl A { fn f(&self) { let g = self.alpha.lock(); self.take_beta(); } \
                 fn take_beta(&self) { let h = self.beta.lock(); h.touch(); } }",
            ),
            (
                "crates/b/src/y.rs",
                "impl B { fn r(&self, a: &A) { let h = self.beta.lock(); let g = self.alpha.lock(); } }",
            ),
        ]);
        // Same impl-type receiver names on both sides: A.alpha→A.beta via
        // the helper in one file… but file two uses impl B, so names
        // differ.  Use matching impl names to force the cycle instead.
        let out2 = run(&[
            (
                "crates/a/src/x.rs",
                "impl A { fn f(&self) { let g = self.alpha.lock(); self.take_beta(); } \
                 fn take_beta(&self) { let h = self.beta.lock(); h.touch(); } \
                 fn r(&self) { let h = self.beta.lock(); let g = self.alpha.lock(); } }",
            ),
        ]);
        assert!(out2.iter().any(|f| f.message.contains("cycle")), "{out2:?}");
        drop(out);
    }

    #[test]
    fn helper_returned_guard_re_acquired_is_self_deadlock() {
        let out = run(&[(
            "crates/a/src/x.rs",
            "impl A { fn lock_t(&self) -> MutexGuard<'_, T> { self.t.lock().unwrap_or_else(E::into_inner) } \
             fn f(&self) { let g = self.lock_t(); self.lock_t(); } }",
        )]);
        assert!(
            out.iter().any(|f| f.message.contains("re-acquire")),
            "{out:?}"
        );
    }

    #[test]
    fn block_scoped_guard_does_not_leak_into_sibling_code() {
        // The ingest shape: a read guard scoped to its own block, then a
        // write acquisition after the block closes.  Span tracking sees
        // the guard die at the block's `}`.
        let out = run(&[(
            "crates/a/src/x.rs",
            "impl A { fn f(&self) { let v = { let g = self.inner.read(); g.n() }; \
             let w = self.inner.write(); } }",
        )]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn nested_same_lock_in_a_closure_span_is_self_deadlock() {
        // Closure-style wrappers (`shared.write(|s| …)`) hold the lock
        // for exactly the argument span.
        let out = run(&[(
            "crates/server/src/x.rs",
            "impl S { fn f(&self) { self.shared.write(|s| { self.shared.read(|t| t.n()) }); } }",
        )]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("re-acquired"), "{out:?}");
    }

    #[test]
    fn guard_then_same_receiver_is_self_deadlock() {
        // The second case is the batch-ingest path, which alternates the
        // synopsis' shared and exclusive locks: misuse there deadlocks
        // every ingesting connection at once.
        for (rel, src) in [
            (
                "crates/server/src/x.rs",
                "impl S { fn f(&self) { let g = self.map.read(); let n = g.len(); let h = self.map.read(); } }",
            ),
            (
                "crates/core/src/concurrent.rs",
                "impl Shared { fn f(&self) { let g = self.inner.read(); let h = self.inner.write(); } }",
            ),
        ] {
            let out = run(&[(rel, src)]);
            assert_eq!(out.len(), 1, "{out:?}");
            assert!(out[0].message.contains("re-acquired"), "{out:?}");
        }
    }

    #[test]
    fn sequential_closure_reads_are_clean() {
        // Closure-style wrappers release at the call's `)`; two in a row
        // (even let-bound) never overlap.
        let out = run(&[(
            "crates/server/src/x.rs",
            "impl S { fn f(&self) { let a = self.shared.read(|s| s.n()); let b = self.shared.read(|s| s.m()); } }",
        )]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn nested_distinct_locks_are_an_order_edge_not_a_finding() {
        // Deliberate policy: taking a second, different lock under a
        // guard only records the edge `a → b`; it is a finding when some
        // other path closes a cycle through it.
        let nested = "impl S { fn f(&self) { self.a.write(|s| self.b.read(|t| t.n())); } }";
        assert!(run(&[("crates/server/src/x.rs", nested)]).is_empty());
        let reversed = "impl S { fn r(&self) { let g = self.b.lock(); self.a.read(|s| s.n()); } }";
        let out = run(&[("crates/server/src/x.rs", nested), ("crates/server/src/y.rs", reversed)]);
        assert_eq!(out.iter().filter(|f| f.message.contains("cycle")).count(), 2, "{out:?}");
    }

    #[test]
    fn test_code_is_ignored() {
        let out = run(&[(
            "crates/a/src/x.rs",
            "#[cfg(test)]\nmod tests { fn f(a: &A) { let g = a.x.lock(); let h = a.y.lock(); } \
             fn r(a: &A) { let h = a.y.lock(); let g = a.x.lock(); } }",
        )]);
        assert!(out.is_empty(), "{out:?}");
    }
}
