//! L8 — epoch and determinism discipline.
//!
//! PR 6's standing queries and epoch-keyed result cache depend on two
//! invariants that nothing type-checks:
//!
//! * **(a) every sketch mutation bumps the epoch.**  `SketchTree::epoch`
//!   is the cache key and the push tag; a mutation path that forgets to
//!   bump it serves stale cached estimates forever and pushes updates
//!   labelled with an epoch that never changed.  Any function in
//!   `sketchtree.rs`/`concurrent.rs` that calls a sketch-state mutator
//!   must bump the epoch itself (`self.epoch += 1` / `bump_epoch()`) or
//!   call — one level down — a function that does.
//! * **(b) unordered iteration may not feed deterministic output.**
//!   Snapshots, merges and wire encodings are bit-compared across runs
//!   and across shard counts; iterating a `HashMap`/`HashSet` into any
//!   of them injects randomized order.  Iteration inside an
//!   export/snapshot/encode/merge/write function is flagged unless the
//!   function visibly restores order (a `sort*` call or a
//!   `BTreeMap`/`BTreeSet` in the same body).
//!
//! The mutator-name tables are deliberately split: sketch-specific names
//! (`apply`, `merge_from`, `insert_routed`, …) count
//! anywhere in scope, while generic names (`insert`, `record`,
//! `observe`, `delete`) count only inside `&mut self` methods — a
//! read-only query path inserting into a local scratch map is not a
//! sketch mutation.

use super::{Workspace, WorkspacePass, WsFinding};
use crate::lexer::TokenKind;

/// Mutator names that always denote sketch-state mutation in scope.
const SPECIFIC_MUTATORS: &[&str] = &[
    "ingest",
    "apply",
    "insert_routed",
    "merge_from",
    "merge_remapped",
    "merge",
    "ingest_batch",
];

/// Mutator names that denote sketch mutation only under `&mut self`.
const GENERIC_MUTATORS: &[&str] = &["insert", "record", "observe", "delete"];

/// Files whose functions own the epoch discipline.  WAL replay
/// (`durability.rs`) re-runs ingest outside the serving path, so a
/// replay that mutated sketch state without the usual epoch-bumping
/// mutators would poison epoch-keyed caches from the very first request
/// after a restart.
const EPOCH_FILES: &[&str] = &[
    "crates/core/src/sketchtree.rs",
    "crates/core/src/concurrent.rs",
    "crates/server/src/durability.rs",
];

/// Files whose output functions must not leak hash-iteration order.
fn determinism_scope(rel: &str) -> bool {
    rel == "crates/core/src/snapshot.rs"
        || rel == "crates/core/src/summary.rs"
        || rel == "crates/core/src/sketchtree.rs"
        || rel.starts_with("crates/sketch/src/")
        || rel == "crates/server/src/wire.rs"
}

/// Function names that produce order-sensitive output.
const OUTPUT_FN_MARKERS: &[&str] = &["export", "snapshot", "encode", "merge", "write"];

/// Iteration methods on hash containers.
const ITER_METHODS: &[&str] = &["iter", "iter_mut", "into_iter", "keys", "values", "values_mut", "drain"];

/// The L8 pass.
pub struct EpochDiscipline;

impl WorkspacePass for EpochDiscipline {
    fn rule(&self) -> &'static str {
        "L8"
    }

    fn run(&self, ws: &Workspace, out: &mut Vec<WsFinding>) {
        self.check_epoch_bumps(ws, out);
        self.check_hash_iteration(ws, out);
    }
}

impl EpochDiscipline {
    /// (a) mutation ⇒ epoch bump, directly or through the call graph.
    fn check_epoch_bumps(&self, ws: &Workspace, out: &mut Vec<WsFinding>) {
        // Transitive bump set to a fixpoint: a function bumps if its
        // body does, or if *any* candidate definition of any callee
        // does.  Candidate matching is permissive on purpose — a
        // delegation chain (`Shared::ingest` → `SketchTree::ingest` →
        // `apply` which bumps) must never false-positive just
        // because one hop is ambiguous.
        let mut bumps: Vec<bool> = ws.index.fns.iter().map(|f| f.bumps_epoch).collect();
        loop {
            let mut changed = false;
            for (i, f) in ws.index.fns.iter().enumerate() {
                if bumps[i] {
                    continue;
                }
                let via_callee = f.calls.iter().any(|c| {
                    ws.index.candidates(&c.name).iter().any(|&gi| bumps[gi])
                });
                if via_callee {
                    bumps[i] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        for (i, f) in ws.index.fns.iter().enumerate() {
            let file = &ws.files[f.file];
            if !EPOCH_FILES.contains(&file.rel.as_str()) || ws.fn_in_test(f) {
                continue;
            }
            if f.name == "bump_epoch" {
                continue;
            }
            let mutator = f.calls.iter().find(|c| {
                SPECIFIC_MUTATORS.contains(&c.name.as_str())
                    || (f.mut_self && GENERIC_MUTATORS.contains(&c.name.as_str()))
            });
            let Some(mutator) = mutator else { continue };
            if bumps[i] {
                continue;
            }
            out.push(WsFinding {
                rule: "L8",
                file: file.rel.clone(),
                line: f.line,
                message: format!(
                    "`{}` mutates sketch state (calls `{}` at line {}) without bumping the \
                     synopsis epoch, directly or via a callee — stale epoch-keyed caches and \
                     mislabelled pushes",
                    f.name, mutator.name, mutator.line
                ),
            });
        }
    }

    /// (b) hash iteration inside deterministic-output functions.
    fn check_hash_iteration(&self, ws: &Workspace, out: &mut Vec<WsFinding>) {
        for f in &ws.index.fns {
            let file = &ws.files[f.file];
            if !determinism_scope(&file.rel) || ws.fn_in_test(f) {
                continue;
            }
            let lname = f.name.to_lowercase();
            if !OUTPUT_FN_MARKERS.iter().any(|m| lname.contains(m)) {
                continue;
            }
            let hash_names = &ws.index.hash_names[f.file];
            // A visible re-ordering step excuses iteration in this body.
            let reorders = f.body.clone().any(|i| {
                file.code_token(i).map_or(false, |t| {
                    t.kind == TokenKind::Ident
                        && (t.text == "BTreeMap"
                            || t.text == "BTreeSet"
                            || (t.text.starts_with("sort")
                                && file.next_code(i).map_or(false, |n| {
                                    file.is_punct(n, "(") || file.is_punct(n, "::")
                                })))
                })
            });
            if reorders {
                continue;
            }
            for i in f.body.clone() {
                let Some(t) = file.code_token(i) else { continue };
                if t.kind != TokenKind::Ident || !hash_names.contains(&t.text) {
                    continue;
                }
                let Some(dot) = file.next_code(i).filter(|&n| file.is_punct(n, ".")) else {
                    continue;
                };
                let Some(m) = file.next_code(dot) else { continue };
                if !ITER_METHODS.contains(&file.tokens[m].text.as_str()) {
                    continue;
                }
                if !file.next_code(m).map_or(false, |n| file.is_punct(n, "(")) {
                    continue;
                }
                out.push(WsFinding {
                    rule: "L8",
                    file: file.rel.clone(),
                    line: t.line,
                    message: format!(
                        "`{}` iterates hash container `{}` (`.{}()`), and its name says it \
                         feeds deterministic output — hash order varies per process; sort or \
                         use an ordered container",
                        f.name,
                        t.text,
                        file.tokens[m].text
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn run(files: &[(&str, &str)]) -> Vec<WsFinding> {
        let files: Vec<SourceFile> = files.iter().map(|(r, s)| SourceFile::parse(r, s)).collect();
        let ws = Workspace::new(files, Vec::new());
        let mut out = Vec::new();
        EpochDiscipline.run(&ws, &mut out);
        out
    }

    #[test]
    fn mutation_without_bump_is_flagged() {
        let out = run(&[(
            "crates/core/src/sketchtree.rs",
            "impl SketchTree { fn sneak(&mut self, v: u64) { self.synopsis.insert(v); } }",
        )]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("without bumping"), "{out:?}");
    }

    #[test]
    fn direct_bump_satisfies() {
        let out = run(&[(
            "crates/core/src/sketchtree.rs",
            "impl SketchTree { fn ok(&mut self, v: u64) { self.synopsis.insert(v); self.epoch += 1; } }",
        )]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn bump_via_callee_satisfies() {
        let out = run(&[(
            "crates/core/src/concurrent.rs",
            "impl Shared { fn batch(&self, t: &[Tree], v: &[u64]) { self.inner.write().apply(t, v); } }",
        ), (
            "crates/core/src/sketchtree.rs",
            "impl SketchTree { fn apply(&mut self, t: &[Tree], v: &[u64]) { self.synopsis.insert_routed(v); self.epoch += 1; } }",
        )]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn generic_mutators_only_count_under_mut_self() {
        // A read-only query path inserting into a scratch set is not a
        // sketch mutation.
        let out = run(&[(
            "crates/core/src/sketchtree.rs",
            "impl SketchTree { fn resolve(&self, q: &Q) -> Vec<T> { let mut seen = HashSet::new(); seen.insert(q.key()); vec![] } }",
        )]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn hash_iteration_in_export_is_flagged_unless_sorted() {
        let bad = run(&[(
            "crates/core/src/summary.rs",
            "struct S { children: HashMap<u64, C> } impl S { fn export(&self) -> Vec<u64> { \
             self.children.iter().map(|(k, _)| *k).collect() } }",
        )]);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].message.contains("hash order"), "{bad:?}");

        let good = run(&[(
            "crates/core/src/summary.rs",
            "struct S { children: HashMap<u64, C> } impl S { fn export(&self) -> Vec<u64> { \
             let mut v: Vec<u64> = self.children.iter().map(|(k, _)| *k).collect(); \
             v.sort_unstable(); v } }",
        )]);
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn wal_replay_mutation_without_bump_is_flagged() {
        // A replay path that pokes sketch state through a raw mutator —
        // instead of the epoch-bumping ingest — serves stale caches
        // from the first post-restart request.
        let out = run(&[(
            "crates/server/src/durability.rs",
            "fn replay_batch(st: &mut SketchTree, t: &[Tree], v: &[u64]) { st.apply(t, v); }",
        )]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("without bumping"), "{out:?}");
    }

    #[test]
    fn wal_replay_through_bumping_ingest_satisfies() {
        let out = run(&[(
            "crates/server/src/durability.rs",
            "fn replay_batch(st: &mut SketchTree, t: &[Tree]) { for x in t { st.ingest(x); } }",
        ), (
            "crates/core/src/sketchtree.rs",
            "impl SketchTree { pub fn ingest(&mut self, t: &Tree) { self.synopsis.insert_routed(t); self.bump_epoch(); } \
             fn bump_epoch(&mut self) { self.epoch += 1; } }",
        )]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn hash_iteration_outside_output_fns_is_fine() {
        let out = run(&[(
            "crates/core/src/summary.rs",
            "struct S { children: HashMap<u64, C> } impl S { fn lookup(&self) -> usize { \
             self.children.iter().count() } }",
        )]);
        assert!(out.is_empty(), "{out:?}");
    }
}
