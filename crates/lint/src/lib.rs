//! sketchtree-lint: a std-only static analyzer for the SketchTree
//! workspace.
//!
//! The analyzer lexes every workspace `.rs` file with its own Rust
//! lexer ([`lexer`]), annotates each file with test regions, function
//! bodies and `lint:allow` markers ([`source`]), and runs two stages of
//! passes ([`passes`]).  Stage one is per-file:
//!
//! | rule | pass | polices |
//! |------|------|---------|
//! | `L1` | panic-freedom | `unwrap`/`expect`/`panic!`/indexing in server, sketch, core hot paths |
//! | `L2` | cast-safety | integer `as` casts in wire.rs, snapshot.rs, prufer.rs, sketch |
//! | `L3` | arithmetic discipline | bare/compound arithmetic on sketch counters |
//! | `L5` | wire exhaustiveness | every opcode has an encode and a decode arm |
//!
//! Stage two builds a [`index::WorkspaceIndex`] — a symbol table, a
//! one-level call graph, and lock-guard live spans, from one extra walk
//! over the already-lexed token streams — and runs the graph-aware
//! workspace passes over it:
//!
//! | rule | pass | polices |
//! |------|------|---------|
//! | `L6` | lock order | cross-file lock-order cycles and guard-held re-acquisition, directly or through helpers |
//! | `L7` | blocking under lock | I/O, `recv`, and sleeps reachable while any guard is live |
//! | `L8` | epoch/determinism | sketch mutations must bump the epoch; hash iteration must not feed deterministic output |
//! | `L9` | spec drift | wire-protocol and observability docs must match wire.rs opcodes and registered metrics |
//!
//! Lock policy lives in L6/L7 alone; the id `L4` (a per-file lock pass
//! they subsume) is retired and not reused.
//!
//! A finding is excused — recorded, but not gate-failing — by a
//! same-line or preceding-line comment marker:
//!
//! ```text
//! // lint:allow(L1, reason = "index < s1*s2 by construction")
//! ```
//!
//! A marker without a reason, or one naming a rule no pass reports (a
//! retired or misspelled id), is itself reported under rule `A0`; a
//! reasonless marker also suppresses nothing.  [`analyze_workspace`] is
//! the whole API; the `sketchtree-lint` binary and the tier-1
//! `lint_clean` test are thin wrappers over it.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod index;
pub mod lexer;
pub mod passes;
pub mod report;
pub mod source;

use std::fs;
use std::path::{Path, PathBuf};

use passes::Workspace;
use report::{Finding, Report};
use source::SourceFile;

/// Spec documents the workspace passes diff against code, relative to
/// the workspace root.
pub const DOC_FILES: &[&str] = &["docs/wire-protocol.md", "docs/observability.md"];

/// Directory names never descended into: build output, VCS metadata,
/// vendored shims (not ours to police), and test/bench/example trees
/// (the passes police library code).
const SKIP_DIRS: &[&str] = &[
    "target", ".git", "shims", "tests", "benches", "examples", "fixtures",
];

/// Walks up from `start` to the nearest directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Every `.rs` file under `root`, skipping the `SKIP_DIRS` build/VCS
/// directories, sorted for deterministic reports.
pub fn workspace_rs_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    walk(root, &mut out);
    out.sort();
    out
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let skip = path
                .file_name()
                .and_then(|n| n.to_str())
                .map_or(true, |n| SKIP_DIRS.contains(&n));
            if !skip {
                walk(&path, out);
            }
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
}

/// Runs both pass stages over every workspace source file and resolves
/// `lint:allow` markers into the final [`Report`].
pub fn analyze_workspace(root: &Path) -> Report {
    analyze_workspace_filtered(root, &|_| true)
}

/// [`analyze_workspace`], reporting only findings whose file satisfies
/// `filter`.  Every file is still parsed and indexed — the workspace
/// passes need the whole call graph even when only one file's findings
/// are wanted (`--changed-only`) — the filter gates *reporting*, not
/// analysis.
pub fn analyze_workspace_filtered(root: &Path, filter: &dyn Fn(&str) -> bool) -> Report {
    let mut files = Vec::new();
    for path in workspace_rs_files(root) {
        let rel = match path.strip_prefix(root) {
            Ok(r) => r.to_string_lossy().replace('\\', "/"),
            Err(_) => continue,
        };
        let Ok(text) = fs::read_to_string(&path) else {
            continue;
        };
        files.push(SourceFile::parse(&rel, &text));
    }
    let mut docs = Vec::new();
    for rel in DOC_FILES {
        if let Ok(text) = fs::read_to_string(root.join(rel)) {
            docs.push((rel.to_string(), text));
        }
    }
    analyze_sources(files, docs, filter)
}

/// Runs both pass stages over already-parsed sources.  Public so the
/// seeded-bug self-tests can drive the full analyzer — including the
/// workspace index — over synthetic trees without touching the disk.
pub fn analyze_sources(
    files: Vec<SourceFile>,
    docs: Vec<(String, String)>,
    filter: &dyn Fn(&str) -> bool,
) -> Report {
    let mut report = Report::default();
    let passes = passes::default_passes();
    for file in &files {
        if !filter(&file.rel) {
            continue;
        }
        report.files_scanned.push(file.rel.clone());
        analyze_file(file, &passes, &mut report);
    }

    // Stage two: index the whole workspace, then run the graph passes.
    let ws = Workspace::new(files, docs);
    let mut ws_findings = Vec::new();
    for pass in passes::default_workspace_passes() {
        pass.run(&ws, &mut ws_findings);
    }
    for f in ws_findings {
        if !filter(&f.file) {
            continue;
        }
        // Findings anchored to a doc file have no token stream to carry
        // a marker: doc drift is fixed in the doc, never allowed.
        let allowed = ws
            .files
            .iter()
            .find(|s| s.rel == f.file)
            .and_then(|s| allow_reason(s, f.rule, f.line));
        report.findings.push(Finding {
            rule: f.rule,
            file: f.file,
            line: f.line,
            message: f.message,
            allowed,
        });
    }
    report.sort();
    report
}

/// The reason on a marker excusing `rule` at `line`, if any: a marker
/// excuses findings of its rules on its own line or the line directly
/// below, and only when it carries a reason.
fn allow_reason(file: &SourceFile, rule: &str, line: u32) -> Option<String> {
    file.allows
        .iter()
        .filter(|m| m.rules.iter().any(|r| r == rule))
        .filter(|m| m.line == line || m.line + 1 == line)
        .find_map(|m| m.reason.clone())
}

/// Runs `passes` over one parsed file, matching findings against the
/// file's allow markers.  Public so the seeded-bug self-tests can drive
/// the analyzer over fixture trees.
pub fn analyze_file(file: &SourceFile, passes: &[Box<dyn passes::Pass>], report: &mut Report) {
    let mut raw = Vec::new();
    for pass in passes {
        if pass.applies(&file.rel) {
            pass.run(file, &mut raw);
        }
    }
    for f in raw {
        let allowed = allow_reason(file, f.rule, f.line);
        report.findings.push(Finding {
            rule: f.rule,
            file: file.rel.clone(),
            line: f.line,
            message: f.message,
            allowed,
        });
    }
    // Reasonless markers, and markers naming a rule no pass reports,
    // are findings in their own right.
    let known = passes::known_rules();
    for m in &file.allows {
        let mut a0 = |message: String| {
            report.findings.push(Finding {
                rule: "A0",
                file: file.rel.clone(),
                line: m.line,
                message,
                allowed: None,
            });
        };
        if m.reason.is_none() {
            a0(format!(
                "lint:allow({}) without a reason; every allow must say why",
                m.rules.join(", ")
            ));
        }
        for rule in m.rules.iter().filter(|r| !known.contains(&r.as_str())) {
            a0(format!(
                "lint:allow names `{rule}`, which no pass reports (retired or misspelled id); \
                 it excuses nothing"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze_src(rel: &str, src: &str) -> Report {
        let mut report = Report::default();
        let file = SourceFile::parse(rel, src);
        analyze_file(&file, &passes::default_passes(), &mut report);
        report.sort();
        report
    }

    #[test]
    fn allow_with_reason_excuses_same_or_next_line() {
        let report = analyze_src(
            "crates/server/src/server.rs",
            "fn f(v: &[u8]) -> u8 {\n    // lint:allow(L1, reason = \"v is non-empty: checked by caller\")\n    v[0]\n}\n",
        );
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        assert!(report.is_clean());
        assert_eq!(
            report.findings[0].allowed.as_deref(),
            Some("v is non-empty: checked by caller")
        );
    }

    #[test]
    fn reasonless_allow_suppresses_nothing_and_reports_a0() {
        let report = analyze_src(
            "crates/server/src/server.rs",
            "fn f(v: &[u8]) -> u8 {\n    // lint:allow(L1)\n    v[0]\n}\n",
        );
        assert_eq!(report.findings.len(), 2, "{:?}", report.findings);
        assert!(!report.is_clean());
        assert!(report.findings.iter().any(|f| f.rule == "A0"));
        assert!(report
            .findings
            .iter()
            .any(|f| f.rule == "L1" && f.allowed.is_none()));
    }

    #[test]
    fn allow_for_wrong_rule_does_not_excuse() {
        let report = analyze_src(
            "crates/server/src/server.rs",
            "fn f(v: &[u8]) -> u8 {\n    // lint:allow(L2, reason = \"not the right rule\")\n    v[0]\n}\n",
        );
        assert!(!report.is_clean());
    }

    #[test]
    fn out_of_scope_file_is_silent() {
        let report = analyze_src(
            "crates/xml/src/reader.rs",
            "fn f(v: &[u8]) -> u8 { v[0] }",
        );
        assert!(report.findings.is_empty());
    }
}
