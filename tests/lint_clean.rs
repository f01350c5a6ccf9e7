//! Tier-1 gate: the workspace must be clean under its own analyzer.
//!
//! Every finding the passes raise must either be fixed or carry a
//! `lint:allow` marker with a written reason (see docs/lints.md).  This
//! test is the enforcement point — it fails the ordinary `cargo test`
//! run the moment an undocumented violation lands, so panic-freedom,
//! cast-safety, arithmetic discipline, lock ordering, blocking-under-
//! lock, epoch/determinism discipline, wire exhaustiveness and
//! spec-document drift cannot silently regress.  The workspace rules
//! additionally get named per-rule gates so a regression fails with its
//! own banner (and `scripts/check.sh` invokes them by name).

use sketchtree_lint::index::WorkspaceIndex;
use sketchtree_lint::source::SourceFile;
use std::path::Path;

/// Fails if any undocumented finding of `rule` exists workspace-wide.
fn assert_rule_clean(rule: &str) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = sketchtree_lint::analyze_workspace(root);
    let hits: Vec<String> = report
        .undocumented()
        .filter(|f| f.rule == rule)
        .map(|f| format!("{}:{}: {}", f.file, f.line, f.message))
        .collect();
    assert!(
        hits.is_empty(),
        "undocumented {rule} findings (fix, or add a reasoned lint:allow — see docs/lints.md):\n{}",
        hits.join("\n")
    );
}

#[test]
fn workspace_has_zero_undocumented_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = sketchtree_lint::analyze_workspace(root);
    assert!(
        !report.files_scanned.is_empty(),
        "analyzer scanned no files — workspace discovery is broken"
    );
    assert!(
        report.is_clean(),
        "undocumented lint findings (fix them or add a reasoned lint:allow — see docs/lints.md):\n{}",
        report.to_text(false)
    );
}

#[test]
fn l6_lock_order_is_clean() {
    assert_rule_clean("L6");
}

#[test]
fn l7_blocking_under_lock_is_clean() {
    assert_rule_clean("L7");
}

#[test]
fn l8_epoch_determinism_is_clean() {
    assert_rule_clean("L8");
}

#[test]
fn l9_spec_drift_is_clean() {
    assert_rule_clean("L9");
}

/// The L9 pass only has teeth while both spec documents exist and still
/// contain their tables; a deleted or emptied doc must fail loudly here
/// rather than pass vacuously.
#[test]
fn l9_spec_documents_are_present_and_tabled() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for rel in sketchtree_lint::DOC_FILES {
        let text = std::fs::read_to_string(root.join(rel))
            .unwrap_or_else(|e| panic!("{rel} must exist for the L9 gate: {e}"));
        let rows = text.lines().filter(|l| l.trim_start().starts_with('|')).count();
        assert!(rows >= 5, "{rel} has only {rows} table lines — spec tables missing?");
    }
}

#[test]
fn every_allow_carries_a_nonempty_reason() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = sketchtree_lint::analyze_workspace(root);
    for f in report.allowed() {
        let reason = f.allowed.as_deref().unwrap_or_default();
        assert!(
            !reason.trim().is_empty(),
            "{}:{} [{}] has an allow marker with an empty reason",
            f.file,
            f.line,
            f.rule
        );
    }
}

/// L6 names a lock by its receiver, so the checkpoint must take the WAL
/// mutex through a binding named like the ingest path's (`wal`): under
/// any other name L6 sees two locks where there is one, and checks none
/// of the order `ck.lock → wal → synopsis` the checkpoint documents.
#[test]
fn l6_sees_the_checkpoint_take_the_ingest_wal_lock() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let files: Vec<SourceFile> = sketchtree_lint::workspace_rs_files(root)
        .iter()
        .filter_map(|path| {
            let rel = path.strip_prefix(root).ok()?.to_string_lossy().replace('\\', "/");
            Some(SourceFile::parse(&rel, &std::fs::read_to_string(path).ok()?))
        })
        .collect();
    let index = WorkspaceIndex::build(&files);
    let locks_taken_by = |name: &str| -> Vec<String> {
        index
            .fns
            .iter()
            .filter(|f| f.name == name)
            .flat_map(|f| f.acqs.iter().map(|a| a.lock.clone()))
            .collect()
    };
    for name in ["checkpoint_inner", "handle_ingest"] {
        let locks = locks_taken_by(name);
        assert!(locks.iter().any(|l| l == "server::wal"), "`{name}` takes {locks:?}");
    }
}
