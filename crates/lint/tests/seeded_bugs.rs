//! Seeded-bug self-tests: every rule must FIRE on a planted violation.
//!
//! A static analyzer that silently stops matching is worse than none at
//! all — the gate would keep passing while the codebase regresses.  Each
//! test here plants a known violation in a synthetic file placed inside
//! the relevant pass's scope and asserts the expected rule reports it;
//! the negative tests pin the escape hatches (test code, documented
//! allow markers) so they cannot silently widen.

use sketchtree_lint::passes::default_passes;
use sketchtree_lint::report::Report;
use sketchtree_lint::source::SourceFile;
use sketchtree_lint::{analyze_file, analyze_sources};

/// Runs the default passes over one synthetic file.
fn analyze(rel: &str, src: &str) -> Report {
    let file = SourceFile::parse(rel, src);
    let mut report = Report::default();
    analyze_file(&file, &default_passes(), &mut report);
    report
}

/// Runs the FULL analyzer — both stages, index and all — over a
/// synthetic workspace.
fn analyze_ws(files: &[(&str, &str)], docs: &[(&str, &str)]) -> Report {
    let files = files.iter().map(|(r, s)| SourceFile::parse(r, s)).collect();
    let docs = docs.iter().map(|(r, s)| (r.to_string(), s.to_string())).collect();
    analyze_sources(files, docs, &|_| true)
}

fn undocumented_rules(report: &Report) -> Vec<&'static str> {
    report.undocumented().map(|f| f.rule).collect()
}

#[test]
fn l1_fires_on_unwrap_expect_and_indexing() {
    let report = analyze(
        "crates/sketch/src/seeded.rs",
        "fn f(v: &[u64]) -> u64 { let a = v.first().unwrap(); let b = v.iter().next().expect(\"x\"); a + b + v[0] }",
    );
    let rules = undocumented_rules(&report);
    assert_eq!(rules.iter().filter(|r| **r == "L1").count(), 3, "{report:?}");
}

#[test]
fn l1_fires_on_panic_macros() {
    let report = analyze(
        "crates/server/src/seeded.rs",
        "fn f(x: u32) { if x > 3 { panic!(\"no\"); } else { unreachable!() } }",
    );
    let rules = undocumented_rules(&report);
    assert_eq!(rules.iter().filter(|r| **r == "L1").count(), 2, "{report:?}");
}

#[test]
fn l2_fires_on_narrowing_cast_in_codec() {
    let report = analyze(
        "crates/server/src/wire.rs",
        "fn f(n: u64) -> u32 { n as u32 }",
    );
    assert_eq!(undocumented_rules(&report), vec!["L2"], "{report:?}");
}

#[test]
fn l3_fires_on_compound_and_bare_update_arithmetic() {
    let report = analyze(
        "crates/sketch/src/seeded.rs",
        "impl S { fn bump(&mut self) { self.n += 1; } fn update(&mut self, d: i64) { self.x = self.x + d; } }",
    );
    let rules = undocumented_rules(&report);
    assert_eq!(rules.iter().filter(|r| **r == "L3").count(), 2, "{report:?}");
}

/// An estimator that squares a counter in i64, the overflow class of the
/// old `second_moment`, fails the gate.
#[test]
fn l3_fires_on_an_unchecked_counter_square_in_an_estimator() {
    let report = analyze(
        "crates/sketch/src/seeded.rs",
        "impl S { fn second_moment(&self) -> i64 { self.x * self.x } \
         fn estimate_residual(&self) -> i64 { self.a * self.a + self.b } }",
    );
    let rules = undocumented_rules(&report);
    assert_eq!(rules.iter().filter(|r| **r == "L3").count(), 3, "{report:?}");
}

/// A plan evaluation that adds restored frequencies onto counters
/// without an overflow policy fails the gate.
#[test]
fn l3_fires_on_an_unchecked_restore_in_evaluate() {
    let report = analyze(
        "crates/sketch/src/seeded.rs",
        "impl P { fn evaluate(&self, x: i64, f: i64) -> f64 { (x + f) as f64 } }",
    );
    assert_eq!(undocumented_rules(&report), vec!["L3"], "{report:?}");
}

/// The Filter mode's in-place count of a tracked frequency must saturate:
/// a bare `+ 1` there is a finding, `saturating_add` is not.
#[test]
fn l3_fires_on_an_unchecked_tracked_frequency_increment() {
    let report = analyze(
        "crates/sketch/src/seeded.rs",
        "impl H { fn increment(&mut self, i: usize) { let p = self.heap[i].1 + 1; self.set(i, p); } }",
    );
    assert!(undocumented_rules(&report).contains(&"L3"), "{report:?}");
    let report = analyze(
        "crates/sketch/src/seeded.rs",
        "impl H { fn increment(&mut self, f: i64) -> i64 { f.saturating_add(1) } }",
    );
    assert!(!undocumented_rules(&report).contains(&"L3"), "{report:?}");
}

#[test]
fn l5_fires_on_opcode_missing_from_decode() {
    let report = analyze(
        "crates/server/src/wire.rs",
        "pub const K_PING: u8 = 1;\npub const K_PONG: u8 = 2;\n\
         fn kind() -> u8 { K_PING ^ K_PONG }\n\
         fn decode(k: u8) -> bool { k == K_PONG }",
    );
    assert!(
        report
            .undocumented()
            .any(|f| f.rule == "L5" && f.message.contains("K_PING")),
        "{report:?}"
    );
}

#[test]
fn test_code_is_exempt() {
    let report = analyze(
        "crates/sketch/src/seeded.rs",
        "#[cfg(test)]\nmod tests {\n    fn f(v: &[u64]) -> u64 { v[0] + v.first().unwrap() }\n}",
    );
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(report.findings.len(), 0, "test code must produce nothing");
}

#[test]
fn reasoned_allow_suppresses_but_is_recorded() {
    let marker = "lint:allow(L1, reason = \"seeded self-test\")";
    let src = format!("fn f(v: &[u64]) -> u64 {{\n    // {marker}\n    v[0]\n}}");
    let report = analyze("crates/sketch/src/seeded.rs", &src);
    assert!(report.is_clean(), "{report:?}");
    let allowed: Vec<_> = report.allowed().collect();
    assert_eq!(allowed.len(), 1, "{report:?}");
    assert_eq!(allowed[0].rule, "L1");
    assert_eq!(allowed[0].allowed.as_deref(), Some("seeded self-test"));
}

#[test]
fn a0_fires_on_an_allow_for_an_unknown_rule() {
    // A retired id (L4) or a typo excuses nothing and must not linger;
    // ids from either roster, per-file or workspace, are known.
    let retired = "L4";
    let src = format!(
        "fn f(v: &[u64]) -> usize {{\n    // lint:allow({retired}, L7, reason = \"stale id\")\n    v.len()\n}}"
    );
    let report = analyze("crates/sketch/src/seeded.rs", &src);
    let a0: Vec<_> = report.undocumented().filter(|f| f.rule == "A0").collect();
    assert_eq!(a0.len(), 1, "{report:?}");
    assert_eq!(report.findings.len(), 1, "{report:?}");
    assert!(a0[0].message.contains("`L4`"), "{report:?}");
    let src = "fn f(v: &[u64]) -> u64 {\n    // lint:allow(L1, L7, reason = \"known ids\")\n    v[0]\n}";
    let report = analyze("crates/sketch/src/seeded.rs", src);
    assert!(report.is_clean(), "{report:?}");
}

#[test]
fn reasonless_allow_suppresses_nothing_and_is_itself_flagged() {
    let marker = "lint:allow(L1)";
    let src = format!("fn f(v: &[u64]) -> u64 {{\n    // {marker}\n    v[0]\n}}");
    let report = analyze("crates/sketch/src/seeded.rs", &src);
    let rules = undocumented_rules(&report);
    assert!(rules.contains(&"A0"), "reasonless marker not flagged: {report:?}");
    assert!(rules.contains(&"L1"), "reasonless marker suppressed a finding: {report:?}");
}

#[test]
fn allow_for_wrong_rule_does_not_suppress() {
    let marker = "lint:allow(L2, reason = \"wrong rule on purpose\")";
    let src = format!("fn f(v: &[u64]) -> u64 {{\n    // {marker}\n    v[0]\n}}");
    let report = analyze("crates/sketch/src/seeded.rs", &src);
    assert!(
        undocumented_rules(&report).contains(&"L1"),
        "an L2 marker must not excuse an L1 finding: {report:?}"
    );
}

// ---- workspace passes (stage two) ------------------------------------

#[test]
fn l6_fires_on_a_seeded_cross_file_lock_cycle() {
    let report = analyze_ws(
        &[
            (
                "crates/a/src/x.rs",
                "impl A { fn f(&self) { let g = self.alpha.lock(); let h = self.beta.lock(); } }",
            ),
            (
                "crates/b/src/y.rs",
                "impl A { fn r(&self) { let g = self.beta.lock(); let h = self.alpha.lock(); } }",
            ),
        ],
        &[],
    );
    let cycles: Vec<_> = report
        .undocumented()
        .filter(|f| f.rule == "L6" && f.message.contains("cycle"))
        .collect();
    assert_eq!(cycles.len(), 2, "both edges must report the cycle: {report:?}");
}

#[test]
fn l6_fires_on_guard_held_reacquisition_through_a_helper() {
    let report = analyze_ws(
        &[(
            "crates/a/src/x.rs",
            "impl A { fn lock_t(&self) -> MutexGuard<'_, T> { self.t.lock().unwrap_or_else(E::into_inner) } \
             fn f(&self) { let g = self.lock_t(); self.lock_t(); } }",
        )],
        &[],
    );
    assert!(
        report
            .undocumented()
            .any(|f| f.rule == "L6" && f.message.contains("re-acquire")),
        "{report:?}"
    );
}

#[test]
fn l6_fires_on_guard_held_reacquisition() {
    let report = analyze_ws(
        &[(
            "crates/server/src/seeded.rs",
            "impl S { fn f(&self) { let g = self.inner.read(); let h = self.inner.write(); } }",
        )],
        &[],
    );
    assert!(
        report
            .undocumented()
            .any(|f| f.rule == "L6" && f.message.contains("re-acquired")),
        "{report:?}"
    );
}

#[test]
fn l7_fires_on_seeded_io_under_a_held_guard() {
    for (rel, src) in [
        (
            "crates/server/src/seeded.rs",
            "fn save(m: &Mutex<T>) { let g = m.lock().unwrap_or_else(|e| e.into_inner()); fs::write(p, b).ok(); }",
        ),
        (
            "crates/server/src/server.rs",
            "fn f(&self) { let g = self.ck.lock(); fs::write(p, b).ok(); }",
        ),
    ] {
        let report = analyze_ws(&[(rel, src)], &[]);
        assert!(
            report
                .undocumented()
                .any(|f| f.rule == "L7" && f.message.contains("fs::write")),
            "{report:?}"
        );
    }
}

#[test]
fn l7_fires_one_helper_call_below_the_acquisition() {
    let report = analyze_ws(
        &[(
            "crates/server/src/seeded.rs",
            "impl C { fn save(&self) { let g = self.ck.lock(); self.persist_now(); } \
             fn persist_now(&self) { fs::write(p, b).ok(); } }",
        )],
        &[],
    );
    assert!(
        report
            .undocumented()
            .any(|f| f.rule == "L7" && f.message.contains("persist_now")),
        "{report:?}"
    );
}

#[test]
fn l8_fires_on_a_seeded_mutation_that_skips_the_epoch_bump() {
    let report = analyze_ws(
        &[(
            "crates/core/src/sketchtree.rs",
            "impl SketchTree { fn sneak(&mut self, v: u64) { self.synopsis.insert(v); } }",
        )],
        &[],
    );
    assert!(
        report
            .undocumented()
            .any(|f| f.rule == "L8" && f.message.contains("without bumping")),
        "{report:?}"
    );
}

#[test]
fn l8_is_satisfied_by_a_bump_two_calls_down() {
    let report = analyze_ws(
        &[
            (
                "crates/core/src/concurrent.rs",
                "impl Shared { fn batch(&self, t: &[Tree]) { self.inner.write().ingest_batch(t); } }",
            ),
            (
                "crates/core/src/sketchtree.rs",
                "impl SketchTree { fn ingest_batch(&mut self, t: &[Tree]) { self.apply(t); } \
                 fn apply(&mut self, t: &[Tree]) { self.synopsis.insert_routed(t.len() as u64); self.epoch += 1; } }",
            ),
        ],
        &[],
    );
    assert!(
        !report.undocumented().any(|f| f.rule == "L8"),
        "transitive bump must satisfy: {report:?}"
    );
}

#[test]
fn l8_fires_on_a_wal_replay_that_skips_the_epoch_bump() {
    // Recovery replay mutating sketch state through a non-bumping
    // mutator would poison every epoch-keyed cache from the first
    // post-restart request.
    let report = analyze_ws(
        &[(
            "crates/server/src/durability.rs",
            "fn replay_batch(st: &mut SketchTree, t: &[Tree], v: &[u64]) { st.apply(t, v); }",
        )],
        &[],
    );
    assert!(
        report
            .undocumented()
            .any(|f| f.rule == "L8" && f.message.contains("without bumping")),
        "{report:?}"
    );
}

#[test]
fn l8_fires_on_hash_iteration_feeding_a_snapshot() {
    let report = analyze_ws(
        &[(
            "crates/core/src/snapshot.rs",
            "struct S { parts: HashMap<u64, P> } impl S { fn encode(&self) -> Vec<u8> { \
             self.parts.iter().flat_map(|(_, p)| p.bytes()).collect() } }",
        )],
        &[],
    );
    assert!(
        report
            .undocumented()
            .any(|f| f.rule == "L8" && f.message.contains("hash order")),
        "{report:?}"
    );
}

const SEEDED_WIRE: &str = "pub(crate) const K_PING: u8 = 0x01;\nconst K_STATS_REPLY: u8 = 0x84;\n";
const SEEDED_WDOC: &str =
    "| Opcode | Name | Payload |\n|---|---|---|\n| 0x01 | Ping | empty |\n| 0x84 | Stats | counts |\n";
const SEEDED_MET: &str = "fn wire(r: &Registry) { r.counter(\"sktp_frames_total\", \"h\"); }\n";
const SEEDED_ODOC: &str = "| Metric | Type |\n|---|---|\n| `sktp_frames_total` | counter |\n";

#[test]
fn l9_is_clean_when_docs_and_code_agree() {
    let report = analyze_ws(
        &[
            ("crates/server/src/wire.rs", SEEDED_WIRE),
            ("crates/server/src/metrics.rs", SEEDED_MET),
        ],
        &[
            ("docs/wire-protocol.md", SEEDED_WDOC),
            ("docs/observability.md", SEEDED_ODOC),
        ],
    );
    assert!(
        !report.undocumented().any(|f| f.rule == "L9"),
        "{report:?}"
    );
}

#[test]
fn l9_fires_when_an_opcode_const_loses_its_doc_row() {
    // The acceptance drill: delete a row from the opcode table and the
    // gate must fail, anchored at the now-undocumented constant.
    let wdoc = "| Opcode | Name | Payload |\n|---|---|---|\n| 0x01 | Ping | empty |\n";
    let report = analyze_ws(
        &[
            ("crates/server/src/wire.rs", SEEDED_WIRE),
            ("crates/server/src/metrics.rs", SEEDED_MET),
        ],
        &[
            ("docs/wire-protocol.md", wdoc),
            ("docs/observability.md", SEEDED_ODOC),
        ],
    );
    assert!(
        report
            .undocumented()
            .any(|f| f.rule == "L9"
                && f.file.ends_with("wire.rs")
                && f.message.contains("K_STATS_REPLY")),
        "{report:?}"
    );
}

#[test]
fn l9_doc_anchored_findings_cannot_be_allowed() {
    // A documented opcode with no constant anchors at the doc file —
    // which has no token stream to carry a marker, so the finding is
    // structurally unallowable.
    let wdoc = format!("{SEEDED_WDOC}| 0x0E | Evict | key |\n");
    let report = analyze_ws(
        &[
            ("crates/server/src/wire.rs", SEEDED_WIRE),
            ("crates/server/src/metrics.rs", SEEDED_MET),
        ],
        &[
            ("docs/wire-protocol.md", &wdoc),
            ("docs/observability.md", SEEDED_ODOC),
        ],
    );
    let doc_findings: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "L9" && f.file == "docs/wire-protocol.md")
        .collect();
    assert_eq!(doc_findings.len(), 1, "{report:?}");
    assert!(doc_findings[0].allowed.is_none());
    assert!(!report.is_clean());
}

#[test]
fn l9_fires_when_a_metric_table_row_is_removed() {
    let odoc = "| Metric | Type |\n|---|---|\n";
    let report = analyze_ws(
        &[
            ("crates/server/src/wire.rs", SEEDED_WIRE),
            ("crates/server/src/metrics.rs", SEEDED_MET),
        ],
        &[
            ("docs/wire-protocol.md", SEEDED_WDOC),
            ("docs/observability.md", odoc),
        ],
    );
    assert!(
        report
            .undocumented()
            .any(|f| f.rule == "L9" && f.message.contains("sktp_frames_total")),
        "{report:?}"
    );
}

#[test]
fn workspace_findings_honor_reasoned_allow_markers() {
    let src = "impl A { fn lock_t(&self) -> MutexGuard<'_, T> { self.t.lock().unwrap_or_else(E::into_inner) } \
               fn f(&self) { let g = self.lock_t();\n\
               // lint:allow(L6, reason = \"seeded workspace self-test\")\n\
               self.lock_t(); } }";
    let report = analyze_ws(&[("crates/a/src/x.rs", src)], &[]);
    assert!(
        !report.undocumented().any(|f| f.rule == "L6"),
        "reasoned marker must excuse the workspace finding: {report:?}"
    );
    assert!(
        report.allowed().any(|f| f.rule == "L6"),
        "the excused finding is still recorded: {report:?}"
    );
}

#[test]
fn out_of_scope_files_are_untouched() {
    // The datagen crate is outside every pass's scope: the same seeded
    // violations produce nothing there.
    let report = analyze(
        "crates/datagen/src/seeded.rs",
        "fn f(v: &[u64], n: u64) -> u32 { v[0].unwrap(); n as u32 }",
    );
    assert!(report.is_clean(), "{report:?}");
}
