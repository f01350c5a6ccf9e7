//! The pass framework and the shipped passes: four per-file passes
//! (L1–L3, L5) and four graph-aware workspace passes (L6–L9).
//!
//! A per-file pass is a pure function over one annotated [`SourceFile`]:
//! it may not do I/O and may not see other files (L5, which cross-checks
//! opcode tables, still only needs `wire.rs` itself).  Each pass
//! declares which workspace-relative paths it polices; scoping is part
//! of the rule, not of the driver.  Lock policy belongs to the
//! workspace passes L6 (lock order) and L7 (blocking under a guard).

use crate::index::WorkspaceIndex;
use crate::source::SourceFile;

pub mod arith;
pub mod blocking;
pub mod cast_safety;
pub mod epoch;
pub mod lock_order;
pub mod panic_free;
pub mod spec_drift;
pub mod wire_exhaustive;

/// A finding before allow-marker matching: rule, line, message.
#[derive(Debug, Clone)]
pub struct RawFinding {
    /// Rule id (`"L1"`–`"L3"` or `"L5"`).
    pub rule: &'static str,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

/// One static-analysis pass.
pub trait Pass {
    /// The rule id this pass reports under.
    fn rule(&self) -> &'static str;
    /// Whether `rel` (workspace-relative, `/`-separated) is in scope.
    fn applies(&self, rel: &str) -> bool;
    /// Analyses one in-scope file.
    fn run(&self, file: &SourceFile, out: &mut Vec<RawFinding>);
}

/// The default per-file pass roster: L1–L3 and L5.
pub fn default_passes() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(panic_free::PanicFree),
        Box::new(cast_safety::CastSafety),
        Box::new(arith::ArithDiscipline),
        Box::new(wire_exhaustive::WireExhaustive),
    ]
}

/// The analysis context for the graph-aware workspace passes: every
/// parsed file, the cross-file [`WorkspaceIndex`] built from them, and
/// the doc files the spec-drift pass diffs against code.
pub struct Workspace {
    /// Every parsed source file, in scan order.
    pub files: Vec<SourceFile>,
    /// The cross-file symbol table / call graph / span index.
    pub index: WorkspaceIndex,
    /// `(workspace-relative path, text)` of the spec documents.
    pub docs: Vec<(String, String)>,
}

impl Workspace {
    /// Builds the index and wraps the inputs.
    pub fn new(files: Vec<SourceFile>, docs: Vec<(String, String)>) -> Workspace {
        let index = WorkspaceIndex::build(&files);
        Workspace { files, index, docs }
    }

    /// True when the function's body starts inside test-only code.
    pub fn fn_in_test(&self, f: &crate::index::FnInfo) -> bool {
        let file = &self.files[f.file];
        f.body.is_empty() || file.in_test.get(f.body.start).copied().unwrap_or(false)
    }
}

/// A finding from a workspace pass — unlike [`RawFinding`] it names its
/// file, because one pass may report across many files (and the docs).
#[derive(Debug, Clone)]
pub struct WsFinding {
    /// Rule id (`"L6"` … `"L9"`).
    pub rule: &'static str,
    /// Workspace-relative path the finding anchors to.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

/// One graph-aware workspace pass.
pub trait WorkspacePass {
    /// The rule id this pass reports under.
    fn rule(&self) -> &'static str;
    /// Analyses the whole workspace.
    fn run(&self, ws: &Workspace, out: &mut Vec<WsFinding>);
}

/// The default workspace-pass roster, L6–L9.
pub fn default_workspace_passes() -> Vec<Box<dyn WorkspacePass>> {
    vec![
        Box::new(lock_order::LockOrder),
        Box::new(blocking::BlockingUnderLock),
        Box::new(epoch::EpochDiscipline),
        Box::new(spec_drift::SpecDrift),
    ]
}

/// Every rule id some pass in the two default rosters reports — the ids
/// a `lint:allow` marker may name.
pub fn known_rules() -> Vec<&'static str> {
    let per_file = default_passes().into_iter().map(|p| p.rule());
    per_file.chain(default_workspace_passes().into_iter().map(|p| p.rule())).collect()
}

/// Rust keywords that can directly precede `[` without it being an index
/// expression (array literals, slice patterns, loop bodies…).
pub(crate) const NON_POSTFIX_KEYWORDS: &[&str] = &[
    "let", "mut", "in", "if", "else", "match", "return", "break", "continue", "move", "ref",
    "as", "static", "const", "where", "use", "pub", "fn", "impl", "for", "while", "loop", "dyn",
    "crate", "box", "unsafe", "async", "await", "yield", "type", "trait", "struct", "enum",
];

/// The innermost function (by body token range) containing token `i`.
pub(crate) fn enclosing_fn<'a>(
    file: &'a SourceFile,
    i: usize,
) -> Option<&'a crate::source::Func> {
    file.functions
        .iter()
        .filter(|f| f.body.contains(&i))
        .min_by_key(|f| f.body.len())
}
