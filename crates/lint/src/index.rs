//! The workspace index: one walk over every file's token stream that
//! builds the cross-file facts the graph-aware passes (L6–L9) consume.
//!
//! Per-file passes see one [`SourceFile`] at a time; the invariants PR 6
//! leans on — a global lock order, "every sketch mutation bumps the
//! epoch", doc tables matching code tables — span files.  The index is
//! the shared substrate:
//!
//! * **functions** ([`FnInfo`]) — name, enclosing `impl` type, `&mut
//!   self`-ness, the call sites in the body, every lock-guard
//!   acquisition with the token span the guard is live for, and whether
//!   the body bumps the synopsis epoch.
//! * **one-level call graph** — [`WorkspaceIndex::resolve_call`] maps a
//!   call-site name to its unique definition (same file first, then
//!   workspace-wide; ambiguous names resolve to nothing rather than
//!   guessing).
//! * **guard-returning helpers** — a function whose tail expression is a
//!   lock acquisition (`fn lock_table(&self) -> MutexGuard<…> {
//!   self.table.lock()… }`) acts as an acquisition at every call site;
//!   the builder synthesizes those acquisitions into the callers so span
//!   logic treats `let t = self.lock_table();` exactly like
//!   `let t = self.table.lock();`.
//! * **metric registrations** — every string-literal metric name passed
//!   to a `Registry`-style `counter`/`gauge`/`histogram` (`…_with`)
//!   constructor.
//! * **opcode constants** — every `const K_*: u8 = 0x…;`.
//! * **hash-typed names** — per file, identifiers declared as `HashMap`
//!   or `HashSet` (fields, lets, params), so the determinism pass can
//!   spot iteration over unordered containers.
//!
//! ## Lock identity
//!
//! A lock is named by its receiver: `self.table.lock()` inside
//! `impl Subscriptions` is `Subscriptions.table`; a local or parameter
//! receiver is qualified by the file stem (`server::writer`).  This keeps
//! the three distinct `inner` mutexes in the workspace distinct, at the
//! cost of not unifying one lock reached through two differently-named
//! receivers — acquire a lock through one accessor (the codebase
//! convention) and the graph is exact.

use crate::lexer::TokenKind;
use crate::source::{Func, SourceFile};
use std::collections::BTreeMap;
use std::ops::Range;

/// Chain methods that preserve guard-ness when called on a fresh
/// acquisition: `x.lock().unwrap()` still binds a guard, `x.lock().len()`
/// consumes it at the end of the statement.
const GUARD_CHAIN: &[&str] = &["unwrap", "expect", "unwrap_or_else", "map_err"];

/// Methods whose receiver-dotted call acquires a lock.
pub const ACQUIRE_METHODS: &[&str] = &["lock", "read", "write"];

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name — the last path segment (`foo` for `mod::foo(…)`).
    pub name: String,
    /// How the call names its receiver — determines resolution rules.
    pub recv: Recv,
    /// Token index of the callee identifier.
    pub tok: usize,
    /// 1-based line.
    pub line: u32,
}

/// The receiver shape of a call site.  A name alone is not enough to
/// resolve a method call — `out.push(…)` must not resolve to some
/// `fn push` that happens to exist — so resolution gets stricter the
/// less we know about the receiver's type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recv {
    /// `foo(…)` / `path::foo(…)` — a free function.
    Bare,
    /// `self.foo(…)` — a method on the enclosing impl type.
    SelfMethod,
    /// `expr.foo(…)` — a method on a value we cannot type.
    Other,
}

/// Method names so ubiquitous on std types that resolving them through
/// an untyped receiver is noise, never signal.
const COMMON_METHODS: &[&str] = &[
    "push", "pop", "insert", "remove", "get", "get_mut", "set", "len", "is_empty", "iter",
    "iter_mut", "into_iter", "next", "clone", "extend", "contains", "contains_key", "entry",
    "take", "join", "send", "recv", "read", "write", "lock", "drain", "clear", "push_str",
    "split", "find", "map", "filter", "fold", "collect", "new", "default", "drop", "run",
    "build", "init", "emit", "push_back", "push_front", "flush", "call", "get_or_insert_with",
];

/// Free-function names resolution refuses (prelude shadows).
const COMMON_FREE_FNS: &[&str] = &["drop", "min", "max", "from", "into", "swap", "replace"];

/// One lock acquisition inside a function body, with the span the guard
/// is held for.
#[derive(Debug, Clone)]
pub struct AcqSite {
    /// Canonical lock identity (see module docs).
    pub lock: String,
    /// The acquiring method (`lock`/`read`/`write`), or the helper name
    /// for synthesized acquisitions.
    pub method: String,
    /// Token index of the acquiring identifier.
    pub tok: usize,
    /// 1-based line.
    pub line: u32,
    /// Token range the guard is live for.
    pub span: Range<usize>,
    /// True when synthesized from a call to a guard-returning helper.
    pub via_call: bool,
}

/// One function, annotated for the graph passes.
#[derive(Debug)]
pub struct FnInfo {
    /// Index into the workspace's file list.
    pub file: usize,
    /// The function's name.
    pub name: String,
    /// The `impl` type the function is defined on, when any.
    pub impl_type: Option<String>,
    /// Token range of the body.
    pub body: Range<usize>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Whether the receiver is `&mut self`.
    pub mut_self: bool,
    /// Calls made directly by the body (innermost-function owned).
    pub calls: Vec<CallSite>,
    /// Lock acquisitions made directly by the body, plus acquisitions
    /// synthesized from guard-returning helper calls.
    pub acqs: Vec<AcqSite>,
    /// Whether the body bumps the synopsis epoch (`bump_epoch(…)` or
    /// `epoch +=`).
    pub bumps_epoch: bool,
    /// `Some(lock)` when the function's tail expression is an
    /// acquisition — the guard escapes to the caller.
    pub returns_guard: Option<String>,
}

/// A metric name registered against a `Registry`.
#[derive(Debug, Clone)]
pub struct MetricReg {
    /// Index into the workspace's file list.
    pub file: usize,
    /// The metric name string literal.
    pub name: String,
    /// 1-based line of the registration.
    pub line: u32,
}

/// A wire opcode constant (`const K_*: u8 = 0x…;`).
#[derive(Debug, Clone)]
pub struct OpcodeConst {
    /// Index into the workspace's file list.
    pub file: usize,
    /// The constant's name (`K_PING`).
    pub name: String,
    /// The constant's value when it parses.
    pub value: Option<u64>,
    /// 1-based line.
    pub line: u32,
}

/// The cross-file facts shared by the workspace passes.
#[derive(Debug, Default)]
pub struct WorkspaceIndex {
    /// Every function in the workspace, in file order.
    pub fns: Vec<FnInfo>,
    /// Function indices by name (deterministic iteration).
    pub fns_by_name: BTreeMap<String, Vec<usize>>,
    /// Every metric registration with a literal name.
    pub metrics: Vec<MetricReg>,
    /// Every opcode constant.
    pub opcodes: Vec<OpcodeConst>,
    /// Per file: identifiers declared with a `HashMap`/`HashSet` type.
    pub hash_names: Vec<Vec<String>>,
}

impl WorkspaceIndex {
    /// Builds the index from every parsed file, in one walk per file
    /// plus one synthesis pass for guard-returning helpers.
    pub fn build(files: &[SourceFile]) -> WorkspaceIndex {
        let mut idx = WorkspaceIndex::default();
        for (fi, file) in files.iter().enumerate() {
            idx.hash_names.push(hash_typed_names(file));
            collect_metrics(file, fi, &mut idx.metrics);
            collect_opcodes(file, fi, &mut idx.opcodes);
            let impls = impl_ranges(file);
            for func in innermost_owned(file) {
                idx.fns.push(scan_fn(file, fi, &func, &impls));
            }
        }
        for (i, f) in idx.fns.iter().enumerate() {
            idx.fns_by_name.entry(f.name.clone()).or_default().push(i);
        }
        idx.synthesize_helper_guards(files);
        idx
    }

    /// Resolves a call site from `caller` to a unique function, with
    /// rules keyed to what the receiver shape lets us know:
    ///
    /// * `self.foo(…)` — a unique candidate on the caller's impl type
    ///   wins; otherwise a unique workspace-wide candidate;
    /// * `foo(…)` — a unique same-file candidate wins, then a unique
    ///   workspace-wide one, unless the name shadows a prelude fn;
    /// * `expr.foo(…)` — only a workspace-unique candidate whose name
    ///   is not a ubiquitous std method (`push`, `insert`, …).
    ///
    /// Ambiguity always resolves to `None` — the graph passes prefer a
    /// missing edge to a fabricated one.
    pub fn resolve_call(&self, call: &CallSite, caller: &FnInfo) -> Option<usize> {
        let cands = self.fns_by_name.get(&call.name)?;
        match call.recv {
            Recv::SelfMethod => {
                let same_impl: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&i| {
                        self.fns[i].impl_type.is_some()
                            && self.fns[i].impl_type == caller.impl_type
                    })
                    .collect();
                match same_impl.as_slice() {
                    [one] => Some(*one),
                    [] if cands.len() == 1 => Some(cands[0]),
                    _ => None,
                }
            }
            Recv::Bare => {
                if COMMON_FREE_FNS.contains(&call.name.as_str()) {
                    return None;
                }
                let local: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&i| self.fns[i].file == caller.file)
                    .collect();
                match local.as_slice() {
                    [one] => Some(*one),
                    [] if cands.len() == 1 => Some(cands[0]),
                    _ => None,
                }
            }
            Recv::Other => {
                if COMMON_METHODS.contains(&call.name.as_str()) {
                    return None;
                }
                match cands.as_slice() {
                    [one] => Some(*one),
                    _ => None,
                }
            }
        }
    }

    /// All candidate definitions for a name (for permissive checks like
    /// "does *some* callee bump the epoch").
    pub fn candidates(&self, name: &str) -> &[usize] {
        self.fns_by_name.get(name).map_or(&[], |v| v.as_slice())
    }

    /// Second pass: a call that resolves (receiver-aware) to a
    /// guard-returning helper acquires that helper's lock at the call
    /// site, with let-binding span rules.
    fn synthesize_helper_guards(&mut self, files: &[SourceFile]) {
        let mut extras: Vec<(usize, AcqSite)> = Vec::new();
        for (i, f) in self.fns.iter().enumerate() {
            let file = &files[f.file];
            for call in &f.calls {
                let Some(gi) = self.resolve_call(call, f) else { continue };
                let Some(lock) = self.fns[gi].returns_guard.clone() else { continue };
                let Some(open) = file.next_code(call.tok).filter(|&n| file.is_punct(n, "(")) else {
                    continue;
                };
                let close = file.matching_paren(open);
                let span = guard_span(file, &f.body, call.tok, close);
                extras.push((
                    i,
                    AcqSite {
                        lock,
                        method: call.name.clone(),
                        tok: call.tok,
                        line: call.line,
                        span,
                        via_call: true,
                    },
                ));
            }
        }
        for (i, a) in extras {
            self.fns[i].acqs.push(a);
        }
        for f in &mut self.fns {
            f.acqs.sort_by_key(|a| a.tok);
        }
    }
}

/// `(brace range, type name)` for every `impl` block in the file.
fn impl_ranges(file: &SourceFile) -> Vec<(Range<usize>, String)> {
    let mut out = Vec::new();
    for i in 0..file.tokens.len() {
        if !file.is_ident(i, "impl") {
            continue;
        }
        // Walk to the body `{`, tracking the last candidate type name.
        // `impl X { … }`, `impl<T> X<T> { … }`, `impl Trait for X { … }`.
        let mut j = i;
        let mut name: Option<String> = None;
        let mut after_for = false;
        let mut angle = 0i64;
        let open = loop {
            let Some(n) = file.next_code(j) else { break None };
            j = n;
            let t = &file.tokens[j];
            match t.text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                "{" if angle <= 0 => break Some(j),
                ";" if angle <= 0 => break None,
                "for" => {
                    after_for = true;
                    name = None;
                }
                _ if t.kind == TokenKind::Ident && angle <= 0 => {
                    if name.is_none() || after_for {
                        name = Some(t.text.clone());
                        after_for = false;
                    }
                }
                _ => {}
            }
        };
        if let (Some(open), Some(name)) = (open, name) {
            out.push((open..file.matching_brace(open) + 1, name));
        }
    }
    out
}

/// The file's functions, each restricted to tokens it owns directly
/// (tokens of nested `fn` items belong to the nested function).
fn innermost_owned(file: &SourceFile) -> Vec<Func> {
    file.functions.clone()
}

/// True when token `i` of `func`'s body belongs to a nested `fn` item
/// rather than to `func` itself.
fn owned_by_nested(file: &SourceFile, func: &Func, i: usize) -> bool {
    file.functions
        .iter()
        .any(|g| g.body != func.body && func.body.contains(&g.body.start) && g.body.contains(&i))
}

/// One structural scan of one function body.
fn scan_fn(file: &SourceFile, fi: usize, func: &Func, impls: &[(Range<usize>, String)]) -> FnInfo {
    let impl_type = impls
        .iter()
        .filter(|(r, _)| r.contains(&func.fn_tok))
        .min_by_key(|(r, _)| r.len())
        .map(|(_, n)| n.clone());
    let mut info = FnInfo {
        file: fi,
        name: func.name.clone(),
        impl_type: impl_type.clone(),
        body: func.body.clone(),
        line: file.tokens.get(func.fn_tok).map_or(0, |t| t.line),
        mut_self: is_mut_self(file, func),
        calls: Vec::new(),
        acqs: Vec::new(),
        bumps_epoch: false,
        returns_guard: None,
    };
    if func.body.is_empty() {
        return info;
    }
    for i in func.body.clone() {
        if owned_by_nested(file, func, i) {
            continue;
        }
        let Some(tok) = file.code_token(i) else { continue };
        if tok.kind != TokenKind::Ident {
            continue;
        }
        // Epoch bumps: `bump_epoch(…)` or `epoch += …`.
        if tok.text == "bump_epoch"
            && file.next_code(i).map_or(false, |n| file.is_punct(n, "("))
        {
            info.bumps_epoch = true;
        }
        if tok.text == "epoch" && file.next_code(i).map_or(false, |n| file.is_punct(n, "+=")) {
            info.bumps_epoch = true;
        }
        let followed_by_paren = file.next_code(i).map_or(false, |n| file.is_punct(n, "("));
        if !followed_by_paren {
            continue;
        }
        let prev = file.prev_code(i);
        let prev_is_dot = prev.map_or(false, |p| file.is_punct(p, "."));
        // Direct lock acquisition: `.lock(` / `.read(` / `.write(`.
        if prev_is_dot && ACQUIRE_METHODS.contains(&tok.text.as_str()) {
            let open = file.next_code(i).unwrap_or(i);
            let close = file.matching_paren(open);
            let lock = lock_identity(file, prev.unwrap_or(i), impl_type.as_deref());
            let empty_args = file.next_code(open) == Some(close);
            let span = if empty_args {
                guard_span(file, &func.body, i, close)
            } else {
                // Closure-style wrapper (`shared.read(|s| …)`) holds the
                // lock for exactly the argument span.
                open..close + 1
            };
            // A tail-expression acquisition escapes to the caller —
            // but only a declared `…Guard` return type proves the
            // caller receives a *guard*, not a value computed under a
            // scoped lock (`fn epoch(&self) -> u64 { self.read(…) }`).
            if empty_args && has_guard_return(file, func) && is_tail_expr(file, func, i, span.end)
            {
                info.returns_guard = Some(lock.clone());
            }
            info.acqs.push(AcqSite {
                lock,
                method: tok.text.clone(),
                tok: i,
                line: tok.line,
                span,
                via_call: false,
            });
            continue;
        }
        // Call site: `name(` that isn't a definition, a macro, a type
        // constructor, or a control-flow keyword.
        if prev.map_or(false, |p| file.is_ident(p, "fn")) {
            continue;
        }
        if tok.text.chars().next().map_or(true, |c| c.is_uppercase()) {
            continue;
        }
        if super::passes::NON_POSTFIX_KEYWORDS.contains(&tok.text.as_str()) {
            continue;
        }
        let recv = if prev_is_dot {
            // `self.foo(…)` iff the token before the dot is a bare
            // `self` (not itself field-accessed, as in `x.self…`).
            let dot = prev.unwrap_or(i);
            match file.prev_code(dot) {
                Some(r)
                    if file.is_ident(r, "self")
                        && !file.prev_code(r).map_or(false, |p| file.is_punct(p, ".")) =>
                {
                    Recv::SelfMethod
                }
                _ => Recv::Other,
            }
        } else {
            Recv::Bare
        };
        info.calls.push(CallSite {
            name: tok.text.clone(),
            recv,
            tok: i,
            line: tok.line,
        });
    }
    info
}

/// Whether the declared return type names a guard (`MutexGuard`,
/// `RwLockReadGuard`, …).  A helper that hands its caller a live guard
/// has to say so in its signature; that declaration is what makes
/// call-site guard synthesis sound.
fn has_guard_return(file: &SourceFile, func: &Func) -> bool {
    let mut j = func.fn_tok;
    let mut arrow = false;
    while let Some(n) = file.next_code(j) {
        if n >= func.body.start {
            return false;
        }
        j = n;
        if file.is_punct(j, "->") {
            arrow = true;
        } else if arrow
            && file.tokens[j].kind == TokenKind::Ident
            && file.tokens[j].text.contains("Guard")
        {
            return true;
        }
    }
    false
}

/// Whether `func` takes `&mut self` (or `&'a mut self`).
fn is_mut_self(file: &SourceFile, func: &Func) -> bool {
    // Scan the first few tokens after the parameter-list `(`.
    let mut j = func.fn_tok;
    let open = loop {
        match file.next_code(j) {
            Some(n) if file.is_punct(n, "(") => break Some(n),
            Some(n) if n >= func.body.start => break None,
            Some(n) => j = n,
            None => break None,
        }
    };
    let Some(open) = open else { return false };
    let mut saw_mut = false;
    let mut k = open;
    for _ in 0..5 {
        let Some(n) = file.next_code(k) else { return false };
        k = n;
        let t = &file.tokens[k];
        match t.text.as_str() {
            "mut" => saw_mut = true,
            "self" => return saw_mut,
            "&" => {}
            _ if t.kind == TokenKind::Lifetime => {}
            _ => return false,
        }
    }
    false
}

/// Canonical lock identity for the receiver ending at the `.` at `dot`.
///
/// `self.x.y` → `ImplType.x.y` (or `file-stem::x.y` without an impl);
/// bare `self` (a `self.lock()` helper) → `ImplType`; a local or
/// parameter chain → `file-stem::chain`; non-trivial receivers render a
/// unique-enough `<expr>@line`.
fn lock_identity(file: &SourceFile, dot: usize, impl_type: Option<&str>) -> String {
    let stem = file
        .rel
        .rsplit('/')
        .next()
        .unwrap_or(&file.rel)
        .trim_end_matches(".rs");
    let mut parts: Vec<String> = Vec::new();
    let mut d = dot;
    let mut opaque = false;
    loop {
        let Some(p) = file.prev_code(d) else { break };
        let t = &file.tokens[p];
        if t.kind != TokenKind::Ident {
            opaque = true;
            break;
        }
        parts.push(t.text.clone());
        match file.prev_code(p) {
            Some(d2) if file.is_punct(d2, ".") => d = d2,
            _ => break,
        }
    }
    parts.reverse();
    if opaque {
        let line = file.tokens.get(dot).map_or(0, |t| t.line);
        return format!("<expr>@{stem}:{line}");
    }
    if parts.first().map(String::as_str) == Some("self") {
        let rest = parts[1..].join(".");
        let owner = impl_type.unwrap_or(stem);
        if rest.is_empty() {
            owner.to_string()
        } else {
            format!("{owner}.{rest}")
        }
    } else {
        format!("{stem}::{}", parts.join("."))
    }
}

/// The token span a guard from the acquisition at `name_tok` (with its
/// argument list closing at `close`) is live for, inside `body`.
///
/// A `let`-bound guard lives to the end of its enclosing block (truncated
/// at an explicit `drop(binding)`); a chain that continues past
/// `unwrap`/`expect`/`unwrap_or_else` into any other method consumes the
/// guard at the end of the statement; a bare temporary likewise lives to
/// the end of its statement.
pub(crate) fn guard_span(
    file: &SourceFile,
    body: &Range<usize>,
    name_tok: usize,
    close: usize,
) -> Range<usize> {
    // Follow the method chain.
    let mut end = close;
    let mut still_guard = true;
    loop {
        let Some(dot) = file.next_code(end).filter(|&n| file.is_punct(n, ".")) else { break };
        let Some(m) = file.next_code(dot) else { break };
        let Some(open) = file.next_code(m).filter(|&n| file.is_punct(n, "(")) else {
            // Field access after a guard (`x.lock().0`) — treat like a
            // consuming chain: statement-scoped.
            still_guard = false;
            end = m;
            continue;
        };
        if !GUARD_CHAIN.contains(&file.tokens[m].text.as_str()) {
            still_guard = false;
        }
        end = file.matching_paren(open);
    }
    // `?` after the chain keeps guard-ness (`let g = x.lock()?;`).
    if let Some(q) = file.next_code(end).filter(|&n| file.is_punct(n, "?")) {
        end = q;
    }
    if still_guard && let_binding(file, body, name_tok).is_some() {
        let block_end = enclosing_block_end(file, body, name_tok);
        let mut span_end = block_end;
        // Truncate at an explicit `drop(binding)`.
        if let Some(binding) = let_binding(file, body, name_tok) {
            let mut k = end;
            while let Some(n) = file.next_code(k) {
                if n >= block_end {
                    break;
                }
                k = n;
                if file.is_ident(k, "drop")
                    && file.next_code(k).map_or(false, |o| file.is_punct(o, "("))
                {
                    let o = file.next_code(k).unwrap_or(k);
                    if file.next_code(o).map_or(false, |a| file.is_ident(a, &binding)) {
                        span_end = k;
                        break;
                    }
                }
            }
        }
        return name_tok..span_end;
    }
    // Statement-scoped: to the `;` (or block boundary) ending this
    // statement.
    name_tok..statement_end(file, body, end)
}

/// The name bound by the `let` statement containing `tok`, when the
/// statement is a simple `let [mut] name (: ty)? = …`.
fn let_binding(file: &SourceFile, body: &Range<usize>, tok: usize) -> Option<String> {
    let mut j = tok;
    let let_tok = loop {
        if j <= body.start {
            return None;
        }
        j -= 1;
        let Some(t) = file.code_token(j) else { continue };
        match t.text.as_str() {
            ";" | "{" | "}" => return None,
            "let" if t.kind == TokenKind::Ident => break j,
            _ => {}
        }
    };
    let mut n = file.next_code(let_tok)?;
    if file.is_ident(n, "mut") {
        n = file.next_code(n)?;
    }
    let t = file.tokens.get(n)?;
    if t.kind == TokenKind::Ident {
        Some(t.text.clone())
    } else {
        None
    }
}

/// The end (exclusive) of the innermost block containing `tok`.
fn enclosing_block_end(file: &SourceFile, body: &Range<usize>, tok: usize) -> usize {
    let mut stack: Vec<usize> = Vec::new();
    for i in body.start..tok {
        if file.code_token(i).is_none() {
            continue;
        }
        if file.is_punct(i, "{") {
            stack.push(i);
        } else if file.is_punct(i, "}") {
            stack.pop();
        }
    }
    match stack.last() {
        Some(&open) => file.matching_brace(open),
        None => body.end,
    }
}

/// The first `;` at depth 0 after `from` (or the enclosing `}`),
/// exclusive-end for a statement-scoped guard span.
fn statement_end(file: &SourceFile, body: &Range<usize>, from: usize) -> usize {
    let mut depth = 0i64;
    let mut i = from;
    while let Some(n) = file.next_code(i) {
        if n >= body.end {
            break;
        }
        i = n;
        match file.tokens[i].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" => depth -= 1,
            "}" => {
                depth -= 1;
                if depth < 0 {
                    return i;
                }
            }
            ";" if depth <= 0 => return i,
            _ => {}
        }
    }
    body.end.min(i + 1)
}

/// True when the expression whose last token is near `span_end` is the
/// function's tail expression (no `;` between it and the body's `}`).
fn is_tail_expr(file: &SourceFile, func: &Func, _acq_tok: usize, span_end: usize) -> bool {
    let mut i = span_end.saturating_sub(1);
    while let Some(n) = file.next_code(i) {
        if n >= func.body.end.saturating_sub(1) {
            return true;
        }
        i = n;
        match file.tokens[i].text.as_str() {
            ";" | "{" => return false,
            _ => {}
        }
    }
    true
}

/// Identifiers in `file` declared with a `HashMap`/`HashSet` type, via
/// `name: HashMap<…>` (fields, params, typed lets) or
/// `let [mut] name = Hash{Map,Set}::…`.
fn hash_typed_names(file: &SourceFile) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for i in 0..file.tokens.len() {
        let Some(t) = file.code_token(i) else { continue };
        if t.kind != TokenKind::Ident || (t.text != "HashMap" && t.text != "HashSet") {
            continue;
        }
        // `name : [&/&mut] HashMap` — walk back over reference sigils.
        let mut p = file.prev_code(i);
        while let Some(j) = p {
            let pt = &file.tokens[j];
            if pt.text == "&" || pt.text == "mut" || pt.kind == TokenKind::Lifetime {
                p = file.prev_code(j);
            } else {
                break;
            }
        }
        if let Some(colon) = p.filter(|&j| file.is_punct(j, ":")) {
            if let Some(name) = file.prev_code(colon) {
                let nt = &file.tokens[name];
                if nt.kind == TokenKind::Ident {
                    out.push(nt.text.clone());
                    continue;
                }
            }
        }
        // `let [mut] name = HashMap::new()`.
        if let Some(eq) = file.prev_code(i).filter(|&j| file.is_punct(j, "=")) {
            if let Some(name) = file.prev_code(eq) {
                let nt = &file.tokens[name];
                if nt.kind == TokenKind::Ident && nt.text != "mut" {
                    out.push(nt.text.clone());
                }
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Collects metric registrations: a call whose callee name ends with
/// `counter`/`gauge`/`histogram` (optionally `_with`) and whose first
/// argument is a string literal.
fn collect_metrics(file: &SourceFile, fi: usize, out: &mut Vec<MetricReg>) {
    for i in 0..file.tokens.len() {
        if file.in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        let Some(t) = file.code_token(i) else { continue };
        if t.kind != TokenKind::Ident {
            continue;
        }
        let base = t.text.strip_suffix("_with").unwrap_or(&t.text);
        if !(base.ends_with("counter") || base.ends_with("gauge") || base.ends_with("histogram")) {
            continue;
        }
        let Some(open) = file.next_code(i).filter(|&n| file.is_punct(n, "(")) else { continue };
        let Some(arg) = file.next_code(open) else { continue };
        let at = &file.tokens[arg];
        if at.kind != TokenKind::Str {
            continue;
        }
        let name = at.text.trim_matches('"');
        if name.is_empty() {
            continue;
        }
        out.push(MetricReg {
            file: fi,
            name: name.to_string(),
            line: t.line,
        });
    }
}

/// Collects `const K_*: u8 = 0x…;` opcode constants.
fn collect_opcodes(file: &SourceFile, fi: usize, out: &mut Vec<OpcodeConst>) {
    for i in 0..file.tokens.len() {
        if !file.is_ident(i, "const") {
            continue;
        }
        let Some(name_i) = file.next_code(i) else { continue };
        let name_t = &file.tokens[name_i];
        if name_t.kind != TokenKind::Ident || !name_t.text.starts_with("K_") {
            continue;
        }
        let Some(colon) = file.next_code(name_i).filter(|&n| file.is_punct(n, ":")) else {
            continue;
        };
        let Some(ty) = file.next_code(colon).filter(|&n| file.is_ident(n, "u8")) else {
            continue;
        };
        let Some(eq) = file.next_code(ty).filter(|&n| file.is_punct(n, "=")) else { continue };
        let Some(val) = file.next_code(eq) else { continue };
        let vt = &file.tokens[val];
        let value = if vt.kind == TokenKind::Num {
            parse_num(&vt.text)
        } else {
            None
        };
        out.push(OpcodeConst {
            file: fi,
            name: name_t.text.clone(),
            value,
            line: name_t.line,
        });
    }
}

/// Parses a Rust numeric literal (`0x8C`, `12`, with `_` separators and
/// optional type suffix).
fn parse_num(text: &str) -> Option<u64> {
    let clean: String = text.chars().filter(|&c| c != '_').collect();
    let clean = clean
        .trim_end_matches("u8")
        .trim_end_matches("u16")
        .trim_end_matches("u32")
        .trim_end_matches("u64")
        .trim_end_matches("usize");
    if let Some(hex) = clean.strip_prefix("0x").or_else(|| clean.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        clean.parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index_one(rel: &str, src: &str) -> (Vec<SourceFile>, WorkspaceIndex) {
        let files = vec![SourceFile::parse(rel, src)];
        let idx = WorkspaceIndex::build(&files);
        (files, idx)
    }

    fn fn_named<'a>(idx: &'a WorkspaceIndex, name: &str) -> &'a FnInfo {
        let i = idx.fns_by_name[name][0];
        &idx.fns[i]
    }

    #[test]
    fn impl_type_and_mut_self() {
        let (_, idx) = index_one(
            "crates/x/src/a.rs",
            "impl Foo { fn m(&mut self) { self.n += 1; } fn r(&self) {} }\nimpl Tr for Bar { fn t(&self) {} }\nfn free() {}",
        );
        assert_eq!(fn_named(&idx, "m").impl_type.as_deref(), Some("Foo"));
        assert!(fn_named(&idx, "m").mut_self);
        assert!(!fn_named(&idx, "r").mut_self);
        assert_eq!(fn_named(&idx, "t").impl_type.as_deref(), Some("Bar"));
        assert_eq!(fn_named(&idx, "free").impl_type, None);
    }

    #[test]
    fn lock_identity_qualifies_by_impl_type() {
        let (_, idx) = index_one(
            "crates/x/src/subs.rs",
            "impl Subs { fn f(&self) { let t = self.table.lock(); t.len(); } }\nimpl Reg { fn g(&self) { let t = self.inner.lock(); t.len(); } }\nfn h(w: &M) { let g = w.lock(); }",
        );
        assert_eq!(fn_named(&idx, "f").acqs[0].lock, "Subs.table");
        assert_eq!(fn_named(&idx, "g").acqs[0].lock, "Reg.inner");
        assert_eq!(fn_named(&idx, "h").acqs[0].lock, "subs::w");
    }

    #[test]
    fn let_guard_spans_to_block_end_and_drop_truncates() {
        let (files, idx) = index_one(
            "crates/x/src/a.rs",
            "fn f(m: &M) { let g = m.lock(); use_it(&g); drop(g); more(); }",
        );
        let f = fn_named(&idx, "f");
        let acq = &f.acqs[0];
        let file = &files[0];
        let use_tok = file.tokens.iter().position(|t| t.text == "use_it").unwrap();
        let more_tok = file.tokens.iter().position(|t| t.text == "more").unwrap();
        assert!(acq.span.contains(&use_tok), "guard covers use_it");
        assert!(!acq.span.contains(&more_tok), "drop() releases before more()");
    }

    #[test]
    fn consuming_chain_is_statement_scoped() {
        let (files, idx) = index_one(
            "crates/x/src/a.rs",
            "fn f(m: &M) { let n = m.lock().unwrap().len(); after(n); }",
        );
        let acq = &fn_named(&idx, "f").acqs[0];
        let file = &files[0];
        let after_tok = file.tokens.iter().position(|t| t.text == "after").unwrap();
        assert!(!acq.span.contains(&after_tok), "len() consumed the guard");
    }

    #[test]
    fn unwrap_chain_preserves_guard() {
        let (files, idx) = index_one(
            "crates/x/src/a.rs",
            "fn f(m: &M) { let g = m.lock().unwrap_or_else(|e| e.into_inner()); use_it(&g); }",
        );
        let acq = &fn_named(&idx, "f").acqs[0];
        let file = &files[0];
        let use_tok = file.tokens.iter().position(|t| t.text == "use_it").unwrap();
        assert!(acq.span.contains(&use_tok));
    }

    #[test]
    fn helper_returning_guard_is_synthesized_at_call_sites() {
        let (files, idx) = index_one(
            "crates/x/src/subs.rs",
            "impl S { fn lock_table(&self) -> MutexGuard<'_, T> { self.table.lock().unwrap_or_else(E::into_inner) } \
             fn user(&self) { let t = self.lock_table(); touch(&t); } }",
        );
        let helper = fn_named(&idx, "lock_table");
        assert_eq!(helper.returns_guard.as_deref(), Some("S.table"));
        // The same shape without a `…Guard` return type is a scoped
        // computation, not an escaping guard.
        let (_, idx2) = index_one(
            "crates/x/src/subs.rs",
            "impl S { fn epoch(&self) -> u64 { self.table.lock().unwrap_or_else(E::into_inner) } }",
        );
        assert_eq!(fn_named(&idx2, "epoch").returns_guard, None);
        let user = fn_named(&idx, "user");
        let syn: Vec<_> = user.acqs.iter().filter(|a| a.via_call).collect();
        assert_eq!(syn.len(), 1, "{:?}", user.acqs);
        assert_eq!(syn[0].lock, "S.table");
        let file = &files[0];
        let touch_tok = file.tokens.iter().position(|t| t.text == "touch").unwrap();
        assert!(syn[0].span.contains(&touch_tok));
    }

    #[test]
    fn epoch_bumps_detected_both_ways() {
        let (_, idx) = index_one(
            "crates/x/src/a.rs",
            "impl T { fn a(&mut self) { self.epoch += 1; } fn b(&mut self) { self.bump_epoch(); } fn c(&mut self) { self.n += 1; } }",
        );
        assert!(fn_named(&idx, "a").bumps_epoch);
        assert!(fn_named(&idx, "b").bumps_epoch);
        assert!(!fn_named(&idx, "c").bumps_epoch);
    }

    #[test]
    fn metrics_and_opcodes_collected() {
        let (_, idx) = index_one(
            "crates/x/src/m.rs",
            "fn r(reg: &Registry) { reg.counter(\"a_total\", \"h\"); reg.gauge(\"b\", \"h\"); \
             reg.histogram_with(\"c_seconds\", \"h\", &[(\"k\", v)]); reg.gauge(name, \"h\"); }\n\
             const K_PING: u8 = 0x01;\nconst K_TWO: u8 = 2;\nconst MAX: u32 = 7;\n\
             #[cfg(test)] mod tests { fn t(reg: &Registry) { reg.counter(\"test_only\", \"h\"); } }",
        );
        let names: Vec<&str> = idx.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, vec!["a_total", "b", "c_seconds"]);
        assert_eq!(idx.opcodes.len(), 2);
        assert_eq!(idx.opcodes[0].name, "K_PING");
        assert_eq!(idx.opcodes[0].value, Some(1));
        assert_eq!(idx.opcodes[1].value, Some(2));
    }

    #[test]
    fn hash_typed_names_found() {
        let (_, idx) = index_one(
            "crates/x/src/a.rs",
            "struct S { table: HashMap<u64, E>, labels: HashSet<String>, v: Vec<u8> }\n\
             fn f(m: &HashMap<u64, E>) { let mut local = HashMap::new(); let ordered: Vec<u8> = vec![]; }",
        );
        assert_eq!(idx.hash_names[0], vec!["labels", "local", "m", "table"]);
    }

    #[test]
    fn calls_exclude_defs_macros_and_constructors() {
        let (_, idx) = index_one(
            "crates/x/src/a.rs",
            "fn f() { helper(); mod_path::other(); Some(1); vec![1]; if cond() { } }",
        );
        let calls: Vec<&str> = fn_named(&idx, "f").calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(calls, vec!["helper", "other", "cond"]);
    }
}
