//! Per-file analysis context: token stream plus structural annotations.
//!
//! Three annotations are derived once per file and shared by every pass:
//!
//! * **test regions** — the token ranges of `#[cfg(test)]` items and
//!   `mod tests { … }` bodies.  Passes that police library code skip
//!   tokens inside these regions.
//! * **functions** — `(name, body token range)` for every `fn`, found by
//!   scanning from the `fn` keyword to its body's matching brace.  Used
//!   by passes with per-function rules (arithmetic scoping, lock
//!   discipline, wire exhaustiveness).
//! * **allow markers** — `lint:allow` comments naming rule ids and a
//!   `reason = "…"`, the escape hatch.  A marker suppresses findings of
//!   the named rule(s) on its own line or the following line; the
//!   suppression is still *recorded* in the report, and a marker without
//!   a reason, or naming a rule no pass reports, is itself a finding
//!   (rule `A0`).

use crate::lexer::{lex, Token, TokenKind};

/// A `lint:allow` escape-hatch marker parsed from a comment.
#[derive(Debug, Clone)]
pub struct AllowMarker {
    /// Rule ids the marker suppresses (e.g. `["L1"]`).
    pub rules: Vec<String>,
    /// The mandatory human reason; `None` when the author omitted it
    /// (which rule `A0` reports).
    pub reason: Option<String>,
    /// 1-based line the marker appears on.
    pub line: u32,
}

/// A function found in the token stream.
#[derive(Debug, Clone)]
pub struct Func {
    /// The function's name.
    pub name: String,
    /// Token index of the `fn` keyword.
    pub fn_tok: usize,
    /// Token range of the body, `{` inclusive to `}` inclusive; empty for
    /// bodyless trait methods.
    pub body: std::ops::Range<usize>,
}

/// One source file, lexed and annotated, ready for the passes.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// The complete token stream.
    pub tokens: Vec<Token>,
    /// `in_test[i]` is true when token `i` is inside test-only code.
    pub in_test: Vec<bool>,
    /// Every function with a resolvable body.
    pub functions: Vec<Func>,
    /// All `lint:allow` markers in the file.
    pub allows: Vec<AllowMarker>,
}

impl SourceFile {
    /// Lexes and annotates one file.
    pub fn parse(rel: &str, text: &str) -> SourceFile {
        let tokens = lex(text);
        let in_test = test_regions(&tokens);
        let functions = find_functions(&tokens);
        let allows = find_allows(&tokens);
        SourceFile {
            rel: rel.to_string(),
            tokens,
            in_test,
            functions,
            allows,
        }
    }

    /// The token at `i` if it is meaningful code (not a comment).
    pub fn code_token(&self, i: usize) -> Option<&Token> {
        let t = self.tokens.get(i)?;
        match t.kind {
            TokenKind::LineComment | TokenKind::BlockComment => None,
            _ => Some(t),
        }
    }

    /// Index of the previous non-comment token before `i`.
    pub fn prev_code(&self, i: usize) -> Option<usize> {
        (0..i).rev().find(|&j| self.code_token(j).is_some())
    }

    /// Index of the next non-comment token after `i`.
    pub fn next_code(&self, i: usize) -> Option<usize> {
        (i + 1..self.tokens.len()).find(|&j| self.code_token(j).is_some())
    }

    /// True if the token at `i` is an identifier with exactly this text.
    pub fn is_ident(&self, i: usize, text: &str) -> bool {
        self.tokens
            .get(i)
            .map_or(false, |t| t.kind == TokenKind::Ident && t.text == text)
    }

    /// True if the token at `i` is punctuation with exactly this text.
    pub fn is_punct(&self, i: usize, text: &str) -> bool {
        self.tokens
            .get(i)
            .map_or(false, |t| t.kind == TokenKind::Punct && t.text == text)
    }

    /// The index of the `}` matching the `{` at `open` (or the last token
    /// if unbalanced).
    pub fn matching_brace(&self, open: usize) -> usize {
        let mut depth = 0usize;
        for i in open..self.tokens.len() {
            if self.code_token(i).is_none() {
                continue;
            }
            if self.is_punct(i, "{") {
                depth += 1;
            } else if self.is_punct(i, "}") {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
        }
        self.tokens.len().saturating_sub(1)
    }

    /// The index of the `)` matching the `(` at `open`.
    pub fn matching_paren(&self, open: usize) -> usize {
        let mut depth = 0usize;
        for i in open..self.tokens.len() {
            if self.code_token(i).is_none() {
                continue;
            }
            if self.is_punct(i, "(") {
                depth += 1;
            } else if self.is_punct(i, ")") {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
        }
        self.tokens.len().saturating_sub(1)
    }
}

/// Marks tokens inside `#[cfg(test)]` items and `mod tests { … }` bodies.
fn test_regions(tokens: &[Token]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let code = |i: usize| -> Option<&Token> {
        let t = tokens.get(i)?;
        match t.kind {
            TokenKind::LineComment | TokenKind::BlockComment => None,
            _ => Some(t),
        }
    };
    let next_code = |mut i: usize| -> Option<usize> {
        loop {
            i += 1;
            if i >= tokens.len() {
                return None;
            }
            if code(i).is_some() {
                return Some(i);
            }
        }
    };
    let mut i = 0usize;
    while i < tokens.len() {
        // `#[cfg(test)]` — exact token shape # [ cfg ( test ) ].
        let is_cfg_test = code(i).map_or(false, |t| t.text == "#")
            && matches_seq(tokens, i, &["#", "[", "cfg", "(", "test", ")", "]"]);
        // `mod tests` without an attribute also counts (the conventional
        // unit-test module name).
        let is_mod_tests = code(i).map_or(false, |t| t.text == "mod")
            && next_code(i).map_or(false, |j| tokens[j].text == "tests");
        if is_cfg_test || is_mod_tests {
            // Find the start of the annotated item: skip the attribute
            // itself, then any further attributes, up to the item keyword.
            let mut j = i;
            if is_cfg_test {
                j = skip_attr(tokens, j);
                while code(j).map_or(false, |t| t.text == "#") {
                    j = skip_attr(tokens, j);
                }
            }
            // The item body is the first `{ … }` before a `;` at depth 0.
            let mut k = j;
            let mut body = None;
            while k < tokens.len() {
                match code(k).map(|t| t.text.as_str()) {
                    Some("{") => {
                        body = Some(k);
                        break;
                    }
                    Some(";") => break,
                    _ => k += 1,
                }
            }
            if let Some(open) = body {
                let close = matching_brace_raw(tokens, open);
                for slot in in_test.iter_mut().take(close + 1).skip(i) {
                    *slot = true;
                }
                i = close + 1;
                continue;
            }
            // Bodyless item (`#[cfg(test)] use …;`): mark through the `;`.
            for slot in in_test.iter_mut().take(k + 1).skip(i) {
                *slot = true;
            }
            i = k + 1;
            continue;
        }
        i += 1;
    }
    in_test
}

/// True when the non-comment tokens starting at `i` spell out `seq`.
fn matches_seq(tokens: &[Token], mut i: usize, seq: &[&str]) -> bool {
    for want in seq {
        loop {
            match tokens.get(i) {
                None => return false,
                Some(t)
                    if matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) =>
                {
                    i += 1;
                }
                Some(t) => {
                    if t.text != *want {
                        return false;
                    }
                    i += 1;
                    break;
                }
            }
        }
    }
    true
}

/// Given `i` at a `#`, returns the index one past the attribute's `]`.
fn skip_attr(tokens: &[Token], i: usize) -> usize {
    let mut j = i + 1;
    // Find the `[`.
    while j < tokens.len() && tokens[j].text != "[" {
        j += 1;
    }
    let mut depth = 0usize;
    while j < tokens.len() {
        match tokens[j].text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    tokens.len()
}

fn matching_brace_raw(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        if t.text == "{" {
            depth += 1;
        } else if t.text == "}" {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    tokens.len().saturating_sub(1)
}

/// Finds every `fn name … { body }`.
fn find_functions(tokens: &[Token]) -> Vec<Func> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if tokens[i].kind != TokenKind::Ident || tokens[i].text != "fn" {
            continue;
        }
        // Name is the next identifier.
        let Some(name_idx) = (i + 1..tokens.len()).find(|&j| tokens[j].kind == TokenKind::Ident)
        else {
            continue;
        };
        let name = tokens[name_idx].text.clone();
        // Body: first `{` at paren depth 0 before a `;` at paren depth 0.
        let mut depth = 0i64;
        let mut body = None;
        for (j, tok) in tokens.iter().enumerate().skip(name_idx + 1) {
            if matches!(tok.kind, TokenKind::LineComment | TokenKind::BlockComment) {
                continue;
            }
            match tok.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => {
                    body = Some(j);
                    break;
                }
                ";" if depth == 0 => break,
                _ => {}
            }
        }
        let body = match body {
            Some(open) => open..matching_brace_raw(tokens, open) + 1,
            None => i..i,
        };
        out.push(Func {
            name,
            fn_tok: i,
            body,
        });
    }
    out
}

/// Extracts allow markers — `lint:allow` followed by a parenthesised
/// rule list and optional `reason = "…"` — from comments.
fn find_allows(tokens: &[Token]) -> Vec<AllowMarker> {
    let mut out = Vec::new();
    for t in tokens {
        if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let Some(at) = t.text.find("lint:allow(") else {
            continue;
        };
        // The marker's effective line: where `lint:allow` itself sits
        // (block comments may start lines earlier).
        let line = t.line + t.text[..at].bytes().filter(|&b| b == b'\n').count() as u32;
        let rest = &t.text[at + "lint:allow(".len()..];
        let mut rules = Vec::new();
        let mut reason = None;
        // Parse `IDENT (, IDENT)* (, reason = "…")? )`.
        let mut s = rest;
        loop {
            s = s.trim_start_matches([' ', '\t', ',']);
            if s.starts_with(')') || s.is_empty() {
                break;
            }
            if let Some(after) = s.strip_prefix("reason") {
                let after = after.trim_start();
                if let Some(after) = after.strip_prefix('=') {
                    let after = after.trim_start();
                    if let Some(after) = after.strip_prefix('"') {
                        if let Some(endq) = after.find('"') {
                            let r = &after[..endq];
                            if !r.trim().is_empty() {
                                reason = Some(r.to_string());
                            }
                        }
                    }
                }
                break;
            }
            let end = s
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .unwrap_or(s.len());
            if end == 0 {
                break; // unparseable garbage; stop, rules so far stand
            }
            rules.push(s[..end].to_string());
            s = &s[end..];
        }
        out.push(AllowMarker {
            rules,
            reason,
            line,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_module_is_marked() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}\n";
        let f = SourceFile::parse("x.rs", src);
        let unwrap_idx = f
            .tokens
            .iter()
            .position(|t| t.text == "unwrap")
            .expect("token present");
        assert!(f.in_test[unwrap_idx]);
        let lib_idx = f.tokens.iter().position(|t| t.text == "lib").unwrap();
        assert!(!f.in_test[lib_idx]);
    }

    #[test]
    fn mod_tests_without_attr_is_marked() {
        let src = "mod tests { fn t() {} } fn real() {}";
        let f = SourceFile::parse("x.rs", src);
        let t_idx = f.tokens.iter().position(|t| t.text == "t").unwrap();
        assert!(f.in_test[t_idx]);
        let real_idx = f.tokens.iter().position(|t| t.text == "real").unwrap();
        assert!(!f.in_test[real_idx]);
    }

    #[test]
    fn functions_found_with_bodies() {
        let src = "impl X { fn a(&self) -> Vec<u8> { vec![] } }\nfn b<T: Fn(u8) -> u8>(f: T) where T: Clone { f(1); }";
        let f = SourceFile::parse("x.rs", src);
        let names: Vec<_> = f.functions.iter().map(|x| x.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
        for func in &f.functions {
            assert!(!func.body.is_empty(), "{} has no body", func.name);
        }
    }

    #[test]
    fn allow_markers_parse() {
        let src = r#"
// lint:allow(L1, reason = "bounds checked above")
x[0];
// lint:allow(L2, L3)
y as u32;
"#;
        let f = SourceFile::parse("x.rs", src);
        assert_eq!(f.allows.len(), 2);
        assert_eq!(f.allows[0].rules, vec!["L1"]);
        assert_eq!(f.allows[0].reason.as_deref(), Some("bounds checked above"));
        assert_eq!(f.allows[1].rules, vec!["L2", "L3"]);
        assert!(f.allows[1].reason.is_none());
    }

    #[test]
    fn allow_in_string_is_not_a_marker() {
        let src = r#"let s = "lint:allow(L1, reason = \"nope\")";"#;
        let f = SourceFile::parse("x.rs", src);
        assert!(f.allows.is_empty());
    }
}
