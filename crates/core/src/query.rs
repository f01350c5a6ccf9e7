//! Textual query patterns.
//!
//! SketchTree queries are labeled trees (Section 2.1); this module gives
//! them a compact text form so examples, tests and the experiment harness
//! don't hand-assemble trees:
//!
//! ```text
//! pattern  := node
//! node     := prefix? label children?
//! prefix   := "//"            (descendant edge to parent; children only)
//! label    := bare | quoted | "*"
//! children := "(" node ("," node)* ")"
//! ```
//!
//! `A(B, C(D))` is the root `A` with child `B` and child `C` having child
//! `D`.  Values with special characters are quoted: `author("Don Knuth")`.
//! `*` is a wildcard label and `//X` a descendant edge — both only
//! answerable through the structural summary of Section 6.2
//! ([`crate::summary`]).

use sketchtree_tree::{LabelTable, Tree};
use std::fmt;

/// A query node label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryLabel {
    /// A concrete element name or value.
    Name(String),
    /// `*` — any label (Section 6.2).
    Wildcard,
}

/// The edge connecting a node to its parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Parent-child (`/` in XPath terms) — the default.
    Child,
    /// Ancestor-descendant (`//`).
    Descendant,
}

/// A node of a parsed query pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryNode {
    /// The node's label.
    pub label: QueryLabel,
    /// Edge to the parent ([`EdgeKind::Child`] for the root).
    pub edge: EdgeKind,
    /// Ordered children.
    pub children: Vec<QueryNode>,
}

/// A parsed query pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPattern {
    /// The root node.
    pub root: QueryNode,
}

/// Parse errors with byte positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// Unexpected character.
    UnexpectedChar {
        /// Byte offset.
        at: usize,
    },
    /// Input ended mid-pattern.
    UnexpectedEnd,
    /// Input continues after a complete pattern.
    TrailingInput {
        /// Byte offset where the trailing input starts.
        at: usize,
    },
    /// A label was empty.
    EmptyLabel {
        /// Byte offset.
        at: usize,
    },
    /// `//` on the root node (patterns already match anywhere; a root
    /// descendant edge is meaningless).
    RootDescendant,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::UnexpectedChar { at } => write!(f, "unexpected character at byte {at}"),
            QueryError::UnexpectedEnd => write!(f, "unexpected end of pattern"),
            QueryError::TrailingInput { at } => write!(f, "trailing input at byte {at}"),
            QueryError::EmptyLabel { at } => write!(f, "empty label at byte {at}"),
            QueryError::RootDescendant => write!(f, "`//` is not allowed on the root"),
        }
    }
}

impl std::error::Error for QueryError {}

/// Parses a pattern from its text form.
pub fn parse_pattern(input: &str) -> Result<QueryPattern, QueryError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        input,
        pos: 0,
    };
    p.skip_ws();
    let root = p.parse_node()?;
    if root.edge == EdgeKind::Descendant {
        return Err(QueryError::RootDescendant);
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(QueryError::TrailingInput { at: p.pos });
    }
    Ok(QueryPattern { root })
}

struct Parser<'a> {
    bytes: &'a [u8],
    input: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn parse_node(&mut self) -> Result<QueryNode, QueryError> {
        self.skip_ws();
        let mut edge = EdgeKind::Child;
        if self.input[self.pos..].starts_with("//") {
            edge = EdgeKind::Descendant;
            self.pos += 2;
            self.skip_ws();
        }
        let label = self.parse_label()?;
        self.skip_ws();
        let mut children = Vec::new();
        if self.peek() == Some(b'(') {
            self.pos += 1;
            loop {
                children.push(self.parse_node()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b')') => {
                        self.pos += 1;
                        break;
                    }
                    Some(_) => return Err(QueryError::UnexpectedChar { at: self.pos }),
                    None => return Err(QueryError::UnexpectedEnd),
                }
            }
        }
        Ok(QueryNode {
            label,
            edge,
            children,
        })
    }

    fn parse_label(&mut self) -> Result<QueryLabel, QueryError> {
        match self.peek() {
            Some(b'*') => {
                self.pos += 1;
                Ok(QueryLabel::Wildcard)
            }
            Some(b'"') => {
                self.pos += 1;
                let mut out = String::new();
                loop {
                    match self.peek() {
                        None => return Err(QueryError::UnexpectedEnd),
                        Some(b'"') => {
                            self.pos += 1;
                            break;
                        }
                        Some(b'\\') => {
                            self.pos += 1;
                            match self.peek() {
                                None => return Err(QueryError::UnexpectedEnd),
                                Some(c) => {
                                    out.push(c as char);
                                    self.pos += 1;
                                }
                            }
                        }
                        Some(_) => {
                            // Advance over a full UTF-8 char.
                            let s = &self.input[self.pos..];
                            let ch = s.chars().next().expect("non-empty");
                            out.push(ch);
                            self.pos += ch.len_utf8();
                        }
                    }
                }
                Ok(QueryLabel::Name(out))
            }
            Some(_) => {
                let start = self.pos;
                while let Some(b) = self.peek() {
                    if matches!(b, b'(' | b')' | b',' | b'/' | b'"' | b'*')
                        || (b as char).is_whitespace()
                    {
                        break;
                    }
                    self.pos += 1;
                }
                if self.pos == start {
                    return Err(QueryError::EmptyLabel { at: start });
                }
                Ok(QueryLabel::Name(self.input[start..self.pos].to_owned()))
            }
            None => Err(QueryError::UnexpectedEnd),
        }
    }
}

impl QueryNode {
    /// True if this subtree uses only concrete labels and child edges.
    pub fn is_simple(&self) -> bool {
        self.label != QueryLabel::Wildcard
            && self.edge == EdgeKind::Child
            && self.children.iter().all(QueryNode::is_simple)
    }

    /// Number of nodes in the subtree.
    pub fn node_count(&self) -> usize {
        1 + self.children.iter().map(QueryNode::node_count).sum::<usize>()
    }
}

impl QueryPattern {
    /// True if the pattern is answerable without a structural summary
    /// (no `*`, no `//`).
    pub fn is_simple(&self) -> bool {
        self.root.is_simple()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.root.node_count()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.node_count() - 1
    }

    /// The distinct label names of this pattern that `labels` has not
    /// interned, sorted.  Empty exactly when every named label resolves.
    pub fn unresolved_labels(&self, labels: &LabelTable) -> Vec<String> {
        fn walk(node: &QueryNode, labels: &LabelTable, out: &mut Vec<String>) {
            if let QueryLabel::Name(name) = &node.label {
                if labels.lookup(name).is_none() {
                    out.push(name.clone());
                }
            }
            for child in &node.children {
                walk(child, labels, out);
            }
        }
        let mut out = Vec::new();
        walk(&self.root, labels, &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Resolves a *simple* pattern against a label table.  Returns
    /// `Ok(None)` when some label has never been seen in the stream — the
    /// pattern's exact count is provably zero.
    ///
    /// # Panics
    /// Panics if the pattern is not simple (callers must route wildcard and
    /// descendant patterns through [`crate::summary::StructuralSummary`]).
    pub fn to_tree(&self, labels: &LabelTable) -> Option<Tree> {
        assert!(
            self.is_simple(),
            "to_tree requires a simple pattern; expand `*`/`//` via the structural summary"
        );
        fn build(node: &QueryNode, labels: &LabelTable) -> Option<Tree> {
            let name = match &node.label {
                QueryLabel::Name(n) => n,
                QueryLabel::Wildcard => unreachable!("checked simple"),
            };
            let label = labels.lookup(name)?;
            let children = node
                .children
                .iter()
                .map(|c| build(c, labels))
                .collect::<Option<Vec<Tree>>>()?;
            Some(if children.is_empty() {
                Tree::leaf(label)
            } else {
                Tree::node(label, children)
            })
        }
        build(&self.root, labels)
    }
}

impl fmt::Display for QueryPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn rec(n: &QueryNode, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            if n.edge == EdgeKind::Descendant {
                write!(f, "//")?;
            }
            match &n.label {
                QueryLabel::Wildcard => write!(f, "*")?,
                QueryLabel::Name(s)
                    if s.contains(|c: char| {
                        c.is_whitespace() || matches!(c, '(' | ')' | ',' | '/' | '"' | '*')
                    }) || s.is_empty() =>
                {
                    write!(f, "\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))?
                }
                QueryLabel::Name(s) => write!(f, "{s}")?,
            }
            if !n.children.is_empty() {
                write!(f, "(")?;
                for (i, c) in n.children.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    rec(c, f)?;
                }
                write!(f, ")")?;
            }
            Ok(())
        }
        rec(&self.root, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_patterns() {
        let p = parse_pattern("A(B,C(D))").unwrap();
        assert!(p.is_simple());
        assert_eq!(p.node_count(), 4);
        assert_eq!(p.edge_count(), 3);
        assert_eq!(p.to_string(), "A(B,C(D))");
    }

    #[test]
    fn whitespace_tolerated() {
        let a = parse_pattern("A( B , C ( D ) )").unwrap();
        let b = parse_pattern("A(B,C(D))").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn quoted_labels() {
        let p = parse_pattern(r#"author("Don Knuth (ed.)")"#).unwrap();
        match &p.root.children[0].label {
            QueryLabel::Name(n) => assert_eq!(n, "Don Knuth (ed.)"),
            other => panic!("{other:?}"),
        }
        // Display round-trips through quoting.
        let again = parse_pattern(&p.to_string()).unwrap();
        assert_eq!(p, again);
    }

    #[test]
    fn escaped_quotes() {
        let p = parse_pattern(r#"t("say \"hi\"")"#).unwrap();
        match &p.root.children[0].label {
            QueryLabel::Name(n) => assert_eq!(n, "say \"hi\""),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn wildcard_and_descendant() {
        let p = parse_pattern("A(*,//C)").unwrap();
        assert!(!p.is_simple());
        assert_eq!(p.root.children[0].label, QueryLabel::Wildcard);
        assert_eq!(p.root.children[1].edge, EdgeKind::Descendant);
        assert_eq!(p.to_string(), "A(*,//C)");
    }

    #[test]
    fn root_descendant_rejected() {
        assert_eq!(parse_pattern("//A"), Err(QueryError::RootDescendant));
    }

    #[test]
    fn error_cases() {
        assert_eq!(parse_pattern(""), Err(QueryError::UnexpectedEnd));
        assert_eq!(parse_pattern("A(B"), Err(QueryError::UnexpectedEnd));
        assert!(matches!(
            parse_pattern("A(B))"),
            Err(QueryError::TrailingInput { .. })
        ));
        assert!(matches!(parse_pattern("A()"), Err(QueryError::EmptyLabel { .. })));
        assert!(matches!(
            parse_pattern("A(B C)"),
            Err(QueryError::UnexpectedChar { .. })
        ));
        assert_eq!(parse_pattern("\"unterminated"), Err(QueryError::UnexpectedEnd));
    }

    #[test]
    fn to_tree_resolves_known_labels() {
        let mut labels = sketchtree_tree::LabelTable::new();
        let a = labels.intern("A");
        let b = labels.intern("B");
        let p = parse_pattern("A(B)").unwrap();
        let t = p.to_tree(&labels).unwrap();
        assert_eq!(t.label(t.root()), a);
        assert_eq!(t.label(t.children(t.root())[0]), b);
    }

    #[test]
    fn to_tree_unknown_label_is_none() {
        let mut labels = sketchtree_tree::LabelTable::new();
        labels.intern("A");
        let p = parse_pattern("A(Z)").unwrap();
        assert!(p.to_tree(&labels).is_none());
    }

    #[test]
    #[should_panic]
    fn to_tree_panics_on_wildcards() {
        let labels = sketchtree_tree::LabelTable::new();
        parse_pattern("A(*)").unwrap().to_tree(&labels);
    }

    #[test]
    fn unicode_labels() {
        let p = parse_pattern("日本(語)").unwrap();
        assert_eq!(p.to_string(), "日本(語)");
    }

    #[test]
    fn single_node_pattern() {
        let p = parse_pattern("A").unwrap();
        assert_eq!(p.node_count(), 1);
        assert_eq!(p.edge_count(), 0);
    }
}
