//! Online structural summary and `*` / `//` query rewriting.
//!
//! Paper Section 6.2: when a structural summary exists (or can be built
//! online in limited space), queries with wildcard nodes and
//! ancestor-descendant edges can be rewritten into *sets of parent-child
//! patterns* whose total frequency equals the original query's — and total
//! frequencies of distinct pattern sets are exactly what Theorem 2
//! estimates.  Figure 7 shows both rewrites: `*` resolves to the labels
//! observed in that position; `//` resolves to the label paths observed
//! between the two endpoints.
//!
//! The summary itself is a label-transition graph maintained in one pass:
//! which labels occur at all, and which `(parent-label, child-label)` edges
//! occur — space `O(|Σ|²)` worst case but `O(edges observed)` in practice,
//! exactly the kind of "limited space" structure the paper anticipates.

use crate::query::{EdgeKind, QueryLabel, QueryNode, QueryPattern};
use sketchtree_tree::{Label, LabelTable, NodeId, Tree};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// An online structural summary of the tree stream.
#[derive(Debug, Clone, Default)]
pub struct StructuralSummary {
    /// Labels observed anywhere.
    labels: HashSet<Label>,
    /// Observed parent-label → child-labels transitions.
    children: HashMap<Label, HashSet<Label>>,
    /// Bumped only when a genuinely new label or transition is absorbed —
    /// the invalidation signal for compiled query expansions.  On a steady
    /// stream this counter goes quiet after the schema has been seen once,
    /// so standing queries stop re-expanding entirely.
    version: u64,
}

/// Errors from query expansion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExpandError {
    /// Expansion produced more than the configured number of patterns.
    TooManyPatterns {
        /// The cap that was exceeded.
        cap: usize,
    },
}

impl fmt::Display for ExpandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExpandError::TooManyPatterns { cap } => {
                write!(f, "query expands to more than {cap} concrete patterns")
            }
        }
    }
}

impl std::error::Error for ExpandError {}

/// Expansion limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpandLimits {
    /// Maximum number of concrete patterns an expansion may produce.
    pub max_patterns: usize,
    /// Maximum number of *intermediate* labels a `//` edge may traverse.
    pub max_descendant_depth: usize,
}

impl Default for ExpandLimits {
    fn default() -> Self {
        Self {
            max_patterns: 4096,
            max_descendant_depth: 8,
        }
    }
}

impl StructuralSummary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one tree into the summary.
    pub fn observe(&mut self, tree: &Tree) {
        // Set semantics make visiting order irrelevant, so walk node ids
        // directly instead of materialising a traversal (ingest calls
        // this per tree and must not allocate once warm).
        for id in (0..tree.len()).map(|i| NodeId(i as u32)) {
            let l = tree.label(id);
            if self.labels.insert(l) {
                self.version += 1;
            }
            if let Some(p) = tree.parent(id) {
                if self.children.entry(tree.label(p)).or_default().insert(l) {
                    self.version += 1;
                }
            }
        }
    }

    /// The summary's structure version: bumped exactly when a new label or
    /// parent-child transition is observed (never on re-observations), so
    /// an unchanged version guarantees [`StructuralSummary::expand`]
    /// returns the same pattern set it did before.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of distinct labels observed.
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of distinct parent-child label transitions observed.
    pub fn transition_count(&self) -> usize {
        self.children.values().map(HashSet::len).sum()
    }

    /// True if the transition `parent → child` has been observed.
    pub fn has_transition(&self, parent: Label, child: Label) -> bool {
        self.children.get(&parent).is_some_and(|s| s.contains(&child))
    }

    /// Memory footprint estimate in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.labels.len() * 4 + self.transition_count() * 8
    }

    /// Exports the summary as sorted label and transition lists (for
    /// snapshots; deterministic order).
    pub fn export(&self) -> (Vec<Label>, Vec<(Label, Label)>) {
        let mut labels: Vec<Label> = self.labels.iter().copied().collect();
        labels.sort_unstable();
        let mut transitions: Vec<(Label, Label)> = self
            .children
            .iter()
            .flat_map(|(&p, cs)| cs.iter().map(move |&c| (p, c)))
            .collect();
        transitions.sort_unstable();
        (labels, transitions)
    }

    /// Rebuilds a summary from exported parts.
    pub fn from_parts(labels: Vec<Label>, transitions: Vec<(Label, Label)>) -> Self {
        let mut s = Self::new();
        s.labels = labels.into_iter().collect();
        for (p, c) in transitions {
            s.labels.insert(p);
            s.labels.insert(c);
            s.children.entry(p).or_default().insert(c);
        }
        // A rebuilt summary is new structure as far as any compiled plan
        // is concerned.
        s.version = (s.labels.len() + s.transition_count()) as u64;
        s
    }

    /// Merges another summary into this one, passing every label of the
    /// other side through `remap` first.  The remap is how a synopsis
    /// merge reconciles label tables that interned the same names in
    /// different orders: ids are table-local, names are not, so the
    /// caller maps `other`'s id → name → this table's id.  Skipping the
    /// remap would silently cross-wire transitions between unrelated
    /// labels.
    pub fn merge_remapped(&mut self, other: &StructuralSummary, mut remap: impl FnMut(Label) -> Label) {
        for &l in &other.labels {
            if self.labels.insert(remap(l)) {
                self.version += 1;
            }
        }
        for (&p, cs) in &other.children {
            let p = remap(p);
            let entry = self.children.entry(p).or_default();
            for &c in cs {
                if entry.insert(remap(c)) {
                    self.version += 1;
                }
            }
        }
    }

    fn children_of(&self, l: Label) -> impl Iterator<Item = Label> + '_ {
        self.children.get(&l).into_iter().flatten().copied()
    }

    /// Rewrites a query with `*` / `//` into the set of *distinct*
    /// parent-child-only patterns it denotes under this summary
    /// (Section 6.2).  Simple queries expand to themselves.  Labels never
    /// observed yield an empty set (exact count 0).
    pub fn expand(
        &self,
        query: &QueryPattern,
        labels: &LabelTable,
        limits: ExpandLimits,
    ) -> Result<Vec<Tree>, ExpandError> {
        // Candidate labels for the root.
        let root_labels: Vec<Label> = match &query.root.label {
            QueryLabel::Wildcard => self.labels.iter().copied().collect(),
            QueryLabel::Name(n) => match labels.lookup(n) {
                Some(l) if self.labels.contains(&l) => vec![l],
                _ => return Ok(Vec::new()),
            },
        };
        let mut out: Vec<Tree> = Vec::new();
        let mut seen: HashSet<String> = HashSet::new();
        for rl in root_labels {
            let subtrees = self.expand_children(rl, &query.root.children, labels, limits)?;
            for t in subtrees {
                let full = if t.is_empty() {
                    Tree::leaf(rl)
                } else {
                    Tree::node(rl, t)
                };
                if seen.insert(full.to_sexpr()) {
                    out.push(full);
                    if out.len() > limits.max_patterns {
                        return Err(ExpandError::TooManyPatterns {
                            cap: limits.max_patterns,
                        });
                    }
                }
            }
        }
        Ok(out)
    }

    /// All ways to concretise `children` under a parent with label
    /// `parent`: returns a list of child-subtree-vectors.
    fn expand_children(
        &self,
        parent: Label,
        children: &[QueryNode],
        labels: &LabelTable,
        limits: ExpandLimits,
    ) -> Result<Vec<Vec<Tree>>, ExpandError> {
        // Options per query child.
        let mut per_child: Vec<Vec<Tree>> = Vec::with_capacity(children.len());
        for qc in children {
            let opts = self.expand_child(parent, qc, labels, limits)?;
            if opts.is_empty() {
                return Ok(Vec::new()); // some child is unsatisfiable
            }
            per_child.push(opts);
        }
        // Cartesian product.
        let mut combos: Vec<Vec<Tree>> = vec![Vec::new()];
        for opts in &per_child {
            let mut next = Vec::with_capacity(combos.len() * opts.len());
            for c in &combos {
                for o in opts {
                    let mut v = c.clone();
                    v.push(o.clone());
                    next.push(v);
                }
                if next.len() > limits.max_patterns {
                    return Err(ExpandError::TooManyPatterns {
                        cap: limits.max_patterns,
                    });
                }
            }
            combos = next;
        }
        Ok(combos)
    }

    /// All concrete subtrees a single query child can denote under
    /// `parent`, including any `//` chain of intermediate labels.
    fn expand_child(
        &self,
        parent: Label,
        qc: &QueryNode,
        labels: &LabelTable,
        limits: ExpandLimits,
    ) -> Result<Vec<Tree>, ExpandError> {
        // Resolve the child's own label candidates (ignoring the edge).
        let target: Option<Label> = match &qc.label {
            QueryLabel::Wildcard => None, // any
            QueryLabel::Name(n) => match labels.lookup(n) {
                Some(l) => Some(l),
                None => return Ok(Vec::new()),
            },
        };
        let mut out = Vec::new();
        match qc.edge {
            EdgeKind::Child => {
                for cl in self.children_of(parent) {
                    if target.is_some_and(|t| t != cl) {
                        continue;
                    }
                    for subtree in self.expand_children(cl, &qc.children, labels, limits)? {
                        out.push(if subtree.is_empty() {
                            Tree::leaf(cl)
                        } else {
                            Tree::node(cl, subtree)
                        });
                        if out.len() > limits.max_patterns {
                            return Err(ExpandError::TooManyPatterns {
                                cap: limits.max_patterns,
                            });
                        }
                    }
                }
            }
            EdgeKind::Descendant => {
                // Paths parent → i1 → … → i_d → target with d intermediates,
                // 0 ≤ d ≤ max_descendant_depth.
                let mut stack: Vec<(Label, Vec<Label>)> = self
                    .children_of(parent)
                    .map(|c| (c, Vec::new()))
                    .collect();
                while let Some((cur, path)) = stack.pop() {
                    let matches = target.is_none_or(|t| t == cur);
                    if matches {
                        for subtree in self.expand_children(cur, &qc.children, labels, limits)? {
                            let leafward = if subtree.is_empty() {
                                Tree::leaf(cur)
                            } else {
                                Tree::node(cur, subtree)
                            };
                            // Wrap in the chain of intermediates, innermost
                            // last.
                            let mut t = leafward;
                            for &mid in path.iter().rev() {
                                t = Tree::node(mid, vec![t]);
                            }
                            out.push(t);
                            if out.len() > limits.max_patterns {
                                return Err(ExpandError::TooManyPatterns {
                                    cap: limits.max_patterns,
                                });
                            }
                        }
                    }
                    if path.len() < limits.max_descendant_depth {
                        for next in self.children_of(cur) {
                            // Avoid label cycles blowing the walk up: a path
                            // may not revisit a label.
                            if path.contains(&next) || next == cur {
                                continue;
                            }
                            let mut p = path.clone();
                            p.push(cur);
                            stack.push((next, p));
                        }
                    }
                }
            }
        }
        // Deduplicate structurally (different paths can produce the same
        // concrete pattern only via dedup at the top level, but duplicate
        // subtrees here would multiply, so dedup early).
        let mut seen = HashSet::new();
        out.retain(|t| seen.insert(t.to_sexpr()));
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::parse_pattern;

    /// Builds the paper's Figure 7(a) structural summary:
    /// A → {B, C}, B → {D}, C → {D}.
    fn figure7() -> (StructuralSummary, LabelTable) {
        let mut labels = LabelTable::new();
        let a = labels.intern("A");
        let b = labels.intern("B");
        let c = labels.intern("C");
        let d = labels.intern("D");
        let t1 = Tree::node(
            a,
            vec![
                Tree::node(b, vec![Tree::leaf(d)]),
                Tree::node(c, vec![Tree::leaf(d)]),
            ],
        );
        let mut s = StructuralSummary::new();
        s.observe(&t1);
        (s, labels)
    }

    #[test]
    fn observe_collects_labels_and_transitions() {
        let (s, labels) = figure7();
        assert_eq!(s.label_count(), 4);
        assert_eq!(s.transition_count(), 4);
        let a = labels.lookup("A").unwrap();
        let b = labels.lookup("B").unwrap();
        let d = labels.lookup("D").unwrap();
        assert!(s.has_transition(a, b));
        assert!(s.has_transition(b, d));
        assert!(!s.has_transition(d, a));
    }

    #[test]
    fn simple_query_expands_to_itself() {
        let (s, labels) = figure7();
        let q = parse_pattern("A(B)").unwrap();
        let pats = s.expand(&q, &labels, ExpandLimits::default()).unwrap();
        assert_eq!(pats.len(), 1);
        assert_eq!(pats[0].to_sexpr_named(&labels), "A(B)");
    }

    #[test]
    fn paper_figure7b_wildcard() {
        // Q1 = A(*(D)): '*' resolves to B and C → two distinct patterns.
        let (s, labels) = figure7();
        let q = parse_pattern("A(*(D))").unwrap();
        let mut pats: Vec<String> = s
            .expand(&q, &labels, ExpandLimits::default())
            .unwrap()
            .iter()
            .map(|t| t.to_sexpr_named(&labels))
            .collect();
        pats.sort();
        assert_eq!(pats, vec!["A(B(D))", "A(C(D))"]);
    }

    #[test]
    fn paper_figure7c_descendant() {
        // Q2 = A(//D): '//' resolves through B and through C.
        let (s, labels) = figure7();
        let q = parse_pattern("A(//D)").unwrap();
        let mut pats: Vec<String> = s
            .expand(&q, &labels, ExpandLimits::default())
            .unwrap()
            .iter()
            .map(|t| t.to_sexpr_named(&labels))
            .collect();
        pats.sort();
        assert_eq!(pats, vec!["A(B(D))", "A(C(D))"]);
    }

    #[test]
    fn unknown_label_yields_empty() {
        let (s, labels) = figure7();
        let q = parse_pattern("A(ZZZ)").unwrap();
        assert!(s.expand(&q, &labels, ExpandLimits::default()).unwrap().is_empty());
    }

    #[test]
    fn unobserved_transition_yields_empty() {
        let (s, labels) = figure7();
        // D never has children in the summary.
        let q = parse_pattern("D(A)").unwrap();
        assert!(s.expand(&q, &labels, ExpandLimits::default()).unwrap().is_empty());
    }

    #[test]
    fn wildcard_root() {
        let (s, labels) = figure7();
        let q = parse_pattern("*(D)").unwrap();
        let mut pats: Vec<String> = s
            .expand(&q, &labels, ExpandLimits::default())
            .unwrap()
            .iter()
            .map(|t| t.to_sexpr_named(&labels))
            .collect();
        pats.sort();
        assert_eq!(pats, vec!["B(D)", "C(D)"]);
    }

    #[test]
    fn descendant_depth_limit() {
        // Chain A → B → C → D; query A(//D) with depth 0 intermediates
        // finds nothing, with depth 2 finds the chain.
        let mut labels = LabelTable::new();
        let a = labels.intern("A");
        let b = labels.intern("B");
        let c = labels.intern("C");
        let d = labels.intern("D");
        let t = Tree::node(
            a,
            vec![Tree::node(b, vec![Tree::node(c, vec![Tree::leaf(d)])])],
        );
        let mut s = StructuralSummary::new();
        s.observe(&t);
        let q = parse_pattern("A(//D)").unwrap();
        let shallow = s
            .expand(
                &q,
                &labels,
                ExpandLimits {
                    max_descendant_depth: 0,
                    ..ExpandLimits::default()
                },
            )
            .unwrap();
        assert!(shallow.is_empty());
        let deep = s
            .expand(
                &q,
                &labels,
                ExpandLimits {
                    max_descendant_depth: 2,
                    ..ExpandLimits::default()
                },
            )
            .unwrap();
        assert_eq!(deep.len(), 1);
        assert_eq!(deep[0].to_sexpr_named(&labels), "A(B(C(D)))");
    }

    #[test]
    fn expansion_cap_enforced() {
        // A summary with many labels under one parent; a double wildcard
        // explodes combinatorially.
        let mut labels = LabelTable::new();
        let root = labels.intern("R");
        let kids: Vec<Tree> = (0..30)
            .map(|i| Tree::leaf(labels.intern(&format!("c{i}"))))
            .collect();
        let t = Tree::node(root, kids);
        let mut s = StructuralSummary::new();
        s.observe(&t);
        let q = parse_pattern("R(*,*)").unwrap();
        let r = s.expand(
            &q,
            &labels,
            ExpandLimits {
                max_patterns: 100,
                ..ExpandLimits::default()
            },
        );
        assert_eq!(r, Err(ExpandError::TooManyPatterns { cap: 100 }));
    }

    #[test]
    fn export_import_roundtrip() {
        let (s, labels) = figure7();
        let (ls, ts) = s.export();
        let rebuilt = StructuralSummary::from_parts(ls.clone(), ts.clone());
        assert_eq!(rebuilt.label_count(), s.label_count());
        assert_eq!(rebuilt.transition_count(), s.transition_count());
        // Expansion behaviour is identical.
        let q = parse_pattern("A(*(D))").unwrap();
        let a: Vec<String> = s
            .expand(&q, &labels, ExpandLimits::default())
            .unwrap()
            .iter()
            .map(|t| t.to_sexpr())
            .collect();
        let b: Vec<String> = rebuilt
            .expand(&q, &labels, ExpandLimits::default())
            .unwrap()
            .iter()
            .map(|t| t.to_sexpr())
            .collect();
        let (mut a, mut b) = (a, b);
        a.sort();
        b.sort();
        assert_eq!(a, b);
        // Export order is deterministic.
        assert_eq!(s.export(), (ls, ts));
    }

    #[test]
    fn multiple_trees_union_summary() {
        let mut labels = LabelTable::new();
        let a = labels.intern("A");
        let b = labels.intern("B");
        let c = labels.intern("C");
        let mut s = StructuralSummary::new();
        s.observe(&Tree::node(a, vec![Tree::leaf(b)]));
        s.observe(&Tree::node(a, vec![Tree::leaf(c)]));
        let q = parse_pattern("A(*)").unwrap();
        assert_eq!(s.expand(&q, &labels, ExpandLimits::default()).unwrap().len(), 2);
    }
}
