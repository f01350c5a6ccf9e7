//! Arena-allocated ordered labeled trees.
//!
//! A [`Tree`] owns all of its nodes in one `Vec` arena; a node is addressed
//! by a [`NodeId`] (an index into the arena).  Child order is significant —
//! SketchTree's `COUNT_ord` semantics depend on it — and is preserved by
//! every operation, including [`Tree::project`], which is how EnumTree turns
//! an edge subset of a data tree back into a standalone pattern tree.

use crate::label::Label;
use std::fmt;

/// Index of a node within its [`Tree`]'s arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The arena index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone)]
struct Node {
    label: Label,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
}

/// An ordered labeled tree.
///
/// ```
/// use sketchtree_tree::{Tree, LabelTable};
/// let mut labels = LabelTable::new();
/// let (a, b, c) = (labels.intern("A"), labels.intern("B"), labels.intern("C"));
/// let t = Tree::node(a, vec![Tree::leaf(b), Tree::leaf(c)]);
/// assert_eq!(t.len(), 3);
/// assert_eq!(t.label(t.root()), a);
/// ```
#[derive(Debug, Clone)]
pub struct Tree {
    nodes: Vec<Node>,
    root: NodeId,
}

impl Tree {
    /// A single-node tree.
    pub fn leaf(label: Label) -> Self {
        Self {
            nodes: vec![Node {
                label,
                parent: None,
                children: Vec::new(),
            }],
            root: NodeId(0),
        }
    }

    /// A tree with the given root label and child subtrees, in order.
    pub fn node(label: Label, children: Vec<Tree>) -> Self {
        let mut tree = Self::leaf(label);
        for child in children {
            tree.graft(tree.root, &child, child.root());
        }
        tree
    }

    /// Appends a copy of `src`'s subtree rooted at `src_node` as the last
    /// child of `parent`.  Returns the id of the copied subtree root.
    pub fn graft(&mut self, parent: NodeId, src: &Tree, src_node: NodeId) -> NodeId {
        let new_id = self.push_node(src.label(src_node), Some(parent));
        // Copy children depth-first, preserving order.
        let mut stack: Vec<(NodeId, NodeId)> = src
            .children(src_node)
            .iter()
            .rev()
            .map(|&c| (c, new_id))
            .collect();
        while let Some((src_child, dst_parent)) = stack.pop() {
            let dst_child = self.push_node(src.label(src_child), Some(dst_parent));
            for &gc in src.children(src_child).iter().rev() {
                stack.push((gc, dst_child));
            }
        }
        new_id
    }

    /// Appends a new leaf with the given label as the last child of
    /// `parent`, returning its id.
    pub fn graft_leaf(&mut self, parent: NodeId, label: Label) -> NodeId {
        self.push_node(label, Some(parent))
    }

    fn push_node(&mut self, label: Label, parent: Option<NodeId>) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("tree too large"));
        self.nodes.push(Node {
            label,
            parent,
            children: Vec::new(),
        });
        if let Some(p) = parent {
            self.nodes[p.index()].children.push(id);
        }
        id
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Trees always have at least one node.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of edges (`len() - 1`).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.nodes.len() - 1
    }

    /// The root node id.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The label of a node.
    #[inline]
    pub fn label(&self, id: NodeId) -> Label {
        self.nodes[id.index()].label
    }

    /// Rewrites every node's label through `map` in place, keeping the
    /// shape and the arena layout — how a tree decoded against
    /// batch-local label indices moves onto a synopsis' global labels.
    pub fn relabel(&mut self, mut map: impl FnMut(Label) -> Label) {
        for node in &mut self.nodes {
            node.label = map(node.label);
        }
    }

    /// The parent of a node (`None` for the root).
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id.index()].parent
    }

    /// The ordered children of a node.
    #[inline]
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.nodes[id.index()].children
    }

    /// True if the node has no children.
    #[inline]
    pub fn is_leaf(&self, id: NodeId) -> bool {
        self.nodes[id.index()].children.is_empty()
    }

    /// Fanout (number of children) of a node.
    #[inline]
    pub fn fanout(&self, id: NodeId) -> usize {
        self.nodes[id.index()].children.len()
    }

    /// All node ids in preorder (root first, children left to right).
    pub fn preorder(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.len());
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            out.push(id);
            for &c in self.children(id).iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// All node ids in postorder (children left to right, then parent).
    pub fn postorder(&self) -> Vec<NodeId> {
        // Reverse of a right-to-left preorder.
        let mut out = Vec::with_capacity(self.len());
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            out.push(id);
            for &c in self.children(id) {
                stack.push(c);
            }
        }
        out.reverse();
        out
    }

    /// Height: number of nodes on the longest root-to-leaf path (1 for a
    /// single node).
    pub fn depth(&self) -> usize {
        let mut depth = vec![0usize; self.len()];
        let mut max = 1;
        for id in self.preorder() {
            depth[id.index()] = match self.parent(id) {
                None => 1,
                Some(p) => depth[p.index()] + 1,
            };
            max = max.max(depth[id.index()]);
        }
        max
    }

    /// Maximum fanout over all nodes.
    pub fn max_fanout(&self) -> usize {
        self.nodes.iter().map(|n| n.children.len()).max().unwrap_or(0)
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.children.is_empty()).count()
    }

    /// Builds a standalone tree from a connected edge subset of this tree.
    ///
    /// `edges` are `(parent, child)` pairs of node ids of `self`; they must
    /// form a tree rooted at `root` (every child reachable from `root`).
    /// Relative sibling order of the data tree is preserved — this is the
    /// operation that turns an EnumTree edge set (paper Algorithm 3) into a
    /// pattern tree.  An empty edge set projects the single node `root`.
    ///
    /// # Panics
    /// Panics if the edges do not form a tree rooted at `root`.
    pub fn project(&self, root: NodeId, edges: &[(NodeId, NodeId)]) -> Tree {
        // Group selected children by parent, then order each group by the
        // parent's child order in self.
        let mut chosen: std::collections::HashMap<NodeId, Vec<NodeId>> =
            std::collections::HashMap::new();
        for &(p, c) in edges {
            debug_assert_eq!(self.parent(c), Some(p), "edge ({p:?},{c:?}) not in tree");
            chosen.entry(p).or_default().push(c);
        }
        for (p, kids) in chosen.iter_mut() {
            let order: std::collections::HashMap<NodeId, usize> = self
                .children(*p)
                .iter()
                .enumerate()
                .map(|(i, &c)| (c, i))
                .collect();
            kids.sort_by_key(|c| order[c]);
        }
        let mut out = Tree::leaf(self.label(root));
        let mut stack: Vec<(NodeId, NodeId)> = vec![(root, out.root())];
        let mut copied = 1usize;
        while let Some((src, dst)) = stack.pop() {
            if let Some(kids) = chosen.get(&src) {
                // Push in reverse so the stack pops them left to right.
                let mut to_add: Vec<(NodeId, NodeId)> = Vec::with_capacity(kids.len());
                for &k in kids {
                    let new_dst = out.push_node(self.label(k), Some(dst));
                    copied += 1;
                    to_add.push((k, new_dst));
                }
                stack.extend(to_add);
            }
        }
        assert_eq!(
            copied,
            edges.len() + 1,
            "edge set is not a tree rooted at the given root"
        );
        out
    }

    /// Renders as an s-expression with label ids, e.g. `#0(#1,#2(#3))`.
    pub fn to_sexpr(&self) -> String {
        fn rec(t: &Tree, id: NodeId, out: &mut String) {
            out.push_str(&t.label(id).to_string());
            if !t.is_leaf(id) {
                out.push('(');
                for (i, &c) in t.children(id).iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    rec(t, c, out);
                }
                out.push(')');
            }
        }
        let mut s = String::new();
        rec(self, self.root, &mut s);
        s
    }

    /// Renders as an s-expression with label names resolved through a table.
    pub fn to_sexpr_named(&self, labels: &crate::label::LabelTable) -> String {
        fn rec(t: &Tree, id: NodeId, labels: &crate::label::LabelTable, out: &mut String) {
            out.push_str(labels.name(t.label(id)));
            if !t.is_leaf(id) {
                out.push('(');
                for (i, &c) in t.children(id).iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    rec(t, c, labels, out);
                }
                out.push(')');
            }
        }
        let mut s = String::new();
        rec(self, self.root, labels, &mut s);
        s
    }
}

impl PartialEq for Tree {
    /// Structural equality: same shape, same labels, same child order —
    /// independent of arena layout.
    fn eq(&self, other: &Self) -> bool {
        if self.len() != other.len() {
            return false;
        }
        let mut stack = vec![(self.root, other.root())];
        while let Some((a, b)) = stack.pop() {
            if self.label(a) != other.label(b)
                || self.children(a).len() != other.children(b).len()
            {
                return false;
            }
            stack.extend(self.children(a).iter().copied().zip(other.children(b).iter().copied()));
        }
        true
    }
}

impl Eq for Tree {}

impl fmt::Display for Tree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_sexpr())
    }
}

/// A stack-based builder mirroring SAX events: `open` on start-element,
/// `close` on end-element.
///
/// ```
/// use sketchtree_tree::{TreeBuilder, LabelTable};
/// let mut labels = LabelTable::new();
/// let mut b = TreeBuilder::new();
/// b.open(labels.intern("A"));
/// b.open(labels.intern("B"));
/// b.close();
/// b.close();
/// let t = b.finish().unwrap();
/// assert_eq!(t.len(), 2);
/// ```
#[derive(Debug, Default)]
pub struct TreeBuilder {
    tree: Option<Tree>,
    stack: Vec<NodeId>,
}

/// Errors from [`TreeBuilder::finish`] and friends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// `close` called with no open element.
    CloseWithoutOpen,
    /// `open` called after the root element was already closed.
    SecondRoot,
    /// `finish` called with unclosed elements remaining.
    Unclosed(usize),
    /// `finish` called before any element was opened.
    Empty,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::CloseWithoutOpen => write!(f, "close() without a matching open()"),
            BuildError::SecondRoot => write!(f, "open() after the root was closed"),
            BuildError::Unclosed(n) => write!(f, "finish() with {n} unclosed element(s)"),
            BuildError::Empty => write!(f, "finish() on an empty builder"),
        }
    }
}

impl std::error::Error for BuildError {}

impl TreeBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new element as a child of the current element (or as the
    /// root).
    pub fn open(&mut self, label: Label) -> Result<NodeId, BuildError> {
        match (&mut self.tree, self.stack.last().copied()) {
            (None, _) => {
                let t = Tree::leaf(label);
                let id = t.root();
                self.tree = Some(t);
                self.stack.push(id);
                Ok(id)
            }
            (Some(_), None) => Err(BuildError::SecondRoot),
            (Some(t), Some(parent)) => {
                let id = t.push_node(label, Some(parent));
                self.stack.push(id);
                Ok(id)
            }
        }
    }

    /// Closes the current element.
    pub fn close(&mut self) -> Result<(), BuildError> {
        self.stack.pop().map(|_| ()).ok_or(BuildError::CloseWithoutOpen)
    }

    /// True if the root has been opened and closed.
    pub fn is_complete(&self) -> bool {
        self.tree.is_some() && self.stack.is_empty()
    }

    /// Depth of currently open elements.
    pub fn open_depth(&self) -> usize {
        self.stack.len()
    }

    /// Finishes the build, returning the tree.
    pub fn finish(self) -> Result<Tree, BuildError> {
        match (self.tree, self.stack.len()) {
            (None, _) => Err(BuildError::Empty),
            (Some(_), n) if n > 0 => Err(BuildError::Unclosed(n)),
            (Some(t), _) => Ok(t),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::LabelTable;

    fn labels3() -> (LabelTable, Label, Label, Label) {
        let mut t = LabelTable::new();
        let a = t.intern("A");
        let b = t.intern("B");
        let c = t.intern("C");
        (t, a, b, c)
    }

    #[test]
    fn leaf_basics() {
        let (_, a, _, _) = labels3();
        let t = Tree::leaf(a);
        assert_eq!(t.len(), 1);
        assert_eq!(t.edge_count(), 0);
        assert!(t.is_leaf(t.root()));
        assert_eq!(t.parent(t.root()), None);
        assert_eq!(t.depth(), 1);
        assert_eq!(t.leaf_count(), 1);
    }

    #[test]
    fn node_composition_preserves_order() {
        let (_, a, b, c) = labels3();
        let t = Tree::node(a, vec![Tree::leaf(b), Tree::leaf(c)]);
        let kids = t.children(t.root());
        assert_eq!(kids.len(), 2);
        assert_eq!(t.label(kids[0]), b);
        assert_eq!(t.label(kids[1]), c);
        assert_eq!(t.to_sexpr(), "#0(#1,#2)");
    }

    #[test]
    fn relabel_maps_every_node_and_keeps_the_shape() {
        let (_, a, b, c) = labels3();
        let mut t = Tree::node(a, vec![Tree::node(b, vec![Tree::leaf(a)]), Tree::leaf(c)]);
        let before = t.preorder();
        t.relabel(|l| Label(2 - l.0));
        assert_eq!(t.to_sexpr(), "#2(#1(#2),#0)");
        assert_eq!(t.preorder(), before, "arena layout unchanged");
    }

    #[test]
    fn deep_graft_copies_whole_subtree() {
        let (_, a, b, c) = labels3();
        let sub = Tree::node(b, vec![Tree::leaf(c), Tree::node(c, vec![Tree::leaf(b)])]);
        let t = Tree::node(a, vec![sub.clone()]);
        assert_eq!(t.len(), 1 + sub.len());
        assert_eq!(t.to_sexpr(), "#0(#1(#2,#2(#1)))");
    }

    #[test]
    fn traversal_orders() {
        let (_, a, b, c) = labels3();
        // A(B(C),C)
        let t = Tree::node(a, vec![Tree::node(b, vec![Tree::leaf(c)]), Tree::leaf(c)]);
        let pre: Vec<Label> = t.preorder().into_iter().map(|id| t.label(id)).collect();
        let post: Vec<Label> = t.postorder().into_iter().map(|id| t.label(id)).collect();
        assert_eq!(pre, vec![a, b, c, c]);
        assert_eq!(post, vec![c, b, c, a]);
    }

    #[test]
    fn stats() {
        let (_, a, b, c) = labels3();
        let t = Tree::node(
            a,
            vec![
                Tree::node(b, vec![Tree::leaf(c), Tree::leaf(c)]),
                Tree::leaf(b),
                Tree::leaf(c),
            ],
        );
        assert_eq!(t.depth(), 3);
        assert_eq!(t.max_fanout(), 3);
        assert_eq!(t.leaf_count(), 4);
        assert_eq!(t.edge_count(), 5);
    }

    #[test]
    fn structural_equality_ignores_arena_layout() {
        let (_, a, b, c) = labels3();
        let t1 = Tree::node(a, vec![Tree::leaf(b), Tree::leaf(c)]);
        // Built via builder: different internal construction path.
        let mut bld = TreeBuilder::new();
        bld.open(a).unwrap();
        bld.open(b).unwrap();
        bld.close().unwrap();
        bld.open(c).unwrap();
        bld.close().unwrap();
        bld.close().unwrap();
        let t2 = bld.finish().unwrap();
        assert_eq!(t1, t2);
    }

    #[test]
    fn structural_inequality_on_order() {
        let (_, a, b, c) = labels3();
        let t1 = Tree::node(a, vec![Tree::leaf(b), Tree::leaf(c)]);
        let t2 = Tree::node(a, vec![Tree::leaf(c), Tree::leaf(b)]);
        assert_ne!(t1, t2);
    }

    #[test]
    fn structural_inequality_on_shape() {
        let (_, a, b, c) = labels3();
        let t1 = Tree::node(a, vec![Tree::node(b, vec![Tree::leaf(c)])]);
        let t2 = Tree::node(a, vec![Tree::leaf(b), Tree::leaf(c)]);
        assert_ne!(t1, t2);
    }

    #[test]
    fn project_single_node() {
        let (_, a, b, _) = labels3();
        let t = Tree::node(a, vec![Tree::leaf(b)]);
        let p = t.project(t.root(), &[]);
        assert_eq!(p, Tree::leaf(a));
    }

    #[test]
    fn project_preserves_sibling_order() {
        let (_, a, b, c) = labels3();
        // A with children B, C, B. Select edges to children 0 and 2.
        let t = Tree::node(a, vec![Tree::leaf(b), Tree::leaf(c), Tree::leaf(b)]);
        let kids = t.children(t.root()).to_vec();
        let p = t.project(t.root(), &[(t.root(), kids[2]), (t.root(), kids[0])]);
        assert_eq!(p, Tree::node(a, vec![Tree::leaf(b), Tree::leaf(b)]));
    }

    #[test]
    fn project_multi_level() {
        let (_, a, b, c) = labels3();
        // A(B(C,C),C) — take root->B, B->second C.
        let t = Tree::node(
            a,
            vec![Tree::node(b, vec![Tree::leaf(c), Tree::leaf(c)]), Tree::leaf(c)],
        );
        let bnode = t.children(t.root())[0];
        let c2 = t.children(bnode)[1];
        let p = t.project(t.root(), &[(t.root(), bnode), (bnode, c2)]);
        assert_eq!(p, Tree::node(a, vec![Tree::node(b, vec![Tree::leaf(c)])]));
    }

    #[test]
    #[should_panic]
    fn project_disconnected_edges_panics() {
        let (_, a, b, c) = labels3();
        let t = Tree::node(a, vec![Tree::node(b, vec![Tree::leaf(c)])]);
        let bnode = t.children(t.root())[0];
        let cnode = t.children(bnode)[0];
        // Edge (b,c) without (a,b): not reachable from root.
        t.project(t.root(), &[(bnode, cnode)]);
    }

    #[test]
    fn builder_error_paths() {
        let (_, a, _, _) = labels3();
        let mut b = TreeBuilder::new();
        assert_eq!(b.close(), Err(BuildError::CloseWithoutOpen));
        assert!(b.open(a).is_ok());
        assert_eq!(b.open_depth(), 1);
        b.close().unwrap();
        assert!(b.is_complete());
        let mut b2 = TreeBuilder::new();
        b2.open(a).unwrap();
        b2.close().unwrap();
        assert_eq!(b2.open(a), Err(BuildError::SecondRoot));

        assert!(matches!(TreeBuilder::new().finish(), Err(BuildError::Empty)));
        let mut b3 = TreeBuilder::new();
        b3.open(a).unwrap();
        assert_eq!(b3.finish().err(), Some(BuildError::Unclosed(1)));
    }

    #[test]
    fn display_named() {
        let (tbl, a, b, _) = labels3();
        let t = Tree::node(a, vec![Tree::leaf(b)]);
        assert_eq!(t.to_sexpr_named(&tbl), "A(B)");
    }
}
