//! # SketchTree
//!
//! Approximate tree-pattern counts over streaming labeled trees — a
//! from-scratch Rust implementation of *SketchTree* (Rao & Moon,
//! ICDE 2006).
//!
//! A [`SketchTree`] synopsis reads a stream of ordered labeled trees (XML
//! documents, parse trees, …) exactly once, keeps a few hundred kilobytes
//! of AMS sketches, and then answers — at any time, for *any* pattern, with
//! provable probabilistic error bounds:
//!
//! * `COUNT_ord(Q)` — how many ordered embeddings of pattern `Q` occurred;
//! * `COUNT(Q)` — unordered embeddings;
//! * totals over sets of patterns, and full `+ − ×` expressions over
//!   counts;
//! * `*` (wildcard) and `//` (descendant) queries through an online
//!   structural summary.
//!
//! ```
//! use sketchtree::{SketchTreeConfig, XmlSketchTree};
//!
//! let mut st = XmlSketchTree::new(SketchTreeConfig::default());
//! st.ingest_xml("<a><b/><c/></a><a><b/></a>").unwrap();
//! let est = st.count_ordered("a(b)").unwrap();
//! assert!(est.abs() <= 10.0); // an approximate count, near 2
//! ```
//!
//! The facade re-exports the substrate crates: [`tree`] (arena trees and
//! extended Prüfer sequences), [`hash`] (k-wise independent signs, Rabin
//! fingerprints, pairing functions), [`xml`] (streaming parser/writer),
//! [`sketch`] (AMS sketch banks, virtual streams, top-k, expressions),
//! [`core`] (EnumTree and the synopsis itself), [`datagen`] (seeded
//! TREEBANK/DBLP-like stream generators), [`server`] (a threaded TCP
//! daemon speaking the `SKTP` wire protocol for remote ingest and online
//! queries) and [`standing`] (registered standing queries with compiled
//! resident plans, re-evaluated once per ingest batch and pushed to
//! subscribers).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub use sketchtree_core as core;
pub use sketchtree_datagen as datagen;
pub use sketchtree_hash as hash;
pub use sketchtree_server as server;
pub use sketchtree_sketch as sketch;
pub use sketchtree_standing as standing;
pub use sketchtree_tree as tree;
pub use sketchtree_xml as xml;

pub use sketchtree_core::bounds::BoundedEstimate;
pub use sketchtree_core::concurrent::SharedSketchTree;
pub use sketchtree_core::exprparse::parse_expr;
pub use sketchtree_core::sketchtree::{CountExpr, SketchTree, SketchTreeConfig, SketchTreeError};
pub use sketchtree_core::snapshot::{read_snapshot, write_snapshot};
pub use sketchtree_core::window::WindowedSketchTree;
pub use sketchtree_sketch::{SynopsisConfig, TopKMode};
pub use sketchtree_tree::{LabelTable, Tree};
pub use sketchtree_xml::builder::BuildXmlError;

use sketchtree_xml::{DocumentSplitter, XmlTreeBuilder};

/// A [`SketchTree`] synopsis fed directly from XML text.
///
/// Wraps the core synopsis with an XML-to-tree builder sharing its label
/// table: element names become labels, non-whitespace character data
/// becomes value leaf nodes (so queries can match values, as in the paper's
/// DBLP workload).
pub struct XmlSketchTree {
    inner: SketchTree,
    builder: XmlTreeBuilder,
}

impl XmlSketchTree {
    /// Creates an empty synopsis.
    pub fn new(config: SketchTreeConfig) -> Self {
        Self {
            inner: SketchTree::new(config),
            builder: XmlTreeBuilder::default(),
        }
    }

    /// Parses `xml` (one document or a forest of top-level elements) and
    /// ingests every tree.  Returns the number of trees ingested.
    pub fn ingest_xml(&mut self, xml: &str) -> Result<usize, BuildXmlError> {
        let trees = self.builder.parse_forest(xml, self.inner.labels_mut())?;
        let n = trees.len();
        for t in &trees {
            self.inner.ingest(t);
        }
        Ok(n)
    }

    /// The underlying synopsis.
    pub fn inner(&self) -> &SketchTree {
        &self.inner
    }

    /// Mutable access to the underlying synopsis.
    pub fn inner_mut(&mut self) -> &mut SketchTree {
        &mut self.inner
    }

    /// Streams documents from a reader, one top-level element at a time,
    /// with memory bounded by the largest single document.  Returns the
    /// number of trees ingested.
    pub fn ingest_reader(
        &mut self,
        reader: impl std::io::BufRead,
    ) -> Result<usize, Box<dyn std::error::Error>> {
        let mut splitter = DocumentSplitter::new(reader);
        let mut n = 0;
        while let Some(doc) = splitter.next_document()? {
            let tree = self.builder.parse_document(&doc, self.inner.labels_mut())?;
            self.inner.ingest(&tree);
            n += 1;
        }
        Ok(n)
    }
}

impl std::ops::Deref for XmlSketchTree {
    type Target = SketchTree;
    fn deref(&self) -> &SketchTree {
        &self.inner
    }
}

impl std::ops::DerefMut for XmlSketchTree {
    fn deref_mut(&mut self) -> &mut SketchTree {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xml_facade_end_to_end() {
        let config = SketchTreeConfig {
            track_exact: true,
            ..SketchTreeConfig::default()
        };
        let mut st = XmlSketchTree::new(config);
        let mut doc = String::new();
        for _ in 0..20 {
            doc.push_str("<article><author>knuth</author><year>1968</year></article>");
        }
        for _ in 0..5 {
            doc.push_str("<article><author>dijkstra</author><year>1972</year></article>");
        }
        let n = st.ingest_xml(&doc).unwrap();
        assert_eq!(n, 25);
        assert_eq!(st.exact_count_ordered("author(knuth)").unwrap(), 20);
        assert_eq!(st.exact_count_ordered("article(author(knuth))").unwrap(), 20);
        let est = st.count_ordered("author(knuth)").unwrap();
        assert!((est - 20.0).abs() < 12.0, "est {est}");
    }

    #[test]
    fn xml_errors_propagate() {
        let mut st = XmlSketchTree::new(SketchTreeConfig::default());
        assert!(st.ingest_xml("<a><b></a>").is_err());
    }
}
