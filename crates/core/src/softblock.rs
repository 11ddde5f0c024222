//! The soft-block system abstraction.

use std::fmt;

use vfpga_fabric::ResourceVec;

/// The two primitive parallel patterns (Fig. 2b).
///
/// The paper chooses exactly these two because they are sufficient to
/// construct other complex/nested patterns (e.g. reduction, Fig. 2c).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pattern {
    /// Children are identical and operate on disjoint data.
    Data,
    /// Children form a producer-consumer chain.
    Pipeline,
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pattern::Data => write!(f, "data"),
            Pattern::Pipeline => write!(f, "pipeline"),
        }
    }
}

/// Identifies a soft block within a [`SoftBlockTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SoftBlockId(pub usize);

/// What a soft block contains.
#[derive(Debug, Clone, PartialEq)]
pub enum SoftBlockKind {
    /// A leaf soft block holding one basic module instance.
    Leaf {
        /// Hierarchical instance path in the source RTL.
        path: String,
        /// Basic module name.
        module: String,
        /// The module's behavior tag, if any.
        behavior: Option<String>,
    },
    /// A non-leaf soft block whose children are connected in one of the two
    /// primitive parallel patterns.
    Composite {
        /// The connecting pattern.
        pattern: Pattern,
        /// Children in order (pipeline order for [`Pattern::Pipeline`]).
        children: Vec<SoftBlockId>,
        /// For pipelines: bit width of the link between consecutive
        /// children (`len == children.len() - 1`); empty for data
        /// parallelism.
        link_widths: Vec<u64>,
    },
}

/// One soft block: a node of the system abstraction.
///
/// Soft blocks deliberately carry *estimated* resources rather than
/// FPGA-specific constraints: the estimate travels with the block so the
/// partitioner and runtime can reason about capacity, but nothing about a
/// specific device's geometry leaks into the abstraction.
#[derive(Debug, Clone, PartialEq)]
pub struct SoftBlock {
    /// This block's id.
    pub id: SoftBlockId,
    /// Leaf or composite content.
    pub kind: SoftBlockKind,
    /// Estimated spatial resources of the subtree.
    pub resources: ResourceVec,
}

/// Appends a block to an arena under construction, with the next id.
pub(crate) fn push_block(
    arena: &mut Vec<SoftBlock>,
    kind: SoftBlockKind,
    resources: ResourceVec,
) -> SoftBlockId {
    let id = SoftBlockId(arena.len());
    arena.push(SoftBlock {
        id,
        kind,
        resources,
    });
    id
}

impl SoftBlock {
    /// Whether this is a leaf block.
    pub fn is_leaf(&self) -> bool {
        matches!(self.kind, SoftBlockKind::Leaf { .. })
    }

    /// The pattern of a composite block, `None` for leaves.
    pub fn pattern(&self) -> Option<Pattern> {
        match &self.kind {
            SoftBlockKind::Composite { pattern, .. } => Some(*pattern),
            SoftBlockKind::Leaf { .. } => None,
        }
    }

    /// Children ids (empty for leaves).
    pub fn children(&self) -> &[SoftBlockId] {
        match &self.kind {
            SoftBlockKind::Composite { children, .. } => children,
            SoftBlockKind::Leaf { .. } => &[],
        }
    }
}

/// The multi-level tree of soft blocks representing one decomposed
/// accelerator (Fig. 2a/2b).
#[derive(Debug, Clone)]
pub struct SoftBlockTree {
    blocks: Vec<SoftBlock>,
    root: SoftBlockId,
}

impl SoftBlockTree {
    /// Creates a tree from an arena of blocks and a root id.
    ///
    /// # Panics
    ///
    /// Panics if the arena is malformed: the root or a child id is out of
    /// range, a block is referenced by two parents, pipeline link widths
    /// have the wrong arity, or some block is unreachable from the root.
    pub fn new(blocks: Vec<SoftBlock>, root: SoftBlockId) -> Self {
        assert!(root.0 < blocks.len(), "root id out of range");
        let mut seen = vec![false; blocks.len()];
        // Each block is pushed at most once before a repeat panics.
        let mut stack = Vec::with_capacity(blocks.len());
        stack.push(root);
        while let Some(id) = stack.pop() {
            assert!(!seen[id.0], "block {} has two parents or a cycle", id.0);
            seen[id.0] = true;
            let b = &blocks[id.0];
            if let SoftBlockKind::Composite {
                children,
                link_widths,
                pattern,
            } = &b.kind
            {
                assert!(
                    !children.is_empty(),
                    "composite block {} has no children",
                    id.0
                );
                match pattern {
                    Pattern::Pipeline => assert_eq!(
                        link_widths.len(),
                        children.len() - 1,
                        "pipeline block {} link width arity",
                        id.0
                    ),
                    Pattern::Data => {
                        assert!(
                            link_widths.is_empty(),
                            "data block {} has link widths",
                            id.0
                        )
                    }
                }
                for c in children {
                    assert!(c.0 < blocks.len(), "child id out of range");
                    stack.push(*c);
                }
            }
        }
        assert!(
            seen.iter().all(|&s| s),
            "tree contains blocks unreachable from the root"
        );
        SoftBlockTree { blocks, root }
    }

    /// The root block id.
    pub fn root(&self) -> SoftBlockId {
        self.root
    }

    /// The root block.
    pub fn root_block(&self) -> &SoftBlock {
        &self.blocks[self.root.0]
    }

    /// The block with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block(&self, id: SoftBlockId) -> &SoftBlock {
        &self.blocks[id.0]
    }

    /// Total number of blocks (leaves and composites).
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the tree is empty (never: a tree has at least its root).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Number of leaf blocks.
    pub fn leaf_count(&self) -> usize {
        self.blocks.iter().filter(|b| b.is_leaf()).count()
    }

    /// Maximum depth (a lone leaf has depth 1).
    pub fn depth(&self) -> usize {
        fn depth_of(tree: &SoftBlockTree, id: SoftBlockId) -> usize {
            1 + tree
                .block(id)
                .children()
                .iter()
                .map(|&c| depth_of(tree, c))
                .max()
                .unwrap_or(0)
        }
        depth_of(self, self.root)
    }

    /// Iterates over all blocks in id order.
    pub fn iter(&self) -> impl Iterator<Item = &SoftBlock> {
        self.blocks.iter()
    }

    /// Leaf ids in the subtree rooted at `id`, left to right.
    pub fn leaves_under(&self, id: SoftBlockId) -> Vec<SoftBlockId> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(b) = stack.pop() {
            let block = self.block(b);
            if block.is_leaf() {
                out.push(b);
            } else {
                // Push in reverse so leaves come out left to right.
                for &c in block.children().iter().rev() {
                    stack.push(c);
                }
            }
        }
        out
    }

    /// Renders the tree in GraphViz dot format: leaves as boxes labelled
    /// with their module, data-parallel nodes as triple octagons, pipeline
    /// nodes as chains of ordered edges. Pipe the output through `dot
    /// -Tsvg` to visualize a decomposition.
    pub fn to_dot(&self) -> String {
        let mut out =
            String::from("digraph softblocks {\n  rankdir=TB;\n  node [fontname=\"monospace\"];\n");
        for b in self.iter() {
            match &b.kind {
                SoftBlockKind::Leaf { module, .. } => {
                    out.push_str(&format!(
                        "  b{} [shape=box, label=\"#{} {}\"];\n",
                        b.id.0, b.id.0, module
                    ));
                }
                SoftBlockKind::Composite {
                    pattern, children, ..
                } => {
                    let shape = match pattern {
                        Pattern::Data => "tripleoctagon",
                        Pattern::Pipeline => "cds",
                    };
                    out.push_str(&format!(
                        "  b{} [shape={shape}, label=\"#{} {pattern} x{}\"];\n",
                        b.id.0,
                        b.id.0,
                        children.len()
                    ));
                    for (i, c) in children.iter().enumerate() {
                        let label = if *pattern == Pattern::Pipeline {
                            format!(" [label=\"{i}\"]")
                        } else {
                            String::new()
                        };
                        out.push_str(&format!("  b{} -> b{}{};\n", b.id.0, c.0, label));
                    }
                }
            }
        }
        out.push_str("}\n");
        out
    }

    /// Renders the tree as an indented outline (for logs and debugging).
    pub fn render(&self) -> String {
        fn render_block(tree: &SoftBlockTree, id: SoftBlockId, indent: usize, out: &mut String) {
            let b = tree.block(id);
            let pad = "  ".repeat(indent);
            match &b.kind {
                SoftBlockKind::Leaf { path, module, .. } => {
                    out.push_str(&format!("{pad}leaf #{} {module} ({path})\n", id.0));
                }
                SoftBlockKind::Composite {
                    pattern, children, ..
                } => {
                    out.push_str(&format!(
                        "{pad}{pattern} #{} [{} children]\n",
                        id.0,
                        children.len()
                    ));
                    for &c in children {
                        render_block(tree, c, indent + 1, out);
                    }
                }
            }
        }
        let mut out = String::new();
        render_block(self, self.root, 0, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(id: usize, module: &str) -> SoftBlock {
        SoftBlock {
            id: SoftBlockId(id),
            kind: SoftBlockKind::Leaf {
                path: format!("u{id}"),
                module: module.to_string(),
                behavior: None,
            },
            resources: ResourceVec {
                luts: 100,
                ffs: 100,
                bram_kb: 0,
                uram_kb: 0,
                dsps: 1,
            },
        }
    }

    fn sample_tree() -> SoftBlockTree {
        // pipeline(leaf0, data(leaf2, leaf3))
        let blocks = vec![
            leaf(0, "conv"),
            SoftBlock {
                id: SoftBlockId(1),
                kind: SoftBlockKind::Composite {
                    pattern: Pattern::Data,
                    children: vec![SoftBlockId(2), SoftBlockId(3)],
                    link_widths: vec![],
                },
                resources: ResourceVec::ZERO,
            },
            leaf(2, "tile"),
            leaf(3, "tile"),
            SoftBlock {
                id: SoftBlockId(4),
                kind: SoftBlockKind::Composite {
                    pattern: Pattern::Pipeline,
                    children: vec![SoftBlockId(0), SoftBlockId(1)],
                    link_widths: vec![64],
                },
                resources: ResourceVec::ZERO,
            },
        ];
        SoftBlockTree::new(blocks, SoftBlockId(4))
    }

    #[test]
    fn structure_queries() {
        let t = sample_tree();
        assert_eq!(t.len(), 5);
        assert_eq!(t.leaf_count(), 3);
        assert_eq!(t.depth(), 3);
        assert_eq!(t.root_block().pattern(), Some(Pattern::Pipeline));
        let leaves = t.leaves_under(t.root());
        assert_eq!(leaves, vec![SoftBlockId(0), SoftBlockId(2), SoftBlockId(3)]);
    }

    #[test]
    fn render_is_readable() {
        let r = sample_tree().render();
        assert!(r.contains("pipeline #4"));
        assert!(r.contains("data #1"));
        assert!(r.contains("leaf #2 tile"));
    }

    #[test]
    fn dot_export_is_well_formed() {
        let dot = sample_tree().to_dot();
        assert!(dot.starts_with("digraph softblocks {"));
        assert!(dot.trim_end().ends_with('}'));
        // One node statement per block, one edge per parent-child pair.
        assert_eq!(dot.matches("shape=").count(), 5);
        assert_eq!(dot.matches(" -> ").count(), 4);
        // Pipeline edges are ordered.
        assert!(dot.contains("[label=\"0\"]"));
        assert!(dot.contains("tripleoctagon"));
    }

    #[test]
    #[should_panic(expected = "two parents")]
    fn shared_child_rejected() {
        let blocks = vec![
            leaf(0, "a"),
            SoftBlock {
                id: SoftBlockId(1),
                kind: SoftBlockKind::Composite {
                    pattern: Pattern::Data,
                    children: vec![SoftBlockId(0), SoftBlockId(0)],
                    link_widths: vec![],
                },
                resources: ResourceVec::ZERO,
            },
        ];
        SoftBlockTree::new(blocks, SoftBlockId(1));
    }

    #[test]
    #[should_panic(expected = "unreachable")]
    fn orphan_block_rejected() {
        let blocks = vec![leaf(0, "a"), leaf(1, "b")];
        SoftBlockTree::new(blocks, SoftBlockId(0));
    }

    #[test]
    #[should_panic(expected = "link width arity")]
    fn pipeline_arity_enforced() {
        let blocks = vec![
            leaf(0, "a"),
            leaf(1, "b"),
            SoftBlock {
                id: SoftBlockId(2),
                kind: SoftBlockKind::Composite {
                    pattern: Pattern::Pipeline,
                    children: vec![SoftBlockId(0), SoftBlockId(1)],
                    link_widths: vec![],
                },
                resources: ResourceVec::ZERO,
            },
        ];
        SoftBlockTree::new(blocks, SoftBlockId(2));
    }
}
