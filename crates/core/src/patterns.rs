//! Programmatic construction of soft-block trees from the two primitive
//! patterns.
//!
//! The paper chooses data and pipeline parallelism as the only primitive
//! patterns because "they are sufficient to construct other
//! complex/nested parallel patterns" (Fig. 2c shows a reduction built from
//! them). This module provides a builder for hand-constructing trees —
//! system designers decomposing small accelerators manually, tests, and
//! the [`reduction`] constructor demonstrating the Fig. 2c composition.

use vfpga_fabric::ResourceVec;

use crate::softblock::{push_block, Pattern, SoftBlock, SoftBlockId, SoftBlockKind, SoftBlockTree};

/// An incremental soft-block tree builder.
///
/// ```
/// use vfpga_core::{Pattern, TreeBuilder};
/// use vfpga_fabric::ResourceVec;
///
/// let mut b = TreeBuilder::new();
/// let r = ResourceVec { luts: 100, ffs: 100, bram_kb: 0, uram_kb: 0, dsps: 1 };
/// let stage1 = b.leaf("u0", "mul", r);
/// let stage2 = b.leaf("u1", "add", r);
/// let root = b.pipeline(vec![stage1, stage2], vec![32]);
/// let tree = b.build(root);
/// assert_eq!(tree.root_block().pattern(), Some(Pattern::Pipeline));
/// assert_eq!(tree.root_block().resources.luts, 200);
/// ```
#[derive(Debug, Default)]
pub struct TreeBuilder {
    blocks: Vec<SoftBlock>,
}

impl TreeBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        TreeBuilder::default()
    }

    /// Adds a leaf soft block holding one basic module instance.
    pub fn leaf(
        &mut self,
        path: impl Into<String>,
        behavior: impl Into<String>,
        resources: ResourceVec,
    ) -> SoftBlockId {
        let behavior = behavior.into();
        push_block(
            &mut self.blocks,
            SoftBlockKind::Leaf {
                path: path.into(),
                module: behavior.clone(),
                behavior: Some(behavior),
            },
            resources,
        )
    }

    /// Adds a data-parallel block over `children`.
    ///
    /// # Panics
    ///
    /// Panics if `children` is empty or a child id is unknown.
    pub fn data(&mut self, children: Vec<SoftBlockId>) -> SoftBlockId {
        assert!(!children.is_empty(), "data block needs children");
        self.composite(Pattern::Data, children, vec![])
    }

    /// Adds a pipeline block over `children` with the given inter-stage
    /// link widths.
    ///
    /// # Panics
    ///
    /// Panics if `children` is empty or `link_widths.len() !=
    /// children.len() - 1`.
    pub fn pipeline(&mut self, children: Vec<SoftBlockId>, link_widths: Vec<u64>) -> SoftBlockId {
        assert!(!children.is_empty(), "pipeline block needs children");
        assert_eq!(
            link_widths.len(),
            children.len() - 1,
            "one link width per adjacent pair"
        );
        self.composite(Pattern::Pipeline, children, link_widths)
    }

    /// Finishes the tree with `root` as its root.
    ///
    /// # Panics
    ///
    /// Panics if the arena is not a single tree rooted at `root` (see
    /// [`SoftBlockTree::new`]).
    pub fn build(self, root: SoftBlockId) -> SoftBlockTree {
        SoftBlockTree::new(self.blocks, root)
    }

    fn composite(
        &mut self,
        pattern: Pattern,
        children: Vec<SoftBlockId>,
        link_widths: Vec<u64>,
    ) -> SoftBlockId {
        let resources = children.iter().map(|c| self.blocks[c.0].resources).sum();
        push_block(
            &mut self.blocks,
            SoftBlockKind::Composite {
                pattern,
                children,
                link_widths,
            },
            resources,
        )
    }
}

/// Builds the Fig. 2c **reduction pattern** from the two primitives: a
/// pipeline of `log2(width)` data-parallel layers of combine blocks, each
/// layer half as wide as the previous — a binary reduction tree expressed
/// with nothing but data and pipeline parallelism.
///
/// `width` leaves feed the first layer; `combine_resources` is the cost of
/// one combine block; `element_bits` the width of one operand.
///
/// # Panics
///
/// Panics if `width` is not a power of two greater than 1.
pub fn reduction(width: usize, combine_resources: ResourceVec, element_bits: u64) -> SoftBlockTree {
    assert!(
        width.is_power_of_two() && width > 1,
        "reduction width must be a power of two > 1"
    );
    let mut b = TreeBuilder::new();
    let mut layers = Vec::new();
    let mut level_width = width / 2;
    let mut level = 0;
    while level_width >= 1 {
        let blocks: Vec<SoftBlockId> = (0..level_width)
            .map(|i| b.leaf(format!("l{level}/c{i}"), "combine", combine_resources))
            .collect();
        layers.push(if blocks.len() == 1 {
            blocks[0]
        } else {
            b.data(blocks)
        });
        if level_width == 1 {
            break;
        }
        level_width /= 2;
        level += 1;
    }
    let widths: Vec<u64> = (0..layers.len() - 1)
        .map(|l| element_bits * (width as u64 >> (l + 1)))
        .collect();
    let root = if layers.len() == 1 {
        layers[0]
    } else {
        b.pipeline(layers, widths)
    };
    b.build(root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::partition;

    fn r(luts: u64) -> ResourceVec {
        ResourceVec {
            luts,
            ffs: luts,
            bram_kb: 0,
            uram_kb: 0,
            dsps: 1,
        }
    }

    #[test]
    fn reduction_composes_primitives() {
        let tree = reduction(8, r(50), 32);
        let root = tree.root_block();
        // Three layers (4, 2, 1 combiners) in a pipeline.
        assert_eq!(root.pattern(), Some(Pattern::Pipeline));
        assert_eq!(root.children().len(), 3);
        assert_eq!(tree.leaf_count(), 7); // 4 + 2 + 1
        let first = tree.block(root.children()[0]);
        assert_eq!(first.pattern(), Some(Pattern::Data));
        assert_eq!(first.children().len(), 4);
        // Link widths shrink as the reduction narrows.
        match &root.kind {
            SoftBlockKind::Composite { link_widths, .. } => {
                assert_eq!(link_widths, &[32 * 4, 32 * 2]);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn reduction_of_two_is_a_single_combine() {
        let tree = reduction(2, r(10), 16);
        assert_eq!(tree.leaf_count(), 1);
        assert!(tree.root_block().is_leaf());
    }

    #[test]
    fn reduction_partitions_at_narrow_links() {
        // The partitioner should cut the reduction at its narrowest link
        // (the last one).
        let tree = reduction(16, r(100), 64);
        let plan = partition(&tree, 1);
        let split = plan.root().split.as_ref().unwrap();
        // Narrowest inter-layer link: 64 bits * 2 = 128.
        assert_eq!(split.cut_bandwidth, 128);
    }

    #[test]
    fn builder_checks_arity() {
        let mut b = TreeBuilder::new();
        let l0 = b.leaf("a", "x", r(1));
        let l1 = b.leaf("b", "x", r(1));
        let p = b.pipeline(vec![l0, l1], vec![8]);
        let tree = b.build(p);
        assert_eq!(tree.depth(), 2);
    }

    #[test]
    #[should_panic(expected = "one link width per adjacent pair")]
    fn builder_rejects_bad_link_arity() {
        let mut b = TreeBuilder::new();
        let l0 = b.leaf("a", "x", r(1));
        let l1 = b.leaf("b", "x", r(1));
        b.pipeline(vec![l0, l1], vec![]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn reduction_requires_power_of_two() {
        reduction(6, r(1), 8);
    }
}
