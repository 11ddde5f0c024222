//! The partitioning tool (Section 2.2.2).
//!
//! Partitions a decomposed accelerator into clusters of soft blocks — the
//! basic units of runtime deployment — using the iterative method of
//! Fig. 6: each iteration splits one cluster into two, cutting a pipeline
//! at the link with minimum communication bandwidth and splitting a
//! data-parallel node's children evenly. After N iterations the plan can
//! deploy the accelerator onto up to 2^N FPGAs, and intermediate
//! combinations (e.g. 3 devices) come from mixing split levels.
//!
//! The extracted parallel patterns are exactly what keeps this cheap: no
//! search over arbitrary graph cuts is needed, just one scan per pipeline
//! node — this is the paper's complexity reduction over pattern-oblivious
//! partitioners.

use vfpga_fabric::ResourceVec;

use crate::softblock::{Pattern, SoftBlockId, SoftBlockKind, SoftBlockTree};
use crate::CoreError;

/// One deployment unit: a cluster of soft blocks that deploys onto a
/// single FPGA.
#[derive(Debug, Clone)]
pub struct PartitionNode {
    /// The soft blocks forming the cluster (subtree roots).
    pub blocks: Vec<SoftBlockId>,
    /// Estimated resources of the cluster.
    pub resources: ResourceVec,
    /// Bandwidth (bits) crossing the cut if this node is split, and the
    /// two halves. `None` for unsplit or unsplittable nodes.
    pub split: Option<PartitionSplit>,
}

/// A performed split of one partition node.
#[derive(Debug, Clone)]
pub struct PartitionSplit {
    /// Bits of traffic crossing between the two halves per activation.
    pub cut_bandwidth: u64,
    /// First half.
    pub left: Box<PartitionNode>,
    /// Second half.
    pub right: Box<PartitionNode>,
}

impl PartitionNode {
    /// Leaves of the partition subtree (the smallest deployment units).
    fn leaf_count(&self) -> usize {
        match &self.split {
            None => 1,
            Some(s) => s.left.leaf_count() + s.right.leaf_count(),
        }
    }
}

/// The partition plan of one accelerator: a binary tree of deployment
/// units.
#[derive(Debug, Clone)]
pub struct PartitionTree {
    root: PartitionNode,
    iterations: usize,
}

/// A cluster in flight during partitioning.
struct Cluster {
    pattern: Option<Pattern>,
    children: Vec<SoftBlockId>,
    link_widths: Vec<u64>,
    blocks: Vec<SoftBlockId>,
    resources: ResourceVec,
}

impl Cluster {
    fn from_block(tree: &SoftBlockTree, id: SoftBlockId) -> Cluster {
        let b = tree.block(id);
        match &b.kind {
            SoftBlockKind::Leaf { .. } => Cluster {
                pattern: None,
                children: vec![],
                link_widths: vec![],
                blocks: vec![id],
                resources: b.resources,
            },
            SoftBlockKind::Composite {
                pattern,
                children,
                link_widths,
            } => Cluster {
                pattern: Some(*pattern),
                children: children.clone(),
                link_widths: link_widths.clone(),
                blocks: vec![id],
                resources: b.resources,
            },
        }
    }

    fn from_children(
        tree: &SoftBlockTree,
        pattern: Pattern,
        children: Vec<SoftBlockId>,
        link_widths: Vec<u64>,
    ) -> Cluster {
        if children.len() == 1 {
            return Cluster::from_block(tree, children[0]);
        }
        let resources = children.iter().map(|&c| tree.block(c).resources).sum();
        Cluster {
            pattern: Some(pattern),
            blocks: children.clone(),
            children,
            link_widths,
            resources,
        }
    }

    /// Splits per the pattern rules; `None` if unsplittable (a leaf).
    fn split(&self, tree: &SoftBlockTree) -> Option<(Cluster, Cluster, u64)> {
        let pattern = self.pattern?;
        if self.children.len() < 2 {
            // Descend into a lone composite child.
            return Cluster::from_block(tree, *self.children.first()?).split(tree);
        }
        match pattern {
            Pattern::Pipeline => {
                // Cut at the minimum-bandwidth link.
                let (cut_idx, &cut_bw) = self
                    .link_widths
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &w)| w)
                    .expect("pipeline with >=2 children has links");
                let left = Cluster::from_children(
                    tree,
                    Pattern::Pipeline,
                    self.children[..=cut_idx].to_vec(),
                    self.link_widths[..cut_idx].to_vec(),
                );
                let right = Cluster::from_children(
                    tree,
                    Pattern::Pipeline,
                    self.children[cut_idx + 1..].to_vec(),
                    self.link_widths[cut_idx + 1..].to_vec(),
                );
                Some((left, right, cut_bw))
            }
            Pattern::Data => {
                // Even split; halves exchange nothing between themselves.
                let mid = self.children.len() / 2;
                let left = Cluster::from_children(
                    tree,
                    Pattern::Data,
                    self.children[..mid].to_vec(),
                    vec![],
                );
                let right = Cluster::from_children(
                    tree,
                    Pattern::Data,
                    self.children[mid..].to_vec(),
                    vec![],
                );
                Some((left, right, 0))
            }
        }
    }
}

fn build(tree: &SoftBlockTree, cluster: Cluster, depth: usize) -> PartitionNode {
    let split = if depth == 0 {
        None
    } else {
        cluster
            .split(tree)
            .map(|(left, right, cut_bandwidth)| PartitionSplit {
                cut_bandwidth,
                left: Box::new(build(tree, left, depth - 1)),
                right: Box::new(build(tree, right, depth - 1)),
            })
    };
    PartitionNode {
        blocks: cluster.blocks,
        resources: cluster.resources,
        split,
    }
}

/// Partitions a decomposed accelerator with `iterations` rounds of
/// bisection (supporting deployments onto up to `2^iterations` FPGAs).
pub fn partition(tree: &SoftBlockTree, iterations: usize) -> PartitionTree {
    let root = build(tree, Cluster::from_block(tree, tree.root()), iterations);
    PartitionTree { root, iterations }
}

impl PartitionTree {
    /// The whole-accelerator unit.
    pub fn root(&self) -> &PartitionNode {
        &self.root
    }

    /// The number of bisection iterations performed.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// The maximum number of deployment units this plan supports.
    pub fn max_units(&self) -> usize {
        self.root.leaf_count()
    }

    /// Selects a deployment onto exactly `units` FPGAs by greedily
    /// splitting the largest unit first (Fig. 6's mixed combinations, e.g.
    /// units {#2, #3, #4} for three devices).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoSuchVariant`] if the plan cannot produce that
    /// many units.
    pub fn units_for(&self, units: usize) -> Result<Vec<&PartitionNode>, CoreError> {
        if units == 0 || units > self.max_units() {
            return Err(CoreError::NoSuchVariant {
                requested: units,
                available: self.max_units(),
            });
        }
        let mut current: Vec<&PartitionNode> = vec![&self.root];
        while current.len() < units {
            // Split the largest splittable unit (by LUT estimate).
            let (idx, _) = current
                .iter()
                .enumerate()
                .filter(|(_, n)| n.split.is_some())
                .max_by_key(|(_, n)| n.resources.luts)
                .ok_or(CoreError::NoSuchVariant {
                    requested: units,
                    available: current.len(),
                })?;
            let node = current.remove(idx);
            let split = node.split.as_ref().expect("filtered on splittable");
            current.push(&split.left);
            current.push(&split.right);
        }
        Ok(current)
    }

    /// Total bandwidth crossing between units in the `units_for(n)`
    /// deployment — the inter-FPGA traffic per activation.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoSuchVariant`] for unit counts outside
    /// `1..=max_units()`, exactly mirroring
    /// [`units_for`](PartitionTree::units_for); previously `cut_bandwidth_for(0)`
    /// answered `Ok(0)` for a deployment that cannot exist.
    pub fn cut_bandwidth_for(&self, units: usize) -> Result<u64, CoreError> {
        if units == 0 || units > self.max_units() {
            return Err(CoreError::NoSuchVariant {
                requested: units,
                available: self.max_units(),
            });
        }
        // Sum of cut bandwidths of every split performed to reach `units`.
        let mut total = 0u64;
        let mut current: Vec<&PartitionNode> = vec![&self.root];
        while current.len() < units {
            let (idx, _) = current
                .iter()
                .enumerate()
                .filter(|(_, n)| n.split.is_some())
                .max_by_key(|(_, n)| n.resources.luts)
                .ok_or(CoreError::NoSuchVariant {
                    requested: units,
                    available: current.len(),
                })?;
            let node = current.remove(idx);
            let split = node.split.as_ref().expect("filtered on splittable");
            total += split.cut_bandwidth;
            current.push(&split.left);
            current.push(&split.right);
        }
        if units > current.len() {
            return Err(CoreError::NoSuchVariant {
                requested: units,
                available: current.len(),
            });
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::softblock::{SoftBlock, SoftBlockKind};

    fn leaf(id: usize, luts: u64) -> SoftBlock {
        SoftBlock {
            id: SoftBlockId(id),
            kind: SoftBlockKind::Leaf {
                path: format!("u{id}"),
                module: "m".into(),
                behavior: None,
            },
            resources: ResourceVec {
                luts,
                ffs: luts,
                bram_kb: 0,
                uram_kb: 0,
                dsps: 0,
            },
        }
    }

    /// pipeline(l0 -100- l1 -20- l2 -80- l3): min cut at the 20-bit link.
    fn pipeline_tree() -> SoftBlockTree {
        let mut blocks: Vec<SoftBlock> = (0..4).map(|i| leaf(i, 1000)).collect();
        blocks.push(SoftBlock {
            id: SoftBlockId(4),
            kind: SoftBlockKind::Composite {
                pattern: Pattern::Pipeline,
                children: (0..4).map(SoftBlockId).collect(),
                link_widths: vec![100, 20, 80],
            },
            resources: ResourceVec {
                luts: 4000,
                ffs: 4000,
                bram_kb: 0,
                uram_kb: 0,
                dsps: 0,
            },
        });
        SoftBlockTree::new(blocks, SoftBlockId(4))
    }

    /// data(8 identical leaves).
    fn data_tree() -> SoftBlockTree {
        let mut blocks: Vec<SoftBlock> = (0..8).map(|i| leaf(i, 500)).collect();
        blocks.push(SoftBlock {
            id: SoftBlockId(8),
            kind: SoftBlockKind::Composite {
                pattern: Pattern::Data,
                children: (0..8).map(SoftBlockId).collect(),
                link_widths: vec![],
            },
            resources: ResourceVec {
                luts: 4000,
                ffs: 4000,
                bram_kb: 0,
                uram_kb: 0,
                dsps: 0,
            },
        });
        SoftBlockTree::new(blocks, SoftBlockId(8))
    }

    #[test]
    fn pipeline_cuts_at_min_bandwidth_link() {
        let tree = pipeline_tree();
        let plan = partition(&tree, 1);
        let split = plan.root().split.as_ref().unwrap();
        assert_eq!(split.cut_bandwidth, 20);
        // Left = first two stages, right = last two.
        assert_eq!(split.left.resources.luts, 2000);
        assert_eq!(split.right.resources.luts, 2000);
    }

    #[test]
    fn data_split_is_even_and_free() {
        let tree = data_tree();
        let plan = partition(&tree, 2);
        let s = plan.root().split.as_ref().unwrap();
        assert_eq!(s.cut_bandwidth, 0);
        assert_eq!(s.left.resources.luts, 2000);
        assert_eq!(s.right.resources.luts, 2000);
        // Second level splits again.
        let ll = s.left.split.as_ref().unwrap();
        assert_eq!(ll.left.resources.luts, 1000);
    }

    #[test]
    fn iterations_bound_unit_count() {
        let tree = data_tree();
        assert_eq!(partition(&tree, 0).max_units(), 1);
        assert_eq!(partition(&tree, 1).max_units(), 2);
        assert_eq!(partition(&tree, 2).max_units(), 4);
        // Depth 3 exhausts the 8 leaves.
        assert_eq!(partition(&tree, 3).max_units(), 8);
    }

    #[test]
    fn units_for_produces_intermediate_counts() {
        let tree = data_tree();
        let plan = partition(&tree, 2);
        let three = plan.units_for(3).unwrap();
        assert_eq!(three.len(), 3);
        let total: u64 = three.iter().map(|u| u.resources.luts).sum();
        assert_eq!(total, 4000);
        assert!(plan.units_for(5).is_err());
        assert!(plan.units_for(0).is_err());
    }

    #[test]
    fn leaves_are_unsplittable() {
        let blocks = vec![leaf(0, 100)];
        let tree = SoftBlockTree::new(blocks, SoftBlockId(0));
        let plan = partition(&tree, 3);
        assert_eq!(plan.max_units(), 1);
        assert!(plan.units_for(2).is_err());
    }

    #[test]
    fn cut_bandwidth_for_rejects_degenerate_unit_counts() {
        // Regression (found by the fuzzer's partition-conservation
        // oracle): `cut_bandwidth_for(0)` returned Ok(0) for a deployment
        // that cannot exist, while `units_for(0)` errored — the two
        // accessors now agree on the whole `1..=max_units` domain.
        let tree = data_tree();
        let plan = partition(&tree, 2);
        assert!(matches!(
            plan.cut_bandwidth_for(0),
            Err(CoreError::NoSuchVariant {
                requested: 0,
                available: 4
            })
        ));
        assert!(plan.cut_bandwidth_for(5).is_err());
        for units in 1..=plan.max_units() {
            assert!(plan.cut_bandwidth_for(units).is_ok());
            assert!(plan.units_for(units).is_ok());
        }
    }

    #[test]
    fn cut_bandwidth_accumulates() {
        let tree = pipeline_tree();
        let plan = partition(&tree, 2);
        assert_eq!(plan.cut_bandwidth_for(1).unwrap(), 0);
        assert_eq!(plan.cut_bandwidth_for(2).unwrap(), 20);
        // Next split divides one half at its min link (100 or 80).
        let bw3 = plan.cut_bandwidth_for(3).unwrap();
        assert!(bw3 == 20 + 80 || bw3 == 20 + 100);
    }
}
