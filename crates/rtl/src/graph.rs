//! The paper's *block graph*: basic-module instances on dense `u32` ids,
//! with names borrowed from the design, connected by weighted directed
//! nets.

use crate::module::PortDir;

/// One basic-module instance in the flattened hierarchy, as a view into a
/// [`BlockGraph`] and its design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlatNode<'a> {
    /// Hierarchical instance path, e.g. `"datapath/tile3/dot0"`.
    pub path: &'a str,
    /// Name of the basic module this instance instantiates.
    pub module: &'a str,
    /// The basic module's behavior tag, if any.
    pub behavior: Option<&'a str>,
}

/// One basic-module port of the flattened hierarchy: a port of node
/// `node`, `width` bits wide, on net `net`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pin {
    pub(crate) net: u32,
    pub(crate) dir: PortDir,
    pub(crate) node: u32,
    pub(crate) width: u32,
}

impl Pin {
    /// The pins of one direction on one net, one per node: a node's pins
    /// are adjacent, first port first, and its first pin stands for it.
    fn per_node(net: &[Pin], dir: PortDir) -> impl Iterator<Item = &Pin> {
        let mut last = None;
        net.iter().filter(move |p| {
            let first = p.dir == dir && last != Some(p.node);
            if p.dir == dir {
                last = Some(p.node);
            }
            first
        })
    }
}

/// The stored form of a [`BlockGraph`] node: its names borrowed from the
/// design, and where its path ends in [`BlockGraph::paths`] (it starts
/// where the previous node's ends).
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockNode<'a> {
    module: &'a str,
    behavior: Option<&'a str>,
    path_end: u32,
}

impl<'a> BlockNode<'a> {
    /// A node whose path ends at byte `path_end` of the graph's paths.
    pub(crate) fn new(module: &'a str, behavior: Option<&'a str>, path_end: usize) -> Self {
        BlockNode {
            module,
            behavior,
            path_end: path_end as u32,
        }
    }
}

/// A directed edge of a [`BlockGraph`]: `from` drives `to` through nets
/// totalling `width` bits (the communication bandwidth the partitioner
/// minimizes when cutting pipelines).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockEdge {
    /// Driving node.
    pub from: u32,
    /// Reading node.
    pub to: u32,
    /// Total connecting bit width.
    pub width: u64,
}

/// The block graph, produced by [`crate::Design::block_graph`]: node `i`
/// is the `i`-th basic-module instance in depth-first instance order, its
/// module and behavior names borrow from the design, and every
/// hierarchical path sits in one shared string. Edges are unique per
/// `(from, to)` pair and sorted by it, so each node's readers are one
/// contiguous run.
#[derive(Debug, Clone, Default)]
pub struct BlockGraph<'a> {
    nodes: Vec<BlockNode<'a>>,
    paths: String,
    edges: Vec<BlockEdge>,
}

impl<'a> BlockGraph<'a> {
    /// Builds the graph from nodes whose paths are concatenated in
    /// `paths` and the pins of all nodes in visit order (node by node,
    /// port by port) on nets `0..nets`.
    pub(crate) fn build(
        nodes: Vec<BlockNode<'a>>,
        paths: String,
        pins: &[Pin],
        nets: usize,
    ) -> Self {
        // A counting sort by net keeps each net's pins in visit order.
        let mut next = vec![0u32; nets + 1];
        for p in pins {
            next[p.net as usize + 1] += 1;
        }
        for k in 1..=nets {
            next[k] += next[k - 1];
        }
        let mut by_net = pins.to_vec();
        for p in pins {
            let slot = &mut next[p.net as usize];
            by_net[*slot as usize] = *p;
            *slot += 1;
        }
        // Each distinct writer-reader node pair sees the net's width once:
        // a node reading one net through two ports still only needs the
        // net's wires routed to it. Bound the edge count first so the edge
        // list is allocated once.
        let on_net = || by_net.chunk_by(|a, b| a.net == b.net);
        let bound = on_net()
            .map(|net| {
                let writers = net.iter().filter(|p| p.dir == PortDir::Output).count();
                writers * (net.len() - writers)
            })
            .sum();
        let mut edges = Vec::with_capacity(bound);
        for net in on_net() {
            for d in Pin::per_node(net, PortDir::Output) {
                for r in Pin::per_node(net, PortDir::Input) {
                    if r.node != d.node {
                        edges.push(BlockEdge {
                            from: d.node,
                            to: r.node,
                            width: u64::from(d.width.min(r.width)),
                        });
                    }
                }
            }
        }
        // Sum the contributions of every net joining the same pair.
        edges.sort_unstable_by_key(|e| u64::from(e.from) << 32 | u64::from(e.to));
        edges.dedup_by(|later, kept| {
            let same = (later.from, later.to) == (kept.from, kept.to);
            if same {
                kept.width += later.width;
            }
            same
        });
        BlockGraph {
            nodes,
            paths,
            edges,
        }
    }

    /// Number of nodes (basic-module instances).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Node `id`'s path and names. Panics if `id` is out of range.
    pub fn node(&self, id: u32) -> FlatNode<'_> {
        let i = id as usize;
        let node = &self.nodes[i];
        let start = match i {
            0 => 0,
            _ => self.nodes[i - 1].path_end as usize,
        };
        FlatNode {
            path: &self.paths[start..node.path_end as usize],
            module: node.module,
            behavior: node.behavior,
        }
    }

    /// All directed edges, sorted by `(from, to)`.
    pub fn edges(&self) -> &[BlockEdge] {
        &self.edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A graph of nodes named `paths` (module `m`) from `(node, net,
    /// width, direction)` pins.
    fn graph(paths: &[&str], pins: &[(u32, u32, u32, PortDir)]) -> BlockGraph<'static> {
        let mut all = String::new();
        let nodes = paths
            .iter()
            .map(|p| {
                all.push_str(p);
                BlockNode::new("m", None, all.len())
            })
            .collect();
        let pins: Vec<Pin> = pins
            .iter()
            .map(|&(node, net, width, dir)| Pin {
                net,
                dir,
                node,
                width,
            })
            .collect();
        let nets = pins.iter().map(|p| p.net as usize + 1).max().unwrap_or(0);
        let g = BlockGraph::build(nodes, all, &pins, nets);
        assert_eq!(g.node(1).path, paths[1]);
        g
    }

    /// Directed width from `a` to `b` (zero if unconnected).
    fn width(g: &BlockGraph<'_>, a: u32, b: u32) -> u64 {
        g.edges()
            .iter()
            .find(|e| (e.from, e.to) == (a, b))
            .map_or(0, |e| e.width)
    }

    /// Total width between `a` and `b` in either direction.
    fn between(g: &BlockGraph<'_>, a: u32, b: u32) -> u64 {
        width(g, a, b) + width(g, b, a)
    }

    fn graph_of_three() -> BlockGraph<'static> {
        // 0 --8--> 1 --16--> 2, plus node 0 reads a 4-bit net nothing drives.
        let pins = [
            (0, 10, 8, PortDir::Output),
            (1, 10, 8, PortDir::Input),
            (1, 11, 16, PortDir::Output),
            (2, 11, 16, PortDir::Input),
            (0, 12, 4, PortDir::Input),
        ];
        graph(&["a", "b", "c"], &pins)
    }

    #[test]
    fn edges_and_weights() {
        let g = graph_of_three();
        assert_eq!(g.node_count(), 3);
        assert_eq!(between(&g, 0, 1), 8);
        assert_eq!(width(&g, 0, 1), 8);
        assert_eq!(width(&g, 1, 0), 0);
        assert_eq!(between(&g, 1, 2), 16);
        assert_eq!(between(&g, 0, 2), 0);
        assert_eq!(g.edges().iter().map(|e| e.width).sum::<u64>(), 24);
        assert_eq!(g.node(2).path, "c");
        assert_eq!((g.node(0).module, g.node(0).behavior), ("m", None));
    }

    #[test]
    fn broadcast_net_creates_only_driver_to_reader_edges() {
        // One 8-bit net driven by node 0, read by nodes 1 and 2: no edge
        // between the two readers.
        let pins = [
            (0, 7, 8, PortDir::Output),
            (1, 7, 8, PortDir::Input),
            (2, 7, 8, PortDir::Input),
        ];
        let g = graph(&["n0", "n1", "n2"], &pins);
        assert_eq!(width(&g, 0, 1), 8);
        assert_eq!(width(&g, 0, 2), 8);
        assert_eq!(between(&g, 1, 2), 0);
        assert_eq!(g.edges().len(), 2);
    }

    #[test]
    fn multi_driver_net_fans_into_reader() {
        // Nodes 0 and 1 both drive a net read by node 2 (a gather bus).
        let pins = [
            (0, 7, 8, PortDir::Output),
            (1, 7, 8, PortDir::Output),
            (2, 7, 8, PortDir::Input),
        ];
        let g = graph(&["n0", "n1", "n2"], &pins);
        assert_eq!(width(&g, 0, 2), 8);
        assert_eq!(width(&g, 1, 2), 8);
        assert_eq!(between(&g, 0, 1), 0);
    }
}
