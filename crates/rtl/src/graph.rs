//! The flattened block graph of basic-module instances, in two forms:
//! [`BlockGraph`] on dense `u32` ids with names borrowed from the design
//! (what the decomposer walks), and [`FlatGraph`] with owned nodes.

use crate::module::PortDir;

/// Identifies a node (one basic-module instance) in a [`FlatGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// One basic-module instance in the flattened hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatNode {
    /// Hierarchical instance path, e.g. `"datapath/tile3/dot0"`.
    pub path: String,
    /// Name of the basic module this instance instantiates.
    pub module: String,
    /// The basic module's behavior tag, if any.
    pub behavior: Option<String>,
}

/// A directed, weighted edge: `from` drives `to` through nets totalling
/// `width` bits (the communication bandwidth the partitioner minimizes when
/// cutting pipelines).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRef {
    /// Driving node.
    pub from: NodeId,
    /// Reading node.
    pub to: NodeId,
    /// Total connecting bit width.
    pub width: u64,
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

/// A node of a [`BlockGraph`]: one basic-module instance, with its names
/// borrowed from the design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockNode<'a> {
    /// Name of the basic module this instance instantiates.
    pub module: &'a str,
    /// The basic module's behavior tag, if any.
    pub behavior: Option<&'a str>,
    /// End of this node's path in [`BlockGraph::paths`]; it starts where
    /// the previous node's ends.
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
/// totalling `width` bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockEdge {
    /// Driving node.
    pub from: u32,
    /// Reading node.
    pub to: u32,
    /// Total connecting bit width.
    pub width: u64,
}

/// The block graph on dense ids, produced by [`crate::Design::block_graph`]:
/// node `i` is the `i`-th basic-module instance in depth-first instance
/// order, its module and behavior names borrow from the design, and every
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
    /// port by port) on nets `0..nets`. Also returns the pins grouped by
    /// net, ascending, each net's in visit order.
    pub(crate) fn build(
        nodes: Vec<BlockNode<'a>>,
        paths: String,
        pins: &[Pin],
        nets: usize,
    ) -> (Self, Vec<Pin>) {
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
        let graph = BlockGraph {
            nodes,
            paths,
            edges,
        };
        (graph, by_net)
    }

    /// Number of nodes (basic-module instances).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Node `id`'s names. Panics if `id` is out of range.
    pub fn node(&self, id: u32) -> &BlockNode<'a> {
        &self.nodes[id as usize]
    }

    /// Node `id`'s hierarchical instance path. Panics if `id` is out of
    /// range.
    pub fn path(&self, id: u32) -> &str {
        let i = id as usize;
        let start = if i == 0 {
            0
        } else {
            self.nodes[i - 1].path_end as usize
        };
        &self.paths[start..self.nodes[i].path_end as usize]
    }

    /// All directed edges, sorted by `(from, to)`.
    pub fn edges(&self) -> &[BlockEdge] {
        &self.edges
    }
}

/// The paper's *block graph*: basic-module instances connected by weighted
/// directed nets, produced by [`crate::Design::flatten`].
#[derive(Debug, Clone, Default)]
pub struct FlatGraph {
    nodes: Vec<FlatNode>,
    /// Directed edges, sorted by `(from, to)`.
    edges: Vec<BlockEdge>,
    ext_in: Vec<u64>,
    ext_out: Vec<u64>,
}

impl FlatGraph {
    /// Owns `graph`'s nodes and adds each node's connections to the top
    /// module's ports, given as `(net, direction, width)`; `pins` are the
    /// pins `graph` was built from, grouped by net in ascending order.
    pub(crate) fn new(
        graph: &BlockGraph<'_>,
        pins: &[Pin],
        externals: &[(u32, PortDir, u32)],
    ) -> Self {
        let n = graph.node_count();
        let mut ext_in = vec![0u64; n];
        let mut ext_out = vec![0u64; n];
        for &(net, dir, width) in externals {
            let lo = pins.partition_point(|p| p.net < net);
            let hi = pins.partition_point(|p| p.net <= net);
            for pin in &pins[lo..hi] {
                match (dir, pin.dir) {
                    // A top-level input feeds nodes that read the net.
                    (PortDir::Input, PortDir::Input) => {
                        ext_in[pin.node as usize] += u64::from(width)
                    }
                    // A top-level output is driven by nodes that drive it.
                    (PortDir::Output, PortDir::Output) => {
                        ext_out[pin.node as usize] += u64::from(width)
                    }
                    _ => {}
                }
            }
        }
        let nodes = (0..n as u32)
            .map(|i| {
                let node = graph.node(i);
                FlatNode {
                    path: graph.path(i).to_string(),
                    module: node.module.to_string(),
                    behavior: node.behavior.map(str::to_string),
                }
            })
            .collect();
        FlatGraph {
            nodes,
            edges: graph.edges.clone(),
            ext_in,
            ext_out,
        }
    }

    /// Directed width from node index `a` to `b` (zero if unconnected).
    fn width(&self, a: usize, b: usize) -> u64 {
        self.edges
            .binary_search_by_key(&(a, b), |e| (e.from as usize, e.to as usize))
            .map_or(0, |i| self.edges[i].width)
    }

    /// Number of nodes (basic-module instances).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The node with the given id, or `None` if out of range.
    pub fn node(&self, id: NodeId) -> Option<&FlatNode> {
        self.nodes.get(id.0)
    }

    /// Iterates over all nodes with their ids.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &FlatNode)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i), n))
    }

    /// Iterates over all directed edges.
    pub fn edges(&self) -> impl Iterator<Item = EdgeRef> + '_ {
        self.edges.iter().map(|e| EdgeRef {
            from: NodeId(e.from as usize),
            to: NodeId(e.to as usize),
            width: e.width,
        })
    }

    /// Total connecting bit width between two nodes in either direction
    /// (zero if unconnected).
    pub fn edges_between(&self, a: NodeId, b: NodeId) -> u64 {
        self.width(a.0, b.0) + self.width(b.0, a.0)
    }

    /// Directed width from `a` to `b` only.
    pub fn edge_from_to(&self, a: NodeId, b: NodeId) -> u64 {
        self.width(a.0, b.0)
    }

    /// Ids of nodes sharing at least one net with `id` (either
    /// direction), ascending. Scans every edge.
    pub fn neighbors(&self, id: NodeId) -> impl Iterator<Item = NodeId> {
        let mut out: Vec<usize> = self
            .edges
            .iter()
            .filter_map(|e| {
                let (a, b) = (e.from as usize, e.to as usize);
                match (a == id.0, b == id.0) {
                    (true, _) => Some(b),
                    (_, true) => Some(a),
                    _ => None,
                }
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out.into_iter().map(NodeId)
    }

    /// Total bit width of `id`'s reads from the top module's input ports.
    pub fn external_inputs_of(&self, id: NodeId) -> u64 {
        self.ext_in[id.0]
    }

    /// Total bit width of `id`'s drives of the top module's output ports.
    pub fn external_outputs_of(&self, id: NodeId) -> u64 {
        self.ext_out[id.0]
    }

    /// Sum of all edge weights.
    pub fn total_edge_weight(&self) -> u64 {
        self.edges.iter().map(|e| e.width).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A graph of nodes named `paths` (module `m`) from `(node, net,
    /// width, direction)` pins and `(net, direction, width)` top ports.
    fn graph(
        paths: &[&str],
        pins: &[(u32, u32, u32, PortDir)],
        externals: &[(u32, PortDir, u32)],
    ) -> FlatGraph {
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
        let (block, by_net) = BlockGraph::build(nodes, all, &pins, nets);
        assert_eq!(block.path(1), paths[1]);
        FlatGraph::new(&block, &by_net, externals)
    }

    fn graph_of_three() -> FlatGraph {
        // 0 --8--> 1 --16--> 2, plus node 0 reads a 4-bit external input.
        let pins = [
            (0, 10, 8, PortDir::Output),
            (1, 10, 8, PortDir::Input),
            (1, 11, 16, PortDir::Output),
            (2, 11, 16, PortDir::Input),
            (0, 12, 4, PortDir::Input),
        ];
        graph(&["a", "b", "c"], &pins, &[(12, PortDir::Input, 4)])
    }

    #[test]
    fn edges_and_weights() {
        let g = graph_of_three();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edges_between(NodeId(0), NodeId(1)), 8);
        assert_eq!(g.edge_from_to(NodeId(0), NodeId(1)), 8);
        assert_eq!(g.edge_from_to(NodeId(1), NodeId(0)), 0);
        assert_eq!(g.edges_between(NodeId(1), NodeId(2)), 16);
        assert_eq!(g.edges_between(NodeId(0), NodeId(2)), 0);
        assert_eq!(g.total_edge_weight(), 24);
    }

    #[test]
    fn neighbors_symmetric() {
        let g = graph_of_three();
        let n1: Vec<_> = g.neighbors(NodeId(1)).collect();
        assert_eq!(n1.len(), 2);
        assert!(n1.contains(&NodeId(0)) && n1.contains(&NodeId(2)));
    }

    #[test]
    fn external_widths() {
        let g = graph_of_three();
        assert_eq!(g.external_inputs_of(NodeId(0)), 4);
        assert_eq!(g.external_inputs_of(NodeId(1)), 0);
        assert_eq!(g.external_outputs_of(NodeId(2)), 0);
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
        let g = graph(&["n0", "n1", "n2"], &pins, &[]);
        assert_eq!(g.edge_from_to(NodeId(0), NodeId(1)), 8);
        assert_eq!(g.edge_from_to(NodeId(0), NodeId(2)), 8);
        assert_eq!(g.edges_between(NodeId(1), NodeId(2)), 0);
        assert_eq!(g.edges().count(), 2);
    }

    #[test]
    fn multi_driver_net_fans_into_reader() {
        // Nodes 0 and 1 both drive a net read by node 2 (a gather bus).
        let pins = [
            (0, 7, 8, PortDir::Output),
            (1, 7, 8, PortDir::Output),
            (2, 7, 8, PortDir::Input),
        ];
        let g = graph(&["n0", "n1", "n2"], &pins, &[]);
        assert_eq!(g.edge_from_to(NodeId(0), NodeId(2)), 8);
        assert_eq!(g.edge_from_to(NodeId(1), NodeId(2)), 8);
        assert_eq!(g.edges_between(NodeId(0), NodeId(1)), 0);
    }
}
