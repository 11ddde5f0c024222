//! The flattened block graph of basic-module instances.

use std::collections::BTreeMap;

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

/// The paper's *block graph*: basic-module instances connected by weighted
/// directed nets, produced by [`crate::Design::flatten`].
#[derive(Debug, Clone, Default)]
pub struct FlatGraph {
    nodes: Vec<FlatNode>,
    /// Directed edges keyed `(from, to)`.
    edges: BTreeMap<(usize, usize), u64>,
    ext_in: Vec<u64>,
    ext_out: Vec<u64>,
}

impl FlatGraph {
    pub(crate) fn build(
        nodes: Vec<FlatNode>,
        pins: Vec<(usize, String, usize, u32, PortDir)>,
        externals: Vec<(usize, String, PortDir, u32)>,
    ) -> Self {
        // Group pins by net root. The map is ordered so the edge map below
        // is filled in the same order on every run.
        let mut by_net: BTreeMap<usize, Vec<(usize, u32, PortDir)>> = BTreeMap::new();
        for (node, _port, net, width, dir) in &pins {
            by_net.entry(*net).or_default().push((*node, *width, *dir));
        }
        let mut ext_in = vec![0u64; nodes.len()];
        let mut ext_out = vec![0u64; nodes.len()];
        for (net, _name, dir, width) in &externals {
            if let Some(members) = by_net.get(net) {
                for &(node, _, pin_dir) in members {
                    match (dir, pin_dir) {
                        // A top-level input feeds nodes that read the net.
                        (PortDir::Input, PortDir::Input) => ext_in[node] += u64::from(*width),
                        // A top-level output is driven by nodes that drive it.
                        (PortDir::Output, PortDir::Output) => ext_out[node] += u64::from(*width),
                        _ => {}
                    }
                }
            }
        }
        let mut edges: BTreeMap<(usize, usize), u64> = BTreeMap::new();
        for members in by_net.values() {
            // Each distinct driver-reader node pair sees the net's width
            // once: a node reading one net through two ports still only
            // needs the net's wires routed to it.
            let mut drivers: Vec<(usize, u32)> = Vec::new();
            let mut readers: Vec<(usize, u32)> = Vec::new();
            for &(node, width, dir) in members {
                let list = match dir {
                    PortDir::Output => &mut drivers,
                    PortDir::Input => &mut readers,
                };
                if !list.iter().any(|&(n, _)| n == node) {
                    list.push((node, width));
                }
            }
            for &(driver, dw) in &drivers {
                for &(reader, rw) in &readers {
                    if reader != driver {
                        *edges.entry((driver, reader)).or_insert(0) += u64::from(dw.min(rw));
                    }
                }
            }
        }
        FlatGraph {
            nodes,
            edges,
            ext_in,
            ext_out,
        }
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
        self.edges.iter().map(|(&(a, b), &width)| EdgeRef {
            from: NodeId(a),
            to: NodeId(b),
            width,
        })
    }

    /// Total connecting bit width between two nodes in either direction
    /// (zero if unconnected).
    pub fn edges_between(&self, a: NodeId, b: NodeId) -> u64 {
        self.edges.get(&(a.0, b.0)).copied().unwrap_or(0)
            + self.edges.get(&(b.0, a.0)).copied().unwrap_or(0)
    }

    /// Directed width from `a` to `b` only.
    pub fn edge_from_to(&self, a: NodeId, b: NodeId) -> u64 {
        self.edges.get(&(a.0, b.0)).copied().unwrap_or(0)
    }

    /// Ids of nodes sharing at least one net with `id` (either
    /// direction), ascending. Scans every edge.
    pub fn neighbors(&self, id: NodeId) -> impl Iterator<Item = NodeId> {
        let mut out: Vec<usize> = self
            .edges
            .keys()
            .filter_map(|&(a, b)| match (a == id.0, b == id.0) {
                (true, _) => Some(b),
                (_, true) => Some(a),
                _ => None,
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
        self.edges.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_of_three() -> FlatGraph {
        // 0 --8--> 1 --16--> 2, plus node 0 reads a 4-bit external input.
        let nodes = vec![
            FlatNode {
                path: "a".into(),
                module: "m".into(),
                behavior: None,
            },
            FlatNode {
                path: "b".into(),
                module: "m".into(),
                behavior: None,
            },
            FlatNode {
                path: "c".into(),
                module: "m".into(),
                behavior: None,
            },
        ];
        let pins = vec![
            (0, "y".to_string(), 10, 8, PortDir::Output),
            (1, "a".to_string(), 10, 8, PortDir::Input),
            (1, "y".to_string(), 11, 16, PortDir::Output),
            (2, "a".to_string(), 11, 16, PortDir::Input),
            (0, "x".to_string(), 12, 4, PortDir::Input),
        ];
        let externals = vec![(12, "x".to_string(), PortDir::Input, 4)];
        FlatGraph::build(nodes, pins, externals)
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
        let nodes = (0..3)
            .map(|i| FlatNode {
                path: format!("n{i}"),
                module: "m".into(),
                behavior: None,
            })
            .collect();
        let pins = vec![
            (0, "y".to_string(), 7, 8, PortDir::Output),
            (1, "a".to_string(), 7, 8, PortDir::Input),
            (2, "a".to_string(), 7, 8, PortDir::Input),
        ];
        let g = FlatGraph::build(nodes, pins, vec![]);
        assert_eq!(g.edge_from_to(NodeId(0), NodeId(1)), 8);
        assert_eq!(g.edge_from_to(NodeId(0), NodeId(2)), 8);
        assert_eq!(g.edges_between(NodeId(1), NodeId(2)), 0);
        assert_eq!(g.edges().count(), 2);
    }

    #[test]
    fn multi_driver_net_fans_into_reader() {
        // Nodes 0 and 1 both drive a net read by node 2 (a gather bus).
        let nodes = (0..3)
            .map(|i| FlatNode {
                path: format!("n{i}"),
                module: "m".into(),
                behavior: None,
            })
            .collect();
        let pins = vec![
            (0, "y".to_string(), 7, 8, PortDir::Output),
            (1, "y".to_string(), 7, 8, PortDir::Output),
            (2, "a".to_string(), 7, 8, PortDir::Input),
        ];
        let g = FlatGraph::build(nodes, pins, vec![]);
        assert_eq!(g.edge_from_to(NodeId(0), NodeId(2)), 8);
        assert_eq!(g.edge_from_to(NodeId(1), NodeId(2)), 8);
        assert_eq!(g.edges_between(NodeId(0), NodeId(1)), 0);
    }
}
