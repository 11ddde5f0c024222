//! A design: a set of modules, validation, and hierarchy flattening.

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::graph::{FlatGraph, FlatNode};
use crate::module::{ModuleDecl, PortDir};
use crate::{eqhash, RtlError};

/// A complete RTL design: a collection of module declarations.
///
/// Designs validate their structural integrity on insertion: instances must
/// reference existing modules and nets, connection widths must match, and
/// the hierarchy must be acyclic.
#[derive(Debug, Clone, Default)]
pub struct Design {
    modules: BTreeMap<String, ModuleDecl>,
}

impl Design {
    /// Creates an empty design.
    pub fn new() -> Self {
        Design::default()
    }

    /// Adds a module after structurally validating it against the modules
    /// already present. Modules must be added bottom-up (children before
    /// parents).
    ///
    /// # Errors
    ///
    /// Returns an error if the module duplicates an existing name, references
    /// unknown modules/nets/ports, contains duplicate names, or connects
    /// endpoints of different widths.
    pub fn add_module(&mut self, module: ModuleDecl) -> Result<(), RtlError> {
        if self.modules.contains_key(&module.name) {
            return Err(RtlError::DuplicateModule(module.name));
        }
        self.validate_module(&module)?;
        self.modules.insert(module.name.clone(), module);
        Ok(())
    }

    fn validate_module(&self, m: &ModuleDecl) -> Result<(), RtlError> {
        // Unique names among ports and wires.
        let mut names = HashSet::new();
        for p in &m.ports {
            if !names.insert(p.name.as_str()) {
                return Err(RtlError::DuplicateName {
                    module: m.name.clone(),
                    name: p.name.clone(),
                });
            }
        }
        for w in m.wires.keys() {
            if !names.insert(w.as_str()) {
                return Err(RtlError::DuplicateName {
                    module: m.name.clone(),
                    name: w.clone(),
                });
            }
        }
        // Unique instance names; instances reference known modules, ports and
        // nets with matching widths.
        let mut inst_names = HashSet::new();
        for inst in &m.instances {
            if inst.module == m.name {
                return Err(RtlError::RecursiveHierarchy(m.name.clone()));
            }
            if !inst_names.insert(inst.name.as_str()) {
                return Err(RtlError::DuplicateName {
                    module: m.name.clone(),
                    name: inst.name.clone(),
                });
            }
            let child = self
                .modules
                .get(&inst.module)
                .ok_or_else(|| RtlError::UnknownModule(inst.module.clone()))?;
            for (port, net) in &inst.connections {
                let p = child.port(port).ok_or_else(|| RtlError::UnknownPort {
                    module: child.name.clone(),
                    port: port.clone(),
                })?;
                let w = m.net_width(net).ok_or_else(|| RtlError::UnknownNet {
                    module: m.name.clone(),
                    net: net.clone(),
                })?;
                if w != p.width {
                    return Err(RtlError::WidthMismatch {
                        module: m.name.clone(),
                        detail: format!(
                            "net `{net}` ({w} bits) connected to {}.{port} ({} bits)",
                            inst.module, p.width
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    /// Looks up a module by name.
    pub fn module(&self, name: &str) -> Option<&ModuleDecl> {
        self.modules.get(name)
    }

    /// Iterates over all modules in name order.
    pub fn modules(&self) -> impl Iterator<Item = &ModuleDecl> {
        self.modules.values()
    }

    /// Number of modules in the design.
    pub fn len(&self) -> usize {
        self.modules.len()
    }

    /// Whether the design contains no modules.
    pub fn is_empty(&self) -> bool {
        self.modules.is_empty()
    }

    /// Counts the basic-module instances in the fully elaborated hierarchy
    /// under `top`.
    ///
    /// # Errors
    ///
    /// Returns an error if `top` or any referenced module is unknown.
    pub fn leaf_instance_count(&self, top: &str) -> Result<u64, RtlError> {
        let mut memo: HashMap<&str, u64> = HashMap::new();
        self.count_leaves(top, &mut memo)
    }

    fn count_leaves<'a>(
        &'a self,
        name: &str,
        memo: &mut HashMap<&'a str, u64>,
    ) -> Result<u64, RtlError> {
        let m = self
            .modules
            .get(name)
            .ok_or_else(|| RtlError::UnknownModule(name.to_string()))?;
        if let Some(&n) = memo.get(m.name.as_str()) {
            return Ok(n);
        }
        let n = if m.is_basic() {
            1
        } else {
            let mut total = 0;
            for inst in &m.instances {
                total += self.count_leaves(&inst.module, memo)?;
            }
            total
        };
        memo.insert(m.name.as_str(), n);
        Ok(n)
    }

    /// Canonical structural hash of a module, suitable for equivalence
    /// checking: two modules receive the same hash iff they have the same
    /// interface and the same (recursive) internal structure up to instance
    /// renaming. See the crate docs for the relationship to the SAT-based
    /// equivalence checking used by the paper.
    ///
    /// # Errors
    ///
    /// Returns an error if `name` or any referenced module is unknown.
    pub fn canonical_hash(&self, name: &str) -> Result<u64, RtlError> {
        let mut memo = HashMap::new();
        eqhash::canonical_hash(self, name, &mut memo)
    }

    /// Whether two modules are structurally equivalent (same canonical hash).
    ///
    /// # Errors
    ///
    /// Returns an error if either module is unknown.
    pub fn equivalent(&self, a: &str, b: &str) -> Result<bool, RtlError> {
        Ok(self.canonical_hash(a)? == self.canonical_hash(b)?)
    }

    /// Flattens the hierarchy under `top` into the paper's *block graph*: a
    /// graph whose nodes are basic-module instances and whose weighted edges
    /// are the bit widths of the nets connecting them. Nodes also record
    /// their connections to `top`'s external ports.
    ///
    /// # Errors
    ///
    /// Returns an error if `top` or any referenced module is unknown, or if
    /// the hierarchy is recursive.
    pub fn flatten(&self, top: &str) -> Result<FlatGraph, RtlError> {
        let top_module = self
            .modules
            .get(top)
            .ok_or_else(|| RtlError::UnknownModule(top.to_string()))?;

        let mut fl = Flattener {
            design: self,
            nodes: Vec::new(),
            nets: UnionFind::new(),
            net_ids: HashMap::new(),
            // (node, port, net-root) triples, resolved after traversal.
            pins: Vec::new(),
            stack: Vec::new(),
        };

        // Top-level ports are external nets.
        let mut externals = Vec::new();
        for p in &top_module.ports {
            let id = fl.net_id("", &p.name);
            externals.push((id, p.name.clone(), p.dir, p.width));
        }
        fl.visit(top_module, "")?;

        let Flattener {
            nodes,
            mut nets,
            pins,
            ..
        } = fl;
        let externals: Vec<(usize, String, PortDir, u32)> = externals
            .into_iter()
            .map(|(id, name, dir, w)| (nets.find(id), name, dir, w))
            .collect();
        let pins: Vec<(usize, String, usize, u32, PortDir)> = pins
            .into_iter()
            .map(|(node, port, net, w, dir)| (node, port, nets.find(net), w, dir))
            .collect();
        Ok(FlatGraph::build(nodes, pins, externals))
    }
}

struct Flattener<'a> {
    design: &'a Design,
    nodes: Vec<FlatNode>,
    nets: UnionFind,
    net_ids: HashMap<(String, String), usize>,
    pins: Vec<(usize, String, usize, u32, PortDir)>,
    stack: Vec<String>,
}

impl<'a> Flattener<'a> {
    fn net_id(&mut self, ctx: &str, net: &str) -> usize {
        let key = (ctx.to_string(), net.to_string());
        if let Some(&id) = self.net_ids.get(&key) {
            return id;
        }
        let id = self.nets.fresh();
        self.net_ids.insert(key, id);
        id
    }

    fn visit(&mut self, module: &'a ModuleDecl, ctx: &str) -> Result<(), RtlError> {
        if self.stack.iter().any(|m| m == &module.name) {
            return Err(RtlError::RecursiveHierarchy(module.name.clone()));
        }
        self.stack.push(module.name.clone());
        for inst in &module.instances {
            let child = self
                .design
                .modules
                .get(&inst.module)
                .ok_or_else(|| RtlError::UnknownModule(inst.module.clone()))?;
            let child_ctx = if ctx.is_empty() {
                inst.name.clone()
            } else {
                format!("{ctx}/{}", inst.name)
            };
            // Union each connected child port with the enclosing net.
            for (port, net) in &inst.connections {
                let outer = self.net_id(ctx, net);
                let inner = self.net_id(&child_ctx, port);
                self.nets.union(outer, inner);
            }
            if child.is_basic() {
                let node_id = self.nodes.len();
                self.nodes.push(FlatNode {
                    path: child_ctx.clone(),
                    module: child.name.clone(),
                    behavior: child.behavior.clone(),
                });
                for p in &child.ports {
                    let net = self.net_id(&child_ctx, &p.name);
                    self.pins
                        .push((node_id, p.name.clone(), net, p.width, p.dir));
                }
            } else {
                self.visit(child, &child_ctx)?;
            }
        }
        self.stack.pop();
        Ok(())
    }
}

/// Minimal union-find for net aliasing across the hierarchy.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new() -> Self {
        UnionFind { parent: Vec::new() }
    }

    fn fresh(&mut self) -> usize {
        let id = self.parent.len();
        self.parent.push(id);
        id
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[rb] = ra;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{Instance, Port};

    fn pe() -> ModuleDecl {
        ModuleDecl::leaf(
            "pe",
            vec![
                Port::input("a", 16),
                Port::input("b", 16),
                Port::output("y", 16),
            ],
            "mac",
        )
    }

    fn chain_design() -> Design {
        let mut d = Design::new();
        d.add_module(pe()).unwrap();
        let mut top = ModuleDecl::new("top", vec![Port::input("x", 16), Port::output("y", 16)]);
        top.add_wire("t", 16);
        top.add_instance(Instance::new(
            "u0",
            "pe",
            [("a", "x"), ("b", "x"), ("y", "t")],
        ));
        top.add_instance(Instance::new(
            "u1",
            "pe",
            [("a", "t"), ("b", "t"), ("y", "y")],
        ));
        d.add_module(top).unwrap();
        d
    }

    #[test]
    fn add_module_validates_references() {
        let mut d = Design::new();
        let mut top = ModuleDecl::new("top", vec![]);
        top.add_instance(Instance::new("u0", "nope", [] as [(&str, &str); 0]));
        assert_eq!(
            d.add_module(top),
            Err(RtlError::UnknownModule("nope".into()))
        );
    }

    #[test]
    fn add_module_rejects_width_mismatch() {
        let mut d = Design::new();
        d.add_module(pe()).unwrap();
        let mut top = ModuleDecl::new("top", vec![Port::input("x", 8)]);
        top.add_instance(Instance::new("u0", "pe", [("a", "x")]));
        assert!(matches!(
            d.add_module(top),
            Err(RtlError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn add_module_rejects_duplicates() {
        let mut d = Design::new();
        d.add_module(pe()).unwrap();
        assert_eq!(
            d.add_module(pe()),
            Err(RtlError::DuplicateModule("pe".into()))
        );
    }

    #[test]
    fn rejects_self_instantiation() {
        let mut d = Design::new();
        let mut m = ModuleDecl::new("m", vec![]);
        m.add_instance(Instance::new("u", "m", [] as [(&str, &str); 0]));
        assert_eq!(
            d.add_module(m),
            Err(RtlError::RecursiveHierarchy("m".into()))
        );
    }

    #[test]
    fn leaf_count_elaborates_hierarchy() {
        let d = chain_design();
        assert_eq!(d.leaf_instance_count("top").unwrap(), 2);
        assert_eq!(d.leaf_instance_count("pe").unwrap(), 1);
    }

    #[test]
    fn flatten_builds_block_graph() {
        let d = chain_design();
        let g = d.flatten("top").unwrap();
        assert_eq!(g.node_count(), 2);
        // u0.y -> u1.{a,b} share one 16-bit net.
        let e = g.edges_between(crate::NodeId(0), crate::NodeId(1));
        assert_eq!(e, 16);
        // u0 connects to external input x; u1 to external output y.
        assert!(g.node(crate::NodeId(0)).unwrap_or_else(|| panic!()).path == "u0");
        assert!(g.external_inputs_of(crate::NodeId(0)) > 0);
        assert_eq!(g.external_inputs_of(crate::NodeId(1)), 0);
        assert!(g.external_outputs_of(crate::NodeId(1)) > 0);
    }

    #[test]
    fn equivalence_of_identical_structures() {
        let d = chain_design();
        assert!(d.equivalent("pe", "pe").unwrap());
        assert!(!d.equivalent("pe", "top").unwrap());
    }
}
