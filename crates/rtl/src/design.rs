//! A design: a set of modules, validation, and hierarchy flattening.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::Range;

use crate::graph::{BlockGraph, BlockNode, Pin};
use crate::module::ModuleDecl;
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

    /// Flattens the hierarchy under `top` into the paper's *block graph*:
    /// a graph whose nodes are basic-module instances and whose weighted
    /// edges are the bit widths of the nets connecting them, on dense
    /// `u32` ids, with module and behavior names borrowed from this design
    /// and all paths in one string. Every buffer is sized from a first
    /// pass over the module hierarchy, so flattening makes a fixed number
    /// of allocations however many instances it elaborates.
    ///
    /// # Errors
    ///
    /// Returns an error if `top` or any referenced module is unknown, if
    /// the hierarchy is recursive, or if it elaborates to more than
    /// `u32::MAX` nets, basic-module instances, pins or path bytes.
    pub fn block_graph(&self, top: &str) -> Result<BlockGraph<'_>, RtlError> {
        let top_module = self
            .modules
            .get(top)
            .ok_or_else(|| RtlError::UnknownModule(top.to_string()))?;

        let mut plans = Plans::new(self);
        let top_plan = plans.plan(self, top_module)?;
        let size = plans.plans[top_plan].size;
        if [size.nets, size.leaves, size.pins, size.path_bytes]
            .iter()
            .any(|&n| u32::try_from(n).is_err())
        {
            return Err(RtlError::HierarchyTooLarge(top.to_string()));
        }
        let mut fl = Flattener {
            plans: &plans,
            nodes: Vec::with_capacity(size.leaves),
            paths: String::with_capacity(size.path_bytes),
            nets: UnionFind::with_capacity(size.nets),
            pins: Vec::with_capacity(size.pins),
        };
        let base = fl.nets.fresh_block(plans.plans[top_plan].nets);
        fl.visit(top_plan, base, None);

        let Flattener {
            nodes,
            paths,
            mut nets,
            mut pins,
            ..
        } = fl;
        for pin in &mut pins {
            pin.net = nets.find(pin.net);
        }
        Ok(BlockGraph::build(nodes, paths, &pins, size.nets))
    }
}

/// How one module flattens, resolved once per module rather than once per
/// instance: its nets are numbered locally (ports in declaration order,
/// then wires in name order), and each instance's connections are pairs
/// of (child port index, local net index).
struct ModulePlan<'a> {
    module: &'a ModuleDecl,
    /// Local nets: ports plus wires.
    nets: usize,
    /// This module's instances in [`Plans::instances`].
    instances: Range<usize>,
    /// Totals over the hierarchy elaborated under this module.
    size: FlatSize,
}

/// What flattening a module produces, for sizing the flattener's buffers.
#[derive(Debug, Clone, Copy, Default)]
struct FlatSize {
    /// Nets numbered: the module's own plus every instance's below it.
    nets: usize,
    /// Basic-module instances.
    leaves: usize,
    /// Ports of those instances.
    pins: usize,
    /// Bytes of their paths relative to the module.
    path_bytes: usize,
}

struct InstancePlan<'a> {
    name: &'a str,
    /// Index of the instantiated module's plan.
    child: usize,
    /// This instance's connections in [`Plans::connections`].
    connections: Range<usize>,
}

/// The plans of every module reachable from the flattened top, in flat
/// arrays.
struct Plans<'a> {
    plans: Vec<ModulePlan<'a>>,
    instances: Vec<InstancePlan<'a>>,
    /// `(child port, local net)` per connection.
    connections: Vec<(usize, usize)>,
    /// Plan index per planned module; [`Plans::PLANNING`] while its
    /// children are being planned, to reject recursive hierarchies.
    index: HashMap<&'a str, usize>,
    /// Reused per module: the local net index of each of its names.
    local: HashMap<&'a str, usize>,
}

impl<'a> Plans<'a> {
    const PLANNING: usize = usize::MAX;

    /// Empty plans with room for every module of `design`.
    fn new(design: &Design) -> Self {
        let modules = design.modules.values();
        let instances = modules.clone().map(|m| m.instances.len()).sum();
        let connections = modules
            .clone()
            .flat_map(|m| &m.instances)
            .map(|i| i.connections.len())
            .sum();
        let nets = modules.map(|m| m.ports.len() + m.wires.len()).max();
        Plans {
            plans: Vec::with_capacity(design.len()),
            instances: Vec::with_capacity(instances),
            connections: Vec::with_capacity(connections),
            index: HashMap::with_capacity(design.len()),
            local: HashMap::with_capacity(nets.unwrap_or(0)),
        }
    }

    /// Plans `module` and everything under it; returns its plan's index.
    fn plan(&mut self, design: &'a Design, module: &'a ModuleDecl) -> Result<usize, RtlError> {
        match self.index.get(module.name.as_str()) {
            Some(&Self::PLANNING) => return Err(RtlError::RecursiveHierarchy(module.name.clone())),
            Some(&i) => return Ok(i),
            None => {}
        }
        // Children first, so this module's instances are contiguous.
        self.index.insert(&module.name, Self::PLANNING);
        for inst in &module.instances {
            let child = design
                .modules
                .get(&inst.module)
                .ok_or_else(|| RtlError::UnknownModule(inst.module.clone()))?;
            self.plan(design, child)?;
        }

        self.local.clear();
        let names = module.ports.iter().map(|p| p.name.as_str());
        let names = names.chain(module.wires.keys().map(String::as_str));
        for (i, name) in names.enumerate() {
            self.local.insert(name, i);
        }
        let nets = module.ports.len() + module.wires.len();
        let mut size = FlatSize {
            nets,
            ..FlatSize::default()
        };
        let first_instance = self.instances.len();
        for inst in &module.instances {
            let child = self.index[inst.module.as_str()];
            let child_plan = &self.plans[child];
            let child_module = child_plan.module;
            let first = self.connections.len();
            for (port, net) in &inst.connections {
                let p = child_module
                    .ports
                    .iter()
                    .position(|p| &p.name == port)
                    .ok_or_else(|| RtlError::UnknownPort {
                        module: child_module.name.clone(),
                        port: port.clone(),
                    })?;
                let n = *self
                    .local
                    .get(net.as_str())
                    .ok_or_else(|| RtlError::UnknownNet {
                        module: module.name.clone(),
                        net: net.clone(),
                    })?;
                self.connections.push((p, n));
            }
            // Saturating: a deep enough hierarchy elaborates to more than
            // memory holds, which the flattener rejects before allocating.
            let below = child_plan.size;
            let (leaves, pins, path_bytes) = if child_module.is_basic() {
                (1, child_module.ports.len(), inst.name.len())
            } else {
                let prefixes = below.leaves.saturating_mul(inst.name.len() + 1);
                (
                    below.leaves,
                    below.pins,
                    prefixes.saturating_add(below.path_bytes),
                )
            };
            size.nets = size.nets.saturating_add(below.nets);
            size.leaves = size.leaves.saturating_add(leaves);
            size.pins = size.pins.saturating_add(pins);
            size.path_bytes = size.path_bytes.saturating_add(path_bytes);
            self.instances.push(InstancePlan {
                name: &inst.name,
                child,
                connections: first..self.connections.len(),
            });
        }
        let i = self.plans.len();
        self.plans.push(ModulePlan {
            module,
            nets,
            instances: first_instance..self.instances.len(),
            size,
        });
        self.index.insert(&module.name, i);
        Ok(i)
    }
}

/// The chain of instance names from the flattened top down to the module
/// being visited; each link lives on the stack of the visit that made it.
struct Scope<'s> {
    name: &'s str,
    parent: Option<&'s Scope<'s>>,
}

impl Scope<'_> {
    /// Appends `a/b/.../name/` for this scope.
    fn write(&self, out: &mut String) {
        if let Some(parent) = self.parent {
            parent.write(out);
        }
        out.push_str(self.name);
        out.push('/');
    }
}

/// Walks the planned hierarchy once, numbering every net and recording
/// every basic-module pin. Each visited instance takes a fresh block of
/// net ids, one per local net of its module, so a net's id is its
/// context's base plus its local index.
struct Flattener<'p, 'a> {
    plans: &'p Plans<'a>,
    nodes: Vec<BlockNode<'a>>,
    paths: String,
    nets: UnionFind,
    pins: Vec<Pin>,
}

impl<'a> Flattener<'_, 'a> {
    fn visit(&mut self, plan: usize, base: u32, scope: Option<&Scope<'_>>) {
        let plans = self.plans;
        for inst in &plans.instances[plans.plans[plan].instances.clone()] {
            let child = &plans.plans[inst.child];
            let child_base = self.nets.fresh_block(child.nets);
            // Union each connected child port with the enclosing net.
            for &(port, net) in &plans.connections[inst.connections.clone()] {
                self.nets.union(base + net as u32, child_base + port as u32);
            }
            let module: &'a ModuleDecl = child.module;
            if module.is_basic() {
                let node = self.nodes.len() as u32;
                for (j, p) in module.ports.iter().enumerate() {
                    self.pins.push(Pin {
                        net: child_base + j as u32,
                        dir: p.dir,
                        node,
                        width: p.width,
                    });
                }
                if let Some(scope) = scope {
                    scope.write(&mut self.paths);
                }
                self.paths.push_str(inst.name);
                self.nodes.push(BlockNode::new(
                    &module.name,
                    module.behavior.as_deref(),
                    self.paths.len(),
                ));
            } else {
                let inner = Scope {
                    name: inst.name,
                    parent: scope,
                };
                self.visit(inst.child, child_base, Some(&inner));
            }
        }
    }
}

/// Minimal union-find for net aliasing across the hierarchy.
struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn with_capacity(nets: usize) -> Self {
        UnionFind {
            parent: Vec::with_capacity(nets),
        }
    }

    /// Adds `count` singleton sets; returns the first one's id.
    fn fresh_block(&mut self, count: usize) -> u32 {
        let first = self.parent.len() as u32;
        self.parent.extend(first..first + count as u32);
        first
    }

    fn find(&mut self, x: u32) -> u32 {
        let parent = self.parent[x as usize];
        if parent != x {
            let root = self.find(parent);
            self.parent[x as usize] = root;
        }
        self.parent[x as usize]
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[rb as usize] = ra;
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
    fn block_graph_of_a_chain() {
        let d = chain_design();
        let g = d.block_graph("top").unwrap();
        assert_eq!(g.node_count(), 2);
        // u0.y -> u1.{a,b} share one 16-bit net.
        let e = g.edges();
        assert_eq!(e.len(), 1);
        assert_eq!((e[0].from, e[0].to, e[0].width), (0, 1, 16));
        assert_eq!(g.node(0).path, "u0");
        assert_eq!((g.node(1).module, g.node(1).behavior), ("pe", Some("mac")));
    }

    #[test]
    fn exponential_hierarchy_is_rejected_before_allocating() {
        // Each level instantiates the one below twice: 2^64 leaves.
        let mut d = Design::new();
        d.add_module(pe()).unwrap();
        for level in 1..=64 {
            let below = if level == 1 {
                "pe".to_string()
            } else {
                format!("l{}", level - 1)
            };
            let mut m = ModuleDecl::new(format!("l{level}"), vec![]);
            m.add_instance(Instance::new("a", below.as_str(), [] as [(&str, &str); 0]));
            m.add_instance(Instance::new("b", below.as_str(), [] as [(&str, &str); 0]));
            d.add_module(m).unwrap();
        }
        assert_eq!(
            d.block_graph("l64").unwrap_err(),
            RtlError::HierarchyTooLarge("l64".into())
        );
    }

    #[test]
    fn equivalence_of_identical_structures() {
        let d = chain_design();
        assert!(d.equivalent("pe", "pe").unwrap());
        assert!(!d.equivalent("pe", "top").unwrap());
    }
}
