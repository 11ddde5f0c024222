//! The evaluated system: accelerator instances, compiled mapping database,
//! cluster, and the task service-time model.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};

use vfpga_accel::{
    generate_rtl, leaf_resource_estimator, AcceleratorConfig, CycleSim, TimingModel,
    CONTROL_PATH_MODULE, MOVED_TO_CONTROL, TOP_MODULE,
};
use vfpga_core::{
    decompose, partition, DecomposeOptions, Decomposition, MappingDatabase, PartitionTree,
};
use vfpga_fabric::{Cluster, DeviceType, MemoryKind};
use vfpga_hsabs::{HsCompiler, InterfaceModel};
use vfpga_runtime::{
    run_cloud_sim_tuned, AdmissionTuning, CloudReport, Deployment, Policy, RecoveryPolicy,
    RuntimeError, SystemController,
};
use vfpga_sim::{FaultPlan, LinkParams, SimTime, SpanCtx, SpanTracer, TraceId};
use vfpga_workload::{generate_program, RnnTask, SizeClass, SliceSpec, TaskArrival};

/// Ring link parameters of the custom-built cluster's secondary
/// bidirectional ring: 0.5 us hop latency at 25 Gb/s (a modest SelectIO/
/// Aurora-class side channel, as the primary fabric attachment is PCIe).
pub fn ring_link() -> LinkParams {
    LinkParams::new(SimTime::from_ns(500.0), 25.0)
}

/// One registered accelerator instance.
#[derive(Debug, Clone)]
pub struct InstanceSpec {
    /// The instance configuration.
    pub config: AcceleratorConfig,
    /// Partition iterations performed (supports up to 2^n units).
    pub iterations: usize,
}

/// The evaluated system, ready to drive every experiment.
pub struct Catalog {
    /// The paper's 4-FPGA heterogeneous cluster.
    pub cluster: Cluster,
    /// The compiled mapping database.
    pub db: MappingDatabase,
    /// Registered instances by name.
    pub instances: BTreeMap<String, InstanceSpec>,
    /// Decompositions kept for inspection/benches.
    pub decompositions: BTreeMap<String, Decomposition>,
    /// Partition plans kept for inspection/benches.
    pub plans: BTreeMap<String, PartitionTree>,
    /// [`task_latency`](Catalog::task_latency) memos, one per instance,
    /// indexed by the instance's position in `instances` (which `build`
    /// fills once), so a lookup hashes no name.
    latency_cache: RefCell<Vec<LatencyMemo>>,
}

/// One instance's task latencies, keyed by task, clock bits and
/// boundary crossings.
type LatencyMemo = HashMap<(RnnTask, u64, usize), SimTime>;

/// The weight-storage BFP format of the deployed instances: 6-bit
/// mantissas over blocks of 16 (between BrainWave's ms-fp8 and ms-fp9),
/// chosen so the Table 4 capacity gates land where the paper's do (GRU
/// h=1024 fits the XCKU115 baseline; LSTM h=1536 does not).
pub fn storage_bfp() -> vfpga_isa::BfpFormat {
    vfpga_isa::BfpFormat::new(6, 16)
}

/// The DRAM slots the accelerator actually keeps in its on-chip vector
/// register file across timesteps (hidden and cell state): accesses to
/// them neither pay DRAM latency nor contend with co-tenants.
pub fn scratch_slots() -> Vec<u32> {
    vec![
        vfpga_workload::H_STATE_SLOT,
        vfpga_workload::H_LOCAL_SLOT,
        vfpga_workload::C_LOCAL_SLOT,
    ]
}

/// The two baseline accelerator configurations of Table 2, fitted to fill
/// each device (21 tiles on XCVU37P, 13 on XCKU115).
pub fn baseline_configs() -> Vec<(AcceleratorConfig, DeviceType)> {
    let vu = DeviceType::xcvu37p();
    let ku = DeviceType::xcku115();
    let vu_tiles = vfpga_accel::fit_tiles(&vu, 230 * 1024);
    let ku_tiles = vfpga_accel::fit_tiles(&ku, 56 * 1024);
    vec![
        (
            AcceleratorConfig::new("bw-v37", vu_tiles)
                .with_weight_memory_kb(230 * 1024)
                .with_memory_kind(MemoryKind::Uram)
                .with_bfp(storage_bfp()),
            vu,
        ),
        (
            AcceleratorConfig::new("bw-k115", ku_tiles)
                .with_weight_memory_kb(56 * 1024)
                .with_memory_kind(MemoryKind::Bram)
                .with_bfp(storage_bfp()),
            ku,
        ),
    ]
}

impl Catalog {
    /// Builds the full evaluated system: three instance classes sized for
    /// S/M/L tasks plus the two per-device Table 2 baselines, decomposed,
    /// partitioned (two iterations), and compiled for both device types.
    pub fn build() -> Self {
        Self::build_traced(&mut SpanTracer::disabled())
    }

    /// [`build`](Catalog::build) with span tracing of the offline compile
    /// flow: one `compile` control-plane span per instance (at sim time
    /// zero — compilation happens before the cloud run) with nested
    /// `decompose` and `partition` children carrying the decomposer stats
    /// and partition fan-out. Concatenate this tracer with a run's spans in
    /// [`chrome_trace_events`](vfpga_sim::chrome_trace_events) to see the
    /// whole pipeline in one Perfetto timeline.
    pub fn build_traced(spans: &mut SpanTracer) -> Self {
        let cluster = Cluster::paper_cluster();
        let types = cluster.device_types();
        let compiler = HsCompiler::default();
        let mut db = MappingDatabase::new();
        let mut instances = BTreeMap::new();
        let mut decompositions = BTreeMap::new();
        let mut plans = BTreeMap::new();

        let mut configs: Vec<AcceleratorConfig> = [
            ("bw-s", 4usize, 40u64),
            ("bw-m", 10, 150),
            ("bw-l", 16, 200),
        ]
        .into_iter()
        .map(|(name, tiles, weight_mb)| {
            AcceleratorConfig::new(name, tiles)
                .with_weight_memory_kb(weight_mb * 1024)
                .with_memory_kind(MemoryKind::Uram)
                .with_bfp(storage_bfp())
        })
        .collect();
        configs.extend(baseline_configs().into_iter().map(|(c, _)| c));

        for config in configs {
            let name = config.name.clone();
            let root = spans.begin("compile", TraceId::NONE, None, SimTime::ZERO);
            spans.attr(root, "instance", name.clone());
            let (decomp, plan) = Self::compile_instance(
                &config,
                2,
                Some(SpanCtx {
                    spans,
                    trace: TraceId::NONE,
                    parent: Some(root),
                    at: SimTime::ZERO,
                }),
            );
            spans.end(root, SimTime::ZERO);
            db.register(&name, &decomp, &plan, &types, &compiler, true)
                .expect("catalog instance must compile");
            instances.insert(
                name.clone(),
                InstanceSpec {
                    config,
                    iterations: 2,
                },
            );
            decompositions.insert(name.clone(), decomp);
            plans.insert(name, plan);
        }

        let latency_cache = RefCell::new(instances.keys().map(|_| LatencyMemo::new()).collect());
        Catalog {
            cluster,
            db,
            instances,
            decompositions,
            plans,
            latency_cache,
        }
    }

    /// The baseline system's static provisioning: the accelerator compiled
    /// onto each device offline, sized for the *average* workload mix (one
    /// device per class, the KU115 hosting the small instance it can fit).
    pub fn baseline_provisioning(&self) -> Vec<String> {
        self.cluster
            .device_ids()
            .map(|d| {
                if self.cluster.device(d).device_type().name() == "XCKU115" {
                    "bw-s".to_string()
                } else {
                    match d.0 % 3 {
                        0 => "bw-s".to_string(),
                        1 => "bw-m".to_string(),
                        _ => "bw-l".to_string(),
                    }
                }
            })
            .collect()
    }

    /// The Table 2 baseline instance statically compiled onto a device
    /// type.
    pub fn baseline_instance_name(&self, device_type: &str) -> &'static str {
        match device_type {
            "XCVU37P" => "bw-v37",
            _ => "bw-k115",
        }
    }

    /// Runs the offline mapping flow for one configuration: RTL
    /// generation, decomposition (with the Section 3 modifications), and
    /// partitioning. With a compile-flow `ctx`, the two steps record
    /// zero-duration `decompose` and `partition` spans under it (the
    /// compile happens outside sim time): the top module and the
    /// decomposition's leaf/group counts and fixpoint rounds, then the
    /// iteration count and the plan's maximum unit count.
    pub fn compile_instance(
        config: &AcceleratorConfig,
        iterations: usize,
        ctx: Option<SpanCtx<'_>>,
    ) -> (Decomposition, PartitionTree) {
        let design = generate_rtl(config);
        let mut opts = DecomposeOptions::new(CONTROL_PATH_MODULE);
        opts.move_to_control = MOVED_TO_CONTROL.iter().map(|s| s.to_string()).collect();
        opts.intra_parallelism
            .insert("dpu_array".to_string(), config.rows_per_cycle);
        let est = leaf_resource_estimator(config);
        let decomp =
            decompose(&design, TOP_MODULE, &opts, &est).expect("generated design decomposes");
        let plan = partition(&decomp.tree, iterations);
        if let Some(c) = ctx {
            let stats = &decomp.stats;
            let span = c.spans.begin("decompose", c.trace, c.parent, c.at);
            c.spans.attr(span, "top", TOP_MODULE);
            c.spans.attr(span, "outcome", "ok");
            c.spans.attr(span, "data_leaves", stats.data_leaves);
            c.spans.attr(span, "control_leaves", stats.control_leaves);
            c.spans.attr(span, "data_groups", stats.data_groups);
            c.spans.attr(span, "pipeline_groups", stats.pipeline_groups);
            c.spans.attr(span, "rounds", stats.rounds);
            c.spans.end(span, c.at);
            let span = c.spans.begin("partition", c.trace, c.parent, c.at);
            c.spans.attr(span, "iterations", iterations);
            c.spans.attr(span, "max_units", plan.max_units());
            c.spans.end(span, c.at);
        }
        (decomp, plan)
    }

    /// A system controller over the catalog's cluster and database.
    pub fn controller(&self, policy: Policy) -> SystemController {
        SystemController::new(self.cluster.clone(), self.db.clone(), policy)
    }

    /// Runs the cloud simulation of `arrivals` on `controller`: each task
    /// is served by the catalog's instance class and service-time model
    /// under the controller's policy, and interrupted deployments recover
    /// under the default [`RecoveryPolicy`].
    pub fn simulate(
        &self,
        controller: &mut SystemController,
        arrivals: &[TaskArrival],
        faults: &FaultPlan,
        trace_capacity: usize,
        tuning: AdmissionTuning,
    ) -> Result<CloudReport, RuntimeError> {
        let policy = controller.policy();
        run_cloud_sim_tuned(
            controller,
            arrivals,
            &|task| self.instance_for(task),
            &|task, deployment| self.service_time(task, deployment, policy),
            faults,
            RecoveryPolicy::default(),
            trace_capacity,
            tuning,
        )
    }

    /// The instance class serving a task (by the Table 1 size classes).
    pub fn instance_for(&self, task: &RnnTask) -> &'static str {
        match task.size_class() {
            SizeClass::Small => "bw-s",
            SizeClass::Medium => "bw-m",
            SizeClass::Large => "bw-l",
        }
    }

    /// Single-FPGA inference latency of `task` on `instance`, clocked at
    /// `freq_mhz`, with `crossings` latency-insensitive boundary crossings
    /// on the critical path (0 = the unvirtualized baseline). Memoized.
    pub fn task_latency(
        &self,
        task: &RnnTask,
        instance: &str,
        freq_mhz: f64,
        crossings: usize,
    ) -> SimTime {
        self.latency_of(task, self.resolve(instance), freq_mhz, crossings)
    }

    /// The position of `instance` in `instances`, which orders the names
    /// [`build`](Catalog::build) registers as `bw-k115`, `bw-l`, `bw-m`,
    /// `bw-s`, `bw-v37`.
    ///
    /// # Panics
    ///
    /// Panics for an instance the catalog does not hold.
    fn resolve(&self, instance: &str) -> usize {
        let slot = self.instances.keys().position(|name| name == instance);
        slot.unwrap_or_else(|| panic!("unknown catalog instance {instance:?}"))
    }

    /// The spec at `slot` (see [`resolve`](Catalog::resolve)).
    fn spec(&self, slot: usize) -> &InstanceSpec {
        self.instances.values().nth(slot).expect("a catalog slot")
    }

    /// [`task_latency`](Catalog::task_latency) of the instance at `slot`.
    fn latency_of(&self, task: &RnnTask, slot: usize, freq_mhz: f64, crossings: usize) -> SimTime {
        let key = (*task, freq_mhz.to_bits(), crossings);
        if let Some(&t) = self.latency_cache.borrow()[slot].get(&key) {
            return t;
        }
        let rnn = generate_program(*task, SliceSpec::FULL);
        let mut model = TimingModel::for_config(&self.spec(slot).config, freq_mhz);
        model.mvm_pipeline_depth += InterfaceModel::default().overhead_cycles(crossings);
        let mut sim = CycleSim::new(model, &rnn.program, rnn.mat_shapes, rnn.dram_lens);
        sim.set_scratch_slots(scratch_slots());
        let t = sim.run_local();
        self.latency_cache.borrow_mut()[slot].insert(key, t);
        t
    }

    /// On-chip weight storage a task needs on an instance, in kilobits:
    /// its `2 × gates` matrices ([`RnnTask::matrix_shapes`]) are all
    /// `hidden × hidden`.
    pub fn task_weight_kb(&self, task: &RnnTask, instance: &str) -> u64 {
        weight_kb(task, self.spec(self.resolve(instance)))
    }

    /// The service-time model used by the cloud simulation (Fig. 12): the
    /// cycle-level latency of the task on its instance, adjusted for
    ///
    /// * the deployment's clock (slowest device among its units),
    /// * virtualization crossings (zero under the unvirtualized baseline),
    /// * weight streaming when the task's weights exceed the deployment's
    ///   aggregate on-chip capacity (each deployed unit instantiates the
    ///   parameterized memory module on its own device, so capacity scales
    ///   with the unit count), and
    /// * partially-overlapped inter-FPGA traffic for deployments spanning
    ///   more than one *device* — co-located units exchange state through
    ///   local DRAM and pay no ring cost.
    pub fn service_time(&self, task: &RnnTask, deployment: &Deployment, policy: Policy) -> SimTime {
        // The baseline system runs every task on the accelerator that was
        // statically compiled onto its device offline (the paper's "low
        // elasticity"); the framework runs the demand-sized instance. The
        // slots are `resolve`'s.
        let first = self.cluster.device(deployment.placements[0].device);
        let slot = match (policy, &deployment.installed_instance) {
            (Policy::Baseline, Some(name)) => self.resolve(name),
            (Policy::Baseline, None) if first.device_type().name() == "XCVU37P" => 4,
            (Policy::Baseline, None) => 0,
            _ => match task.size_class() {
                SizeClass::Large => 1,
                SizeClass::Medium => 2,
                SizeClass::Small => 3,
            },
        };
        let spec = self.spec(slot);
        // Effective clock: units on slower devices only slow their own
        // share of the computation.
        let share_total: f64 = deployment.placements.iter().map(|p| p.compute_share).sum();
        let freq = if share_total > 0.0 {
            deployment
                .placements
                .iter()
                .map(|p| self.cluster.device(p.device).device_type().freq_mhz() * p.compute_share)
                .sum::<f64>()
                / share_total
        } else {
            first.device_type().freq_mhz()
        };
        let crossings = if policy == Policy::Baseline {
            0
        } else {
            deployment.crossings_per_op
        };
        let freq = (freq * 10.0).round() / 10.0;
        let base = self.latency_of(task, slot, freq, crossings);

        // Weight-streaming penalty on capacity deficit.
        let needed = weight_kb(task, spec) as f64;
        let capacity = (spec.config.weight_memory_kb * deployment.num_units() as u64) as f64;
        let stream_factor = if needed <= capacity {
            1.0
        } else {
            1.0 + 3.0 * (needed - capacity) / needed
        };
        let mut total = SimTime::from_secs(base.as_secs() * stream_factor);

        // Inter-FPGA traffic for deployments spanning distinct devices:
        // cut bandwidth per timestep over the ring, half hidden by the
        // overlap optimization. Gated on the device count, not the unit
        // count — a 2-unit deployment packed onto one FPGA has
        // `max_ring_hops == 0` and its inter-unit state never leaves the
        // device.
        if deployment.num_devices() > 1 {
            let link = ring_link();
            let per_step = link.serialization_time(deployment.cut_bandwidth.div_ceil(8))
                + SimTime::from_ns(link.latency.as_ns() * deployment.max_ring_hops as f64);
            let visible = 0.5 * per_step.as_secs() * task.timesteps as f64;
            total += SimTime::from_secs(visible);
        }
        total
    }
}

/// [`Catalog::task_weight_kb`] on a resolved instance.
fn weight_kb(task: &RnnTask, spec: &InstanceSpec) -> u64 {
    2 * task.kind.gates() as u64 * spec.config.matrix_storage_kb(task.hidden, task.hidden)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfpga_sim::SpanValue;

    #[test]
    fn task_weight_closed_form_matches_the_matrix_sum() {
        use vfpga_workload::{deepbench_tasks, RnnKind};
        let c = Catalog::build();
        let mut hiddens: Vec<usize> = deepbench_tasks().iter().map(|t| t.hidden).collect();
        hiddens.sort_unstable();
        hiddens.dedup();
        for kind in [RnnKind::Gru, RnnKind::Lstm] {
            for &hidden in &hiddens {
                let task = RnnTask::new(kind, hidden, 1);
                for (name, spec) in &c.instances {
                    let summed: u64 = task
                        .matrix_shapes()
                        .iter()
                        .map(|&(r, cols)| spec.config.matrix_storage_kb(r, cols))
                        .sum();
                    assert_eq!(c.task_weight_kb(&task, name), summed, "{task} on {name}");
                }
            }
        }
    }

    #[test]
    fn service_time_slots_are_the_resolved_names() {
        use vfpga_workload::RnnKind;
        let c = Catalog::build();
        let names: Vec<&str> = c.instances.keys().map(String::as_str).collect();
        assert_eq!(names, ["bw-k115", "bw-l", "bw-m", "bw-s", "bw-v37"]);
        // The class and device-type slots `service_time` matches on.
        for (hidden, slot) in [(512, 3), (1536, 2), (2560, 1)] {
            let task = RnnTask::new(RnnKind::Gru, hidden, 1);
            assert_eq!(c.resolve(c.instance_for(&task)), slot, "{task}");
        }
        assert_eq!(c.resolve(c.baseline_instance_name("XCVU37P")), 4);
        assert_eq!(c.resolve(c.baseline_instance_name("XCKU115")), 0);
    }

    #[test]
    fn catalog_builds_with_three_classes() {
        let c = Catalog::build();
        assert_eq!(c.instances.len(), 5);
        for name in ["bw-s", "bw-m", "bw-l"] {
            let entry = c.db.entry(name).unwrap();
            assert!(!entry.options.is_empty(), "{name} has options");
        }
    }

    #[test]
    fn build_traced_records_one_compile_span_per_instance() {
        let mut spans = SpanTracer::new();
        let c = Catalog::build_traced(&mut spans);
        let compiles: Vec<_> = spans
            .spans()
            .iter()
            .filter(|s| s.name == "compile")
            .collect();
        assert_eq!(compiles.len(), c.instances.len());
        for root in &compiles {
            let children: Vec<_> = spans
                .spans()
                .iter()
                .filter(|s| s.parent == Some(root.id))
                .collect();
            let names: Vec<_> = children.iter().map(|s| s.name).collect();
            assert_eq!(names, ["decompose", "partition"], "in compile order");
            let (decompose, partition) = (children[0], children[1]);
            assert!(decompose.attr_is("top", TOP_MODULE));
            assert!(decompose.attr_is("outcome", "ok"));
            for stat in ["data_leaves", "control_leaves", "data_groups", "rounds"] {
                assert!(matches!(decompose.attr(stat), Some(SpanValue::U64(n)) if *n > 0));
            }
            assert!(matches!(
                decompose.attr("pipeline_groups"),
                Some(SpanValue::U64(_))
            ));
            assert!(matches!(
                partition.attr("iterations"),
                Some(SpanValue::U64(2))
            ));
            let instance = match root.attr("instance") {
                Some(SpanValue::Text(name)) => name,
                other => panic!("compile span without instance: {other:?}"),
            };
            let max_units = c.plans[instance].max_units() as u64;
            assert!(matches!(
                partition.attr("max_units"),
                Some(SpanValue::U64(n)) if *n == max_units
            ));
        }
        assert_eq!(spans.open_count(), 0);
    }

    #[test]
    fn small_instance_fits_single_fpga_large_does_not_fit_ku115() {
        let c = Catalog::build();
        let s = c.db.entry("bw-s").unwrap();
        let one = s.options.iter().find(|o| o.num_units() == 1).unwrap();
        assert!(one.units[0].images.contains_key("XCVU37P"));
        // The large instance's single-unit option cannot fit the KU115.
        let l = c.db.entry("bw-l").unwrap();
        let one_l = l.options.iter().find(|o| o.num_units() == 1).unwrap();
        assert!(!one_l.units[0].images.contains_key("XCKU115"));
        assert!(one_l.units[0].images.contains_key("XCVU37P"));
    }

    #[test]
    fn colocated_units_pay_no_ring_penalty() {
        use vfpga_fabric::DeviceId;
        use vfpga_runtime::{DeploymentId, Placement};
        use vfpga_workload::RnnKind;

        let c = Catalog::build();
        // A small task whose weights fit a single bw-s unit, so the
        // streaming factor is 1.0 in every variant below and service time
        // differs only through the ring term.
        let task = RnnTask::new(RnnKind::Gru, 512, 64);
        let dev = DeviceId(0);
        let make = |placements: Vec<Placement>, hops: usize| Deployment {
            id: DeploymentId(0),
            installed_instance: None,
            placements,
            crossings_per_op: 2,
            cut_bandwidth: 4096,
            max_ring_hops: hops,
        };
        let unit = |device: DeviceId, share: f64| Placement {
            device,
            compute_share: share,
        };
        let single = make(vec![unit(dev, 1.0)], 0);
        let colocated = make(vec![unit(dev, 0.5), unit(dev, 0.5)], 0);
        // Regression: the ring penalty used to be gated on num_units() > 1,
        // so two units packed onto ONE device were charged phantom ring
        // serialization even with max_ring_hops == 0.
        let t_single = c.service_time(&task, &single, Policy::Full);
        let t_colocated = c.service_time(&task, &colocated, Policy::Full);
        assert_eq!(
            t_single, t_colocated,
            "co-located units must match equivalent single-unit capacity"
        );
        // Spanning two distinct same-type devices does pay the ring.
        let mut same_type = None;
        let ids: Vec<DeviceId> = c.cluster.device_ids().collect();
        'outer: for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                if c.cluster.device(a).device_type().name()
                    == c.cluster.device(b).device_type().name()
                {
                    same_type = Some((a, b));
                    break 'outer;
                }
            }
        }
        let (a, b) = same_type.expect("paper cluster has a same-type pair");
        let hops = c.cluster.ring_hops(a, b);
        let spread = make(vec![unit(a, 0.5), unit(b, 0.5)], hops);
        let t_spread = c.service_time(&task, &spread, Policy::Full);
        assert!(
            t_spread > t_colocated,
            "distinct devices must pay the ring: {t_spread:?} vs {t_colocated:?}"
        );
    }

    #[test]
    fn latency_grows_with_model_and_shrinks_with_frequency() {
        use vfpga_workload::RnnKind;
        let c = Catalog::build();
        let small = RnnTask::new(RnnKind::Gru, 512, 8);
        let large = RnnTask::new(RnnKind::Gru, 1536, 8);
        let a = c.task_latency(&small, "bw-s", 400.0, 0);
        let b = c.task_latency(&large, "bw-m", 400.0, 0);
        assert!(b > a);
        let slow = c.task_latency(&small, "bw-s", 300.0, 0);
        assert!(slow > a);
    }

    #[test]
    fn virtualization_overhead_is_single_digit_percent() {
        use vfpga_workload::RnnKind;
        let c = Catalog::build();
        for task in [
            RnnTask::new(RnnKind::Gru, 1024, 32),
            RnnTask::new(RnnKind::Lstm, 512, 25),
        ] {
            let name = c.instance_for(&task);
            let base = c.task_latency(&task, name, 400.0, 0);
            let virt = c.task_latency(&task, name, 400.0, vfpga_core::PATTERN_AWARE_CROSSINGS);
            let overhead = (virt.as_secs() - base.as_secs()) / base.as_secs();
            assert!(
                (0.005..0.12).contains(&overhead),
                "{task}: overhead {overhead}"
            );
        }
    }
}
