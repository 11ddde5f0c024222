//! `vfpga-perf`: the repository's benchmark.
//!
//! One command runs one workload for a fixed host-time budget, checks the
//! stack's outputs, and prints every metric by name with its unit; see
//! `README.md` next to this crate for the workloads, the metrics and how
//! their bounds were measured. The library half holds everything but the
//! command line, so the smoke test can run workloads at a tiny scale.

pub mod alloc;
pub mod cloud;
pub mod compare;
pub mod inputs;
pub mod offline;
pub mod probe;
pub mod run;

pub use run::{run, Outcome, RunConfig};

/// One named measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value, with all its digits.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// One correctness check and its verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// `Err` carries what went wrong.
    pub outcome: Result<(), String>,
}

impl Check {
    /// A check that passes when `ok`, failing with `detail` otherwise.
    pub fn new(name: &'static str, ok: bool, detail: impl FnOnce() -> String) -> Self {
        Check {
            name,
            outcome: if ok { Ok(()) } else { Err(detail()) },
        }
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Saturated cloud admission: the backlog dominates.
    Saturated,
    /// Bursty cloud load under device and link faults with elasticity on.
    ChaosElastic,
    /// Moderate cloud load with spans, monitor and exporters on.
    Observed,
    /// The offline toolchain and the Fig. 11 scale-out co-simulation.
    Offline,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Saturated,
        Workload::ChaosElastic,
        Workload::Observed,
        Workload::Offline,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Saturated => "saturated",
            Workload::ChaosElastic => "chaos_elastic",
            Workload::Observed => "observed",
            Workload::Offline => "offline",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Scale::FULL`] is the benchmark; smaller scales exist for
/// the smoke test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Overrides every cloud workload's task count.
    pub cloud_tasks: Option<usize>,
    /// Accelerator configs per toolchain pass (tiles `1..=configs`).
    pub configs: usize,
    /// Toolchain passes per offline round.
    pub toolchain_passes: usize,
    /// Overrides the timesteps of the co-simulated Fig. 11 tasks.
    pub cosim_timesteps: Option<usize>,
}

impl Scale {
    /// The benchmark's sizes.
    pub const FULL: Scale = Scale {
        cloud_tasks: None,
        configs: 21,
        toolchain_passes: 5,
        cosim_timesteps: None,
    };
}

/// The end-to-end metrics every run reports, with their units.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("host_items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Whether a per-layer metric is derived from host time, and so only
/// meaningful in a traced run: the shares, the host rate and the trace's
/// wall time and overhead.
pub fn host_timed(name: &str) -> bool {
    name.ends_with(".self_share")
        || name.ends_with("_per_host_s")
        || matches!(name, "trace.wall_s" | "trace.overhead_ratio")
}

/// Allocation counters that do not repeat exactly between two runs of one
/// seed: the code they count keeps `HashMap`s and `HashSet`s, whose
/// allocations follow the per-process random hash seed (whether a full
/// table grows or rehashes in place depends on where keys landed). They
/// move by a few allocations in millions; every other counter repeats
/// exactly.
pub const HOST_NOISE: [&str; 3] = [
    "cloudsim.allocs",
    "cloudsim.alloc_bytes",
    "core.decompose.allocs",
];

/// The per-layer metrics every traced run reports, with their units.
/// Layers a workload bypasses report zero. Host time is reported as each
/// layer's share of the traced rounds' wall time (`*.self_share`), so the
/// shares of one run sum to one; `trace.wall_s` turns them into seconds.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("controller.probes", "count"),
    ("controller.cache_hits", "count"),
    ("controller.deploys", "count"),
    ("controller.releases", "count"),
    ("controller.rejects", "count"),
    ("controller.useful_ratio", "ratio"),
    ("cloudsim.instance_for.calls", "count"),
    ("cloudsim.service_time.calls", "count"),
    ("cloudsim.peak_queue_depth", "count"),
    ("cloudsim.allocs", "count"),
    ("cloudsim.alloc_bytes", "bytes"),
    ("cloudsim.interrupted", "count"),
    ("cloudsim.migrated", "count"),
    ("cloudsim.redeployments", "count"),
    ("cloudsim.requeued", "count"),
    ("cloudsim.promotions", "count"),
    ("cloudsim.preemptions", "count"),
    ("link.retransmits", "count"),
    ("link.reroutes", "count"),
    ("link.severed", "count"),
    ("span.count", "count"),
    ("trace.dropped", "count"),
    ("monitor.windows", "count"),
    ("export.bytes", "bytes"),
    ("export.allocs", "count"),
    ("cloudsim.queue_wait_p50_ms", "sim_ms"),
    ("cloudsim.queue_wait_p99_ms", "sim_ms"),
    ("cloudsim.mean_occupancy", "fraction"),
    ("cloudsim.sim_throughput_tasks_per_s", "tasks/sim_s"),
    ("cloudsim.sim_latency_p50_ms", "sim_ms"),
    ("cloudsim.sim_latency_p99_ms", "sim_ms"),
    ("rtl.generate.allocs", "count"),
    ("rtl.write.allocs", "count"),
    ("rtl.parse.allocs", "count"),
    ("core.decompose.allocs", "count"),
    ("core.partition.allocs", "count"),
    ("core.register.allocs", "count"),
    ("core.register.options", "count"),
    ("workload.codegen.allocs", "count"),
    ("core.scaleout.allocs", "count"),
    ("isa.encode.allocs", "count"),
    ("isa.encode.bytes", "bytes"),
    ("scaleout_sim.timing.allocs", "count"),
    ("scaleout_sim.poll_rounds", "count"),
    ("scaleout_sim.messages", "count"),
    ("scaleout_sim.bytes_on_wire", "bytes"),
    ("accel.cyclesim.insts", "count"),
    ("cloudsim.self_share", "fraction"),
    ("cloudsim.instance_for.self_share", "fraction"),
    ("cloudsim.service_time.self_share", "fraction"),
    ("export.report_json.self_share", "fraction"),
    ("export.chrome_trace.self_share", "fraction"),
    ("export.prometheus.self_share", "fraction"),
    ("rtl.generate.self_share", "fraction"),
    ("rtl.write.self_share", "fraction"),
    ("rtl.parse.self_share", "fraction"),
    ("core.decompose.self_share", "fraction"),
    ("core.partition.self_share", "fraction"),
    ("core.register.self_share", "fraction"),
    ("workload.codegen.self_share", "fraction"),
    ("core.scaleout.insert.self_share", "fraction"),
    ("core.scaleout.reorder.self_share", "fraction"),
    ("isa.encode.self_share", "fraction"),
    ("scaleout_sim.timing.self_share", "fraction"),
    ("bench.self_share", "fraction"),
    ("trace.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("accel.cyclesim.insts_per_host_s", "1/s"),
];
