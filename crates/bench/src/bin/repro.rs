//! Regenerates every table and figure of the paper's evaluation section.
//!
//! ```text
//! cargo run --release -p vfpga-bench --bin repro -- [EXPERIMENT|all] [--json PATH] [--seed N] [--cases N] [--oracle NAME] [--replay PATH]
//! ```
//!
//! Every experiment is one row of the `EXPERIMENTS` table, which also
//! generates the usage line (an unknown name or option prints it). `all`
//! runs the rows without an artifact of their own — Tables 2–4, Fig. 11,
//! Fig. 12, §4.3 overhead, the ablations, code density, §4.4 isolation and
//! the chaos scenario — and writes the sections of Fig. 11, Fig. 12 and
//! chaos (throughput, latency percentiles, occupancy series, rejection
//! reasons, recovery accounting) to `target/repro-metrics.json`.
//!
//! The other rows are opt-in scenarios with an artifact of their own:
//! `trace` (a Perfetto-loadable span trace with its critical path, plus a
//! `.prom` metrics sidecar), `bench` (admission fast path vs. baseline),
//! `elastic` (elastic reprovisioning on vs. off), `netchaos` (the chaos
//! scenario with link waves, [`ChaosConfig::with_links`]), `monitor`
//! (SLO burn-rate alerting, plus a `.prom` rollup sidecar) and `fuzz`
//! (differential fuzzing; `--cases` per oracle, `--oracle` to pick one,
//! `--replay` to re-run a shrunk reproducer from `target/fuzz-failures/`).
//! Each scenario checks itself and exits non-zero when a gate fails
//! rather than write an artifact that records a broken run as fine.
//! EXPERIMENTS.md describes every experiment and its gates.
//!
//! `--json PATH` redirects the artifact; `--seed N` re-seeds the
//! scenarios (default 2024). Artifacts are byte-identical across
//! same-seed runs, apart from the wall-clock fields of `bench` and
//! `elastic`.

use vfpga_bench::chaos::{self, ChaosConfig};
use vfpga_bench::{
    ablations, admission, catalog::Catalog, density, elastic, fig11, fig12, isolation, monitor,
    overhead, tables,
};
use vfpga_sim::{chrome_trace_events, prometheus_text, Json, SpanTracer};
use vfpga_workload::fig11_tasks;

/// One `repro` experiment.
struct Experiment {
    /// The command-line name.
    name: &'static str,
    /// Default path of the experiment's own artifact; `None` for the
    /// experiments `all` runs, which share the metrics artifact.
    artifact: Option<&'static str>,
    /// Prints the experiment and returns its artifact: the whole root for
    /// an experiment with its own artifact, its section of the metrics
    /// artifact otherwise (`None` when there is nothing to write).
    run: fn(&Opts) -> Option<Json>,
}

/// Every experiment, in the order `all` runs them.
#[rustfmt::skip]
const EXPERIMENTS: &[Experiment] = &[
    Experiment { name: "table2", artifact: None, run: print_table2 },
    Experiment { name: "table3", artifact: None, run: print_table3 },
    Experiment { name: "table4", artifact: None, run: print_table4 },
    Experiment { name: "fig11", artifact: None, run: print_fig11 },
    Experiment { name: "fig12", artifact: None, run: print_fig12 },
    Experiment { name: "overhead", artifact: None, run: print_overhead },
    Experiment { name: "ablations", artifact: None, run: print_ablations },
    Experiment { name: "density", artifact: None, run: print_density },
    Experiment { name: "isolation", artifact: None, run: print_isolation },
    Experiment { name: "chaos", artifact: None, run: |o| Some(print_chaos(o, ChaosConfig::default())) },
    Experiment { name: "trace", artifact: Some("target/repro-trace.json"), run: print_trace },
    Experiment { name: "bench", artifact: Some("target/BENCH_admission.json"), run: print_bench },
    Experiment { name: "elastic", artifact: Some("target/BENCH_elastic.json"), run: print_elastic },
    Experiment {
        name: "netchaos",
        artifact: Some("target/repro-netchaos.json"),
        run: |o| Some(envelope(&o.experiment).with(&o.experiment, print_chaos(o, ChaosConfig::with_links()))),
    },
    Experiment { name: "monitor", artifact: Some("target/repro-monitor.json"), run: print_monitor },
    Experiment { name: "fuzz", artifact: Some("target/repro-fuzz.json"), run: print_fuzz },
];

/// The metrics artifact the experiments without their own artifact share.
const METRICS_ARTIFACT: &str = "target/repro-metrics.json";

/// Where the `fuzz` experiment writes shrunk reproducers.
const FUZZ_FAILURE_DIR: &str = "target/fuzz-failures";

/// Default fuzzing budget per oracle.
const DEFAULT_FUZZ_CASES: usize = 200;

/// Regression ceiling on the bench's `deploy_attempts_per_admission`
/// (worst scenario, shipped configuration). The current fast path lands
/// well under this; `repro bench` (and CI's bench job) fails when a
/// change pushes the admission hot loop back above it.
const ATTEMPTS_PER_ADMISSION_CEILING: f64 = 8.0;

/// Version of the artifact layout, shared with the fuzz summary. Bump it
/// (and CI's schema greps) when an artifact's shape changes
/// incompatibly; DESIGN.md §5b records what each version added.
const ARTIFACT_SCHEMA_VERSION: u64 = 8;

const _: () = assert!(
    vfpga_fuzz::FUZZ_SCHEMA_VERSION == ARTIFACT_SCHEMA_VERSION,
    "fuzz and repro artifact schemas must move together"
);

/// The parsed command line an experiment runs with.
struct Opts {
    /// The experiment asked for (`all` or one row's name).
    experiment: String,
    /// Where the artifact goes.
    json: String,
    seed: u64,
    cases: usize,
    oracle: Option<String>,
    replay: Option<String>,
}

fn main() {
    let mut which: Option<String> = None;
    let mut json: Option<String> = None;
    let mut opts = Opts {
        experiment: String::new(),
        json: String::new(),
        seed: 2024,
        cases: DEFAULT_FUZZ_CASES,
        oracle: None,
        replay: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = Some(value(&mut args, &arg, "a path")),
            "--seed" => opts.seed = value(&mut args, &arg, "an integer"),
            "--cases" => opts.cases = value(&mut args, &arg, "an integer"),
            "--oracle" => opts.oracle = Some(value(&mut args, &arg, "a name")),
            "--replay" => opts.replay = Some(value(&mut args, &arg, "a path")),
            flag if flag.starts_with('-') => usage_error(&format!("unknown option `{flag}`")),
            name => {
                if let Some(first) = which.replace(name.to_string()) {
                    usage_error(&format!("more than one experiment: `{first}` and `{name}`"));
                }
            }
        }
    }
    let which = which.unwrap_or_else(|| "all".to_string());
    let rows: Vec<&Experiment> = EXPERIMENTS
        .iter()
        .filter(|e| match which.as_str() {
            "all" => e.artifact.is_none(),
            name => e.name == name,
        })
        .collect();
    if rows.is_empty() {
        usage_error(&format!("unknown experiment `{which}`"));
    }
    // `all` starts with a row that has no artifact of its own, so it
    // defaults to the metrics artifact.
    opts.json = json.unwrap_or_else(|| rows[0].artifact.unwrap_or(METRICS_ARTIFACT).to_string());
    opts.experiment = which;
    let mut sections = Vec::new();
    for row in rows {
        match ((row.run)(&opts), row.artifact) {
            (Some(root), Some(_)) => write_checked(&opts.json, &root, row.name),
            (Some(section), None) => sections.push((row.name, section)),
            (None, _) => {}
        }
    }
    if !sections.is_empty() {
        let root = sections
            .into_iter()
            .fold(envelope(&opts.experiment), |root, (key, section)| {
                root.with(key, section)
            });
        write_checked(&opts.json, &root, "metrics");
    }
}

/// The parsed value following option `flag`; exits with the usage when it
/// is missing or malformed.
fn value<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> T {
    args.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage_error(&format!("{flag} requires {what}")))
}

/// Reports a command-line problem with the usage line and exits 2.
fn usage_error(problem: &str) -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    eprintln!("{problem}");
    eprintln!(
        "usage: repro [{}|all] [--json PATH] [--seed N] [--cases N] [--oracle NAME] [--replay PATH]",
        names.join("|")
    );
    std::process::exit(2);
}

/// The root every artifact starts from.
fn envelope(experiment: &str) -> Json {
    Json::obj()
        .with("schema_version", ARTIFACT_SCHEMA_VERSION)
        .with("experiment", experiment)
}

/// Pretty-prints `root`, checks that the text parses back (CI re-checks
/// the written file), and writes it; exits 1 on failure.
fn write_checked(path: &str, root: &Json, what: &str) {
    let text = root.pretty();
    if let Err(e) = Json::parse(&text) {
        fail(&format!("{what} artifact failed self-validation: {e:?}"));
    }
    write_artifact(path, &text, what);
}

/// Writes an artifact, creating parent directories; exits on failure.
fn write_artifact(path: &str, text: &str, what: &str) {
    if let Some(parent) = std::path::Path::new(path).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::write(path, text) {
        Ok(()) => eprintln!("wrote {what} artifact to {path}"),
        Err(e) => fail(&format!("failed to write {what} artifact {path}: {e}")),
    }
}

/// The path of a sidecar next to the JSON artifact `path`: its `.json`
/// suffix, if any, replaced by `.ext`.
fn sidecar(path: &str, ext: &str) -> String {
    format!("{}.{ext}", path.trim_end_matches(".json"))
}

/// Reports a failed gate and exits 1.
fn fail(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(1);
}

/// Exits 1 when a scenario's self-check failed.
fn require(check: Result<(), String>, what: &str) {
    if let Err(violation) = check {
        fail(&format!("{what} invariant violated: {violation}"));
    }
}

fn print_ablations(_: &Opts) -> Option<Json> {
    println!("== Ablations (DESIGN.md D1/D3/D4) ==");
    let catalog = Catalog::build();
    let d1 = ablations::partitioner(&catalog);
    println!(
        "D1 partitioner: pattern-aware overhead {} vs pattern-oblivious {}",
        pct(d1.aware_overhead),
        pct(d1.oblivious_overhead)
    );
    let d3 = ablations::reordering();
    println!(
        "D3 reordering (2 FPGAs, +800ns link): {:.3} ms optimized vs {:.3} ms plain",
        d3.optimized.as_ms(),
        d3.plain.as_ms()
    );
    let d4 = ablations::instruction_buffer();
    println!(
        "D4 instruction buffer: {:.3} ms with vs {:.3} ms fetching from DRAM",
        d4.with_buffer.as_ms(),
        d4.without_buffer.as_ms()
    );
    println!();
    None
}

fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

fn print_table2(_: &Opts) -> Option<Json> {
    println!("== Table 2: baseline accelerator implementations ==");
    println!(
        "{:<8} {:<9} {:>6} {:>12} {:>12} {:>12} {:>12} {:>10} {:>7} {:>7}",
        "name", "device", "tiles", "LUTs", "DFFs", "BRAM", "URAM", "DSPs", "MHz", "TFLOPS"
    );
    for r in tables::table2() {
        let (ul, uf, ub, uu, ud) = r.utilization;
        println!(
            "{:<8} {:<9} {:>6} {:>5}k ({:>5}) {:>5}k ({:>5}) {:>5.1}Mb ({:>5}) {:>5.1}Mb ({:>5}) {:>4} ({:>5}) {:>7.0} {:>7.1}",
            r.name,
            r.device.name(),
            r.tiles,
            r.resources.luts / 1000,
            pct(ul),
            r.resources.ffs / 1000,
            pct(uf),
            r.resources.bram_mb(),
            pct(ub),
            r.resources.uram_mb(),
            pct(uu),
            r.resources.dsps,
            pct(ud),
            r.freq_mhz,
            r.peak_tflops
        );
    }
    println!();
    None
}

fn print_table3(_: &Opts) -> Option<Json> {
    println!("== Table 3: one virtual block of the decomposed accelerator ==");
    println!(
        "{:<9} {:>8} {:>14} {:>14} {:>14} {:>12} {:>7} {:>7}",
        "device", "blocks", "LUTs", "DFFs", "BRAM", "DSPs", "MHz", "TFLOPS"
    );
    for r in tables::table3() {
        let (ul, uf, ub, _uu, ud) = r.utilization;
        println!(
            "{:<9} {:>8} {:>6.1}k ({:>5}) {:>6.1}k ({:>5}) {:>5.1}Mb ({:>5}) {:>4} ({:>5}) {:>7.0} {:>7.2}",
            r.device.name(),
            r.blocks,
            r.per_block.luts as f64 / 1000.0,
            pct(ul),
            r.per_block.ffs as f64 / 1000.0,
            pct(uf),
            r.per_block.bram_mb(),
            pct(ub),
            r.per_block.dsps,
            pct(ud),
            r.freq_mhz,
            r.peak_tflops
        );
    }
    println!();
    None
}

fn print_table4(_: &Opts) -> Option<Json> {
    println!("== Table 4: LSTM/GRU inference latency (batch 1) ==");
    let catalog = Catalog::build();
    println!(
        "{:<22} {:<9} {:>14} {:>14} {:>9}",
        "benchmark", "device", "baseline (ms)", "this work (ms)", "overhead"
    );
    for r in tables::table4(&catalog) {
        match (r.baseline, r.this_work, r.overhead) {
            (Some(b), Some(v), Some(o)) => println!(
                "{:<22} {:<9} {:>14.4} {:>14.4} {:>9}",
                r.task.to_string(),
                r.device,
                b.as_ms(),
                v.as_ms(),
                pct(o)
            ),
            _ => println!(
                "{:<22} {:<9} {:>14} {:>14} {:>9}",
                r.task.to_string(),
                r.device,
                "-",
                "-",
                "-"
            ),
        }
    }
    println!();
    None
}

fn print_fig11(_: &Opts) -> Option<Json> {
    println!("== Fig 11: impact of inter-FPGA communication latency (2 FPGAs) ==");
    let added = fig11::default_sweep_points();
    let mut series_json = Vec::new();
    for task in fig11_tasks() {
        for optimized in [true, false] {
            let series = fig11::sweep(task, 2, &added, optimized);
            let label = if optimized { "overlap" } else { "no-overlap" };
            print!("{task:<20} [{label:>10}] latency(ms):");
            for p in &series.points {
                print!(" {:.4}", p.latency.as_ms());
            }
            println!();
            if optimized {
                let hidden = series
                    .hidden_up_to(0.02)
                    .map(|t| format!("{:.1} ns", t.as_ns()))
                    .unwrap_or_else(|| "none".to_string());
                println!(
                    "{:<20}  added latency hidden up to: {hidden}; single-FPGA ref: {:.4} ms",
                    "",
                    series.single_fpga.as_ms()
                );
            }
            series_json.push(series.to_json());
        }
    }
    println!();
    Some(Json::obj().with("series", Json::Arr(series_json)))
}

fn print_fig12(_: &Opts) -> Option<Json> {
    println!("== Fig 12: aggregated system throughput (tasks/s) ==");
    let catalog = Catalog::build();
    let reports = fig12::run_all_sets(&catalog, 120, 2024);
    let rows: Vec<fig12::Fig12Row> = reports.iter().map(fig12::Fig12SetReport::row).collect();
    println!(
        "{:>4} {:>12} {:>12} {:>12} {:>9}",
        "set", "baseline", "restricted", "this work", "speedup"
    );
    for r in &rows {
        println!(
            "{:>4} {:>12.1} {:>12.1} {:>12.1} {:>8.2}x",
            r.set,
            r.baseline,
            r.restricted,
            r.full,
            r.speedup()
        );
    }
    println!(
        "mean speedup over baseline: {:.2}x (paper: 2.54x)",
        fig12::mean_speedup(&rows)
    );
    let restricted_gain: f64 = rows
        .iter()
        .map(|r| r.full / r.restricted.max(1e-9))
        .product::<f64>()
        .powf(1.0 / rows.len() as f64);
    println!(
        "full vs restricted policy: {:.1}% (paper: 16%)",
        100.0 * (restricted_gain - 1.0)
    );
    println!();
    Some(fig12::to_json(&reports))
}

/// The chaos scenario under `config` (re-seeded): device faults only, or
/// device and link waves when `config.links` is set. Prints the run, gates
/// on its invariants and on the fault machinery it must exercise, and
/// returns the run's JSON.
fn print_chaos(o: &Opts, config: ChaosConfig) -> Json {
    let seed = o.seed;
    let config = ChaosConfig { seed, ..config };
    let (name, title) = if config.links.is_some() {
        (
            "netchaos",
            "NetChaos: workload set 5 under device and link fault waves",
        )
    } else {
        (
            "chaos",
            "Chaos: workload set 5 under injected device failures",
        )
    };
    println!("== {title} (seed {seed}) ==");
    let run = chaos::run(&Catalog::build(), &config);
    let r = &run.report;
    println!(
        "fault plan: {} failures (max {} concurrent), transient configure p={}",
        run.plan.failures(),
        run.plan.max_concurrent_failures(),
        config.configure_failure_prob
    );
    println!(
        "arrivals {} | completed {} | never deployed {} | lost {}",
        r.arrivals, r.completed, r.never_deployed, r.lost
    );
    println!(
        "interrupted {} | migrated {} (scale-down {}) | requeued {}",
        r.interrupted, r.migrated, r.scale_down_redeployments, r.requeued
    );
    println!(
        "mean time-to-recovery: {} | degraded {:.3} ms at {:.1}% occupancy",
        r.mean_time_to_recovery_s()
            .map(|s| format!("{:.1} us", s * 1e6))
            .unwrap_or_else(|| "n/a".to_string()),
        r.degraded_time.as_ms(),
        100.0 * r.degraded_mean_occupancy
    );
    if let Some(links) = config.links {
        println!(
            "link plan: {} link events ({} segment failures), corruption p={}",
            run.plan.link_events().len(),
            run.plan.link_failures(),
            links.corruption_prob
        );
        println!(
            "links: {} failed / {} degraded / {} recovered | degraded {:.3} ms",
            r.link_failures,
            r.link_degradations,
            r.link_recoveries,
            r.link_degraded_time.as_ms()
        );
        println!(
            "transfers: {} retransmits ({} bytes) | {} reroutes | {} severed -> migration",
            r.link_retransmits, r.link_retransmit_bytes, r.link_reroutes, r.link_severed
        );
    }
    require(run.check_invariants(), name);
    match config.links {
        Some(_) if !run.exercised_link_faults() => fail(&format!(
            "{name} run did not exercise the link fault machinery (seed {seed}): \
             {} failures, {} reroutes, {} retransmits",
            r.link_failures, r.link_reroutes, r.link_retransmits
        )),
        None if !run.exercised_recovery() => fail(&format!(
            "{name} run did not exercise recovery (seed {seed}): no interruption migrated"
        )),
        _ => {}
    }
    warn_on_dropped_trace_events(r);
    println!();
    run.to_json()
}

/// Surfaces trace-ring evictions: a dropped event means the ring was too
/// small for the run and the retained window is partial.
fn warn_on_dropped_trace_events(report: &vfpga_runtime::CloudReport) {
    let dropped = report.trace.dropped();
    if dropped > 0 {
        eprintln!(
            "warning: scheduler trace ring dropped {dropped} events (retained {}); \
             rerun with a larger trace capacity for a complete window",
            report.trace.len()
        );
    }
}

fn print_trace(o: &Opts) -> Option<Json> {
    let seed = o.seed;
    println!("== Trace: span-instrumented chaos run (seed {seed}) ==");
    let mut compile_spans = SpanTracer::new();
    let catalog = Catalog::build_traced(&mut compile_spans);
    let config = ChaosConfig {
        seed,
        ..ChaosConfig::default()
    };
    let run = chaos::run(&catalog, &config);
    require(run.check_invariants(), &o.experiment);
    warn_on_dropped_trace_events(&run.report);
    let r = &run.report;
    let cp = &r.critical_path;
    println!(
        "spans: {} compile-flow + {} runtime ({} completed tasks)",
        compile_spans.len(),
        r.spans.len(),
        cp.tasks.len()
    );
    for (label, q) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)] {
        if let Some(task) = cp.quantile_task(q) {
            let (phase, d) = task.dominant();
            println!(
                "{label} task {}: {:.3} ms end-to-end, dominated by {phase} ({:.3} ms)",
                task.trace.0,
                task.total.as_ms(),
                d.as_ms()
            );
        }
    }
    write_artifact(
        &sidecar(&o.json, "prom"),
        &prometheus_text(&r.metrics),
        "prometheus",
    );
    println!();
    let events = chrome_trace_events(&[&compile_spans, &r.spans]);
    Some(
        envelope(&o.experiment)
            .with("seed", seed)
            .with("trace_dropped", r.trace.dropped())
            .with("spans", (compile_spans.len() + r.spans.len()) as u64)
            .with("critical_path", cp.to_json())
            .with("displayTimeUnit", "ms")
            .with("traceEvents", events),
    )
}

fn print_bench(o: &Opts) -> Option<Json> {
    let seed = o.seed;
    println!("== Bench: saturated admission, fast path vs reference scheduler (seed {seed}) ==");
    let catalog = Catalog::build();
    let config = admission::BenchConfig {
        seed,
        ..admission::BenchConfig::default()
    };
    let bench = admission::run(&catalog, &config);
    for s in &bench.scenarios {
        for (name, mode, cost) in [
            (s.name, "current: ", &s.current),
            ("", "baseline:", &s.baseline),
        ] {
            println!(
                "{name:<7} {mode} {:>8} probes ({:>9} cache hits), {:>6.2} per admission, {:>9.1} ms wall",
                cost.probes,
                cost.cache_hits,
                cost.attempts_per_admission(),
                cost.wall_ms
            );
        }
        println!(
            "{:<7} ratio: {:.1}x fewer probes, {:.1}x wall-clock; outcomes match: {}",
            "",
            s.probe_ratio(),
            s.wall_ratio(),
            s.outcomes_match
        );
    }
    if !bench.outcomes_match() {
        fail("bench FAILED: fast path disagrees with the reference scheduler");
    }
    if bench.min_probe_ratio() < 3.0 {
        fail(&format!(
            "bench FAILED: probe reduction {:.2}x is below the required 3x",
            bench.min_probe_ratio()
        ));
    }
    let per_admission = bench.attempts_per_admission();
    if per_admission > ATTEMPTS_PER_ADMISSION_CEILING {
        fail(&format!(
            "bench FAILED: {per_admission:.2} deploy attempts per admission exceeds the ceiling {ATTEMPTS_PER_ADMISSION_CEILING}"
        ));
    }
    println!();
    Some(
        envelope(&o.experiment)
            .with(
                "attempts_per_admission_ceiling",
                ATTEMPTS_PER_ADMISSION_CEILING,
            )
            .with("bench", bench.to_json()),
    )
}

fn print_elastic(o: &Opts) -> Option<Json> {
    let seed = o.seed;
    println!("== Bench: elastic reprovisioning on vs off, bursty workload (seed {seed}) ==");
    let catalog = Catalog::build();
    let config = elastic::ElasticConfig {
        seed,
        ..elastic::ElasticConfig::default()
    };
    let bench = elastic::run(&catalog, &config);
    for (label, run) in [("on", &bench.on), ("off", &bench.off)] {
        println!(
            "elasticity {label:<3} p50 {:>8.3} ms, p95 {:>8.3} ms, p99 {:>8.3} ms, qwait {:>7.3} ms, {:>9.1} ms wall",
            run.p50 * 1e3,
            run.p95 * 1e3,
            run.p99 * 1e3,
            run.mean_queue_wait * 1e3,
            run.wall_ms
        );
    }
    println!(
        "reprovisioner: {} promotions (+{} units, {:.3} ms saved each), {} preemptions (-{} units)",
        bench.on.promotions,
        bench.on.units_gained,
        bench.on.promotion_saved_mean * 1e3,
        bench.on.preemptions,
        bench.on.units_lost
    );
    println!(
        "p95: {:.3} ms -> {:.3} ms ({:.2}x, {:.3} ms shorter)",
        bench.off.p95 * 1e3,
        bench.on.p95 * 1e3,
        bench.p95_ratio(),
        bench.p95_delta() * 1e3
    );
    if !bench.passes() {
        fail(&format!("elastic FAILED: {}", bench.failures().join("; ")));
    }
    println!();
    Some(envelope(&o.experiment).with("bench", bench.to_json()))
}

fn print_monitor(o: &Opts) -> Option<Json> {
    let seed = o.seed;
    println!("== Monitor: SLO burn-rate alerting under chaos+elastic (seed {seed}) ==");
    let catalog = Catalog::build();
    let config = monitor::MonitorBenchConfig {
        seed,
        ..monitor::MonitorBenchConfig::default()
    };
    let bench = monitor::run(&catalog, &config);
    let m = bench.report.monitor.as_ref().expect("monitored run");
    println!(
        "calibration: worst healthy window p95 {:.1} us -> target {:.1} us (x{})",
        bench.baseline_worst_p95 * 1e6,
        bench.target.as_us(),
        config.target_margin
    );
    println!(
        "fault plan: {} device failures, {} link events | {} disturbed intervals",
        bench.plan.failures(),
        bench.plan.link_events().len(),
        bench.disturbed.len()
    );
    println!(
        "arrivals {} | completed {} | never deployed {} | lost {}",
        bench.report.arrivals,
        bench.report.completed,
        bench.report.never_deployed,
        bench.report.lost
    );
    println!(
        "monitor: {} alerts fired / {} resolved | max burn {:.2} | min health {:.3} | {} truncated windows",
        m.alerts_fired(),
        m.alerts_resolved(),
        m.max_burn(),
        m.min_health(),
        m.truncated_windows
    );
    for alert in bench.alerts() {
        let state = match alert.resolved_at {
            Some(resolved) => format!("resolved {:.0} us", resolved.as_us()),
            None => "still firing".to_string(),
        };
        println!(
            "  alert `{}` on `{}`: fired {:.0} us, {state} (peak burn {:.2})",
            alert.slo,
            alert.key,
            alert.fired_at.as_us(),
            alert.peak_burn
        );
    }
    require(bench.check_invariants(), &o.experiment);
    // Determinism gate: the whole scenario again, from scratch — the
    // artifact must come out byte-identical.
    let section = bench.to_json();
    if section.pretty() != monitor::run(&catalog, &config).to_json().pretty() {
        fail(&format!(
            "monitor runs diverged: same seed {seed}, different artifact bytes"
        ));
    }
    write_artifact(
        &sidecar(&o.json, "prom"),
        &m.prometheus_text(),
        "monitor exposition",
    );
    println!();
    Some(envelope(&o.experiment).with(&o.experiment, section))
}

fn print_overhead(_: &Opts) -> Option<Json> {
    println!("== Section 4.3: compilation overhead ==");
    let r = overhead::report();
    println!(
        "decompose+partition tool time:      {:.3} s per instance",
        r.tool_seconds
    );
    println!(
        "baseline compile time ({} instances): {:.0} s",
        r.instances, r.baseline_seconds
    );
    println!(
        "tool time fraction:                 {} (paper: <1%)",
        pct(r.tool_fraction)
    );
    println!(
        "scaled-down compiles ({} distinct):  {:.0} s",
        r.distinct_scaledowns, r.scaledown_seconds
    );
    println!(
        "total overhead (amortized):         {} (paper: 24.6%)",
        pct(r.total_overhead_fraction)
    );
    println!();
    None
}

fn print_density(_: &Opts) -> Option<Json> {
    println!("== Code density: AS ISA vs general-purpose SIMD ==");
    println!(
        "{:<22} {:>14} {:>16} {:>9}",
        "benchmark", "AS ISA (bytes)", "GP SIMD (bytes)", "ratio"
    );
    for r in density::compare() {
        println!(
            "{:<22} {:>14} {:>16} {:>8.0}x",
            r.task.to_string(),
            r.as_isa_bytes,
            r.gp_bytes,
            r.ratio()
        );
    }
    println!();
    None
}

fn print_isolation(_: &Opts) -> Option<Json> {
    println!("== Section 4.4: performance isolation under spatial sharing ==");
    let task = vfpga_workload::RnnTask::new(vfpga_workload::RnnKind::Lstm, 512, 25);
    for r in isolation::measure(task, 3.0) {
        println!(
            "{:<26} alone {:.4} ms | shared {:.4} ms | slowdown {}",
            if r.instruction_buffer {
                "with instruction buffer"
            } else {
                "without instruction buffer"
            },
            r.alone.as_ms(),
            r.shared.as_ms(),
            pct(r.slowdown())
        );
    }
    println!();
    None
}

/// Fuzzes (or, with `--replay`, replays one reproducer). The summary is
/// not an envelope document, so it is written here rather than returned.
fn print_fuzz(o: &Opts) -> Option<Json> {
    if let Some(path) = &o.replay {
        print_fuzz_replay(path);
        return None;
    }
    let (seed, cases) = (o.seed, o.cases);
    println!("== Differential fuzzing: {cases} cases/oracle, seed {seed} ==");
    let mut config = vfpga_fuzz::FuzzConfig::new(seed, cases);
    config.oracle = o.oracle.clone();
    config.failure_dir = Some(std::path::PathBuf::from(FUZZ_FAILURE_DIR));
    let summary = match vfpga_fuzz::run_fuzz(&config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    for oracle in &summary.oracles {
        match &oracle.first_failure {
            None => println!("{:<24} {:>6} cases  ok", oracle.name, oracle.cases),
            Some(f) => println!(
                "{:<24} {:>6} cases  {} FAILED (first at case {}, shrunk {} -> {}, {})",
                oracle.name,
                oracle.cases,
                oracle.failures,
                f.case_index,
                f.original_size,
                f.shrunk_size,
                f.reproducer.as_deref().unwrap_or("reproducer not written"),
            ),
        }
    }
    println!();
    write_artifact(&o.json, &(summary.to_json().pretty() + "\n"), &o.experiment);
    if !summary.passed() {
        fail(&format!(
            "{} of {} cases violated an oracle; reproducers in {FUZZ_FAILURE_DIR}",
            summary.total_failures(),
            summary.total_cases()
        ));
    }
    None
}

/// Replays one saved reproducer: exits 1 while its bug still reproduces,
/// 2 when the file is not a readable reproducer.
fn print_fuzz_replay(path: &str) {
    let replayed = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read reproducer {path}: {e}"))
        .and_then(|text| {
            Json::parse(&text).map_err(|e| format!("reproducer {path} is not JSON: {e}"))
        })
        .and_then(|doc| vfpga_fuzz::replay(&doc).map_err(|e| format!("replay {path}: {e}")));
    match replayed {
        Ok((oracle, vfpga_fuzz::Verdict::Pass)) => {
            println!("replay {path}: oracle `{oracle}` passes (bug no longer reproduces)");
        }
        Ok((oracle, vfpga_fuzz::Verdict::Fail(error))) => {
            fail(&format!(
                "replay {path}: oracle `{oracle}` still fails: {error}"
            ));
        }
        Err(problem) => {
            eprintln!("{problem}");
            std::process::exit(2);
        }
    }
}
