//! The `vfpga-perf` command.
//!
//! ```text
//! vfpga-perf run --workload W [--seed S] [--seconds N] [--trace 0|1]
//!                [--trace-out PATH] [--ledger PATH]
//! vfpga-perf compare A.jsonl B.jsonl
//! ```
//!
//! `run` prints every metric by name with its unit, one per line, and as
//! its last line one JSON object `{"correct", "attempted", "failed",
//! "metrics"}` carrying the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`). A traced run also writes its host-time
//! spans as a Chrome trace (default `target/vfpga-perf/trace-W-S.json`).
//! `--ledger PATH` appends the run's metrics to a ledger for `compare`,
//! which reads `BENCHMARK.json` from the current directory. Exit codes: 0
//! on success, 1 when a check failed, 2 on a usage error.

use std::io::Write as _;
use std::process::ExitCode;

use vfpga_perf::alloc::CountingAlloc;
use vfpga_perf::compare::compare;
use vfpga_perf::{host_timed, run, Metric, Outcome, RunConfig, Scale, Workload};
use vfpga_sim::{chrome_trace_events, Json};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: vfpga-perf run --workload saturated|chaos_elastic|observed|offline \
[--seed S] [--seconds N] [--trace 0|1] [--trace-out PATH] [--ledger PATH]\n       \
vfpga-perf compare A.jsonl B.jsonl";

fn usage(problem: &str) -> ExitCode {
    eprintln!("{problem}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run_command(&args[1..]),
        Some("compare") => compare_command(&args[1..]),
        _ => usage("expected a subcommand"),
    }
}

/// Parsed `run` options.
struct RunArgs {
    config: RunConfig,
    trace_out: Option<String>,
    ledger: Option<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = 2024;
    let mut seconds = 10.0;
    let mut traced = false;
    let mut trace_out = None;
    let mut ledger = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| (0.0..=3600.0).contains(s))
                    .ok_or("--seconds needs a number of seconds up to 3600")?;
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            "--trace-out" => trace_out = Some(value.clone()),
            "--ledger" => ledger = Some(value.clone()),
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    Ok(RunArgs {
        config: RunConfig {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            traced,
            scale: Scale::FULL,
        },
        trace_out,
        ledger,
    })
}

fn metrics_json(metrics: &[Metric]) -> Json {
    metrics.iter().fold(Json::obj(), |obj, m| {
        obj.with(
            m.name,
            Json::obj().with("value", m.value).with("unit", m.unit),
        )
    })
}

/// The human-readable report: every metric by name with its unit.
fn print_report(outcome: &Outcome, traced: bool) {
    let w = outcome.workload.name();
    let rounds = outcome.untraced.len();
    println!(
        "vfpga-perf {w}: seed {}, {rounds} rounds, {} traced rounds",
        outcome.seed,
        outcome.traced.len()
    );
    let round_ms: Vec<String> = outcome
        .untraced
        .iter()
        .map(|r| format!("{:.1}", r.host_s * 1e3))
        .collect();
    println!("round_ms {}", round_ms.join(" "));
    println!("input_digest {:016x}", outcome.input_digest);
    println!("sim_digest {:016x}", outcome.sim_digest());
    for c in &outcome.checks {
        match &c.outcome {
            Ok(()) => println!("check ok: {}", c.name),
            Err(e) => println!("check FAILED: {}: {e}", c.name),
        }
    }
    let line = |name: &str, value: f64, unit: &str| println!("{name} {value} {unit}");
    for m in outcome.end_to_end() {
        line(m.name, m.value, m.unit);
    }
    line(
        "failed_frac",
        outcome.failed() as f64 / outcome.attempted().max(1) as f64,
        "fraction",
    );
    if outcome.workload == Workload::Offline {
        for (kind, n, p50, p99) in outcome.sample_latencies() {
            line(&format!("{kind}_p50_ms"), p50, &format!("ms ({n} samples)"));
            line(&format!("{kind}_p99_ms"), p99, &format!("ms ({n} samples)"));
        }
    } else {
        line(
            "host_tasks_per_s",
            outcome.untraced[0].items as f64 / outcome.round_s(),
            "tasks/s",
        );
    }
    let per_layer = outcome.per_layer();
    for m in per_layer.iter().filter(|m| traced || !host_timed(m.name)) {
        line(m.name, m.value, m.unit);
    }
    if traced {
        for (layer, t) in outcome.layer_seconds() {
            println!("{layer}.host_s {} s", t.host_s);
            println!("{layer}.self_s {} s", t.self_s);
        }
    }
}

fn run_command(args: &[String]) -> ExitCode {
    let args = match parse_run(args) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    let config = args.config;
    let outcome = run(&config);
    print_report(&outcome, config.traced);
    let metrics = if config.traced {
        outcome.per_layer()
    } else {
        outcome.end_to_end()
    };
    if config.traced {
        let path = args.trace_out.unwrap_or_else(|| {
            format!(
                "target/vfpga-perf/trace-{}-{}.json",
                config.workload.name(),
                config.seed
            )
        });
        let doc = Json::obj()
            .with("displayTimeUnit", "ms")
            .with("traceEvents", chrome_trace_events(&[&outcome.spans]));
        if let Err(e) = write_file(&path, &doc.compact(), false) {
            eprintln!("cannot write trace {path}: {e}");
        } else {
            println!("trace written to {path}");
        }
    }
    if let Some(path) = &args.ledger {
        let entry = Json::obj()
            .with("workload", config.workload.name())
            .with("seed", config.seed)
            .with("trace", u64::from(config.traced))
            .with("metrics", metrics_json(&metrics));
        if let Err(e) = write_file(path, &(entry.compact() + "\n"), true) {
            eprintln!("cannot append to ledger {path}: {e}");
        }
    }
    let result = Json::obj()
        .with("correct", outcome.correct())
        .with("attempted", outcome.attempted())
        .with("failed", outcome.failed())
        .with("metrics", metrics_json(&metrics));
    println!("{}", result.compact());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Writes (or appends) `text` to `path`, creating parent directories.
fn write_file(path: &str, text: &str, append: bool) -> std::io::Result<()> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .write(true)
        .append(append)
        .truncate(!append)
        .open(path)?;
    file.write_all(text.as_bytes())?;
    file.flush()
}

fn compare_command(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        return usage("compare needs two ledger files");
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let rows = read(a)
        .and_then(|a| Ok((a, read(b)?, read("BENCHMARK.json")?)))
        .and_then(|(a, b, spec)| compare(&a, &b, &spec));
    let rows = match rows {
        Ok(rows) => rows,
        Err(e) => return usage(&e),
    };
    println!(
        "{:<18} {:<14} {:>27} {:>27} {:>5} {:>5}  verdict",
        "metric", "workload", "A q1 / median / q3", "B q1 / median / q3", "wins", "bound"
    );
    for r in &rows {
        println!(
            "{:<18} {:<14} {:>8.4e} {:>8.4e} {:>8.4e} {:>8.4e} {:>8.4e} {:>8.4e} {:>5.2} {:>5.2}  {}",
            r.metric,
            r.workload,
            r.a.q1,
            r.a.median,
            r.a.q3,
            r.b.q1,
            r.b.median,
            r.b.q3,
            r.wins,
            r.bound,
            r.verdict.label()
        );
    }
    if rows
        .iter()
        .any(|r| r.verdict == vfpga_perf::compare::Verdict::Regressed)
    {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
