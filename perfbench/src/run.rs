//! One benchmark run: set-up, timed rounds for the host-time budget,
//! checks, and the metrics computed from them.

use std::collections::BTreeMap;
use std::time::Instant;

use vfpga_sim::SpanTracer;

use crate::alloc::AllocCount;
use crate::cloud::CloudBench;
use crate::offline::OfflineBench;
use crate::probe::{layer_times, LayerTime, Probe};
use crate::{Check, Metric, Scale, Workload, END_TO_END, PER_LAYER};

/// Timed set-ups after each round. `setup_s` is the median of these and
/// the first set-up, so it samples the host under the same conditions as
/// the rounds do.
const SETUPS_PER_ROUND: usize = 2;

/// Fewest timed rounds per phase, so every median has three samples.
const MIN_ROUNDS: usize = 3;

/// A workload, set up and ready to run rounds.
pub trait Bench {
    /// FNV-1a digest of the generated inputs.
    fn input_digest(&self) -> u64;
    /// Runs one round over the workload's inputs. Only the part counted in
    /// [`Round::host_s`] is the measured work; checking comes after it.
    fn round(&mut self, probe: &mut Probe) -> Round;
    /// Checks that run once, after the timed rounds.
    fn final_checks(&mut self) -> Vec<Check> {
        Vec::new()
    }
}

/// What one round produced.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Host seconds of the measured work.
    pub host_s: f64,
    /// Work items attempted: tasks simulated, or compiles plus co-sims.
    pub items: u64,
    /// Items that failed.
    pub failed: u64,
    /// Digest of the round's outputs; every round of a run must agree.
    pub digest: u64,
    /// Deterministic per-layer counters and simulated-time statistics.
    pub values: Vec<(&'static str, f64)>,
    /// Host seconds spent in simulator callbacks (traced rounds only);
    /// they run inside the `cloudsim` span.
    pub callbacks: Vec<(&'static str, f64)>,
    /// Host latency of each individually timed sample, by kind.
    pub samples: Vec<(&'static str, f64)>,
    /// Checks evaluated on this round's outputs.
    pub checks: Vec<Check>,
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Host-time budget of the timed rounds.
    pub seconds: f64,
    /// Also run traced rounds and report per-layer metrics.
    pub traced: bool,
    /// Input sizes.
    pub scale: Scale,
}

fn setup(config: &RunConfig) -> Box<dyn Bench> {
    let (seed, scale) = (config.seed, &config.scale);
    match config.workload {
        Workload::Saturated => Box::new(CloudBench::saturated(seed, scale)),
        Workload::ChaosElastic => Box::new(CloudBench::chaos_elastic(seed, scale)),
        Workload::Observed => Box::new(CloudBench::observed(seed, scale)),
        Workload::Offline => Box::new(OfflineBench::new(seed, scale)),
    }
}

/// Sets the workload up once and records how long that took.
fn timed_setup(config: &RunConfig, setups: &mut Vec<f64>) -> Box<dyn Bench> {
    let t = Instant::now();
    let bench = setup(config);
    setups.push(t.elapsed().as_secs_f64());
    bench
}

/// The rounds of one phase of a run.
struct Phase<'a> {
    config: &'a RunConfig,
    bench: &'a mut dyn Bench,
    probe: &'a mut Probe,
    setups: &'a mut Vec<f64>,
}

impl Phase<'_> {
    /// Runs round number `index`, wrapped in a `round` span (recorded when
    /// the probe is traced), then times [`SETUPS_PER_ROUND`] set-ups.
    fn round(&mut self, index: usize) -> Round {
        self.probe.set_trace(index as u64);
        let span = self.probe.enter("round");
        let round = self.bench.round(self.probe);
        self.probe.exit(span);
        for _ in 0..SETUPS_PER_ROUND {
            timed_setup(self.config, self.setups);
        }
        round
    }

    /// Runs rounds into `out` until `seconds` of wall time have passed
    /// since `start` and `out` holds at least [`MIN_ROUNDS`].
    fn rounds(&mut self, start: Instant, seconds: f64, out: &mut Vec<Round>) {
        while out.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
            out.push(self.round(out.len()));
        }
    }
}

/// Adds a round's check, keeping one entry per check name and the first
/// failure if any round failed it.
fn merge_check(checks: &mut Vec<Check>, check: &Check) {
    match checks.iter_mut().find(|c| c.name == check.name) {
        Some(c) if c.outcome.is_ok() => *c = check.clone(),
        Some(_) => {}
        None => checks.push(check.clone()),
    }
}

/// Runs one workload: a set-up, untraced rounds for the budget (half of
/// it when traced, then traced rounds for the other half), and the checks.
pub fn run(config: &RunConfig) -> Outcome {
    let mut setups = Vec::new();
    let mut bench = timed_setup(config, &mut setups);
    let mut probe = Probe::default();
    let budget = if config.traced {
        config.seconds / 2.0
    } else {
        config.seconds
    };
    let mut phase = Phase {
        config,
        bench: bench.as_mut(),
        probe: &mut probe,
        setups: &mut setups,
    };
    let start = Instant::now();
    let mut untraced = vec![phase.round(0)];
    // Allocation counters of the first round only: they must repeat
    // exactly, and span recording in traced rounds would add its own.
    let allocs = phase.probe.take_allocs();
    phase.rounds(start, budget, &mut untraced);
    let mut traced = Vec::new();
    if config.traced {
        phase.probe.set_traced(true);
        phase.rounds(Instant::now(), budget, &mut traced);
    }
    let reference = untraced[0].digest;
    let all: Vec<&Round> = untraced.iter().chain(&traced).collect();
    let mut checks = vec![Check::new(
        "every round reproduces the first round's output digest",
        all.iter().all(|r| r.digest == reference),
        || {
            let digests: Vec<String> = all.iter().map(|r| format!("{:016x}", r.digest)).collect();
            digests.join(" ")
        },
    )];
    for c in all.iter().flat_map(|r| &r.checks) {
        merge_check(&mut checks, c);
    }
    checks.extend(bench.final_checks());
    Outcome {
        workload: config.workload,
        seed: config.seed,
        setup_s: median(&setups),
        input_digest: bench.input_digest(),
        untraced,
        traced,
        allocs,
        checks,
        peak_rss_mb: peak_rss_mb(),
        spans: probe.into_spans(),
    }
}

/// The result of one run.
pub struct Outcome {
    /// The workload run.
    pub workload: Workload,
    /// Its seed.
    pub seed: u64,
    /// Median set-up time.
    pub setup_s: f64,
    /// Digest of the generated inputs.
    pub input_digest: u64,
    /// Untraced rounds; the end-to-end metrics come from these.
    pub untraced: Vec<Round>,
    /// Traced rounds (empty unless traced).
    pub traced: Vec<Round>,
    /// Per-layer allocation counters of one untraced round.
    pub allocs: BTreeMap<&'static str, AllocCount>,
    /// Every check and its verdict.
    pub checks: Vec<Check>,
    /// Peak resident set size of the process.
    pub peak_rss_mb: f64,
    /// The host-time spans of the traced rounds.
    pub spans: SpanTracer,
}

impl Outcome {
    /// Items attempted over the timed rounds.
    pub fn attempted(&self) -> u64 {
        self.untraced
            .iter()
            .chain(&self.traced)
            .map(|r| r.items)
            .sum()
    }

    /// Failed items plus failed checks.
    pub fn failed(&self) -> u64 {
        let items: u64 = self
            .untraced
            .iter()
            .chain(&self.traced)
            .map(|r| r.failed)
            .sum();
        items + self.failed_checks().count() as u64
    }

    /// Checks that failed.
    pub fn failed_checks(&self) -> impl Iterator<Item = &Check> {
        self.checks.iter().filter(|c| c.outcome.is_err())
    }

    /// Whether every item and every check succeeded.
    pub fn correct(&self) -> bool {
        self.failed() == 0
    }

    /// The output digest every round reproduced.
    pub fn sim_digest(&self) -> u64 {
        self.untraced[0].digest
    }

    /// Median host seconds of the untraced rounds.
    pub fn round_s(&self) -> f64 {
        median(&self.untraced.iter().map(|r| r.host_s).collect::<Vec<_>>())
    }

    /// The end-to-end metrics, from the untraced rounds.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let values = [
            self.setup_s,
            self.untraced[0].items as f64 / self.round_s(),
            self.peak_rss_mb,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect()
    }

    /// Host latency percentiles of the individually timed samples of the
    /// untraced rounds, in milliseconds: `(kind, count, p50, p99)`.
    pub fn sample_latencies(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut by_kind: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for r in &self.untraced {
            for &(kind, s) in &r.samples {
                by_kind.entry(kind).or_default().push(s * 1e3);
            }
        }
        by_kind
            .into_iter()
            .map(|(kind, mut v)| {
                v.sort_by(f64::total_cmp);
                (kind, v.len(), rank(&v, 0.5), rank(&v, 0.99))
            })
            .collect()
    }

    /// Host seconds per layer over the traced rounds, with simulator
    /// callbacks split out of the span they run in: `(host_s, self_s)`.
    pub fn layer_seconds(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut times = layer_times(&self.spans);
        for r in &self.traced {
            for &(name, s) in &r.callbacks {
                let t = times.entry(name).or_default();
                t.host_s += s;
                t.self_s += s;
                if let Some(sim) = times.get_mut("cloudsim") {
                    sim.self_s -= s;
                }
            }
        }
        times
    }

    /// The per-layer metrics. Counters and allocation counters come from
    /// the first untraced round, host-time shares from the traced rounds.
    pub fn per_layer(&self) -> Vec<Metric> {
        let counters: BTreeMap<&str, f64> = self.untraced[0].values.iter().copied().collect();
        let times = self.layer_seconds();
        let wall = times.get("round").map_or(0.0, |t| t.host_s);
        let share = |layer: &str| -> f64 {
            if wall <= 0.0 {
                return 0.0;
            }
            if layer == "bench" {
                // The benchmark's own code: every span no share names.
                let named = |n: &str| {
                    PER_LAYER
                        .iter()
                        .any(|(m, _)| m.strip_suffix(".self_share") == Some(n))
                };
                return times
                    .iter()
                    .filter(|(n, _)| !named(n))
                    .map(|(_, t)| t.self_s)
                    .sum::<f64>()
                    / wall;
            }
            times.get(layer).map_or(0.0, |t| t.self_s) / wall
        };
        let traced_s = median(&self.traced.iter().map(|r| r.host_s).collect::<Vec<_>>());
        let insts = counters.get("accel.cyclesim.insts").copied().unwrap_or(0.0);
        let cyclesim_s = times.get("scaleout_sim.timing").map_or(0.0, |t| t.host_s);
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = if let Some(layer) = name.strip_suffix(".self_share") {
                    share(layer)
                } else if let Some(layer) = name.strip_suffix(".alloc_bytes") {
                    self.allocs.get(layer).map_or(0, |a| a.bytes) as f64
                } else if let Some(layer) = name.strip_suffix(".allocs") {
                    self.allocs.get(layer).map_or(0, |a| a.allocs) as f64
                } else {
                    match name {
                        "trace.wall_s" => wall,
                        "trace.overhead_ratio" => traced_s / self.round_s(),
                        "accel.cyclesim.insts_per_host_s" if cyclesim_s > 0.0 => {
                            insts * self.traced.len() as f64 / cyclesim_s
                        }
                        _ => counters.get(name).copied().unwrap_or(0.0),
                    }
                };
                Metric { name, value, unit }
            })
            .collect()
    }
}

/// The median (mean of the middle two for an even count); 0 for none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The ceil-rank `q`-quantile of sorted values; 0 for none.
fn rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let r = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[r - 1]
}

/// Peak resident set size (`VmHWM`) in MiB; 0 where `/proc` is missing.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
