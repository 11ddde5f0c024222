//! Smoke test: every workload at a tiny scale passes its checks and repeats
//! its deterministic values exactly, and `BENCHMARK.json` names exactly the
//! metrics the benchmark prints.

use std::sync::Mutex;

use vfpga_perf::alloc::CountingAlloc;
use vfpga_perf::{
    host_timed, run, Outcome, RunConfig, Scale, Workload, END_TO_END, HOST_NOISE, PER_LAYER,
};
use vfpga_sim::Json;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The allocation counters are process-wide: tests that allocate hold this
/// lock so a concurrent test cannot add to another's counts.
static SERIAL: Mutex<()> = Mutex::new(());

const SMOKE: Scale = Scale {
    cloud_tasks: Some(300),
    configs: 3,
    toolchain_passes: 1,
    cosim_timesteps: Some(6),
};

fn smoke(workload: Workload) -> Outcome {
    run(&RunConfig {
        workload,
        seed: 7,
        seconds: 0.0,
        traced: true,
        scale: SMOKE,
    })
}

/// The per-layer values that must repeat exactly: everything but host-time
/// shares and rates and the host-noise allocation counters.
fn deterministic(outcome: &Outcome) -> Vec<(&'static str, f64)> {
    outcome
        .per_layer()
        .into_iter()
        .filter(|m| !host_timed(m.name) && !HOST_NOISE.contains(&m.name))
        .map(|m| (m.name, m.value))
        .collect()
}

#[test]
fn workloads_pass_their_checks_and_repeat_exactly() {
    let _serial = SERIAL.lock().expect("no test panicked holding the lock");
    for workload in Workload::ALL {
        let a = smoke(workload);
        let failed: Vec<_> = a.failed_checks().collect();
        assert!(a.correct(), "{}: {failed:?}", workload.name());
        assert!(a.attempted() > 0);
        let b = smoke(workload);
        assert_eq!(a.input_digest, b.input_digest, "{}", workload.name());
        assert_eq!(a.sim_digest(), b.sim_digest(), "{}", workload.name());
        assert_eq!(deterministic(&a), deterministic(&b), "{}", workload.name());
        for m in a.end_to_end() {
            assert!(
                m.value > 0.0,
                "{}: {} is {}",
                workload.name(),
                m.name,
                m.value
            );
        }
        let shares: f64 = a
            .per_layer()
            .iter()
            .filter(|m| m.name.ends_with(".self_share"))
            .map(|m| m.value)
            .sum();
        assert!(
            (shares - 1.0).abs() < 1e-6,
            "{}: shares sum to {shares}",
            workload.name()
        );
    }
}

#[test]
fn benchmark_json_lists_exactly_the_printed_metrics() {
    let _serial = SERIAL.lock().expect("no test panicked holding the lock");
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let spec = Json::parse(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| -> Vec<(String, String)> {
        let Some(Json::Arr(items)) = spec.field(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        items
            .iter()
            .map(|m| {
                let field = |f: &str| m.field(f).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let owned = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(list("end_to_end"), owned(&END_TO_END));
    assert_eq!(list("per_layer"), owned(PER_LAYER));
    let workloads: Vec<String> = list("workloads").into_iter().map(|(n, _)| n).collect();
    let expected: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, expected);
}
