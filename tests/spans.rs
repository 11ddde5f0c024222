//! Property tests over the span tracer: for randomly drawn workload and
//! fault parameters (seeded, so failures reproduce), every span a faulted
//! cloud run emits must be well-formed — closed, non-negative duration,
//! nested strictly inside its parent — and the critical-path phase buckets
//! of every completed task must sum *exactly* (integer picoseconds, no
//! tolerance) to the task's end-to-end latency. Also pins the Chrome-trace
//! export to be byte-identical for a fixed seed.

use std::collections::HashMap;

use vfpga::runtime::{AdmissionTuning, Policy};
use vfpga::sim::{
    chrome_trace_events, CriticalPath, FaultPlan, FaultPlanParams, Rng, SimTime, SpanId, TraceId,
};
use vfpga::workload::{generate_workload, Composition};
use vfpga_bench::Catalog;

/// One randomly-parameterized faulted run; returns its report.
fn random_run(catalog: &Catalog, rng: &mut Rng) -> vfpga::runtime::CloudReport {
    let tasks = 20 + rng.below(60);
    let composition = Composition::TABLE1[rng.below(Composition::TABLE1.len())];
    let mean_interarrival = SimTime::from_us(rng.range_f64(20.0, 120.0));
    let workload_seed = rng.next_u64();
    let arrivals = generate_workload(composition, tasks, mean_interarrival, workload_seed);
    let horizon = SimTime::from_us(mean_interarrival.as_us() * tasks as f64 * 1.5);
    let plan = FaultPlan::generate(
        FaultPlanParams {
            mttf: SimTime::from_us(rng.range_f64(400.0, 2000.0)),
            mttr: SimTime::from_us(rng.range_f64(100.0, 600.0)),
            configure_failure_prob: rng.range_f64(0.0, 0.1),
            horizon,
        },
        catalog.cluster.len(),
        rng.next_u64(),
    );
    catalog
        .simulate(
            &mut catalog.controller(Policy::Full),
            &arrivals,
            &plan,
            4096,
            AdmissionTuning::default(),
        )
        .expect("faulted simulation completes")
}

#[test]
fn spans_are_well_formed_under_random_faulted_runs() {
    let catalog = Catalog::build();
    let mut rng = Rng::seed_from_u64(0x5EED_0525);
    for round in 0..6 {
        let report = random_run(&catalog, &mut rng);
        let spans = &report.spans;
        assert_eq!(
            spans.open_count(),
            0,
            "round {round}: {} spans left open at end of run",
            spans.open_count()
        );
        let by_id: HashMap<SpanId, &vfpga::sim::Span> =
            spans.spans().iter().map(|s| (s.id, s)).collect();
        for span in spans.spans() {
            let end = span
                .end
                .unwrap_or_else(|| panic!("round {round}: span `{}` never closed", span.name));
            assert!(
                end >= span.begin,
                "round {round}: span `{}` ends at {end:?} before it begins at {:?}",
                span.name,
                span.begin
            );
            if let Some(parent_id) = span.parent {
                let parent = by_id[&parent_id];
                let parent_end = parent.end.expect("parent closed");
                assert!(
                    span.begin >= parent.begin && end <= parent_end,
                    "round {round}: span `{}` [{:?}, {end:?}] escapes parent `{}` [{:?}, {parent_end:?}]",
                    span.name,
                    span.begin,
                    parent.name,
                    parent.begin
                );
                assert_eq!(
                    span.trace, parent.trace,
                    "round {round}: span `{}` crosses traces from its parent `{}`",
                    span.name, parent.name
                );
            }
        }
        // Phase buckets partition end-to-end latency exactly: integer
        // picosecond equality, not an epsilon.
        let cp = CriticalPath::analyze(spans);
        for task in &cp.tasks {
            assert_eq!(
                task.phase_sum(),
                task.total,
                "round {round}: trace {:?} phases {:?} do not sum to total {:?}",
                task.trace,
                task.phases,
                task.total
            );
            assert!(task.trace != TraceId::NONE);
        }
        // Completed tasks all surface in the critical path.
        assert_eq!(
            cp.tasks.len() as u64,
            report.completed,
            "round {round}: critical path covers {} tasks but {} completed",
            cp.tasks.len(),
            report.completed
        );
    }
}

#[test]
fn chrome_trace_export_is_byte_identical_for_a_fixed_seed() {
    let catalog = Catalog::build();
    let render = || {
        let mut rng = Rng::seed_from_u64(99);
        let report = random_run(&catalog, &mut rng);
        chrome_trace_events(&[&report.spans]).pretty()
    };
    let first = render();
    let second = render();
    assert!(first == second, "trace export diverged for a fixed seed");
    assert!(
        first.contains("\"ph\": \"X\""),
        "no complete events exported"
    );
}
