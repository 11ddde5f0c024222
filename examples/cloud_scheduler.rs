//! Multi-tenant cloud scheduling on the heterogeneous cluster.
//!
//! ```text
//! cargo run --release --example cloud_scheduler
//! ```
//!
//! Builds the full evaluated system (instance catalog + mapping database),
//! generates a mixed synthetic workload (Table 1, set 7), and serves it
//! under the three runtime systems of the paper's Fig. 12: the AS-ISA-only
//! baseline, the same-device-type-restricted policy, and the full
//! framework.

use vfpga::runtime::{run_cloud_sim, Policy, SystemController};
use vfpga::sim::SimTime;
use vfpga::workload::{generate_workload, Composition};
use vfpga_bench::Catalog;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("compiling the instance catalog (decompose + partition + HS-compile)...");
    let catalog = Catalog::build();

    let arrivals = generate_workload(
        Composition::TABLE1[6], // 33% S / 33% M / 34% L
        150,
        SimTime::from_us(50.0),
        7,
    );
    println!(
        "workload: {} tasks, first at {}, last at {}",
        arrivals.len(),
        arrivals[0].at,
        arrivals.last().unwrap().at
    );

    for policy in [Policy::Baseline, Policy::Restricted, Policy::Full] {
        let mut controller =
            SystemController::new(catalog.cluster.clone(), catalog.db.clone(), policy);
        if policy == Policy::Baseline {
            // The AS-ISA baseline is statically provisioned offline.
            controller = controller.with_provisioning(catalog.baseline_provisioning())?;
        }
        let report = run_cloud_sim(
            &mut controller,
            &arrivals,
            &|task| catalog.instance_for(task),
            &|task, deployment| catalog.service_time(task, deployment, policy),
        )?;
        println!(
            "{policy:?}: {:.0} tasks/s | mean latency {:.3} ms | mean queue wait {:.3} ms",
            report.throughput_per_s,
            report.latency.mean() * 1e3,
            report.queue_wait.mean() * 1e3,
        );
    }
    Ok(())
}
