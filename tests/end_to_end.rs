//! Cross-crate integration: the full mapping flow plus runtime lifecycle
//! on the heterogeneous cluster.

use vfpga::core::Pattern;
use vfpga::fabric::DeviceId;
use vfpga::runtime::{Policy, SystemController};
use vfpga::workload::{RnnKind, RnnTask};
use vfpga_bench::Catalog;

#[test]
fn catalog_decompositions_expose_paper_structure() {
    let catalog = Catalog::build();
    // After the Section 3 modifications, every instance's data-path root
    // must be data-parallel (the precondition for the scale-out
    // optimization).
    for (name, d) in &catalog.decompositions {
        assert_eq!(
            d.tree.root_block().pattern(),
            Some(Pattern::Data),
            "{name}: root must be data-parallel"
        );
        let tiles = catalog.instances[name].config.tiles;
        assert_eq!(
            d.tree.root_block().children().len(),
            tiles,
            "{name}: one child per tile engine"
        );
        // Each tile child is the seven-stage pipeline (with the DPU lane
        // split adding a data-parallel level underneath).
        let child = d.tree.block(d.tree.root_block().children()[0]);
        assert_eq!(child.pattern(), Some(Pattern::Pipeline));
        assert_eq!(child.children().len(), 7);
    }
}

#[test]
fn spatial_sharing_multiple_tenants_per_fpga() {
    let catalog = Catalog::build();
    let mut controller =
        SystemController::new(catalog.cluster.clone(), catalog.db.clone(), Policy::Full);
    let bw_s = controller.instance_id("bw-s").unwrap();
    // Small instances pack several to a device: deploy until the cluster
    // refuses, then count.
    let mut deployments = Vec::new();
    while let Ok(d) = controller.try_deploy(bw_s, None).unwrap() {
        deployments.push(d);
        if deployments.len() > 64 {
            panic!("runaway deployment loop");
        }
    }
    assert!(
        deployments.len() > catalog.cluster.len(),
        "spatial sharing must fit more than one tenant per FPGA (got {})",
        deployments.len()
    );
    // Some single device hosts at least two deployments.
    let mut per_device = std::collections::HashMap::new();
    for d in &deployments {
        for p in &d.placements {
            *per_device.entry(p.device).or_insert(0usize) += 1;
        }
    }
    assert!(per_device.values().any(|&n| n >= 2));
    // Release everything; capacity returns.
    for d in deployments {
        controller.release(&d).unwrap();
    }
    assert_eq!(controller.occupancy(), 0.0);
    assert!(controller.try_deploy(bw_s, None).unwrap().is_ok());
}

#[test]
fn baseline_policy_is_whole_device() {
    let catalog = Catalog::build();
    let mut controller = SystemController::new(
        catalog.cluster.clone(),
        catalog.db.clone(),
        Policy::Baseline,
    );
    let bw_s = controller.instance_id("bw-s").unwrap();
    // Exactly one tenant per device, so at most 4 deployments.
    let mut count = 0;
    while controller.try_deploy(bw_s, None).unwrap().is_ok() {
        count += 1;
        assert!(count <= catalog.cluster.len());
    }
    assert_eq!(count, catalog.cluster.len());
}

#[test]
fn large_instance_needs_the_big_device_or_multiple_fpgas() {
    let catalog = Catalog::build();
    let entry = catalog.db.entry("bw-l").unwrap();
    let single = entry
        .options
        .iter()
        .find(|o| o.num_units() == 1)
        .expect("single-FPGA option");
    assert!(single.units[0].images.contains_key("XCVU37P"));
    assert!(
        !single.units[0].images.contains_key("XCKU115"),
        "bw-l cannot fit the KU115 in one piece"
    );
    // But some multi-unit option has a unit that fits the KU115 — the
    // heterogeneity the restricted policy cannot exploit.
    let hetero_capable = entry
        .options
        .iter()
        .any(|o| o.num_units() > 1 && o.units.iter().any(|u| u.images.contains_key("XCKU115")));
    assert!(hetero_capable);
}

#[test]
fn full_policy_spans_heterogeneous_devices_under_pressure() {
    let catalog = Catalog::build();
    let mut controller =
        SystemController::new(catalog.cluster.clone(), catalog.db.clone(), Policy::Full);
    let bw_l = controller.instance_id("bw-l").unwrap();
    // Saturate the three VU37P devices with large tenants.
    let mut held = Vec::new();
    while let Ok(d) = controller.try_deploy(bw_l, None).unwrap() {
        let single_vu = d.num_units() == 1
            && catalog
                .cluster
                .device(d.placements[0].device)
                .device_type()
                .name()
                == "XCVU37P";
        held.push(d);
        if !single_vu {
            break;
        }
    }
    // The last deployment (if any beyond the VU37Ps) must have used the
    // KU115 somewhere — heterogeneous multi-FPGA deployment.
    let last = held.last().unwrap();
    let uses_ku = last.placements.iter().any(|p| p.device == DeviceId(3));
    assert!(
        uses_ku || held.len() <= 3,
        "under pressure the full policy should reach the KU115"
    );
    for d in held {
        controller.release(&d).unwrap();
    }
}

#[test]
fn restricted_policy_cannot_span_types() {
    let catalog = Catalog::build();
    let mut controller = SystemController::new(
        catalog.cluster.clone(),
        catalog.db.clone(),
        Policy::Restricted,
    );
    let bw_l = controller.instance_id("bw-l").unwrap();
    let mut held = Vec::new();
    while let Ok(d) = controller.try_deploy(bw_l, None).unwrap() {
        // Every deployment must stay within one device type.
        let types: std::collections::HashSet<&str> = d
            .placements
            .iter()
            .map(|p| catalog.cluster.device(p.device).device_type().name())
            .collect();
        assert_eq!(types.len(), 1, "restricted deployment spans {types:?}");
        held.push(d);
        if held.len() > 16 {
            break;
        }
    }
    assert!(!held.is_empty());
}

#[test]
fn service_times_are_sane_across_policies() {
    let catalog = Catalog::build();
    let task = RnnTask::new(RnnKind::Lstm, 512, 25);
    for policy in [Policy::Baseline, Policy::Full] {
        let mut controller =
            SystemController::new(catalog.cluster.clone(), catalog.db.clone(), policy);
        let instance = controller.instance_id(catalog.instance_for(&task)).unwrap();
        let d = controller.try_deploy(instance, None).unwrap().unwrap();
        let t = catalog.service_time(&task, &d, policy);
        // Table 4 scale: tens of microseconds to a few ms.
        assert!(
            t.as_ms() > 0.01 && t.as_ms() < 10.0,
            "{policy:?}: {} ms",
            t.as_ms()
        );
        controller.release(&d).unwrap();
    }
}

#[test]
fn generated_rtl_round_trips_through_text() {
    use vfpga::accel::{generate_rtl, AcceleratorConfig, TOP_MODULE};
    use vfpga::rtl::parse;
    // The generator's output survives print -> parse -> print unchanged,
    // so designs can be exchanged with external tools.
    let design = generate_rtl(&AcceleratorConfig::new("rt", 5));
    let text = design.to_source();
    let reparsed = parse(&text).expect("emitted source parses");
    assert_eq!(design.len(), reparsed.len());
    assert_eq!(
        design.leaf_instance_count(TOP_MODULE).unwrap(),
        reparsed.leaf_instance_count(TOP_MODULE).unwrap()
    );
    assert_eq!(
        design.canonical_hash(TOP_MODULE).unwrap(),
        reparsed.canonical_hash(TOP_MODULE).unwrap()
    );
    assert_eq!(reparsed.to_source(), text);
}

#[test]
fn four_machine_timing_cosim_completes() {
    use vfpga::accel::{AcceleratorConfig, CycleSim, TimingModel};
    use vfpga::core::scaleout::{insert_communication, remote_window, reorder_for_overlap};
    use vfpga::runtime::co_simulate_timing;
    use vfpga::sim::{LinkParams, SimTime};
    use vfpga::workload::{generate_program, SliceSpec};

    let machines = 4;
    let task = RnnTask::new(RnnKind::Gru, 512, 4);
    let cfg = vfpga::accel::AcceleratorConfig::new("m4", 8).scaled_down(machines);
    let _ = AcceleratorConfig::new("unused", 1);
    let mut sims: Vec<CycleSim> = (0..machines)
        .map(|m| {
            let rnn = generate_program(task, SliceSpec::new(m, machines));
            let window = remote_window(&cfg.isa, m, machines).unwrap();
            let p = insert_communication(&rnn.program, &rnn.state_slots, &window).unwrap();
            let p = reorder_for_overlap(&p, &window).unwrap();
            let mut s = CycleSim::new(
                TimingModel::for_config(&cfg, 400.0),
                &p,
                rnn.mat_shapes,
                rnn.dram_lens,
            );
            s.set_remote_window(Some(window));
            s
        })
        .collect();
    let link = LinkParams::new(SimTime::from_ns(500.0), 25.0);
    let result = co_simulate_timing(&mut sims, link, SimTime::ZERO).unwrap();
    assert_eq!(result.finish.len(), 4);
    assert!(result.makespan > SimTime::ZERO);
    // All machines finish within one barrier round of each other.
    let min = result
        .finish
        .iter()
        .copied()
        .fold(SimTime::MAX, SimTime::min);
    assert!(result.makespan.saturating_sub(min) < SimTime::from_us(50.0));
}
