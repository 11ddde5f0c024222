//! Golden fingerprints of the offline toolchain's front and back ends.
//!
//! * The Fig. 11 timing co-simulations: the three benchmark tasks (LSTM
//!   h=1024 t=25, GRU h=1024 t=64, GRU h=2560 t=64) on 2 and 4 machines,
//!   with and without the overlap reorder, at 0, 1 and 2 us of added link
//!   latency. Every `ScaleOutTiming` report is folded into one FNV-1a
//!   digest per task, so a change to the cycle model, the reorder or the
//!   ring that moves any number fails here.
//! * The flattened block graph of generated accelerators (tiles 1, 8 and
//!   21), built directly and after a `to_source` → `parse` round trip:
//!   every node's path, module and behavior, every edge and every node's
//!   external input and output widths.

use vfpga::accel::{generate_rtl, AcceleratorConfig, CycleSim, TimingModel, TOP_MODULE};
use vfpga::core::scaleout::{insert_communication, remote_window, reorder_for_overlap};
use vfpga::fabric::MemoryKind;
use vfpga::rtl::{parse, FlatGraph};
use vfpga::runtime::co_simulate_timing;
use vfpga::sim::SimTime;
use vfpga::workload::{generate_program, RnnKind, RnnTask, SizeClass, SliceSpec};
use vfpga_bench::catalog::{ring_link, storage_bfp};

/// FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// The JSON report of one Fig. 11 point, built the way the benchmark
/// builds it: the task's accelerator scaled down `machines` ways, clocked
/// at 400 MHz, on the catalog's ring link.
fn cosim_report(task: RnnTask, machines: usize, reorder: bool, added: SimTime) -> String {
    let tiles = match task.size_class() {
        SizeClass::Small => 2,
        SizeClass::Medium => 8,
        SizeClass::Large => 21,
    };
    let config = AcceleratorConfig::new("fig11", tiles)
        .with_bfp(storage_bfp())
        .scaled_down(machines);
    let mut sims: Vec<CycleSim> = (0..machines)
        .map(|m| {
            let rnn = generate_program(task, SliceSpec::new(m, machines));
            let window = remote_window(&config.isa, m, machines).expect("window fits");
            let mut program =
                insert_communication(&rnn.program, &rnn.state_slots, &window).expect("insert");
            if reorder {
                program = reorder_for_overlap(&program, &window).expect("reorder");
            }
            let model = TimingModel::for_config(&config, 400.0);
            let mut sim = CycleSim::new(model, &program, rnn.mat_shapes, rnn.dram_lens);
            sim.set_remote_window(Some(window));
            sim
        })
        .collect();
    co_simulate_timing(&mut sims, ring_link(), added)
        .expect("co-simulation")
        .to_json()
        .compact()
}

#[test]
fn fig11_cosim_reports_are_pinned() {
    let tasks = [
        (RnnTask::new(RnnKind::Lstm, 1024, 25), 0xbce8_0fe4_d5f3_8a53),
        (RnnTask::new(RnnKind::Gru, 1024, 64), 0x93f9_82b1_38a2_21e0),
        (RnnTask::new(RnnKind::Gru, 2560, 64), 0x387a_ad91_67b2_a008),
    ];
    let mut got = Vec::new();
    for (task, _) in tasks {
        let mut h = Fnv::new();
        for machines in [2, 4] {
            for reorder in [true, false] {
                for added_us in [0.0, 1.0, 2.0] {
                    h.str(&cosim_report(
                        task,
                        machines,
                        reorder,
                        SimTime::from_us(added_us),
                    ));
                }
            }
        }
        got.push(h.0);
    }
    let want: Vec<u64> = tasks.iter().map(|&(_, d)| d).collect();
    assert_eq!(
        got,
        want,
        "got {:?}",
        got.iter().map(|d| format!("{d:#018x}")).collect::<Vec<_>>()
    );
}

fn fingerprint(h: &mut Fnv, g: &FlatGraph) {
    h.u64(g.node_count() as u64);
    for (id, node) in g.nodes() {
        h.str(&node.path);
        h.str(&node.module);
        h.str(node.behavior.as_deref().unwrap_or("-"));
        h.u64(g.external_inputs_of(id));
        h.u64(g.external_outputs_of(id));
    }
    for e in g.edges() {
        h.u64(e.from.0 as u64);
        h.u64(e.to.0 as u64);
        h.u64(e.width);
    }
}

#[test]
fn flattened_accelerators_are_pinned() {
    let cases = [
        (1, 0xf042_2191_4d57_415cu64),
        (8, 0x37fa_15b1_c1f2_5b97),
        (21, 0xe0ec_780d_1471_4da2),
    ];
    let mut got = Vec::new();
    for (tiles, _) in cases {
        let config = AcceleratorConfig::new(format!("tiles-{tiles:02}"), tiles)
            .with_memory_kind(MemoryKind::Uram)
            .with_bfp(storage_bfp());
        let design = generate_rtl(&config);
        let direct = design.flatten(TOP_MODULE).expect("flatten");
        let reparsed = parse(&design.to_source())
            .expect("parse")
            .flatten(TOP_MODULE)
            .expect("flatten");
        let (mut a, mut b) = (Fnv::new(), Fnv::new());
        fingerprint(&mut a, &direct);
        fingerprint(&mut b, &reparsed);
        assert_eq!(a.0, b.0, "tiles {tiles}: re-parsed graph differs");
        got.push(a.0);
    }
    let want: Vec<u64> = cases.iter().map(|&(_, d)| d).collect();
    assert_eq!(
        got,
        want,
        "got {:?}",
        got.iter().map(|d| format!("{d:#018x}")).collect::<Vec<_>>()
    );
}
