//! Coupled simulation of scaled-down accelerators exchanging state over
//! the inter-FPGA ring (Fig. 11's machinery), with optional interconnect
//! fault injection (degraded service, corruption with bounded
//! retransmission, hard outages) and a deadline watchdog.

use vfpga_accel::{CycleSim, FuncSim, Poll, StepOutcome};
use vfpga_isa::Program;
use vfpga_sim::{DegradedMode, Json, LinkFaultKind, LinkParams, RetransmitPolicy, Rng, SimTime};

use crate::RuntimeError;

/// Interconnect fault schedule for a timing co-simulation: health waves of
/// the (single logical) ring link plus a transfer corruption model and an
/// optional delivery deadline.
///
/// With a quiescent chaos config the co-simulation is bit-for-bit the
/// ideal-wire model: no RNG is drawn and arrivals follow the memoryless
/// `send + serialization + latency + added_latency` formula.
#[derive(Debug, Clone)]
pub struct LinkChaos {
    /// Health transitions of the ring link, in time order.
    pub events: Vec<(SimTime, LinkFaultKind)>,
    /// What the link serves while degraded.
    pub degraded: DegradedMode,
    /// Per-transmission corruption probability, `0.0..=1.0`.
    pub corruption_prob: f64,
    /// Retransmission budget for corrupted transmissions.
    pub retransmit: RetransmitPolicy,
    /// Messages that cannot arrive by this deadline are undeliverable; the
    /// watchdog reports [`RuntimeError::Timeout`] instead of `Deadlock`
    /// when a machine starves on one.
    pub deadline: Option<SimTime>,
    /// Seed of the corruption draw stream.
    pub seed: u64,
}

impl LinkChaos {
    /// A chaos config that injects nothing.
    pub fn quiescent() -> Self {
        LinkChaos {
            events: Vec::new(),
            degraded: DegradedMode::default(),
            corruption_prob: 0.0,
            retransmit: RetransmitPolicy::default(),
            deadline: None,
            seed: 0,
        }
    }
}

/// Result of a timing co-simulation, including the communication counters
/// the observability layer exports (message volume, scheduling rounds,
/// link-down waits, and retransmission work — the knobs
/// Fig. 11's latency sweep stresses).
#[derive(Debug, Clone)]
pub struct ScaleOutTiming {
    /// Per-machine finish time.
    pub finish: Vec<SimTime>,
    /// The inference latency: the latest finish.
    pub makespan: SimTime,
    /// Ring messages exchanged across all machines.
    pub messages: u64,
    /// Payload bytes put on the wire (f16 elements, 2 bytes each).
    pub bytes_on_wire: u64,
    /// Scheduler rounds the co-simulation needed to drain all machines
    /// (each round polls every unfinished machine once).
    pub poll_rounds: u64,
    /// Messages (and retransmissions) that waited for a down link to
    /// recover before their first byte went out. Only link-down stalls
    /// count: the wire is pipelined, so a healthy ring delays no send.
    pub queue_waits: u64,
    /// Total pre-serialization wait across those messages.
    pub queue_wait_total: SimTime,
    /// Longest single pre-serialization wait.
    pub queue_wait_max: SimTime,
    /// Retransmissions performed for corrupted transmissions.
    pub retransmits: u64,
    /// Payload bytes re-serialized by those retransmissions.
    pub bytes_retransmitted: u64,
}

impl ScaleOutTiming {
    /// Load imbalance: gap between the earliest and latest finisher.
    pub fn imbalance(&self) -> SimTime {
        let earliest = self.finish.iter().copied().min().unwrap_or(SimTime::ZERO);
        self.makespan.saturating_sub(earliest)
    }

    /// Serializes the timing result (times in seconds).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("makespan_s", self.makespan.as_secs())
            .with("imbalance_s", self.imbalance().as_secs())
            .with(
                "finish_s",
                Json::Arr(
                    self.finish
                        .iter()
                        .map(|t| Json::from(t.as_secs()))
                        .collect(),
                ),
            )
            .with("messages", self.messages)
            .with("bytes_on_wire", self.bytes_on_wire)
            .with("poll_rounds", self.poll_rounds)
            .with("queue_waits", self.queue_waits)
            .with("queue_wait_total_s", self.queue_wait_total.as_secs())
            .with("queue_wait_max_s", self.queue_wait_max.as_secs())
            .with("retransmits", self.retransmits)
            .with("bytes_retransmitted", self.bytes_retransmitted)
    }
}

/// The faulted wire: computes the arrival time of each message exactly once
/// (at the moment the send is first observed), applying link health waves,
/// corruption with bounded exponential-backoff retransmission, and the
/// delivery deadline. Accumulates the fault accounting for the report.
struct Wire {
    link: LinkParams,
    added: SimTime,
    chaos: LinkChaos,
    rng: Rng,
    retransmits: u64,
    bytes_retransmitted: u64,
    waits: u64,
    wait_total: SimTime,
    wait_max: SimTime,
}

impl Wire {
    fn new(link: LinkParams, added: SimTime, chaos: LinkChaos) -> Self {
        let rng = Rng::seed_from_u64(chaos.seed ^ 0x5749_5245_5749_5245);
        Wire {
            link,
            added,
            chaos,
            rng,
            retransmits: 0,
            bytes_retransmitted: 0,
            waits: 0,
            wait_total: SimTime::ZERO,
            wait_max: SimTime::ZERO,
        }
    }

    /// Link health at time `t` per the event schedule.
    fn health_at(&self, t: SimTime) -> LinkFaultKind {
        let mut state = LinkFaultKind::Recovered;
        for &(at, kind) in &self.chaos.events {
            if at > t {
                break;
            }
            state = kind;
        }
        state
    }

    /// First recovery strictly after `t`, if any.
    fn next_recovery_after(&self, t: SimTime) -> Option<SimTime> {
        self.chaos
            .events
            .iter()
            .find(|&&(at, kind)| at > t && kind == LinkFaultKind::Recovered)
            .map(|&(at, _)| at)
    }

    /// Counts a wait for a down link.
    fn record_wait(&mut self, wait: SimTime) {
        if wait > SimTime::ZERO {
            self.waits += 1;
            self.wait_total += wait;
            self.wait_max = self.wait_max.max(wait);
        }
    }

    /// Arrival of a message of `bytes` sent at `at`; `None` when the link
    /// never recovers, the retransmit budget runs out, or the deadline
    /// passes. On a healthy link with no corruption this is the ideal
    /// pipelined wire of Fig. 11, and no RNG is drawn.
    fn deliver(&mut self, at: SimTime, bytes: u64) -> Option<SimTime> {
        let mut start = at;
        let mut retransmits = 0u32;
        let mut delivered = None;
        loop {
            match self.health_at(start) {
                LinkFaultKind::Failed => {
                    // The message waits for the link to come back.
                    let Some(up) = self.next_recovery_after(start) else {
                        break;
                    };
                    self.record_wait(up.saturating_sub(start));
                    start = up;
                }
                state => {
                    let eff = if state == LinkFaultKind::Degraded {
                        self.chaos.degraded.apply(self.link)
                    } else {
                        self.link
                    };
                    let done = start + eff.serialization_time(bytes);
                    let corrupt = self.chaos.corruption_prob > 0.0
                        && self.rng.next_f64() < self.chaos.corruption_prob;
                    if !corrupt {
                        let arrival = done + eff.latency + self.added;
                        if self.chaos.deadline.is_some_and(|d| arrival > d) {
                            break;
                        }
                        delivered = Some(arrival);
                        break;
                    }
                    if retransmits >= self.chaos.retransmit.max_retransmits {
                        break;
                    }
                    start = done + self.chaos.retransmit.backoff(retransmits);
                    retransmits += 1;
                    self.bytes_retransmitted += bytes;
                }
            }
        }
        self.retransmits += retransmits as u64;
        delivered
    }
}

/// Per-sender arrival snapshot entry: `(chan, seq, arrival)` where a `None`
/// arrival marks a message that can never be delivered.
type MsgArrival = (u32, u64, Option<SimTime>);

/// Folds a machine's new sends (past `entry.len()`) into its arrival
/// snapshot, pushing each through the faulted wire once.
fn sync_sends(machine: &CycleSim, entry: &mut Vec<MsgArrival>, wire: &mut Wire) {
    let sends = machine.sends();
    for s in &sends[entry.len()..] {
        let bytes = s.len as u64 * 2; // f16 payload
        entry.push((s.chan, s.seq, wire.deliver(s.at, bytes)));
    }
}

/// Co-simulates the timing of communicating machines over an ideal ring.
///
/// Each machine runs its own [`CycleSim`] (with its remote window already
/// configured). A message sent by machine `p` on channel `c` with sequence
/// number `s` becomes available to every other machine at
///
/// ```text
/// send_time + serialization(len) + link.latency + added_latency
/// ```
///
/// `added_latency` reproduces the paper's programmable latency-insertion
/// module, which Fig. 11 sweeps. A barrier receive completes when *all*
/// peers' `s`-th message on the channel has arrived.
///
/// # Errors
///
/// Returns [`RuntimeError::Deadlock`] if every unfinished machine is
/// blocked and no new message can unblock any of them.
pub fn co_simulate_timing(
    machines: &mut [CycleSim],
    link: LinkParams,
    added_latency: SimTime,
) -> Result<ScaleOutTiming, RuntimeError> {
    co_simulate_timing_faulted(machines, link, added_latency, &LinkChaos::quiescent())
}

/// [`co_simulate_timing`] over a faultable ring: the link degrades, fails,
/// and recovers per `chaos.events`; transmissions are corrupted with
/// `chaos.corruption_prob` and retransmitted under the bounded
/// exponential-backoff budget; arrivals account for every retransmission.
///
/// # Errors
///
/// * [`RuntimeError::Timeout`] — a machine starves on a message that was
///   *sent* but can never be delivered: the link failed for good, the
///   retransmit budget was exhausted, or delivery would pass
///   `chaos.deadline`.
/// * [`RuntimeError::Deadlock`] — a machine starves on a message that was
///   never sent (a protocol cycle, as before).
pub fn co_simulate_timing_faulted(
    machines: &mut [CycleSim],
    link: LinkParams,
    added_latency: SimTime,
    chaos: &LinkChaos,
) -> Result<ScaleOutTiming, RuntimeError> {
    let n = machines.len();
    let mut finish: Vec<Option<SimTime>> = vec![None; n];
    let mut poll_rounds = 0u64;
    let mut wire = Wire::new(link, added_latency, chaos.clone());
    // Arrival snapshot, maintained incrementally: entry [p][i] is the
    // delivery of machine p's i-th send. Rebuilt only when a machine
    // actually produced new sends (not per machine per round).
    let mut arrivals: Vec<Vec<MsgArrival>> = vec![Vec::new(); n];
    for m in 0..n {
        sync_sends(&machines[m], &mut arrivals[m], &mut wire);
    }

    loop {
        poll_rounds += 1;
        let mut progressed = false;
        let mut blocked = 0usize;
        let mut starved = false;
        for m in 0..n {
            if finish[m].is_some() {
                continue;
            }
            let sends_before = machines[m].sends().len();
            let outcome = {
                let arrivals = &arrivals;
                let starved = &mut starved;
                let mut recv_ready = |chan: u32, seq: u64| -> Option<SimTime> {
                    let mut latest = SimTime::ZERO;
                    for (p, peer) in arrivals.iter().enumerate() {
                        if p == m {
                            continue;
                        }
                        let &(_, _, arrival) =
                            peer.iter().find(|&&(c, s, _)| c == chan && s == seq)?;
                        match arrival {
                            Some(a) => latest = latest.max(a),
                            None => {
                                // Sent but undeliverable: the receiver is
                                // starved, not deadlocked.
                                *starved = true;
                                return None;
                            }
                        }
                    }
                    Some(latest)
                };
                machines[m].poll(&mut recv_ready)
            };
            match outcome {
                Poll::Done(t) => {
                    finish[m] = Some(t);
                    progressed = true;
                }
                Poll::Blocked { .. } => {
                    blocked += 1;
                    if machines[m].sends().len() > sends_before {
                        progressed = true;
                    }
                }
            }
            if machines[m].sends().len() > sends_before {
                sync_sends(&machines[m], &mut arrivals[m], &mut wire);
            }
        }
        if finish.iter().all(Option::is_some) {
            break;
        }
        if !progressed {
            return Err(if starved {
                RuntimeError::Timeout { blocked }
            } else {
                RuntimeError::Deadlock { blocked }
            });
        }
    }

    let finish: Vec<SimTime> = finish.into_iter().map(Option::unwrap).collect();
    let makespan = finish.iter().copied().fold(SimTime::ZERO, SimTime::max);
    let mut messages = 0u64;
    let mut bytes_on_wire = 0u64;
    for m in machines.iter() {
        messages += m.sends().len() as u64;
        bytes_on_wire += m.sends().iter().map(|s| s.len as u64 * 2).sum::<u64>();
    }
    Ok(ScaleOutTiming {
        finish,
        makespan,
        messages,
        bytes_on_wire,
        poll_rounds,
        queue_waits: wire.waits,
        queue_wait_total: wire.wait_total,
        queue_wait_max: wire.wait_max,
        retransmits: wire.retransmits,
        bytes_retransmitted: wire.bytes_retransmitted,
    })
}

/// Co-simulates the *functional* execution of communicating machines: each
/// machine's sends are delivered to every peer's inbox; barrier receives
/// block until all peers delivered. On success every machine has halted
/// and its architectural state (DRAM, registers) holds the results.
///
/// # Errors
///
/// Returns [`RuntimeError::MachineCount`] unless there is one program per
/// machine, [`RuntimeError::Sim`] on semantic errors and
/// [`RuntimeError::Deadlock`] if no machine can make progress.
pub fn co_simulate_functional(
    sims: &mut [FuncSim],
    programs: &[Program],
) -> Result<(), RuntimeError> {
    if sims.len() != programs.len() {
        return Err(RuntimeError::MachineCount {
            machines: sims.len(),
            programs: programs.len(),
        });
    }
    let n = sims.len();
    for (sim, program) in sims.iter_mut().zip(programs) {
        sim.start(program)
            .map_err(|e| RuntimeError::Sim(Box::new(e)))?;
    }
    let mut halted = vec![false; n];
    loop {
        let mut progressed = false;
        for m in 0..n {
            if halted[m] {
                continue;
            }
            // Run machine m until it halts or blocks.
            loop {
                match sims[m].step().map_err(|e| RuntimeError::Sim(Box::new(e)))? {
                    StepOutcome::Executed => {
                        progressed = true;
                    }
                    StepOutcome::Halted => {
                        halted[m] = true;
                        progressed = true;
                        break;
                    }
                    StepOutcome::NeedsRemote { .. } => break,
                }
            }
            // Deliver everything machine m sent to all peers.
            let sends = sims[m].take_sends();
            if !sends.is_empty() {
                progressed = true;
            }
            for (chan, data) in sends {
                for (p, sim) in sims.iter_mut().enumerate() {
                    if p != m {
                        sim.inject_remote(chan, m, data.clone());
                    }
                }
            }
        }
        if halted.iter().all(|&h| h) {
            return Ok(());
        }
        if !progressed {
            let blocked = halted.iter().filter(|&&h| !h).count();
            return Err(RuntimeError::Deadlock { blocked });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfpga_accel::{AcceleratorConfig, TimingModel};
    use vfpga_core::scaleout::{insert_communication, remote_window};
    use vfpga_workload::{generate_program, RnnKind, RnnTask, SliceSpec};

    /// Two communicating machines; `mute` strips machine 1's communication
    /// so machine 0 waits on messages that are never sent.
    fn two_machines(mute: bool) -> Vec<CycleSim> {
        let machines = 2;
        let task = RnnTask::new(RnnKind::Gru, 512, 4);
        let cfg = AcceleratorConfig::new("watchdog", 8).scaled_down(machines);
        (0..machines)
            .map(|m| {
                let rnn = generate_program(task, SliceSpec::new(m, machines));
                let window = remote_window(&cfg.isa, m, machines).unwrap();
                let program = if mute && m == 1 {
                    rnn.program.clone()
                } else {
                    insert_communication(&rnn.program, &rnn.state_slots, &window).unwrap()
                };
                let mut sim = CycleSim::new(
                    TimingModel::for_config(&cfg, 400.0),
                    &program,
                    rnn.mat_shapes,
                    rnn.dram_lens,
                );
                if !(mute && m == 1) {
                    sim.set_remote_window(Some(window));
                }
                sim
            })
            .collect()
    }

    fn test_link() -> LinkParams {
        LinkParams::new(SimTime::from_ns(500.0), 25.0)
    }

    #[test]
    fn quiescent_chaos_matches_plain_cosim() {
        let plain = {
            let mut sims = two_machines(false);
            co_simulate_timing(&mut sims, test_link(), SimTime::ZERO).unwrap()
        };
        let faulted = {
            let mut sims = two_machines(false);
            co_simulate_timing_faulted(
                &mut sims,
                test_link(),
                SimTime::ZERO,
                &LinkChaos::quiescent(),
            )
            .unwrap()
        };
        assert_eq!(plain.finish, faulted.finish);
        assert_eq!(plain.makespan, faulted.makespan);
        assert_eq!(plain.poll_rounds, faulted.poll_rounds);
        assert_eq!(faulted.retransmits, 0);
        assert_eq!(faulted.bytes_retransmitted, 0);
    }

    #[test]
    fn missing_sender_is_a_deadlock() {
        let mut sims = two_machines(true);
        let err = co_simulate_timing(&mut sims, test_link(), SimTime::ZERO).unwrap_err();
        assert!(
            matches!(err, RuntimeError::Deadlock { blocked: 1 }),
            "{err}"
        );
    }

    #[test]
    fn unrecovered_link_failure_is_a_timeout() {
        let mut sims = two_machines(false);
        let chaos = LinkChaos {
            events: vec![(SimTime::ZERO, LinkFaultKind::Failed)],
            ..LinkChaos::quiescent()
        };
        let err =
            co_simulate_timing_faulted(&mut sims, test_link(), SimTime::ZERO, &chaos).unwrap_err();
        assert!(matches!(err, RuntimeError::Timeout { .. }), "{err}");
    }

    #[test]
    fn impossible_deadline_is_a_timeout_not_a_deadlock() {
        let mut sims = two_machines(false);
        let chaos = LinkChaos {
            deadline: Some(SimTime::from_ps(1)),
            ..LinkChaos::quiescent()
        };
        let err =
            co_simulate_timing_faulted(&mut sims, test_link(), SimTime::ZERO, &chaos).unwrap_err();
        assert!(matches!(err, RuntimeError::Timeout { .. }), "{err}");
    }

    #[test]
    fn transient_outage_delays_but_completes_with_retransmit_accounting() {
        let healthy = {
            let mut sims = two_machines(false);
            co_simulate_timing(&mut sims, test_link(), SimTime::ZERO).unwrap()
        };
        // The link drops mid-stream and comes back; everything sent during
        // the outage waits for recovery.
        let mut sims = two_machines(false);
        let down_at = SimTime::from_ps(healthy.makespan.as_ps() / 4);
        let up_at = SimTime::from_ps(healthy.makespan.as_ps() / 2);
        let chaos = LinkChaos {
            events: vec![
                (down_at, LinkFaultKind::Failed),
                (up_at, LinkFaultKind::Recovered),
            ],
            ..LinkChaos::quiescent()
        };
        let faulted =
            co_simulate_timing_faulted(&mut sims, test_link(), SimTime::ZERO, &chaos).unwrap();
        assert!(
            faulted.makespan >= healthy.makespan,
            "outage cannot speed things up: {} < {}",
            faulted.makespan,
            healthy.makespan
        );
        assert!(faulted.queue_waits > 0, "outage waits are recorded");
        assert!(faulted.queue_wait_total >= faulted.queue_wait_max);
    }

    #[test]
    fn corruption_forces_retransmissions() {
        let mut sims = two_machines(false);
        let chaos = LinkChaos {
            corruption_prob: 0.5,
            retransmit: RetransmitPolicy {
                max_retransmits: 64,
                base_backoff: SimTime::from_ns(50.0),
            },
            seed: 7,
            ..LinkChaos::quiescent()
        };
        let faulted =
            co_simulate_timing_faulted(&mut sims, test_link(), SimTime::ZERO, &chaos).unwrap();
        assert!(faulted.retransmits > 0);
        assert!(faulted.bytes_retransmitted > 0);
        let healthy = {
            let mut sims = two_machines(false);
            co_simulate_timing(&mut sims, test_link(), SimTime::ZERO).unwrap()
        };
        assert!(faulted.makespan > healthy.makespan);
    }

    /// Pins the whole timing report, queue-wait and retransmit counters
    /// included, on a quiescent ring and on one that degrades, fails,
    /// recovers and corrupts half of its transmissions (a budget of 64
    /// retransmissions is never exhausted at seed 7).
    #[test]
    fn golden_cosim_reports_are_pinned() {
        let run = |chaos: &LinkChaos| {
            let mut sims = two_machines(false);
            co_simulate_timing_faulted(&mut sims, test_link(), SimTime::ZERO, chaos)
                .unwrap()
                .to_json()
                .compact()
        };
        let faulted = LinkChaos {
            events: vec![
                (SimTime::from_us(2.0), LinkFaultKind::Degraded),
                (SimTime::from_us(6.0), LinkFaultKind::Failed),
                (SimTime::from_us(9.0), LinkFaultKind::Recovered),
            ],
            degraded: DegradedMode::new(0.5, SimTime::from_ns(250.0)),
            corruption_prob: 0.5,
            retransmit: RetransmitPolicy {
                max_retransmits: 64,
                base_backoff: SimTime::from_ns(50.0),
            },
            seed: 7,
            ..LinkChaos::quiescent()
        };
        assert_eq!(
            run(&LinkChaos::quiescent()),
            concat!(
                r#"{"makespan_s":0.0000137275,"imbalance_s":0,"#,
                r#""finish_s":[0.0000137275,0.0000137275],"messages":8,"#,
                r#""bytes_on_wire":4096,"poll_rounds":3,"queue_waits":0,"#,
                r#""queue_wait_total_s":0,"queue_wait_max_s":0,"retransmits":0,"#,
                r#""bytes_retransmitted":0}"#
            )
        );
        assert_eq!(
            run(&faulted),
            concat!(
                r#"{"makespan_s":0.0000169425,"imbalance_s":0.000000215,"#,
                r#""finish_s":[0.0000169425,0.0000167275],"messages":8,"#,
                r#""bytes_on_wire":4096,"poll_rounds":3,"queue_waits":2,"#,
                r#""queue_wait_total_s":0.000006,"queue_wait_max_s":0.000003,"#,
                r#""retransmits":2,"bytes_retransmitted":1024}"#
            )
        );
    }

    #[test]
    fn mismatched_machines_and_programs_are_a_typed_error() {
        let mut sims = vec![FuncSim::new(&AcceleratorConfig::new("t", 2))];
        let programs = vec![Program::new(Vec::new()); 2];
        let err = co_simulate_functional(&mut sims, &programs).unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::MachineCount {
                machines: 1,
                programs: 2
            }
        ));
        assert_eq!(
            err.to_string(),
            "co-simulation got 2 programs for 1 machines"
        );
    }

    #[test]
    fn degraded_link_slows_the_sweep() {
        let healthy = {
            let mut sims = two_machines(false);
            co_simulate_timing(&mut sims, test_link(), SimTime::ZERO).unwrap()
        };
        let mut sims = two_machines(false);
        let chaos = LinkChaos {
            events: vec![(SimTime::ZERO, LinkFaultKind::Degraded)],
            degraded: DegradedMode::new(0.25, SimTime::from_ns(500.0)),
            ..LinkChaos::quiescent()
        };
        let faulted =
            co_simulate_timing_faulted(&mut sims, test_link(), SimTime::ZERO, &chaos).unwrap();
        assert!(faulted.makespan > healthy.makespan);
    }
}
