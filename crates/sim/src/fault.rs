//! Deterministic fault-plan generation for chaos experiments.
//!
//! A [`FaultPlan`] is a pre-computed, seeded schedule of device fail and
//! recover events plus a transient configure-failure probability. Plans are
//! generated *before* a simulation runs (per-device alternating-renewal
//! processes with exponential time-to-failure and time-to-repair), so a run
//! over a plan is exactly reproducible from `(params, devices, seed)` — the
//! same property the workload generator already guarantees.

use crate::json::Json;
use crate::rng::Rng;
use crate::time::SimTime;

/// Parameters of the per-device failure/repair renewal process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlanParams {
    /// Mean time to failure of one device (exponentially distributed).
    pub mttf: SimTime,
    /// Mean time to repair of one device (exponentially distributed).
    pub mttr: SimTime,
    /// Probability that one otherwise-valid configure request fails
    /// transiently (flaky partial reconfiguration), `0.0..=1.0`.
    pub configure_failure_prob: f64,
    /// No new failure is generated at or after this time (repairs of
    /// earlier failures may still land past it, so devices always come
    /// back).
    pub horizon: SimTime,
}

impl FaultPlanParams {
    /// A plan that injects nothing.
    pub fn quiescent() -> Self {
        FaultPlanParams {
            mttf: SimTime::MAX,
            mttr: SimTime::ZERO,
            configure_failure_prob: 0.0,
            horizon: SimTime::ZERO,
        }
    }
}

/// Parameters of the per-link fault process and transfer corruption model.
///
/// Link faults ride on the same plan as device faults but run independent
/// per-link renewal processes: a fault wave either *degrades* the link
/// (reduced bandwidth, extra latency) or *fails* it outright, and every wave
/// is followed by a recovery. While any link fault activity is planned,
/// individual transfers are additionally corrupted with `corruption_prob`
/// and retransmitted under a bounded exponential-backoff budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaultParams {
    /// Mean time to a fault wave on one link (exponentially distributed).
    pub mttf: SimTime,
    /// Mean time to repair of one link (exponentially distributed).
    pub mttr: SimTime,
    /// Probability that a wave degrades the link instead of failing it,
    /// `0.0..=1.0`.
    pub degraded_fraction: f64,
    /// Bandwidth multiplier a degraded link serves, `(0.0, 1.0]`.
    ///
    /// Validated and carried, but the cloud simulator does not read it: a
    /// degraded `CloudSim` segment only draws corruption bursts, so this
    /// factor slows no cloud transfer or service time.
    pub bandwidth_factor: f64,
    /// Extra one-way latency of a degraded link.
    ///
    /// Like [`bandwidth_factor`](LinkFaultParams::bandwidth_factor), not
    /// read by the cloud simulator.
    pub extra_latency: SimTime,
    /// Per-transfer corruption probability while link faults are active,
    /// `0.0..=1.0`.
    pub corruption_prob: f64,
    /// Retransmission budget per corrupted transfer.
    pub max_retransmits: u32,
    /// Base retransmission backoff (doubles per attempt).
    pub retransmit_backoff: SimTime,
    /// No new link fault is generated at or after this time.
    pub horizon: SimTime,
}

impl LinkFaultParams {
    /// A link plan that injects nothing.
    pub fn quiescent() -> Self {
        LinkFaultParams {
            mttf: SimTime::MAX,
            mttr: SimTime::ZERO,
            degraded_fraction: 0.0,
            bandwidth_factor: 1.0,
            extra_latency: SimTime::ZERO,
            corruption_prob: 0.0,
            max_retransmits: 3,
            retransmit_backoff: SimTime::from_ns(200.0),
            horizon: SimTime::ZERO,
        }
    }
}

/// The kind of a scheduled link transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFaultKind {
    /// The link drops to degraded service.
    Degraded,
    /// The link goes down.
    Failed,
    /// The link returns to full health.
    Recovered,
}

impl LinkFaultKind {
    /// Sort rank: recoveries before new faults at the same instant.
    fn rank(self) -> u8 {
        match self {
            LinkFaultKind::Recovered => 0,
            LinkFaultKind::Degraded => 1,
            LinkFaultKind::Failed => 2,
        }
    }
}

/// One scheduled link state transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkFaultEvent {
    /// When the transition happens.
    pub at: SimTime,
    /// The link (ring segment) index.
    pub link: usize,
    /// What happens to the link.
    pub kind: LinkFaultKind,
}

/// One scheduled device state transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// When the transition happens.
    pub at: SimTime,
    /// The device index (the consumer maps it onto its device ids).
    pub device: usize,
    /// `true` for a failure, `false` for a recovery.
    pub fail: bool,
}

/// A deterministic schedule of device failures and recoveries.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    params: FaultPlanParams,
    seed: u64,
    devices: usize,
    events: Vec<FaultEvent>,
    link_params: LinkFaultParams,
    links: usize,
    link_events: Vec<LinkFaultEvent>,
}

impl FaultPlan {
    /// A plan with no faults at all (what the non-chaos simulations use).
    pub fn none() -> Self {
        FaultPlan {
            params: FaultPlanParams::quiescent(),
            seed: 0,
            devices: 0,
            events: Vec::new(),
            link_params: LinkFaultParams::quiescent(),
            links: 0,
            link_events: Vec::new(),
        }
    }

    /// Generates the fail/recover schedule for `devices` devices.
    ///
    /// Each device runs an independent alternating-renewal process seeded
    /// from `(seed, device)`, so adding a device never perturbs the
    /// schedule of the others. Failures stop at the horizon; the repair of
    /// a failure inside the horizon is always emitted, even if it lands
    /// beyond it.
    ///
    /// # Panics
    ///
    /// Panics if `configure_failure_prob` is outside `0.0..=1.0` or
    /// `mttf`/`mttr` is zero while the horizon is nonzero.
    pub fn generate(params: FaultPlanParams, devices: usize, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&params.configure_failure_prob),
            "configure_failure_prob must be a probability, got {}",
            params.configure_failure_prob
        );
        let mut events = Vec::new();
        if params.horizon > SimTime::ZERO {
            assert!(
                params.mttf > SimTime::ZERO && params.mttr > SimTime::ZERO,
                "mttf and mttr must be positive to generate faults"
            );
            for device in 0..devices {
                // Distinct per-device stream (golden-ratio stride over
                // the base seed, decorrelated by SplitMix64).
                let mut rng = Rng::stream(seed, device as u64);
                let mut now = SimTime::ZERO;
                loop {
                    let up_for = SimTime::from_secs(rng.exp(params.mttf.as_secs()));
                    let Some(fail_at) = now.checked_add(up_for) else {
                        break;
                    };
                    if fail_at >= params.horizon {
                        break;
                    }
                    events.push(FaultEvent {
                        at: fail_at,
                        device,
                        fail: true,
                    });
                    let down_for = SimTime::from_secs(rng.exp(params.mttr.as_secs()));
                    let Some(recover_at) = fail_at.checked_add(down_for) else {
                        break;
                    };
                    events.push(FaultEvent {
                        at: recover_at,
                        device,
                        fail: false,
                    });
                    now = recover_at;
                }
            }
            // Stable global order: time, then device, then recover-before-
            // fail (a device never fails and recovers at the same instant,
            // but distinct devices may coincide).
            events.sort_by_key(|e| (e.at, e.device, e.fail));
        }
        FaultPlan {
            params,
            seed,
            devices,
            events,
            link_params: LinkFaultParams::quiescent(),
            links: 0,
            link_events: Vec::new(),
        }
    }

    /// Adds a seeded per-link fault schedule for `links` ring segments.
    ///
    /// Each link runs an independent alternating-renewal process seeded
    /// from `(seed, link)` on a stream disjoint from the device streams
    /// (a distinct salt), so adding link faults never perturbs the device
    /// schedule and adding a link never perturbs the other links. Each
    /// wave is degraded with probability `degraded_fraction`, failed
    /// otherwise, and always followed by a recovery.
    ///
    /// # Panics
    ///
    /// Panics if a probability is outside `0.0..=1.0`, `bandwidth_factor`
    /// is outside `(0.0, 1.0]`, or `mttf`/`mttr` is zero while the link
    /// horizon is nonzero.
    pub fn with_link_faults(mut self, link_params: LinkFaultParams, links: usize) -> Self {
        assert!(
            (0.0..=1.0).contains(&link_params.degraded_fraction),
            "degraded_fraction must be a probability, got {}",
            link_params.degraded_fraction
        );
        assert!(
            (0.0..=1.0).contains(&link_params.corruption_prob),
            "corruption_prob must be a probability, got {}",
            link_params.corruption_prob
        );
        assert!(
            link_params.bandwidth_factor > 0.0 && link_params.bandwidth_factor <= 1.0,
            "bandwidth_factor must be in (0, 1], got {}",
            link_params.bandwidth_factor
        );
        let mut link_events = Vec::new();
        if link_params.horizon > SimTime::ZERO {
            assert!(
                link_params.mttf > SimTime::ZERO && link_params.mttr > SimTime::ZERO,
                "link mttf and mttr must be positive to generate faults"
            );
            for link in 0..links {
                // Same derived-stream family as the device streams, over a
                // salted base seed so the two families never collide.
                let mut rng = Rng::stream(self.seed ^ 0x4c49_4e4b_4c49_4e4b, link as u64);
                let mut now = SimTime::ZERO;
                loop {
                    let up_for = SimTime::from_secs(rng.exp(link_params.mttf.as_secs()));
                    let Some(fault_at) = now.checked_add(up_for) else {
                        break;
                    };
                    if fault_at >= link_params.horizon {
                        break;
                    }
                    let kind = if rng.next_f64() < link_params.degraded_fraction {
                        LinkFaultKind::Degraded
                    } else {
                        LinkFaultKind::Failed
                    };
                    link_events.push(LinkFaultEvent {
                        at: fault_at,
                        link,
                        kind,
                    });
                    let down_for = SimTime::from_secs(rng.exp(link_params.mttr.as_secs()));
                    let Some(recover_at) = fault_at.checked_add(down_for) else {
                        break;
                    };
                    link_events.push(LinkFaultEvent {
                        at: recover_at,
                        link,
                        kind: LinkFaultKind::Recovered,
                    });
                    now = recover_at;
                }
            }
            link_events.sort_by_key(|e| (e.at, e.link, e.kind.rank()));
        }
        self.link_params = link_params;
        self.links = links;
        self.link_events = link_events;
        self
    }

    /// Installs a hand-written link schedule (for tests and experiments
    /// that need precisely timed transitions rather than a seeded renewal
    /// process). Events are sorted into the canonical order (time, link,
    /// recoveries first); `link_params` supplies the corruption and
    /// retransmission model.
    pub fn with_link_schedule(
        mut self,
        link_params: LinkFaultParams,
        links: usize,
        mut events: Vec<LinkFaultEvent>,
    ) -> Self {
        events.sort_by_key(|e| (e.at, e.link, e.kind.rank()));
        self.link_params = link_params;
        self.links = links;
        self.link_events = events;
        self
    }

    /// The generation parameters.
    pub fn params(&self) -> FaultPlanParams {
        self.params
    }

    /// The generation seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Transient configure-failure probability, `0.0..=1.0`.
    pub fn configure_failure_prob(&self) -> f64 {
        self.params.configure_failure_prob
    }

    /// The scheduled fail/recover transitions, in time order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The link fault-generation parameters.
    pub fn link_params(&self) -> LinkFaultParams {
        self.link_params
    }

    /// Number of links the plan covers.
    pub fn links(&self) -> usize {
        self.links
    }

    /// The scheduled link transitions, in time order.
    pub fn link_events(&self) -> &[LinkFaultEvent] {
        &self.link_events
    }

    /// Per-transfer corruption probability while link faults are active.
    pub fn corruption_prob(&self) -> f64 {
        self.link_params.corruption_prob
    }

    /// Whether the plan injects any interconnect fault activity.
    pub fn has_link_faults(&self) -> bool {
        self.links > 0 && (!self.link_events.is_empty() || self.link_params.corruption_prob > 0.0)
    }

    /// Number of hard link failures in the plan.
    pub fn link_failures(&self) -> usize {
        self.link_events
            .iter()
            .filter(|e| e.kind == LinkFaultKind::Failed)
            .count()
    }

    /// Whether the plan injects nothing (no transitions, no transients,
    /// no link fault activity).
    pub fn is_quiescent(&self) -> bool {
        self.events.is_empty()
            && self.params.configure_failure_prob == 0.0
            && !self.has_link_faults()
    }

    /// Number of failure transitions in the plan.
    pub fn failures(&self) -> usize {
        self.events.iter().filter(|e| e.fail).count()
    }

    /// Largest number of devices simultaneously failed at any instant.
    pub fn max_concurrent_failures(&self) -> usize {
        let mut down = 0usize;
        let mut peak = 0usize;
        for e in &self.events {
            if e.fail {
                down += 1;
                peak = peak.max(down);
            } else {
                down = down.saturating_sub(1);
            }
        }
        peak
    }

    /// Serializes the plan (parameters plus the event schedule). The link
    /// section is emitted only when the plan covers links, so device-only
    /// plans serialize exactly as they did before the interconnect fault
    /// model existed.
    pub fn to_json(&self) -> Json {
        let mut json = Json::obj()
            .with("seed", self.seed)
            .with("devices", self.devices)
            .with("mttf_s", self.params.mttf.as_secs())
            .with("mttr_s", self.params.mttr.as_secs())
            .with("configure_failure_prob", self.params.configure_failure_prob)
            .with("horizon_s", self.params.horizon.as_secs())
            .with(
                "events",
                Json::Arr(
                    self.events
                        .iter()
                        .map(|e| {
                            Json::obj()
                                .with("t", e.at.as_secs())
                                .with("device", e.device)
                                .with("fail", e.fail)
                        })
                        .collect(),
                ),
            );
        if self.links > 0 {
            json = json
                .with("links", self.links)
                .with("link_mttf_s", self.link_params.mttf.as_secs())
                .with("link_mttr_s", self.link_params.mttr.as_secs())
                .with("degraded_fraction", self.link_params.degraded_fraction)
                .with("corruption_prob", self.link_params.corruption_prob)
                .with(
                    "link_events",
                    Json::Arr(
                        self.link_events
                            .iter()
                            .map(|e| {
                                Json::obj()
                                    .with("t", e.at.as_secs())
                                    .with("link", e.link)
                                    .with(
                                        "kind",
                                        match e.kind {
                                            LinkFaultKind::Degraded => "degraded",
                                            LinkFaultKind::Failed => "failed",
                                            LinkFaultKind::Recovered => "recovered",
                                        },
                                    )
                            })
                            .collect(),
                    ),
                );
        }
        json
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> FaultPlanParams {
        FaultPlanParams {
            mttf: SimTime::from_ms(2.0),
            mttr: SimTime::from_ms(0.5),
            configure_failure_prob: 0.05,
            horizon: SimTime::from_ms(20.0),
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = FaultPlan::generate(params(), 4, 99);
        let b = FaultPlan::generate(params(), 4, 99);
        assert_eq!(a, b);
        let c = FaultPlan::generate(params(), 4, 100);
        assert_ne!(a.events(), c.events());
    }

    #[test]
    fn per_device_streams_are_independent() {
        let small = FaultPlan::generate(params(), 2, 7);
        let large = FaultPlan::generate(params(), 4, 7);
        let only_01 = |p: &FaultPlan| {
            p.events()
                .iter()
                .copied()
                .filter(|e| e.device < 2)
                .collect::<Vec<_>>()
        };
        assert_eq!(only_01(&small), only_01(&large));
    }

    #[test]
    fn transitions_alternate_per_device() {
        let plan = FaultPlan::generate(params(), 4, 3);
        assert!(plan.failures() > 0, "horizon of 10 MTTFs should fail");
        for device in 0..4 {
            let mut down = false;
            for e in plan.events().iter().filter(|e| e.device == device) {
                assert_ne!(e.fail, down, "double transition on device {device}");
                down = e.fail;
            }
        }
        assert!(plan.max_concurrent_failures() >= 1);
    }

    #[test]
    fn events_are_time_ordered_and_recoveries_always_follow() {
        let plan = FaultPlan::generate(params(), 4, 11);
        assert!(plan.events().windows(2).all(|w| w[0].at <= w[1].at));
        // Every failure is paired with a later recovery of the same device.
        let fails = plan.failures();
        let recovers = plan.events().len() - fails;
        assert_eq!(fails, recovers);
    }

    #[test]
    fn none_is_quiescent() {
        let plan = FaultPlan::none();
        assert!(plan.is_quiescent());
        assert_eq!(plan.failures(), 0);
        assert_eq!(plan.max_concurrent_failures(), 0);
        let zero_horizon = FaultPlan::generate(FaultPlanParams::quiescent(), 8, 1);
        assert!(zero_horizon.is_quiescent());
    }

    #[test]
    fn json_exports_schedule() {
        let plan = FaultPlan::generate(params(), 2, 5);
        let text = plan.to_json().compact();
        assert!(text.contains(r#""configure_failure_prob":0.05"#), "{text}");
        assert!(text.contains(r#""fail":true"#), "{text}");
        // Device-only plans serialize without any link section.
        assert!(!text.contains("link_events"), "{text}");
    }

    fn link_params() -> LinkFaultParams {
        LinkFaultParams {
            mttf: SimTime::from_ms(2.0),
            mttr: SimTime::from_ms(0.5),
            degraded_fraction: 0.5,
            bandwidth_factor: 0.25,
            extra_latency: SimTime::from_ns(250.0),
            corruption_prob: 0.1,
            max_retransmits: 3,
            retransmit_backoff: SimTime::from_ns(200.0),
            horizon: SimTime::from_ms(20.0),
        }
    }

    #[test]
    fn link_generation_is_deterministic_and_leaves_devices_alone() {
        let base = FaultPlan::generate(params(), 4, 99);
        let a = base.clone().with_link_faults(link_params(), 4);
        let b = FaultPlan::generate(params(), 4, 99).with_link_faults(link_params(), 4);
        assert_eq!(a, b);
        // The device schedule is untouched by the link streams.
        assert_eq!(a.events(), base.events());
        assert!(!a.link_events().is_empty());
        assert!(a.has_link_faults());
        assert!(!a.is_quiescent());
    }

    #[test]
    fn per_link_streams_are_independent() {
        let small = FaultPlan::generate(params(), 4, 7).with_link_faults(link_params(), 2);
        let large = FaultPlan::generate(params(), 4, 7).with_link_faults(link_params(), 4);
        let only_01 = |p: &FaultPlan| {
            p.link_events()
                .iter()
                .copied()
                .filter(|e| e.link < 2)
                .collect::<Vec<_>>()
        };
        assert_eq!(only_01(&small), only_01(&large));
    }

    #[test]
    fn link_waves_mix_degradations_and_failures() {
        let plan = FaultPlan::generate(params(), 4, 13).with_link_faults(link_params(), 4);
        let kinds: Vec<_> = plan.link_events().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&LinkFaultKind::Degraded));
        assert!(kinds.contains(&LinkFaultKind::Failed));
        assert!(plan.link_failures() > 0);
        // Every wave is followed by a recovery of the same link.
        let faults = kinds
            .iter()
            .filter(|k| **k != LinkFaultKind::Recovered)
            .count();
        assert_eq!(faults, kinds.len() - faults);
        assert!(plan.link_events().windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn quiescent_link_plan_stays_quiescent() {
        let plan = FaultPlan::generate(FaultPlanParams::quiescent(), 4, 1)
            .with_link_faults(LinkFaultParams::quiescent(), 4);
        assert!(plan.is_quiescent());
        assert!(!plan.has_link_faults());
        // Corruption alone counts as link fault activity.
        let mut corrupting = LinkFaultParams::quiescent();
        corrupting.corruption_prob = 0.05;
        let plan =
            FaultPlan::generate(FaultPlanParams::quiescent(), 4, 1).with_link_faults(corrupting, 4);
        assert!(plan.has_link_faults());
        assert!(!plan.is_quiescent());
    }

    #[test]
    fn json_exports_link_schedule() {
        let plan = FaultPlan::generate(params(), 2, 5).with_link_faults(link_params(), 4);
        let text = plan.to_json().compact();
        assert!(text.contains(r#""link_events""#), "{text}");
        assert!(text.contains(r#""kind":"recovered""#), "{text}");
        assert!(text.contains(r#""corruption_prob":0.1"#), "{text}");
    }
}
