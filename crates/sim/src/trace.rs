//! A bounded ring buffer of timestamped scheduler events.
//!
//! The runtime emits one [`TraceEvent`] per scheduler decision; the ring
//! keeps the most recent `capacity` events with O(1) push and no
//! per-event allocation (reasons are static strings), so tracing can stay
//! on in the simulator's hot loop.

use crate::json::Json;
use crate::time::SimTime;

/// What happened at one trace point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEventKind {
    /// A task arrived and entered the queue.
    Arrival {
        /// Workload task index.
        task: u64,
    },
    /// A task was deployed onto the cluster.
    Deploy {
        /// Workload task index.
        task: u64,
        /// Number of FPGAs the deployment spans.
        units: u32,
    },
    /// A deployment attempt was rejected.
    DeployRejected {
        /// Workload task index.
        task: u64,
        /// Static reason label (e.g. `"insufficient_capacity"`).
        reason: &'static str,
    },
    /// A task finished executing.
    Completion {
        /// Workload task index.
        task: u64,
    },
    /// A deployment's resources were released.
    Release {
        /// Workload task index.
        task: u64,
    },
    /// A device failed; its allocations were evicted.
    DeviceFailed {
        /// The failed device index.
        device: u64,
    },
    /// A failed device came back with all slots free.
    DeviceRecovered {
        /// The recovered device index.
        device: u64,
    },
    /// An interrupted deployment began migrating off a failed device.
    MigrationStarted {
        /// Workload task index.
        task: u64,
        /// The device whose failure interrupted the deployment.
        device: u64,
    },
    /// An interrupted deployment was redeployed on surviving devices.
    MigrationCompleted {
        /// Workload task index.
        task: u64,
        /// Number of FPGAs the new deployment spans.
        units: u32,
    },
    /// Migration retries were exhausted; the task is demoted (requeued or
    /// dropped, per the recovery policy).
    RetryExhausted {
        /// Workload task index.
        task: u64,
    },
    /// The reprovisioner grew a running deployment to a higher-unit
    /// variant using idle capacity.
    ScaleUp {
        /// Workload task index.
        task: u64,
        /// Units before the promotion.
        from_units: u32,
        /// Units after the promotion.
        to_units: u32,
    },
    /// The reprovisioner preemptively shrank a running deployment to
    /// admit queued work.
    PreemptiveScaleDown {
        /// Workload task index.
        task: u64,
        /// Units before the demotion.
        from_units: u32,
        /// Units after the demotion.
        to_units: u32,
    },
    /// A ring segment dropped to degraded service.
    LinkDegraded {
        /// The degraded segment index.
        link: u64,
    },
    /// A ring segment went down.
    LinkFailed {
        /// The failed segment index.
        link: u64,
    },
    /// A ring segment returned to full health.
    LinkRecovered {
        /// The recovered segment index.
        link: u64,
    },
    /// Corrupted ring traffic of a deployment was retransmitted.
    Retransmit {
        /// Workload task index.
        task: u64,
        /// The segment the corrupted copies crossed.
        link: u64,
        /// Number of retransmissions in this burst.
        attempts: u64,
        /// Payload bytes re-serialized by the burst.
        bytes: u64,
    },
    /// A deployment's ring traffic was routed the other way around the
    /// ring after a segment failure.
    LinkRerouted {
        /// Workload task index.
        task: u64,
        /// The failed segment routed around.
        link: u64,
        /// Extra hops the surviving direction costs.
        extra_hops: u64,
    },
    /// Sampled queue depth.
    QueueDepth {
        /// Number of tasks waiting.
        depth: u64,
    },
    /// Sampled cluster-wide virtual-block occupancy.
    Occupancy {
        /// Occupied fraction, `0.0..=1.0`.
        fraction: f64,
    },
}

impl TraceEventKind {
    /// Stable label for export and filtering.
    pub fn label(&self) -> &'static str {
        match self {
            TraceEventKind::Arrival { .. } => "arrival",
            TraceEventKind::Deploy { .. } => "deploy",
            TraceEventKind::DeployRejected { .. } => "deploy_rejected",
            TraceEventKind::Completion { .. } => "completion",
            TraceEventKind::Release { .. } => "release",
            TraceEventKind::DeviceFailed { .. } => "device_failed",
            TraceEventKind::DeviceRecovered { .. } => "device_recovered",
            TraceEventKind::MigrationStarted { .. } => "migration_started",
            TraceEventKind::MigrationCompleted { .. } => "migration_completed",
            TraceEventKind::RetryExhausted { .. } => "retry_exhausted",
            TraceEventKind::ScaleUp { .. } => "scale_up",
            TraceEventKind::PreemptiveScaleDown { .. } => "preemptive_scale_down",
            TraceEventKind::LinkDegraded { .. } => "link_degraded",
            TraceEventKind::LinkFailed { .. } => "link_failed",
            TraceEventKind::LinkRecovered { .. } => "link_recovered",
            TraceEventKind::Retransmit { .. } => "retransmit",
            TraceEventKind::LinkRerouted { .. } => "link_rerouted",
            TraceEventKind::QueueDepth { .. } => "queue_depth",
            TraceEventKind::Occupancy { .. } => "occupancy",
        }
    }
}

/// One timestamped event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Simulation time of the event.
    pub at: SimTime,
    /// The event.
    pub kind: TraceEventKind,
}

/// Fixed-capacity event ring: pushing past capacity overwrites the oldest
/// event and counts it as dropped. A zero-capacity ring keeps nothing and
/// counts every push as dropped.
#[derive(Debug, Clone)]
pub struct TraceRing {
    buf: Vec<TraceEvent>,
    head: usize,
    dropped: u64,
    capacity: usize,
}

impl TraceRing {
    /// Creates a ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            buf: Vec::with_capacity(capacity),
            head: 0,
            dropped: 0,
            capacity,
        }
    }

    /// Appends an event, evicting the oldest when full.
    pub fn push(&mut self, at: SimTime, kind: TraceEventKind) {
        let ev = TraceEvent { at, kind };
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else if self.capacity == 0 {
            self.dropped += 1;
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }

    /// Serializes as `{dropped, events: [{t, event, ...fields}]}`.
    pub fn to_json(&self) -> Json {
        let events = self
            .iter()
            .map(|ev| {
                let base = Json::obj()
                    .with("t", ev.at.as_secs())
                    .with("event", ev.kind.label());
                match ev.kind {
                    TraceEventKind::Arrival { task }
                    | TraceEventKind::Completion { task }
                    | TraceEventKind::Release { task }
                    | TraceEventKind::RetryExhausted { task } => base.with("task", task),
                    TraceEventKind::Deploy { task, units }
                    | TraceEventKind::MigrationCompleted { task, units } => {
                        base.with("task", task).with("units", units as u64)
                    }
                    TraceEventKind::DeviceFailed { device }
                    | TraceEventKind::DeviceRecovered { device } => base.with("device", device),
                    TraceEventKind::MigrationStarted { task, device } => {
                        base.with("task", task).with("device", device)
                    }
                    TraceEventKind::ScaleUp {
                        task,
                        from_units,
                        to_units,
                    }
                    | TraceEventKind::PreemptiveScaleDown {
                        task,
                        from_units,
                        to_units,
                    } => base
                        .with("task", task)
                        .with("from_units", from_units as u64)
                        .with("to_units", to_units as u64),
                    TraceEventKind::DeployRejected { task, reason } => {
                        base.with("task", task).with("reason", reason)
                    }
                    TraceEventKind::LinkDegraded { link }
                    | TraceEventKind::LinkFailed { link }
                    | TraceEventKind::LinkRecovered { link } => base.with("link", link),
                    TraceEventKind::Retransmit {
                        task,
                        link,
                        attempts,
                        bytes,
                    } => base
                        .with("task", task)
                        .with("link", link)
                        .with("attempts", attempts)
                        .with("bytes", bytes),
                    TraceEventKind::LinkRerouted {
                        task,
                        link,
                        extra_hops,
                    } => base
                        .with("task", task)
                        .with("link", link)
                        .with("extra_hops", extra_hops),
                    TraceEventKind::QueueDepth { depth } => base.with("depth", depth),
                    TraceEventKind::Occupancy { fraction } => base.with("fraction", fraction),
                }
            })
            .collect();
        Json::obj()
            .with("dropped", self.dropped)
            .with("events", Json::Arr(events))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_most_recent_in_order() {
        let mut r = TraceRing::new(3);
        for i in 0..5u64 {
            r.push(
                SimTime::from_us(i as f64),
                TraceEventKind::Arrival { task: i },
            );
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let tasks: Vec<u64> = r
            .iter()
            .map(|e| match e.kind {
                TraceEventKind::Arrival { task } => task,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tasks, vec![2, 3, 4]);
    }

    #[test]
    fn zero_capacity_drops_every_push() {
        let mut r = TraceRing::new(0);
        for i in 0..3u64 {
            r.push(SimTime::ZERO, TraceEventKind::Arrival { task: i });
        }
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 3);
        assert_eq!(r.iter().count(), 0);
        assert_eq!(r.to_json().compact(), r#"{"dropped":3,"events":[]}"#);
    }

    #[test]
    fn under_capacity_keeps_everything() {
        let mut r = TraceRing::new(8);
        r.push(SimTime::ZERO, TraceEventKind::QueueDepth { depth: 1 });
        r.push(
            SimTime::from_us(1.0),
            TraceEventKind::Occupancy { fraction: 0.5 },
        );
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 0);
        assert!(!r.is_empty());
    }

    #[test]
    fn json_includes_link_fields() {
        let mut r = TraceRing::new(8);
        r.push(SimTime::ZERO, TraceEventKind::LinkFailed { link: 2 });
        r.push(
            SimTime::from_us(1.0),
            TraceEventKind::Retransmit {
                task: 5,
                link: 2,
                attempts: 3,
                bytes: 1920,
            },
        );
        r.push(
            SimTime::from_us(2.0),
            TraceEventKind::LinkRerouted {
                task: 5,
                link: 2,
                extra_hops: 2,
            },
        );
        r.push(
            SimTime::from_us(4.0),
            TraceEventKind::LinkRecovered { link: 2 },
        );
        let text = r.to_json().compact();
        assert!(text.contains(r#""event":"link_failed""#), "{text}");
        assert!(text.contains(r#""bytes":1920"#), "{text}");
        assert!(text.contains(r#""extra_hops":2"#), "{text}");
        assert!(text.contains(r#""event":"link_recovered""#), "{text}");
    }

    #[test]
    fn json_includes_reason_fields() {
        let mut r = TraceRing::new(4);
        r.push(
            SimTime::from_us(2.0),
            TraceEventKind::DeployRejected {
                task: 7,
                reason: "insufficient_capacity",
            },
        );
        r.push(
            SimTime::from_us(3.0),
            TraceEventKind::Deploy { task: 7, units: 2 },
        );
        let text = r.to_json().compact();
        assert!(
            text.contains(r#""reason":"insufficient_capacity""#),
            "{text}"
        );
        assert!(text.contains(r#""units":2"#), "{text}");
        assert!(text.contains(r#""dropped":0"#), "{text}");
    }
}
