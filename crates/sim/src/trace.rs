//! A bounded ring buffer of timestamped events.
//!
//! The ring keeps the most recent `capacity` events of any `Copy` type
//! with O(1) push and no per-event allocation, so tracing can stay on in
//! a simulator's hot loop. The cloud simulator stores its own event type
//! in it; [`TraceRing::to_json`] takes that type's renderer.

use crate::json::Json;
use crate::time::SimTime;

/// One timestamped event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent<E> {
    /// Simulation time of the event.
    pub at: SimTime,
    /// The event.
    pub event: E,
}

/// Fixed-capacity event ring: pushing past capacity overwrites the oldest
/// event and counts it as dropped. A zero-capacity ring keeps nothing and
/// counts every push as dropped.
#[derive(Debug, Clone)]
pub struct TraceRing<E> {
    buf: Vec<TraceEvent<E>>,
    head: usize,
    dropped: u64,
    capacity: usize,
}

impl<E: Copy> TraceRing<E> {
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
    pub fn push(&mut self, at: SimTime, event: E) {
        let ev = TraceEvent { at, event };
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
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent<E>> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }

    /// Serializes as `{dropped, events: [{t, ...}]}`; `render` appends
    /// each event's own fields to the object that holds its time `t`.
    pub fn to_json(&self, render: impl Fn(&E, Json) -> Json) -> Json {
        let events = self
            .iter()
            .map(|ev| render(&ev.event, Json::obj().with("t", ev.at.as_secs())))
            .collect();
        Json::obj()
            .with("dropped", self.dropped)
            .with("events", Json::Arr(events))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(task: &u64, base: Json) -> Json {
        base.with("task", *task)
    }

    #[test]
    fn keeps_most_recent_in_order() {
        let mut r = TraceRing::new(3);
        for i in 0..5u64 {
            r.push(SimTime::from_us(i as f64), i);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let tasks: Vec<u64> = r.iter().map(|e| e.event).collect();
        assert_eq!(tasks, vec![2, 3, 4]);
    }

    #[test]
    fn zero_capacity_drops_every_push() {
        let mut r = TraceRing::new(0);
        for i in 0..3u64 {
            r.push(SimTime::ZERO, i);
        }
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 3);
        assert_eq!(r.iter().count(), 0);
        assert_eq!(r.to_json(render).compact(), r#"{"dropped":3,"events":[]}"#);
    }

    #[test]
    fn under_capacity_keeps_everything() {
        let mut r = TraceRing::new(8);
        r.push(SimTime::ZERO, 1u64);
        r.push(SimTime::from_us(1.0), 2);
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 0);
        assert!(!r.is_empty());
    }

    #[test]
    fn json_renders_time_then_event_fields_oldest_first() {
        let mut r = TraceRing::new(2);
        for i in 0..3u64 {
            r.push(SimTime::from_us(i as f64 + 0.5), i);
        }
        assert_eq!(
            r.to_json(render).compact(),
            r#"{"dropped":1,"events":[{"t":0.0000015,"task":1},{"t":0.0000025,"task":2}]}"#
        );
    }
}
