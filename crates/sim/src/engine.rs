//! The event queue at the heart of the simulation engine.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::SimTime;

/// A time-ordered queue of simulation events.
///
/// Events are delivered in non-decreasing time order; events scheduled at the
/// same timestamp are delivered in the order they were scheduled (FIFO
/// tie-breaking), which keeps simulations deterministic.
///
/// The queue is the whole engine: simulations are written as a driver loop
/// that pops the next event, updates model state, and schedules follow-up
/// events. This "inverted" style (as opposed to coroutine processes) keeps
/// model state in plain Rust structs with no interior mutability.
///
/// ```
/// use vfpga_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_ns(10.0), "b");
/// q.schedule(SimTime::from_ns(10.0), "c");
/// q.schedule(SimTime::from_ns(1.0), "a");
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
/// assert_eq!(order, ["a", "b", "c"]);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    now: SimTime,
}

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The timestamp of the most recently popped event (the current
    /// simulation time).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current simulation time: the past
    /// is immutable.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule event in the past: {} < {}",
            at,
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry {
            time: at,
            seq,
            event,
        });
    }

    /// Schedules `event` to fire `delay` after the current simulation
    /// time, saturating at [`SimTime::MAX`].
    pub fn schedule_in(&mut self, delay: SimTime, event: E) {
        self.schedule(self.now.saturating_add(delay), event);
    }

    /// Removes and returns the next event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        self.now = entry.time;
        Some((entry.time, entry.event))
    }

    /// The timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether there are no pending events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(30.0), 3);
        q.schedule(SimTime::from_ns(10.0), 1);
        q.schedule(SimTime::from_ns(20.0), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, [1, 2, 3]);
    }

    #[test]
    fn fifo_tie_break_at_same_time() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(5.0);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(7.0), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_ns(7.0));
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10.0), "first");
        q.pop();
        q.schedule_in(SimTime::from_ns(5.0), "second");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_ns(15.0));
    }

    #[test]
    fn schedule_in_saturates_at_the_end_of_time() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10.0), "first");
        q.pop();
        q.schedule_in(SimTime::MAX, "last");
        q.schedule_in(SimTime::MAX, "tie");
        assert_eq!(q.pop(), Some((SimTime::MAX, "last")));
        q.schedule_in(SimTime::from_ns(1.0), "after");
        assert_eq!(q.pop(), Some((SimTime::MAX, "tie")));
        assert_eq!(q.pop(), Some((SimTime::MAX, "after")));
    }

    #[test]
    #[should_panic(expected = "cannot schedule event in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10.0), ());
        q.pop();
        q.schedule(SimTime::from_ns(5.0), ());
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_ns(3.0), ());
        q.schedule(SimTime::from_ns(1.0), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(1.0)));
    }
}
