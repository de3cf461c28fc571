//! The pending-event set of the discrete-event simulator.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Bits of [`Scheduled::order`] that hold the lane.
const LANE_BITS: u32 = 16;

/// A scheduled event: a payload due at a given simulated time on a lane.
///
/// Ordering ties at equal timestamps are broken by insertion order, so the
/// simulation is fully deterministic for a fixed schedule of pushes.
struct Scheduled<E> {
    due: SimTime,
    /// Push sequence number in the high 48 bits, lane in the low 16. The
    /// sequence number is unique, so comparing the whole word compares push
    /// order and the lane never affects it; packing keeps the entry as small
    /// as an untagged one.
    order: u64,
    event: E,
}

impl<E> Scheduled<E> {
    fn lane(&self) -> u16 {
        // Truncation keeps exactly the low LANE_BITS bits.
        self.order as u16
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.order == other.order
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event is popped
        // first, with the lowest sequence number winning ties.
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.order.cmp(&self.order))
    }
}

/// A time-ordered queue of simulation events.
///
/// Events pop in nondecreasing time order; events scheduled for the same
/// instant pop in the order they were pushed (FIFO), which keeps runs
/// deterministic and makes "send A then B" mean A is handled first.
///
/// Inside the engine every entry also carries a `u16` *lane* that a
/// composite model uses to route the event to one of several sub-models
/// (see [`Context::lane`]); `push` and `pop` use lane 0. Lanes never
/// affect ordering: FIFO holds across lanes too.
///
/// [`Context::lane`]: crate::Context::lane
///
/// # Examples
///
/// ```
/// use ddp_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_nanos(20), "late");
/// q.push(SimTime::from_nanos(10), "early");
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "late")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    last_popped: SimTime,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// Creates an empty queue with room for `capacity` events.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// Schedules `event` for time `due` on lane 0.
    ///
    /// # Panics
    ///
    /// Panics if `due` is earlier than the time of the last popped event:
    /// scheduling into the past would violate causality.
    pub fn push(&mut self, due: SimTime, event: E) {
        self.push_lane(due, 0, event);
    }

    /// Schedules `event` for time `due` on `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `due` is earlier than the time of the last popped event.
    pub(crate) fn push_lane(&mut self, due: SimTime, lane: u16, event: E) {
        assert!(
            due >= self.last_popped,
            "event scheduled at {due:?}, before current time {:?}",
            self.last_popped
        );
        assert!(
            self.next_seq < 1 << (u64::BITS - LANE_BITS),
            "event sequence numbers exhausted"
        );
        let order = (self.next_seq << LANE_BITS) | u64::from(lane);
        self.next_seq += 1;
        self.heap.push(Scheduled { due, order, event });
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_lane().map(|(due, _, event)| (due, event))
    }

    /// Removes and returns the earliest event with its lane, if any.
    pub(crate) fn pop_lane(&mut self) -> Option<(SimTime, u16, E)> {
        let s = self.heap.pop()?;
        self.last_popped = s.due;
        Some((s.due, s.lane(), s.event))
    }

    /// Returns the time of the earliest pending event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.due)
    }

    /// Returns the number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.heap.len())
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &t in &[5u64, 1, 9, 3, 7] {
            q.push(SimTime::from_nanos(t), t);
        }
        let mut out = Vec::new();
        while let Some((_, e)) = q.pop() {
            out.push(e);
        }
        assert_eq!(out, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn ties_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(42);
        for label in ["a", "b", "c", "d"] {
            q.push(t, label);
        }
        let mut out = Vec::new();
        while let Some((_, e)) = q.pop() {
            out.push(e);
        }
        assert_eq!(out, vec!["a", "b", "c", "d"]);
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(100), ());
        q.pop();
        q.push(SimTime::from_nanos(50), ());
    }

    #[test]
    fn scheduling_at_current_time_is_allowed() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(100), 1);
        q.pop();
        q.push(SimTime::from_nanos(100), 2);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(100), 2)));
    }

    #[test]
    fn lanes_ride_along_without_changing_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        q.push_lane(t, 7, "a");
        q.push_lane(t, 0, "b");
        q.push_lane(t, u16::MAX, "c");
        q.push_lane(SimTime::from_nanos(1), 3, "first");
        assert_eq!(q.pop_lane(), Some((SimTime::from_nanos(1), 3, "first")));
        assert_eq!(q.pop_lane(), Some((t, 7, "a")));
        assert_eq!(q.pop_lane(), Some((t, 0, "b")));
        assert_eq!(q.pop_lane(), Some((t, u16::MAX, "c")));
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(8), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(8)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), 10);
        q.push(SimTime::from_nanos(30), 30);
        assert_eq!(q.pop().unwrap().1, 10);
        q.push(SimTime::from_nanos(20), 20);
        assert_eq!(q.pop().unwrap().1, 20);
        assert_eq!(q.pop().unwrap().1, 30);
    }
}
