//! Stable-ordered discrete-event queues.
//!
//! Two implementations share one contract — events pop in `(at, seq)`
//! order, i.e. by timestamp with FIFO tie-breaking by insertion:
//!
//! * [`EventQueue`]: the production queue, sized to the traffic a
//!   router simulation actually produces. The four benchmark
//!   workloads hold 7.5–19 pending events on average and never more
//!   than 37, so the queue is one short `Vec` kept sorted by
//!   descending `(at, seq)`: `pop` is `Vec::pop`, and `schedule`
//!   places the new entry by a linear scan from the earliest end.
//!   Past a fixed run capacity, entries spill to a binary heap, so a
//!   burst (an operator control-op storm, a synthetic stress test)
//!   degrades to heap speed rather than to quadratic time.
//! * [`OracleQueue`]: the original `BinaryHeap` implementation, kept
//!   as the reference for differential testing (see
//!   `crates/sim/tests/differential.rs` and DESIGN.md §6). Every
//!   ordering property of `EventQueue` is checked lock-step against
//!   this oracle.

use core::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::Time;

/// A pending event: ordering key is `(time, seq)` so that events scheduled
/// earlier at the same timestamp are dispatched first (stable order).
#[derive(Debug)]
struct Entry<E> {
    at: Time,
    seq: u64,
    ev: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Capacity of the sorted run: about 3.5x the largest pending
/// population measured on the benchmark workloads (37). Inserting is a
/// linear scan plus a shift, so the cap bounds both; entries beyond it
/// go to the spill heap.
const RUN_CAP: usize = 128;

/// A deterministic discrete-event queue over event type `E`, backed by
/// a short sorted run with a binary-heap spill.
///
/// The queue tracks the current simulation time: popping an event advances
/// the clock to that event's timestamp. Scheduling an event in the past is
/// a logic error and panics in debug builds; in release builds the event is
/// clamped to "now" to keep the clock monotone.
///
/// # Examples
///
/// ```
/// use npr_sim::EventQueue;
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.schedule(10, "b");
/// q.schedule(5, "a");
/// q.schedule(10, "c"); // Same time as "b": dispatched after it.
/// assert_eq!(q.pop(), Some((5, "a")));
/// assert_eq!(q.pop(), Some((10, "b")));
/// assert_eq!(q.pop(), Some((10, "c")));
/// assert_eq!(q.pop(), None);
/// assert_eq!(q.now(), 10);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Up to [`RUN_CAP`] pending events sorted by descending
    /// `(at, seq)`: the next event to pop is the last element.
    run: Vec<Entry<E>>,
    /// Events scheduled while the run was full. `pop` and `peek_time`
    /// take whichever of the two heads is earlier.
    spill: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    now: Time,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        Self {
            run: Vec::new(),
            spill: BinaryHeap::new(),
            seq: 0,
            now: 0,
        }
    }

    /// Current simulation time (the timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.run.len() + self.spill.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.run.is_empty() && self.spill.is_empty()
    }

    /// Schedules `ev` at absolute time `at` (clamped to `now` if earlier).
    pub fn schedule(&mut self, at: Time, ev: E) {
        debug_assert!(at >= self.now, "event scheduled in the past");
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        let entry = Entry { at, seq, ev };
        if self.run.len() == RUN_CAP {
            self.spill.push(Reverse(entry));
            return;
        }
        // The new entry carries the largest seq ever issued, so it pops
        // after every entry at the same or an earlier timestamp: it
        // goes just above the last (latest-ordered) entry with a later
        // timestamp. Scan from the earliest end, where new events land.
        let later = self.run.iter().rposition(|e| e.at > at);
        self.run.insert(later.map_or(0, |i| i + 1), entry);
    }

    /// Schedules `ev` at `now() + delay`.
    pub fn schedule_in(&mut self, delay: Time, ev: E) {
        self.schedule(self.now + delay, ev);
    }

    /// `true` when the spill holds the earliest pending event.
    #[inline]
    fn spill_first(&self) -> bool {
        match (self.run.last(), self.spill.peek()) {
            (_, None) => false,
            (None, Some(_)) => true,
            (Some(r), Some(Reverse(s))) => s < r,
        }
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let e = if self.spill_first() {
            self.spill.pop().map(|Reverse(e)| e)
        } else {
            self.run.pop()
        }?;
        self.now = e.at;
        Some((e.at, e.ev))
    }

    /// Pops the next event only if its timestamp is at or before `t`.
    ///
    /// This is the atomic form of the `peek_time`-then-`pop` pattern:
    /// callers bounding a run by a deadline must use it so an event
    /// beyond the deadline is neither consumed nor allowed to advance
    /// the clock.
    ///
    /// # Examples
    ///
    /// ```
    /// use npr_sim::EventQueue;
    ///
    /// let mut q = EventQueue::new();
    /// q.schedule(10, "early");
    /// q.schedule(90, "late");
    /// assert_eq!(q.pop_if_at_or_before(50), Some((10, "early")));
    /// assert_eq!(q.pop_if_at_or_before(50), None); // "late" stays queued.
    /// assert_eq!(q.now(), 10);
    /// assert_eq!(q.len(), 1);
    /// ```
    pub fn pop_if_at_or_before(&mut self, t: Time) -> Option<(Time, E)> {
        if self.peek_time()? > t {
            return None;
        }
        self.pop()
    }

    /// Peeks at the timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<Time> {
        if self.spill_first() {
            self.spill.peek().map(|Reverse(e)| e.at)
        } else {
            self.run.last().map(|e| e.at)
        }
    }
}

/// The reference discrete-event queue: a plain `BinaryHeap` ordered by
/// `(at, seq)`.
///
/// This is the original `EventQueue` implementation, kept verbatim as
/// the differential-testing oracle: its ordering behavior is trivially
/// auditable, so [`EventQueue`] is required (by the property suite in
/// `crates/sim/tests/differential.rs` and by the lock-step check in the
/// `simbench` binary) to reproduce its pop sequence exactly on any
/// interleaving of operations.
///
/// # Examples
///
/// ```
/// use npr_sim::OracleQueue;
///
/// let mut q: OracleQueue<&str> = OracleQueue::new();
/// q.schedule(10, "b");
/// q.schedule(5, "a");
/// assert_eq!(q.pop(), Some((5, "a")));
/// assert_eq!(q.pop(), Some((10, "b")));
/// ```
#[derive(Debug)]
pub struct OracleQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    now: Time,
}

impl<E> Default for OracleQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> OracleQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0,
        }
    }

    /// Current simulation time (the timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `ev` at absolute time `at` (clamped to `now` if earlier).
    pub fn schedule(&mut self, at: Time, ev: E) {
        debug_assert!(at >= self.now, "event scheduled in the past");
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { at, seq, ev }));
    }

    /// Schedules `ev` at `now() + delay`.
    pub fn schedule_in(&mut self, delay: Time, ev: E) {
        self.schedule(self.now + delay, ev);
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let Reverse(e) = self.heap.pop()?;
        self.now = e.at;
        Some((e.at, e.ev))
    }

    /// Pops the next event only if its timestamp is at or before `t`
    /// (see [`EventQueue::pop_if_at_or_before`]).
    pub fn pop_if_at_or_before(&mut self, t: Time) -> Option<(Time, E)> {
        if self.peek_time()? > t {
            return None;
        }
        self.pop()
    }

    /// Peeks at the timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, 3);
        q.schedule(10, 1);
        q.schedule(20, 2);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(42, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((42, i)));
        }
    }

    #[test]
    fn ties_are_fifo_across_bucket_refill() {
        // Ties at a timestamp away from zero (a bucket of the former
        // calendar layout) still drain in insertion order.
        let at = 7 * 4096 + 13;
        let mut q = EventQueue::new();
        for i in 0..50 {
            q.schedule(at, i);
        }
        for i in 0..50 {
            assert_eq!(q.pop(), Some((at, i)));
        }
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule(100, "x");
        q.pop();
        q.schedule_in(5, "y");
        assert_eq!(q.pop(), Some((105, "y")));
    }

    #[test]
    fn clock_is_monotone() {
        let mut q = EventQueue::new();
        q.schedule(10, ());
        q.pop();
        // Past events are clamped to now in release builds.
        #[cfg(not(debug_assertions))]
        {
            q.schedule(3, ());
            assert_eq!(q.pop(), Some((10, ())));
        }
        assert_eq!(q.now(), 10);
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(1, 0);
        q.schedule(2, 1);
        assert_eq!(q.len(), 2);
        q.pop();
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_matches_pop() {
        let mut q = EventQueue::new();
        q.schedule(7, ());
        q.schedule(3, ());
        assert_eq!(q.peek_time(), Some(3));
        q.pop();
        assert_eq!(q.peek_time(), Some(7));
    }

    #[test]
    fn interleaved_schedule_and_pop_is_stable() {
        // Scheduling from within dispatch (the common pattern) keeps
        // deterministic order.
        let mut q = EventQueue::new();
        q.schedule(0, 0u32);
        let mut seen = Vec::new();
        while let Some((t, v)) = q.pop() {
            seen.push(v);
            if v < 5 {
                q.schedule(t + 1, v + 1);
                q.schedule(t + 1, v + 100);
            }
        }
        assert_eq!(seen[0], 0);
        assert_eq!(seen[1], 1);
        assert_eq!(seen[2], 100);
    }

    #[test]
    fn far_future_events_spill_and_return() {
        // Events microseconds to seconds apart, scheduled out of
        // order, come back in order.
        let horizon: Time = 2_097_152;
        let mut q = EventQueue::new();
        q.schedule(3 * horizon, "far");
        q.schedule(10, "near");
        q.schedule(7 * horizon, "farther");
        q.schedule(horizon + 1, "mid");
        assert_eq!(q.pop(), Some((10, "near")));
        assert_eq!(q.pop(), Some((horizon + 1, "mid")));
        assert_eq!(q.pop(), Some((3 * horizon, "far")));
        assert_eq!(q.pop(), Some((7 * horizon, "farther")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn sparse_wheel_jumps_instead_of_rotating() {
        // Two events a simulated second apart: the clock must land
        // exactly on the far one.
        let mut q = EventQueue::new();
        q.schedule(5, 0);
        q.schedule(1_000_000_000_000, 1);
        assert_eq!(q.pop(), Some((5, 0)));
        assert_eq!(q.pop(), Some((1_000_000_000_000, 1)));
        assert_eq!(q.now(), 1_000_000_000_000);
    }

    #[test]
    fn schedule_at_now_lands_before_later_active_events() {
        // After the clock moves, an event scheduled just past `now`
        // pops before a later event that was queued first.
        let mut q = EventQueue::new();
        q.schedule(10, "a");
        assert_eq!(q.pop(), Some((10, "a")));
        q.schedule(5_000_000, "late");
        q.schedule(11, "soon"); // Earlier than "late", scheduled after it.
        assert_eq!(q.pop(), Some((11, "soon")));
        assert_eq!(q.pop(), Some((5_000_000, "late")));
    }

    #[test]
    fn pop_if_at_or_before_is_atomic() {
        let mut q = EventQueue::new();
        q.schedule(10, 1);
        q.schedule(20, 2);
        assert_eq!(q.pop_if_at_or_before(15), Some((10, 1)));
        // The deadline-crossing event is neither consumed nor does it
        // advance the clock.
        assert_eq!(q.pop_if_at_or_before(15), None);
        assert_eq!(q.now(), 10);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_if_at_or_before(20), Some((20, 2)));
    }

    #[test]
    fn oracle_pop_if_at_or_before_is_atomic() {
        let mut q = OracleQueue::new();
        q.schedule(10, 1);
        q.schedule(20, 2);
        assert_eq!(q.pop_if_at_or_before(15), Some((10, 1)));
        assert_eq!(q.pop_if_at_or_before(15), None);
        assert_eq!(q.now(), 10);
        assert_eq!(q.pop_if_at_or_before(20), Some((20, 2)));
    }

    #[test]
    fn oracle_pops_in_time_order_with_fifo_ties() {
        let mut q = OracleQueue::new();
        q.schedule(30, 3);
        q.schedule(10, 1);
        q.schedule(10, 2);
        assert_eq!(q.pop(), Some((10, 1)));
        assert_eq!(q.pop(), Some((10, 2)));
        assert_eq!(q.pop(), Some((30, 3)));
        assert_eq!(q.now(), 30);
    }

    #[test]
    fn calendar_matches_oracle_on_a_mixed_stream() {
        // A quick in-module differential check; the exhaustive version
        // lives in tests/differential.rs.
        let mut rng = crate::rng::XorShift64::new(0xC0FFEE);
        let mut cal = EventQueue::new();
        let mut ora = OracleQueue::new();
        for i in 0..5_000u64 {
            match rng.below(4) {
                0..=1 => {
                    let delay = match rng.below(3) {
                        0 => rng.below(200),            // Dense ties.
                        1 => rng.below(100) * 4096,     // Near future.
                        _ => rng.below(20) * 1_000_000, // Far future.
                    };
                    let at = cal.now() + delay;
                    cal.schedule(at, i);
                    ora.schedule(at, i);
                }
                2 => {
                    assert_eq!(cal.pop(), ora.pop());
                }
                _ => {
                    assert_eq!(cal.peek_time(), ora.peek_time());
                    assert_eq!(cal.len(), ora.len());
                }
            }
        }
        loop {
            let (a, b) = (cal.pop(), ora.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(cal.now(), ora.now());
    }
}
