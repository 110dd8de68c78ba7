//! A deterministic event queue.
//!
//! [`EventQueue<E>`] is a time-ordered priority queue with a monotonic
//! sequence number breaking ties, so that two events scheduled for the
//! same instant pop in the order they were pushed. This FIFO tie-break is
//! what makes whole-system runs reproducible.
//!
//! The implementation is a hierarchical timer wheel (a calendar queue):
//! eleven levels of 64 slots each cover the full `u64` nanosecond
//! timeline, so push and pop are O(1) amortized regardless of how many
//! events are pending — a simulation that pre-schedules millions of
//! arrivals pays nothing per operation for the backlog, where a binary
//! heap pays O(log n) sift on every touch. Far-future timers rest in the
//! upper levels and cascade down lazily as the clock reaches them; each
//! event cascades at most ten times over its whole lifetime.
//!
//! Determinism is structural, not incidental: events land in slot
//! vectors in push order, cascades only ever refile into *empty* lower
//! levels (the wheel position below a cascading slot has been fully
//! drained), so every slot vector stays sequence-ordered and the wheel
//! pops in exactly the (time, seq) order of the reference
//! [`BinaryHeapQueue`] — a property the differential and property tests
//! pin.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::mem;

use crate::time::SimTime;

/// log2 of the wheel fan-out: 64 slots per level.
const SLOT_BITS: usize = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Levels needed so `LEVELS * SLOT_BITS >= 64` covers every `u64`
/// deadline with no separate overflow structure.
const LEVELS: usize = 11;

/// A time-ordered, deterministic event queue (hierarchical timer wheel).
///
/// # Examples
///
/// ```
/// use sim_core::{EventQueue, SimDuration, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::ZERO + SimDuration::millis(2), "late");
/// q.push(SimTime::ZERO + SimDuration::millis(1), "early");
/// assert_eq!(q.pop().unwrap().1, "early");
/// assert_eq!(q.pop().unwrap().1, "late");
/// ```
pub struct EventQueue<E> {
    /// `LEVELS × SLOTS` slot vectors, indexed `level * SLOTS + slot`.
    /// Each entry is `(at, seq, event)`; every vector is in push
    /// (= sequence) order. Cleared vectors keep their capacity, so the
    /// steady state allocates nothing.
    slots: Vec<Vec<(u64, u64, E)>>,
    /// Per-level occupancy bitmaps: bit `s` set ⇔ slot `s` non-empty.
    occupancy: [u64; LEVELS],
    /// The wheel's internal clock. Every pending event satisfies
    /// `at >= elapsed`, and at level `l` its slot index is `>=` the
    /// wheel's current position — slot indexes never wrap within a
    /// level, which is what lets `trailing_zeros` find the next slot.
    elapsed: u64,
    /// The level-0 slot currently being drained, in *reverse* sequence
    /// order so the front pops from the back in O(1). All entries share
    /// one instant (`drain_at`).
    drain: Vec<(u64, u64, E)>,
    drain_at: u64,
    /// Scratch buffer for cascading a slot (reused, keeps capacity).
    cascade: Vec<(u64, u64, E)>,
    next_seq: u64,
    now: SimTime,
    len: usize,
    processed: u64,
    peak_len: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupancy: [0; LEVELS],
            elapsed: 0,
            drain: Vec::new(),
            drain_at: 0,
            cascade: Vec::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            len: 0,
            processed: 0,
            peak_len: 0,
        }
    }

    /// Returns the current simulation time (the timestamp of the last
    /// popped event, or zero).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn push(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule in the past: {at} < now {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.file(at.0, seq, event);
        self.len += 1;
        if self.len > self.peak_len {
            self.peak_len = self.len;
        }
    }

    /// Files one event into the wheel relative to `elapsed`. The level
    /// is the highest 6-bit digit where `at` differs from the wheel
    /// clock (level 0 when equal); within it, the slot is `at`'s digit.
    /// Requires `at >= self.elapsed`, which `push` guarantees because
    /// `elapsed` never passes `now` between calls.
    fn file(&mut self, at: u64, seq: u64, event: E) {
        debug_assert!(at >= self.elapsed);
        let x = at ^ self.elapsed;
        let level = if x == 0 {
            0
        } else {
            (63 - x.leading_zeros() as usize) / SLOT_BITS
        };
        let slot = ((at >> (SLOT_BITS * level)) & (SLOTS as u64 - 1)) as usize;
        self.slots[level * SLOTS + slot].push((at, seq, event));
        self.occupancy[level] |= 1u64 << slot;
    }

    /// Brings the earliest pending instant into the drain buffer:
    /// cascades upper-level slots downward until level 0 is occupied,
    /// then swaps the earliest level-0 slot out (reversed, so pops come
    /// off the back). Requires `len > 0`; no-op if a drain is already
    /// in progress.
    fn advance(&mut self) {
        if !self.drain.is_empty() {
            return;
        }
        loop {
            let level = self
                .occupancy
                .iter()
                .position(|&b| b != 0)
                .expect("len > 0 implies an occupied level");
            let slot = self.occupancy[level].trailing_zeros() as usize;
            let idx = level * SLOTS + slot;
            if level == 0 {
                // A level-0 slot holds exactly one instant: every entry
                // agrees with `elapsed` above the low digit and has the
                // slot index as its low digit.
                self.elapsed = (self.elapsed >> SLOT_BITS << SLOT_BITS) | slot as u64;
                self.occupancy[0] &= !(1u64 << slot);
                mem::swap(&mut self.slots[idx], &mut self.drain);
                self.drain.reverse();
                self.drain_at = self.elapsed;
                debug_assert!(self.drain.iter().all(|e| e.0 == self.drain_at));
                return;
            }
            // Cascade: advance the wheel clock to the slot's base
            // (zeroing the digits below — everything below this slot
            // has already drained) and refile its events, which now
            // land strictly below `level`.
            let shift = SLOT_BITS * level;
            let above = if shift + SLOT_BITS >= 64 {
                0
            } else {
                !0u64 << (shift + SLOT_BITS)
            };
            self.elapsed = (self.elapsed & above) | ((slot as u64) << shift);
            self.occupancy[level] &= !(1u64 << slot);
            debug_assert!(self.cascade.is_empty());
            mem::swap(&mut self.slots[idx], &mut self.cascade);
            let mut buf = mem::take(&mut self.cascade);
            for (at, seq, event) in buf.drain(..) {
                self.file(at, seq, event);
            }
            self.cascade = buf;
        }
    }

    /// Pops the earliest event and advances the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        self.advance();
        let (at, _seq, event) = self.drain.pop().expect("advance fills the drain");
        self.len -= 1;
        self.processed += 1;
        debug_assert!(at >= self.now.0);
        self.now = SimTime(at);
        Some((self.now, event))
    }

    /// Pops *every* event pending at the earliest instant into `out`
    /// (appended in FIFO order) and advances the clock to it.
    ///
    /// Handling a batch in order is equivalent to popping sequentially:
    /// events a handler schedules at the same instant carry higher
    /// sequence numbers than everything already pending there, so a
    /// sequential loop would also drain the current batch first — the
    /// newly scheduled events simply form the next batch at the same
    /// timestamp.
    pub fn pop_batch(&mut self, out: &mut Vec<E>) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        self.advance();
        let at = SimTime(self.drain_at);
        let k = self.drain.len();
        out.extend(self.drain.drain(..).rev().map(|(_, _, e)| e));
        self.len -= k;
        self.processed += k as u64;
        debug_assert!(at >= self.now);
        self.now = at;
        Some(at)
    }

    /// Returns the timestamp of the next event without popping it.
    ///
    /// O(1) except when the next event sits in an upper wheel level,
    /// where the first occupied slot is scanned for its minimum.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        if let Some(&(at, _, _)) = self.drain.last() {
            return Some(SimTime(at));
        }
        let level = self
            .occupancy
            .iter()
            .position(|&b| b != 0)
            .expect("len > 0 implies an occupied level");
        let slot = self.occupancy[level].trailing_zeros() as usize;
        let v = &self.slots[level * SLOTS + slot];
        if level == 0 {
            Some(SimTime(v[0].0))
        } else {
            Some(SimTime(v.iter().map(|e| e.0).min().expect("slot occupied")))
        }
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total events popped over the queue's lifetime (the numerator of
    /// the benchmark's `engine.events_per_s`).
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// High-water mark of pending events.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }
}

struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
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
        // `BinaryHeap` is a max-heap; invert so the earliest event pops
        // first, with the lowest sequence number breaking ties.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The straightforward binary-heap event queue: same (time, seq) FIFO
/// contract as [`EventQueue`], O(log n) per operation.
///
/// Kept as the *reference implementation* the timer wheel is tested
/// against (differential and property tests) and benchmarked against
/// (`crates/bench/benches/event_queue.rs`) — not used by the
/// simulators.
pub struct BinaryHeapQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for BinaryHeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> BinaryHeapQueue<E> {
    /// Creates an empty queue with the clock at zero.
    pub fn new() -> Self {
        BinaryHeapQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Returns the current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn push(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule in the past: {at} < now {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, event });
    }

    /// Pops the earliest event and advances the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = self.heap.pop()?;
        debug_assert!(s.at >= self.now);
        self.now = s.at;
        Some((s.at, s.event))
    }

    /// Returns the timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(30), 'c');
        q.push(SimTime(10), 'a');
        q.push(SimTime(20), 'b');
        assert_eq!(q.pop(), Some((SimTime(10), 'a')));
        assert_eq!(q.pop(), Some((SimTime(20), 'b')));
        assert_eq!(q.pop(), Some((SimTime(30), 'c')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_tie_break_at_same_instant() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((SimTime(5), i)));
        }
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.push(SimTime(100), ());
        q.pop();
        assert_eq!(q.now(), SimTime(100));
    }

    #[test]
    #[should_panic(expected = "cannot schedule in the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.push(SimTime(100), ());
        q.pop();
        q.push(SimTime(50), ());
    }

    #[test]
    fn peek_and_len() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::ZERO + SimDuration::secs(1), 1);
        q.push(SimTime::ZERO + SimDuration::millis(1), 2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime(1_000_000)));
    }

    #[test]
    fn far_future_events_cascade_through_every_level() {
        // One event per wheel level, including the topmost digits of
        // the u64 timeline; they must come back in time order.
        let mut q = EventQueue::new();
        let times: Vec<u64> = (0..LEVELS).map(|l| 1u64 << (SLOT_BITS * l)).collect();
        for &t in times.iter().rev() {
            q.push(SimTime(t), t);
        }
        q.push(SimTime(u64::MAX), u64::MAX);
        for &t in &times {
            assert_eq!(q.pop(), Some((SimTime(t), t)));
        }
        assert_eq!(q.pop(), Some((SimTime(u64::MAX), u64::MAX)));
        assert!(q.is_empty());
    }

    #[test]
    fn same_instant_pushes_during_a_drain_pop_after_it() {
        let mut q = EventQueue::new();
        q.push(SimTime(7), 0);
        q.push(SimTime(7), 1);
        assert_eq!(q.pop(), Some((SimTime(7), 0)));
        // Mid-drain push at the live instant: pops after the pending
        // batch (it carries a higher sequence number).
        q.push(SimTime(7), 2);
        assert_eq!(q.pop(), Some((SimTime(7), 1)));
        assert_eq!(q.pop(), Some((SimTime(7), 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_batch_drains_exactly_one_instant() {
        let mut q = EventQueue::new();
        q.push(SimTime(5), 'a');
        q.push(SimTime(5), 'b');
        q.push(SimTime(9), 'c');
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(&mut out), Some(SimTime(5)));
        assert_eq!(out, vec!['a', 'b']);
        assert_eq!(q.now(), SimTime(5));
        // A same-instant push after the batch forms the *next* batch at
        // the same timestamp — exactly what sequential pops would do.
        q.push(SimTime(5), 'd');
        out.clear();
        assert_eq!(q.pop_batch(&mut out), Some(SimTime(5)));
        assert_eq!(out, vec!['d']);
        out.clear();
        assert_eq!(q.pop_batch(&mut out), Some(SimTime(9)));
        assert_eq!(out, vec!['c']);
        assert_eq!(q.pop_batch(&mut out), None);
    }

    #[test]
    fn counters_track_processed_and_peak() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(SimTime(i), i);
        }
        assert_eq!(q.peak_len(), 10);
        while q.pop().is_some() {}
        assert_eq!(q.processed(), 10);
        assert_eq!(q.peak_len(), 10);
        assert_eq!(q.len(), 0);
    }

    /// Differential check against the reference heap on a seeded random
    /// interleaving of pushes and pops with heavy time ties and
    /// far-future outliers (the proptest suite widens this further).
    #[test]
    fn wheel_matches_reference_heap_on_random_interleavings() {
        for seed in 0..8 {
            let mut rng = DetRng::new(0xE0E0 + seed);
            let mut wheel = EventQueue::new();
            let mut heap = BinaryHeapQueue::new();
            let mut tag = 0u32;
            for _ in 0..2_000 {
                if rng.range(0, 3) > 0 || wheel.is_empty() {
                    let base = wheel.now().0;
                    let dt = match rng.range(0, 10) {
                        0 => 0,
                        1..=6 => rng.range(0, 1 << 12),
                        7 | 8 => rng.range(0, 1 << 30),
                        _ => rng.range(0, 1 << 45),
                    };
                    wheel.push(SimTime(base + dt), tag);
                    heap.push(SimTime(base + dt), tag);
                    tag += 1;
                } else {
                    assert_eq!(wheel.pop(), heap.pop());
                    assert_eq!(wheel.peek_time(), heap.peek_time());
                }
                assert_eq!(wheel.len(), heap.len());
            }
            loop {
                let (a, b) = (wheel.pop(), heap.pop());
                assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
