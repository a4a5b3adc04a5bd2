//! The event calendar: a priority queue of timestamped events with stable
//! (FIFO) ordering among events scheduled for the same cycle.
//!
//! Two implementations share the same API and the same `(time, key, seq)`
//! contract:
//!
//! * [`Calendar`] — the production hybrid: a near-future **bucket wheel**
//!   (one slot per cycle over a sliding [`WHEEL_SLOTS`]-cycle window, with
//!   a two-level occupancy bitmap for O(1) next-event search) backed by a
//!   far-future binary heap. The simulator's schedule pattern is dense and
//!   short-delay (step costs, bus grants, and sync latencies are almost
//!   always well under a few thousand cycles), so nearly every event takes
//!   the O(1) wheel path; only rare long-delay events (deep sample
//!   intervals, far-off timeouts) pay the heap's O(log n).
//! * [`BaselineCalendar`] — the original pure `BinaryHeap` implementation,
//!   kept as the executable specification. The differential tests in
//!   `tests/calendar_equivalence.rs` drive both with identical schedule
//!   sequences and assert identical pop order.
//!
//! # Event keys
//!
//! Every event carries a 64-bit **key** supplied by the caller
//! ([`Calendar::schedule_keyed_at`]; the unkeyed API uses key 0). The pop
//! order is the total order `(time, key, seq)`: time first, then key, and
//! FIFO (scheduling order) only among events with equal time *and* key.
//!
//! The simulator derives each key from the event's *content* (see
//! `event_key` in `eclipse-core`), so same-cycle events pop in an order
//! that does not depend on scheduling history. That keyed order is part
//! of the committed timing. Callers that don't need it (benches) use the
//! unkeyed API and get plain `(time, seq)` FIFO.
//!
//! Host-performance rule (see `DESIGN.md` "Host performance"): swapping
//! calendar implementations must never change simulated timing — both
//! structures pop in exactly `(time, key, seq)` order, so the simulation
//! is bit-identical regardless of which one drives it.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::Cycle;

/// Number of one-cycle slots in the near-future wheel window. Power of
/// two; delays shorter than this take the O(1) wheel path. 4096 = 64
/// bitmap words, exactly one summary word — and comfortably covers the
/// simulator's step costs, bus grants, and sync latencies.
pub const WHEEL_SLOTS: usize = 4096;
const WHEEL_MASK: u64 = (WHEEL_SLOTS as u64) - 1;
const WORDS: usize = WHEEL_SLOTS / 64;

/// An entry in the far-future heap. Ordered by `(time, key, seq)` so that
/// equal-time events pop key-first, then in the order they were scheduled
/// — the cornerstone of simulator determinism.
struct Entry<E> {
    time: Cycle,
    key: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.key == other.key && self.seq == other.seq
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
        // BinaryHeap is a max-heap; invert so the earliest
        // (time, key, seq) pops first.
        (other.time, other.key, other.seq).cmp(&(self.time, self.key, self.seq))
    }
}

/// Two-level occupancy bitmap over the wheel slots: one bit per slot,
/// plus a summary word with one bit per 64-slot group, so "next occupied
/// slot at or after `i`" is a handful of shifts and `trailing_zeros`.
struct SlotBitmap {
    words: [u64; WORDS],
    summary: u64,
}

impl SlotBitmap {
    fn new() -> Self {
        debug_assert_eq!(WORDS, 64, "summary word covers exactly 64 groups");
        SlotBitmap {
            words: [0; WORDS],
            summary: 0,
        }
    }

    #[inline]
    fn set(&mut self, slot: usize) {
        self.words[slot >> 6] |= 1 << (slot & 63);
        self.summary |= 1 << (slot >> 6);
    }

    #[inline]
    fn clear(&mut self, slot: usize) {
        let w = slot >> 6;
        self.words[w] &= !(1 << (slot & 63));
        if self.words[w] == 0 {
            self.summary &= !(1 << w);
        }
    }

    fn clear_all(&mut self) {
        self.words = [0; WORDS];
        self.summary = 0;
    }

    /// First occupied slot in `[from, WHEEL_SLOTS)`, if any.
    #[inline]
    fn find_from(&self, from: usize) -> Option<usize> {
        let wi = from >> 6;
        let w = self.words[wi] & (!0u64 << (from & 63));
        if w != 0 {
            return Some((wi << 6) + w.trailing_zeros() as usize);
        }
        if wi + 1 >= WORDS {
            return None;
        }
        let s = self.summary & (!0u64 << (wi + 1));
        if s == 0 {
            return None;
        }
        let wj = s.trailing_zeros() as usize;
        Some((wj << 6) + self.words[wj].trailing_zeros() as usize)
    }

    /// First occupied slot scanning cyclically from `from`.
    #[inline]
    fn find_cyclic(&self, from: usize) -> Option<usize> {
        // If the forward search fails, every occupied slot (if any) lies
        // in [0, from), so the restart cannot re-find a slot >= from.
        self.find_from(from).or_else(|| {
            if self.summary == 0 {
                None
            } else {
                self.find_from(0)
            }
        })
    }
}

/// A discrete-event calendar generic over the event payload `E`.
///
/// The calendar owns the notion of "current time": [`Calendar::pop`]
/// advances `now` to the popped event's timestamp. Scheduling into the past
/// is a logic error and panics in debug builds.
///
/// ```
/// use eclipse_sim::Calendar;
///
/// let mut cal: Calendar<&'static str> = Calendar::new();
/// cal.schedule(5, "b");
/// cal.schedule(2, "a");
/// cal.schedule(5, "c"); // same cycle as "b", scheduled later -> pops later
/// assert_eq!(cal.pop(), Some((2, "a")));
/// assert_eq!(cal.pop(), Some((5, "b")));
/// assert_eq!(cal.pop(), Some((5, "c")));
/// assert_eq!(cal.pop(), None);
/// ```
///
/// # Structure invariants
///
/// Every wheel-resident event has a timestamp in `[now, now + WHEEL_SLOTS)`,
/// so `time & WHEEL_MASK` addresses a unique slot and all events in one
/// slot share one timestamp. Each slot's deque is kept in `(key, seq)`
/// order: a new event (always the largest seq so far) is inserted after
/// the last entry whose key is `<=` its own, so the slot front is always
/// the slot's next event and popping is `pop_front`. Far-heap events were
/// scheduled at least `WHEEL_SLOTS` cycles ahead; when a far event ties a
/// wheel event on `(time, key)`, the far event necessarily has the smaller
/// sequence number (it was scheduled at a strictly earlier `now`), so ties
/// break toward the heap.
pub struct Calendar<E> {
    slots: Vec<VecDeque<(u64, E)>>,
    occupied: SlotBitmap,
    wheel_len: usize,
    far: BinaryHeap<Entry<E>>,
    seq: u64,
    now: Cycle,
}

impl<E> Calendar<E> {
    /// An empty calendar at cycle 0.
    pub fn new() -> Self {
        Calendar {
            slots: (0..WHEEL_SLOTS).map(|_| VecDeque::new()).collect(),
            occupied: SlotBitmap::new(),
            wheel_len: 0,
            far: BinaryHeap::new(),
            seq: 0,
            now: 0,
        }
    }

    /// Current simulated time (timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel_len + self.far.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedule `event` to fire `delay` cycles from now (key 0).
    #[inline]
    pub fn schedule(&mut self, delay: Cycle, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Schedule `event` at absolute time `time` (must be `>= now`), key 0.
    #[inline]
    pub fn schedule_at(&mut self, time: Cycle, event: E) {
        self.schedule_keyed_at(time, 0, event);
    }

    /// Schedule `event` at absolute time `time` (must be `>= now`) with an
    /// explicit ordering key: events pop in `(time, key, seq)` order.
    pub fn schedule_keyed_at(&mut self, time: Cycle, key: u64, event: E) {
        debug_assert!(
            time >= self.now,
            "scheduling into the past: {} < {}",
            time,
            self.now
        );
        self.seq += 1;
        if time - self.now < WHEEL_SLOTS as Cycle {
            let slot = (time & WHEEL_MASK) as usize;
            // Keep the slot in (key, seq) order. Scan from the back: the
            // new event usually carries the largest key so far and is
            // simply appended.
            let dq = &mut self.slots[slot];
            let mut at = dq.len();
            while at > 0 && dq[at - 1].0 > key {
                at -= 1;
            }
            dq.insert(at, (key, event));
            self.occupied.set(slot);
            self.wheel_len += 1;
        } else {
            self.far.push(Entry {
                time,
                key,
                seq: self.seq,
                event,
            });
        }
    }

    /// `(time, key, slot)` of the next wheel event, if any (time = `now +
    /// cyclic slot distance`, valid because all wheel timestamps lie
    /// within one window of `now`; the event is the slot's front entry).
    #[inline]
    fn wheel_peek(&self) -> Option<(Cycle, u64, usize)> {
        if self.wheel_len == 0 {
            return None;
        }
        let start = (self.now & WHEEL_MASK) as usize;
        let slot = self
            .occupied
            .find_cyclic(start)
            .expect("wheel_len > 0 implies an occupied slot");
        let dist = (slot as u64).wrapping_sub(self.now) & WHEEL_MASK;
        Some((self.now + dist, self.slots[slot][0].0, slot))
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<Cycle> {
        let wheel = self.wheel_peek().map(|(t, _, _)| t);
        match (wheel, self.far.peek().map(|e| e.time)) {
            (Some(w), Some(f)) => Some(w.min(f)),
            (w, f) => w.or(f),
        }
    }

    /// Pop the earliest event, advancing `now` to its timestamp.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        self.pop_keyed().map(|(t, _, e)| (t, e))
    }

    /// [`Calendar::pop`], also returning the event's ordering key.
    pub fn pop_keyed(&mut self) -> Option<(Cycle, u64, E)> {
        let wheel = self.wheel_peek();
        let far = self.far.peek().map(|e| (e.time, e.key));
        let from_far = match (wheel, far) {
            (None, None) => return None,
            (Some(_), None) => false,
            (None, Some(_)) => true,
            // On a (time, key) tie the far event was scheduled strictly
            // earlier (smaller seq), so the heap wins.
            (Some((wt, wk, _)), Some((ft, fk))) => (ft, fk) <= (wt, wk),
        };
        if from_far {
            let entry = self.far.pop().expect("peeked entry present");
            self.now = entry.time;
            Some((entry.time, entry.key, entry.event))
        } else {
            let (time, key, slot) = wheel.expect("wheel path requires a wheel event");
            let (_, event) = self.slots[slot].pop_front().expect("occupied slot");
            if self.slots[slot].is_empty() {
                self.occupied.clear(slot);
            }
            self.wheel_len -= 1;
            self.now = time;
            Some((time, key, event))
        }
    }

    /// Discard all pending events, keeping `now`.
    pub fn clear(&mut self) {
        if self.wheel_len > 0 {
            for slot in &mut self.slots {
                slot.clear();
            }
        }
        self.occupied.clear_all();
        self.wheel_len = 0;
        self.far.clear();
    }

    /// All pending events in exact pop order, without disturbing the
    /// calendar — the checkpoint view of the queue.
    pub fn pending_in_order(&self) -> Vec<(Cycle, E)>
    where
        E: Clone,
    {
        self.pending_in_order_keyed()
            .into_iter()
            .map(|(t, _, e)| (t, e))
            .collect()
    }

    /// [`Calendar::pending_in_order`] with each event's ordering key.
    ///
    /// The pop order is reconstructed from the structure invariants:
    /// every wheel slot holds events of a single timestamp already in
    /// `(key, seq)` order, far-heap entries carry explicit `(time, key,
    /// seq)` triples, and on a `(time, key)` tie the far event was
    /// scheduled strictly earlier than any wheel event, so far sorts
    /// first.
    pub fn pending_in_order_keyed(&self) -> Vec<(Cycle, u64, E)>
    where
        E: Clone,
    {
        let mut far: Vec<&Entry<E>> = self.far.iter().collect();
        far.sort_by_key(|e| (e.time, e.key, e.seq));
        let mut wheel: Vec<(Cycle, &VecDeque<(u64, E)>)> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, dq)| !dq.is_empty())
            .map(|(slot, dq)| {
                let dist = (slot as u64).wrapping_sub(self.now) & WHEEL_MASK;
                (self.now + dist, dq)
            })
            .collect();
        wheel.sort_by_key(|&(t, _)| t);

        let mut out = Vec::with_capacity(self.len());
        let mut fi = 0;
        for (t, dq) in wheel {
            for (k, e) in dq {
                while fi < far.len() && (far[fi].time, far[fi].key) <= (t, *k) {
                    out.push((far[fi].time, far[fi].key, far[fi].event.clone()));
                    fi += 1;
                }
                out.push((t, *k, e.clone()));
            }
        }
        for f in &far[fi..] {
            out.push((f.time, f.key, f.event.clone()));
        }
        out
    }

    /// Reset the calendar to `now` with exactly `events` pending, given
    /// as `(time, key, event)` in pop order (the
    /// [`Calendar::pending_in_order_keyed`] counterpart used by
    /// checkpoint restore). Re-scheduling in pop order reproduces the
    /// original delivery sequence: every wheel insert appends to its slot
    /// (pop order is `(key, seq)` order within a timestamp), and a
    /// formerly-far event that now fits the wheel window still sorts by
    /// its `(time, key)`.
    pub fn restore(&mut self, now: Cycle, events: impl IntoIterator<Item = (Cycle, u64, E)>) {
        self.clear();
        self.now = now;
        self.seq = 0;
        for (time, key, event) in events {
            self.schedule_keyed_at(time, key, event);
        }
    }
}

impl<E> Default for Calendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// The original `BinaryHeap`-only calendar, kept as the executable
/// specification of the `(time, key, seq)` ordering contract. Same API as
/// [`Calendar`]; the differential/property tests check the production
/// calendar against it.
pub struct BaselineCalendar<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    now: Cycle,
}

impl<E> BaselineCalendar<E> {
    /// An empty calendar at cycle 0.
    pub fn new() -> Self {
        BaselineCalendar {
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0,
        }
    }

    /// Current simulated time (timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `event` to fire `delay` cycles from now (key 0).
    pub fn schedule(&mut self, delay: Cycle, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Schedule `event` at absolute time `time` (must be `>= now`), key 0.
    pub fn schedule_at(&mut self, time: Cycle, event: E) {
        self.schedule_keyed_at(time, 0, event);
    }

    /// Schedule `event` at `time` with an explicit ordering key.
    pub fn schedule_keyed_at(&mut self, time: Cycle, key: u64, event: E) {
        debug_assert!(
            time >= self.now,
            "scheduling into the past: {} < {}",
            time,
            self.now
        );
        self.seq += 1;
        let seq = self.seq;
        self.heap.push(Entry {
            time,
            key,
            seq,
            event,
        });
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<Cycle> {
        self.heap.peek().map(|e| e.time)
    }

    /// Pop the earliest event, advancing `now` to its timestamp.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        self.pop_keyed().map(|(t, _, e)| (t, e))
    }

    /// [`BaselineCalendar::pop`], also returning the event's ordering key.
    pub fn pop_keyed(&mut self) -> Option<(Cycle, u64, E)> {
        let entry = self.heap.pop()?;
        self.now = entry.time;
        Some((entry.time, entry.key, entry.event))
    }

    /// Discard all pending events, keeping `now`.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<E> Default for BaselineCalendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut cal = Calendar::new();
        cal.schedule_at(30, 3);
        cal.schedule_at(10, 1);
        cal.schedule_at(20, 2);
        let order: Vec<_> = std::iter::from_fn(|| cal.pop()).collect();
        assert_eq!(order, vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn equal_time_events_are_fifo() {
        let mut cal = Calendar::new();
        for i in 0..100 {
            cal.schedule_at(7, i);
        }
        for i in 0..100 {
            assert_eq!(cal.pop(), Some((7, i)));
        }
    }

    #[test]
    fn keys_order_equal_time_events() {
        // At one cycle, key order wins over scheduling order; FIFO only
        // breaks ties within one key.
        let mut cal = Calendar::new();
        cal.schedule_keyed_at(7, 5, "k5-first");
        cal.schedule_keyed_at(7, 1, "k1");
        cal.schedule_keyed_at(7, 5, "k5-second");
        cal.schedule_keyed_at(7, 0, "k0");
        cal.schedule_at(9, "later-time");
        assert_eq!(cal.pop_keyed(), Some((7, 0, "k0")));
        assert_eq!(cal.pop_keyed(), Some((7, 1, "k1")));
        assert_eq!(cal.pop_keyed(), Some((7, 5, "k5-first")));
        assert_eq!(cal.pop_keyed(), Some((7, 5, "k5-second")));
        assert_eq!(cal.pop_keyed(), Some((9, 0, "later-time")));
    }

    #[test]
    fn keys_never_override_time_order() {
        let mut cal = Calendar::new();
        cal.schedule_keyed_at(10, 0, "t10-k0");
        cal.schedule_keyed_at(5, u64::MAX, "t5-kmax");
        assert_eq!(cal.pop(), Some((5, "t5-kmax")));
        assert_eq!(cal.pop(), Some((10, "t10-k0")));
    }

    #[test]
    fn relative_scheduling_uses_current_time() {
        let mut cal = Calendar::new();
        cal.schedule(10, "first");
        assert_eq!(cal.pop(), Some((10, "first")));
        cal.schedule(5, "second"); // now=10, fires at 15
        assert_eq!(cal.pop(), Some((15, "second")));
        assert_eq!(cal.now(), 15);
    }

    #[test]
    fn len_and_clear() {
        let mut cal = Calendar::new();
        assert!(cal.is_empty());
        cal.schedule(1, ());
        cal.schedule(2, ());
        assert_eq!(cal.len(), 2);
        cal.clear();
        assert!(cal.is_empty());
        assert_eq!(cal.pop(), None);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    #[cfg(debug_assertions)]
    fn scheduling_into_past_panics() {
        let mut cal = Calendar::new();
        cal.schedule_at(10, ());
        cal.pop();
        cal.schedule_at(5, ());
    }

    #[test]
    fn far_future_events_pop_in_order() {
        // Delays beyond the wheel window land in the far heap and must
        // interleave correctly with near events.
        let mut cal = Calendar::new();
        cal.schedule_at(WHEEL_SLOTS as u64 * 3 + 17, "far2");
        cal.schedule_at(5, "near1");
        cal.schedule_at(WHEEL_SLOTS as u64 + 100, "far1");
        cal.schedule_at(WHEEL_SLOTS as u64 - 1, "near2");
        assert_eq!(cal.pop(), Some((5, "near1")));
        assert_eq!(cal.pop(), Some((WHEEL_SLOTS as u64 - 1, "near2")));
        assert_eq!(cal.pop(), Some((WHEEL_SLOTS as u64 + 100, "far1")));
        assert_eq!(cal.pop(), Some((WHEEL_SLOTS as u64 * 3 + 17, "far2")));
        assert_eq!(cal.pop(), None);
    }

    #[test]
    fn far_event_beats_wheel_event_scheduled_later_at_same_time() {
        // A far-heap event and a wheel event at the same timestamp and
        // key: the far one was scheduled first (strictly smaller now), so
        // FIFO demands it pops first.
        let t = WHEEL_SLOTS as u64 + 50;
        let mut cal = Calendar::new();
        cal.schedule_at(t, "scheduled-early-via-heap");
        cal.schedule_at(100, "advance");
        assert_eq!(cal.pop(), Some((100, "advance")));
        // now = 100, so t is within the window: this lands in the wheel.
        cal.schedule_at(t, "scheduled-late-via-wheel");
        assert_eq!(cal.pop(), Some((t, "scheduled-early-via-heap")));
        assert_eq!(cal.pop(), Some((t, "scheduled-late-via-wheel")));
    }

    #[test]
    fn key_orders_far_against_wheel_at_same_time() {
        // Same timestamp, different keys, one far and one wheel: the
        // smaller key pops first regardless of which structure holds it.
        let t = WHEEL_SLOTS as u64 + 50;
        let mut cal = Calendar::new();
        cal.schedule_keyed_at(t, 9, "far-k9"); // via heap
        cal.schedule_keyed_at(100, 0, "advance");
        cal.pop();
        cal.schedule_keyed_at(t, 2, "wheel-k2"); // via wheel
        assert_eq!(cal.pop_keyed(), Some((t, 2, "wheel-k2")));
        assert_eq!(cal.pop_keyed(), Some((t, 9, "far-k9")));
    }

    #[test]
    fn window_advances_with_popped_time() {
        // March time forward across many windows with a stride just under
        // the window size; the slot mapping must stay consistent the whole
        // way.
        let stride = WHEEL_SLOTS as u64 - 3;
        let mut cal = Calendar::new();
        cal.schedule_at(0, 0u64);
        for i in 0..50 {
            let (t, v) = cal.pop().unwrap();
            assert_eq!(t, i * stride);
            assert_eq!(v, i);
            cal.schedule_at(t + stride, v + 1);
        }
        let jumped = cal.now();
        cal.clear();
        // Reuse after a deep jump keeps the same `now`.
        cal.schedule(3, 99u64);
        assert_eq!(cal.pop(), Some((jumped + 3, 99)));
    }

    #[test]
    fn dense_wraparound_traffic() {
        // Keep ~64 events in flight with pseudo-random short delays for
        // long enough that the wheel wraps many times; order must be
        // non-decreasing in time throughout.
        let mut cal = Calendar::new();
        let mut x = 0x12345678u64;
        for i in 0..64 {
            cal.schedule_at(i, i);
        }
        let mut last = 0u64;
        for _ in 0..100_000 {
            let (t, _) = cal.pop().unwrap();
            assert!(t >= last, "time went backwards: {t} < {last}");
            last = t;
            // xorshift
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let delay = x % (WHEEL_SLOTS as u64 * 2); // near and far mix
            cal.schedule(delay, t);
        }
        assert_eq!(cal.len(), 64);
    }

    #[test]
    fn clear_then_reuse_keeps_now() {
        let mut cal = Calendar::new();
        cal.schedule_at(1000, "x");
        cal.pop();
        cal.schedule_at(2000, "y");
        cal.schedule_at(WHEEL_SLOTS as u64 * 2, "z");
        cal.clear();
        assert!(cal.is_empty());
        assert_eq!(cal.now(), 1000);
        cal.schedule(1, "after");
        assert_eq!(cal.pop(), Some((1001, "after")));
    }

    #[test]
    fn pending_in_order_matches_pop_order() {
        let mut cal = Calendar::new();
        let mut x = 0xFEED_F00Du64;
        // Advance so wheel wraparound is exercised, then load a mix of
        // near, same-cycle, and far events.
        cal.schedule_at(WHEEL_SLOTS as u64 - 7, 0u32);
        cal.pop();
        for id in 1u32..=500 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let delay = x % (WHEEL_SLOTS as u64 * 3);
            cal.schedule(delay, id);
        }
        let snapshot = cal.pending_in_order();
        let popped: Vec<_> = std::iter::from_fn(|| cal.pop()).collect();
        assert_eq!(snapshot, popped);
    }

    #[test]
    fn keyed_pending_in_order_matches_pop_order() {
        let mut cal = Calendar::new();
        let mut x = 0xABCD_EF01u64;
        cal.schedule_at(WHEEL_SLOTS as u64 - 7, 0u32);
        cal.pop();
        for id in 1u32..=500 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let delay = x % (WHEEL_SLOTS as u64 * 3);
            let key = (x >> 32) % 5; // few key classes => plenty of ties
            cal.schedule_keyed_at(cal.now() + delay, key, id);
        }
        let snapshot = cal.pending_in_order_keyed();
        let popped: Vec<_> = std::iter::from_fn(|| cal.pop_keyed()).collect();
        assert_eq!(snapshot, popped);
    }

    #[test]
    fn restore_reproduces_pop_order() {
        let mut cal = Calendar::new();
        cal.schedule_at(100, "advance");
        cal.pop();
        let t = 100 + WHEEL_SLOTS as u64 * 2;
        cal.schedule_at(t, "far-first");
        cal.schedule_at(150, "near");
        cal.schedule_at(150, "near2");
        cal.schedule_at(t, "far-second");
        let pending = cal.pending_in_order_keyed();

        let mut fresh: Calendar<&str> = Calendar::new();
        fresh.restore(cal.now(), pending);
        assert_eq!(fresh.now(), 100);
        assert_eq!(fresh.len(), cal.len());
        let a: Vec<_> = std::iter::from_fn(|| cal.pop()).collect();
        let b: Vec<_> = std::iter::from_fn(|| fresh.pop()).collect();
        assert_eq!(a, b);
        assert_eq!(
            a.iter().map(|&(_, e)| e).collect::<Vec<_>>(),
            vec!["near", "near2", "far-first", "far-second"]
        );
    }

    #[test]
    fn restore_preserves_far_wheel_tie_order() {
        // A far event and a later-scheduled wheel event at the same
        // timestamp: after restore (where both may fit the wheel), the
        // original far-first order must survive.
        let t = WHEEL_SLOTS as u64 + 50;
        let mut cal = Calendar::new();
        cal.schedule_at(t, 1u32); // via heap
        cal.schedule_at(100, 0u32);
        cal.pop(); // now = 100; t now fits the window
        cal.schedule_at(t, 2u32); // via wheel
        let pending = cal.pending_in_order_keyed();
        assert_eq!(pending, vec![(t, 0, 1), (t, 0, 2)]);
        let mut fresh: Calendar<u32> = Calendar::new();
        fresh.restore(100, pending);
        assert_eq!(fresh.pop(), Some((t, 1)));
        assert_eq!(fresh.pop(), Some((t, 2)));
    }

    #[test]
    fn restore_keyed_events_reproduces_pop_order() {
        let mut cal = Calendar::new();
        let mut x = 0x5EED_0001u64;
        for id in 0u32..300 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let delay = x % (WHEEL_SLOTS as u64 * 2);
            let key = (x >> 32) % 4;
            cal.schedule_keyed_at(cal.now() + delay, key, id);
        }
        // Advance partway so restore happens mid-flight.
        for _ in 0..50 {
            cal.pop();
        }
        let pending = cal.pending_in_order_keyed();
        let mut fresh: Calendar<u32> = Calendar::new();
        fresh.restore(cal.now(), pending);
        let a: Vec<_> = std::iter::from_fn(|| cal.pop_keyed()).collect();
        let b: Vec<_> = std::iter::from_fn(|| fresh.pop_keyed()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn baseline_matches_on_mixed_sequence() {
        // A quick inline differential check; the exhaustive property test
        // lives in tests/calendar_equivalence.rs.
        let mut a = Calendar::new();
        let mut b = BaselineCalendar::new();
        let mut x = 0xDEADBEEFu64;
        let mut id = 0u32;
        for round in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if round % 3 != 0 || a.is_empty() {
                let delay = x % 10_000;
                let key = (x >> 32) % 3;
                a.schedule_keyed_at(a.now() + delay, key, id);
                b.schedule_keyed_at(b.now() + delay, key, id);
                id += 1;
            } else {
                assert_eq!(a.pop(), b.pop());
                assert_eq!(a.now(), b.now());
            }
            assert_eq!(a.len(), b.len());
            assert_eq!(a.peek_time(), b.peek_time());
        }
        while let Some(got) = a.pop() {
            assert_eq!(Some(got), b.pop());
        }
        assert!(b.is_empty());
    }
}
