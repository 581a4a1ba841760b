//! Deterministic event queue.
//!
//! The simulation is driven by a single priority queue of timestamped
//! events. Two events with the same timestamp are delivered in the order
//! they were pushed (FIFO tie-breaking via a monotonically increasing
//! sequence number), which makes every run bit-for-bit reproducible for a
//! given seed.
//!
//! Every push returns a [`TimerKey`]; [`EventQueue::cancel`] withdraws a
//! still-pending event so it is never dispatched. Cancelling consumes no
//! sequence number, so the remaining events keep exactly the order they
//! had. A cancelled far-tier entry is reclaimed (its payload at once, its
//! key by a sweep once dead keys outnumber live ones), so pending
//! storage tracks live timers rather than every timer ever armed.
//!
//! The queue is a hashed timing wheel for the near future (Varghese &
//! Lauck), cascading into a slab-backed binary heap only for far-future
//! events such as TIME_WAIT expiry, RTO backoff and client timeouts.
//! Near events (packets, softirqs, process wakes) land in O(1) wheel
//! slots instead of paying an O(log n) sift past the tens of thousands
//! of pending far-future timers.
//!
//! `tests/prop_event_diff.rs` and `tests/wheel_epoch.rs` drive the queue
//! with push/pop/cancel schedules against a sorted-map reference model
//! that shares no code with the wheel, and assert identical pop orders
//! and cancel outcomes.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use sim_trace::Tracer;

use crate::time::Cycles;

/// A dispatch-count hook: the tracer plus the event-labeling function.
type DispatchTrace<E> = (Tracer, fn(&E) -> &'static str);

/// Log2 of the wheel-slot width in cycles: 8192 cycles ≈ 3 µs per slot.
const SLOT_BITS: u32 = 13;
/// Number of wheel slots; the near horizon is `SLOTS << SLOT_BITS` cycles
/// (≈ 0.78 ms at 2.7 GHz) — comfortably past one RTT, so every packet,
/// softirq and wake event stays on the wheel while protocol timers
/// (TIME_WAIT ≥ 1 ms, RTO, client timeouts) go to the far heap.
const WHEEL_SLOTS: usize = 256;
const WHEEL_MASK: u64 = WHEEL_SLOTS as u64 - 1;
const OCC_WORDS: usize = WHEEL_SLOTS / 64;

/// One full rotation of the wheel, in cycles. An event scheduled
/// exactly this far ahead has the same `slot & WHEEL_MASK` ring index
/// as the current slot — the epoch-aliasing hazard. The push-side
/// bound is strict (`slot < cur_slot + WHEEL_SLOTS`), so such an event
/// is routed to the far-future heap rather than aliasing into the
/// current rotation; `tests/wheel_epoch.rs` pins that behaviour across
/// multiple rotations.
pub const WHEEL_SPAN_CYCLES: Cycles = (WHEEL_SLOTS as u64) << SLOT_BITS;

/// `TimerKey::idx` of an event pushed onto the wheel's near tier.
const NEAR: u32 = u32::MAX;

/// Names one pushed event so it can be [cancelled](EventQueue::cancel).
///
/// A key never goes stale: cancelling an event that was already popped
/// or cancelled is a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerKey {
    time: Cycles,
    seq: u64,
    /// Slab index while the event sits in the far tier, or `NEAR`.
    idx: u32,
}

impl TimerKey {
    /// The time the event was scheduled for.
    pub fn time(self) -> Cycles {
        self.time
    }
}

/// An event queue ordered by `(time, insertion order)`: equal-time
/// events dispatch in the order they were scheduled.
///
/// # Example
///
/// ```
/// # use sim_core::event::EventQueue;
/// let mut q = EventQueue::new();
/// q.push(20, 'b');
/// q.push(10, 'a');
/// let c = q.push(20, 'c');
/// assert!(q.cancel(c));
/// assert_eq!(q.pop(), Some((10, 'a')));
/// assert_eq!(q.pop(), Some((20, 'b')));
/// assert_eq!(q.pop(), None);
/// assert_eq!(q.delivered(), 2);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    wheel: Wheel<E>,
    seq: u64,
    popped: u64,
    trace: Option<DispatchTrace<E>>,
}

#[derive(Debug)]
struct Entry<E> {
    time: Cycles,
    seq: u64,
    event: E,
}

/// Heap key: the event payload lives in a slab so sift operations move
/// 20-byte keys, not whole events.
#[derive(Debug)]
struct HeapKey {
    time: Cycles,
    seq: u64,
    idx: u32,
}

impl PartialEq for HeapKey {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for HeapKey {}
impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapKey {
    fn cmp(&self, other: &Self) -> Ordering {
        // Inverted: earliest (time, seq) on top of the max-heap.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A binary heap of [`HeapKey`]s over a slab of `(seq, payload)` pairs,
/// with O(1) cancellation.
///
/// Cancelling frees the payload's slab slot at once and leaves its key
/// behind as a tombstone, recognized because the slot no longer holds
/// the key's sequence number. Tombstones are swept in one O(n) pass once
/// they outnumber live keys, so the key heap stays within twice the live
/// count and the slab within the peak live count.
#[derive(Debug)]
struct TimerHeap<E> {
    keys: BinaryHeap<HeapKey>,
    /// Payload slab; `None` entries are free.
    slab: Vec<Option<(u64, E)>>,
    /// Free-list of slab indices, recycled to kill per-push allocation.
    free: Vec<u32>,
    /// Tombstones still in `keys`.
    dead: usize,
}

impl<E> TimerHeap<E> {
    fn new(cap: usize) -> Self {
        TimerHeap {
            keys: BinaryHeap::with_capacity(cap),
            slab: Vec::with_capacity(cap),
            free: Vec::new(),
            dead: 0,
        }
    }

    fn len(&self) -> usize {
        self.keys.len() - self.dead
    }

    fn is_live(slab: &[Option<(u64, E)>], idx: u32, seq: u64) -> bool {
        matches!(slab.get(idx as usize), Some(Some((s, _))) if *s == seq)
    }

    /// Stores `event` and returns its slab index.
    fn push(&mut self, time: Cycles, seq: u64, event: E) -> u32 {
        let idx = if let Some(i) = self.free.pop() {
            self.slab[i as usize] = Some((seq, event));
            i
        } else {
            let i = u32::try_from(self.slab.len())
                .ok()
                .filter(|&i| i != NEAR)
                .expect("timer slab exceeds u32 range");
            self.slab.push(Some((seq, event)));
            i
        };
        self.keys.push(HeapKey { time, seq, idx });
        idx
    }

    /// Time of the earliest live entry, dropping tombstones off the top.
    fn peek_time(&mut self) -> Option<Cycles> {
        while let Some(k) = self.keys.peek() {
            if Self::is_live(&self.slab, k.idx, k.seq) {
                return Some(k.time);
            }
            self.keys.pop();
            self.dead -= 1;
        }
        None
    }

    fn pop(&mut self) -> Option<Entry<E>> {
        self.peek_time()?;
        let k = self.keys.pop().expect("peeked key vanished");
        let (_, event) = self.slab[k.idx as usize]
            .take()
            .expect("live slab slot empty");
        self.free.push(k.idx);
        Some(Entry {
            time: k.time,
            seq: k.seq,
            event,
        })
    }

    /// Withdraws the entry `key` names; `false` if it already left.
    fn cancel(&mut self, key: TimerKey) -> bool {
        if !Self::is_live(&self.slab, key.idx, key.seq) {
            return false;
        }
        self.slab[key.idx as usize] = None;
        self.free.push(key.idx);
        self.dead += 1;
        if self.dead > self.len() {
            let slab = &self.slab;
            self.keys.retain(|k| Self::is_live(slab, k.idx, k.seq));
            self.dead = 0;
        }
        true
    }
}

/// Two-tier scheduler state.
///
/// Invariants:
/// * `batch` holds *all* pending events whose slot is `cur_slot`, sorted
///   descending by `(time, seq)` so `Vec::pop` yields the minimum.
/// * `ring[s]` holds events whose absolute slot is in
///   `(cur_slot, cur_slot + WHEEL_SLOTS)`; `occupied` mirrors non-empty
///   slots.
/// * `far` holds only events with slot `>= cur_slot + WHEEL_SLOTS`.
#[derive(Debug)]
struct Wheel<E> {
    /// Absolute slot index (`time >> SLOT_BITS`) the batch covers.
    cur_slot: u64,
    /// Events of the current slot, sorted descending; pop from the end.
    batch: Vec<Entry<E>>,
    /// Near-future slots, indexed by absolute slot & `WHEEL_MASK`.
    ring: Vec<Vec<Entry<E>>>,
    /// Occupancy bitmap over `ring` (one bit per slot).
    occupied: [u64; OCC_WORDS],
    /// Far-future tier.
    far: TimerHeap<E>,
    len: usize,
}

impl<E> Wheel<E> {
    fn new(cap: usize) -> Self {
        Wheel {
            cur_slot: 0,
            batch: Vec::new(),
            ring: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; OCC_WORDS],
            far: TimerHeap::new(cap),
            len: 0,
        }
    }

    /// Stores the event and returns its `TimerKey::idx`.
    fn push(&mut self, time: Cycles, seq: u64, event: E) -> u32 {
        self.len += 1;
        let slot = time >> SLOT_BITS;
        if slot <= self.cur_slot {
            // Current (or past) slot: merge into the sorted batch. The
            // batch is descending, so find the first entry not greater
            // than the new key and insert before it.
            let entry = Entry { time, seq, event };
            let pos = self
                .batch
                .partition_point(|e| (e.time, e.seq) > (entry.time, entry.seq));
            self.batch.insert(pos, entry);
            NEAR
        } else if slot < self.cur_slot + WHEEL_SLOTS as u64 {
            let idx = (slot & WHEEL_MASK) as usize;
            self.ring[idx].push(Entry { time, seq, event });
            self.occupied[idx / 64] |= 1 << (idx % 64);
            NEAR
        } else {
            self.far.push(time, seq, event)
        }
    }

    /// Withdraws the event `key` names from whichever tier holds it.
    fn cancel(&mut self, key: TimerKey) -> bool {
        let slot = key.time >> SLOT_BITS;
        let found = if key.idx != NEAR && self.far.cancel(key) {
            true
        } else if slot <= self.cur_slot {
            // Pushed into the batch, or moved there from its ring slot or
            // the far tier when its slot came up; otherwise popped.
            match self
                .batch
                .binary_search_by(|e| (key.time, key.seq).cmp(&(e.time, e.seq)))
            {
                Ok(pos) => {
                    self.batch.remove(pos);
                    true
                }
                Err(_) => false,
            }
        } else if key.idx == NEAR {
            // Still waiting in its (unsorted) ring slot.
            let idx = (slot & WHEEL_MASK) as usize;
            let pos = self.ring[idx].iter().position(|e| e.seq == key.seq);
            if let Some(p) = pos {
                self.ring[idx].swap_remove(p);
                if self.ring[idx].is_empty() {
                    self.occupied[idx / 64] &= !(1 << (idx % 64));
                }
            }
            pos.is_some()
        } else {
            false
        };
        if found {
            self.len -= 1;
        }
        found
    }

    /// First occupied ring slot with absolute index in
    /// `[start, cur_slot + WHEEL_SLOTS)`, scanning the bitmap a word at a
    /// time.
    fn next_occupied(&self, start: u64) -> Option<u64> {
        let limit = self.cur_slot + WHEEL_SLOTS as u64;
        let mut abs = start;
        while abs < limit {
            let idx = (abs & WHEEL_MASK) as usize;
            let word = self.occupied[idx / 64] >> (idx % 64);
            if word != 0 {
                let cand = abs + u64::from(word.trailing_zeros());
                return (cand < limit).then_some(cand);
            }
            abs += 64 - (idx % 64) as u64;
        }
        None
    }

    /// Refills `batch` from the earliest non-empty tier. Called only when
    /// `batch` is empty and `len > 0`.
    fn advance(&mut self) {
        debug_assert!(self.batch.is_empty());
        let ring_slot = self.next_occupied(self.cur_slot + 1);
        let far_slot = self.far.peek_time().map(|t| t >> SLOT_BITS);
        let target = match (ring_slot, far_slot) {
            (Some(r), Some(f)) => r.min(f),
            (Some(r), None) => r,
            (None, Some(f)) => f,
            (None, None) => unreachable!("advance called on empty wheel"),
        };
        self.cur_slot = target;
        if ring_slot == Some(target) {
            let idx = (target & WHEEL_MASK) as usize;
            std::mem::swap(&mut self.batch, &mut self.ring[idx]);
            self.occupied[idx / 64] &= !(1 << (idx % 64));
        }
        // Drain every far event that belongs to the new current slot so
        // the batch invariant (all pending events of cur_slot) holds.
        while self
            .far
            .peek_time()
            .is_some_and(|t| t >> SLOT_BITS == target)
        {
            let e = self.far.pop().expect("peeked entry vanished");
            self.batch.push(e);
        }
        // Descending order: the minimum (time, seq) sits at the end.
        self.batch
            .sort_unstable_by_key(|e| core::cmp::Reverse((e.time, e.seq)));
    }

    fn pop(&mut self) -> Option<Entry<E>> {
        if self.len == 0 {
            return None;
        }
        if self.batch.is_empty() {
            self.advance();
        }
        self.len -= 1;
        self.batch.pop()
    }

    fn peek_time(&mut self) -> Option<Cycles> {
        if self.len == 0 {
            return None;
        }
        if self.batch.is_empty() {
            self.advance();
        }
        self.batch.last().map(|e| e.time)
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with far-tier capacity pre-allocated.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            wheel: Wheel::new(cap),
            seq: 0,
            popped: 0,
            trace: None,
        }
    }

    /// Counts every delivered event under the label `label(&event)`
    /// returns, feeding the tracer's dispatch-mix table.
    pub fn set_tracer(&mut self, tracer: Tracer, label: fn(&E) -> &'static str) {
        self.trace = Some((tracer, label));
    }

    /// Schedules `event` at absolute time `time`; the returned key can
    /// [cancel](Self::cancel) it.
    pub fn push(&mut self, time: Cycles, event: E) -> TimerKey {
        let seq = self.seq;
        self.seq += 1;
        let idx = self.wheel.push(time, seq, event);
        TimerKey { time, seq, idx }
    }

    /// Withdraws the event `key` names if it is still pending: it is
    /// never popped nor counted by [`delivered`](Self::delivered).
    /// Returns whether an event was withdrawn — `false` when it was
    /// already popped or cancelled.
    pub fn cancel(&mut self, key: TimerKey) -> bool {
        self.wheel.cancel(key)
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(Cycles, E)> {
        let e = self.wheel.pop()?;
        self.popped += 1;
        if let Some((tracer, label)) = &self.trace {
            tracer.count_dispatch(label(&e.event));
        }
        Some((e.time, e.event))
    }

    /// Drains every pending event that shares the earliest timestamp into
    /// `out` (in FIFO order) and returns that timestamp, or `None` when
    /// empty. Events the caller schedules *at* the returned timestamp
    /// while dispatching the batch get later sequence numbers, so they
    /// form the next batch — exactly the order per-event `pop` yields.
    pub fn pop_batch(&mut self, out: &mut Vec<E>) -> Option<Cycles> {
        let (t, first) = self.pop()?;
        out.push(first);
        while self.peek_time() == Some(t) {
            let (_, e) = self.pop().expect("peeked event vanished");
            out.push(e);
        }
        Some(t)
    }

    /// Time of the earliest pending event without removing it.
    pub fn peek_time(&mut self) -> Option<Cycles> {
        self.wheel.peek_time()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events delivered so far (diagnostics).
    pub fn delivered(&self) -> u64 {
        self.popped
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Heap keys plus slab slots of the queue's far tier.
    fn far_storage<E>(q: &EventQueue<E>) -> usize {
        q.wheel.far.keys.len() + q.wheel.far.slab.len()
    }

    #[test]
    fn orders_by_time() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(5, 5u32);
        q.push(1, 1);
        q.push(3, 3);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn fifo_on_equal_time() {
        let mut q: EventQueue<u32> = EventQueue::new();
        for i in 0..100u32 {
            q.push(42, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(10, "a");
        q.push(30, "c");
        assert_eq!(q.pop(), Some((10, "a")));
        q.push(20, "b");
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
    }

    #[test]
    fn far_future_events_cascade_back() {
        // Far beyond the wheel horizon, with slab recycling in between.
        let horizon = (WHEEL_SLOTS as u64) << SLOT_BITS;
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(3 * horizon, 3u32);
        q.push(1, 1);
        q.push(7 * horizon, 7);
        q.push(horizon + 5, 2);
        assert_eq!(q.pop(), Some((1, 1)));
        assert_eq!(q.pop(), Some((horizon + 5, 2)));
        // Push after draining part of the far tier: indices recycle.
        q.push(5 * horizon, 5);
        assert_eq!(q.pop(), Some((3 * horizon, 3)));
        assert_eq!(q.pop(), Some((5 * horizon, 5)));
        assert_eq!(q.pop(), Some((7 * horizon, 7)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_slot_mixed_tiers_keep_fifo() {
        // Events in one slot arriving via ring, far tier and late pushes
        // must still come out in (time, seq) order.
        let t = ((WHEEL_SLOTS as u64) + 3) << SLOT_BITS;
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(t + 2, 20u32); // far at creation time
        q.push(t + 1, 10);
        q.push(t + 2, 21);
        q.push(0, 0);
        assert_eq!(q.pop(), Some((0, 0)));
        // Now cur advances into range; same-slot push lands in batch.
        assert_eq!(q.pop(), Some((t + 1, 10)));
        q.push(t + 2, 22);
        assert_eq!(q.pop(), Some((t + 2, 20)));
        assert_eq!(q.pop(), Some((t + 2, 21)));
        assert_eq!(q.pop(), Some((t + 2, 22)));
    }

    #[test]
    fn pop_batch_groups_equal_times() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(10, 1u32);
        q.push(10, 2);
        q.push(20, 3);
        q.push(10, 4);
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(&mut out), Some(10));
        assert_eq!(out, vec![1, 2, 4]);
        out.clear();
        assert_eq!(q.pop_batch(&mut out), Some(20));
        assert_eq!(out, vec![3]);
        out.clear();
        assert_eq!(q.pop_batch(&mut out), None);
        assert_eq!(q.delivered(), 4);
    }

    #[test]
    fn dispatch_labels_reach_the_tracer() {
        let mut q = EventQueue::new();
        let t = Tracer::enabled(1, 16);
        q.set_tracer(t.clone(), |e: &u32| {
            if (*e).is_multiple_of(2) {
                "even"
            } else {
                "odd"
            }
        });
        for i in 0..5u32 {
            q.push(i as Cycles, i);
        }
        while q.pop().is_some() {}
        let counts = t.dispatch_counts();
        assert_eq!(counts, vec![("even", 3), ("odd", 2)]);
    }

    #[test]
    fn counters_track_len_and_delivered() {
        let mut q: EventQueue<u32> = EventQueue::new();
        assert!(q.is_empty());
        q.push(1, 1);
        q.push(2, 2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(1));
        q.pop();
        assert_eq!(q.delivered(), 1);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn cancel_withdraws_from_every_tier() {
        let span = WHEEL_SPAN_CYCLES;
        let mut q: EventQueue<u32> = EventQueue::new();
        let batch = q.push(0, 0u32);
        let ring = q.push(span / 2, 1);
        let far = q.push(3 * span, 2);
        let kept = q.push(3 * span, 3);
        assert!(q.cancel(batch));
        assert!(q.cancel(ring));
        assert!(q.cancel(far));
        assert!(!q.cancel(far), "a second cancel is a no-op");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((3 * span, 3)));
        assert!(!q.cancel(kept), "a popped event cannot be cancelled");
        assert_eq!(q.pop(), None);
        assert_eq!(q.delivered(), 1);
    }

    #[test]
    fn cancel_reaches_far_events_moved_into_the_batch() {
        let t = 5 * WHEEL_SPAN_CYCLES;
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(t, 0u32);
        let moved = q.push(t + 1, 1);
        q.push(t + 2, 2);
        assert_eq!(q.pop(), Some((t, 0)));
        assert!(q.cancel(moved));
        assert_eq!(q.pop(), Some((t + 2, 2)));
        assert!(q.is_empty());
    }

    #[test]
    fn push_cancel_cycles_do_not_grow_the_far_tier() {
        let far = 10 * WHEEL_SPAN_CYCLES;
        let mut q: EventQueue<u32> = EventQueue::new();
        for i in 0..8u32 {
            q.push(far + u64::from(i), i);
        }
        let live = far_storage(&q);
        for i in 0..10_000u64 {
            let key = q.push(far + 100 + i, 99);
            assert!(q.cancel(key));
            // Tombstones never outnumber live keys, and the slab
            // recycles the cancelled slot.
            assert!(far_storage(&q) <= 2 * live + 2, "cycle {i}");
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..8).collect::<Vec<_>>());
    }
}
