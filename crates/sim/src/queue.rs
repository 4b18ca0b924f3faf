//! Event-queue backends for the simulation engine.
//!
//! Every run drains one totally ordered queue of `(time, seq)`-keyed
//! events — the hot path under every scenario, sweep, and explorer cell.
//! Two backends ship, and the engine holds whichever it drains by value,
//! as one variant of a two-variant enum (so cloning the engine state
//! clones its pending events too):
//!
//! * [`CalendarQueue`] — single-tick buckets over a lazily resized ring
//!   with a heap overflow for far-future events. Push and pop are O(1)
//!   amortized instead of O(log len), which is what lets large-n
//!   committees (n ≥ 128, queue depth ~n²) stop paying a ~16-level
//!   sift per event. Every run drains it ([`crate::Simulation::new`]).
//! * [`HeapQueue`] — the original `BinaryHeap`, kept as the reference
//!   implementation ("what the seed engine did, bit for bit"). Only
//!   [`crate::Simulation::with_backend`] builds an engine on it, for its
//!   oracles: `crates/sim/tests/queue_equiv.rs` (a differential property
//!   test over both backends), the engine's own
//!   `backends_produce_identical_traces`, and `prft-bench queue`'s
//!   calendar ≥ heap throughput gate.
//!
//! Both backends implement the **exact same pop order** — earliest time
//! first, ties broken by insertion sequence — so a run's outputs are
//! byte-identical whichever backend drains it; the backend is an
//! execution detail, not a semantics, and no scenario names it.
//!
//! # Ordering contract
//!
//! Both backends may rely on how the engine drives them:
//!
//! 1. **Monotone time**: `push(at, ..)` is never called with `at` earlier
//!    than the time of the last popped entry (virtual time never rewinds).
//! 2. **Monotone sequence**: `seq` strictly increases across pushes (the
//!    engine's global event counter).
//!
//! Under those two rules a same-tick bucket receives entries in `seq`
//! order, so the calendar backend can use plain FIFO buckets.

use crate::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Which event-queue backend a simulation drains
/// ([`crate::Simulation::with_backend`]).
///
/// The choice never affects results — pop order is pinned identical across
/// backends — only speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueueBackend {
    /// The reference `BinaryHeap` (O(log len) per operation).
    Heap,
    /// The calendar queue (O(1) amortized; what every run drains).
    Calendar,
}

impl QueueBackend {
    /// Every backend, in a stable order (bench sweeps iterate this).
    pub const ALL: [QueueBackend; 2] = [QueueBackend::Heap, QueueBackend::Calendar];

    /// The report name of the backend.
    pub fn name(self) -> &'static str {
        match self {
            QueueBackend::Heap => "heap",
            QueueBackend::Calendar => "calendar",
        }
    }

    /// An empty queue of this backend.
    pub(crate) fn build<T>(self) -> Queue<T> {
        match self {
            QueueBackend::Heap => Queue::Heap(HeapQueue::new()),
            QueueBackend::Calendar => Queue::Calendar(CalendarQueue::new()),
        }
    }
}

impl std::fmt::Display for QueueBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A totally ordered event queue, pop-earliest by `(time, seq)`, on one
/// of the two backends, whose methods it forwards. A plain value: a clone
/// holds every pending entry with its key, so the engine state that owns
/// one snapshots it whole.
#[derive(Clone)]
pub(crate) enum Queue<T> {
    Heap(HeapQueue<T>),
    Calendar(CalendarQueue<T>),
}

impl<T> Queue<T> {
    pub(crate) fn push(&mut self, at: SimTime, seq: u64, item: T) {
        match self {
            Queue::Heap(q) => q.push(at, seq, item),
            Queue::Calendar(q) => q.push(at, seq, item),
        }
    }

    pub(crate) fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        match self {
            Queue::Heap(q) => q.peek_key(),
            Queue::Calendar(q) => q.peek_key(),
        }
    }

    pub(crate) fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        match self {
            Queue::Heap(q) => q.pop(),
            Queue::Calendar(q) => q.pop(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            Queue::Heap(q) => q.len(),
            Queue::Calendar(q) => q.len(),
        }
    }
}

#[derive(Clone)]
struct HeapEntry<T> {
    at: SimTime,
    seq: u64,
    item: T,
}

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for HeapEntry<T> {}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first. Ties break
        // by insertion sequence so runs are fully deterministic.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The reference backend: a `BinaryHeap` keyed `(at, seq)`, exactly the
/// structure the engine used before queues became pluggable.
#[derive(Clone)]
pub struct HeapQueue<T> {
    heap: BinaryHeap<HeapEntry<T>>,
}

impl<T> HeapQueue<T> {
    /// An empty heap queue.
    pub fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
        }
    }

    /// Enqueues `item` keyed by `(at, seq)`.
    pub fn push(&mut self, at: SimTime, seq: u64, item: T) {
        self.heap.push(HeapEntry { at, seq, item });
    }

    /// The key of the earliest pending entry, without removing it.
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|e| (e.at, e.seq))
    }

    /// Removes and returns the earliest entry (ties by minimal `seq`).
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        self.heap.pop().map(|e| (e.at, e.seq, e.item))
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<T> Default for HeapQueue<T> {
    fn default() -> Self {
        HeapQueue::new()
    }
}

/// Ring size the calendar starts with; lazy resize doubles from here.
const INITIAL_BUCKETS: usize = 1024;
/// Hard cap on the ring (2^16 single-tick buckets ≈ a couple of MB of
/// `VecDeque` headers); spans wider than this stay in the overflow heap.
const MAX_BUCKETS: usize = 1 << 16;

/// The fast backend: a ring of single-tick FIFO buckets covering the
/// window `[cursor, cursor + ring_len)`, plus a heap for events scheduled
/// beyond it.
///
/// * **push** — O(1): drop into `bucket[tick % ring_len]` when the tick is
///   inside the window, else into the overflow heap.
/// * **pop** — O(1) amortized: the cursor only moves forward (virtual time
///   is monotone), so each empty bucket is skipped at most once per tick
///   of simulated time; within a bucket, entries are already in `seq`
///   order (see the module ordering contract), so pop is `pop_front`.
/// * **lazy resize** — when the overflow heap outgrows the ring (the
///   pending-event span is wider than the window), the ring doubles (up
///   to `MAX_BUCKETS` = 2^16 slots) and everything is re-placed; amortized by the
///   doubling, and bucket storage is reused across wraps, so steady-state
///   operation allocates nothing.
#[derive(Clone)]
pub struct CalendarQueue<T> {
    buckets: Vec<VecDeque<(SimTime, u64, T)>>,
    /// `buckets.len() - 1`; the ring length is a power of two.
    mask: u64,
    /// Absolute tick of the cursor; the window is `[window_start, window_start + buckets.len())`.
    window_start: u64,
    /// Entries currently held in ring buckets.
    in_window: usize,
    /// Entries outside the window: far-future ticks, plus the rare push
    /// *behind* the cursor (legal whenever its tick is at or after the
    /// last pop — e.g. `Simulation::inject` after a bounded run whose
    /// final peek settled the cursor on a later pending event). Peek/pop
    /// compare the overflow top against the bucket front, so such
    /// entries still come out in exact `(time, seq)` order.
    overflow: HeapQueue<T>,
    /// Time of the last popped entry — the floor the ordering contract
    /// puts under future pushes.
    last_popped: u64,
    len: usize,
}

impl<T> CalendarQueue<T> {
    /// An empty calendar queue with the default initial ring.
    pub fn new() -> Self {
        CalendarQueue::with_buckets(INITIAL_BUCKETS)
    }

    /// An empty calendar queue whose ring starts at `buckets` slots
    /// (rounded up to a power of two, clamped to the 2^16-slot cap).
    pub fn with_buckets(buckets: usize) -> Self {
        let n = buckets.next_power_of_two().clamp(2, MAX_BUCKETS);
        CalendarQueue {
            buckets: (0..n).map(|_| VecDeque::new()).collect(),
            mask: (n - 1) as u64,
            window_start: 0,
            in_window: 0,
            overflow: HeapQueue::new(),
            last_popped: 0,
            len: 0,
        }
    }

    fn in_ring_window(&self, at: SimTime) -> bool {
        at.0 >= self.window_start && at.0 - self.window_start < self.buckets.len() as u64
    }

    fn place(&mut self, at: SimTime, seq: u64, item: T) {
        if self.in_ring_window(at) {
            self.buckets[(at.0 & self.mask) as usize].push_back((at, seq, item));
            self.in_window += 1;
        } else {
            self.overflow.push(at, seq, item);
        }
    }

    /// Doubles the ring and re-places every entry. Entries are re-inserted
    /// in `(at, seq)` order so per-bucket FIFO stays sorted.
    fn grow(&mut self) {
        let new_len = (self.buckets.len() * 2).min(MAX_BUCKETS);
        if new_len == self.buckets.len() {
            return;
        }
        let mut all: Vec<(SimTime, u64, T)> = Vec::with_capacity(self.len);
        for bucket in &mut self.buckets {
            all.extend(bucket.drain(..));
        }
        while let Some(entry) = self.overflow.pop() {
            all.push(entry);
        }
        all.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        self.buckets = (0..new_len).map(|_| VecDeque::new()).collect();
        self.mask = (new_len - 1) as u64;
        self.in_window = 0;
        for (at, seq, item) in all {
            self.place(at, seq, item);
        }
    }

    /// Moves the cursor to the earliest non-empty bucket, pulling overflow
    /// entries into the ring as the window slides over them. After this
    /// returns (with `len > 0`), the front of `buckets[window_start %
    /// ring]` holds the earliest *in-window* entry; entries still in the
    /// overflow heap (behind the cursor or beyond the window) are compared
    /// against it by the caller, so the true global minimum always wins.
    fn settle(&mut self) {
        debug_assert!(self.len > 0);
        loop {
            // Window extension first: anything in overflow that the
            // current window covers belongs in a bucket. Overflow drains
            // in (at, seq) order, so per-bucket FIFO order is preserved;
            // a behind-cursor top stops the drain, which is fine — it
            // (and anything after it) pops straight from the heap via
            // the peek/pop comparison instead.
            while let Some((at, _)) = self.overflow.peek_key() {
                if !self.in_ring_window(at) {
                    break;
                }
                let (at, seq, item) = self.overflow.pop().expect("peeked");
                self.buckets[(at.0 & self.mask) as usize].push_back((at, seq, item));
                self.in_window += 1;
            }
            if self.in_window == 0 {
                // Ring is empty: jump the window straight to the earliest
                // overflow entry — forward past empty ticks, or (rarely)
                // backward to a behind-cursor push. Rewinding with empty
                // buckets is safe: slot ↔ tick stays unique.
                let Some((at, _)) = self.overflow.peek_key() else {
                    unreachable!("len > 0 with empty ring and empty overflow");
                };
                self.window_start = at.0;
                continue;
            }
            if !self.buckets[(self.window_start & self.mask) as usize].is_empty() {
                return;
            }
            self.window_start += 1;
        }
    }

    /// After [`CalendarQueue::settle`]: whether the next pop comes from
    /// the overflow heap (a behind-cursor entry) rather than the cursor
    /// bucket. Ticks can never tie — overflow holds only ticks strictly
    /// before the cursor or at/after the window end.
    fn overflow_wins(&self) -> bool {
        match (
            self.overflow.peek_key(),
            self.buckets[(self.window_start & self.mask) as usize].front(),
        ) {
            (Some((o_at, o_seq)), Some(&(b_at, b_seq, _))) => (o_at, o_seq) < (b_at, b_seq),
            (Some(_), None) => unreachable!("settle leaves the cursor on a non-empty bucket"),
            _ => false,
        }
    }

    /// Enqueues `item` keyed by `(at, seq)` (see the ordering contract).
    pub fn push(&mut self, at: SimTime, seq: u64, item: T) {
        debug_assert!(
            at.0 >= self.last_popped,
            "push at {at:?} before the last popped tick ({}) violates the monotone-time contract",
            self.last_popped
        );
        self.len += 1;
        self.place(at, seq, item);
        // Lazy resize: a wider-than-window pending span shows up as the
        // overflow outgrowing the ring.
        if self.overflow.len() > self.buckets.len() && self.buckets.len() < MAX_BUCKETS {
            self.grow();
        }
    }

    /// The key of the earliest pending entry, without removing it
    /// (`&mut`: it settles the cursor).
    pub fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        if self.len == 0 {
            return None;
        }
        self.settle();
        if self.overflow_wins() {
            return self.overflow.peek_key();
        }
        let front = self.buckets[(self.window_start & self.mask) as usize]
            .front()
            .expect("settled on a non-empty bucket");
        Some((front.0, front.1))
    }

    /// Removes and returns the earliest entry (ties by minimal `seq`).
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        if self.len == 0 {
            return None;
        }
        self.settle();
        let entry = if self.overflow_wins() {
            self.overflow.pop().expect("overflow_wins saw an entry")
        } else {
            let entry = self.buckets[(self.window_start & self.mask) as usize]
                .pop_front()
                .expect("settled on a non-empty bucket");
            self.in_window -= 1;
            entry
        };
        self.len -= 1;
        self.last_popped = entry.0 .0;
        Some(entry)
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        CalendarQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<T>(pop: impl FnMut() -> Option<(SimTime, u64, T)>) -> Vec<(SimTime, u64, T)> {
        std::iter::from_fn(pop).collect()
    }

    #[test]
    fn backends_display_their_names() {
        assert_eq!(
            QueueBackend::ALL.map(|b| b.to_string()),
            ["heap", "calendar"]
        );
    }

    #[test]
    fn both_backends_pop_time_then_seq() {
        for backend in QueueBackend::ALL {
            let mut q = backend.build::<&'static str>();
            q.push(SimTime(5), 0, "early-seq-at-5");
            q.push(SimTime(1), 1, "t1");
            q.push(SimTime(5), 2, "late-seq-at-5");
            q.push(SimTime(0), 3, "t0");
            assert_eq!(q.len(), 4);
            assert_eq!(q.peek_key(), Some((SimTime(0), 3)));
            let order: Vec<&str> = drain(|| q.pop()).into_iter().map(|(_, _, x)| x).collect();
            assert_eq!(
                order,
                vec!["t0", "t1", "early-seq-at-5", "late-seq-at-5"],
                "{backend}"
            );
        }
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        for backend in QueueBackend::ALL {
            let mut q = backend.build::<u32>();
            q.push(SimTime(10), 0, 0);
            q.push(SimTime(20), 1, 1);
            assert_eq!(q.pop().unwrap(), (SimTime(10), 0, 0));
            // Push at the popped time (self-delivery) and beyond.
            q.push(SimTime(10), 2, 2);
            q.push(SimTime(15), 3, 3);
            let rest: Vec<u32> = drain(|| q.pop()).into_iter().map(|(_, _, x)| x).collect();
            assert_eq!(rest, vec![2, 3, 1], "{backend}");
        }
    }

    #[test]
    fn push_behind_a_settled_cursor_stays_ordered() {
        // Regression (PR-5 review): peeking settles the calendar cursor
        // on the earliest *pending* entry, which may sit later than the
        // last popped tick — and the ordering contract only floors pushes
        // at the last popped tick. A subsequent push behind the cursor
        // (legal, e.g. `Simulation::inject` after a bounded run) must
        // still pop first, exactly as the heap backend does.
        for backend in QueueBackend::ALL {
            let mut q = backend.build::<&'static str>();
            q.push(SimTime(100), 0, "late");
            assert_eq!(q.peek_key(), Some((SimTime(100), 0))); // settles cursor at 100
            q.push(SimTime(50), 1, "early");
            assert_eq!(q.peek_key(), Some((SimTime(50), 1)), "{backend}");
            let order: Vec<&str> = drain(|| q.pop()).into_iter().map(|(_, _, x)| x).collect();
            assert_eq!(order, vec!["early", "late"], "{backend}");
        }
        // Same shape with same-tick company behind the cursor and a
        // tighter ring (rewind + refill path).
        let mut q = CalendarQueue::with_buckets(4);
        q.push(SimTime(200), 0, 0u32);
        assert!(q.peek_key().is_some());
        q.push(SimTime(40), 1, 1);
        q.push(SimTime(40), 2, 2);
        q.push(SimTime(199), 3, 3);
        let order: Vec<u32> = drain(|| q.pop()).into_iter().map(|(_, _, x)| x).collect();
        assert_eq!(order, vec![1, 2, 3, 0]);
    }

    #[test]
    fn calendar_handles_far_future_via_overflow() {
        let mut q = CalendarQueue::with_buckets(4);
        q.push(SimTime(0), 0, "now");
        q.push(SimTime(1_000_000), 1, "far");
        q.push(SimTime(2), 2, "soon");
        assert_eq!(q.pop().unwrap().2, "now");
        assert_eq!(q.pop().unwrap().2, "soon");
        // The window jumps to the overflow entry instead of walking
        // a million empty ticks.
        assert_eq!(q.pop().unwrap().2, "far");
        assert!(q.pop().is_none());
    }

    #[test]
    fn calendar_keeps_tick_fifo_across_overflow_migration() {
        // Entries for one far tick arrive via overflow *and* (after the
        // window slides) via direct pushes; pop order must stay seq order.
        let mut q = CalendarQueue::with_buckets(4);
        q.push(SimTime(100), 0, 0u32); // overflow (window is [0, 4))
        q.push(SimTime(100), 1, 1); // overflow too
        q.push(SimTime(0), 2, 2);
        assert_eq!(q.pop().unwrap(), (SimTime(0), 2, 2));
        assert_eq!(q.peek_key(), Some((SimTime(100), 0)));
        // Window now covers tick 100: a direct push lands behind the
        // migrated entries.
        q.push(SimTime(100), 3, 3);
        let order: Vec<u32> = drain(|| q.pop()).into_iter().map(|(_, _, x)| x).collect();
        assert_eq!(order, vec![0, 1, 3]);
    }

    #[test]
    fn calendar_lazily_grows_its_ring() {
        let mut q = CalendarQueue::with_buckets(2);
        assert_eq!(q.buckets.len(), 2);
        // A burst spread over many ticks overflows the tiny ring and
        // forces growth; order is preserved through the rebuild.
        for i in 0..64u64 {
            q.push(SimTime(i * 3), i, i);
        }
        assert!(q.buckets.len() > 2, "ring should have grown");
        let order: Vec<u64> = drain(|| q.pop()).into_iter().map(|(_, _, x)| x).collect();
        assert_eq!(order, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn calendar_ring_is_capped() {
        let q: CalendarQueue<u8> = CalendarQueue::with_buckets(usize::MAX >> 8);
        assert_eq!(q.buckets.len(), MAX_BUCKETS);
    }

    #[test]
    fn empty_queue_behaviour() {
        for backend in QueueBackend::ALL {
            let mut q = backend.build::<u8>();
            assert_eq!(q.len(), 0);
            assert_eq!(q.peek_key(), None);
            assert_eq!(q.pop(), None);
        }
    }
}
