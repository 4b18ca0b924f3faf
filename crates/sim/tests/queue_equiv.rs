//! Differential property test: the calendar queue and the reference heap
//! queue pop **byte-identical** `(time, seq, payload)` sequences under
//! random event schedules — arbitrary tick gaps, same-tick bursts,
//! interleaved push/pop, and peeks that settle the calendar cursor ahead
//! of later pushes — including the tie order at equal ticks.
//!
//! This is the contract that lets every run drain the calendar queue
//! while the heap stays the reference: if pop order ever diverged, every
//! scenario replay would diverge with it, so the property is driven hard
//! here (devstubs-proptest samples deterministic pseudo-random schedules).

use prft_sim::{CalendarQueue, HeapQueue, SimTime};
use proptest::prelude::*;

/// The popped `(tick, seq, payload)` stream of one backend.
type Popped = Vec<(u64, u64, u32)>;

/// One generated operation over both queues.
enum Op {
    /// Push at `last_popped + gap` — the loosest tick the ordering
    /// contract allows, which can land *behind* the calendar cursor
    /// after a peek settled it on a later pending entry.
    Push(u64),
    /// Pop one entry from each backend and record it.
    Pop,
    /// Peek without popping: advances the calendar's internal cursor
    /// (the state the monotone-time contract does NOT advance).
    Peek,
}

/// Applies one generated schedule to both backends and returns their
/// popped streams (schedule pops first, then a full drain).
fn apply_schedule(ops: &[Op]) -> (Popped, Popped) {
    let mut heap = HeapQueue::new();
    let mut calendar = CalendarQueue::with_buckets(64); // small ring: exercise overflow + resize
    let mut heap_pops = Vec::new();
    let mut cal_pops = Vec::new();
    let mut seq = 0u64;
    let mut payload = 0u32;
    // The engine contract both backends may rely on: pushes are never
    // earlier than the last popped tick, and seq is monotone.
    let mut last_popped = 0u64;
    for op in ops {
        match op {
            Op::Push(gap) => {
                let at = SimTime(last_popped + gap);
                heap.push(at, seq, payload);
                calendar.push(at, seq, payload);
                seq += 1;
                payload = payload.wrapping_mul(31).wrapping_add(1);
            }
            Op::Pop => {
                let h = heap.pop();
                let c = calendar.pop();
                if let Some((at, _, _)) = h {
                    last_popped = at.0;
                }
                heap_pops.extend(h.map(|(at, s, p)| (at.0, s, p)));
                cal_pops.extend(c.map(|(at, s, p)| (at.0, s, p)));
            }
            Op::Peek => {
                assert_eq!(heap.peek_key(), calendar.peek_key(), "peek keys diverged");
            }
        }
        assert_eq!(heap.len(), calendar.len());
    }
    // Drain both to the end: whatever was left must agree too.
    while let Some((at, s, p)) = heap.pop() {
        heap_pops.push((at.0, s, p));
    }
    while let Some((at, s, p)) = calendar.pop() {
        cal_pops.push((at.0, s, p));
    }
    (heap_pops, cal_pops)
}

/// Decodes a sampled `(selector, gap)` pair: 0 pops, 1 peeks, the rest
/// push at `last_popped + gap`.
fn decode(ops: Vec<(u8, u64)>) -> Vec<Op> {
    ops.into_iter()
        .map(|(op, gap)| match op {
            0 => Op::Pop,
            1 => Op::Peek,
            _ => Op::Push(gap),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Mixed schedules: ~3/5 pushes with gaps up to 3000 ticks (far past
    /// the 64-slot test ring, so the overflow heap and lazy resize are
    /// always in play), pops and cursor-settling peeks interleaved.
    #[test]
    fn backends_pop_identically(ops in proptest::collection::vec((0u8..5, 0u64..3_000), 1..400)) {
        let (heap, calendar) = apply_schedule(&decode(ops));
        prop_assert_eq!(heap, calendar);
    }

    /// Same-tick bursts: gaps drawn from {0, 1} pile many events onto the
    /// same tick, so the tie order (insertion sequence) carries the whole
    /// comparison.
    #[test]
    fn same_tick_bursts_keep_tie_order(ops in proptest::collection::vec((0u8..6, 0u64..2), 1..400)) {
        let (heap, calendar) = apply_schedule(&decode(ops));
        // Within a tick, seqs must come out strictly increasing.
        for w in heap.windows(2) {
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "tie order broke: {:?}", w);
            }
        }
        prop_assert_eq!(heap, calendar);
    }

    /// Pop/peek-heavy schedules: the queues spend most of the run nearly
    /// empty, exercising the calendar's empty/jump/rewind cursor paths —
    /// wide gaps settle the cursor far ahead, then contract-legal pushes
    /// land behind it.
    #[test]
    fn pop_heavy_schedules_agree(ops in proptest::collection::vec((0u8..4, 0u64..50_000), 1..200)) {
        let (heap, calendar) = apply_schedule(&decode(ops));
        prop_assert_eq!(heap, calendar);
    }
}
