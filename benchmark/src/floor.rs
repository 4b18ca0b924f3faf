//! The floor: the smallest kernel that can run the flood — one
//! `BTreeMap<(time, seq), event>` in the shape of neatworks' `Timeline`
//! (SNIPPETS.md), no arena, no queue backends, no meter, no snapshot
//! machinery. `sim.floor_ns_per_event` beside `sim.flood_ns_per_event`
//! states what the product kernel's calendar queue and slab arena buy
//! (or cost) on identical traffic.

use prft_sim::SimRng;
use std::collections::BTreeMap;

/// The flood's 64-byte inline payload (same size as the product flood's).
pub type Payload = [u64; 8];

struct Timeline {
    now: u64,
    seq: u64,
    events: BTreeMap<(u64, u64), (usize, Payload)>,
    peak: usize,
}

impl Timeline {
    fn add(&mut self, offset: u64, to: usize, msg: Payload) {
        self.seq += 1;
        self.events.insert((self.now + offset, self.seq), (to, msg));
        self.peak = self.peak.max(self.events.len());
    }

    /// One node's broadcast: immediate self-delivery, `base + U[0, spread)`
    /// ticks to everyone else — the product flood's `JitterLink`.
    fn broadcast(&mut self, rng: &mut SimRng, n: usize, from: usize, msg: Payload) {
        for to in 0..n {
            let offset = if to == from {
                0
            } else {
                crate::probes::FLOOD_BASE + rng.below(crate::probes::FLOOD_SPREAD)
            };
            self.add(offset, to, msg);
        }
    }
}

/// Runs the flood of [`crate::probes::flood_product`] on the floor kernel:
/// every node broadcasts at start and again each time it has heard `n`
/// messages, `rounds` times. Returns `(events dispatched, peak depth)`.
pub fn flood(n: usize, rounds: u64, seed: u64) -> (u64, usize) {
    let mut rng = SimRng::new(seed);
    let mut timeline = Timeline {
        now: 0,
        seq: 0,
        events: BTreeMap::new(),
        peak: 0,
    };
    let mut heard = vec![0usize; n];
    let mut rounds_left = vec![rounds; n];
    for from in 0..n {
        timeline.broadcast(&mut rng, n, from, [from as u64; 8]);
    }
    let mut dispatched = n as u64; // the n start callbacks
    while let Some(((at, _), (to, msg))) = timeline.events.pop_first() {
        timeline.now = at;
        dispatched += 1;
        heard[to] += 1;
        if heard[to] >= n && rounds_left[to] > 0 {
            heard[to] = 0;
            rounds_left[to] -= 1;
            timeline.broadcast(&mut rng, n, to, [msg[0].wrapping_add(1); 8]);
        }
    }
    (dispatched, timeline.peak)
}
