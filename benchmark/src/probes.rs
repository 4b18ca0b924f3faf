//! Micro-probes on public entry points of single layers.
//!
//! Each probe times one public call in a tight loop on a fixed input, so
//! a per-layer change shows here before (and independent of whether) it
//! moves an end-to-end number. Probes run only in a traced run, after the
//! traced repetition, and never feed an end-to-end metric.

use crate::stats::median;
use prft_crypto::{KeyRegistry, Sha256};
use prft_lab::json::Json;
use prft_lab::{prefix_fingerprint, ScenarioSpec};
use prft_net::{DelayRule, SynchronousNet, TargetedDelay};
use prft_sim::{Context, LinkModel, Node, SimRng, SimTime, Simulation, TimerId, WireMessage};
use prft_types::{Mempool, NodeId, Transaction, TxId};
use std::hint::black_box;
use std::time::Instant;

/// Flood link: `FLOOD_BASE + U[0, FLOOD_SPREAD)` ticks, as `prft-bench queue`.
pub const FLOOD_BASE: u64 = 8;
/// See [`FLOOD_BASE`].
pub const FLOOD_SPREAD: u64 = 48;
/// Flood population and round budget: `n + n²·(rounds + 1)` ≈ 1 M events.
pub const FLOOD_N: usize = 64;
/// See [`FLOOD_N`].
pub const FLOOD_ROUNDS: u64 = 243;

#[derive(Clone)]
struct FloodMsg(crate::floor::Payload);

impl WireMessage for FloodMsg {
    fn kind(&self) -> &'static str {
        "Flood"
    }
    fn wire_bytes(&self) -> usize {
        64
    }
}

struct JitterLink;

impl LinkModel for JitterLink {
    fn deliver_at(&mut self, _f: NodeId, _t: NodeId, sent: SimTime, rng: &mut SimRng) -> SimTime {
        SimTime(sent.0 + FLOOD_BASE + rng.below(FLOOD_SPREAD))
    }
}

#[derive(Clone)]
struct FloodNode {
    n: usize,
    rounds_left: u64,
    heard: usize,
}

impl Node for FloodNode {
    type Msg = FloodMsg;

    fn on_start(&mut self, ctx: &mut Context<FloodMsg>) {
        ctx.broadcast(FloodMsg([ctx.me().0 as u64; 8]));
    }

    fn on_message(&mut self, ctx: &mut Context<FloodMsg>, _from: NodeId, msg: FloodMsg) {
        self.heard += 1;
        if self.heard >= self.n && self.rounds_left > 0 {
            self.heard = 0;
            self.rounds_left -= 1;
            ctx.broadcast(FloodMsg([msg.0[0].wrapping_add(1); 8]));
        }
    }

    fn on_timer(&mut self, _: &mut Context<FloodMsg>, _: TimerId) {}
}

fn flood_sim(n: usize, rounds: u64, seed: u64) -> Simulation<FloodNode> {
    let nodes = (0..n)
        .map(|_| FloodNode {
            n,
            rounds_left: rounds,
            heard: 0,
        })
        .collect();
    Simulation::new(nodes, Box::new(JitterLink), seed)
}

/// The `prft-bench queue` flood on the product kernel (calendar queue +
/// arena): every node broadcasts at start and again each time it has
/// heard `n` messages. Returns `(events dispatched, peak depth)`.
pub fn flood_product(n: usize, rounds: u64, seed: u64) -> (u64, usize) {
    let mut sim = flood_sim(n, rounds, seed);
    sim.run();
    (sim.events_dispatched(), sim.peak_queue_depth())
}

/// Median over `reps` timings of `f`, in seconds.
fn timed_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Probe results, keyed by per-layer metric name.
pub type Probes = Vec<(&'static str, f64)>;

/// `sim.*` probes: the 1 M-event flood on the product kernel and on the
/// floor kernel (identical event counts, asserted), and snapshot/restore
/// of the flood mid-run (≈ 4 k pending events, 64 nodes).
pub fn sim_probes(seed: u64) -> Probes {
    let mut events = 0;
    let flood_s = timed_median(3, || events = flood_product(FLOOD_N, FLOOD_ROUNDS, seed).0);
    let mut floor_events = 0;
    let floor_s = timed_median(3, || {
        floor_events = crate::floor::flood(FLOOD_N, FLOOD_ROUNDS, seed).0;
    });
    assert_eq!(
        events, floor_events,
        "the floor kernel must run the same flood as the product kernel"
    );

    let mut sim = flood_sim(FLOOD_N, FLOOD_ROUNDS, seed);
    sim.run_until(SimTime(2_000));
    let mut snapshot = sim.snapshot();
    let snapshot_s = timed_median(9, || snapshot = sim.snapshot());
    let restore_s = timed_median(9, || {
        black_box(Simulation::restore(&snapshot, Box::new(JitterLink)));
    });
    vec![
        ("sim.flood_ns_per_event", flood_s * 1e9 / events as f64),
        ("sim.floor_ns_per_event", floor_s * 1e9 / events as f64),
        ("sim.snapshot_ms", snapshot_s * 1e3),
        ("sim.restore_ms", restore_s * 1e3),
    ]
}

/// `net.targeted_deliver_ns`: 1 M `deliver_at` calls on a
/// [`TargetedDelay`] holding one live rule (the per-message mutex path).
pub fn net_probes(seed: u64) -> Probes {
    const CALLS: u64 = 1_000_000;
    let mut link = TargetedDelay::new(Box::new(SynchronousNet::new(SimTime(10))));
    link.add_rule(DelayRule::slow_sender(
        NodeId(0),
        SimTime::ZERO,
        SimTime::MAX,
        SimTime(40),
    ));
    let mut rng = SimRng::new(seed);
    let s = timed_median(3, || {
        for i in 0..CALLS {
            let at = link.deliver_at(
                NodeId((i % 8) as usize),
                NodeId(((i + 1) % 8) as usize),
                SimTime(i),
                &mut rng,
            );
            black_box(at);
        }
    });
    vec![("net.targeted_deliver_ns", s * 1e9 / CALLS as f64)]
}

/// `crypto.verify_ns` (one `KeyRegistry::verify` on an n = 256 registry)
/// and `crypto.sha256_mb_s` (one-shot digests of a 1 MiB buffer).
pub fn crypto_probes(seed: u64) -> Probes {
    const VERIFIES: usize = 200_000;
    let (registry, keys) = KeyRegistry::trusted_setup(256, seed);
    let digest = Sha256::digest(b"probe");
    let sigs: Vec<_> = keys.iter().map(|k| k.sign(digest)).collect();
    let hooks = prft_sim::obs::hooks::snapshot();
    let verify_s = timed_median(3, || {
        for i in 0..VERIFIES {
            black_box(registry.verify(digest, &sigs[i % sigs.len()]));
        }
    });
    // The probe's verifies must not leak into the next run's counters.
    prft_sim::obs::hooks::restore(hooks);

    let buffer = vec![0xA5u8; 1 << 20];
    let sha_s = timed_median(5, || {
        black_box(Sha256::digest(black_box(&buffer)));
    });
    vec![
        ("crypto.verify_ns", verify_s * 1e9 / VERIFIES as f64),
        ("crypto.sha256_mb_s", 1.0 / sha_s),
    ]
}

/// `types.mempool_cycle_us`: one admit-and-drain cycle — push 512,
/// `take(512)`, `remove_included(512)` — on a pool holding 3 464 pending
/// transactions (the occupancy `client-steady` peaks at).
pub fn types_probes() -> Probes {
    const OCCUPANCY: u64 = 3_464;
    const BATCH: u64 = 512;
    const CYCLES: u64 = 200;
    let tx = |id: u64| Transaction::new(id, NodeId(0), vec![0xAB; 32]);
    let mut pool = Mempool::new();
    for id in 0..OCCUPANCY {
        pool.submit(tx(id));
    }
    let mut next = OCCUPANCY;
    let s = timed_median(3, || {
        for _ in 0..CYCLES {
            for id in next..next + BATCH {
                pool.submit(tx(id));
            }
            next += BATCH;
            let batch = pool.take(BATCH as usize);
            // The leader's own block finalizing: the ids are already taken,
            // so the call scans the pool without changing its occupancy.
            let ids: Vec<TxId> = batch.iter().map(|t| t.id).collect();
            pool.remove_included(ids.iter());
            black_box(&batch);
        }
    });
    assert_eq!(pool.len() as u64, OCCUPANCY, "the cycle holds occupancy");
    vec![("types.mempool_cycle_us", s * 1e6 / CYCLES as f64)]
}

/// `lab.json_parse_mb_s` on `document` (a rendered scenario report) and
/// `lab.fingerprint_us` (one `fingerprint` + one `prefix_fingerprint`)
/// over `specs`.
pub fn lab_probes(document: &str, specs: &[ScenarioSpec]) -> Probes {
    let parse_s = timed_median(3, || {
        black_box(Json::parse(black_box(document)).expect("reports parse back"));
    });
    let fingerprint_s = timed_median(3, || {
        for spec in specs {
            black_box(spec.fingerprint());
            black_box(prefix_fingerprint(spec, spec.horizon));
        }
    });
    vec![
        (
            "lab.json_parse_mb_s",
            document.len() as f64 / (1u64 << 20) as f64 / parse_s,
        ),
        (
            "lab.fingerprint_us",
            fingerprint_s * 1e6 / specs.len().max(1) as f64,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_and_product_floods_dispatch_the_same_events() {
        let (n, rounds) = (8, 5);
        let expected = n as u64 + (n * n) as u64 * (rounds + 1);
        assert_eq!(flood_product(n, rounds, 1).0, expected);
        assert_eq!(crate::floor::flood(n, rounds, 1).0, expected);
    }

    #[test]
    fn mempool_cycle_holds_its_occupancy() {
        let probes = types_probes();
        assert_eq!(probes[0].0, "types.mempool_cycle_us");
        assert!(probes[0].1 > 0.0);
    }
}
