//! Property test pinning the checkpoint/fork contract at the engine
//! level: for a random committee size, seed, snapshot tick, and fault
//! schedule, `run_before(t); snapshot(); restore(); run to end` is
//! indistinguishable from an uninterrupted run — event traces, the
//! observability registry, the delivery ledger, node state, and every
//! engine counter agree exactly. Also pins that taking snapshots has no
//! side effect on the live run (a snapshot is a clone of the engine
//! state), snapshot idempotence (snapshotting twice at the same tick
//! yields equivalent snapshots) and backend portability (a snapshot taken
//! under one queue backend replays byte-identically restored onto the
//! other).

use prft_sim::{
    ConstantDelay, Context, KindStats, LinkModel, Node, ObsRegistry, QueueBackend, SimSnapshot,
    SimTime, Simulation, TimerId, TraceEntry, WireMessage,
};
use prft_types::NodeId;
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct Chat(u64);

impl WireMessage for Chat {
    fn kind(&self) -> &'static str {
        "Chat"
    }
    fn wire_bytes(&self) -> usize {
        8
    }
}

/// A chatty node: broadcasts on start, re-arms a timer a bounded number
/// of times (timer delays and payloads drawn from the node RNG, so RNG
/// stream state is load-bearing), and occasionally replies to traffic.
#[derive(Clone, Debug, PartialEq)]
struct Gossip {
    rounds_left: u32,
    received: Vec<(NodeId, u64)>,
}

impl Node for Gossip {
    type Msg = Chat;

    fn on_start(&mut self, ctx: &mut Context<Chat>) {
        let v = ctx.rng().next_u64();
        ctx.broadcast(Chat(v));
        let delay = ctx.rng().range(5, 40);
        ctx.set_timer(SimTime(delay));
        // Arm-and-cancel so the cancelled set is non-trivially exercised.
        let doomed = ctx.set_timer(SimTime(1_000_000));
        ctx.cancel_timer(doomed);
    }

    fn on_message(&mut self, ctx: &mut Context<Chat>, from: NodeId, msg: Chat) {
        self.received.push((from, msg.0));
        if msg.0.is_multiple_of(7) && from != ctx.me() {
            ctx.send(from, Chat(msg.0 / 7));
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<Chat>, _timer: TimerId) {
        if self.rounds_left > 0 {
            self.rounds_left -= 1;
            let v = ctx.rng().next_u64();
            ctx.broadcast_others(Chat(v));
            let delay = ctx.rng().range(5, 40);
            ctx.set_timer(SimTime(delay));
        }
    }
}

/// One external action of the fault schedule, applied at a tick boundary.
#[derive(Clone, Copy, Debug)]
enum Fault {
    Crash(usize),
    Recover(usize),
    Inject(usize),
}

/// Decodes sampled `(tick, selector, node)` triples into a tick-sorted
/// fault schedule over `n` nodes.
fn schedule(raw: &[(u64, u8, usize)], n: usize) -> Vec<(u64, Fault)> {
    let mut out: Vec<(u64, Fault)> = raw
        .iter()
        .map(|&(tick, sel, node)| {
            let node = node % n;
            let fault = match sel % 3 {
                0 => Fault::Crash(node),
                1 => Fault::Recover(node),
                _ => Fault::Inject(node),
            };
            (tick, fault)
        })
        .collect();
    out.sort_by_key(|&(tick, _)| tick);
    out
}

fn apply(sim: &mut Simulation<Gossip>, fault: Fault, tick: u64) {
    match fault {
        Fault::Crash(i) => sim.crash(NodeId(i)),
        Fault::Recover(i) => sim.recover(NodeId(i)),
        // Payload ≡ 1 (mod 7): the out-of-committee sender NodeId(99)
        // must never be sent a reply.
        Fault::Inject(i) => sim.inject(SimTime(tick), NodeId(99), NodeId(i), Chat(tick * 7 + 1)),
    }
}

fn link() -> Box<dyn LinkModel> {
    Box::new(ConstantDelay(SimTime(3)))
}

fn build(n: usize, seed: u64, backend: QueueBackend) -> Simulation<Gossip> {
    let nodes = (0..n)
        .map(|_| Gossip {
            rounds_left: 4,
            received: Vec::new(),
        })
        .collect();
    let mut sim = Simulation::with_backend(nodes, link(), seed, backend);
    sim.set_tracing(true);
    sim
}

/// Everything observable about a finished run.
#[derive(Debug, PartialEq)]
struct Artifacts {
    trace: Vec<TraceEntry>,
    /// The engine counters and the meter's send side.
    obs: ObsRegistry,
    /// The meter's delivery side, per node.
    received: Vec<Vec<(&'static str, KindStats)>>,
    nodes: Vec<Gossip>,
    now: SimTime,
    in_flight: usize,
}

fn finish(mut sim: Simulation<Gossip>, faults: &[(u64, Fault)], horizon: u64) -> Artifacts {
    for &(tick, fault) in faults {
        sim.run_before(SimTime(tick));
        apply(&mut sim, fault, tick);
    }
    sim.run_until(SimTime(horizon));
    Artifacts {
        trace: sim.trace().entries().to_vec(),
        obs: sim.observability(),
        received: (0..sim.n())
            .map(|i| sim.meter().received(NodeId(i)).to_vec())
            .collect(),
        nodes: sim.nodes().cloned().collect(),
        now: sim.now(),
        in_flight: sim.in_flight_messages(),
    }
}

/// Runs the schedule up to (exclusive) tick `t`, snapshots, and returns
/// (snapshot, remaining schedule).
fn snapshot_at(
    sim: &mut Simulation<Gossip>,
    faults: &[(u64, Fault)],
    t: u64,
) -> (SimSnapshot<Gossip>, Vec<(u64, Fault)>) {
    let (before, after): (Vec<_>, Vec<_>) = faults.iter().partition(|&&(tick, _)| tick < t);
    for &(tick, fault) in &before {
        sim.run_before(SimTime(tick));
        apply(sim, fault, tick);
    }
    sim.run_before(SimTime(t));
    (sim.snapshot(), after)
}

const HORIZON: u64 = 500;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline equivalence: snapshot + restore at a random tick under
    /// a random fault schedule reproduces the uninterrupted run exactly.
    #[test]
    fn restore_resumes_identically(
        n in 2usize..7,
        seed in 0u64..10_000,
        t in 1u64..400,
        raw in proptest::collection::vec((0u64..450, 0u8..3, 0usize..8), 0..6),
    ) {
        let faults = schedule(&raw, n);
        let reference = finish(build(n, seed, QueueBackend::Calendar), &faults, HORIZON);
        let mut live = build(n, seed, QueueBackend::Calendar);
        let (snap, rest) = snapshot_at(&mut live, &faults, t);
        let forked = finish(Simulation::restore(&snap, link()), &rest, HORIZON);
        prop_assert_eq!(&forked, &reference);
        // The live simulation the snapshot was taken from is unharmed.
        let resumed = finish(live, &rest, HORIZON);
        prop_assert_eq!(&resumed, &reference);
    }

    /// Snapshotting twice at the same tick is idempotent: both snapshots
    /// seed identical forks, and the live run is unperturbed.
    #[test]
    fn snapshot_is_idempotent(
        n in 2usize..6,
        seed in 0u64..10_000,
        t in 1u64..300,
        raw in proptest::collection::vec((0u64..450, 0u8..3, 0usize..8), 0..4),
    ) {
        let faults = schedule(&raw, n);
        let reference = finish(build(n, seed, QueueBackend::Calendar), &faults, HORIZON);
        let mut live = build(n, seed, QueueBackend::Calendar);
        let (first, rest) = snapshot_at(&mut live, &faults, t);
        let second = live.snapshot();
        prop_assert_eq!(first.now(), second.now());
        prop_assert_eq!(first.pending_events(), second.pending_events());
        let a = finish(Simulation::restore(&first, link()), &rest, HORIZON);
        let b = finish(Simulation::restore(&second, link()), &rest, HORIZON);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &reference);
        let resumed = finish(live, &rest, HORIZON);
        prop_assert_eq!(&resumed, &reference);
    }

    /// Snapshots taken at random ticks leave the run that takes them
    /// exactly as it would have been without them: trace, send and
    /// delivery ledgers, `queue_pushes` / `queue_pops`,
    /// `peak_queue_depth` and every other counter.
    #[test]
    fn snapshots_leave_the_live_run_untouched(
        n in 2usize..7,
        seed in 0u64..10_000,
        ticks in proptest::collection::vec(1u64..450, 1..6),
        raw in proptest::collection::vec((0u64..450, 0u8..3, 0usize..8), 0..6),
    ) {
        let faults = schedule(&raw, n);
        let reference = finish(build(n, seed, QueueBackend::Calendar), &faults, HORIZON);
        let mut live = build(n, seed, QueueBackend::Calendar);
        let mut rest = faults;
        let mut ticks = ticks;
        ticks.sort_unstable();
        for t in ticks {
            let (snap, after) = snapshot_at(&mut live, &rest, t);
            prop_assert_eq!(snap.now(), live.now());
            rest = after;
        }
        prop_assert_eq!(&finish(live, &rest, HORIZON), &reference);
    }

    /// A snapshot taken under either backend restores onto the other with
    /// byte-identical replay — pop order is pinned across backends, so
    /// checkpoints are backend-portable.
    #[test]
    fn restore_into_other_backend(
        n in 2usize..6,
        seed in 0u64..10_000,
        t in 1u64..300,
        capture_on_heap in any::<bool>(),
        raw in proptest::collection::vec((0u64..450, 0u8..3, 0usize..8), 0..4),
    ) {
        let (capture, other) = if capture_on_heap {
            (QueueBackend::Heap, QueueBackend::Calendar)
        } else {
            (QueueBackend::Calendar, QueueBackend::Heap)
        };
        let faults = schedule(&raw, n);
        let reference = finish(build(n, seed, capture), &faults, HORIZON);
        let mut live = build(n, seed, capture);
        let (snap, rest) = snapshot_at(&mut live, &faults, t);
        prop_assert_eq!(snap.backend(), capture);
        let same = finish(Simulation::restore(&snap, link()), &rest, HORIZON);
        let crossed = finish(
            Simulation::restore_with_backend(&snap, link(), other),
            &rest,
            HORIZON,
        );
        prop_assert_eq!(&same, &reference);
        prop_assert_eq!(&crossed, &reference);
    }
}
