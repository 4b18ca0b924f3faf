//! Timing wrappers around the public [`Node`] and [`LinkModel`] traits.
//!
//! A traced run is the product's own population with every node wrapped
//! in a [`Timed`] and the link stack wrapped in a [`TimedLink`]: each
//! callback and each `deliver_at` is timed from outside and folded into a
//! thread-local `{count, total, max}` accumulator per (layer, kind). The
//! wrappers forward everything else untouched, so the wrapped run
//! dispatches exactly the events the bare run does (the traced-run
//! validity guard checks this on every traced repetition).

use crate::spans::Folded;
use prft_core::{AsReplica, Replica};
use prft_sim::{Context, LinkModel, Node, SimRng, SimTime, TimerId, WireMessage};
use prft_types::NodeId;
use std::cell::RefCell;
use std::time::Instant;

/// Handler kinds: the two non-message callbacks, then every
/// `PrftMsg::kind()`, then a catch-all so a new message kind is counted
/// rather than lost.
pub const KINDS: [&str; 15] = [
    "start",
    "timer",
    "Propose",
    "Vote",
    "Commit",
    "Reveal",
    "Expose",
    "Final",
    "ViewChange",
    "CommitView",
    "SyncRequest",
    "Submit",
    "TxCommitted",
    "TxRejected",
    "other",
];
const START: usize = 0;
const TIMER: usize = 1;

/// Layer of a committee replica's handlers.
pub const CORE: &str = "core";
/// Layer of a client actor's handlers.
pub const WORKLOAD: &str = "workload";
/// Layer of the link stack.
pub const NET: &str = "net";

const LINK_SLOT: usize = 2 * KINDS.len();

thread_local! {
    /// Replica kinds, then client kinds, then the link slot.
    static FOLDED: RefCell<[Folded; LINK_SLOT + 1]> =
        const { RefCell::new([Folded { count: 0, total_ns: 0, max_ns: 0 }; LINK_SLOT + 1]) };
}

fn kind_slot(kind: &str) -> usize {
    KINDS
        .iter()
        .position(|k| *k == kind)
        .unwrap_or(KINDS.len() - 1)
}

fn record(slot: usize, started: Instant) {
    let ns = started.elapsed().as_nanos() as u64;
    FOLDED.with(|f| f.borrow_mut()[slot].add(ns));
}

/// Takes (and zeroes) this thread's accumulators as
/// `(layer, kind, totals)` rows. Call once per traced run, right after
/// its last `run_until`.
pub fn drain() -> Vec<(&'static str, &'static str, Folded)> {
    FOLDED.with(|f| {
        let mut table = f.borrow_mut();
        let mut out = Vec::new();
        for (slot, totals) in table.iter_mut().enumerate() {
            let row = if slot == LINK_SLOT {
                (NET, "deliver", *totals)
            } else if slot < KINDS.len() {
                (CORE, KINDS[slot], *totals)
            } else {
                (WORKLOAD, KINDS[slot - KINDS.len()], *totals)
            };
            *totals = Folded::default();
            out.push(row);
        }
        out
    })
}

/// A node with every callback timed. `client` selects the layer the time
/// is charged to: `core` for committee seats, `workload` for client
/// actors (ids ≥ n).
#[derive(Clone)]
pub struct Timed<N> {
    inner: N,
    base: usize,
}

impl<N> Timed<N> {
    pub fn new(inner: N, client: bool) -> Timed<N> {
        Timed {
            inner,
            base: if client { KINDS.len() } else { 0 },
        }
    }

    pub fn inner(&self) -> &N {
        &self.inner
    }
}

impl<N: Node> Node for Timed<N> {
    type Msg = N::Msg;

    fn on_start(&mut self, ctx: &mut Context<N::Msg>) {
        let started = Instant::now();
        self.inner.on_start(ctx);
        record(self.base + START, started);
    }

    fn on_message(&mut self, ctx: &mut Context<N::Msg>, from: NodeId, msg: N::Msg) {
        let slot = self.base + kind_slot(msg.kind());
        let started = Instant::now();
        self.inner.on_message(ctx, from, msg);
        record(slot, started);
    }

    fn on_timer(&mut self, ctx: &mut Context<N::Msg>, timer: TimerId) {
        let started = Instant::now();
        self.inner.on_timer(ctx, timer);
        record(self.base + TIMER, started);
    }
}

impl<N: AsReplica> AsReplica for Timed<N> {
    fn as_replica(&self) -> Option<&Replica> {
        self.inner.as_replica()
    }
}

/// A link stack with every `deliver_at` timed.
pub struct TimedLink(pub Box<dyn LinkModel>);

impl LinkModel for TimedLink {
    fn deliver_at(&mut self, from: NodeId, to: NodeId, sent: SimTime, rng: &mut SimRng) -> SimTime {
        let started = Instant::now();
        let at = self.0.deliver_at(from, to, sent, rng);
        record(LINK_SLOT, started);
        at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prft_sim::{ConstantDelay, Simulation};

    #[derive(Clone)]
    struct Ping(u32);
    impl WireMessage for Ping {
        fn kind(&self) -> &'static str {
            "Vote"
        }
        fn wire_bytes(&self) -> usize {
            4
        }
    }

    #[derive(Clone)]
    struct Player(u32);
    impl Node for Player {
        type Msg = Ping;
        fn on_start(&mut self, ctx: &mut Context<Ping>) {
            if ctx.me() == NodeId(0) {
                ctx.send(NodeId(1), Ping(0));
            }
        }
        fn on_message(&mut self, ctx: &mut Context<Ping>, from: NodeId, msg: Ping) {
            self.0 += 1;
            if msg.0 < 3 {
                ctx.send(from, Ping(msg.0 + 1));
            }
        }
        fn on_timer(&mut self, _: &mut Context<Ping>, _: TimerId) {}
    }

    #[test]
    fn wrapped_run_dispatches_the_same_events_and_counts_every_call() {
        let bare = {
            let mut sim = Simulation::new(
                vec![Player(0), Player(0)],
                Box::new(ConstantDelay(SimTime(1))),
                7,
            );
            sim.run();
            sim.events_dispatched()
        };
        let _ = drain();
        let nodes = vec![Timed::new(Player(0), false), Timed::new(Player(0), true)];
        let link = Box::new(TimedLink(Box::new(ConstantDelay(SimTime(1)))));
        let mut sim = Simulation::new(nodes, link, 7);
        sim.run();
        assert_eq!(sim.events_dispatched(), bare);
        assert_eq!(
            sim.node(NodeId(0)).inner().0 + sim.node(NodeId(1)).inner().0,
            4
        );

        let rows = drain();
        let count = |layer: &str, kind: &str| {
            rows.iter()
                .find(|(l, k, _)| *l == layer && *k == kind)
                .map_or(0, |(_, _, f)| f.count)
        };
        assert_eq!(count(CORE, "start"), 1);
        assert_eq!(count(WORKLOAD, "start"), 1);
        assert_eq!(count(CORE, "Vote") + count(WORKLOAD, "Vote"), 4);
        assert_eq!(count(NET, "deliver"), 4);
        assert!(drain().iter().all(|(_, _, f)| f.count == 0), "drain zeroes");
    }

    #[test]
    fn unknown_kinds_land_in_the_catch_all() {
        assert_eq!(KINDS[kind_slot("Final")], "Final");
        assert_eq!(KINDS[kind_slot("NoSuchKind")], "other");
    }
}
