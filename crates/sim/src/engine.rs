//! The discrete-event engine: event queue, node dispatch, timers, crashes.
//!
//! The engine keys every event by `(time, insertion sequence)` and drains
//! whichever queue backend (see [`crate::queue`]) the simulation was built
//! with. Message payloads are parked in an [`Arena`] while in flight, so
//! queued events are small PODs regardless of the protocol's message type.
//!
//! A broadcast is the unit of traffic (every phase of the paper's Figure 1
//! is all-to-all): the sender buffers one action, and the engine reads the
//! payload's kind and size, meters it and parks it **once**, in one arena
//! slot that the n delivery events share. The only per-recipient copy is
//! made at delivery, for all but the last recipient.
//!
//! The engine keeps the run's books, once per message and for every
//! protocol alike: the [`Meter`]'s send side at each send, its receive
//! side and the [`Trace`] at each dispatched delivery. All of it — queue
//! included — is one `EngineState` value, so a snapshot is one clone.

use crate::queue::{Queue, QueueBackend};
use crate::{Arena, Meter, MsgRef, SimRng, SimTime, Trace, TraceEntry, WireMessage};
use prft_types::{IdSet, NodeId};
use std::collections::BTreeSet;

/// Handle to a pending timer, returned by [`Context::set_timer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerId(u64);

/// Network delay policy: decides when a message sent at `sent` from `from`
/// arrives at `to`. Must return a time `>= sent` (reliable channels: the
/// delay may be large but delivery is guaranteed — the paper's Section 3.3).
///
/// `Send` is a supertrait so a boxed model (and with it a whole
/// [`Simulation`]) can be built on one thread and run on another — the
/// `prft-lab` batch runner fans seeded runs across worker threads.
pub trait LinkModel: Send {
    /// Absolute delivery time for one message.
    fn deliver_at(&mut self, from: NodeId, to: NodeId, sent: SimTime, rng: &mut SimRng) -> SimTime;
}

impl LinkModel for Box<dyn LinkModel> {
    fn deliver_at(&mut self, from: NodeId, to: NodeId, sent: SimTime, rng: &mut SimRng) -> SimTime {
        (**self).deliver_at(from, to, sent, rng)
    }
}

/// A protocol participant.
///
/// Implementations receive callbacks from the engine and act through the
/// [`Context`]. All state lives inside the node; the engine never inspects
/// it.
pub trait Node {
    /// The protocol's message type.
    type Msg: Clone + WireMessage;

    /// Called when the node (re)starts: at time zero, before any
    /// delivery, and again whenever [`Simulation::recover`] brings it back
    /// from a crash.
    fn on_start(&mut self, ctx: &mut Context<Self::Msg>) {
        let _ = ctx;
    }

    /// Called for each delivered message.
    fn on_message(&mut self, ctx: &mut Context<Self::Msg>, from: NodeId, msg: Self::Msg);

    /// Called when a timer set via [`Context::set_timer`] fires (unless
    /// cancelled).
    fn on_timer(&mut self, ctx: &mut Context<Self::Msg>, timer: TimerId);
}

/// What a node may do during a callback.
///
/// Actions are buffered and turned into events by the engine after the
/// callback returns, which keeps dispatch re-entrancy-free.
pub struct Context<'a, M> {
    me: NodeId,
    n: usize,
    domain: usize,
    now: SimTime,
    next_timer: &'a mut u64,
    actions: &'a mut Vec<Action<M>>,
    rng: &'a mut SimRng,
}

enum Action<M> {
    Send {
        to: NodeId,
        msg: M,
    },
    /// One payload for the whole broadcast domain (minus the sender if
    /// `skip_self`), expanded into deliveries by the engine.
    Broadcast {
        msg: M,
        skip_self: bool,
    },
    SetTimer {
        id: TimerId,
        fires: SimTime,
    },
    CancelTimer(TimerId),
}

impl<'a, M: Clone + WireMessage> Context<'a, M> {
    /// This node's identity.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Total node count (committee plus any client actors).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Broadcast-domain size: how many nodes a [`Context::broadcast`]
    /// reaches. Equals [`Context::n`] unless the simulation hosts
    /// out-of-committee actors (clients), which address peers explicitly
    /// via [`Context::send`] instead of being broadcast targets.
    pub fn domain(&self) -> usize {
        self.domain
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This node's private randomness stream.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Sends `msg` to `to` (including to self, which is delivered through
    /// the same network model).
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.actions.push(Action::Send { to, msg });
    }

    /// Broadcasts to every player **including self** (self-delivery has zero
    /// delay). Matching the paper, a player counts its own vote/commit like
    /// any other, so protocols need no self special-casing.
    pub fn broadcast(&mut self, msg: M) {
        let skip_self = false;
        self.actions.push(Action::Broadcast { msg, skip_self });
    }

    /// Broadcasts to every player except self.
    pub fn broadcast_others(&mut self, msg: M) {
        let skip_self = true;
        self.actions.push(Action::Broadcast { msg, skip_self });
    }

    /// Arms a timer that fires `delay` from now; returns its id.
    pub fn set_timer(&mut self, delay: SimTime) -> TimerId {
        let id = TimerId(*self.next_timer);
        *self.next_timer += 1;
        self.actions.push(Action::SetTimer {
            id,
            fires: self.now + delay,
        });
        id
    }

    /// Cancels a previously armed timer (no-op if already fired).
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.actions.push(Action::CancelTimer(id));
    }
}

/// Why [`Simulation::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained: the system is quiescent.
    Quiescent,
    /// The time horizon was reached with events still pending.
    HorizonReached,
    /// The event-count safety valve tripped (runaway protocol).
    EventLimit,
}

/// What a queued event does when dispatched. Delivery payloads live in
/// the simulation's [`Arena`]; the queue only carries the 4-byte handle,
/// which the deliveries of one broadcast share.
#[derive(Debug, Clone, Copy)]
enum EventKind {
    Deliver { from: NodeId, msg: MsgRef },
    Timer(TimerId),
    Start,
}

/// The queue item: destination plus action. The `(at, seq)` key lives in
/// the queue itself.
#[derive(Debug, Clone, Copy)]
struct EventBody {
    to: NodeId,
    kind: EventKind,
}

/// A payload in flight, beside the kind and wire size its send read, so
/// its deliveries are recorded without asking the message again.
#[derive(Clone)]
struct Parked<M> {
    msg: M,
    kind: &'static str,
    bytes: usize,
}

impl<M: WireMessage> Parked<M> {
    fn new(msg: M) -> Self {
        let (kind, bytes) = (msg.kind(), msg.wire_bytes());
        Parked { msg, kind, bytes }
    }
}

/// Everything the engine owns — all of a [`Simulation`] except the link
/// model (a boxed trait object the caller re-supplies).
/// [`Simulation::snapshot`] and [`Simulation::restore`] clone this struct
/// whole, so a field added here is captured by construction.
#[derive(Clone)]
struct EngineState<N: Node> {
    nodes: Vec<N>,
    /// Pending events; its variant is the backend the run drains.
    queue: Queue<EventBody>,
    arena: Arena<Parked<N::Msg>>,
    now: SimTime,
    seq: u64,
    next_timer: u64,
    // Determinism audit: `cancelled` is probed once per fired timer, so it
    // is an `IdSet` (one multiply per probe, where a `BTreeSet` walks a
    // tree). Its hasher has no random state, so two engines given the same
    // inserts and removals iterate it in the same order, in any process —
    // a future `for` loop over it cannot bring in per-instance hash order.
    // `crashed` is rarely touched and stays ordered.
    cancelled: IdSet<TimerId>,
    crashed: BTreeSet<NodeId>,
    broadcast_domain: usize,
    rng: SimRng,
    node_rngs: Vec<SimRng>,
    /// Sends at each send, deliveries at each dispatch.
    meter: Meter,
    /// Deliveries at each dispatch, when enabled.
    trace: Trace,
    events_dispatched: u64,
    peak_queue_depth: usize,
    queue_pushes: u64,
    queue_pops: u64,
    peak_arena_occupancy: usize,
    /// `engine.clone_bytes`: `clone_cost_bytes × recipients` per broadcast
    /// — the accountable path's dominant memory cost (`O(n³κ)` Reveal
    /// payloads × n recipients), charged whether or not a copy is taken.
    clone_bytes: u64,
    /// Safety valve: maximum number of dispatched events per `run` call.
    event_limit: u64,
}

/// A passive copy of a [`Simulation`]'s complete engine state at one
/// instant, taken with [`Simulation::snapshot`] and revived — any number
/// of times — with [`Simulation::restore`].
///
/// The snapshot is a clone of everything the engine owns: nodes, the
/// event queue (every pending event with its exact `(time, seq)` key),
/// the message arena (slot table *and* free-list, so outstanding
/// [`MsgRef`] handles and future slot assignments round-trip exactly),
/// the clock, sequence and timer counters, cancelled/crashed sets, the
/// broadcast domain, every RNG stream, the meter, the trace, and all
/// engine counters. It does **not** capture the link model (a boxed
/// trait object the caller re-supplies on restore) or the thread-local
/// crypto hooks (see `obs::hooks::snapshot`/`restore`).
#[derive(Clone)]
pub struct SimSnapshot<N: Node> {
    state: EngineState<N>,
}

impl<N: Node> SimSnapshot<N> {
    /// Virtual time at which the snapshot was taken.
    pub fn now(&self) -> SimTime {
        self.state.now
    }

    /// Number of pending events captured in the snapshot.
    pub fn pending_events(&self) -> usize {
        self.state.queue.len()
    }
}

/// The simulation: `n` nodes, a link model, an event queue, and meters.
pub struct Simulation<N: Node> {
    state: EngineState<N>,
    link: Box<dyn LinkModel>,
    /// The action buffer every callback's [`Context`] fills, reused so a
    /// dispatch allocates nothing. It is empty between dispatches, so it
    /// lives outside `EngineState` and no snapshot carries it.
    actions: Vec<Action<N::Msg>>,
}

impl<N: Node> Simulation<N> {
    /// Builds a simulation over `nodes` with the given link model and
    /// seed, draining the calendar queue.
    ///
    /// # Panics
    /// Panics if `nodes` is empty.
    pub fn new(nodes: Vec<N>, link: Box<dyn LinkModel>, seed: u64) -> Self {
        Simulation::with_backend(nodes, link, seed, QueueBackend::Calendar)
    }

    /// Builds a simulation draining the given queue `backend`. The backend
    /// never changes results — pop order is pinned identical across
    /// backends — only speed. Every run drains the calendar queue
    /// ([`Simulation::new`]); the heap is the reference that
    /// `queue_equiv.rs` and `prft-bench queue` hold the calendar to.
    ///
    /// # Panics
    /// Panics if `nodes` is empty.
    pub fn with_backend(
        nodes: Vec<N>,
        link: Box<dyn LinkModel>,
        seed: u64,
        backend: QueueBackend,
    ) -> Self {
        assert!(!nodes.is_empty(), "committee must be non-empty");
        let root = SimRng::new(seed);
        let node_rngs = (0..nodes.len()).map(|i| root.fork(1 + i as u64)).collect();
        let n = nodes.len();
        let state = EngineState {
            nodes,
            queue: backend.build(),
            arena: Arena::new(),
            now: SimTime::ZERO,
            seq: 0,
            next_timer: 0,
            cancelled: IdSet::default(),
            crashed: BTreeSet::new(),
            broadcast_domain: n,
            rng: root.fork(0),
            node_rngs,
            meter: Meter::new(),
            trace: Trace::new(),
            events_dispatched: 0,
            peak_queue_depth: 0,
            queue_pushes: 0,
            queue_pops: 0,
            peak_arena_occupancy: 0,
            clone_bytes: 0,
            event_limit: 50_000_000,
        };
        let mut sim = Simulation {
            state,
            link,
            actions: Vec::new(),
        };
        for i in 0..n {
            sim.push(SimTime::ZERO, NodeId(i), EventKind::Start);
        }
        sim
    }

    fn push(&mut self, at: SimTime, to: NodeId, kind: EventKind) {
        let seq = self.state.seq;
        self.state.seq += 1;
        self.state.queue_pushes += 1;
        self.state.queue.push(at, seq, EventBody { to, kind });
        let depth = self.state.queue.len();
        self.state.peak_queue_depth = self.state.peak_queue_depth.max(depth);
    }

    /// Parks a payload in the arena for `deliveries` receivers,
    /// maintaining the occupancy high-water mark (in deliveries).
    fn park(&mut self, msg: Parked<N::Msg>, deliveries: usize) -> MsgRef {
        let claims = u32::try_from(deliveries).expect("fan-out exceeded u32");
        let r = self.state.arena.insert(msg, claims);
        self.state.peak_arena_occupancy =
            self.state.peak_arena_occupancy.max(self.state.arena.len());
        r
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.state.nodes.len()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.state.now
    }

    /// Immutable access to a node.
    pub fn node(&self, id: NodeId) -> &N {
        &self.state.nodes[id.0]
    }

    /// Mutable access to a node (for harness-side injection between runs).
    pub fn node_mut(&mut self, id: NodeId) -> &mut N {
        &mut self.state.nodes[id.0]
    }

    /// Iterates all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = &N> {
        self.state.nodes.iter()
    }

    /// The message meter.
    pub fn meter(&self) -> &Meter {
        &self.state.meter
    }

    /// Number of events currently pending in the queue.
    pub fn queue_len(&self) -> usize {
        self.state.queue.len()
    }

    /// The deepest the event queue has ever been (bench observability).
    pub fn peak_queue_depth(&self) -> usize {
        self.state.peak_queue_depth
    }

    /// Total events dispatched across every `run*` call so far
    /// (discarded events — crashed receivers, cancelled timers — are not
    /// dispatched and do not count).
    pub fn events_dispatched(&self) -> u64 {
        self.state.events_dispatched
    }

    /// Number of message deliveries currently in flight (a parked
    /// broadcast counts once per receiver still to get it).
    pub fn in_flight_messages(&self) -> usize {
        self.state.arena.len()
    }

    /// Total events ever pushed onto the queue (deliveries, timers, starts).
    pub fn queue_pushes(&self) -> u64 {
        self.state.queue_pushes
    }

    /// Total events ever popped off the queue (dispatched *or* discarded).
    pub fn queue_pops(&self) -> u64 {
        self.state.queue_pops
    }

    /// The most message deliveries ever simultaneously in flight (arena
    /// high-water, counted per receiver, not per parked payload).
    pub fn peak_arena_occupancy(&self) -> usize {
        self.state.peak_arena_occupancy
    }

    /// The queue's books balance: every event ever pushed was popped or is
    /// still queued, and once the queue has drained no delivery is left
    /// parked in the arena.
    pub fn books_balance(&self) -> bool {
        let queued = self.state.queue.len() as u64;
        self.state.queue_pushes == self.state.queue_pops + queued
            && (queued > 0 || self.state.arena.is_empty())
    }

    /// The wire ledger balances: per message kind, no more deliveries than
    /// sends, in count and in bytes; and exactly as many when `lossless` —
    /// no receiver was ever crashed, so none discarded a delivery — and no
    /// delivery is still in flight. (An injected message is a delivery
    /// without a send, so it unbalances the ledger.)
    pub fn ledger_balances(&self, lossless: bool) -> bool {
        let meter = &self.state.meter;
        let delivered = meter.delivered();
        let within = delivered.iter().all(|(kind, got)| {
            let sent = meter.kind(kind);
            got.count <= sent.count && got.bytes <= sent.bytes
        });
        let settled = lossless && self.state.arena.is_empty();
        within && (!settled || meter.iter().all(|sent| delivered.contains(&sent)))
    }

    /// This simulation's engine-level observability registry: every
    /// protocol-independent counter and gauge the engine maintains, under
    /// `engine.*` keys, plus the per-kind send meter under `send.*`. (The
    /// meter's receive side is per node; the protocol layer names it.)
    ///
    /// All values derive from the pinned dispatch order, so the registry
    /// is identical across queue backends and worker thread counts.
    pub fn observability(&self) -> crate::obs::ObsRegistry {
        let mut reg = crate::obs::ObsRegistry::new();
        reg.add("engine.events_dispatched", self.state.events_dispatched);
        reg.add("engine.queue_pushes", self.state.queue_pushes);
        reg.add("engine.queue_pops", self.state.queue_pops);
        reg.add("engine.clone_bytes", self.state.clone_bytes);
        reg.gauge_max(
            "engine.peak_queue_depth",
            self.state.peak_queue_depth as u64,
        );
        reg.gauge_max(
            "engine.peak_arena_occupancy",
            self.state.peak_arena_occupancy as u64,
        );
        for (kind, stats) in self.state.meter.iter() {
            reg.add(&format!("send.{kind}.msgs"), stats.count);
            reg.add(&format!("send.{kind}.bytes"), stats.bytes);
        }
        reg
    }

    /// The message trace (enable with [`Simulation::set_tracing`]).
    pub fn trace(&self) -> &Trace {
        &self.state.trace
    }

    /// Enables or disables delivery tracing.
    pub fn set_tracing(&mut self, on: bool) {
        self.state.trace.set_enabled(on);
    }

    /// Restricts [`Context::broadcast`] / [`Context::broadcast_others`] to
    /// the first `domain` nodes. Out-of-domain actors (e.g. a client
    /// population appended after the committee) still send and receive
    /// point-to-point via [`Context::send`]; they are simply not broadcast
    /// targets, so protocol fan-out stays O(committee), not O(nodes).
    ///
    /// # Panics
    /// Panics unless `1 <= domain <= n`.
    pub fn set_broadcast_domain(&mut self, domain: usize) {
        assert!(
            (1..=self.state.nodes.len()).contains(&domain),
            "broadcast domain must be within the node population"
        );
        self.state.broadcast_domain = domain;
    }

    /// The current broadcast-domain size (see
    /// [`Simulation::set_broadcast_domain`]).
    pub fn broadcast_domain(&self) -> usize {
        self.state.broadcast_domain
    }

    /// Marks a node crashed: it receives no further deliveries or timers and
    /// its pending events are discarded on dispatch. Models the CFT column.
    pub fn crash(&mut self, node: NodeId) {
        self.state.crashed.insert(node);
    }

    /// Un-crashes a node (recovery): it resumes receiving *new* messages,
    /// and its [`Node::on_start`] runs again, now. A node that is not
    /// crashed is left as it is.
    pub fn recover(&mut self, node: NodeId) {
        if self.state.crashed.remove(&node) {
            self.push(self.state.now, node, EventKind::Start);
        }
    }

    /// Whether a node is currently crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.state.crashed.contains(&node)
    }

    /// Injects a message from outside the system (e.g. a client submitting a
    /// transaction), delivered to `to` at absolute time `at` claiming sender
    /// `from`. It is not metered as a send, but recorded as a delivery
    /// like any other.
    pub fn inject(&mut self, at: SimTime, from: NodeId, to: NodeId, msg: N::Msg) {
        let msg = self.park(Parked::new(msg), 1);
        self.push(at.max(self.state.now), to, EventKind::Deliver { from, msg });
    }

    /// Schedules one delivery of the parked payload `msg` from `from` to
    /// `dest`: draws the link delay, queues the event.
    fn deliver(&mut self, from: NodeId, dest: NodeId, msg: MsgRef) {
        let at = if dest == from {
            self.state.now // self-delivery is immediate
        } else {
            let t = self
                .link
                .deliver_at(from, dest, self.state.now, &mut self.state.rng);
            debug_assert!(
                t >= self.state.now,
                "link model may not travel back in time"
            );
            t.max(self.state.now)
        };
        self.push(at, dest, EventKind::Deliver { from, msg });
    }

    /// Runs a node callback and converts its buffered actions into events.
    /// A delivery is recorded here, once: on the meter's receive side and
    /// in the trace.
    fn dispatch(&mut self, to: NodeId, kind: EventKind) {
        let mut actions = std::mem::take(&mut self.actions);
        let mut ctx = Context {
            me: to,
            n: self.state.nodes.len(),
            domain: self.state.broadcast_domain,
            now: self.state.now,
            next_timer: &mut self.state.next_timer,
            actions: &mut actions,
            rng: &mut self.state.node_rngs[to.0],
        };
        match kind {
            EventKind::Start => self.state.nodes[to.0].on_start(&mut ctx),
            EventKind::Deliver { from, msg } => {
                let Parked { msg, kind, bytes } = self.state.arena.take(msg);
                self.state.meter.record_delivery(to, kind, bytes);
                let at = self.state.now;
                self.state.trace.record(TraceEntry { at, from, to, kind });
                self.state.nodes[to.0].on_message(&mut ctx, from, msg)
            }
            EventKind::Timer(id) => self.state.nodes[to.0].on_timer(&mut ctx, id),
        }
        for action in actions.drain(..) {
            match action {
                Action::Send { to: dest, msg } => {
                    let msg = Parked::new(msg);
                    self.state.meter.record(msg.kind, msg.bytes, 1);
                    let msg = self.park(msg, 1);
                    self.deliver(to, dest, msg);
                }
                Action::Broadcast { msg, skip_self } => {
                    // The whole domain, less the sender when it asks to
                    // be skipped and is in the domain at all.
                    let domain = self.state.broadcast_domain;
                    let recipients = domain - usize::from(skip_self && to.0 < domain);
                    if recipients == 0 {
                        continue; // a one-node domain skipping itself
                    }
                    let copies = recipients as u64;
                    self.state.clone_bytes += msg.clone_cost_bytes() as u64 * copies;
                    let msg = Parked::new(msg);
                    self.state.meter.record(msg.kind, msg.bytes, copies);
                    let msg = self.park(msg, recipients);
                    for dest in (0..domain).map(NodeId) {
                        if !(skip_self && dest == to) {
                            self.deliver(to, dest, msg);
                        }
                    }
                }
                Action::SetTimer { id, fires } => {
                    self.push(fires, to, EventKind::Timer(id));
                }
                Action::CancelTimer(id) => {
                    self.state.cancelled.insert(id);
                }
            }
        }
        self.actions = actions;
    }

    /// Runs until the queue drains (or the safety valve trips).
    pub fn run(&mut self) -> RunOutcome {
        self.run_until(SimTime::MAX)
    }

    /// Runs until the queue drains or virtual time would pass `horizon`.
    /// Events at exactly `horizon` are processed.
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        self.run_bounded(horizon, true)
    }

    /// Runs until the queue drains or the next event would occur at or
    /// after `t`: every event strictly before `t` is processed, events at
    /// `t` stay pending. This is the segment primitive a scheduled-fault
    /// driver needs — run up to a boundary, apply external changes
    /// (crash/recover/inject/swap) "at the start of tick `t`", resume —
    /// without any off-by-one at `t = 0` and without touching the queue
    /// order, so determinism is preserved exactly.
    pub fn run_before(&mut self, t: SimTime) -> RunOutcome {
        self.run_bounded(t, false)
    }

    fn run_bounded(&mut self, bound: SimTime, inclusive: bool) -> RunOutcome {
        let mut dispatched = 0u64;
        while let Some((at, _seq)) = self.state.queue.peek_key() {
            let past_bound = if inclusive { at > bound } else { at >= bound };
            if past_bound {
                return RunOutcome::HorizonReached;
            }
            if dispatched >= self.state.event_limit {
                return RunOutcome::EventLimit;
            }
            let (at, _, body) = self.state.queue.pop().expect("peeked");
            self.state.queue_pops += 1;
            debug_assert!(at >= self.state.now, "time must be monotone");
            self.state.now = at;
            if self.state.crashed.contains(&body.to) {
                // Crashed nodes see nothing: a delivery releases its claim
                // on the parked payload, a timer its cancelled-set entry.
                match body.kind {
                    EventKind::Deliver { msg, .. } => self.state.arena.release(msg),
                    EventKind::Timer(id) => {
                        self.state.cancelled.remove(&id);
                    }
                    EventKind::Start => {}
                }
                continue;
            }
            if let EventKind::Timer(id) = &body.kind {
                if self.state.cancelled.remove(id) {
                    continue;
                }
            }
            dispatched += 1;
            self.state.events_dispatched += 1;
            self.dispatch(body.to, body.kind);
        }
        RunOutcome::Quiescent
    }

    /// Captures the complete engine state as a [`SimSnapshot`]: one
    /// clone, which leaves the live simulation untouched. Both can keep
    /// running, and one snapshot can seed many forks.
    pub fn snapshot(&self) -> SimSnapshot<N>
    where
        N: Clone,
    {
        SimSnapshot {
            state: self.state.clone(),
        }
    }

    /// Revives a simulation from `snapshot`, draining the backend the
    /// snapshot was taken under (the queue is part of the state).
    ///
    /// The link model is not part of the snapshot (it is a boxed trait
    /// object the engine cannot clone); the caller re-supplies it. Every
    /// model in this workspace is a pure function of its configuration
    /// (all randomness comes from the engine's RNG, which *is* captured),
    /// so a faithful fork just builds the same stack again.
    pub fn restore(snapshot: &SimSnapshot<N>, link: Box<dyn LinkModel>) -> Simulation<N>
    where
        N: Clone,
    {
        Simulation {
            state: snapshot.state.clone(),
            link,
            actions: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConstantDelay, KindStats};

    #[derive(Clone, Debug)]
    enum TestMsg {
        Hello(u32),
    }

    impl WireMessage for TestMsg {
        fn kind(&self) -> &'static str {
            "Hello"
        }
        fn wire_bytes(&self) -> usize {
            4
        }
    }

    #[derive(Clone)]
    struct Echo {
        received: Vec<(NodeId, u32)>,
        fired: Vec<TimerId>,
        starts: u32,
    }

    impl Echo {
        fn new() -> Self {
            Echo {
                received: Vec::new(),
                fired: Vec::new(),
                starts: 0,
            }
        }
    }

    impl Node for Echo {
        type Msg = TestMsg;
        fn on_start(&mut self, ctx: &mut Context<TestMsg>) {
            self.starts += 1;
            if ctx.me() == NodeId(0) {
                ctx.broadcast(TestMsg::Hello(1));
            }
        }
        fn on_message(&mut self, _ctx: &mut Context<TestMsg>, from: NodeId, msg: TestMsg) {
            let TestMsg::Hello(v) = msg;
            self.received.push((from, v));
        }
        fn on_timer(&mut self, _ctx: &mut Context<TestMsg>, timer: TimerId) {
            self.fired.push(timer);
        }
    }

    fn sim(n: usize) -> Simulation<Echo> {
        Simulation::new(
            (0..n).map(|_| Echo::new()).collect(),
            Box::new(ConstantDelay(SimTime(5))),
            1,
        )
    }

    #[test]
    fn broadcast_reaches_everyone_including_self() {
        let mut s = sim(3);
        assert_eq!(s.run(), RunOutcome::Quiescent);
        for i in 0..3 {
            assert_eq!(s.node(NodeId(i)).received, vec![(NodeId(0), 1)]);
        }
    }

    #[test]
    fn self_delivery_is_immediate_and_others_are_delayed() {
        let mut s = sim(2);
        s.set_tracing(true);
        s.run();
        let trace = s.trace().entries();
        let self_d = trace.iter().find(|e| e.to == NodeId(0)).unwrap();
        let other_d = trace.iter().find(|e| e.to == NodeId(1)).unwrap();
        assert_eq!(self_d.at, SimTime(0));
        assert_eq!(other_d.at, SimTime(5));
    }

    #[test]
    fn meter_counts_broadcast_fanout() {
        let mut s = sim(4);
        s.run();
        assert_eq!(s.meter().kind("Hello").count, 4);
        assert_eq!(s.meter().kind("Hello").bytes, 16);
    }

    #[test]
    fn crashed_node_receives_nothing() {
        let mut s = sim(3);
        s.crash(NodeId(2));
        s.run();
        assert!(s.node(NodeId(2)).received.is_empty());
        assert_eq!(s.node(NodeId(1)).received.len(), 1);
    }

    #[test]
    fn injection_delivers_at_requested_time() {
        let mut s = sim(2);
        s.inject(SimTime(100), NodeId(9), NodeId(1), TestMsg::Hello(42));
        s.run();
        assert!(s.node(NodeId(1)).received.contains(&(NodeId(9), 42)));
        assert_eq!(s.now(), SimTime(100));
    }

    #[test]
    fn run_before_excludes_the_boundary() {
        let mut s = sim(2);
        s.inject(SimTime(100), NodeId(9), NodeId(1), TestMsg::Hello(42));
        // run_before(100) processes the t=0/t=5 start traffic but leaves
        // the event at exactly 100 pending …
        assert_eq!(s.run_before(SimTime(100)), RunOutcome::HorizonReached);
        assert!(!s.node(NodeId(1)).received.contains(&(NodeId(9), 42)));
        // … and run_before(0) processes nothing at all.
        let mut fresh = sim(2);
        assert_eq!(fresh.run_before(SimTime(0)), RunOutcome::HorizonReached);
        assert_eq!(fresh.now(), SimTime(0));
        // Crashing between the segments drops the pending boundary event.
        s.crash(NodeId(1));
        assert_eq!(s.run_until(SimTime(200)), RunOutcome::Quiescent);
        assert!(!s.node(NodeId(1)).received.contains(&(NodeId(9), 42)));
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut s = sim(2);
        s.inject(SimTime(100), NodeId(9), NodeId(1), TestMsg::Hello(42));
        assert_eq!(s.run_until(SimTime(50)), RunOutcome::HorizonReached);
        assert!(!s.node(NodeId(1)).received.contains(&(NodeId(9), 42)));
        assert_eq!(s.run_until(SimTime(100)), RunOutcome::Quiescent);
        assert!(s.node(NodeId(1)).received.contains(&(NodeId(9), 42)));
    }

    struct TimerNode {
        fired_at: Vec<SimTime>,
    }
    impl Node for TimerNode {
        type Msg = TestMsg;
        fn on_start(&mut self, ctx: &mut Context<TestMsg>) {
            let keep = ctx.set_timer(SimTime(10));
            let drop_ = ctx.set_timer(SimTime(20));
            ctx.cancel_timer(drop_);
            let _ = keep;
        }
        fn on_message(&mut self, _: &mut Context<TestMsg>, _: NodeId, _: TestMsg) {}
        fn on_timer(&mut self, ctx: &mut Context<TestMsg>, _: TimerId) {
            self.fired_at.push(ctx.now());
            // Re-arm once at t=10, then stay quiet.
            if ctx.now() == SimTime(10) {
                ctx.set_timer(SimTime(7));
            }
        }
    }

    #[test]
    fn timers_fire_and_cancel() {
        let mut s: Simulation<TimerNode> = Simulation::new(
            vec![TimerNode { fired_at: vec![] }],
            Box::new(ConstantDelay(SimTime(1))),
            1,
        );
        assert_eq!(s.run(), RunOutcome::Quiescent);
        // Fires at 10 and at the re-armed 17; the cancelled t=20 timer never
        // fires (though draining its dead event does advance the clock).
        assert_eq!(s.node(NodeId(0)).fired_at, vec![SimTime(10), SimTime(17)]);
    }

    #[test]
    fn a_crashed_nodes_cancelled_timer_leaves_the_cancelled_set() {
        struct ArmAndCancel;
        impl Node for ArmAndCancel {
            type Msg = TestMsg;
            fn on_start(&mut self, ctx: &mut Context<TestMsg>) {
                let t = ctx.set_timer(SimTime(10));
                ctx.cancel_timer(t);
            }
            fn on_message(&mut self, _: &mut Context<TestMsg>, _: NodeId, _: TestMsg) {}
            fn on_timer(&mut self, _: &mut Context<TestMsg>, _: TimerId) {
                panic!("cancelled, and its node is crashed");
            }
        }
        let mut s: Simulation<ArmAndCancel> =
            Simulation::new(vec![ArmAndCancel], Box::new(ConstantDelay(SimTime(1))), 1);
        s.run_before(SimTime(10));
        assert_eq!(s.state.cancelled.len(), 1, "armed and cancelled at start");
        // The node is down when its dead timer pops: the event is
        // discarded, and the id must not stay behind in every snapshot.
        s.crash(NodeId(0));
        assert_eq!(s.run(), RunOutcome::Quiescent);
        assert!(s.state.cancelled.is_empty());
    }

    #[test]
    fn broadcast_others_skips_self() {
        struct OthersOnly {
            received: u32,
        }
        impl Node for OthersOnly {
            type Msg = TestMsg;
            fn on_start(&mut self, ctx: &mut Context<TestMsg>) {
                if ctx.me() == NodeId(0) {
                    ctx.broadcast_others(TestMsg::Hello(1));
                }
            }
            fn on_message(&mut self, _: &mut Context<TestMsg>, _: NodeId, _: TestMsg) {
                self.received += 1;
            }
            fn on_timer(&mut self, _: &mut Context<TestMsg>, _: TimerId) {}
        }
        let mut s: Simulation<OthersOnly> = Simulation::new(
            (0..3).map(|_| OthersOnly { received: 0 }).collect(),
            Box::new(ConstantDelay(SimTime(1))),
            2,
        );
        s.run();
        assert_eq!(s.node(NodeId(0)).received, 0, "sender excluded");
        assert_eq!(s.node(NodeId(1)).received, 1);
        assert_eq!(s.node(NodeId(2)).received, 1);
        assert_eq!(s.meter().kind("Hello").count, 2);
    }

    #[test]
    fn broadcast_domain_excludes_appended_actors() {
        let mut s = sim(5);
        s.set_broadcast_domain(3);
        assert_eq!(s.broadcast_domain(), 3);
        s.run();
        // Node 0's broadcast reached only the domain …
        for i in 0..3 {
            assert_eq!(s.node(NodeId(i)).received.len(), 1);
        }
        // … while the out-of-domain actors heard nothing.
        assert!(s.node(NodeId(3)).received.is_empty());
        assert!(s.node(NodeId(4)).received.is_empty());
        assert_eq!(s.meter().kind("Hello").count, 3);
    }

    #[test]
    fn an_out_of_domain_actor_broadcasts_to_the_whole_domain() {
        struct Client {
            received: u32,
        }
        impl Node for Client {
            type Msg = TestMsg;
            fn on_start(&mut self, ctx: &mut Context<TestMsg>) {
                if ctx.me() == NodeId(4) {
                    // Not a broadcast target itself, so there is no self
                    // to skip: all three domain seats are reached.
                    ctx.broadcast_others(TestMsg::Hello(1));
                }
            }
            fn on_message(&mut self, _: &mut Context<TestMsg>, _: NodeId, _: TestMsg) {
                self.received += 1;
            }
            fn on_timer(&mut self, _: &mut Context<TestMsg>, _: TimerId) {}
        }
        let mut s: Simulation<Client> = Simulation::new(
            (0..5).map(|_| Client { received: 0 }).collect(),
            Box::new(ConstantDelay(SimTime(1))),
            2,
        );
        s.set_broadcast_domain(3);
        s.run();
        let received: Vec<u32> = s.nodes().map(|c| c.received).collect();
        assert_eq!(received, vec![1, 1, 1, 0, 0]);
        assert_eq!(s.meter().kind("Hello").count, 3);
        assert_eq!(s.peak_arena_occupancy(), 3);
        assert_eq!(s.observability().counter("engine.clone_bytes"), 12);
    }

    #[test]
    fn a_lone_node_skipping_itself_sends_nothing() {
        struct Lonely;
        impl Node for Lonely {
            type Msg = TestMsg;
            fn on_start(&mut self, ctx: &mut Context<TestMsg>) {
                ctx.broadcast_others(TestMsg::Hello(1));
            }
            fn on_message(&mut self, _: &mut Context<TestMsg>, _: NodeId, _: TestMsg) {}
            fn on_timer(&mut self, _: &mut Context<TestMsg>, _: TimerId) {}
        }
        let mut s: Simulation<Lonely> =
            Simulation::new(vec![Lonely], Box::new(ConstantDelay(SimTime(1))), 2);
        assert_eq!(s.run(), RunOutcome::Quiescent);
        assert_eq!(s.events_dispatched(), 1);
        // No recipient, so no meter entry for a report to print as zero.
        assert_eq!(s.meter().iter().count(), 0);
        assert_eq!(s.peak_arena_occupancy(), 0);
    }

    #[test]
    #[should_panic(expected = "broadcast domain")]
    fn broadcast_domain_must_fit_population() {
        let mut s = sim(3);
        s.set_broadcast_domain(4);
    }

    #[test]
    fn recover_resumes_delivery() {
        let mut s = sim(3);
        s.crash(NodeId(1));
        s.recover(NodeId(1));
        assert!(!s.is_crashed(NodeId(1)));
        s.run();
        assert_eq!(
            s.node(NodeId(1)).received.len(),
            1,
            "recovered before start"
        );
    }

    #[test]
    fn a_recovered_node_starts_again_and_a_live_one_does_not() {
        let mut s = sim(3);
        s.run();
        let pending = s.queue_len();
        s.recover(NodeId(1));
        assert_eq!(s.queue_len(), pending, "a live node has nothing to replay");
        s.crash(NodeId(1));
        s.recover(NodeId(1));
        assert_eq!(s.queue_len(), pending + 1);
        s.run();
        let starts: Vec<u32> = s.nodes().map(|e| e.starts).collect();
        assert_eq!(starts, vec![1, 2, 1]);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed: u64| {
            let mut s = Simulation::new(
                (0..5).map(|_| Echo::new()).collect::<Vec<_>>(),
                Box::new(ConstantDelay(SimTime(3))),
                seed,
            );
            s.set_tracing(true);
            s.run();
            s.trace().entries().to_vec()
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn backends_produce_identical_traces() {
        let run = |backend: QueueBackend| {
            let mut s: Simulation<Echo> = Simulation::with_backend(
                (0..6).map(|_| Echo::new()).collect(),
                Box::new(ConstantDelay(SimTime(3))),
                11,
                backend,
            );
            s.set_tracing(true);
            s.inject(SimTime(40), NodeId(9), NodeId(2), TestMsg::Hello(7));
            s.run();
            (s.trace().entries().to_vec(), s.events_dispatched())
        };
        let heap = run(QueueBackend::Heap);
        let calendar = run(QueueBackend::Calendar);
        assert_eq!(heap, calendar);
        assert!(heap.1 > 0);
    }

    #[test]
    fn engine_counters_track_queue_pressure() {
        let mut s = sim(4);
        // Four Start events are pending before the run.
        assert_eq!(s.queue_len(), 4);
        s.run();
        assert_eq!(s.queue_len(), 0);
        // 4 starts + 4 deliveries dispatched; the broadcast put 4
        // deliveries on top of 3 remaining starts.
        assert_eq!(s.events_dispatched(), 8);
        assert_eq!(s.peak_queue_depth(), 7);
        assert_eq!(s.in_flight_messages(), 0, "arena drained with the queue");
    }

    #[test]
    fn observability_registry_tracks_engine_counters() {
        let mut s = sim(4);
        assert_eq!(s.run(), RunOutcome::Quiescent);
        let reg = s.observability();
        assert_eq!(reg.counter("engine.events_dispatched"), 8);
        assert_eq!(
            reg.counter("engine.queue_pushes"),
            s.queue_pushes(),
            "registry mirrors the accessor"
        );
        // The queue drained, and every push was popped.
        assert_eq!(s.queue_len(), 0);
        assert!(s.books_balance());
        assert_eq!(reg.gauge("engine.peak_queue_depth"), 7);
        // The broadcast parked one payload for 4 deliveries; the gauge
        // counts deliveries, and the self-delivery is taken before the
        // other three, so the high-water mark is 4.
        assert_eq!(reg.gauge("engine.peak_arena_occupancy"), 4);
        // The send meter is mirrored per kind.
        assert_eq!(reg.counter("send.Hello.msgs"), 4);
        assert_eq!(reg.counter("send.Hello.bytes"), 16);
        // The broadcast is charged 4 copies of a 4-byte payload.
        assert_eq!(reg.counter("engine.clone_bytes"), 16);
    }

    #[test]
    fn the_trace_and_the_receive_ledger_record_dispatched_deliveries() {
        let mut s = sim(3);
        s.set_tracing(true);
        s.inject(SimTime(3), NodeId(9), NodeId(1), TestMsg::Hello(2));
        // Node 0's broadcast reaches itself at 0 and the others at 5.
        s.run_before(SimTime(1));
        s.crash(NodeId(2));
        s.run();
        let entry = |at, from, to| TraceEntry {
            at: SimTime(at),
            from: NodeId(from),
            to: NodeId(to),
            kind: "Hello",
        };
        // In delivery order, the injection included, and nothing for the
        // copy node 2 discarded — though it was sent.
        let delivered = [entry(0, 0, 0), entry(3, 9, 1), entry(5, 0, 1)];
        assert_eq!(s.trace().entries(), delivered);
        assert_eq!(s.meter().kind("Hello").count, 3);
        let hello = |count| {
            [(
                "Hello",
                KindStats {
                    count,
                    bytes: 4 * count,
                },
            )]
        };
        assert_eq!(s.meter().received(NodeId(0)), hello(1));
        assert_eq!(s.meter().received(NodeId(1)), hello(2));
        assert!(s.meter().received(NodeId(2)).is_empty());
    }

    #[test]
    fn crashed_receiver_frees_parked_messages() {
        let mut s = sim(3);
        s.crash(NodeId(2));
        s.run();
        // The broadcast to the crashed node was discarded, not leaked.
        assert_eq!(s.in_flight_messages(), 0);
    }

    /// Runs `s` to completion and returns the observable artifacts a fork
    /// must reproduce byte-for-byte.
    fn finish(mut s: Simulation<Echo>) -> (Vec<TraceEntry>, crate::obs::ObsRegistry, SimTime) {
        s.run();
        (s.trace().entries().to_vec(), s.observability(), s.now())
    }

    #[test]
    fn snapshot_restore_resumes_identically() {
        let build = || {
            let mut s = sim(4);
            s.set_tracing(true);
            s.inject(SimTime(40), NodeId(9), NodeId(2), TestMsg::Hello(7));
            s.inject(SimTime(80), NodeId(9), NodeId(3), TestMsg::Hello(8));
            s
        };
        // Reference: run uninterrupted.
        let reference = finish(build());
        // Fork: run to just before t=40, snapshot, restore, run to end.
        let mut s = build();
        s.run_before(SimTime(40));
        let snap = s.snapshot();
        let forked = finish(Simulation::restore(
            &snap,
            Box::new(ConstantDelay(SimTime(5))),
        ));
        assert_eq!(forked, reference);
        // The original keeps running correctly after being snapshotted.
        assert_eq!(finish(s), reference);
    }

    #[test]
    fn snapshot_is_idempotent_and_forks_are_independent() {
        let mut s = sim(3);
        s.set_tracing(true);
        s.inject(SimTime(30), NodeId(9), NodeId(1), TestMsg::Hello(1));
        s.run_before(SimTime(30));
        let first = s.snapshot();
        let second = s.snapshot();
        assert_eq!(first.now(), second.now());
        assert_eq!(first.pending_events(), second.pending_events());
        let link = || -> Box<dyn LinkModel> { Box::new(ConstantDelay(SimTime(5))) };
        let a = finish(Simulation::restore(&first, link()));
        let b = finish(Simulation::restore(&second, link()));
        assert_eq!(a, b);
        // One snapshot seeds many forks; a diverging fork (crash) does not
        // disturb a later fork from the same snapshot.
        let mut diverge = Simulation::restore(&first, link());
        diverge.crash(NodeId(1));
        diverge.run();
        let c = finish(Simulation::restore(&first, link()));
        assert_eq!(c, a);
    }

    #[test]
    fn snapshot_restores_across_backends() {
        // A snapshot carries its queue: on either backend the restored
        // fork finishes as the uninterrupted run does, and the two agree.
        let link = || -> Box<dyn LinkModel> { Box::new(ConstantDelay(SimTime(3))) };
        let [heap, calendar] = QueueBackend::ALL.map(|backend| {
            let nodes = (0..5).map(|_| Echo::new()).collect();
            let mut s: Simulation<Echo> = Simulation::with_backend(nodes, link(), 9, backend);
            s.set_tracing(true);
            s.inject(SimTime(25), NodeId(9), NodeId(4), TestMsg::Hello(3));
            s.run_before(SimTime(25));
            let fork = finish(Simulation::restore(&s.snapshot(), link()));
            assert_eq!(fork, finish(s), "{backend}");
            fork
        });
        assert_eq!(heap, calendar);
    }

    #[test]
    fn snapshot_round_trips_crashes_cancels_and_free_list() {
        // Exercise the cancelled-timer set, the crashed set, and arena
        // free-list recycling across a snapshot boundary.
        let mut s = sim(4);
        s.set_tracing(true);
        s.crash(NodeId(3));
        s.inject(SimTime(10), NodeId(9), NodeId(3), TestMsg::Hello(5)); // discarded
        s.inject(SimTime(50), NodeId(9), NodeId(1), TestMsg::Hello(6));
        s.run_before(SimTime(50));
        let snap = s.snapshot();
        let mut r = Simulation::restore(&snap, Box::new(ConstantDelay(SimTime(5))));
        assert!(r.is_crashed(NodeId(3)));
        assert_eq!(r.in_flight_messages(), s.in_flight_messages());
        assert_eq!(r.queue_len(), s.queue_len());
        assert_eq!(r.events_dispatched(), s.events_dispatched());
        r.run();
        assert!(r.node(NodeId(1)).received.contains(&(NodeId(9), 6)));
        assert!(r.node(NodeId(3)).received.is_empty());
        assert_eq!(r.in_flight_messages(), 0);
    }

    #[test]
    fn a_restored_fork_keeps_the_valve() {
        let mut s = sim(3);
        s.state.event_limit = 2;
        let snap = s.snapshot();
        let mut r = Simulation::restore(&snap, Box::new(ConstantDelay(SimTime(5))));
        // The whole state struct rides in the snapshot — the safety valve
        // set on the original trips in the fork too.
        assert_eq!(r.run(), RunOutcome::EventLimit);
        assert_eq!(r.events_dispatched(), 2);
    }

    #[test]
    fn event_limit_stops_runaway() {
        struct Storm;
        impl Node for Storm {
            type Msg = TestMsg;
            fn on_start(&mut self, ctx: &mut Context<TestMsg>) {
                ctx.send(NodeId(0), TestMsg::Hello(0));
            }
            fn on_message(&mut self, ctx: &mut Context<TestMsg>, _: NodeId, _: TestMsg) {
                ctx.send(NodeId(0), TestMsg::Hello(0)); // infinite self-loop
            }
            fn on_timer(&mut self, _: &mut Context<TestMsg>, _: TimerId) {}
        }
        let mut s: Simulation<Storm> =
            Simulation::new(vec![Storm], Box::new(ConstantDelay(SimTime(0))), 1);
        s.state.event_limit = 1000;
        assert_eq!(s.run(), RunOutcome::EventLimit);
    }
}
