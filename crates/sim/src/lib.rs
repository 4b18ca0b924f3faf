//! Deterministic discrete-event simulation kernel.
//!
//! The paper evaluates protocols over `n` communicating players under
//! synchronous / partially synchronous / asynchronous networks. This crate
//! provides the substrate those runs execute on:
//!
//! * a seeded, reproducible PRNG ([`SimRng`], SplitMix64 → Xoshiro256**);
//! * virtual time ([`SimTime`]) and a totally ordered event queue with
//!   in-flight message payloads parked in an [`Arena`] — two runs with the
//!   same seed produce byte-identical traces. Every run drains the
//!   [`CalendarQueue`]; the reference [`HeapQueue`] is reached only through
//!   [`Simulation::with_backend`], by the queue's differential tests and
//!   `prft-bench queue`;
//! * the [`Node`] trait protocols implement, with a [`Context`] for sending,
//!   broadcasting, and timer management;
//! * message metering ([`WireMessage`] kinds and κ-scaled sizes, at every
//!   send and, per receiver, at every delivery) and an optional delivery
//!   [`Trace`] used to regenerate the paper's Figure 2a timeline;
//! * deterministic observability ([`obs`]): a named counter/gauge registry
//!   ([`ObsRegistry`]) and thread-local crypto hooks;
//! * crash support (for the CFT column of Table 1).
//!
//! Delay behaviour is pluggable through [`LinkModel`]; the concrete
//! synchronous / partially synchronous (GST) / asynchronous models and
//! partitions live in `prft-net`.
//!
//! # Example: two-node ping-pong
//!
//! ```
//! use prft_sim::{Context, LinkModel, Node, Simulation, SimTime, TimerId, WireMessage};
//! use prft_types::NodeId;
//!
//! #[derive(Clone, Debug)]
//! struct Ping(u32);
//! impl WireMessage for Ping {
//!     fn kind(&self) -> &'static str { "ping" }
//!     fn wire_bytes(&self) -> usize { 4 }
//! }
//!
//! struct Player { hits: u32 }
//! impl Node for Player {
//!     type Msg = Ping;
//!     fn on_start(&mut self, ctx: &mut Context<Ping>) {
//!         if ctx.me() == NodeId(0) { ctx.send(NodeId(1), Ping(0)); }
//!     }
//!     fn on_message(&mut self, ctx: &mut Context<Ping>, from: NodeId, msg: Ping) {
//!         self.hits += 1;
//!         if msg.0 < 3 { ctx.send(from, Ping(msg.0 + 1)); }
//!     }
//!     fn on_timer(&mut self, _: &mut Context<Ping>, _: TimerId) {}
//! }
//!
//! let mut sim = Simulation::new(
//!     vec![Player { hits: 0 }, Player { hits: 0 }],
//!     Box::new(prft_sim::ConstantDelay(SimTime(1))),
//!     42,
//! );
//! sim.run();
//! assert_eq!(sim.node(NodeId(0)).hits + sim.node(NodeId(1)).hits, 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod engine;
mod meter;
pub mod obs;
pub mod queue;
mod rng;
mod time;
mod trace;

pub use arena::{Arena, MsgRef};
pub use engine::{Context, LinkModel, Node, RunOutcome, SimSnapshot, Simulation, TimerId};
pub use meter::{KindStats, Meter, WireMessage};
pub use obs::ObsRegistry;
pub use queue::{CalendarQueue, HeapQueue, QueueBackend};
pub use rng::SimRng;
pub use time::SimTime;
pub use trace::{Trace, TraceEntry};

/// The trivial link model: every message arrives exactly `0.0 + d` later.
///
/// Useful for unit tests; real experiments use the models in `prft-net`.
#[derive(Debug, Clone, Copy)]
pub struct ConstantDelay(pub SimTime);

impl LinkModel for ConstantDelay {
    fn deliver_at(
        &mut self,
        _from: prft_types::NodeId,
        _to: prft_types::NodeId,
        sent: SimTime,
        _rng: &mut SimRng,
    ) -> SimTime {
        SimTime(sent.0 + self.0 .0)
    }
}
