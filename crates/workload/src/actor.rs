//! The mixed node population of a workload run: committee replicas and
//! client actors sharing one simulation.

use crate::client::Client;
use crate::spec::WorkloadSpec;
use prft_core::{AsReplica, PrftMsg, Replica};
use prft_sim::{Context, LinkModel, Node, QueueBackend, Simulation, TimerId};
use prft_types::NodeId;

/// One actor of a workload simulation: either a committee replica
/// (node ids `0..n`) or an open-loop client (ids `n..n+clients`).
///
/// Both variants are boxed so the population vector stays slim — a
/// [`Replica`] is orders of magnitude larger than the enum tag.
///
/// `Clone` puts the mixed population on the same footing as the pure
/// committee for checkpoint/fork warm starts: `SimSnapshot<Actor>` needs
/// it exactly like `SimSnapshot<Replica>` does.
#[derive(Clone)]
pub enum Actor {
    /// A pRFT committee member.
    Replica(Box<Replica>),
    /// An open-loop workload client.
    Client(Box<Client>),
}

impl Actor {
    /// The replica behind this actor, mutably (timeline events such as
    /// role changes and transaction injection need write access).
    pub fn as_replica_mut(&mut self) -> Option<&mut Replica> {
        match self {
            Actor::Replica(r) => Some(r),
            Actor::Client(_) => None,
        }
    }
}

impl AsReplica for Actor {
    fn as_replica(&self) -> Option<&Replica> {
        match self {
            Actor::Replica(r) => Some(r),
            Actor::Client(_) => None,
        }
    }
}

impl Node for Actor {
    type Msg = PrftMsg;

    fn on_start(&mut self, ctx: &mut Context<PrftMsg>) {
        match self {
            Actor::Replica(r) => r.on_start(ctx),
            Actor::Client(c) => c.on_start(ctx),
        }
    }

    fn on_message(&mut self, ctx: &mut Context<PrftMsg>, from: NodeId, msg: PrftMsg) {
        match self {
            Actor::Replica(r) => r.on_message(ctx, from, msg),
            Actor::Client(c) => c.on_message(ctx, from, msg),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<PrftMsg>, timer: TimerId) {
        match self {
            Actor::Replica(r) => r.on_timer(ctx, timer),
            Actor::Client(c) => c.on_timer(ctx, timer),
        }
    }
}

/// Assembles a workload simulation: the committee first (broadcast domain
/// pinned to it, so protocol fan-out stays O(n) no matter how many clients
/// ride along), then `spec.clients` client actors.
///
/// `spec.mempool_capacity` is applied to every replica here;
/// `spec.max_batch` must be applied to the [`prft_core::Config`] *before*
/// the replicas are built (the config is frozen at construction).
pub fn assemble(
    mut replicas: Vec<Replica>,
    spec: &WorkloadSpec,
    network: Box<dyn LinkModel>,
    seed: u64,
    queue: QueueBackend,
) -> Simulation<Actor> {
    let n = replicas.len();
    assert!(n > 0, "workload needs a committee");
    for r in &mut replicas {
        r.mempool_mut().set_capacity(spec.mempool_capacity);
    }
    let mut actors: Vec<Actor> = replicas
        .into_iter()
        .map(|r| Actor::Replica(Box::new(r)))
        .collect();
    for i in 0..spec.clients {
        actors.push(Actor::Client(Box::new(Client::new(
            NodeId(n + i),
            n,
            i,
            spec,
        ))));
    }
    let mut sim = Simulation::with_backend(actors, network, seed, queue);
    sim.set_broadcast_domain(n);
    sim
}
