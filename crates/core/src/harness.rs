//! Experiment harness: assemble a committee with mixed strategies over a
//! chosen network and run it.

use crate::behavior::{Behavior, Honest};
use crate::config::Config;
use crate::replica::Replica;
use prft_crypto::KeyRegistry;
use prft_net::{
    AsynchronousNet, PartiallySynchronousNet, PartitionWindow, PartitionedNet, SynchronousNet,
};
use prft_sim::{LinkModel, QueueBackend, SimTime, Simulation};
use prft_types::{NodeId, Transaction};
use std::collections::HashMap;

/// Which network model to run under.
pub enum NetworkChoice {
    /// Synchronous with known bound Δ.
    Synchronous {
        /// The delay bound.
        delta: SimTime,
    },
    /// Partially synchronous: adversarial until `gst`, then bounded by Δ.
    PartiallySynchronous {
        /// Global stabilization time.
        gst: SimTime,
        /// Post-GST bound.
        delta: SimTime,
    },
    /// Asynchronous (finite unbounded delays).
    Asynchronous,
    /// Any custom model (e.g. with partitions or targeted delays).
    Custom(Box<dyn LinkModel>),
}

impl NetworkChoice {
    /// Resolves the choice into a live link model. Public so the
    /// checkpoint-fork path can rebuild a fresh network stack for a
    /// restored simulation without going through a full [`Harness`].
    pub fn into_model(self) -> Box<dyn LinkModel> {
        match self {
            NetworkChoice::Synchronous { delta } => Box::new(SynchronousNet::new(delta)),
            NetworkChoice::PartiallySynchronous { gst, delta } => {
                Box::new(PartiallySynchronousNet::new(gst, delta))
            }
            NetworkChoice::Asynchronous => Box::new(AsynchronousNet::typical()),
            NetworkChoice::Custom(model) => model,
        }
    }
}

/// Builder for a pRFT simulation.
///
/// Defaults: every player honest, synchronous network with Δ = 10,
/// `t0 = ⌈n/4⌉ − 1`, unlimited rounds (callers should either set
/// [`Harness::max_rounds`] or run with a horizon).
pub struct Harness {
    n: usize,
    seed: u64,
    cfg: Config,
    network: Option<NetworkChoice>,
    behaviors: HashMap<NodeId, Box<dyn Behavior>>,
    pending_txs: Vec<(Option<NodeId>, Transaction)>,
}

impl Harness {
    /// Starts a harness for `n` players with a simulation seed.
    pub fn new(n: usize, seed: u64) -> Self {
        Harness {
            n,
            seed,
            cfg: Config::for_committee(n),
            network: None,
            behaviors: HashMap::new(),
            pending_txs: Vec::new(),
        }
    }

    // Exists only because the frozen `benchmark/` crate still calls it;
    // goes away with the next change to `benchmark/`. Every run drains the
    // calendar queue.
    #[doc(hidden)]
    #[must_use]
    pub fn queue(self, _: ()) -> Self {
        self
    }

    // Exists only because the frozen `benchmark/` crate still calls it;
    // goes away with the next change to `benchmark/`. Every seat verifies
    // through its memo.
    #[doc(hidden)]
    #[must_use]
    pub fn verify_mode(self, _: ()) -> Self {
        self
    }

    /// Overrides the protocol configuration wholesale.
    #[must_use]
    pub fn config(mut self, cfg: Config) -> Self {
        self.cfg = cfg;
        self
    }

    /// Sets the network model.
    #[must_use]
    pub fn network(mut self, network: NetworkChoice) -> Self {
        self.network = Some(network);
        self
    }

    /// Convenience: partially synchronous network with a single partition
    /// window before GST.
    #[must_use]
    pub fn partitioned_until_gst(
        self,
        gst: SimTime,
        delta: SimTime,
        groups: Vec<Vec<NodeId>>,
    ) -> Self {
        let base = PartiallySynchronousNet::new(gst, delta);
        let mut net = PartitionedNet::new(Box::new(base));
        net.add_window(PartitionWindow::split(SimTime::ZERO, gst, groups));
        self.network(NetworkChoice::Custom(Box::new(net)))
    }

    /// Assigns a strategy to one player (default: honest).
    #[must_use]
    pub fn with_behavior(mut self, node: NodeId, behavior: Box<dyn Behavior>) -> Self {
        self.behaviors.insert(node, behavior);
        self
    }

    /// Overrides the agreement threshold τ (Claim 1 experiments only).
    #[must_use]
    pub fn tau(mut self, tau: usize) -> Self {
        self.cfg.tau_override = Some(tau);
        self
    }

    /// Toggles the Reveal/PoF machinery (the accountability ablation).
    #[must_use]
    pub fn accountable(mut self, on: bool) -> Self {
        self.cfg.accountable = on;
        self
    }

    /// Committee size `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The simulation seed this harness will build with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Stops every replica after `rounds` completed rounds (makes runs
    /// quiescent).
    #[must_use]
    pub fn max_rounds(mut self, rounds: u64) -> Self {
        self.cfg.max_rounds = rounds;
        self
    }

    /// Sets the per-phase timeout Δ.
    #[must_use]
    pub fn phase_timeout(mut self, timeout: SimTime) -> Self {
        self.cfg.phase_timeout = timeout;
        self
    }

    /// Preloads a transaction into one player's mempool (or every player's,
    /// with `None` — "all honest players have tx as input").
    #[must_use]
    pub fn submit(mut self, to: Option<NodeId>, tx: Transaction) -> Self {
        self.pending_txs.push((to, tx));
        self
    }

    /// Builds the simulation.
    pub fn build(self) -> Simulation<Replica> {
        let (replicas, network, seed, _) = self.build_parts();
        Simulation::new(replicas, network, seed)
    }

    /// Builds the committee but returns the raw parts instead of a
    /// simulation — the workload layer appends client actors to the node
    /// population before assembly (`prft_workload::assemble`), and the
    /// fast ≡ reference suites install the reference verifier
    /// ([`Replica::install_verifier`]).
    ///
    /// The fourth part exists only because the frozen `benchmark/` crate
    /// still reads it, and goes away with the next change to `benchmark/`:
    /// it is always [`QueueBackend::Calendar`].
    pub fn build_parts(mut self) -> (Vec<Replica>, Box<dyn LinkModel>, u64, QueueBackend) {
        let (registry, keys) = KeyRegistry::trusted_setup(self.n, self.seed ^ 0x5eed);
        let mut replicas = Vec::with_capacity(self.n);
        for (i, key) in keys.into_iter().enumerate() {
            let behavior = self
                .behaviors
                .remove(&NodeId(i))
                .unwrap_or_else(|| Box::new(Honest));
            replicas.push(Replica::new(
                self.cfg.clone(),
                key,
                registry.clone(),
                behavior,
            ));
        }
        for (to, tx) in &self.pending_txs {
            match to {
                Some(node) => {
                    replicas[node.0].mempool_mut().submit(tx.clone());
                }
                None => {
                    for r in &mut replicas {
                        r.mempool_mut().submit(tx.clone());
                    }
                }
            }
        }
        let network = self
            .network
            .take()
            .unwrap_or(NetworkChoice::Synchronous { delta: SimTime(10) });
        (
            replicas,
            network.into_model(),
            self.seed,
            QueueBackend::Calendar,
        )
    }
}
