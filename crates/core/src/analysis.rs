//! Post-run analysis over a pRFT simulation: agreement, liveness,
//! censorship, forks, and burns — the observables every experiment reads.
//!
//! Every function here is generic over the node type via [`AsReplica`]:
//! a bare `Simulation<Replica>` works, and so does the scenario layer's
//! `Simulation<Actor>`, which may append client actors to the committee.
//! Clients answer [`AsReplica::as_replica`] with `None`, so every
//! aggregate keeps its replica-only meaning regardless of who else shares
//! the simulation.

use crate::replica::Replica;
use prft_sim::{Node, Simulation};
use prft_types::{Chain, NodeId, TxId};

/// Views a simulation actor as a protocol replica, when it is one.
///
/// The analysis and observability layers quantify over committee
/// replicas. Workload simulations mix client actors into the node
/// population; those return `None` and are skipped.
pub trait AsReplica {
    /// The replica behind this actor, if any.
    fn as_replica(&self) -> Option<&Replica>;
}

impl AsReplica for Replica {
    fn as_replica(&self) -> Option<&Replica> {
        Some(self)
    }
}

/// Summary of a finished run, computed over the *honest* replicas (players
/// whose behavior label is `"honest"`), which is how every property in the
/// paper is stated.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Ids of the honest players.
    pub honest: Vec<NodeId>,
    /// Smallest finalized height among honest players.
    pub min_final_height: u64,
    /// Largest finalized height among honest players.
    pub max_final_height: u64,
    /// Whether all honest *finalized* prefixes agree (no fork): the
    /// `(t,k)`-agreement property.
    pub agreement: bool,
    /// Whether the full chains (incl. tentative) satisfy 1-strict ordering
    /// pairwise.
    pub strict_ordering: bool,
    /// Players whose collateral is burned in any honest view.
    pub burned: Vec<NodeId>,
    /// Total view changes across honest replicas.
    pub view_changes: u64,
    /// Total valid exposes applied across honest replicas.
    pub exposes: u64,
}

/// Whether a replica is honest for analysis purposes.
pub fn is_honest(replica: &Replica) -> bool {
    replica.behavior_label() == "honest"
}

fn replica_at<N: Node + AsReplica>(sim: &Simulation<N>, id: NodeId) -> &Replica {
    sim.node(id)
        .as_replica()
        .expect("honest ids name committee replicas")
}

/// Ids of all honest replicas. Crashed players are excluded: the paper's
/// properties quantify over correct (non-faulty) honest players. Client
/// actors (in workload runs) are not replicas and never appear here.
pub fn honest_ids<N: Node + AsReplica>(sim: &Simulation<N>) -> Vec<NodeId> {
    (0..sim.n())
        .map(NodeId)
        .filter(|&id| {
            sim.node(id)
                .as_replica()
                .is_some_and(|r| is_honest(r) && !sim.is_crashed(id))
        })
        .collect()
}

/// Computes the [`RunReport`] for a finished simulation.
pub fn analyze<N: Node + AsReplica>(sim: &Simulation<N>) -> RunReport {
    let honest = honest_ids(sim);
    let chains: Vec<&Chain> = honest
        .iter()
        .map(|&id| replica_at(sim, id).chain())
        .collect();

    let min_final_height = chains.iter().map(|c| c.final_height()).min().unwrap_or(0);
    let max_final_height = chains.iter().map(|c| c.final_height()).max().unwrap_or(0);

    let mut agreement = true;
    let mut strict_ordering = true;
    for i in 0..chains.len() {
        for j in (i + 1)..chains.len() {
            if Chain::find_fork(chains[i], chains[j], true).is_some() {
                agreement = false;
            }
            if !Chain::c_strict_ordering(chains[i], chains[j], 1) {
                strict_ordering = false;
            }
        }
    }

    let mut burned: Vec<NodeId> = honest
        .iter()
        .flat_map(|&id| {
            replica_at(sim, id)
                .collateral()
                .burned()
                .collect::<Vec<_>>()
        })
        .collect();
    burned.sort_unstable();
    burned.dedup();

    let view_changes = honest
        .iter()
        .map(|&id| replica_at(sim, id).stats().view_changes)
        .sum();
    let exposes = honest
        .iter()
        .map(|&id| replica_at(sim, id).stats().exposes_applied)
        .sum();

    RunReport {
        honest,
        min_final_height,
        max_final_height,
        agreement,
        strict_ordering,
        burned,
        view_changes,
        exposes,
    }
}

/// Whether every honest player has `tx` in a *finalized* block — the
/// censorship-resistance observable (Definition 2).
pub fn tx_finalized_everywhere<N: Node + AsReplica>(sim: &Simulation<N>, tx: TxId) -> bool {
    honest_ids(sim)
        .iter()
        .all(|&id| replica_at(sim, id).chain().contains_tx_final(tx))
}

/// Whether any honest player has `tx` in any (even tentative) block.
pub fn tx_included_anywhere<N: Node + AsReplica>(sim: &Simulation<N>, tx: TxId) -> bool {
    honest_ids(sim)
        .iter()
        .any(|&id| replica_at(sim, id).chain().contains_tx(tx))
}

/// Average finalized height per entered round across honest replicas — a
/// throughput measure in [0, 1]; ≈1 means every round produced a block
/// (liveness), ≈0 means no progress (`σ_NP`).
pub fn throughput<N: Node + AsReplica>(sim: &Simulation<N>) -> f64 {
    let honest = honest_ids(sim);
    if honest.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    for &id in &honest {
        let node = replica_at(sim, id);
        let rounds = node.stats().rounds_entered.max(1) as f64;
        total += node.chain().final_height() as f64 / rounds;
    }
    total / honest.len() as f64
}
