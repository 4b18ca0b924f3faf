//! Post-run analysis over a pRFT simulation: one pass over the honest
//! replicas of a finished run yields every verdict the experiments read —
//! agreement, ordering, liveness, burns, and Claim 2 consistency.
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
use std::collections::HashSet;

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
    /// Largest `rounds_entered` among honest replicas.
    pub rounds_entered: u64,
    /// Claim 2 consistency: no honest player finalized a round another
    /// honest player abandoned via view change.
    pub vc_consistent: bool,
    /// Average finalized height per entered round across honest replicas,
    /// in [0, 1]: ≈1 means every round produced a block (liveness), ≈0
    /// means no progress (`σ_NP`).
    pub throughput: f64,
}

fn is_honest(replica: &Replica) -> bool {
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
fn honest_ids<N: Node + AsReplica>(sim: &Simulation<N>) -> Vec<NodeId> {
    (0..sim.n())
        .map(NodeId)
        .filter(|&id| {
            sim.node(id)
                .as_replica()
                .is_some_and(|r| is_honest(r) && !sim.is_crashed(id))
        })
        .collect()
}

// Both verdicts below are pairwise prefix-consistency. A family of
// prefixes is pairwise consistent exactly when each member is a prefix of
// the longest one, so each seat is checked once against that reference.

/// `(t,k)`-agreement: no two finalized prefixes differ at a height.
fn agreement(chains: &[&Chain]) -> bool {
    let reference = chains.iter().max_by_key(|c| c.final_height());
    reference.is_none_or(|r| {
        chains
            .iter()
            .all(|c| Chain::find_fork(c, r, true).is_none())
    })
}

/// 1-strict ordering between every pair of full ledgers.
fn strict_ordering(chains: &[&Chain]) -> bool {
    let reference = chains.iter().max_by_key(|c| c.len());
    reference.is_none_or(|r| chains.iter().all(|c| Chain::c_strict_ordering(c, r, 1)))
}

/// Computes the [`RunReport`] for a finished simulation.
pub fn analyze<N: Node + AsReplica>(sim: &Simulation<N>) -> RunReport {
    let honest = honest_ids(sim);
    let replicas: Vec<&Replica> = honest.iter().map(|&id| replica_at(sim, id)).collect();
    let chains: Vec<&Chain> = replicas.iter().map(|r| r.chain()).collect();
    let final_heights = chains.iter().map(|c| c.final_height());

    let mut burned: Vec<NodeId> = replicas
        .iter()
        .flat_map(|r| r.collateral().burned())
        .collect();
    burned.sort_unstable();
    burned.dedup();

    let finalized: HashSet<_> = replicas
        .iter()
        .flat_map(|r| r.stats().finalize_times.iter().map(|&(round, _)| round))
        .collect();
    let vc_consistent = replicas
        .iter()
        .flat_map(|r| &r.stats().view_changed_rounds)
        .all(|round| !finalized.contains(round));

    let throughput = if replicas.is_empty() {
        0.0
    } else {
        let per_seat = replicas
            .iter()
            .map(|r| r.chain().final_height() as f64 / r.stats().rounds_entered.max(1) as f64);
        per_seat.sum::<f64>() / replicas.len() as f64
    };

    RunReport {
        min_final_height: final_heights.clone().min().unwrap_or(0),
        max_final_height: final_heights.max().unwrap_or(0),
        agreement: agreement(&chains),
        strict_ordering: strict_ordering(&chains),
        burned,
        view_changes: replicas
            .iter()
            .map(|r| r.stats().view_changed_rounds.len() as u64)
            .sum(),
        exposes: replicas.iter().map(|r| r.stats().exposes_applied).sum(),
        rounds_entered: replicas
            .iter()
            .map(|r| r.stats().rounds_entered)
            .max()
            .unwrap_or(0),
        vc_consistent,
        throughput,
        honest,
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

#[cfg(test)]
mod tests {
    use super::*;
    use prft_types::{Block, Height, Round, Transaction};

    /// A ledger of `len` blocks over genesis, finalized up to `fin`. Block
    /// `h` is the shared trunk's block unless the seat left the trunk at
    /// or below `h`, in which case it carries the seat's `branch` tag.
    /// Every block extends its own chain's tip, so seats that never left
    /// the trunk (or left it at one height for one branch) share blocks.
    fn ledger(len: u64, fin: u64, fork_at: Option<(u64, u64)>) -> Chain {
        let mut chain = Chain::new(Block::genesis());
        for h in 1..=len {
            let tag = match fork_at {
                Some((at, branch)) if h >= at => branch,
                _ => 0,
            };
            let txs = vec![Transaction::new(tag, NodeId(0), vec![])];
            let block = Block::new(Round(h), chain.tip(), NodeId(0), txs);
            chain.append_tentative(block).unwrap();
        }
        chain.finalize_upto(Height(fin)).unwrap();
        chain
    }

    /// The pairwise definitions the reference-chain verdicts replace.
    fn pairwise(chains: &[&Chain], holds: impl Fn(&Chain, &Chain) -> bool) -> bool {
        chains
            .iter()
            .enumerate()
            .all(|(i, a)| chains[i + 1..].iter().all(|b| holds(a, b)))
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Random families of honest ledgers — one trunk, a finalized
        /// height and a tentative suffix per seat, and now and then a seat
        /// that leaves the trunk for one of two branches — get the same
        /// agreement and 1-strict-ordering verdicts from one reference
        /// chain as from every pair.
        #[test]
        fn reference_chain_verdicts_equal_the_pairwise_definitions(
            seats in proptest::collection::vec((0u64..8, 0u64..9, 0u64..24, 1u64..3), 0..7),
        ) {
            let family: Vec<Chain> = seats
                .iter()
                .map(|&(len, fin, at, branch)| {
                    let fork_at = (1..=len).contains(&at).then_some((at, branch));
                    ledger(len, fin.min(len), fork_at)
                })
                .collect();
            let chains: Vec<&Chain> = family.iter().collect();
            proptest::prop_assert_eq!(
                agreement(&chains),
                pairwise(&chains, |a, b| Chain::find_fork(a, b, true).is_none()),
                "agreement over {:?}", seats
            );
            proptest::prop_assert_eq!(
                strict_ordering(&chains),
                pairwise(&chains, |a, b| Chain::c_strict_ordering(a, b, 1)),
                "strict ordering over {:?}", seats
            );
        }
    }

    #[test]
    fn finalized_divergence_breaks_agreement() {
        let a = ledger(2, 2, None);
        let b = ledger(2, 2, Some((2, 1)));
        assert!(!agreement(&[&a, &b]));
        assert!(!agreement(&[&a, &a, &b]));
    }

    #[test]
    fn tentative_divergence_is_not_a_fork() {
        let a = ledger(2, 1, None);
        let b = ledger(2, 1, Some((2, 1)));
        assert!(agreement(&[&a, &b]));
        assert!(
            strict_ordering(&[&a, &b]),
            "1-strict ordering drops the tip"
        );
    }
}
