//! The collateral (deposit/burn) ledger — the penalty substrate.
//!
//! Before participating, each player deposits `L` (paper Section 5.3.1);
//! a verified Proof-of-Fraud burns the deviator's deposit (`Stash`, modeled
//! after Proof-of-Burn). The ledger is the bridge between the protocol and
//! the utility model: `D(π, σ) = 1` exactly when a player's deposit burned.
//!
//! A burn is its proof: the ledger stores, per burned player, the
//! conflicting-signature pair that convicted it, and the burned set is the
//! set of players it holds a pair for. [`CollateralLedger::proven`] re-checks
//! every stored pair against the trusted setup alone.

use crate::messages::BallotEvidence;
use prft_crypto::KeyRegistry;
use prft_types::NodeId;
use std::collections::btree_map::{BTreeMap, Entry};

/// Per-player deposits, with the proof behind each burn.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollateralLedger {
    deposit: u64,
    /// By burned player: the pair that convicted it.
    proofs: BTreeMap<NodeId, BallotEvidence>,
}

impl CollateralLedger {
    /// Opens the ledger with every player depositing `deposit` (= `L`).
    pub fn new(deposit: u64) -> Self {
        CollateralLedger {
            deposit,
            proofs: BTreeMap::new(),
        }
    }

    /// The deposit amount `L`.
    pub fn deposit(&self) -> u64 {
        self.deposit
    }

    /// Burns `player`'s deposit on the strength of `proof`, the verified
    /// pair that convicted it. Idempotent: the first proof stays. Returns
    /// `true` if this call performed the burn.
    pub fn burn(&mut self, player: NodeId, proof: BallotEvidence) -> bool {
        match self.proofs.entry(player) {
            Entry::Vacant(slot) => {
                slot.insert(proof);
                true
            }
            Entry::Occupied(_) => false,
        }
    }

    /// Whether `player`'s deposit is burned.
    pub fn is_burned(&self, player: NodeId) -> bool {
        self.proofs.contains_key(&player)
    }

    /// Remaining balance of `player` (0 if burned, `L` otherwise).
    pub fn balance(&self, player: NodeId) -> u64 {
        if self.is_burned(player) {
            0
        } else {
            self.deposit
        }
    }

    /// The pair that burned `player`, if it is burned.
    pub fn proof(&self, player: NodeId) -> Option<&BallotEvidence> {
        self.proofs.get(&player)
    }

    /// All burned players, sorted.
    pub fn burned(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.proofs.keys().copied()
    }

    /// Whether every stored proof convicts, under `registry` alone, the
    /// player it burned. Uncounted: an audit of a finished run moves no
    /// `crypto.sig_verifies`.
    pub fn proven(&self, registry: &KeyRegistry) -> bool {
        let mut proofs = self.proofs.iter();
        proofs.all(|(&player, proof)| proof.audit(registry) == Some(player))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::Phase;
    use crate::pof::{construct_proof, signed_ballot};
    use prft_types::{Digest, Round};

    /// A verified pair convicting each of `players`, under `registry`.
    fn proofs(players: &[usize]) -> (KeyRegistry, Vec<BallotEvidence>) {
        let (registry, keys) = KeyRegistry::trusted_setup(4, 7);
        let ballots: Vec<_> = players
            .iter()
            .flat_map(|&i| {
                [b"a", b"b"]
                    .map(|v| signed_ballot(&keys[i], Round(1), Phase::Commit, Digest::of_bytes(v)))
            })
            .collect();
        (registry, construct_proof(&ballots))
    }

    #[test]
    fn burn_is_idempotent() {
        let (_, pairs) = proofs(&[2]);
        let mut l = CollateralLedger::new(100);
        assert!(l.burn(NodeId(2), pairs[0].clone()));
        assert!(!l.burn(NodeId(2), pairs[0].clone()));
        assert_eq!(l.burned().collect::<Vec<_>>(), vec![NodeId(2)]);
    }

    #[test]
    fn balances_reflect_burns() {
        let (_, pairs) = proofs(&[1]);
        let mut l = CollateralLedger::new(100);
        l.burn(NodeId(1), pairs[0].clone());
        assert_eq!(l.balance(NodeId(1)), 0);
        assert_eq!(l.balance(NodeId(0)), 100);
        assert!(l.is_burned(NodeId(1)));
        assert!(!l.is_burned(NodeId(0)));
    }

    #[test]
    fn burned_iterates_sorted() {
        let (_, pairs) = proofs(&[1, 3]);
        let mut l = CollateralLedger::new(1);
        l.burn(NodeId(3), pairs[1].clone());
        l.burn(NodeId(1), pairs[0].clone());
        assert_eq!(l.burned().collect::<Vec<_>>(), vec![NodeId(1), NodeId(3)]);
    }

    /// A pair accusing seat 1, stored as the proof that burned seat 3 or
    /// a seat outside the committee, is no proof; nor is a pair under
    /// another trusted setup.
    #[test]
    fn a_burn_is_proven_only_by_a_pair_convicting_its_player() {
        let (registry, pairs) = proofs(&[1, 3]);
        let mut l = CollateralLedger::new(1);
        assert!(l.proven(&registry), "no burn needs no proof");
        l.burn(NodeId(1), pairs[0].clone());
        assert!(l.proven(&registry));
        let (other, _) = KeyRegistry::trusted_setup(4, 8);
        assert!(!l.proven(&other), "another setup convicts nobody");
        for wrong in [NodeId(3), NodeId(9)] {
            let mut l = l.clone();
            assert!(l.burn(wrong, pairs[0].clone()));
            assert!(!l.proven(&registry), "seat 1's pair burned {wrong}");
        }
    }
}
