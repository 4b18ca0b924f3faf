//! The collateral (deposit/burn) ledger — the penalty substrate.
//!
//! Before participating, each player deposits `L` (paper Section 5.3.1);
//! a verified Proof-of-Fraud burns the deviator's deposit (`Stash`, modeled
//! after Proof-of-Burn). The ledger is the bridge between the protocol and
//! the utility model: `D(π, σ) = 1` exactly when a player's deposit burned.

use prft_types::NodeId;
use std::collections::BTreeSet;

/// Per-player deposits with burn tracking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollateralLedger {
    deposit: u64,
    burned: BTreeSet<NodeId>,
    n: usize,
}

impl CollateralLedger {
    /// Opens the ledger with `n` players each depositing `deposit` (= `L`).
    pub fn new(n: usize, deposit: u64) -> Self {
        CollateralLedger {
            deposit,
            burned: BTreeSet::new(),
            n,
        }
    }

    /// The deposit amount `L`.
    pub fn deposit(&self) -> u64 {
        self.deposit
    }

    /// Burns `player`'s deposit (idempotent). Returns `true` if this call
    /// performed the burn.
    ///
    /// # Panics
    /// Panics if `player` is out of range — burns must come from verified
    /// PoF, which only names registered players.
    pub fn burn(&mut self, player: NodeId) -> bool {
        assert!(player.0 < self.n, "unknown player {player}");
        self.burned.insert(player)
    }

    /// Whether `player`'s deposit is burned.
    pub fn is_burned(&self, player: NodeId) -> bool {
        self.burned.contains(&player)
    }

    /// Remaining balance of `player` (0 if burned, `L` otherwise).
    pub fn balance(&self, player: NodeId) -> u64 {
        if self.is_burned(player) {
            0
        } else {
            self.deposit
        }
    }

    /// All burned players, sorted.
    pub fn burned(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.burned.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burn_is_idempotent() {
        let mut l = CollateralLedger::new(4, 100);
        assert!(l.burn(NodeId(2)));
        assert!(!l.burn(NodeId(2)));
        assert_eq!(l.burned().collect::<Vec<_>>(), vec![NodeId(2)]);
    }

    #[test]
    fn balances_reflect_burns() {
        let mut l = CollateralLedger::new(4, 100);
        l.burn(NodeId(1));
        assert_eq!(l.balance(NodeId(1)), 0);
        assert_eq!(l.balance(NodeId(0)), 100);
        assert!(l.is_burned(NodeId(1)));
        assert!(!l.is_burned(NodeId(0)));
    }

    #[test]
    fn burned_iterates_sorted() {
        let mut l = CollateralLedger::new(4, 1);
        l.burn(NodeId(3));
        l.burn(NodeId(1));
        assert_eq!(l.burned().collect::<Vec<_>>(), vec![NodeId(1), NodeId(3)]);
    }

    #[test]
    #[should_panic(expected = "unknown player")]
    fn out_of_range_burn_panics() {
        CollateralLedger::new(2, 1).burn(NodeId(5));
    }
}
