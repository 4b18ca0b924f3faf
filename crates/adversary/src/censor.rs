//! `π_pc`: partial censorship (the θ=2 attack of Theorem 2).

use prft_core::{BallotAction, Behavior, Phase};
use prft_types::{Digest, NodeId, Round, TxId};
use std::collections::HashSet;

/// The partial-censorship strategy from the proof of Theorem 2:
///
/// * when the round's leader is **in the collusion** `K ∪ T`: participate
///   honestly, but as leader assemble blocks that omit the censored
///   transaction set `Z`;
/// * when the leader is **honest**: abstain (`π_abs`), starving the round
///   of its quorum so the block is never agreed and the view changes.
///
/// The system stays live in expectation (`(k+t)/n` of rounds produce
/// blocks), no message is ever double-signed, and abstention under honest
/// leaders is indistinguishable from crash faults — so `D(π_pc, σ) = 0`
/// and the censored transaction never confirms.
#[derive(Debug, Clone)]
pub struct PartialCensor {
    n: usize,
    collusion: HashSet<NodeId>,
    censor: HashSet<TxId>,
}

impl PartialCensor {
    /// Creates the strategy for a committee of `n` with the given collusion
    /// set and censorship target set `Z`.
    pub fn new(n: usize, collusion: HashSet<NodeId>, censor: HashSet<TxId>) -> Self {
        PartialCensor {
            n,
            collusion,
            censor,
        }
    }
}

impl Behavior for PartialCensor {
    fn label(&self) -> &'static str {
        "censor"
    }

    // The replica applies this set when it assembles the honest block, so
    // the default (honest) `on_propose` proposes the censored block: as
    // leader this player is in the collusion by definition.
    fn censor_set(&self) -> Option<&HashSet<TxId>> {
        Some(&self.censor)
    }

    fn on_ballot(&mut self, _phase: Phase, round: Round, _value: Digest) -> BallotAction {
        if self.collusion.contains(&round.leader(self.n)) {
            BallotAction::Honest
        } else {
            BallotAction::Silent
        }
    }

    fn send_expose(&self) -> bool {
        true // nothing to hide: π_pc never double-signs
    }

    fn join_view_change(&self) -> bool {
        // Colluders *do* join view changes: they want honest-led rounds
        // skipped quickly so their own rounds come around.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strategy() -> PartialCensor {
        let collusion = [NodeId(0), NodeId(1)].into_iter().collect();
        let censor = [TxId(9)].into_iter().collect();
        PartialCensor::new(4, collusion, censor)
    }

    #[test]
    fn honest_under_colluding_leader() {
        let mut s = strategy();
        // Round 0 → leader P0 (colluding), round 1 → P1 (colluding).
        assert!(matches!(
            s.on_ballot(Phase::Vote, Round(0), Digest::ZERO),
            BallotAction::Honest
        ));
        assert!(matches!(
            s.on_ballot(Phase::Commit, Round(1), Digest::ZERO),
            BallotAction::Honest
        ));
    }

    #[test]
    fn silent_under_honest_leader() {
        let mut s = strategy();
        // Round 2 → leader P2 (honest), round 3 → P3 (honest).
        assert!(matches!(
            s.on_ballot(Phase::Vote, Round(2), Digest::ZERO),
            BallotAction::Silent
        ));
        assert!(matches!(
            s.on_ballot(Phase::Reveal, Round(3), Digest::ZERO),
            BallotAction::Silent
        ));
    }

    #[test]
    fn censor_set_exposed_to_replica() {
        let s = strategy();
        assert!(s.censor_set().unwrap().contains(&TxId(9)));
        assert_eq!(s.label(), "censor");
    }
}
