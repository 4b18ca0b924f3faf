//! Unconditional byzantine behaviours: noise, equivocation fodder, and
//! silence — strategies "immune to incentive manipulation".

use prft_core::{BallotAction, Behavior, Phase, ProposeAction};
use prft_types::{Block, Digest, NodeId, Round};
use std::collections::HashSet;

/// Votes, commits and reveals garbage values nobody proposed; its `Final`
/// ballot is the honest one.
///
/// Harmless to safety — garbage never gathers a quorum — but exercises the
/// validation paths and shows byzantine noise does not trip the penalty
/// mechanism against honest players.
#[derive(Debug, Default, Clone, Copy)]
pub struct GarbageVoter;

fn garbage(round: Round, salt: u8) -> Digest {
    Digest::of_bytes(&[round.0.to_le_bytes().as_slice(), &[salt]].concat())
}

impl Behavior for GarbageVoter {
    fn label(&self) -> &'static str {
        "garbage"
    }

    fn on_ballot(&mut self, phase: Phase, round: Round, _value: Digest) -> BallotAction {
        match phase {
            Phase::Vote => BallotAction::Replace(garbage(round, 1)),
            Phase::Commit => BallotAction::Replace(garbage(round, 2)),
            Phase::Reveal => BallotAction::Replace(garbage(round, 3)),
            _ => BallotAction::Honest,
        }
    }

    fn send_expose(&self) -> bool {
        false
    }
}

/// Double-signs every vote and commit: the honest value to half the
/// committee, a garbage value to the other half. Pure `π_ds` fodder for the
/// fraud detector.
#[derive(Debug, Clone)]
pub struct DoubleVoter {
    second_half: HashSet<NodeId>,
}

impl DoubleVoter {
    /// Creates a double-voter that sends the alternative value to the upper
    /// half of the committee ids.
    pub fn new(n: usize) -> Self {
        DoubleVoter {
            second_half: (n / 2..n).map(NodeId).collect(),
        }
    }
}

impl Behavior for DoubleVoter {
    fn label(&self) -> &'static str {
        "double-voter"
    }

    fn on_ballot(&mut self, phase: Phase, round: Round, _value: Digest) -> BallotAction {
        let salt = match phase {
            Phase::Vote => 11,
            Phase::Commit => 12,
            _ => return BallotAction::Honest,
        };
        BallotAction::Split {
            b: garbage(round, salt),
            b_recipients: self.second_half.clone(),
        }
    }

    fn send_expose(&self) -> bool {
        false
    }
}

/// Proposes nothing when leading but otherwise follows the protocol —
/// a byzantine leader that only attacks liveness of its own rounds.
#[derive(Debug, Default, Clone, Copy)]
pub struct SilentLeader;

impl Behavior for SilentLeader {
    fn label(&self) -> &'static str {
        "silent-leader"
    }

    fn on_propose(&mut self, _round: Round, _honest_block: &Block) -> ProposeAction {
        ProposeAction::Silent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn garbage_values_differ_by_phase_and_round() {
        assert_ne!(garbage(Round(1), 1), garbage(Round(1), 2));
        assert_ne!(garbage(Round(1), 1), garbage(Round(2), 1));
    }

    #[test]
    fn double_voter_splits_to_upper_half() {
        let mut dv = DoubleVoter::new(4);
        match dv.on_ballot(Phase::Vote, Round(0), Digest::ZERO) {
            BallotAction::Split { b_recipients, .. } => {
                assert_eq!(
                    b_recipients,
                    [NodeId(2), NodeId(3)].into_iter().collect::<HashSet<_>>()
                );
            }
            other => panic!("expected split, got {other:?}"),
        }
    }

    #[test]
    fn silent_leader_is_otherwise_honest() {
        let mut sl = SilentLeader;
        assert!(matches!(
            sl.on_propose(Round(0), &Block::genesis()),
            ProposeAction::Silent
        ));
        assert!(matches!(
            sl.on_ballot(Phase::Vote, Round(0), Digest::ZERO),
            BallotAction::Honest
        ));
        assert!(sl.send_expose());
    }
}
