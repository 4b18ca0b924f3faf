//! `π_abs`: total abstention (the θ=3 liveness attack).

use prft_core::{BallotAction, Behavior, Phase, ProposeAction};
use prft_types::{Block, Digest, Round};

/// The abstention strategy: never send a protocol message.
///
/// Abstention is indistinguishable from a crash fault under partial
/// synchrony, so no accountable protocol can penalize it (`D(π_abs, σ) = 0`)
/// — the crux of Theorem 1. Abstainers still *receive* messages and track
/// rounds, which maximizes their information while contributing nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct Abstain;

impl Behavior for Abstain {
    fn label(&self) -> &'static str {
        "abstain"
    }

    fn on_propose(&mut self, _round: Round, _honest_block: &Block) -> ProposeAction {
        ProposeAction::Silent
    }

    fn on_ballot(&mut self, _phase: Phase, _round: Round, _value: Digest) -> BallotAction {
        BallotAction::Silent
    }

    fn send_expose(&self) -> bool {
        false
    }

    fn join_view_change(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abstain_is_silent_everywhere() {
        let mut a = Abstain;
        assert_eq!(a.label(), "abstain");
        assert!(matches!(
            a.on_propose(Round(1), &Block::genesis()),
            ProposeAction::Silent
        ));
        for phase in [Phase::Vote, Phase::Commit, Phase::Reveal, Phase::Final] {
            assert!(matches!(
                a.on_ballot(phase, Round(1), Digest::ZERO),
                BallotAction::Silent
            ));
        }
        assert!(!a.send_expose());
        assert!(!a.join_view_change());
    }
}
