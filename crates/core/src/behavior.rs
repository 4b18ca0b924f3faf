//! Strategy injection points: the paper's strategy space
//! `{π_0, π_abs, π_ds, …}` as replica hooks.
//!
//! There is exactly one protocol state machine ([`crate::Replica`]); every
//! player — honest, byzantine, or rational — runs it. Deviation happens at
//! well-defined decision points where the replica consults its [`Behavior`]:
//! what to propose, what to sign at each ballot phase (vote, commit,
//! reveal, final), whether to expose fraud and whether to join view
//! changes. This mirrors the paper's model: strategies are per-phase
//! actions (abstain / double-sign / honest), and the collusion can
//! coordinate them arbitrarily.

use crate::messages::Phase;
use prft_types::{Block, Digest, NodeId, Round, TxId};
use std::any::Any;
use std::collections::HashSet;

/// What a leader does in the Propose phase.
#[derive(Debug, Clone)]
pub enum ProposeAction {
    /// `π_0`: propose the honestly assembled block (a censoring leader's
    /// censor set is already applied to it, see [`Behavior::censor_set`]).
    Honest,
    /// `π_ds` as leader: send block `a` to everyone except `b_recipients`,
    /// and block `b` to `b_recipients` — the classic equivocation that
    /// seeds a fork.
    Equivocate {
        /// The first block.
        a: Block,
        /// The second block.
        b: Block,
        /// Who receives `b` (everyone else gets `a`).
        b_recipients: HashSet<NodeId>,
    },
    /// `π_abs`: propose nothing (indistinguishable from a crash).
    Silent,
}

/// What a player does at a ballot decision point (a [`Phase::Vote`],
/// [`Phase::Commit`], [`Phase::Reveal`] or [`Phase::Final`] ballot).
#[derive(Debug, Clone)]
pub enum BallotAction {
    /// `π_0`: sign the honest value.
    Honest,
    /// Sign a different value instead (sent to everyone).
    Replace(Digest),
    /// `π_ds`: sign the honest value toward most players but a second value
    /// toward `b_recipients`.
    Split {
        /// The alternative value.
        b: Digest,
        /// Who receives the `b` ballot (everyone else gets the honest one).
        b_recipients: HashSet<NodeId>,
    },
    /// `π_abs`: send nothing in this phase.
    Silent,
}

/// A player's strategy. The default implementation of every method is the
/// honest strategy `π_0`, so `struct Honest; impl Behavior for Honest {}`
/// is a complete honest player.
///
/// `Send + Sync` are supertraits so replicas (which box their behavior)
/// can move across threads — the `prft-lab` batch runner builds and runs
/// whole committees on worker threads — and so *captured* replicas inside
/// a checkpoint can be shared across workers through an `Arc` (the warm
/// start store hands the same captured prefix to many forks). Coordinated
/// strategies should share state through `Arc<Mutex<…>>` (see
/// `prft_adversary::Blackboard`).
///
/// [`BehaviorClone`] is a supertrait so a boxed behavior — and with it a
/// whole [`crate::Replica`] — is cloneable for checkpoint/fork warm
/// starts. Any `Behavior` that is also `Clone` gets it for free via the
/// blanket impl; coordinated strategies additionally override
/// [`Behavior::rebind_shared`] so a fork can splice in its own copy of
/// the shared coordination state instead of aliasing the original run's.
pub trait Behavior: Send + Sync + BehaviorClone {
    /// Short label for experiment tables ("honest", "abstain", "fork", …).
    fn label(&self) -> &'static str {
        "honest"
    }

    /// Leader decision: what to propose in `round`. `honest_block` is the
    /// block `π_0` would propose (parent = current tip, FIFO batch).
    fn on_propose(&mut self, round: Round, honest_block: &Block) -> ProposeAction {
        let _ = (round, honest_block);
        ProposeAction::Honest
    }

    /// Transactions to exclude when assembling a block as leader
    /// (the censorship set `Z`; `π_pc` uses this).
    fn censor_set(&self) -> Option<&HashSet<TxId>> {
        None
    }

    /// Ballot decision: what to sign in `phase` of `round`, where `value`
    /// is what `π_0` would sign. The replica asks once per ballot it is
    /// about to send: [`Phase::Vote`] on a validated proposal,
    /// [`Phase::Commit`] once a vote quorum is assembled,
    /// [`Phase::Reveal`] once a commit quorum is assembled and
    /// [`Phase::Final`] when ready to finalize.
    fn on_ballot(&mut self, phase: Phase, round: Round, value: Digest) -> BallotAction {
        let _ = (phase, round, value);
        BallotAction::Honest
    }

    /// Whether to broadcast an `Expose` when `|D_i| > t0`. Honest players
    /// always do; colluders suppress it (it burns their own deposits).
    fn send_expose(&self) -> bool {
        true
    }

    /// Whether to participate in view changes (abstainers don't — their
    /// silence is what stalls the protocol).
    fn join_view_change(&self) -> bool {
        true
    }

    /// Re-points any shared coordination state after a checkpoint fork.
    ///
    /// A cloned behavior initially shares `Arc`-held state (e.g. a fork
    /// blackboard) with the run it was cloned from; mutating it from the
    /// fork would corrupt the original. The fork driver deep-copies the
    /// shared state and calls this on every replica's behavior with the
    /// copy; coordinated behaviors downcast `state` to their concrete
    /// shared type and adopt it. The default is a no-op (uncoordinated
    /// strategies own all their state).
    fn rebind_shared(&mut self, state: &dyn Any) {
        let _ = state;
    }
}

/// Object-safe clone support for boxed behaviors.
///
/// Blanket-implemented for every `Behavior + Clone`, so strategy authors
/// just add `#[derive(Clone)]`.
pub trait BehaviorClone {
    /// Clones `self` into a fresh box.
    fn clone_box(&self) -> Box<dyn Behavior>;
}

impl<T: Behavior + Clone + 'static> BehaviorClone for T {
    fn clone_box(&self) -> Box<dyn Behavior> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn Behavior> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The honest strategy `π_0`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Honest;

impl Behavior for Honest {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_defaults_are_honest() {
        let mut h = Honest;
        assert_eq!(h.label(), "honest");
        assert!(matches!(
            h.on_propose(Round(1), &Block::genesis()),
            ProposeAction::Honest
        ));
        for phase in [Phase::Vote, Phase::Commit, Phase::Reveal, Phase::Final] {
            assert!(matches!(
                h.on_ballot(phase, Round(1), Digest::ZERO),
                BallotAction::Honest
            ));
        }
        assert!(h.send_expose());
        assert!(h.join_view_change());
        assert!(h.censor_set().is_none());
    }
}
