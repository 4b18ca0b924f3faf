//! `π_fork`: the coordinated double-signing attack that targets
//! disagreement (`σ_Fork`) — the θ=1 strategy pRFT is built to defeat.
//!
//! The playbook (Theorem 3 / Lemma 4 constructions):
//!
//! 1. The honest players are split into groups `A` and `B` (by a network
//!    partition the adversary hopes for, or just by addressing).
//! 2. When a collusion member leads, it **equivocates**: block `a` to
//!    `A ∪ (collusion)`, block `b` to `B`.
//! 3. Every colluder votes, commits, and reveals **both ways**: the
//!    `a`-side messages go to `A`, the `b`-side to `B`, trying to hand each
//!    group an apparently unanimous quorum for its own block.
//! 4. Colluders never send `Expose` (it would burn their own deposits).
//!
//! Coordination uses a shared [`Blackboard`]: the equivocating leader
//! publishes both block hashes; colluders read them when deciding ballots.
//! The paper grants the collusion arbitrary instantaneous coordination; the
//! blackboard is an `Arc<Mutex<…>>` so colluding replicas stay `Send` and a
//! whole committee can run on a `prft-lab` worker thread.

use prft_core::{BallotAction, Behavior, Phase, ProposeAction};
use prft_types::{Block, Digest, NodeId, Round, Transaction};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

/// The collusion's shared knowledge: for each attacked round, the pair of
/// equivocated block hashes `(a, b)`.
#[derive(Debug, Default, Clone)]
pub struct ForkPlan {
    pairs: HashMap<Round, (Digest, Digest)>,
}

/// Shared handle to the collusion's plan.
pub type Blackboard = Arc<Mutex<ForkPlan>>;

/// Creates an empty blackboard.
pub fn blackboard() -> Blackboard {
    Arc::new(Mutex::new(ForkPlan::default()))
}

impl ForkPlan {
    /// Records the equivocation pair for `round`.
    pub fn publish(&mut self, round: Round, a: Digest, b: Digest) {
        self.pairs.insert(round, (a, b));
    }

    /// Looks up the pair for `round`.
    pub fn pair(&self, round: Round) -> Option<(Digest, Digest)> {
        self.pairs.get(&round).copied()
    }
}

/// The byzantine leader that seeds the fork: when leading an attacked
/// round, proposes block `a` to everyone outside `b_group` and a different
/// block `b` (same parent, different payload) to `b_group` — and keeps the
/// two worlds apart by splitting its own votes, commits, reveals, and
/// finals along the same line (it is byzantine; honest-looking reveals
/// would leak the other side's certificates and blow the attack).
///
/// `Clone` (for checkpoint forks) shares the blackboard `Arc` until
/// [`Behavior::rebind_shared`] splices in the fork's own copy.
#[derive(Clone)]
pub struct EquivocatingLeader {
    board: Blackboard,
    b_group: HashSet<NodeId>,
    n: usize,
    /// Attack every round this player leads if `None`, else only these.
    attack_rounds: Option<HashSet<Round>>,
}

impl EquivocatingLeader {
    /// Creates the leader strategy for a committee of `n`. `b_group`
    /// receives the `b` block.
    pub fn new(board: Blackboard, b_group: HashSet<NodeId>, n: usize) -> Self {
        EquivocatingLeader {
            board,
            b_group,
            n,
            attack_rounds: None,
        }
    }

    /// Restricts the attack to specific rounds (honest otherwise).
    #[must_use]
    pub fn only_rounds(mut self, rounds: impl IntoIterator<Item = Round>) -> Self {
        self.attack_rounds = Some(rounds.into_iter().collect());
        self
    }

    fn attacks(&self, round: Round) -> bool {
        self.attack_rounds
            .as_ref()
            .is_none_or(|set| set.contains(&round))
    }
}

/// Shared collusion logic: double-sign toward the group that should see
/// the *other* value, per the blackboard's plan for the round.
fn split_by_plan(
    board: &Blackboard,
    b_group: &HashSet<NodeId>,
    n: usize,
    round: Round,
    value: Digest,
) -> BallotAction {
    let Some((a, b)) = board.lock().unwrap().pair(round) else {
        return BallotAction::Honest;
    };
    if value == a {
        BallotAction::Split {
            b,
            b_recipients: b_group.clone(),
        }
    } else if value == b {
        let a_group: HashSet<NodeId> = (0..n)
            .map(NodeId)
            .filter(|id| !b_group.contains(id))
            .collect();
        BallotAction::Split {
            b: a,
            b_recipients: a_group,
        }
    } else {
        BallotAction::Honest
    }
}

impl Behavior for EquivocatingLeader {
    fn label(&self) -> &'static str {
        "equivocating-leader"
    }

    fn join_view_change(&self) -> bool {
        false // abandoning the round would kill the fork attempt
    }

    fn on_propose(&mut self, round: Round, honest_block: &Block) -> ProposeAction {
        if !self.attacks(round) {
            return ProposeAction::Honest;
        }
        // Block b: same parent, same round, but a conflicting payload —
        // here a marker transaction, so the two hashes always differ.
        let mut txs = honest_block.txs.to_vec();
        txs.push(Transaction::new(
            u64::MAX - round.0,
            honest_block.proposer,
            b"equivocation-marker".to_vec(),
        ));
        let block_b = Block::new(round, honest_block.parent, honest_block.proposer, txs);
        self.board
            .lock()
            .unwrap()
            .publish(round, honest_block.id(), block_b.id());
        ProposeAction::Equivocate {
            a: honest_block.clone(),
            b: block_b,
            b_recipients: self.b_group.clone(),
        }
    }

    fn on_ballot(&mut self, _phase: Phase, round: Round, value: Digest) -> BallotAction {
        split_by_plan(&self.board, &self.b_group, self.n, round, value)
    }

    fn send_expose(&self) -> bool {
        false
    }

    fn rebind_shared(&mut self, state: &dyn std::any::Any) {
        if let Some(board) = state.downcast_ref::<Blackboard>() {
            self.board = Arc::clone(board);
        }
    }
}

/// A rational colluder playing `π_fork`: double-signs toward the two
/// groups whenever the blackboard has a pair for the round, else follows
/// the protocol honestly (maximizing payoff outside attack rounds).
///
/// `Clone` (for checkpoint forks) shares the blackboard `Arc` until
/// [`Behavior::rebind_shared`] splices in the fork's own copy.
#[derive(Clone)]
pub struct ForkColluder {
    board: Blackboard,
    b_group: HashSet<NodeId>,
    n: usize,
}

impl ForkColluder {
    /// Creates a colluder aligned with the leader's `b_group` split.
    pub fn new(board: Blackboard, b_group: HashSet<NodeId>, n: usize) -> Self {
        ForkColluder { board, b_group, n }
    }
}

impl Behavior for ForkColluder {
    fn label(&self) -> &'static str {
        "fork"
    }

    fn on_ballot(&mut self, _phase: Phase, round: Round, value: Digest) -> BallotAction {
        split_by_plan(&self.board, &self.b_group, self.n, round, value)
    }

    fn send_expose(&self) -> bool {
        false
    }

    fn join_view_change(&self) -> bool {
        false // colluders never help abandon the round they are forking
    }

    fn rebind_shared(&mut self, state: &dyn std::any::Any) {
        if let Some(board) = state.downcast_ref::<Blackboard>() {
            self.board = Arc::clone(board);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blackboard_roundtrip() {
        let board = blackboard();
        let (a, b) = (Digest::of_bytes(b"a"), Digest::of_bytes(b"b"));
        board.lock().unwrap().publish(Round(3), a, b);
        assert_eq!(board.lock().unwrap().pair(Round(3)), Some((a, b)));
        assert_eq!(board.lock().unwrap().pair(Round(4)), None);
    }

    #[test]
    fn leader_publishes_pair_and_equivocates() {
        let board = blackboard();
        let b_group: HashSet<NodeId> = [NodeId(2), NodeId(3)].into_iter().collect();
        let mut leader = EquivocatingLeader::new(board.clone(), b_group.clone(), 4);
        let tx = Transaction::new(1, NodeId(9), b"pay".to_vec());
        let honest = Block::new(Round(0), Digest::ZERO, NodeId(0), vec![tx]);
        match leader.on_propose(Round(0), &honest) {
            ProposeAction::Equivocate { a, b, b_recipients } => {
                assert_eq!(a.id(), honest.id());
                assert_ne!(a.id(), b.id());
                // `a` is the honest block's batch; `b` is a batch of its own.
                assert!(Arc::ptr_eq(&a.txs, &honest.txs));
                assert!(!Arc::ptr_eq(&a.txs, &b.txs));
                assert_eq!(b.txs[..1], a.txs[..]);
                assert_eq!(b_recipients, b_group);
                assert_eq!(board.lock().unwrap().pair(Round(0)), Some((a.id(), b.id())));
            }
            other => panic!("expected equivocation, got {other:?}"),
        }
    }

    #[test]
    fn leader_respects_round_filter() {
        let board = blackboard();
        let mut leader = EquivocatingLeader::new(board, HashSet::new(), 4).only_rounds([Round(5)]);
        let honest = Block::new(Round(0), Digest::ZERO, NodeId(0), vec![]);
        assert!(matches!(
            leader.on_propose(Round(0), &honest),
            ProposeAction::Honest
        ));
    }

    #[test]
    fn colluder_splits_based_on_received_side() {
        let board = blackboard();
        let (a, b) = (Digest::of_bytes(b"a"), Digest::of_bytes(b"b"));
        board.lock().unwrap().publish(Round(1), a, b);
        let b_group: HashSet<NodeId> = [NodeId(3)].into_iter().collect();
        let mut colluder = ForkColluder::new(board, b_group.clone(), 4);

        match colluder.on_ballot(Phase::Vote, Round(1), a) {
            BallotAction::Split {
                b: alt,
                b_recipients,
            } => {
                assert_eq!(alt, b);
                assert_eq!(b_recipients, b_group);
            }
            other => panic!("expected split, got {other:?}"),
        }
        match colluder.on_ballot(Phase::Vote, Round(1), b) {
            BallotAction::Split {
                b: alt,
                b_recipients,
            } => {
                assert_eq!(alt, a);
                assert_eq!(
                    b_recipients,
                    [NodeId(0), NodeId(1), NodeId(2)].into_iter().collect()
                );
            }
            other => panic!("expected split, got {other:?}"),
        }
    }

    #[test]
    fn colluder_honest_without_plan() {
        let board = blackboard();
        let mut colluder = ForkColluder::new(board, HashSet::new(), 4);
        assert!(matches!(
            colluder.on_ballot(Phase::Vote, Round(9), Digest::of_bytes(b"x")),
            BallotAction::Honest
        ));
        assert!(!colluder.send_expose());
        assert_eq!(colluder.label(), "fork");
    }
}
