//! pRFT wire messages (paper Figure 2b) and their signed payloads.
//!
//! Every signature in the protocol is over a [`Ballot`]: a (round, phase,
//! value) triple. This uniformity is what makes Proof-of-Fraud generic —
//! two valid ballots by one signer in the same (round, phase) slot with
//! different values are a conviction, whether they came from the propose,
//! vote, commit, reveal, or final phase.

use prft_crypto::{ConflictEvidence, KeyRegistry, Signable, Signed, Slot, KAPPA};
use prft_sim::WireMessage;
use prft_types::{Block, Digest, Encoder, NodeId, Round, Transaction, TxId};
use std::sync::{Arc, OnceLock};

/// Protocol phases, also used as the `phase` component of signature slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Leader proposes a block.
    Propose,
    /// Players vote on the proposal hash.
    Vote,
    /// Players commit with a vote certificate.
    Commit,
    /// Players reveal commit certificates for fraud detection.
    Reveal,
    /// Final-consensus announcement.
    Final,
    /// View-change announcement.
    ViewChange,
    /// View-change commitment.
    CommitView,
}

impl Phase {
    /// Stable numeric id used in signature slots.
    pub fn slot_id(self) -> u8 {
        match self {
            Phase::Propose => 0,
            Phase::Vote => 1,
            Phase::Commit => 2,
            Phase::Reveal => 3,
            Phase::Final => 4,
            Phase::ViewChange => 5,
            Phase::CommitView => 6,
        }
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Propose => "Propose",
            Phase::Vote => "Vote",
            Phase::Commit => "Commit",
            Phase::Reveal => "Reveal",
            Phase::Final => "Final",
            Phase::ViewChange => "ViewChange",
            Phase::CommitView => "CommitView",
        }
    }
}

/// The universally signed payload: "`signer` endorses `value` in
/// (`round`, `phase`)".
///
/// The sentinel value [`Digest::ZERO`] is `⊥` (no value).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ballot {
    /// Consensus round.
    pub round: Round,
    /// Phase within the round.
    pub phase: Phase,
    /// Endorsed block hash (or `⊥`).
    pub value: Digest,
}

impl Ballot {
    /// Creates a ballot.
    pub fn new(round: Round, phase: Phase, value: Digest) -> Self {
        Ballot {
            round,
            phase,
            value,
        }
    }

    /// The vote payload a commit certificate for this ballot must carry.
    pub(crate) fn justifying_vote(&self) -> Ballot {
        Ballot::new(self.round, Phase::Vote, self.value)
    }
}

impl Signable for Ballot {
    fn domain(&self) -> &'static str {
        "prft/ballot"
    }

    fn slot(&self) -> Slot {
        Slot {
            round: self.round.0,
            phase: self.phase.slot_id(),
        }
    }

    fn signable_bytes(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.bytes(&self.value.0);
        e.into_bytes()
    }
}

/// A signed ballot.
pub type SignedBallot = Signed<Ballot>;

/// Evidence that one player double-signed in some slot.
pub type BallotEvidence = ConflictEvidence<Ballot>;

/// A set of signer ids, one bit per id.
///
/// Ids come out of [`KeyRegistry::trusted_setup`], so the largest one is
/// bounded by a committee somebody already allocated; insert-only, so two
/// equal sets are bit-equal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct SignerSet {
    words: Vec<u64>,
    len: usize,
}

impl SignerSet {
    /// Adds `id`; returns whether it was new.
    pub(crate) fn insert(&mut self, id: NodeId) -> bool {
        let (word, bit) = (id.0 / 64, 1u64 << (id.0 % 64));
        if self.words.len() <= word {
            self.words.resize(word + 1, 0);
        }
        let new = self.words[word] & bit == 0;
        self.words[word] |= bit;
        self.len += usize::from(new);
        new
    }

    /// Number of distinct ids.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Adds every id of `from` that `self` lacks, calling `f` with each
    /// one's rank in `from` (how many of `from`'s ids are smaller), in
    /// ascending id order. It reads `from` a word of 64 ids at a time, so
    /// the ids `self` already has cost nothing beyond their word.
    pub(crate) fn absorb(&mut self, from: &SignerSet, mut f: impl FnMut(usize)) {
        let mut below = 0;
        for (i, &theirs) in from.words.iter().enumerate() {
            let mut new = theirs & !self.words.get(i).copied().unwrap_or(0);
            if new != 0 {
                if self.words.len() <= i {
                    self.words.resize(i + 1, 0);
                }
                self.words[i] |= new;
                self.len += new.count_ones() as usize;
            }
            while new != 0 {
                let bit = new & new.wrapping_neg();
                f(below + (theirs & (bit - 1)).count_ones() as usize);
                new ^= bit;
            }
            below += theirs.count_ones() as usize;
        }
    }
}

/// The registry under which a certificate's commit ballot and every vote
/// verified, once one replica's walk found them all valid. Every replica
/// of a committee holds the same registry, so the other receivers of the
/// allocation need not hash one of its signatures again: see `VerifyCache`.
/// The clone pins the registry's seed table, so the address it is
/// recognised by cannot be reused.
#[derive(Clone, Default)]
struct CertProof(OnceLock<KeyRegistry>);

impl std::fmt::Debug for CertProof {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.get().is_some() {
            "proven"
        } else {
            "unproven"
        })
    }
}

/// A commit certificate: the signed commit ballot plus the `n − t0` vote
/// ballots that justify it (`⟨Commit, h*, s_pro, V_i, r⟩` in the paper).
///
/// Built only by [`CommitCert::new`], which derives once, at the sender,
/// what every receiver of the shared allocation would otherwise re-derive
/// from the votes. The summary is a function of `(commit, votes)`, and the
/// proof a receiver records is a fact about them: neither is wire data,
/// and neither takes part in byte accounting or in equality.
#[derive(Debug, Clone)]
pub struct CommitCert {
    commit: SignedBallot,
    votes: Vec<SignedBallot>,
    /// The signers of `votes`.
    signers: SignerSet,
    /// Whether every vote is a [`Phase::Vote`] ballot for the commit's
    /// round and value.
    uniform: bool,
    /// Whether the signer ids strictly ascend in vote order, as in every
    /// certificate a replica builds.
    ascending: bool,
    /// The votes' signer ids in vote order.
    vote_ids: Vec<NodeId>,
    proof: CertProof,
}

impl PartialEq for CommitCert {
    fn eq(&self, other: &CommitCert) -> bool {
        self.commit == other.commit && self.votes == other.votes
    }
}

impl Eq for CommitCert {}

impl CommitCert {
    /// A certificate of `commit` justified by `votes`.
    pub fn new(commit: SignedBallot, votes: Vec<SignedBallot>) -> CommitCert {
        let vote = commit.payload.justifying_vote();
        let mut signers = SignerSet::default();
        let mut uniform = true;
        for v in &votes {
            signers.insert(v.signer());
            uniform &= v.payload == vote;
        }
        let vote_ids: Vec<NodeId> = votes.iter().map(|v| v.signer()).collect();
        CommitCert {
            ascending: vote_ids.windows(2).all(|w| w[0] < w[1]),
            vote_ids,
            commit,
            votes,
            signers,
            uniform,
            proof: CertProof::default(),
        }
    }

    /// The commit ballot itself (phase = [`Phase::Commit`]).
    pub fn commit(&self) -> &SignedBallot {
        &self.commit
    }

    /// The vote certificate `V_i` (phase = [`Phase::Vote`], same value).
    pub fn votes(&self) -> &[SignedBallot] {
        &self.votes
    }

    pub(crate) fn signers(&self) -> &SignerSet {
        &self.signers
    }

    pub(crate) fn uniform(&self) -> bool {
        self.uniform
    }

    /// Adds to `held` the signers it lacks, calling `f` with the position
    /// of each one's first vote, in vote order. When the signer ids ascend,
    /// a vote's position is its signer's rank among [`Self::signers`], so
    /// only the signers `held` lacks are visited; otherwise the votes are
    /// read in order.
    pub(crate) fn absorb_signers(&self, held: &mut SignerSet, mut f: impl FnMut(usize)) {
        if self.ascending {
            held.absorb(&self.signers, f);
            return;
        }
        for (i, &id) in self.vote_ids.iter().enumerate() {
            if held.insert(id) {
                f(i);
            }
        }
    }

    /// Whether a walk found every signature valid under `registry`, on
    /// this allocation or on the one it was cloned from: the commit ballot
    /// is a [`Phase::Commit`] ballot, and every vote a [`Phase::Vote`]
    /// ballot for its round and value. The quorum is not part of it.
    pub(crate) fn proven(&self, registry: &KeyRegistry) -> bool {
        self.proof.0.get().is_some_and(|r| r.same(registry))
    }

    /// Records that every signature is valid under `registry`. The first
    /// record stays: a certificate has one registry in a run.
    pub(crate) fn prove(&self, registry: &KeyRegistry) {
        let _ = self.proof.0.set(registry.clone());
    }

    /// Validates internal consistency and signatures: the commit ballot is
    /// valid, and `votes` holds ≥ `quorum` valid vote ballots for the same
    /// round and value from distinct signers. (An empty-vote `⊥` commit is
    /// accepted with `quorum == 0`.)
    pub fn validate(&self, registry: &KeyRegistry, quorum: usize) -> bool {
        if self.commit.payload.phase != Phase::Commit || !self.commit.verify(registry) {
            return false;
        }
        let round = self.commit.payload.round;
        let value = self.commit.payload.value;
        let mut signers: Vec<NodeId> = Vec::with_capacity(self.votes.len());
        for v in &self.votes {
            if v.payload.phase != Phase::Vote
                || v.payload.round != round
                || v.payload.value != value
                || !v.verify(registry)
            {
                return false;
            }
            signers.push(v.signer());
        }
        signers.sort_unstable();
        signers.dedup();
        signers.len() >= quorum
    }

    /// Wire size: commit ballot + votes.
    pub fn wire_bytes(&self) -> usize {
        ballot_bytes() + self.votes.len() * ballot_bytes()
    }
}

/// A Reveal's `W_i`: the commit certificates it carries, and each one's
/// committer id, derived once at the sender like [`CommitCert`]'s summary
/// (not wire data). A receiver probes its certificate table by committer
/// and address without reading the certificates themselves.
#[derive(Debug, Clone)]
pub struct RevealSet {
    certs: Vec<Arc<CommitCert>>,
    /// The certificates' commit signers in order.
    committers: Vec<NodeId>,
}

impl RevealSet {
    /// The set of `certs`.
    pub fn new(certs: Vec<Arc<CommitCert>>) -> RevealSet {
        RevealSet {
            committers: certs.iter().map(|c| c.commit.signer()).collect(),
            certs,
        }
    }

    pub(crate) fn committers(&self) -> &[NodeId] {
        &self.committers
    }
}

impl std::ops::Deref for RevealSet {
    type Target = [Arc<CommitCert>];

    fn deref(&self) -> &[Arc<CommitCert>] {
        &self.certs
    }
}

/// Wire size of one signed ballot: value digest + slot + signature.
pub fn ballot_bytes() -> usize {
    Digest::LEN + 9 + KAPPA
}

/// View-change request payload: `⟨ViewChange, Phase, r⟩`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ViewChangeReq {
    /// Round being abandoned.
    pub round: Round,
    /// Phase in which the trigger fired.
    pub stuck_phase: Phase,
}

impl Signable for ViewChangeReq {
    fn domain(&self) -> &'static str {
        "prft/view-change"
    }

    fn slot(&self) -> Slot {
        Slot {
            round: self.round.0,
            phase: Phase::ViewChange.slot_id(),
        }
    }

    fn signable_bytes(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u8(self.stuck_phase.slot_id());
        e.into_bytes()
    }
}

/// Commit-view payload: `⟨CommitView, V_i, r⟩` (the certificate `V_i`
/// travels alongside; the signature covers the round and a digest of the
/// certificate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CommitViewContent {
    /// Round being abandoned.
    pub round: Round,
    /// Digest binding the view-change certificate.
    pub cert_digest: Digest,
}

impl Signable for CommitViewContent {
    fn domain(&self) -> &'static str {
        "prft/commit-view"
    }

    fn slot(&self) -> Slot {
        Slot {
            round: self.round.0,
            phase: Phase::CommitView.slot_id(),
        }
    }

    fn signable_bytes(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.bytes(&self.cert_digest.0);
        e.into_bytes()
    }
}

/// Digest binding a set of view-change requests into a commit-view.
pub fn view_change_cert_digest(reqs: &[Signed<ViewChangeReq>]) -> Digest {
    let mut e = Encoder::new();
    for r in reqs {
        e.u64(r.signer().0 as u64);
        e.u64(r.payload.round.0);
        e.u8(r.payload.stuck_phase.slot_id());
    }
    Digest::of_bytes(&e.into_bytes())
}

/// The pRFT wire message set (paper Figure 2b).
#[derive(Debug, Clone)]
pub enum PrftMsg {
    /// `(⟨Propose, B_l, h_l, r⟩, s_pro)`: the ballot's value is the block
    /// hash; the block travels alongside.
    Propose {
        /// Signed propose ballot (phase = [`Phase::Propose`]).
        ballot: SignedBallot,
        /// The proposed block.
        block: Block,
    },
    /// `(⟨Vote, h, s_pro, r⟩, s_vote)`: votes carry the leader's propose
    /// ballot `s_pro` when the voter has it. This is what lets *everyone*
    /// observe a leader's equivocation once votes cross the committee —
    /// the detection path the paper builds the view-change trigger
    /// "conflicting signatures on two different proposed values" on.
    Vote {
        /// Signed vote ballot.
        ballot: SignedBallot,
        /// The propose ballot being voted on (`s_pro`), if held.
        propose: Option<SignedBallot>,
    },
    /// `(⟨Commit, h*, s_pro, V_i, r⟩, s_com)`.
    ///
    /// The certificate body is `Arc`-shared: a broadcast clones an 8-byte
    /// handle per recipient instead of the O(q) vote vector, and every
    /// receiver holds the *same* allocation — which is also what lets the
    /// fast path recognize an already-validated certificate by pointer.
    Commit {
        /// The certificate (ballot + votes), shared across recipients.
        cert: Arc<CommitCert>,
    },
    /// `(⟨Reveal, h_tc, h_l, W_i, r⟩, s_rev)`: `W_i` is the set of commit
    /// certificates observed — this is what `ConstructProof` scans and what
    /// drives the `O(κ·n⁴)` aggregate message size.
    ///
    /// Doubly `Arc`-shared: the certificates inside are the same `Arc`s
    /// the Commit broadcasts delivered, and the whole `W_i` set is behind
    /// one more `Arc` so the n-recipient fan-out of an O(n²)-byte payload
    /// clones one handle, not q pointers (at n = 512 the inner vector
    /// alone is ~3 KB × n² messages in flight).
    Reveal {
        /// Signed reveal ballot.
        ballot: SignedBallot,
        /// The commit certificates `W_i`, shared across recipients.
        certs: Arc<RevealSet>,
    },
    /// `(⟨Expose, D_i, r⟩, s_exp)`: a Proof-of-Fraud naming > t0 players.
    Expose {
        /// Round in which fraud was detected.
        round: Round,
        /// The accusing player.
        accuser: NodeId,
        /// One evidence pair per accused player.
        evidence: Vec<BallotEvidence>,
    },
    /// `(⟨Final, h_l, s_pro⟩, s_fin)`.
    Final {
        /// Signed final ballot.
        ballot: SignedBallot,
    },
    /// `(⟨ViewChange, Phase, r⟩, s_vc)`.
    ViewChange {
        /// Signed request.
        req: Signed<ViewChangeReq>,
    },
    /// `(⟨CommitView, V_i, r⟩, s_cv)`: carries `n − t0` view-change
    /// requests.
    CommitView {
        /// The signed commit-view announcement.
        cv: Signed<CommitViewContent>,
        /// The view-change certificate `V_i`.
        reqs: Vec<Signed<ViewChangeReq>>,
    },
    /// Recovery addition (not in the paper, which does not model crash
    /// recovery): a replica that cannot connect a current proposal to its
    /// chain asks its peers to re-send the finalized history. Replies are
    /// rate-limited; the message is unauthenticated because the worst a
    /// forger achieves is extra helpful traffic.
    SyncRequest {
        /// The requester's current round (for bookkeeping only).
        round: Round,
    },
    /// Workload addition (not in the paper, which models no demand side):
    /// a client submits a transaction to one replica's mempool. Handled
    /// round-independently, like [`PrftMsg::SyncRequest`]; unauthenticated
    /// because a forged submission is just load.
    Submit {
        /// The transaction; `tx.sender` names the submitting client.
        tx: Transaction,
    },
    /// Workload addition: a replica acknowledges that a client-submitted
    /// transaction reached a **finalized** block. Only replicas that were
    /// submission targets (their mempool ever saw the tx) reply, so the
    /// ack fan-in is bounded by the client's retry spread, not `n`.
    TxCommitted {
        /// Id of the finalized transaction.
        id: TxId,
    },
    /// Workload addition: a replica refuses a submission because its
    /// bounded mempool is at capacity — the backpressure signal a client's
    /// retry policy reacts to (requeue with backoff, or drop).
    TxRejected {
        /// Id of the rejected transaction.
        id: TxId,
    },
}

impl WireMessage for PrftMsg {
    fn kind(&self) -> &'static str {
        match self {
            PrftMsg::Propose { .. } => "Propose",
            PrftMsg::Vote { .. } => "Vote",
            PrftMsg::Commit { .. } => "Commit",
            PrftMsg::Reveal { .. } => "Reveal",
            PrftMsg::Expose { .. } => "Expose",
            PrftMsg::Final { .. } => "Final",
            PrftMsg::ViewChange { .. } => "ViewChange",
            PrftMsg::CommitView { .. } => "CommitView",
            PrftMsg::SyncRequest { .. } => "SyncRequest",
            PrftMsg::Submit { .. } => "Submit",
            PrftMsg::TxCommitted { .. } => "TxCommitted",
            PrftMsg::TxRejected { .. } => "TxRejected",
        }
    }

    fn wire_bytes(&self) -> usize {
        match self {
            PrftMsg::Propose { block, .. } => ballot_bytes() + block.wire_bytes(),
            PrftMsg::Vote { propose, .. } => {
                ballot_bytes() + propose.as_ref().map_or(0, |_| ballot_bytes())
            }
            PrftMsg::Commit { cert } => cert.wire_bytes(),
            PrftMsg::Reveal { certs, .. } => {
                ballot_bytes() + certs.iter().map(|c| c.wire_bytes()).sum::<usize>()
            }
            PrftMsg::Expose { evidence, .. } => 8 + 8 + evidence.len() * 2 * ballot_bytes(),
            PrftMsg::Final { .. } => ballot_bytes(),
            PrftMsg::ViewChange { .. } => 9 + KAPPA,
            PrftMsg::CommitView { reqs, .. } => Digest::LEN + 8 + KAPPA + reqs.len() * (9 + KAPPA),
            PrftMsg::SyncRequest { .. } => 8,
            PrftMsg::Submit { tx } => tx.wire_bytes(),
            // Tx id plus a one-byte verdict tag.
            PrftMsg::TxCommitted { .. } | PrftMsg::TxRejected { .. } => 9,
        }
    }

    fn clone_cost_bytes(&self) -> usize {
        // The `Arc`-shared certificate bodies clone as one 8-byte handle
        // per shared allocation, and a proposal as its ballot and block
        // header (the batch is a shared handle too, uncounted like the
        // `Vec` header it replaced); everything else copies its wire size.
        // Wire accounting (`send.*`/`recv.*`, the paper's O(κ·n⁴) Table 3
        // figures) still uses `wire_bytes` — this only changes what the
        // broadcast fan-out *memcpy* costs, which is what the
        // `engine.clone_bytes` counter exists to measure.
        match self {
            PrftMsg::Propose { .. } => ballot_bytes() + Block::HEADER_WIRE_BYTES,
            PrftMsg::Commit { .. } => 8,
            PrftMsg::Reveal { .. } => ballot_bytes() + 8,
            other => other.wire_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prft_crypto::KeyRegistry;

    fn setup(n: usize) -> (KeyRegistry, Vec<prft_crypto::SecretKey>) {
        KeyRegistry::trusted_setup(n, 7)
    }

    fn ballot(round: u64, phase: Phase, tag: u8) -> Ballot {
        Ballot::new(Round(round), phase, Digest::of_bytes(&[tag]))
    }

    /// Whether `set` holds `id`: inserting it again adds nothing.
    fn has(set: &SignerSet, id: NodeId) -> bool {
        !set.clone().insert(id)
    }

    #[test]
    fn ballots_conflict_only_within_slot() {
        let (_, keys) = setup(2);
        let a = Signed::sign(ballot(1, Phase::Vote, 1), &keys[0]);
        let b = Signed::sign(ballot(1, Phase::Vote, 2), &keys[0]);
        let c = Signed::sign(ballot(1, Phase::Commit, 2), &keys[0]);
        let d = Signed::sign(ballot(2, Phase::Vote, 2), &keys[0]);
        assert!(ConflictEvidence::try_new(a.clone(), b).is_some());
        assert!(
            ConflictEvidence::try_new(a.clone(), c).is_none(),
            "cross-phase"
        );
        assert!(ConflictEvidence::try_new(a, d).is_none(), "cross-round");
    }

    #[test]
    fn commit_cert_validates_quorum() {
        let (reg, keys) = setup(4);
        let value = Digest::of_bytes(b"block");
        let votes: Vec<SignedBallot> = keys
            .iter()
            .take(3)
            .map(|k| Signed::sign(Ballot::new(Round(1), Phase::Vote, value), k))
            .collect();
        let commit = Signed::sign(Ballot::new(Round(1), Phase::Commit, value), &keys[0]);
        let cert = CommitCert::new(commit, votes);
        assert!(cert.validate(&reg, 3));
        assert!(!cert.validate(&reg, 4), "not enough votes for quorum 4");
    }

    #[test]
    fn commit_cert_rejects_mixed_values() {
        let (reg, keys) = setup(3);
        let va = Digest::of_bytes(b"a");
        let vb = Digest::of_bytes(b"b");
        let votes = vec![
            Signed::sign(Ballot::new(Round(1), Phase::Vote, va), &keys[0]),
            Signed::sign(Ballot::new(Round(1), Phase::Vote, vb), &keys[1]),
        ];
        let commit = Signed::sign(Ballot::new(Round(1), Phase::Commit, va), &keys[0]);
        assert!(!CommitCert::new(commit, votes).validate(&reg, 2));
    }

    #[test]
    fn commit_cert_rejects_duplicate_signers() {
        let (reg, keys) = setup(3);
        let v = Digest::of_bytes(b"a");
        let vote = Signed::sign(Ballot::new(Round(1), Phase::Vote, v), &keys[0]);
        let votes = vec![vote.clone(), vote];
        let commit = Signed::sign(Ballot::new(Round(1), Phase::Commit, v), &keys[1]);
        assert!(!CommitCert::new(commit, votes).validate(&reg, 2));
    }

    #[test]
    fn commit_cert_rejects_wrong_round_votes() {
        let (reg, keys) = setup(3);
        let v = Digest::of_bytes(b"a");
        let votes = vec![Signed::sign(
            Ballot::new(Round(2), Phase::Vote, v),
            &keys[0],
        )];
        let commit = Signed::sign(Ballot::new(Round(1), Phase::Commit, v), &keys[1]);
        assert!(!CommitCert::new(commit, votes).validate(&reg, 1));
    }

    #[test]
    fn bottom_commit_cert_is_valid_with_zero_quorum() {
        let (reg, keys) = setup(2);
        let commit = Signed::sign(Ballot::new(Round(1), Phase::Commit, Digest::ZERO), &keys[0]);
        let cert = CommitCert::new(commit, vec![]);
        assert!(cert.validate(&reg, 0));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// What `CommitCert::new` derives is what a receiver reading the
        /// votes one by one would: the set of their signers (duplicates
        /// once), whether all of them are votes for the commit's round
        /// and value, and their signer ids and tags in vote order. `picks`
        /// chooses each vote's signer, and — rarely — one field to get
        /// wrong.
        #[test]
        fn the_certificate_summary_matches_its_definition(
            picks in proptest::collection::vec((0usize..70, 0u8..16), 0..40),
            other_picks in proptest::collection::vec(0usize..70, 0..40),
        ) {
            let (_, keys) = setup(70);
            let value = Digest::of_bytes(b"v");
            let votes: Vec<SignedBallot> = picks
                .iter()
                .map(|&(signer, wrong)| {
                    let b = match wrong {
                        0 => ballot(2, Phase::Vote, b'v'),
                        1 => ballot(1, Phase::Commit, b'v'),
                        2 => ballot(1, Phase::Vote, b'w'),
                        _ => Ballot::new(Round(1), Phase::Vote, value),
                    };
                    Signed::sign(b, &keys[signer])
                })
                .collect();
            let commit = Signed::sign(Ballot::new(Round(1), Phase::Commit, value), &keys[0]);
            let cert = CommitCert::new(commit, votes.clone());

            let distinct: std::collections::BTreeSet<NodeId> =
                votes.iter().map(|v| v.signer()).collect();
            proptest::prop_assert_eq!(cert.signers().len(), distinct.len());
            let mut again = cert.signers().clone();
            for id in (0..70).map(NodeId) {
                proptest::prop_assert_eq!(!again.insert(id), distinct.contains(&id));
            }
            let uniform = picks.iter().all(|&(_, wrong)| wrong > 2);
            proptest::prop_assert_eq!(cert.uniform(), uniform);
            let signers: Vec<NodeId> = picks.iter().map(|&(signer, _)| NodeId(signer)).collect();
            proptest::prop_assert_eq!(&cert.vote_ids, &signers);

            let mut other = SignerSet::default();
            for &id in &other_picks {
                other.insert(NodeId(id));
            }
            for id in (0..70).map(NodeId) {
                proptest::prop_assert_eq!(has(&other, id), other_picks.contains(&id.0));
            }
            // Absorbing names the first vote of each signer `other` lacks,
            // in vote order, whether the ids ascend (a word-wise difference
            // of the sets) or not (a read of the votes).
            let sorted: Vec<SignedBallot> = distinct
                .iter()
                .map(|id| Signed::sign(Ballot::new(Round(1), Phase::Vote, value), &keys[id.0]))
                .collect();
            let commit = cert.commit().clone();
            for cert in [cert, CommitCert::new(commit, sorted)] {
                let ids = cert.vote_ids.clone();
                let lacking: Vec<usize> = (0..ids.len())
                    .filter(|&i| !ids[..i].contains(&ids[i]) && !has(&other, ids[i]))
                    .collect();
                let mut held = other.clone();
                let mut named = Vec::new();
                cert.absorb_signers(&mut held, |i| named.push(i));
                proptest::prop_assert_eq!(&named, &lacking);
                for id in (0..70).map(NodeId) {
                    proptest::prop_assert_eq!(
                        has(&held, id),
                        has(&other, id) || distinct.contains(&id)
                    );
                }
                proptest::prop_assert_eq!(held.len(), other.len() + lacking.len());
            }
        }

        /// A Reveal set is its certificates, the same allocations in the
        /// same order, and names each one's committer.
        #[test]
        fn the_reveal_set_names_each_certificates_committer(
            committers in proptest::collection::vec(0usize..70, 0..40),
        ) {
            let (_, keys) = setup(70);
            let value = Digest::of_bytes(b"v");
            let certs: Vec<Arc<CommitCert>> = committers
                .iter()
                .map(|&who| {
                    let commit = Signed::sign(Ballot::new(Round(1), Phase::Commit, value), &keys[who]);
                    Arc::new(CommitCert::new(commit, vec![]))
                })
                .collect();
            let set = RevealSet::new(certs.clone());
            proptest::prop_assert_eq!(set.len(), certs.len());
            for (i, cert) in certs.iter().enumerate() {
                proptest::prop_assert!(Arc::ptr_eq(&set[i], cert));
                proptest::prop_assert_eq!(set.committers()[i], NodeId(committers[i]));
            }
            proptest::prop_assert_eq!(set.committers().len(), certs.len());
        }
    }

    #[test]
    fn wire_sizes_scale_with_certificates() {
        let (_, keys) = setup(4);
        let value = Digest::of_bytes(b"x");
        let votes: Vec<SignedBallot> = keys
            .iter()
            .map(|k| Signed::sign(Ballot::new(Round(1), Phase::Vote, value), k))
            .collect();
        let commit = Signed::sign(Ballot::new(Round(1), Phase::Commit, value), &keys[0]);
        let cert = CommitCert::new(commit.clone(), votes);
        let vote_msg = PrftMsg::Vote {
            ballot: commit.clone(),
            propose: None,
        };
        let cert = Arc::new(cert);
        let commit_msg = PrftMsg::Commit {
            cert: Arc::clone(&cert),
        };
        let reveal_msg = PrftMsg::Reveal {
            ballot: commit,
            certs: Arc::new(RevealSet::new(vec![Arc::clone(&cert), cert])),
        };
        assert!(vote_msg.wire_bytes() < commit_msg.wire_bytes());
        assert!(commit_msg.wire_bytes() < reveal_msg.wire_bytes());
        // Reveal ≈ 2 commits: the O(n) nesting that yields κ·n⁴ aggregate.
        assert!(reveal_msg.wire_bytes() > 2 * commit_msg.wire_bytes());
        // Fan-out clones move Arc handles, not certificate bodies.
        assert_eq!(commit_msg.clone_cost_bytes(), 8);
        assert_eq!(reveal_msg.clone_cost_bytes(), ballot_bytes() + 8);
        assert_eq!(vote_msg.clone_cost_bytes(), vote_msg.wire_bytes());
    }

    #[test]
    fn a_proposal_clones_its_header_not_its_batch() {
        let (_, keys) = setup(1);
        let propose = |txs: u64| {
            let txs = (0..txs)
                .map(|i| Transaction::new(i, NodeId(1), vec![0; 64]))
                .collect();
            let block = Block::new(Round(1), Digest::ZERO, NodeId(0), txs);
            let ballot = Signed::sign(Ballot::new(Round(1), Phase::Propose, block.id()), &keys[0]);
            PrftMsg::Propose { ballot, block }
        };
        let (empty, full) = (propose(0), propose(512));
        // The charge of an empty block is what it was when the whole wire
        // size was charged; a full batch adds nothing to it.
        assert_eq!(empty.clone_cost_bytes(), empty.wire_bytes());
        assert_eq!(empty.clone_cost_bytes(), ballot_bytes() + 48);
        assert_eq!(full.clone_cost_bytes(), empty.clone_cost_bytes());
        // The wire still carries every transaction.
        assert_eq!(full.wire_bytes(), empty.wire_bytes() + 512 * (16 + 64));
    }

    #[test]
    fn message_kinds_match_figure_2b() {
        let (_, keys) = setup(1);
        let b = Signed::sign(ballot(0, Phase::Final, 1), &keys[0]);
        assert_eq!(PrftMsg::Final { ballot: b }.kind(), "Final");
    }

    /// Every event of every run moves one `PrftMsg` through the queue and
    /// the arena, so its size is a cost on all workloads (`Vote` sets it).
    /// A `Block` that cached its digest would make it 192.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn the_wire_type_is_176_bytes() {
        assert_eq!(std::mem::size_of::<PrftMsg>(), 176);
    }
}
