//! Proof-of-Fraud construction (paper Figure 4, `ConstructProof`).
//!
//! During the Reveal phase each player holds a matrix `M` of signed ballots:
//! rows are revealers, entries are the commit (and nested vote) ballots from
//! their certificates. `ConstructProof` scans for players who signed two
//! different values in the same (round, phase) slot and assembles one
//! [`BallotEvidence`] pair per guilty player.

use crate::messages::{Ballot, BallotEvidence, Phase, SignedBallot};
use prft_crypto::{ConflictEvidence, KeyRegistry, Signature, Signed};
use prft_types::{Digest, NodeId, Round};
use std::collections::HashMap;
use std::num::NonZeroU32;

/// A signer's first ballot in a slot, less what every ballot of the slot
/// shares: its value, as a 1-based index into [`SlotTable::values`], and
/// its signature.
type FirstSight = Option<(NonZeroU32, Signature)>;

/// The first ballot of each signer in one (round, phase) slot.
#[derive(Debug, Clone)]
struct SlotTable {
    round: Round,
    phase: Phase,
    /// The distinct values signed in the slot, in the order first seen.
    values: Vec<Digest>,
    /// By signer id: the detector's capacity, or up to the largest signer
    /// seen in the slot where that is more.
    first: Vec<FirstSight>,
}

impl SlotTable {
    /// The index [`SlotTable::first`] stores for `value`, listing it if
    /// the slot has not seen it. Honest traffic signs one value a slot and
    /// an equivocator adds a second, so the scan starts at the newest.
    /// Only a first sight lists a value, so the list is never longer than
    /// the table.
    fn index_of(&mut self, value: Digest) -> NonZeroU32 {
        let at = self.values.iter().rposition(|v| *v == value);
        let at = at.unwrap_or_else(|| {
            self.values.push(value);
            self.values.len() - 1
        });
        let index = u32::try_from(at + 1).ok().and_then(NonZeroU32::new);
        index.expect("a slot lists at most one value per signer id")
    }

    /// The value stored under `index`.
    fn value(&self, index: NonZeroU32) -> Digest {
        self.values[index.get() as usize - 1]
    }

    /// The ballot a stored first sight was made from.
    fn ballot(&self, (index, sig): (NonZeroU32, Signature)) -> SignedBallot {
        Signed {
            payload: Ballot::new(self.round, self.phase, self.value(index)),
            sig,
        }
    }
}

/// Incremental double-sign detector.
///
/// Feed it every signed ballot observed on the wire; it remembers the first
/// ballot per (signer, slot) and yields evidence the moment a conflicting
/// one arrives. Detection is O(1) amortized per ballot — the quadratic scan
/// of the paper's Figure 4 pseudocode is realized as this index.
///
/// Each slot's first ballots sit in a dense table indexed by signer id. A
/// table starts at the detector's capacity and grows to the largest id it
/// holds — like a certificate's `SignerSet`, it assumes ids bounded by a
/// committee. An entry is a signature and the index of its value in the
/// slot's list of distinct values: every ballot of a slot has the slot's
/// round and phase, so the first ballot is rebuilt from the two only when
/// a conflict makes evidence of it. A replica's detector lives for one
/// round, so it holds a handful of tables.
#[derive(Debug, Default, Clone)]
pub struct FraudDetector {
    /// The length a new table starts at.
    capacity: usize,
    /// Oldest first, so a lookup scans from the newest end.
    tables: Vec<SlotTable>,
    evidence: HashMap<NodeId, BallotEvidence>,
}

impl FraudDetector {
    /// Creates an empty detector.
    pub fn new() -> Self {
        FraudDetector::default()
    }

    /// Creates an empty detector whose tables start with a place for the
    /// signers `0..n`, so a committee of `n` never grows one.
    pub fn with_capacity(n: usize) -> Self {
        FraudDetector {
            capacity: n,
            ..FraudDetector::default()
        }
    }

    /// Observes a ballot. Returns new evidence if this ballot convicts a
    /// player not previously convicted.
    ///
    /// The caller is responsible for having verified the signature (the
    /// replica validates everything at ingress); evidence assembled here is
    /// re-verified by every receiver of an `Expose` anyway.
    pub fn observe(&mut self, ballot: &SignedBallot) -> Option<BallotEvidence> {
        let signer = ballot.signer();
        let Ballot {
            round,
            phase,
            value,
        } = ballot.payload;
        let at = self
            .tables
            .iter()
            .rposition(|t| t.round == round && t.phase == phase);
        let at = at.unwrap_or_else(|| {
            self.tables.push(SlotTable {
                round,
                phase,
                values: Vec::new(),
                first: vec![None; self.capacity],
            });
            self.tables.len() - 1
        });
        let table = &mut self.tables[at];
        if table.first.len() <= signer.0 {
            table.first.resize(signer.0 + 1, None);
        }
        let Some(first) = table.first[signer.0] else {
            // A first sight is its own first ballot: it conflicts with nothing.
            table.first[signer.0] = Some((table.index_of(value), ballot.sig));
            return None;
        };
        if table.value(first.0) == value || self.evidence.contains_key(&signer) {
            return None; // or already convicted: one pair suffices
        }
        let ev = ConflictEvidence::try_new(table.ballot(first), ballot.clone())
            .expect("same signer+slot, different payload");
        self.evidence.insert(signer, ev.clone());
        Some(ev)
    }

    /// Number of distinct players with evidence against them (`|D_i|`).
    pub fn convicted_count(&self) -> usize {
        self.evidence.len()
    }

    /// The accused players, sorted.
    pub fn convicted(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.evidence.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// All evidence pairs, sorted by accused player (the `D_i` set of the
    /// paper, ready for an `Expose` broadcast).
    pub fn evidence(&self) -> Vec<BallotEvidence> {
        let mut v: Vec<BallotEvidence> = self.evidence.values().cloned().collect();
        v.sort_by_key(ConflictEvidence::accused);
        v
    }
}

/// The paper's batch `ConstructProof(M, t0)`: scan a whole collection of
/// ballots and return one evidence pair per double-signer.
pub fn construct_proof<'a>(
    ballots: impl IntoIterator<Item = &'a SignedBallot>,
) -> Vec<BallotEvidence> {
    let mut det = FraudDetector::new();
    for b in ballots {
        det.observe(b);
    }
    det.evidence()
}

/// The verification algorithm `V(π)` of Definition 6 applied to an `Expose`
/// under `registry` (a seat checks through its `VerifyCache` instead): if
/// more than `t0` distinct players are implicated by pairs that verify,
/// returns the convicted players in id order, each with its pair.
pub fn verify_expose<'a>(
    evidence: &'a [BallotEvidence],
    registry: &KeyRegistry,
    t0: usize,
) -> Option<Vec<(NodeId, &'a BallotEvidence)>> {
    prft_crypto::verify_pof(evidence, t0, |signed| signed.verify(registry))
}

/// Convenience for tests and experiments: a signed ballot.
pub fn signed_ballot(
    key: &prft_crypto::SecretKey,
    round: Round,
    phase: Phase,
    value: Digest,
) -> SignedBallot {
    prft_crypto::Signed::sign(Ballot::new(round, phase, value), key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::Phase;
    use prft_crypto::{KeyRegistry, Slot};

    fn setup(n: usize) -> (KeyRegistry, Vec<prft_crypto::SecretKey>) {
        KeyRegistry::trusted_setup(n, 3)
    }

    fn value(tag: u8) -> Digest {
        Digest::of_bytes(&[tag])
    }

    #[test]
    fn a_first_sighting_is_at_most_48_bytes() {
        assert!(std::mem::size_of::<FirstSight>() <= 48);
    }

    #[test]
    fn detector_finds_double_sign() {
        let (_, keys) = setup(2);
        let mut det = FraudDetector::new();
        let a = signed_ballot(&keys[1], Round(1), Phase::Commit, value(1));
        let b = signed_ballot(&keys[1], Round(1), Phase::Commit, value(2));
        assert!(det.observe(&a).is_none());
        let ev = det.observe(&b).expect("conviction");
        assert_eq!(ev.accused(), NodeId(1));
        assert_eq!(det.convicted_count(), 1);
    }

    #[test]
    fn detector_ignores_duplicates_and_distinct_slots() {
        let (_, keys) = setup(1);
        let mut det = FraudDetector::new();
        let a = signed_ballot(&keys[0], Round(1), Phase::Vote, value(1));
        assert!(det.observe(&a).is_none());
        assert!(det.observe(&a).is_none(), "same ballot twice is fine");
        let other_round = signed_ballot(&keys[0], Round(2), Phase::Vote, value(2));
        assert!(det.observe(&other_round).is_none(), "different slot");
        let other_phase = signed_ballot(&keys[0], Round(1), Phase::Commit, value(2));
        assert!(det.observe(&other_phase).is_none(), "different phase");
        assert_eq!(det.convicted_count(), 0);
    }

    #[test]
    fn one_pair_per_player() {
        let (_, keys) = setup(1);
        let mut det = FraudDetector::new();
        det.observe(&signed_ballot(&keys[0], Round(1), Phase::Vote, value(1)));
        assert!(det
            .observe(&signed_ballot(&keys[0], Round(1), Phase::Vote, value(2)))
            .is_some());
        assert!(
            det.observe(&signed_ballot(&keys[0], Round(1), Phase::Vote, value(3)))
                .is_none(),
            "third conflicting ballot adds no new conviction"
        );
        assert_eq!(det.evidence().len(), 1);
    }

    #[test]
    fn construct_proof_matches_figure_4() {
        // Players 0 and 2 double-sign; player 1 is honest.
        let (_, keys) = setup(3);
        let ballots = vec![
            signed_ballot(&keys[0], Round(5), Phase::Commit, value(1)),
            signed_ballot(&keys[1], Round(5), Phase::Commit, value(1)),
            signed_ballot(&keys[2], Round(5), Phase::Commit, value(1)),
            signed_ballot(&keys[0], Round(5), Phase::Commit, value(2)),
            signed_ballot(&keys[2], Round(5), Phase::Commit, value(2)),
        ];
        let proof = construct_proof(&ballots);
        let accused: Vec<NodeId> = proof.iter().map(|e| e.accused()).collect();
        assert_eq!(accused, vec![NodeId(0), NodeId(2)]);
    }

    #[test]
    fn honest_player_never_framed() {
        let (reg, keys) = setup(2);
        // Adversary replays player 0's ballot and a tampered variant.
        let honest = signed_ballot(&keys[0], Round(1), Phase::Vote, value(1));
        let mut forged = honest.clone();
        forged.payload.value = value(2);
        let mut det = FraudDetector::new();
        det.observe(&honest);
        let ev = det.observe(&forged);
        // The detector (which trusts ingress validation) may pair them, but
        // verification against the registry must fail — the forged ballot's
        // signature is invalid.
        if let Some(ev) = ev {
            assert_eq!(ev.verify(&reg), None);
        }
        assert!(verify_expose(&det.evidence(), &reg, 0).is_none());
    }

    /// The detector's definition, keyed the obvious way: the first ballot
    /// per (signer, slot), and one evidence pair per signer, made by the
    /// first ballot that conflicts with its slot's first.
    #[derive(Default)]
    struct Oracle {
        first_seen: HashMap<(NodeId, Slot), SignedBallot>,
        evidence: HashMap<NodeId, BallotEvidence>,
    }

    impl Oracle {
        fn observe(&mut self, ballot: &SignedBallot) -> Option<BallotEvidence> {
            let signer = ballot.signer();
            let first = self
                .first_seen
                .entry((signer, ballot.slot()))
                .or_insert_with(|| ballot.clone());
            if first.payload == ballot.payload || self.evidence.contains_key(&signer) {
                return None;
            }
            let ev = ConflictEvidence::try_new(first.clone(), ballot.clone())?;
            self.evidence.insert(signer, ev.clone());
            Some(ev)
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The dense detector is its definition: on a stream of repeats
        /// and equivocations over several rounds and phases, by signers
        /// inside the capacity and past it (so a slot's table grows past
        /// ballots it already holds), every `observe` answers what the
        /// oracle answers, and so do `convicted` and `evidence` at the end.
        /// The stream opens on one slot where most signers share the first
        /// value and the conflicts name first ballots of the slot's second
        /// and third values, so a rebuilt first ballot that took another
        /// value's place, round or phase differs from the oracle's stored
        /// one.
        #[test]
        fn the_dense_detector_matches_its_definition(
            n in 0usize..9,
            stream in proptest::collection::vec((0usize..12, 0u64..3, 0u8..4, 0u8..3), 0..120),
        ) {
            let (_, keys) = setup(12);
            let phases = [Phase::Propose, Phase::Vote, Phase::Commit, Phase::Reveal];
            let mut det = FraudDetector::with_capacity(n);
            let mut oracle = Oracle::default();
            let shared = (0..8).map(|signer| (signer, 1, 2, 0));
            let second = (8..12).map(|signer| (signer, 1, 2, 1));
            let conflicts = [(9, 1, 2, 0), (10, 1, 2, 2), (3, 1, 2, 2)];
            let prelude: Vec<_> = shared.chain(second).chain(conflicts).collect();
            for &(signer, round, phase, v) in prelude.iter().chain(&stream) {
                let ballot = signed_ballot(&keys[signer], Round(round), phases[phase as usize], value(v));
                proptest::prop_assert_eq!(det.observe(&ballot), oracle.observe(&ballot));
            }
            let mut convicted: Vec<NodeId> = oracle.evidence.keys().copied().collect();
            convicted.sort_unstable();
            proptest::prop_assert_eq!(det.convicted(), convicted);
            let mut evidence: Vec<BallotEvidence> = oracle.evidence.into_values().collect();
            evidence.sort_by_key(ConflictEvidence::accused);
            proptest::prop_assert_eq!(det.evidence(), evidence);
        }
    }

    #[test]
    fn verify_expose_needs_more_than_t0() {
        let (reg, keys) = setup(4);
        let pair = |i: usize| {
            let mut det = FraudDetector::new();
            det.observe(&signed_ballot(&keys[i], Round(1), Phase::Commit, value(1)));
            det.observe(&signed_ballot(&keys[i], Round(1), Phase::Commit, value(2)))
                .unwrap()
        };
        let t0 = 1;
        assert!(verify_expose(&[pair(0)], &reg, t0).is_none());
        let pairs = [pair(0), pair(1)];
        let out = verify_expose(&pairs, &reg, t0).unwrap();
        assert_eq!(out, vec![(NodeId(0), &pairs[0]), (NodeId(1), &pairs[1])]);
    }
}
