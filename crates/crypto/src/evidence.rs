//! Double-signature evidence: the atom of Proof-of-Fraud.
//!
//! The paper's PoF (Section 5.3.1, Definition 6) is a set of ≥ `t0 + 1`
//! conflicting-signature pairs; a verification algorithm `V(π)` outputs the
//! guilty players. [`ConflictEvidence`] is one such pair, self-verifying
//! against the [`KeyRegistry`]: the penalty mechanism must never punish an
//! honest player (footnote 9), so verification is strict.

use crate::{KeyRegistry, Signable, Signed, KAPPA};
use prft_types::NodeId;

/// Two signed payloads by the same signer, in the same slot, with different
/// content: irrefutable evidence of `π_ds` (double-signing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictEvidence<T> {
    /// First signed payload.
    pub first: Signed<T>,
    /// Second, conflicting, signed payload.
    pub second: Signed<T>,
}

impl<T: Signable + PartialEq> ConflictEvidence<T> {
    /// Assembles evidence from two signed payloads if they actually conflict
    /// (same signer, same slot, different payload). Returns `None` otherwise.
    pub fn try_new(a: Signed<T>, b: Signed<T>) -> Option<ConflictEvidence<T>> {
        if a.signer() == b.signer() && a.slot() == b.slot() && a.payload != b.payload {
            Some(ConflictEvidence {
                first: a,
                second: b,
            })
        } else {
            None
        }
    }

    /// The accused player.
    pub fn accused(&self) -> NodeId {
        self.first.signer()
    }

    /// The verification algorithm `V(π)` for a single pair: checks both
    /// signatures, signer identity, slot equality, and payload conflict.
    /// Returns the guilty player on success.
    ///
    /// Honest players can never be convicted: producing two *valid*
    /// signatures for one identity requires that identity's secret key.
    pub fn verify(&self, registry: &KeyRegistry) -> Option<NodeId> {
        self.convicts(|signed| signed.verify(registry))
    }

    /// [`Self::verify`] without counting toward `crypto.sig_verifies`:
    /// for audits of a finished run, which must not move its counters.
    pub fn audit(&self, registry: &KeyRegistry) -> Option<NodeId> {
        self.convicts(|signed| signed.audit(registry))
    }

    /// The accused, if the pair conflicts and `valid` passes both signatures.
    pub fn convicts(&self, mut valid: impl FnMut(&Signed<T>) -> bool) -> Option<NodeId> {
        let same_signer = self.first.signer() == self.second.signer();
        let same_slot = self.first.slot() == self.second.slot();
        let conflicting = self.first.payload != self.second.payload;
        (same_signer && same_slot && conflicting && valid(&self.first) && valid(&self.second))
            .then(|| self.first.signer())
    }

    /// Wire size: two signed payloads.
    pub fn wire_bytes(&self) -> usize {
        self.first.wire_bytes() + self.second.wire_bytes()
    }
}

/// Verifies a full Proof-of-Fraud, each signature by `valid`: the pairs must
/// convict at least `t0 + 1` *distinct* players to justify an `Expose` (paper,
/// Reveal phase: `|D_i| > t0`). If the bar is met, returns the convicted
/// players in id order, each with the first pair in `evidence` convicting it.
pub fn verify_pof<T: Signable + PartialEq>(
    evidence: &[ConflictEvidence<T>],
    t0: usize,
    mut valid: impl FnMut(&Signed<T>) -> bool,
) -> Option<Vec<(NodeId, &ConflictEvidence<T>)>> {
    let mut guilty: Vec<_> = evidence
        .iter()
        .filter_map(|e| Some((e.convicts(&mut valid)?, e)))
        .collect();
    guilty.sort_by_key(|&(id, _)| id);
    guilty.dedup_by_key(|&mut (id, _)| id);
    (guilty.len() > t0).then_some(guilty)
}

/// Wire size of a PoF set.
pub fn pof_wire_bytes<T: Signable + PartialEq>(evidence: &[ConflictEvidence<T>]) -> usize {
    evidence
        .iter()
        .map(ConflictEvidence::wire_bytes)
        .sum::<usize>()
        .max(KAPPA)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Slot;
    use prft_types::Encoder;

    #[derive(Clone, PartialEq, Eq, Debug)]
    struct Ballot {
        round: u64,
        value: u64,
    }

    impl Signable for Ballot {
        fn domain(&self) -> &'static str {
            "Ballot"
        }
        fn slot(&self) -> Slot {
            Slot {
                round: self.round,
                phase: 2,
            }
        }
        fn signable_bytes(&self) -> Vec<u8> {
            let mut e = Encoder::new();
            e.u64(self.value);
            e.into_bytes()
        }
    }

    #[test]
    fn conflicting_pair_convicts() {
        let (reg, keys) = KeyRegistry::trusted_setup(3, 9);
        let a = Signed::sign(Ballot { round: 1, value: 1 }, &keys[2]);
        let b = Signed::sign(Ballot { round: 1, value: 2 }, &keys[2]);
        let ev = ConflictEvidence::try_new(a, b).expect("conflict");
        assert_eq!(ev.verify(&reg), Some(NodeId(2)));
        assert_eq!(ev.accused(), NodeId(2));
    }

    #[test]
    fn same_payload_is_not_conflict() {
        let (_, keys) = KeyRegistry::trusted_setup(1, 9);
        let a = Signed::sign(Ballot { round: 1, value: 1 }, &keys[0]);
        let b = Signed::sign(Ballot { round: 1, value: 1 }, &keys[0]);
        assert!(ConflictEvidence::try_new(a, b).is_none());
    }

    #[test]
    fn different_rounds_are_not_conflict() {
        let (_, keys) = KeyRegistry::trusted_setup(1, 9);
        let a = Signed::sign(Ballot { round: 1, value: 1 }, &keys[0]);
        let b = Signed::sign(Ballot { round: 2, value: 2 }, &keys[0]);
        assert!(
            ConflictEvidence::try_new(a, b).is_none(),
            "votes in different rounds never conflict (no replay framing)"
        );
    }

    #[test]
    fn different_signers_are_not_conflict() {
        let (_, keys) = KeyRegistry::trusted_setup(2, 9);
        let a = Signed::sign(Ballot { round: 1, value: 1 }, &keys[0]);
        let b = Signed::sign(Ballot { round: 1, value: 2 }, &keys[1]);
        assert!(ConflictEvidence::try_new(a, b).is_none());
    }

    #[test]
    fn forged_evidence_rejected_by_verify() {
        // An adversary pairs an honest signature with a *tampered* copy.
        let (reg, keys) = KeyRegistry::trusted_setup(1, 9);
        let honest = Signed::sign(Ballot { round: 1, value: 1 }, &keys[0]);
        let mut tampered = honest.clone();
        tampered.payload.value = 2; // signature no longer matches
        let ev = ConflictEvidence {
            first: honest,
            second: tampered,
        };
        assert_eq!(
            ev.verify(&reg),
            None,
            "honest players cannot be framed without their key"
        );
    }

    #[test]
    fn pof_requires_t0_plus_one_distinct() {
        let (reg, keys) = KeyRegistry::trusted_setup(4, 9);
        let pair = |i: usize, r: u64| {
            ConflictEvidence::try_new(
                Signed::sign(Ballot { round: r, value: 1 }, &keys[i]),
                Signed::sign(Ballot { round: r, value: 2 }, &keys[i]),
            )
            .unwrap()
        };
        let t0 = 1;
        // One guilty player: below the bar.
        assert!(verify_pof(&[pair(0, 1)], t0, |s| s.verify(&reg)).is_none());
        // Same player twice: still one distinct conviction.
        assert!(verify_pof(&[pair(0, 1), pair(0, 2)], t0, |s| s.verify(&reg)).is_none());
        // Two distinct players: conviction.
        let pairs = [pair(3, 1), pair(0, 1), pair(3, 2)];
        let out = verify_pof(&pairs, t0, |s| s.verify(&reg)).unwrap();
        assert_eq!(out, vec![(NodeId(0), &pairs[1]), (NodeId(3), &pairs[0])]);
    }

    #[test]
    fn pof_ignores_invalid_pairs() {
        let (reg, keys) = KeyRegistry::trusted_setup(3, 9);
        let good = ConflictEvidence::try_new(
            Signed::sign(Ballot { round: 1, value: 1 }, &keys[0]),
            Signed::sign(Ballot { round: 1, value: 2 }, &keys[0]),
        )
        .unwrap();
        let mut bad = good.clone();
        bad.second.payload.value = 3; // invalidates the signature
        assert!(verify_pof(&[good, bad], 1, |s| s.verify(&reg)).is_none());
    }
}
