//! Signed payloads with domain separation and slot binding.

use crate::{KeyRegistry, SecretKey, Sha256, Signature, KAPPA};
use prft_types::{Digest, NodeId};

/// The (round, phase) coordinate a signed payload belongs to.
///
/// Double-signing (`π_ds`) is defined by the paper as signing two
/// *conflicting messages in the same phase of the same round*; the slot is
/// what makes two signatures comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Slot {
    /// Consensus round.
    pub round: u64,
    /// Protocol phase within the round (protocol-defined numbering).
    pub phase: u8,
}

/// A payload that can be signed.
///
/// Implementations must include every semantically relevant field in
/// [`Signable::signable_bytes`]; the domain tag and slot are mixed into the
/// signed digest automatically, so equal bytes in different domains or slots
/// never produce interchangeable signatures.
pub trait Signable {
    /// Domain-separation tag (e.g. `"Vote"`, `"Commit"`).
    fn domain(&self) -> &'static str;
    /// The (round, phase) slot this payload occupies.
    fn slot(&self) -> Slot;
    /// Canonical bytes of the payload content.
    fn signable_bytes(&self) -> Vec<u8>;

    /// The digest that is actually signed: `SHA-256(domain ‖ slot ‖ bytes)`.
    fn signing_digest(&self) -> Digest {
        Sha256::digest_parts(&[
            self.domain().as_bytes(),
            &self.slot().round.to_le_bytes(),
            &[self.slot().phase],
            &self.signable_bytes(),
        ])
    }
}

/// A payload together with a signature over its signing digest.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Signed<T> {
    /// The signed payload.
    pub payload: T,
    /// The signature over [`Signable::signing_digest`].
    pub sig: Signature,
}

impl<T: Signable> Signed<T> {
    /// Signs `payload` with `key`.
    pub fn sign(payload: T, key: &SecretKey) -> Signed<T> {
        let digest = payload.signing_digest();
        Signed {
            sig: key.sign(digest),
            payload,
        }
    }

    /// Verifies the signature against the registry.
    pub fn verify(&self, registry: &KeyRegistry) -> bool {
        registry.verify(self.payload.signing_digest(), &self.sig)
    }

    /// [`Self::verify`] without counting toward `crypto.sig_verifies`:
    /// for audits of a finished run, which must not move its counters.
    pub fn audit(&self, registry: &KeyRegistry) -> bool {
        registry.tag_of(self.signer(), self.payload.signing_digest()) == Some(self.sig.tag())
    }

    /// The claimed signer.
    pub fn signer(&self) -> NodeId {
        self.sig.signer()
    }

    /// The slot of the signed payload.
    pub fn slot(&self) -> Slot {
        self.payload.slot()
    }

    /// Wire size: payload content bytes + one signature (κ).
    pub fn wire_bytes(&self) -> usize {
        self.payload.signable_bytes().len() + KAPPA
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prft_types::Encoder;

    #[derive(Clone, PartialEq, Eq, Debug)]
    struct Msg {
        domain: &'static str,
        round: u64,
        phase: u8,
        body: u8,
    }

    impl Signable for Msg {
        fn domain(&self) -> &'static str {
            self.domain
        }
        fn slot(&self) -> Slot {
            Slot {
                round: self.round,
                phase: self.phase,
            }
        }
        fn signable_bytes(&self) -> Vec<u8> {
            let mut e = Encoder::new();
            e.u8(self.body);
            e.into_bytes()
        }
    }

    fn msg(body: u8) -> Msg {
        Msg {
            domain: "Test",
            round: 1,
            phase: 0,
            body,
        }
    }

    #[test]
    fn sign_and_verify() {
        let (reg, keys) = KeyRegistry::trusted_setup(2, 1);
        let s = Signed::sign(msg(7), &keys[1]);
        assert!(s.verify(&reg));
        assert_eq!(s.signer(), NodeId(1));
        assert_eq!(s.slot(), Slot { round: 1, phase: 0 });
    }

    #[test]
    fn tampered_payload_fails() {
        let (reg, keys) = KeyRegistry::trusted_setup(1, 1);
        let mut s = Signed::sign(msg(7), &keys[0]);
        s.payload.body = 8;
        assert!(!s.verify(&reg));
    }

    #[test]
    fn domain_separation() {
        // Identical bytes + slot but different domains → different digests.
        let a = Msg {
            domain: "Vote",
            ..msg(7)
        };
        let b = Msg {
            domain: "Commit",
            ..msg(7)
        };
        assert_ne!(a.signing_digest(), b.signing_digest());
    }

    #[test]
    fn slot_separation() {
        let a = Msg { round: 1, ..msg(7) };
        let b = Msg { round: 2, ..msg(7) };
        assert_ne!(a.signing_digest(), b.signing_digest());
        let c = Msg { phase: 1, ..msg(7) };
        assert_ne!(a.signing_digest(), c.signing_digest());
    }

    #[test]
    fn signature_not_transferable_between_payloads() {
        let (reg, keys) = KeyRegistry::trusted_setup(1, 1);
        let a = Signed::sign(msg(7), &keys[0]);
        let forged = Signed {
            payload: msg(8),
            sig: a.sig,
        };
        assert!(!forged.verify(&reg));
    }

    #[test]
    fn wire_bytes_is_payload_plus_kappa() {
        let (_, keys) = KeyRegistry::trusted_setup(1, 1);
        let s = Signed::sign(msg(7), &keys[0]);
        assert_eq!(s.wire_bytes(), 1 + KAPPA);
    }
}
