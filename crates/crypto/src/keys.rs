//! Keys, signatures, and the trusted-setup registry.
//!
//! A signature is the ideal functionality the paper assumes (Section 3.3):
//! its tag is `digest ⊕ seed[signer]`, with no hash. It stays keyed, so a
//! signature re-labelled to another signer or made under another setup
//! fails. Anyone holding a tag and its digest can read the seed; that is
//! harmless only because neither [`Signature`] nor [`SecretKey`] has a
//! public constructor, so outside this crate the only valid signatures are
//! the ones [`SecretKey::sign`] made.

use crate::Sha256;
use prft_types::{Digest, NodeId};
use std::fmt;
use std::sync::Arc;

/// Security parameter κ in bytes: the wire size of one signature.
///
/// The paper reports message sizes as `O(κ · n^4)`; all byte accounting in
/// `prft-metrics` is parameterized by this constant.
pub const KAPPA: usize = 32;

/// The tag under `seed` of a signature over `digest`.
fn keyed(seed: &[u8; 32], digest: Digest) -> Digest {
    Digest(std::array::from_fn(|i| digest.0[i] ^ seed[i]))
}

/// A player's signing key.
///
/// Produced only by [`KeyRegistry::trusted_setup`]. There is deliberately no
/// way to construct a `SecretKey` for an arbitrary identity, and the seed is
/// private: within the simulation this *is* unforgeability.
///
/// ```compile_fail
/// let key = prft_crypto::SecretKey { signer: prft_types::NodeId(0), seed: [0; 32] };
/// ```
#[derive(Clone)]
pub struct SecretKey {
    signer: NodeId,
    seed: [u8; 32],
}

impl SecretKey {
    /// The identity this key signs for.
    pub fn signer(&self) -> NodeId {
        self.signer
    }

    /// Signs a digest, producing a signature bound to this identity.
    pub fn sign(&self, digest: Digest) -> Signature {
        Signature {
            signer: self.signer,
            tag: keyed(&self.seed, digest),
        }
    }
}

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print the seed.
        write!(f, "SecretKey({})", self.signer)
    }
}

/// A signature: the claimed signer plus a tag keyed by that signer's seed.
/// Only [`SecretKey::sign`] makes one:
///
/// ```compile_fail
/// use prft_types::{Digest, NodeId};
/// let sig = prft_crypto::Signature { signer: NodeId(0), tag: Digest::ZERO };
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    signer: NodeId,
    tag: Digest,
}

impl Signature {
    /// The identity that (claims to have) produced this signature.
    pub fn signer(&self) -> NodeId {
        self.signer
    }

    /// The keyed tag. Exposed so verification memo caches can compare a
    /// signature against the tag [`KeyRegistry::tag_of`] derives for its
    /// signer and payload, and key negative verdicts on the *full*
    /// signature content: two ballots that differ anywhere have different
    /// keys, so a tampered twin can never reuse a valid ballot's `true`.
    pub fn tag(&self) -> Digest {
        self.tag
    }

    /// Wire size of a signature in bytes (κ).
    pub const fn wire_bytes() -> usize {
        KAPPA
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sig({}, {})", self.signer, self.tag)
    }
}

/// The trusted setup: all public verification material.
///
/// The paper assumes a trusted broadcast-type setup where players share
/// public keys (Section 3.3). Here the registry holds the per-player seeds
/// and acts as the ideal functionality's verification oracle; protocol
/// code only ever calls [`KeyRegistry::verify`].
///
/// Every replica holds the registry, and so does every snapshot of one:
/// the seed table is shared, so a clone copies a handle, not the table.
#[derive(Debug, Clone)]
pub struct KeyRegistry {
    seeds: Arc<[[u8; 32]]>,
}

impl KeyRegistry {
    /// Runs the trusted setup for `n` players from a master seed, returning
    /// the public registry and each player's secret key.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn trusted_setup(n: usize, master_seed: u64) -> (KeyRegistry, Vec<SecretKey>) {
        assert!(n > 0, "committee must be non-empty");
        let mut seeds = Vec::with_capacity(n);
        let mut keys = Vec::with_capacity(n);
        for i in 0..n {
            let seed = Sha256::digest_parts(&[
                b"prft-trusted-setup",
                &master_seed.to_le_bytes(),
                &(i as u64).to_le_bytes(),
            ])
            .0;
            seeds.push(seed);
            keys.push(SecretKey {
                signer: NodeId(i),
                seed,
            });
        }
        let seeds = seeds.into();
        (KeyRegistry { seeds }, keys)
    }

    /// Number of registered players.
    pub fn len(&self) -> usize {
        self.seeds.len()
    }

    /// Whether the registry is empty (never true after setup).
    pub fn is_empty(&self) -> bool {
        self.seeds.is_empty()
    }

    /// Whether `other` is this registry: one trusted setup, shared by
    /// handle. A separate setup is another registry, whatever its seeds.
    pub fn same(&self, other: &KeyRegistry) -> bool {
        Arc::ptr_eq(&self.seeds, &other.seeds)
    }

    /// The tag a valid signature by `signer` over `digest` carries, or
    /// `None` for a signer outside the setup: the ideal functionality's
    /// oracle, uncounted ([`Self::verify`] is the counted check).
    pub fn tag_of(&self, signer: NodeId, digest: Digest) -> Option<Digest> {
        self.seeds.get(signer.0).map(|seed| keyed(seed, digest))
    }

    /// Verifies that `sig` is a valid signature by its claimed signer over
    /// `digest`. Returns `false` for unknown signers or bad tags.
    ///
    /// Every call counts once toward the `crypto.sig_verifies` counter —
    /// this is the chokepoint the accountable path's `O(n³κ)` Reveal
    /// payloads hammer, so the ROADMAP large-n optimization is gated on
    /// exactly this number.
    pub fn verify(&self, digest: Digest, sig: &Signature) -> bool {
        prft_sim::obs::hooks::count_sig_verify();
        self.tag_of(sig.signer, digest) == Some(sig.tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_roundtrip() {
        let (reg, keys) = KeyRegistry::trusted_setup(3, 7);
        let d = Sha256::digest(b"message");
        for key in &keys {
            let sig = key.sign(d);
            assert!(reg.verify(d, &sig));
            assert_eq!(sig.signer(), key.signer());
        }
    }

    #[test]
    fn wrong_digest_fails() {
        let (reg, keys) = KeyRegistry::trusted_setup(2, 7);
        let sig = keys[0].sign(Sha256::digest(b"a"));
        assert!(!reg.verify(Sha256::digest(b"b"), &sig));
    }

    #[test]
    fn cross_signer_tags_differ() {
        let (_, keys) = KeyRegistry::trusted_setup(2, 7);
        let d = Sha256::digest(b"m");
        assert_ne!(keys[0].sign(d), keys[1].sign(d));
    }

    #[test]
    fn unknown_signer_rejected() {
        let (reg, _) = KeyRegistry::trusted_setup(2, 7);
        // Key from a *different* setup claims identity 0.
        let (_, other) = KeyRegistry::trusted_setup(2, 8);
        let d = Sha256::digest(b"m");
        assert!(!reg.verify(d, &other[0].sign(d)), "foreign setup rejected");
        let (_, big) = KeyRegistry::trusted_setup(5, 7);
        assert!(!reg.verify(d, &big[4].sign(d)), "out-of-range signer");
    }

    /// The oracle derives exactly the tag each key signs with; a tag is
    /// never its bare digest, and another setup keys one signer apart.
    #[test]
    fn the_oracle_derives_every_keys_tag() {
        let (reg, keys) = KeyRegistry::trusted_setup(16, 7);
        let (other, _) = KeyRegistry::trusted_setup(16, 8);
        for message in [&b""[..], b"m", b"another message"] {
            let d = Sha256::digest(message);
            for key in &keys {
                let tag = key.sign(d).tag();
                assert_eq!(reg.tag_of(key.signer(), d), Some(tag));
                assert_ne!(tag, d, "{key:?} left the digest bare");
                assert_ne!(other.tag_of(key.signer(), d), Some(tag), "{key:?}");
            }
        }
        assert_eq!(reg.tag_of(NodeId(16), Sha256::digest(b"m")), None);
    }

    #[test]
    fn setups_are_deterministic_per_seed() {
        let (reg_a, keys_a) = KeyRegistry::trusted_setup(2, 7);
        let (_, keys_b) = KeyRegistry::trusted_setup(2, 7);
        let d = Sha256::digest(b"m");
        assert_eq!(keys_a[0].sign(d), keys_b[0].sign(d));
        assert!(reg_a.verify(d, &keys_b[0].sign(d)));
    }

    #[test]
    fn debug_never_leaks_seed() {
        let (_, keys) = KeyRegistry::trusted_setup(1, 7);
        let printed = format!("{:?}", keys[0]);
        assert_eq!(printed, "SecretKey(P0)");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_setup_panics() {
        let _ = KeyRegistry::trusted_setup(0, 1);
    }

    #[test]
    fn verify_counts_into_the_obs_hook() {
        prft_sim::obs::hooks::reset();
        let (reg, keys) = KeyRegistry::trusted_setup(2, 7);
        let d = Sha256::digest(b"m");
        let sig = keys[0].sign(d);
        assert!(reg.verify(d, &sig));
        assert!(!reg.verify(Sha256::digest(b"other"), &sig));
        // Both the success and the failure count as one verification each.
        assert_eq!(prft_sim::obs::hooks::snapshot().sig_verifies, 2);
    }
}
