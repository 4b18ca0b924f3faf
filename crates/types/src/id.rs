//! Identifier newtypes: [`NodeId`], [`Round`], [`Height`], and [`Digest`].

use std::fmt;

/// Identity of a player `P_i` in the committee `P = {P_0, …, P_{n−1}}`.
///
/// The paper indexes players from 1; we use 0-based indices throughout, so
/// the leader of round `r` is `P_{r mod n}` (same rotation as the paper's
/// `l = 1 + (r mod n)`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeId(pub usize);

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(value: usize) -> Self {
        NodeId(value)
    }
}

/// A consensus round `r`. One block is agreed (or the round is abandoned via
/// view change / expose) per round.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Round(pub u64);

impl Round {
    /// The round after this one.
    #[must_use]
    pub fn next(self) -> Round {
        Round(self.0 + 1)
    }

    /// The leader of this round under round-robin rotation over `n` players.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn leader(self, n: usize) -> NodeId {
        assert!(n > 0, "committee must be non-empty");
        NodeId((self.0 % n as u64) as usize)
    }
}

impl fmt::Debug for Round {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for Round {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A position in the chain (genesis is height 0).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Debug)]
pub struct Height(pub u64);

impl Height {
    /// The height above this one.
    #[must_use]
    pub fn next(self) -> Height {
        Height(self.0 + 1)
    }
}

impl fmt::Display for Height {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// A 32-byte content address.
///
/// `Digest::of_bytes` is a fast, well-mixed content hash used for block
/// identity inside the simulation. Cryptographic hashing for signatures uses
/// `prft-crypto`'s SHA-256 (which also produces a `Digest`), so the two are
/// interchangeable at the type level.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The all-zero digest, used as the genesis parent sentinel.
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Number of bytes in a digest.
    pub const LEN: usize = 32;

    /// Hashes arbitrary bytes into a digest.
    ///
    /// Implementation: four lanes of the 64-bit FNV-1a/xor-fold family with
    /// distinct offsets plus a final avalanche; collision-resistant enough
    /// for content addressing in a closed simulation (protocol security never
    /// rests on this — see `prft-crypto::Sha256` for the signed path).
    pub fn of_bytes(data: &[u8]) -> Digest {
        const SEEDS: [u64; 4] = [
            0xcbf2_9ce4_8422_2325,
            0x9e37_79b9_7f4a_7c15,
            0xbf58_476d_1ce4_e5b9,
            0x94d0_49bb_1331_11eb,
        ];
        let mut lanes = SEEDS;
        for (i, &b) in data.iter().enumerate() {
            let lane = &mut lanes[i & 3];
            *lane ^= b as u64;
            *lane = lane.wrapping_mul(0x1000_0000_01b3);
        }
        // Length + avalanche so prefixes don't collide: output word `i`
        // mixes the two adjacent lanes `i` and `i + 1 (mod 4)`, so no one
        // word sees every input byte.
        let len = data.len() as u64;
        let mut out = [0u8; 32];
        for i in 0..4 {
            let mut x = lanes[i] ^ len.rotate_left(16 * i as u32) ^ lanes[(i + 1) & 3];
            x ^= x >> 30;
            x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x ^= x >> 27;
            x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^= x >> 31;
            out[i * 8..(i + 1) * 8].copy_from_slice(&x.to_le_bytes());
        }
        Digest(out)
    }

    /// Short hex tag for human-readable logs: the four 64-bit words
    /// XOR-folded to 32 bits, so it depends on every input byte (a single
    /// word of [`Digest::of_bytes`] sees only half the lanes).
    pub fn short(&self) -> String {
        let x = self
            .0
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk")))
            .fold(0, |acc, w| acc ^ w);
        format!("{:08x}", (x ^ (x >> 32)) as u32)
    }
}

impl Default for Digest {
    fn default() -> Self {
        Digest::ZERO
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.short())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.short())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 32]> for Digest {
    fn from(bytes: [u8; 32]) -> Self {
        Digest(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_leader_rotates() {
        assert_eq!(Round(0).leader(4), NodeId(0));
        assert_eq!(Round(1).leader(4), NodeId(1));
        assert_eq!(Round(4).leader(4), NodeId(0));
        assert_eq!(Round(7).leader(4), NodeId(3));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn round_leader_rejects_empty_committee() {
        let _ = Round(0).leader(0);
    }

    #[test]
    fn round_next_increments() {
        assert_eq!(Round(3).next(), Round(4));
        assert_eq!(Height(3).next(), Height(4));
    }

    #[test]
    fn digest_distinguishes_content() {
        assert_ne!(Digest::of_bytes(b"a"), Digest::of_bytes(b"b"));
        assert_ne!(Digest::of_bytes(b""), Digest::of_bytes(b"\0"));
        assert_ne!(Digest::of_bytes(b"ab"), Digest::of_bytes(b"ba"));
    }

    /// "block A" and "block B" differ only at byte 6, which lane 2 hashes:
    /// word 0 of the digest cannot see it, the printed tag must.
    #[test]
    fn short_tags_differ_for_a_difference_word_zero_cannot_see() {
        let (a, b) = (Digest::of_bytes(b"block A"), Digest::of_bytes(b"block B"));
        assert_eq!(a.0[..8], b.0[..8], "word 0 mixes lanes 0 and 1 only");
        assert_ne!(a.short(), b.short());
        assert_ne!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(format!("{a}").len(), 9, "# plus eight hex digits");
    }

    #[test]
    fn digest_is_deterministic() {
        assert_eq!(Digest::of_bytes(b"hello"), Digest::of_bytes(b"hello"));
    }

    #[test]
    fn digest_prefix_lengths_differ() {
        // A value and its zero-extension must not collide.
        let a = Digest::of_bytes(&[1, 2, 3]);
        let b = Digest::of_bytes(&[1, 2, 3, 0]);
        assert_ne!(a, b);
    }

    #[test]
    fn digest_display_is_short_hex() {
        let d = Digest::of_bytes(b"x");
        let s = format!("{d}");
        assert!(s.starts_with('#') && s.len() == 9);
    }

    #[test]
    fn node_display() {
        assert_eq!(NodeId(3).to_string(), "P3");
        assert_eq!(format!("{:?}", NodeId(3)), "P3");
    }
}
