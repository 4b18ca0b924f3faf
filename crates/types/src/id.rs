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
        const PRIME: u64 = 0x1000_0000_01b3;
        // Byte `i` feeds lane `i mod 4`. The lanes live in locals so the
        // four multiply chains run side by side.
        let [mut l0, mut l1, mut l2, mut l3] = SEEDS;
        let mut quads = data.chunks_exact(4);
        for q in &mut quads {
            l0 = (l0 ^ q[0] as u64).wrapping_mul(PRIME);
            l1 = (l1 ^ q[1] as u64).wrapping_mul(PRIME);
            l2 = (l2 ^ q[2] as u64).wrapping_mul(PRIME);
            l3 = (l3 ^ q[3] as u64).wrapping_mul(PRIME);
        }
        let rest = quads.remainder();
        let mut lanes = [l0, l1, l2, l3];
        for (lane, &b) in lanes.iter_mut().zip(rest) {
            *lane = (*lane ^ b as u64).wrapping_mul(PRIME);
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

    fn hex(d: Digest) -> String {
        d.0.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// `Digest::of_bytes` outputs recorded from the one-byte-at-a-time
    /// loop that the unrolled one replaced: every lane remainder at short
    /// and cache-line lengths, and a 512-transaction block's canonical
    /// bytes (what a proposal hashes). Any rewrite of the loop must
    /// reproduce each one.
    #[test]
    fn digest_outputs_are_pinned() {
        const PINNED: [(usize, &str); 13] = [
            (
                0,
                "2098866b5927d3e92ea3b99bf04d4cf1425e46368f28b9701cd5a99f8de79a24",
            ),
            (
                1,
                "89189944a778dedeef978b7a520e15932b31380d1eaf3b03a116a98f3ccc21f3",
            ),
            (
                2,
                "cd84ee75f43efecad41dd356c96756990e1da4423d8c8ca97597d58f3df34cb2",
            ),
            (
                3,
                "695d33368ede7270a714a5e5f8efd8795c9abdf1a02259773ad5b078622e7eca",
            ),
            (
                4,
                "07a1fdd9cf2485f77f816d693c47ed259540641ec193e0d6717c24d448c86481",
            ),
            (
                5,
                "d0d3a54dd09204913948d3a97541a406089e96b348b69dc4248fae7b1b9911da",
            ),
            (
                6,
                "ba3b6f594fd0b6c89af59daa70a67fd336d93d271a56efd2d66a1d047bb3f13f",
            ),
            (
                7,
                "16b54d8c7755847b78acae1e2743e64ce522a3cd8312e7ae1062bfd4ebec552c",
            ),
            (
                8,
                "74c93404cc5d2d6f9da85816bc22db9698f0cdc2a4670527b4ef8507ad319936",
            ),
            (
                9,
                "4237eb2e1c8ca4b94b03ea8d88c02b5d9c819056874673658f2e9de4eb87c399",
            ),
            (
                63,
                "40912e951e5bbe5c9ce118a7224d0e895d3a49391586bbdac59365ba0aee0d80",
            ),
            (
                64,
                "808d691a523aa0e100f6cf47a0ce3aadab1f1c73ffe2d7ab07415779a05471eb",
            ),
            (
                65,
                "d526da6e8f55478bb985b82ab87f96b6720fd1406084ad113ffa80afeaa5d084",
            ),
        ];
        for (len, want) in PINNED {
            let input: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            assert_eq!(hex(Digest::of_bytes(&input)), want, "length {len}");
        }

        let txs = (0..512u64)
            .map(|i| {
                let id = (1 << 32) + i * (1 << 20);
                crate::Transaction::new(id, NodeId(8 + i as usize), vec![0xAB; 50])
            })
            .collect();
        let block = crate::Block::new(Round(7), Digest::of_bytes(b"parent"), NodeId(3), txs);
        let bytes = block.canonical_bytes();
        assert_eq!(bytes.len(), 37_952);
        assert_eq!(
            hex(Digest::of_bytes(&bytes)),
            "347e5870ede92f29e0242870d4159300cd32bb5ea21457e3a0415e8ee11c4d83"
        );
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
