//! SHA-256 implemented from scratch (FIPS 180-4).
//!
//! Built for the reproduction rather than pulled in as a dependency: the
//! digests every signature is made over, the trusted setup's seeds and the
//! lab's record and report fingerprints must be auditable in-repo, and the
//! simulation only needs the standard compression function and no
//! streaming beyond the [`Sha256::update`] API. A signature itself hashes
//! nothing (see `keys.rs`).
//!
//! The compression function exists twice. [`compress_portable`] is the
//! FIPS 180-4 loop: the path every host without SHA extensions runs, and
//! the reference the tests hold the other one to. On an x86-64 CPU that
//! reports `sha`, `sse4.1` and `ssse3` at run time, [`compress`] runs the
//! same 64 rounds on the CPU's SHA-256 instructions instead (two rounds
//! per `sha256rnds2`, the message schedule on `sha256msg1`/`msg2`) —
//! nothing selects between them but the CPU, and every digest is equal.

use prft_types::Digest;

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash values: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A streaming SHA-256 hasher.
///
/// # Example
/// ```
/// use prft_crypto::Sha256;
/// let d = Sha256::digest(b"abc");
/// assert_eq!(
///     d.0[..4],
///     [0xba, 0x78, 0x16, 0xbf],
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Partial block buffer.
    buf: [u8; 64],
    buf_len: usize,
    /// Total message length in bytes.
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// One-shot convenience: hash `data` and return the digest.
    pub fn digest(data: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// One-shot hash of several concatenated parts (avoids a temp buffer).
    pub fn digest_parts(parts: &[&[u8]]) -> Digest {
        let mut h = Sha256::new();
        for p in parts {
            h.update(p);
        }
        h.finalize()
    }

    /// Absorbs more message bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        // Fill any partial block first.
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                compress(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        // Whole blocks straight from input.
        while data.len() >= 64 {
            let (block, rest) = data.split_at(64);
            compress(
                &mut self.state,
                block.try_into().expect("split at one block"),
            );
            data = rest;
        }
        // Stash the tail.
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Pads, finishes, and returns the digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        // Append 0x80 then zeros until 56 mod 64, then the 64-bit bit
        // length. `update` leaves `buf_len < 64`, so the 0x80 always fits;
        // the length needs a block of its own when fewer than 8 bytes
        // remain after it.
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            compress(&mut self.state, &self.buf);
            self.buf.fill(0);
        }
        self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buf);
        digest_of(&self.state)
    }
}

/// The big-endian serialization of a final state.
fn digest_of(state: &[u32; 8]) -> Digest {
    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..(i + 1) * 4].copy_from_slice(&word.to_be_bytes());
    }
    Digest(out)
}

/// Folds one block into `state`, on the CPU's SHA extensions where it has
/// them and by [`compress_portable`] everywhere else.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    if !compress_accelerated(state, block) {
        compress_portable(state, block);
    }
}

/// Folds one block into `state` on the CPU's SHA extensions; `false`, with
/// `state` untouched, if this CPU has none.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn compress_accelerated(state: &mut [u32; 8], block: &[u8; 64]) -> bool {
    if !(std::arch::is_x86_feature_detected!("sha")
        && std::arch::is_x86_feature_detected!("sse4.1")
        && std::arch::is_x86_feature_detected!("ssse3"))
    {
        return false;
    }
    // SAFETY: `compress_sha_ni` is a safe function whose only requirement
    // is that the CPU supports the `sha`, `sse4.1` and `ssse3` target
    // features it is compiled with; all three were detected just above.
    unsafe { compress_sha_ni(state, block) };
    true
}

/// No SHA extensions to use off x86-64.
#[cfg(not(target_arch = "x86_64"))]
fn compress_accelerated(_state: &mut [u32; 8], _block: &[u8; 64]) -> bool {
    false
}

/// The 64 rounds on x86 SHA extensions: sixteen groups of four rounds over
/// a four-register message schedule. The state travels as the two
/// registers `sha256rnds2` wants — `(a, b, e, f)` and `(c, d, g, h)`, first
/// named in the highest lane — and each `sha256rnds2` advances two rounds,
/// turning the old `(a, b, e, f)` into the new `(c, d, g, h)`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse4.1,ssse3")]
fn compress_sha_ni(state: &mut [u32; 8], block: &[u8; 64]) {
    use std::arch::x86_64::*;

    // Message words are big-endian: reverse the bytes of every lane.
    let big_endian = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    let mut w = [_mm_setzero_si128(); 4];
    for (words, bytes) in w.iter_mut().zip(block.chunks_exact(16)) {
        let v = u128::from_le_bytes(bytes.try_into().expect("a block is four 16-byte chunks"));
        *words = _mm_shuffle_epi8(_mm_set_epi64x((v >> 64) as i64, v as i64), big_endian);
    }

    let [a, b, c, d, e, f, g, h] = state.map(|word| word as i32);
    let mut abef = _mm_set_epi32(a, b, e, f);
    let mut cdgh = _mm_set_epi32(c, d, g, h);
    for i in 0..16 {
        // `w[i % 4]` holds W[4i..4i+4], word 4i in the lowest lane.
        let [k0, k1, k2, k3] = [0, 1, 2, 3].map(|lane| K[4 * i + lane] as i32);
        let wk = _mm_add_epi32(w[i % 4], _mm_set_epi32(k3, k2, k1, k0));
        cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
        abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
        if i < 12 {
            // W[4i+16..4i+20] from the four groups in hand; it takes the
            // place of the group just consumed.
            let (w0, w1, w2, w3) = (w[i % 4], w[(i + 1) % 4], w[(i + 2) % 4], w[(i + 3) % 4]);
            let partial = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
            w[i % 4] = _mm_sha256msg2_epu32(partial, w3);
        }
    }

    let worked = [
        _mm_extract_epi32::<3>(abef),
        _mm_extract_epi32::<2>(abef),
        _mm_extract_epi32::<3>(cdgh),
        _mm_extract_epi32::<2>(cdgh),
        _mm_extract_epi32::<1>(abef),
        _mm_extract_epi32::<0>(abef),
        _mm_extract_epi32::<1>(cdgh),
        _mm_extract_epi32::<0>(cdgh),
    ];
    for (word, add) in state.iter_mut().zip(worked) {
        *word = word.wrapping_add(add as u32);
    }
}

/// The 64 rounds as FIPS 180-4 writes them.
fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let temp1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &Digest) -> String {
        d.0.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// FIPS 180-4 / NIST CAVP known answers: the empty message, "abc",
    /// the 448-bit and the 896-bit message.
    const NIST: [(&[u8], &str); 4] = [
        (
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        ),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
        (
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        ),
    ];

    #[test]
    fn nist_empty() {
        assert_eq!(hex(&Sha256::digest(NIST[0].0)), NIST[0].1);
    }

    #[test]
    fn nist_abc() {
        assert_eq!(hex(&Sha256::digest(NIST[1].0)), NIST[1].1);
    }

    #[test]
    fn nist_448_bits() {
        assert_eq!(hex(&Sha256::digest(NIST[2].0)), NIST[2].1);
    }

    #[test]
    fn nist_896_bits() {
        assert_eq!(hex(&Sha256::digest(NIST[3].0)), NIST[3].1);
    }

    #[test]
    fn nist_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&Sha256::digest(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0usize, 1, 55, 56, 63, 64, 65, 128, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split at {split}");
        }
    }

    /// Byte `i` is `7i + 3 mod 256`.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 7 + 3) as u8).collect()
    }

    /// Lengths around the places padding changes shape: 55 is the longest
    /// tail whose length field shares its block, 56–63 need one more block
    /// for it, 64 leaves an empty tail; 119 and 120 are 55 and 56 again
    /// behind a full block.
    /// Expected digests from `python3 -c 'import hashlib; p = bytes((i * 7 +
    /// 3) & 255 for i in range(120)); [print(n, hashlib.sha256(p[:n])
    /// .hexdigest()) for n in (0, 55, 56, 63, 64, 119, 120)]'`.
    const PADDING_BOUNDARY: [(usize, &str); 7] = [
        (
            0,
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            55,
            "e7313d333c272e639f790978283f9eb392e843d0f29b7016828bb1daa4aac70b",
        ),
        (
            56,
            "4324d65f3c103567f5589c710bc08f8523f929a9272e3af36fc968e52abc6c27",
        ),
        (
            63,
            "81c80242132f230c3bd41b3e63bbcff16107339549214a99614ff26664625055",
        ),
        (
            64,
            "39e3d7b6b5d075d37d053ad89b24b41bef4f3c29760c84447cab3f3be1882241",
        ),
        (
            119,
            "9ce7368e4daf32341631b492e80359dc9f594b48453cd0dd5bf0b19279cc177e",
        ),
        (
            120,
            "7836b787757e95e58b3ca5aec90b1b004e8deba1e50e9675af9cabf1a13a04b5",
        ),
    ];

    #[test]
    fn padding_boundary_known_answers() {
        for (len, expected) in PADDING_BOUNDARY {
            assert_eq!(hex(&Sha256::digest(&pattern(len))), expected, "len {len}");
        }
    }

    /// Either compression function, as the tests pass it around.
    type Compress = fn(&mut [u32; 8], &[u8; 64]);

    /// SHA-256 with the padding spelled out here, over a chosen
    /// compression function: a known answer then holds each of the two
    /// to the standard by itself, whichever one `Sha256` dispatches to.
    fn digest_with(compress: Compress, data: &[u8]) -> Digest {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in padded.chunks_exact(64) {
            compress(&mut state, block.try_into().unwrap());
        }
        digest_of(&state)
    }

    /// The accelerated compression function, or `None` — said aloud, so a
    /// CI log shows which half ran — on a host without SHA extensions.
    fn accelerated() -> Option<Compress> {
        if compress_accelerated(&mut H0.clone(), &[0; 64]) {
            println!("sha256 path: x86 SHA extensions, held to the portable rounds");
            Some(|state, block| assert!(compress_accelerated(state, block)))
        } else {
            println!(
                "sha256 path: portable rounds only; accelerated half SKIPPED (no SHA extensions)"
            );
            None
        }
    }

    #[test]
    fn both_compress_functions_meet_the_known_answers() {
        let vectors = (NIST
            .iter()
            .map(|&(data, expected)| (data.to_vec(), expected)))
        .chain(
            PADDING_BOUNDARY
                .iter()
                .map(|&(len, expected)| (pattern(len), expected)),
        );
        let fast = accelerated();
        for (data, expected) in vectors {
            let len = data.len();
            assert_eq!(
                hex(&digest_with(compress_portable, &data)),
                expected,
                "portable, len {len}"
            );
            if let Some(fast) = fast {
                assert_eq!(
                    hex(&digest_with(fast, &data)),
                    expected,
                    "accelerated, len {len}"
                );
            }
        }
    }

    /// 10 000 pseudo-random (state, block) pairs — states no message
    /// prefix need ever reach — compress alike on both functions.
    #[test]
    fn accelerated_rounds_equal_portable_rounds_on_random_inputs() {
        let Some(fast) = accelerated() else { return };
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 32) as u32
        };
        for case in 0..10_000 {
            let state: [u32; 8] = std::array::from_fn(|_| next());
            let block: [u8; 64] = std::array::from_fn(|_| next() as u8);
            let (mut portable, mut accelerated) = (state, state);
            compress_portable(&mut portable, &block);
            fast(&mut accelerated, &block);
            assert_eq!(
                accelerated, portable,
                "case {case}: {state:08x?} {block:02x?}"
            );
        }
    }

    /// Any way of cutting a message into `update` calls hashes like one
    /// call: 500 messages of random length < 200, each cut at up to three
    /// random points (empty pieces included).
    #[test]
    fn split_updates_equal_oneshot_at_random_split_points() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut below = |bound: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % bound
        };
        for _ in 0..500 {
            let data = pattern(below(200));
            let mut cuts = [0, 0, 0].map(|_| below(data.len() + 1));
            cuts.sort_unstable();
            let mut h = Sha256::new();
            let mut from = 0;
            for cut in cuts {
                h.update(&data[from..cut]);
                from = cut;
            }
            h.update(&data[from..]);
            assert_eq!(
                h.finalize(),
                Sha256::digest(&data),
                "len {} cuts {cuts:?}",
                data.len()
            );
        }
    }

    #[test]
    fn digest_parts_equals_concat() {
        let a = b"hello ";
        let b = b"world";
        let mut concat = a.to_vec();
        concat.extend_from_slice(b);
        assert_eq!(Sha256::digest_parts(&[a, b]), Sha256::digest(&concat));
    }

    #[test]
    fn boundary_lengths() {
        // Exercise padding around the 55/56/64-byte boundaries.
        for len in 50..70usize {
            let data = vec![0xabu8; len];
            let mut h = Sha256::new();
            for byte in &data {
                h.update(std::slice::from_ref(byte));
            }
            assert_eq!(h.finalize(), Sha256::digest(&data), "len {len}");
        }
    }
}
