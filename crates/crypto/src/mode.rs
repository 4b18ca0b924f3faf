//! The verification-strategy knob: reference re-verification vs the
//! memoized fast path.
//!
//! Signature verification is a pure function of (registry, digest,
//! signature), so a replica may cache verdicts per content without
//! changing any observable behavior — the accountable Reveal phase
//! re-checks each distinct certificate ~quorum times, and memoization
//! collapses that to once. [`VerifyMode`] selects between the original
//! verify-on-every-arrival path (kept bit-for-bit as the reference) and
//! the memoized path, mirroring how `prft_sim::QueueBackend` keeps the
//! heap queue beside the calendar queue.
//!
//! The choice never affects results: logical verify counts, reports, and
//! chains are pinned byte-identical across modes by the differential
//! suite in `crates/core/tests/fastpath_equiv.rs`, which is why the knob
//! is excluded from scenario fingerprints.

/// How a replica verifies ballots and commit certificates.
///
/// The choice never affects results — the fast path is pinned
/// byte-identical to the reference — only speed, so it is excluded from
/// spec fingerprints and defaults to the fast path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VerifyMode {
    /// Re-verify every signature on every arrival (what the seed replica
    /// did, bit for bit). The slow but obviously-correct baseline the
    /// differential suite compares against.
    Reference,
    /// Memoize ballot and certificate verdicts per replica, share
    /// certificate bodies, and dedupe-verify Reveal batches (the default).
    #[default]
    Fast,
}

#[cfg(test)]
mod tests {
    use super::VerifyMode;

    #[test]
    fn fast_is_the_default() {
        assert_eq!(VerifyMode::default(), VerifyMode::Fast);
    }
}
