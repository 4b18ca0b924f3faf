//! Memoized ballot / certificate verification — the accountable large-n
//! fast path.
//!
//! Signature verification is a pure function of (registry, signed bytes),
//! and the accountable Reveal phase re-checks every distinct commit
//! certificate ~quorum times (the q(1+q(q+1)) term that makes accountable
//! n = 64 cost 15.8M verifies for two rounds). [`VerifyCache`] collapses
//! that to once per distinct content, per replica:
//!
//! * **Ballot memo** — a map keyed on the *full* content of a signed
//!   ballot (round, phase, value, signer, tag). Because the key covers
//!   every byte that feeds verification, a cached verdict can never leak
//!   to a tampered twin: change anything and you get a different key.
//! * **Certificate memo** — keyed on the `Arc` allocation address of a
//!   [`CommitCert`]. Commit broadcasts hand every replica the *same*
//!   allocation, and Reveals carry those same `Arc`s onward, so the
//!   O(q²)-signature re-validation of one already-seen certificate
//!   becomes a single map hit. Each entry keeps a clone of the `Arc`, so
//!   the allocation outlives the entry and the address can never be
//!   recycled onto different content while cached.
//!
//! **Counting discipline** (what keeps reports byte-identical across
//! [`VerifyMode`]s): `crypto.sig_verifies` counts *logical* verifications
//! — a memo hit adds the same count the reference path would have paid,
//! via one batched add. The new `memo_hits`/`memo_misses` hook counters
//! split that logical total into answered-from-cache vs actually-hashed,
//! so `memo_hits + memo_misses == sig_verifies` on the fast path and the
//! miss count is the true SHA-256 workload. The memo counters surface
//! only in `prft-bench profile` output — never in scenario reports,
//! which must not depend on the knob.

use crate::messages::{CommitCert, Phase, SignedBallot};
use prft_crypto::{KeyRegistry, VerifyMode};
use prft_sim::obs::hooks;
use prft_types::{Digest, NodeId, Round};
use std::collections::HashMap;
use std::sync::Arc;

/// The full content of a signed ballot, as a hashable memo key.
///
/// Covers every field that feeds verification — the signed slot (round,
/// phase), the endorsed value, the claimed signer, and the MAC tag — so
/// two `SignedBallot`s map to the same key iff they are bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct BallotKey {
    round: u64,
    phase: u8,
    value: Digest,
    signer: NodeId,
    tag: Digest,
}

impl BallotKey {
    fn of(ballot: &SignedBallot) -> BallotKey {
        BallotKey {
            round: ballot.payload.round.0,
            phase: ballot.payload.phase.slot_id(),
            value: ballot.payload.value,
            signer: ballot.sig.signer(),
            tag: ballot.sig.tag(),
        }
    }
}

/// A cached certificate verdict.
#[derive(Clone)]
struct CertEntry {
    /// Keeps the certificate allocation alive for the entry's lifetime:
    /// the map key is this `Arc`'s address, and an address can only be
    /// trusted to identify content while that allocation cannot be freed
    /// and recycled.
    _keep: Arc<CommitCert>,
    /// The verdict `CommitCert::validate` reached.
    ok: bool,
    /// Quorum the verdict was computed against (re-validate on mismatch).
    quorum: usize,
    /// Logical signature verifications the reference path performs for
    /// one validation of this certificate — replayed into
    /// `crypto.sig_verifies` on every hit so the counter stays identical
    /// to the reference path's.
    verifies: u64,
    /// Certificate round, for pruning.
    round: Round,
}

/// Outcome of one certificate validation through the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CertVerdict {
    /// Whether the certificate is valid — always exactly what
    /// `CommitCert::validate` would say.
    pub ok: bool,
    /// Whether the verdict was answered from the certificate memo (always
    /// `false` in [`VerifyMode::Reference`]). A cached verdict proves this
    /// replica already fully processed — walked *and*, when valid, fed to
    /// its fraud detector — the same allocation earlier in the current
    /// round (entries never survive a round change at a call site, and
    /// view changes always advance the round), so callers may skip the
    /// idempotent re-observation of its ballots.
    pub cached: bool,
    /// Logical signature verifications this validation charged (what the
    /// reference path would perform for it) — used by the Reveal batch
    /// memo to record a whole batch's replay total. Zero in
    /// [`VerifyMode::Reference`] (the reference path counts internally).
    pub verifies: u64,
}

/// A cached Reveal-batch verdict: one entry summarizes the full
/// certificate scan of one sender's Reveal payload.
#[derive(Clone)]
struct BatchEntry {
    /// Keeps the outer `Vec` *and* every inner certificate allocation
    /// alive, so the pointer identities the key hashes stay unique.
    keep: Arc<Vec<Arc<CommitCert>>>,
    /// Quorum the batch was scanned against.
    quorum: usize,
    /// Total logical verifications of one reference-path scan.
    verifies: u64,
    /// Round of the scan, for pruning.
    round: Round,
}

/// Per-replica verification memo (ballot + certificate layers).
///
/// In [`VerifyMode::Reference`] every call passes straight through to the
/// original verify-on-every-arrival code path; in [`VerifyMode::Fast`]
/// verdicts are cached per content as described on the module.
///
/// `Clone` supports checkpoint/fork warm starts: the clone shares the
/// same certificate/batch `Arc` allocations, so its address-keyed memo
/// entries remain valid in the forked run (which also clones — and
/// therefore shares — those allocations through the message arena).
#[derive(Clone)]
pub struct VerifyCache {
    mode: VerifyMode,
    ballots: HashMap<BallotKey, bool>,
    certs: HashMap<usize, CertEntry>,
    /// Dense per-(round, value) table of *valid* Vote-ballot MAC tags,
    /// indexed by signer id — the walk's fast path. A slot holds the one
    /// deterministic tag a valid vote from that signer for that (round,
    /// value) can carry, so an in-cert vote whose tag matches is exactly a
    /// ballot-memo hit at array-probe cost. Populated only by walks (on a
    /// vote's first successful verification); mismatches fall back to the
    /// full ballot memo, which also handles and caches negatives.
    vote_tags: HashMap<(u64, Digest), Vec<Option<Digest>>>,
    /// Reveal-batch memo, keyed on the hash of the batch's pointer
    /// identities (outer scan order included) plus quorum.
    batches: HashMap<u64, BatchEntry>,
}

/// Hash of a Reveal batch's identity: every inner allocation address in
/// scan order, plus the quorum — collisions are resolved by the pointer
/// equality re-check on lookup.
fn batch_key(certs: &[Arc<CommitCert>], quorum: usize) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    quorum.hash(&mut h);
    for c in certs {
        (Arc::as_ptr(c) as usize).hash(&mut h);
    }
    h.finish()
}

impl VerifyCache {
    /// An empty cache operating in `mode`.
    pub fn new(mode: VerifyMode) -> VerifyCache {
        VerifyCache {
            mode,
            ballots: HashMap::new(),
            certs: HashMap::new(),
            vote_tags: HashMap::new(),
            batches: HashMap::new(),
        }
    }

    /// The mode this cache operates in.
    pub fn mode(&self) -> VerifyMode {
        self.mode
    }

    /// Verifies one signed ballot, memoized per content on the fast path.
    ///
    /// The logical `crypto.sig_verifies` count is identical across modes:
    /// a hit adds the one verification the reference path would have
    /// performed.
    pub fn verify_ballot(&mut self, ballot: &SignedBallot, registry: &KeyRegistry) -> bool {
        if self.mode == VerifyMode::Reference {
            return ballot.verify(registry);
        }
        let key = BallotKey::of(ballot);
        if let Some(&ok) = self.ballots.get(&key) {
            hooks::add_sig_verifies(1);
            hooks::add_memo_hits(1);
            return ok;
        }
        hooks::add_memo_misses(1);
        let ok = ballot.verify(registry); // counts the sig_verify itself
        self.ballots.insert(key, ok);
        ok
    }

    /// Validates a commit certificate, memoized per allocation on the
    /// fast path (with the ballot memo underneath for first-time walks,
    /// which is also what dedupes across the certificates of one Reveal
    /// batch: the first certificate's walk warms the vote ballots for
    /// every later certificate sharing them).
    pub fn validate_cert(
        &mut self,
        cert: &Arc<CommitCert>,
        registry: &KeyRegistry,
        quorum: usize,
    ) -> CertVerdict {
        if self.mode == VerifyMode::Reference {
            return CertVerdict {
                ok: cert.validate(registry, quorum),
                cached: false,
                verifies: 0,
            };
        }
        let key = Arc::as_ptr(cert) as usize;
        if let Some(entry) = self.certs.get(&key) {
            if entry.quorum == quorum {
                hooks::add_sig_verifies(entry.verifies);
                hooks::add_memo_hits(entry.verifies);
                return CertVerdict {
                    ok: entry.ok,
                    cached: true,
                    verifies: entry.verifies,
                };
            }
        }
        let (ok, verifies) = self.walk_cert(cert, registry, quorum);
        self.certs.insert(
            key,
            CertEntry {
                _keep: Arc::clone(cert),
                ok,
                quorum,
                verifies,
                round: cert.commit.payload.round,
            },
        );
        CertVerdict {
            ok,
            cached: false,
            verifies,
        }
    }

    /// Answers a whole Reveal batch from the batch memo: returns `true`
    /// (after replaying the batch's total logical verify count) iff this
    /// exact sequence of certificate allocations was fully scanned against
    /// the same quorum before. A hit means every per-certificate verdict
    /// would come back `cached`, so the caller skips the scan outright.
    /// Always `false` in [`VerifyMode::Reference`].
    pub fn replay_reveal_batch(&mut self, certs: &[Arc<CommitCert>], quorum: usize) -> bool {
        if self.mode == VerifyMode::Reference {
            return false;
        }
        if let Some(entry) = self.batches.get(&batch_key(certs, quorum)) {
            if entry.quorum == quorum
                && entry.keep.len() == certs.len()
                && entry.keep.iter().zip(certs).all(|(a, b)| Arc::ptr_eq(a, b))
            {
                hooks::add_sig_verifies(entry.verifies);
                hooks::add_memo_hits(entry.verifies);
                return true;
            }
        }
        false
    }

    /// Records one fully scanned Reveal batch for later replay. Call only
    /// after every certificate in `certs` went through [`validate_cert`]
    /// (so all first-time side effects — walks, detector observations —
    /// have already happened); `verifies` is the summed
    /// [`CertVerdict::verifies`] of that scan. No-op in
    /// [`VerifyMode::Reference`].
    ///
    /// [`validate_cert`]: VerifyCache::validate_cert
    pub fn record_reveal_batch(
        &mut self,
        certs: &Arc<Vec<Arc<CommitCert>>>,
        quorum: usize,
        verifies: u64,
        round: Round,
    ) {
        if self.mode == VerifyMode::Reference {
            return;
        }
        self.batches.insert(
            batch_key(certs, quorum),
            BatchEntry {
                keep: Arc::clone(certs),
                quorum,
                verifies,
                round,
            },
        );
    }

    /// One full certificate walk, mirroring `CommitCert::validate`'s exact
    /// short-circuit structure (phase check before the commit verify; each
    /// vote's phase/round/value checks before its verify; stop at the
    /// first failure; signer dedup at the end). Returns the verdict and
    /// the number of logical verifications the reference path performs for
    /// this certificate, for replay on later hits.
    ///
    /// Each vote first probes the dense tag table for (round, value): a
    /// tag match *is* a ballot-memo hit (the slot was written from that
    /// vote's first successful verification, and a valid MAC tag is a
    /// deterministic function of the payload) at array-index cost, with
    /// the counter adds batched into one flush per walk. Anything else —
    /// unknown signer, tag mismatch, forgery — takes the full ballot-memo
    /// path, which performs and caches the verdict.
    fn walk_cert(
        &mut self,
        cert: &CommitCert,
        registry: &KeyRegistry,
        quorum: usize,
    ) -> (bool, u64) {
        if cert.commit.payload.phase != Phase::Commit {
            return (false, 0);
        }
        let mut verifies = 1u64;
        if !self.verify_ballot(&cert.commit, registry) {
            return (false, verifies);
        }
        let round = cert.commit.payload.round;
        let value = cert.commit.payload.value;
        // Take the tag table out of the map for the walk so the fallback
        // can borrow `self` mutably; walks are the table's only writer, so
        // nothing repopulates the key underneath us.
        let mut tags = self.vote_tags.remove(&(round.0, value)).unwrap_or_default();
        let mut signers: Vec<NodeId> = Vec::with_capacity(cert.votes.len());
        let mut table_hits = 0u64;
        let mut ok = true;
        for v in &cert.votes {
            if v.payload.phase != Phase::Vote
                || v.payload.round != round
                || v.payload.value != value
            {
                ok = false;
                break;
            }
            verifies += 1;
            let signer = v.signer();
            if tags.get(signer.0).copied().flatten() == Some(v.sig.tag()) {
                table_hits += 1;
            } else if self.verify_ballot(v, registry) {
                if tags.len() <= signer.0 {
                    tags.resize(signer.0 + 1, None);
                }
                tags[signer.0] = Some(v.sig.tag());
            } else {
                ok = false;
                break;
            }
            signers.push(signer);
        }
        if table_hits > 0 {
            hooks::add_sig_verifies(table_hits);
            hooks::add_memo_hits(table_hits);
        }
        self.vote_tags.insert((round.0, value), tags);
        if !ok {
            return (false, verifies);
        }
        if !signers.is_sorted() {
            signers.sort_unstable();
        }
        signers.dedup();
        (signers.len() >= quorum, verifies)
    }

    /// Drops entries from rounds before `round − 1`. Finals of round r
    /// are processed while the replica sits in round r + 1, so the
    /// previous round stays warm; anything older can never be looked up
    /// again (stale-round messages are dropped before verification).
    pub fn prune_before(&mut self, round: Round) {
        let keep = round.0.saturating_sub(1);
        self.ballots.retain(|k, _| k.round >= keep);
        self.certs.retain(|_, e| e.round.0 >= keep);
        self.vote_tags.retain(|k, _| k.0 >= keep);
        self.batches.retain(|_, e| e.round.0 >= keep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::Ballot;
    use crate::pof::{signed_ballot, FraudDetector};
    use prft_crypto::Signed;

    fn setup(n: usize) -> (KeyRegistry, Vec<prft_crypto::SecretKey>) {
        KeyRegistry::trusted_setup(n, 7)
    }

    fn value(tag: u8) -> Digest {
        Digest::of_bytes(&[tag])
    }

    fn cert(keys: &[prft_crypto::SecretKey], round: u64, v: Digest, voters: usize) -> CommitCert {
        let votes = keys
            .iter()
            .take(voters)
            .map(|k| Signed::sign(Ballot::new(Round(round), Phase::Vote, v), k))
            .collect();
        CommitCert {
            commit: Signed::sign(Ballot::new(Round(round), Phase::Commit, v), &keys[0]),
            votes,
        }
    }

    #[test]
    fn ballot_memo_answers_repeats_without_hashing() {
        let (reg, keys) = setup(2);
        let b = signed_ballot(&keys[0], Round(1), Phase::Vote, value(1));
        let mut cache = VerifyCache::new(VerifyMode::Fast);
        hooks::reset();
        assert!(cache.verify_ballot(&b, &reg));
        assert!(cache.verify_ballot(&b, &reg));
        assert!(cache.verify_ballot(&b, &reg));
        let s = hooks::snapshot();
        // Logical count matches the reference path (3 verifies)…
        assert_eq!(s.sig_verifies, 3);
        // …but only one hash was actually computed.
        assert_eq!(s.memo_misses, 1);
        assert_eq!(s.memo_hits, 2);
        assert_eq!(s.memo_hits + s.memo_misses, s.sig_verifies);
        hooks::reset();
    }

    #[test]
    fn tampered_twin_of_a_cached_ballot_still_fails() {
        // The adversarial case the content key exists for: a valid ballot
        // is cached, then an attacker replays it with the value swapped
        // (keeping the old signature). The forgery must fail — it maps to
        // a different key, so the cached `true` is unreachable.
        let (reg, keys) = setup(2);
        let honest = signed_ballot(&keys[0], Round(1), Phase::Vote, value(1));
        let mut cache = VerifyCache::new(VerifyMode::Fast);
        assert!(cache.verify_ballot(&honest, &reg));
        let mut forged = honest.clone();
        forged.payload.value = value(2);
        assert!(!cache.verify_ballot(&forged, &reg), "forged value");
        // And a *differently signed* twin (same payload, wrong key) too.
        let wrong_signer = Signed::sign(honest.payload, &keys[1]);
        let mut impersonation = wrong_signer.clone();
        impersonation.sig = honest.sig;
        // impersonation: keys[1]'s payload with keys[0]'s signature —
        // same (payload, signer=0, tag) as `honest`, so it *is* honest
        // and legitimately verifies; the real cross-check is that
        // keys[1]'s own signature stays independently cached.
        assert!(cache.verify_ballot(&impersonation, &reg));
        assert!(cache.verify_ballot(&wrong_signer, &reg));
        // Negative verdicts are cached as negatives, never upgraded.
        assert!(!cache.verify_ballot(&forged, &reg));
    }

    #[test]
    fn cert_memo_replays_the_reference_verify_count() {
        let (reg, keys) = setup(4);
        let c = Arc::new(cert(&keys, 1, value(7), 3));
        let mut cache = VerifyCache::new(VerifyMode::Fast);
        hooks::reset();
        assert!(cache.validate_cert(&c, &reg, 3).ok);
        let first = hooks::snapshot();
        // Reference cost of one validation: commit + 3 votes.
        assert_eq!(first.sig_verifies, 4);
        assert_eq!(first.memo_misses, 4);
        assert!(cache.validate_cert(&c, &reg, 3).ok);
        let second = hooks::snapshot();
        // The hit replays all 4 logical verifies, hashes nothing.
        assert_eq!(second.sig_verifies, 8);
        assert_eq!(second.memo_misses, 4);
        assert_eq!(second.memo_hits, 4);
        hooks::reset();
    }

    #[test]
    fn cert_memo_is_per_allocation_not_per_value() {
        // Two equal-content certificates in different allocations verify
        // independently at the cert layer but share the ballot memo — the
        // second walk is all ballot hits, no new hashing.
        let (reg, keys) = setup(4);
        let a = Arc::new(cert(&keys, 1, value(7), 3));
        let b = Arc::new(a.as_ref().clone());
        let mut cache = VerifyCache::new(VerifyMode::Fast);
        hooks::reset();
        assert!(cache.validate_cert(&a, &reg, 3).ok);
        assert!(cache.validate_cert(&b, &reg, 3).ok);
        let s = hooks::snapshot();
        assert_eq!(s.sig_verifies, 8, "logical count is mode-identical");
        assert_eq!(s.memo_misses, 4, "second walk re-hashes nothing");
        hooks::reset();
    }

    #[test]
    fn cert_verdicts_report_freshness() {
        // `cached` is the signal replicas use to skip idempotent detector
        // re-observation: false on the first walk (and always in reference
        // mode), true on a same-allocation, same-quorum repeat.
        let (reg, keys) = setup(4);
        let c = Arc::new(cert(&keys, 1, value(7), 3));
        let mut fast = VerifyCache::new(VerifyMode::Fast);
        assert!(!fast.validate_cert(&c, &reg, 3).cached, "first walk");
        assert!(fast.validate_cert(&c, &reg, 3).cached, "repeat is a hit");
        assert!(
            !fast.validate_cert(&c, &reg, 4).cached,
            "quorum change forces a fresh walk"
        );
        let mut reference = VerifyCache::new(VerifyMode::Reference);
        assert!(!reference.validate_cert(&c, &reg, 3).cached);
        assert!(
            !reference.validate_cert(&c, &reg, 3).cached,
            "reference mode never answers from cache"
        );
    }

    #[test]
    fn quorum_change_invalidates_a_cert_verdict() {
        let (reg, keys) = setup(4);
        let c = Arc::new(cert(&keys, 1, value(7), 3));
        let mut cache = VerifyCache::new(VerifyMode::Fast);
        assert!(cache.validate_cert(&c, &reg, 3).ok);
        assert!(
            !cache.validate_cert(&c, &reg, 4).ok,
            "cached verdict for quorum 3 must not answer quorum 4"
        );
        assert!(
            cache.validate_cert(&c, &reg, 3).ok,
            "re-walked verdicts land"
        );
    }

    #[test]
    fn reference_mode_never_touches_the_memo_counters() {
        let (reg, keys) = setup(4);
        let c = Arc::new(cert(&keys, 1, value(7), 3));
        let b = signed_ballot(&keys[0], Round(1), Phase::Vote, value(1));
        let mut cache = VerifyCache::new(VerifyMode::Reference);
        hooks::reset();
        assert!(cache.verify_ballot(&b, &reg));
        assert!(cache.verify_ballot(&b, &reg));
        assert!(cache.validate_cert(&c, &reg, 3).ok);
        assert!(cache.validate_cert(&c, &reg, 3).ok);
        let s = hooks::snapshot();
        assert_eq!(s.memo_hits, 0);
        assert_eq!(s.memo_misses, 0);
        assert_eq!(s.sig_verifies, 2 + 2 * 4);
        hooks::reset();
    }

    #[test]
    fn fraud_detection_fires_on_two_cached_conflicting_ballots() {
        // Equivocation detection must survive memoization: both
        // conflicting ballots verify (possibly from cache) and the
        // detector still pairs them — the cache stores verdicts, it never
        // swallows observations.
        let (reg, keys) = setup(2);
        let a = signed_ballot(&keys[1], Round(1), Phase::Commit, value(1));
        let b = signed_ballot(&keys[1], Round(1), Phase::Commit, value(2));
        let mut cache = VerifyCache::new(VerifyMode::Fast);
        let mut det = FraudDetector::new();
        // Warm the cache with both ballots, then route the "arrivals"
        // through it again (pure hits) before observing.
        assert!(cache.verify_ballot(&a, &reg));
        assert!(cache.verify_ballot(&b, &reg));
        assert!(cache.verify_ballot(&a, &reg));
        assert!(det.observe(&a).is_none());
        assert!(cache.verify_ballot(&b, &reg));
        let ev = det.observe(&b).expect("equivocation still detected");
        assert_eq!(ev.accused(), NodeId(1));
    }

    #[test]
    fn pruning_drops_only_stale_rounds() {
        let (reg, keys) = setup(4);
        let old = Arc::new(cert(&keys, 1, value(1), 3));
        let warm = Arc::new(cert(&keys, 4, value(2), 3));
        let mut cache = VerifyCache::new(VerifyMode::Fast);
        assert!(cache.validate_cert(&old, &reg, 3).ok);
        assert!(cache.validate_cert(&warm, &reg, 3).ok);
        cache.prune_before(Round(5));
        hooks::reset();
        assert!(cache.validate_cert(&warm, &reg, 3).ok);
        assert_eq!(hooks::snapshot().memo_misses, 0, "round 4 stayed warm");
        assert!(cache.validate_cert(&old, &reg, 3).ok);
        assert!(hooks::snapshot().memo_misses > 0, "round 1 was pruned");
        hooks::reset();
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Any single-field tamper of a cached valid ballot fails
        /// verification through the cache, and the cache agrees with the
        /// reference path on every probe.
        #[test]
        fn tampering_never_reuses_a_cached_verdict(
            seed in 0u64..1000,
            which in 0u8..3,
            delta in 1u8..255,
        ) {
            let (reg, keys) = KeyRegistry::trusted_setup(3, seed);
            let honest = signed_ballot(&keys[0], Round(2), Phase::Commit, value(9));
            let mut cache = VerifyCache::new(VerifyMode::Fast);
            proptest::prop_assert!(cache.verify_ballot(&honest, &reg));
            let mut twin = honest.clone();
            match which {
                0 => twin.payload.value = value(9u8.wrapping_add(delta)),
                1 => twin.payload.round = Round(2 + delta as u64),
                _ => twin.payload.phase = Phase::Vote,
            }
            let through_cache = cache.verify_ballot(&twin, &reg);
            let reference = twin.verify(&reg);
            proptest::prop_assert_eq!(through_cache, reference);
            proptest::prop_assert!(!through_cache, "tampered ballot accepted");
            // The original stays valid after the tampered probe.
            proptest::prop_assert!(cache.verify_ballot(&honest, &reg));
        }
    }
}
