//! Memoized ballot / certificate verification — the accountable large-n
//! fast path.
//!
//! Signature verification is a pure function of (registry, signed bytes),
//! and the accountable Reveal phase re-checks every distinct commit
//! certificate ~quorum times (the q(1+q(q+1)) term that makes accountable
//! n = 64 cost 15.8M verifies for two rounds). A signature is the ideal
//! functionality: [`KeyRegistry::tag_of`] derives a valid tag with no
//! hash, so checking one signature costs a compare, and [`VerifyCache`]
//! keeps only what a check would otherwise recompute:
//!
//! * **Signing digests** — one per live signed payload (round, phase,
//!   value), hashed once per seat and shared by every signer. Every check
//!   still compares the ballot's own signer and tag against the derived
//!   one, so a tampered twin never reuses a verdict: another payload has
//!   another digest, another signer or tag fails the compare. Only a
//!   verified signature adds an entry, so forged payloads and
//!   out-of-range signer ids allocate nothing here.
//! * **Certificate table** — one 24-byte slot per commit signer: the
//!   address, round and quorum of its newest certificate and the verdict,
//!   all a hit reads. Identity is the `Arc` allocation of the
//!   [`CommitCert`]: Commit broadcasts hand every replica the *same*
//!   allocation and Reveals carry those `Arc`s onward, so re-validating a
//!   seen certificate is one probe, and a Reveal's scan probes the slots of
//!   the committers its [`RevealSet`] names without reading a certificate.
//!   A keep-alive clone of each `Arc` beside the slots keeps an address
//!   from being recycled onto different content while cached.
//! * **Certificate proof** — on the allocation, shared by every seat: the
//!   first seat whose walk finds its signatures valid records the registry
//!   on it ([`CommitCert::prove`]), and no other receiver walks its votes.
//!
//! **Counting discipline** (what keeps reports byte-identical to the
//! reference verifier's): `crypto.sig_verifies` counts *logical*
//! verifications — a certificate-table hit adds, in one batched add, what
//! the reference path pays. A seat checks every signature through this
//! cache, and the `memo_hits`/`memo_misses` hook counters split them: a
//! hit is replayed from the seat's certificate table, a miss is any other,
//! so `memo_hits + memo_misses == sig_verifies` (`prft-lab`'s
//! `memo_identity` row). A proven certificate's votes are charged as the
//! misses its walk charges, so the counters do not depend on which seat or
//! thread walks first, and a fork charges what a fresh run does. The memo
//! counters surface only in `prft-bench profile` output, never in
//! scenario reports.
//!
//! **The reference verifier** ([`VerifyCache::reference`]) re-verifies
//! every signature on every arrival and caches nothing, charging each
//! verification it performs as a miss, so the `memo_identity` row holds on
//! it too. No run selects it: it is the oracle of the fast ≡ reference
//! suites (`crates/core/tests/{fastpath_equiv,verify_model}.rs` and
//! `crates/scenarios/tests/fastpath_identity.rs`), which install it into a
//! committee they have already built with [`crate::Replica::install_verifier`].

use crate::messages::{Ballot, CommitCert, Phase, RevealSet, SignedBallot};
use crate::Config;
use prft_crypto::{KeyRegistry, Signable, Signed};
use prft_sim::obs::hooks;
use prft_types::{Digest, NodeId, Round};
use std::sync::Arc;

/// Adds `n` logical verifications replayed from the certificate table to
/// the counters.
fn replay(n: u64) {
    if n > 0 {
        hooks::add_sig_verifies(n);
        hooks::add_memo_hits(n);
    }
}

/// The address a certificate verdict answers for.
fn address(cert: &Arc<CommitCert>) -> usize {
    Arc::as_ptr(cert) as usize
}

/// A cached certificate verdict: everything a hit reads.
#[derive(Clone, Copy)]
struct CertSlot {
    /// [`address`] of the certificate, or 0 in an empty slot.
    addr: usize,
    /// Certificate round: read on every probe and when pruning, without
    /// touching the allocation.
    round: Round,
    /// Quorum the verdict was computed against (re-validate on mismatch).
    quorum: u32,
    /// The verdict `CommitCert::validate` reached in the low bit, above it
    /// the logical signature verifications the reference path performs
    /// for one validation of this certificate — replayed into
    /// `crypto.sig_verifies` on every hit so the counter stays identical
    /// to the reference path's.
    verdict: u32,
}

impl CertSlot {
    const EMPTY: CertSlot = CertSlot {
        addr: 0,
        round: Round(0),
        quorum: 0,
        verdict: 0,
    };

    /// The slot of a verdict on `cert`. The counts fit 32 bits: a verify
    /// count past 2^31 takes 2^31 votes.
    fn new(cert: &Arc<CommitCert>, quorum: usize, ok: bool, verifies: u64) -> CertSlot {
        debug_assert!(quorum <= u32::MAX as usize && verifies < 1 << 31);
        CertSlot {
            addr: address(cert),
            round: cert.commit().payload.round,
            quorum: quorum as u32,
            verdict: (verifies << 1 | u64::from(ok)) as u32,
        }
    }

    fn ok(self) -> bool {
        self.verdict & 1 == 1
    }

    fn verifies(self) -> u64 {
        u64::from(self.verdict >> 1)
    }
}

/// The certificate table: by commit signer, the verdict on that signer's
/// newest-round certificate whose commit ballot verified.
#[derive(Clone, Default)]
struct CertTable {
    slots: Vec<CertSlot>,
    /// By commit signer: the allocation its slot answers for. A verdict
    /// answers for an address, and an address can only be trusted to
    /// identify content while that allocation cannot be freed and recycled.
    pins: Vec<Option<Arc<CommitCert>>>,
    /// Every other live verdict, with its allocation: an equivocating
    /// committer's second side, and the previous round's (which
    /// [`VerifyCache::prune_before`] keeps) once the current round's took
    /// the slot. No signer has an entry here that is newer than its slot's.
    overflow: Vec<(CertSlot, Arc<CommitCert>)>,
}

impl CertTable {
    /// The verdict answering for this allocation by `committer`, if any.
    /// A hit on the committer's slot reads nothing of the certificate.
    fn find(&mut self, committer: NodeId, cert: &Arc<CommitCert>) -> Option<&mut CertSlot> {
        let addr = address(cert);
        let slot = self.slots.get_mut(committer.0)?;
        if slot.addr == addr {
            return Some(slot);
        }
        if slot.addr == 0 || slot.round < cert.commit().payload.round {
            return None; // no entry in `overflow` is newer than its signer's slot
        }
        let held = self.overflow.iter_mut().find(|(s, _)| s.addr == addr);
        held.map(|(s, _)| s)
    }

    /// Stores a new verdict on `cert`: in its signer's slot unless a
    /// certificate of the same or a later round holds it — a Reveal scan
    /// probes the current round's certificates, and those must not queue
    /// behind the previous round's.
    fn remember(&mut self, slot: CertSlot, cert: &Arc<CommitCert>) {
        // In range of the registry: the commit ballot verified.
        let signer = cert.commit().signer().0;
        if self.slots.len() <= signer {
            self.slots.resize(signer + 1, CertSlot::EMPTY);
            self.pins.resize(signer + 1, None);
        }
        let held = &mut self.slots[signer];
        if held.addr != 0 && held.round >= slot.round {
            self.overflow.push((slot, Arc::clone(cert)));
            return;
        }
        let displaced = std::mem::replace(held, slot);
        if let Some(pin) = self.pins[signer].replace(Arc::clone(cert)) {
            self.overflow.push((displaced, pin));
        }
    }

    /// Drops the verdicts on certificates of rounds before `keep`.
    fn prune_before(&mut self, keep: u64) {
        for (slot, pin) in self.slots.iter_mut().zip(&mut self.pins) {
            if slot.round.0 < keep {
                *slot = CertSlot::EMPTY;
                *pin = None;
            }
        }
        self.overflow.retain(|(s, _)| s.round.0 >= keep);
    }
}

/// Outcome of one certificate validation through the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CertVerdict {
    /// Whether the certificate is valid — always exactly what
    /// `CommitCert::validate` would say.
    pub ok: bool,
    /// Whether the verdict was answered from the certificate table (always
    /// `false` on the reference verifier). A cached verdict on a
    /// current-round certificate proves this replica walked the same
    /// allocation this round *and*, when valid, fed it to its fraud detector
    /// (adopting a stale Reveal validates only older rounds'), so callers
    /// may skip the idempotent re-observation of its ballots.
    pub cached: bool,
}

/// Per-replica verification memo (signing digests + certificate table).
///
/// The default caches digests and verdicts as the module says; the
/// [reference verifier](VerifyCache::reference) verifies afresh on every
/// call.
///
/// `Clone` supports checkpoint/fork warm starts: the clone shares the
/// same certificate `Arc` allocations, so its address-matched entries
/// remain valid in the forked run (which also clones — and therefore
/// shares — those allocations through the message arena).
#[derive(Clone, Default)]
pub struct VerifyCache {
    /// Verify every call afresh and cache nothing.
    reference: bool,
    /// Each payload a signature verified over, with its signing digest.
    /// Oldest first; a handful per live round (one per phase, more only
    /// when somebody equivocates), so a lookup is a short scan from the
    /// newest end.
    digests: Vec<(Ballot, Digest)>,
    certs: CertTable,
}

impl VerifyCache {
    /// The reference verifier: the verify-on-every-arrival path the seed
    /// replica took, bit for bit, that the fast ≡ reference suites hold
    /// the memo to. Each signature it verifies is charged as a miss.
    pub fn reference() -> VerifyCache {
        VerifyCache {
            reference: true,
            ..VerifyCache::default()
        }
    }

    /// The held signing digest of `payload`, if a signature over it
    /// verified here.
    fn held_digest(&self, payload: &Ballot) -> Option<Digest> {
        let found = self.digests.iter().rev().find(|(p, _)| p == payload);
        found.map(|&(_, digest)| digest)
    }

    /// Verifies one signed ballot, hashing its payload once per seat on
    /// the fast path. Either way it charges one `crypto.sig_verifies`.
    pub fn verify_ballot(&mut self, ballot: &SignedBallot, registry: &KeyRegistry) -> bool {
        hooks::add_memo_misses(1);
        if self.reference {
            return ballot.verify(registry);
        }
        let held = self.held_digest(&ballot.payload);
        let digest = held.unwrap_or_else(|| ballot.payload.signing_digest());
        // `KeyRegistry::verify` counts the sig_verify itself.
        let valid = registry.verify(digest, &ballot.sig);
        if valid && held.is_none() {
            self.digests.push((ballot.payload, digest));
        }
        valid
    }

    /// Verifies any other signed payload (a view-change request, a
    /// commit-view): a miss that holds no digest.
    pub fn verify_signed<T: Signable>(&mut self, s: &Signed<T>, registry: &KeyRegistry) -> bool {
        hooks::add_memo_misses(1);
        s.verify(registry)
    }

    /// [`Self::verify_ballot`] of a certificate's [`Phase::Commit`] ballot.
    pub(crate) fn verify_commit(&mut self, cert: &CommitCert, registry: &KeyRegistry) -> bool {
        let commit = cert.commit();
        commit.payload.phase == Phase::Commit && self.verify_ballot(commit, registry)
    }

    /// Validates a commit certificate, memoized per allocation on the fast path.
    pub fn validate_cert(
        &mut self,
        cert: &Arc<CommitCert>,
        registry: &KeyRegistry,
        quorum: usize,
    ) -> CertVerdict {
        let mut replayed = 0;
        let committer = cert.commit().signer();
        let verdict = self.check_cert(committer, cert, registry, quorum, &mut replayed);
        replay(replayed);
        verdict
    }

    /// Validates a Reveal's certificates in order, as one
    /// [`Self::validate_cert`] call each would, and returns the positions
    /// of the valid ones that were not answered from the certificate
    /// table: those whose ballots the caller has yet to observe. A
    /// certificate whose committer's slot answers for its address costs a
    /// probe of that slot alone, and the verifications those hits replay
    /// reach the counters in one add per Reveal.
    pub fn validate_reveal(
        &mut self,
        certs: &RevealSet,
        registry: &KeyRegistry,
        quorum: usize,
    ) -> Vec<usize> {
        let (mut replayed, mut fresh) = (0, Vec::new());
        for (i, (cert, &committer)) in certs.iter().zip(certs.committers()).enumerate() {
            let verdict = self.check_cert(committer, cert, registry, quorum, &mut replayed);
            if verdict.ok && !verdict.cached {
                fresh.push(i);
            }
        }
        replay(replayed);
        fresh
    }

    /// [`Self::validate_cert`] of `cert`, committed by `committer`, except
    /// that a cached verdict's verifications are added to `replayed`
    /// instead of to the counters. The hit is decided here, for both
    /// callers; it is inlined into the Reveal scan, where a call per
    /// certificate cost as much as the probe itself.
    #[inline(always)]
    fn check_cert(
        &mut self,
        committer: NodeId,
        cert: &Arc<CommitCert>,
        registry: &KeyRegistry,
        quorum: usize,
        replayed: &mut u64,
    ) -> CertVerdict {
        if self.reference {
            let before = hooks::snapshot().sig_verifies;
            let ok = cert.validate(registry, quorum);
            hooks::add_memo_misses(hooks::snapshot().sig_verifies - before);
            return CertVerdict { ok, cached: false };
        }
        match self.certs.find(committer, cert) {
            Some(held) if held.quorum as usize == quorum => {
                *replayed += held.verifies();
                CertVerdict {
                    ok: held.ok(),
                    cached: true,
                }
            }
            _ => self.walk_cert(committer, cert, registry, quorum),
        }
    }

    /// Validates `cert` in full and remembers the verdict.
    fn walk_cert(
        &mut self,
        committer: NodeId,
        cert: &Arc<CommitCert>,
        registry: &KeyRegistry,
        quorum: usize,
    ) -> CertVerdict {
        // A certificate whose commit ballot fails is not remembered: its
        // re-validation stops at the same ballot, and only a signer in the
        // registry may claim a slot.
        if !self.verify_commit(cert, registry) {
            return CertVerdict {
                ok: false,
                cached: false,
            };
        }
        // A proven certificate walks nothing and is charged as its walk.
        let (valid, verifies) = if cert.proven(registry) {
            (true, cert.votes().len() as u64)
        } else {
            let walked = self.walk_votes(cert, registry);
            if walked.0 {
                cert.prove(registry);
            }
            walked
        };
        hooks::add_sig_verifies(verifies);
        hooks::add_memo_misses(verifies);
        let ok = valid && cert.signers().len() >= quorum;
        let fresh = CertSlot::new(cert, quorum, ok, 1 + verifies);
        match self.certs.find(committer, cert) {
            Some(held) => *held = fresh,
            None => self.certs.remember(fresh, cert),
        }
        CertVerdict { ok, cached: false }
    }

    /// The votes' half of a certificate walk, mirroring
    /// `CommitCert::validate`'s exact short-circuit structure (each vote's
    /// phase/round/value checks before its verify; stop at the first
    /// failure). Returns whether every vote is valid, leaving the quorum
    /// to the caller, and the number of logical verifications the
    /// reference path performs on the votes, which the caller charges in
    /// one add and replays on later hits. Every vote is checked against
    /// the justifying vote's digest, looked up once.
    fn walk_votes(&mut self, cert: &CommitCert, registry: &KeyRegistry) -> (bool, u64) {
        let vote = cert.commit().payload.justifying_vote();
        let held = self.held_digest(&vote);
        let digest = held.unwrap_or_else(|| vote.signing_digest());
        let (mut ok, mut verifies) = (true, 0);
        for v in cert.votes() {
            if !cert.uniform() && v.payload != vote {
                ok = false;
                break;
            }
            verifies += 1;
            if registry.tag_of(v.signer(), digest) != Some(v.sig.tag()) {
                ok = false;
                break;
            }
        }
        if ok && verifies > 0 && held.is_none() {
            self.digests.push((vote, digest));
        }
        (ok, verifies)
    }

    /// Drops entries from rounds before `round − 1`. Finals of round r
    /// are processed while the replica sits in round r + 1, so the
    /// previous round stays warm; anything older can never be looked up
    /// again (stale-round messages are dropped before verification).
    pub fn prune_before(&mut self, round: Round) {
        let keep = round.0.saturating_sub(1);
        self.digests.retain(|(p, _)| p.round.0 >= keep);
        self.certs.prune_before(keep);
    }
}

/// Analytic signature-verify count (`crypto.sig_verifies`) for one honest
/// run: `rounds` rounds, committee `n`, quorum `q = n − t0`,
/// `t0 = ⌈n/4⌉ − 1`.
///
/// Per replica per round, from the handler structure (each broadcast is
/// self-delivered, so a phase's quorum of n senders lands n messages on
/// every replica; messages from *past* rounds are dropped unverified —
/// except Finals — so a phase that advances the round leaves its tail
/// unchecked):
/// * Propose: 1 (leader ballot, checked once on arrival);
/// * Vote: n votes × (ballot + attached propose `s_pro`) = 2n;
/// * Commit: each commit costs ballot + certificate (commit + q votes)
///   = q + 2. Non-accountable rounds finalize at the commit quorum, so
///   only q commits are checked: q(q+2). Accountable rounds stay open
///   through Reveal, so all n are: n(q+2);
/// * Reveal (accountable only): each reveal carries q commit
///   certificates of q + 1 signatures each, and the round advances at
///   the reveal quorum: q(1 + q(q+1)) — the O(n·q²) ≈ O(n³/
///   replica-round) term that dominates at scale, the verify-side twin
///   of Table 3's O(n³κ) communication bound;
/// * Final: 1 each; Finals act across rounds, so each non-final round
///   contributes n (the last round's tail hits passive replicas).
///
/// The constant factors are derived, not fitted; `prft-bench profile` and
/// the `verify_model` tests hold measurement to within 10% of this model
/// (the tail of the last round depends on delivery order).
pub fn predicted_verifies(n: usize, rounds: u64, accountable: bool) -> u64 {
    let (n, q) = (n as u64, Config::for_committee(n).quorum() as u64);
    let per_replica_round = if accountable {
        1 + 2 * n + n * (q + 2) + q * (1 + q * (q + 1))
    } else {
        1 + 2 * n + q * (q + 2)
    };
    per_run(n, rounds, per_replica_round)
}

/// Miss model: how many verifications a replica's certificate table
/// does not replay (`verify.memo_miss`). A memo hit is a replay of a
/// verdict this replica reached on the same certificate allocation
/// earlier; every other verification is a miss. So, term by term of
/// [`predicted_verifies`]:
/// * Propose 1, Vote 2n: single ballots, all misses;
/// * Commit: each certificate arrives once, in its own allocation, so
///   its commit ballot and its walk miss: n(q+2) accountable, q(q+2)
///   plain;
/// * Reveal (accountable): the q reveal ballots miss; the q certificates
///   each quotes are the `Arc`s of the Commit broadcasts, already
///   validated at Commit time, so their q · q(q+1) verifications are the
///   only hits;
/// * Final: n per non-final round, all misses.
///
/// So per replica-round: accountable `1 + 2n + n(q+2) + q` — the logical
/// count less its Reveal certificates — and plain `1 + 2n + q(q+2)`, the
/// whole logical count (plain points read 0 hits). `prft-bench profile`
/// holds the accountable model to 0.1%: every constant is structural,
/// nothing is fitted.
pub fn predicted_memo_misses(n: usize, rounds: u64, accountable: bool) -> u64 {
    let (n, q) = (n as u64, Config::for_committee(n).quorum() as u64);
    let per_replica_round = if accountable {
        1 + 2 * n + n * (q + 2) + q
    } else {
        1 + 2 * n + q * (q + 2)
    };
    per_run(n, rounds, per_replica_round)
}

/// A run's count from one replica-round's: `n` replicas in each of
/// `rounds` rounds, plus the `n` Finals of every non-final round.
fn per_run(n: u64, rounds: u64, per_replica_round: u64) -> u64 {
    n * (rounds * per_replica_round + rounds.saturating_sub(1) * n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::Ballot;
    use crate::pof::{signed_ballot, FraudDetector};
    use prft_types::NodeId;

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
        let commit = Signed::sign(Ballot::new(Round(round), Phase::Commit, v), &keys[0]);
        CommitCert::new(commit, votes)
    }

    #[test]
    fn ballot_memo_answers_repeats_without_hashing() {
        let (reg, keys) = setup(2);
        let b = signed_ballot(&keys[0], Round(1), Phase::Vote, value(1));
        let mut cache = VerifyCache::default();
        hooks::reset();
        assert!(cache.verify_ballot(&b, &reg));
        assert!(cache.verify_ballot(&b, &reg));
        assert!(cache.verify_ballot(&b, &reg));
        let s = hooks::snapshot();
        // Logical count matches the reference path (3 verifies), and a
        // ballot is no certificate-table replay: every check is a miss…
        assert_eq!((s.sig_verifies, s.memo_hits, s.memo_misses), (3, 0, 3));
        // …but the payload was hashed once.
        assert_eq!(cache.digests, vec![(b.payload, b.payload.signing_digest())]);
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
        let mut cache = VerifyCache::default();
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
        // A negative verdict is never upgraded.
        assert!(!cache.verify_ballot(&forged, &reg));
    }

    #[test]
    fn cert_memo_replays_the_reference_verify_count() {
        let (reg, keys) = setup(4);
        let c = Arc::new(cert(&keys, 1, value(7), 3));
        let mut cache = VerifyCache::default();
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
        // independently at the cert layer (the second walk is no replay)
        // but share the signing digests: nothing is hashed twice.
        let (reg, keys) = setup(4);
        let a = Arc::new(cert(&keys, 1, value(7), 3));
        let b = Arc::new(a.as_ref().clone());
        let mut cache = VerifyCache::default();
        hooks::reset();
        assert!(cache.validate_cert(&a, &reg, 3).ok);
        assert!(cache.validate_cert(&b, &reg, 3).ok);
        assert!(cache.validate_cert(&b, &reg, 3).cached);
        let s = hooks::snapshot();
        assert_eq!(s.sig_verifies, 12, "logical count is mode-identical");
        assert_eq!(
            (s.memo_hits, s.memo_misses),
            (4, 8),
            "one replay, two walks"
        );
        assert_eq!(cache.digests.len(), 2, "one commit and one vote payload");
        hooks::reset();
    }

    #[test]
    fn cert_verdicts_report_freshness() {
        // `cached` is the signal replicas use to skip idempotent detector
        // re-observation: false on the first walk (and always on the
        // reference verifier), true on a same-allocation, same-quorum repeat.
        let (reg, keys) = setup(4);
        let c = Arc::new(cert(&keys, 1, value(7), 3));
        let mut fast = VerifyCache::default();
        assert!(!fast.validate_cert(&c, &reg, 3).cached, "first walk");
        assert!(fast.validate_cert(&c, &reg, 3).cached, "repeat is a hit");
        assert!(
            !fast.validate_cert(&c, &reg, 4).cached,
            "quorum change forces a fresh walk"
        );
        let mut reference = VerifyCache::reference();
        assert!(!reference.validate_cert(&c, &reg, 3).cached);
        assert!(
            !reference.validate_cert(&c, &reg, 3).cached,
            "the reference verifier never answers from cache"
        );
    }

    #[test]
    fn a_certificate_is_proven_once_per_allocation_and_registry() {
        let (reg, keys) = setup(4);
        let c = Arc::new(cert(&keys, 1, value(7), 3));
        let mut reference = VerifyCache::reference();
        assert!(reference.validate_cert(&c, &reg, 3).ok);
        assert!(!c.proven(&reg), "the reference path proves nothing");
        let mut seat = VerifyCache::default();
        assert!(!seat.validate_cert(&c, &reg, 4).ok, "short of quorum 4");
        assert!(c.proven(&reg), "the proof is of the signatures alone");
        assert!(Arc::new(c.as_ref().clone()).proven(&reg), "a clone has it");
        let other = Arc::new(cert(&keys, 1, value(7), 3));
        assert!(!other.proven(&reg), "an equal allocation does not");
        let (twin_setup, _) = setup(4);
        assert!(
            !c.proven(&twin_setup),
            "nor another setup of the same seeds"
        );
        let mut votes = c.votes().to_vec();
        votes[1] = signed_ballot(&keys[1], Round(1), Phase::Vote, value(8));
        votes[1].payload.value = value(7);
        let forged = Arc::new(CommitCert::new(c.commit().clone(), votes));
        assert!(!seat.validate_cert(&forged, &reg, 3).ok);
        assert!(!forged.proven(&reg), "a forged vote is never proven");
    }

    #[test]
    fn quorum_change_invalidates_a_cert_verdict() {
        let (reg, keys) = setup(4);
        let c = Arc::new(cert(&keys, 1, value(7), 3));
        let mut cache = VerifyCache::default();
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
    fn the_reference_verifier_charges_every_verification_as_a_miss() {
        let (reg, keys) = setup(4);
        let c = Arc::new(cert(&keys, 1, value(7), 3));
        let b = signed_ballot(&keys[0], Round(1), Phase::Vote, value(1));
        let mut cache = VerifyCache::reference();
        hooks::reset();
        assert!(cache.verify_ballot(&b, &reg));
        assert!(cache.verify_ballot(&b, &reg));
        assert!(cache.validate_cert(&c, &reg, 3).ok);
        assert!(cache.validate_cert(&c, &reg, 3).ok);
        let s = hooks::snapshot();
        assert_eq!(s.memo_hits, 0, "the reference verifier caches nothing");
        assert_eq!(s.sig_verifies, 2 + 2 * 4);
        assert_eq!(s.memo_misses, s.sig_verifies);
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
        let mut cache = VerifyCache::default();
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
        let mut cache = VerifyCache::default();
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

    #[test]
    fn a_forged_tag_never_borrows_the_held_valid_one() {
        // Signer 0's valid vote is held; a second ballot claims the same
        // payload and signer under another tag (here: its signature over a
        // different value). It reads the same digest and fails the compare.
        let (reg, keys) = setup(2);
        let honest = signed_ballot(&keys[0], Round(1), Phase::Vote, value(1));
        let mut forged = signed_ballot(&keys[0], Round(1), Phase::Vote, value(2));
        forged.payload = honest.payload;
        let mut cache = VerifyCache::default();
        assert!(cache.verify_ballot(&honest, &reg));
        hooks::reset();
        assert!(!cache.verify_ballot(&forged, &reg));
        assert!(!cache.verify_ballot(&forged, &reg), "never upgraded");
        assert!(
            cache.verify_ballot(&honest, &reg),
            "nor is the valid one lost"
        );
        let s = hooks::snapshot();
        assert_eq!((s.memo_hits, s.memo_misses, s.sig_verifies), (0, 3, 3));
        assert_eq!(cache.digests.len(), 1);
        hooks::reset();
    }

    #[test]
    fn forged_payloads_and_unknown_signers_table_nothing() {
        let (reg, keys) = setup(2);
        // Same master seed, larger committee: seat 5 is not in `reg`.
        let (_, outsiders) = KeyRegistry::trusted_setup(6, 7);
        let mut cache = VerifyCache::default();
        for round in 0..50 {
            let unknown = signed_ballot(&outsiders[5], Round(round), Phase::Vote, value(1));
            assert!(!cache.verify_ballot(&unknown, &reg));
            let c = Arc::new(cert(&outsiders[5..], round, value(1), 1));
            assert!(!cache.validate_cert(&c, &reg, 1).ok);
        }
        // A forged ballot presented k times fails, is charged and is
        // missed k times, and is never held.
        let mut forged = signed_ballot(&keys[1], Round(1), Phase::Vote, value(2));
        forged.payload.value = value(1);
        hooks::reset();
        for k in 1..=5 {
            assert!(!cache.verify_ballot(&forged, &reg));
            let s = hooks::snapshot();
            assert_eq!((s.sig_verifies, s.memo_misses, s.memo_hits), (k, k, 0));
        }
        hooks::reset();
        assert!(
            cache.digests.is_empty(),
            "only a valid signature holds a digest"
        );
        assert!(cache.certs.slots.is_empty() && cache.certs.overflow.is_empty());
    }

    #[test]
    fn two_certificates_by_one_committer_in_one_round_keep_their_own_verdicts() {
        // An equivocating committer's two sides: P0 commits value 7 with a
        // quorum and value 8 without one.
        let (reg, keys) = setup(4);
        let good = Arc::new(cert(&keys, 1, value(7), 3));
        let short = Arc::new(cert(&keys, 1, value(8), 2));
        let mut cache = VerifyCache::default();
        assert!(cache.validate_cert(&good, &reg, 3).ok);
        assert!(!cache.validate_cert(&short, &reg, 3).ok);
        hooks::reset();
        for _ in 0..2 {
            let v = cache.validate_cert(&good, &reg, 3);
            assert!(v.ok && v.cached);
            let v = cache.validate_cert(&short, &reg, 3);
            assert!(!v.ok && v.cached);
        }
        let s = hooks::snapshot();
        assert_eq!(s.memo_misses, 0);
        assert_eq!(s.sig_verifies, 2 * (4 + 3), "each replays its own count");
        hooks::reset();
    }

    #[test]
    fn one_committer_stays_cached_across_two_rounds_in_either_arrival_order() {
        let (reg, keys) = setup(4);
        for newer_first in [false, true] {
            let older = Arc::new(cert(&keys, 4, value(1), 3));
            let newer = Arc::new(cert(&keys, 5, value(2), 3));
            let mut cache = VerifyCache::default();
            let mut order = [&older, &newer];
            if newer_first {
                order.reverse();
            }
            for c in order {
                assert!(!cache.validate_cert(c, &reg, 3).cached);
            }
            let slot = cache.certs.slots[0];
            assert_eq!(slot.addr, address(&newer), "P0's newer certificate");
            assert_eq!(slot.round, Round(5), "the newer round holds the slot");
            cache.prune_before(Round(5));
            assert!(cache.validate_cert(&older, &reg, 3).cached);
            assert!(cache.validate_cert(&newer, &reg, 3).cached);
            cache.prune_before(Round(6));
            assert!(!cache.validate_cert(&older, &reg, 3).cached, "pruned");
            assert!(cache.validate_cert(&newer, &reg, 3).cached);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// A Reveal scan is one `validate_cert` call per certificate: after
        /// the same certificates were seen, it names the same fresh valid
        /// positions and charges every counter the same, whether its
        /// certificates hit a committer's slot, the overflow list (an
        /// equivocating committer's second side, the previous round's) or
        /// nothing (a first sight, a twin allocation, a forgery). Both
        /// reach `CommitCert::validate`'s verdicts and charge its
        /// `sig_verifies` — also for the forged tag of a signer whose valid
        /// vote another certificate carries.
        #[test]
        fn a_reveal_scan_is_its_certificates_one_by_one(
            seen in proptest::collection::vec(0usize..9, 0..9),
            revealed in proptest::collection::vec(0usize..9, 0..14),
        ) {
            let (reg, keys) = setup(4);
            let by = |who: usize, round: u64, v: u8, voters: usize| {
                let votes = keys[..voters]
                    .iter()
                    .map(|k| signed_ballot(k, Round(round), Phase::Vote, value(v)))
                    .collect();
                let commit = signed_ballot(&keys[who], Round(round), Phase::Commit, value(v));
                Arc::new(CommitCert::new(commit, votes))
            };
            let forged = {
                let mut votes = by(2, 2, 1, 3).votes().to_vec();
                votes[1] = signed_ballot(&keys[1], Round(2), Phase::Vote, value(9));
                votes[1].payload.value = value(1);
                let commit = signed_ballot(&keys[2], Round(2), Phase::Commit, value(1));
                CommitCert::new(commit, votes)
            };
            let pool = [
                by(0, 2, 1, 3),
                by(1, 2, 1, 3),
                by(2, 2, 1, 4),
                by(0, 2, 2, 3),
                by(1, 2, 3, 2),
                by(3, 1, 1, 3),
                by(3, 2, 1, 3),
                Arc::new(forged),
                Arc::new(by(0, 2, 1, 3).as_ref().clone()),
            ];
            let mut scan = VerifyCache::default();
            let mut each = VerifyCache::default();
            for &i in &seen {
                scan.validate_cert(&pool[i], &reg, 3);
                each.validate_cert(&pool[i], &reg, 3);
            }
            let set = RevealSet::new(revealed.iter().map(|&i| Arc::clone(&pool[i])).collect());
            hooks::reset();
            let reference: Vec<bool> = set.iter().map(|c| c.validate(&reg, 3)).collect();
            let reference_charged = hooks::snapshot().sig_verifies;
            hooks::reset();
            let fresh = scan.validate_reveal(&set, &reg, 3);
            let scan_charged = hooks::snapshot();
            hooks::reset();
            let mut expected = Vec::new();
            for (i, ok) in reference.into_iter().enumerate() {
                let v = each.validate_cert(&set[i], &reg, 3);
                proptest::prop_assert_eq!(v.ok, ok, "certificate {}", revealed[i]);
                if v.ok && !v.cached {
                    expected.push(i);
                }
            }
            let each_charged = hooks::snapshot();
            hooks::reset();
            proptest::prop_assert_eq!(fresh, expected);
            proptest::prop_assert_eq!(scan_charged, each_charged);
            proptest::prop_assert_eq!(scan_charged.sig_verifies, reference_charged);
        }

        /// A seat receiving a certificate another seat already proved
        /// reaches the verdict and charges the counters that walking an
        /// unproven allocation of the same content does, whatever it held
        /// before: some of the votes received on their own, the commit
        /// ballot or not. `voters` may repeat a signer or break id order.
        #[test]
        fn a_proven_certificate_charges_what_its_walk_would(
            held in proptest::collection::vec(0usize..70, 0..40),
            voters in proptest::collection::vec(0usize..70, 0..40),
            sorted in proptest::any::<bool>(),
            commit_held in proptest::any::<bool>(),
            quorum in 0usize..50,
        ) {
            let (reg, keys) = setup(70);
            let mut voters = voters;
            if sorted {
                voters.sort_unstable();
                voters.dedup();
            }
            let vote = |i: usize| signed_ballot(&keys[i], Round(1), Phase::Vote, value(1));
            let votes: Vec<SignedBallot> = voters.iter().map(|&i| vote(i)).collect();
            let committer = &keys[voters.first().map_or(0, |&i| i)];
            let commit = signed_ballot(committer, Round(1), Phase::Commit, value(1));
            let proven = Arc::new(CommitCert::new(commit.clone(), votes.clone()));
            let unproven = Arc::new(CommitCert::new(commit.clone(), votes));
            VerifyCache::default().validate_cert(&proven, &reg, 0);
            proptest::prop_assert!(proven.proven(&reg) && !unproven.proven(&reg));
            let mut seen = Vec::new();
            for cert in [&unproven, &proven] {
                let mut seat = VerifyCache::default();
                for &i in &held {
                    seat.verify_ballot(&vote(i), &reg);
                }
                if commit_held {
                    seat.verify_ballot(&commit, &reg);
                }
                hooks::reset();
                let commit_ok = seat.verify_commit(cert, &reg);
                let verdict = seat.validate_cert(cert, &reg, quorum);
                seen.push((commit_ok, verdict, hooks::snapshot()));
            }
            hooks::reset();
            proptest::prop_assert_eq!(&seen[0], &seen[1]);
        }
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
            let mut cache = VerifyCache::default();
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
