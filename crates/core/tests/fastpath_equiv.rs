//! Fast-vs-slow differential suite: the memoized verification path (every
//! seat's default [`VerifyCache`]) must be **byte-identical** to the
//! reference verify-on-every-arrival path ([`VerifyCache::reference`],
//! installed into the built committee) on every observable — chains,
//! analysis reports, and the full merged counter registry including
//! `crypto.sig_verifies` (counted *logically* on the fast path: a memo hit
//! charges exactly what the reference path would have paid). These tests
//! are what lets every run verify through the memo.

use prft_core::{
    analysis, signed_ballot, CommitCert, Harness, KeyRegistry, NetworkChoice, Phase, VerifyCache,
};
use prft_sim::obs::hooks;
use prft_sim::{SimTime, Simulation};
use prft_types::{Digest, NodeId, Round};
use std::fmt::Write as _;
use std::sync::Arc;

/// Runs one accountable committee, on the reference verifier when
/// `reference`, and renders every observable to a canonical string: all
/// counters and gauges of the merged registry, the analysis report, and
/// each replica's full chain.
fn run_report(
    n: usize,
    seed: u64,
    rounds: u64,
    tau: Option<usize>,
    crashes: &[usize],
    reference: bool,
) -> String {
    hooks::reset();
    let mut h = Harness::new(n, seed)
        .network(NetworkChoice::Synchronous { delta: SimTime(10) })
        .accountable(true)
        .max_rounds(rounds);
    if let Some(t) = tau {
        h = h.tau(t);
    }
    let (mut replicas, link, seed, _) = h.build_parts();
    if reference {
        for r in &mut replicas {
            r.install_verifier(VerifyCache::reference());
        }
    }
    let mut sim = Simulation::new(replicas, link, seed);
    for &c in crashes {
        sim.crash(NodeId(c));
    }
    sim.run_until(SimTime(500_000));
    let snap = hooks::snapshot();
    let obs = prft_core::obs::collect(&sim, &snap);
    hooks::reset();

    let mut out = String::new();
    for (name, v) in obs.counters() {
        writeln!(out, "counter {name} = {v}").unwrap();
    }
    for (name, v) in obs.gauges() {
        writeln!(out, "gauge {name} = {v}").unwrap();
    }
    writeln!(out, "report {:?}", analysis::analyze(&sim)).unwrap();
    for (i, r) in sim.nodes().enumerate() {
        writeln!(out, "chain P{i} {:?}", r.chain()).unwrap();
    }
    writeln!(out, "ended at {:?}", sim.now()).unwrap();
    out
}

/// The tentpole sizes: accountable committees at n ∈ {8, 16, 32}, clean
/// run, full report compared byte-for-byte.
#[test]
fn accountable_committees_are_mode_identical() {
    for n in [8, 16, 32] {
        let slow = run_report(n, 42, 2, None, &[], true);
        let fast = run_report(n, 42, 2, None, &[], false);
        assert_eq!(slow, fast, "n = {n}: fast path diverged from reference");
        assert!(
            slow.contains("counter crypto.sig_verifies"),
            "sanity: the report covers the verify counter"
        );
    }
}

/// Crash faults force view changes, round churn, and laggard catch-up —
/// the paths where a stale cached verdict would first show up.
#[test]
fn crash_faults_are_mode_identical() {
    for (n, crashes) in [(8usize, vec![1]), (16, vec![2, 5]), (32, vec![0, 7])] {
        let slow = run_report(n, 7, 3, None, &crashes, true);
        let fast = run_report(n, 7, 3, None, &crashes, false);
        assert_eq!(
            slow, fast,
            "n = {n}, crashes {crashes:?}: fast path diverged"
        );
    }
}

/// τ overrides change the quorum mid-cache-lifetime semantics (the cert
/// memo keys its verdicts by quorum); the differential must hold across
/// the Claim 1 window.
#[test]
fn tau_overrides_are_mode_identical() {
    let n = 16;
    let cfg = prft_core::Config::for_committee(n);
    for tau in [cfg.tau_lower_bound(), cfg.tau_upper_bound()] {
        let slow = run_report(n, 99, 2, Some(tau), &[], true);
        let fast = run_report(n, 99, 2, Some(tau), &[], false);
        assert_eq!(slow, fast, "tau = {tau}: fast path diverged");
    }
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(256))]

    /// The fuzzed differential: any (n, τ, seed, fault schedule) from this
    /// space produces byte-identical reports on both verifiers. The
    /// fault schedule is a crash bitmask over the first four seats; τ is
    /// drawn from the Claim 1 safe window (or left at the default).
    #[test]
    fn fuzzed_committees_are_mode_identical(
        n in 4usize..13,
        seed in 0u64..10_000,
        tau_sel in 0u8..4,
        crash_mask in 0u8..8,
    ) {
        let cfg = prft_core::Config::for_committee(n);
        let tau = match tau_sel {
            0 => Some(cfg.tau_lower_bound()),
            1 => Some(cfg.tau_upper_bound()),
            _ => None,
        };
        let crashes: Vec<usize> = (0..3)
            .filter(|b| crash_mask & (1 << b) != 0)
            .map(|b| b + 1) // never crash the first leader: keep runs short
            .filter(|&i| i < n)
            .collect();
        let slow = run_report(n, seed, 2, tau, &crashes, true);
        let fast = run_report(n, seed, 2, tau, &crashes, false);
        proptest::prop_assert_eq!(
            slow,
            fast,
            "n={} seed={} tau={:?} crashes={:?}",
            n,
            seed,
            tau,
            crashes
        );
    }
}

/// What one `validate_cert` call answered and what it charged to the hook
/// counters: `(ok, cached, sig_verifies, memo_hits, memo_misses)`.
type Charged = (bool, bool, u64, u64, u64);

fn validate(
    cache: &mut VerifyCache,
    cert: &Arc<CommitCert>,
    reg: &KeyRegistry,
    quorum: usize,
) -> Charged {
    let before = hooks::snapshot();
    let v = cache.validate_cert(cert, reg, quorum);
    let after = hooks::snapshot();
    (
        v.ok,
        v.cached,
        after.sig_verifies - before.sig_verifies,
        after.memo_hits - before.memo_hits,
        after.memo_misses - before.memo_misses,
    )
}

/// Ways a certificate over `voters` votes goes wrong at vote `k`.
const DEFECTS: [&str; 10] = [
    "none",
    "forged tag",
    "wrong round",
    "wrong phase",
    "wrong value",
    "duplicate signer",
    "short of quorum",
    "vote signer not in the registry",
    "commit signer not in the registry",
    "commit ballot in the wrong phase",
];

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(512))]

    /// One certificate, validated twice through a fresh memo and a fresh
    /// reference verifier: the memo answers what `CommitCert::validate` answers and
    /// charges `crypto.sig_verifies` what it charges — the reference stops
    /// at the first failing check, so a defect at vote `k` is a count, not
    /// only a verdict — with every logical verification either a hit or a
    /// miss, and the repeat replayed from the certificate table: all hits.
    /// A certificate whose commit ballot fails is not remembered (nothing
    /// in it is in the registry's range to index by); its repeat charges
    /// the same, as misses again.
    #[test]
    fn certificates_validate_and_charge_alike_in_both_modes(
        n in 4usize..12,
        seed in 0u64..1000,
        defect in 0usize..DEFECTS.len(),
        k in 0usize..12,
    ) {
        let (reg, _) = KeyRegistry::trusted_setup(n, seed);
        // The same seats plus three the registry does not know.
        let (_, keys) = KeyRegistry::trusted_setup(n + 3, seed);
        let (round, value, other) = (Round(3), Digest::of_bytes(b"v"), Digest::of_bytes(b"w"));
        let voters = n - 1;
        let k = k % voters;
        let mut votes: Vec<_> = keys[..voters]
            .iter()
            .map(|key| signed_ballot(key, round, Phase::Vote, value))
            .collect();
        let mut commit = signed_ballot(&keys[0], round, Phase::Commit, value);
        let (mut quorum, mut remembered) = (voters, true);
        // Logical verifications of one reference validation: the commit,
        // then the votes up to and including the first whose signature is
        // checked and fails.
        let mut expected = 1 + voters as u64;
        match DEFECTS[defect] {
            "forged tag" => {
                votes[k] = signed_ballot(&keys[k], round, Phase::Vote, other);
                votes[k].payload.value = value;
                expected = 1 + k as u64 + 1;
            }
            "wrong round" => {
                votes[k] = signed_ballot(&keys[k], Round(4), Phase::Vote, value);
                expected = 1 + k as u64;
            }
            "wrong phase" => {
                votes[k] = signed_ballot(&keys[k], round, Phase::Commit, value);
                expected = 1 + k as u64;
            }
            "wrong value" => {
                votes[k] = signed_ballot(&keys[k], round, Phase::Vote, other);
                expected = 1 + k as u64;
            }
            "duplicate signer" => votes[k] = votes[(k + 1) % voters].clone(),
            "short of quorum" => quorum = voters + 1,
            "vote signer not in the registry" => {
                votes[k] = signed_ballot(&keys[n + k % 3], round, Phase::Vote, value);
                expected = 1 + k as u64 + 1;
            }
            "commit signer not in the registry" => {
                commit = signed_ballot(&keys[n + k % 3], round, Phase::Commit, value);
                (expected, remembered) = (1, false);
            }
            "commit ballot in the wrong phase" => {
                commit = signed_ballot(&keys[0], round, Phase::Reveal, value);
                (expected, remembered) = (0, false);
            }
            _ => {}
        }
        let cert = Arc::new(CommitCert::new(commit, votes));

        let mut reference = VerifyCache::reference();
        let mut fast = VerifyCache::default();
        for repeat in [false, true] {
            let (ok, _, charged, ref_hits, ref_misses) =
                validate(&mut reference, &cert, &reg, quorum);
            proptest::prop_assert_eq!(ok, defect == 0, "{}", DEFECTS[defect]);
            proptest::prop_assert_eq!(charged, expected, "{} at {}", DEFECTS[defect], k);
            proptest::prop_assert_eq!((ref_hits, ref_misses), (0, charged));
            let (fast_ok, cached, fast_charged, hits, misses) =
                validate(&mut fast, &cert, &reg, quorum);
            proptest::prop_assert_eq!(
                (fast_ok, fast_charged),
                (ok, charged),
                "{} at {}, repeat {}", DEFECTS[defect], k, repeat
            );
            proptest::prop_assert_eq!(hits + misses, fast_charged);
            proptest::prop_assert_eq!(cached, repeat && remembered, "{}", DEFECTS[defect]);
            if repeat && remembered {
                proptest::prop_assert_eq!(misses, 0);
            }
        }
    }
}
