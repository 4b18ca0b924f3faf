//! Verify-count model regression: pins the measured verification work of
//! an honest accountable committee to the two analytic models
//! ([`predicted_verifies`], [`predicted_memo_misses`]) that `prft-bench
//! profile` also enforces, at n = 64 — the size whose reference
//! cost (15.8M logical verifies for two rounds) motivated the fast path.
//!
//! * The **logical** count (`crypto.sig_verifies`) follows the reference
//!   per-round structure `1 + 2n + n(q+2) + q(1 + q(q+1))` per replica,
//!   plus `n` Finals per non-final round — within 10% (the tail of the
//!   last round depends on delivery order).
//! * The **miss** count (`verify.memo_miss`) follows the miss model
//!   `1 + 2n + n(q+2) + q` per replica-round, plus the same Final term —
//!   within 0.1%. A hit is a replay from the replica's certificate table,
//!   and the only certificates a replica validates twice are the q × q
//!   a Reveal quotes, which it validated at Commit time.
//! * Conservation: `memo_hits + memo_misses == sig_verifies`, exactly —
//!   every logical verification is either replayed from the replica's
//!   certificate table or missed there.

use prft_core::{predicted_memo_misses, predicted_verifies, Harness, NetworkChoice, VerifyMode};
use prft_sim::obs::hooks;
use prft_sim::SimTime;

/// The headline size: the fast path runs it cheaply even in debug builds
/// (27k hashes); the reference path would hash 15.8M times, so
/// reference-mode tests use [`N_SMALL`] instead.
const N: usize = 64;
const N_SMALL: usize = 16;
const ROUNDS: u64 = 2;

fn run_accountable(n: usize, mode: VerifyMode) -> hooks::HookSnapshot {
    hooks::reset();
    let mut sim = Harness::new(n, 0xc0de)
        .network(NetworkChoice::Synchronous { delta: SimTime(10) })
        .accountable(true)
        .max_rounds(ROUNDS)
        .verify_mode(mode)
        .build();
    sim.run_until(SimTime(500_000));
    let snap = hooks::snapshot();
    hooks::reset();
    snap
}

#[test]
fn memoized_run_matches_both_verify_models() {
    let snap = run_accountable(N, VerifyMode::Fast);

    // Conservation, exact: no verification escapes the hit/miss split
    // (a seat checks every signature through its memo).
    assert_eq!(
        snap.memo_hits + snap.memo_misses,
        snap.sig_verifies,
        "memo hits + misses must equal the logical verify count"
    );

    // Logical count vs the reference model, 10%.
    let logical_predicted = predicted_verifies(N, ROUNDS, true);
    let logical_ratio = snap.sig_verifies as f64 / logical_predicted as f64;
    assert!(
        (logical_ratio - 1.0).abs() <= 0.10,
        "logical verifies {} vs predicted {logical_predicted} (ratio {logical_ratio:.4})",
        snap.sig_verifies
    );
    // The headline number the fast path exists for: ~15.8M logical
    // verifies at n = 64 × 2 rounds.
    assert!(
        snap.sig_verifies > 15_000_000,
        "expected the n = 64 reference workload (~15.8M), got {}",
        snap.sig_verifies
    );

    // Miss count vs the miss model, 0.1%.
    let miss_predicted = predicted_memo_misses(N, ROUNDS, true);
    let miss_ratio = snap.memo_misses as f64 / miss_predicted as f64;
    assert!(
        (miss_ratio - 1.0).abs() <= 0.001,
        "memo misses {} vs predicted {miss_predicted} (ratio {miss_ratio:.5})",
        snap.memo_misses
    );
}

#[test]
fn reference_run_matches_the_logical_model_with_zero_memo_traffic() {
    // Reference mode really hashes every logical verify, so this runs at
    // the small size (85k hashes, not 15.8M).
    let snap = run_accountable(N_SMALL, VerifyMode::Reference);
    assert_eq!(snap.memo_hits, 0, "reference mode never hits a memo");
    assert_eq!(snap.memo_misses, 0, "reference mode never counts misses");
    let predicted = predicted_verifies(N_SMALL, ROUNDS, true);
    let ratio = snap.sig_verifies as f64 / predicted as f64;
    assert!(
        (ratio - 1.0).abs() <= 0.10,
        "reference verifies {} vs predicted {predicted} (ratio {ratio:.4})",
        snap.sig_verifies
    );
}

#[test]
fn both_modes_pay_the_same_logical_count() {
    // The counting discipline itself: a memo hit charges exactly what the
    // reference path would have paid, so the logical counter is equal —
    // not merely close — across modes.
    let fast = run_accountable(N_SMALL, VerifyMode::Fast);
    let slow = run_accountable(N_SMALL, VerifyMode::Reference);
    assert_eq!(
        fast.sig_verifies, slow.sig_verifies,
        "logical verify counts diverged across verify modes"
    );
    // And the split follows the miss model at this size too: everything
    // but the Reveals' certificate replays misses. The last round's tail
    // (6 misses at n = 16, each proposal being checked once) is 0.06% of
    // this size's count, so the 0.1% band of n = 64 holds here too.
    let predicted = predicted_memo_misses(N_SMALL, ROUNDS, true);
    let ratio = fast.memo_misses as f64 / predicted as f64;
    assert!(
        (ratio - 1.0).abs() <= 0.001,
        "memo misses {} vs predicted {predicted} (ratio {ratio:.5})",
        fast.memo_misses
    );
}
