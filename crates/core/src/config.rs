//! Protocol parameters and quorum arithmetic.

use prft_crypto::VerifyMode;
use prft_sim::SimTime;

/// pRFT configuration.
///
/// The paper's threat model is `M = ⟨(P, T, K), θ = 1, t0⟩` with
/// `t0 = ⌈n/4⌉ − 1` and quorum `n − t0` (Claim 1 requires the agreement
/// threshold `τ ∈ [⌊(n+t0)/2⌋ + 1, n − t0]`; pRFT uses the top of the
/// window). `tau_override` exists only for the Claim 1 experiments that
/// deliberately run the protocol *outside* the safe window.
#[derive(Debug, Clone)]
pub struct Config {
    /// Committee size `n`.
    pub n: usize,
    /// Byzantine tolerance `t0` (defaults to `⌈n/4⌉ − 1`).
    pub t0: usize,
    /// Per-phase timeout Δ before view change is triggered.
    pub phase_timeout: SimTime,
    /// Exponential backoff cap for consecutive view changes.
    pub max_timeout: SimTime,
    /// Maximum transactions batched per block.
    pub max_batch: usize,
    /// Stop after this many finalized or abandoned rounds (0 = unbounded).
    pub max_rounds: u64,
    /// Override of the agreement threshold τ (tests only; default `n − t0`).
    pub tau_override: Option<usize>,
    /// Runs the Reveal phase and the Proof-of-Fraud machinery (the paper's
    /// protocol). Disabling it is the **ablation** of DESIGN.md: the round
    /// finalizes straight from the commit quorum, saving the O(κ·n⁴)
    /// reveal bytes but giving up accountability — deviations go unburned.
    pub accountable: bool,
    /// How ballots and certificates are verified: the memoized fast path
    /// (default) or the reference verify-on-every-arrival path. Results
    /// are pinned byte-identical across modes (the knob only trades
    /// speed), mirroring the event-queue backend knob.
    pub verify_mode: VerifyMode,
}

impl Config {
    /// The paper's parameterization for a committee of `n` players:
    /// `t0 = ⌈n/4⌉ − 1`.
    ///
    /// # Panics
    /// Panics if `n < 2`.
    pub fn for_committee(n: usize) -> Config {
        assert!(n >= 2, "need at least two players");
        Config {
            n,
            t0: n.div_ceil(4).saturating_sub(1),
            phase_timeout: SimTime(200),
            max_timeout: SimTime(6_400),
            max_batch: 16,
            max_rounds: 0,
            tau_override: None,
            accountable: true,
            verify_mode: VerifyMode::default(),
        }
    }

    /// The agreement threshold τ: messages required for a quorum.
    pub fn quorum(&self) -> usize {
        self.tau_override.unwrap_or(self.n - self.t0)
    }

    /// Lower edge of the safe window from Claim 1: `⌊(n + t0)/2⌋ + 1`.
    pub fn tau_lower_bound(&self) -> usize {
        (self.n + self.t0) / 2 + 1
    }

    /// Upper edge of the safe window from Claim 1: `n − t0`.
    pub fn tau_upper_bound(&self) -> usize {
        self.n - self.t0
    }

    /// Whether the configured τ sits in Claim 1's safe window.
    pub fn tau_in_safe_window(&self) -> bool {
        (self.tau_lower_bound()..=self.tau_upper_bound()).contains(&self.quorum())
    }

    /// Finalization needs *more than* n/2 `Final` messages (strictly).
    pub fn final_majority(&self) -> usize {
        self.n / 2 + 1
    }

    /// Timeout for a round that has seen `consecutive_failures` view
    /// changes: exponential backoff capped at `max_timeout`. Guarantees
    /// that post-GST the timeout eventually exceeds the true Δ.
    pub fn timeout_after(&self, consecutive_failures: u32) -> SimTime {
        let mult = 1u64 << consecutive_failures.min(16);
        SimTime((self.phase_timeout.0.saturating_mul(mult)).min(self.max_timeout.0))
    }

    /// Builder-style override of the phase timeout.
    #[must_use]
    pub fn with_timeout(mut self, timeout: SimTime) -> Config {
        self.phase_timeout = timeout;
        self
    }

    /// Builder-style override of the round budget.
    #[must_use]
    pub fn with_max_rounds(mut self, rounds: u64) -> Config {
        self.max_rounds = rounds;
        self
    }

    /// Builder-style override of the per-block batch limit (workload
    /// sweeps raise it so throughput is load-limited, not batch-limited).
    #[must_use]
    pub fn with_max_batch(mut self, batch: usize) -> Config {
        self.max_batch = batch;
        self
    }

    /// Builder-style override of τ (Claim 1 experiments only).
    #[must_use]
    pub fn with_tau(mut self, tau: usize) -> Config {
        self.tau_override = Some(tau);
        self
    }

    /// Builder-style toggle of the Reveal/PoF machinery (ablation).
    #[must_use]
    pub fn with_accountability(mut self, on: bool) -> Config {
        self.accountable = on;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t0_matches_paper_formula() {
        // t0 = ⌈n/4⌉ − 1, so n = 4·t0 + 1 is the worst case the paper
        // analyses ("in the worst case |T| = t0 and n = 4t0 + 1").
        assert_eq!(Config::for_committee(4).t0, 0);
        assert_eq!(Config::for_committee(5).t0, 1);
        assert_eq!(Config::for_committee(8).t0, 1);
        assert_eq!(Config::for_committee(9).t0, 2);
        assert_eq!(Config::for_committee(13).t0, 3);
        assert_eq!(Config::for_committee(16).t0, 3);
        assert_eq!(Config::for_committee(17).t0, 4);
    }

    #[test]
    fn quorum_is_n_minus_t0() {
        let cfg = Config::for_committee(9);
        assert_eq!(cfg.quorum(), 7);
        assert_eq!(cfg.tau_upper_bound(), 7);
        assert_eq!(cfg.tau_lower_bound(), (9 + 2) / 2 + 1);
        assert!(cfg.tau_in_safe_window());
    }

    #[test]
    fn tau_override_can_leave_safe_window() {
        let cfg = Config::for_committee(9).with_tau(4);
        assert_eq!(cfg.quorum(), 4);
        assert!(!cfg.tau_in_safe_window());
    }

    #[test]
    fn quorum_intersection_property() {
        // Two quorums of size n−t0 must intersect in more than t0 players
        // for every committee size — the root of tentative-consensus safety.
        for n in 2..200 {
            let cfg = Config::for_committee(n);
            let q = cfg.quorum();
            let intersection = 2 * q as i64 - n as i64;
            assert!(
                intersection > cfg.t0 as i64,
                "n={n}: quorums intersect in {intersection} ≤ t0={}",
                cfg.t0
            );
        }
    }

    #[test]
    fn no_double_quorum_under_threat_model() {
        // Lemma 4's partition algebra: k + t + 2·t0 < n means two disjoint
        // honest groups cannot both reach quorum with collusion help.
        for n in 5..200 {
            let cfg = Config::for_committee(n);
            let kt_max = n.div_ceil(2) - 1; // k + t < n/2
            assert!(
                kt_max + 2 * cfg.t0 < n,
                "n={n}: k+t={kt_max}, t0={} admits a double quorum",
                cfg.t0
            );
        }
    }

    #[test]
    fn backoff_caps() {
        let cfg = Config::for_committee(4);
        assert_eq!(cfg.timeout_after(0), cfg.phase_timeout);
        assert_eq!(cfg.timeout_after(1).0, cfg.phase_timeout.0 * 2);
        assert_eq!(cfg.timeout_after(30), cfg.max_timeout);
    }

    #[test]
    fn final_majority_is_strict() {
        assert_eq!(Config::for_committee(8).final_majority(), 5);
        assert_eq!(Config::for_committee(9).final_majority(), 5);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn tiny_committee_rejected() {
        let _ = Config::for_committee(1);
    }
}
