//! The TRAP baiting game (Ranchal-Pedrosa & Gramoli, AsiaCCS'22), at the
//! level Theorem 3 analyses it.
//!
//! TRAP overlays a baiting mechanism on a BFT core: a rational member of a
//! forking collusion may defect and submit Proof-of-Fraud ("bait") for a
//! reward `R`; if enough members bait, the fork is averted and the
//! deviators are slashed. The paper's Theorem 3 shows the mechanism has a
//! second Nash equilibrium — everybody forks — that Pareto-dominates
//! baiting for the rational players whenever `k > 2 + t0 − t`, because a
//! *unilateral* bait cannot avert the fork once
//! `m > t0 + k + t − n/2` baiters would be needed.
//!
//! [`TrapGame::play`] resolves one round of that game for a strategy
//! profile; combined with `prft_game::UtilityTable::exact` it enumerates the
//! equilibria the theorem talks about.

use prft_game::{analytic, SystemState, UtilityParams};

/// A rational collusion member's choice in the TRAP game.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrapStrategy {
    /// Join the fork (`π_fork`).
    Fork,
    /// Defect and submit Proof-of-Fraud (`π_bait`).
    Bait,
    /// Leave the collusion and follow the protocol (`π_0`).
    Honest,
}

/// Outcome of one round of the game.
#[derive(Debug, Clone)]
pub struct TrapOutcome {
    /// The resulting system state.
    pub state: SystemState,
    /// Utility per rational player (aligned with the strategy profile).
    pub utilities: Vec<f64>,
    /// Whether the forking players were slashed.
    pub slashed: bool,
}

/// The TRAP game parameters.
#[derive(Debug, Clone)]
pub struct TrapGame {
    /// Committee size.
    pub n: usize,
    /// TRAP's byzantine bound `t0 = ⌈n/3⌉ − 1`.
    pub t0: usize,
    /// Actual byzantine count (always fork).
    pub t: usize,
    /// Rational collusion size.
    pub k: usize,
    /// Economic parameters (`R`, `G`, `L`, α, δ).
    pub params: UtilityParams,
}

impl TrapGame {
    /// Standard TRAP parameterization for `n` players.
    pub fn new(n: usize, t: usize, k: usize, params: UtilityParams) -> Self {
        TrapGame {
            n,
            t0: n.div_ceil(3) - 1,
            t,
            k,
            params,
        }
    }

    /// Whether the fork physically succeeds given `forkers` rational
    /// players forking: the byzantine + forking colluders must hand *both*
    /// halves of the remaining players a quorum `n − t0`.
    pub fn fork_succeeds(&self, forkers: usize) -> bool {
        let attackers = self.t + forkers;
        let others = self.n - attackers;
        let side = others / 2;
        side + attackers >= self.n - self.t0
    }

    /// Resolves the game for a strategy profile (one entry per rational
    /// collusion member).
    ///
    /// # Panics
    /// Panics if the profile length differs from `k`.
    pub fn play(&self, profile: &[TrapStrategy]) -> TrapOutcome {
        assert_eq!(profile.len(), self.k, "one strategy per rational player");
        let forkers = profile.iter().filter(|s| **s == TrapStrategy::Fork).count();
        let baiters = profile.iter().filter(|s| **s == TrapStrategy::Bait).count();

        let fork_attempted = forkers > 0 || self.t > 0;
        let forked = fork_attempted && self.fork_succeeds(forkers);

        // A successful bait requires an actual fork attempt to produce the
        // conflicting signatures, and enough baiters that the remaining
        // collusion loses its double quorum.
        let averted = fork_attempted && !forked;
        let slashed = averted && baiters > 0;

        let state = if forked {
            SystemState::Fork
        } else {
            SystemState::HonestExecution
        };

        let utilities = profile
            .iter()
            .map(|s| match (s, forked) {
                // Fork pays the collusion's gain, split among colluders.
                (TrapStrategy::Fork, true) => self.params.gain_g / forkers as f64,
                // A caught forker is slashed.
                (TrapStrategy::Fork, false) => {
                    if slashed {
                        -self.params.penalty_l
                    } else {
                        0.0
                    }
                }
                // Baiters get nothing if the fork happened anyway…
                (TrapStrategy::Bait, true) => 0.0,
                // …and share the reward in expectation if it was averted.
                (TrapStrategy::Bait, false) => {
                    if slashed {
                        self.params.reward_r / baiters as f64
                    } else {
                        0.0
                    }
                }
                (TrapStrategy::Honest, _) => 0.0,
            })
            .collect();

        TrapOutcome {
            state,
            utilities,
            slashed,
        }
    }

    /// The minimum baiters needed to avert the fork (Theorem 3's bound
    /// `m > t0 + k + t − n/2`).
    pub fn min_baiters(&self) -> f64 {
        analytic::trap_min_baiters(self.n, self.t0, self.k, self.t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prft_game::{ProfileSpace, UtilityTable};

    /// Theorem 3's regime: n = 20, t0 = 6, t = 6, k = 3 — inside TRAP's
    /// advertised tolerance (3t < n, 2(k+t) < n) with k > 2 + t0 − t.
    fn game() -> TrapGame {
        let params = UtilityParams {
            gain_g: 8.0,
            reward_r: 2.0,
            penalty_l: 10.0,
            ..UtilityParams::default()
        };
        let g = TrapGame::new(20, 6, 3, params);
        assert!(analytic::trap_tolerates(g.n, g.k, g.t));
        assert!(analytic::trap_fork_is_nash(g.k, g.t, g.t0));
        g
    }

    #[test]
    fn all_fork_succeeds_in_the_regime() {
        let g = game();
        let out = g.play(&[TrapStrategy::Fork; 3]);
        assert_eq!(out.state, SystemState::Fork);
        assert!(!out.slashed);
        for u in out.utilities {
            assert!((u - 8.0 / 3.0).abs() < 1e-12, "G/k each");
        }
    }

    #[test]
    fn unilateral_bait_cannot_avert() {
        let g = game();
        assert!(g.min_baiters() > 1.0, "m > {}", g.min_baiters());
        let out = g.play(&[TrapStrategy::Bait, TrapStrategy::Fork, TrapStrategy::Fork]);
        assert_eq!(out.state, SystemState::Fork, "fork survives one defection");
        assert_eq!(out.utilities[0], 0.0, "the baiter walks away with nothing");
        assert!(out.utilities[1] > 0.0);
    }

    #[test]
    fn mass_baiting_averts_and_slashes() {
        let g = game();
        let out = g.play(&[TrapStrategy::Bait, TrapStrategy::Bait, TrapStrategy::Bait]);
        assert_eq!(out.state, SystemState::HonestExecution);
        assert!(out.slashed);
        for u in out.utilities {
            assert!((u - 2.0 / 3.0).abs() < 1e-12, "R/m each");
        }
    }

    #[test]
    fn theorem_3_both_equilibria_exist_and_fork_is_focal() {
        let g = game();
        // Strategy space per rational player: 0 = Fork, 1 = Bait.
        let strategies = [TrapStrategy::Fork, TrapStrategy::Bait];
        let eg = UtilityTable::exact(ProfileSpace::uniform(g.k, 2), |profile| {
            let chosen: Vec<TrapStrategy> = profile.iter().map(|&i| strategies[i]).collect();
            let out = g.play(&chosen);
            (out.utilities, out.state)
        });
        let ne = eg.nash_equilibria(1e-9);
        let all_fork = vec![0usize; g.k];
        let all_bait = vec![1usize; g.k];
        assert!(ne.contains(&all_fork), "π_fork is a NE (Theorem 3)");
        assert!(ne.contains(&all_bait), "TRAP's secure NE also exists");
        // The fork NE Pareto-dominates for the rational players: G/k > R/k.
        let players: Vec<usize> = (0..g.k).collect();
        assert!(eg.pareto_dominates_for(&all_fork, &all_bait, &players));
        let focal = eg.focal_among(&ne, &players).unwrap();
        assert_eq!(focal, &all_fork, "the insecure equilibrium is focal");
    }

    #[test]
    fn outside_the_regime_bait_dominates() {
        // Small collusion: k = 1, t = 0 in n = 10 — a single forker cannot
        // double-quorum, so forking only invites the slash.
        let g = TrapGame::new(10, 0, 1, UtilityParams::default());
        assert!(!analytic::trap_fork_is_nash(g.k, g.t, g.t0));
        let fork = g.play(&[TrapStrategy::Fork]);
        assert_eq!(fork.state, SystemState::HonestExecution);
        let bait = g.play(&[TrapStrategy::Bait]);
        // Nothing to bait (no fork materializes), but forking alone yields
        // zero too — and with any baiter present it would be slashed.
        assert!(bait.utilities[0] >= fork.utilities[0]);
    }

    #[test]
    #[should_panic(expected = "one strategy per rational player")]
    fn wrong_arity_panics() {
        game().play(&[TrapStrategy::Fork]);
    }
}
