//! Classifying a run into the paper's system states σ (Section 4.1.1).

use prft_game::SystemState;

/// The verdicts σ is read from, taken off the honest players' views after
/// a run (`prft_core::analysis::analyze` computes the first two).
#[derive(Debug, Clone, Copy)]
pub struct StateObservation {
    /// Whether all honest finalized prefixes agree.
    pub agreement: bool,
    /// Largest finalized height among honest players.
    pub max_final_height: u64,
    /// Whether some transaction input to **all** honest players (the set
    /// `Z` of the paper) is final in no honest ledger.
    pub censored: bool,
}

/// Classifies the observation:
///
/// 1. `σ_Fork` if two honest ledgers finalize different blocks at a height;
/// 2. `σ_NP` if no block finalized anywhere;
/// 3. `σ_CP` if progress happened but some watched transaction is missing
///    from every honest finalized ledger;
/// 4. `σ_0` otherwise.
///
/// The precedence (fork ≻ no-progress ≻ censorship) matches the payoff
/// severity ordering of Table 2.
pub fn classify(obs: &StateObservation) -> SystemState {
    if !obs.agreement {
        SystemState::Fork
    } else if obs.max_final_height == 0 {
        SystemState::NoProgress
    } else if obs.censored {
        SystemState::Censorship
    } else {
        SystemState::HonestExecution
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use SystemState::*;

    fn classified(agreement: bool, max_final_height: u64, censored: bool) -> SystemState {
        classify(&StateObservation {
            agreement,
            max_final_height,
            censored,
        })
    }

    /// Every combination of the three verdicts, with a stalled and a
    /// progressing height.
    const TABLE: [(bool, u64, bool, SystemState); 8] = [
        (false, 0, false, Fork),
        (false, 0, true, Fork),
        (false, 2, false, Fork),
        (false, 2, true, Fork),
        (true, 0, false, NoProgress),
        (true, 0, true, NoProgress),
        (true, 2, true, Censorship),
        (true, 2, false, HonestExecution),
    ];

    #[test]
    fn every_verdict_combination_follows_table_2_precedence() {
        for (agreement, height, censored, state) in TABLE {
            assert_eq!(
                classified(agreement, height, censored),
                state,
                "agreement={agreement} height={height} censored={censored}"
            );
        }
    }

    #[test]
    fn fork_takes_precedence() {
        assert_eq!(classified(false, 2, true), Fork, "censorship also true");
        assert_eq!(classified(false, 0, true), Fork, "no progress also true");
    }

    /// An empty committee agrees vacuously, finalizes nothing, and has
    /// every watched transaction final in none of its (zero) ledgers.
    #[test]
    fn empty_observation_is_no_progress() {
        assert_eq!(classified(true, 0, true), NoProgress);
    }

    #[test]
    fn honest_execution() {
        assert_eq!(classified(true, 2, false), HonestExecution);
    }

    #[test]
    fn no_progress() {
        assert_eq!(classified(true, 0, false), NoProgress);
    }

    #[test]
    fn censorship() {
        assert_eq!(classified(true, 2, true), Censorship);
    }

    #[test]
    fn watched_tx_present_is_not_censorship() {
        for (agreement, height) in [(true, 0), (true, 2), (false, 0), (false, 2)] {
            assert_ne!(classified(agreement, height, false), Censorship);
        }
    }
}
