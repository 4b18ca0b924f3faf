//! The vocabulary of the rational-consensus game.

use std::fmt;

/// Rational player type θ (paper Section 4.1.1).
///
/// The type encodes which bad system states *pay* the player. Byzantine
/// players are effectively `θ = 3` with no incentive sensitivity; honest
/// players are `θ = 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Theta {
    /// θ=0: any non-honest state is a loss (honest-aligned rational).
    Honest,
    /// θ=1: paid only by disagreement (`σ_Fork`).
    ForkSeeking,
    /// θ=2: paid by censorship or disagreement.
    CensorSeeking,
    /// θ=3: paid by no-progress, censorship, or disagreement.
    LivenessAttacking,
}

impl Theta {
    /// All four types, ascending.
    pub const ALL: [Theta; 4] = [
        Theta::Honest,
        Theta::ForkSeeking,
        Theta::CensorSeeking,
        Theta::LivenessAttacking,
    ];

    /// The paper's numeric label.
    pub fn index(self) -> u8 {
        match self {
            Theta::Honest => 0,
            Theta::ForkSeeking => 1,
            Theta::CensorSeeking => 2,
            Theta::LivenessAttacking => 3,
        }
    }
}

impl fmt::Display for Theta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "θ={}", self.index())
    }
}

/// System state σ (paper Section 4.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemState {
    /// `σ_NP`: no new blocks are agreed.
    NoProgress,
    /// `σ_CP`: blocks confirm but a censored set never does.
    Censorship,
    /// `σ_Fork`: two honest players confirm different blocks at a height.
    Fork,
    /// `σ_0`: honest execution.
    HonestExecution,
}

impl SystemState {
    /// All four states.
    pub const ALL: [SystemState; 4] = [
        SystemState::NoProgress,
        SystemState::Censorship,
        SystemState::Fork,
        SystemState::HonestExecution,
    ];

    /// Paper notation.
    pub fn symbol(self) -> &'static str {
        match self {
            SystemState::NoProgress => "σ_NP",
            SystemState::Censorship => "σ_CP",
            SystemState::Fork => "σ_Fork",
            SystemState::HonestExecution => "σ_0",
        }
    }
}

impl fmt::Display for SystemState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theta_ordering_matches_severity() {
        assert!(Theta::LivenessAttacking > Theta::CensorSeeking);
        assert!(Theta::CensorSeeking > Theta::ForkSeeking);
        assert!(Theta::ForkSeeking > Theta::Honest);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Theta::ForkSeeking.to_string(), "θ=1");
        assert_eq!(SystemState::Fork.to_string(), "σ_Fork");
    }
}
