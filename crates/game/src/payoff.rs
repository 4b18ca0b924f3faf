//! The payoff table `f(σ, θ)` (paper Table 2) and discounted utilities.

use crate::types::{SystemState, Theta};

/// Economic parameters of the utility model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilityParams {
    /// The per-round payoff magnitude α (> 0).
    pub alpha: f64,
    /// The collateral deposit `L`, lost when a PoF names the player.
    pub penalty_l: f64,
    /// TRAP's baiting reward `R`.
    pub reward_r: f64,
    /// The collusion's gain `G` when the system forks.
    pub gain_g: f64,
    /// The per-round discount factor δ ∈ (0, 1).
    pub delta: f64,
}

impl Default for UtilityParams {
    fn default() -> Self {
        UtilityParams {
            alpha: 1.0,
            penalty_l: 10.0,
            reward_r: 2.0,
            gain_g: 8.0,
            delta: 0.9,
        }
    }
}

/// The payoff function of Table 2.
#[derive(Debug, Clone, Copy)]
pub struct PayoffTable {
    alpha: f64,
}

impl PayoffTable {
    /// Creates the table for a given α.
    ///
    /// # Panics
    /// Panics if `alpha <= 0` (the paper requires a positive constant).
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0, "α must be positive");
        PayoffTable { alpha }
    }

    /// `f(σ, θ)` exactly as printed in Table 2.
    ///
    /// | θ \ σ | σ_NP | σ_CP | σ_Fork | σ_0 |
    /// |-------|------|------|--------|-----|
    /// | θ=3   |  α   |  α   |   α    |  0  |
    /// | θ=2   | −α   |  α   |   α    |  0  |
    /// | θ=1   | −α   | −α   |   α    |  0  |
    /// | θ=0   | −α   | −α   |  −α    |  0  |
    pub fn f(&self, state: SystemState, theta: Theta) -> f64 {
        use SystemState::*;
        use Theta::*;
        let a = self.alpha;
        match (theta, state) {
            (_, HonestExecution) => 0.0,
            (LivenessAttacking, _) => a,
            (CensorSeeking, NoProgress) => -a,
            (CensorSeeking, _) => a,
            (ForkSeeking, Fork) => a,
            (ForkSeeking, _) => -a,
            (Honest, _) => -a,
        }
    }
}

/// Discounted sum `Σ_r δ^r · u_r` over an explicit utility stream.
pub fn discounted_sum(utilities: &[f64], delta: f64) -> f64 {
    let mut acc = 0.0;
    let mut weight = 1.0;
    for &u in utilities {
        acc += weight * u;
        weight *= delta;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_2_exact_values() {
        let t = PayoffTable::new(2.0);
        use SystemState::*;
        use Theta::*;
        // θ=3 row.
        assert_eq!(t.f(NoProgress, LivenessAttacking), 2.0);
        assert_eq!(t.f(Censorship, LivenessAttacking), 2.0);
        assert_eq!(t.f(Fork, LivenessAttacking), 2.0);
        assert_eq!(t.f(HonestExecution, LivenessAttacking), 0.0);
        // θ=2 row.
        assert_eq!(t.f(NoProgress, CensorSeeking), -2.0);
        assert_eq!(t.f(Censorship, CensorSeeking), 2.0);
        assert_eq!(t.f(Fork, CensorSeeking), 2.0);
        assert_eq!(t.f(HonestExecution, CensorSeeking), 0.0);
        // θ=1 row.
        assert_eq!(t.f(NoProgress, ForkSeeking), -2.0);
        assert_eq!(t.f(Censorship, ForkSeeking), -2.0);
        assert_eq!(t.f(Fork, ForkSeeking), 2.0);
        assert_eq!(t.f(HonestExecution, ForkSeeking), 0.0);
        // θ=0 row.
        assert_eq!(t.f(NoProgress, Honest), -2.0);
        assert_eq!(t.f(Censorship, Honest), -2.0);
        assert_eq!(t.f(Fork, Honest), -2.0);
        assert_eq!(t.f(HonestExecution, Honest), 0.0);
    }

    #[test]
    fn discounting() {
        assert_eq!(discounted_sum(&[1.0, 1.0, 1.0], 0.5), 1.75);
        assert!(
            (discounted_sum(&vec![1.0; 200], 0.9) - 1.0 / (1.0 - 0.9)).abs() < 1e-6,
            "long finite sums approach the closed form"
        );
    }

    #[test]
    #[should_panic(expected = "α must be positive")]
    fn zero_alpha_rejected() {
        let _ = PayoffTable::new(0.0);
    }
}
