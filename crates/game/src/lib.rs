//! Game-theoretic layer of the reproduction: rational player types θ,
//! system states σ, the payoff table `f(σ, θ)` (paper Table 2), discounted
//! repeated-round utilities, equilibrium checkers (Nash / dominant-strategy
//! / Pareto / focal), and the closed-form algebra behind Theorems 1–3,
//! Claim 1, and Lemma 4.
//!
//! The crate is pure math — no simulation dependencies. Experiments feed it
//! either analytic payoffs or utilities measured from `prft-core` runs
//! (empirical game theory): describe the strategy space as a
//! [`ProfileSpace`] (with optional symmetry reduction) and analyse the
//! [`UtilityTable`] over it — filled exactly from any profile-evaluation
//! function ([`UtilityTable::exact`]) or from simulation batches by the
//! `prft-lab` explorer — whose Nash/DSIC certificates account for per-cell
//! confidence intervals and which also answers the Pareto / focal-point
//! questions of Theorem 3.
//!
//! Beyond pure strategies, the table supports *mixed* play — expected
//! utilities under independent per-player distributions, with exact
//! support-enumeration and symmetric-indifference solvers
//! ([`mixed_analysis`]) — and *best-reply dynamics*
//! ([`best_reply_path`], [`best_reply_summary`]): deterministic
//! improvement paths with convergence/cycle detection and attractor
//! basins, for spaces too large to reason about cell by cell. The
//! concepts are written up in `docs/GAME_ANALYSIS.md`.
//!
//! # Example: the TRAP fork equilibrium (Theorem 3)
//!
//! ```
//! use prft_game::analytic;
//!
//! // n = 20, t0 = 6 (TRAP's byzantine bound ⌈n/3⌉−1), t = 6, k = 3:
//! // inside TRAP's advertised tolerance …
//! assert!(analytic::trap_tolerates(20, 3, 6));
//! // … yet fork is a Nash equilibrium because k > 2 + t0 − t …
//! assert!(analytic::trap_fork_is_nash(3, 6, 6));
//! // … since stopping the fork needs more than one baiter:
//! assert!(analytic::trap_min_baiters(20, 6, 3, 6) > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
mod dynamics;
mod mixed;
mod payoff;
mod space;
mod types;
mod utility_table;

pub use dynamics::{
    best_reply_path, best_reply_summary, BestReplyPath, DynamicsOutcome, DynamicsSummary,
};
pub use mixed::{
    mixed_analysis, mixture_label, support_equilibria_2p, symmetric_mixed_equilibria,
    MixedAnalysis, MixedEquilibrium, MixedProfile,
};
pub use payoff::{discounted_sum, PayoffTable, UtilityParams};
pub use space::{Profile, ProfileSpace};
pub use types::{SystemState, Theta};
pub use utility_table::{Certificate, Confidence, ProfileStats, UtilityTable};
