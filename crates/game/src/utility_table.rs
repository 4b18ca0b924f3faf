//! Measured utility tables over a [`ProfileSpace`] and the equilibrium
//! analysis the paper's claims reduce to: unilateral-deviation
//! (best-response) checks, Nash / dominant-strategy certification that
//! accounts for measurement confidence intervals, and per-strategy regret.
//!
//! The table is the boundary between *measurement* and *analysis*: the
//! `prft-lab` explorer fills one from simulation batches (each cell a mean
//! utility vector with a 95% CI per player), analytic games fill one
//! exactly, and everything downstream — Lemma 4's DSIC verdict, Theorem 3's
//! double equilibrium — is a pure function of the finished table.

use crate::space::{Profile, ProfileSpace};
use crate::types::SystemState;
use std::collections::BTreeMap;

/// One evaluated profile: per-player mean utilities, their 95% confidence
/// half-widths, and the run evidence behind them.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileStats {
    /// Mean utility per player (profile arity).
    pub utilities: Vec<f64>,
    /// 95% confidence half-width per player (zero for analytic cells).
    pub ci95: Vec<f64>,
    /// Seeded runs behind the cell (1 for analytic cells).
    pub seeds: u64,
    /// The modal system state σ the profile drove the system into.
    pub sigma: SystemState,
}

/// How robust a verdict is to the per-cell measurement noise, ordered from
/// the stronger claim to the weaker (the `max` of several is the weakest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Confidence {
    /// The verdict survives shifting every compared cell to the worst edge
    /// of its 95% confidence interval.
    Certified,
    /// The point estimates decide, but some comparison sits inside the
    /// combined confidence interval — more seeds would firm it up.
    Tentative,
}

/// A (best-response) verdict about one profile or strategy, with the worst
/// unilateral gain observed and the CI robustness of the conclusion.
#[derive(Debug, Clone, PartialEq)]
pub struct Certificate {
    /// The verdict from the point estimates (gain ≤ eps nowhere violated).
    pub holds: bool,
    /// Whether the verdict survives the confidence intervals.
    pub confidence: Confidence,
    /// The largest unilateral gain found (negative = deviations lose).
    pub worst_gain: f64,
    /// The deviation achieving `worst_gain`: `(player, profile, alt)`.
    pub worst_case: Option<(usize, Profile, usize)>,
}

/// A complete measured game: one [`ProfileStats`] per profile of a
/// [`ProfileSpace`], stored in lexicographic order.
#[derive(Debug, Clone)]
pub struct UtilityTable {
    space: ProfileSpace,
    cells: BTreeMap<Profile, ProfileStats>,
}

impl UtilityTable {
    /// An empty table over `space`; fill with [`UtilityTable::insert`].
    pub fn new(space: ProfileSpace) -> Self {
        UtilityTable {
            space,
            cells: BTreeMap::new(),
        }
    }

    /// Builds a complete table by evaluating `eval` exactly on every
    /// profile (analytic games: zero CI, one "seed" per cell). The system
    /// state is taken from the evaluator alongside the utilities.
    pub fn exact<F>(space: ProfileSpace, mut eval: F) -> Self
    where
        F: FnMut(&Profile) -> (Vec<f64>, SystemState),
    {
        let mut table = UtilityTable::new(space);
        for profile in table.space.profiles() {
            let (utilities, sigma) = eval(&profile);
            let players = table.space.players();
            table.insert(
                profile,
                ProfileStats {
                    ci95: vec![0.0; players],
                    seeds: 1,
                    utilities,
                    sigma,
                },
            );
        }
        table
    }

    /// Completes a table from canonical-representative measurements only,
    /// expanding each orbit by permuting per-player values back onto the
    /// non-canonical profiles (see [`ProfileSpace::expand_values`]).
    ///
    /// # Panics
    /// Panics if any canonical profile is missing from `canonical_cells`.
    pub fn from_canonical(
        space: ProfileSpace,
        canonical_cells: &BTreeMap<Profile, ProfileStats>,
    ) -> Self {
        let mut table = UtilityTable::new(space);
        for profile in table.space.profiles() {
            let canonical = table.space.canonical(&profile);
            let stats = canonical_cells
                .get(&canonical)
                .unwrap_or_else(|| panic!("canonical profile {canonical:?} not measured"));
            let expanded = ProfileStats {
                utilities: table.space.expand_values(&profile, &stats.utilities),
                ci95: table.space.expand_values(&profile, &stats.ci95),
                seeds: stats.seeds,
                sigma: stats.sigma,
            };
            table.insert(profile, expanded);
        }
        table
    }

    /// Inserts one evaluated cell.
    ///
    /// # Panics
    /// Panics if the profile is out of range or the arities are wrong.
    pub fn insert(&mut self, profile: Profile, stats: ProfileStats) {
        assert!(
            self.space.contains(&profile),
            "profile {profile:?} out of range"
        );
        assert_eq!(stats.utilities.len(), self.space.players());
        assert_eq!(stats.ci95.len(), self.space.players());
        self.cells.insert(profile, stats);
    }

    /// The profile space this table covers.
    pub fn space(&self) -> &ProfileSpace {
        &self.space
    }

    /// Whether every profile of the space has been evaluated.
    pub fn is_complete(&self) -> bool {
        self.cells.len() == self.space.len()
    }

    /// The cell for `profile`, if evaluated.
    pub fn get(&self, profile: &Profile) -> Option<&ProfileStats> {
        self.cells.get(profile)
    }

    /// All cells in lexicographic profile order.
    pub fn cells(&self) -> impl Iterator<Item = (&Profile, &ProfileStats)> {
        self.cells.iter()
    }

    /// Mean utility vector for a profile.
    ///
    /// # Panics
    /// Panics if the profile was never evaluated.
    pub fn utilities(&self, profile: &Profile) -> &[f64] {
        &self.stats(profile).utilities
    }

    fn stats(&self, profile: &Profile) -> &ProfileStats {
        self.cells
            .get(profile)
            .unwrap_or_else(|| panic!("profile {profile:?} not evaluated"))
    }

    /// `player`'s gain from unilaterally deviating to `alt` at `profile`
    /// (positive = the deviation pays).
    pub fn deviation_gain(&self, profile: &Profile, player: usize, alt: usize) -> f64 {
        let mut dev = profile.clone();
        dev[player] = alt;
        self.utilities(&dev)[player] - self.utilities(profile)[player]
    }

    /// The combined 95% noise margin of comparing `player`'s utility at
    /// `profile` against the cell where they deviate to `alt`.
    fn noise(&self, profile: &Profile, player: usize, alt: usize) -> f64 {
        let mut dev = profile.clone();
        dev[player] = alt;
        self.stats(profile).ci95[player] + self.stats(&dev).ci95[player]
    }

    /// `player`'s best response at `profile`: the strategy maximizing their
    /// utility holding everyone else fixed (ties break low), with its gain
    /// over the current strategy.
    pub fn best_response(&self, profile: &Profile, player: usize) -> (usize, f64) {
        let mut best = (profile[player], 0.0);
        for alt in 0..self.space.counts()[player] {
            let gain = self.deviation_gain(profile, player, alt);
            if gain > best.1 {
                best = (alt, gain);
            }
        }
        best
    }

    /// Whether `profile` is a pure Nash equilibrium at tolerance `eps`
    /// (point estimates only).
    pub fn is_nash(&self, profile: &Profile, eps: f64) -> bool {
        self.certify_nash(profile, eps).holds
    }

    /// All pure Nash equilibria, lexicographically ordered.
    pub fn nash_equilibria(&self, eps: f64) -> Vec<Profile> {
        self.space
            .profiles()
            .into_iter()
            .filter(|p| self.is_nash(p, eps))
            .collect()
    }

    /// Nash check with confidence: `holds` from the point estimates, and
    /// `Certified` only when the verdict survives pushing every compared
    /// pair of cells to the worst edge of their 95% intervals.
    pub fn certify_nash(&self, profile: &Profile, eps: f64) -> Certificate {
        let mut worst_gain = f64::NEG_INFINITY;
        let mut worst_case = None;
        let mut holds = true;
        let mut certified = true;
        for player in 0..self.space.players() {
            for alt in 0..self.space.counts()[player] {
                if alt == profile[player] {
                    continue;
                }
                let gain = self.deviation_gain(profile, player, alt);
                let noise = self.noise(profile, player, alt);
                if gain > worst_gain {
                    worst_gain = gain;
                    worst_case = Some((player, profile.clone(), alt));
                }
                if gain > eps {
                    holds = false;
                    // Refutation is certified only if the gain clears the
                    // noise band.
                    if gain - noise <= eps {
                        certified = false;
                    }
                } else if gain + noise > eps {
                    certified = false;
                }
            }
        }
        if worst_case.is_none() {
            // Single-profile spaces have no deviations at all.
            worst_gain = 0.0;
        }
        Certificate {
            holds,
            confidence: if certified {
                Confidence::Certified
            } else {
                Confidence::Tentative
            },
            worst_gain,
            worst_case,
        }
    }

    /// Whether `strategy` is weakly dominant for `player` at tolerance
    /// `eps` (point estimates; the DSIC condition when it holds with the
    /// honest strategy for every rational player).
    pub fn is_dominant(&self, player: usize, strategy: usize, eps: f64) -> bool {
        self.certify_dominant(player, strategy, eps).holds
    }

    /// Dominance check with confidence, analogous to
    /// [`UtilityTable::certify_nash`]: `worst_gain` is the best any rival
    /// strategy ever does over `strategy` across opponent profiles.
    pub fn certify_dominant(&self, player: usize, strategy: usize, eps: f64) -> Certificate {
        let mut worst_gain = f64::NEG_INFINITY;
        let mut worst_case = None;
        let mut holds = true;
        let mut certified = true;
        for profile in self.space.profiles() {
            if profile[player] == strategy {
                continue;
            }
            // gain = how much the rival strategy (as played in `profile`)
            // beats `strategy` against these opponents.
            let gain = -self.deviation_gain(&profile, player, strategy);
            let noise = self.noise(&profile, player, strategy);
            if gain > worst_gain {
                worst_gain = gain;
                worst_case = Some((player, profile.clone(), strategy));
            }
            if gain > eps {
                holds = false;
                if gain - noise <= eps {
                    certified = false;
                }
            } else if gain + noise > eps {
                certified = false;
            }
        }
        if worst_case.is_none() {
            worst_gain = 0.0;
        }
        Certificate {
            holds,
            confidence: if certified {
                Confidence::Certified
            } else {
                Confidence::Tentative
            },
            worst_gain,
            worst_case,
        }
    }

    /// The maximum regret of `player` committing to `strategy`: over every
    /// profile where they play it, how far below their best response they
    /// end up. Zero iff the strategy is weakly dominant.
    pub fn regret(&self, player: usize, strategy: usize) -> f64 {
        let mut worst: f64 = 0.0;
        for profile in self.space.profiles() {
            if profile[player] != strategy {
                continue;
            }
            let (_, gain) = self.best_response(&profile, player);
            worst = worst.max(gain);
        }
        worst
    }

    /// The regret matrix: `matrix[player][strategy]` =
    /// [`UtilityTable::regret`].
    pub fn regret_matrix(&self) -> Vec<Vec<f64>> {
        (0..self.space.players())
            .map(|p| {
                (0..self.space.counts()[p])
                    .map(|s| self.regret(p, s))
                    .collect()
            })
            .collect()
    }

    /// Whether profile `a` Pareto-dominates `b` for the given subset of
    /// players (everyone in the subset at least as well off, someone
    /// strictly better).
    pub fn pareto_dominates_for(&self, a: &Profile, b: &Profile, players: &[usize]) -> bool {
        let ua = self.utilities(a);
        let ub = self.utilities(b);
        let no_worse = players.iter().all(|&p| ua[p] >= ub[p]);
        let strictly = players.iter().any(|&p| ua[p] > ub[p]);
        no_worse && strictly
    }

    /// The focal equilibrium among `candidates` for the given players: the
    /// one maximizing their total utility (Schelling's "attractive"
    /// equilibrium — see paper Section 4.3). Ties break toward the last.
    pub fn focal_among<'a>(
        &self,
        candidates: &'a [Profile],
        players: &[usize],
    ) -> Option<&'a Profile> {
        let total = |profile: &Profile| -> f64 {
            let us = self.utilities(profile);
            players.iter().map(|&p| us[p]).sum()
        };
        candidates.iter().max_by(|a, b| {
            let order = total(a).partial_cmp(&total(b));
            order.unwrap_or(std::cmp::Ordering::Equal)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pd() -> UtilityTable {
        // Prisoner's dilemma: 0 = cooperate, 1 = defect.
        UtilityTable::exact(ProfileSpace::uniform(2, 2), |p| {
            let u = match (p[0], p[1]) {
                (0, 0) => vec![3.0, 3.0],
                (0, 1) => vec![0.0, 5.0],
                (1, 0) => vec![5.0, 0.0],
                (1, 1) => vec![1.0, 1.0],
                _ => unreachable!(),
            };
            (u, SystemState::HonestExecution)
        })
    }

    #[test]
    fn nash_and_dominance_match_the_classic_answers() {
        let t = pd();
        assert!(t.is_complete());
        assert_eq!(t.nash_equilibria(0.0), vec![vec![1, 1]]);
        assert!(t.is_dominant(0, 1, 0.0) && t.is_dominant(1, 1, 0.0));
        assert!(!t.is_dominant(0, 0, 0.0));
        let cert = t.certify_nash(&vec![1, 1], 0.0);
        assert!(cert.holds);
        assert_eq!(cert.confidence, Confidence::Certified);
        assert_eq!(cert.worst_gain, -1.0, "deviating to cooperate loses 1");
        let broken = t.certify_nash(&vec![0, 0], 0.0);
        assert!(!broken.holds);
        assert_eq!(broken.worst_gain, 2.0, "defection gains 2");
        assert_eq!(broken.confidence, Confidence::Certified);
    }

    #[test]
    fn best_response_and_regret() {
        let t = pd();
        assert_eq!(t.best_response(&vec![0, 0], 0), (1, 2.0));
        assert_eq!(t.best_response(&vec![1, 1], 0), (1, 0.0), "already best");
        // Defection is dominant, so its regret is 0; cooperation's worst
        // case is facing a defector: best response gains 1.
        assert_eq!(t.regret(0, 1), 0.0);
        assert_eq!(t.regret(0, 0), 2.0);
        assert_eq!(t.regret_matrix(), vec![vec![2.0, 0.0], vec![2.0, 0.0]]);
    }

    #[test]
    fn wide_cis_downgrade_to_tentative() {
        let mut t = pd();
        // Inflate the CI at the all-defect cell: the Nash verdict's point
        // estimate still holds but is no longer CI-robust.
        let mut stats = t.get(&vec![1, 1]).unwrap().clone();
        stats.ci95 = vec![3.0, 3.0];
        t.insert(vec![1, 1], stats);
        let cert = t.certify_nash(&vec![1, 1], 0.0);
        assert!(cert.holds);
        assert_eq!(cert.confidence, Confidence::Tentative);
        let dom = t.certify_dominant(0, 1, 0.0);
        assert!(dom.holds);
        assert_eq!(dom.confidence, Confidence::Tentative);
    }

    #[test]
    fn from_canonical_expands_a_symmetric_game() {
        // Fully symmetric 2×2 coordination game measured only on the 3
        // canonical profiles.
        let space = ProfileSpace::uniform(2, 2).fully_symmetric();
        let mut cells = BTreeMap::new();
        let eval = |p: &Profile| match (p[0], p[1]) {
            (0, 0) => vec![2.0, 2.0],
            (0, 1) => vec![0.0, 1.0],
            (1, 1) => vec![1.0, 1.0],
            _ => unreachable!("non-canonical"),
        };
        for profile in space.canonical_profiles() {
            let utilities = eval(&profile);
            cells.insert(
                profile,
                ProfileStats {
                    ci95: vec![0.0; 2],
                    seeds: 1,
                    utilities,
                    sigma: SystemState::HonestExecution,
                },
            );
        }
        let t = UtilityTable::from_canonical(space, &cells);
        assert!(t.is_complete());
        // The missing profile (1, 0) is the mirror of (0, 1).
        assert_eq!(t.utilities(&vec![1, 0]), &[1.0, 0.0]);
        assert_eq!(t.nash_equilibria(0.0), vec![vec![0, 0], vec![1, 1]]);
    }

    #[test]
    fn pareto_dominance_reads_the_mean_utilities() {
        // Cooperation Pareto-dominates the dominant-strategy equilibrium —
        // the PD tension — for both players and for either alone.
        let t = pd();
        assert!(t.pareto_dominates_for(&vec![0, 0], &vec![1, 1], &[0, 1]));
        assert!(!t.pareto_dominates_for(&vec![1, 1], &vec![0, 0], &[0, 1]));
        assert!(!t.pareto_dominates_for(&vec![0, 1], &vec![1, 1], &[0, 1]));
        assert!(t.pareto_dominates_for(&vec![0, 1], &vec![1, 1], &[1]));
    }

    /// The paper's Table 3 example game (Section 4.3): three players with
    /// two strategies each and two Nash equilibria, one focal.
    #[test]
    fn schelling_example_has_the_papers_two_equilibria() {
        // Strategies: P1 ∈ {A=0, B=1}, P2 ∈ {a=0, b=1}, P3 ∈ {α=0, β=1}.
        let t = UtilityTable::exact(ProfileSpace::uniform(3, 2), |p| {
            let u = match (p[0], p[1], p[2]) {
                (0, 0, 0) => vec![1.0, 1.0, 1.0],  // (A,a,α)
                (0, 0, 1) => vec![1.0, 1.0, 0.0],  // (A,a,β)
                (0, 1, 0) => vec![1.0, 0.0, 1.0],  // (A,b,α)
                (0, 1, 1) => vec![-2.0, 2.0, 2.0], // (A,b,β)
                (1, 0, 0) => vec![0.0, 1.0, 1.0],  // (B,a,α)
                (1, 0, 1) => vec![1.0, -2.0, 1.0], // (B,a,β)
                (1, 1, 0) => vec![2.0, 2.0, -2.0], // (B,b,α)
                (1, 1, 1) => vec![0.0, 0.0, 0.0],  // (B,b,β)
                _ => unreachable!(),
            };
            (u, SystemState::HonestExecution)
        });
        let ne = t.nash_equilibria(1e-9);
        assert!(ne.contains(&vec![0, 0, 0]), "(A,a,α) is NE");
        assert!(ne.contains(&vec![1, 1, 1]), "(B,b,β) is NE");
        let focal = t.focal_among(&ne, &[0, 1, 2]).unwrap();
        assert_eq!(focal, &vec![0, 0, 0], "(A,a,α) is the focal point");
        assert!(t.pareto_dominates_for(&vec![0, 0, 0], &vec![1, 1, 1], &[0, 1, 2]));
        assert_eq!(t.focal_among(&[], &[0, 1, 2]), None);
    }

    #[test]
    fn asymmetric_strategy_counts() {
        // Player 0 scripted (1 strategy), player 1 chooses among 3.
        let t = UtilityTable::exact(ProfileSpace::new(vec![1, 3]), |p| {
            let u = vec![0.0, [1.0, 5.0, 3.0][p[1]]];
            (u, SystemState::HonestExecution)
        });
        assert!(t.is_nash(&vec![0, 1], 0.0));
        assert!(!t.is_nash(&vec![0, 0], 0.0));
        assert!(t.is_dominant(1, 1, 0.0));
    }

    #[test]
    fn eps_tolerance_for_measured_noise() {
        let t = UtilityTable::exact(ProfileSpace::new(vec![2]), |p| {
            (vec![[1.0, 1.04][p[0]]], SystemState::HonestExecution)
        });
        assert!(!t.is_nash(&vec![0], 0.0));
        assert!(t.is_nash(&vec![0], 0.1), "within noise tolerance");
    }

    #[test]
    #[should_panic(expected = "not evaluated")]
    fn missing_cell_panics() {
        let t = UtilityTable::new(ProfileSpace::uniform(2, 2));
        let _ = t.utilities(&vec![0, 0]);
    }
}
