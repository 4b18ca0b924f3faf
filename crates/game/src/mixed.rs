//! Mixed strategies over a measured [`UtilityTable`]: expected utilities
//! under independent per-player distributions, and equilibrium solvers
//! for the game shapes the repo's registry actually produces.
//!
//! The paper's equilibrium claims are stated (and checked elsewhere in
//! this crate) in *pure* strategies, but rational-consensus analyses
//! routinely need randomized play — the GOSSIP-model fair-consensus line
//! and the (n−1)-strong-equilibrium impossibility both argue over mixed
//! strategies. This module adds the measurement-side counterpart:
//!
//! * **Expected utilities** — a [`MixedProfile`] assigns every player an
//!   independent distribution over their pure strategies; expected
//!   utilities are the profile-weighted sums over the finished table.
//! * **Support enumeration** (two-player games) — for every pair of
//!   equal-size supports, solve the linear indifference system exactly
//!   and keep the solutions that are genuine equilibria. This is the
//!   classical algorithm specialized to the 2–3-strategy games the
//!   registry sweeps; it finds e.g. matching pennies' (½, ½).
//! * **Symmetric indifference** (n-player, 2-strategy symmetric games) —
//!   the symmetric equilibrium probability solves a one-dimensional
//!   indifference equation, a degree-(n−1) polynomial in the mixing
//!   probability; roots are isolated by sign-scan + bisection. This is
//!   how the TRAP Theorem 3 game's interior equilibrium is found.
//!
//! Every solver *verifies* its candidates with [`UtilityTable::is_mixed_nash`]
//! before reporting them, so numerically degenerate candidates (and
//! symmetric candidates of games that are not actually symmetric) are
//! filtered out rather than reported wrongly.

use crate::utility_table::UtilityTable;

/// An independent per-player mixture: `mixed[p][s]` is the probability
/// that player `p` plays pure strategy `s`. Each row must be a
/// distribution over that player's strategy set.
pub type MixedProfile = Vec<Vec<f64>>;

/// One verified mixed equilibrium of a measured game.
#[derive(Debug, Clone, PartialEq)]
pub struct MixedEquilibrium {
    /// The per-player distributions.
    pub distributions: MixedProfile,
    /// Expected utility per player under the equilibrium.
    pub expected: Vec<f64>,
    /// The largest expected gain any player gets from any pure deviation
    /// (≤ the solver's tolerance; ~0 up to floating-point noise).
    pub regret: f64,
}

/// The result of [`mixed_analysis`]: which solver applied and what it
/// found. Pure equilibria are *not* repeated here — they are reported by
/// [`UtilityTable::nash_equilibria`]; this list contains only profiles
/// where at least one player genuinely randomizes.
#[derive(Debug, Clone)]
pub struct MixedAnalysis {
    /// Which solver matched the game's shape: `"support-enumeration"`
    /// (two players), `"symmetric-indifference"` (n players × 2
    /// strategies), or `"unsupported"` (use best-reply dynamics instead).
    pub method: &'static str,
    /// The verified, strictly mixed equilibria, in deterministic order.
    pub equilibria: Vec<MixedEquilibrium>,
}

impl UtilityTable {
    /// Validates `mixed` against this table's space: one distribution per
    /// player, right arity, non-negative entries summing to 1 (±1e-6).
    ///
    /// # Panics
    /// Panics on any violation — mixed-strategy queries over a malformed
    /// profile would silently produce garbage.
    fn assert_mixed(&self, mixed: &[Vec<f64>]) {
        let counts = self.space().counts();
        assert_eq!(mixed.len(), counts.len(), "one distribution per player");
        for (p, dist) in mixed.iter().enumerate() {
            assert_eq!(dist.len(), counts[p], "player {p}: wrong arity");
            assert!(
                dist.iter().all(|&x| x >= -1e-12),
                "player {p}: negative probability"
            );
            let sum: f64 = dist.iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-6,
                "player {p}: probabilities sum to {sum}, not 1"
            );
        }
    }

    /// Expected utility per player when every player independently draws
    /// from their row of `mixed`.
    ///
    /// # Panics
    /// Panics if the table is incomplete or `mixed` is malformed.
    pub fn expected_utilities(&self, mixed: &[Vec<f64>]) -> Vec<f64> {
        self.assert_mixed(mixed);
        let players = self.space().players();
        let mut out = vec![0.0; players];
        // Lexicographic profile order: the fold is one fixed sequence of
        // float additions, so reports built from it are byte-stable.
        for profile in self.space().profiles() {
            let mut weight = 1.0;
            for (p, &s) in profile.iter().enumerate() {
                weight *= mixed[p][s];
            }
            if weight == 0.0 {
                continue;
            }
            let u = self.utilities(&profile);
            for p in 0..players {
                out[p] += weight * u[p];
            }
        }
        out
    }

    /// `player`'s expected utility from committing to pure strategy `s`
    /// while everyone else keeps playing their row of `mixed`.
    pub fn expected_pure_vs_mixed(&self, player: usize, s: usize, mixed: &[Vec<f64>]) -> f64 {
        let mut pinned = mixed.to_vec();
        let arity = self.space().counts()[player];
        assert!(s < arity, "strategy {s} out of range for player {player}");
        pinned[player] = vec![0.0; arity];
        pinned[player][s] = 1.0;
        self.expected_utilities(&pinned)[player]
    }

    /// The largest expected gain any player gets from any pure deviation
    /// against `mixed` (never negative; 0 at an exact equilibrium). Pure
    /// deviations suffice: a mixed deviation is a convex combination of
    /// pure ones, so it can never beat the best pure deviation.
    pub fn mixed_regret(&self, mixed: &[Vec<f64>]) -> f64 {
        let base = self.expected_utilities(mixed);
        let mut worst: f64 = 0.0;
        for (player, &u) in base.iter().enumerate() {
            for alt in 0..self.space().counts()[player] {
                let gain = self.expected_pure_vs_mixed(player, alt, mixed) - u;
                worst = worst.max(gain);
            }
        }
        worst
    }

    /// Whether `mixed` is a mixed-strategy Nash equilibrium at tolerance
    /// `eps`: no player gains more than `eps` in expectation from any
    /// pure deviation.
    pub fn is_mixed_nash(&self, mixed: &[Vec<f64>], eps: f64) -> bool {
        self.mixed_regret(mixed) <= eps
    }
}

/// Solves the square linear system `a · x = b` by Gaussian elimination
/// with partial pivoting. Returns `None` when the system is (numerically)
/// singular — a degenerate support whose indifference system has no
/// unique solution.
fn solve_linear(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        let pivot = (col..n)
            .max_by(|&i, &j| {
                a[i][col]
                    .abs()
                    .partial_cmp(&a[j][col].abs())
                    .expect("finite")
            })
            .expect("non-empty");
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in (col + 1)..n {
            let factor = a[row][col] / a[col][col];
            let (pivot_rows, rest) = a.split_at_mut(row);
            let pivot_row = &pivot_rows[col];
            for (k, cell) in rest[0].iter_mut().enumerate().take(n).skip(col) {
                *cell -= factor * pivot_row[k];
            }
            b[row] -= factor * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for k in (row + 1)..n {
            acc -= a[row][k] * x[k];
        }
        x[row] = acc / a[row][row];
    }
    Some(x)
}

/// The strategy indices selected by `mask` (ascending).
fn support(mask: u32, count: usize) -> Vec<usize> {
    (0..count).filter(|s| mask & (1 << s) != 0).collect()
}

/// Builds a full distribution from per-support probabilities, rejecting
/// meaningfully negative entries and renormalizing float drift.
fn expand_support(probs: &[f64], support: &[usize], count: usize) -> Option<Vec<f64>> {
    if probs.iter().any(|&p| p < -1e-9) {
        return None;
    }
    let mut dist = vec![0.0; count];
    for (&s, &p) in support.iter().zip(probs) {
        dist[s] = p.max(0.0);
    }
    let sum: f64 = dist.iter().sum();
    if (sum - 1.0).abs() > 1e-6 {
        return None;
    }
    for x in &mut dist {
        *x /= sum;
    }
    Some(dist)
}

/// Whether two mixed profiles agree within `tol` in every coordinate.
fn same_mixture(a: &MixedProfile, b: &MixedProfile, tol: f64) -> bool {
    a.iter()
        .zip(b)
        .all(|(da, db)| da.iter().zip(db).all(|(x, y)| (x - y).abs() <= tol))
}

fn push_verified(
    table: &UtilityTable,
    distributions: MixedProfile,
    eps: f64,
    out: &mut Vec<MixedEquilibrium>,
) {
    let regret = table.mixed_regret(&distributions);
    if regret > eps.max(1e-9) {
        return;
    }
    if out
        .iter()
        .any(|eq| same_mixture(&eq.distributions, &distributions, 1e-6))
    {
        return;
    }
    let expected = table.expected_utilities(&distributions);
    out.push(MixedEquilibrium {
        distributions,
        expected,
        regret,
    });
}

/// All strictly mixed Nash equilibria of a **two-player** game by support
/// enumeration: for every pair of equal-size supports (size ≥ 2), the
/// opponent's mixture must make every support strategy exactly
/// indifferent — a square linear system — and the solution must be a
/// distribution with no profitable deviation outside the support.
/// Supports are enumerated in a fixed (mask) order, so the result list is
/// deterministic. Size-1 supports are pure profiles and are deliberately
/// skipped ([`UtilityTable::nash_equilibria`] reports those).
///
/// Games whose indifference systems are singular (payoff ties producing a
/// continuum of equilibria) contribute nothing for the degenerate
/// supports rather than an arbitrary representative.
///
/// # Panics
/// Panics if the table is not a complete two-player game.
pub fn support_equilibria_2p(table: &UtilityTable, eps: f64) -> Vec<MixedEquilibrium> {
    let counts = table.space().counts();
    assert_eq!(counts.len(), 2, "support enumeration needs two players");
    assert!(table.is_complete(), "solve over a complete table");
    let (c0, c1) = (counts[0], counts[1]);
    let u = |s0: usize, s1: usize, player: usize| table.utilities(&vec![s0, s1])[player];

    let mut out = Vec::new();
    for mask0 in 1u32..(1 << c0) {
        let s0 = support(mask0, c0);
        if s0.len() < 2 {
            continue;
        }
        for mask1 in 1u32..(1 << c1) {
            let s1 = support(mask1, c1);
            if s1.len() != s0.len() {
                continue;
            }
            let k = s0.len();
            // Player 1's mixture y makes player 0 indifferent across s0.
            let mut a = vec![vec![0.0; k]; k];
            let mut b = vec![0.0; k];
            for i in 1..k {
                for (j, &t) in s1.iter().enumerate() {
                    a[i - 1][j] = u(s0[i], t, 0) - u(s0[0], t, 0);
                }
            }
            a[k - 1] = vec![1.0; k];
            b[k - 1] = 1.0;
            let Some(y) = solve_linear(a, b) else {
                continue;
            };
            // Player 0's mixture x makes player 1 indifferent across s1.
            let mut a = vec![vec![0.0; k]; k];
            let mut b = vec![0.0; k];
            for i in 1..k {
                for (j, &s) in s0.iter().enumerate() {
                    a[i - 1][j] = u(s, s1[i], 1) - u(s, s1[0], 1);
                }
            }
            a[k - 1] = vec![1.0; k];
            b[k - 1] = 1.0;
            let Some(x) = solve_linear(a, b) else {
                continue;
            };
            let (Some(d0), Some(d1)) = (expand_support(&x, &s0, c0), expand_support(&y, &s1, c1))
            else {
                continue;
            };
            push_verified(table, vec![d0, d1], eps, &mut out);
        }
    }
    out
}

/// Symmetric mixed equilibria of an n-player game where every player has
/// exactly **two** strategies: all players mix `(p, 1 − p)`, and `p` must
/// zero the indifference function
/// `g(p) = E[u₀ | play 0] − E[u₀ | play 1]` — a degree-(n−1) polynomial
/// in `p`. Roots inside (0, 1) are isolated by a uniform sign scan and
/// refined by bisection, then verified as genuine equilibria **for every
/// player** (which silently rejects candidates when the measured game is
/// not actually symmetric). Returns an empty list when any player has a
/// strategy count other than two.
///
/// Degenerate games get the same treatment as the 2-player solver's
/// singular systems: if the strategies are *identically* tied (g ≡ 0,
/// every mixture an equilibrium), the continuum is not enumerated — the
/// solver reports nothing rather than an arbitrary sample of it — and a
/// zero *plateau* contributes only its left edge.
pub fn symmetric_mixed_equilibria(table: &UtilityTable, eps: f64) -> Vec<MixedEquilibrium> {
    let counts = table.space().counts();
    if counts.is_empty() || counts.iter().any(|&c| c != 2) {
        return Vec::new();
    }
    assert!(table.is_complete(), "solve over a complete table");
    let players = table.space().players();
    let g = |p: f64| {
        let mixed: MixedProfile = vec![vec![p, 1.0 - p]; players];
        table.expected_pure_vs_mixed(0, 0, &mixed) - table.expected_pure_vs_mixed(0, 1, &mixed)
    };

    const GRID: usize = 512;
    let samples: Vec<f64> = (0..=GRID).map(|i| g(i as f64 / GRID as f64)).collect();
    if samples.iter().all(|&v| v == 0.0) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for i in 1..=GRID {
        let prev = samples[i - 1];
        let in_plateau = i >= 2 && samples[i - 2] == 0.0;
        let root = if prev == 0.0 && !in_plateau {
            // The left grid point IS the root (exact cancellation) —
            // bisecting from glo = 0 would drift off it.
            Some((i - 1) as f64 / GRID as f64)
        } else if prev * samples[i] < 0.0 {
            // Bisect [x − 1/GRID, x] down to ~1e-15.
            let (mut lo, mut hi) = ((i - 1) as f64 / GRID as f64, i as f64 / GRID as f64);
            let mut glo = prev;
            for _ in 0..100 {
                let mid = 0.5 * (lo + hi);
                let gmid = g(mid);
                if gmid == 0.0 {
                    lo = mid;
                    hi = mid;
                    break;
                }
                if glo * gmid < 0.0 {
                    hi = mid;
                } else {
                    lo = mid;
                    glo = gmid;
                }
            }
            Some(0.5 * (lo + hi))
        } else {
            None
        };
        // Endpoints are pure symmetric profiles, not mixtures.
        if let Some(root) = root {
            if root > 1e-9 && root < 1.0 - 1e-9 {
                let dist = vec![vec![root, 1.0 - root]; players];
                push_verified(table, dist, eps, &mut out);
            }
        }
    }
    out
}

/// Dispatches the mixed-equilibrium solver matching the game's shape:
/// two players → [`support_equilibria_2p`]; n players × 2 strategies →
/// [`symmetric_mixed_equilibria`]; anything else → `"unsupported"` with
/// no equilibria (use [`crate::best_reply_path`] to search those spaces).
pub fn mixed_analysis(table: &UtilityTable, eps: f64) -> MixedAnalysis {
    let counts = table.space().counts();
    if counts.len() == 2 {
        MixedAnalysis {
            method: "support-enumeration",
            equilibria: support_equilibria_2p(table, eps),
        }
    } else if counts.iter().all(|&c| c == 2) {
        MixedAnalysis {
            method: "symmetric-indifference",
            equilibria: symmetric_mixed_equilibria(table, eps),
        }
    } else {
        MixedAnalysis {
            method: "unsupported",
            equilibria: Vec::new(),
        }
    }
}

/// A one-line rendering of a mixture: per player, the non-negligible
/// `probability·label` terms joined with `+`, players joined like a
/// profile — `(0.539·π_fork + 0.461·π_bait, …)`. `label(player, s)`
/// supplies the pure-strategy names.
pub fn mixture_label(mixed: &[Vec<f64>], mut label: impl FnMut(usize, usize) -> String) -> String {
    let parts: Vec<String> = mixed
        .iter()
        .enumerate()
        .map(|(p, dist)| {
            let terms: Vec<String> = dist
                .iter()
                .enumerate()
                .filter(|(_, &w)| w > 1e-9)
                .map(|(s, &w)| {
                    if (w - 1.0).abs() < 1e-9 {
                        label(p, s)
                    } else {
                        format!("{w:.3}·{}", label(p, s))
                    }
                })
                .collect();
            terms.join(" + ")
        })
        .collect();
    format!("({})", parts.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::ProfileSpace;
    use crate::types::SystemState;

    fn table_2p(u: impl Fn(usize, usize) -> Vec<f64>, c0: usize, c1: usize) -> UtilityTable {
        UtilityTable::exact(ProfileSpace::new(vec![c0, c1]), |p| {
            (u(p[0], p[1]), SystemState::HonestExecution)
        })
    }

    fn matching_pennies() -> UtilityTable {
        table_2p(
            |a, b| {
                let win = if a == b { 1.0 } else { -1.0 };
                vec![win, -win]
            },
            2,
            2,
        )
    }

    #[test]
    fn expected_utilities_interpolate_the_cells() {
        let t = matching_pennies();
        let uniform = vec![vec![0.5, 0.5]; 2];
        let e = t.expected_utilities(&uniform);
        assert!(e[0].abs() < 1e-12 && e[1].abs() < 1e-12);
        // A pure "mixture" reproduces the cell exactly.
        let pure = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        assert_eq!(t.expected_utilities(&pure), vec![-1.0, 1.0]);
        assert_eq!(t.expected_pure_vs_mixed(0, 1, &pure), 1.0);
    }

    #[test]
    fn matching_pennies_has_the_half_half_equilibrium() {
        let t = matching_pennies();
        let found = support_equilibria_2p(&t, 1e-9);
        assert_eq!(found.len(), 1);
        for dist in &found[0].distributions {
            assert!((dist[0] - 0.5).abs() < 1e-12);
        }
        assert!(found[0].regret <= 1e-12);
        assert!(t.is_mixed_nash(&found[0].distributions, 1e-9));
        // …and no pure equilibrium exists to shadow it.
        assert!(t.nash_equilibria(0.0).is_empty());
    }

    #[test]
    fn battle_of_the_sexes_mixed_equilibrium() {
        // u0 prefers (0,0): 2; u1 prefers (1,1): 2; coordination pays 1.
        let t = table_2p(
            |a, b| match (a, b) {
                (0, 0) => vec![2.0, 1.0],
                (1, 1) => vec![1.0, 2.0],
                _ => vec![0.0, 0.0],
            },
            2,
            2,
        );
        let found = support_equilibria_2p(&t, 1e-9);
        assert_eq!(found.len(), 1, "one strictly mixed equilibrium");
        let eq = &found[0];
        // Player 0 plays their favorite with 2/3, player 1 theirs with 2/3.
        assert!((eq.distributions[0][0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((eq.distributions[1][1] - 2.0 / 3.0).abs() < 1e-12);
        assert!((eq.expected[0] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn rock_paper_scissors_full_support() {
        let t = table_2p(
            |a, b| {
                let win = match (3 + a - b) % 3 {
                    0 => 0.0,
                    1 => 1.0,
                    _ => -1.0,
                };
                vec![win, -win]
            },
            3,
            3,
        );
        let found = support_equilibria_2p(&t, 1e-9);
        assert_eq!(found.len(), 1);
        for dist in &found[0].distributions {
            for &p in dist {
                assert!((p - 1.0 / 3.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn dominance_solvable_games_have_no_mixed_equilibrium() {
        // Prisoner's dilemma: the only equilibrium is pure.
        let t = table_2p(
            |a, b| match (a, b) {
                (0, 0) => vec![3.0, 3.0],
                (0, 1) => vec![0.0, 5.0],
                (1, 0) => vec![5.0, 0.0],
                (1, 1) => vec![1.0, 1.0],
                _ => unreachable!(),
            },
            2,
            2,
        );
        assert!(support_equilibria_2p(&t, 1e-9).is_empty());
    }

    /// The TRAP Theorem 3 game (n = 20, t0 = 6, t = 6, k = 3, G = 8,
    /// R = 2, L = 10) as a closed-form 3-player 2-strategy table.
    fn trap_table() -> UtilityTable {
        UtilityTable::exact(ProfileSpace::uniform(3, 2), |p| {
            // 0 = fork, 1 = bait; forks succeed iff ≥ 2 rational forkers.
            let forkers = p.iter().filter(|&&s| s == 0).count();
            let baiters = 3 - forkers;
            let forked = forkers >= 2;
            let u = p
                .iter()
                .map(|&s| match (s, forked) {
                    (0, true) => 8.0 / forkers as f64,
                    (0, false) => -10.0, // slashed: baiters > 0 here
                    (_, true) => 0.0,
                    (_, false) => 2.0 / baiters as f64,
                })
                .collect();
            (u, SystemState::HonestExecution)
        })
    }

    #[test]
    fn trap_symmetric_mixed_equilibrium_matches_the_closed_form() {
        // Indifference: p²·8/3 + 2p(1−p)·4 − (1−p)²·10
        //             = 2p(1−p)·1 + (1−p)²·2/3, i.e. 21p² − 41p + 16 = 0,
        // whose root in (0, 1) is p* = (41 − √337)/42.
        let expected = (41.0 - 337.0_f64.sqrt()) / 42.0;
        let t = trap_table();
        let found = symmetric_mixed_equilibria(&t, 1e-9);
        assert_eq!(found.len(), 1);
        let p = found[0].distributions[0][0];
        assert!(
            (p - expected).abs() < 1e-9,
            "root {p} vs analytic {expected}"
        );
        for dist in &found[0].distributions {
            assert!((dist[0] - p).abs() < 1e-15, "symmetric profile");
        }
        assert!(t.is_mixed_nash(&found[0].distributions, 1e-9));
        // The dispatcher picks the same solver for this shape.
        let analysis = mixed_analysis(&t, 1e-9);
        assert_eq!(analysis.method, "symmetric-indifference");
        assert_eq!(analysis.equilibria, found);
    }

    #[test]
    fn roots_landing_exactly_on_a_grid_point_are_found() {
        // 3-player cyclic matching: u_i = +1 if s_i == s_{(i+1)%3} else −1.
        // The symmetric indifference function cancels exactly at p = 1/2 —
        // which is a scan grid point (256/512), so the root must be taken
        // from the grid, not bisected past.
        let t = UtilityTable::exact(ProfileSpace::uniform(3, 2), |p| {
            let u = (0..3)
                .map(|i| if p[i] == p[(i + 1) % 3] { 1.0 } else { -1.0 })
                .collect();
            (u, SystemState::HonestExecution)
        });
        let found = symmetric_mixed_equilibria(&t, 1e-9);
        assert_eq!(found.len(), 1);
        for dist in &found[0].distributions {
            assert_eq!(dist[0], 0.5, "the exact grid root survives");
        }
        assert!(t.is_mixed_nash(&found[0].distributions, 1e-9));
    }

    #[test]
    fn identically_tied_strategies_report_no_continuum() {
        // Every profile pays everyone 0: *every* mixture is an
        // equilibrium. Like the 2-player solver's singular systems, the
        // continuum is not enumerated.
        let t = UtilityTable::exact(ProfileSpace::uniform(3, 2), |_| {
            (vec![0.0; 3], SystemState::HonestExecution)
        });
        assert!(symmetric_mixed_equilibria(&t, 1e-9).is_empty());
    }

    #[test]
    fn asymmetric_three_player_games_are_reported_unsupported() {
        let t = UtilityTable::exact(ProfileSpace::uniform(3, 3), |p| {
            (
                vec![p[0] as f64, p[1] as f64, p[2] as f64],
                SystemState::HonestExecution,
            )
        });
        let analysis = mixed_analysis(&t, 1e-9);
        assert_eq!(analysis.method, "unsupported");
        assert!(analysis.equilibria.is_empty());
    }

    #[test]
    fn mixture_labels_render() {
        let labels = ["π_fork", "π_bait"];
        let mixed = vec![vec![0.5391, 0.4609], vec![1.0, 0.0]];
        let s = mixture_label(&mixed, |_, s| labels[s].to_string());
        assert_eq!(s, "(0.539·π_fork + 0.461·π_bait, π_fork)");
    }

    #[test]
    #[should_panic(expected = "probabilities sum")]
    fn malformed_mixtures_are_rejected() {
        let t = matching_pennies();
        let _ = t.expected_utilities(&[vec![0.9, 0.9], vec![0.5, 0.5]]);
    }
}
