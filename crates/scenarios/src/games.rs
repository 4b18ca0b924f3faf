//! The named game registry for `prft-lab explore`: every equilibrium
//! experiment the repo sweeps, declared as a [`GameDef`] over the scenario
//! vocabulary.
//!
//! The paper's 3×3×3 Lemma 4 game lives here next to strictly larger
//! spaces (4 strategies per player) and an analytic TRAP game — the
//! explorer does not care how big the space is, only how profiles map to
//! specs.

use crate::explore::{GameDef, GameEval};
use crate::spec::{PartitionSpec, Role, ScenarioSpec, TimelineEvent, UtilitySpec};
use prft_baselines::trap::{TrapGame, TrapStrategy};
use prft_game::{Profile, Theta, UtilityParams};

/// Committee size of the Lemma 4 games: t0 = 2, quorum 7; k = 3, t = 1 ⇒
/// k + t = 4 < n/2.
const LEMMA4_N: usize = 9;

/// The Lemma 4 committee for one profile: byzantine seat 0 equivocates
/// whenever anyone forks; rational seats 1–3 play the profile. Strategy
/// indices: 0 = π_0, 1 = π_abs, 2 = π_fork, 3 = crash (wide game only).
fn lemma4_spec(profile: &Profile) -> ScenarioSpec {
    let anyone_forks = profile.contains(&2);
    let mut spec = ScenarioSpec::new(format!("{profile:?}"), LEMMA4_N, 3)
        .base_seed(71)
        .fork_b_group([7, 8])
        .utility(UtilitySpec::standard(Theta::ForkSeeking, 3))
        .horizon(600_000);
    if anyone_forks {
        spec = spec.role(0, Role::EquivocatingLeader { only_round: None });
    }
    for (i, &s) in profile.iter().enumerate() {
        spec = match s {
            0 => spec,
            1 => spec.role(1 + i, Role::Abstain),
            2 => spec.role(1 + i, Role::ForkColluder),
            3 => spec.role(1 + i, Role::Crash),
            _ => unreachable!("strategy out of range"),
        };
    }
    spec
}

/// The defection game over the Lemma 4 committee: every rational seat
/// starts as a fork colluder next to an always-equivocating leader, and
/// each chooses between *staying* in the collusion and *defecting* to
/// `π_0` at tick 10 — a strategy only the timeline schedule can express
/// (a `SetRole` scheduled mid-attack). Tick 10 lands inside round 0,
/// after the equivocating propose but (for most delay draws) before the
/// colluders' split commit: a defector usually escapes the double-sign
/// and with it the collateral burn. This is the paper's "colluders defect
/// mid-stream" question as an empirical game.
fn fork_defection_spec(profile: &Profile) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(format!("{profile:?}"), LEMMA4_N, 3)
        .base_seed(0xdefec7)
        .role(0, Role::EquivocatingLeader { only_round: None })
        .roles(1..=3, Role::ForkColluder)
        .fork_b_group([7, 8])
        .utility(UtilitySpec::standard(Theta::ForkSeeking, 3))
        .horizon(600_000);
    for (i, &s) in profile.iter().enumerate() {
        if s == 1 {
            spec = spec.at(10, TimelineEvent::SetRole(1 + i, Role::Honest));
        }
    }
    spec
}

/// The four σ-inducing coalition scripts behind Table 2, as one-axis
/// profiles: 0 = honest (σ_0), 1 = abstention (σ_NP), 2 = censorship
/// (σ_CP), 3 = fork under a broken τ (σ_Fork — pRFT's own τ never forks,
/// so this script runs outside Claim 1's safe window).
fn table2_spec(profile: &Profile) -> ScenarioSpec {
    match profile[0] {
        0 => ScenarioSpec::new("σ_0", 8, 4)
            .base_seed(1)
            .utility(UtilitySpec::standard(Theta::ForkSeeking, 4)),
        1 => ScenarioSpec::new("σ_NP", 8, 4)
            .base_seed(2)
            .roles([6, 7], Role::Abstain)
            .utility(UtilitySpec::standard(Theta::ForkSeeking, 4))
            .horizon(100_000),
        2 => ScenarioSpec::new("σ_CP", 4, 8)
            .base_seed(3)
            .roles([0, 1], Role::PartialCensor)
            .tx(99, None, b"censored")
            .tx(1, None, b"ok")
            .watch([99])
            .censor([99])
            .utility(UtilitySpec::standard(Theta::ForkSeeking, 8)),
        3 => {
            let n = 10;
            ScenarioSpec::new("σ_Fork", n, 1)
                .base_seed(14)
                .tau(6)
                .partition(PartitionSpec {
                    start: 0,
                    end: 50_000,
                    groups: vec![(3..6).collect(), (6..n).collect()],
                    bridges: vec![0, 1, 2],
                })
                .role(
                    0,
                    Role::EquivocatingLeader {
                        only_round: Some(0),
                    },
                )
                .roles([1, 2], Role::ForkColluder)
                .fork_b_group(6..n)
                .utility(UtilitySpec::standard(Theta::ForkSeeking, 1))
                .horizon(40_000)
        }
        _ => unreachable!("strategy out of range"),
    }
}

/// The symmetric abstention game: seats 5–7 of an n = 8 committee (t0 = 2,
/// quorum 7 — never leaders inside the 2-round budget) each choose
/// {π_0, π_abs}. Utilities depend only on *how many* abstain, so the seats
/// are interchangeable and the declared symmetry cuts 8 profiles to 4.
fn abstain_quorum_spec(profile: &Profile) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(format!("{profile:?}"), 8, 2)
        .base_seed(0xab5)
        .utility(UtilitySpec::standard(Theta::LivenessAttacking, 2))
        .horizon(150_000);
    for (i, &s) in profile.iter().enumerate() {
        if s == 1 {
            spec = spec.role(5 + i, Role::Abstain);
        }
    }
    spec
}

/// TRAP's Theorem 3 game at n = 20, t = 6 with the paper's economics
/// (G = 8, R = 2, L = 10) for a collusion of `k` rational players.
pub(crate) fn trap_game(k: usize) -> TrapGame {
    let params = UtilityParams {
        gain_g: 8.0,
        reward_r: 2.0,
        penalty_l: 10.0,
        ..UtilityParams::default()
    };
    TrapGame::new(20, 6, k, params)
}

/// One profile of [`trap_game`]: strategy 0 = π_fork, 1 = π_bait.
pub(crate) fn trap_play(game: &TrapGame, profile: &Profile) -> (Vec<f64>, prft_game::SystemState) {
    let strategies = [TrapStrategy::Fork, TrapStrategy::Bait];
    let chosen: Vec<TrapStrategy> = profile.iter().map(|&i| strategies[i]).collect();
    let outcome = game.play(&chosen);
    (outcome.utilities, outcome.state)
}

/// The registered k = 3 point: closed-form, fully symmetric.
fn trap_eval(profile: &Profile) -> (Vec<f64>, prft_game::SystemState) {
    trap_play(&trap_game(3), profile)
}

/// Builds the full game registry.
pub fn game_registry() -> Vec<GameDef> {
    vec![
        GameDef {
            name: "lemma4-dsic",
            cache_scope: "lemma4",
            description:
                "Lemma 4: rational seats 1-3 choose {π_0, π_abs, π_fork} vs an equivocating leader (27 profiles)",
            strategies: vec![vec!["π_0", "π_abs", "π_fork"]; 3],
            // Seats 1-3 are NOT symmetric: the leader schedule reaches
            // seats 1 and 2 inside the 3-round budget but never seat 3.
            symmetry: vec![],
            honest: vec![0, 0, 0],
            eval: GameEval::Simulated {
                players: vec![1, 2, 3],
                spec_of: lemma4_spec,
            },
        },
        GameDef {
            name: "lemma4-wide",
            cache_scope: "lemma4",
            description:
                "the Lemma 4 game widened to 4 strategies per player — {π_0, π_abs, π_fork, crash} (64 profiles)",
            strategies: vec![vec!["π_0", "π_abs", "π_fork", "crash"]; 3],
            symmetry: vec![],
            honest: vec![0, 0, 0],
            eval: GameEval::Simulated {
                players: vec![1, 2, 3],
                spec_of: lemma4_spec,
            },
        },
        GameDef {
            name: "table2-sigma",
            cache_scope: "table2-sigma",
            description:
                "Table 2: one axis of four coalition scripts driving the system into each σ state",
            strategies: vec![vec!["σ_0", "σ_NP", "σ_CP", "σ_Fork"]],
            symmetry: vec![],
            honest: vec![0],
            eval: GameEval::Simulated {
                players: vec![3],
                spec_of: table2_spec,
            },
        },
        GameDef {
            name: "abstain-quorum",
            cache_scope: "abstain-quorum",
            description:
                "symmetric abstention game: three interchangeable seats choose {π_0, π_abs} (8 profiles, 4 evaluated)",
            strategies: vec![vec!["π_0", "π_abs"]; 3],
            symmetry: vec![vec![0, 1, 2]],
            honest: vec![0, 0, 0],
            eval: GameEval::Simulated {
                players: vec![5, 6, 7],
                spec_of: abstain_quorum_spec,
            },
        },
        GameDef {
            name: "fork-defection",
            cache_scope: "fork-defection",
            description:
                "timeline game: three colluding seats each choose {stay π_fork, defect to π_0 @ t=10} mid-attack (8 profiles)",
            strategies: vec![vec!["π_fork", "π_fork→π_0"]; 3],
            // Same committee as lemma4: the leader schedule breaks seat
            // interchangeability, so the space is swept in full.
            symmetry: vec![],
            honest: vec![1, 1, 1],
            eval: GameEval::Simulated {
                players: vec![1, 2, 3],
                spec_of: fork_defection_spec,
            },
        },
        GameDef {
            name: "trap-k3",
            cache_scope: "trap-k3",
            description:
                "Theorem 3 (analytic): TRAP's k = 3 collusion chooses {π_fork, π_bait} inside the tolerated regime",
            strategies: vec![vec!["π_fork", "π_bait"]; 3],
            symmetry: vec![vec![0, 1, 2]],
            honest: vec![1, 1, 1],
            eval: GameEval::Analytic(trap_eval),
        },
        GameDef {
            name: "matching-pennies",
            cache_scope: "matching-pennies",
            description:
                "analytic 2×2 reference: zero-sum matching game with no pure NE and the unique mixed NE (1/2, 1/2)",
            strategies: vec![vec!["heads", "tails"]; 2],
            symmetry: vec![],
            honest: vec![0, 0],
            eval: GameEval::Analytic(|p| {
                let win = if p[0] == p[1] { 1.0 } else { -1.0 };
                (vec![win, -win], prft_game::SystemState::HonestExecution)
            }),
        },
    ]
}

/// Looks a game up by name.
pub fn find_game(name: &str) -> Option<GameDef> {
    game_registry().into_iter().find(|g| g.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_findable() {
        let reg = game_registry();
        let mut names: Vec<_> = reg.iter().map(|g| g.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), reg.len());
        assert!(find_game("lemma4-dsic").is_some());
        assert!(find_game("no-such-game").is_none());
        // The acceptance criterion: a strictly larger sweep exists.
        let wide = find_game("lemma4-wide").unwrap();
        assert!(wide.strategies.iter().all(|s| s.len() >= 4));
        assert_eq!(wide.space(true).len(), 64);
    }

    #[test]
    fn specs_are_deterministic_and_measured() {
        for game in game_registry() {
            if let GameEval::Simulated { spec_of, players } = &game.eval {
                let space = game.space(false);
                for profile in space.profiles() {
                    let spec = spec_of(&profile);
                    assert!(spec.utility.is_some(), "{}: {profile:?}", game.name);
                    assert_eq!(spec.fingerprint(), spec_of(&profile).fingerprint());
                    for &seat in players {
                        assert!(seat < spec.n, "{}: seat {seat}", game.name);
                    }
                }
            }
        }
    }

    #[test]
    fn fork_defection_profiles_differ_only_in_their_schedules() {
        let game = find_game("fork-defection").unwrap();
        let GameEval::Simulated { spec_of, .. } = game.eval else {
            panic!("simulated game");
        };
        let stay = spec_of(&vec![0, 0, 0]);
        let defect = spec_of(&vec![1, 1, 1]);
        assert!(!stay.has_schedule());
        assert_eq!(defect.schedule.len(), 3);
        // The schedule alone must separate the cache cells.
        assert_eq!(stay.roles, defect.roles);
        assert_ne!(
            ScenarioSpec {
                label: String::new(),
                ..stay
            }
            .fingerprint(),
            ScenarioSpec {
                label: String::new(),
                ..defect
            }
            .fingerprint()
        );
    }

    #[test]
    fn profile_labels_render() {
        let g = find_game("lemma4-dsic").unwrap();
        assert_eq!(g.profile_label(&[0, 1, 2]), "(π_0, π_abs, π_fork)");
    }
}
