//! The empirical game explorer: profile space → scenario spec → batch
//! runs → utility table.
//!
//! The paper's equilibrium claims (Lemma 4's DSIC, Table 2's payoffs,
//! Theorem 3's trap equilibria) are statements over *strategy profiles*. A
//! [`GameDef`] declares such a game: which committee seats are the rational
//! players, which strategies each may play, and how one profile becomes a
//! runnable [`ScenarioSpec`]. The [`GameExplorer`] then sweeps the space:
//!
//! 1. **Symmetry reduction** — profiles equivalent under a declared player
//!    symmetry are evaluated once ([`prft_game::ProfileSpace`]); the full
//!    table is reconstructed by permuting per-player utilities back.
//! 2. **One in-process memo** — each cell is keyed by `(cache scope, spec
//!    key text, seeds, profile, seats)`. A cell another game of the same
//!    batch already claimed is simulated once, and a cell an earlier sweep
//!    on the same explorer computed is not simulated again; either way the
//!    cell is the computed one, so reports do not depend on what was
//!    reused.
//! 3. **Deterministic parallelism** — the missing cells run as one
//!    [`BatchRunner::run_grid_with`] grid (cells × seeds flattened into one
//!    work list, order-independent seeding), so `--threads 1` and
//!    `--threads 8` produce byte-identical utility tables.
//!
//! The finished [`prft_game::UtilityTable`] carries per-cell 95% CIs, and
//! its Nash/DSIC certificates report whether each verdict is robust to
//! them.

use crate::checkpoint::{CheckpointStore, ReuseStats};
use crate::runner::BatchRunner;
use crate::spec::ScenarioSpec;
use prft_game::{Profile, ProfileSpace, ProfileStats, SystemState, UtilityTable};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;

/// How a game's profiles are evaluated.
pub enum GameEval {
    /// Map the profile to a committee spec and simulate it; player `p` of
    /// the game reads the measured utility of committee seat `players[p]`.
    /// The spec must measure utilities ([`ScenarioSpec::utility`]).
    Simulated {
        /// Committee seat of each game player.
        players: Vec<usize>,
        /// Profile → runnable spec.
        spec_of: fn(&Profile) -> ScenarioSpec,
    },
    /// Closed-form evaluation (no simulation; seeds are ignored and cells
    /// carry zero CI).
    Analytic(fn(&Profile) -> (Vec<f64>, SystemState)),
}

/// A declarative empirical game the explorer can sweep (`prft-lab explore
/// run <name>`).
pub struct GameDef {
    /// Registry name.
    pub name: &'static str,
    /// One-line description for `prft-lab explore list`.
    pub description: &'static str,
    /// Per-player strategy labels (`strategies[p][s]`), defining both the
    /// arity of the space and the names reports print.
    pub strategies: Vec<Vec<&'static str>>,
    /// Declared symmetry groups: sets of players whose identities do not
    /// matter to the game. Only declare what the simulation really honors —
    /// leader rotation, partition sides, and fork groups all break seat
    /// interchangeability.
    pub symmetry: Vec<Vec<usize>>,
    /// The profile every player "should" play (strategy index per player);
    /// the DSIC verdict asks whether each component is dominant.
    pub honest: Profile,
    /// Memo namespace. Games sharing `spec_of` may share a scope, so a
    /// wider sweep reuses the cells a narrower one already paid for.
    /// Cells are keyed by the spec's canonical text
    /// ([`ScenarioSpec::fingerprint`]) *and* the player-seat vector, and
    /// the memo lives only as long as its explorer, so scope sharing can
    /// never serve a stale cell or one measured for different seats.
    pub cache_scope: &'static str,
    /// How profiles are evaluated.
    pub eval: GameEval,
}

impl GameDef {
    /// The game's profile space, honoring declared symmetry when
    /// `use_symmetry` is set.
    pub fn space(&self, use_symmetry: bool) -> ProfileSpace {
        let mut space = ProfileSpace::new(self.strategies.iter().map(Vec::len).collect());
        if use_symmetry {
            for group in &self.symmetry {
                space = space.with_symmetry(group.iter().copied());
            }
        }
        space
    }

    /// Number of game players.
    pub fn players(&self) -> usize {
        self.strategies.len()
    }

    /// The label of `player`'s strategy `s`.
    pub fn label(&self, player: usize, s: usize) -> &'static str {
        self.strategies[player][s]
    }

    /// Formats a profile with strategy labels: `(π_0, π_abs, π_fork)`.
    pub fn profile_label(&self, profile: &[usize]) -> String {
        let parts: Vec<&str> = profile
            .iter()
            .enumerate()
            .map(|(p, &s)| self.label(p, s))
            .collect();
        format!("({})", parts.join(", "))
    }
}

/// A finished sweep: the complete utility table plus cost accounting.
pub struct Exploration {
    /// The complete measured game.
    pub table: UtilityTable,
    /// Seeded runs behind each simulated cell.
    pub seeds: u64,
    /// Cells simulated by this sweep.
    pub evaluated: usize,
    /// Cells served from this explorer's earlier sweeps.
    pub cached: usize,
    /// Cells served from an identical cell another game in the same
    /// [`GameExplorer::explore_all`] batch already evaluated (cross-game
    /// reuse through a shared cache scope).
    pub shared: usize,
    /// Cells filled by symmetry expansion instead of simulation.
    pub expanded: usize,
    /// Each broken invariant row of each run this sweep simulated for the
    /// game, as [`crate::BatchReport::breaches`] names it (a cached or
    /// shared cell has no runs here to check).
    pub breaches: Vec<String>,
}

/// The identity of one simulated cell within its cache scope.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct CacheKey {
    /// [`ScenarioSpec::fingerprint`] of the cell's spec.
    fingerprint: String,
    /// Seeded runs aggregated into the cell.
    seeds: u64,
    /// The strategy profile the spec realizes.
    profile: Profile,
    /// Committee seats the per-player utilities were read from.
    seats: Vec<usize>,
}

/// Sweeps [`GameDef`]s into utility tables through the batch engine.
pub struct GameExplorer {
    runner: BatchRunner,
    /// Every cell this explorer has simulated, by `(cache_scope, key)`.
    /// Only finished cells enter it, after their batch returns, so a sweep
    /// that panicked leaves it as it was.
    memo: RefCell<BTreeMap<(&'static str, CacheKey), ProfileStats>>,
    use_symmetry: bool,
    warm_starts: bool,
}

impl GameExplorer {
    /// An explorer fanning work through `runner`, with an empty memo,
    /// symmetry reduction on, and checkpoint/fork warm starts on.
    pub fn new(runner: BatchRunner) -> Self {
        GameExplorer {
            runner,
            memo: RefCell::default(),
            use_symmetry: true,
            warm_starts: true,
        }
    }

    // Exists only because the frozen `benchmark/` crate still calls it; goes
    // away in the next `benchmark` PR.
    #[doc(hidden)]
    #[must_use]
    pub fn with_cache(self, _: UtilityCache) -> Self {
        self
    }

    /// Evaluates every profile even when the game declares symmetry (the
    /// cross-check mode the symmetry tests use).
    #[must_use]
    pub fn without_symmetry(mut self) -> Self {
        self.use_symmetry = false;
        self
    }

    /// Toggles checkpoint/fork warm starts across the sweep's cells (on by
    /// default; off is the cold reference `checkpoint_equiv.rs` compares
    /// against). Results are byte-identical either way.
    #[must_use]
    pub fn warm_starts(mut self, on: bool) -> Self {
        self.warm_starts = on;
        self
    }

    /// Sweeps `game`, simulating `seeds` runs per evaluated cell.
    ///
    /// # Panics
    /// Panics if a simulated game's spec does not measure utilities or
    /// names a committee seat outside the committee.
    pub fn explore(&self, game: &GameDef, seeds: u64) -> Exploration {
        self.explore_all(std::slice::from_ref(game), seeds)
            .pop()
            .expect("one exploration per game")
    }

    /// Sweeps several games as **one** batch: every cell the memo does not
    /// hold, across all the games, becomes a grid point of a single
    /// [`BatchRunner::run_grid_with`] call, so a `run-all`-style batch of
    /// many small games saturates the pool the same way one big game
    /// does. Results come back in `games` order.
    ///
    /// Games sharing a cache scope (and therefore a `spec_of` and seat
    /// vector — the memo key enforces agreement) additionally share
    /// *work*: a cell two games both need is simulated once, counted as
    /// `evaluated` for the first game and `shared` for the rest. A cell an
    /// earlier sweep on this explorer simulated is counted as `cached`.
    /// Per-run seeds depend only on `(spec base seed, seed index)`, so
    /// neither the batching, the memo nor the thread count can perturb
    /// any run: the per-game reports are byte-identical to sweeping each
    /// game alone on a fresh explorer.
    ///
    /// # Panics
    /// Panics if a simulated game's spec does not measure utilities or
    /// names a committee seat outside the committee.
    pub fn explore_all(&self, games: &[GameDef], seeds: u64) -> Vec<Exploration> {
        self.explore_all_with_stats(games, seeds).0
    }

    /// [`GameExplorer::explore_all`], also returning the checkpoint reuse
    /// accounting of the batch's warm-start store (all zeros when warm
    /// starts are off). The stats are batch-level, not per game: cells of
    /// different games sharing a timeline prefix fork from each other's
    /// checkpoints, so per-game attribution would be arbitrary.
    pub fn explore_all_with_stats(
        &self,
        games: &[GameDef],
        seeds: u64,
    ) -> (Vec<Exploration>, ReuseStats) {
        let sim_seeds = seeds.max(1);
        let store = self.warm_starts.then(CheckpointStore::default);

        /// Where one target cell's stats come from.
        enum Source {
            /// Evaluated in closed form (an analytic game).
            Exact(ProfileStats),
            /// Served from the memo of an earlier sweep.
            Cached(ProfileStats),
            /// Simulated by this batch (index into the work list).
            Fresh(usize),
            /// Same work another game in this batch already claimed.
            Shared(usize),
        }
        struct WorkCell {
            id: (&'static str, CacheKey),
            game: &'static str,
        }

        let mut work: Vec<WorkCell> = Vec::new();
        let mut specs: Vec<ScenarioSpec> = Vec::new();
        let mut index_of: BTreeMap<(&str, CacheKey), usize> = BTreeMap::new();
        let mut plans: Vec<(ProfileSpace, Vec<(Profile, Source)>)> =
            Vec::with_capacity(games.len());

        let memo = self.memo.borrow();
        for game in games {
            let space = game.space(self.use_symmetry);
            let mut sources = Vec::new();
            for profile in space.canonical_profiles() {
                let source = match &game.eval {
                    GameEval::Analytic(eval) => {
                        let (utilities, sigma) = eval(&profile);
                        assert_eq!(utilities.len(), game.players(), "one utility per player");
                        Source::Exact(ProfileStats {
                            ci95: vec![0.0; game.players()],
                            seeds: 1,
                            utilities,
                            sigma,
                        })
                    }
                    GameEval::Simulated { players, spec_of } => {
                        let spec = spec_of(&profile);
                        assert!(
                            spec.utility.is_some(),
                            "game '{}' spec for {profile:?} must measure utilities",
                            game.name
                        );
                        let id = (
                            game.cache_scope,
                            CacheKey {
                                fingerprint: spec.fingerprint(),
                                seeds: sim_seeds,
                                profile: profile.clone(),
                                seats: players.to_vec(),
                            },
                        );
                        if let Some(stats) = memo.get(&id) {
                            Source::Cached(stats.clone())
                        } else if let Some(&cell) = index_of.get(&id) {
                            Source::Shared(cell)
                        } else {
                            let cell = work.len();
                            index_of.insert(id.clone(), cell);
                            specs.push(spec);
                            work.push(WorkCell {
                                id,
                                game: game.name,
                            });
                            Source::Fresh(cell)
                        }
                    }
                };
                sources.push((profile, source));
            }
            plans.push((space, sources));
        }
        drop(memo);

        // Every missing cell of every game is one grid point of a single
        // `run_grid_with` batch (one flattened `cells × seeds` work list,
        // capture hints advertised across all of it), so many small cells
        // (and many small games) still saturate the pool, and a cell whose
        // own schedule ends early still captures at sibling fork ticks.
        let reports = self.runner.run_grid_with(&specs, sim_seeds, store.as_ref());
        let mut computed: Vec<ProfileStats> = Vec::with_capacity(work.len());
        for (report, WorkCell { id: (_, key), game }) in reports.iter().zip(&work) {
            let seat = |s: &usize| {
                let utility = report.utilities.get(*s);
                utility.unwrap_or_else(|| panic!("game '{game}': no seat {s} in n={}", report.n))
            };
            computed.push(ProfileStats {
                utilities: key.seats.iter().map(|s| seat(s).mean).collect(),
                ci95: key.seats.iter().map(|s| seat(s).ci95).collect(),
                seeds: sim_seeds,
                sigma: report.modal_sigma(),
            });
        }

        let explorations = games
            .iter()
            .zip(plans)
            .map(|(game, (space, sources))| {
                let expanded = space.len() - sources.len();
                let mut cells = BTreeMap::new();
                let (mut evaluated, mut cached, mut shared) = (0, 0, 0);
                let mut breaches = Vec::new();
                for (profile, source) in sources {
                    let stats = match source {
                        Source::Exact(stats) => {
                            evaluated += 1;
                            stats
                        }
                        Source::Cached(stats) => {
                            cached += 1;
                            stats
                        }
                        Source::Fresh(cell) => {
                            evaluated += 1;
                            breaches.extend(reports[cell].breaches());
                            computed[cell].clone()
                        }
                        Source::Shared(cell) => {
                            shared += 1;
                            computed[cell].clone()
                        }
                    };
                    cells.insert(profile, stats);
                }
                let analytic = matches!(game.eval, GameEval::Analytic(_));
                Exploration {
                    table: UtilityTable::from_canonical(space, &cells),
                    seeds: if analytic { 1 } else { sim_seeds },
                    evaluated,
                    cached,
                    shared,
                    expanded,
                    breaches,
                }
            })
            .collect();
        let finished = work.into_iter().map(|w| w.id).zip(computed);
        self.memo.borrow_mut().extend(finished);
        (explorations, store.map(|s| s.stats()).unwrap_or_default())
    }
}

// Exists only because the frozen `benchmark/` crate still calls it; goes
// away in the next `benchmark` PR.
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct UtilityCache;

#[doc(hidden)]
impl UtilityCache {
    pub fn new(_: impl AsRef<Path>) -> Self {
        UtilityCache
    }

    pub fn load(&self, _: &str) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Role, UtilitySpec};
    use prft_game::Theta;

    fn tiny_game() -> GameDef {
        // Seats 4 and 5 of n = 6 choose {π_0, π_abs}; utilities depend only
        // on how many abstain, so the seats are genuinely symmetric.
        GameDef {
            name: "tiny-abstain",
            cache_scope: "tiny-abstain",
            description: "test game",
            strategies: vec![vec!["π_0", "π_abs"]; 2],
            symmetry: vec![vec![0, 1]],
            honest: vec![0, 0],
            eval: GameEval::Simulated {
                players: vec![4, 5],
                spec_of: |profile| {
                    let mut spec = ScenarioSpec::new(format!("{profile:?}"), 6, 2)
                        .base_seed(0x7e57)
                        .utility(UtilitySpec::standard(Theta::LivenessAttacking, 2))
                        .horizon(150_000);
                    for (i, &s) in profile.iter().enumerate() {
                        if s == 1 {
                            spec = spec.role(4 + i, Role::Abstain);
                        }
                    }
                    spec
                },
            },
        }
    }

    #[test]
    fn simulated_sweep_fills_the_table() {
        let out = GameExplorer::new(BatchRunner::new(2)).explore(&tiny_game(), 2);
        assert!(out.table.is_complete());
        assert_eq!(out.evaluated, 3, "C(3, 2) canonical profiles");
        assert_eq!(out.expanded, 1, "(1,0) is the mirror of (0,1)");
        assert_eq!(out.cached, 0);
        // Two abstainers of six jam the quorum: θ=3 profits.
        let jam = out.table.utilities(&vec![1, 1]);
        assert!(jam[0] > 0.0 && jam[1] > 0.0);
        assert_eq!(out.table.utilities(&vec![0, 0]), &[0.0, 0.0]);
    }

    #[test]
    fn analytic_games_skip_simulation() {
        let game = GameDef {
            name: "matching-pennies",
            cache_scope: "matching-pennies",
            description: "test game",
            strategies: vec![vec!["H", "T"]; 2],
            symmetry: vec![],
            honest: vec![0, 0],
            eval: GameEval::Analytic(|p| {
                let win = if p[0] == p[1] { 1.0 } else { -1.0 };
                (vec![win, -win], SystemState::HonestExecution)
            }),
        };
        let out = GameExplorer::new(BatchRunner::new(1)).explore(&game, 99);
        assert_eq!(out.evaluated, 4);
        assert!(out.table.nash_equilibria(0.0).is_empty(), "no pure NE");
    }
}
