//! The game explorer's contracts: symmetry reduction reproduces the full
//! sweep, the explorer's memo turns re-sweeps into pure reads (and wider
//! sweeps into partial reads), and thread count never changes a report
//! byte.

use prft_lab::{
    find_game, report, BatchRunner, GameDef, GameEval, GameExplorer, Role, ScenarioSpec,
    UtilityCache, UtilitySpec,
};
/// A cheap simulated game sharing the `abstain-quorum` committee shape:
/// two never-leading seats of n = 6 choose {π_0, π_abs}.
fn pair_game(wide: bool) -> GameDef {
    fn spec_of(profile: &prft_game::Profile) -> ScenarioSpec {
        let mut spec = ScenarioSpec::new(format!("{profile:?}"), 6, 2)
            .base_seed(0xca5e)
            .utility(UtilitySpec::standard(
                prft_game::Theta::LivenessAttacking,
                2,
            ))
            .horizon(150_000);
        for (i, &s) in profile.iter().enumerate() {
            match s {
                0 => {}
                1 => spec = spec.role(4 + i, Role::Abstain),
                2 => spec = spec.role(4 + i, Role::Crash),
                _ => unreachable!(),
            }
        }
        spec
    }
    let strategies = if wide {
        vec![vec!["π_0", "π_abs", "crash"]; 2]
    } else {
        vec![vec!["π_0", "π_abs"]; 2]
    };
    GameDef {
        name: if wide { "pair-wide" } else { "pair" },
        description: "test game",
        strategies,
        symmetry: vec![],
        honest: vec![0, 0],
        cache_scope: "pair",
        eval: GameEval::Simulated {
            players: vec![4, 5],
            spec_of,
        },
    }
}

#[test]
fn symmetry_reduction_reproduces_the_full_sweep() {
    // `abstain-quorum` declares its three seats interchangeable; the
    // reduced sweep (4 cells) must reproduce the full sweep (8 cells)
    // cell-for-cell — utilities, CIs, and σ states alike.
    let game = find_game("abstain-quorum").expect("registered game");
    let reduced = GameExplorer::new(BatchRunner::new(2)).explore(&game, 3);
    let full = GameExplorer::new(BatchRunner::new(2))
        .without_symmetry()
        .explore(&game, 3);
    assert_eq!(reduced.evaluated, 4, "C(4, 3) canonical profiles");
    assert_eq!(reduced.expanded, 4);
    assert_eq!(full.evaluated, 8);
    assert_eq!(full.expanded, 0);
    for (profile, full_stats) in full.table.cells() {
        assert_eq!(
            reduced.table.get(profile),
            Some(full_stats),
            "cell {profile:?} diverges between reduced and full sweeps"
        );
    }
    // And the rendered equilibrium reports are byte-identical.
    assert_eq!(
        report::explore_json_with(&game, &reduced, 1e-9, Default::default()),
        report::explore_json_with(&game, &full, 1e-9, Default::default())
    );
}

#[test]
fn cache_turns_resweeps_into_hits() {
    let game = pair_game(false);
    let explorer = GameExplorer::new(BatchRunner::new(2));

    let cold = explorer.explore(&game, 2);
    assert_eq!(
        (cold.evaluated, cold.cached),
        (4, 0),
        "the first sweep simulates"
    );

    let warm = explorer.explore(&game, 2);
    assert_eq!(
        (warm.evaluated, warm.cached),
        (0, 4),
        "a re-sweep on the same explorer is served from its memo"
    );
    assert_eq!(
        report::explore_json_with(&game, &cold, 1e-9, Default::default()),
        report::explore_json_with(&game, &warm, 1e-9, Default::default()),
        "a memo hit reproduces the computed report byte-exactly"
    );

    // A different seed count is a different cell: misses again.
    let reseeded = explorer.explore(&game, 3);
    assert_eq!((reseeded.evaluated, reseeded.cached), (4, 0));
}

#[test]
fn wider_sweep_reuses_narrow_cells_through_the_shared_scope() {
    let explorer = GameExplorer::new(BatchRunner::new(2));

    let narrow = explorer.explore(&pair_game(false), 2);
    assert_eq!((narrow.evaluated, narrow.cached), (4, 0));

    // The 3×3 widening shares `spec_of`, seats, and cache scope: its 2×2
    // sub-square is already in the memo, only the 5 new cells simulate.
    let wide = explorer.explore(&pair_game(true), 2);
    assert_eq!((wide.evaluated, wide.cached), (5, 4));

    // The shared cells agree with the narrow sweep, and the wide report
    // with a fresh explorer's.
    for profile in [vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]] {
        assert_eq!(narrow.table.get(&profile), wide.table.get(&profile));
    }
    let fresh = GameExplorer::new(BatchRunner::new(1)).explore(&pair_game(true), 2);
    assert_eq!(
        report::explore_json_with(&pair_game(true), &wide, 1e-9, Default::default()),
        report::explore_json_with(&pair_game(true), &fresh, 1e-9, Default::default())
    );
}

/// The call shape of the frozen benchmark crate: a `UtilityCache` handed
/// to `with_cache`, and the same games swept twice. Nothing is written
/// under the directory, and the second sweep is served from the
/// explorer's memo.
#[test]
fn a_utility_cache_writes_nothing_and_resweeps_come_from_the_memo() {
    let dir = std::env::temp_dir().join(format!("prft-explore-shim-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let explorer = GameExplorer::new(BatchRunner::new(1)).with_cache(UtilityCache::new(&dir));
    let games = [
        pair_game(false),
        pair_game(true),
        find_game("trap-k3").expect("registered"),
    ];
    let cold = explorer.explore_all(&games, 1);
    let counts = |e: &[prft_lab::Exploration]| -> Vec<(usize, usize, usize)> {
        e.iter()
            .map(|e| (e.evaluated, e.cached, e.shared))
            .collect()
    };
    assert_eq!(counts(&cold), [(4, 0, 0), (5, 0, 4), (4, 0, 0)]);
    let warm = explorer.explore_all(&games, 1);
    assert_eq!(
        counts(&warm),
        [(0, 4, 0), (0, 9, 0), (4, 0, 0)],
        "every simulated cell is cached; analytic cells are evaluated"
    );
    for (game, (c, w)) in games.iter().zip(cold.iter().zip(&warm)) {
        assert_eq!(
            report::explore_json_with(game, c, 1e-9, Default::default()),
            report::explore_json_with(game, w, 1e-9, Default::default())
        );
    }
    let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(written.is_empty(), "{written:?}");
}

/// A sweep that panics — while planning, or after its batch ran — leaves
/// the memo usable and unchanged: the next sweep on the same explorer
/// simulates every cell again.
#[test]
fn a_panicked_sweep_leaves_the_memo_as_it_was() {
    let explorer = GameExplorer::new(BatchRunner::new(1));
    let mut no_utility = pair_game(false);
    no_utility.eval = GameEval::Simulated {
        players: vec![4, 5],
        spec_of: |profile| ScenarioSpec::new(format!("{profile:?}"), 6, 2).horizon(1_000),
    };
    let mut no_seat = pair_game(false);
    no_seat.name = "no-seat";
    if let GameEval::Simulated { players, .. } = &mut no_seat.eval {
        *players = vec![4, 9];
    }
    let batches = [vec![no_utility], vec![pair_game(false), no_seat]];
    for games in &batches {
        let swept = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            explorer.explore_all(games, 1)
        }));
        assert!(swept.is_err(), "{} must panic", games[games.len() - 1].name);
    }
    let out = explorer.explore(&pair_game(false), 1);
    assert_eq!((out.evaluated, out.cached, out.shared), (4, 0, 0));
}

#[test]
fn explore_reports_are_thread_count_invariant() {
    // The acceptance criterion: `--threads 1` and `--threads 8` produce
    // byte-identical equilibrium reports, in every format.
    let game = find_game("abstain-quorum").expect("registered game");
    let serial = GameExplorer::new(BatchRunner::new(1)).explore(&game, 4);
    let parallel = GameExplorer::new(BatchRunner::new(8)).explore(&game, 4);
    assert_eq!(
        report::explore_json_with(&game, &serial, 1e-9, Default::default()),
        report::explore_json_with(&game, &parallel, 1e-9, Default::default())
    );
    let opts = report::ExploreOpts::default();
    assert_eq!(
        report::explore_csv_with(&game, &serial, 1e-9, opts),
        report::explore_csv_with(&game, &parallel, 1e-9, opts)
    );
    assert_eq!(
        report::explore_table_with(&game, &serial, 1e-9, opts),
        report::explore_table_with(&game, &parallel, 1e-9, opts)
    );
}

#[test]
fn registered_trap_game_reproduces_theorem_3() {
    let game = find_game("trap-k3").expect("registered game");
    let out = GameExplorer::new(BatchRunner::new(2)).explore(&game, 1);
    let ne = out.table.nash_equilibria(1e-9);
    assert!(ne.contains(&vec![0, 0, 0]), "all-fork is a NE");
    assert!(ne.contains(&vec![1, 1, 1]), "all-bait is a NE");
    // G/k for the forkers.
    let fork_u = out.table.utilities(&vec![0, 0, 0]);
    assert!((fork_u[0] - 8.0 / 3.0).abs() < 1e-12);
    assert_eq!(
        out.table.focal_among(&ne, &[0, 1, 2]).unwrap(),
        &vec![0, 0, 0],
        "the insecure equilibrium is focal"
    );
}

#[test]
fn batch_sweeps_share_cells_across_scope_mates() {
    // One explore_all batch over the narrow and wide pair games (shared
    // cache scope): the 2×2 sub-square is simulated once
    // and *shared* into the wide game, and each per-game report is
    // byte-identical to sweeping that game alone.
    let runner = BatchRunner::new(2);
    let games = [pair_game(false), pair_game(true)];
    let both = GameExplorer::new(runner).explore_all(&games, 2);
    assert_eq!(
        (both[0].evaluated, both[0].cached, both[0].shared),
        (4, 0, 0)
    );
    assert_eq!(
        (both[1].evaluated, both[1].cached, both[1].shared),
        (5, 0, 4),
        "the wide game reuses the narrow game's 4 cells in-batch"
    );
    for (game, batched) in games.iter().zip(&both) {
        let alone = GameExplorer::new(runner).explore(game, 2);
        assert_eq!(
            report::explore_json_with(game, batched, 1e-9, Default::default()),
            report::explore_json_with(game, &alone, 1e-9, Default::default()),
            "{}: batching must not change the report",
            game.name
        );
    }
    // And the batch itself is thread-count invariant.
    let serial = GameExplorer::new(BatchRunner::new(1)).explore_all(&games, 2);
    for (game, (s, p)) in games.iter().zip(serial.iter().zip(&both)) {
        assert_eq!(
            report::explore_json_with(game, s, 1e-9, Default::default()),
            report::explore_json_with(game, p, 1e-9, Default::default()),
            "{}: T=1 vs T=2 batch",
            game.name
        );
    }
}

#[test]
fn batch_sweeps_mix_analytic_and_simulated_games() {
    let games = [pair_game(false), find_game("trap-k3").expect("registered")];
    let out = GameExplorer::new(BatchRunner::new(2)).explore_all(&games, 1);
    assert!(out[0].table.is_complete());
    assert!(out[1].table.is_complete());
    assert_eq!(out[1].seeds, 1, "analytic cells are exact");
    assert!(out[1].table.nash_equilibria(1e-9).contains(&vec![0, 0, 0]));
}

#[test]
fn mixed_and_dynamics_reports_are_thread_count_invariant() {
    // The --mixed/--dynamics analyses are pure functions of the finished
    // table, so T=1 and T=8 sweeps emit byte-identical documents in every
    // format, sections included.
    let game = find_game("abstain-quorum").expect("registered game");
    let opts = report::ExploreOpts {
        mixed: true,
        dynamics: true,
    };
    let serial = GameExplorer::new(BatchRunner::new(1)).explore(&game, 4);
    let parallel = GameExplorer::new(BatchRunner::new(8)).explore(&game, 4);
    assert_eq!(
        report::explore_json_with(&game, &serial, 1e-9, opts),
        report::explore_json_with(&game, &parallel, 1e-9, opts)
    );
    assert_eq!(
        report::explore_csv_with(&game, &serial, 1e-9, opts),
        report::explore_csv_with(&game, &parallel, 1e-9, opts)
    );
    assert_eq!(
        report::explore_table_with(&game, &serial, 1e-9, opts),
        report::explore_table_with(&game, &parallel, 1e-9, opts)
    );
    let json = report::explore_json_with(&game, &serial, 1e-9, opts);
    assert!(json.contains("\"mixed\""));
    assert!(json.contains("\"dynamics\""));
}

#[test]
fn matching_pennies_mixed_equilibrium_is_exact() {
    // The acceptance criterion: the 2×2 reference game's analytic mixed
    // equilibrium (1/2, 1/2) is found to within 1e-6.
    let game = find_game("matching-pennies").expect("registered game");
    let out = GameExplorer::new(BatchRunner::new(1)).explore(&game, 1);
    assert!(out.table.nash_equilibria(0.0).is_empty(), "no pure NE");
    let analysis = prft_game::mixed_analysis(&out.table, 1e-9);
    assert_eq!(analysis.method, "support-enumeration");
    assert_eq!(analysis.equilibria.len(), 1);
    for dist in &analysis.equilibria[0].distributions {
        assert!((dist[0] - 0.5).abs() < 1e-6);
        assert!((dist[1] - 0.5).abs() < 1e-6);
    }
    let json = report::explore_json_with(
        &game,
        &out,
        1e-9,
        report::ExploreOpts {
            mixed: true,
            dynamics: true,
        },
    );
    assert!(json.contains("0.5"), "the mixture reaches the report");
    assert!(json.contains("\"cycling_starts\": 4"), "pennies cycles");
}

#[test]
fn trap_k3_interior_equilibrium_matches_the_closed_form() {
    // Cross-check against the hand-solved indifference system:
    // 21p² − 41p + 16 = 0 ⇒ p* = (41 − √337)/42 ≈ 0.539106.
    let game = find_game("trap-k3").expect("registered game");
    let out = GameExplorer::new(BatchRunner::new(1)).explore(&game, 1);
    let found = prft_game::symmetric_mixed_equilibria(&out.table, 1e-9);
    assert_eq!(found.len(), 1);
    let expected = (41.0 - 337.0_f64.sqrt()) / 42.0;
    for dist in &found[0].distributions {
        assert!((dist[0] - expected).abs() < 1e-9);
    }
    // Dynamics quantify "the insecure equilibrium is focal": the all-fork
    // basin captures most starts.
    let summary = prft_game::best_reply_summary(&out.table, 1e-9);
    assert_eq!(
        summary.attractors,
        vec![(vec![0, 0, 0], 6), (vec![1, 1, 1], 2)],
        "6 of 8 starts best-reply into the fork equilibrium"
    );
}
