//! The checkpoint/fork warm-start differential suite: a forked run is
//! **byte-identical** to a fresh one.
//!
//! Warm starts let sweep cells sharing a timeline prefix resume from one
//! captured state instead of re-simulating it (`docs/CHECKPOINTING.md`).
//! That is only sound if forking is invisible in every observable — so
//! this suite pins, over every registry scenario with a timeline:
//!
//! * fork-at-each-boundary vs fresh, full single-run report compared as
//!   bytes (the store is truncated per boundary so the fork is forced to
//!   start exactly there, not just at the deepest capture);
//! * warm vs cold grid runs across threads {1, 8} and both queue
//!   backends;
//! * `explore run-all` warm vs cold, with the reuse accounting asserted
//!   (cross-game `shared` cells on lemma4-wide, checkpoint forks from
//!   fork-defection's shared pre-defection prefix);
//! * the delay-lift pair: a fork taken across a delay-rule boundary runs
//!   on the consumer's own link stack, rebuilt from its spec — inheriting
//!   the producer's would lift a never-lifted delay;
//! * workload (committee-plus-client) cells fork and capture like
//!   committee cells, with the client conservation invariant
//!   `submitted == committed + dropped + pending` intact under forks;
//! * suffix captures: with capture hints installed, a producer captures
//!   *past its own last event* at a sibling's fork tick, and the sibling
//!   resumes there instead of replaying the shared tail;
//! * an event scheduled exactly at the horizon is applied identically by
//!   fresh, capturing, and forked runs.

use prft_lab::{
    derive_seed, find, game_registry, registry, report, run_one, run_one_with, BatchReport,
    BatchRunner, CheckpointStore, Exploration, GameExplorer, QueueBackend, ReuseStats, Role,
    RunRecord, Scenario, ScenarioSpec, TimelineEvent, WorkloadSpec,
};

/// Registry scenarios with at least one scheduled event.
fn timeline_scenarios() -> Vec<Scenario> {
    let out: Vec<Scenario> = registry()
        .into_iter()
        .filter(|s| s.specs.iter().any(|sp| sp.has_schedule()))
        .collect();
    assert!(out.len() >= 6, "registry lost its timeline scenarios");
    out
}

/// Full single-run report (runs included) — the byte-comparison target.
fn full_report(spec: &ScenarioSpec, record: RunRecord) -> String {
    let report_ = BatchReport::from_records(spec.label.clone(), spec.n, vec![record]);
    report::scenario_json(&spec.label, 1, &[report_], true)
}

/// The spec's distinct fork boundaries: event ticks in `(0, horizon]`.
fn event_boundaries(spec: &ScenarioSpec) -> Vec<u64> {
    let mut ticks: Vec<u64> = spec
        .schedule
        .iter()
        .filter(|(t, _)| *t > 0 && *t <= spec.horizon)
        .map(|(t, _)| *t)
        .collect();
    ticks.sort_unstable();
    ticks.dedup();
    ticks
}

/// For every timeline spec: a capturing run is byte-identical to a fresh
/// one, and a run forked from *each* event boundary (the store truncated
/// so deeper captures cannot mask shallower ones) is byte-identical too.
#[test]
fn fork_at_each_boundary_matches_fresh() {
    for scenario in timeline_scenarios() {
        for spec in &scenario.specs {
            let seed = derive_seed(spec.base_seed, 0);
            let reference = full_report(spec, run_one(spec, seed));
            let store = CheckpointStore::default();
            let captured = full_report(spec, run_one_with(spec, seed, Some(&store)));
            assert_eq!(
                captured, reference,
                "{}/{}: capturing checkpoints perturbed the run",
                scenario.name, spec.label
            );
            for tb in event_boundaries(spec) {
                let store = CheckpointStore::default();
                run_one_with(spec, seed, Some(&store)); // populate captures
                store.retain_ticks_at_most(tb);
                let forked = full_report(spec, run_one_with(spec, seed, Some(&store)));
                assert!(
                    store.stats().forked > 0,
                    "{}/{}: no fork happened at boundary {tb}",
                    scenario.name,
                    spec.label
                );
                assert_eq!(
                    forked, reference,
                    "{}/{}: fork at boundary {tb} diverged from fresh",
                    scenario.name, spec.label
                );
            }
        }
    }
}

/// Warm and cold grid runs agree byte-for-byte across thread counts and
/// queue backends.
#[test]
fn warm_grids_match_cold_across_threads_and_backends() {
    let seeds = 2;
    for scenario in timeline_scenarios() {
        for backend in [QueueBackend::Heap, QueueBackend::Calendar] {
            let specs: Vec<ScenarioSpec> = scenario
                .specs
                .iter()
                .cloned()
                .map(|mut s| {
                    s.queue = backend;
                    s
                })
                .collect();
            let cold = BatchRunner::new(1).run_grid_with(&specs, seeds, None);
            let cold_json = report::scenario_json(scenario.name, seeds, &cold, true);
            for threads in [1, 8] {
                let store = CheckpointStore::default();
                let warm = BatchRunner::new(threads).run_grid_with(&specs, seeds, Some(&store));
                let warm_json = report::scenario_json(scenario.name, seeds, &warm, true);
                assert_eq!(
                    warm_json, cold_json,
                    "{} diverged warm vs cold (queue={backend:?}, threads={threads})",
                    scenario.name
                );
            }
        }
    }
}

/// `explore run-all` warm vs cold: every game's report is byte-identical,
/// and the reuse accounting proves sharing actually happened — cross-game
/// `shared` cells on lemma4-wide, checkpoint forks across fork-defection's
/// profiles (which differ only in their defection schedule).
#[test]
fn explore_run_all_warm_matches_cold_with_reuse() {
    let games = game_registry();
    let seeds = 1;
    let (cold, cold_stats) = GameExplorer::new(BatchRunner::new(1))
        .warm_starts(false)
        .explore_all_with_stats(&games, seeds);
    assert_eq!(
        cold_stats,
        ReuseStats::default(),
        "cold runs must not touch a store"
    );
    let (warm, warm_stats) = GameExplorer::new(BatchRunner::new(8))
        .warm_starts(true)
        .explore_all_with_stats(&games, seeds);
    for ((game, c), w) in games.iter().zip(&cold).zip(&warm) {
        assert_eq!(
            report::explore_json_with(game, w, 0.05, Default::default()),
            report::explore_json_with(game, c, 0.05, Default::default()),
            "game {} diverged warm vs cold",
            game.name
        );
    }
    let wide = games
        .iter()
        .position(|g| g.name == "lemma4-wide")
        .expect("lemma4-wide registered");
    assert!(
        warm[wide].shared > 0,
        "lemma4-wide must reuse cells shared with lemma4-dsic"
    );
    assert!(
        warm_stats.created > 0,
        "no checkpoints captured: {warm_stats:?}"
    );
    assert!(
        warm_stats.forked > 0,
        "no checkpoint reuse across the run-all batch: {warm_stats:?}"
    );
}

/// A fork across a rule boundary rebuilds the *consumer's* own link
/// stack: `never-lifted` forks from `lift@gst`'s checkpoint at the lift
/// tick (their prefixes agree below 2000), so the fork crosses a live,
/// effectively-unbounded delay rule. The link stack is a pure function of
/// the spec, so the fork runs on `never-lifted`'s unclipped window —
/// inheriting the producer's stack (clipped at 2000) would lift a
/// never-lifted delay.
#[test]
fn delay_lift_fork_rebuilds_the_consumers_link_stack() {
    let scenario = find("delay-lift").expect("delay-lift registered");
    let lift = scenario
        .specs
        .iter()
        .find(|s| s.label == "lift@gst")
        .expect("lift@gst spec");
    let never = scenario
        .specs
        .iter()
        .find(|s| s.label == "never-lifted")
        .expect("never-lifted spec");
    assert_eq!(
        lift.base_seed, never.base_seed,
        "the pair must share derived seeds to share checkpoints"
    );
    let seed = derive_seed(never.base_seed, 0);
    let reference = full_report(never, run_one(never, seed));
    let store = CheckpointStore::default();
    run_one_with(lift, seed, Some(&store));
    assert_eq!(
        store.stats().created,
        1,
        "lift@gst captures exactly one checkpoint, at its lift boundary"
    );
    let forked = full_report(never, run_one_with(never, seed, Some(&store)));
    assert_eq!(
        store.stats().forked,
        1,
        "never-lifted must fork from lift@gst's pre-lift checkpoint"
    );
    assert_eq!(
        forked, reference,
        "fork across the delay-rule boundary ran on the wrong link stack"
    );
}

/// Pinned `--explain-reuse` output for the full `explore run-all` batch
/// at `--threads 1` with one seed per cell: the per-game reuse columns
/// and the batch's checkpoint accounting are deterministic there (the
/// serial claim loop visits cells in plan order). Regenerate after an
/// intentional registry or accounting change with:
///
/// ```text
/// UPDATE_GOLDEN=1 cargo test -p prft-lab --test checkpoint_equiv
/// ```
#[test]
fn explain_reuse_table_matches_golden_file() {
    let games = game_registry();
    let (explorations, stats) = GameExplorer::new(BatchRunner::new(1))
        .warm_starts(true)
        .explore_all_with_stats(&games, 1);
    let rows: Vec<(&str, &Exploration)> = games
        .iter()
        .zip(&explorations)
        .map(|(g, e)| (g.name, e))
        .collect();
    let rendered = report::explain_reuse_table(&rows, stats);
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/explain_reuse.txt"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        rendered, golden,
        "--explain-reuse output drifted from tests/golden/explain_reuse.txt \
         (UPDATE_GOLDEN=1 regenerates after intentional changes)"
    );
}

/// A small workload grid whose cells share statics and a schedule-free
/// prefix, diverging only in a late crash: the shape that lets warm
/// starts chain one cell's capture into the next cell's fork.
fn workload_grid() -> Vec<ScenarioSpec> {
    let cell = |label: &str| {
        ScenarioSpec::new(label, 8, 400)
            .base_seed(0x10ad)
            .horizon(200_000)
            .workload(
                WorkloadSpec::steady(40, 150)
                    .txs_per_client(4)
                    .max_batch(256),
            )
    };
    vec![
        cell("no-crash"),
        cell("crash@120k").at(120_000, TimelineEvent::Crash(7)),
        cell("crash@150k").at(150_000, TimelineEvent::Crash(7)),
    ]
}

/// The tentpole pin: workload (committee-plus-client) grids fork and
/// capture like committee grids, byte-identically to cold runs across
/// thread counts and queue backends.
#[test]
fn workload_warm_grids_match_cold_across_threads_and_backends() {
    let seeds = 2;
    for backend in [QueueBackend::Heap, QueueBackend::Calendar] {
        let specs: Vec<ScenarioSpec> = workload_grid()
            .into_iter()
            .map(|mut s| {
                s.queue = backend;
                s
            })
            .collect();
        let cold = BatchRunner::new(1).run_grid_with(&specs, seeds, None);
        let cold_json = report::scenario_json("workload-warm", seeds, &cold, true);
        for threads in [1, 8] {
            let store = CheckpointStore::default();
            let warm = BatchRunner::new(threads).run_grid_with(&specs, seeds, Some(&store));
            let warm_json = report::scenario_json("workload-warm", seeds, &warm, true);
            assert_eq!(
                warm_json, cold_json,
                "workload grid diverged warm vs cold (queue={backend:?}, threads={threads})"
            );
            // Whether a parallel run forks depends on worker scheduling
            // (cells may all start before any capture lands); only the
            // serial order is pinned.
            if threads == 1 {
                let stats = store.stats();
                assert!(
                    stats.forked > 0,
                    "serial workload grid must actually fork: {stats:?}"
                );
            }
        }
    }
}

/// A forked workload run keeps the client population's books balanced:
/// every submitted transaction is committed, dropped, or still pending.
#[test]
fn workload_fork_preserves_client_conservation() {
    let grid = workload_grid();
    let producer = &grid[1]; // crash@120k
    let consumer = &grid[2]; // crash@150k — shares the empty prefix below 120k
    let seed = derive_seed(consumer.base_seed, 0);
    let reference = run_one(consumer, seed);
    let store = CheckpointStore::default();
    run_one_with(producer, seed, Some(&store));
    assert!(
        !store.is_empty(),
        "the producer must capture at its crash boundary"
    );
    let forked = run_one_with(consumer, seed, Some(&store));
    assert!(
        store.stats().forked > 0,
        "the consumer must fork from the producer's capture"
    );
    for rec in [&reference, &forked] {
        assert!(rec.workload.is_some(), "workload stats attached");
        assert!(
            rec.kept("workload_conserved"),
            "client conservation violated: {:?}",
            rec.workload
        );
    }
    assert_eq!(
        forked.workload, reference.workload,
        "forked workload stats diverged from fresh"
    );
}

/// Post-divergence deep captures: with capture hints installed (as the
/// grid runners do for every batch), a producer captures at a sibling's
/// fork tick *past its own last event* — under the suffix fingerprint —
/// and the sibling resumes there instead of replaying the shared tail.
#[test]
fn suffix_capture_resumes_past_producers_last_event() {
    let scenario = find("delay-lift").expect("delay-lift registered");
    let lift = scenario
        .specs
        .iter()
        .find(|s| s.label == "lift@gst")
        .expect("lift@gst spec");
    // A sibling sharing lift@gst's whole schedule, diverging far past it.
    let sib = {
        let mut s = lift.clone();
        s.label = "lift-then-crash".into();
        s.at(200_000, TimelineEvent::Crash(7))
    };
    let seed = derive_seed(sib.base_seed, 0);
    let reference = full_report(&sib, run_one(&sib, seed));
    let store = CheckpointStore::default();
    store.set_capture_hints_for([lift, &sib]);
    run_one_with(lift, seed, Some(&store));
    assert_eq!(
        store.stats().created,
        2,
        "lift@gst must capture at its own lift boundary AND at the \
         sibling's hinted fork tick past it"
    );
    let forked = full_report(&sib, run_one_with(&sib, seed, Some(&store)));
    let stats = store.stats();
    assert_eq!(stats.forked, 1, "the sibling must fork: {stats:?}");
    assert_eq!(
        stats.prefix_ticks_saved, 200_000,
        "the fork must resume at the suffix capture, not the lift boundary"
    );
    assert_eq!(forked, reference, "suffix-capture fork diverged from fresh");
}

/// The horizon-boundary audit pin: an event scheduled exactly at the
/// horizon is applied identically by fresh, capturing, and forked runs
/// (`boundaries()` collapses its tick into the horizon pseudo-boundary;
/// the executor applies it after `run_before(horizon)`).
#[test]
fn at_horizon_event_fork_matches_fresh() {
    let spec = ScenarioSpec::new("at-horizon", 8, 400)
        .base_seed(0x0a7e)
        .horizon(5_000)
        .at(2_000, TimelineEvent::Crash(6))
        .at(5_000, TimelineEvent::Crash(7));
    let seed = derive_seed(spec.base_seed, 0);
    let reference = full_report(&spec, run_one(&spec, seed));
    let store = CheckpointStore::default();
    let captured = full_report(&spec, run_one_with(&spec, seed, Some(&store)));
    assert_eq!(captured, reference, "capturing perturbed an at-horizon run");
    for tb in [2_000, 5_000] {
        let store = CheckpointStore::default();
        run_one_with(&spec, seed, Some(&store));
        store.retain_ticks_at_most(tb);
        let forked = full_report(&spec, run_one_with(&spec, seed, Some(&store)));
        assert!(
            store.stats().forked > 0,
            "no fork happened at boundary {tb}"
        );
        assert_eq!(
            forked, reference,
            "fork at boundary {tb} mishandled the at-horizon event"
        );
    }
}

/// A grid whose shared prefix has no fork role: the coalition — an
/// equivocating leader for one later round plus fork colluders P1–P3 —
/// arrives by `SetRole` in the suffix. Every cell shares the prefix below
/// tick 40, so a warm cell can resume from a capture taken before any
/// coalition member existed and its suffix colluders then coordinate on
/// the board the fork rebound.
fn suffix_coalition_grid() -> Vec<ScenarioSpec> {
    let cell = |label: &str| {
        ScenarioSpec::new(label, 9, 12)
            .base_seed(0xc0a1)
            .fork_b_group([7, 8])
            .horizon(600_000)
    };
    let coalition = |label: &str, tick: u64, round: u64| {
        let leader = TimelineEvent::SetRole(
            (round % 9) as usize,
            Role::EquivocatingLeader {
                only_round: Some(round),
            },
        );
        let mut spec = cell(label).at(tick, leader);
        for colluder in 1..=3 {
            spec = spec.at(tick, TimelineEvent::SetRole(colluder, Role::ForkColluder));
        }
        spec
    };
    vec![
        cell("honest"),
        coalition("coalition@40/r4", 40, 4),
        coalition("coalition@80/r4", 80, 4),
        coalition("coalition@80/r6", 80, 6),
    ]
}

/// Fork ≡ fresh when the coalition arrives in the suffix: warm grid
/// records equal cold ones at one and eight threads, the serial warm run
/// really forks, and the suffix coalition really attacks (the cold run
/// burns deposits), so the comparison covers a live board.
#[test]
fn suffix_coalition_warm_grid_matches_cold() {
    let specs = suffix_coalition_grid();
    let seeds = 2;
    let cold = BatchRunner::new(1).run_grid_with(&specs, seeds, None);
    assert!(
        cold.iter()
            .flat_map(|point| &point.records)
            .any(|run| !run.burned.is_empty()),
        "the suffix coalition never got caught: the grid exercises no board"
    );
    let cold_json = report::scenario_json("suffix-coalition", seeds, &cold, true);
    for threads in [1, 8] {
        let store = CheckpointStore::default();
        let warm = BatchRunner::new(threads).run_grid_with(&specs, seeds, Some(&store));
        let warm_json = report::scenario_json("suffix-coalition", seeds, &warm, true);
        assert_eq!(
            warm_json, cold_json,
            "suffix-coalition grid diverged warm vs cold (threads={threads})"
        );
        if threads == 1 {
            let stats = store.stats();
            assert!(stats.forked > 0, "the serial grid must fork: {stats:?}");
        }
    }
}
