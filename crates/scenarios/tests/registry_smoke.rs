//! Every registered scenario runs to completion: each grid point executes
//! at least one seeded run, produces a coherent record, and the fast
//! scenarios hold their headline property.

use prft_game::SystemState;
use prft_lab::{game_registry, registry, BatchRunner, GameEval};
use prft_sim::RunOutcome;

/// Every scenario's *first* grid point completes one run (the full grids
/// are exercised nightly via `prft-lab run-all`; n = 32 committee-scaling
/// points are too slow for a unit-test budget).
#[test]
fn every_registered_scenario_runs() {
    let runner = BatchRunner::all_cores();
    for scenario in registry() {
        let spec = &scenario.specs[0];
        let report = runner.run(spec, 1);
        assert_eq!(report.seeds, 1, "{}: no runs", scenario.name);
        let record = &report.records[0];
        assert_ne!(
            record.outcome,
            RunOutcome::EventLimit,
            "{}: runaway protocol",
            scenario.name
        );
        assert!(
            record.total_messages > 0,
            "{}: nothing was ever sent",
            scenario.name
        );
    }
}

#[test]
fn honest_scenarios_reach_sigma_0() {
    let runner = BatchRunner::all_cores();
    for name in ["honest-sync", "gst-sweep"] {
        let scenario = prft_lab::find(name).expect("registered");
        for report in runner.run_grid(&scenario.specs, 2) {
            assert_eq!(
                report.rate("agreement_rate"),
                1.0,
                "{name}/{}",
                report.label
            );
            assert_eq!(
                report.modal_sigma(),
                SystemState::HonestExecution,
                "{name}/{}",
                report.label
            );
            assert!(
                report.agg("min_final_height").mean >= 1.0,
                "{name}/{}",
                report.label
            );
        }
    }
}

#[test]
fn fork_attack_is_contained_and_punished() {
    let scenario = prft_lab::find("fork-attack").expect("registered");
    let report = BatchRunner::all_cores().run(&scenario.specs[0], 4);
    // Theorem 5 / Lemma 4: agreement always holds, and across the batch
    // the deviators get burned whenever the attack progresses.
    assert_eq!(report.rate("agreement_rate"), 1.0);
    assert!(
        report.sigma_hist[2] == 0,
        "σ_Fork must never be realized under full pRFT"
    );
    assert!(
        report.agg("burned_players").max > 0.0,
        "double-signers should burn in at least one run"
    );
}

#[test]
fn liveness_attack_stalls_at_large_coalitions() {
    let scenario = prft_lab::find("liveness-attack").expect("registered");
    let big = scenario
        .specs
        .iter()
        .find(|s| s.label == "k+t=6")
        .expect("grid point");
    let report = BatchRunner::all_cores().run(big, 2);
    assert_eq!(
        report.agg("min_final_height").max,
        0.0,
        "quorum must be starved"
    );
    assert_eq!(report.modal_sigma(), SystemState::NoProgress);
}

/// Cache and checkpoint keys move only on purpose. Each pin folds one key
/// function over every registry spec, in registry order; a change to a
/// registry spec or to the key text moves them, and the commit that does
/// so states why.
#[test]
fn registry_fingerprints_match_the_pinned_keys() {
    let fold = |key: &dyn Fn(&prft_lab::ScenarioSpec) -> u64| {
        registry()
            .iter()
            .flat_map(|s| &s.specs)
            .fold(0u64, |acc, spec| acc.rotate_left(5) ^ key(spec))
    };
    assert_eq!(fold(&|s| s.fingerprint()), 0x18cb_6aa1_82cf_3dd2);
    assert_eq!(
        fold(&|s| prft_lab::prefix_fingerprint(s, 1)),
        0x37b6_f30c_bb9e_5365
    );
    assert_eq!(
        fold(&|s| prft_lab::prefix_fingerprint(s, s.horizon)),
        0x50fc_0797_1568_22b3
    );
}

/// The on-disk `UtilityCache` keys: every simulated game's spec
/// fingerprint over its full (unreduced) profile space, in registry
/// order. Cached cells written by an earlier build stay valid only while
/// this holds; moving it needs a `spec-v*` salt bump.
#[test]
fn game_fingerprints_match_the_pinned_key() {
    let (mut acc, mut profiles) = (0u64, 0usize);
    for game in game_registry() {
        if let GameEval::Simulated { spec_of, .. } = game.eval {
            for p in game.space(false).profiles() {
                acc = acc.rotate_left(5) ^ spec_of(&p).fingerprint();
                profiles += 1;
            }
        }
    }
    assert_eq!(profiles, 111);
    assert_eq!(acc, 0x9c8c_7d24_8c52_3c4d);
}
