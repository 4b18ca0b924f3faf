//! Every registered scenario runs to completion: each grid point executes
//! at least one seeded run, produces a coherent record, and the fast
//! scenarios hold their headline property.

use prft_game::SystemState;
use prft_lab::{registry, BatchRunner};
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

/// Cache and checkpoint keys are unchanged by the one-population refactor:
/// every cached cell keyed `spec-v5` / `ckpt-v2` stays valid. Each pin
/// folds one key function over every registry spec, in registry order;
/// the values were captured at the commit before the refactor.
#[test]
fn registry_fingerprints_match_the_pinned_keys() {
    let fold = |key: &dyn Fn(&prft_lab::ScenarioSpec) -> u64| {
        registry()
            .iter()
            .flat_map(|s| &s.specs)
            .fold(0u64, |acc, spec| acc.rotate_left(5) ^ key(spec))
    };
    assert_eq!(fold(&|s| s.fingerprint()), 0x6e7e_0492_9989_a5ea);
    assert_eq!(
        fold(&|s| prft_lab::prefix_fingerprint(s, 1)),
        0x502f_0129_bfcc_a1f8
    );
    assert_eq!(
        fold(&|s| prft_lab::prefix_fingerprint(s, s.horizon)),
        0xfd6f_bf01_898c_fbef
    );
}
