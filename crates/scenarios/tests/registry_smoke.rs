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

/// SHA-256, in hex, of `keys` joined one per line: a pin over many key
/// texts at once.
fn pin(keys: impl Iterator<Item = String>) -> String {
    let joined = keys.collect::<Vec<_>>().join("\n");
    let digest = prft_crypto::Sha256::digest(joined.as_bytes());
    digest.0.iter().map(|b| format!("{b:02x}")).collect()
}

/// Cache and checkpoint keys move only on purpose. Each pin covers one
/// key function over every registry spec, in registry order; a change to
/// a registry spec or to the key text moves them, and the commit that
/// does so states why.
#[test]
fn registry_fingerprints_match_the_pinned_keys() {
    let keys = |key: &dyn Fn(&prft_lab::ScenarioSpec) -> String| {
        pin(registry().iter().flat_map(|s| &s.specs).map(key))
    };
    assert_eq!(
        keys(&|s| s.fingerprint()),
        "70d4d8baaa9c51c8c982a38fbe034a14790cd7aae1efad22b7439962978d2ed9"
    );
    assert_eq!(
        keys(&|s| prft_lab::prefix_fingerprint(s, 1)),
        "e208542459c0773161ba346ed5998292b96ceb0e5216fb7c730711ca5a4bceea"
    );
    assert_eq!(
        keys(&|s| prft_lab::prefix_fingerprint(s, s.horizon)),
        "b7b5887f8e743fcec3557fe5c4cce159e21608fdcd0044022a0472077c2e31db"
    );
}

/// The explorer's memo keys: every simulated game's spec fingerprint over
/// its full (unreduced) profile space, in registry order. The memo lives
/// only as long as its explorer, so moving this pin never serves a stale
/// cell; the commit that moves it states why, like the registry pins
/// above.
#[test]
fn game_fingerprints_match_the_pinned_key() {
    let mut keys = Vec::new();
    for game in game_registry() {
        if let GameEval::Simulated { spec_of, .. } = game.eval {
            keys.extend(
                game.space(false)
                    .profiles()
                    .iter()
                    .map(|p| spec_of(p).fingerprint()),
            );
        }
    }
    let profiles = keys.len();
    assert_eq!(profiles, 111);
    assert_eq!(
        pin(keys.into_iter()),
        "406c36e1468a329abe18c3a4b3452cad6c88e3a66268cea7f2b5c0d09518b809"
    );
}
