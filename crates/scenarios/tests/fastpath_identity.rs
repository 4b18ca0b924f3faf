//! Scenario-level fast-vs-slow identity: the full JSON report pipeline —
//! batch runner, aggregates, per-run records, merged observability — is
//! **byte-identical** whichever [`VerifyMode`] the specs select. This is
//! the invariant that keeps `verify_mode` out of the spec fingerprint
//! (see `ScenarioSpec::fingerprint`), exactly as the queue-backend
//! equivalence tests do for `queue`.

use prft_lab::{
    report, BatchRunner, Role, ScenarioSpec, Synchrony, TimelineEvent, UtilitySpec, VerifyMode,
};

/// An accountable committee exercising the verification hot paths: an
/// equivocating leader (fraud detection + view change), partial
/// synchrony, and a crash/recover churn schedule (laggard catch-up).
fn churn_spec() -> ScenarioSpec {
    ScenarioSpec::new("fastpath-churn", 8, 3)
        .base_seed(0xfa57_90a7)
        .synchrony(Synchrony::PartiallySynchronous {
            gst: 400,
            delta: 10,
        })
        .role(
            0,
            Role::EquivocatingLeader {
                only_round: Some(0),
            },
        )
        .at(200, TimelineEvent::Crash(5))
        .at(1_500, TimelineEvent::Recover(5))
        .utility(UtilitySpec::standard(prft_game::Theta::ForkSeeking, 3))
        .horizon(300_000)
}

#[test]
fn verify_mode_never_changes_a_report() {
    // Reference verification is a differential oracle constructed here,
    // not a CLI option; the registry's crash-churn is the second input.
    let churn = prft_lab::find("crash-churn").expect("registered");
    for spec in [churn_spec(), churn.specs[0].clone()] {
        let fast = spec.clone().verify_mode(VerifyMode::Fast);
        let slow = spec.verify_mode(VerifyMode::Reference);
        const SEEDS: u64 = 6;
        let f = BatchRunner::new(4).run(&fast, SEEDS);
        let s = BatchRunner::new(4).run(&slow, SEEDS);
        assert_eq!(f, s, "fast path changed a batch report");
        let f_json = report::scenario_json("v", SEEDS, &[f], true);
        let s_json = report::scenario_json("v", SEEDS, &[s], true);
        assert_eq!(f_json, s_json, "fast path changed report bytes");
    }
}

#[test]
fn byzantine_grid_is_mode_identical() {
    // A grid of adversarial points: double voters (equivocation evidence
    // through the cache), garbage voters (cached *negative* verdicts on
    // the invalid-proposal path), and an abstainer (timeouts).
    let points = [
        churn_spec(),
        ScenarioSpec::new("double-voter", 9, 2)
            .role(4, Role::DoubleVoter)
            .horizon(300_000),
        ScenarioSpec::new("garbage-voter", 8, 2)
            .role(3, Role::GarbageVoter)
            .horizon(300_000),
        ScenarioSpec::new("abstain", 8, 2)
            .role(6, Role::Abstain)
            .horizon(300_000),
    ];
    const SEEDS: u64 = 3;
    let fast: Vec<ScenarioSpec> = points
        .iter()
        .map(|s| s.clone().verify_mode(VerifyMode::Fast))
        .collect();
    let slow: Vec<ScenarioSpec> = points
        .iter()
        .map(|s| s.clone().verify_mode(VerifyMode::Reference))
        .collect();
    let f = BatchRunner::new(4).run_grid(&fast, SEEDS);
    let s = BatchRunner::new(4).run_grid(&slow, SEEDS);
    assert_eq!(f, s);
    let f_json = report::scenario_json("grid", SEEDS, &f, true);
    let s_json = report::scenario_json("grid", SEEDS, &s, true);
    assert_eq!(f_json, s_json, "fast path changed grid report bytes");
}
