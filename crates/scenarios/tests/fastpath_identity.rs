//! Scenario-level fast-vs-slow identity: the full JSON report pipeline —
//! batch runner, aggregates, per-run records, merged observability — is
//! **byte-identical** whether the seats verify through their memo (every
//! run) or through the reference verifier, which these tests install into
//! each freshly built committee through `run_sim`'s `configure` hook.

use prft_core::VerifyCache;
use prft_lab::{
    derive_seed, record_run, report, run_sim, BatchReport, BatchRunner, Role, ScenarioSpec,
    Synchrony, TimelineEvent, UtilitySpec,
};
use prft_sim::obs::hooks;
use prft_types::NodeId;

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

/// The batch report of `seeds` cold runs of `spec` with every seat on the
/// reference verifier, seeded and aggregated as [`BatchRunner`] does.
fn reference_batch(spec: &ScenarioSpec, seeds: u64) -> BatchReport {
    let records = (0..seeds)
        .map(|i| {
            let seed = derive_seed(spec.base_seed, i);
            hooks::reset();
            let (sim, outcome) = run_sim(spec, seed, |sim| {
                for seat in 0..spec.n {
                    let replica = sim.node_mut(NodeId(seat)).as_replica_mut();
                    replica
                        .expect("committee seat")
                        .install_verifier(VerifyCache::reference());
                }
            });
            record_run(spec, &sim, seed, outcome)
        })
        .collect();
    BatchReport::from_records(spec.label.clone(), spec.n, records)
}

#[test]
fn verify_mode_never_changes_a_report() {
    // The registry's crash-churn is the second input.
    let churn = prft_lab::find("crash-churn").expect("registered");
    for spec in [churn_spec(), churn.specs[0].clone()] {
        const SEEDS: u64 = 6;
        let f = BatchRunner::new(4).run(&spec, SEEDS);
        let s = reference_batch(&spec, SEEDS);
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
    let f = BatchRunner::new(4).run_grid(&points, SEEDS);
    let s: Vec<BatchReport> = points.iter().map(|p| reference_batch(p, SEEDS)).collect();
    assert_eq!(f, s);
    let f_json = report::scenario_json("grid", SEEDS, &f, true);
    let s_json = report::scenario_json("grid", SEEDS, &s, true);
    assert_eq!(f_json, s_json, "fast path changed grid report bytes");
}
