//! The timeline contract: scheduled fault & network events are
//! exactly as deterministic as static specs — byte-identical reports at
//! any thread count, bit-identical traces on replay — and same-tick
//! events apply in insertion order.

use prft_lab::{
    report, BatchRunner, Role, ScenarioSpec, Synchrony, TimelineEvent, TxSpec, UtilitySpec,
};
use prft_types::NodeId;

/// A schedule exercising every runtime event kind at once: mid-run crash
/// and recovery, a targeted-delay rule, a role switch, and a late tx.
fn busy_timeline_spec() -> ScenarioSpec {
    ScenarioSpec::new("timeline-probe", 8, 4)
        .base_seed(0x7155)
        .synchrony(Synchrony::PartiallySynchronous {
            gst: 500,
            delta: 10,
        })
        .utility(UtilitySpec::standard(
            prft_game::Theta::LivenessAttacking,
            4,
        ))
        .at(
            300,
            TimelineEvent::AddDelayRule {
                from: Some(1),
                to: None,
                extra: 250,
                window: 5_000,
            },
        )
        .at(2_000, TimelineEvent::Crash(7))
        .at(
            2_500,
            TimelineEvent::InjectTx(TxSpec {
                id: 77,
                to: None,
                payload: b"late".to_vec(),
            }),
        )
        .at(4_000, TimelineEvent::SetRole(6, Role::Abstain))
        .at(10_000, TimelineEvent::Recover(7))
        .horizon(300_000)
}

fn trace_of(spec: &ScenarioSpec, seed: u64) -> Vec<(u64, usize, usize, &'static str)> {
    let (sim, _) = prft_lab::run_sim(spec, seed, |sim| sim.set_tracing(true));
    sim.trace()
        .entries()
        .iter()
        .map(|e| (e.at.0, e.from.0, e.to.0, e.kind))
        .collect()
}

#[test]
fn timeline_run_replays_identically() {
    let spec = busy_timeline_spec();
    let a = trace_of(&spec, 42);
    let b = trace_of(&spec, 42);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same spec + seed must replay the same trace");
}

#[test]
fn timeline_parallel_equals_serial_byte_identical() {
    let spec = busy_timeline_spec();
    const SEEDS: u64 = 10;
    let serial = BatchRunner::new(1).run(&spec, SEEDS);
    let parallel = BatchRunner::new(8).run(&spec, SEEDS);
    assert_eq!(serial, parallel);
    let s_json = report::scenario_json("t", SEEDS, &[serial], true);
    let p_json = report::scenario_json("t", SEEDS, &[parallel], true);
    assert_eq!(s_json, p_json);
}

#[test]
fn timeline_events_change_the_run() {
    // The schedule must actually reach the simulation: the same spec
    // minus its schedule produces a different trace.
    let scheduled = busy_timeline_spec();
    let static_spec = ScenarioSpec {
        schedule: Vec::new(),
        ..busy_timeline_spec()
    };
    assert_ne!(trace_of(&scheduled, 42), trace_of(&static_spec, 42));
}

#[test]
fn same_tick_events_apply_in_insertion_order() {
    let base = || {
        ScenarioSpec::new("order-probe", 5, 3)
            .base_seed(0x0bde)
            .horizon(200_000)
    };
    // Crash(4) then Recover(4) at the same tick → the node ends up alive;
    // the reverse insertion order ends with it crashed. Tick 30 lands
    // mid-protocol (round ~1 of 3), so the surviving order shapes the
    // rest of the run, not just the final crash flag.
    let crash_last_wins = base()
        .at(30, TimelineEvent::Recover(4))
        .at(30, TimelineEvent::Crash(4));
    let recover_last_wins = base()
        .at(30, TimelineEvent::Crash(4))
        .at(30, TimelineEvent::Recover(4));
    let (dead, _) = prft_lab::run_sim(&crash_last_wins, 7, |_| {});
    let (alive, _) = prft_lab::run_sim(&recover_last_wins, 7, |_| {});
    assert!(dead.is_crashed(NodeId(4)));
    assert!(!alive.is_crashed(NodeId(4)));
    // Pin the semantics with traces: each ordering replays identically to
    // itself, and the two orderings genuinely diverge.
    assert_eq!(trace_of(&crash_last_wins, 7), trace_of(&crash_last_wins, 7));
    assert_ne!(
        trace_of(&crash_last_wins, 7),
        trace_of(&recover_last_wins, 7)
    );
}

#[test]
fn set_role_swaps_the_live_behavior() {
    let spec = ScenarioSpec::new("defect", 9, 3)
        .base_seed(0xf0_17c)
        .role(
            0,
            Role::EquivocatingLeader {
                only_round: Some(0),
            },
        )
        .roles(1..=3, Role::ForkColluder)
        .fork_b_group([7, 8])
        .at(500, TimelineEvent::SetRole(2, Role::Honest))
        .at(500, TimelineEvent::SetRole(3, Role::Honest))
        .horizon(600_000);
    let (sim, _) = prft_lab::run_sim(&spec, 11, |_| {});
    let label = |i| prft_lab::replica(&sim, NodeId(i)).behavior_label();
    assert_eq!(label(1), "fork");
    assert_eq!(label(2), "honest");
    assert_eq!(label(3), "honest");
}

#[test]
fn remove_delay_rule_lifts_the_slowdown() {
    // An AddDelayRule with an unbounded window that only a scheduled
    // RemoveDelayRule can end.
    let slowed = |label: &str| {
        ScenarioSpec::new(label, 8, 4)
            .base_seed(0xd11f7)
            .synchrony(Synchrony::PartiallySynchronous {
                gst: 2_000,
                delta: 10,
            })
            .at(
                0,
                TimelineEvent::AddDelayRule {
                    from: Some(0),
                    to: None,
                    extra: 1_500,
                    window: u64::MAX,
                },
            )
            .horizon(400_000)
    };
    let lifted = slowed("lift").at(
        2_000,
        TimelineEvent::RemoveDelayRule {
            from: Some(0),
            to: None,
        },
    );
    let never = slowed("never");
    assert_ne!(
        trace_of(&lifted, 42),
        trace_of(&never, 42),
        "the removal must reach the live rule set"
    );
    // A removal replays identically to itself …
    assert_eq!(trace_of(&lifted, 42), trace_of(&lifted, 42));
    // … removing a pattern nothing matches is a runtime no-op …
    let no_match = slowed("no-match").at(
        2_000,
        TimelineEvent::RemoveDelayRule {
            from: Some(5),
            to: Some(2),
        },
    );
    assert_eq!(trace_of(&no_match, 42), trace_of(&never, 42));
    // … but still a different spec: the cache must keep them apart.
    assert_ne!(no_match.fingerprint(), never.fingerprint());
    assert_ne!(lifted.fingerprint(), never.fingerprint());
}

#[test]
fn registry_timeline_scenarios_hold_their_headlines() {
    let runner = BatchRunner::all_cores();
    // crash-churn: rolling ≤2-of-9 crashes never cost liveness/agreement.
    let churn = prft_lab::find("crash-churn").expect("registered");
    let report = runner.run(&churn.specs[0], 2);
    assert_eq!(report.rate("agreement_rate"), 1.0);
    assert!(
        report.agg("min_final_height").mean >= 1.0,
        "churn must not stall"
    );
    // colluder-defection: agreement holds and the attack never lands.
    let defect = prft_lab::find("colluder-defection").expect("registered");
    let report = runner.run(&defect.specs[0], 2);
    assert_eq!(report.rate("agreement_rate"), 1.0);
    assert_eq!(report.sigma_hist[2], 0, "σ_Fork must never be realized");
    // late-tx-flood: the injected watched tx stays censored.
    let flood = prft_lab::find("late-tx-flood").expect("registered");
    let report = runner.run(&flood.specs[0], 2);
    for record in &report.records {
        assert_eq!(
            record.watched_finalized,
            vec![false],
            "censors must keep the late tx out"
        );
    }
    // delay-lift: both grid points keep agreement and full height, and
    // lifting the rule at GST visibly changes the runs vs never lifting.
    let lift = prft_lab::find("delay-lift").expect("registered");
    let reports = runner.run_grid(&lift.specs, 8);
    for report in &reports {
        assert_eq!(report.rate("agreement_rate"), 1.0, "{}", report.label);
        assert!(
            report.agg("min_final_height").mean >= 3.0,
            "{}",
            report.label
        );
    }
    assert_ne!(
        reports[0].agg("total_messages"),
        reports[1].agg("total_messages"),
        "the lifted rule must change message flow"
    );
}

/// A role held from t = 0 is a deviation at step 0: for every grid point
/// of the registry scenarios with static roles, moving `spec.roles` into
/// tick-0 `SetRole` events (in order, ahead of any scheduled event) runs
/// the same record.
#[test]
fn static_roles_equal_set_role_events_at_tick_zero() {
    let names = [
        "fork-attack",
        "crash-cft",
        "censorship-attack",
        "liveness-attack",
        "byzantine-noise",
    ];
    for name in names {
        let scenario = prft_lab::find(name).expect("registered");
        assert!(scenario.specs.iter().any(|s| !s.roles.is_empty()), "{name}");
        for spec in &scenario.specs {
            let mut scheduled = spec.clone();
            let roles = std::mem::take(&mut scheduled.roles);
            let events = roles
                .into_iter()
                .map(|(i, role)| (0, TimelineEvent::SetRole(i, role)));
            scheduled.schedule = events.chain(spec.schedule.iter().cloned()).collect();
            let seed = prft_lab::derive_seed(spec.base_seed, 0);
            assert_eq!(
                prft_lab::run_one(spec, seed).to_json().render(),
                prft_lab::run_one(&scheduled, seed).to_json().render(),
                "{name}/{}",
                spec.label
            );
        }
    }
}
