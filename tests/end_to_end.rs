//! Workspace-level integration tests: scenarios that span the protocol,
//! the adversary strategies, the game layer, and the baselines together.

use prft::adversary::{blackboard, Abstain, EquivocatingLeader, ForkColluder, PartialCensor};
use prft::core::analysis::{analyze, tx_finalized_everywhere, tx_included_anywhere, RunReport};
use prft::core::{Config, Harness, NetworkChoice};
use prft::game::{analytic, SystemState, Theta, UtilityParams};
use prft::metrics::{classify, StateObservation};
use prft::sim::SimTime;
use prft::types::{NodeId, Round, Transaction, TxId};
use std::collections::HashSet;

const HORIZON: SimTime = SimTime(2_000_000);

/// The σ observation of a run that watches no transaction.
fn observed(report: &RunReport) -> StateObservation {
    StateObservation {
        agreement: report.agreement,
        max_final_height: report.max_final_height,
        censored: false,
    }
}

/// The full DSIC story in one test: honest run earns 0; the fork attack
/// earns −L; abstention earns −α per stalled round (all at θ=1).
#[test]
fn rational_incentives_end_to_end() {
    let n = 9;
    let params = UtilityParams::default();

    // Honest baseline.
    let mut honest_sim = Harness::new(n, 1)
        .network(NetworkChoice::Synchronous { delta: SimTime(10) })
        .max_rounds(3)
        .build();
    honest_sim.run_until(HORIZON);
    assert_eq!(
        classify(&observed(&analyze(&honest_sim))),
        SystemState::HonestExecution
    );

    // Fork attack → burned.
    let board = blackboard();
    let b_group: HashSet<NodeId> = [NodeId(7), NodeId(8)].into_iter().collect();
    let mut h = Harness::new(n, 2)
        .network(NetworkChoice::Synchronous { delta: SimTime(10) })
        .max_rounds(3)
        .with_behavior(
            NodeId(0),
            Box::new(
                EquivocatingLeader::new(board.clone(), b_group.clone(), n).only_rounds([Round(0)]),
            ),
        );
    for i in 1..=3 {
        h = h.with_behavior(
            NodeId(i),
            Box::new(ForkColluder::new(board.clone(), b_group.clone(), n)),
        );
    }
    let mut fork_sim = h.build();
    fork_sim.run_until(HORIZON);
    let fork_report = analyze(&fork_sim);
    assert!(fork_report.agreement, "no fork against pRFT");
    assert!(fork_report.burned.len() > 2, "deviators burned");

    // θ=1 utility of a colluder: −L (plus any σ penalty) < 0 = honest.
    let burned = fork_report.burned.contains(&NodeId(1));
    assert!(burned);
    let colluder_utility = -params.penalty_l; // state σ_0 ⇒ f = 0
    assert!(colluder_utility < 0.0);
}

/// Censorship-resistance holds when the committee is honest, and breaks
/// exactly when a π_pc coalition appears — Definition 2 measured both ways.
#[test]
fn censorship_resistance_boundary() {
    let n = 4;
    let watched = TxId(50);

    // Honest: the transaction confirms everywhere.
    let mut sim = Harness::new(n, 3)
        .network(NetworkChoice::Synchronous { delta: SimTime(10) })
        .submit(None, Transaction::new(50, NodeId(1), b"watch me".to_vec()))
        .max_rounds(3)
        .build();
    sim.run_until(HORIZON);
    assert!(tx_finalized_everywhere(&sim, watched));

    // π_pc coalition: it never confirms, anywhere, ever.
    let collusion: HashSet<NodeId> = [NodeId(0), NodeId(1)].into_iter().collect();
    let censor: HashSet<TxId> = [watched].into_iter().collect();
    let mut h = Harness::new(n, 4)
        .network(NetworkChoice::Synchronous { delta: SimTime(10) })
        .submit(None, Transaction::new(50, NodeId(1), b"watch me".to_vec()))
        .submit(None, Transaction::new(51, NodeId(2), b"decoy".to_vec()))
        .max_rounds(8);
    for &m in &collusion {
        h = h.with_behavior(
            m,
            Box::new(PartialCensor::new(n, collusion.clone(), censor.clone())),
        );
    }
    let mut sim = h.build();
    sim.run_until(HORIZON);
    assert!(!tx_included_anywhere(&sim, watched), "censored");
    assert!(
        tx_included_anywhere(&sim, TxId(51)),
        "liveness for the rest"
    );
    assert!(analyze(&sim).burned.is_empty(), "unpunishable");
}

/// pRFT's bounds are exactly the paper's Table 1 cell: inside → live+safe,
/// outside (coalition ≥ n/2 abstaining) → σ_NP but still safe.
#[test]
fn prft_threat_model_boundary() {
    let n = 9;
    assert!(analytic::prft_tolerates(n, 2, 2));
    assert!(!analytic::prft_tolerates(n, 4, 1));

    // Inside: rational players at equilibrium (π_0) + t byzantine crashes.
    let mut sim = Harness::new(n, 5)
        .network(NetworkChoice::Synchronous { delta: SimTime(10) })
        .max_rounds(4)
        .build();
    sim.crash(NodeId(7));
    sim.crash(NodeId(8));
    sim.run_until(HORIZON);
    let r = analyze(&sim);
    assert!(r.agreement && r.min_final_height >= 3);

    // Outside: k + t ≥ n/2 abstaining coalition.
    let mut h = Harness::new(n, 6)
        .network(NetworkChoice::Synchronous { delta: SimTime(10) })
        .max_rounds(4);
    for i in 4..9 {
        h = h.with_behavior(NodeId(i), Box::new(Abstain));
    }
    let mut sim = h.build();
    sim.run_until(SimTime(100_000));
    let r = analyze(&sim);
    assert!(r.agreement, "safety unconditional");
    assert_eq!(r.min_final_height, 0, "liveness gone");
}

/// Determinism across the whole stack: a partially synchronous run with a
/// partition, a crash, and an adversary replays bit-identically.
#[test]
fn whole_stack_determinism() {
    let run = || {
        let board = blackboard();
        let b_group: HashSet<NodeId> = [NodeId(7), NodeId(8)].into_iter().collect();
        let groups = vec![
            vec![NodeId(1), NodeId(2), NodeId(3)],
            vec![NodeId(5), NodeId(6), NodeId(7), NodeId(8)],
        ];
        let mut sim = Harness::new(9, 1234)
            .partitioned_until_gst(SimTime(1_500), SimTime(10), groups)
            .with_behavior(
                NodeId(0),
                Box::new(
                    EquivocatingLeader::new(board.clone(), b_group.clone(), 9)
                        .only_rounds([Round(0)]),
                ),
            )
            .with_behavior(NodeId(4), Box::new(ForkColluder::new(board, b_group, 9)))
            .max_rounds(4)
            .build();
        sim.crash(NodeId(6));
        sim.run_until(HORIZON);
        let r = analyze(&sim);
        (
            r.min_final_height,
            r.max_final_height,
            r.view_changes,
            r.exposes,
            r.burned.clone(),
            sim.meter().total_messages(),
            sim.meter().total_bytes(),
        )
    };
    assert_eq!(run(), run());
}

/// The utility model and the protocol agree about θ: the same abstention
/// run is a *gain* for θ=3 and a *loss* for θ=1 (Table 2's sign flips).
#[test]
fn theta_changes_the_sign_of_the_same_attack() {
    let n = 8;
    let mut h = Harness::new(n, 7)
        .network(NetworkChoice::Synchronous { delta: SimTime(10) })
        .max_rounds(3);
    for i in 6..8 {
        h = h.with_behavior(NodeId(i), Box::new(Abstain));
    }
    let mut sim = h.build();
    sim.run_until(SimTime(100_000));

    let state = classify(&observed(&analyze(&sim)));
    assert_eq!(state, SystemState::NoProgress);

    let table = prft::game::PayoffTable::new(1.0);
    assert!(table.f(state, Theta::LivenessAttacking) > 0.0);
    assert!(table.f(state, Theta::ForkSeeking) < 0.0);
    assert!(table.f(state, Theta::Honest) < 0.0);
}

/// Claim 1 wiring: the configurable τ rejects unsafe windows analytically
/// and the protocol respects the configured threshold.
#[test]
fn tau_override_is_respected() {
    let n = 10;
    let cfg = Config::for_committee(n).with_tau(9); // above n − t0 = 8
    assert!(!cfg.tau_in_safe_window());
    // With τ = 9 even two silent players (≤ t0) stall the protocol.
    let mut h = Harness::new(n, 8)
        .config(cfg.with_max_rounds(3))
        .network(NetworkChoice::Synchronous { delta: SimTime(10) });
    for i in 8..10 {
        h = h.with_behavior(NodeId(i), Box::new(Abstain));
    }
    let mut sim = h.build();
    sim.run_until(SimTime(60_000));
    assert_eq!(analyze(&sim).min_final_height, 0);
}
