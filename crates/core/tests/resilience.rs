//! Resilience tests: laggard catch-up, round synchronization, ablated
//! configurations, and hostile message handling.

use prft_core::analysis::analyze;
use prft_core::{Config, Harness, NetworkChoice};
use prft_net::{PartitionWindow, PartitionedNet, SynchronousNet};
use prft_sim::SimTime;
use prft_types::NodeId;

const HORIZON: SimTime = SimTime(3_000_000);

/// A node isolated for several rounds catches back up through the
/// persistent Final tallies and round synchronization.
#[test]
fn isolated_node_catches_up_after_heal() {
    let n = 8; // t0 = 1, quorum 7: the isolated node's absence is tolerable
    let mut net = PartitionedNet::new(Box::new(SynchronousNet::new(SimTime(10))));
    // P7 alone for the first 2000 ticks (several rounds).
    net.add_window(PartitionWindow::split(
        SimTime::ZERO,
        SimTime(2_000),
        vec![vec![NodeId(7)]],
    ));
    let mut sim = Harness::new(n, 3)
        .network(NetworkChoice::Custom(Box::new(net)))
        .max_rounds(12)
        .build();
    sim.run_until(HORIZON);
    let r = analyze(&sim);
    assert!(r.agreement);
    // The laggard reconciled: its final height matches the committee's.
    assert_eq!(
        r.min_final_height, r.max_final_height,
        "P7 caught up (heights {} vs {})",
        r.min_final_height, r.max_final_height
    );
    assert!(r.min_final_height >= 8, "got {}", r.min_final_height);
    let p7 = sim.node(NodeId(7));
    assert!(
        p7.stats().round_syncs > 0 || p7.stats().finalized_catchup > 0,
        "caught up through round-sync/final tallies"
    );
}

/// Repeated short partitions: the committee reconverges after each one.
#[test]
fn flapping_partitions_never_fork() {
    let n = 8;
    let mut net = PartitionedNet::new(Box::new(SynchronousNet::new(SimTime(10))));
    for i in 0..4u64 {
        let start = 500 + i * 1_000;
        net.add_window(PartitionWindow::split(
            SimTime(start),
            SimTime(start + 400),
            vec![
                vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
                vec![NodeId(4), NodeId(5), NodeId(6), NodeId(7)],
            ],
        ));
    }
    let mut sim = Harness::new(n, 11)
        .network(NetworkChoice::Custom(Box::new(net)))
        .max_rounds(15)
        .build();
    sim.run_until(HORIZON);
    let r = analyze(&sim);
    assert!(r.agreement);
    assert!(r.strict_ordering);
    assert!(
        r.min_final_height >= 8,
        "progress through the flapping (got {})",
        r.min_final_height
    );
}

/// The ablated (non-accountable) configuration still provides agreement
/// and liveness for honest committees — it only loses the PoF machinery.
#[test]
fn ablated_prft_is_still_safe_and_live() {
    let cfg = Config::for_committee(8)
        .with_accountability(false)
        .with_max_rounds(5);
    let mut sim = Harness::new(8, 13)
        .config(cfg)
        .network(NetworkChoice::Synchronous { delta: SimTime(10) })
        .build();
    sim.run_until(HORIZON);
    let r = analyze(&sim);
    assert!(r.agreement);
    assert_eq!(r.min_final_height, 5);
    // No Reveal traffic at all.
    assert_eq!(sim.meter().kind("Reveal").count, 0);
    assert_eq!(sim.meter().kind("Expose").count, 0);
}

/// Very slow network relative to the timeout: rounds repeatedly time out,
/// the exponential backoff eventually outgrows the real delay, and the
/// committee recovers (post-GST liveness argument of Theorem 5).
#[test]
fn backoff_recovers_from_aggressive_timeouts() {
    let cfg = Config::for_committee(5)
        .with_timeout(SimTime(20)) // far below the real round time at Δ = 40
        .with_max_rounds(20);
    let mut sim = Harness::new(5, 17)
        .config(cfg)
        .network(NetworkChoice::Synchronous { delta: SimTime(40) })
        .build();
    sim.run_until(HORIZON);
    let r = analyze(&sim);
    assert!(r.agreement);
    assert!(
        r.min_final_height >= 3,
        "backoff must eventually clear the real delay (got {} blocks, {} VCs)",
        r.min_final_height,
        r.view_changes
    );
}

/// Messages from far-future rounds (a lying adversary) don't break or
/// stall honest players: the round-sync rule needs t0+1 distinct senders.
#[test]
fn future_round_spam_is_contained() {
    use prft_core::{Ballot, Phase, PrftMsg};
    use prft_crypto::{KeyRegistry, Signed};
    use prft_types::{Digest, Round};

    let n = 8;
    let mut sim = Harness::new(n, 19)
        .network(NetworkChoice::Synchronous { delta: SimTime(10) })
        .max_rounds(3)
        .build();
    // A forged far-future vote from a *different* trusted setup: invalid
    // signature, must be ignored entirely.
    let (_, foreign_keys) = KeyRegistry::trusted_setup(n, 999);
    let forged = PrftMsg::Vote {
        ballot: Signed::sign(
            Ballot::new(Round(500), Phase::Vote, Digest::of_bytes(b"evil")),
            &foreign_keys[3],
        ),
        propose: None,
    };
    for i in 0..n {
        sim.inject(SimTime(5), NodeId(3), NodeId(i), forged.clone());
    }
    sim.run_until(HORIZON);
    let r = analyze(&sim);
    assert!(r.agreement);
    assert_eq!(r.min_final_height, 3, "spam changed nothing");
    for i in 0..n {
        assert!(
            sim.node(NodeId(i)).round().0 <= 4,
            "nobody jumped to round 500"
        );
    }
}

/// One lying signer *with a valid key* claiming a future round is also not
/// enough: round-sync requires t0 + 1 distinct senders.
#[test]
fn single_peer_cannot_fast_forward_a_committee() {
    use prft_core::{Ballot, Phase, PrftMsg};
    use prft_crypto::{KeyRegistry, Signed};
    use prft_types::{Digest, Round};

    let n = 9; // t0 = 2: needs 3 distinct future senders
    let mut sim = Harness::new(n, 23)
        .network(NetworkChoice::Synchronous { delta: SimTime(10) })
        .max_rounds(3)
        .build();
    // Same trusted setup as the harness (seed ^ 0x5eed — reconstruct it).
    let (_, keys) = KeyRegistry::trusted_setup(n, 23 ^ 0x5eed);
    let liar = PrftMsg::Vote {
        ballot: Signed::sign(
            Ballot::new(Round(400), Phase::Vote, Digest::of_bytes(b"far")),
            &keys[8],
        ),
        propose: None,
    };
    for i in 0..n {
        sim.inject(SimTime(5), NodeId(8), NodeId(i), liar.clone());
    }
    sim.run_until(HORIZON);
    let r = analyze(&sim);
    assert!(r.agreement);
    assert_eq!(r.min_final_height, 3);
    for i in 0..8 {
        assert!(
            sim.node(NodeId(i)).round().0 <= 4,
            "one liar (≤ t0) cannot trigger round sync"
        );
    }
}

/// Tentative blocks roll back cleanly: a round abandoned between the
/// commit quorum and finalization leaves no stray state (exercised through
/// a partition that dissolves mid-round).
#[test]
fn mid_round_partition_no_stray_tentative_state() {
    let n = 8;
    let mut net = PartitionedNet::new(Box::new(SynchronousNet::new(SimTime(10))));
    // A brief split right at the start of round 0's reveal window.
    net.add_window(PartitionWindow::split(
        SimTime(25),
        SimTime(800),
        vec![
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
            vec![NodeId(4), NodeId(5), NodeId(6), NodeId(7)],
        ],
    ));
    let mut sim = Harness::new(n, 29)
        .network(NetworkChoice::Custom(Box::new(net)))
        .max_rounds(6)
        .build();
    sim.run_until(HORIZON);
    let r = analyze(&sim);
    assert!(r.agreement);
    assert!(r.strict_ordering);
    // Every honest chain's tentative suffix is at most the current round's
    // block (never stacked stale tentatives).
    for &id in &r.honest {
        let chain = sim.node(id).chain();
        assert!(chain.height() - chain.final_height() <= 1);
    }
}

/// Two conflicting values can both hold a `> n/2` Final tally (split
/// Finals by double-signers). Which one a laggard adopts once their
/// common parent lands must depend on what it received, never on hash
/// iteration order: 32 fresh replicas fed the same messages all finalize
/// the same block (each replica's maps are seeded differently, so an
/// order-exposed hash walk would split them).
#[test]
fn conflicting_majority_tallies_resolve_identically_everywhere() {
    use prft_core::{Ballot, Phase, PrftMsg};
    use prft_crypto::{KeyRegistry, Signed};
    use prft_types::{Block, Height, Round, Transaction};

    let (n, seed, laggard) = (4, 31, NodeId(3));
    let (_, keys) = KeyRegistry::trusted_setup(n, seed ^ 0x5eed);
    let tx = |id: u64| Transaction::new(id, NodeId(0), vec![id as u8]);
    let parent = Block::new(Round(0), Block::genesis().id(), NodeId(0), vec![tx(1)]);
    let [a, b] = [2, 3].map(|id| Block::new(Round(1), parent.id(), NodeId(1), vec![tx(id)]));
    let propose = |block: &Block| PrftMsg::Propose {
        ballot: Signed::sign(
            Ballot::new(block.round, Phase::Propose, block.id()),
            &keys[block.proposer.0],
        ),
        block: block.clone(),
    };
    let finals = |block: &Block| {
        let ballot = Ballot::new(block.round, Phase::Final, block.id());
        [0, 1, 2].map(|signer| PrftMsg::Final {
            ballot: Signed::sign(ballot, &keys[signer]),
        })
    };
    // Both children reach a Final majority with their blocks known while
    // the parent is still missing; the parent's own majority comes last.
    let mut script = vec![propose(&a), propose(&b)];
    script.extend(finals(&a).into_iter().chain(finals(&b)));
    script.push(propose(&parent));
    script.extend(finals(&parent));

    let adopted: Vec<_> = (0..32)
        .map(|_| {
            let mut sim = Harness::new(n, seed).build();
            for peer in (0..n).map(NodeId).filter(|&peer| peer != laggard) {
                sim.crash(peer);
            }
            for (tick, msg) in script.iter().enumerate() {
                sim.inject(SimTime(5 + tick as u64), NodeId(0), laggard, msg.clone());
            }
            sim.run_until(SimTime(100));
            let chain = sim.node(laggard).chain();
            assert_eq!(chain.final_height(), 2, "parent and one child final");
            chain.at(Height(2)).expect("height 2").block.id()
        })
        .collect();
    assert!([a.id(), b.id()].contains(&adopted[0]));
    assert!(
        adopted.iter().all(|id| *id == adopted[0]),
        "replicas disagree on which conflicting value to adopt"
    );
}
