//! A rational θ=1 collusion tries the fork attack against pRFT — and pays
//! for it: the Reveal phase exposes the double signatures, more than t0 of
//! the colluders burn their deposits, and no fork materializes (Lemma 4).
//! The chain does not grow either: the colluders never join a view change,
//! and k + t = 4 of n = 9 is inside Theorem 1's no-liveness regime.
//!
//! ```sh
//! cargo run --example rational_attack
//! ```

use prft::adversary::{blackboard, EquivocatingLeader, ForkColluder};
use prft::core::{analysis, Harness, NetworkChoice};
use prft::sim::SimTime;
use prft::types::{NodeId, Round};
use std::collections::HashSet;

fn main() {
    // n = 9: t0 = 2, quorum 7. Collusion: byzantine equivocating leader P0
    // plus rational colluders P1–P3 (k + t = 4 < n/2 ✓, t = 1 < n/4 ✓).
    let n = 9;
    let board = blackboard();
    let b_group: HashSet<NodeId> = [NodeId(7), NodeId(8)].into_iter().collect();

    let mut harness = Harness::new(n, 99)
        .network(NetworkChoice::Synchronous { delta: SimTime(10) })
        .max_rounds(3)
        .with_behavior(
            NodeId(0),
            Box::new(
                EquivocatingLeader::new(board.clone(), b_group.clone(), n).only_rounds([Round(0)]),
            ),
        );
    for i in 1..=3 {
        harness = harness.with_behavior(
            NodeId(i),
            Box::new(ForkColluder::new(board.clone(), b_group.clone(), n)),
        );
    }
    let mut sim = harness.build();
    sim.run_until(SimTime(1_000_000));

    let report = analysis::analyze(&sim);
    println!("== fork attack against pRFT (round 0) ==");
    println!("collusion: P0 (byzantine leader) + P1,P2,P3 (rational, π_fork)");
    println!();
    println!("fork on finalized blocks: {}", !report.agreement);
    println!("exposes applied by honest players: {}", report.exposes);
    println!("burned deposits: {:?}", report.burned);
    println!(
        "blocks finalized by every honest player: {} (rounds entered: {})",
        report.min_final_height, report.rounds_entered
    );

    // The deviators' ledger view from an honest replica.
    let honest = sim.node(NodeId(4));
    println!("\nP4's collateral ledger after the attack:");
    for i in 0..n {
        let id = NodeId(i);
        println!(
            "  {id}: deposit {} {}",
            honest.collateral().balance(id),
            if honest.collateral().is_burned(id) {
                "(BURNED — named in a verified Proof-of-Fraud)"
            } else {
                ""
            }
        );
    }

    assert!(report.agreement, "the fork must fail");
    assert!(
        report.burned.len() > 2,
        "more than t0 deviators burned — the Expose fired"
    );
    for h in 4..9 {
        assert!(
            !report.burned.contains(&NodeId(h)),
            "no honest player is ever framed"
        );
    }
    assert_eq!(
        report.min_final_height, 0,
        "the colluders' view-change refusal stalls the chain"
    );
    println!("\nThe fork was dominated: the attack produced no fork and cost the");
    println!("collusion its deposits — the DSIC incentive structure of Lemma 4.");
    println!("Liveness is lost all the same. Round 1's leader P1 proposes on top");
    println!("of its own tentative round-0 block, which P4–P8 never received, so");
    println!("the honest seats try to abandon the round; P0–P3 never join a view");
    println!("change, and 5 honest seats cannot reach the quorum of 7. k + t = 4");
    println!("of n = 9 lies in Theorem 1's regime ⌈n/3⌉ ≤ k + t ≤ ⌈n/2⌉ − 1, where");
    println!("a coalition that withholds its messages can stall any protocol.");
}
