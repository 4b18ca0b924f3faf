//! Cross-protocol integration tests: pRFT and the baselines agree on what
//! "consensus" means, and the mixed-θ analysis of the paper's model holds
//! end to end.

use prft::adversary::{Abstain, PartialCensor};
use prft::baselines::{hotstuff, pbft};
use prft::core::analysis::analyze;
use prft::core::{Harness, NetworkChoice};
use prft::game::Theta;
use prft::sim::{SimTime, Simulation};
use prft::types::{Digest, NodeId, Transaction, TxId};
use std::collections::HashSet;

const HORIZON: SimTime = SimTime(3_000_000);

/// Under identical network conditions, pRFT, pBFT, and HotStuff all decide
/// the same number of slots with internal agreement — a sanity bar for the
/// complexity comparison of Table 3 (same work, different cost).
#[test]
fn all_protocols_decide_under_identical_conditions() {
    let n = 8;
    let rounds = 3u64;

    let mut prft_sim = Harness::new(n, 7)
        .network(NetworkChoice::Synchronous { delta: SimTime(10) })
        .max_rounds(rounds)
        .build();
    prft_sim.run_until(HORIZON);
    let prft_report = analyze(&prft_sim);
    assert!(prft_report.agreement);
    assert_eq!(prft_report.min_final_height, rounds);

    let cfg = pbft::PbftConfig::new(n, rounds);
    let (replicas, _) = pbft::committee(&cfg, 1, &vec![pbft::PbftMode::Honest; n]);
    let mut pbft_sim = Simulation::new(
        replicas,
        Box::new(prft::net::SynchronousNet::new(SimTime(10))),
        7,
    );
    pbft_sim.run_until(HORIZON);
    let logs: Vec<Vec<Digest>> = (0..n).map(|i| pbft_sim.node(NodeId(i)).log()).collect();
    assert!(logs.iter().all(|l| l.len() == rounds as usize));
    assert!(logs.iter().all(|l| *l == logs[0]));

    let hs_cfg = hotstuff::HsConfig::new(n, rounds);
    let mut hs_sim = Simulation::new(
        hotstuff::committee(&hs_cfg, 11),
        Box::new(prft::net::SynchronousNet::new(SimTime(10))),
        7,
    );
    hs_sim.run_until(HORIZON);
    let hs_logs: Vec<Vec<Digest>> = (0..n)
        .map(|i| hs_sim.node(NodeId(i)).log().to_vec())
        .collect();
    assert!(hs_logs.iter().all(|l| l.len() == rounds as usize));
    assert!(hs_logs.iter().all(|l| *l == hs_logs[0]));

    // And the Table 3 cost ordering holds on these very runs.
    assert!(hs_sim.meter().total_bytes() < pbft_sim.meter().total_bytes());
    assert!(pbft_sim.meter().total_bytes() < prft_sim.meter().total_bytes());
}

/// The paper's worst-type rule: a mixed rational set is analysed at
/// θ = max{i : K_i ≠ ∅}. A committee with both θ=2 (censorship) and θ=3
/// (abstention) players fails at the θ=3 level — liveness dies, which is
/// strictly worse than the censorship-only outcome.
#[test]
fn mixed_theta_committee_fails_at_worst_type() {
    assert_eq!(
        Theta::CensorSeeking.max(Theta::LivenessAttacking),
        Theta::LivenessAttacking
    );

    let n = 8; // t0 = 1, quorum 7
    let watched = TxId(7);
    let censors: HashSet<NodeId> = [NodeId(0)].into_iter().collect();
    let censor_set: HashSet<TxId> = [watched].into_iter().collect();

    // θ=2 player P0 (π_pc) + θ=3 players P6, P7 (π_abs): the abstainers
    // already exceed the quorum slack, so the system lands in σ_NP — the
    // θ=3 outcome — regardless of the censor's subtler strategy.
    let mut sim = Harness::new(n, 31)
        .network(NetworkChoice::Synchronous { delta: SimTime(10) })
        .submit(None, Transaction::new(7, NodeId(2), b"x".to_vec()))
        .with_behavior(
            NodeId(0),
            Box::new(PartialCensor::new(n, censors, censor_set)),
        )
        .with_behavior(NodeId(6), Box::new(Abstain))
        .with_behavior(NodeId(7), Box::new(Abstain))
        .max_rounds(5)
        .build();
    sim.run_until(SimTime(150_000));
    let r = analyze(&sim);
    assert!(r.agreement, "safety unconditional");
    assert_eq!(
        r.min_final_height, 0,
        "the worst type (θ=3) dictates the outcome: no progress"
    );
}

/// Protocol isolation: pRFT signatures never validate in pBFT (different
/// signing domains), so cross-protocol replay is structurally impossible.
#[test]
fn cross_protocol_signature_domains_are_disjoint() {
    use prft::crypto::{KeyRegistry, Signable};
    let (_, keys) = KeyRegistry::trusted_setup(2, 5);

    let prft_ballot = prft::core::Ballot::new(
        prft::types::Round(1),
        prft::core::Phase::Vote,
        Digest::of_bytes(b"v"),
    );
    let pbft_ballot = pbft::PbftBallot {
        view: 0,
        seq: 1,
        phase: pbft::PbftPhase::Prepare,
        value: Digest::of_bytes(b"v"),
    };
    // Same signer, same value, same numeric slot components — different
    // domains ⇒ different signing digests.
    assert_ne!(prft_ballot.signing_digest(), pbft_ballot.signing_digest());
    let sig = keys[0].sign(prft_ballot.signing_digest());
    assert_ne!(
        sig,
        keys[0].sign(pbft_ballot.signing_digest()),
        "a pRFT signature cannot be replayed as a pBFT signature"
    );
}
