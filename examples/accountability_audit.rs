//! Accountability audit: construct a Proof-of-Fraud from raw signed
//! ballots, verify it as a third party would (Definition 6's `V(π)`), and
//! demonstrate that framing an honest player is impossible.
//!
//! ```sh
//! cargo run --example accountability_audit
//! ```

use prft::core::{construct_proof, signed_ballot, verify_expose, Phase};
use prft::crypto::KeyRegistry;
use prft::types::{Digest, Round};

fn main() {
    // Trusted setup for a committee of 9 (t0 = 2).
    let n = 9;
    let t0 = 2;
    let (registry, keys) = KeyRegistry::trusted_setup(n, 1234);

    let block_a = Digest::of_bytes(b"block A");
    let block_b = Digest::of_bytes(b"block B");

    // The reveal phase hands every player the committee's commit ballots.
    // Here players 0, 1, 2 committed to *both* blocks in round 5 (π_ds);
    // everyone else committed once.
    println!("== assembling the ballot matrix (round 5, commit phase) ==");
    let mut ballots = Vec::new();
    for (i, key) in keys.iter().enumerate() {
        ballots.push(signed_ballot(key, Round(5), Phase::Commit, block_a));
        if i < 3 {
            ballots.push(signed_ballot(key, Round(5), Phase::Commit, block_b));
            println!("  P{i} double-signed (A and B)");
        }
    }
    println!("  P3–P8 committed to A only\n");

    // ConstructProof (paper Figure 4).
    let proof = construct_proof(&ballots);
    println!("ConstructProof found {} conflicting pairs:", proof.len());
    for ev in &proof {
        println!(
            "  accused {}: {:?} vs {:?} in the same (round, phase) slot",
            ev.accused(),
            ev.first.payload.value,
            ev.second.payload.value,
        );
    }

    // Third-party verification: the registry is public, so anyone can run
    // V(π) and (in a deployment) submit the burn transaction.
    match verify_expose(&proof, &registry, t0) {
        Some(convicted) => {
            let guilty: Vec<_> = convicted.iter().map(|&(id, _)| id).collect();
            println!(
                "\nV(π) verdict: GUILTY — {guilty:?} (|D| = {} > t0 = {t0})",
                guilty.len()
            );
            println!("→ the deposit-burn transaction is justified for each of them.");
        }
        None => println!("\nV(π) verdict: insufficient evidence"),
    }

    // Framing attempt: pair an honest player's real ballot with a tampered
    // copy claiming a different value.
    println!("\n== framing attempt against honest P5 ==");
    let real = signed_ballot(&keys[5], Round(5), Phase::Commit, block_a);
    let mut forged = real.clone();
    forged.payload.value = block_b; // signature no longer matches
    let frame = construct_proof(&[real, forged]);
    match verify_expose(&frame, &registry, 0) {
        Some(_) => println!("framed! (this must never print)"),
        None => println!(
            "V(π) rejects the pair: the tampered ballot's signature does not\n\
             verify, so an honest player can only be convicted by two ballots\n\
             they actually signed — which honest players never produce."
        ),
    }

    // Sub-threshold evidence does not justify an expose.
    let small = construct_proof(&ballots[..4]); // only P0's conflict visible
    assert!(verify_expose(&small, &registry, t0).is_none());
    println!(
        "\nWith only {} conviction(s) ≤ t0 = {t0}, no Expose is justified —\n\
         the paper tolerates up to t0 double-signers without aborting a round.",
        small.len()
    );
}
