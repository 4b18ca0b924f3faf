//! # pRFT — practical Rational Fault Tolerance
//!
//! A from-scratch implementation of the pRFT protocol from *"Towards
//! Rational Consensus in Honest Majority"* (Srivastava & Gujar, ICDCS 2024):
//! atomic broadcast under the rational threat model `RFT(t, k)` with
//! `t < n/4` byzantine and `k + t < n/2` byzantine+rational players, for
//! rational players of type `θ = 1` (fork-seeking).
//!
//! The protocol runs in rounds of four phases — Propose, Vote, Commit,
//! Reveal — with quorum `n − t0`, `t0 = ⌈n/4⌉ − 1`. Its distinguishing
//! feature is **in-protocol accountability**: the Reveal phase makes every
//! player's commit certificates visible to every other player, so honest
//! players construct Proof-of-Fraud against double-signers and burn their
//! collateral (`Expose`). Deviation is thereby a dominated strategy
//! (DSIC, Lemma 4), not merely one equilibrium among several as in
//! baiting-based designs.
//!
//! ## Quick start
//!
//! ```
//! use prft_core::{Harness, NetworkChoice};
//! use prft_sim::SimTime;
//!
//! // 8 players (t0 = 1), synchronous network, all honest.
//! let mut sim = Harness::new(8, 42)
//!     .network(NetworkChoice::Synchronous { delta: SimTime(10) })
//!     .max_rounds(3)
//!     .build();
//! sim.run_until(SimTime(100_000));
//! let report = prft_core::analysis::analyze(&sim);
//! assert!(report.agreement, "honest players agree");
//! assert_eq!(report.min_final_height, 3, "three blocks finalized");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod behavior;
mod collateral;
mod config;
mod harness;
mod messages;
pub mod obs;
mod pof;
mod replica;
mod verify;

pub use analysis::AsReplica;
pub use behavior::{BallotAction, Behavior, BehaviorClone, Honest, ProposeAction};
pub use collateral::CollateralLedger;
pub use config::Config;
pub use harness::{Harness, NetworkChoice};
pub use messages::{
    ballot_bytes, Ballot, BallotEvidence, CommitCert, CommitViewContent, Phase, PrftMsg, RevealSet,
    SignedBallot, ViewChangeReq,
};
pub use pof::{construct_proof, signed_ballot, verify_expose, FraudDetector};
pub use prft_crypto::KeyRegistry;
pub use replica::{Replica, ReplicaStats};
pub use verify::{predicted_memo_misses, predicted_verifies, CertVerdict, VerifyCache};
