//! # prft — a reproduction of *"Towards Rational Consensus in Honest
//! Majority"* (Srivastava & Gujar, ICDCS 2024)
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`core`] — the pRFT protocol (Propose/Vote/Commit/Reveal, view change,
//!   Proof-of-Fraud accountability, collateral burning) plus the
//!   [`core::Harness`] for assembling committees with mixed strategies;
//! * [`types`] — blocks, chains, transactions, identifiers;
//! * [`crypto`] — simulated PKI: SHA-256, ideal (keyed, unhashed)
//!   signatures, conflict evidence;
//! * [`sim`] / [`net`] — the deterministic discrete-event kernel and the
//!   synchrony models (sync / partial-sync GST / async, partitions with
//!   adversarial bridges, targeted delays);
//! * [`adversary`] — the strategy space: `π_abs`, `π_pc`, `π_ds`/`π_fork`,
//!   byzantine noise;
//! * [`game`] — θ types, σ states, Table 2 payoffs, discounted utilities,
//!   Nash/DSIC/Pareto checkers, and the paper's closed-form algebra;
//! * [`baselines`] — pBFT / Polygraph-style accountable BFT / HotStuff /
//!   Raft-lite / Dolev–Strong / Bracha / the TRAP baiting game;
//! * [`metrics`] — σ-state classification, power-law fitting, tables;
//! * [`lab`] — declarative scenario specs, the ≥10-scenario registry, the
//!   multi-threaded batch runner (deterministic across thread counts), and
//!   JSON/CSV reporting (`prft-lab list` / `prft-lab run <scenario>`).
//!
//! ## Quick start
//!
//! ```
//! use prft::core::{Harness, NetworkChoice};
//! use prft::sim::SimTime;
//!
//! let mut sim = Harness::new(8, 42)
//!     .network(NetworkChoice::PartiallySynchronous {
//!         gst: SimTime(1_000),
//!         delta: SimTime(10),
//!     })
//!     .max_rounds(5)
//!     .build();
//! sim.run_until(SimTime(1_000_000));
//! let report = prft::core::analysis::analyze(&sim);
//! assert!(report.agreement);
//! ```
//!
//! See `examples/` for runnable scenarios and `prft-lab claims`
//! (`crates/scenarios/src/claims.rs`, indexed in docs/REPRODUCING.md) for
//! the per-theorem/table/figure checks.

#![forbid(unsafe_code)]

pub use prft_adversary as adversary;
pub use prft_baselines as baselines;
pub use prft_core as core;
pub use prft_crypto as crypto;
pub use prft_game as game;
pub use prft_lab as lab;
pub use prft_metrics as metrics;
pub use prft_net as net;
pub use prft_sim as sim;
pub use prft_types as types;
