//! # pRFT workload layer — open-loop client traffic
//!
//! Turns a bare committee simulation into a loaded system: a population of
//! deterministic client actors generates transactions on a configurable
//! arrival process ([`ArrivalModel`]), submits them round-robin across the
//! committee, retries on timeout with exponential backoff
//! ([`RetryPolicy`]), and reacts to mempool backpressure (`TxRejected`).
//! Clients are first-class simulation nodes: their timers and messages
//! drain through the same deterministic event queue as the protocol, so a
//! loaded run is byte-identical across thread counts and queue backends.
//!
//! The committee never broadcasts to clients — [`assemble`] pins the
//! simulation's broadcast domain to the committee, keeping protocol
//! fan-out O(n) while clients talk point-to-point.
//!
//! Per-transaction submit→commit latency is measured in virtual time and
//! summarized as nearest-rank percentiles ([`LatencySummary`]); run-level
//! aggregates ([`WorkloadRunStats`]) additionally carry mempool occupancy
//! and backpressure counters and obey the conservation invariant
//! `submitted == committed + dropped + pending`.
//!
//! ## Quick start
//!
//! ```
//! use prft_core::Harness;
//! use prft_sim::SimTime;
//! use prft_workload::{assemble, WorkloadRunStats, WorkloadSpec};
//!
//! let spec = WorkloadSpec::steady(20, 400).txs_per_client(2);
//! // Build the committee as usual, then hand its parts to the workload
//! // assembler, which appends the clients.
//! let (replicas, network, seed, _) = Harness::new(8, 42).max_rounds(40).build_parts();
//! let mut sim = assemble(replicas, &spec, network, seed);
//! sim.run_until(SimTime(1_000_000));
//! let stats = WorkloadRunStats::collect(&sim);
//! assert!(stats.conserved());
//! assert_eq!(stats.submitted, 40);
//! assert!(stats.committed > 0, "load made it into finalized blocks");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actor;
mod arrival;
mod client;
mod latency;
mod retry;
mod spec;
mod stats;

pub use actor::{assemble, Actor};
pub use arrival::ArrivalModel;
pub use client::{Client, ClientStats, CLIENT_TX_BASE, CLIENT_TX_STRIDE};
pub use latency::{percentile, LatencySummary};
pub use retry::{RejectAction, RetryPolicy};
pub use spec::WorkloadSpec;
pub use stats::{Merge, Metric, WorkloadRunStats, METRICS};
