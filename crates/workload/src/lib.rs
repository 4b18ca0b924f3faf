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
//! use prft_core::{Config, Harness, NetworkChoice};
//! use prft_sim::{QueueBackend, SimTime};
//! use prft_workload::{assemble, WorkloadRunStats, WorkloadSpec};
//!
//! let n = 8;
//! let spec = WorkloadSpec::steady(20, 400).txs_per_client(2);
//! // Build the committee as usual, then hand the replicas to the
//! // workload assembler (here via a throwaway harness build).
//! let replicas = prft_workload::committee(n, 42, Config::for_committee(n).with_max_rounds(40));
//! let mut sim = assemble(
//!     replicas,
//!     &spec,
//!     Box::new(prft_net::SynchronousNet::new(SimTime(10))),
//!     42,
//!     QueueBackend::Heap,
//! );
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

use prft_core::{Config, Honest, Replica};
use prft_crypto::KeyRegistry;

/// Builds an all-honest committee of `n` replicas with the same trusted
/// setup the scenario harness uses (`seed ^ 0x5eed`), ready for
/// [`assemble`]. Callers needing mixed behaviors or custom networks build
/// replicas through their own path and call [`assemble`] directly.
pub fn committee(n: usize, seed: u64, cfg: Config) -> Vec<Replica> {
    let (registry, keys) = KeyRegistry::trusted_setup(n, seed ^ 0x5eed);
    keys.into_iter()
        .map(|key| Replica::new(cfg.clone(), key, registry.clone(), Box::new(Honest)))
        .collect()
}
