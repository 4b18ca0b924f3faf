//! Protocol-level observability assembly: one [`ObsRegistry`] per
//! finished run.
//!
//! The sim crate owns the mechanics (counters, the send and delivery
//! ledgers, hooks); this module knows what a *pRFT* run looks like —
//! which seats are replicas and which replica statistics become counters.
//! The registry derives solely from the pinned dispatch order, so it is
//! byte-identical across queue backends and worker thread counts.
//!
//! Like the analysis layer, assembly is generic over [`AsReplica`]: in a
//! workload run the node population mixes replicas with client actors, and
//! the replica-derived counters skip the clients.

use crate::analysis::AsReplica;
use prft_sim::obs::hooks::HookSnapshot;
use prft_sim::{Node, ObsRegistry, Simulation};

/// Assembles the full counter registry for one finished run: the engine's
/// `engine.*`/`send.*` counters, the crypto hook deltas captured in
/// `hooks`, the per-replica protocol counters (`replica.*`), and each
/// replica seat's deliveries from the engine's ledger (`recv.P<i>.*`).
///
/// `hooks` must be the delta for exactly this run: call
/// [`prft_sim::obs::hooks::reset`] before building the simulation and
/// [`prft_sim::obs::hooks::snapshot`] after it finishes, on the thread
/// that ran it.
pub fn collect<N: Node + AsReplica>(sim: &Simulation<N>, hooks: &HookSnapshot) -> ObsRegistry {
    let mut reg = sim.observability();
    reg.add("crypto.sig_verifies", hooks.sig_verifies);
    for replica in sim.nodes().filter_map(AsReplica::as_replica) {
        let stats = replica.stats();
        reg.add("replica.rounds_entered", stats.rounds_entered);
        reg.add(
            "replica.view_changes",
            stats.view_changed_rounds.len() as u64,
        );
        reg.add("replica.fraud_detections", stats.fraud_detections);
        reg.add("replica.exposes_sent", stats.exposes_sent);
        reg.add("replica.exposes_applied", stats.exposes_applied);
        let id = replica.id();
        for (kind, ks) in sim.meter().received(id) {
            reg.add(&format!("recv.P{}.{kind}.msgs", id.0), ks.count);
            reg.add(&format!("recv.P{}.{kind}.bytes", id.0), ks.bytes);
        }
    }
    reg
}
