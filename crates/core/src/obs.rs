//! Protocol-level observability assembly: one [`ObsRegistry`] and one
//! [`ChromeTrace`] per finished run.
//!
//! The sim crate owns the mechanics (counters, the send and delivery
//! ledgers, hooks, trace builder); this module knows what a *pRFT* run
//! looks like — which seats are replicas, which replica statistics become
//! counters, and how phase-transition logs become Perfetto spans.
//! Both outputs derive solely from the pinned dispatch order, so they are
//! byte-identical across queue backends and worker thread counts.
//!
//! Like the analysis layer, assembly is generic over [`AsReplica`]: in a
//! workload run the node population mixes replicas with client actors, and
//! the replica-derived counters and spans skip the clients.

use crate::analysis::AsReplica;
use prft_sim::obs::hooks::HookSnapshot;
use prft_sim::{ChromeTrace, Node, ObsRegistry, Simulation};

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

/// Builds the Chrome-trace document for one finished run: one track per
/// actor (replicas `P<i>`, workload clients `C<i>`), phase spans on the
/// replica tracks (each phase lasts until the next transition, the last
/// until `sim.now()`), plus message-delivery instants when the simulation
/// ran with tracing enabled.
pub fn chrome_trace<N: Node + AsReplica>(sim: &Simulation<N>) -> ChromeTrace {
    let mut ct = ChromeTrace::new();
    let end = sim.now();
    for (i, node) in sim.nodes().enumerate() {
        let name = if node.as_replica().is_some() {
            format!("P{i}")
        } else {
            format!("C{i}")
        };
        ct.thread_name(0, i as u32, &name);
    }
    for (i, node) in sim.nodes().enumerate() {
        let Some(replica) = node.as_replica() else {
            continue;
        };
        let transitions = &replica.stats().phase_transitions;
        for (j, (round, phase, at)) in transitions.iter().enumerate() {
            let span_end = transitions.get(j + 1).map(|(_, _, t)| *t).unwrap_or(end);
            ct.complete(
                phase.label(),
                "phase",
                0,
                i as u32,
                *at,
                span_end,
                &[("round", round.0)],
            );
        }
    }
    for e in sim.trace().entries() {
        ct.instant(
            e.kind,
            "msg",
            0,
            e.to.0 as u32,
            e.at,
            &[("from", e.from.0 as u64)],
        );
    }
    ct
}
