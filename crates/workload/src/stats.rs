//! Run-level workload aggregates: what a finished workload simulation
//! reports into `RunRecord`s and benchmark sweeps.

use crate::actor::Actor;
use crate::latency::LatencySummary;
use prft_sim::{ObsRegistry, Simulation};
use Merge::{Constant, Counter, Gauge};

/// Aggregated workload observables for one finished run.
///
/// All fields are integers, assembled in node-id order from per-actor
/// state, so the struct (and anything serialized from it) is byte-identical
/// across thread counts and queue backends.
///
/// Conservation invariant: `submitted == committed + dropped + pending` —
/// every generated transaction is acknowledged, given up, or still waiting
/// when the run ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkloadRunStats {
    /// Client actors in the population.
    pub clients: u64,
    /// Distinct transactions generated across all clients.
    pub submitted: u64,
    /// Transactions acknowledged as finalized.
    pub committed: u64,
    /// Transactions given up (attempt budget spent or dropped on reject).
    pub dropped: u64,
    /// Transactions still in flight when the run ended.
    pub pending: u64,
    /// Resubmissions (timeouts plus requeued rejections).
    pub retries: u64,
    /// Backpressure (`TxRejected`) signals clients received.
    pub backpressure_rejects: u64,
    /// Replica-side pushes rejected at mempool capacity.
    pub mempool_rejected_full: u64,
    /// Highest mempool occupancy any replica reached.
    pub mempool_peak_occupancy: u64,
    /// Submit→commit latency percentiles, in virtual-time ticks.
    pub latency: LatencySummary,
}

impl WorkloadRunStats {
    /// Gathers the aggregate from a finished workload simulation.
    pub fn collect(sim: &Simulation<Actor>) -> WorkloadRunStats {
        let mut out = WorkloadRunStats::default();
        let mut ticks: Vec<u64> = Vec::new();
        for node in sim.nodes() {
            match node {
                Actor::Client(c) => {
                    let s = c.stats();
                    out.clients += 1;
                    out.submitted += s.submitted;
                    out.committed += s.committed;
                    out.dropped += s.dropped;
                    out.pending += c.pending();
                    out.retries += s.retries;
                    out.backpressure_rejects += s.backpressure_rejects;
                    ticks.extend_from_slice(c.latencies());
                }
                Actor::Replica(r) => {
                    out.mempool_rejected_full += r.mempool().rejected_full();
                    out.mempool_peak_occupancy = out
                        .mempool_peak_occupancy
                        .max(r.mempool().peak_len() as u64);
                }
            }
        }
        out.latency = LatencySummary::from_ticks(ticks);
        out
    }

    /// Mirrors the declared metrics into `obs` under their `workload.*`
    /// keys, so a batch report's `observability` section carries the
    /// client-side view next to the protocol counters.
    pub fn mirror_into(&self, obs: &mut ObsRegistry) {
        for m in METRICS {
            match m.merge {
                Merge::Constant => {}
                Merge::Counter(key) => obs.add(key, (m.get)(self)),
                Merge::Gauge(key) => obs.gauge_max(key, (m.get)(self)),
            }
        }
    }

    /// Whether the conservation invariant holds.
    pub fn conserved(&self) -> bool {
        self.submitted == self.committed + self.dropped + self.pending
    }
}

/// How a metric combines across the seeds of a grid point, and with it the
/// `workload.*` key [`WorkloadRunStats::mirror_into`] files it under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Merge {
    /// The same in every seed: reported as the value itself, not mirrored.
    Constant,
    /// A registry counter: sums across seeds.
    Counter(&'static str),
    /// A registry gauge: keeps the worst seed.
    Gauge(&'static str),
}

/// One reported workload metric. Everything downstream of a finished run
/// reads this declaration instead of naming the field again: the per-run
/// and per-batch JSON `workload` sections, the registry mirror, the
/// scenario CSV's `wl_*` columns and `prft-bench workload`'s rows.
pub struct Metric {
    /// Key in the batch `workload` section and in a bench row. A
    /// `latency_*` metric sits in the per-run `latency` object under the
    /// rest of its name, and after the other metrics in both sections.
    pub name: &'static str,
    /// Reads the metric off one run's stats.
    pub get: fn(&WorkloadRunStats) -> u64,
    /// Cross-seed combination and registry key.
    pub merge: Merge,
    /// The scenario-CSV column, if any: its header and the path below the
    /// metric's batch value (`["mean"]` of its aggregate; `[]` = the value).
    pub csv: Option<(&'static str, &'static [&'static str])>,
    /// Whether `prft-bench workload` records it per point.
    pub bench: bool,
}

impl Metric {
    /// The key inside the per-run `latency` object, for a latency metric.
    pub fn latency_key(&self) -> Option<&'static str> {
        self.name.strip_prefix("latency_")
    }
}

/// Every reported workload metric, in CSV-column and bench-row order (laid
/// out by hand). A new counter is a [`WorkloadRunStats`] field, its line in
/// [`WorkloadRunStats::collect`], and an entry here.
#[rustfmt::skip]
pub const METRICS: &[Metric] = &[
    Metric { name: "clients", get: |s| s.clients,
             merge: Constant,
             csv: Some(("wl_clients", &[])), bench: false },
    Metric { name: "submitted", get: |s| s.submitted,
             merge: Counter("workload.txs_submitted"),
             csv: Some(("wl_submitted_mean", &["mean"])), bench: true },
    Metric { name: "committed", get: |s| s.committed,
             merge: Counter("workload.txs_committed"),
             csv: Some(("wl_committed_mean", &["mean"])), bench: true },
    Metric { name: "dropped", get: |s| s.dropped,
             merge: Counter("workload.txs_dropped"),
             csv: Some(("wl_dropped_mean", &["mean"])), bench: true },
    Metric { name: "pending", get: |s| s.pending,
             merge: Counter("workload.txs_pending"),
             csv: Some(("wl_pending_mean", &["mean"])), bench: true },
    Metric { name: "retries", get: |s| s.retries,
             merge: Counter("workload.retries"),
             csv: Some(("wl_retries_mean", &["mean"])), bench: true },
    Metric { name: "backpressure_rejects", get: |s| s.backpressure_rejects,
             merge: Counter("workload.backpressure_rejects"),
             csv: Some(("wl_backpressure_mean", &["mean"])), bench: false },
    Metric { name: "mempool_rejected_full", get: |s| s.mempool_rejected_full,
             merge: Counter("workload.mempool_rejected_full"),
             csv: None, bench: false },
    Metric { name: "latency_p50", get: |s| s.latency.p50,
             merge: Gauge("workload.latency_p50"),
             csv: Some(("wl_latency_p50_mean", &["mean"])), bench: true },
    Metric { name: "latency_p90", get: |s| s.latency.p90,
             merge: Gauge("workload.latency_p90"),
             csv: Some(("wl_latency_p90_mean", &["mean"])), bench: true },
    Metric { name: "latency_p99", get: |s| s.latency.p99,
             merge: Gauge("workload.latency_p99"),
             csv: Some(("wl_latency_p99_mean", &["mean"])), bench: true },
    Metric { name: "latency_max", get: |s| s.latency.max,
             merge: Gauge("workload.latency_max"),
             csv: None, bench: true },
    Metric { name: "mempool_peak_occupancy", get: |s| s.mempool_peak_occupancy,
             merge: Gauge("workload.mempool_peak_occupancy"),
             csv: Some(("wl_mempool_peak_max", &["max"])), bench: true },
];
