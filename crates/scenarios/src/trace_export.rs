//! Chrome-trace export for scenario runs (`prft-lab run --trace-out`).
//!
//! A trace is always produced from **one** seeded run with delivery
//! tracing enabled — batch aggregation makes no sense for a timeline. The
//! run is rebuilt from the spec with the same derived seed the batch
//! runner would use, so the exported spans correspond exactly to seed
//! index 0 of the report next to it.

use crate::build::run_sim;
use crate::spec::ScenarioSpec;
use prft_sim::ChromeTrace;

/// Runs one traced simulation of `spec` at `seed` and assembles its
/// Chrome-trace document: one track per actor (replicas `P<i>`, workload
/// clients `C<i>`), per-replica phase spans, and message-delivery
/// instants. Render with [`ChromeTrace::render`] and open the file in
/// Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
pub fn chrome_trace_for(spec: &ScenarioSpec, seed: u64) -> ChromeTrace {
    let (sim, _outcome) = run_sim(spec, seed, |sim| sim.set_tracing(true));
    prft_core::obs::chrome_trace(&sim)
}
