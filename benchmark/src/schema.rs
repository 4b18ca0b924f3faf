//! The metric and workload tables: what the benchmark emits, by name.
//!
//! `BENCHMARK.json` at the repo root states the same lists for the
//! driver; a unit test keeps the two identical, so the emitted JSON names
//! exactly the metrics and workloads the driver was promised.

/// Whether two runs of the same code must agree exactly on a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Derived from the seeded scheduler alone: bit-equal across runs.
    Exact,
    /// Host time or memory: compared within a bound, or only reported.
    Timed,
}

pub use Class::{Exact, Timed};

/// One workload: its name and the one-line reason it exists.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "committee-large",
        why: "one huge all-honest run (n=256, plain and accountable): replica handlers, verify memo, crypto and the n^2-deep event queue do all the work; no clients, mempool content, checkpoints or caches",
    },
    WorkloadDef {
        name: "client-steady",
        why: "10000 open-loop clients against n=8: admit-and-drain use of mempool, proposal batching and finalization at a large population; every transaction must commit; crypto and queue depth are negligible",
    },
    WorkloadDef {
        name: "client-backpressure",
        why: "3000 Poisson clients against bounded mempools and a replica crash: the same mempool/client/finalize code under reject, back-off, retry and drop, so a client-steady gain that costs this path shows",
    },
    WorkloadDef {
        name: "lab-sweep",
        why: "many short runs: 20 registry scenarios, 7 games cold then cached, 3 late-divergence grids; lab aggregate/render, CheckpointStore, UtilityCache, game analysis, adversary and net rules live only here",
    },
];

/// One end-to-end metric. `bound` is the share of the parent's median by
/// which the metric may worsen before a change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
    pub class: Class,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: "lower",
        bound: 0.20,
        class: Timed,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        class: Timed,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.15,
        class: Timed,
    },
    EndToEnd {
        name: "passed_share",
        unit: "ratio",
        better: "higher",
        bound: 0.0001,
        class: Exact,
    },
    EndToEnd {
        name: "commit_p50_ticks",
        unit: "ticks",
        better: "lower",
        bound: 0.20,
        class: Exact,
    },
    EndToEnd {
        name: "commit_p99_ticks",
        unit: "ticks",
        better: "lower",
        bound: 0.15,
        class: Exact,
    },
    EndToEnd {
        name: "committed_share",
        unit: "ratio",
        better: "higher",
        bound: 0.15,
        class: Exact,
    },
];

/// One per-layer metric (no bound: they explain, they do not gate).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub class: Class,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str, class: Class) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        class,
    }
}

const LO: &str = "lower";
const HI: &str = "higher";

pub const PER_LAYER: [PerLayer; 80] = [
    // sim — the event engine.
    m("sim.events", "count", LO, Exact),
    m("sim.self_s", "s", LO, Timed),
    m("sim.self_ns_per_event", "ns", LO, Timed),
    m("sim.peak_queue_depth", "count", LO, Exact),
    m("sim.flood_ns_per_event", "ns", LO, Timed),
    m("sim.floor_ns_per_event", "ns", LO, Timed),
    m("sim.snapshot_ms", "ms", LO, Timed),
    m("sim.restore_ms", "ms", LO, Timed),
    // net — link models.
    m("net.deliver_calls", "count", LO, Exact),
    m("net.deliver_s", "s", LO, Timed),
    m("net.deliver_ns_per_call", "ns", LO, Timed),
    m("net.targeted_deliver_ns", "ns", LO, Timed),
    // core — replica handlers and the paper's Table 3 costs.
    m("core.handler_s", "s", LO, Timed),
    m("core.handler_calls", "count", LO, Exact),
    m("core.handler_max_us", "us", LO, Timed),
    m("core.propose_s", "s", LO, Timed),
    m("core.vote_s", "s", LO, Timed),
    m("core.commit_s", "s", LO, Timed),
    m("core.reveal_s", "s", LO, Timed),
    m("core.final_s", "s", LO, Timed),
    m("core.submit_s", "s", LO, Timed),
    m("core.timer_s", "s", LO, Timed),
    m("core.blocks_finalized", "count", HI, Exact),
    m("core.msgs_per_block", "count", LO, Exact),
    m("core.bytes_per_block", "bytes", LO, Exact),
    m("core.view_changes", "count", LO, Exact),
    // crypto — signatures, the verify memo, SHA-256.
    m("crypto.sig_verifies", "count", LO, Exact),
    m("crypto.memo_hits", "count", HI, Exact),
    m("crypto.memo_misses", "count", LO, Exact),
    m("crypto.memo_hit_ratio", "ratio", HI, Exact),
    m("crypto.clone_bytes", "bytes", LO, Exact),
    m("crypto.verify_ns", "ns", LO, Timed),
    m("crypto.sha256_mb_s", "MB/s", HI, Timed),
    m("crypto.est_s", "s", LO, Timed),
    // types — the mempool.
    m("types.mempool_peak", "count", LO, Exact),
    m("types.mempool_rejected_full", "count", LO, Exact),
    m("types.mempool_cycle_us", "us", LO, Timed),
    // workload — client actors.
    m("workload.client_s", "s", LO, Timed),
    m("workload.client_calls", "count", LO, Exact),
    m("workload.submitted", "count", HI, Exact),
    m("workload.committed", "count", HI, Exact),
    m("workload.dropped", "count", LO, Exact),
    m("workload.pending", "count", LO, Exact),
    m("workload.retries", "count", LO, Exact),
    m("workload.rejects", "count", LO, Exact),
    m("workload.retry_ratio", "ratio", LO, Exact),
    m("workload.collect_ms", "ms", LO, Timed),
    // game — equilibrium analysis.
    m("game.analysis_ms", "ms", LO, Timed),
    m("game.profiles", "count", HI, Exact),
    // lab — orchestration, checkpoints, cache, reports.
    m("lab.cells", "count", HI, Exact),
    m("lab.cell_ms_p50", "ms", LO, Timed),
    m("lab.cell_ms_p90", "ms", LO, Timed),
    m("lab.build_s", "s", LO, Timed),
    m("lab.summarize_s", "s", LO, Timed),
    m("lab.aggregate_ms", "ms", LO, Timed),
    m("lab.render_json_ms", "ms", LO, Timed),
    m("lab.render_csv_ms", "ms", LO, Timed),
    m("lab.report_bytes", "bytes", LO, Exact),
    m("lab.json_parse_mb_s", "MB/s", HI, Timed),
    m("lab.pool_efficiency", "ratio", HI, Timed),
    m("lab.fingerprint_us", "us", LO, Timed),
    m("lab.ckpt_captured", "count", LO, Exact),
    m("lab.ckpt_forked", "count", HI, Exact),
    m("lab.ckpt_prefix_ticks_saved", "ticks", HI, Exact),
    m("lab.ckpt_warm_over_cold", "ratio", HI, Timed),
    m("lab.cache_evaluated", "count", LO, Exact),
    m("lab.cache_hits", "count", HI, Exact),
    m("lab.cache_shared", "count", HI, Exact),
    m("lab.cache_load_ms", "ms", LO, Timed),
    // stages — untraced split of the two multi-stage workloads.
    m("stage.plain_s", "s", LO, Timed),
    m("stage.accountable_s", "s", LO, Timed),
    m("stage.registry_s", "s", LO, Timed),
    m("stage.explore_cold_s", "s", LO, Timed),
    m("stage.explore_cached_s", "s", LO, Timed),
    m("stage.grids_warm_s", "s", LO, Timed),
    // bench — diagnostics of the measurement itself.
    m("bench.cpu_s", "s", LO, Timed),
    m("bench.wall_iqr_s", "s", LO, Timed),
    m("bench.reps", "count", HI, Timed),
    m("bench.trace_overhead", "ratio", LO, Timed),
    m("bench.unattributed_share", "ratio", LO, Timed),
];

/// How long one run measures when `--seconds` is not given
/// (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 12;

#[cfg(test)]
mod tests {
    use super::*;
    use prft_lab::json::Json;

    fn field<'a>(doc: &'a Json, key: &str) -> &'a Json {
        let Json::Obj(pairs) = doc else {
            panic!("expected an object")
        };
        &pairs
            .iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("missing `{key}`"))
            .1
    }

    fn text(doc: &Json, key: &str) -> String {
        match field(doc, key) {
            Json::Str(s) => s.clone(),
            other => panic!("`{key}` is not a string: {other:?}"),
        }
    }

    fn items<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
        match field(doc, key) {
            Json::Arr(items) => items,
            other => panic!("`{key}` is not an array: {other:?}"),
        }
    }

    fn benchmark_json() -> Json {
        Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_stay_inside_the_contract_charset() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|e| (e.name, e.unit))
            .chain(PER_LAYER.iter().map(|p| (p.name, p.unit)))
        {
            assert!(name_ok(name), "bad metric name {name:?}");
            assert!(unit_ok(unit), "bad unit {unit:?} on {name}");
            assert!(seen.insert(name), "metric {name} listed twice");
        }
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "bad workload name {:?}", w.name);
            assert!(seen.insert(w.name), "name {} used twice", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(!name_ok("has space") && !name_ok(".dot-first") && !name_ok(""));
    }

    #[test]
    fn setup_has_the_largest_bound_and_every_bound_is_legal() {
        let setup = END_TO_END.iter().find(|e| e.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        for e in &END_TO_END {
            assert!(e.bound > 0.0 && e.bound <= 0.25, "{}", e.name);
            assert!(e.bound <= setup.bound, "{}", e.name);
            assert!(e.better == "lower" || e.better == "higher");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_workloads_and_metrics() {
        let doc = benchmark_json();
        let workloads: Vec<(String, String)> = items(&doc, "workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, expected);

        let end_to_end: Vec<(String, String, String, f64)> = items(&doc, "end_to_end")
            .iter()
            .map(|e| {
                let bound = match field(e, "bound") {
                    Json::Num(b) => *b,
                    Json::UInt(b) => *b as f64,
                    other => panic!("bound is not a number: {other:?}"),
                };
                (text(e, "name"), text(e, "unit"), text(e, "better"), bound)
            })
            .collect();
        let expected: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|e| {
                (
                    e.name.to_string(),
                    e.unit.to_string(),
                    e.better.to_string(),
                    e.bound,
                )
            })
            .collect();
        assert_eq!(end_to_end, expected);

        let per_layer: Vec<(String, String, String)> = items(&doc, "per_layer")
            .iter()
            .map(|p| (text(p, "name"), text(p, "unit"), text(p, "better")))
            .collect();
        let expected: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|p| (p.name.to_string(), p.unit.to_string(), p.better.to_string()))
            .collect();
        assert_eq!(per_layer, expected);

        assert_eq!(field(&doc, "run_seconds"), &Json::UInt(RUN_SECONDS));
        assert_eq!(items(&doc, "paths"), &[Json::str("benchmark")]);
    }
}
