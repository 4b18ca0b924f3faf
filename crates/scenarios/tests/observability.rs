//! The observability layer's contracts: the counter registry aggregates
//! order-independently (byte-identical reports at any thread count),
//! counters are monotone under merge and under longer runs, every
//! verification is a memo hit or miss, and the Chrome-trace export is
//! pinned by a golden file.

use prft_core::VerifyCache;
use prft_lab::{report, BatchRunner, ScenarioSpec};
use prft_sim::obs::hooks;
use prft_types::NodeId;
use proptest::prelude::*;

/// The fig2 single-round committee: small, crash-free, quiescent — the
/// same spec the `fig2` claims row runs, so the golden trace doubles as
/// the paper-figure regression.
fn fig2_spec() -> ScenarioSpec {
    ScenarioSpec::new("fig2", 4, 1)
        .base_seed(7)
        .horizon(100_000)
}

/// A busier committee (8 replicas, 3 rounds) for the determinism checks.
fn probe_spec() -> ScenarioSpec {
    ScenarioSpec::new("obs-probe", 8, 3)
        .base_seed(0x0b5e_7a11)
        .horizon(300_000)
}

#[test]
fn observability_section_is_thread_invariant() {
    let spec = probe_spec();
    const SEEDS: u64 = 8;
    let serial = BatchRunner::new(1).run(&spec, SEEDS);
    let parallel = BatchRunner::new(8).run(&spec, SEEDS);
    // The registry itself merges order-independently …
    assert_eq!(serial.observability, parallel.observability);
    assert!(!serial.observability.is_empty());
    // … and the full serialized report (which embeds the observability
    // section) is byte-identical — the CI acceptance criterion.
    let s = report::scenario_json("p", SEEDS, &[serial], false);
    let p = report::scenario_json("p", SEEDS, &[parallel], false);
    assert_eq!(s, p);
    assert!(s.contains("\"observability\""));
    assert!(s.contains("\"crypto.sig_verifies\""));
}

#[test]
fn per_run_engine_counters_surface_in_reports() {
    let spec = fig2_spec();
    let record = prft_lab::run_one(&spec, spec.base_seed);
    // The scalar engine counters ride on every run record …
    assert!(record.events_dispatched > 0);
    assert!(record.peak_queue_depth > 0);
    assert_eq!(record.in_flight_messages, 0, "quiescent run drains fully");
    // … and the registry holds the full catalog for the same run.
    assert_eq!(
        record.obs.counter("engine.events_dispatched"),
        record.events_dispatched
    );
    assert!(record.obs.counter("crypto.sig_verifies") > 0);
    assert!(record.obs.counter("engine.clone_bytes") > 0);
    assert!(record.obs.gauge("engine.peak_arena_occupancy") > 0);
    // Per-kind receive accounting: in a quiescent run every replica saw
    // every phase's quorum of messages.
    for i in 0..4 {
        assert_eq!(record.obs.counter(&format!("recv.P{i}.Propose.msgs")), 1);
        assert_eq!(record.obs.counter(&format!("recv.P{i}.Vote.msgs")), 4);
    }
    // CSV surfaces the aggregates (last columns of the schema).
    let batch = BatchRunner::new(1).run(&fig2_spec(), 2);
    let csv = report::scenario_csv("fig2", &[batch]);
    let header = csv.lines().next().unwrap();
    assert!(header
        .contains("events_dispatched_mean,peak_queue_depth_max,in_flight_max,sig_verifies_total"));
    assert!(header.ends_with("wl_latency_p99_mean,wl_mempool_peak_max"));
}

/// Pinned Chrome-trace export for the fig2 run. Regenerate after an
/// intentional protocol or trace-format change with:
///
/// ```text
/// UPDATE_GOLDEN=1 cargo test -p prft-lab --test observability
/// ```
#[test]
fn chrome_trace_matches_golden_file() {
    let spec = fig2_spec();
    let trace = prft_lab::chrome_trace_for(&spec, spec.base_seed);
    let rendered = prft_lab::render_chrome_trace(&trace);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/fig2_trace.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        rendered, golden,
        "Chrome trace drifted from tests/golden/fig2_trace.json \
         (UPDATE_GOLDEN=1 regenerates after intentional changes)"
    );
}

/// The fig2 golden run (crash-free, one round), a `crash-churn` run (view
/// changes, crashes and recoveries) and a `steady-load` run (client
/// tracks), each at the seed its `--trace-out` file uses.
#[test]
fn chrome_trace_is_well_formed() {
    let fig2 = fig2_spec();
    let seed = fig2.base_seed;
    trace_is_well_formed(&fig2, seed);
    for name in ["crash-churn", "steady-load"] {
        let spec = &prft_lab::find(name).expect("registered").specs[0];
        trace_is_well_formed(spec, prft_lab::derive_seed(spec.base_seed, 0));
    }
}

fn trace_is_well_formed(spec: &ScenarioSpec, seed: u64) {
    use prft_lab::json::Json;
    fn text<'a>(event: &'a Json, key: &str) -> Option<&'a str> {
        event.get(key).and_then(Json::as_str)
    }
    fn tick(event: &Json, key: &str) -> u64 {
        match event.get(key) {
            Some(Json::UInt(v)) => *v,
            _ => panic!("no {key}: {}", event.render()),
        }
    }
    let trace = prft_lab::chrome_trace_for(spec, seed);
    let doc = Json::parse(&prft_lab::render_chrome_trace(&trace)).expect("valid JSON");
    assert_eq!(text(&doc, "displayTimeUnit"), Some("ms"));
    let events = doc.get("traceEvents").and_then(Json::as_arr);
    let events = events.expect("an event array");
    assert_eq!(events, trace, "the file reads back as the events written");
    for event in events {
        // Metadata, complete spans, instants — each on a (pid, tid) track,
        // and everything but metadata timestamped.
        let ph = text(event, "ph").expect("every event has a phase type");
        assert!(["M", "X", "i"].contains(&ph), "{}", event.render());
        assert!(event.get("pid").is_some() && event.get("tid").is_some());
        assert!(ph == "M" || event.get("ts").is_some(), "{}", event.render());
    }
    let count = |key, value| {
        events
            .iter()
            .filter(|e| text(e, key) == Some(value))
            .count()
    };
    assert!(count("cat", "phase") > 0, "no phase spans");
    assert!(count("cat", "msg") > 0, "no message instants");
    assert!(count("ph", "X") > 0 && count("ph", "i") > 0);
    // One named track per actor: the replicas, then the clients.
    let tracks = events
        .iter()
        .filter(|e| text(e, "name") == Some("thread_name"));
    let names: Vec<&str> = tracks
        .map(|e| {
            e.get("args")
                .and_then(|args| text(args, "name"))
                .expect("a track name")
        })
        .collect();
    let clients = spec.workload.as_ref().map_or(0, |w| w.clients);
    let seats = (0..spec.n).map(|i| format!("P{i}"));
    let expected: Vec<String> = seats
        .chain((spec.n..spec.n + clients).map(|i| format!("C{i}")))
        .collect();
    assert_eq!(names, expected);
    // Each replica track's phase spans tile its timeline: every span ends
    // where the next begins, and the last ends at the run's stop tick.
    let (sim, _) = prft_lab::run_sim(spec, seed, |_| {});
    for tid in 0..spec.n as u64 {
        let on_track = |e: &&Json| text(e, "ph") == Some("X") && tick(e, "tid") == tid;
        let spans: Vec<(u64, u64)> = events
            .iter()
            .filter(on_track)
            .map(|e| (tick(e, "ts"), tick(e, "dur")))
            .collect();
        let ends = spans.iter().map(|(ts, dur)| ts + dur);
        let starts = spans.iter().skip(1).map(|(ts, _)| *ts);
        let expected: Vec<u64> = starts.chain([sim.now().0]).collect();
        assert_eq!(ends.collect::<Vec<_>>(), expected, "{} P{tid}", spec.label);
    }
}

/// `--trace-out` on a workload scenario traces the run the report
/// describes: the committee *and* its clients, not a client-less twin.
#[test]
fn workload_trace_shows_the_reported_run() {
    let spec = &prft_lab::find("steady-load").expect("registered").specs[0];
    let seed = prft_lab::derive_seed(spec.base_seed, 0);
    let clients = spec.workload.as_ref().expect("workload scenario").clients;
    let rendered = prft_lab::render_chrome_trace(&prft_lab::chrome_trace_for(spec, seed));
    let track = |name: String| rendered.contains(&format!("\"args\":{{\"name\":\"{name}\"}}"));
    assert!((0..spec.n).all(|i| track(format!("P{i}"))));
    assert!((spec.n..spec.n + clients).all(|i| track(format!("C{i}"))));
    assert_eq!(
        rendered.matches("\"thread_name\"").count(),
        spec.n + clients
    );

    let (traced, _) = prft_lab::run_sim(spec, seed, |sim| sim.set_tracing(true));
    let record = prft_lab::run_one(spec, seed);
    assert_eq!(traced.events_dispatched(), record.events_dispatched);
}

/// A seat checks every signature through its verify memo: in every
/// registry cell at two seeds (the runs of `run-all --seeds 2`), each
/// logical verification the hooks count is a memo hit or a memo miss —
/// view changes and `Expose`s included — and the `memo_identity` row
/// holds. So does a `crash-churn` run on the reference verifier, which
/// charges every verification as a miss.
#[test]
fn every_verification_is_a_memo_hit_or_miss() {
    let cells: Vec<(String, ScenarioSpec, u64)> = prft_lab::registry()
        .into_iter()
        .flat_map(|scenario| {
            scenario.specs.into_iter().flat_map(move |spec| {
                (0..2).map(move |i| {
                    let seed = prft_lab::derive_seed(spec.base_seed, i);
                    (
                        format!("{} {} #{i}", scenario.name, spec.label),
                        spec.clone(),
                        seed,
                    )
                })
            })
        })
        .collect();
    let short = prft_lab::par_map(2, &cells, |_, (cell, spec, seed)| {
        let record = prft_lab::run_one(spec, *seed);
        let h = hooks::snapshot();
        let holds = h.sig_verifies > 0 && h.memo_hits + h.memo_misses == h.sig_verifies;
        (!holds || !record.kept("memo_identity")).then(|| format!("{cell}: {h:?}"))
    });
    let short: Vec<String> = short.into_iter().flatten().collect();
    assert_eq!(cells.len(), 102);
    assert!(short.is_empty(), "{}", short.join("\n"));

    let spec = &prft_lab::find("crash-churn").expect("registered").specs[0];
    let seed = prft_lab::derive_seed(spec.base_seed, 0);
    hooks::reset();
    let (sim, outcome) = prft_lab::run_sim(spec, seed, |sim| {
        for seat in 0..spec.n {
            let replica = sim.node_mut(NodeId(seat)).as_replica_mut();
            replica
                .expect("committee seat")
                .install_verifier(VerifyCache::reference());
        }
    });
    let h = hooks::snapshot();
    let record = prft_lab::record_run(spec, &sim, seed, outcome);
    assert!(h.sig_verifies > 0 && h.memo_hits == 0, "{h:?}");
    assert_eq!(h.memo_misses, h.sig_verifies, "{h:?}");
    assert!(record.kept("memo_identity"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Counters are monotone in run length: an honest committee run for
    /// more rounds never decrements any counter or gauge of the shorter
    /// run's registry.
    #[test]
    fn counters_monotone_in_rounds(n in 4usize..9, rounds in 1u64..3, seed in 0u64..1000) {
        let short = prft_lab::run_one(
            &ScenarioSpec::new("m", n, rounds).base_seed(seed).horizon(400_000),
            seed,
        );
        let long = prft_lab::run_one(
            &ScenarioSpec::new("m", n, rounds + 1).base_seed(seed).horizon(400_000),
            seed,
        );
        for (key, value) in short.obs.counters() {
            prop_assert!(
                long.obs.counter(key) >= value,
                "counter {key} shrank: {} < {value}",
                long.obs.counter(key)
            );
        }
        for (key, value) in short.obs.gauges() {
            prop_assert!(long.obs.gauge(key) >= value, "gauge {key} shrank");
        }
    }

    /// Merging more runs into a batch registry is monotone: a superset of
    /// seeds dominates every counter of the subset's merged registry.
    #[test]
    fn merged_registry_monotone_in_seeds(seeds in 1u64..5) {
        let spec = fig2_spec();
        let small = BatchRunner::new(2).run(&spec, seeds);
        let large = BatchRunner::new(2).run(&fig2_spec(), seeds + 2);
        for (key, value) in small.observability.counters() {
            prop_assert!(large.observability.counter(key) >= value);
        }
    }
}
